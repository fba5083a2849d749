//! Command line: one workload (the driver's contract), `--all`, `--aa N`.
//!
//! The process the user starts only orchestrates. Every measurement runs in
//! a child process of this same executable (`--rep`), one at a time: an
//! end-to-end run is [`REPS`] children, each setting up from scratch and
//! measuring a fifth of the run on the same batches, and what is reported
//! keeps the second-fastest of their timings, batch by batch (see
//! [`crate::series`]); a traced run is one child.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::harness::{run_workload, Opts};
use crate::metrics::{END_TO_END, RUN_SECONDS};
use crate::result::ResultLine;
use crate::series::{Series, KEPT_RANK};
use crate::stats::{median, sorted, spread};
use crate::workloads::{by_name, Workload, WORKLOADS};

/// Child processes per end-to-end run (2 under `--quick`).
pub const REPS: usize = 5;

/// Children a run may measure again because their open-loop measurement
/// was invalid (a host stall at the wrong moment: about one child in two
/// hundred on a busy day). A system that cannot keep the offered rate is
/// invalid every time and still fails the run.
pub const INVALID_RETRIES: usize = 2;

const USAGE: &str = "\
usage: diststream-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       diststream-benchmark --all            [--seed N] [--seconds S]
       diststream-benchmark --aa <runs>      [--seed N] [--seconds S]
options: --quick   record counts / 20, short phases; numbers are NOT comparable
         --force   run even if the workload needs more threads than the host has cores
         --out DIR where traces land (default benchmark/out)
         --rep     measure once, in this process (what the modes above start)";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    all: bool,
    aa: Option<usize>,
    rep: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    force: bool,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        aa: None,
        rep: false,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        force: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--aa" => {
                let n: usize = value("a run count")?
                    .parse()
                    .map_err(|_| "--aa needs a run count".to_string())?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs".into());
                }
                args.aa = Some(n);
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--all" => args.all = true,
            "--rep" => args.rep = true,
            "--quick" => args.quick = true,
            "--force" => args.force = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.aa.is_some());
    if modes != 1 {
        return Err("choose one of --workload, --all, --aa".into());
    }
    if args.rep && args.workload.is_none() {
        return Err("--rep needs --workload".into());
    }
    Ok(args)
}

/// Machine-speed score: the same subtract-square-accumulate loop as
/// `crates/bench`'s `baseline::calibration_score`, copied so results from
/// different hosts can be told apart. Elements per second.
pub fn calibration_score() -> f64 {
    const N: usize = 1 << 16;
    const REPS: usize = 64;
    let data: Vec<f64> = (0..N).map(|i| (i % 1024) as f64 * 1e-3).collect();
    let start = Instant::now();
    let mut acc = 0.0f64;
    for rep in 0..REPS {
        let q = rep as f64 * 0.5;
        for &v in &data {
            let d = v - q;
            acc += d * d;
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    (N * REPS) as f64 / secs
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Entry point; `process_start` is when `main` began.
pub fn main(process_start: Instant, argv: Vec<String>) -> ExitCode {
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS as f64 });
    let outcome = match &args.workload {
        Some(name) => match by_name(name) {
            Some(w) if args.rep => return rep(w, &args, seconds, process_start),
            Some(w) => measure(w, &args, seconds, args.trace).map(|result| {
                println!("{}", result.to_line());
                result.correct
            }),
            None => Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
        None => fleet(&args, seconds),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--rep`: measures workload `w` once, in this process.
fn rep(w: &Workload, args: &Args, seconds: f64, process_start: Instant) -> ExitCode {
    println!("## calibration={:.4e}", calibration_score());
    let opts = Opts {
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
        process_start,
    };
    match run_workload(w, &opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            let result = outcome.result();
            print_metrics(&result);
            println!("{}", result.to_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {}: {message}", w.name);
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(result: &ResultLine) {
    for (name, value, unit) in &result.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

/// What one `--rep` child reported.
struct Child {
    result: ResultLine,
    /// The model digest line it printed.
    digest: Option<String>,
    /// Its timed phase batch by batch (end-to-end children only).
    series: Option<Series>,
    /// Its only failed check is the open-loop validity guard: the
    /// measurement is unusable, the program was not shown wrong.
    invalid: bool,
}

/// Runs one `--rep` child, echoes its report and returns what it reported.
/// A child that fails its checks still returns its result (`correct:
/// false`); one that printed none is an error.
fn child(w: &Workload, args: &Args, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
    let result = ResultLine::parse(last).ok_or_else(|| {
        print!("{stdout}");
        format!("{}: child printed no result ({})", w.name, output.status)
    })?;
    for line in report.lines().filter(|l| !Series::is_line(l)) {
        println!("{line}");
    }
    if output.status.success() != result.correct {
        return Err(format!("{}: child exited with {}", w.name, output.status));
    }
    let digest = report
        .lines()
        .find(|l| l.trim_start().starts_with("model digest"))
        .map(|l| l.trim().to_string());
    Ok(Child {
        result,
        digest,
        series: Series::parse(report),
        invalid: only_invalid(report),
    })
}

/// Whether the open-loop validity guard is the one check a child's report
/// says it failed.
fn only_invalid(report: &str) -> bool {
    let mut failures = report.lines().filter(|l| l.contains("FAILED:"));
    failures
        .next()
        .is_some_and(|l| l.contains("INVALID open-loop run"))
        && failures.next().is_none()
}

/// One end-to-end metric of a run from its children's values: set-up time
/// and memory are medians; a timing keeps the second-best child, like the
/// stream metrics, which come batch by batch from the combined series.
fn across_children(name: &str, values: &[f64], stream: &[(&str, f64)]) -> f64 {
    if let Some((_, value)) = stream.iter().find(|(n, _)| *n == name) {
        return *value;
    }
    let ascending = sorted(values.to_vec());
    let second = KEPT_RANK.min(ascending.len() - 1);
    match name {
        "predict_qps" => ascending[ascending.len() - 1 - second],
        "predict_p50_us" => ascending[second],
        _ => median(values),
    }
}

/// One run of workload `w` as the driver sees it: the validity guard, the
/// child processes, and the result — for an end-to-end run every metric
/// combined over the children, which must all be correct, see the same
/// batches and end on the same model.
fn measure(w: &Workload, args: &Args, seconds: f64, trace: bool) -> Result<ResultLine, String> {
    let cores = host_cores();
    if w.threads() > cores && !args.force {
        return Err(format!(
            "{} keeps {} threads runnable but the host has {cores} core(s); \
             its timings would measure the scheduler. Pass --force to run anyway.",
            w.name,
            w.threads()
        ));
    }
    let reps = match (trace, args.quick) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => REPS,
    };
    println!(
        "# {} seed={} seconds={seconds} trace={} host_cores={cores} reps={reps}{}",
        w.name,
        args.seed,
        u8::from(trace),
        if args.quick {
            " QUICK (not comparable)"
        } else {
            ""
        }
    );
    let mut children = Vec::with_capacity(reps);
    let mut retries = INVALID_RETRIES;
    while children.len() < reps {
        let measured = child(w, args, seconds / reps as f64, trace)?;
        if measured.invalid && retries > 0 {
            retries -= 1;
            println!("  invalid open-loop measurement dropped; measuring that child again");
            continue;
        }
        children.push(measured);
    }
    let results: Vec<&ResultLine> = children.iter().map(|c| &c.result).collect();
    let mut correct = results.iter().all(|r| r.correct);
    if children.windows(2).any(|c| c[0].digest != c[1].digest) {
        println!("  FAILED: runs of the same fixed work ended on different models");
        correct = false;
    }
    let stream = if trace {
        Vec::new()
    } else {
        let series: Vec<Series> = children.iter().filter_map(|c| c.series.clone()).collect();
        if series.len() != reps {
            return Err(format!("{}: a child reported no batch series", w.name));
        }
        Series::combine(&series, KEPT_RANK)?.metrics().to_vec()
    };
    let mut metrics = Vec::with_capacity(results[0].metrics.len());
    for (name, value, unit) in &results[0].metrics {
        let value = if trace {
            *value
        } else {
            let values: Vec<f64> = results
                .iter()
                .map(|r| r.value(name).ok_or(format!("{name} missing from a run")))
                .collect::<Result<_, _>>()?;
            across_children(name, &values, &stream)
        };
        metrics.push((name.clone(), value, unit.clone()));
    }
    let result = ResultLine {
        correct,
        attempted: results.iter().map(|r| r.attempted).sum(),
        failed: results.iter().map(|r| r.failed).sum(),
        metrics,
    };
    if reps > 1 {
        println!(
            "# {}: {reps} children combined (second-best timing of every batch)",
            w.name
        );
        print_metrics(&result);
    }
    Ok(result)
}

/// `--all` and `--aa`: every workload. Returns whether everything passed.
fn fleet(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    match args.aa {
        None => {
            for w in &WORKLOADS {
                for trace in [false, true] {
                    let result = measure(w, args, seconds, trace)?;
                    println!("{}", result.to_line());
                    ok &= result.correct;
                }
            }
        }
        Some(runs) => {
            for w in &WORKLOADS {
                let mut results = Vec::with_capacity(runs);
                for _ in 0..runs {
                    results.push(measure(w, args, seconds, false)?);
                }
                ok &= results.iter().all(|r| r.correct);
                println!(
                    "== A/A {} x{runs} seed={} seconds={seconds}",
                    w.name, args.seed
                );
                println!(
                    "  {:<26} {:>14} {:>14} {:>14} {:>8} {:>7}",
                    "metric", "min", "median", "max", "spread", "bound"
                );
                for m in &END_TO_END {
                    let values: Vec<f64> = results
                        .iter()
                        .map(|r| r.value(m.name).ok_or(format!("{} missing", m.name)))
                        .collect::<Result<_, _>>()?;
                    let v = sorted(values.clone());
                    let s = spread(&values);
                    // Set-up time carries a bound on its median only.
                    let exceeds = s > m.bound && m.name != "setup_s";
                    let verdict = if exceeds { "  EXCEEDS BOUND" } else { "" };
                    ok &= !exceeds;
                    println!(
                        "  {:<26} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%{verdict}",
                        m.name,
                        v[0],
                        median(&values),
                        v[v.len() - 1],
                        100.0 * s,
                        100.0 * m.bound
                    );
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::only_invalid;

    #[test]
    fn only_an_invalid_measurement_alone_is_measured_again() {
        let invalid = "  FAILED: INVALID open-loop run: generator lag p95 5ms (limit 4.192ms)";
        assert!(only_invalid(&format!("  set-up 0.4s\n{invalid}\n")));
        assert!(!only_invalid("  set-up 0.4s\n"));
        assert!(!only_invalid("  FAILED: purity 0.5 below floor 0.9\n"));
        assert!(!only_invalid(&format!(
            "{invalid}\n  FAILED: 3 predicts lost a published model\n"
        )));
    }
}
