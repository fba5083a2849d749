//! `xtask trace-analyze`: trace analytics over a telemetry journal.
//!
//! Where `check-trace` validates a journal's *structure*, this command
//! interprets its *content* via the `diststream-trace` library:
//!
//! 1. per-batch critical paths aggregated into a run-level blame table
//!    naming the dominant phase (with the reconciliation check from the
//!    structural gate re-applied — an unreconciled batch means the blame
//!    numbers cannot be trusted), below one set-up line for the jobs'
//!    `init` spans;
//! 2. `--baseline <journal>`: a phase-by-phase diff against another run,
//!    attributing a slowdown to the phase that grew the most;
//! 3. `--what-if p=8,16`: predictions of run time at hypothetical
//!    parallelism degrees — the recorded task durations replayed through
//!    the runtime's own list schedule — with the Amdahl serial-fraction
//!    ceiling;
//! 4. `--chrome-out <file>`: the journal re-rendered in the Chrome
//!    trace-event format for `chrome://tracing` / Perfetto;
//! 5. `--blame-out <file>`: the blame table written to a file for CI
//!    artifacts.
//!
//! A journal whose `drops` trailer records lost events fails the command:
//! every analysis here would silently under-count.

use std::path::{Path, PathBuf};

use diststream_telemetry::time_model::RECONCILE_REL_TOL;
use diststream_trace::{analysis, chrome, diff, whatif, RunProfile};

/// Parsed `trace-analyze` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The journal to analyze.
    pub journal: PathBuf,
    /// Optional baseline journal to diff against.
    pub baseline: Option<PathBuf>,
    /// Hypothetical parallelism degrees for the what-if prediction.
    pub what_if: Vec<usize>,
    /// Optional Chrome trace-event output path.
    pub chrome_out: Option<PathBuf>,
    /// Optional blame-table output path.
    pub blame_out: Option<PathBuf>,
}

/// Parses `trace-analyze` arguments:
/// `<journal> [--baseline <journal>] [--what-if p=8,16] [--chrome-out f]
/// [--blame-out f]`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut journal = None;
    let mut baseline = None;
    let mut what_if = Vec::new();
    let mut chrome_out = None;
    let mut blame_out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => {
                let path = iter.next().ok_or("--baseline requires a journal path")?;
                baseline = Some(PathBuf::from(path));
            }
            "--what-if" => {
                let spec = iter.next().ok_or("--what-if requires a degree list")?;
                what_if = parse_what_if(spec)?;
            }
            "--chrome-out" => {
                let path = iter.next().ok_or("--chrome-out requires a file path")?;
                chrome_out = Some(PathBuf::from(path));
            }
            "--blame-out" => {
                let path = iter.next().ok_or("--blame-out requires a file path")?;
                blame_out = Some(PathBuf::from(path));
            }
            other if other.starts_with("--") => {
                return Err(format!("unrecognized argument `{other}`"))
            }
            path if journal.is_none() => journal = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected extra argument `{extra}`")),
        }
    }
    Ok(Options {
        journal: journal.ok_or("missing journal path")?,
        baseline,
        what_if,
        chrome_out,
        blame_out,
    })
}

/// Parses a what-if degree list: `p=8,16` or `8,16`.
fn parse_what_if(spec: &str) -> Result<Vec<usize>, String> {
    let list = spec.strip_prefix("p=").unwrap_or(spec);
    let degrees: Result<Vec<usize>, String> = list
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .ok()
                .filter(|&p| p >= 1)
                .ok_or_else(|| format!("bad what-if degree `{part}` (want p=8,16 style)"))
        })
        .collect();
    let degrees = degrees?;
    if degrees.is_empty() {
        return Err("--what-if requires at least one degree".to_string());
    }
    Ok(degrees)
}

/// Loads and analyzes one journal file.
fn load(path: &Path) -> Result<(diststream_trace::Journal, RunProfile), String> {
    let journal = diststream_trace::parse_journal_file(path)
        .map_err(|err| format!("{}: {err}", path.display()))?;
    let run = analysis::analyze(&journal);
    Ok((journal, run))
}

/// Records-weighted summary of the per-batch latency digests:
/// `(records, mean, p50, p95, p99)`. `None` when no batch journaled one.
fn latency_summary(run: &RunProfile) -> Option<(f64, f64, f64, f64, f64)> {
    let mut records = 0.0;
    let mut sums = [0.0f64; 4];
    for digest in run.batches.iter().filter_map(|b| b.latency.as_ref()) {
        records += digest.records;
        for (slot, value) in sums.iter_mut().zip([
            digest.mean_secs,
            digest.p50_secs,
            digest.p95_secs,
            digest.p99_secs,
        ]) {
            *slot += value * digest.records;
        }
    }
    if records <= 0.0 {
        return None;
    }
    let [mean, p50, p95, p99] = sums.map(|s| s / records);
    Some((records, mean, p50, p95, p99))
}

/// Runs the analysis. `Ok(true)` on success, `Ok(false)` when the journal
/// is untrustworthy (dropped events or unreconciled batches).
pub fn run(opts: &Options) -> Result<bool, String> {
    let (journal, run) = load(&opts.journal)?;
    if run.batches.is_empty() {
        return Err(format!(
            "{}: no batch_summary points — was the run traced?",
            opts.journal.display()
        ));
    }

    let mut failures = Vec::new();
    if run.drops > 0 {
        failures.push(format!(
            "journal truncated: {} event(s) dropped by the bounded writer queue — every \
             number below is a lower bound",
            run.drops
        ));
    }
    for batch in &run.batches {
        if let Err((path, total)) = batch.reconcile() {
            failures.push(format!(
                "batch {}: critical path sums to {path:.6}s but recorded total is {total:.6}s \
                 (tolerance {:.0}%)",
                batch.batch,
                RECONCILE_REL_TOL * 100.0
            ));
        }
    }

    let records: f64 = run.batches.iter().map(|b| b.records).sum();
    println!(
        "xtask trace-analyze: {} — {} batch(es), {records:.0} record(s), {:.6}s recorded, \
         {:.6}s wall-side ingest",
        opts.journal.display(),
        run.batches.len(),
        run.total_secs(),
        run.ingest_secs
    );

    let blame = run.blame();
    println!();
    if let Some(setup) = run.setup_line() {
        println!("{setup}");
    }
    println!("critical-path blame table:");
    print!("{}", blame.render());

    if let Some((records, mean, p50, p95, p99)) = latency_summary(&run) {
        println!();
        println!(
            "event-time latency ({records:.0} record(s), records-weighted over per-batch \
             percentiles):"
        );
        println!("  mean {mean:.6}s  p50 {p50:.6}s  p95 {p95:.6}s  p99 {p99:.6}s");
    }

    if let Some(baseline_path) = &opts.baseline {
        let (_, baseline_run) = load(baseline_path)?;
        if baseline_run.batches.is_empty() {
            return Err(format!(
                "{}: no batch_summary points — was the baseline traced?",
                baseline_path.display()
            ));
        }
        let deltas = diff::diff_blame(&baseline_run.blame(), &blame);
        println!();
        println!("vs baseline {}:", baseline_path.display());
        print!("{}", diff::render(&deltas));
        if diff::attribute_regression(&deltas).is_none() {
            println!("no phase regressed against the baseline");
        }
    }

    if !opts.what_if.is_empty() {
        let predictions = whatif::predict(&run, &opts.what_if);
        println!();
        println!("what-if scaling prediction (list-schedule replay of recorded task durations):");
        print!("{}", whatif::render(&predictions, run.total_secs()));
    }

    if let Some(out) = &opts.chrome_out {
        std::fs::write(out, chrome::export(&journal))
            .map_err(|err| format!("cannot write {}: {err}", out.display()))?;
        println!();
        println!(
            "chrome trace written to {} (load in chrome://tracing)",
            out.display()
        );
    }
    if let Some(out) = &opts.blame_out {
        std::fs::write(out, blame.render())
            .map_err(|err| format!("cannot write {}: {err}", out.display()))?;
        println!("blame table written to {}", out.display());
    }

    if failures.is_empty() {
        println!();
        println!(
            "xtask trace-analyze: OK — {} batch(es) reconciled within {:.0}%",
            run.batches.len(),
            RECONCILE_REL_TOL * 100.0
        );
        Ok(true)
    } else {
        println!();
        for failure in &failures {
            println!("  FAIL: {failure}");
        }
        println!(
            "xtask trace-analyze: {} problem(s) in {}",
            failures.len(),
            opts.journal.display()
        );
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_trace::parse_journal;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_handles_every_flag() {
        let opts = parse_args(&args(&[
            "run.jsonl",
            "--baseline",
            "base.jsonl",
            "--what-if",
            "p=8,16",
            "--chrome-out",
            "trace.json",
            "--blame-out",
            "blame.txt",
        ]))
        .expect("valid args");
        assert_eq!(opts.journal, PathBuf::from("run.jsonl"));
        assert_eq!(opts.baseline, Some(PathBuf::from("base.jsonl")));
        assert_eq!(opts.what_if, vec![8, 16]);
        assert_eq!(opts.chrome_out, Some(PathBuf::from("trace.json")));
        assert_eq!(opts.blame_out, Some(PathBuf::from("blame.txt")));
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["a.jsonl", "b.jsonl"])).is_err());
        assert!(parse_args(&args(&["a.jsonl", "--bogus"])).is_err());
        assert!(parse_args(&args(&["a.jsonl", "--what-if"])).is_err());
        assert!(parse_args(&args(&["a.jsonl", "--what-if", "p=0"])).is_err());
        assert!(parse_args(&args(&["a.jsonl", "--what-if", "p=x"])).is_err());
    }

    #[test]
    fn what_if_spec_accepts_both_spellings() {
        assert_eq!(parse_what_if("p=8,16").unwrap(), vec![8, 16]);
        assert_eq!(parse_what_if("4").unwrap(), vec![4]);
        assert!(parse_what_if("").is_err());
    }

    #[test]
    fn latency_summary_weights_batches_by_records() {
        let contents = "{\"ev\":\"meta\",\"version\":1,\"clock\":\"monotonic-us\"}\n\
            {\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":0,\"t_us\":1,\"batch\":0,\
             \"records\":100,\"assignment_secs\":1.0,\"local_secs\":0.0,\"global_secs\":0.0,\
             \"overhead_secs\":0.0,\"total_secs\":1.0,\"async_overlap\":0.0,\"parallelism\":1}\n\
            {\"ev\":\"point\",\"name\":\"record_latency\",\"thread\":0,\"seq\":1,\"t_us\":2,\"batch\":0,\
             \"records\":100,\"mean_secs\":1.0,\"p50_secs\":1.0,\"p95_secs\":2.0,\"p99_secs\":2.0}\n\
            {\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":2,\"t_us\":3,\"batch\":1,\
             \"records\":300,\"assignment_secs\":1.0,\"local_secs\":0.0,\"global_secs\":0.0,\
             \"overhead_secs\":0.0,\"total_secs\":1.0,\"async_overlap\":0.0,\"parallelism\":1}\n\
            {\"ev\":\"point\",\"name\":\"record_latency\",\"thread\":0,\"seq\":3,\"t_us\":4,\"batch\":1,\
             \"records\":300,\"mean_secs\":3.0,\"p50_secs\":3.0,\"p95_secs\":6.0,\"p99_secs\":6.0}";
        let run = analysis::analyze(&parse_journal(contents).expect("parses"));
        let (records, mean, p50, p95, p99) = latency_summary(&run).expect("latency present");
        assert_eq!(records, 400.0);
        // (1.0*100 + 3.0*300) / 400 = 2.5
        assert!((mean - 2.5).abs() < 1e-12);
        assert!((p50 - 2.5).abs() < 1e-12);
        assert!((p95 - 5.0).abs() < 1e-12);
        assert!((p99 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_is_none_without_digests() {
        let contents = "{\"ev\":\"meta\",\"version\":1,\"clock\":\"monotonic-us\"}\n\
            {\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":0,\"t_us\":1,\"batch\":0,\
             \"records\":100,\"assignment_secs\":1.0,\"local_secs\":0.0,\"global_secs\":0.0,\
             \"overhead_secs\":0.0,\"total_secs\":1.0,\"async_overlap\":0.0,\"parallelism\":1}";
        let run = analysis::analyze(&parse_journal(contents).expect("parses"));
        assert_eq!(latency_summary(&run), None);
    }
}
