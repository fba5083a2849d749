//! Workspace automation tasks.
//!
//! `cargo run -p xtask -- analyze` walks every shipping `.rs` file under
//! `crates/*/src` once and runs the rule table in `rules.rs` over it,
//! printing `file:line: [rule] message` diagnostics and exiting nonzero on
//! any finding. A finding goes away by fixing the code, or by a
//! `// lint:allow(<rule>) <why>` on the offending or preceding line; the
//! two audit rules are also counted per file against the committed
//! `crates/xtask/analyze-baseline.txt`, which `--update-baseline`
//! regenerates. `cargo run -p xtask -- rules` prints the table. See
//! DESIGN.md §7.
//!
//! `cargo run -p xtask -- check-trace <journal.jsonl>` validates a
//! telemetry span journal produced with `--trace-out`: schema version,
//! per-thread span nesting and ordering, and the per-batch critical-path
//! reconciliation. See DESIGN.md § "Telemetry".
//!
//! `cargo run -p xtask -- trace-analyze <journal.jsonl>` interprets a
//! journal's content: critical-path blame table, event-time latency
//! summary, `--baseline` phase-level diffing, `--what-if` scaling
//! prediction, and `--chrome-out` trace-event export. See DESIGN.md §12.
//!
//! `cargo run -p xtask -- bench-check [--quick]` re-measures the
//! performance baseline and fails on a >15% calibration-normalized
//! throughput regression against the committed `BENCH_BASELINE.json`
//! (`BENCH_BASELINE_QUICK.json` with `--quick`). See DESIGN.md §9.
//!
//! `cargo run -p xtask -- loc [--check]` prints the per-crate size report
//! (source files, non-test lines, `pub` items) committed as `LOC.txt`;
//! `--check` fails when the committed file is stale.

#![forbid(unsafe_code)]

mod analyze;
mod bench_check;
#[cfg(test)]
mod fixture_tests;
mod json;
mod lexer;
mod loc;
mod rules;
mod trace_analyze;
mod trace_check;
mod workspace;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => match parse_analyze_args(&args[1..]) {
            Ok((root, update_baseline)) => run_analyze(&root, update_baseline),
            Err(msg) => {
                eprintln!("xtask analyze: {msg}");
                eprintln!(
                    "usage: cargo run -p xtask -- analyze [--root <path>] [--update-baseline]"
                );
                ExitCode::FAILURE
            }
        },
        Some("rules") => {
            print!("{}", rules::catalog_text());
            ExitCode::SUCCESS
        }
        Some("check-trace") => match args.get(1) {
            Some(path) if args.len() == 2 => check_trace(Path::new(path)),
            _ => {
                eprintln!("usage: cargo run -p xtask -- check-trace <journal.jsonl>");
                ExitCode::FAILURE
            }
        },
        Some("trace-analyze") => match trace_analyze::parse_args(&args[1..]) {
            Ok(opts) => match trace_analyze::run(&opts) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(msg) => {
                    eprintln!("xtask trace-analyze: {msg}");
                    ExitCode::FAILURE
                }
            },
            Err(msg) => {
                eprintln!("xtask trace-analyze: {msg}");
                eprintln!(
                    "usage: cargo run -p xtask -- trace-analyze <journal.jsonl> \
                     [--baseline <journal.jsonl>] [--what-if p=8,16] \
                     [--chrome-out <trace.json>] [--blame-out <blame.txt>]"
                );
                ExitCode::FAILURE
            }
        },
        Some("bench-check") => match bench_check::parse_args(&args[1..]) {
            Ok((quick, root_override)) => {
                let root = match root_override {
                    Some(root) => root,
                    None => match parse_root(&[]) {
                        Ok(root) => root,
                        Err(msg) => {
                            eprintln!("xtask bench-check: {msg}");
                            return ExitCode::FAILURE;
                        }
                    },
                };
                match bench_check::run_gate(&root, quick) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(msg) => {
                        eprintln!("xtask bench-check: {msg}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(msg) => {
                eprintln!("xtask bench-check: {msg}");
                eprintln!("usage: cargo run -p xtask -- bench-check [--quick] [--root <path>]");
                ExitCode::FAILURE
            }
        },
        Some("loc") => {
            let (check, rest) = match args.get(1).map(String::as_str) {
                Some("--check") => (true, &args[2..]),
                _ => (false, &args[1..]),
            };
            match parse_root(rest).and_then(|root| loc::run(&root, check)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(msg) => {
                    eprintln!("xtask loc: {msg}");
                    eprintln!("usage: cargo run -p xtask -- loc [--check] [--root <path>]");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <analyze|rules|check-trace|trace-analyze|bench-check|loc> \
                 [--root <path>] [--update-baseline] [--quick] [--check] \
                 [--baseline <journal>] [--what-if p=8,16] [--chrome-out <f>] \
                 [--blame-out <f>] [<journal.jsonl>]"
            );
            ExitCode::FAILURE
        }
    }
}

fn check_trace(path: &Path) -> ExitCode {
    match trace_check::check_trace_file(path) {
        Ok(stats) => {
            println!(
                "xtask check-trace: {} OK — {} event line(s), {} span(s) closed across \
                 {} thread(s), {} point(s) ({} batch summaries reconciled)",
                path.display(),
                stats.lines,
                stats.spans_closed,
                stats.threads,
                stats.points,
                stats.batch_summaries
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for error in &errors {
                println!("{}: {error}", path.display());
            }
            println!(
                "xtask check-trace: {} violation(s) in {}",
                errors.len(),
                path.display()
            );
            ExitCode::FAILURE
        }
    }
}

fn parse_root(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [flag, path] if flag == "--root" => return Ok(PathBuf::from(path)),
        [flag] if flag == "--root" => return Err("--root requires a path argument".into()),
        [arg, ..] => return Err(format!("unrecognized argument `{arg}`")),
        [] => {}
    }
    default_root()
}

fn default_root() -> Result<PathBuf, String> {
    // crates/xtask/ -> workspace root.
    Ok(Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(".")))
}

fn parse_analyze_args(args: &[String]) -> Result<(PathBuf, bool), String> {
    let mut root: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let path = it.next().ok_or("--root requires a path argument")?;
                root = Some(PathBuf::from(path));
            }
            "--update-baseline" => update_baseline = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    let root = match root {
        Some(root) => root,
        None => default_root()?,
    };
    Ok((root, update_baseline))
}

fn run_analyze(root: &Path, update_baseline: bool) -> ExitCode {
    let report = match analyze::run(root, update_baseline) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("xtask analyze: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.active {
        println!(
            "{path}:{line}: [{rule}] {message}",
            path = f.path,
            line = f.line,
            rule = f.rule,
            message = f.message
        );
    }
    for (rule, path, allowed, current) in &report.ratchet {
        println!(
            "xtask analyze: note: {path} is below its `{rule}` baseline ({current} < {allowed}); \
             run with --update-baseline to ratchet down"
        );
    }
    if report.active.is_empty() {
        println!(
            "xtask analyze: {} files clean across {} rules ({} baselined finding(s) grandfathered)",
            report.files_scanned,
            rules::RULES.len(),
            report.baselined
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask analyze: {} violation(s) in {} file(s) ({} baselined finding(s) grandfathered)",
            report.active.len(),
            report
                .active
                .iter()
                .map(|f| &f.path)
                .collect::<BTreeSet<_>>()
                .len(),
            report.baselined
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_args_parse_all_flags() {
        let (root, update_baseline) = parse_analyze_args(&[
            "--root".to_string(),
            "/tmp/ws".to_string(),
            "--update-baseline".to_string(),
        ])
        .expect("valid args");
        assert_eq!(root, PathBuf::from("/tmp/ws"));
        assert!(update_baseline);
    }

    #[test]
    fn analyze_args_reject_unknown_flags() {
        assert!(parse_analyze_args(&["--bogus".to_string()]).is_err());
        assert!(parse_analyze_args(&["--sarif".to_string()]).is_err());
        assert!(parse_analyze_args(&["--root".to_string()]).is_err());
    }

    #[test]
    fn default_root_is_the_workspace() {
        let root = parse_root(&[]).expect("default root");
        assert!(root.join("crates/xtask/Cargo.toml").is_file());
    }
}
