//! Workspace automation tasks.
//!
//! `cargo run -p xtask -- analyze` walks every shipping `.rs` file under
//! `crates/*/src` once and runs the rule table in `rules.rs` over it,
//! printing `file:line: [rule] message` diagnostics and exiting nonzero on
//! any finding. A finding goes away by fixing the code, or by a
//! `// lint:allow(<rule>) <why>` on the offending or preceding line.
//! `cargo run -p xtask -- rules` prints the table. See DESIGN.md §7.
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
//! `cargo run -p xtask -- loc [--check]` prints the per-crate size report
//! (source files, non-test lines, `pub` items) committed as `LOC.txt`;
//! `--check` fails when the committed file is stale.

#![forbid(unsafe_code)]

mod analyze;
#[cfg(test)]
mod fixture_tests;
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
        Some("analyze") => match parse_root(&args[1..]) {
            Ok(root) => run_analyze(&root),
            Err(msg) => {
                eprintln!("xtask analyze: {msg}");
                eprintln!("usage: cargo run -p xtask -- analyze [--root <path>]");
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
                 <analyze|rules|check-trace|trace-analyze|loc> \
                 [--root <path>] [--check] \
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

fn run_analyze(root: &Path) -> ExitCode {
    let report = match analyze::run(root) {
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
    // "0 baselined": there is no baseline file; an inline allow is the only
    // way a finding stays.
    if report.active.is_empty() {
        println!(
            "xtask analyze: {} files clean across {} rules (0 baselined)",
            report.files_scanned,
            rules::RULES.len(),
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask analyze: {} violation(s) in {} file(s) (0 baselined)",
            report.active.len(),
            report
                .active
                .iter()
                .map(|f| &f.path)
                .collect::<BTreeSet<_>>()
                .len(),
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_args_parse_or_reject() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_root(&args(&["--root", "/tmp/ws"])),
            Ok(PathBuf::from("/tmp/ws"))
        );
        for bad in [&["--bogus"][..], &["--sarif", "x"], &["--root"]] {
            assert!(parse_root(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_root_is_the_workspace() {
        let root = parse_root(&[]).expect("default root");
        assert!(root.join("crates/xtask/Cargo.toml").is_file());
    }
}
