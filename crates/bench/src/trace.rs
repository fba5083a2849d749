//! Telemetry session management for the `repro` binary.
//!
//! [`TelemetrySession`] is an RAII guard around the `--trace-out` /
//! `--metrics-out` flags: constructing one (from the parsed [`Cli`])
//! enables tracing and installs the JSONL journal sink; dropping it drains
//! the journal, writes the metrics exposition file, and prints the human
//! metrics summary table. The dispatcher opens one per run, whatever the
//! subcommand.

use std::path::PathBuf;

use diststream_telemetry as telemetry;

use crate::cli::Cli;
use crate::report::{print_table, Table};

/// RAII guard for one experiment run's telemetry session.
///
/// Inert (and free) when neither telemetry flag was passed.
#[derive(Debug)]
pub(crate) struct TelemetrySession {
    active: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl TelemetrySession {
    /// Starts a session according to the CLI flags. A journal-file open
    /// failure disables tracing with a warning rather than aborting the
    /// experiment.
    pub(crate) fn from_cli(cli: &Cli) -> TelemetrySession {
        Self::start(cli.trace_out.clone(), cli.metrics_out.clone())
    }

    /// Starts a session with explicit output paths (testable).
    pub(crate) fn start(
        trace_out: Option<PathBuf>,
        metrics_out: Option<PathBuf>,
    ) -> TelemetrySession {
        let mut active = false;
        let mut trace = None;
        if let Some(path) = trace_out {
            match telemetry::start_file_session(&path) {
                Ok(()) => {
                    eprintln!("telemetry: writing span journal to {}", path.display());
                    active = true;
                    trace = Some(path);
                }
                Err(err) => {
                    eprintln!(
                        "telemetry: cannot open {}: {err}; tracing disabled",
                        path.display()
                    );
                }
            }
        } else if metrics_out.is_some() {
            // Metrics-only session: enable recording without a journal
            // sink (span events are discarded at each drain).
            telemetry::set_enabled(true);
            active = true;
        }
        if active {
            // Fresh registry so the dump reflects this run only.
            telemetry::metrics::reset();
        }
        TelemetrySession {
            active,
            trace_out: trace,
            metrics_out,
        }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        telemetry::finish_file_session();
        if let Some(path) = &self.metrics_out {
            if let Err(err) = std::fs::write(path, telemetry::expose()) {
                eprintln!("telemetry: cannot write {}: {err}", path.display());
            } else {
                eprintln!("telemetry: wrote metrics dump to {}", path.display());
            }
        }
        let rows = telemetry::summary_rows();
        if !rows.is_empty() {
            let mut table = Table::new(["metric", "kind", "value", "detail"]);
            for (name, kind, value, detail) in rows {
                table.row([name, kind.to_string(), value, detail]);
            }
            print_table("Telemetry summary", &table);
        }
        if let Some(path) = &self.trace_out {
            let dropped = telemetry::dropped_events();
            if dropped > 0 {
                eprintln!("telemetry: {dropped} event(s) lost (sink missing or write errors)");
            }
            print_blame(path);
        }
    }
}

/// Prints the run's critical-path blame table from the journal just
/// written. Best-effort: a journal that cannot be parsed (e.g. truncated
/// by write errors) only warns.
fn print_blame(path: &std::path::Path) {
    let run = match diststream_trace::parse_journal_file(path)
        .and_then(|journal| diststream_trace::analyze(&journal))
    {
        Ok(run) => run,
        Err(err) => {
            eprintln!("telemetry: cannot analyze {}: {err}", path.display());
            return;
        }
    };
    if run.batches.is_empty() {
        return;
    }
    println!();
    println!(
        "Critical-path blame ({} batch(es), {:.6}s recorded; full analysis: \
         `cargo run -p xtask -- trace-analyze {}`):",
        run.batches.len(),
        run.total_secs(),
        path.display()
    );
    print!("{}", run.blame().render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flags_is_inert() {
        let session = TelemetrySession::start(None, None);
        assert!(!session.active);
        assert!(!telemetry::enabled());
    }

    #[test]
    fn trace_flag_enables_and_drop_disables() {
        let dir = std::env::temp_dir().join("diststream-trace-session-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("session.jsonl");
        {
            let session = TelemetrySession::start(Some(path.clone()), None);
            assert!(session.active);
            assert!(telemetry::enabled());
            let _span = telemetry::span!(telemetry::names::SPAN_SESSION_TEST);
        }
        assert!(!telemetry::enabled());
        let journal = std::fs::read_to_string(&path).expect("journal written");
        assert!(journal
            .lines()
            .next()
            .expect("meta line")
            .contains("\"ev\":\"meta\""));
        assert!(journal.contains("session_test"));
        let _ = std::fs::remove_file(&path);
    }
}
