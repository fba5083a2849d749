//! The `repro` dispatcher: one binary, one subcommand per experiment.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use diststream_types::{DistStreamError, Result};

use crate::cli::Cli;
use crate::experiments as x;
use crate::trace::TelemetrySession;

/// Runs to completion or fails with an error. `Ok(false)` is a run that
/// completed and failed the verdict it printed about itself.
type Experiment = fn(&Cli) -> Result<bool>;

/// What `all` runs: every experiment that owns a committed
/// `results/<name>.txt`, in the paper's order.
const ARTEFACTS: [(&str, Experiment); 14] = [
    ("table1", x::table1::table1),
    ("fig6", x::fig6::fig6),
    ("fig7", x::fig7::fig7),
    ("fig8", x::fig8::fig8),
    ("fig9", x::fig9::fig9),
    ("fig10", x::fig10::fig10),
    ("quality-faults", x::quality_faults::quality_faults),
    ("batchsize-quality", x::batchsize_quality::batchsize_quality),
    ("ablation-premerge", x::ablation_premerge::ablation_premerge),
    (
        "ablation-parallelism",
        x::ablation_parallelism::ablation_parallelism,
    ),
    ("ablation-async", x::ablation_async::ablation_async),
    (
        "adaptive-batchsize",
        x::adaptive_batchsize::adaptive_batchsize,
    ),
    ("matrix", crate::matrix::matrix),
    ("digest", x::digest::digest),
];

/// Subcommands with no artefact of their own.
const TOOLS: [(&str, Experiment); 2] = [("trace-smoke", x::trace_smoke::trace_smoke), ("all", all)];

fn resolve(name: &str) -> Option<Experiment> {
    ARTEFACTS
        .iter()
        .chain(&TOOLS)
        .find(|(known, _)| *known == name)
        .map(|&(_, run)| run)
}

fn usage() -> String {
    let names: Vec<&str> = ARTEFACTS.iter().chain(&TOOLS).map(|(n, _)| *n).collect();
    format!(
        "usage: repro <{}> [--records N] [--seed S] [--full] [--trace-out FILE] \
         [--metrics-out FILE]; matrix and digest also take [--rounds N], matrix \
         [--pipeline sync|overlapped|both]",
        names.join("|")
    )
}

/// The committed artefacts live at the workspace root (crates/bench/ → ../..).
fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.unwrap_or(Path::new(".")).join("results")
}

/// Runs every artefact at its defaults, each as a child of this executable
/// with its standard output as `results/<name>.txt` — byte for byte what
/// `repro <name>` prints. A failing child does not stop the others.
fn all(_: &Cli) -> Result<bool> {
    let io = |err: std::io::Error| DistStreamError::Storage(err.to_string());
    let exe = std::env::current_exe().map_err(io)?;
    let mut failed = Vec::new();
    for (name, _) in &ARTEFACTS {
        let path = results_dir().join(format!("{name}.txt"));
        eprintln!("repro all: {name} -> {}", path.display());
        let out = File::create(&path).map_err(io)?;
        if !Command::new(&exe)
            .arg(name)
            .stdout(out)
            .status()
            .map_err(io)?
            .success()
        {
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        eprintln!("repro all: failed: {}", failed.join(", "));
    }
    Ok(failed.is_empty())
}

/// Parses, opens the telemetry session once, runs. `Err` is the exit code
/// and what to say on stderr: 2 for a command line that cannot be read, 1
/// for an experiment that failed or failed its verdict.
fn run<I: IntoIterator<Item = String>>(args: I) -> std::result::Result<(), (u8, String)> {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    let experiment = resolve(&name).ok_or_else(|| {
        (
            2,
            format!("repro: unknown subcommand '{name}'\n{}", usage()),
        )
    })?;
    let cli =
        Cli::from_args(args).map_err(|err| (2, format!("repro {name}: {err}\n{}", usage())))?;
    let _telemetry = TelemetrySession::from_cli(&cli);
    match experiment(&cli) {
        Ok(true) => Ok(()),
        Ok(false) => Err((1, format!("repro {name}: FAIL"))),
        Err(err) => Err((1, format!("repro {name}: {err}"))),
    }
}

/// The whole of the `repro` binary: `args` are the process arguments after
/// the program name.
pub fn repro<I: IntoIterator<Item = String>>(args: I) -> ExitCode {
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_documented_subcommand_resolves() {
        for name in [
            "table1",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "quality-faults",
            "batchsize-quality",
            "ablation-premerge",
            "ablation-parallelism",
            "ablation-async",
            "adaptive-batchsize",
            "matrix",
            "digest",
            "trace-smoke",
            "all",
        ] {
            assert!(resolve(name).is_some(), "{name}");
            assert!(usage().contains(name), "{name}");
        }
        assert_eq!(ARTEFACTS.len() + TOOLS.len(), 16);
    }

    #[test]
    fn an_unknown_subcommand_or_flag_exits_2_listing_the_names() {
        for bad in [
            &["fig11"][..],
            &["kernel"],
            &[],
            &["--records", "10"],
            &["table1", "--quick"],
            &["fig6", "--records", "0"],
            &["digest", "--records", "1"],
            &["matrix", "--rounds", "0"],
        ] {
            let (code, message) = run(args(bad)).unwrap_err();
            assert_eq!(code, 2, "{bad:?}");
            for (name, _) in ARTEFACTS.iter().chain(&TOOLS) {
                assert!(message.contains(name), "{bad:?}: {message}");
            }
        }
    }

    /// Every committed artefact has a producer and every producer an
    /// artefact: what `all` writes is exactly what `results/` holds.
    #[test]
    fn all_runs_exactly_the_files_of_results() {
        let produced: BTreeSet<String> = ARTEFACTS
            .iter()
            .map(|(name, _)| format!("{name}.txt"))
            .collect();
        let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/ exists")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        assert_eq!(produced, committed);
    }
}
