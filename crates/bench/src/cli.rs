//! The one command line of the `repro` binary, parsed once.

use std::path::PathBuf;

/// Everything that can be set on a `repro` run.
///
/// ```text
/// repro <subcommand>
///   --records N        base records per dataset, at least 100 (default varies per experiment)
///   --seed S           dataset generation seed (default 42)
///   --full             run at the real datasets' full record counts
///   --trace-out FILE   write the telemetry span journal (JSONL) to FILE
///   --metrics-out FILE write the Prometheus-style metrics dump to FILE
/// matrix (and, for the first, digest) only:
///   --rounds N         stream replays per run, at least 1 (default 3)
///   --pipeline sync|overlapped|both   which pipeline variants to measure
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cli {
    /// Records per dataset, if overridden.
    pub records: Option<usize>,
    /// Generation seed.
    pub seed: u64,
    /// Run at full Table-I record counts.
    pub full: bool,
    /// Stream replays per run, if overridden.
    pub rounds: Option<usize>,
    /// The one pipeline label to measure; `None` measures both.
    pub pipeline: Option<String>,
    /// Span-journal output path (enables tracing).
    pub trace_out: Option<PathBuf>,
    /// Metrics exposition output path (enables telemetry).
    pub metrics_out: Option<PathBuf>,
}

/// The fewest base records `--records` accepts: below it a bundle's
/// dataset can leave every cluster a single point, which sizes its radii
/// (and its arrival rate, at zero records) to nothing.
const MIN_RECORDS: usize = 100;

fn value<T: std::str::FromStr>(flag: &str, arg: Option<String>) -> Result<T, String> {
    let arg = arg.ok_or_else(|| format!("{flag} takes a value"))?;
    arg.parse()
        .map_err(|_| format!("{flag}: cannot parse '{arg}'"))
}

/// A count flag's value, refused below `min` — a run it cannot make.
fn at_least(flag: &str, arg: Option<String>, min: usize) -> Result<usize, String> {
    let count = value(flag, arg)?;
    if count < min {
        return Err(format!("{flag} must be at least {min}, got {count}"));
    }
    Ok(count)
}

impl Cli {
    /// Parses the flags that follow the subcommand. Input from outside the
    /// program: an unknown flag or a malformed value is an error, not a
    /// default.
    pub(crate) fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli {
            records: None,
            seed: 42,
            full: false,
            rounds: None,
            pipeline: None,
            trace_out: None,
            metrics_out: None,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--records" => cli.records = Some(at_least(&arg, iter.next(), MIN_RECORDS)?),
                "--seed" => cli.seed = value(&arg, iter.next())?,
                "--full" => cli.full = true,
                "--rounds" => cli.rounds = Some(at_least(&arg, iter.next(), 1)?),
                "--pipeline" => {
                    let which: String = value(&arg, iter.next())?;
                    cli.pipeline = match which.as_str() {
                        "both" => None,
                        "sync" | "overlapped" => Some(which),
                        _ => {
                            return Err(format!(
                                "unknown --pipeline '{which}' (sync|overlapped|both)"
                            ))
                        }
                    };
                }
                "--trace-out" => cli.trace_out = Some(value(&arg, iter.next())?),
                "--metrics-out" => cli.metrics_out = Some(value(&arg, iter.next())?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(cli)
    }

    /// The record count to use for a dataset given this experiment's
    /// default scale.
    pub(crate) fn records_for(&self, default: usize, full_records: usize) -> usize {
        if self.full {
            full_records
        } else {
            self.records.unwrap_or(default)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!((cli.records, cli.seed, cli.full), (None, 42, false));
        assert_eq!(cli.records_for(1000, 9999), 1000);
        assert_eq!((cli.rounds, cli.pipeline), (None, None));
        assert_eq!((cli.trace_out, cli.metrics_out), (None, None));
    }

    #[test]
    fn parses_flags() {
        let cli = parse(&["--records", "5000", "--seed", "7", "--full"]).unwrap();
        assert_eq!(cli.records, Some(5000));
        assert_eq!(cli.seed, 7);
        // --full wins over --records.
        assert_eq!(cli.records_for(1000, 9999), 9999);
        let cli = parse(&["--trace-out", "trace.jsonl", "--metrics-out", "m.prom"]).unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("trace.jsonl")));
        assert_eq!(cli.metrics_out, Some(PathBuf::from("m.prom")));
    }

    #[test]
    fn parses_the_matrix_flags() {
        let cli = parse(&["--rounds", "1", "--pipeline", "overlapped"]).unwrap();
        assert_eq!(cli.rounds, Some(1));
        assert_eq!(cli.pipeline.as_deref(), Some("overlapped"));
        assert_eq!(parse(&["--pipeline", "both"]).unwrap().pipeline, None);
    }

    #[test]
    fn rejects_what_it_cannot_read() {
        for bad in [
            &["--whatever"][..],
            &["--quick"],
            &["--records"],
            &["--records", "many"],
            &["--records", "0"],
            &["--records", "1"],
            &["--rounds", "0"],
            &["--pipeline", "async"],
            &["--strategy", "roundrobin"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
