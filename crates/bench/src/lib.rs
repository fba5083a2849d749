//! Shared experiment harness for the DistStream reproduction.
//!
//! Every table and figure of the paper has a binary in `src/bin/` built on
//! the pieces here: dataset bundles with dataset-tuned algorithm parameters,
//! a generic quality runner (CMM at every batch end, as §VII-B1 prescribes),
//! a generic throughput runner over the simulated cluster, and plain-text
//! table printers.
//!
//! Experiment scale: by default the binaries run scaled-down streams that
//! preserve the paper's stream *durations* (the arrival rate is scaled with
//! the record count), so per-batch dynamics match the paper at a fraction of
//! the compute. Pass `--records N` or `--full` to any binary to change that.

#![forbid(unsafe_code)]

mod baseline;
mod bundle;
mod cli;
mod overload;
mod report;
mod runner;
mod serving;
mod trace;

pub use baseline::{
    baseline_to_json, calibration_score, print_baseline, run_baseline_pipelines, BaselineEntry,
    BaselineReport, BaselineSpec, ShuffleSkew, BASELINE_PATH, BASELINE_QUICK_PATH, BASELINE_SCHEMA,
    BATCH_SECS, PIPELINE_OVERLAPPED, PIPELINE_SYNC, SHUFFLE_SKEW_FACTOR,
};
pub use bundle::{Bundle, DatasetKind};
pub use cli::Cli;
pub use overload::OverloadScenario;
pub use report::{fmt_f64, print_table, Table};
pub use runner::{
    run_quality, run_sequential_quality, run_sequential_throughput, run_throughput,
    throughput_context, ExecutorKind, QualityOutcome, ThroughputOutcome,
};
pub use serving::ServingBench;
pub use trace::TelemetrySession;
