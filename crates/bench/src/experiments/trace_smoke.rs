//! Telemetry smoke run — a small real-thread (p = 4) job that exercises
//! every instrumentation point:
//! spans across the three update steps, the per-batch journal drain,
//! pool/batcher metrics, reorder-buffer gauges (the stream is fed
//! through a `ReorderBuffer` with mild injected disorder), and straggler
//! attribution. CI runs it with `--trace-out` and validates the journal
//! with `cargo run -p xtask -- check-trace`.

use diststream_core::DistStreamJob;
use diststream_engine::{ExecutionMode, ReorderBuffer, StreamingContext, VecSource};
use diststream_types::{ClusteringConfig, Result};

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};

const PARALLELISM: usize = 4;

pub(crate) fn trace_smoke(cli: &Cli) -> Result<bool> {
    println!("# Telemetry smoke — CluStream on CoverType, threads mode, p = {PARALLELISM}");

    let records = cli.records_for(4000, 20_000);
    let bundle = Bundle::new(DatasetKind::CoverType, records, cli.seed);
    let algo = bundle.clustream();
    // Real threads so span durations are measured wall time, not simulated.
    let ctx = StreamingContext::new(PARALLELISM, ExecutionMode::Threads)?;

    // Mild bounded disorder (adjacent-pair swaps) so the reorder buffer
    // actually holds records back and its depth/stall gauges move.
    let mut stream = bundle.stress_records();
    for pair in stream.chunks_mut(2) {
        pair.reverse();
    }
    let disorder_bound = stream
        .windows(2)
        .map(|w| (w[0].timestamp.secs() - w[1].timestamp.secs()).abs())
        .fold(0.0, f64::max);
    let source = ReorderBuffer::new(VecSource::new(stream), disorder_bound);

    // Narrow windows so even the scaled-down stream spans several batches
    // (CI wants multi-batch reconciliation, not a single barrier).
    let config = ClusteringConfig::builder().batch_secs(1.0).build()?;
    let mut job = DistStreamJob::new(&algo, &ctx, config);
    job.init_records(bundle.init_records());
    let result = job.run_to_end(source)?;

    let meter = &result.meter;
    let mut table = Table::new(["records", "batches", "records/s", "µs/record", "stragglers"]);
    table.row([
        meter.records().to_string(),
        meter.batches().to_string(),
        format!("{:.0}", meter.records_per_sec()),
        fmt_f64(meter.micros_per_record(), 2),
        format!("{:.0}%", meter.straggler_fraction() * 100.0),
    ]);
    print_table("Smoke result", &table);
    Ok(true)
}
