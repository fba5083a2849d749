//! **Extension (§VII-D3 future work)** — adaptive batch sizing: the paper
//! configures batch size statically and leaves "adaptive batch sizing
//! approaches" to future work. This experiment compares a fixed batch
//! window against the hill-climbing [`AdaptiveBatchSizer`] at p = 32,
//! starting from a deliberately poor (small) window.
//!
//! [`AdaptiveBatchSizer`]: diststream_core::AdaptiveBatchSizer

use diststream_core::{AdaptiveBatchSizer, DistStreamJob, UpdateOrdering};
use diststream_engine::{ExecutionMode, RepeatSource, StreamingContext};
use diststream_types::{ClusteringConfig, Result};

use super::{MAX_PARALLELISM as PARALLELISM, ROUNDS};
use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::cluster::Replay;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_throughput, throughput_cost, ExecutorKind};

const START_BATCH: f64 = 2.0; // deliberately under-sized

pub(crate) fn adaptive_batchsize(cli: &Cli) -> Result<bool> {
    println!("# Extension — adaptive batch sizing at p = {PARALLELISM} (start {START_BATCH}s)");

    let mut table = Table::new([
        "dataset",
        "fixed 2s rec/s",
        "fixed 10s rec/s",
        "adaptive rec/s",
        "final window (s)",
        "quality bound (s)",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        let algo = bundle.clustream();
        let ctx = StreamingContext::new(PARALLELISM, ExecutionMode::Simulated)?;
        let cost = throughput_cost(&bundle);

        let order = ExecutorKind::OrderAware;
        let fixed = |batch| run_throughput(&algo, &bundle, PARALLELISM, cost, order, batch, ROUNDS);
        let fixed_small = fixed(START_BATCH)?;
        let fixed_paper = fixed(10.0)?;

        // Adaptive run starting from the under-sized window.
        let config = ClusteringConfig::builder()
            .batch_secs(START_BATCH)
            .build()?;
        let mut sizer = AdaptiveBatchSizer::new(&config, 0.5);
        let bound = sizer.max_secs();
        let mut job = DistStreamJob::new(&algo, &ctx, config);
        job.init_records(bundle.init_records())
            .ordering(UpdateOrdering::OrderAware);
        // The sizer steers by the modeled batch time, charges included.
        let mut replay = Replay::new(cost);
        let result = job.run_adaptive(
            RepeatSource::new(bundle.stress_records(), ROUNDS),
            |outcome| {
                let priced = replay.batch(&outcome.metrics);
                Some(sizer.observe(outcome.metrics.records, priced.total_secs()))
            },
            |_| {},
        )?;
        let adaptive = replay.meter(&result.meter);

        table.row([
            format!("large-{}", kind.name()),
            format!("{:.0}", fixed_small.records_per_sec()),
            format!("{:.0}", fixed_paper.records_per_sec()),
            format!("{:.0}", adaptive.records_per_sec()),
            fmt_f64(sizer.batch_secs(), 1),
            fmt_f64(bound, 1),
        ]);
    }
    print_table(
        "The controller climbs out of the under-sized window toward the throughput peak, never exceeding the quality bound log_beta(1/alpha)",
        &table,
    );
    Ok(true)
}
