//! **Extension (§VII-D2 future work)** — the asynchronous update protocol:
//! overlap the single-node global update with the next batch's parallel
//! steps, attacking the paper's first scalability bottleneck ("performing
//! the global update step in a single machine"). Compares throughput and
//! quality of the synchronous protocol vs `PipelineOptions::overlap`
//! ([`ExecutorKind::Async`]) at p = 32.

use diststream_types::Result;

use super::{MAX_PARALLELISM as PARALLELISM, ROUNDS};
use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_quality, run_throughput, throughput_cost, ExecutorKind};

const BATCH_SECS: f64 = 10.0;

pub(crate) fn ablation_async(cli: &Cli) -> Result<bool> {
    println!("# Extension — asynchronous update protocol at p = {PARALLELISM}");

    let mut table = Table::new([
        "dataset",
        "sync rec/s",
        "async rec/s",
        "speedup",
        "async avg CMM (p=1)",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        let algo = bundle.clustream();
        let cost = throughput_cost(&bundle);

        let rate = |kind| -> Result<f64> {
            let meter =
                run_throughput(&algo, &bundle, PARALLELISM, cost, kind, BATCH_SECS, ROUNDS)?;
            Ok(meter.records_per_sec())
        };
        let sync = rate(ExecutorKind::OrderAware)?;
        let asynchronous = rate(ExecutorKind::Async)?;
        // Quality at p = 1, same methodology as Fig. 6.
        let quality = run_quality(&algo, &bundle, 1, ExecutorKind::Async, BATCH_SECS, true)?;

        table.row([
            format!("large-{}", kind.name()),
            format!("{sync:.0}"),
            format!("{asynchronous:.0}"),
            fmt_f64(asynchronous / sync, 2),
            fmt_f64(quality.avg_cmm, 3),
        ]);
    }
    print_table(
        "Hiding the single-node global update behind the parallel steps lifts throughput; quality pays one batch of extra staleness",
        &table,
    );
    Ok(true)
}
