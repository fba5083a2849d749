//! **Ablation (§V-C)** — the pre-merge optimization: outlier micro-cluster
//! counts and global-update latency with pre-merge on vs off.
//!
//! Paper rationale: "many outlier micro-clusters are from the same new
//! cluster when data distribution is evolving to this new cluster", so
//! merging each new outlier micro-cluster into previously created ones
//! shrinks the global update's workload.

use diststream_core::StreamClustering;
use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_quality, ExecutorKind};

const BATCH_SECS: f64 = 10.0;

fn run_pair<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    name: &str,
) -> Result<()> {
    let with = run_quality(algo, bundle, 4, ExecutorKind::OrderAware, BATCH_SECS, true)?;
    let without = run_quality(algo, bundle, 4, ExecutorKind::OrderAware, BATCH_SECS, false)?;
    table.row([
        bundle.kind.name().to_string(),
        name.to_string(),
        with.created_micro_clusters.to_string(),
        with.created_after_premerge.to_string(),
        without.created_after_premerge.to_string(),
        fmt_f64(with.meter.global_micros_per_record(), 2),
        fmt_f64(without.meter.global_micros_per_record(), 2),
        fmt_f64(with.avg_cmm, 3),
        fmt_f64(without.avg_cmm, 3),
    ]);
    Ok(())
}

pub(crate) fn ablation_premerge(cli: &Cli) -> Result<bool> {
    println!("# Ablation — pre-merge optimization (§V-C)");

    let mut table = Table::new([
        "dataset",
        "algorithm",
        "outlier MCs created",
        "after pre-merge (on)",
        "reaching driver (off)",
        "global µs/rec (on)",
        "global µs/rec (off)",
        "CMM (on)",
        "CMM (off)",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(30_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        run_pair(&mut table, &bundle.clustream(), &bundle, "CluStream")?;
        run_pair(&mut table, &bundle.denstream(), &bundle, "DenStream")?;
    }
    print_table(
        "Pre-merge shrinks the outlier micro-cluster load on the single-node global update without hurting quality",
        &table,
    );
    Ok(true)
}
