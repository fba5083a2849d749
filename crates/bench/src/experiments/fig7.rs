//! **Figure 7** — single-machine throughput of MOA-, unordered-, and
//! DistStream-based CluStream and DenStream on the three `large-*` datasets.
//!
//! Methodology (§VII-C1): `large-*` datasets are the base stream replayed
//! ten times at the maximum stable rate (100K/s, 10K/s for KDD-98); one
//! task, one core; records co-located with the task (the modeled cluster
//! has no network charges); batch size 10 s. Paper findings: mini-batch runs are
//! ~10.6% below MOA (task scheduling overheads) and order-aware runs beat
//! unordered ones by ~1.3× (fewer outlier micro-clusters to process).

use diststream_core::StreamClustering;
use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::cluster::{NetworkModel, SimCostModel};
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_sequential_throughput, run_throughput, ExecutorKind};

const BATCH_SECS: f64 = 10.0;
const ROUNDS: usize = 10; // large-* = ten replays

fn single_machine_cost(bundle: &Bundle) -> SimCostModel {
    // Records co-located with the task: no network charges, but the task
    // scheduling overheads of a mini-batch system remain (scaled to the
    // bundle's workload scale; see SimCostModel::workload_scale).
    SimCostModel {
        network: NetworkModel {
            bytes_per_sec: f64::INFINITY,
            latency_secs: 0.0,
        },
        workload_scale: bundle.scale.min(1.0),
        ..SimCostModel::default()
    }
}

fn run_row<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    algorithm: &str,
) -> Result<()> {
    let moa = run_sequential_throughput(algo, bundle, ROUNDS)?.records_per_sec();
    let cost = single_machine_cost(bundle);
    let rate = |kind| -> Result<f64> {
        Ok(run_throughput(algo, bundle, 1, cost, kind, BATCH_SECS, ROUNDS)?.records_per_sec())
    };
    let ordered = rate(ExecutorKind::OrderAware)?;
    let unordered = rate(ExecutorKind::Unordered)?;
    table.row([
        format!("large-{}", bundle.kind.name()),
        algorithm.to_string(),
        format!("{moa:.0}"),
        format!("{unordered:.0}"),
        format!("{ordered:.0}"),
        fmt_f64(ordered / moa, 3),
        fmt_f64(ordered / unordered, 2),
    ]);
    Ok(())
}

pub(crate) fn fig7(cli: &Cli) -> Result<bool> {
    println!("# Figure 7 — single-machine throughput (records/s), batch 10s, p=1");

    let mut table = Table::new([
        "dataset",
        "algorithm",
        "MOA rec/s",
        "unordered rec/s",
        "DistStream rec/s",
        "DistStream/MOA",
        "DistStream/unordered",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        run_row(&mut table, &bundle.clustream(), &bundle, "CluStream")?;
        run_row(&mut table, &bundle.denstream(), &bundle, "DenStream")?;
    }
    print_table(
        "Paper: mini-batch ≈ 10.6% below MOA; DistStream ≈ 1.3× unordered",
        &table,
    );
    Ok(true)
}
