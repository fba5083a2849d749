//! **Figure 10** — scalability of DistStream-D-Stream and
//! DistStream-ClusTree, plus the §VII-E quality summary for the two
//! algorithms.
//!
//! Paper findings: both scale sub-linearly like CluStream/DenStream; their
//! grid-mapping / tree-descent closest-search makes them 1.1–1.3× faster
//! than CluStream/DenStream under DistStream; quality stays ~99.1% of the
//! MOA counterparts.

use diststream_core::StreamClustering;
use diststream_types::Result;

use super::{batch_secs_for, scalability_sweep, MAX_PARALLELISM, PARALLELISM, ROUNDS};
use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table, MODELED_ROWS_NOTE};
use crate::runner::{
    run_quality, run_sequential_quality, run_throughput, throughput_context, ExecutorKind,
};

/// Appends the sweep's rows; returns the rate at the highest degree.
fn sweep<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    algorithm: &str,
) -> Result<f64> {
    let rates: Vec<f64> = scalability_sweep(algo, bundle)?
        .iter()
        .map(|out| out.records_per_sec())
        .collect();
    for (p, rps) in PARALLELISM.iter().zip(&rates) {
        table.row([
            format!("large-{}", bundle.kind.name()),
            algorithm.to_string(),
            p.to_string(),
            format!("{rps:.0}"),
            fmt_f64(rps / rates[0], 2),
        ]);
    }
    Ok(rates[rates.len() - 1])
}

pub(crate) fn fig10(cli: &Cli) -> Result<bool> {
    println!("# Figure 10 — D-Stream and ClusTree on DistStream");

    let mut scal = Table::new(["dataset", "algorithm", "p", "records/s", "gain"]);
    let mut quality = Table::new([
        "dataset",
        "algorithm",
        "MOA CMM",
        "DistStream CMM",
        "DistStream/MOA",
    ]);
    let mut speed = Table::new(["dataset", "algorithm", "p=32 rec/s", "vs CluStream"]);

    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);

        // Scalability sweeps (the figure).
        let dstream = bundle.dstream();
        let ds32 = sweep(&mut scal, &dstream, &bundle, "D-Stream")?;
        let clustree = bundle.clustree();
        let ct32 = sweep(&mut scal, &clustree, &bundle, "ClusTree")?;

        // Throughput edge vs CluStream at p = 32 (grid/tree search).
        let clustream = bundle.clustream();
        let ctx32 = throughput_context(&bundle, MAX_PARALLELISM)?;
        let clu32 = run_throughput(
            &clustream,
            &bundle,
            &ctx32,
            ExecutorKind::OrderAware,
            batch_secs_for(kind),
            ROUNDS,
        )?
        .records_per_sec();
        speed.row([
            format!("large-{}", kind.name()),
            "D-Stream".to_string(),
            format!("{ds32:.0}"),
            fmt_f64(ds32 / clu32, 2),
        ]);
        speed.row([
            format!("large-{}", kind.name()),
            "ClusTree".to_string(),
            format!("{ct32:.0}"),
            fmt_f64(ct32 / clu32, 2),
        ]);

        // §VII-E quality summary at p = 1.
        for (name, moa, dist) in [
            (
                "D-Stream",
                run_sequential_quality(&dstream, &bundle, 10.0)?,
                run_quality(&dstream, &bundle, 1, ExecutorKind::OrderAware, 10.0, true)?,
            ),
            (
                "ClusTree",
                run_sequential_quality(&clustree, &bundle, 10.0)?,
                run_quality(&clustree, &bundle, 1, ExecutorKind::OrderAware, 10.0, true)?,
            ),
        ] {
            quality.row([
                kind.name().to_string(),
                name.to_string(),
                fmt_f64(moa.avg_cmm, 3),
                fmt_f64(dist.avg_cmm, 3),
                fmt_f64(dist.avg_cmm / moa.avg_cmm.max(1e-9), 3),
            ]);
        }
    }

    print_table("Scalability (paper: sub-linear, like Figure 8)", &scal);
    println!("{MODELED_ROWS_NOTE}");
    print_table(
        "Throughput edge at p=32 (paper: 1.1-1.3× over CluStream/DenStream)",
        &speed,
    );
    print_table("Quality summary (paper: ~99.1% of MOA)", &quality);
    Ok(true)
}
