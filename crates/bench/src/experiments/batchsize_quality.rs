//! **§VII-B2 batch-size sensitivity** — clustering quality of DistStream
//! vs MOA across batch sizes 5 s–30 s.
//!
//! Paper claim: with the order-aware mini-batch model, batch size has
//! limited impact on quality — on average a 2.79% CMM difference between
//! DistStream-based and MOA-based implementations across all batch sizes
//! (the records' increments are identical as long as update order is
//! maintained, §IV-D).

use diststream_core::StreamClustering;
use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_quality, run_sequential_quality, ExecutorKind};

const BATCH_SIZES: [f64; 6] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

fn run_algo<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    name: &str,
    diffs: &mut Vec<f64>,
) -> Result<()> {
    // One MOA reference per (dataset, algorithm); evaluation cadence 10s.
    let moa = run_sequential_quality(algo, bundle, 10.0)?;
    for &batch in &BATCH_SIZES {
        let dist = run_quality(algo, bundle, 1, ExecutorKind::OrderAware, batch, true)?;
        let diff = (dist.avg_cmm - moa.avg_cmm).abs() / moa.avg_cmm.max(1e-9);
        diffs.push(diff);
        table.row([
            bundle.kind.name().to_string(),
            name.to_string(),
            fmt_f64(batch, 0),
            fmt_f64(moa.avg_cmm, 3),
            fmt_f64(dist.avg_cmm, 3),
            format!("{:.2}%", diff * 100.0),
        ]);
    }
    Ok(())
}

pub(crate) fn batchsize_quality(cli: &Cli) -> Result<bool> {
    println!("# Batch-size impact on clustering quality (order-aware, p=1)");

    let mut table = Table::new([
        "dataset",
        "algorithm",
        "batch (s)",
        "MOA CMM",
        "DistStream CMM",
        "|diff|",
    ]);
    let mut diffs = Vec::new();
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        run_algo(
            &mut table,
            &bundle.clustream(),
            &bundle,
            "CluStream",
            &mut diffs,
        )?;
        run_algo(
            &mut table,
            &bundle.denstream(),
            &bundle,
            "DenStream",
            &mut diffs,
        )?;
    }
    print_table(
        "Paper: average 2.79% quality difference across batch sizes",
        &table,
    );
    let avg = diffs.iter().sum::<f64>() / diffs.len().max(1) as f64;
    println!(
        "\naverage |CMM difference| across all runs: {:.2}%",
        avg * 100.0
    );
    Ok(true)
}
