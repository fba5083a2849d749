//! **Figure 6** — clustering quality (normalized CMM) over the stream:
//! MOA-based, DistStream-based, and unordered implementations of CluStream
//! and DenStream on the three datasets.
//!
//! Methodology (§VII-B1): stream at 1K records/s, batch size 10 s,
//! parallelism degree 1, CMM computed at the end of every batch from the
//! offline clustering; normalized CMM = raw CMM / MOA's CMM at the same
//! point (so the MOA curve is the 1.0 line).
//!
//! Prints one summary table plus, per panel, the normalized CMM series.

use diststream_core::StreamClustering;
use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_quality, run_sequential_quality, ExecutorKind, QualityOutcome};

const BATCH_SECS: f64 = 10.0;

struct Panel {
    dataset: &'static str,
    algorithm: &'static str,
    moa: QualityOutcome,
    diststream: QualityOutcome,
    unordered: QualityOutcome,
}

fn run_panel<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    algorithm: &'static str,
) -> Result<Panel> {
    Ok(Panel {
        dataset: bundle.kind.name(),
        algorithm,
        moa: run_sequential_quality(algo, bundle, BATCH_SECS)?,
        diststream: run_quality(algo, bundle, 1, ExecutorKind::OrderAware, BATCH_SECS, true)?,
        unordered: run_quality(algo, bundle, 1, ExecutorKind::Unordered, BATCH_SECS, true)?,
    })
}

fn normalized(series: &QualityOutcome, moa: &QualityOutcome) -> Vec<(f64, f64)> {
    // Normalize each point by the MOA value nearest in stream time.
    series
        .series
        .iter()
        .map(|&(t, c)| {
            let moa_c = moa
                .series
                .iter()
                .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
                .map_or(1.0, |&(_, m)| m);
            (t, if moa_c > 0.0 { c / moa_c } else { 1.0 })
        })
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub(crate) fn fig6(cli: &Cli) -> Result<bool> {
    println!("# Figure 6 — normalized CMM over the stream (batch 10s, p=1, rate 1K/s)");

    let mut summary = Table::new([
        "dataset",
        "algorithm",
        "MOA CMM",
        "DistStream CMM",
        "unordered CMM",
        "DistStream/MOA",
        "unordered/MOA",
        "min unordered/MOA",
    ]);

    let mut panels = Vec::new();
    for kind in DatasetKind::ALL {
        let records = cli.records_for(30_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        panels.push(run_panel(&bundle.clustream(), &bundle, "CluStream")?);
        panels.push(run_panel(&bundle.denstream(), &bundle, "DenStream")?);
    }

    for p in &panels {
        let ds_norm = normalized(&p.diststream, &p.moa);
        let un_norm = normalized(&p.unordered, &p.moa);
        let min_un = un_norm
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        summary.row([
            p.dataset.to_string(),
            p.algorithm.to_string(),
            fmt_f64(p.moa.avg_cmm, 3),
            fmt_f64(p.diststream.avg_cmm, 3),
            fmt_f64(p.unordered.avg_cmm, 3),
            fmt_f64(mean(ds_norm.iter().map(|&(_, v)| v)), 3),
            fmt_f64(mean(un_norm.iter().map(|&(_, v)| v)), 3),
            fmt_f64(min_un, 3),
        ]);
    }
    print_table(
        "Summary (paper: DistStream ≈ 99% of MOA; unordered up to 60% lower)",
        &summary,
    );

    // Per-panel normalized series (the plotted lines).
    for p in &panels {
        let ds_norm = normalized(&p.diststream, &p.moa);
        let un_norm = normalized(&p.unordered, &p.moa);
        let mut t = Table::new(["stream sec", "MOA", "DistStream", "unordered"]);
        for (i, &(secs, ds)) in ds_norm.iter().enumerate() {
            let un = un_norm.get(i).map_or(f64::NAN, |&(_, v)| v);
            t.row([
                fmt_f64(secs, 0),
                "1.000".to_string(),
                fmt_f64(ds, 3),
                fmt_f64(un, 3),
            ]);
        }
        print_table(
            &format!("{} — {} (normalized CMM series)", p.dataset, p.algorithm),
            &t,
        );
    }
    Ok(true)
}
