//! **Figure 8** — scalability of DistStream-CluStream and
//! DistStream-DenStream: throughput gain at parallelism p ∈ {1..32} on the
//! three `large-*` datasets, plus the paper's bottleneck analysis
//! (single-node global-update latency stays constant in p; straggler
//! fraction grows with p under the synchronous protocol).
//!
//! Paper headline: sub-linear gain of ~13.2× at p = 32.

use diststream_core::StreamClustering;
use diststream_types::Result;

use super::{scalability_sweep, PARALLELISM};
use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table, MODELED_ROWS_NOTE};

fn report<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    algorithm: &str,
) -> Result<()> {
    let sweep = scalability_sweep(algo, bundle)?;
    let base = sweep[0].records_per_sec();
    for (p, out) in PARALLELISM.iter().zip(&sweep) {
        table.row([
            format!("large-{}", bundle.kind.name()),
            algorithm.to_string(),
            p.to_string(),
            format!("{:.0}", out.records_per_sec()),
            fmt_f64(out.records_per_sec() / base, 2),
            fmt_f64(out.global_micros_per_record(), 2),
            format!("{:.0}%", out.straggler_fraction() * 100.0),
        ]);
    }
    Ok(())
}

pub(crate) fn fig8(cli: &Cli) -> Result<bool> {
    println!("# Figure 8 — scalability (throughput gain vs parallelism degree)");

    let mut table = Table::new([
        "dataset",
        "algorithm",
        "p",
        "records/s",
        "gain",
        "global µs/rec",
        "stragglers",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        report(&mut table, &bundle.clustream(), &bundle, "CluStream")?;
        report(&mut table, &bundle.denstream(), &bundle, "DenStream")?;
    }
    print_table(
        "Paper: sub-linear gain up to ~13.2× at p=32; global-update latency constant in p; stragglers grow 12%→25% from p=16 to p=32",
        &table,
    );
    println!("{MODELED_ROWS_NOTE}");
    Ok(true)
}
