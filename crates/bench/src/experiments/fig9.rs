//! **Figure 9** — throughput vs batch size (1 s–30 s) at fixed p = 32 for
//! DistStream-CluStream and DistStream-DenStream on the `large-*` datasets.
//!
//! Paper finding: throughput first rises with batch size (larger tasks
//! amortize per-batch scheduling/network overheads) and drops again at very
//! large batches.

use diststream_core::StreamClustering;
use diststream_types::Result;

use super::{MAX_PARALLELISM as PARALLELISM, ROUNDS};
use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};
use crate::runner::{run_throughput, throughput_cost, ExecutorKind};

const BATCH_SIZES: [f64; 6] = [1.0, 5.0, 10.0, 15.0, 20.0, 30.0];

fn sweep<A: StreamClustering>(
    table: &mut Table,
    algo: &A,
    bundle: &Bundle,
    algorithm: &str,
) -> Result<()> {
    let cost = throughput_cost(bundle);
    let mut best = (0.0_f64, 0.0_f64);
    let mut rows = Vec::new();
    for &batch in &BATCH_SIZES {
        let order = ExecutorKind::OrderAware;
        let rps = run_throughput(algo, bundle, PARALLELISM, cost, order, batch, ROUNDS)?
            .records_per_sec();
        if rps > best.1 {
            best = (batch, rps);
        }
        rows.push((batch, rps));
    }
    for (batch, rps) in rows {
        table.row([
            format!("large-{}", bundle.kind.name()),
            algorithm.to_string(),
            fmt_f64(batch, 0),
            format!("{rps:.0}"),
            if batch == best.0 { "<- best" } else { "" }.to_string(),
        ]);
    }
    Ok(())
}

pub(crate) fn fig9(cli: &Cli) -> Result<bool> {
    println!("# Figure 9 — throughput vs batch size at p = {PARALLELISM}");

    let mut table = Table::new(["dataset", "algorithm", "batch (s)", "records/s", ""]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        sweep(&mut table, &bundle.clustream(), &bundle, "CluStream")?;
        sweep(&mut table, &bundle.denstream(), &bundle, "DenStream")?;
    }
    print_table(
        "Paper: throughput rises with batch size, then drops at very large batches (e.g. 30s on large-CoverType)",
        &table,
    );
    Ok(true)
}
