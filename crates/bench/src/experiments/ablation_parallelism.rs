//! **Ablation (§V-A / §V-B)** — record-based vs model-based parallelism for
//! each step, combining measured step latencies with the paper's
//! network-communication analysis.
//!
//! The paper chooses record-based parallelism for step 1 (finding the
//! closest micro-cluster) because model-based parallelism needs an extra
//! aggregation stage, and model-based parallelism for step 2 (local update)
//! because record-based parallelism would shuffle partially-updated
//! micro-cluster copies and merge them. This experiment reproduces that
//! analysis quantitatively: measured compute latencies from a real run plus
//! modeled network costs for both dimensions of both steps.

use diststream_core::{DistStreamJob, StreamClustering};
use diststream_engine::{serialized_size, ExecutionMode, StreamingContext, VecSource};
use diststream_types::{ClusteringConfig, Result};

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::cluster::{NetworkModel, Replay, SimCostModel};
use crate::report::{fmt_f64, print_table, Table};

const BATCH_SECS: f64 = 10.0;

struct StepCosts {
    /// Modeled compute makespan of the step (seconds, averaged per batch):
    /// the measured task times on the default modeled cluster.
    compute: f64,
    /// Modeled network seconds for the dimension DistStream chose.
    chosen_net: f64,
    /// Modeled network seconds for the alternative dimension.
    alternative_net: f64,
}

fn analyze<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    p: usize,
) -> Result<(StepCosts, StepCosts)> {
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated)?;
    let records = bundle.quality_records();
    let record_bytes = records.first().map_or(0, serialized_size);
    let config = ClusteringConfig::builder().batch_secs(BATCH_SECS).build()?;

    let mut batches = 0u32;
    let mut assign_secs = 0.0;
    let mut local_secs = 0.0;
    let mut batch_records = 0u64;
    let mut model_bytes = 0u64;
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(bundle.init_records());
    let mut replay = Replay::new(SimCostModel::default());
    job.run(VecSource::new(records), |report| {
        let recorded = &report.outcome.metrics;
        let priced = replay.batch(recorded);
        batches += 1;
        assign_secs += priced.assignment.wall_secs();
        local_secs += priced.local.wall_secs();
        batch_records += recorded.records as u64;
        model_bytes = recorded.broadcast_bytes / p as u64;
    })?;
    let batches = batches.max(1) as f64;
    let m = (batch_records as f64 / batches) as u64; // records per batch
    let net = NetworkModel::default();

    // --- Step 1: finding the closest micro-cluster ---------------------
    // Record-based (chosen): broadcast the model to p tasks; records are
    // already partitioned at ingestion; outputs stay local for step 2.
    let s1_record = net.transfer_secs(model_bytes * p as u64, p as u64);
    // Model-based (alternative): every record must visit every model
    // partition (m × bytes × p) and an extra aggregation stage reduces the
    // p partial distance results per record.
    let s1_model = net.transfer_secs(record_bytes * m * p as u64, p as u64)
        + net.transfer_secs(24 * m * p as u64, p as u64);

    // --- Step 2: local update ------------------------------------------
    // Model-based (chosen): one shuffle of the batch's records by
    // micro-cluster id.
    let s2_model = net.transfer_secs(record_bytes * m, (p * p) as u64);
    // Record-based (alternative): p partially-updated copies of the model
    // must be shuffled and merged in an extra stage.
    let s2_record = net.transfer_secs(model_bytes * p as u64, (p * p) as u64)
        + net.transfer_secs(model_bytes, p as u64);

    Ok((
        StepCosts {
            compute: assign_secs / batches,
            chosen_net: s1_record,
            alternative_net: s1_model,
        },
        StepCosts {
            compute: local_secs / batches,
            chosen_net: s2_model,
            alternative_net: s2_record,
        },
    ))
}

pub(crate) fn ablation_parallelism(cli: &Cli) -> Result<bool> {
    println!("# Ablation — record-based vs model-based parallelism per step (p = 8)");

    let mut table = Table::new([
        "dataset",
        "step",
        "chosen dimension",
        "compute s/batch",
        "chosen net s/batch",
        "alternative net s/batch",
        "advantage",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        let algo = bundle.clustream();
        let (s1, s2) = analyze(&algo, &bundle, 8)?;
        table.row([
            kind.name().to_string(),
            "1: closest search".to_string(),
            "record-based".to_string(),
            fmt_f64(s1.compute, 4),
            fmt_f64(s1.chosen_net, 4),
            fmt_f64(s1.alternative_net, 4),
            format!("{:.1}×", s1.alternative_net / s1.chosen_net.max(1e-12)),
        ]);
        table.row([
            kind.name().to_string(),
            "2: local update".to_string(),
            "model-based".to_string(),
            fmt_f64(s2.compute, 4),
            fmt_f64(s2.chosen_net, 4),
            fmt_f64(s2.alternative_net, 4),
            format!("{:.1}×", s2.alternative_net / s2.chosen_net.max(1e-12)),
        ]);
    }
    print_table(
        "DistStream's chosen dimension has the lower modeled network cost in both steps (§V-A, §V-B)",
        &table,
    );
    Ok(true)
}
