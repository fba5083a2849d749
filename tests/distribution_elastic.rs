//! Placement and elastic scale-out integration tests.
//!
//! Pins the two tentpole guarantees end to end, on the real algorithms:
//!
//! 1. **Placement invariance** — record partitioning, key placement, and
//!    shuffle routing are scheduling decisions; the order-aware model is
//!    the same at every parallelism degree.
//! 2. **Elastic replay** — a run whose parallelism degree changes
//!    mid-stream (workers joining and leaving at batch boundaries) is
//!    bit-identical to every fixed-parallelism run, for all four
//!    algorithms, under both the synchronous and the asynchronous
//!    (overlapped) protocol.
//!
//! Telemetry-reading tests serialize on a lock: the metric registry is
//! process-global and monotonic, so each test reads counter *deltas*.

use std::sync::Mutex;

use diststream::algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream::core::{
    serving_handle, DistStreamJob, MemoryCheckpointStore, PipelineOptions, ResizeOutcome,
    ResizeSchedule, StreamClustering,
};
use diststream::datasets::covertype_like;
use diststream::engine::{
    encode, ExecutionMode, FaultPlan, MiniBatch, StreamingContext, VecSource,
};
use diststream::telemetry;
use diststream::types::{ClusteringConfig, Record, Timestamp};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn records() -> Vec<Record> {
    covertype_like(1500, 5).to_records(50.0)
}

/// Cuts `records` into fixed-size mini-batches with real window bounds.
fn to_batches(records: &[Record], per_batch: usize) -> Vec<MiniBatch> {
    records
        .chunks(per_batch)
        .enumerate()
        .map(|(index, chunk)| MiniBatch {
            index,
            window_start: chunk.first().map_or(Timestamp::ZERO, |r| r.timestamp),
            window_end: chunk.last().map_or(Timestamp::ZERO, |r| r.timestamp + 0.1),
            records: chunk.to_vec(),
        })
        .collect()
}

/// Steps `batches` through a job of `algo` resizing along `schedule` on
/// `ctx`, from the model initialized on `init`; returns the final model's
/// exact serialized bytes and the boundaries crossed.
fn elastic_run<A: StreamClustering>(
    algo: &A,
    ctx: &StreamingContext,
    schedule: ResizeSchedule,
    options: PipelineOptions,
    init: &[Record],
    batches: Vec<MiniBatch>,
) -> (Vec<u8>, Vec<ResizeOutcome>) {
    let records: usize = batches.iter().map(MiniBatch::len).sum();
    let mut job = DistStreamJob::new(algo, ctx, ClusteringConfig::default());
    job.pipeline(options)
        .checkpoint_store(Box::new(MemoryCheckpointStore::new(4)))
        .resize(schedule);
    let mut session = job.start(algo.init(init).expect("init")).expect("start");
    for batch in batches {
        session.step(batch).expect("elastic step");
    }
    let result = session.finish().expect("finish");
    assert_eq!(result.meter.records(), records);
    (encode(&result.model), result.resizes)
}

/// [`elastic_run`] over the shared stream on a zero-cost simulated context.
fn elastic_bytes<A: StreamClustering>(
    algo: &A,
    schedule: ResizeSchedule,
    options: PipelineOptions,
) -> Vec<u8> {
    let all = records();
    let (init, rest) = all.split_at(100);
    elastic_run(
        algo,
        &simulated_ctx(),
        schedule,
        options,
        init,
        to_batches(rest, 200),
    )
    .0
}

/// A simulated context; jobs with a resize schedule set its degree
/// themselves.
fn simulated_ctx() -> StreamingContext {
    StreamingContext::new(1, ExecutionMode::Simulated).expect("context")
}

/// The elastic replay gate: p = 2 → 4 → 3 mid-stream must be bit-identical
/// to the fixed-parallelism run, per algorithm, under both protocols.
fn assert_elastic_replay_invariant<A: StreamClustering>(algo: &A, name: &str) {
    let resized = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).expect("schedule");
    for options in [PipelineOptions::sync(), PipelineOptions::all()] {
        let fixed = elastic_bytes(
            algo,
            ResizeSchedule::with_steps(2, vec![]).unwrap(),
            options,
        );
        assert!(!fixed.is_empty());
        let elastic = elastic_bytes(algo, resized.clone(), options);
        assert_eq!(
            elastic, fixed,
            "{name} diverged across the resize schedule (overlap={})",
            options.overlap
        );
    }
}

#[test]
fn clustream_elastic_replay_is_bit_identical() {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    assert_elastic_replay_invariant(&algo, "CluStream");
}

#[test]
fn denstream_elastic_replay_is_bit_identical() {
    let algo = DenStream::new(DenStreamParams {
        eps: 2.5,
        ..Default::default()
    });
    assert_elastic_replay_invariant(&algo, "DenStream");
}

#[test]
fn dstream_elastic_replay_is_bit_identical() {
    let algo = DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 6,
        ..Default::default()
    });
    assert_elastic_replay_invariant(&algo, "DStream");
}

#[test]
fn clustree_elastic_replay_is_bit_identical() {
    let algo = ClusTree::new(ClusTreeParams {
        max_micro_clusters: 70,
        singleton_radius: 2.5,
        ..Default::default()
    });
    assert_elastic_replay_invariant(&algo, "ClusTree");
}

/// Resize-under-faults on a real algorithm, under both update protocols:
/// retry exhaustion during the rebalancing batch rolls the resize back, a
/// transient fault completes it, and either way the model matches the
/// no-fault run byte for byte. With `overlap` the failed batch has already
/// applied the carried update before its parallel steps fail, so the
/// rollback must restore the `(model, carry)` pair, not just the model.
#[test]
fn clustream_resize_under_faults_completes_or_rolls_back() {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let all = records();
    let (init, rest) = all.split_at(100);
    let batches = to_batches(rest, 200);
    let schedule = ResizeSchedule::with_steps(2, vec![(2, 4)]).expect("schedule");

    for overlap in [false, true] {
        let run = |plan: Option<FaultPlan>| {
            let ctx = simulated_ctx();
            if let Some(plan) = plan {
                ctx.install_fault_plan(plan);
            }
            let options = PipelineOptions {
                overlap,
                ..PipelineOptions::sync()
            };
            elastic_run(
                &algo,
                &ctx,
                schedule.clone(),
                options,
                init,
                batches.clone(),
            )
        };

        let (clean, clean_resizes) = run(None);
        assert!(!clean_resizes[0].rolled_back, "overlap={overlap}");

        // Task 3 only exists post-resize; exhausting its retry budget on the
        // rebalancing batch forces the rollback path.
        let exhausted = (0..4).fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 3, attempt));
        let (rolled_back, resizes) = run(Some(exhausted));
        assert!(
            resizes[0].rolled_back,
            "overlap={overlap}: resize must roll back"
        );
        assert_eq!(
            rolled_back, clean,
            "overlap={overlap}: rollback perturbed the model"
        );

        // A single panic stays inside the retry budget: the resize completes.
        let (completed, resizes) = run(Some(FaultPlan::new().panic_on(2, 3, 0)));
        assert!(
            !resizes[0].rolled_back,
            "overlap={overlap}: resize must complete"
        );
        assert_eq!(
            completed, clean,
            "overlap={overlap}: retried resize perturbed the model"
        );
    }
}

/// Everything the single driver lets one job combine (ROADMAP item 2(e)
/// generalises it into a seeded generator): the fully overlapped pipeline,
/// a resize schedule, a checkpoint cadence and a serving handle, with
/// faults on both resizing batches. Returns the final model bytes and the
/// boundaries crossed.
fn combination_run(
    schedule: ResizeSchedule,
    plan: Option<FaultPlan>,
) -> (Vec<u8>, Vec<ResizeOutcome>) {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let all = records();
    let (init, rest) = all.split_at(100);
    let ctx = simulated_ctx();
    if let Some(plan) = plan {
        ctx.install_fault_plan(plan);
    }
    let handle = serving_handle();
    let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    job.pipeline(PipelineOptions::all())
        .serving(handle.clone())
        .checkpoint_store(Box::new(MemoryCheckpointStore::new(3)))
        .checkpoint_every(2)
        .resize(schedule);
    let mut session = job.start(algo.init(init).expect("init")).expect("start");
    let mut epochs = Vec::new();
    for batch in to_batches(rest, 200) {
        let index = batch.index;
        session.step(batch).expect("step");
        assert_eq!(
            &session.recover().expect("recover"),
            session.model(),
            "recovery diverged after batch {index}"
        );
        epochs.extend(handle.latest().map(|(epoch, _)| epoch));
    }
    let result = session.finish().expect("finish");
    epochs.extend(handle.latest().map(|(epoch, _)| epoch));
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "published epochs must strictly increase: {epochs:?}"
    );
    // Overlapped: batch 0 publishes nothing, then one epoch per step, and
    // the flush publishes the last batch's.
    assert_eq!(epochs, (0..7).collect::<Vec<u64>>());
    let (_, last) = handle.latest().expect("published");
    assert_eq!(last.model_bytes, encode(&result.model));
    assert_eq!(result.meter.records(), rest.len());
    (encode(&result.model), result.resizes)
}

#[test]
fn overlapped_resize_checkpoint_serving_and_faults_combine() {
    // Its batches would land in the shuffle and rebalance counters the
    // metrics test reads deltas of.
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (plain, none) = combination_run(ResizeSchedule::with_steps(2, vec![]).unwrap(), None);
    assert!(none.is_empty());

    // Exhaust task 3's retry budget on the first resizing batch (2 → 4
    // rolls back) and panic task 1 once on the second (2 → 3 completes).
    let plan = (0..4)
        .fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 3, attempt))
        .panic_on(4, 1, 0);
    let schedule = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).expect("schedule");
    let (elastic, resizes) = combination_run(schedule, Some(plan));
    assert_eq!(elastic, plain, "the combination perturbed the model");
    let crossed: Vec<_> = resizes
        .iter()
        .map(|r| (r.batch_index, r.from, r.to, r.rolled_back))
        .collect();
    assert_eq!(crossed, vec![(2, 2, 4, true), (4, 2, 3, false)]);
}

/// Runs a CluStream job at `parallelism` and returns the final model bytes.
fn topology_run(parallelism: usize) -> Vec<u8> {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let ctx = StreamingContext::new(parallelism, ExecutionMode::Simulated).expect("context");
    let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
        .init_records(100)
        .pipeline(PipelineOptions::sync())
        .run_to_end(VecSource::new(records()))
        .expect("job");
    encode(&result.model)
}

/// Placement invariance: record partitioning and key placement move with
/// the parallelism degree, the model never does — every degree ends on the
/// model of p = 1.
#[test]
fn parallelism_sweep_preserves_the_model() {
    let reference = topology_run(1);
    assert!(!reference.is_empty());
    for p in [2, 3, 4, 8] {
        assert_eq!(topology_run(p), reference, "model diverged at p={p}");
    }
}

/// A run at p = 8 journals its shuffle bytes, an injected straggler delay
/// its straggler attribution, through the telemetry names catalog; the
/// rebalance metrics land when an elastic boundary fires.
#[test]
fn topology_sweep_journals_shuffle_straggler_and_rebalance_metrics() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);

    let shuffle_before = telemetry::counter(telemetry::names::METRIC_SHUFFLE_BYTES_TOTAL).get();
    let straggler_before = telemetry::counter(telemetry::names::METRIC_STRAGGLER_TASKS_TOTAL).get();
    let rebalance_before = telemetry::counter(telemetry::names::METRIC_REBALANCE_TOTAL).get();
    let replayed_before =
        telemetry::counter(telemetry::names::METRIC_REBALANCE_REPLAYED_BYTES_TOTAL).get();

    let bytes = topology_run(8);
    assert!(!bytes.is_empty());

    // Elastic, with one task of batch 1 held 20 ms — a straggler next to
    // its sibling at p = 2 — and one resize boundary mid-stream.
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let all = records();
    let (init, rest) = all.split_at(100);
    let ctx = simulated_ctx();
    ctx.install_fault_plan(FaultPlan::new().delay_on(1, 0, 0, 0.02));
    elastic_run(
        &algo,
        &ctx,
        ResizeSchedule::with_steps(2, vec![(3, 4)]).expect("schedule"),
        PipelineOptions::sync(),
        init,
        to_batches(rest, 200),
    );

    telemetry::set_enabled(false);

    assert!(
        telemetry::counter(telemetry::names::METRIC_SHUFFLE_BYTES_TOTAL).get() > shuffle_before,
        "no shuffle bytes journaled"
    );
    assert!(
        telemetry::counter(telemetry::names::METRIC_STRAGGLER_TASKS_TOTAL).get() > straggler_before,
        "the delayed task journaled no straggler attribution"
    );
    assert_eq!(
        telemetry::counter(telemetry::names::METRIC_REBALANCE_TOTAL).get(),
        rebalance_before + 1,
        "the resize boundary must journal exactly one rebalance"
    );
    assert!(
        telemetry::counter(telemetry::names::METRIC_REBALANCE_REPLAYED_BYTES_TOTAL).get()
            > replayed_before
    );
}
