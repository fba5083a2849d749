//! Failure-injection tests: deterministic fault plans drive the engine's
//! task-retry layer, the checkpoint store's corruption fallback, and the
//! driver's skip-batch degradation policy — and none of it may perturb the
//! computed model.

use diststream::core::reference::NaiveClustering;
use diststream::core::{
    assign_records_distributed, global_update, local_update_distributed, strategy_for,
    BatchDisposition, CheckpointStore, DistStreamJob, FileCheckpointStore, LocalScratch,
    MemoryCheckpointStore, PipelineOptions, StrategyKind, StreamClustering, UpdateOrdering,
};
use diststream::engine::{
    encode, prefetch_batches, Broadcast, ExecutionMode, FaultPlan, MiniBatch, MiniBatcher,
    StreamingContext, TaskPool, VecSource, DEFAULT_MAX_TASK_FAILURES,
};
use diststream::types::{ClusteringConfig, DistStreamError, Point, Record, Timestamp};

fn rec(id: u64, x: f64, t: f64) -> Record {
    Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
}

fn batch(index: usize, records: Vec<Record>) -> MiniBatch {
    MiniBatch {
        index,
        window_start: records.first().map_or(Timestamp::ZERO, |r| r.timestamp),
        window_end: records
            .last()
            .map_or(Timestamp::ZERO, |r| r.timestamp + 0.5),
        records,
    }
}

/// A small deterministic stream cut into `n_batches` batches of `per_batch`
/// records spread over a few clusters.
fn batches(n_batches: usize, per_batch: u64) -> Vec<MiniBatch> {
    (0..n_batches)
        .map(|i| {
            let records = (0..per_batch)
                .map(|j| {
                    let id = 1 + i as u64 * per_batch + j;
                    rec(id, (id % 5) as f64 * 3.0, i as f64 + j as f64 * 0.01)
                })
                .collect();
            batch(i, records)
        })
        .collect()
}

fn run_model(ctx: &StreamingContext, plan: Option<FaultPlan>, skip: &[usize]) -> Vec<u8> {
    let algo = NaiveClustering::new(1.0);
    match plan {
        Some(p) => ctx.install_fault_plan(p),
        None => ctx.clear_fault_plan(),
    }
    let job = DistStreamJob::new(&algo, ctx, ClusteringConfig::default());
    let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
    for b in batches(6, 20) {
        if skip.contains(&b.index) {
            continue;
        }
        session.step(b).unwrap();
    }
    encode(session.model())
}

// ---------------------------------------------------------------------------
// Task retry
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_exhausts_retries_into_typed_error() {
    let pool = TaskPool::new(4).unwrap();
    let result = pool.run((0..64).collect::<Vec<u32>>(), &|_, x| {
        assert!(x != 13, "injected failure");
        x
    });
    match result {
        Err(DistStreamError::TaskFailed {
            task,
            attempts,
            reason,
        }) => {
            assert_eq!(task, 13);
            assert_eq!(attempts, DEFAULT_MAX_TASK_FAILURES);
            assert!(reason.contains("injected failure"), "reason: {reason}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn dimension_mismatch_panics_in_thread_mode_as_task_failure() {
    // A malformed stream: the second record has the wrong dimensionality.
    // In thread mode the distance computation panics inside a worker task;
    // retries deterministically re-panic until the budget is spent and the
    // step reports the typed failure.
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(2, ExecutionMode::Threads).expect("context");
    let job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    let model = algo
        .init(&[Record::new(0, Point::from(vec![0.0, 0.0]), Timestamp::ZERO)])
        .expect("init");
    let mut session = job.start(model).expect("start");
    let bad = MiniBatch {
        index: 0,
        window_start: Timestamp::ZERO,
        window_end: Timestamp::from_secs(1.0),
        records: vec![
            Record::new(1, Point::from(vec![0.1, 0.1]), Timestamp::from_secs(0.1)),
            Record::new(2, Point::from(vec![0.1]), Timestamp::from_secs(0.2)),
        ],
    };
    let result = session.step(bad);
    assert!(matches!(result, Err(DistStreamError::TaskFailed { .. })));
}

#[test]
fn executor_survives_after_a_failed_batch() {
    // After retries are exhausted, the same context and model keep working
    // for well-formed batches (parallel recovery in spirit: the failed
    // batch is lost, the model is last-known-good).
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(2, ExecutionMode::Threads).expect("context");
    let job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    let model = algo
        .init(&[Record::new(0, Point::from(vec![0.0]), Timestamp::ZERO)])
        .expect("init");
    let mut session = job.start(model).expect("start");

    let poison = MiniBatch {
        index: 0,
        window_start: Timestamp::ZERO,
        window_end: Timestamp::from_secs(1.0),
        records: vec![Record::new(
            1,
            Point::from(vec![0.1, 0.2]),
            Timestamp::from_secs(0.1),
        )],
    };
    assert!(session.step(poison).is_err());

    let good = MiniBatch {
        index: 1,
        window_start: Timestamp::from_secs(1.0),
        window_end: Timestamp::from_secs(2.0),
        records: vec![Record::new(
            2,
            Point::from(vec![0.2]),
            Timestamp::from_secs(1.5),
        )],
    };
    let outcome = session.step(good).expect("recovery batch");
    assert_eq!(outcome.assigned_existing, 1);
}

#[test]
fn retried_run_is_byte_identical_to_fault_free_run() {
    // Acceptance: a plan that panics one task on its first attempt must
    // complete via retry with a model byte-identical to the no-fault run.
    for mode in [ExecutionMode::Simulated, ExecutionMode::Threads] {
        let ctx = StreamingContext::new(4, mode).unwrap();
        let clean = run_model(&ctx, None, &[]);
        let faulted = run_model(&ctx, Some(FaultPlan::new().panic_on(2, 1, 0)), &[]);
        assert_eq!(clean, faulted, "retry changed the model ({mode:?})");
    }
}

#[test]
fn faulted_replay_is_byte_identical_across_parallelism() {
    // Acceptance: the p=1 vs p=4 determinism gate holds with a fault plan
    // active — same plan, same model bytes, regardless of parallelism.
    let plan = FaultPlan::new().panic_on(1, 0, 0).panic_on(4, 0, 0);
    let p1 = {
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        run_model(&ctx, Some(plan.clone()), &[])
    };
    let p4 = {
        let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
        run_model(&ctx, Some(plan), &[])
    };
    assert_eq!(p1, p4, "fault plan broke parallelism independence");
}

#[test]
fn scattered_fault_plan_still_replays_deterministically() {
    // A seed-derived shower of first-attempt panics: every one is absorbed
    // by retries and the model matches the clean run bit for bit.
    let plan = FaultPlan::scattered_panics(42, 6, 4, 300);
    assert!(plan.panics_remaining() > 0, "seed produced no faults");
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
    let clean = run_model(&ctx, None, &[]);
    let faulted = run_model(&ctx, Some(plan), &[]);
    assert_eq!(clean, faulted);
}

// In thread mode the calling thread is one of the p executors (the only one
// at p = 1). The cells below aim faults at it: at p = 1 every task is the
// caller's, at p = 2 a plan that hits *every* task of a step hits the one
// the caller claimed, whichever that was.

#[test]
fn a_fault_on_the_calling_thread_is_retried_like_any_other() {
    for p in [1, 2] {
        let ctx = StreamingContext::new(p, ExecutionMode::Threads).unwrap();
        let clean = run_model(&ctx, None, &[]);
        let plan = [1, 3].iter().fold(FaultPlan::new(), |plan, &batch| {
            (0..p).fold(plan, |plan, task| plan.panic_on(batch, task, 0))
        });
        let faulted = run_model(&ctx, Some(plan), &[]);
        assert_eq!(
            clean, faulted,
            "retry on the caller changed the model (p={p})"
        );
    }
}

#[test]
fn an_exhausted_budget_on_the_calling_thread_is_a_typed_error() {
    for p in [1, 2] {
        let ctx = StreamingContext::new(p, ExecutionMode::Threads).unwrap();
        let plan = (0..p).fold(FaultPlan::new(), |plan, task| {
            (0..DEFAULT_MAX_TASK_FAILURES)
                .fold(plan, |plan, attempt| plan.panic_on(0, task, attempt))
        });
        ctx.install_fault_plan(plan);
        ctx.begin_batch(0);
        // Returns — a panic unwinding through `run_tasks` would fail the
        // test here instead — and names the lowest failing task.
        let result = ctx.run_tasks(vec![(); p], |task, ()| task);
        assert!(
            matches!(
                result,
                Err(DistStreamError::TaskFailed { task: 0, attempts, .. })
                    if attempts == DEFAULT_MAX_TASK_FAILURES
            ),
            "p={p}: {result:?}"
        );
        // The context (and the thread) are intact: the plan is spent, so
        // the same step now runs clean.
        let (outs, _) = ctx.run_tasks(vec![(); p], |task, ()| task).unwrap();
        assert_eq!(outs, (0..p).collect::<Vec<_>>());
    }
}

/// One fault-delay behaviour in both modes: the delay really holds the
/// executor — the calling thread, for a one-thread step — so the delayed
/// task's time and the step's wall contain it and the other tasks' times
/// do not.
#[test]
fn a_straggler_delay_really_holds_the_calling_thread() {
    for (mode, p) in [(ExecutionMode::Threads, 1), (ExecutionMode::Simulated, 2)] {
        let ctx = StreamingContext::new(p, mode).unwrap();
        ctx.install_fault_plan(FaultPlan::new().delay_on(0, 1, 0, 0.05));
        ctx.begin_batch(0);
        let caller = std::thread::current().id();
        let (ran_on, step) = ctx
            .run_tasks(vec![(); 3], |_, ()| std::thread::current().id())
            .unwrap();
        assert_eq!(ran_on, vec![caller; 3], "{mode:?}");
        let tasks = step.task_secs();
        assert!(tasks[1] >= 0.05, "{mode:?}: {tasks:?}");
        assert!(tasks[0] < 0.05 && tasks[2] < 0.05, "{mode:?}: {tasks:?}");
        assert!(step.wall_secs() >= 0.05, "{mode:?}: {}", step.wall_secs());
    }
}

/// One 64-record batch through the three steps by hand, so a first-attempt
/// panic can be aimed at task 0 of step 1 or of step 2 (through a
/// session, step 1 always consumes the `(batch, 0, 0)` coordinate first).
/// Returns the model bytes and the charged shuffle bytes.
fn stepwise(ctx: &StreamingContext, chunking: bool, fault_step: Option<u8>) -> (Vec<u8>, u64) {
    let algo = NaiveClustering::new(1.0);
    let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let batch = batches(1, 64).remove(0);
    let bcast = Broadcast::new(model.clone());
    let placement = strategy_for(StrategyKind::RoundRobin);
    let arm = |step: u8| {
        if fault_step == Some(step) {
            ctx.install_fault_plan(FaultPlan::new().panic_on(0, 0, 0));
        } else {
            ctx.clear_fault_plan();
        }
        ctx.begin_batch(0);
    };
    arm(1);
    let assigned =
        assign_records_distributed(ctx, &algo, &bcast, batch.records, chunking, placement).unwrap();
    arm(2);
    let local = local_update_distributed(
        ctx,
        &algo,
        &bcast,
        assigned.pairs,
        UpdateOrdering::OrderAware,
        batch.window_start,
        7,
        &mut LocalScratch::default(),
        false,
        placement,
    )
    .unwrap();
    ctx.clear_fault_plan();
    let shuffle_bytes = local.shuffle_bytes;
    global_update(
        &algo,
        &mut model,
        local,
        batch.window_end,
        UpdateOrdering::OrderAware,
        true,
        7,
    )
    .unwrap();
    (encode(&model), shuffle_bytes)
}

#[test]
fn retry_on_borrowed_input_changes_nothing_in_either_step() {
    // Both parallel steps hand the pool views and lend the batch to the
    // task closure, so an attempt that panics has nothing of the batch to
    // lose: the retry reads the very same records, and the model and the
    // shuffle accounting match the fault-free run — in real threads, with
    // step 1 chunked or not.
    diststream::telemetry::set_enabled(true);
    let retried = || diststream::telemetry::counter("diststream_tasks_retried_total").get();
    let ctx = StreamingContext::new(2, ExecutionMode::Threads).unwrap();
    for chunking in [false, true] {
        let clean = stepwise(&ctx, chunking, None);
        for step in [1, 2] {
            let before = retried();
            let faulted = stepwise(&ctx, chunking, Some(step));
            assert_eq!(
                clean, faulted,
                "a retry in step {step} changed the outcome (chunking={chunking})"
            );
            // Other tests of this binary may retry concurrently: at least
            // this one was counted.
            assert!(
                retried() > before,
                "retry in step {step} not counted (chunking={chunking})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Durable checkpoints
// ---------------------------------------------------------------------------

/// A job over `ctx` checkpointing every `interval` batches into `store`.
fn checkpointing_job<'a>(
    algo: &'a NaiveClustering,
    ctx: &'a StreamingContext,
    interval: usize,
    store: impl CheckpointStore + 'static,
) -> DistStreamJob<'a, NaiveClustering> {
    let mut job = DistStreamJob::new(algo, ctx, ClusteringConfig::default());
    job.checkpoint_store(Box::new(store))
        .checkpoint_every(interval);
    job
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("diststream-failinj-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupted_newest_checkpoint_recovers_from_previous_manifest_entry() {
    // Acceptance: damage the newest on-disk checkpoint; recovery must fall
    // back to the previous manifest entry and still rebuild the live model
    // exactly (the replay log retains the extra batches the older
    // checkpoint needs).
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let dir = unique_dir("fallback");
    let store = FileCheckpointStore::open(&dir, 3).unwrap();
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let job = checkpointing_job(&algo, &ctx, 2, store);
    let mut driver = job.start(model).unwrap();
    for b in batches(6, 10) {
        driver.step(b).unwrap();
    }
    // Checkpoints at cursors 2, 4, 6 (+ initial 0, pruned to last 3).
    let manifest = job.store().manifest();
    assert_eq!(manifest, vec![6, 4, 2]);
    assert_eq!(&driver.recover().unwrap(), driver.model());

    // Corrupt the newest frame on disk, out-of-band.
    let newest = dir.join("ckpt-6.bin");
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let recovered = driver.recover().expect("fallback recovery");
    assert_eq!(
        &recovered,
        driver.model(),
        "older checkpoint + longer replay must rebuild the same model"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scripted_checkpoint_corruption_triggers_fallback() {
    // Same fallback, driven through the fault plan instead of raw file
    // surgery, and against the in-memory store implementation.
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    ctx.install_fault_plan(FaultPlan::new().corrupt_checkpoint_after(3));
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let job = checkpointing_job(
        &algo,
        &ctx,
        2,
        MemoryCheckpointStore::new(3).expect("store"),
    );
    let mut driver = job.start(model).unwrap();
    for b in batches(6, 10) {
        driver.step(b).unwrap();
    }
    // The checkpoint after batch 3 (cursor 4) was silently damaged at
    // persist time; a restore that walks the manifest newest-first will hit
    // the good cursor-6 entry first, so damage cursor 6's *file* too by
    // checking the direct load path: cursor 4 must fail validation.
    assert!(matches!(
        job.store().load(4),
        Err(DistStreamError::CorruptCheckpoint { .. })
    ));
    // Recovery still succeeds (newest checkpoint is intact).
    assert_eq!(&driver.recover().unwrap(), driver.model());
    ctx.clear_fault_plan();
}

#[test]
fn all_checkpoints_corrupt_is_a_typed_error() {
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let job = checkpointing_job(
        &algo,
        &ctx,
        1,
        MemoryCheckpointStore::new(2).expect("store"),
    );
    let mut driver = job.start(model).unwrap();
    for b in batches(3, 5) {
        driver.step(b).unwrap();
    }
    // recover() consults the store; with every retained frame damaged it
    // must surface a typed error. (Reaching into the store mutably is
    // test-only surgery.)
    let manifest = job.store().manifest();
    for cursor in manifest {
        job.store().inject_corruption(cursor).unwrap();
    }
    assert!(matches!(
        driver.recover(),
        Err(DistStreamError::CorruptCheckpoint { .. })
    ));
}

// ---------------------------------------------------------------------------
// Skip-batch degradation
// ---------------------------------------------------------------------------

#[test]
fn exhausted_retries_skip_the_batch_and_the_stream_continues() {
    // Acceptance: retries exhausted ⇒ batch skipped, counted in telemetry,
    // and the stream continues — final model identical to a run that never
    // saw the poisoned batch.
    let algo = NaiveClustering::new(1.0);
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    // Panic batch 2's task 0 on every permitted attempt.
    let plan = (0..DEFAULT_MAX_TASK_FAILURES)
        .fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 0, attempt));
    ctx.install_fault_plan(plan);

    diststream::telemetry::set_enabled(true);
    let skipped_before = diststream::telemetry::counter("diststream_batches_skipped_total").get();
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let job = checkpointing_job(
        &algo,
        &ctx,
        100,
        MemoryCheckpointStore::new(1).expect("store"),
    );
    let mut driver = job.start(model).unwrap();
    let mut skipped = Vec::new();
    for b in batches(6, 20) {
        match driver.step_or_skip(b).unwrap() {
            BatchDisposition::Processed(_) => {}
            BatchDisposition::Skipped { batch_index, error } => {
                assert!(matches!(error, DistStreamError::TaskFailed { .. }));
                skipped.push(batch_index);
            }
        }
    }
    assert_eq!(skipped, vec![2], "exactly the poisoned batch is dropped");
    let skipped_after = diststream::telemetry::counter("diststream_batches_skipped_total").get();
    assert_eq!(skipped_after - skipped_before, 1, "skip not counted");

    // The surviving model equals a clean run over the stream minus batch 2.
    let clean_ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let expected = run_model(&clean_ctx, None, &[2]);
    assert_eq!(encode(driver.model()), expected);

    // And recovery replays to the same place: the poisoned batch was
    // removed from the write-ahead log.
    assert_eq!(&driver.recover().unwrap(), driver.model());
    ctx.clear_fault_plan();
}

#[test]
fn overlapped_skip_equals_a_run_that_never_saw_the_batch() {
    // Under the asynchronous protocol the failed batch has already applied
    // the previous batch's pending update by the time its tasks fail; the
    // skip must put that pair back, or the next batch would assign against
    // a fresher model than a run without the poisoned batch does.
    let algo = NaiveClustering::new(1.0);
    let run = |plan: Option<FaultPlan>, omit: Option<usize>| {
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        if let Some(plan) = plan {
            ctx.install_fault_plan(plan);
        }
        let mut job = checkpointing_job(
            &algo,
            &ctx,
            2,
            MemoryCheckpointStore::new(2).expect("store"),
        );
        job.pipeline(PipelineOptions::all());
        let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
        let mut skipped = Vec::new();
        for b in batches(6, 20) {
            if omit == Some(b.index) {
                continue;
            }
            if let BatchDisposition::Skipped { batch_index, .. } = session.step_or_skip(b).unwrap()
            {
                skipped.push(batch_index);
            }
            assert_eq!(&session.recover().unwrap(), session.model());
        }
        (encode(&session.finish().unwrap().model), skipped)
    };
    let plan = (0..DEFAULT_MAX_TASK_FAILURES)
        .fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 0, attempt));
    let (survivor, skipped) = run(Some(plan), None);
    assert_eq!(skipped, vec![2]);
    assert_eq!(survivor, run(None, Some(2)).0);
}

// ---------------------------------------------------------------------------
// Prefetched ingest under faults
// ---------------------------------------------------------------------------

/// The same deterministic stream as [`batches`]`(6, 20)`, flattened so it
/// can be re-batched by the engine's own ingest paths (sync `MiniBatcher`
/// pull vs. staged `prefetch_batches`).
fn stream_records() -> Vec<Record> {
    batches(6, 20).into_iter().flat_map(|b| b.records).collect()
}

#[test]
fn prefetched_poisoned_batch_skips_and_replays_like_sync_ingest() {
    // Acceptance: a batch that exhausts its retries after being staged by
    // the prefetch worker is skipped exactly like the synchronous-ingest
    // path — same skipped index, same surviving model, and the checkpoint
    // replay cursor (the store manifest) lands in the same place.
    let algo = NaiveClustering::new(1.0);
    // Panic batch 2's task 0 on every permitted attempt.
    let plan = (0..DEFAULT_MAX_TASK_FAILURES)
        .fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 0, attempt));

    // Sync ingest: the MiniBatcher pulls the source on the driver thread.
    let sync_ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    sync_ctx.install_fault_plan(plan.clone());
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let sync_job = checkpointing_job(
        &algo,
        &sync_ctx,
        2,
        MemoryCheckpointStore::new(8).expect("store"),
    );
    let mut sync_driver = sync_job.start(model).unwrap();
    let mut sync_skipped = Vec::new();
    let mut source = VecSource::new(stream_records());
    for b in MiniBatcher::new(&mut source, 1.0) {
        match sync_driver.step_or_skip(b).unwrap() {
            BatchDisposition::Processed(_) => {}
            BatchDisposition::Skipped { batch_index, .. } => sync_skipped.push(batch_index),
        }
    }
    sync_ctx.clear_fault_plan();

    // Prefetched ingest: a worker thread stages batches ahead while the
    // driver consumes. Task-level faults fire inside run_tasks on the
    // consumer side, so retry exhaustion and skipping must be unaffected
    // by where the batch was cut.
    let pre_ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    pre_ctx.install_fault_plan(plan);
    let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let pre_job = checkpointing_job(
        &algo,
        &pre_ctx,
        2,
        MemoryCheckpointStore::new(8).expect("store"),
    );
    let mut pre_driver = pre_job.start(model).unwrap();
    let pre_skipped = prefetch_batches(VecSource::new(stream_records()), 1.0, |staged| {
        let mut skipped = Vec::new();
        for b in staged {
            match pre_driver.step_or_skip(b).unwrap() {
                BatchDisposition::Processed(_) => {}
                BatchDisposition::Skipped { batch_index, .. } => skipped.push(batch_index),
            }
        }
        skipped
    });
    pre_ctx.clear_fault_plan();

    assert_eq!(sync_skipped, vec![2], "sync path dropped the wrong batch");
    assert_eq!(pre_skipped, sync_skipped, "prefetch changed skip behavior");
    assert_eq!(
        encode(pre_driver.model()),
        encode(sync_driver.model()),
        "prefetch changed the surviving model"
    );
    assert_eq!(
        pre_job.store().manifest(),
        sync_job.store().manifest(),
        "prefetch moved the checkpoint cursor"
    );
    // Both write-ahead logs replay to their live models.
    assert_eq!(&sync_driver.recover().unwrap(), sync_driver.model());
    assert_eq!(&pre_driver.recover().unwrap(), pre_driver.model());
}

#[test]
fn overlapped_pipeline_with_faults_is_parallelism_invariant() {
    // Acceptance: the fully overlapped pipeline (prefetch + chunking +
    // async updates) stays bit-identical across parallelism
    // degrees even with first-attempt task panics absorbed by retries.
    let algo = NaiveClustering::new(1.0);
    let plan = FaultPlan::new().panic_on(1, 0, 0).panic_on(3, 0, 0);
    let run = |p: usize, plan: Option<FaultPlan>| {
        let config = ClusteringConfig::default().with_batch_secs(1.0).unwrap();
        let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
        match plan {
            Some(plan) => ctx.install_fault_plan(plan),
            None => ctx.clear_fault_plan(),
        }
        let result = DistStreamJob::new(&algo, &ctx, config)
            .init_records(8)
            .pipeline(PipelineOptions::all())
            .run_to_end(VecSource::new(stream_records()))
            .unwrap();
        encode(&result.model)
    };
    let clean = run(1, None);
    assert_eq!(
        run(1, Some(plan.clone())),
        clean,
        "retry changed the p=1 overlapped model"
    );
    assert_eq!(
        run(4, Some(plan)),
        clean,
        "fault plan broke overlapped parallelism invariance"
    );
}

#[test]
fn retries_are_counted_in_telemetry() {
    // Tests in this binary run concurrently and the registry is global, so
    // assert a lower bound on the delta rather than an exact count.
    diststream::telemetry::set_enabled(true);
    let retried_before = diststream::telemetry::counter("diststream_tasks_retried_total").get();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let _ = run_model(
        &ctx,
        Some(FaultPlan::new().panic_on(0, 0, 0).panic_on(3, 1, 0)),
        &[],
    );
    let retried_after = diststream::telemetry::counter("diststream_tasks_retried_total").get();
    assert!(
        retried_after - retried_before >= 2,
        "retries not counted: {retried_before} -> {retried_after}"
    );
}
