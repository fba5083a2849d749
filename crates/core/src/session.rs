//! The one batch stepper: [`DistStreamJob::start`] returns a [`JobSession`]
//! whose [`step`](JobSession::step) is the single batch step every run path
//! shares — `DistStreamJob::run` and its siblings feed it from a source,
//! fault and elastic harnesses feed it hand-made batches. One step is one
//! iteration of the batch-by-batch feedback loop: broadcast → assign →
//! local update → global update. The checkpoint and resize boundary steps it
//! crosses (order: DESIGN.md §11.1a) live beside their data types in
//! `recovery.rs` and `elastic.rs`.
//!
//! The synchronous protocol (the paper's §V) applies batch `B`'s global
//! update at the bottom of the step that ran `B`'s parallel steps. The
//! asynchronous protocol (§VII-D2 future work, [`PipelineOptions::overlap`])
//! changes only *when* that update applies: it is queued, and applied at the
//! top of the next step — after the stale model was broadcast — so the
//! driver-side work hides behind the next batch's parallel steps and the
//! batch critical path becomes `max(parallel steps, previous global update)`
//! instead of their sum, at the price of one extra batch of model staleness.
//! The order-aware mechanism is the same either way: records fold in arrival
//! order and micro-clusters apply in creation order.
//!
//! The broadcast shares the session's model rather than copying it, and the
//! global update writes it copy-on-write: a synchronous step has dropped its
//! broadcast by then and updates `Q_t` in place; an overlapped step's tasks
//! still read `Q_t`, so its update writes a copy — the one copy the step
//! makes.
//!
//! [`PipelineOptions::overlap`]: crate::PipelineOptions::overlap

use std::sync::Arc;

use diststream_engine::{
    BatchRecord, Broadcast, LatencyProbe, MiniBatch, RecordLatency, ThroughputMeter,
};
use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result, Timestamp};

use crate::api::{Assignment, StreamClustering};
use crate::assignment::assign_records_distributed;
use crate::distribution::Placement;
use crate::elastic::ResizeOutcome;
use crate::global::{global_update, GlobalOutcome};
use crate::local::{local_update_distributed, LocalOutcome, LocalScratch};
use crate::pipeline::{DistStreamJob, RunResult};
use crate::recovery::{BatchDisposition, Checkpoint};
use crate::serving::{publish_snapshot, ServingHandle};

/// Base seed of the unordered baseline's shuffles; each batch mixes its
/// index in, so replays draw the same permutations.
const UNORDERED_BASE_SEED: u64 = 0x0B5E55ED;

/// Per-batch statistics reported by [`JobSession::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Timing and data-movement metrics for the batch.
    pub metrics: BatchRecord,
    /// Records assigned to existing micro-clusters.
    pub assigned_existing: usize,
    /// Records labelled outliers by the assignment step.
    pub outlier_records: usize,
    /// Outlier micro-clusters produced by the local step whose global update
    /// applied during this step. Like `metrics.global_secs`, under the
    /// asynchronous protocol this describes batch `B−1`'s update (zero on
    /// the first batch; the last batch's update is applied by
    /// [`JobSession::finish`]).
    pub created_micro_clusters: usize,
    /// Those outlier micro-clusters remaining after pre-merge.
    pub created_after_premerge: usize,
    /// Event-time → model-integration latency digest for the records whose
    /// global update applied during this step (`None` when no records were
    /// integrated — e.g. an async batch whose update is still pending).
    pub latency: Option<RecordLatency>,
}

/// A batch's local outcome waiting for its global update. Crate-private:
/// only the session may copy it — beside a checkpoint or a resize
/// snapshot — and put it back.
#[derive(Clone, Debug)]
pub(crate) struct PendingGlobal<S> {
    batch_index: usize,
    local: LocalOutcome<S>,
    window_end: Timestamp,
    seed: u64,
    /// Event times of the batch's records, resolved into a latency digest
    /// when the global update applies.
    probe: LatencyProbe,
}

/// One run of a [`DistStreamJob`], advanced a batch at a time. It owns the
/// run's state — the model, the pending global update and the local step's
/// scratch — and reads every setting from its job:
///
/// ```text
/// for each mini-batch B:
///     broadcast Q_t to all tasks
///     [overlap: apply batch B−1's pending global update]
///     step 1: record-based parallel assignment of B against Q_t
///     step 2: model-based parallel local update (ordered folds)
///     [sync: step 3, driver-side global update (ordered, pre-merged) → Q_{t+1}]
/// ```
///
/// # Examples
///
/// ```
/// use diststream_core::reference::NaiveClustering;
/// use diststream_core::{DistStreamJob, StreamClustering};
/// use diststream_engine::{ExecutionMode, MiniBatch, StreamingContext};
/// use diststream_types::{ClusteringConfig, Point, Record, Timestamp};
///
/// let algo = NaiveClustering::new(1.0);
/// let ctx = StreamingContext::new(2, ExecutionMode::Simulated)?;
/// let model = algo.init(&[Record::new(0, Point::from(vec![0.0]), Timestamp::ZERO)])?;
/// let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
/// job.checkpoint_every(2);
/// let mut session = job.start(model)?;
/// let batch = MiniBatch {
///     index: 0,
///     window_start: Timestamp::ZERO,
///     window_end: Timestamp::from_secs(1.0),
///     records: vec![Record::new(1, Point::from(vec![0.3]), Timestamp::from_secs(0.5))],
/// };
/// let outcome = session.step(batch)?;
/// assert_eq!(outcome.assigned_existing, 1);
/// let recovered = session.recover()?; // what a restarted driver would rebuild
/// assert_eq!(&recovered, session.model());
/// assert_eq!(session.finish()?.meter.records(), 1);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct JobSession<'j, A: StreamClustering> {
    pub(crate) job: &'j DistStreamJob<'j, A>,
    /// `Q_t`, shared with the step's broadcast and the rollback snapshots;
    /// only `apply_pending` writes it.
    pub(crate) model: Arc<A::Model>,
    /// The one global update queued between its batch's local step and its
    /// application: across steps under `overlap`, within a step otherwise.
    pub(crate) pending: Option<PendingGlobal<A::Sketch>>,
    /// Per-batch buffers reused across steps; the last batch's spent
    /// records wait here for the drive loop to hand them back.
    pub(crate) scratch: LocalScratch,
    /// The job's serving slot; `None` in the replay session of
    /// [`JobSession::recover`], which publishes nothing.
    serving: Option<&'j ServingHandle>,
    meter: ThroughputMeter,
    /// Resize steps `(first_batch, parallelism)` not reached yet.
    steps: Vec<(usize, usize)>,
    pub(crate) resizes: Vec<ResizeOutcome>,
    /// The job's checkpoint cadence; `None` (and `steps` empty) in the
    /// replay session of [`JobSession::recover`], which crosses no boundary.
    pub(crate) every: Option<usize>,
    pub(crate) since_checkpoint: usize,
    /// Write-ahead replay log: every batch the oldest retained checkpoint
    /// has not folded in.
    pub(crate) log: Vec<MiniBatch>,
    /// The newest checkpoint; the next one recycles its buffer.
    pub(crate) checkpoint: Checkpoint,
    /// The pending (overlapped, not yet applied) update as of each retained
    /// checkpoint, by cursor — driver memory, like the replay log.
    pub(crate) pendings: Vec<(usize, Option<PendingGlobal<A::Sketch>>)>,
}

impl<'a, A: StreamClustering> DistStreamJob<'a, A> {
    /// Starts a run from an initialized `model`: resizes the context to the
    /// resize schedule's initial degree and, with a checkpoint cadence,
    /// checkpoints the initial model (cursor 0).
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] for a zero checkpoint
    /// cadence and [`DistStreamError::Storage`] if the initial checkpoint
    /// cannot be persisted.
    pub fn start(&self, model: A::Model) -> Result<JobSession<'_, A>> {
        if self.checkpoint_every == Some(0) {
            return Err(DistStreamError::InvalidConfig(
                "checkpoint interval must be at least 1".into(),
            ));
        }
        let mut session = self.session(model, None);
        session.serving = self.serving.as_ref();
        if let Some(schedule) = &self.schedule {
            self.ctx.resize(schedule.initial())?;
            session.steps = schedule.steps().to_vec();
        }
        session.every = self.checkpoint_every;
        if session.every.is_some() {
            session.take_checkpoint(0)?;
        }
        Ok(session)
    }

    /// The one place a session is built: `model` and `pending` under the
    /// job's options, with none of the boundary settings and no serving
    /// slot — [`DistStreamJob::start`] adds those to a live session,
    /// [`JobSession::recover`] replays through a bare one.
    pub(crate) fn session(
        &self,
        model: A::Model,
        pending: Option<PendingGlobal<A::Sketch>>,
    ) -> JobSession<'_, A> {
        JobSession {
            job: self,
            model: Arc::new(model),
            pending,
            scratch: LocalScratch::default(),
            serving: None,
            meter: ThroughputMeter::new(),
            steps: Vec::new(),
            resizes: Vec::new(),
            every: None,
            since_checkpoint: 0,
            log: Vec::new(),
            checkpoint: Checkpoint::default(),
            pendings: Vec::new(),
        }
    }
}

impl<A: StreamClustering> JobSession<'_, A> {
    /// The current (authoritative) model; an overlapped job's last stepped
    /// batch is applied by the next step or [`JobSession::finish`].
    pub fn model(&self) -> &A::Model {
        &self.model
    }

    /// Number of batches currently in the write-ahead replay log.
    pub fn replay_log_len(&self) -> usize {
        self.log.len()
    }

    /// Processes one batch, crossing the job's boundaries in the one order
    /// DESIGN.md §11.1a states: a due resize (snapshot, verified rebalance
    /// checkpoint, `ctx.resize`), the write-ahead log append, the batch's
    /// three steps, the rollback of a failed resizing batch, the meter, and
    /// the cadence checkpoint. The model advances by one global update:
    /// this batch's under the synchronous protocol (`Q_t` → `Q_{t+1}`), the
    /// previous batch's under [`PipelineOptions::overlap`].
    ///
    /// # Errors
    ///
    /// Propagates engine failures (task panics) as
    /// [`DistStreamError::TaskFailed`], the algorithm's
    /// [`StreamClustering::apply_global`] error and storage failures. A
    /// failed batch stays in the replay log so [`JobSession::recover`]
    /// retries it; see [`JobSession::step_or_skip`] for the policy that
    /// drops it instead.
    ///
    /// [`PipelineOptions::overlap`]: crate::PipelineOptions::overlap
    pub fn step(&mut self, batch: MiniBatch) -> Result<BatchOutcome> {
        let ctx = self.job.ctx;
        let index = batch.index;
        // Every schedule step this batch has reached is crossed (consumed)
        // here, so a rolled-back one is never retried.
        let due = self.steps.iter().take_while(|s| s.0 <= index).count();
        let target = self.steps.drain(..due).next_back().map(|(_, p)| p);
        let from = ctx.parallelism();
        let mut undo = None;
        if let Some(to) = target.filter(|p| *p != from) {
            undo = Some((
                from,
                Arc::clone(&self.model),
                self.pending.clone(),
                batch.clone(),
            ));
            self.rebalance(index, from, to)?;
            ctx.resize(to)?;
        }
        if self.every.is_some() {
            // Write-ahead: log the batch before touching the model.
            self.log.push(batch.clone());
        }
        let mut attempt = batch;
        let outcome = loop {
            match (self.process_batch(attempt), undo.take()) {
                (Err(DistStreamError::TaskFailed { .. }), Some((from, model, pending, batch))) => {
                    // The resize never happened: back to the boundary
                    // snapshot and the old degree. (An overlapped batch has
                    // already applied the pending update by the time its
                    // parallel steps fail, hence the pair.)
                    self.model = model;
                    self.pending = pending;
                    ctx.resize(from)?;
                    self.mark_rolled_back();
                    attempt = batch;
                }
                (result, _) => break result?,
            }
        };
        self.meter
            .observe(&outcome.metrics, outcome.metrics.total_secs());
        if let Some(every) = self.every {
            self.since_checkpoint += 1;
            if self.since_checkpoint >= every {
                self.take_checkpoint(index + 1)?;
            }
        }
        Ok(outcome)
    }

    /// [`JobSession::step`] with Spark-style graceful degradation: when a
    /// task exhausts its retry budget ([`DistStreamError::TaskFailed`]), the
    /// poisoned batch is dropped — removed from the replay log, counted in
    /// `diststream_batches_skipped_total` — and the stream continues as if
    /// it had never arrived. Synchronously the failure never touched the
    /// model (tasks fail before the driver-side global update); an
    /// overlapped batch has applied the previous batch's pending update
    /// early, so that pair is put back.
    ///
    /// # Errors
    ///
    /// Propagates every error other than [`DistStreamError::TaskFailed`]
    /// (those reflect driver-side problems, not a poisoned batch).
    pub fn step_or_skip(&mut self, batch: MiniBatch) -> Result<BatchDisposition> {
        let batch_index = batch.index;
        let before = self
            .job
            .pipeline
            .overlap
            .then(|| (Arc::clone(&self.model), self.pending.clone()));
        match self.step(batch) {
            Ok(outcome) => Ok(BatchDisposition::Processed(outcome)),
            Err(error @ DistStreamError::TaskFailed { .. }) => {
                if let Some((model, pending)) = before {
                    self.model = model;
                    self.pending = pending;
                }
                // Logged write-ahead before it failed; drop it so recovery
                // does not replay the poison forever.
                self.log.retain(|b| b.index != batch_index);
                if telemetry::enabled() {
                    telemetry::counter(telemetry::names::METRIC_BATCHES_SKIPPED_TOTAL).inc();
                }
                Ok(BatchDisposition::Skipped { batch_index, error })
            }
            Err(other) => Err(other),
        }
    }

    /// Ends the run: applies the last pending overlapped update at its own
    /// batch's window end (metering its driver time) and returns the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`StreamClustering::apply_global`] error.
    pub fn finish(mut self) -> Result<RunResult<A::Model>> {
        if let Some((global, _)) = self.apply_pending(None)? {
            self.meter.observe_flush(global.global_secs);
            if telemetry::enabled() {
                telemetry::barrier_drain();
            }
        }
        Ok(RunResult {
            model: Arc::unwrap_or_clone(self.model),
            meter: self.meter,
            overload: None,
            resizes: self.resizes,
        })
    }

    /// The batch's three steps, advancing the model by one global update:
    /// broadcast, [overlap: the pending update], assignment, local update,
    /// [sync: this batch's global update].
    fn process_batch(&mut self, batch: MiniBatch) -> Result<BatchOutcome> {
        // Driver-side spans only: the journal's span multiset must not
        // depend on the parallelism degree (per-task attribution comes
        // from StepMetrics, which is execution-mode aware). The
        // global_update span carries the *applied* batch's index, so the
        // async lag is visible in the trace.
        let _batch_span = telemetry::span!(telemetry::names::SPAN_BATCH, batch = batch.index);
        // Scope any installed fault plan's (task, attempt) coordinates to
        // this batch before the parallel steps run.
        self.job.ctx.begin_batch(batch.index);
        let batch_seed =
            UNORDERED_BASE_SEED ^ (batch.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let records = batch.len();
        let window_end = batch.window_end;
        // Capture record event times before the assignment step consumes
        // the records; resolved when the batch's global update applies.
        let probe = LatencyProbe::capture(batch.index, &batch.records);

        // Broadcast the stale model Q_t once per feedback-loop iteration —
        // *before* any pending update applies: that is the asynchrony.
        let bcast = Broadcast::from_arc(Arc::clone(&self.model));
        let model_bytes = bcast.payload_bytes();

        // Driver side of the asynchronous protocol (conceptually concurrent
        // with the steps below): batch B−1's records integrate at *this*
        // batch's window end — the one-batch staleness made visible as
        // event-time latency.
        let mut applied = None;
        if self.job.pipeline.overlap {
            applied = self.apply_pending(Some(window_end))?;
        }

        // Step 1: record-based parallel assignment.
        let assignment = {
            let _span = telemetry::span!(telemetry::names::SPAN_ASSIGNMENT, batch = batch.index);
            assign_records_distributed(
                self.job.ctx,
                self.job.algo,
                &bcast,
                batch.records,
                self.job.pipeline.chunking,
                Placement,
            )?
        };
        let assigned_existing = assignment
            .pairs
            .iter()
            .filter(|(_, a)| matches!(a, Assignment::Existing(_)))
            .count();

        // Step 2: model-based parallel local update.
        let local = {
            let _span = telemetry::span!(telemetry::names::SPAN_LOCAL_UPDATE, batch = batch.index);
            local_update_distributed(
                self.job.ctx,
                self.job.algo,
                &bcast,
                assignment.pairs,
                self.job.ordering,
                batch.window_start,
                batch_seed,
                &mut self.scratch,
                self.job.pipeline.combine,
                Placement,
            )?
        };
        let local_metrics = local.metrics.clone();
        let shuffle_bytes = local.shuffle_bytes;
        let local_driver_secs = local.driver_secs;

        // Step 3: queue this batch's global update; the synchronous protocol
        // applies it right away, at the batch's own window end.
        self.pending = Some(PendingGlobal {
            batch_index: batch.index,
            local,
            window_end,
            seed: batch_seed,
            probe,
        });
        if !self.job.pipeline.overlap {
            // No task reads Q_t any more: the update writes it in place.
            drop(bcast);
            applied = self.apply_pending(Some(window_end))?;
        }
        let (global, latency) = applied.unzip();

        let outcome = BatchOutcome {
            metrics: BatchRecord {
                batch_index: batch.index,
                records,
                assignment: assignment.metrics,
                local: local_metrics,
                global_secs: global.as_ref().map_or(0.0, |g| g.global_secs),
                broadcast_bytes: model_bytes * self.job.ctx.parallelism() as u64,
                shuffle_bytes,
                collect_bytes: global.as_ref().map_or(0, |g| g.collect_bytes),
                async_overlap: self.job.pipeline.overlap,
                parallelism: self.job.ctx.parallelism(),
                assign_driver_secs: assignment.driver_secs,
                local_driver_secs,
            },
            assigned_existing,
            outlier_records: records - assigned_existing,
            created_micro_clusters: global.as_ref().map_or(0, |g| g.created_before_premerge),
            created_after_premerge: global.as_ref().map_or(0, |g| g.created_after_premerge),
            latency,
        };
        outcome.metrics.emit();
        Ok(outcome)
    }

    /// The one place a global update is applied, and the model's one
    /// writer (it copies `Q_t` only while something else shares it):
    /// installs the pending batch's update, resolves its records' latency
    /// against `integrates_at` (default: the batch's own window end — no
    /// later batch, no staleness penalty), and publishes the new model as
    /// that batch's serving epoch.
    /// Returns the applied update's [`GlobalOutcome`] and the latency
    /// digest of the records it integrated, or `None` if nothing was
    /// pending.
    fn apply_pending(
        &mut self,
        integrates_at: Option<Timestamp>,
    ) -> Result<Option<(GlobalOutcome, RecordLatency)>> {
        let Some(pending) = self.pending.take() else {
            return Ok(None);
        };
        let global = {
            let _span = telemetry::span!(
                telemetry::names::SPAN_GLOBAL_UPDATE,
                batch = pending.batch_index
            );
            let model = {
                let _copy = telemetry::span!(telemetry::names::SPAN_GLOBAL_COPY);
                Arc::make_mut(&mut self.model)
            };
            global_update(
                self.job.algo,
                model,
                pending.local,
                pending.window_end,
                self.job.ordering,
                self.job.premerge,
                pending.seed,
            )?
        };
        let latency = pending
            .probe
            .resolve(integrates_at.unwrap_or(pending.window_end));
        latency.emit_telemetry();
        if let Some(handle) = self.serving {
            publish_snapshot(handle, self.job.algo, &self.model, pending.batch_index);
        }
        Ok(Some((global, latency)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::UpdateOrdering;
    use crate::pipeline::PipelineOptions;
    use crate::reference::{NaiveClustering, NaiveModel};
    use diststream_engine::{ExecutionMode, StreamingContext};
    use diststream_types::{ClusteringConfig, Point, Record};

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn batch(index: usize, records: Vec<Record>) -> MiniBatch {
        let window_end = records
            .last()
            .map_or(Timestamp::ZERO, |r| r.timestamp + 1.0);
        MiniBatch {
            index,
            window_start: Timestamp::ZERO,
            window_end,
            records,
        }
    }

    fn stream(n: u64) -> Vec<Record> {
        (1..n)
            .map(|i| rec(i, (i % 17) as f64 * 0.7, i as f64 * 0.1))
            .collect()
    }

    fn init(algo: &NaiveClustering) -> NaiveModel {
        algo.init(&[rec(0, 0.0, 0.0)]).unwrap()
    }

    /// The paper's configuration with the asynchronous protocol on or off.
    fn overlap(overlap: bool) -> PipelineOptions {
        PipelineOptions {
            overlap,
            ..PipelineOptions::sync()
        }
    }

    /// A job on `ctx` with the paper's defaults and `options`.
    fn job<'a>(
        algo: &'a NaiveClustering,
        ctx: &'a StreamingContext,
        options: PipelineOptions,
    ) -> DistStreamJob<'a, NaiveClustering> {
        let mut job = DistStreamJob::new(algo, ctx, ClusteringConfig::default());
        job.pipeline(options);
        job
    }

    /// Runs `stream(300)` in two batches of 150 (plus the finish) through a
    /// session at parallelism `p` of a job configured by `configure`.
    fn run_stream(
        p: usize,
        configure: impl Fn(&mut DistStreamJob<'_, NaiveClustering>),
    ) -> NaiveModel {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
        let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
        configure(&mut job);
        let mut session = job.start(init(&algo)).unwrap();
        for (i, chunk) in stream(300).chunks(150).enumerate() {
            session.step(batch(i, chunk.to_vec())).unwrap();
        }
        session.finish().unwrap().model
    }

    #[test]
    fn batch_advances_model() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, PipelineOptions::sync());
        let mut session = job.start(init(&algo)).unwrap();
        let outcome = session
            .step(batch(0, vec![rec(1, 0.2, 1.0), rec(2, 9.0, 2.0)]))
            .unwrap();
        assert_eq!(outcome.assigned_existing, 1);
        assert_eq!(outcome.outlier_records, 1);
        assert_eq!(session.model().len(), 2);
        assert_eq!(outcome.metrics.records, 2);
        assert!(outcome.metrics.total_secs() > 0.0);
        assert!(!outcome.metrics.async_overlap);
        assert!(
            session.apply_pending(None).unwrap().is_none(),
            "a synchronous session never leaves an update pending"
        );
    }

    #[test]
    fn model_identical_across_parallelism_degrees() {
        for overlap_on in [false, true] {
            let base = run_stream(1, |j| {
                j.pipeline(overlap(overlap_on));
            });
            for p in [2, 4, 8, 32] {
                let got = run_stream(p, |j| {
                    j.pipeline(overlap(overlap_on));
                });
                assert_eq!(got, base, "overlap={overlap_on}: model diverged at p={p}");
            }
        }
    }

    /// The determinism gate at session level: combine + chunk scheduling
    /// leave the model bit-identical to the plain pipeline at every
    /// parallelism degree, in both orderings, under both protocols.
    #[test]
    fn combine_and_chunking_preserve_model_at_every_parallelism() {
        for overlap in [false, true] {
            for ordering in [UpdateOrdering::OrderAware, UpdateOrdering::Unordered] {
                let run = |p: usize, combine: bool, chunking: bool| {
                    run_stream(p, |j| {
                        j.ordering(ordering).pipeline(PipelineOptions {
                            overlap,
                            combine,
                            chunking,
                            ..PipelineOptions::sync()
                        });
                    })
                };
                for p in [1, 4, 8] {
                    // Combine and chunk scheduling never change the model
                    // the plain pipeline produces at the same parallelism —
                    // even in Unordered mode, where the baseline itself is
                    // p-*dependent* (global applies groups in p-shaped
                    // partition order; that sensitivity is the paper's
                    // motivation and must not be masked here).
                    let reference = run(p, false, false);
                    let tag = format!("overlap={overlap} {ordering:?} p={p}");
                    assert_eq!(run(p, true, true), reference, "{tag}");
                    assert_eq!(run(p, true, false), reference, "{tag} combine-only");
                    assert_eq!(run(p, false, true), reference, "{tag} chunk-only");
                }
                // And in OrderAware mode the full feature set stays
                // p-*invariant*: bit-identical to the p=1 plain pipeline.
                if ordering == UpdateOrdering::OrderAware {
                    let base = run(1, false, false);
                    for p in [4, 8] {
                        assert_eq!(
                            run(p, true, true),
                            base,
                            "overlap={overlap}: p-invariance lost at p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_and_simulated_modes_agree_on_model() {
        let algo = NaiveClustering::new(1.0);
        let records: Vec<Record> = (1..100)
            .map(|i| rec(i, (i % 13) as f64 * 0.9, i as f64 * 0.05))
            .collect();
        let run = |mode: ExecutionMode| {
            let ctx = StreamingContext::new(4, mode).unwrap();
            let job = job(&algo, &ctx, PipelineOptions::sync());
            let mut session = job.start(init(&algo)).unwrap();
            session.step(batch(0, records.clone())).unwrap();
            session.finish().unwrap().model
        };
        assert_eq!(run(ExecutionMode::Threads), run(ExecutionMode::Simulated));
    }

    #[test]
    fn unordered_differs_from_ordered() {
        let algo = NaiveClustering::new(2.0);
        // Time-spaced records in one micro-cluster make decay order matter.
        let records: Vec<Record> = (1..40).map(|i| rec(i, 0.5, i as f64)).collect();
        let run = |ordering: UpdateOrdering| {
            let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
            let mut job = job(&algo, &ctx, PipelineOptions::sync());
            job.ordering(ordering);
            let mut session = job.start(init(&algo)).unwrap();
            session.step(batch(0, records.clone())).unwrap();
            session.finish().unwrap().model
        };
        assert_ne!(
            run(UpdateOrdering::OrderAware),
            run(UpdateOrdering::Unordered)
        );
    }

    #[test]
    fn premerge_reduces_created_micro_clusters() {
        let algo = NaiveClustering::new(1.0);
        // A burst of outliers clustered near x = 50.
        let records: Vec<Record> = (1..20)
            .map(|i| rec(i, 50.0 + (i % 5) as f64 * 0.1, i as f64 * 0.01))
            .collect();
        let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, PipelineOptions::sync());
        let mut session = job.start(init(&algo)).unwrap();
        let outcome = session.step(batch(0, records)).unwrap();
        assert_eq!(outcome.created_micro_clusters, 19);
        assert_eq!(outcome.created_after_premerge, 1);
    }

    #[test]
    fn empty_batch_is_noop_for_assignments() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, PipelineOptions::sync());
        let mut session = job.start(init(&algo)).unwrap();
        let outcome = session.step(batch(0, vec![])).unwrap();
        assert_eq!(outcome.assigned_existing, 0);
        assert_eq!(outcome.outlier_records, 0);
    }

    #[test]
    fn a_sync_step_updates_the_shared_model_in_place() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Threads).unwrap();
        let job = job(&algo, &ctx, PipelineOptions::sync());
        let mut session = job.start(init(&algo)).unwrap();
        // An address, not a clone: holding a clone would itself force a copy.
        let before = Arc::as_ptr(&session.model);
        session
            .step(batch(0, vec![rec(1, 0.2, 1.0), rec(2, 9.0, 2.0)]))
            .unwrap();
        assert_eq!(session.model().len(), 2, "the update applied");
        assert_eq!(
            Arc::as_ptr(&session.model),
            before,
            "the broadcast was copied or outlived the step"
        );
        assert_eq!(Arc::strong_count(&session.model), 1);
    }

    #[test]
    fn an_overlapped_step_copies_the_model_once() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Threads).unwrap();
        let job = job(&algo, &ctx, overlap(true));
        let mut session = job.start(init(&algo)).unwrap();
        session.step(batch(0, vec![rec(1, 9.0, 1.0)])).unwrap();
        // Batch 0's update is pending; batch 1 applies it while its own
        // broadcast still shares Q_t, so the update writes the one copy.
        let stale = session.model().clone();
        let before = Arc::as_ptr(&session.model);
        session.step(batch(1, vec![rec(2, 0.3, 2.0)])).unwrap();
        assert_ne!(session.model(), &stale, "the update applied");
        assert_ne!(
            Arc::as_ptr(&session.model),
            before,
            "the broadcast did not share Q_t"
        );
        assert_eq!(Arc::strong_count(&session.model), 1);
    }

    #[test]
    fn overlapped_update_applies_on_next_batch_and_at_finish() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, overlap(true));
        let mut session = job.start(init(&algo)).unwrap();
        let before = session.model().clone();

        // Batch 0's outcome is queued, not applied.
        let out = session.step(batch(0, vec![rec(1, 0.2, 1.0)])).unwrap();
        assert_eq!(
            session.model(),
            &before,
            "async session applied the update early"
        );
        assert!(out.metrics.async_overlap);
        assert_eq!(out.metrics.global_secs, 0.0, "nothing to apply yet");
        assert!(out.latency.is_none());

        // Batch 1 applies batch 0's global update.
        session.step(batch(1, vec![rec(2, 0.3, 2.0)])).unwrap();
        assert_ne!(session.model(), &before);

        // Finishing applies the final pending update.
        let snapshot = session.model().clone();
        assert!(session.pending.is_some());
        assert_ne!(session.finish().unwrap().model, snapshot);
    }

    #[test]
    fn overlapped_metrics_report_applied_premerge_counts_one_batch_behind() {
        // Batch 0 drops three outliers far from the model, two of them close
        // enough together to premerge — so its applied global update must
        // report created=3, after-premerge=2. Those counts surface on batch
        // 1's outcome (the async one-batch lag), never batch 1's own.
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, overlap(true));
        let mut session = job.start(init(&algo)).unwrap();

        let out0 = session
            .step(batch(
                0,
                vec![rec(1, 10.0, 1.0), rec(2, 10.4, 1.1), rec(3, 50.0, 1.2)],
            ))
            .unwrap();
        assert_eq!(out0.created_micro_clusters, 0, "nothing applied yet");
        assert_eq!(out0.created_after_premerge, 0);

        let out1 = session.step(batch(1, vec![rec(4, 0.1, 2.0)])).unwrap();
        assert_eq!(out1.created_micro_clusters, 3, "batch 0's applied count");
        assert_eq!(
            out1.created_after_premerge, 2,
            "premerge collapsed two nearby outliers; the fields must differ"
        );

        // Batch 1 created nothing, and the update `finish` applies says so.
        let (final_outcome, _) = session.apply_pending(None).unwrap().unwrap();
        assert_eq!(final_outcome.created_before_premerge, 0);
        assert_eq!(final_outcome.created_after_premerge, 0);
    }

    #[test]
    fn overlapped_model_matches_sync_after_finish_on_one_batch() {
        // With one batch, both protocols apply the same global update with
        // the same inputs (staleness only affects batches assigned against
        // a yet-older model).
        let one_batch = |overlap_on: bool| {
            let algo = NaiveClustering::new(1.0);
            let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
            let job = job(&algo, &ctx, overlap(overlap_on));
            let mut session = job.start(init(&algo)).unwrap();
            session.step(batch(0, stream(20))).unwrap();
            session.finish().unwrap().model
        };
        assert_eq!(one_batch(true), one_batch(false));
    }
}
