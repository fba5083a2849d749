//! The stepwise form of the one driver: [`DistStreamJob::start`] returns a
//! [`JobSession`] whose [`step`](JobSession::step) is the single batch step
//! every run path shares — `DistStreamJob::run` and its siblings feed it
//! from a source, fault and elastic harnesses feed it hand-made batches —
//! and the only place a batch reaches the executor. The checkpoint and
//! resize boundary steps it crosses (order: DESIGN.md §11.1a) live beside
//! their data types in `recovery.rs` and `elastic.rs`.

use diststream_engine::{MiniBatch, ThroughputMeter};
use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::api::StreamClustering;
use crate::elastic::ResizeOutcome;
use crate::parallel::{BatchOutcome, DistStreamExecutor, PendingGlobal};
use crate::pipeline::{DistStreamJob, RunResult};
use crate::recovery::{BatchDisposition, Checkpoint};

/// One run of a [`DistStreamJob`], advanced a batch at a time.
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
/// session.step(batch)?;
/// let recovered = session.recover()?; // what a restarted driver would rebuild
/// assert_eq!(&recovered, session.model());
/// assert_eq!(session.finish()?.meter.records(), 1);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct JobSession<'j, A: StreamClustering> {
    pub(crate) job: &'j DistStreamJob<'j, A>,
    pub(crate) exec: DistStreamExecutor<'j, A>,
    pub(crate) model: A::Model,
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
        if let Some(handle) = &self.serving {
            session.exec.serving(handle.clone());
        }
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

    /// The one place an executor is obtained: the job's options on a fresh
    /// [`DistStreamExecutor`], with none of the boundary settings and no
    /// serving handle — [`DistStreamJob::start`] adds those to a live
    /// session, [`JobSession::recover`] replays through a bare one.
    pub(crate) fn session(
        &self,
        model: A::Model,
        pending: Option<PendingGlobal<A::Sketch>>,
    ) -> JobSession<'_, A> {
        let mut exec = DistStreamExecutor::new(self.algo, self.ctx);
        exec.ordering(self.ordering)
            .premerge(self.premerge)
            .combine(self.pipeline.combine)
            .chunking(self.pipeline.chunking)
            .overlap(self.pipeline.overlap)
            .strategy(self.pipeline.strategy);
        exec.restore_pending(pending);
        JobSession {
            job: self,
            exec,
            model,
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
    /// checkpoint, `ctx.resize`), the write-ahead log append, the executor,
    /// the rollback of a failed resizing batch, the meter, and the cadence
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates engine, algorithm and storage failures. A failed batch
    /// stays in the replay log so [`JobSession::recover`] retries it; see
    /// [`JobSession::step_or_skip`] for the policy that drops it instead.
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
            undo = Some((from, self.model.clone(), self.exec.pending(), batch.clone()));
            self.rebalance(index, from, to)?;
            ctx.resize(to)?;
        }
        if self.every.is_some() {
            // Write-ahead: log the batch before touching the model.
            self.log.push(batch.clone());
        }
        let mut attempt = batch;
        let outcome = loop {
            match (
                self.exec.process_batch(&mut self.model, attempt),
                undo.take(),
            ) {
                (Err(DistStreamError::TaskFailed { .. }), Some((from, model, pending, batch))) => {
                    // The resize never happened: back to the boundary
                    // snapshot and the old degree. (An overlapped batch has
                    // already applied the pending update by the time its
                    // parallel steps fail, hence the pair.)
                    self.model = model;
                    self.exec.restore_pending(pending);
                    ctx.resize(from)?;
                    self.mark_rolled_back();
                    attempt = batch;
                }
                (result, _) => break result?,
            }
        };
        self.meter.observe(&outcome.metrics);
        if let Some(latency) = &outcome.latency {
            self.meter.observe_latency(latency);
        }
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
            .then(|| (self.model.clone(), self.exec.pending()));
        match self.step(batch) {
            Ok(outcome) => Ok(BatchDisposition::Processed(outcome)),
            Err(error @ DistStreamError::TaskFailed { .. }) => {
                if let Some((model, pending)) = before {
                    self.model = model;
                    self.exec.restore_pending(pending);
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

    /// Ends the run: applies the last pending overlapped update (metering
    /// its driver time) and returns the result.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`StreamClustering::apply_global`] error.
    pub fn finish(mut self) -> Result<RunResult<A::Model>> {
        if let Some((global, latency)) = self.exec.flush(&mut self.model)? {
            self.meter.observe_flush(global.global_secs);
            self.meter.observe_latency(&latency);
            if telemetry::enabled() {
                telemetry::barrier_drain();
            }
        }
        Ok(RunResult {
            model: self.model,
            meter: self.meter,
            overload: None,
            resizes: self.resizes,
        })
    }
}
