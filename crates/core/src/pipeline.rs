//! High-level job wiring: source → initialization → mini-batcher →
//! [`JobSession`](crate::JobSession) → per-batch reports. The job is the
//! only driver: every run path here is `init_model → start → for batch in
//! feed(previous outcome) { step; report; drain } → finish`, and the feed
//! is the one plug-in point — a window controller or the overload loop
//! runs inside it, at the next pull.

use diststream_engine::{
    prefetch_batches, LoadShedPolicy, MiniBatch, MiniBatcher, RecordSource, StratifiedSampler,
    StreamingContext, ThroughputMeter,
};
use diststream_telemetry as telemetry;
use diststream_types::{ClusteringConfig, DistStreamError, Record, Result, Timestamp};
use std::sync::{Arc, Mutex, PoisonError};

use crate::adaptive::AdaptiveBatchSizer;
use crate::api::{StreamClustering, UpdateOrdering};
use crate::elastic::{ResizeOutcome, ResizeSchedule};
use crate::local::SpentBatch;
use crate::serving::ServingHandle;
use crate::session::BatchOutcome;
use crate::store::{CheckpointStore, MemoryCheckpointStore};

/// Toggles for the overlapped batch pipeline — the two ingest-to-update
/// optimizations plus the asynchronous update protocol, all off by default
/// (the paper's synchronous configuration).
///
/// Neither of the first two changes the model or the charged bytes:
/// prefetch only moves the source drain off the critical path, and chunk
/// scheduling only changes the task layout. There is no map-side combine:
/// the shuffle moves `u32` arrival positions within one process, so every
/// run charges the paper's uncombined `groupByKey` (DESIGN.md §11.1b).
/// `overlap` switches [`JobSession::step`](crate::JobSession::step) to the
/// asynchronous update protocol, which trades one batch of model staleness
/// for throughput — a *different* (but still parallelism-invariant) model
/// than the synchronous protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Prefetched ingest: a worker drains the source for batch `N+1` while
    /// batch `N` processes, then waits for the driver to take it — one
    /// batch ahead, so at most two batches are live.
    pub prefetch: bool,
    /// Deterministic size-aware chunk scheduling for the assignment step.
    pub chunking: bool,
    /// Asynchronous update protocol: batch `B`'s global update applies at
    /// the top of batch `B+1`'s step, after its broadcast.
    pub overlap: bool,
    /// Bounded-error overload mode: stratified sampling between the reorder
    /// buffer and the batcher, driven by the backpressure policy. `None`
    /// (the default) leaves the exact path bit-identical to a build without
    /// this field; `Some` trades a quantified quality delta for bounded
    /// latency under sustained overload — a *different* model by design.
    pub overload: Option<OverloadOptions>,
}

impl PipelineOptions {
    /// The synchronous paper configuration (everything off).
    pub fn sync() -> Self {
        PipelineOptions::default()
    }

    /// The fully overlapped pipeline (every optimization on). Overload mode
    /// stays off: it is a model change, not an optimization.
    pub fn all() -> Self {
        PipelineOptions {
            prefetch: true,
            chunking: true,
            overlap: true,
            overload: None,
        }
    }

    /// The same options with bounded-error overload mode enabled.
    pub fn with_overload(mut self, overload: OverloadOptions) -> Self {
        self.overload = Some(overload);
        self
    }
}

/// Configuration of the bounded-error overload subsystem. All fields are
/// integers so the options stay `Copy + Eq` and replay-stable; every knob
/// feeds the deterministic control loop, never a wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadOptions {
    /// splitmix64 seed for the stratified sampler's keep decisions. Replays
    /// with the same seed keep exactly the same records.
    pub seed: u64,
    /// Number of locality strata (≥ 1).
    pub strata: u32,
    /// Records the executor can absorb per batch window while staying
    /// real-time — the service model's capacity at the configured window.
    pub capacity_per_batch: u32,
    /// Floor on any stratum's keep-rate, ppm; the stream is never shed to
    /// nothing.
    pub min_rate_ppm: u32,
    /// Close the loop with [`AdaptiveBatchSizer`]: retune the window from
    /// the *virtual* (service-model) batch time after every batch.
    pub adapt_window: bool,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            seed: 0xD157_57EA,
            strata: 8,
            capacity_per_batch: 10_000,
            min_rate_ppm: 10_000,
            adapt_window: true,
        }
    }
}

/// Overload-mode accounting for a completed run, from the sampler's counts
/// and the backpressure policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadStats {
    /// Records offered to the sampler (post-initialization).
    pub seen: u64,
    /// Records kept and batched.
    pub kept: u64,
    /// Records shed.
    pub shed: u64,
    /// Worst-case 95% Horvitz–Thompson error bound of the kept sample.
    pub error_bound: f64,
    /// Keep-rate in force when the stream ended, ppm.
    pub final_rate_ppm: u32,
    /// Modeled backlog at stream end, records.
    pub final_backlog: u64,
    /// Peak virtual latency over the run, seconds.
    pub max_virtual_latency_secs: f64,
    /// Batch window in force when the stream ended, seconds.
    pub final_batch_secs: f64,
}

/// Everything a per-batch observer gets to see: the batch outcome plus the
/// post-update model (e.g. for offline clustering and quality evaluation at
/// batch ends, as the paper's CMM methodology does).
#[derive(Debug)]
pub struct BatchReport<'m, M> {
    /// Index of the completed batch.
    pub batch_index: usize,
    /// Virtual end of the batch window.
    pub window_end: Timestamp,
    /// The model after the batch's global update (`Q_{t+1}`).
    pub model: &'m M,
    /// [`JobSession::step`](crate::JobSession::step)'s statistics for the
    /// batch.
    pub outcome: &'m BatchOutcome,
}

/// Result of a completed streaming job.
#[derive(Debug, Clone)]
pub struct RunResult<M> {
    /// The final micro-cluster model.
    pub model: M,
    /// Aggregated throughput/straggler metrics over all batches.
    pub meter: ThroughputMeter,
    /// Overload accounting — `Some` exactly when
    /// [`PipelineOptions::overload`] was set.
    pub overload: Option<OverloadStats>,
    /// One entry per resize boundary crossed, in batch order (empty without
    /// a [`DistStreamJob::resize`] schedule).
    pub resizes: Vec<ResizeOutcome>,
}

/// Builder-style wiring of a full DistStream job.
///
/// A job owns the paper's end-to-end flow: take `init_records` records off
/// the stream and initialize the model with batch clustering, then process
/// the remainder in `config.batch_secs()`-wide mini-batches through one
/// [`JobSession`](crate::JobSession). Checkpointing
/// ([`DistStreamJob::checkpoint_every`]) and elastic resizing
/// ([`DistStreamJob::resize`]) are boundary steps of that batch loop, so
/// they combine with every [`PipelineOptions`] field and with each other;
/// [`DistStreamJob::start`] steps it over caller-made batches.
///
/// # Examples
///
/// ```
/// use diststream_core::reference::NaiveClustering;
/// use diststream_core::DistStreamJob;
/// use diststream_engine::{ExecutionMode, StreamingContext, VecSource};
/// use diststream_types::{ClusteringConfig, Point, Record, Timestamp};
///
/// let algo = NaiveClustering::new(1.0);
/// let ctx = StreamingContext::new(2, ExecutionMode::Simulated)?;
/// let records: Vec<Record> = (0..100)
///     .map(|i| Record::new(i, Point::from(vec![(i % 3) as f64 * 5.0]), Timestamp::from_secs(i as f64 * 0.1)))
///     .collect();
/// let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
///     .init_records(10)
///     .run(VecSource::new(records), |_report| {})?;
/// assert_eq!(result.meter.records(), 90);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct DistStreamJob<'a, A: StreamClustering> {
    pub(crate) algo: &'a A,
    pub(crate) ctx: &'a StreamingContext,
    config: ClusteringConfig,
    init_records: usize,
    pub(crate) ordering: UpdateOrdering,
    pub(crate) premerge: bool,
    pub(crate) pipeline: PipelineOptions,
    pub(crate) serving: Option<ServingHandle>,
    pub(crate) checkpoint_every: Option<usize>,
    // Shared state like `serving`: a session persists through it while the
    // caller may still inspect it, hence the lock behind `&self`.
    pub(crate) store: Mutex<Box<dyn CheckpointStore>>,
    pub(crate) schedule: Option<ResizeSchedule>,
}

impl<'a, A: StreamClustering> DistStreamJob<'a, A> {
    /// Creates a job with the paper defaults: order-aware updates, pre-merge
    /// enabled, 100 initialization records.
    pub fn new(algo: &'a A, ctx: &'a StreamingContext, config: ClusteringConfig) -> Self {
        DistStreamJob {
            algo,
            ctx,
            config,
            init_records: 100,
            ordering: UpdateOrdering::OrderAware,
            premerge: true,
            pipeline: PipelineOptions::sync(),
            serving: None,
            checkpoint_every: None,
            store: Mutex::new(Box::<MemoryCheckpointStore>::default()),
            schedule: None,
        }
    }

    /// Number of leading records consumed for model initialization.
    pub fn init_records(&mut self, count: usize) -> &mut Self {
        self.init_records = count;
        self
    }

    /// Selects order-aware or unordered-baseline execution.
    pub fn ordering(&mut self, ordering: UpdateOrdering) -> &mut Self {
        self.ordering = ordering;
        self
    }

    /// Enables or disables the pre-merge optimization.
    pub fn premerge(&mut self, premerge: bool) -> &mut Self {
        self.premerge = premerge;
        self
    }

    /// Selects the overlapped-pipeline feature set (default:
    /// [`PipelineOptions::sync`]).
    pub fn pipeline(&mut self, pipeline: PipelineOptions) -> &mut Self {
        self.pipeline = pipeline;
        self
    }

    /// Attaches a serving slot: every *applied* global update publishes an
    /// epoch-tagged [`ServingSnapshot`](crate::ServingSnapshot) of the model
    /// under the applied batch's index, for concurrent predict readers — so
    /// the asynchronous one-batch lag shows in the epoch numbering, and the
    /// epoch-`N` bytes are the same under both protocols. Lives outside
    /// [`PipelineOptions`] (which stays `Copy`) because the handle is
    /// shared state, not a flag.
    pub fn serving(&mut self, handle: ServingHandle) -> &mut Self {
        self.serving = Some(handle);
        self
    }

    /// Replaces the stable storage that [`DistStreamJob::checkpoint_every`]
    /// and [`DistStreamJob::resize`] persist checkpoints to (default: a
    /// [`MemoryCheckpointStore`] retaining the newest one).
    pub fn checkpoint_store(&mut self, store: Box<dyn CheckpointStore>) -> &mut Self {
        self.store = Mutex::new(store);
        self
    }

    /// The checkpoint store, locked for the guard's lifetime (inspection, or
    /// test surgery such as [`CheckpointStore::inject_corruption`]). Drop
    /// the guard before stepping a session of this job.
    pub fn store(&self) -> impl std::ops::DerefMut<Target = Box<dyn CheckpointStore>> + '_ {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Turns on write-ahead logging and a model checkpoint every `batches`
    /// batches (plus one of the initial model) — what
    /// [`JobSession::recover`](crate::JobSession::recover) rebuilds from.
    /// Zero is rejected by [`DistStreamJob::start`].
    pub fn checkpoint_every(&mut self, batches: usize) -> &mut Self {
        self.checkpoint_every = Some(batches);
        self
    }

    /// Follows `schedule`: the context is resized to its initial degree at
    /// start, and each step takes effect — checkpoint-verified, rolled back
    /// if the first batch at the new degree fails — at the boundary before
    /// its batch (DESIGN.md §13).
    pub fn resize(&mut self, schedule: ResizeSchedule) -> &mut Self {
        self.schedule = Some(schedule);
        self
    }

    /// Drains the initialization records off `source`, checks them, and
    /// builds the initial model inside the journal's one `init` span — the
    /// serial set-up before the first batch. Every run path starts here, so
    /// initialization is never prefetched, sampled or shed, and no
    /// algorithm's `init` sees a record of another dimension or a NaN / ±∞
    /// coordinate.
    fn init_model<S: RecordSource>(&self, source: &mut S) -> Result<A::Model> {
        let init = take_records(source, self.init_records.max(1));
        check_init_records(&init)?;
        let _init_span = telemetry::span!(telemetry::names::SPAN_INIT);
        self.algo.init(&init)
    }

    /// The one per-batch drive loop — step, report, journal drain (boundary
    /// order: DESIGN.md §11.1a) — between `start` and `finish`. Callers
    /// differ only in `next_batch`, the one plug-in point: each pull sees
    /// the previous batch's outcome (`None` at the first), so a controller
    /// inside the feed decides the next batch from it, and the previous
    /// batch's spent records, for the feed to free where they were
    /// allocated.
    fn drive<F>(
        &self,
        model: A::Model,
        mut next_batch: impl FnMut(Option<&BatchOutcome>, SpentBatch) -> Option<MiniBatch>,
        on_batch: &mut F,
    ) -> Result<RunResult<A::Model>>
    where
        F: FnMut(BatchReport<'_, A::Model>),
    {
        let mut session = self.start(model)?;
        let mut last = None;
        let mut spent = SpentBatch::new();
        while let Some(batch) = next_batch(last.as_ref(), std::mem::take(&mut spent)) {
            let batch_index = batch.index;
            let window_end = batch.window_end;
            let outcome = session.step(batch)?;
            spent = session.scratch.take_spent();
            on_batch(BatchReport {
                batch_index,
                window_end,
                model: session.model(),
                outcome: &outcome,
            });
            // Batch barrier: the steps' helper threads have exited (their
            // span buffers auto-flushed) and the tasks this thread ran
            // itself wrote to its own buffer, so the journal drain here
            // sees the complete batch.
            if telemetry::enabled() {
                telemetry::barrier_drain();
            }
            last = Some(outcome);
        }
        // The last pull saw the last batch's outcome; drain what the feed
        // wrote for it.
        if telemetry::enabled() {
            telemetry::barrier_drain();
        }
        session.finish()
    }

    /// Runs the job to stream exhaustion, invoking `on_batch` after every
    /// global update.
    ///
    /// With [`PipelineOptions::overlap`] set, reports lag one global update
    /// behind (the asynchronous protocol applies batch `B`'s update while
    /// batch `B+1`'s parallel steps run); the final pending update is
    /// flushed — and its driver time metered — before this returns.
    ///
    /// In overload mode ([`PipelineOptions::overload`]) a stratified
    /// sampler sits between the source and the batcher, and the
    /// backpressure policy retunes it at every pull. Prefetch is ignored
    /// there, as in [`DistStreamJob::run_adaptive`]: the next batch's
    /// keep-rates (and, with `adapt_window`, its window width) are only
    /// known after the current batch finishes, which a prefetch worker
    /// staging ahead of the loop cannot honor. Initialization records are
    /// drained before the sampler attaches: model initialization is never
    /// shed.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::EmptyStream`] if the source yields fewer
    /// records than `init_records` requires (at least one), and propagates
    /// engine failures.
    pub fn run<S, F>(&self, mut source: S, mut on_batch: F) -> Result<RunResult<A::Model>>
    where
        S: RecordSource + Send,
        F: FnMut(BatchReport<'_, A::Model>),
    {
        if let Some(opts) = self.pipeline.overload {
            let model = self.init_model(&mut source)?;
            let mut overload = OverloadLoop::new(&mut source, opts, &self.config);
            let mut result = self.drive(
                model,
                |last, spent| overload.next_batch(last, spent),
                &mut on_batch,
            )?;
            result.overload = Some(overload.stats());
            return Ok(result);
        }
        if !self.pipeline.prefetch {
            return self.run_adaptive(source, |_| None, on_batch);
        }
        let model = self.init_model(&mut source)?;
        // Initialization records were already drained synchronously above,
        // so the worker stages exactly the post-init batches.
        prefetch_batches(source, self.config.batch_secs(), |batches| {
            let feed = |_: Option<&BatchOutcome>, spent: SpentBatch| {
                // The worker allocated these records; it frees them.
                if !spent.is_empty() {
                    batches.retire(spent);
                }
                batches.next()
            };
            self.drive(model, feed, &mut on_batch)
        })
    }

    /// Convenience: runs the job ignoring per-batch reports.
    ///
    /// # Errors
    ///
    /// Same as [`DistStreamJob::run`].
    pub fn run_to_end<S: RecordSource + Send>(&self, source: S) -> Result<RunResult<A::Model>> {
        self.run(source, |_| {})
    }

    /// Runs the job with an after-batch controller (§VII-D3 future work:
    /// adaptive batch sizing): at each pull after the first, the batcher
    /// feed hands `controller` the previous batch's outcome, and a width it
    /// returns is the window of the batch that pull cuts — e.g. an
    /// [`AdaptiveBatchSizer`] observing the achieved throughput, which
    /// keeps the width within the §IV-D quality bound. The first window is
    /// `config.batch_secs()`.
    ///
    /// [`PipelineOptions::prefetch`] is ignored here: retuning must feed
    /// the next window width back into the batcher *between* pulls, which
    /// a prefetch worker staging ahead of the feedback loop cannot honor.
    /// [`PipelineOptions::overload`] is ignored too (it brings its own
    /// sizer); the other options apply as in [`DistStreamJob::run`].
    ///
    /// # Errors
    ///
    /// Same as [`DistStreamJob::run`].
    pub fn run_adaptive<S, C, F>(
        &self,
        mut source: S,
        mut controller: C,
        mut on_batch: F,
    ) -> Result<RunResult<A::Model>>
    where
        S: RecordSource,
        C: FnMut(&BatchOutcome) -> Option<f64>,
        F: FnMut(BatchReport<'_, A::Model>),
    {
        let model = self.init_model(&mut source)?;
        let mut batcher = MiniBatcher::new(&mut source, self.config.batch_secs());
        let feed = |last: Option<&BatchOutcome>, spent: SpentBatch| {
            // This thread allocated the spent batch, so it drops it here.
            drop(spent);
            if let Some(secs) = last.and_then(&mut controller) {
                batcher.set_batch_secs(secs);
            }
            batcher.next()
        };
        self.drive(model, feed, &mut on_batch)
    }
}

/// Overload mode's batch feed: a [`MiniBatcher`] over the
/// [`StratifiedSampler`], and the backpressure loop that retunes the
/// sampler between pulls. Each pull first runs the control step for the
/// batch just finished, then cuts the next batch, so every decision reads
/// the sampler's counts as of exactly the pulls before it.
struct OverloadLoop<'s, S> {
    batcher: MiniBatcher<StratifiedSampler<&'s mut S>>,
    policy: LoadShedPolicy,
    /// Co-adapts the window from the policy's virtual batch time
    /// (`adapt_window`).
    sizer: Option<AdaptiveBatchSizer>,
    min_rate_ppm: u32,
    /// Cumulative `(seen, kept)` per stratum at the previous control step.
    prev_counts: Vec<(u64, u64)>,
    max_virtual_latency: f64,
    /// Rate, error bound, backlog and virtual latency, registered once
    /// (the reorder buffer's pattern).
    gauges: [Arc<telemetry::Gauge>; 4],
}

impl<'s, S: RecordSource> OverloadLoop<'s, S> {
    fn new(source: &'s mut S, opts: OverloadOptions, config: &ClusteringConfig) -> Self {
        let strata = opts.strata.max(1) as usize;
        let window = config.batch_secs();
        let sampler = StratifiedSampler::new(source, opts.seed, strata);
        OverloadLoop {
            batcher: MiniBatcher::new(sampler, window),
            policy: LoadShedPolicy::new(
                opts.capacity_per_batch.max(1) as u64,
                window,
                opts.min_rate_ppm,
            ),
            sizer: opts
                .adapt_window
                .then(|| AdaptiveBatchSizer::new(config, window)),
            min_rate_ppm: opts.min_rate_ppm,
            prev_counts: vec![(0, 0); strata],
            max_virtual_latency: 0.0,
            gauges: [
                telemetry::names::METRIC_SAMPLER_RATE_PPM,
                telemetry::names::METRIC_SAMPLER_ERROR_BOUND,
                telemetry::names::METRIC_BACKPRESSURE_BACKLOG_RECORDS,
                telemetry::names::METRIC_BACKPRESSURE_VIRTUAL_LATENCY_SECS,
            ]
            .map(telemetry::gauge),
        }
    }

    /// The [`DistStreamJob::drive`] feed: the control step for `last`, then
    /// the next batch. This thread allocated the spent batch, so it drops
    /// it here.
    fn next_batch(&mut self, last: Option<&BatchOutcome>, spent: SpentBatch) -> Option<MiniBatch> {
        drop(spent);
        if let Some(outcome) = last {
            self.control_step(outcome);
        }
        self.batcher.next()
    }

    /// On deterministic counts only: per-stratum arrivals over the last
    /// window drive the next window's rates.
    fn control_step(&mut self, outcome: &BatchOutcome) {
        let sampler = self.batcher.source_mut();
        let counts = sampler.stratum_counts();
        let mut kept = 0;
        let recent: Vec<u64> = (counts.iter().zip(&self.prev_counts))
            .map(|(c, p)| {
                kept += c.1 - p.1;
                c.0 - p.0
            })
            .collect();
        let arrived: u64 = recent.iter().sum();
        self.prev_counts.copy_from_slice(counts);
        let next_rate = self
            .policy
            .observe_batch(arrived, kept, sampler.reorder_backlog());
        sampler.rebalance(next_rate, &recent, self.min_rate_ppm);
        let bound = sampler.error_bound();
        let virtual_latency = self.policy.virtual_latency_secs();
        self.max_virtual_latency = self.max_virtual_latency.max(virtual_latency);

        if telemetry::enabled() {
            let backlog = self.policy.backlog_records() as f64;
            let values = [next_rate as f64, bound, backlog, virtual_latency];
            for (gauge, value) in self.gauges.iter().zip(values) {
                gauge.set(value);
            }
            telemetry::emit_point(
                telemetry::names::POINT_OVERLOAD_SUMMARY,
                Some(outcome.metrics.batch_index as u64),
                &[
                    ("seen", arrived as f64),
                    ("kept", kept as f64),
                    ("rate_ppm", next_rate as f64),
                    ("error_bound", bound),
                    ("backlog", backlog),
                    ("virtual_latency_secs", virtual_latency),
                ],
            );
        }

        // Co-adaptation on the *virtual* batch time — the service model's
        // cost for what was kept — never measured wall time, which would
        // break bit-identical replay.
        if let Some(sizer) = self.sizer.as_mut() {
            let virtual_secs = self
                .policy
                .virtual_batch_secs(outcome.metrics.records as u64);
            let window = sizer.observe(outcome.metrics.records, virtual_secs);
            self.policy.set_window(window);
            self.batcher.set_batch_secs(window);
        }
    }

    fn stats(&mut self) -> OverloadStats {
        let sampler = self.batcher.source_mut();
        let (seen, kept) = sampler
            .stratum_counts()
            .iter()
            .fold((0, 0), |(s, k), &(seen, kept)| (s + seen, k + kept));
        OverloadStats {
            seen,
            kept,
            shed: seen - kept,
            error_bound: sampler.error_bound(),
            final_rate_ppm: self.policy.rate_ppm(),
            final_backlog: self.policy.backlog_records(),
            max_virtual_latency_secs: self.max_virtual_latency,
            final_batch_secs: self.batcher.batch_secs(),
        }
    }
}

/// The initialization records' contract: at least one record, every record
/// of the first one's dimension, every coordinate finite. The first
/// offending record, in stream order, names the error.
fn check_init_records(records: &[Record]) -> Result<()> {
    let expected = records
        .first()
        .ok_or(DistStreamError::EmptyStream)?
        .point
        .dims();
    for record in records {
        let got = record.point.dims();
        if got != expected {
            return Err(DistStreamError::DimensionMismatch { expected, got });
        }
        if !record.point.is_finite() {
            return Err(DistStreamError::NonFiniteRecord { id: record.id });
        }
    }
    Ok(())
}

/// Consumes `count` records from a source into a vector (initialization
/// helper, exposed for harnesses that split a stream manually).
pub fn take_records<S: RecordSource>(source: &mut S, count: usize) -> Vec<Record> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        match source.next_record() {
            Some(r) => out.push(r),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveClustering;
    use diststream_engine::{ExecutionMode, VecSource};
    use diststream_types::Point;

    fn recs(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(
                    i,
                    Point::from(vec![(i % 4) as f64 * 6.0]),
                    Timestamp::from_secs(i as f64 * 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn job_processes_all_post_init_records() {
        let algo = NaiveClustering::new(1.5);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut reported = 0;
        let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(8)
            .run(VecSource::new(recs(100)), |report| {
                reported += 1;
                assert!(!report.model.is_empty());
            })
            .unwrap();
        assert_eq!(result.meter.records(), 92);
        assert_eq!(result.meter.batches(), reported);
        assert!(reported >= 4); // 46s of stream at 10s windows.
    }

    #[test]
    fn empty_source_errors() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let err = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .run_to_end(VecSource::new(Vec::new()))
            .unwrap_err();
        assert_eq!(err, DistStreamError::EmptyStream);
    }

    #[test]
    fn source_shorter_than_init_still_initializes() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(1000)
            .run_to_end(VecSource::new(recs(10)))
            .unwrap();
        // All records consumed by init; no batches.
        assert_eq!(result.meter.batches(), 0);
        assert!(!result.model.is_empty());
    }

    #[test]
    fn take_records_stops_at_exhaustion() {
        let mut src = VecSource::new(recs(3));
        assert_eq!(take_records(&mut src, 10).len(), 3);
        assert!(take_records(&mut src, 10).is_empty());
    }

    #[test]
    fn adaptive_run_processes_everything_within_bounds() {
        let algo = NaiveClustering::new(1.5);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let config = ClusteringConfig::default();
        let mut sizer = crate::adaptive::AdaptiveBatchSizer::new(&config, 1.0);
        let max = sizer.max_secs();
        let mut windows = Vec::new();
        let result = DistStreamJob::new(&algo, &ctx, config)
            .init_records(8)
            .run_adaptive(
                VecSource::new(recs(300)),
                |outcome| {
                    let metrics = &outcome.metrics;
                    Some(sizer.observe(metrics.records, metrics.total_secs()))
                },
                |report| windows.push(report.window_end.secs()),
            )
            .unwrap();
        assert_eq!(result.meter.records(), 292);
        assert!(windows.len() >= 2);
        assert!(sizer.batch_secs() <= max + 1e-9);
        assert!(sizer.batch_secs() >= 1.0 - 1e-9);
    }

    /// The adaptive loop on the fully overlapped executor, byte for byte at
    /// p=1 and p=4. The sizer steers by measured batch time, so it is pinned
    /// (start = floor = the §IV-D bound): the controller still runs and
    /// re-anchors the window after every batch, on a fixed width.
    #[test]
    fn adaptive_overlapped_run_is_parallelism_invariant() {
        let run = |p: usize| {
            let algo = NaiveClustering::new(1.5);
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            let config = ClusteringConfig::default();
            let config = config.with_batch_secs(config.max_batch_secs()).unwrap();
            let mut sizer = crate::adaptive::AdaptiveBatchSizer::new(&config, config.batch_secs());
            let mut reports = 0;
            let result = DistStreamJob::new(&algo, &ctx, config)
                .init_records(8)
                .pipeline(PipelineOptions::all())
                .run_adaptive(
                    VecSource::new(recs(300)),
                    |outcome| {
                        let metrics = &outcome.metrics;
                        Some(sizer.observe(metrics.records, metrics.total_secs()))
                    },
                    |_| reports += 1,
                )
                .unwrap();
            assert_eq!(result.meter.records(), 292, "p={p}");
            assert!(reports >= 3, "p={p}: {reports} batches");
            diststream_engine::encode(&result.model)
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn job_results_independent_of_parallelism() {
        let algo = NaiveClustering::new(1.5);
        let run = |p: usize| {
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
                .init_records(8)
                .run_to_end(VecSource::new(recs(200)))
                .unwrap()
                .model
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(16), baseline);
    }

    fn run_with(p: usize, pipeline: PipelineOptions) -> RunResult<crate::reference::NaiveModel> {
        let algo = NaiveClustering::new(1.5);
        let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
        DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(8)
            .pipeline(pipeline)
            .run_to_end(VecSource::new(recs(300)))
            .unwrap()
    }

    /// Prefetch and chunk scheduling are pure optimizations: the
    /// synchronous model is bit-identical with them on or off.
    #[test]
    fn non_overlap_options_do_not_change_sync_model() {
        let plain = run_with(4, PipelineOptions::sync());
        let tuned = run_with(
            4,
            PipelineOptions {
                prefetch: true,
                chunking: true,
                overlap: false,
                overload: None,
            },
        );
        assert_eq!(tuned.model, plain.model);
        assert_eq!(tuned.meter.records(), plain.meter.records());
        assert_eq!(tuned.meter.batches(), plain.meter.batches());
    }

    /// The tentpole gate at job level: the fully overlapped pipeline is
    /// bit-identical at every parallelism degree.
    #[test]
    fn full_pipeline_is_parallelism_invariant() {
        let base = run_with(1, PipelineOptions::all());
        for p in [4, 16] {
            let got = run_with(p, PipelineOptions::all());
            assert_eq!(got.model, base.model, "p={p}");
            assert_eq!(got.meter.records(), base.meter.records());
        }
        // All post-init records processed despite the one-batch lag.
        assert_eq!(base.meter.records(), 292);
    }

    /// Overlapped runs flush the last pending global update, and its
    /// driver time is metered (secs, not batches).
    #[test]
    fn overlapped_flush_time_is_metered() {
        let overlapped = run_with(2, PipelineOptions::all());
        assert!(overlapped.meter.batches() >= 2);
        assert!(!overlapped.model.is_empty());
        assert!(overlapped.meter.secs() > 0.0);
        assert!(overlapped.overload.is_none(), "overload off by default");
    }

    fn overload_opts(seed: u64, capacity: u32) -> OverloadOptions {
        OverloadOptions {
            seed,
            strata: 4,
            capacity_per_batch: capacity,
            min_rate_ppm: 10_000,
            adapt_window: true,
        }
    }

    /// The overload loop sheds under sustained overload, accounts for every
    /// record, and is bit-identical across parallelism degrees and reruns.
    #[test]
    fn overload_mode_sheds_deterministically_and_reconciles() {
        let run = |p: usize| {
            let algo = NaiveClustering::new(1.5);
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
                .init_records(8)
                .pipeline(PipelineOptions::sync().with_overload(overload_opts(11, 5)))
                .run_to_end(VecSource::new(recs(600)))
                .unwrap()
        };
        let base = run(1);
        let stats = base.overload.expect("overload stats present");
        assert_eq!(stats.seen, 592, "every post-init record passes the sampler");
        assert_eq!(stats.kept + stats.shed, stats.seen);
        assert!(stats.shed > 0, "a 5-records/batch capacity must shed");
        assert!(stats.kept > 0, "the min-rate floor keeps the stream alive");
        assert_eq!(
            base.meter.records(),
            stats.kept as usize,
            "exactly the kept records reach the executor"
        );
        assert!(stats.error_bound > 0.0, "shedding implies a nonzero bound");
        for p in [4, 1] {
            let again = run(p);
            assert_eq!(again.model, base.model, "p={p} model bit-identical");
            assert_eq!(again.overload.unwrap(), stats, "p={p} stats identical");
        }
    }

    /// Overload mode drives the overlapped executor too.
    #[test]
    fn overload_mode_works_overlapped() {
        let algo = NaiveClustering::new(1.5);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(8)
            .pipeline(PipelineOptions::all().with_overload(overload_opts(3, 5)))
            .run_to_end(VecSource::new(recs(600)))
            .unwrap();
        let stats = result.overload.unwrap();
        assert_eq!(stats.kept + stats.shed, stats.seen);
        assert_eq!(result.meter.records(), stats.kept as usize);
        assert!(stats.kept > 0 && stats.shed > 0);
    }

    /// Underload never sheds: with capacity above the arrival rate the
    /// approximate path degenerates to the exact one, record for record.
    #[test]
    fn overload_mode_with_headroom_keeps_everything() {
        let algo = NaiveClustering::new(1.5);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let exact = run_with(2, PipelineOptions::sync());
        // Window adaptation off: with fixed windows and zero shedding the
        // batch divisions — and hence the model — match the exact run.
        let opts = OverloadOptions {
            adapt_window: false,
            ..overload_opts(5, 100_000)
        };
        let sampled = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(8)
            .pipeline(PipelineOptions::sync().with_overload(opts))
            .run_to_end(VecSource::new(recs(300)))
            .unwrap();
        let stats = sampled.overload.unwrap();
        assert_eq!(stats.shed, 0, "no overload, no shedding");
        assert_eq!(stats.error_bound, 0.0);
        assert_eq!(sampled.meter.records(), exact.meter.records());
        assert_eq!(sampled.model, exact.model, "keep-all path matches exact");
    }
}
