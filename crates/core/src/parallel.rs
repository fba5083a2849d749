//! The mini-batch executor: one batch-by-batch feedback loop iteration =
//! broadcast → assign → local update → global update.
//!
//! The synchronous protocol (the paper's §V) applies batch `B`'s global
//! update at the bottom of the call that ran `B`'s parallel steps. The
//! asynchronous protocol (§VII-D2 future work, [`DistStreamExecutor::overlap`])
//! changes only *when* that update applies: it is queued, and applied at the
//! top of the next call — after the stale model was broadcast — so the
//! driver-side work hides behind the next batch's parallel steps and the
//! batch critical path becomes `max(parallel steps, previous global update)`
//! instead of their sum, at the price of one extra batch of model staleness.
//! The order-aware mechanism is the same either way: records fold in arrival
//! order and micro-clusters apply in creation order.

use diststream_engine::{
    BatchMetrics, Broadcast, LatencyProbe, MiniBatch, RecordLatency, StreamingContext,
};
use diststream_telemetry as telemetry;
use diststream_types::{Result, Timestamp};

use crate::api::{Assignment, StreamClustering, UpdateOrdering};
use crate::assignment::assign_records_distributed;
use crate::distribution::{strategy_for, StrategyKind};
use crate::global::{global_update, GlobalOutcome};
use crate::local::{local_update_distributed, LocalOutcome, LocalScratch, SpentBatch};
use crate::serving::{publish_snapshot, ServingHandle};

/// Base seed of the unordered baseline's shuffles; each batch mixes its
/// index in, so replays draw the same permutations.
const UNORDERED_BASE_SEED: u64 = 0x0B5E55ED;

/// Per-batch statistics reported by [`DistStreamExecutor::process_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Timing and data-movement metrics for the batch.
    pub metrics: BatchMetrics,
    /// Records assigned to existing micro-clusters.
    pub assigned_existing: usize,
    /// Records labelled outliers by the assignment step.
    pub outlier_records: usize,
    /// Outlier micro-clusters produced by the local step whose global update
    /// applied during this call. Like `metrics.global_secs`, under the
    /// asynchronous protocol this describes batch `B−1`'s update (zero on
    /// the first batch; the last batch's counts surface from
    /// [`DistStreamExecutor::flush`]).
    pub created_micro_clusters: usize,
    /// Those outlier micro-clusters remaining after pre-merge.
    pub created_after_premerge: usize,
    /// Event-time → model-integration latency digest for the records whose
    /// global update applied during this call (`None` when no records were
    /// integrated — e.g. an async batch whose update is still pending).
    pub latency: Option<RecordLatency>,
}

/// A batch's local outcome waiting for its global update. Crate-private:
/// only the one driver may copy it — beside a checkpoint or a resize
/// snapshot — and put it back ([`DistStreamExecutor::restore_pending`]).
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

/// Executes the order-aware (or unordered-baseline) mini-batch update model
/// on a [`StreamingContext`].
///
/// One executor drives one model through the stream:
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
/// With [`DistStreamExecutor::overlap`] set, call
/// [`DistStreamExecutor::flush`] once at stream end to apply the last
/// pending global update.
///
/// # Examples
///
/// ```
/// use diststream_core::reference::NaiveClustering;
/// use diststream_core::{DistStreamExecutor, StreamClustering, UpdateOrdering};
/// use diststream_engine::{ExecutionMode, MiniBatch, StreamingContext};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = NaiveClustering::new(1.0);
/// let ctx = StreamingContext::new(4, ExecutionMode::Simulated)?;
/// let mut exec = DistStreamExecutor::new(&algo, &ctx);
/// let mut model = algo.init(&[Record::new(0, Point::from(vec![0.0]), Timestamp::ZERO)])?;
/// let batch = MiniBatch {
///     index: 0,
///     window_start: Timestamp::ZERO,
///     window_end: Timestamp::from_secs(10.0),
///     records: vec![Record::new(1, Point::from(vec![0.3]), Timestamp::from_secs(1.0))],
/// };
/// let outcome = exec.process_batch(&mut model, batch)?;
/// assert_eq!(outcome.assigned_existing, 1);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
pub struct DistStreamExecutor<'a, A: StreamClustering> {
    algo: &'a A,
    ctx: &'a StreamingContext,
    ordering: UpdateOrdering,
    premerge: bool,
    combine: bool,
    chunking: bool,
    overlap: bool,
    strategy: StrategyKind,
    serving: Option<ServingHandle>,
    // The one global update queued between its batch's local step and its
    // application: across calls under `overlap`, within a call otherwise.
    pending: Option<PendingGlobal<A::Sketch>>,
    // Per-batch scratch reused across process_batch calls.
    scratch: LocalScratch,
}

impl<A: StreamClustering> std::fmt::Debug for DistStreamExecutor<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistStreamExecutor")
            .field("ordering", &self.ordering)
            .field("premerge", &self.premerge)
            .field("overlap", &self.overlap)
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

impl<'a, A: StreamClustering> DistStreamExecutor<'a, A> {
    /// Creates an order-aware, synchronous executor with pre-merge enabled
    /// (the paper's configuration).
    pub fn new(algo: &'a A, ctx: &'a StreamingContext) -> Self {
        DistStreamExecutor {
            algo,
            ctx,
            ordering: UpdateOrdering::OrderAware,
            premerge: true,
            combine: false,
            chunking: false,
            overlap: false,
            strategy: StrategyKind::RoundRobin,
            serving: None,
            pending: None,
            scratch: LocalScratch::default(),
        }
    }

    /// Attaches a serving slot: every *applied* global update publishes an
    /// epoch-tagged [`ServingSnapshot`](crate::ServingSnapshot) under the
    /// applied batch's index, so the asynchronous one-batch lag is visible
    /// in the epoch numbering and the epoch-`N` snapshot bytes are the same
    /// under both protocols.
    pub fn serving(&mut self, handle: ServingHandle) -> &mut Self {
        self.serving = Some(handle);
        self
    }

    /// Selects the [`DistributionStrategy`](crate::DistributionStrategy)
    /// owning record partitioning, key placement, and shuffle routing.
    /// Under [`UpdateOrdering::OrderAware`] the model is bit-identical for
    /// every strategy; only task layout and shuffle accounting move.
    pub fn strategy(&mut self, strategy: StrategyKind) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables the map-side combine before the shuffle. The
    /// combined grouping equals the uncombined one exactly (see
    /// [`local_update_distributed`]), so this changes charged shuffle
    /// bytes, never the model.
    pub fn combine(&mut self, combine: bool) -> &mut Self {
        self.combine = combine;
        self
    }

    /// Enables or disables deterministic size-aware chunk scheduling for
    /// the assignment split (see [`assign_records_distributed`]). Changes
    /// the task layout, never the assignment pairs.
    pub fn chunking(&mut self, chunking: bool) -> &mut Self {
        self.chunking = chunking;
        self
    }

    /// Selects the asynchronous update protocol (default off; see the
    /// module docs). Set before the first batch.
    pub fn overlap(&mut self, overlap: bool) -> &mut Self {
        self.overlap = overlap;
        self
    }

    /// Selects order-aware or unordered-baseline execution.
    pub fn ordering(&mut self, ordering: UpdateOrdering) -> &mut Self {
        self.ordering = ordering;
        self
    }

    /// Enables or disables the pre-merge optimization (§V-C).
    pub fn premerge(&mut self, premerge: bool) -> &mut Self {
        self.premerge = premerge;
        self
    }

    /// A copy of the pending (queued, not yet applied) global update —
    /// `None` between the calls of a synchronous executor.
    pub(crate) fn pending(&self) -> Option<PendingGlobal<A::Sketch>> {
        self.pending.clone()
    }

    /// Puts a copied pending update back: a rollback to a boundary snapshot,
    /// or a replay starting from a checkpoint taken mid-overlap. Never
    /// applied early — flushing instead would let the next batch assign
    /// against a fresher model than the uninterrupted run saw.
    pub(crate) fn restore_pending(&mut self, pending: Option<PendingGlobal<A::Sketch>>) {
        self.pending = pending;
    }

    /// The records of the last batch [`process_batch`](Self::process_batch)
    /// completed, spent: the one driver takes them here to hand them back
    /// to the thread that allocated them.
    pub(crate) fn take_spent(&mut self) -> SpentBatch {
        self.scratch.take_spent()
    }

    /// Processes one mini-batch, advancing `model` by one global update:
    /// this batch's under the synchronous protocol (`Q_t` → `Q_{t+1}`), the
    /// previous batch's under [`DistStreamExecutor::overlap`].
    ///
    /// # Errors
    ///
    /// Propagates engine failures (task panics) as
    /// [`TaskFailed`](diststream_types::DistStreamError::TaskFailed) and the
    /// algorithm's [`StreamClustering::apply_global`] error.
    pub fn process_batch(
        &mut self,
        model: &mut A::Model,
        batch: MiniBatch,
    ) -> Result<BatchOutcome> {
        // Driver-side spans only: the journal's span multiset must not
        // depend on the parallelism degree (per-task attribution comes
        // from StepMetrics, which is execution-mode aware). The
        // global_update span carries the *applied* batch's index, so the
        // async lag is visible in the trace.
        let _batch_span = telemetry::span!(telemetry::names::SPAN_BATCH, batch = batch.index);
        // Scope any installed fault plan's (task, attempt) coordinates to
        // this batch before the parallel steps run.
        self.ctx.begin_batch(batch.index);
        let batch_seed =
            UNORDERED_BASE_SEED ^ (batch.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let records = batch.len();
        let window_end = batch.window_end;
        // Capture record event times before the assignment step consumes
        // the records; resolved when the batch's global update applies.
        let probe = LatencyProbe::capture(batch.index, &batch.records);

        // Broadcast the stale model Q_t once per feedback-loop iteration —
        // *before* any pending update applies: that is the asynchrony.
        let bcast = Broadcast::new(model.clone());
        let model_bytes = bcast.payload_bytes();

        // Driver side of the asynchronous protocol (conceptually concurrent
        // with the steps below): batch B−1's records integrate at *this*
        // batch's window end — the one-batch staleness made visible as
        // event-time latency.
        let mut applied = None;
        if self.overlap {
            applied = self.apply_pending(model, Some(window_end))?;
        }

        // Step 1: record-based parallel assignment.
        let strategy = strategy_for(self.strategy);
        let assignment = {
            let _span = telemetry::span!(telemetry::names::SPAN_ASSIGNMENT, batch = batch.index);
            assign_records_distributed(
                self.ctx,
                self.algo,
                &bcast,
                batch.records,
                self.chunking,
                strategy,
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
                self.ctx,
                self.algo,
                &bcast,
                assignment.pairs,
                self.ordering,
                batch.window_start,
                batch_seed,
                &mut self.scratch,
                self.combine,
                strategy,
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
        let mut collect_bytes = None;
        if !self.overlap {
            applied = self.apply_pending(model, Some(window_end))?;
            // Only the synchronous critical path waits for the collect; the
            // overlapped one hides it with the rest of the driver side.
            collect_bytes = applied.as_ref().map(|(global, _)| global.collect_bytes);
        }
        let overhead_secs = self
            .ctx
            .batch_overhead_secs(model_bytes, shuffle_bytes, collect_bytes);
        let (global, latency) = applied.unzip();

        let outcome = BatchOutcome {
            metrics: BatchMetrics {
                batch_index: batch.index,
                records,
                assignment: assignment.metrics,
                local: local_metrics,
                global_secs: global.as_ref().map_or(0.0, |g| g.global_secs),
                overhead_secs,
                broadcast_bytes: model_bytes * self.ctx.parallelism() as u64,
                shuffle_bytes,
                async_overlap: self.overlap,
                parallelism: self.ctx.parallelism(),
                assign_driver_secs: assignment.driver_secs,
                local_driver_secs,
            },
            assigned_existing,
            outlier_records: records - assigned_existing,
            created_micro_clusters: global.as_ref().map_or(0, |g| g.created_before_premerge),
            created_after_premerge: global.as_ref().map_or(0, |g| g.created_after_premerge),
            latency,
        };
        outcome.metrics.emit_telemetry();
        Ok(outcome)
    }

    /// Applies the last pending global update (call at stream end; a no-op
    /// for a synchronous executor). Returns the applied update's
    /// [`GlobalOutcome`] — driver seconds and the final batch's
    /// creation/premerge counts — and the latency digest of the records it
    /// integrated, or `None` if nothing was pending.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`StreamClustering::apply_global`] error.
    pub fn flush(
        &mut self,
        model: &mut A::Model,
    ) -> Result<Option<(GlobalOutcome, RecordLatency)>> {
        self.apply_pending(model, None)
    }

    /// The one place a global update is applied: installs the pending
    /// batch's update, resolves its records' latency against `integrates_at`
    /// (default: the batch's own window end — no later batch, no staleness
    /// penalty), and publishes the new model as that batch's serving epoch.
    fn apply_pending(
        &mut self,
        model: &mut A::Model,
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
            global_update(
                self.algo,
                model,
                pending.local,
                pending.window_end,
                self.ordering,
                self.premerge,
                pending.seed,
            )?
        };
        let latency = pending
            .probe
            .resolve(integrates_at.unwrap_or(pending.window_end));
        latency.emit_telemetry();
        if let Some(handle) = &self.serving {
            publish_snapshot(handle, self.algo, model, pending.batch_index);
        }
        Ok(Some((global, latency)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{NaiveClustering, NaiveModel};
    use diststream_engine::ExecutionMode;
    use diststream_types::{Point, Record};

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

    /// Runs `stream(300)` in two batches of 150 (plus the flush) through an
    /// executor at parallelism `p`, configured by `configure`.
    fn run_stream(
        p: usize,
        configure: impl Fn(&mut DistStreamExecutor<'_, NaiveClustering>),
    ) -> NaiveModel {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        configure(&mut exec);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        for (i, chunk) in stream(300).chunks(150).enumerate() {
            exec.process_batch(&mut model, batch(i, chunk.to_vec()))
                .unwrap();
        }
        exec.flush(&mut model).unwrap();
        model
    }

    #[test]
    fn batch_advances_model() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let outcome = exec
            .process_batch(
                &mut model,
                batch(0, vec![rec(1, 0.2, 1.0), rec(2, 9.0, 2.0)]),
            )
            .unwrap();
        assert_eq!(outcome.assigned_existing, 1);
        assert_eq!(outcome.outlier_records, 1);
        assert_eq!(model.len(), 2);
        assert_eq!(outcome.metrics.records, 2);
        assert!(outcome.metrics.total_secs() > 0.0);
        assert!(!outcome.metrics.async_overlap);
        assert!(
            exec.flush(&mut model).unwrap().is_none(),
            "a synchronous executor never leaves an update pending"
        );
    }

    #[test]
    fn model_identical_across_parallelism_degrees() {
        for overlap in [false, true] {
            let base = run_stream(1, |e| {
                e.overlap(overlap);
            });
            for p in [2, 4, 8, 32] {
                let got = run_stream(p, |e| {
                    e.overlap(overlap);
                });
                assert_eq!(got, base, "overlap={overlap}: model diverged at p={p}");
            }
        }
    }

    /// The determinism gate at executor level: combine + chunk scheduling
    /// leave the model bit-identical to the plain pipeline at every
    /// parallelism degree, in both orderings, under both protocols.
    #[test]
    fn combine_and_chunking_preserve_model_at_every_parallelism() {
        for overlap in [false, true] {
            for ordering in [UpdateOrdering::OrderAware, UpdateOrdering::Unordered] {
                let run = |p: usize, combine: bool, chunking: bool| {
                    run_stream(p, |e| {
                        e.overlap(overlap)
                            .ordering(ordering)
                            .combine(combine)
                            .chunking(chunking);
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

    /// The distribution-strategy determinism gate: every strategy leaves
    /// the order-aware model bit-identical to the default round-robin+hash
    /// topology at every parallelism degree — placement only moves task
    /// layout and shuffle accounting.
    #[test]
    fn model_identical_across_strategies() {
        let run = |p: usize, kind: StrategyKind, tuned: bool| {
            run_stream(p, |e| {
                e.strategy(kind).combine(tuned).chunking(tuned);
            })
        };
        let reference = run(1, StrategyKind::RoundRobin, false);
        for kind in StrategyKind::ALL {
            for p in [1, 2, 4, 8] {
                assert_eq!(run(p, kind, false), reference, "{kind} p={p}");
                assert_eq!(
                    run(p, kind, true),
                    reference,
                    "{kind} p={p} combine+chunking"
                );
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
            let mut exec = DistStreamExecutor::new(&algo, &ctx);
            let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
            exec.process_batch(&mut model, batch(0, records.clone()))
                .unwrap();
            model
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
            let mut exec = DistStreamExecutor::new(&algo, &ctx);
            exec.ordering(ordering);
            let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
            exec.process_batch(&mut model, batch(0, records.clone()))
                .unwrap();
            model
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
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        let outcome = exec.process_batch(&mut model, batch(0, records)).unwrap();
        assert_eq!(outcome.created_micro_clusters, 19);
        assert_eq!(outcome.created_after_premerge, 1);
    }

    #[test]
    fn empty_batch_is_noop_for_assignments() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let outcome = exec.process_batch(&mut model, batch(0, vec![])).unwrap();
        assert_eq!(outcome.assigned_existing, 0);
        assert_eq!(outcome.outlier_records, 0);
    }

    #[test]
    fn overlapped_update_applies_on_next_batch_and_flush() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        exec.overlap(true);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let before = model.clone();

        // Batch 0's outcome is queued, not applied.
        let out = exec
            .process_batch(&mut model, batch(0, vec![rec(1, 0.2, 1.0)]))
            .unwrap();
        assert_eq!(model, before, "async executor applied the update early");
        assert!(out.metrics.async_overlap);
        assert_eq!(out.metrics.global_secs, 0.0, "nothing to apply yet");
        assert!(out.latency.is_none());

        // Batch 1 applies batch 0's global update.
        exec.process_batch(&mut model, batch(1, vec![rec(2, 0.3, 2.0)]))
            .unwrap();
        assert_ne!(model, before);

        // Flush applies the final pending update.
        let snapshot = model.clone();
        assert!(exec.flush(&mut model).unwrap().is_some());
        assert_ne!(model, snapshot);
        assert!(
            exec.flush(&mut model).unwrap().is_none(),
            "second flush is a no-op"
        );
    }

    #[test]
    fn overlapped_metrics_report_applied_premerge_counts_one_batch_behind() {
        // Batch 0 drops three outliers far from the model, two of them close
        // enough together to premerge — so its applied global update must
        // report created=3, after-premerge=2. Those counts surface on batch
        // 1's outcome (the async one-batch lag), never batch 1's own.
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut exec = DistStreamExecutor::new(&algo, &ctx);
        exec.overlap(true);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();

        let out0 = exec
            .process_batch(
                &mut model,
                batch(
                    0,
                    vec![rec(1, 10.0, 1.0), rec(2, 10.4, 1.1), rec(3, 50.0, 1.2)],
                ),
            )
            .unwrap();
        assert_eq!(out0.created_micro_clusters, 0, "nothing applied yet");
        assert_eq!(out0.created_after_premerge, 0);

        let out1 = exec
            .process_batch(&mut model, batch(1, vec![rec(4, 0.1, 2.0)]))
            .unwrap();
        assert_eq!(out1.created_micro_clusters, 3, "batch 0's applied count");
        assert_eq!(
            out1.created_after_premerge, 2,
            "premerge collapsed two nearby outliers; the fields must differ"
        );

        // Batch 1 created nothing, and flush reports exactly that.
        let (final_outcome, _) = exec.flush(&mut model).unwrap().unwrap();
        assert_eq!(final_outcome.created_before_premerge, 0);
        assert_eq!(final_outcome.created_after_premerge, 0);
    }

    #[test]
    fn overlapped_model_matches_sync_after_flush_on_one_batch() {
        // With one batch, both protocols apply the same global update with
        // the same inputs (staleness only affects batches assigned against
        // a yet-older model).
        let one_batch = |overlap: bool| {
            let algo = NaiveClustering::new(1.0);
            let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
            let mut exec = DistStreamExecutor::new(&algo, &ctx);
            exec.overlap(overlap);
            let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
            exec.process_batch(&mut model, batch(0, stream(20)))
                .unwrap();
            exec.flush(&mut model).unwrap();
            model
        };
        assert_eq!(one_batch(true), one_batch(false));
    }
}
