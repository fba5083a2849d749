//! Elastic mid-stream scale-out: workers join or leave at batch boundaries.
//!
//! The executor is parallelism-invariant under both update protocols by
//! construction (the order-aware update sorts by arrival keys, so neither
//! task layout nor key placement can reach the model). Elasticity exploits
//! exactly that: a [`ResizeSchedule`] changes the parallelism degree between
//! batches, and [`ElasticDriver`] rebuilds the execution context at each
//! boundary — after a deterministic rebalance that checkpoints the model to
//! a [`CheckpointStore`], replays the checkpoint back, and verifies the
//! replayed model byte-for-byte before the first batch of the new epoch
//! runs. The model is therefore bit-identical across *any* resize schedule,
//! which the tests pin against fixed-parallelism runs.
//!
//! For the asynchronous protocol the in-flight pending global update is
//! moved across the boundary as an opaque [`PipelineCarry`] rather than
//! flushed: flushing would let the next batch assign against a fresher model
//! than a fixed-parallelism run would have seen, breaking bit-identity. A
//! production deployment would persist the carry durably next to the model
//! checkpoint; here the carry lives in driver memory and the checkpoint
//! covers the authoritative model (see DESIGN.md §13).
//!
//! A resize is transactional at the granularity of its first (rebalancing)
//! batch: if that batch fails with retry exhaustion
//! ([`DistStreamError::TaskFailed`]), the driver rolls back to the
//! pre-resize assignment — model and carry restored from the boundary
//! snapshot, the vetoed schedule step removed — and reprocesses the batch at
//! the old parallelism. Either way (resize completed or rolled back) the
//! model matches the no-fault run, again by parallelism invariance.

use serde::de::DeserializeOwned;

use diststream_engine::{
    decode, encode, ExecutionMode, FaultPlan, MiniBatch, SimCostModel, StreamingContext,
};
use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::api::{StreamClustering, UpdateOrdering};
use crate::distribution::StrategyKind;
use crate::parallel::PipelineCarry;
use crate::pipeline::{executor_for, PipelineOptions};
use crate::recovery::Checkpoint;
use crate::store::CheckpointStore;

/// Size of the modeled key-slot universe used to size a rebalance plan.
///
/// Key movement is accounted at hash-slot granularity — the same universe a
/// consistent-hashing ring would shard — so the moved-key count is a pure
/// function of `(strategy, old_p, new_p)` and never depends on the model's
/// internals.
pub const REBALANCE_KEY_SLOTS: usize = 4096;

/// When each parallelism degree takes effect, keyed by batch index.
///
/// A schedule is the initial degree plus zero or more steps
/// `(first_batch, parallelism)` with strictly increasing batch indices;
/// batch `b` runs at the degree of the last step with `first_batch <= b`.
///
/// # Examples
///
/// ```
/// use diststream_core::ResizeSchedule;
///
/// let schedule = ResizeSchedule::with_steps(2, vec![(3, 4), (6, 3)])?;
/// assert_eq!(schedule.parallelism_for(0), 2);
/// assert_eq!(schedule.parallelism_for(3), 4);
/// assert_eq!(schedule.parallelism_for(9), 3);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeSchedule {
    initial: usize,
    /// `(first_batch, parallelism)` steps, strictly increasing by batch.
    steps: Vec<(usize, usize)>,
}

impl ResizeSchedule {
    /// A schedule that never resizes.
    pub fn fixed(parallelism: usize) -> Self {
        ResizeSchedule {
            initial: parallelism.max(1),
            steps: Vec::new(),
        }
    }

    /// A schedule starting at `initial` workers with resize `steps`
    /// `(first_batch, parallelism)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] when a degree is zero,
    /// a step fires at batch 0 (the initial degree owns batch 0), or the
    /// step batch indices are not strictly increasing.
    pub fn with_steps(initial: usize, steps: Vec<(usize, usize)>) -> Result<Self> {
        let invalid = |msg: String| Err(DistStreamError::InvalidConfig(msg));
        if initial == 0 {
            return invalid("initial parallelism degree must be at least 1".into());
        }
        let mut last_batch = 0usize;
        for (i, &(first_batch, parallelism)) in steps.iter().enumerate() {
            if parallelism == 0 {
                return invalid(format!("resize step {i} has zero parallelism"));
            }
            if first_batch == 0 {
                return invalid(format!(
                    "resize step {i} fires at batch 0, owned by the initial degree"
                ));
            }
            if i > 0 && first_batch <= last_batch {
                return invalid(format!(
                    "resize step {i} batch index {first_batch} is not after {last_batch}"
                ));
            }
            last_batch = first_batch;
        }
        Ok(ResizeSchedule { initial, steps })
    }

    /// The parallelism degree batch `batch_index` runs at.
    pub fn parallelism_for(&self, batch_index: usize) -> usize {
        self.steps
            .iter()
            .take_while(|(first, _)| *first <= batch_index)
            .last()
            .map_or(self.initial, |(_, p)| *p)
    }

    /// The initial parallelism degree.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The resize steps, `(first_batch, parallelism)`.
    pub fn steps(&self) -> &[(usize, usize)] {
        &self.steps
    }
}

/// What one rebalance at a batch boundary did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeOutcome {
    /// First batch of the (attempted) new epoch.
    pub batch_index: usize,
    /// Parallelism degree before the boundary.
    pub from: usize,
    /// Target parallelism degree.
    pub to: usize,
    /// Key slots (out of [`REBALANCE_KEY_SLOTS`]) whose placement moved.
    pub moved_keys: u64,
    /// Checkpoint bytes replayed from the store to verify the boundary.
    pub replayed_bytes: u64,
    /// Whether the rebalancing batch failed and the resize was rolled back
    /// to the pre-resize assignment.
    pub rolled_back: bool,
}

/// Summary of an elastic run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticReport {
    /// One entry per schedule boundary reached, in batch order.
    pub resizes: Vec<ResizeOutcome>,
    /// Mini-batches processed (a rolled-back batch counts once).
    pub batches: usize,
    /// Records folded into the model.
    pub records: u64,
}

/// Drives a stream of mini-batches through executors whose parallelism
/// degree follows a [`ResizeSchedule`], rebalancing deterministically at
/// every boundary. See the module docs for the protocol.
#[derive(Debug)]
pub struct ElasticDriver<'a, A: StreamClustering> {
    algo: &'a A,
    mode: ExecutionMode,
    cost: SimCostModel,
    schedule: ResizeSchedule,
    options: PipelineOptions,
    ordering: UpdateOrdering,
    premerge: bool,
    fault_plan: Option<FaultPlan>,
    max_task_failures: Option<usize>,
}

impl<'a, A> ElasticDriver<'a, A>
where
    A: StreamClustering,
    A::Model: DeserializeOwned + PartialEq,
{
    /// Creates an elastic driver with the paper defaults (order-aware,
    /// pre-merge on, synchronous pipeline, zero-cost network model).
    pub fn new(algo: &'a A, mode: ExecutionMode, schedule: ResizeSchedule) -> Self {
        ElasticDriver {
            algo,
            mode,
            cost: SimCostModel::zero(),
            schedule,
            options: PipelineOptions::sync(),
            ordering: UpdateOrdering::OrderAware,
            premerge: true,
            fault_plan: None,
            max_task_failures: None,
        }
    }

    /// Sets the simulated network cost model for every epoch's context.
    pub fn cost_model(&mut self, cost: SimCostModel) -> &mut Self {
        self.cost = cost;
        self
    }

    /// Selects the pipeline feature set (including the distribution
    /// strategy and the asynchronous protocol; `prefetch` is ignored —
    /// batches are handed to the driver already formed).
    pub fn options(&mut self, options: PipelineOptions) -> &mut Self {
        self.options = options;
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

    /// Installs a deterministic [`FaultPlan`] into every epoch's context.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the per-task retry budget for every epoch's context.
    pub fn max_task_failures(&mut self, max: usize) -> &mut Self {
        self.max_task_failures = Some(max);
        self
    }

    /// Runs `batches` through the schedule, rebalancing through `store` at
    /// every boundary, and returns the final model (pending async update
    /// flushed) plus the run's [`ElasticReport`].
    ///
    /// # Errors
    ///
    /// Propagates engine and storage failures. A
    /// [`DistStreamError::TaskFailed`] on a *rebalancing* batch is absorbed
    /// by the rollback protocol; the same error elsewhere propagates.
    pub fn run(
        &self,
        mut model: A::Model,
        batches: Vec<MiniBatch>,
        store: &mut dyn CheckpointStore,
    ) -> Result<(A::Model, ElasticReport)> {
        let mut report = ElasticReport::default();
        let mut carry = PipelineCarry::empty();
        // Working copy of the schedule: a rolled-back step is removed so the
        // run stays on the pre-resize assignment instead of retrying the
        // vetoed resize on every following batch.
        let mut schedule = self.schedule.clone();
        let mut queue: std::collections::VecDeque<MiniBatch> = batches.into();
        let mut current_p = queue
            .front()
            .map_or(schedule.initial, |b| schedule.parallelism_for(b.index));

        while let Some(batch) = queue.pop_front() {
            let target_p = schedule.parallelism_for(batch.index);
            if target_p != current_p {
                // Boundary snapshot: what a rollback restores.
                let pre_model = model.clone();
                let pre_carry = carry.clone();
                let mut outcome =
                    self.rebalance(&model, batch.index, current_p, target_p, store)?;
                report.records += batch.len() as u64;
                report.batches += 1;
                match self.process_batches(
                    &mut model,
                    &mut carry,
                    target_p,
                    std::iter::once(batch.clone()),
                ) {
                    Ok(()) => {
                        current_p = target_p;
                    }
                    Err(DistStreamError::TaskFailed { .. }) => {
                        model = pre_model;
                        carry = pre_carry;
                        outcome.rolled_back = true;
                        if telemetry::enabled() {
                            telemetry::counter(telemetry::names::METRIC_REBALANCE_ROLLBACKS_TOTAL)
                                .inc();
                        }
                        // Abandon the vetoed step and reprocess the batch on
                        // the pre-resize assignment.
                        schedule.steps.retain(|(first, _)| *first > batch.index);
                        self.process_batches(
                            &mut model,
                            &mut carry,
                            current_p,
                            std::iter::once(batch),
                        )?;
                    }
                    Err(other) => return Err(other),
                }
                report.resizes.push(outcome);
            } else {
                // Contiguous same-degree run: one context, one executor.
                let mut run = vec![batch];
                while let Some(next) = queue.pop_front() {
                    if schedule.parallelism_for(next.index) == current_p {
                        run.push(next);
                    } else {
                        queue.push_front(next);
                        break;
                    }
                }
                report.batches += run.len();
                report.records += run.iter().map(|b| b.len() as u64).sum::<u64>();
                self.process_batches(&mut model, &mut carry, current_p, run.into_iter())?;
            }
        }

        // Stream end: apply the last pending async update, if any.
        if carry.is_pending() {
            let ctx = StreamingContext::with_cost_model(current_p, self.mode, self.cost)?;
            let mut exec =
                executor_for(self.algo, &ctx, self.ordering, self.premerge, &self.options);
            exec.attach(carry)?;
            exec.flush(&mut model)?;
        }
        Ok((model, report))
    }

    /// The deterministic rebalance at a boundary: checkpoint the model to
    /// the store under the new epoch's first batch index, replay (load,
    /// validate, decode) it back, verify the replayed model byte-for-byte,
    /// and size the key movement at slot granularity.
    fn rebalance(
        &self,
        model: &A::Model,
        batch_index: usize,
        from: usize,
        to: usize,
        store: &mut dyn CheckpointStore,
    ) -> Result<ResizeOutcome> {
        let _span = telemetry::span!(telemetry::names::SPAN_REBALANCE, batch = batch_index);
        let checkpoint = Checkpoint {
            batch_index,
            bytes: encode(model),
        };
        store.persist(&checkpoint)?;
        let restored = store.load(batch_index)?;
        restored.validate()?;
        let replayed: A::Model =
            decode(&restored.bytes).map_err(|e| DistStreamError::CorruptCheckpoint {
                batch_index,
                reason: e.to_string(),
            })?;
        if &replayed != model {
            return Err(DistStreamError::CorruptCheckpoint {
                batch_index,
                reason: "replayed rebalance checkpoint diverged from the live model".into(),
            });
        }
        let replayed_bytes = restored.len() as u64;
        let moved_keys = moved_key_slots(self.options.strategy, from, to);
        if telemetry::enabled() {
            telemetry::counter(telemetry::names::METRIC_REBALANCE_TOTAL).inc();
            telemetry::counter(telemetry::names::METRIC_REBALANCE_MOVED_KEYS_TOTAL).add(moved_keys);
            telemetry::counter(telemetry::names::METRIC_REBALANCE_REPLAYED_BYTES_TOTAL)
                .add(replayed_bytes);
        }
        Ok(ResizeOutcome {
            batch_index,
            from,
            to,
            moved_keys,
            replayed_bytes,
            rolled_back: false,
        })
    }

    /// Processes a run of batches on one freshly built context at degree
    /// `p`, attaching and re-detaching the carry around it (empty both ways
    /// under the synchronous protocol).
    fn process_batches(
        &self,
        model: &mut A::Model,
        carry: &mut PipelineCarry<A>,
        p: usize,
        batches: impl Iterator<Item = MiniBatch>,
    ) -> Result<()> {
        let mut ctx = StreamingContext::with_cost_model(p, self.mode, self.cost)?;
        if let Some(max) = self.max_task_failures {
            ctx.set_max_task_failures(max);
        }
        if let Some(plan) = &self.fault_plan {
            ctx.install_fault_plan(plan.clone());
        }
        let mut exec = executor_for(self.algo, &ctx, self.ordering, self.premerge, &self.options);
        exec.attach(std::mem::replace(carry, PipelineCarry::empty()))?;
        for batch in batches {
            exec.process_batch(model, batch)?;
        }
        *carry = exec.detach();
        Ok(())
    }
}

/// Key slots (out of [`REBALANCE_KEY_SLOTS`]) whose partition changes when
/// resizing `from → to` under `kind`'s routing discipline: modulo for the
/// hash-routed strategies, contiguous ranges for the range-routed ones.
fn moved_key_slots(kind: StrategyKind, from: usize, to: usize) -> u64 {
    if from == to {
        return 0;
    }
    (0..REBALANCE_KEY_SLOTS)
        .filter(|&slot| slot_partition(kind, slot, from) != slot_partition(kind, slot, to))
        .count() as u64
}

fn slot_partition(kind: StrategyKind, slot: usize, p: usize) -> usize {
    match kind {
        StrategyKind::RoundRobin | StrategyKind::Locality => slot % p,
        StrategyKind::KeyRange | StrategyKind::Hybrid => {
            (slot / REBALANCE_KEY_SLOTS.div_ceil(p)).min(p - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveClustering;
    use crate::store::MemoryCheckpointStore;
    use diststream_types::{Point, Record, Timestamp};

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn batches(n_batches: usize, per_batch: usize) -> Vec<MiniBatch> {
        (0..n_batches)
            .map(|b| {
                let records: Vec<Record> = (0..per_batch)
                    .map(|j| {
                        let id = (b * per_batch + j) as u64 + 1;
                        rec(id, (id % 7) as f64 * 0.9, id as f64 * 0.1)
                    })
                    .collect();
                MiniBatch {
                    index: b,
                    window_start: records.first().map_or(Timestamp::ZERO, |r| r.timestamp),
                    window_end: records
                        .last()
                        .map_or(Timestamp::ZERO, |r| r.timestamp + 0.1),
                    records,
                }
            })
            .collect()
    }

    fn run_schedule(
        schedule: ResizeSchedule,
        options: PipelineOptions,
    ) -> (<NaiveClustering as StreamClustering>::Model, ElasticReport) {
        let algo = NaiveClustering::new(1.0);
        let init = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let mut driver = ElasticDriver::new(&algo, ExecutionMode::Simulated, schedule);
        driver.options(options);
        let mut store = MemoryCheckpointStore::new(4);
        driver.run(init, batches(6, 40), &mut store).unwrap()
    }

    #[test]
    fn schedule_steps_validate_and_resolve() {
        let s = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).unwrap();
        assert_eq!(s.parallelism_for(0), 2);
        assert_eq!(s.parallelism_for(1), 2);
        assert_eq!(s.parallelism_for(2), 4);
        assert_eq!(s.parallelism_for(3), 4);
        assert_eq!(s.parallelism_for(100), 3);
        assert_eq!(ResizeSchedule::fixed(3).parallelism_for(9), 3);
        assert!(ResizeSchedule::with_steps(0, vec![]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(0, 4)]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(2, 4), (2, 3)]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(2, 0)]).is_err());
    }

    #[test]
    fn elastic_model_matches_fixed_parallelism_sync_and_overlapped() {
        let elastic = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).unwrap();
        for options in [PipelineOptions::sync(), PipelineOptions::all()] {
            let (fixed_model, fixed_report) = run_schedule(ResizeSchedule::fixed(2), options);
            let (model, report) = run_schedule(elastic.clone(), options);
            assert_eq!(model, fixed_model, "overlap={}", options.overlap);
            assert!(fixed_report.resizes.is_empty());
            assert_eq!(report.resizes.len(), 2);
            assert_eq!(report.batches, 6);
            assert_eq!(report.records, 240);
            let r = &report.resizes[0];
            assert_eq!((r.batch_index, r.from, r.to), (2, 2, 4));
            assert!(!r.rolled_back);
            assert!(r.moved_keys > 0);
            assert!(r.replayed_bytes > 0);
        }
    }

    #[test]
    fn elastic_model_is_schedule_invariant_across_strategies() {
        let schedules = [
            ResizeSchedule::fixed(4),
            ResizeSchedule::with_steps(1, vec![(1, 5), (3, 2)]).unwrap(),
            ResizeSchedule::with_steps(3, vec![(5, 1)]).unwrap(),
        ];
        let reference = run_schedule(ResizeSchedule::fixed(1), PipelineOptions::sync()).0;
        for kind in StrategyKind::ALL {
            for schedule in &schedules {
                let options = PipelineOptions::sync().with_strategy(kind);
                let (model, _) = run_schedule(schedule.clone(), options);
                assert_eq!(model, reference, "kind={kind:?} schedule={schedule:?}");
            }
        }
    }

    #[test]
    fn rebalancing_batch_fault_rolls_back_to_pre_resize_assignment() {
        let algo = NaiveClustering::new(1.0);
        let init = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let schedule = ResizeSchedule::with_steps(2, vec![(2, 4)]).unwrap();
        let (clean_model, _) = run_schedule(schedule.clone(), PipelineOptions::sync());

        // Exhaust the retry budget for task 3 of the rebalancing batch —
        // a slot that only exists post-resize, so the rolled-back epoch at
        // p=2 never trips it.
        let plan = (0..4).fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 3, attempt));
        let mut driver = ElasticDriver::new(&algo, ExecutionMode::Simulated, schedule);
        driver.fault_plan(plan);
        let mut store = MemoryCheckpointStore::new(4);
        let (model, report) = driver.run(init, batches(6, 40), &mut store).unwrap();

        assert_eq!(model, clean_model, "rollback must not perturb the model");
        assert_eq!(report.resizes.len(), 1);
        assert!(report.resizes[0].rolled_back);
        assert_eq!(report.batches, 6, "the failed batch is reprocessed once");
    }

    #[test]
    fn transient_fault_on_rebalancing_batch_completes_the_resize() {
        let algo = NaiveClustering::new(1.0);
        let init = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let schedule = ResizeSchedule::with_steps(2, vec![(2, 4)]).unwrap();
        let (clean_model, _) = run_schedule(schedule.clone(), PipelineOptions::sync());

        // One panic, three retries in the budget: the retry layer absorbs
        // it and the resize completes.
        let mut driver = ElasticDriver::new(&algo, ExecutionMode::Simulated, schedule);
        driver.fault_plan(FaultPlan::new().panic_on(2, 3, 0));
        let mut store = MemoryCheckpointStore::new(4);
        let (model, report) = driver.run(init, batches(6, 40), &mut store).unwrap();

        assert_eq!(model, clean_model);
        assert_eq!(report.resizes.len(), 1);
        assert!(!report.resizes[0].rolled_back);
    }

    #[test]
    fn rebalance_writes_a_loadable_checkpoint_at_the_boundary() {
        let algo = NaiveClustering::new(1.0);
        let init = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let schedule = ResizeSchedule::with_steps(2, vec![(3, 4)]).unwrap();
        let driver = ElasticDriver::new(&algo, ExecutionMode::Simulated, schedule);
        let mut store = MemoryCheckpointStore::new(4);
        driver.run(init, batches(6, 40), &mut store).unwrap();
        assert_eq!(store.manifest(), vec![3], "boundary cursor is batch 3");
        assert!(store.load(3).unwrap().validate().is_ok());
    }

    #[test]
    fn moved_key_slots_is_zero_only_for_no_op_resizes() {
        for kind in StrategyKind::ALL {
            assert_eq!(moved_key_slots(kind, 4, 4), 0, "{kind:?}");
            let moved = moved_key_slots(kind, 2, 4);
            assert!(moved > 0, "{kind:?}");
            assert!(moved <= REBALANCE_KEY_SLOTS as u64, "{kind:?}");
        }
        // Range routing preserves the leading range when growing; hash
        // routing reshuffles by modulus. Both are deterministic.
        assert_eq!(
            moved_key_slots(StrategyKind::KeyRange, 2, 4),
            moved_key_slots(StrategyKind::Hybrid, 2, 4)
        );
        assert_eq!(
            moved_key_slots(StrategyKind::RoundRobin, 2, 4),
            moved_key_slots(StrategyKind::Locality, 2, 4)
        );
    }
}
