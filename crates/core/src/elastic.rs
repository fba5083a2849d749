//! Elastic mid-stream scale-out: workers join or leave at batch boundaries.
//!
//! The batch step is parallelism-invariant under both update protocols by
//! construction (the order-aware update sorts by arrival keys, so neither
//! task layout nor key placement can reach the model). Elasticity exploits
//! exactly that: a [`ResizeSchedule`] on the job changes the parallelism
//! degree between batches — `StreamingContext::resize` on the caller's
//! context; the session, and with it an overlapped job's pending update,
//! lives on untouched — after a deterministic rebalance: an ordinary
//! checkpoint at the boundary's replay cursor, loaded back from the store
//! and verified byte for byte. If the first batch at the new degree then
//! exhausts its task retries, [`JobSession::step`] restores the boundary
//! snapshot and reprocesses it at the old degree: a resize completes or
//! never happened. Either way the model is bit-identical to a
//! fixed-parallelism run, which the tests pin (protocol: DESIGN.md §13).

use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::api::StreamClustering;
use crate::session::JobSession;

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
/// assert_eq!(schedule.initial(), 2); // batches 0–2
/// assert_eq!(schedule.steps(), [(3, 4), (6, 3)]); // 3–5 at 4, then 3
/// assert!(ResizeSchedule::with_steps(2, vec![(6, 4), (3, 3)]).is_err());
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeSchedule {
    initial: usize,
    /// `(first_batch, parallelism)` steps, strictly increasing by batch.
    steps: Vec<(usize, usize)>,
}

impl ResizeSchedule {
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
    /// Checkpoint bytes replayed from the store to verify the boundary.
    pub replayed_bytes: u64,
    /// Whether the rebalancing batch failed and the resize was rolled back
    /// to the pre-resize assignment.
    pub rolled_back: bool,
}

impl<A: StreamClustering> JobSession<'_, A> {
    /// The deterministic rebalance at a resize boundary: an ordinary
    /// checkpoint under the new epoch's first batch index (its replay
    /// cursor), loaded back (CRC-validated) and compared byte for byte.
    /// Nothing migrates: the model lives on the driver and is broadcast to
    /// every task each batch, so a new degree only re-routes the next
    /// batch's groups. Records the boundary's [`ResizeOutcome`].
    pub(crate) fn rebalance(&mut self, batch_index: usize, from: usize, to: usize) -> Result<()> {
        let _span = telemetry::span!(telemetry::names::SPAN_REBALANCE, batch = batch_index);
        self.take_checkpoint(batch_index)?;
        let restored = self.job.store().load(batch_index)?;
        if restored.bytes != self.checkpoint.bytes {
            return Err(DistStreamError::CorruptCheckpoint {
                batch_index,
                reason: "replayed rebalance checkpoint diverged from the live model".into(),
            });
        }
        let replayed_bytes = restored.len() as u64;
        if telemetry::enabled() {
            telemetry::counter(telemetry::names::METRIC_REBALANCE_TOTAL).inc();
            telemetry::counter(telemetry::names::METRIC_REBALANCE_REPLAYED_BYTES_TOTAL)
                .add(replayed_bytes);
        }
        self.resizes.push(ResizeOutcome {
            batch_index,
            from,
            to,
            replayed_bytes,
            rolled_back: false,
        });
        Ok(())
    }

    /// Marks the boundary just crossed as rolled back.
    pub(crate) fn mark_rolled_back(&mut self) {
        if let Some(resize) = self.resizes.last_mut() {
            resize.rolled_back = true;
        }
        if telemetry::enabled() {
            telemetry::counter(telemetry::names::METRIC_REBALANCE_ROLLBACKS_TOTAL).inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DistStreamJob, PipelineOptions, RunResult};
    use crate::reference::{NaiveClustering, NaiveModel};
    use crate::store::MemoryCheckpointStore;
    use diststream_engine::{ExecutionMode, FaultPlan, MiniBatch, StreamingContext};
    use diststream_types::{ClusteringConfig, Point, Record, Timestamp};

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

    /// Steps `batches(6, 40)` through a job resizing along `schedule` on a
    /// simulated context carrying `plan`.
    fn run_faulted(
        schedule: ResizeSchedule,
        options: PipelineOptions,
        plan: Option<FaultPlan>,
    ) -> RunResult<NaiveModel> {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        if let Some(plan) = plan {
            ctx.install_fault_plan(plan);
        }
        let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
        job.pipeline(options)
            .checkpoint_store(Box::new(MemoryCheckpointStore::new(4).unwrap()))
            .resize(schedule);
        let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
        for batch in batches(6, 40) {
            session.step(batch).unwrap();
        }
        session.finish().unwrap()
    }

    fn run_schedule(schedule: ResizeSchedule, options: PipelineOptions) -> RunResult<NaiveModel> {
        run_faulted(schedule, options, None)
    }

    #[test]
    fn schedule_steps_validate_and_resolve() {
        let s = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).unwrap();
        assert_eq!((s.initial(), s.steps()), (2, &[(2, 4), (4, 3)][..]));
        let flat = ResizeSchedule::with_steps(3, vec![]).unwrap();
        assert_eq!((flat.initial(), flat.steps()), (3, &[][..]));
        assert!(ResizeSchedule::with_steps(0, vec![]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(0, 4)]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(2, 4), (2, 3)]).is_err());
        assert!(ResizeSchedule::with_steps(2, vec![(2, 0)]).is_err());
    }

    #[test]
    fn elastic_model_matches_fixed_parallelism_sync_and_overlapped() {
        let elastic = ResizeSchedule::with_steps(2, vec![(2, 4), (4, 3)]).unwrap();
        for options in [PipelineOptions::sync(), PipelineOptions::all()] {
            let fixed = run_schedule(ResizeSchedule::with_steps(2, vec![]).unwrap(), options);
            let report = run_schedule(elastic.clone(), options);
            assert_eq!(report.model, fixed.model, "overlap={}", options.overlap);
            assert!(fixed.resizes.is_empty());
            assert_eq!(report.resizes.len(), 2);
            assert_eq!(report.meter.batches(), 6);
            assert_eq!(report.meter.records(), 240);
            let r = &report.resizes[0];
            assert_eq!((r.batch_index, r.from, r.to), (2, 2, 4));
            assert!(!r.rolled_back);
            assert!(r.replayed_bytes > 0);
        }
    }

    #[test]
    fn elastic_model_is_schedule_invariant() {
        let schedules = [
            ResizeSchedule::with_steps(4, vec![]).unwrap(),
            ResizeSchedule::with_steps(1, vec![(1, 5), (3, 2)]).unwrap(),
            ResizeSchedule::with_steps(3, vec![(5, 1)]).unwrap(),
        ];
        let reference = run_schedule(
            ResizeSchedule::with_steps(1, vec![]).unwrap(),
            PipelineOptions::sync(),
        )
        .model;
        for schedule in &schedules {
            let model = run_schedule(schedule.clone(), PipelineOptions::sync()).model;
            assert_eq!(model, reference, "schedule={schedule:?}");
        }
    }

    #[test]
    fn rebalancing_batch_fault_rolls_back_to_pre_resize_assignment() {
        let schedule = ResizeSchedule::with_steps(2, vec![(2, 4)]).unwrap();
        let clean_model = run_schedule(schedule.clone(), PipelineOptions::sync()).model;

        // Exhaust the retry budget for task 3 of the rebalancing batch —
        // a slot that only exists post-resize, so the rolled-back epoch at
        // p=2 never trips it.
        let plan = (0..4).fold(FaultPlan::new(), |p, attempt| p.panic_on(2, 3, attempt));
        let report = run_faulted(schedule, PipelineOptions::sync(), Some(plan));

        assert_eq!(
            report.model, clean_model,
            "rollback must not perturb the model"
        );
        assert_eq!(report.resizes.len(), 1);
        assert!(report.resizes[0].rolled_back);
        assert_eq!(
            report.meter.batches(),
            6,
            "the failed batch is reprocessed once"
        );
    }

    #[test]
    fn transient_fault_on_rebalancing_batch_completes_the_resize() {
        let schedule = ResizeSchedule::with_steps(2, vec![(2, 4)]).unwrap();
        let clean_model = run_schedule(schedule.clone(), PipelineOptions::sync()).model;

        // One panic, three retries in the budget: the retry layer absorbs
        // it and the resize completes.
        let plan = FaultPlan::new().panic_on(2, 3, 0);
        let report = run_faulted(schedule, PipelineOptions::sync(), Some(plan));

        assert_eq!(report.model, clean_model);
        assert_eq!(report.resizes.len(), 1);
        assert!(!report.resizes[0].rolled_back);
    }

    #[test]
    fn rebalance_writes_a_loadable_checkpoint_at_the_boundary() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
        job.checkpoint_store(Box::new(MemoryCheckpointStore::new(4).unwrap()))
            .resize(ResizeSchedule::with_steps(2, vec![(3, 4)]).unwrap());
        let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
        for batch in batches(6, 40) {
            session.step(batch).unwrap();
        }
        let store = job.store();
        assert_eq!(store.manifest(), vec![3], "boundary cursor is batch 3");
        assert!(store.load(3).unwrap().validate().is_ok());
    }
}
