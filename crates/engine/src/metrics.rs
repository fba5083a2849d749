//! Step- and batch-level performance metrics.

use diststream_telemetry as telemetry;
use diststream_telemetry::time_model::batch_critical_path;
use serde::{Deserialize, Serialize};

/// The paper's straggler criterion: a task is a straggler when its execution
/// time exceeds 1.2× the step's mean task time (§VII-D2).
pub(crate) const STRAGGLER_FACTOR: f64 = 1.2;

/// Timing of one parallel step (a set of tasks separated from the next step
/// by a synchronization barrier).
///
/// `task_secs` are the measured per-task durations, an injected fault delay
/// included. `wall_secs` is the step's barrier-to-barrier latency: measured
/// in thread mode; in simulated mode the list makespan of the task times
/// over `p` slots plus any set-up charged with
/// [`StepMetrics::charge_setup`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StepMetrics {
    task_secs: Vec<f64>,
    wall_secs: f64,
}

impl StepMetrics {
    /// Creates step metrics from task durations and step wall time.
    pub fn new(task_secs: Vec<f64>, wall_secs: f64) -> Self {
        StepMetrics {
            task_secs,
            wall_secs,
        }
    }

    /// A zero-task, zero-time step (used for skipped steps).
    pub fn empty() -> Self {
        StepMetrics::default()
    }

    /// Charges a once-per-slot setup cost to the step: work every worker
    /// performs exactly once per step regardless of how many tasks it
    /// claims — e.g. building a per-model search structure after receiving
    /// the broadcast. All slots set up concurrently, so the barrier latency
    /// grows by `secs` once; per-task durations are untouched (setup is not
    /// attributable to any single task, and inflating each task would charge
    /// the cost once per claimed chunk).
    pub fn charge_setup(&mut self, secs: f64) {
        self.wall_secs += secs;
    }

    /// Number of tasks in the step.
    pub fn task_count(&self) -> usize {
        self.task_secs.len()
    }

    /// Per-task durations in seconds.
    pub fn task_secs(&self) -> &[f64] {
        &self.task_secs
    }

    /// Barrier-to-barrier step latency in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Mean task duration (0.0 for an empty step).
    pub fn mean_task_secs(&self) -> f64 {
        if self.task_secs.is_empty() {
            0.0
        } else {
            self.task_secs.iter().sum::<f64>() / self.task_secs.len() as f64
        }
    }

    /// Longest task duration (0.0 for an empty step).
    pub fn max_task_secs(&self) -> f64 {
        self.task_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Number of straggler tasks: tasks slower than
    /// [`STRAGGLER_FACTOR`] × the mean task time.
    pub(crate) fn straggler_count(&self) -> usize {
        let mean = self.mean_task_secs();
        if mean == 0.0 {
            return 0;
        }
        self.task_secs
            .iter()
            .filter(|&&t| t > STRAGGLER_FACTOR * mean)
            .count()
    }

    /// Straggler tasks as a fraction of all tasks (0.0 for an empty step).
    pub fn straggler_fraction(&self) -> f64 {
        if self.task_secs.is_empty() {
            0.0
        } else {
            self.straggler_count() as f64 / self.task_secs.len() as f64
        }
    }

    /// Fraction of the step's wall time not covered by its longest task —
    /// barrier/scheduling overhead the straggler criterion cannot see.
    ///
    /// A perfectly uniform step (every task equals the mean) reports zero
    /// stragglers even when `wall_secs` far exceeds `max_task_secs`; this
    /// accessor surfaces that hidden overhead. Clamped to `[0, 1]`; 0.0
    /// for an empty or zero-wall step.
    pub(crate) fn overhead_fraction(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        ((self.wall_secs - self.max_task_secs()) / self.wall_secs).clamp(0.0, 1.0)
    }

    /// The step's straggler culprit: the slowest task's index and its skew
    /// ratio (task time / mean task time), when that task crosses the
    /// [`STRAGGLER_FACTOR`] threshold. `None` for uniform or empty steps.
    pub(crate) fn straggler_culprit(&self) -> Option<(usize, f64)> {
        let mean = self.mean_task_secs();
        if mean == 0.0 {
            return None;
        }
        let (index, &max) = self
            .task_secs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        let skew = max / mean;
        if max > STRAGGLER_FACTOR * mean {
            Some((index, skew))
        } else {
            None
        }
    }
}

/// End-to-end timing and data-movement accounting for one mini-batch.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// Zero-based batch index.
    pub batch_index: usize,
    /// Records processed in the batch.
    pub records: usize,
    /// Step 1: finding the closest micro-cluster (record-based parallelism).
    pub assignment: StepMetrics,
    /// Step 2: local update (model-based parallelism).
    pub local: StepMetrics,
    /// Step 3: global update on the driver, in seconds.
    pub global_secs: f64,
    /// Network + scheduling overhead charged to the batch, in seconds. The
    /// runtime measures and never prices, so it always writes 0.0; a
    /// cost-model replay of the recorded batch fills it in.
    pub overhead_secs: f64,
    /// Bytes broadcast to tasks (model × parallelism).
    pub broadcast_bytes: u64,
    /// Bytes moved by the shuffle between steps 1 and 2.
    pub shuffle_bytes: u64,
    /// Bytes of task output the global update applied in this batch
    /// collected onto the driver (0 when none applied). Under the
    /// asynchronous protocol that update is the previous batch's.
    pub collect_bytes: u64,
    /// `true` when the batch ran under the asynchronous update protocol,
    /// overlapping the driver-side global update with the parallel steps.
    pub async_overlap: bool,
    /// Executor slots the batch ran with. Recorded so trace analytics can
    /// model what-if schedules at other parallelism degrees (the residual
    /// between a step's wall time and its task makespan at this degree is
    /// the part no re-schedule can shrink). 0 when unknown.
    pub parallelism: usize,
    /// Measured seconds the driver spent handling step 1's records outside
    /// its tasks (split layout, output merge, pairing). Real time in both
    /// execution modes and not a critical-path component: `total_secs`
    /// models the cluster, this is what the framework itself cost.
    pub assign_driver_secs: f64,
    /// The same for step 2: accounting, keying, grouping and routing (the
    /// spent batch is freed elsewhere, by the thread that allocated it).
    pub local_driver_secs: f64,
}

impl BatchMetrics {
    /// Total batch latency: the batch critical path of
    /// [`batch_critical_path`].
    ///
    /// Under the synchronous protocol this is the sum of both parallel
    /// steps, the driver-side global update, and overheads. Under the
    /// asynchronous protocol (`async_overlap`), the global update of the
    /// previous batch runs concurrently with this batch's parallel steps,
    /// so the critical path is the *maximum* of the two.
    pub fn total_secs(&self) -> f64 {
        batch_critical_path(
            self.assignment.wall_secs() + self.local.wall_secs(),
            self.global_secs,
            self.overhead_secs,
            self.async_overlap,
        )
        .secs
    }

    /// Straggler tasks across both parallel steps.
    pub(crate) fn straggler_count(&self) -> usize {
        self.assignment.straggler_count() + self.local.straggler_count()
    }

    /// Records this batch into the telemetry subsystem: one
    /// `batch_summary` journal point carrying the full critical-path
    /// breakdown, plus registry counters/gauges/histograms for straggler
    /// culprits, per-step overhead fractions, and byte accounting.
    ///
    /// Observation-only and cheap when telemetry is disabled (one atomic
    /// load). Called by the executor once per batch — registry lookups are
    /// fine at barrier granularity.
    pub fn emit_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let total = self.total_secs();
        telemetry::emit_point(
            telemetry::names::POINT_BATCH_SUMMARY,
            Some(self.batch_index as u64),
            &[
                ("records", self.records as f64),
                ("assignment_secs", self.assignment.wall_secs()),
                ("local_secs", self.local.wall_secs()),
                ("global_secs", self.global_secs),
                ("overhead_secs", self.overhead_secs),
                ("total_secs", total),
                ("async_overlap", f64::from(u8::from(self.async_overlap))),
                ("broadcast_bytes", self.broadcast_bytes as f64),
                ("shuffle_bytes", self.shuffle_bytes as f64),
                ("collect_bytes", self.collect_bytes as f64),
                ("stragglers", self.straggler_count() as f64),
                ("parallelism", self.parallelism as f64),
                (
                    telemetry::names::FIELD_ASSIGN_DRIVER_SECS,
                    self.assign_driver_secs,
                ),
                (
                    telemetry::names::FIELD_LOCAL_DRIVER_SECS,
                    self.local_driver_secs,
                ),
            ],
        );
        // Per-task durations, one point each, so trace analytics can replay
        // the recorded work through simulated schedules at other parallelism
        // degrees. "task" is a reserved journal key; the ordinal rides in
        // "index". step: 0 = assignment, 1 = local.
        for (step_idx, metrics) in [(0.0, &self.assignment), (1.0, &self.local)] {
            for (task_idx, &secs) in metrics.task_secs().iter().enumerate() {
                telemetry::emit_point(
                    telemetry::names::POINT_TASK_DURATION,
                    Some(self.batch_index as u64),
                    &[
                        ("step", step_idx),
                        ("index", task_idx as f64),
                        ("secs", secs),
                    ],
                );
            }
        }
        telemetry::counter(telemetry::names::METRIC_BATCHES_TOTAL).inc();
        telemetry::counter(telemetry::names::METRIC_RECORDS_TOTAL).add(self.records as u64);
        telemetry::counter(telemetry::names::METRIC_BROADCAST_BYTES_TOTAL)
            .add(self.broadcast_bytes);
        telemetry::counter(telemetry::names::METRIC_SHUFFLE_BYTES_TOTAL).add(self.shuffle_bytes);
        telemetry::counter(telemetry::names::METRIC_STRAGGLER_TASKS_TOTAL)
            .add(self.straggler_count() as u64);
        telemetry::histogram(
            telemetry::names::METRIC_BATCH_TOTAL_SECS,
            &[1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0],
        )
        .observe(total);
        for (step, metrics) in [("assignment", &self.assignment), ("local", &self.local)] {
            telemetry::gauge(&format!(
                "{}{{step=\"{step}\"}}",
                telemetry::names::METRIC_STEP_OVERHEAD_FRACTION
            ))
            .set(metrics.overhead_fraction());
            if let Some((task, skew)) = metrics.straggler_culprit() {
                telemetry::counter(&format!(
                    "{}{{step=\"{step}\",task=\"{task}\"}}",
                    telemetry::names::METRIC_STRAGGLER_CULPRIT_TOTAL
                ))
                .inc();
                telemetry::gauge(&format!(
                    "{}{{step=\"{step}\"}}",
                    telemetry::names::METRIC_STRAGGLER_SKEW_RATIO
                ))
                .set(skew);
            }
        }
    }
}

/// Accumulates batch metrics into stream-level throughput numbers.
///
/// # Examples
///
/// ```
/// use diststream_engine::{BatchMetrics, StepMetrics, ThroughputMeter};
///
/// let mut meter = ThroughputMeter::new();
/// let mut batch = BatchMetrics::default();
/// batch.records = 1000;
/// batch.global_secs = 0.5;
/// meter.observe(&batch);
/// assert_eq!(meter.records(), 1000);
/// assert_eq!(meter.records_per_sec(), 2000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThroughputMeter {
    records: usize,
    secs: f64,
    batches: usize,
    global_secs: f64,
    straggler_tasks: usize,
    total_tasks: usize,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        ThroughputMeter::default()
    }

    /// Folds one batch's metrics into the totals.
    pub fn observe(&mut self, batch: &BatchMetrics) {
        self.records += batch.records;
        self.secs += batch.total_secs();
        self.batches += 1;
        self.global_secs += batch.global_secs;
        self.straggler_tasks += batch.straggler_count();
        self.total_tasks += batch.assignment.task_count() + batch.local.task_count();
    }

    /// Folds stream-end flush time into the totals without counting a
    /// batch: the overlapped pipeline's final pending global update runs
    /// after the last batch's barrier, and dropping it would overstate the
    /// async protocol's throughput by one global update.
    pub fn observe_flush(&mut self, global_secs: f64) {
        self.secs += global_secs;
        self.global_secs += global_secs;
    }

    /// Total records observed.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Total processing seconds observed.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Number of batches observed.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Average throughput: records / total processing time.
    ///
    /// Returns 0.0 before any time has been observed.
    pub fn records_per_sec(&self) -> f64 {
        if self.secs == 0.0 {
            0.0
        } else {
            self.records as f64 / self.secs
        }
    }

    /// Per-record latency in microseconds — "the inverse of the throughput"
    /// (§VII-C1).
    pub fn micros_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.records as f64
        }
    }

    /// Driver-side global-update latency per record, in microseconds.
    pub fn global_micros_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.global_secs * 1e6 / self.records as f64
        }
    }

    /// Fraction of tasks that were stragglers.
    pub fn straggler_fraction(&self) -> f64 {
        if self.total_tasks == 0 {
            0.0
        } else {
            self.straggler_tasks as f64 / self.total_tasks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_statistics() {
        let step = StepMetrics::new(vec![1.0, 1.0, 1.0, 2.0], 2.0);
        assert_eq!(step.task_count(), 4);
        assert_eq!(step.mean_task_secs(), 1.25);
        assert_eq!(step.max_task_secs(), 2.0);
        // 2.0 > 1.2 * 1.25 = 1.5 → one straggler.
        assert_eq!(step.straggler_count(), 1);
        assert_eq!(step.straggler_fraction(), 0.25);
        assert_eq!(step.wall_secs(), 2.0);
    }

    #[test]
    fn empty_step_is_all_zero() {
        let step = StepMetrics::empty();
        assert_eq!(step.task_count(), 0);
        assert_eq!(step.mean_task_secs(), 0.0);
        assert_eq!(step.max_task_secs(), 0.0);
        assert_eq!(step.straggler_count(), 0);
        assert_eq!(step.straggler_fraction(), 0.0);
    }

    #[test]
    fn uniform_tasks_have_no_stragglers() {
        let step = StepMetrics::new(vec![1.0; 8], 1.0);
        assert_eq!(step.straggler_count(), 0);
    }

    #[test]
    fn uniform_step_with_slow_barrier_surfaces_overhead_fraction() {
        // Every task equals the mean → zero stragglers, yet the barrier
        // took 4× the longest task. straggler_count hides this; the
        // overhead accessor must not.
        let step = StepMetrics::new(vec![1.0; 8], 4.0);
        assert_eq!(step.straggler_count(), 0);
        assert!((step.overhead_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction_edge_cases() {
        assert_eq!(StepMetrics::empty().overhead_fraction(), 0.0);
        // Wall shorter than the longest task (async measurement skew)
        // clamps to zero rather than going negative.
        let skewed = StepMetrics::new(vec![2.0], 1.0);
        assert_eq!(skewed.overhead_fraction(), 0.0);
    }

    #[test]
    fn straggler_culprit_identifies_slowest_task() {
        let step = StepMetrics::new(vec![1.0, 1.0, 3.0, 1.0], 3.0);
        let (task, skew) = step.straggler_culprit().expect("culprit");
        assert_eq!(task, 2);
        assert!((skew - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_and_empty_steps_have_no_culprit() {
        assert_eq!(
            StepMetrics::new(vec![1.0; 4], 1.0).straggler_culprit(),
            None
        );
        assert_eq!(StepMetrics::empty().straggler_culprit(), None);
    }

    #[test]
    fn batch_total_sums_components() {
        let batch = BatchMetrics {
            batch_index: 0,
            records: 10,
            assignment: StepMetrics::new(vec![1.0], 1.0),
            local: StepMetrics::new(vec![0.5], 0.5),
            global_secs: 0.25,
            overhead_secs: 0.25,
            broadcast_bytes: 100,
            shuffle_bytes: 200,
            async_overlap: false,
            parallelism: 1,
            ..BatchMetrics::default()
        };
        assert_eq!(batch.total_secs(), 2.0);
    }

    #[test]
    fn async_overlap_hides_global_update_behind_parallel_steps() {
        let mut batch = BatchMetrics {
            batch_index: 0,
            records: 10,
            assignment: StepMetrics::new(vec![1.0], 1.0),
            local: StepMetrics::new(vec![0.5], 0.5),
            global_secs: 0.25,
            overhead_secs: 0.1,
            broadcast_bytes: 0,
            shuffle_bytes: 0,
            async_overlap: true,
            parallelism: 1,
            ..BatchMetrics::default()
        };
        // Global (0.25) hides behind the 1.5s parallel part.
        assert!((batch.total_secs() - 1.6).abs() < 1e-12);
        // A slow global update becomes the critical path instead.
        batch.global_secs = 5.0;
        assert!((batch.total_secs() - 5.1).abs() < 1e-12);
    }

    #[test]
    fn meter_accumulates_batches() {
        let mut meter = ThroughputMeter::new();
        for i in 0..3 {
            let batch = BatchMetrics {
                batch_index: i,
                records: 100,
                assignment: StepMetrics::new(vec![0.5, 0.5], 0.5),
                local: StepMetrics::new(vec![0.25], 0.25),
                global_secs: 0.25,
                overhead_secs: 0.0,
                broadcast_bytes: 0,
                shuffle_bytes: 0,
                async_overlap: false,
                parallelism: 2,
                ..BatchMetrics::default()
            };
            meter.observe(&batch);
        }
        assert_eq!(meter.records(), 300);
        assert_eq!(meter.batches(), 3);
        assert_eq!(meter.secs(), 3.0);
        assert_eq!(meter.records_per_sec(), 100.0);
        assert_eq!(meter.micros_per_record(), 10_000.0);
        assert!((meter.global_micros_per_record() - 2500.0).abs() < 1e-9);
        // Flush time lands in secs/global_secs but is not a batch.
        meter.observe_flush(1.0);
        assert_eq!(meter.batches(), 3);
        assert_eq!(meter.records(), 300);
        assert_eq!(meter.secs(), 4.0);
        assert!((meter.records_per_sec() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn meter_handles_zero_observations() {
        let meter = ThroughputMeter::new();
        assert_eq!(meter.records_per_sec(), 0.0);
        assert_eq!(meter.micros_per_record(), 0.0);
        assert_eq!(meter.straggler_fraction(), 0.0);
    }
}
