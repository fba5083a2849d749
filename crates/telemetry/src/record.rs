//! The batch record: what a run measures about one mini-batch, written to
//! the journal once and read back by every consumer.
//!
//! [`BatchRecord`] is the workspace's one per-batch type. The runtime
//! builds one per batch; [`BatchRecord::emit`] writes it as one
//! `batch_summary` point plus one `task_duration` point per task; and
//! [`BatchRecord::from_point`] with [`BatchRecord::push_task`] reads those
//! points back — in `diststream-trace`'s analyses and in `xtask
//! check-trace`. One private field table drives both directions, so each
//! `batch_summary` field is named once, here, and a new per-batch quantity
//! is one row of it.

use crate::names;
use crate::time_model::batch_critical_path;

/// The paper's straggler criterion: a task is a straggler when its execution
/// time exceeds 1.2× the step's mean task time (§VII-D2).
const STRAGGLER_FACTOR: f64 = 1.2;

/// Timing of one parallel step (a set of tasks separated from the next step
/// by a synchronization barrier).
///
/// `task_secs` are the measured per-task durations, an injected fault delay
/// included. `wall_secs` is the step's barrier-to-barrier latency: measured
/// in thread mode; in simulated mode the list makespan of the task times
/// over `p` slots. Either way plus any set-up charged with
/// [`StepMetrics::charge_setup`].
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// The part of the wall time the list makespan of the tasks over
    /// `slots` does not explain — barrier cost and per-slot set-up, which
    /// no re-schedule can shrink. Never negative: a wall measured shorter
    /// than the makespan is skew, not negative work. A step without tasks
    /// is all residual.
    pub fn residual_secs(&self, slots: usize) -> f64 {
        (self.wall_secs - crate::time_model::list_makespan(&self.task_secs, slots)).max(0.0)
    }

    /// Number of straggler tasks: tasks slower than [`STRAGGLER_FACTOR`] ×
    /// the mean task time.
    fn straggler_count(&self) -> usize {
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
    fn overhead_fraction(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        ((self.wall_secs - self.max_task_secs()) / self.wall_secs).clamp(0.0, 1.0)
    }

    /// The step's straggler culprit: the slowest task's index and its skew
    /// ratio (task time / mean task time), when that task crosses the
    /// [`STRAGGLER_FACTOR`] threshold. `None` for uniform or empty steps.
    fn straggler_culprit(&self) -> Option<(usize, f64)> {
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

/// Timing and data-movement accounting for one mini-batch, as a run
/// measured it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchRecord {
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
    /// `true` when the batch ran under the asynchronous update protocol,
    /// overlapping the driver-side global update with the parallel steps.
    pub async_overlap: bool,
    /// Executor slots the batch ran with. A replay at another degree keeps
    /// each step's wall time beyond its task makespan at this one.
    pub parallelism: usize,
    /// Bytes broadcast to tasks (model × parallelism).
    pub broadcast_bytes: u64,
    /// Bytes moved by the shuffle between steps 1 and 2.
    pub shuffle_bytes: u64,
    /// Bytes of task output the global update applied in this batch
    /// collected onto the driver (0 when none applied). Under the
    /// asynchronous protocol that update is the previous batch's.
    pub collect_bytes: u64,
    /// Measured seconds the driver spent handling step 1's records outside
    /// its tasks (split layout, output merge, pairing). Real time in both
    /// execution modes and not a critical-path component: `total_secs`
    /// models the cluster, this is what the framework itself cost.
    pub assign_driver_secs: f64,
    /// The same for step 2: accounting, keying, grouping and routing (the
    /// spent batch is freed elsewhere, by the thread that allocated it).
    pub local_driver_secs: f64,
}

/// How the writer reads a `batch_summary` field off a record.
type Get = fn(&BatchRecord) -> f64;
/// How a reader puts it back; `None` for a quantity derived from the rest,
/// which a reader recomputes.
type Set = Option<fn(&mut BatchRecord, f64)>;

/// The recorded batch time: derived when written, and kept by a reader as
/// the figure the components must reconcile with.
const TOTAL_SECS: &str = "total_secs";

/// Every `batch_summary` field, in journal order: name, writer, reader.
#[rustfmt::skip]
const FIELDS: [(&str, Get, Set); 13] = [
    ("records", |r| r.records as f64, Some(|r, v| r.records = v as usize)),
    ("assignment_secs", |r| r.assignment.wall_secs, Some(|r, v| r.assignment.wall_secs = v)),
    ("local_secs", |r| r.local.wall_secs, Some(|r, v| r.local.wall_secs = v)),
    ("global_secs", |r| r.global_secs, Some(|r, v| r.global_secs = v)),
    (TOTAL_SECS, BatchRecord::total_secs, None),
    ("async_overlap", |r| f64::from(u8::from(r.async_overlap)), Some(|r, v| r.async_overlap = v != 0.0)),
    ("broadcast_bytes", |r| r.broadcast_bytes as f64, Some(|r, v| r.broadcast_bytes = v as u64)),
    ("shuffle_bytes", |r| r.shuffle_bytes as f64, Some(|r, v| r.shuffle_bytes = v as u64)),
    ("collect_bytes", |r| r.collect_bytes as f64, Some(|r, v| r.collect_bytes = v as u64)),
    ("stragglers", |r| r.straggler_count() as f64, None),
    ("parallelism", |r| r.parallelism as f64, Some(|r, v| r.parallelism = v as usize)),
    ("assign_driver_secs", |r| r.assign_driver_secs, Some(|r, v| r.assign_driver_secs = v)),
    ("local_driver_secs", |r| r.local_driver_secs, Some(|r, v| r.local_driver_secs = v)),
];

/// `task_duration` fields: which step (0 = assignment, 1 = local), the
/// task's ordinal ("task" is a reserved journal key), and its seconds.
const TASK_STEP: &str = "step";
const TASK_INDEX: &str = "index";
const TASK_SECS: &str = "secs";

impl BatchRecord {
    /// Total batch latency: the batch critical path of
    /// [`batch_critical_path`].
    ///
    /// Under the synchronous protocol this is the sum of both parallel
    /// steps and the driver-side global update. Under the asynchronous
    /// protocol (`async_overlap`), the global update of the previous batch
    /// runs concurrently with this batch's parallel steps, so the critical
    /// path is the *maximum* of the two.
    pub fn total_secs(&self) -> f64 {
        batch_critical_path(
            self.assignment.wall_secs + self.local.wall_secs,
            self.global_secs,
            self.async_overlap,
        )
        .secs
    }

    /// Straggler tasks across both parallel steps.
    fn straggler_count(&self) -> usize {
        self.assignment.straggler_count() + self.local.straggler_count()
    }

    /// Records this batch into the telemetry subsystem: one `batch_summary`
    /// journal point, one `task_duration` point per task (step 1's, then
    /// step 2's, so a replay at another degree can reschedule them), and
    /// registry counters, gauges and histograms for straggler culprits,
    /// per-step overhead fractions and byte accounting.
    ///
    /// One atomic load when telemetry is disabled. Called once per batch —
    /// registry lookups are fine at barrier granularity.
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let batch = Some(self.batch_index as u64);
        crate::emit_point(
            names::POINT_BATCH_SUMMARY,
            batch,
            &FIELDS.map(|(name, get, _)| (name, get(self))),
        );
        for (step, metrics) in [(0.0, &self.assignment), (1.0, &self.local)] {
            for (index, &secs) in metrics.task_secs.iter().enumerate() {
                crate::emit_point(
                    names::POINT_TASK_DURATION,
                    batch,
                    &[
                        (TASK_STEP, step),
                        (TASK_INDEX, index as f64),
                        (TASK_SECS, secs),
                    ],
                );
            }
        }
        let stragglers = self.straggler_count() as u64;
        crate::counter(names::METRIC_BATCHES_TOTAL).inc();
        crate::counter(names::METRIC_RECORDS_TOTAL).add(self.records as u64);
        crate::counter(names::METRIC_BROADCAST_BYTES_TOTAL).add(self.broadcast_bytes);
        crate::counter(names::METRIC_SHUFFLE_BYTES_TOTAL).add(self.shuffle_bytes);
        crate::counter(names::METRIC_STRAGGLER_TASKS_TOTAL).add(stragglers);
        crate::histogram(
            names::METRIC_BATCH_TOTAL_SECS,
            &[1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0],
        )
        .observe(self.total_secs());
        for (step, metrics) in [("assignment", &self.assignment), ("local", &self.local)] {
            crate::gauge(&format!(
                "{}{{step=\"{step}\"}}",
                names::METRIC_STEP_OVERHEAD_FRACTION
            ))
            .set(metrics.overhead_fraction());
            if let Some((task, skew)) = metrics.straggler_culprit() {
                crate::counter(&format!(
                    "{}{{step=\"{step}\",task=\"{task}\"}}",
                    names::METRIC_STRAGGLER_CULPRIT_TOTAL
                ))
                .inc();
                crate::gauge(&format!(
                    "{}{{step=\"{step}\"}}",
                    names::METRIC_STRAGGLER_SKEW_RATIO
                ))
                .set(skew);
            }
        }
    }

    /// Reads batch `batch`'s `batch_summary` point back, `field` looking up
    /// one of its numeric fields by name. Returns the record — its steps
    /// without tasks until [`BatchRecord::push_task`] adds them — and the
    /// `total_secs` it was written with.
    ///
    /// # Errors
    ///
    /// Names the first field the point lacks.
    pub fn from_point(
        batch: u64,
        field: impl Fn(&str) -> Option<f64>,
    ) -> Result<(BatchRecord, f64), String> {
        let need =
            |name: &str| field(name).ok_or_else(|| format!("batch_summary lacks numeric `{name}`"));
        let mut record = BatchRecord {
            batch_index: batch as usize,
            ..BatchRecord::default()
        };
        for (name, _, set) in FIELDS {
            let value = need(name)?;
            if let Some(set) = set {
                set(&mut record, value);
            }
        }
        Ok((record, need(TOTAL_SECS)?))
    }

    /// Appends the task of one `task_duration` point (`field` looks up its
    /// numeric fields) to its step, in the order the points were written.
    ///
    /// # Errors
    ///
    /// Names a missing field or a step other than 0 or 1.
    pub fn push_task(&mut self, field: impl Fn(&str) -> Option<f64>) -> Result<(), String> {
        let need =
            |name: &str| field(name).ok_or_else(|| format!("task_duration lacks numeric `{name}`"));
        let secs = need(TASK_SECS)?;
        let step = match need(TASK_STEP)? {
            0.0 => &mut self.assignment,
            1.0 => &mut self.local,
            other => return Err(format!("task_duration names step {other}, not 0 or 1")),
        };
        step.task_secs.push(secs);
        Ok(())
    }
}

/// Accumulates batch records into stream-level throughput numbers.
///
/// # Examples
///
/// ```
/// use diststream_telemetry::record::{BatchRecord, ThroughputMeter};
///
/// let mut meter = ThroughputMeter::new();
/// let batch = BatchRecord {
///     records: 1000,
///     global_secs: 0.5,
///     ..BatchRecord::default()
/// };
/// meter.observe(&batch, batch.total_secs());
/// assert_eq!(meter.records(), 1000);
/// assert_eq!(meter.records_per_sec(), 2000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// Folds one batch into the totals, charged `secs`: its own
    /// [`BatchRecord::total_secs`], or what a replay priced it at.
    pub fn observe(&mut self, batch: &BatchRecord, secs: f64) {
        self.records += batch.records;
        self.secs += secs;
        self.batches += 1;
        self.global_secs += batch.global_secs;
        self.straggler_tasks += batch.straggler_count();
        self.total_tasks += batch.assignment.task_secs.len() + batch.local.task_secs.len();
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
        assert_eq!(step.task_secs().len(), 4);
        assert_eq!(step.mean_task_secs(), 1.25);
        assert_eq!(step.max_task_secs(), 2.0);
        // 2.0 > 1.2 * 1.25 = 1.5 → one straggler.
        assert_eq!(step.straggler_count(), 1);
        assert_eq!(step.straggler_fraction(), 0.25);
        assert_eq!(step.wall_secs(), 2.0);
    }

    #[test]
    fn empty_step_is_all_zero() {
        let step = StepMetrics::default();
        assert_eq!(step.task_secs().len(), 0);
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
        assert_eq!(StepMetrics::default().overhead_fraction(), 0.0);
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
        assert_eq!(StepMetrics::default().straggler_culprit(), None);
    }

    #[test]
    fn residual_is_the_wall_beyond_the_makespan_and_never_negative() {
        // {1, 3} and {2} on two slots: makespan 4, so 0.5 of 4.5 is residual.
        assert_eq!(
            StepMetrics::new(vec![1.0, 2.0, 3.0], 4.5).residual_secs(2),
            0.5
        );
        assert_eq!(StepMetrics::new(vec![2.0], 1.0).residual_secs(1), 0.0);
        assert_eq!(StepMetrics::new(Vec::new(), 0.25).residual_secs(4), 0.25);
    }

    #[test]
    fn batch_total_sums_components() {
        let batch = BatchRecord {
            records: 10,
            assignment: StepMetrics::new(vec![1.0], 1.0),
            local: StepMetrics::new(vec![0.5], 0.5),
            global_secs: 0.5,
            parallelism: 1,
            ..BatchRecord::default()
        };
        assert_eq!(batch.total_secs(), 2.0);
    }

    #[test]
    fn async_overlap_hides_global_update_behind_parallel_steps() {
        let mut batch = BatchRecord {
            records: 10,
            assignment: StepMetrics::new(vec![1.0], 1.0),
            local: StepMetrics::new(vec![0.5], 0.5),
            global_secs: 0.25,
            async_overlap: true,
            parallelism: 1,
            ..BatchRecord::default()
        };
        // Global (0.25) hides behind the 1.5s parallel part.
        assert_eq!(batch.total_secs(), 1.5);
        // A slow global update becomes the critical path instead.
        batch.global_secs = 5.0;
        assert_eq!(batch.total_secs(), 5.0);
    }

    #[test]
    fn meter_accumulates_batches() {
        let mut meter = ThroughputMeter::new();
        for i in 0..3 {
            let batch = BatchRecord {
                batch_index: i,
                records: 100,
                assignment: StepMetrics::new(vec![0.5, 0.5], 0.5),
                local: StepMetrics::new(vec![0.25], 0.25),
                global_secs: 0.25,
                parallelism: 2,
                ..BatchRecord::default()
            };
            meter.observe(&batch, batch.total_secs());
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

    /// Records at p ∈ {1, 3}, sync and overlapped, with task lists whose
    /// seconds have no short decimal form.
    fn sample_records() -> Vec<BatchRecord> {
        let mut out = Vec::new();
        for (i, (p, overlap)) in [(1, false), (1, true), (3, false), (3, true)]
            .into_iter()
            .enumerate()
        {
            let tasks = |step: usize| -> Vec<f64> {
                (0..p + step)
                    .map(|t| (1 + t + i) as f64 / 7.0 * 1e-3 + std::f64::consts::PI * 1e-9)
                    .collect()
            };
            let (step1, step2) = (tasks(0), tasks(1));
            let wall1 = crate::time_model::list_makespan(&step1, p) + 1.0 / 3.0 * 1e-4;
            let wall2 = crate::time_model::list_makespan(&step2, p);
            out.push(BatchRecord {
                batch_index: i,
                records: 1_000 + 17 * i,
                assignment: StepMetrics::new(step1, wall1),
                local: StepMetrics::new(step2, wall2),
                global_secs: 0.1 / 3.0 * (1 + i) as f64,
                async_overlap: overlap,
                parallelism: p,
                broadcast_bytes: 40_961 * p as u64,
                shuffle_bytes: 123_457 + i as u64,
                collect_bytes: if i == 0 { 0 } else { 9_001 },
                assign_driver_secs: 2.0 / 3.0 * 1e-5,
                local_driver_secs: 1.0 / 7.0 * 1e-5,
            });
        }
        out
    }

    /// What [`BatchRecord::emit`] writes, [`BatchRecord::from_point`] and
    /// [`BatchRecord::push_task`] read back bit for bit, total included.
    #[test]
    fn a_record_reads_back_from_its_points_bit_for_bit() {
        let _guard = crate::test_lock();
        let records = sample_records();
        crate::set_journal_capture();
        crate::set_enabled(true);
        for record in &records {
            record.emit();
        }
        crate::barrier_drain();
        crate::set_enabled(false);
        let events = crate::close_journal();

        let mut read: Vec<(BatchRecord, f64)> = Vec::new();
        for event in &events {
            let field = |key: &str| {
                event
                    .fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
            };
            let batch = event.batch.expect("batch-scoped point");
            if event.name == names::POINT_BATCH_SUMMARY {
                read.push(BatchRecord::from_point(batch, field).expect("summary reads"));
            } else if event.name == names::POINT_TASK_DURATION {
                let (open, _) = read.last_mut().expect("tasks follow their summary");
                open.push_task(field).expect("task reads");
            }
        }
        assert_eq!(read.len(), records.len());
        for ((got, total), want) in read.iter().zip(&records) {
            assert_eq!(got, want);
            assert_eq!(total.to_bits(), want.total_secs().to_bits());
            assert_eq!(got.total_secs().to_bits(), want.total_secs().to_bits());
        }
    }

    #[test]
    fn a_summary_without_a_field_is_refused_by_name() {
        let err = BatchRecord::from_point(0, |key| (key != "global_secs").then_some(1.0))
            .expect_err("incomplete summary");
        assert_eq!(err, "batch_summary lacks numeric `global_secs`");
        let mut record = BatchRecord::default();
        let err = record
            .push_task(|key| match key {
                TASK_STEP => Some(2.0),
                _ => Some(0.5),
            })
            .expect_err("unknown step");
        assert!(err.contains("step 2"), "{err}");
    }
}
