//! The one time model: how long a step's tasks take on `p` slots, how a
//! batch's phases combine into its critical path, and how a recorded batch
//! replays at another degree.
//!
//! Every number the workspace reports about modeled time goes through here:
//! the engine times each `ExecutionMode::Simulated` step with
//! [`list_makespan`]; a [`BatchRecord`]'s `total_secs` is its
//! [`batch_critical_path`]; [`replay`] reschedules a recorded batch — the
//! what-if predictions of `diststream-trace` at another degree, the bench
//! crate's modeled cluster at the recorded one with its charges; and `xtask
//! check-trace` reconciles every journaled summary against the same rule,
//! within [`reconcile_tolerance`]. A later change to either rule is one
//! edit, and the runtime, the replays and the validator cannot drift apart.

use crate::names;
use crate::record::{BatchRecord, StepMetrics};

/// Relative tolerance within which a batch's critical-path components must
/// reproduce its recorded `total_secs`, and the `global_*` sub-spans must
/// tile the `global_update` spans over a journal.
pub const RECONCILE_REL_TOL: f64 = 0.05;

/// The spans that tile a `global_update` span, in execution order.
pub const GLOBAL_SUBSPANS: [&str; 4] = [
    names::SPAN_GLOBAL_COPY,
    names::SPAN_GLOBAL_ORDER,
    names::SPAN_GLOBAL_PREMERGE,
    names::SPAN_GLOBAL_APPLY,
];

/// How far a modeled batch time may sit from a recorded `recorded_secs`:
/// [`RECONCILE_REL_TOL`] of it, with a 1 µs floor so near-empty batches do
/// not trip on rounding.
pub fn reconcile_tolerance(recorded_secs: f64) -> f64 {
    (recorded_secs.abs() * RECONCILE_REL_TOL).max(1e-6)
}

/// The list-schedule makespan of `task_secs` over `slots` executor slots:
/// tasks in submission order, each placed on the least-loaded slot (ties to
/// the lowest index); the makespan is the latest slot's finish.
///
/// This is how `TaskPool` hands out tasks — the next unclaimed index goes
/// to whichever executor frees up first — so a step priced here and a step
/// run on threads schedule alike. No tasks take 0.0; `slots` is clamped to
/// at least 1.
///
/// # Examples
///
/// ```
/// use diststream_telemetry::time_model::list_makespan;
///
/// // Slot 0 takes 1, slot 1 takes 3, slot 0 takes 2 (free at 1), then
/// // slot 0 and 1 tie at 3 and the lower index takes 1.5.
/// assert_eq!(list_makespan(&[1.0, 3.0, 2.0, 1.5], 2), 4.5);
/// assert_eq!(list_makespan(&[], 4), 0.0);
/// ```
pub fn list_makespan(task_secs: &[f64], slots: usize) -> f64 {
    let mut slot_load = vec![0.0_f64; slots.max(1)];
    for &t in task_secs {
        // `min_by` keeps the first of equal minima: the lowest slot index.
        if let Some(least) = slot_load.iter_mut().min_by(|a, b| a.total_cmp(b)) {
            *least += t;
        }
    }
    slot_load.iter().copied().fold(0.0, f64::max)
}

/// A batch's critical path: which arms are on it, and its length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPath {
    /// The parallel steps (assignment, then local update) are on the path.
    pub parallel: bool,
    /// The driver-side global update is on the path.
    pub global: bool,
    /// Seconds from the batch's start to its barrier: the arms on the path.
    pub secs: f64,
}

/// The batch critical path. The synchronous protocol chains the parallel
/// steps and the global update. Under `overlap` the previous batch's global
/// update runs beside this batch's parallel steps, so only the longer of
/// the two arms is on the path (ties to the parallel arm).
///
/// # Examples
///
/// ```
/// use diststream_telemetry::time_model::batch_critical_path;
///
/// assert_eq!(batch_critical_path(1.5, 0.5, false).secs, 2.0);
/// let overlapped = batch_critical_path(1.5, 5.0, true);
/// assert_eq!(overlapped.secs, 5.0);
/// assert!(overlapped.global && !overlapped.parallel);
/// ```
pub fn batch_critical_path(parallel_secs: f64, global_secs: f64, overlap: bool) -> CriticalPath {
    let parallel = !overlap || parallel_secs >= global_secs;
    let global = !overlap || !parallel;
    let arm = |on: bool, secs: f64| if on { secs } else { 0.0 };
    CriticalPath {
        parallel,
        global,
        secs: arm(parallel, parallel_secs) + arm(global, global_secs),
    }
}

/// Replays a recorded batch on `slots` executor slots: each step's
/// recorded tasks, adjusted by `charge` (step 1's, then step 2's; a replay
/// without charges passes `&mut |_| {}`), are rescheduled by
/// [`list_makespan`], and the step keeps its recorded
/// [`StepMetrics::residual_secs`] at the degree it ran at. The returned
/// record's [`BatchRecord::total_secs`] is the replayed critical path.
///
/// One case is not a reschedule: when `slots` exceeds both the recorded
/// degree and a step's task count, the record cannot say how the step would
/// have split at that degree, so its work is taken as divisible —
/// `Σ task / slots`. Record-based steps do split finer at a higher degree;
/// the assumption over-estimates model-based steps with few keys.
///
/// # Examples
///
/// ```
/// use diststream_telemetry::record::{BatchRecord, StepMetrics};
/// use diststream_telemetry::time_model::replay;
///
/// // Four 1 s tasks recorded at p = 1, plus 0.5 s of barrier residual.
/// let recorded = BatchRecord {
///     assignment: StepMetrics::new(vec![1.0; 4], 4.5),
///     parallelism: 1,
///     ..BatchRecord::default()
/// };
/// let at = |slots| replay(&recorded, slots, &mut |_| {}).total_secs();
/// assert_eq!(at(1), 4.5);
/// assert_eq!(at(2), 2.5);
/// // Eight slots for four tasks: divisible work, 4 / 8 s.
/// assert_eq!(at(8), 1.0);
/// ```
pub fn replay(
    record: &BatchRecord,
    slots: usize,
    charge: &mut dyn FnMut(&mut [f64]),
) -> BatchRecord {
    let ran_at = record.parallelism.max(1);
    let slots = slots.max(1);
    let mut step = |recorded: &StepMetrics| {
        let mut tasks = recorded.task_secs().to_vec();
        charge(&mut tasks);
        let makespan = if slots > ran_at && tasks.len() < slots {
            tasks.iter().sum::<f64>() / slots as f64
        } else {
            list_makespan(&tasks, slots)
        };
        let wall = makespan + recorded.residual_secs(ran_at);
        StepMetrics::new(tasks, wall)
    };
    let assignment = step(&record.assignment);
    let local = step(&record.local);
    BatchRecord {
        assignment,
        local,
        ..*record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_makespan_matches_hand_schedules() {
        // In submission order: {1, 2, 1.5} and {3} → 4.5 (longest-first
        // would pack {3, 1} and {2, 1.5} → 4.0; no scheduler here does).
        assert_eq!(list_makespan(&[1.0, 3.0, 2.0, 1.5], 2), 4.5);
        // Equal loads: {1, 1} and {1} → 2.
        assert_eq!(list_makespan(&[1.0, 1.0, 1.0], 2), 2.0);
        // One slot: the serial sum.
        assert_eq!(list_makespan(&[1.0, 2.0, 3.0], 1), 6.0);
        // More slots than tasks: the longest task.
        assert_eq!(list_makespan(&[1.0, 3.0], 8), 3.0);
    }

    /// No panic path: the runtime calls this with whatever it was given.
    #[test]
    fn list_makespan_edges_are_values_not_panics() {
        assert_eq!(list_makespan(&[], 4), 0.0);
        assert_eq!(list_makespan(&[], 0), 0.0);
        // Zero slots is clamped to one.
        assert_eq!(list_makespan(&[1.0, 2.0], 0), 3.0);
    }

    #[test]
    fn critical_path_chains_sync_and_races_overlapped_arms() {
        let sync = batch_critical_path(1.5, 0.5, false);
        assert_eq!(sync.secs, 2.0);
        assert!(sync.parallel && sync.global);

        // Parallel arm longer: the global update hides behind it.
        let hidden = batch_critical_path(1.5, 0.25, true);
        assert_eq!(hidden.secs, 1.5);
        assert!(hidden.parallel && !hidden.global);

        // A tie goes to the parallel arm.
        let tie = batch_critical_path(1.0, 1.0, true);
        assert!(tie.parallel && !tie.global);
        assert_eq!(tie.secs, 1.0);

        // Global arm longer: it is the path.
        let global = batch_critical_path(1.5, 5.0, true);
        assert_eq!(global.secs, 5.0);
        assert!(!global.parallel && global.global);
    }

    /// The two rules the replay settles: a residual is never negative, and
    /// at the recorded degree the tasks are rescheduled, not divided, however
    /// few there are.
    #[test]
    fn replay_clamps_the_residual_and_divides_work_only_past_the_recorded_degree() {
        let skewed = BatchRecord {
            assignment: StepMetrics::new(vec![2.0, 2.0], 1.5),
            parallelism: 2,
            ..BatchRecord::default()
        };
        assert_eq!(replay(&skewed, 2, &mut |_| {}).assignment.wall_secs(), 2.0);

        let few = BatchRecord {
            assignment: StepMetrics::new(vec![3.0, 1.0], 3.0),
            parallelism: 4,
            ..BatchRecord::default()
        };
        assert_eq!(replay(&few, 4, &mut |_| {}).assignment.wall_secs(), 3.0);
        assert_eq!(replay(&few, 8, &mut |_| {}).assignment.wall_secs(), 0.5);

        // Charges apply to step 1's tasks, then step 2's, before the
        // schedule; the rest of the record is kept.
        let mut seen = Vec::new();
        let charged = replay(&few, 4, &mut |tasks: &mut [f64]| {
            seen.push(tasks.len());
            tasks.iter_mut().for_each(|t| *t += 1.0);
        });
        assert_eq!(seen, [2, 0]);
        assert_eq!(charged.assignment.task_secs(), [4.0, 2.0]);
        assert_eq!(charged.parallelism, 4);
    }

    #[test]
    fn tolerance_is_relative_with_a_floor() {
        assert!((reconcile_tolerance(2.0) - 0.1).abs() < 1e-15);
        assert!((reconcile_tolerance(-2.0) - 0.1).abs() < 1e-15);
        assert_eq!(reconcile_tolerance(0.0), 1e-6);
    }
}
