//! The one time model: how long a step's tasks take on `p` slots, and how a
//! batch's phases combine into its critical path.
//!
//! Every number the workspace reports about modeled time goes through here:
//! the engine prices each `ExecutionMode::Simulated` step with
//! [`list_makespan`], and writes each `batch_summary`'s `total_secs` with
//! [`batch_critical_path`]; `diststream-trace` replays a journal's task
//! times through the same two functions at another degree; and `xtask
//! check-trace` reconciles every summary against the same rule, within
//! [`reconcile_tolerance`]. A later change to either rule is one edit, and
//! the runtime, the replay and the validator cannot drift apart.

use crate::names;

/// Relative tolerance within which a batch's critical-path components must
/// reproduce its recorded `total_secs`, and the `global_*` sub-spans must
/// tile the `global_update` spans over a journal.
pub const RECONCILE_REL_TOL: f64 = 0.05;

/// The spans that tile a `global_update` span, in execution order.
pub const GLOBAL_SUBSPANS: [&str; 3] = [
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
    /// Seconds from the batch's start to its barrier: the arms on the path
    /// plus the charged overhead, which always is.
    pub secs: f64,
}

/// The batch critical path. The synchronous protocol chains the parallel
/// steps, the global update and the overhead. Under `overlap` the previous
/// batch's global update runs beside this batch's parallel steps, so only
/// the longer of the two arms is on the path (ties to the parallel arm),
/// followed by the overhead.
///
/// # Examples
///
/// ```
/// use diststream_telemetry::time_model::batch_critical_path;
///
/// assert_eq!(batch_critical_path(1.5, 0.25, 0.25, false).secs, 2.0);
/// let overlapped = batch_critical_path(1.5, 5.0, 0.25, true);
/// assert_eq!(overlapped.secs, 5.25);
/// assert!(overlapped.global && !overlapped.parallel);
/// ```
pub fn batch_critical_path(
    parallel_secs: f64,
    global_secs: f64,
    overhead_secs: f64,
    overlap: bool,
) -> CriticalPath {
    let parallel = !overlap || parallel_secs >= global_secs;
    let global = !overlap || !parallel;
    let arm = |on: bool, secs: f64| if on { secs } else { 0.0 };
    CriticalPath {
        parallel,
        global,
        secs: arm(parallel, parallel_secs) + arm(global, global_secs) + overhead_secs,
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
        let sync = batch_critical_path(1.5, 0.25, 0.25, false);
        assert_eq!(sync.secs, 2.0);
        assert!(sync.parallel && sync.global);

        // Parallel arm longer: the global update hides behind it.
        let hidden = batch_critical_path(1.5, 0.25, 0.1, true);
        assert!((hidden.secs - 1.6).abs() < 1e-12);
        assert!(hidden.parallel && !hidden.global);

        // A tie goes to the parallel arm.
        let tie = batch_critical_path(1.0, 1.0, 0.0, true);
        assert!(tie.parallel && !tie.global);
        assert_eq!(tie.secs, 1.0);

        // Global arm longer: it is the path.
        let global = batch_critical_path(1.5, 5.0, 0.1, true);
        assert!((global.secs - 5.1).abs() < 1e-12);
        assert!(!global.parallel && global.global);
    }

    #[test]
    fn tolerance_is_relative_with_a_floor() {
        assert!((reconcile_tolerance(2.0) - 0.1).abs() < 1e-15);
        assert!((reconcile_tolerance(-2.0) - 0.1).abs() < 1e-15);
        assert_eq!(reconcile_tolerance(0.0), 1e-6);
    }
}
