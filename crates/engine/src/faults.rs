//! Deterministic fault injection — the test harness for the engine's
//! task-retry and checkpoint-recovery layers.
//!
//! The paper inherits resilience from Spark ("DistStream leverages Spark
//! Streaming's parallel recovery mechanism", §VI), where faults are an
//! environmental given. Our substrate is in-process, so faults must be
//! *manufactured* — and manufactured deterministically, or the p=1 vs p=4
//! byte-identical replay gates could never run against a faulty cluster.
//!
//! A [`FaultPlan`] names faults by coordinate:
//!
//! - **task panics** at `(batch, task, attempt)` — the task body panics
//!   before running, exercising the pool's `catch_unwind` + retry path;
//! - **straggler delays** at `(batch, task, attempt)` — the task's
//!   executor is held for extra seconds, in both execution modes;
//! - **checkpoint corruption** after a `batch` — the checkpoint written for
//!   that batch is damaged in storage, exercising the CRC-validated
//!   manifest fallback in recovery.
//!
//! Coordinates are consumed on firing, so a fault triggers exactly once no
//! matter how many parallel steps a batch runs. Because the task schedule,
//! attempt numbering, and checkpoint cadence are all deterministic, a plan
//! replays identically at any parallelism degree.

use std::collections::{BTreeMap, BTreeSet};

/// A scripted set of faults, addressed by deterministic coordinates.
///
/// Build one with the chaining constructors and install it on a
/// [`StreamingContext`](crate::StreamingContext) via
/// [`install_fault_plan`](crate::StreamingContext::install_fault_plan).
/// Executors report batch boundaries with
/// [`begin_batch`](crate::StreamingContext::begin_batch), which scopes the
/// `(task, attempt)` coordinates to the right batch.
///
/// # Examples
///
/// ```
/// use diststream_engine::FaultPlan;
///
/// // Panic task 0 of batch 1 on its first attempt, delay task 1 of batch 2
/// // by half a second, and corrupt the checkpoint taken after batch 3.
/// let plan = FaultPlan::new()
///     .panic_on(1, 0, 0)
///     .delay_on(2, 1, 0, 0.5)
///     .corrupt_checkpoint_after(3);
/// assert_eq!(plan.panics_remaining(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    panics: BTreeSet<(u64, usize, usize)>,
    delays: BTreeMap<(u64, usize, usize), f64>,
    corrupt_checkpoints: BTreeSet<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Injects a panic into `task` of `batch` on its `attempt`-th execution
    /// (0 = the first attempt). The panic is raised before the task body
    /// runs and is caught at the pool's `catch_unwind` boundary.
    pub fn panic_on(mut self, batch: usize, task: usize, attempt: usize) -> Self {
        self.panics.insert((batch as u64, task, attempt));
        self
    }

    /// Injects `secs` of straggler delay into `task` of `batch` on its
    /// `attempt`-th execution: the executor sleeps before the task body
    /// runs, so the task's measured time contains the delay.
    pub fn delay_on(mut self, batch: usize, task: usize, attempt: usize, secs: f64) -> Self {
        self.delays
            .insert((batch as u64, task, attempt), secs.max(0.0));
        self
    }

    /// Corrupts the checkpoint written for `batch` *after* it reaches
    /// stable storage, so the damage is visible only to a later restore.
    pub fn corrupt_checkpoint_after(mut self, batch: usize) -> Self {
        self.corrupt_checkpoints.insert(batch as u64);
        self
    }

    /// Derives a pseudo-random panic plan from `seed`: each `(batch, task)`
    /// site over the given grid independently panics its first attempt with
    /// probability `per_mille`/1000. Uses a splitmix64 hash, so the same
    /// seed always scripts the same faults (no RNG state, no entropy).
    pub fn scattered_panics(seed: u64, batches: usize, tasks: usize, per_mille: u16) -> Self {
        let mut plan = FaultPlan::new();
        for batch in 0..batches {
            for task in 0..tasks {
                let h = splitmix64(
                    seed ^ (batch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (task as u64) << 32,
                );
                if h % 1000 < u64::from(per_mille) {
                    plan.panics.insert((batch as u64, task, 0));
                }
            }
        }
        plan
    }

    /// Number of panic faults not yet fired.
    pub fn panics_remaining(&self) -> usize {
        self.panics.len()
    }
}

/// The runtime half of a plan: the installed [`FaultPlan`] plus the batch
/// coordinate the executors keep current. Owned by the context behind a
/// mutex; all mutation is fault consumption.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    current_batch: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            current_batch: 0,
        }
    }

    pub(crate) fn set_batch(&mut self, batch: usize) {
        self.current_batch = batch as u64;
    }

    /// Fires any fault scripted for `(current batch, task, attempt)`.
    /// Returns the injected delay in seconds (0.0 when none); panics when a
    /// panic fault is armed. Fired faults are consumed.
    pub(crate) fn before_attempt(&mut self, task: usize, attempt: usize) -> f64 {
        let site = (self.current_batch, task, attempt);
        if self.plan.panics.remove(&site) {
            // Deliberate injected fault: unwinds into the task pool's
            // catch_unwind retry boundary by design.
            // lint:allow(panic-path) scripted fault injection
            panic!(
                "injected fault: batch {} task {task} attempt {attempt}",
                self.current_batch
            );
        }
        self.plan.delays.remove(&site).unwrap_or(0.0)
    }

    /// Consumes a scripted corruption for the checkpoint of `batch`.
    pub(crate) fn take_checkpoint_corruption(&mut self, batch: usize) -> bool {
        self.plan.corrupt_checkpoints.remove(&(batch as u64))
    }
}

/// splitmix64 — a tiny, stateless mixer; deterministic by construction and
/// deliberately not an `rand` RNG (the wallclock-entropy lint bans RNG
/// construction outside the driver for good reason). Shared with the
/// stratified sampler, whose keep/shed decisions hash through it.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fault_fires_once_at_its_coordinate() {
        let mut state = FaultState::new(FaultPlan::new().panic_on(2, 1, 0));
        state.set_batch(2);
        assert_eq!(state.before_attempt(0, 0), 0.0); // wrong task
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.before_attempt(1, 0);
        }));
        assert!(hit.is_err(), "armed coordinate must panic");
        // Consumed: the same coordinate no longer fires.
        assert_eq!(state.before_attempt(1, 0), 0.0);
    }

    #[test]
    fn panic_fault_respects_batch_coordinate() {
        let mut state = FaultState::new(FaultPlan::new().panic_on(5, 0, 1));
        state.set_batch(4);
        assert_eq!(state.before_attempt(0, 1), 0.0);
        state.set_batch(5);
        assert_eq!(state.before_attempt(0, 0), 0.0); // wrong attempt
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.before_attempt(0, 1);
        }));
        assert!(hit.is_err());
    }

    #[test]
    fn delay_fault_returns_seconds_and_is_consumed() {
        let mut state = FaultState::new(FaultPlan::new().delay_on(0, 2, 0, 1.5));
        assert_eq!(state.before_attempt(2, 0), 1.5);
        assert_eq!(state.before_attempt(2, 0), 0.0);
    }

    #[test]
    fn checkpoint_corruption_is_consumed() {
        let mut state = FaultState::new(FaultPlan::new().corrupt_checkpoint_after(3));
        assert!(!state.take_checkpoint_corruption(2));
        assert!(state.take_checkpoint_corruption(3));
        assert!(!state.take_checkpoint_corruption(3));
    }

    #[test]
    fn scattered_plans_are_seed_deterministic() {
        let a = FaultPlan::scattered_panics(7, 20, 8, 100);
        let b = FaultPlan::scattered_panics(7, 20, 8, 100);
        assert_eq!(a, b);
        let c = FaultPlan::scattered_panics(8, 20, 8, 100);
        assert_ne!(a, c, "different seeds should script different faults");
        assert!(a.panics_remaining() > 0, "10% over 160 sites should hit");
    }

    #[test]
    fn negative_delays_are_clamped() {
        let mut state = FaultState::new(FaultPlan::new().delay_on(0, 0, 0, -3.0));
        assert_eq!(state.before_attempt(0, 0), 0.0);
    }
}
