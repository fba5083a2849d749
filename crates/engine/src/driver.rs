//! The streaming driver: execution modes and the per-step task runner.

use diststream_telemetry as telemetry;
use diststream_telemetry::time_model::list_makespan;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use diststream_types::{DistStreamError, Result};

use crate::faults::{FaultPlan, FaultState};
use crate::pool::{TaskPool, DEFAULT_MAX_TASK_FAILURES};
use diststream_telemetry::record::StepMetrics;

/// How many threads run a step's tasks. Either way every task really
/// executes and is timed; the mode only decides the threads and what the
/// step's wall time means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run the `p` tasks on `p` threads; the step's wall time is measured.
    /// Use on hosts with enough cores and in tests of the concurrent code
    /// paths.
    Threads,
    /// Run the `p` tasks on one thread, each timed alone; the step's wall
    /// time is their list makespan over `p` slots (plus any measured
    /// set-up) — the step a cluster of `p` idle slots would take. Use for
    /// experiments on hosts with fewer cores than the modelled cluster.
    Simulated,
}

/// The per-batch execution context — DistStream's window onto the cluster.
///
/// A `StreamingContext` owns the parallelism degree, the execution mode and
/// the fault plan. The framework calls [`StreamingContext::run_tasks`] once
/// per parallel step. Helper threads are scoped to a step, so the degree is
/// just a number: [`StreamingContext::resize`] changes it between batches.
/// The context measures and never prices: what a recorded step would cost
/// on a modelled cluster is computed afterwards, from its `StepMetrics`.
///
/// # Examples
///
/// ```
/// use diststream_engine::{ExecutionMode, StreamingContext};
///
/// let ctx = StreamingContext::new(8, ExecutionMode::Simulated)?;
/// let (outs, step) = ctx.run_tasks(vec![10u64, 20, 30], |_idx, x| x + 1)?;
/// assert_eq!(outs, vec![11, 21, 31]);
/// assert_eq!(step.task_secs().len(), 3);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct StreamingContext {
    parallelism: AtomicUsize,
    mode: ExecutionMode,
    faults: Mutex<Option<FaultState>>,
}

impl StreamingContext {
    /// Creates a context with `parallelism` task slots.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `parallelism` is zero.
    pub fn new(parallelism: usize, mode: ExecutionMode) -> Result<Self> {
        Ok(StreamingContext {
            parallelism: AtomicUsize::new(positive(parallelism, "parallelism degree")?),
            mode,
            faults: Mutex::new(None),
        })
    }

    /// The parallelism degree (number of task slots).
    pub fn parallelism(&self) -> usize {
        self.parallelism.load(Ordering::SeqCst)
    }

    /// Changes the parallelism degree. Call between batches only (the
    /// elastic resize boundary): a step already running keeps the degree it
    /// started with.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `parallelism` is zero.
    pub fn resize(&self, parallelism: usize) -> Result<()> {
        self.parallelism.store(
            positive(parallelism, "parallelism degree")?,
            Ordering::SeqCst,
        );
        Ok(())
    }

    /// The per-task retry budget (Spark's `spark.task.maxFailures`): the
    /// number of times a single task may execute, initial attempt included,
    /// before the step fails with [`DistStreamError::TaskFailed`].
    pub fn max_task_failures(&self) -> usize {
        DEFAULT_MAX_TASK_FAILURES
    }

    /// Installs a deterministic [`FaultPlan`]; it replaces any plan already
    /// installed. Executors scope the plan's `(batch, task, attempt)`
    /// coordinates by calling [`StreamingContext::begin_batch`].
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.faults.lock() = Some(FaultState::new(plan));
    }

    /// Removes any installed fault plan.
    pub fn clear_fault_plan(&self) {
        *self.faults.lock() = None;
    }

    /// Reports that processing of mini-batch `index` is starting, scoping
    /// subsequent fault-plan coordinates to that batch. A no-op without an
    /// installed plan.
    pub fn begin_batch(&self, index: usize) {
        if let Some(state) = self.faults.lock().as_mut() {
            state.set_batch(index);
        }
    }

    /// Consumes a scripted checkpoint corruption for `batch_index`, if the
    /// installed plan has one armed. Checkpointing drivers call this right
    /// after persisting a checkpoint and damage the stored copy when it
    /// returns `true`.
    pub fn take_checkpoint_corruption(&self, batch_index: usize) -> bool {
        self.faults
            .lock()
            .as_mut()
            .is_some_and(|state| state.take_checkpoint_corruption(batch_index))
    }

    /// Executes one parallel step: runs `f` over every input and returns the
    /// outputs in task order plus the step's timing.
    ///
    /// In [`ExecutionMode::Threads`] the tasks run concurrently on `p`
    /// executors — this thread and `p − 1` helpers scoped to the call, so
    /// `f` runs on the driver thread too (always, at `p = 1`) — and
    /// `StepMetrics::wall_secs` is measured. In
    /// [`ExecutionMode::Simulated`] one executor — this thread — runs them
    /// in submission order, each timed, and `wall_secs` is the list
    /// makespan of those times over `p` slots
    /// (`diststream_telemetry::time_model::list_makespan`).
    ///
    /// Inputs are `Copy` views (a [`Stride`](crate::Stride), a `&[T]`, an
    /// index); `f` borrows the data they point into. A panicking task
    /// (genuine or injected via [`FaultPlan`]) is retried on the same
    /// input, in both modes, up to
    /// [`StreamingContext::max_task_failures`] total attempts. Retries
    /// recompute the same pure function over the same input, so they cannot
    /// perturb the computed data — only the reported timings. An injected
    /// delay holds the executor in both modes, so the delayed task's time
    /// and the step's wall contain it.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::TaskFailed`] if a task panics on all of
    /// its permitted attempts.
    pub fn run_tasks<I, O, F>(&self, inputs: Vec<I>, f: F) -> Result<(Vec<O>, StepMetrics)>
    where
        I: Copy + Send + Sync,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        // One driver-side span per parallel step, in both modes — the
        // journal's span multiset stays independent of the parallelism
        // degree (per-task attribution flows through StepMetrics instead).
        let _step_span = telemetry::span!(telemetry::names::SPAN_STEP_TASKS);
        // The hook locks the fault mutex per attempt, so only pay for it
        // when a plan is actually installed (plans are installed before the
        // run, never mid-step).
        let faulting = self.faults.lock().is_some();
        let hook = |task: usize, attempt: usize| -> f64 {
            match self.faults.lock().as_mut() {
                Some(state) => state.before_attempt(task, attempt),
                None => 0.0,
            }
        };
        let hook: Option<&(dyn Fn(usize, usize) -> f64 + Sync)> =
            if faulting { Some(&hook) } else { None };
        let parallelism = self.parallelism();
        match self.mode {
            ExecutionMode::Threads => {
                let start = Instant::now();
                let (outputs, task_secs) =
                    TaskPool::new(parallelism)?.run_hooked(inputs, &f, hook)?;
                let wall = start.elapsed().as_secs_f64();
                Ok((outputs, StepMetrics::new(task_secs, wall)))
            }
            ExecutionMode::Simulated => {
                // One executor claims every task in submission order, each
                // timed alone; p idle slots would have run them as the list
                // schedule does.
                let (outputs, task_secs) = TaskPool::new(1)?.run_hooked(inputs, &f, hook)?;
                let wall = list_makespan(&task_secs, parallelism);
                Ok((outputs, StepMetrics::new(task_secs, wall)))
            }
        }
    }
}

/// `value` if it is at least 1, else the typed error for a zero `what` —
/// these values arrive from configuration, so they never panic.
pub(crate) fn positive(value: usize, what: &str) -> Result<usize> {
    if value == 0 {
        return Err(DistStreamError::InvalidConfig(format!(
            "{what} must be at least 1"
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_parallelism_is_invalid() {
        assert!(StreamingContext::new(0, ExecutionMode::Threads).is_err());
    }

    #[test]
    fn thread_and_simulated_modes_compute_identical_data() {
        let inputs: Vec<u64> = (0..50).collect();
        let threads = StreamingContext::new(4, ExecutionMode::Threads).unwrap();
        let sim = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
        let (a, _) = threads.run_tasks(inputs.clone(), |_, x| x * 3).unwrap();
        let (b, _) = sim.run_tasks(inputs, |_, x| x * 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_simulated_step_is_the_list_makespan_of_its_task_times() {
        for p in [1, 2, 5] {
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            let (_, step) = ctx
                .run_tasks((0..7).collect::<Vec<u64>>(), |_, x| {
                    (0..x * 1000).sum::<u64>()
                })
                .unwrap();
            assert_eq!(step.task_secs().len(), 7);
            assert_eq!(step.wall_secs(), list_makespan(step.task_secs(), p));
        }
    }

    #[test]
    fn resize_changes_the_degree_between_steps_and_rejects_zero() {
        for mode in [ExecutionMode::Threads, ExecutionMode::Simulated] {
            let ctx = StreamingContext::new(2, mode).unwrap();
            ctx.resize(5).unwrap();
            assert_eq!(ctx.parallelism(), 5);
            let (outs, _) = ctx
                .run_tasks((0..9).collect::<Vec<u64>>(), |_, x| x)
                .unwrap();
            assert_eq!(outs, (0..9).collect::<Vec<u64>>());
            let err = ctx.resize(0).unwrap_err();
            assert!(matches!(err, DistStreamError::InvalidConfig(_)), "{err}");
            assert_eq!(ctx.parallelism(), 5, "a rejected resize changes nothing");
        }
    }

    #[test]
    fn injected_panic_is_retried_transparently_in_both_modes() {
        for mode in [ExecutionMode::Threads, ExecutionMode::Simulated] {
            let ctx = StreamingContext::new(2, mode).unwrap();
            ctx.install_fault_plan(FaultPlan::new().panic_on(3, 1, 0));
            ctx.begin_batch(3);
            let (outs, step) = ctx
                .run_tasks((0..4).collect::<Vec<u64>>(), |_, x| x * 7)
                .unwrap();
            assert_eq!(outs, vec![0, 7, 14, 21], "retry must not change data");
            assert_eq!(step.task_secs().len(), 4);
        }
    }

    #[test]
    fn injected_panic_on_every_attempt_exhausts_budget() {
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let plan = (0..ctx.max_task_failures())
            .fold(FaultPlan::new(), |p, attempt| p.panic_on(0, 0, attempt));
        ctx.install_fault_plan(plan);
        ctx.begin_batch(0);
        let result = ctx.run_tasks(vec![1u8], |_, x| x);
        assert!(matches!(
            result,
            Err(diststream_types::DistStreamError::TaskFailed { task: 0, .. })
        ));
    }

    #[test]
    fn cleared_plan_stops_firing() {
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        ctx.install_fault_plan(
            FaultPlan::new()
                .panic_on(0, 0, 0)
                .panic_on(0, 0, 1)
                .panic_on(0, 0, 2)
                .panic_on(0, 0, 3),
        );
        ctx.clear_fault_plan();
        ctx.begin_batch(0);
        let (outs, _) = ctx.run_tasks(vec![9u8], |_, x| x).unwrap();
        assert_eq!(outs, vec![9]);
    }

    #[test]
    fn checkpoint_corruption_faults_are_consumed_through_the_context() {
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        ctx.install_fault_plan(FaultPlan::new().corrupt_checkpoint_after(2));
        assert!(!ctx.take_checkpoint_corruption(1));
        assert!(ctx.take_checkpoint_corruption(2));
        assert!(!ctx.take_checkpoint_corruption(2), "fires exactly once");
    }

    #[test]
    fn outputs_preserve_task_order_in_both_modes() {
        for mode in [ExecutionMode::Threads, ExecutionMode::Simulated] {
            let ctx = StreamingContext::new(3, mode).unwrap();
            let (outs, _) = ctx
                .run_tasks((0..20).collect::<Vec<usize>>(), |idx, x| {
                    assert_eq!(idx, x);
                    x
                })
                .unwrap();
            assert_eq!(outs, (0..20).collect::<Vec<usize>>());
        }
    }
}
