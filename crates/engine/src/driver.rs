//! The streaming driver: execution modes and the per-step task runner.

use diststream_telemetry as telemetry;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use diststream_types::{DistStreamError, Result};

use crate::faults::{FaultPlan, FaultState};
use crate::metrics::StepMetrics;
use crate::netcost::SimCostModel;
use crate::pool::{execute_with_retry, TaskPool, DEFAULT_MAX_TASK_FAILURES};

/// How a step's tasks are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run tasks on a real OS-thread pool sized to the parallelism degree.
    /// Step latency is measured wall-clock. Use on hosts with enough cores
    /// and in tests of the concurrent code paths.
    Threads,
    /// Run tasks serially, timing each, and *simulate* the cluster:
    /// step latency is the barrier makespan of the measured task times over
    /// `p` slots under [`SimCostModel`] (scheduling overheads, network
    /// charges, straggler injection). Use for performance experiments on
    /// hosts with fewer cores than the modelled cluster.
    Simulated,
}

/// The per-batch execution context — DistStream's window onto the cluster.
///
/// A `StreamingContext` owns the parallelism degree, the execution mode, and
/// (in simulated mode) the cost model and its seeded RNG. The framework
/// calls [`StreamingContext::run_tasks`] once per parallel step and charges
/// data movement through [`StreamingContext::shuffle_secs`] and its
/// siblings. Helper threads
/// are scoped to a step, so the degree is just a number:
/// [`StreamingContext::resize`] changes it between batches.
///
/// # Examples
///
/// ```
/// use diststream_engine::{ExecutionMode, StreamingContext};
///
/// let ctx = StreamingContext::new(8, ExecutionMode::Simulated)?;
/// let (outs, step) = ctx.run_tasks(vec![10u64, 20, 30], |_idx, x| x + 1)?;
/// assert_eq!(outs, vec![11, 21, 31]);
/// assert_eq!(step.task_count(), 3);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct StreamingContext {
    parallelism: AtomicUsize,
    mode: ExecutionMode,
    cost: SimCostModel,
    rng: Mutex<StdRng>,
    faults: Mutex<Option<FaultState>>,
}

impl StreamingContext {
    /// Default RNG seed for straggler injection.
    pub(crate) const DEFAULT_SEED: u64 = 0xD157_57E0;

    /// Creates a context with `parallelism` task slots and the default
    /// cost model (simulated mode only).
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `parallelism` is zero.
    pub fn new(parallelism: usize, mode: ExecutionMode) -> Result<Self> {
        Self::with_cost_model(parallelism, mode, SimCostModel::default())
    }

    /// Creates a context with an explicit cost model. A
    /// [`ExecutionMode::Threads`] context stores [`SimCostModel::zero`]
    /// instead: real data movement (memory traffic) is already part of its
    /// measured wall time, so every simulated charge is 0.0.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `parallelism` is zero.
    pub fn with_cost_model(
        parallelism: usize,
        mode: ExecutionMode,
        cost: SimCostModel,
    ) -> Result<Self> {
        let cost = match mode {
            ExecutionMode::Threads => SimCostModel::zero(),
            ExecutionMode::Simulated => cost,
        };
        Ok(StreamingContext {
            parallelism: AtomicUsize::new(positive(parallelism, "parallelism degree")?),
            mode,
            cost,
            rng: Mutex::new(StdRng::seed_from_u64(Self::DEFAULT_SEED)),
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

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The active cost model ([`SimCostModel::zero`] in thread mode).
    pub fn cost_model(&self) -> &SimCostModel {
        &self.cost
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
    /// [`ExecutionMode::Simulated`] the tasks run serially (each timed) and
    /// `wall_secs` is the simulated barrier makespan.
    ///
    /// Inputs are `Copy` views (a [`Stride`](crate::Stride), a `&[T]`, an
    /// index); `f` borrows the data they point into. A panicking task
    /// (genuine or injected via [`FaultPlan`]) is retried on the same
    /// input, in both modes, up to
    /// [`StreamingContext::max_task_failures`] total attempts. Retries
    /// recompute the same pure function over the same input, so they cannot
    /// perturb the computed data — only the reported timings.
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
                let pool = TaskPool::new(parallelism)?;
                let start = Instant::now();
                let (outputs, task_secs) = pool.run_hooked(inputs, &f, hook)?;
                let wall = start.elapsed().as_secs_f64();
                Ok((outputs, StepMetrics::new(task_secs, wall)))
            }
            ExecutionMode::Simulated => {
                let mut outputs = Vec::with_capacity(inputs.len());
                let mut measured = Vec::with_capacity(inputs.len());
                let mut retried = 0usize;
                for (idx, input) in inputs.into_iter().enumerate() {
                    // Injected straggler delays are charged numerically
                    // (sleep_delays = false): the simulation's virtual clock
                    // should see them without the host actually waiting.
                    match execute_with_retry(idx, input, false, &f, hook) {
                        Ok((output, secs, retries)) => {
                            retried += retries;
                            outputs.push(output);
                            measured.push(secs);
                        }
                        Err(failure) => return Err(failure.into_error()),
                    }
                }
                if telemetry::enabled() && retried > 0 {
                    telemetry::counter(telemetry::names::METRIC_TASKS_RETRIED_TOTAL)
                        .add(retried as u64);
                }
                let mut rng = self.rng.lock();
                let (effective, makespan) =
                    self.cost.step_wall_secs(&measured, parallelism, &mut rng);
                Ok((outputs, StepMetrics::new(effective, makespan)))
            }
        }
    }

    /// Simulated cost of broadcasting `payload_bytes` to every task slot.
    ///
    /// This and the three charges below are 0.0 in thread mode, whose
    /// stored cost model is [`SimCostModel::zero`].
    pub fn broadcast_secs(&self, payload_bytes: u64) -> f64 {
        let parallelism = self.parallelism();
        let secs = self.cost.broadcast_secs(payload_bytes, parallelism);
        charge_net_telemetry(
            "broadcast",
            payload_bytes.saturating_mul(parallelism as u64),
            secs,
        );
        secs
    }

    /// Simulated cost of the shuffle between the assignment and local-update
    /// steps.
    pub fn shuffle_secs(&self, bytes: u64) -> f64 {
        let secs = self.cost.shuffle_secs(bytes, self.parallelism());
        charge_net_telemetry("shuffle", bytes, secs);
        secs
    }

    /// Simulated cost of collecting `bytes` of step output onto the driver.
    pub fn collect_secs(&self, bytes: u64) -> f64 {
        let secs = self.cost.collect_secs(bytes, self.parallelism());
        charge_net_telemetry("collect", bytes, secs);
        secs
    }

    /// The fixed per-batch scheduling overhead.
    pub fn batch_overhead_secs(&self) -> f64 {
        self.cost.per_batch_overhead_secs * self.cost.workload_scale
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

/// Netcost byte/seconds accounting into the telemetry registry, split by
/// charge kind. Bytes are counted in both execution modes (data moves
/// either way); seconds reflect the simulated charge, 0.0 in thread mode.
/// Observation-only; no-op when telemetry is disabled.
fn charge_net_telemetry(kind: &'static str, bytes: u64, secs: f64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter(&format!(
        "{}{{kind=\"{kind}\"}}",
        telemetry::names::METRIC_NETCOST_BYTES_TOTAL
    ))
    .add(bytes);
    telemetry::histogram(
        &format!(
            "{}{{kind=\"{kind}\"}}",
            telemetry::names::METRIC_NETCOST_SECS
        ),
        &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0],
    )
    .observe(secs);
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
    fn simulated_metrics_include_per_task_overhead() {
        let cost = SimCostModel {
            per_task_overhead_secs: 0.25,
            ..SimCostModel::zero()
        };
        let ctx = StreamingContext::with_cost_model(2, ExecutionMode::Simulated, cost).unwrap();
        let (_, step) = ctx.run_tasks(vec![(), ()], |_, ()| ()).unwrap();
        assert!(step.task_secs().iter().all(|&t| t >= 0.25));
        assert!(step.wall_secs() >= 0.25);
    }

    #[test]
    fn network_charges_zero_in_thread_mode() {
        // Even when handed a non-zero model: thread mode stores zero().
        for ctx in [
            StreamingContext::new(2, ExecutionMode::Threads).unwrap(),
            StreamingContext::with_cost_model(2, ExecutionMode::Threads, SimCostModel::default())
                .unwrap(),
        ] {
            assert_eq!(ctx.broadcast_secs(1 << 30), 0.0);
            assert_eq!(ctx.shuffle_secs(1 << 30), 0.0);
            assert_eq!(ctx.collect_secs(1 << 30), 0.0);
            assert_eq!(ctx.batch_overhead_secs(), 0.0);
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
    fn network_charges_nonzero_in_simulated_mode() {
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        assert!(ctx.broadcast_secs(1 << 20) > 0.0);
        assert!(ctx.batch_overhead_secs() > 0.0);
    }

    #[test]
    fn straggler_sequences_are_reproducible() {
        // Straggler decisions come from the context's seeded RNG; with fixed
        // task times two contexts built alike draw the same inflation
        // pattern.
        let cost = SimCostModel {
            straggler: Some(crate::netcost::StragglerModel {
                prob_per_slot: 0.05,
                max_prob: 0.9,
                min_slowdown: 2.0,
                max_slowdown: 2.0,
            }),
            ..SimCostModel::zero()
        };
        let fixed = vec![1.0_f64; 64];
        let draw = || {
            let ctx = StreamingContext::with_cost_model(8, ExecutionMode::Simulated, cost).unwrap();
            let drawn = ctx
                .cost_model()
                .step_wall_secs(&fixed, 8, &mut ctx.rng.lock());
            drawn
        };
        let (first, second) = (draw(), draw());
        assert_eq!(first, second);
        // And the pattern really contains some inflated tasks.
        assert!(first.0.iter().any(|&t| t > 1.0));
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
            assert_eq!(step.task_count(), 4);
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
    fn injected_delay_is_charged_in_simulated_mode() {
        let ctx =
            StreamingContext::with_cost_model(2, ExecutionMode::Simulated, SimCostModel::zero())
                .unwrap();
        ctx.install_fault_plan(FaultPlan::new().delay_on(0, 1, 0, 5.0));
        ctx.begin_batch(0);
        let (_, step) = ctx.run_tasks(vec![(), (), ()], |_, ()| ()).unwrap();
        assert!(
            step.task_secs()[1] >= 5.0,
            "straggler charge missing: {:?}",
            step.task_secs()
        );
        assert!(step.task_secs()[0] < 5.0 && step.task_secs()[2] < 5.0);
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
