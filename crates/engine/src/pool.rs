//! Task execution for both modes: [`ExecutionMode::Threads`] runs a step on
//! `p` executors, [`ExecutionMode::Simulated`] on one, and both go through
//! the same claim loop and retry boundary.
//!
//! [`ExecutionMode::Threads`]: crate::ExecutionMode::Threads
//! [`ExecutionMode::Simulated`]: crate::ExecutionMode::Simulated

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::driver::positive;

/// Spark's `spark.task.maxFailures` default: a task may execute up to four
/// times (one initial attempt plus three retries) before the step fails.
pub const DEFAULT_MAX_TASK_FAILURES: usize = 4;

/// A bounded pool of `threads` executors that runs a step's tasks.
///
/// Tasks are pulled from a shared counter by up to `threads` executors —
/// the same dynamic task-to-slot scheduling a Spark executor pool performs.
/// The calling thread is one of them: a step of `n` tasks spawns
/// `threads.min(n) − 1` scoped helpers and the caller claims tasks beside
/// them, so a pool of one thread (or a step of one task) spawns nothing.
/// Outputs are returned in task order together with each task's measured
/// execution seconds.
///
/// A panicking task is caught at a `catch_unwind` boundary and re-executed
/// on the same input, up to [`DEFAULT_MAX_TASK_FAILURES`] total attempts
/// (Spark's `spark.task.maxFailures`), before the step surfaces
/// [`DistStreamError::TaskFailed`]. Because a retry recomputes the same
/// pure function over the same input, retries cannot change any task's
/// output — replay stays byte-identical across parallelism degrees.
///
/// Inputs are `Copy` *views* — a `&[T]` slice of the batch, an index —
/// read by whichever executor claims the task; the task closure borrows
/// the data they point into, so a panicking attempt has nothing of the
/// batch to lose and a retry has nothing to restore.
///
/// # Examples
///
/// ```
/// use diststream_engine::TaskPool;
///
/// let pool = TaskPool::new(2)?;
/// let (outs, secs) = pool.run(vec![1, 2, 3], &|_idx, x: i32| x * 10)?;
/// assert_eq!(outs, vec![10, 20, 30]);
/// assert_eq!(secs.len(), 3);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPool {
    threads: usize,
}

impl TaskPool {
    /// Creates a pool of `threads` executors (the caller and `threads − 1`
    /// helpers).
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `threads` is zero.
    pub fn new(threads: usize) -> Result<Self> {
        Ok(TaskPool {
            threads: positive(threads, "thread count")?,
        })
    }

    /// Number of executors, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every input on the pool, returning outputs in task
    /// order plus each task's measured execution time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::TaskFailed`] if any task panics on all of
    /// its [`DEFAULT_MAX_TASK_FAILURES`] attempts; remaining tasks may or
    /// may not have run.
    pub fn run<I, O, F>(&self, inputs: Vec<I>, f: &F) -> Result<(Vec<O>, Vec<f64>)>
    where
        I: Copy + Send + Sync,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        self.run_hooked(inputs, f, None)
    }

    /// [`TaskPool::run`] with an optional per-attempt hook.
    ///
    /// The hook is called as `hook(task, attempt)` immediately before each
    /// execution attempt (attempt 0 = the first). It returns extra seconds
    /// of straggler delay to impose on the attempt, and may panic to inject
    /// a task fault — the panic is caught at the same retry boundary as a
    /// genuine task panic. This is the engine half of deterministic fault
    /// injection (see [`FaultPlan`](crate::FaultPlan)). An injected delay
    /// is slept on the executor, inside the task's timed attempt.
    pub(crate) fn run_hooked<I, O, F>(
        &self,
        inputs: Vec<I>,
        f: &F,
        hook: Option<&(dyn Fn(usize, usize) -> f64 + Sync)>,
    ) -> Result<(Vec<O>, Vec<f64>)>
    where
        I: Copy + Send + Sync,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        let n = inputs.len();
        if n == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let results: Vec<Mutex<Option<(O, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let retried = AtomicUsize::new(0);
        let failures: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());

        // One executor's claim loop. The caller runs it beside the helpers,
        // so one task (or one thread) spawns none.
        let claim_and_run = || loop {
            // SeqCst: the claim counter gates which executor owns a task's
            // result slot; relaxed ordering here would let a claim race
            // ahead of the slot handoff it authorizes.
            let idx = cursor.fetch_add(1, Ordering::SeqCst);
            let Some(&input) = inputs.get(idx) else {
                break;
            };
            match execute_with_retry(idx, input, f, hook) {
                Ok((output, secs, retries)) => {
                    if retries > 0 {
                        retried.fetch_add(retries, Ordering::SeqCst);
                    }
                    *results[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some((output, secs));
                }
                Err(failure) => failures
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(failure),
            }
        };
        // A helper that dies outside the retry boundary makes the scope
        // panic as it joins; that panic stops here, as the typed error.
        let scope_result = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for _ in 1..self.threads.min(n) {
                    s.spawn(claim_and_run);
                }
                claim_and_run();
            })
        }));
        if scope_result.is_err() {
            return Err(DistStreamError::Engine(
                "an executor died outside the task retry boundary".into(),
            ));
        }

        let retried = retried.into_inner();
        if telemetry::enabled() && retried > 0 {
            telemetry::counter(telemetry::names::METRIC_TASKS_RETRIED_TOTAL).add(retried as u64);
        }
        let mut failures = failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Workers push failures in completion order; report the lowest task
        // index so the surfaced error is schedule-independent.
        failures.sort_by_key(|failure| failure.task);
        if let Some(failure) = failures.into_iter().next() {
            return Err(failure.into_error());
        }

        let mut outputs = Vec::with_capacity(n);
        let mut durations = Vec::with_capacity(n);
        for cell in results {
            match cell.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some((o, secs)) => {
                    outputs.push(o);
                    durations.push(secs);
                }
                None => {
                    return Err(DistStreamError::Engine(
                        "a task produced no output (worker died early)".into(),
                    ))
                }
            }
        }
        if telemetry::enabled() {
            // Driver-side, once per step (after the scope joined), so the
            // worker hot loop stays untouched.
            telemetry::counter(telemetry::names::METRIC_POOL_TASKS_TOTAL).add(n as u64);
            let task_secs = telemetry::histogram(
                telemetry::names::METRIC_POOL_TASK_SECS,
                &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
            );
            for &secs in &durations {
                task_secs.observe(secs);
            }
        }
        Ok((outputs, durations))
    }
}

/// Over-partitioning factor for size-aware chunk scheduling: each worker
/// slot's share of a record split is cut into this many chunks, so the
/// pool's shared claim counter can rebalance work away from a slow slot at
/// chunk granularity instead of stalling the step barrier on the largest
/// static partition.
pub const CHUNK_OVERPARTITION: usize = 4;

/// Floor on records per scheduling chunk. Below this, per-task dispatch
/// overhead (claim traffic, result-slot bookkeeping, simulated per-task
/// overhead) outweighs any balance win, so small batches degrade gracefully
/// toward one chunk per slot — and ultimately one chunk total.
pub const MIN_CHUNK_SIZE: usize = 32;

/// The fixed chunk size for splitting `n` records across `slots` worker
/// slots under size-aware scheduling.
///
/// The chunk count is always a multiple of `slots` — `slots × k` chunks
/// with `k` the largest factor in `1..=CHUNK_OVERPARTITION` that keeps
/// chunks at least [`MIN_CHUNK_SIZE`] records. Large batches get
/// `CHUNK_OVERPARTITION` claimable chunks per slot (the balance lever);
/// small batches degrade to exactly one balanced chunk per slot, whose
/// makespan matches the static one-block-per-slot split instead of leaving
/// one slot a `MIN_CHUNK_SIZE`-sized straggler chunk.
///
/// Purely arithmetic in `(n, slots)` — no load measurement, no clock — so
/// the chunk layout is reproducible run-to-run. The layout *may* differ
/// across parallelism degrees; that is harmless because chunk outputs are
/// written to chunk-indexed slots and concatenated in chunk order
/// (see [`split_chunks`]), making the reassembled result independent of
/// both the schedule and the chunk count.
///
/// # Examples
///
/// ```
/// use diststream_engine::{chunk_size, CHUNK_OVERPARTITION, MIN_CHUNK_SIZE};
///
/// // Large batch: CHUNK_OVERPARTITION chunks per slot.
/// assert_eq!(chunk_size(4000, 4), 4000usize.div_ceil(4 * CHUNK_OVERPARTITION));
/// // Small batch: one balanced chunk per slot (25/25/25/25, not 32/32/32/4).
/// assert_eq!(chunk_size(100, 4), 25);
/// assert_eq!(chunk_size(1, 4), 1);
/// assert_eq!(chunk_size(0, 4), 1); // degenerate, still valid
/// ```
pub fn chunk_size(n: usize, slots: usize) -> usize {
    let slots = slots.max(1);
    let per_slot = (n / (slots * MIN_CHUNK_SIZE)).clamp(1, CHUNK_OVERPARTITION);
    n.div_ceil(slots * per_slot).max(1)
}

/// Splits `items` into contiguous chunks of `chunk` items (the final chunk
/// may be shorter) — the owning form of `<[T]>::chunks`, which step 1
/// reads its chunks through; kept only for `benchmark/src/micro.rs`
/// (ROADMAP item 1(a) retires it).
///
/// Chunks are contiguous slices of the input, so concatenating the
/// per-chunk outputs in chunk index order restores the original arrival
/// order exactly, whichever worker claimed which chunk.
///
/// # Panics
///
/// Panics if `chunk` is zero.
///
/// # Examples
///
/// ```
/// use diststream_engine::split_chunks;
///
/// let chunks = split_chunks(vec![1, 2, 3, 4, 5], 2);
/// assert_eq!(chunks, vec![vec![1, 2], vec![3, 4], vec![5]]);
/// assert_eq!(chunks.concat(), vec![1, 2, 3, 4, 5]);
/// ```
pub fn split_chunks<T>(items: Vec<T>, chunk: usize) -> Vec<Vec<T>> {
    assert!(chunk > 0, "chunk size must be at least 1");
    if items.is_empty() {
        return Vec::new();
    }
    #[cfg(feature = "debug_invariants")]
    let input_len = items.len();
    let chunks = items.len().div_ceil(chunk);
    let mut out: Vec<Vec<T>> = Vec::with_capacity(chunks);
    let mut it = items.into_iter();
    for _ in 0..chunks {
        let mut piece = Vec::with_capacity(chunk);
        piece.extend(it.by_ref().take(chunk));
        out.push(piece);
    }
    #[cfg(feature = "debug_invariants")]
    assert_eq!(
        out.iter().map(Vec::len).sum::<usize>(),
        input_len,
        "debug_invariants: chunk split lost or duplicated items",
    );
    out
}

/// A task that exhausted its retry budget.
#[derive(Debug)]
struct TaskFailure {
    task: usize,
    attempts: usize,
    reason: String,
}

impl TaskFailure {
    fn into_error(self) -> DistStreamError {
        DistStreamError::TaskFailed {
            task: self.task,
            attempts: self.attempts,
            reason: self.reason,
        }
    }
}

/// Executes one task with the retry protocol: every attempt runs on the
/// same `Copy` input, so a panic that unwinds through `f` leaves the next
/// attempt exactly what the first had. An injected delay is slept before
/// `f` runs, so the attempt's time contains it.
///
/// On success returns `(output, secs, retries)` where `retries` counts the
/// failed attempts that preceded the success; the
/// [`DEFAULT_MAX_TASK_FAILURES`]th failed attempt is the task's failure.
fn execute_with_retry<I, O, F>(
    idx: usize,
    input: I,
    f: &F,
    hook: Option<&(dyn Fn(usize, usize) -> f64 + Sync)>,
) -> std::result::Result<(O, f64, usize), TaskFailure>
where
    I: Copy,
    F: Fn(usize, I) -> O,
{
    let mut attempt = 0;
    loop {
        let start = Instant::now(); // lint:allow(wallclock-entropy) task timing feeds straggler metrics only
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = hook {
                let injected = hook(idx, attempt);
                if injected > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(injected));
                }
            }
            f(idx, input)
        }));
        match outcome {
            Ok(output) => return Ok((output, start.elapsed().as_secs_f64(), attempt)),
            Err(payload) => {
                attempt += 1;
                if attempt >= DEFAULT_MAX_TASK_FAILURES {
                    return Err(TaskFailure {
                        task: idx,
                        attempts: attempt,
                        reason: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn outputs_preserve_task_order() {
        let pool = TaskPool::new(4).unwrap();
        let inputs: Vec<usize> = (0..100).collect();
        let (outs, secs) = pool
            .run(inputs, &|idx, x| {
                assert_eq!(idx, x);
                x * 2
            })
            .unwrap();
        assert_eq!(outs, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(secs.len(), 100);
        assert!(secs.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let pool = TaskPool::new(2).unwrap();
        let (outs, secs) = pool.run(Vec::<u8>::new(), &|_, x| x).unwrap();
        assert!(outs.is_empty() && secs.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = TaskPool::new(8).unwrap();
        let counter = AtomicU64::new(0);
        let (outs, _) = pool
            .run((0..500).collect::<Vec<u64>>(), &|_, x| {
                counter.fetch_add(1, Ordering::Relaxed);
                x
            })
            .unwrap();
        assert_eq!(outs.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn task_panic_exhausts_retries_then_surfaces_typed_error() {
        let pool = TaskPool::new(2).unwrap();
        let attempts_seen = AtomicU64::new(0);
        let result = pool.run(vec![0, 1, 2], &|_, x: i32| {
            if x == 1 {
                attempts_seen.fetch_add(1, Ordering::SeqCst);
                panic!("boom");
            }
            x
        });
        match result {
            Err(DistStreamError::TaskFailed {
                task,
                attempts,
                reason,
            }) => {
                assert_eq!(task, 1);
                assert_eq!(attempts, DEFAULT_MAX_TASK_FAILURES);
                assert!(reason.contains("boom"), "reason was {reason:?}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert_eq!(
            attempts_seen.load(Ordering::SeqCst),
            DEFAULT_MAX_TASK_FAILURES as u64,
            "the poisoned task must be attempted exactly max-failures times"
        );
    }

    #[test]
    fn flaky_task_succeeds_via_retry() {
        let pool = TaskPool::new(2).unwrap();
        let failures_left = AtomicU64::new(2);
        let (outs, secs) = pool
            .run(vec![10, 20, 30], &|_, x: i32| {
                if x == 20 && failures_left.load(Ordering::SeqCst) > 0 {
                    failures_left.fetch_sub(1, Ordering::SeqCst);
                    panic!("transient");
                }
                x * 2
            })
            .unwrap();
        assert_eq!(outs, vec![20, 40, 60], "retry must not change any output");
        assert_eq!(secs.len(), 3);
        assert_eq!(failures_left.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn lowest_failing_task_is_reported() {
        // Several tasks poisoned: whichever worker finishes last, the error
        // must name the lowest failing index for schedule independence.
        let pool = TaskPool::new(4).unwrap();
        let result = pool.run((0..16).collect::<Vec<i32>>(), &|_, x| {
            if x >= 5 {
                panic!("poisoned");
            }
            x
        });
        assert!(matches!(
            result,
            Err(DistStreamError::TaskFailed { task: 5, .. })
        ));
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let pool = TaskPool::new(16).unwrap();
        let (outs, _) = pool.run(vec![7], &|_, x: i32| x + 1).unwrap();
        assert_eq!(outs, vec![8]);
    }

    /// A pool of one — and a step of one task on any pool — spawns
    /// nothing: every task runs on the thread that called `run`.
    #[test]
    fn a_lone_executor_is_the_calling_thread() {
        let caller = std::thread::current().id();
        for (threads, tasks) in [(1, 5), (4, 1)] {
            let pool = TaskPool::new(threads).unwrap();
            let (ran_on, _) = pool
                .run(vec![(); tasks], &|_, ()| std::thread::current().id())
                .unwrap();
            assert_eq!(ran_on, vec![caller; tasks], "threads={threads}");
        }
    }

    /// `threads` tasks that all wait for each other can only finish if
    /// `threads` executors run at once — and only `threads − 1` of them are
    /// spawned, so the caller must be holding the last task.
    #[test]
    fn the_caller_claims_beside_its_helpers() {
        for threads in [2, 3] {
            let pool = TaskPool::new(threads).unwrap();
            let rendezvous = std::sync::Barrier::new(threads);
            let (ran_on, _) = pool
                .run(vec![(); threads], &|_, ()| {
                    rendezvous.wait();
                    std::thread::current().id()
                })
                .unwrap();
            assert!(ran_on.contains(&std::thread::current().id()));
            let distinct: std::collections::BTreeSet<_> =
                ran_on.iter().map(|id| format!("{id:?}")).collect();
            assert_eq!(distinct.len(), threads, "one task per executor");
        }
    }

    /// The caller fails like any worker: a panic in a task it claimed is
    /// caught and retried on the retained input, and an exhausted budget
    /// comes back as the typed error — nothing unwinds through `run`.
    #[test]
    fn a_panic_on_the_calling_thread_is_retried_then_typed() {
        let pool = TaskPool::new(1).unwrap();
        let failures_left = AtomicU64::new(2);
        let (outs, _) = pool
            .run(vec![10, 20, 30], &|_, x: i32| {
                if x == 20 && failures_left.load(Ordering::SeqCst) > 0 {
                    failures_left.fetch_sub(1, Ordering::SeqCst);
                    panic!("transient, on the caller");
                }
                x * 2
            })
            .unwrap();
        assert_eq!(outs, vec![20, 40, 60]);
        let result = pool.run(vec![0, 1, 2], &|_, x: i32| {
            if x >= 1 {
                panic!("poisoned, on the caller");
            }
            x
        });
        match result {
            Err(DistStreamError::TaskFailed { task, attempts, .. }) => {
                assert_eq!((task, attempts), (1, DEFAULT_MAX_TASK_FAILURES));
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    /// Regression: used to `assert!` — a panic on a value that arrives from
    /// configuration.
    #[test]
    fn zero_threads_is_a_typed_error() {
        let err = TaskPool::new(0).unwrap_err();
        assert!(matches!(&err, DistStreamError::InvalidConfig(m) if m.contains("thread count")));
    }

    #[test]
    fn split_chunks_is_contiguous_and_concat_restores_order() {
        let items: Vec<u32> = (0..103).collect();
        for chunk in [1, 7, 32, 103, 200] {
            let chunks = split_chunks(items.clone(), chunk);
            assert!(chunks.iter().all(|c| c.len() <= chunk));
            assert!(chunks.iter().rev().skip(1).all(|c| c.len() == chunk));
            assert_eq!(chunks.concat(), items, "chunk={chunk}");
        }
        assert!(split_chunks(Vec::<u32>::new(), 8).is_empty());
    }

    #[test]
    fn chunk_size_floors_and_overpartitions() {
        // Large batch: each of the 4 slots gets CHUNK_OVERPARTITION chunks.
        let size = chunk_size(12_000, 4);
        assert_eq!(size, 12_000usize.div_ceil(4 * CHUNK_OVERPARTITION));
        assert_eq!(12_000usize.div_ceil(size), 4 * CHUNK_OVERPARTITION);
        // Small batch: one balanced chunk per slot, never a tiny straggler
        // chunk behind MIN_CHUNK_SIZE-sized ones.
        assert_eq!(chunk_size(10, 8), 2);
        assert_eq!(chunk_size(100, 4), 25);
        // Mid-size batch: the per-slot factor grows only while chunks stay
        // at least MIN_CHUNK_SIZE.
        let mid = chunk_size(4 * MIN_CHUNK_SIZE * 2, 4);
        assert_eq!(mid, MIN_CHUNK_SIZE);
        // Chunk sizes never drop below MIN_CHUNK_SIZE once a slot has more
        // than one chunk.
        for n in [1usize, 10, 100, 129, 1000, 12_000] {
            for slots in [1usize, 3, 4, 8] {
                let c = chunk_size(n, slots);
                assert!(c >= 1);
                if n.div_ceil(c) > slots {
                    assert!(c >= MIN_CHUNK_SIZE, "n={n} slots={slots} c={c}");
                }
            }
        }
        // Deterministic: same inputs, same layout.
        assert_eq!(chunk_size(4999, 3), chunk_size(4999, 3));
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_panics() {
        let _ = split_chunks(vec![1], 0);
    }

    #[test]
    fn a_hook_delay_is_slept_inside_the_attempt() {
        let hook: &(dyn Fn(usize, usize) -> f64 + Sync) = &|_, _| 0.02;
        let (out, secs, retries) = execute_with_retry(0, 7u64, &|_, x| x + 1, Some(hook)).unwrap();
        assert_eq!(out, 8);
        assert!(secs >= 0.02, "injected delay must be timed, got {secs}");
        assert_eq!(retries, 0);
    }
}
