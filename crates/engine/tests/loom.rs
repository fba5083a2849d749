//! Model-checked concurrency tests for the engine's two shared-state
//! primitives: the [`TaskPool`] claim/output protocol and [`Broadcast`].
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p
//! diststream-engine --test loom`. The vendored loom is a deterministic
//! yield-injection stress harness, not an exhaustive interleaving
//! explorer; each `loom::model` closure is executed for many perturbed
//! schedules and every schedule must uphold the invariants below.
#![cfg(loom)]

use diststream_engine::{Broadcast, TaskPool};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// A loom-instrumented replica of `TaskPool::run`'s scheduling core: a
/// shared `fetch_add` cursor hands each task index to exactly one executor,
/// which reads its `Copy` input out of the shared input slice and writes
/// the output slot. As in the pool, the thread that starts the step is one
/// of the executors: it spawns `WORKERS − 1` helpers and then runs the same
/// claim loop itself.
///
/// Invariants checked on every explored schedule:
/// - no two executors claim the same index (each output slot is written
///   exactly once, with the right value);
/// - the caller's own claims obey the same rules as a helper's.
#[test]
fn claim_protocol_assigns_each_task_to_exactly_one_worker() {
    const TASKS: usize = 4;
    const WORKERS: usize = 3;

    loom::model(|| {
        let inputs: Arc<Vec<usize>> = Arc::new((0..TASKS).collect());
        let results: Arc<Vec<Mutex<Option<usize>>>> =
            Arc::new((0..TASKS).map(|_| Mutex::new(None)).collect());
        let cursor = Arc::new(AtomicUsize::new(0));

        let claim_loop = {
            let inputs = Arc::clone(&inputs);
            let results = Arc::clone(&results);
            let cursor = Arc::clone(&cursor);
            move || loop {
                let idx = cursor.fetch_add(1, Ordering::SeqCst);
                let Some(&input) = inputs.get(idx) else {
                    break;
                };
                // The claim above is exclusive, so nobody else can have
                // written this task's output.
                let mut out = results[idx].lock().unwrap();
                assert!(out.is_none(), "output slot {idx} written twice");
                *out = Some(input * 10);
            }
        };
        let helpers: Vec<_> = (1..WORKERS)
            .map(|_| thread::spawn(claim_loop.clone()))
            .collect();
        // The model thread claims beside its helpers, then joins them.
        claim_loop();
        for h in helpers {
            h.join().unwrap();
        }

        for (i, cell) in results.iter().enumerate() {
            assert_eq!(
                *cell.lock().unwrap(),
                Some(i * 10),
                "output slot {i} missing or wrong"
            );
        }
        // Cursor overshoot is bounded: each executor exits after one failed
        // claim, so at most TASKS + WORKERS increments ever happen.
        let final_cursor = cursor.load(Ordering::SeqCst);
        assert!(
            final_cursor <= TASKS + WORKERS,
            "cursor advanced past the executor-exit bound: {final_cursor}"
        );
    });
}

/// The real `TaskPool::run` under perturbed schedules: outputs must be
/// complete, in task order, and identical on every explored schedule.
#[test]
fn task_pool_outputs_complete_and_identical_across_schedules() {
    let expected: Vec<u64> = (0..16u64).map(|x| x * x + 1).collect();
    loom::model(|| {
        let pool = TaskPool::new(4).unwrap();
        let inputs: Vec<u64> = (0..16).collect();
        let (outs, secs) = pool
            .run(inputs, &|idx, x: u64| {
                loom::thread::yield_now();
                assert_eq!(idx as u64, x, "task index and input desynchronized");
                x * x + 1
            })
            .expect("pool run failed");
        assert_eq!(outs, expected, "outputs incomplete or out of task order");
        assert_eq!(secs.len(), expected.len());
    });
}

/// A loom-instrumented replica of the `SnapshotSlot` publish/read protocol:
/// a version counter bumped under the same mutex that guards the
/// `(epoch, value)` pair, with readers that refresh only on version change
/// and re-read the version under the lock.
///
/// Invariants checked on every explored schedule:
/// - a reader never observes a pair whose content mismatches its epoch
///   (no torn version/value pairing);
/// - epochs observed by a single reader are nondecreasing;
/// - after the writer joins, a fresh read sees the final epoch.
#[test]
fn snapshot_slot_readers_never_observe_torn_pairs() {
    const EPOCHS: u64 = 3;

    loom::model(|| {
        let version = Arc::new(AtomicUsize::new(0));
        let slot: Arc<Mutex<Option<(u64, u64)>>> = Arc::new(Mutex::new(None));

        let writer = {
            let version = Arc::clone(&version);
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                for epoch in 1..=EPOCHS {
                    let mut guard = slot.lock().unwrap();
                    *guard = Some((epoch, epoch * 10));
                    version.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let version = Arc::clone(&version);
                let slot = Arc::clone(&slot);
                thread::spawn(move || {
                    let mut seen = 0usize;
                    let mut cached: Option<(u64, u64)> = None;
                    for _ in 0..EPOCHS {
                        if version.load(Ordering::SeqCst) != seen {
                            let guard = slot.lock().unwrap();
                            seen = version.load(Ordering::SeqCst);
                            let fresh = *guard;
                            if let Some((epoch, value)) = fresh {
                                assert_eq!(value, epoch * 10, "torn epoch/value pair");
                                if let Some((prev, _)) = cached {
                                    assert!(epoch >= prev, "epoch went backwards");
                                }
                            }
                            cached = fresh;
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();

        writer.join().unwrap();
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(version.load(Ordering::SeqCst), EPOCHS as usize);
        assert_eq!(*slot.lock().unwrap(), Some((EPOCHS, EPOCHS * 10)));
    });
}

/// Broadcast publish/read: once constructed, every concurrent reader —
/// through clones and handles alike — observes the same payload and the
/// same recorded payload size.
#[test]
fn broadcast_readers_observe_one_consistent_payload() {
    loom::model(|| {
        let model: Vec<u64> = (0..32).collect();
        let b = Broadcast::new(model.clone());
        let expected_bytes = b.payload_bytes();

        let handles: Vec<_> = (0..3)
            .map(|_| {
                let b = b.clone();
                let model = model.clone();
                thread::spawn(move || {
                    assert_eq!(*b.handle(), model, "reader saw a torn broadcast value");
                    assert_eq!(
                        b.payload_bytes(),
                        expected_bytes,
                        "payload size drifted between clones"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // The original is untouched by concurrent reads.
        assert_eq!(*b, model);
    });
}
