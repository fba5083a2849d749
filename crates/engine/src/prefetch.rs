//! Ingest/reorder prefetch — a one-batch lead on a rendezvous hand-off.
//!
//! Synchronously, the driver drains the source (and any [`ReorderBuffer`]
//! wrapped around it) for batch *N+1* only after batch *N*'s global update
//! finishes, so source decode and order-recovery cost sits on the batch
//! critical path. [`prefetch_batches`] moves that drain onto a dedicated
//! worker: while the driver processes batch *N*, the worker drains batch
//! *N+1*, then blocks handing it over until the driver's next pull takes
//! it — a rendezvous channel with no slot, so the driver's pull is a
//! receive instead of a source drain.
//!
//! **Lead.** The worker is at most one batch ahead: beyond the batch in
//! process there is at most one finished batch, plus the one look-ahead
//! record the batcher holds to see a window close — two batches live, never
//! three. A staged batch would not start sooner, only wait longer: every
//! record of a queued batch pays the queue's wait in latency, and the queue
//! holds its records in memory. The driver retires batch *N* before it
//! pulls *N+1*, so the worker frees *N* before it drains *N+2*.
//!
//! **Determinism.** The worker runs the same [`MiniBatcher`] the
//! synchronous path would, over the same source, producing the identical
//! batch sequence; only *when* batches are materialized changes. Batches
//! are consumed strictly in order through a FIFO channel, so everything
//! downstream (task layout, fault coordinates, checkpoint cursors) is
//! untouched.
//!
//! **Fault transparency.** A panic while draining the source (including
//! one injected into the batcher) is caught on the worker, shipped through
//! the channel, and re-raised on the consumer thread at the same pull that
//! would have panicked synchronously — so a faulted prefetched batch is
//! observably identical to a faulted synchronous one. Task-level
//! [`FaultPlan`](crate::FaultPlan) panics are unaffected either way: they
//! fire inside `run_tasks`, which prefetching does not touch.
//!
//! [`ReorderBuffer`]: crate::ReorderBuffer

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use diststream_telemetry as telemetry;

use crate::batcher::{MiniBatch, MiniBatcher};
use crate::source::RecordSource;

/// What the prefetch worker ships to the consumer.
enum Staged {
    /// The next mini-batch, drained and reordered off the critical path.
    Batch(MiniBatch),
    /// The worker's drain panicked; the payload is re-raised at the
    /// consumer's matching pull.
    Poisoned(Box<dyn std::any::Any + Send>),
}

/// The consumer's handle: an ordered iterator over prefetched batches.
///
/// Yields exactly the batches the synchronous [`MiniBatcher`] would yield,
/// in the same order. If the worker's source drain panicked, the panic
/// resumes here — on the pull that would have panicked synchronously.
pub struct PrefetchedBatches {
    rx: mpsc::Receiver<Staged>,
    retired: mpsc::Sender<Box<dyn Send>>,
    /// Microseconds this side waited for a staged batch (traced runs).
    waited: Option<Arc<telemetry::Counter>>,
}

impl PrefetchedBatches {
    /// Hands a spent batch (in whatever form the consumer left it) to the
    /// worker, which allocated its records: freed here they are thousands
    /// of cross-thread frees on the critical path. The worker frees before
    /// it drains the next batch, and the rendezvous keeps it one batch
    /// ahead, so at most one spent batch waits.
    pub fn retire(&self, spent: impl Send + 'static) {
        // The worker outlives this handle; were it gone, the failed send
        // would drop the batch right here.
        let _ = self.retired.send(Box::new(spent));
    }
}

impl Iterator for PrefetchedBatches {
    type Item = MiniBatch;

    fn next(&mut self) -> Option<MiniBatch> {
        match waiting(self.waited.as_deref(), || self.rx.recv()) {
            Ok(Staged::Batch(batch)) => Some(batch),
            // Same observable behavior as the synchronous drain panicking.
            Ok(Staged::Poisoned(payload)) => panic::resume_unwind(payload),
            // Worker exhausted the source and hung up.
            Err(mpsc::RecvError) => None,
        }
    }
}

/// Runs `wait` — a blocking end of the staging channel — and, when a
/// counter is given, adds the microseconds it blocked to it.
fn waiting<T>(waited: Option<&telemetry::Counter>, wait: impl FnOnce() -> T) -> T {
    let Some(waited) = waited else {
        return wait();
    };
    let start = Instant::now(); // lint:allow(wallclock-entropy) feeds a telemetry counter only
    let out = wait();
    waited.add(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    out
}

/// Runs `consume` over the mini-batches of `source`, drained by a
/// dedicated prefetch worker that stays one batch ahead of the consumer.
///
/// Equivalent to `consume` iterating `MiniBatcher::new(source, batch_secs)`
/// directly — same batches, same order, same panics — but with the source
/// drain overlapped against whatever `consume` does between pulls. Once
/// `consume` returns the worker stops staging, frees what was
/// [retired](PrefetchedBatches::retire) and is joined, so no work outlives
/// the call.
///
/// Each staged drain is recorded as a `prefetch` telemetry span and each
/// freed batch as a `retire` span, both on the worker thread (never nested
/// inside a `batch` span — the batch spans live on the driver thread;
/// `xtask check-trace` enforces this). Which side of the channel waits for
/// the other is counted too, in microseconds: the consumer's waits for a
/// staged batch in `diststream_prefetch_driver_wait_us_total`, the worker's
/// waits to hand one over in `diststream_prefetch_worker_wait_us_total`.
/// Both are registered at zero when telemetry is on, and neither clock is
/// read when it is off.
///
/// # Panics
///
/// Re-raises any panic from draining the source, at the consumer's
/// matching pull (see [`PrefetchedBatches::next`]).
///
/// # Examples
///
/// ```
/// use diststream_engine::{prefetch_batches, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let records: Vec<Record> = (0..10)
///     .map(|i| Record::new(i, Point::zeros(1), Timestamp::from_secs(i as f64 * 0.1)))
///     .collect();
/// let batches = prefetch_batches(VecSource::new(records), 0.5, |batches| {
///     batches.collect::<Vec<_>>()
/// });
/// assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 10);
/// ```
pub fn prefetch_batches<S, T, F>(source: S, batch_secs: f64, consume: F) -> T
where
    S: RecordSource + Send,
    F: FnOnce(&mut PrefetchedBatches) -> T,
{
    // Construct the batcher on the caller thread so argument validation
    // panics synchronously, exactly like the non-prefetched path.
    let mut batcher = MiniBatcher::new(source, batch_secs);
    // A rendezvous: `send` returns once the consumer has taken the batch.
    let (tx, rx) = mpsc::sync_channel::<Staged>(0);
    let (retired, retired_rx) = mpsc::channel::<Box<dyn Send>>();
    let driver_waited = telemetry::enabled()
        .then(|| telemetry::counter(telemetry::names::METRIC_PREFETCH_DRIVER_WAIT_US_TOTAL));
    let worker_waited = telemetry::enabled()
        .then(|| telemetry::counter(telemetry::names::METRIC_PREFETCH_WORKER_WAIT_US_TOTAL));
    let free = |spent: Box<dyn Send>| {
        let _span = telemetry::span!(telemetry::names::SPAN_RETIRE);
        drop(spent);
    };
    // The scope joins the worker before it returns, and re-raises a panic
    // of `consume` after that join, payload intact. The worker catches its
    // own panics, so none escapes it.
    // lint:allow(thread-spawn) the prefetch worker lives across steps, so it cannot be a pool task
    thread::scope(move |s| {
        s.spawn(move || {
            loop {
                retired_rx.try_iter().for_each(free);
                // Catch the drain's panic here and forward it so the
                // consumer observes it at the same pull as the sync path;
                // a raw worker panic would instead surface as a scope
                // error with the payload's pull position lost.
                let staged = panic::catch_unwind(AssertUnwindSafe(|| {
                    let _span = telemetry::span!(telemetry::names::SPAN_PREFETCH);
                    batcher.next()
                }));
                match staged {
                    // A send error means the consumer hung up early (it
                    // stopped on an error); just stop staging.
                    Ok(Some(batch)) => {
                        let staged = || tx.send(Staged::Batch(batch));
                        if waiting(worker_waited.as_deref(), staged).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(payload) => {
                        let _ = tx.send(Staged::Poisoned(payload));
                        break;
                    }
                }
            }
            // End of stream for the consumer; what it retires from here on
            // is freed here too: one `retire` span each, whatever the timing.
            drop(tx);
            retired_rx.iter().for_each(free);
        });
        consume(&mut PrefetchedBatches {
            rx,
            retired,
            waited: driver_waited,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use diststream_types::{Point, Record, Timestamp};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i, Point::zeros(1), Timestamp::from_secs(i as f64 * 0.25)))
            .collect()
    }

    #[test]
    fn prefetched_batches_equal_synchronous_batches() {
        let sync: Vec<MiniBatch> = MiniBatcher::new(VecSource::new(records(57)), 1.0).collect();
        let prefetched =
            prefetch_batches(VecSource::new(records(57)), 1.0, |b| b.collect::<Vec<_>>());
        assert_eq!(prefetched, sync);
        assert!(sync.len() > 1, "test needs multiple batches");
    }

    #[test]
    fn empty_source_yields_no_batches() {
        let batches = prefetch_batches(VecSource::new(Vec::new()), 1.0, |b| b.count());
        assert_eq!(batches, 0);
    }

    #[test]
    fn consumer_may_stop_early() {
        // Dropping the handle after one batch must not wedge the worker.
        let first = prefetch_batches(VecSource::new(records(100)), 1.0, |b| b.next());
        assert!(first.is_some());
    }

    /// Counts the records pulled from the source it wraps.
    struct Counted {
        source: VecSource,
        pulled: Arc<AtomicUsize>,
    }

    impl RecordSource for Counted {
        fn next_record(&mut self) -> Option<Record> {
            let record = self.source.next_record();
            if record.is_some() {
                self.pulled.fetch_add(1, Ordering::SeqCst);
            }
            record
        }
    }

    /// `pulled` once it has held still for 50 ms (waiting at most 5 s).
    fn settled(pulled: &AtomicUsize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut last = pulled.load(Ordering::SeqCst);
        let mut still_since = Instant::now();
        while still_since.elapsed() < Duration::from_millis(50) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            let now = pulled.load(Ordering::SeqCst);
            if now != last {
                last = now;
                still_since = Instant::now();
            }
        }
        last
    }

    /// The worker drains one batch ahead of the consumer and then waits for
    /// it: holding batch `k`, the consumer has let the source be pulled
    /// through batch `k+1` plus the batcher's one look-ahead record, never
    /// further, however long it dawdles. A one-slot channel fails this —
    /// the worker parks `k+1` and drains `k+2` as well.
    #[test]
    fn worker_stays_one_batch_ahead() {
        let sizes: Vec<usize> = MiniBatcher::new(VecSource::new(records(40)), 1.0)
            .map(|b| b.len())
            .collect();
        assert!(sizes.len() > 5, "test needs several batches");
        let pulled = Arc::new(AtomicUsize::new(0));
        let source = Counted {
            source: VecSource::new(records(40)),
            pulled: Arc::clone(&pulled),
        };
        let seen = prefetch_batches(source, 1.0, |batches| {
            (0..3)
                .map(|k| {
                    assert!(batches.next().is_some());
                    (k, settled(&pulled))
                })
                .collect::<Vec<_>>()
        });
        for (k, seen) in seen {
            let bound = sizes[..=k + 1].iter().sum::<usize>() + 1;
            assert!(
                seen <= bound,
                "holding batch {k} the source was pulled {seen} times; one batch ahead is {bound}"
            );
        }
    }

    /// Records where it is dropped.
    struct Spent<'a>(&'a std::sync::Mutex<Vec<std::thread::ThreadId>>);

    impl Drop for Spent<'_> {
        fn drop(&mut self) {
            if let Ok(mut log) = self.0.lock() {
                log.push(std::thread::current().id());
            }
        }
    }

    /// Every retired batch is freed on the worker — also the ones retired
    /// after the source ran dry, and also when the consumer stops early —
    /// and all of them before `prefetch_batches` returns.
    #[test]
    fn retired_batches_are_dropped_by_the_worker() {
        static DROPS: std::sync::Mutex<Vec<std::thread::ThreadId>> =
            std::sync::Mutex::new(Vec::new());
        let consumer = std::thread::current().id();
        let mut retired = 0;
        for stop_after in [usize::MAX, 2] {
            prefetch_batches(VecSource::new(records(40)), 1.0, |batches| {
                let mut pulled = 0;
                while pulled < stop_after && batches.next().is_some() {
                    pulled += 1;
                    batches.retire(Spent(&DROPS));
                    retired += 1;
                }
            });
            let drops = DROPS.lock().unwrap();
            assert_eq!(drops.len(), retired, "stop_after={stop_after}");
            assert!(drops.iter().all(|id| *id != consumer));
        }
        assert!(retired > 10, "test needs several batches");
    }

    /// A source that panics mid-stream, standing in for a poisoned ingest.
    struct PoisonedSource {
        yielded: u64,
        panic_at: u64,
    }

    impl RecordSource for PoisonedSource {
        fn next_record(&mut self) -> Option<Record> {
            if self.yielded == self.panic_at {
                // lint:allow(panic-path) scripted test fault
                panic!("poisoned ingest at record {}", self.yielded);
            }
            let i = self.yielded;
            self.yielded += 1;
            Some(Record::new(
                i,
                Point::zeros(1),
                Timestamp::from_secs(i as f64),
            ))
        }
    }

    #[test]
    fn ingest_panic_resumes_on_consumer_at_matching_pull() {
        // Panic at record 6 with 1s batches: batches 0..=5 hold one record
        // each; the pull for the next batch panics — same as synchronous.
        let sync_count = {
            let mut batcher = MiniBatcher::new(
                PoisonedSource {
                    yielded: 0,
                    panic_at: 6,
                },
                1.0,
            );
            let mut n = 0;
            while let Ok(Some(_)) = panic::catch_unwind(AssertUnwindSafe(|| batcher.next())) {
                n += 1;
            }
            n
        };
        let mut prefetched_count = 0;
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            prefetch_batches(
                PoisonedSource {
                    yielded: 0,
                    panic_at: 6,
                },
                1.0,
                |batches| {
                    for _ in batches {
                        prefetched_count += 1;
                    }
                },
            );
        }));
        let payload = caught.expect_err("ingest panic must propagate to the consumer");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("poisoned ingest"), "payload: {message:?}");
        assert_eq!(
            prefetched_count, sync_count,
            "panic must land at the same pull as the synchronous path"
        );
    }
}
