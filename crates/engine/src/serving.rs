//! Epoch-published snapshot slot: single-writer, many-reader handoff of an
//! immutable value at batch boundaries.
//!
//! The driver publishes an `Arc`-wrapped snapshot once per batch; concurrent
//! readers answer queries from their cached `Arc` and only touch the shared
//! slot when the version counter says a newer snapshot exists. Steady-state
//! reads are therefore a single atomic load — the mutex is taken once per
//! *publish*, not once per *read*, so readers never contend with the driver
//! between batch boundaries.
//!
//! The protocol:
//!
//! - [`SnapshotSlot::publish`] stores `(epoch, Arc<T>)` and bumps the version
//!   counter while holding the slot mutex, so a version value observed under
//!   the lock always matches the stored pair.
//! - [`SnapshotReader::current`] loads the version; if it equals the cached
//!   version the cached pair is returned without synchronization. Otherwise
//!   the reader takes the lock once, clones the pair, and records the version
//!   read *under the same lock* — the cache can never pair a stale version
//!   with a fresh snapshot or vice versa.
//!
//! Snapshots are immutable by construction: `publish` consumes the value and
//! readers only ever receive `Arc<T>` clones, so an epoch-`N` snapshot held by
//! a reader is untouched by the epoch-`N+1` publish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared single-writer snapshot cell. Wrap in an [`Arc`] (or use
/// [`SnapshotSlot::shared`]) to hand clones to the driver and readers.
#[derive(Debug, Default)]
pub struct SnapshotSlot<T> {
    /// Number of publishes so far; `0` means nothing has been published.
    version: AtomicU64,
    /// The latest `(epoch, snapshot)` pair, if any.
    slot: Mutex<Option<(u64, Arc<T>)>>,
}

impl<T> SnapshotSlot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            slot: Mutex::new(None),
        }
    }

    /// Creates an empty slot already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Publishes `value` as the snapshot for `epoch`, replacing any previous
    /// snapshot. The version bump happens under the slot lock so readers can
    /// never observe a version/pair mismatch.
    pub fn publish(&self, epoch: u64, value: T) {
        let mut guard = self.locked();
        *guard = Some((epoch, Arc::new(value)));
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Number of publishes so far (`0` = empty). Monotonically nondecreasing.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Clones the latest `(epoch, snapshot)` pair, taking the lock.
    /// Hot paths should go through a [`SnapshotReader`] instead.
    pub fn latest(&self) -> Option<(u64, Arc<T>)> {
        self.locked().clone()
    }

    /// The slot, locked; poison is ignored, as the pair is written whole.
    fn locked(&self) -> MutexGuard<'_, Option<(u64, Arc<T>)>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a caching read handle bound to this slot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader<T> {
        SnapshotReader {
            slot: Arc::clone(self),
            seen_version: 0,
            cached: None,
        }
    }
}

/// Per-thread read handle: caches the last observed `(epoch, snapshot)` pair
/// and refreshes it only when the slot's version counter moves.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    slot: Arc<SnapshotSlot<T>>,
    seen_version: u64,
    cached: Option<(u64, Arc<T>)>,
}

impl<T> SnapshotReader<T> {
    /// Returns the latest published `(epoch, snapshot)` pair, or `None` if
    /// nothing has been published yet. Lock-free when the cached snapshot is
    /// still current (one `SeqCst` load); takes the slot lock exactly once
    /// per new publish.
    pub fn current(&mut self) -> Option<(u64, &Arc<T>)> {
        if self.slot.version.load(Ordering::SeqCst) != self.seen_version {
            let guard = self.slot.locked();
            // Re-read the version under the lock: publish bumps it while
            // holding the same lock, so this pairing is exact.
            self.seen_version = self.slot.version.load(Ordering::SeqCst);
            self.cached = guard.clone();
        }
        self.cached.as_ref().map(|(epoch, value)| (*epoch, value))
    }
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        Self {
            slot: Arc::clone(&self.slot),
            seen_version: self.seen_version,
            cached: self.cached.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn empty_slot_reads_none() {
        let slot: Arc<SnapshotSlot<Vec<u8>>> = SnapshotSlot::shared();
        let mut reader = slot.reader();
        assert_eq!(slot.version(), 0);
        assert!(reader.current().is_none());
        assert!(slot.latest().is_none());
    }

    #[test]
    fn publish_then_read_sees_epoch_and_value() {
        let slot = SnapshotSlot::shared();
        slot.publish(7, vec![1u8, 2, 3]);
        let mut reader = slot.reader();
        let (epoch, value) = reader.current().expect("published");
        assert_eq!(epoch, 7);
        assert_eq!(**value, vec![1, 2, 3]);
        assert_eq!(slot.version(), 1);
    }

    #[test]
    fn reader_cache_is_stable_between_publishes() {
        let slot = SnapshotSlot::shared();
        slot.publish(1, String::from("a"));
        let mut reader = slot.reader();
        let first = Arc::clone(reader.current().unwrap().1);
        // No new publish: the same Arc is returned, no slot re-read.
        let again = Arc::clone(reader.current().unwrap().1);
        assert!(Arc::ptr_eq(&first, &again));

        slot.publish(2, String::from("b"));
        let (epoch, value) = reader.current().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(**value, "b");
        // The epoch-1 snapshot a reader pinned is untouched by the publish.
        assert_eq!(*first, "a");
    }

    #[test]
    fn cloned_reader_keeps_its_own_cache() {
        let slot = SnapshotSlot::shared();
        slot.publish(1, 10u64);
        let mut a = slot.reader();
        assert_eq!(a.current().map(|(e, v)| (e, **v)), Some((1, 10)));
        let mut b = a.clone();
        slot.publish(2, 20u64);
        assert_eq!(b.current().map(|(e, v)| (e, **v)), Some((2, 20)));
        // `a` is unaffected by `b`'s refresh until it checks for itself.
        assert_eq!(a.cached.as_ref().map(|(epoch, _)| *epoch), Some(1));
        assert_eq!(a.current().map(|(e, v)| (e, **v)), Some((2, 20)));
    }

    /// Concurrent readers racing a publisher never observe a torn pair:
    /// every observed snapshot's content matches its epoch exactly.
    #[test]
    fn concurrent_readers_never_observe_version_value_mismatch() {
        const EPOCHS: u64 = 200;
        let slot: Arc<SnapshotSlot<Vec<u64>>> = SnapshotSlot::shared();
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let mut reader = slot.reader();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::SeqCst) {
                        if let Some((epoch, value)) = reader.current() {
                            assert_eq!(
                                value.as_slice(),
                                &[epoch, epoch * 2],
                                "snapshot content does not match its epoch"
                            );
                            assert!(epoch >= last_epoch, "epoch went backwards");
                            last_epoch = epoch;
                        }
                    }
                    last_epoch
                })
            })
            .collect();

        for epoch in 1..=EPOCHS {
            slot.publish(epoch, vec![epoch, epoch * 2]);
        }
        stop.store(true, Ordering::SeqCst);
        for handle in readers {
            let last = handle.join().expect("reader panicked");
            assert!(last <= EPOCHS);
        }
        assert_eq!(slot.version(), EPOCHS);
        assert_eq!(slot.latest().map(|(e, _)| e), Some(EPOCHS));
    }
}
