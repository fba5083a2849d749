//! Bounded-disorder reordering — restoring arrival order at ingestion.
//!
//! DistStream's order-aware mechanism assumes the source delivers records in
//! arrival order (true for the paper's single Kafka producer). Real
//! multi-partition ingestion delivers *almost*-ordered streams. This module
//! provides [`ReorderBuffer`], a watermark-based adapter: it holds records
//! in a min-heap and releases one only when the watermark — the latest
//! timestamp seen minus the allowed lateness — has passed it, restoring
//! exact order for any disorder bounded by `max_lateness_secs`. Records
//! later than the watermark are counted and dropped (the classic
//! late-data policy).
//!
//! At-least-once sources may also *re-deliver* records (a replayed Kafka
//! segment). The buffer deduplicates at the release point: a record whose
//! arrival key is not greater than the last released key is suppressed, so
//! downstream batching sees each key exactly once, in strictly increasing
//! order, no matter how the source retries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use diststream_telemetry as telemetry;
use diststream_types::{Record, RecordId, Timestamp};

use crate::source::RecordSource;

/// Cached telemetry handles: registered once at construction so the
/// per-record release path touches only lock-free atomics. Every update is
/// gated on the global telemetry switch and strictly observational.
#[derive(Debug)]
struct ReorderTelemetry {
    depth: Arc<telemetry::Gauge>,
    stall_secs: Arc<telemetry::Histogram>,
    dropped_late: Arc<telemetry::Counter>,
    dropped_duplicate: Arc<telemetry::Counter>,
}

impl ReorderTelemetry {
    fn new() -> Self {
        ReorderTelemetry {
            depth: telemetry::gauge(telemetry::names::METRIC_REORDER_DEPTH),
            stall_secs: telemetry::histogram(
                telemetry::names::METRIC_REORDER_STALL_SECS,
                &[1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0],
            ),
            dropped_late: telemetry::counter(telemetry::names::METRIC_REORDER_DROPPED_LATE_TOTAL),
            dropped_duplicate: telemetry::counter(
                telemetry::names::METRIC_REORDER_DROPPED_DUPLICATE_TOTAL,
            ),
        }
    }
}

/// A [`RecordSource`] adapter that restores arrival order under bounded
/// disorder.
///
/// # Examples
///
/// ```
/// use diststream_engine::{RecordSource, ReorderBuffer, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// // Records arrive slightly shuffled (disorder ≤ 2 s).
/// let shuffled: Vec<Record> = [2.0, 0.0, 1.0, 3.0]
///     .iter()
///     .enumerate()
///     .map(|(i, &t)| Record::new(i as u64, Point::zeros(1), Timestamp::from_secs(t)))
///     .collect();
/// let mut src = ReorderBuffer::new(VecSource::new(shuffled), 2.0);
/// let times: Vec<f64> = std::iter::from_fn(|| src.next_record())
///     .map(|r| r.timestamp.secs())
///     .collect();
/// assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(src.dropped_late(), 0);
/// ```
#[derive(Debug)]
pub struct ReorderBuffer<S> {
    inner: S,
    max_lateness_secs: f64,
    heap: BinaryHeap<Reverse<(Timestamp, RecordId, HeapRecord)>>,
    watermark: Timestamp,
    inner_exhausted: bool,
    dropped_late: usize,
    dropped_duplicate: usize,
    /// Arrival key of the last record released downstream. Release-point
    /// deduplication compares against it, which also guarantees releases
    /// are strictly increasing.
    last_released: Option<(Timestamp, RecordId)>,
    telemetry: ReorderTelemetry,
}

/// Wrapper making `Record` usable inside the heap ordering tuple (ordering
/// is fully determined by the leading `(Timestamp, RecordId)` pair).
#[derive(Debug, Clone)]
struct HeapRecord(Record);

impl PartialEq for HeapRecord {
    fn eq(&self, other: &Self) -> bool {
        self.0.arrival_key() == other.0.arrival_key()
    }
}
impl Eq for HeapRecord {}
impl PartialOrd for HeapRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.arrival_key().cmp(&other.0.arrival_key())
    }
}

impl<S: RecordSource> ReorderBuffer<S> {
    /// Wraps `inner`, tolerating timestamp disorder up to
    /// `max_lateness_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `max_lateness_secs` is negative or not finite.
    pub fn new(inner: S, max_lateness_secs: f64) -> Self {
        assert!(
            max_lateness_secs >= 0.0 && max_lateness_secs.is_finite(),
            "lateness bound must be non-negative and finite"
        );
        ReorderBuffer {
            inner,
            max_lateness_secs,
            heap: BinaryHeap::new(),
            watermark: Timestamp::from_secs(f64::NEG_INFINITY),
            inner_exhausted: false,
            dropped_late: 0,
            dropped_duplicate: 0,
            last_released: None,
            telemetry: ReorderTelemetry::new(),
        }
    }

    /// Records dropped because they arrived later than the watermark.
    pub fn dropped_late(&self) -> usize {
        self.dropped_late
    }

    /// Records suppressed because their arrival key was already released
    /// (at-least-once re-delivery).
    pub fn dropped_duplicates(&self) -> usize {
        self.dropped_duplicate
    }

    /// Records currently buffered awaiting the watermark.
    pub fn buffered(&self) -> usize {
        self.heap.len()
    }

    fn pull_until_releasable(&mut self) {
        while !self.inner_exhausted {
            // Release as soon as the oldest buffered record clears the
            // watermark.
            if let Some(Reverse((t, _, _))) = self.heap.peek() {
                if t.secs() + self.max_lateness_secs <= self.watermark.secs() {
                    return;
                }
            }
            match self.inner.next_record() {
                Some(r) => {
                    if r.timestamp.secs() + self.max_lateness_secs < self.watermark.secs() {
                        // Too late: beyond the disorder bound.
                        self.dropped_late += 1;
                        if telemetry::enabled() {
                            self.telemetry.dropped_late.inc();
                        }
                        continue;
                    }
                    self.watermark = self.watermark.max(r.timestamp);
                    self.heap.push(Reverse((r.timestamp, r.id, HeapRecord(r))));
                    if telemetry::enabled() {
                        // Depth on *push* too: between releases a stalled
                        // buffer grows here, and that growth is exactly the
                        // overload signal backpressure watches. Setting it
                        // only at release (the pre-fix behavior) hid the
                        // backlog until the next release.
                        self.telemetry.depth.set(self.heap.len() as f64);
                    }
                }
                None => self.inner_exhausted = true,
            }
        }
    }
}

impl<S: RecordSource> RecordSource for ReorderBuffer<S> {
    fn next_record(&mut self) -> Option<Record> {
        loop {
            self.pull_until_releasable();
            let record = self.heap.pop().map(|Reverse((_, _, r))| r.0)?;
            let key = record.arrival_key();
            match self.last_released {
                // A key at or below the last release is a re-delivery (or
                // an equal-timestamp straggler whose tie already went out);
                // releasing it would break strict arrival order downstream.
                Some(last) if key <= last => {
                    self.dropped_duplicate += 1;
                    if telemetry::enabled() {
                        self.telemetry.dropped_duplicate.inc();
                    }
                    continue;
                }
                _ => {}
            }
            // Guaranteed by the dedup arm above; asserted here so the
            // invariant survives future edits to the release logic.
            #[cfg(feature = "debug_invariants")]
            assert!(
                self.last_released.is_none_or(|last| last < key),
                "debug_invariants: reorder buffer released records out of arrival order \
                 ({:?} after {:?})",
                key,
                self.last_released,
            );
            self.last_released = Some(key);
            if telemetry::enabled() {
                // Depth after this release, and the record's *event-time*
                // stall: how far behind the watermark it was when it got
                // out. Both deterministic (no wall-clock reads), so
                // tracing cannot perturb replays.
                self.telemetry.depth.set(self.heap.len() as f64);
                let stall = (self.watermark.secs() - record.timestamp.secs()).max(0.0);
                if stall.is_finite() {
                    self.telemetry.stall_secs.observe(stall);
                }
            }
            return Some(record);
        }
    }

    /// Upper bound on the records still to come: buffered records may yet
    /// be dropped as duplicates, so the hint can over-count — it never
    /// under-counts.
    ///
    /// Once the inner source is exhausted its missing hint no longer
    /// matters: everything left lives in the heap, and `Some(heap.len())`
    /// is reported instead of hiding those records behind a `None` (the
    /// pre-fix behavior, which reported a full buffer as an unknown-length
    /// stream). The sum saturates at `usize::MAX`.
    fn len_hint(&self) -> Option<usize> {
        match self.inner.len_hint() {
            Some(n) => Some(n.saturating_add(self.heap.len())),
            None if self.inner_exhausted => Some(self.heap.len()),
            None => None,
        }
    }

    /// The reorder backlog: records buffered awaiting the watermark, plus
    /// whatever the inner source is itself holding back.
    fn backlog_hint(&self) -> usize {
        self.heap.len() + self.inner.backlog_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use diststream_types::Point;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn rec(id: u64, t: f64) -> Record {
        Record::new(id, Point::zeros(1), Timestamp::from_secs(t))
    }

    fn drain<S: RecordSource>(mut src: S) -> Vec<Record> {
        std::iter::from_fn(move || src.next_record()).collect()
    }

    #[test]
    fn already_ordered_passes_through() {
        let recs: Vec<Record> = (0..50).map(|i| rec(i, i as f64)).collect();
        let out = drain(ReorderBuffer::new(VecSource::new(recs.clone()), 5.0));
        assert_eq!(out, recs);
    }

    /// A source that refuses to estimate its remaining length, like a
    /// socket-backed stream would.
    struct NoHintSource(VecSource);

    impl RecordSource for NoHintSource {
        fn next_record(&mut self) -> Option<Record> {
            self.0.next_record()
        }
        // len_hint left at the trait default: None.
    }

    #[test]
    fn len_hint_counts_heap_once_inner_is_exhausted() {
        // Large lateness bound: the buffer swallows the entire inner source
        // before releasing anything, so after one pull the heap holds all
        // remaining records while the inner hint is None. The pre-fix hint
        // returned None here, hiding a full buffer from its caller.
        let recs: Vec<Record> = (0..10).map(|i| rec(i, i as f64)).collect();
        let mut buf = ReorderBuffer::new(NoHintSource(VecSource::new(recs)), 1e9);
        assert_eq!(buf.len_hint(), None, "nothing buffered, nothing known");
        let first = buf.next_record().unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(
            buf.len_hint(),
            Some(9),
            "inner exhausted: the heap is everything that remains"
        );
        let rest = drain(buf);
        assert_eq!(rest.len(), 9, "hint must not under-count");
    }

    /// A source whose hint is already at the top of `usize`, like a replay
    /// too long to count.
    struct UncountedSource(VecSource);

    impl RecordSource for UncountedSource {
        fn next_record(&mut self) -> Option<Record> {
            self.0.next_record()
        }

        fn len_hint(&self) -> Option<usize> {
            Some(usize::MAX)
        }
    }

    #[test]
    fn len_hint_saturates_over_an_uncounted_inner_source() {
        let recs: Vec<Record> = (0..10).map(|i| rec(i, i as f64)).collect();
        let mut buf = ReorderBuffer::new(UncountedSource(VecSource::new(recs)), 1e9);
        buf.next_record().unwrap();
        assert_eq!(buf.len_hint(), Some(usize::MAX), "nine buffered on top");
    }

    #[test]
    fn len_hint_is_an_upper_bound_under_duplicates() {
        // Record 3 is delivered twice; the second copy will be dropped as a
        // duplicate at release time, so the hint may over-count but never
        // under-count.
        let mut recs: Vec<Record> = (0..6).map(|i| rec(i, i as f64)).collect();
        recs.insert(4, rec(3, 3.0));
        let mut buf = ReorderBuffer::new(NoHintSource(VecSource::new(recs)), 1e9);
        let mut released = Vec::new();
        while let Some(r) = {
            let hint = buf.len_hint();
            let next = buf.next_record();
            if let (Some(h), Some(_)) = (hint, next.as_ref()) {
                assert!(h >= 1, "hint under-counted with a record available");
            }
            next
        } {
            released.push(r.id);
        }
        assert_eq!(released, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bounded_disorder_fully_restored() {
        // Shuffle within windows of 4 records (disorder ≤ 4 s at 1 rec/s).
        let mut recs: Vec<Record> = (0..100).map(|i| rec(i, i as f64)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for chunk in recs.chunks_mut(4) {
            chunk.shuffle(&mut rng);
        }
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 4.0);
        let out: Vec<Record> = std::iter::from_fn(|| buffer.next_record()).collect();
        let times: Vec<f64> = out.iter().map(|r| r.timestamp.secs()).collect();
        let expected: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(times, expected);
        assert_eq!(buffer.dropped_late(), 0);
    }

    #[test]
    fn hopelessly_late_records_dropped_and_counted() {
        let recs = vec![rec(0, 0.0), rec(1, 100.0), rec(2, 1.0), rec(3, 101.0)];
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 2.0);
        let out: Vec<u64> = std::iter::from_fn(|| buffer.next_record())
            .map(|r| r.id)
            .collect();
        assert_eq!(out, vec![0, 1, 3]);
        assert_eq!(buffer.dropped_late(), 1);
    }

    #[test]
    fn zero_lateness_acts_as_strict_filter() {
        let recs = vec![rec(0, 5.0), rec(1, 3.0), rec(2, 6.0)];
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 0.0);
        let out: Vec<u64> = std::iter::from_fn(|| buffer.next_record())
            .map(|r| r.id)
            .collect();
        assert_eq!(out, vec![0, 2]);
        assert_eq!(buffer.dropped_late(), 1);
    }

    #[test]
    fn equal_timestamps_break_ties_by_id() {
        let recs = vec![rec(2, 1.0), rec(0, 1.0), rec(1, 1.0)];
        let out: Vec<u64> = drain(ReorderBuffer::new(VecSource::new(recs), 1.0))
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn duplicated_records_released_once() {
        // Every record delivered twice, back to back (at-least-once source).
        let recs: Vec<Record> = (0..20)
            .flat_map(|i| [rec(i, i as f64), rec(i, i as f64)])
            .collect();
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 3.0);
        let out: Vec<u64> = std::iter::from_fn(|| buffer.next_record())
            .map(|r| r.id)
            .collect();
        assert_eq!(out, (0..20).collect::<Vec<u64>>());
        assert_eq!(buffer.dropped_duplicates(), 20);
        assert_eq!(buffer.dropped_late(), 0);
    }

    #[test]
    fn replayed_mini_batch_segment_is_suppressed() {
        // The source re-delivers a whole mini-batch worth of records after
        // making progress — the classic replay-from-last-offset pattern.
        let mut recs: Vec<Record> = (0..12).map(|i| rec(i, i as f64)).collect();
        let replay: Vec<Record> = (4..8).map(|i| rec(i, i as f64)).collect();
        recs.splice(8..8, replay);
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 6.0);
        let out: Vec<u64> = std::iter::from_fn(|| buffer.next_record())
            .map(|r| r.id)
            .collect();
        assert_eq!(out, (0..12).collect::<Vec<u64>>());
        assert_eq!(buffer.dropped_duplicates(), 4);
    }

    #[test]
    fn equal_timestamp_straggler_after_release_is_suppressed() {
        // id 0 shares its timestamp with id 1 but shows up only after id 1
        // was already released; letting it out would un-sort the stream.
        let recs = vec![rec(1, 0.0), rec(5, 5.0), rec(0, 0.0), rec(6, 6.0)];
        let mut buffer = ReorderBuffer::new(VecSource::new(recs), 0.0);
        let out: Vec<u64> = std::iter::from_fn(|| buffer.next_record())
            .map(|r| r.id)
            .collect();
        assert_eq!(out, vec![1, 5, 6]);
        assert_eq!(buffer.dropped_duplicates() + buffer.dropped_late(), 1);
    }

    proptest! {
        #[test]
        fn prop_duplicates_and_disorder_yield_unique_sorted_output(
            seed in 0u64..500,
            window in 1usize..6,
            dup_every in 2usize..5,
        ) {
            // Duplicate every `dup_every`-th record, then shuffle within
            // disorder windows: output must be each key once, in order.
            let mut recs: Vec<Record> = Vec::new();
            for i in 0..40u64 {
                recs.push(rec(i, i as f64));
                if (i as usize).is_multiple_of(dup_every) {
                    recs.push(rec(i, i as f64));
                }
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for chunk in recs.chunks_mut(window) {
                chunk.shuffle(&mut rng);
            }
            let dup_count = recs.len() - 40;
            let mut buffer = ReorderBuffer::new(VecSource::new(recs), (window + 1) as f64);
            let out: Vec<Record> = std::iter::from_fn(|| buffer.next_record()).collect();
            for w in out.windows(2) {
                prop_assert!(
                    w[0].arrival_key() < w[1].arrival_key(),
                    "released keys must be strictly increasing"
                );
            }
            prop_assert_eq!(out.len(), 40, "every unique key must be released once");
            prop_assert_eq!(buffer.dropped_duplicates(), dup_count);
            prop_assert_eq!(buffer.dropped_late(), 0);
        }

        #[test]
        fn prop_output_sorted_and_complete_under_bound(
            seed in 0u64..1000,
            window in 1usize..8,
        ) {
            let mut recs: Vec<Record> = (0..60).map(|i| rec(i, i as f64)).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for chunk in recs.chunks_mut(window) {
                chunk.shuffle(&mut rng);
            }
            let mut buffer = ReorderBuffer::new(VecSource::new(recs), window as f64);
            let out: Vec<Record> = std::iter::from_fn(|| buffer.next_record()).collect();
            prop_assert_eq!(out.len() + buffer.dropped_late(), 60);
            for w in out.windows(2) {
                prop_assert!(w[0].arrival_key() <= w[1].arrival_key());
            }
            prop_assert_eq!(buffer.dropped_late(), 0, "disorder within bound must not drop");
        }
    }
}
