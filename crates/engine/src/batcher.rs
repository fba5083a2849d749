//! Mini-batch division of a record stream by virtual-time windows.

use diststream_telemetry as telemetry;
use diststream_types::{Record, Timestamp};

use crate::source::RecordSource;

/// One mini-batch: all records whose timestamps fall in
/// `[window_start, window_end)`.
///
/// Batches are produced in stream order; records inside a batch keep their
/// arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatch {
    /// Zero-based batch index.
    pub index: usize,
    /// Inclusive window start (virtual time).
    pub window_start: Timestamp,
    /// Exclusive window end (virtual time).
    pub window_end: Timestamp,
    /// Records in arrival order.
    pub records: Vec<Record>,
}

impl MiniBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the window contained no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Cuts a [`RecordSource`] into fixed-width virtual-time mini-batches — the
/// Spark Streaming batch-interval equivalent.
///
/// Windows are aligned to multiples of `batch_secs` starting at the first
/// record's timestamp. Empty windows (no records in an interval) are
/// *skipped*, matching a replayed-stream harness where the producer never
/// idles.
///
/// # Examples
///
/// ```
/// use diststream_engine::{MiniBatcher, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let recs: Vec<Record> = (0..6)
///     .map(|i| Record::new(i, Point::zeros(1), Timestamp::from_secs(i as f64)))
///     .collect();
/// let mut batches = MiniBatcher::new(VecSource::new(recs), 2.0);
/// let first = batches.next().unwrap();
/// assert_eq!(first.len(), 2); // t = 0, 1
/// let second = batches.next().unwrap();
/// assert_eq!(second.len(), 2); // t = 2, 3
/// ```
#[derive(Debug)]
pub struct MiniBatcher<S> {
    source: S,
    batch_secs: f64,
    origin: Option<Timestamp>,
    pending: Option<Record>,
    next_index: usize,
    exhausted: bool,
    /// Records the previous batch held: what the next one reserves.
    last_len: usize,
}

impl<S: RecordSource> MiniBatcher<S> {
    /// Creates a batcher with the given window width in virtual seconds.
    ///
    /// # Panics
    ///
    /// Panics if `batch_secs` is not strictly positive and finite.
    pub fn new(source: S, batch_secs: f64) -> Self {
        assert!(
            batch_secs > 0.0 && batch_secs.is_finite(),
            "batch window must be positive and finite, got {batch_secs}"
        );
        MiniBatcher {
            source,
            batch_secs,
            origin: None,
            pending: None,
            next_index: 0,
            exhausted: false,
            last_len: 16,
        }
    }

    /// The configured window width in virtual seconds.
    pub fn batch_secs(&self) -> f64 {
        self.batch_secs
    }

    /// The wrapped source, e.g. to read or retune a sampler between pulls.
    /// The batcher may hold one record of it back as the next batch's
    /// first.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Changes the window width, taking effect from the next batch.
    ///
    /// Window alignment restarts at the next record so adaptive batch-sizing
    /// controllers (the paper's §VII-D3 future work) can retune between
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics if `batch_secs` is not strictly positive and finite.
    pub fn set_batch_secs(&mut self, batch_secs: f64) {
        assert!(
            batch_secs > 0.0 && batch_secs.is_finite(),
            "batch window must be positive and finite, got {batch_secs}"
        );
        self.batch_secs = batch_secs;
        // Re-anchor the window origin at the next record.
        self.origin = None;
    }

    /// Window index of `t`, honouring the half-open `[start, end)` window
    /// semantics on float boundaries.
    ///
    /// Plain division truncation is wrong on boundaries for non-dyadic
    /// widths (`0.3 / 0.1 = 2.999…` puts a t = 0.3 record in window 2, the
    /// *previous* window). The division is therefore only an estimate,
    /// corrected by comparing `elapsed` against the actual window edges,
    /// with values within a few ULPs of an edge treated as exactly on it —
    /// that is the tightest test that fixes `0.3 / 0.1` without moving
    /// records that genuinely sit just inside a window.
    fn window_of(&self, t: Timestamp, origin: Timestamp) -> u64 {
        let elapsed = t.saturating_since(origin);
        let width = self.batch_secs;
        let edge = |i: u64| i as f64 * width;
        let on_edge = |a: f64, b: f64| (a - b).abs() <= 4.0 * f64::EPSILON * a.abs().max(b.abs());
        let mut idx = (elapsed / width) as u64;
        // Estimate came out low: elapsed is at (or within ULPs of) the next
        // edge, which starts the next window.
        while elapsed >= edge(idx + 1) || on_edge(elapsed, edge(idx + 1)) {
            idx += 1;
        }
        // Estimate came out high: elapsed sits strictly before this
        // window's own start edge.
        while idx > 0 && elapsed < edge(idx) && !on_edge(elapsed, edge(idx)) {
            idx -= 1;
        }
        idx
    }
}

impl<S: RecordSource> Iterator for MiniBatcher<S> {
    type Item = MiniBatch;

    fn next(&mut self) -> Option<MiniBatch> {
        if self.exhausted && self.pending.is_none() {
            return None;
        }
        let first = match self.pending.take().or_else(|| self.source.next_record()) {
            Some(r) => r,
            None => {
                self.exhausted = true;
                return None;
            }
        };
        let origin = *self.origin.get_or_insert(first.timestamp);
        let window = self.window_of(first.timestamp, origin);
        let nominal_start = origin + window as f64 * self.batch_secs;
        // A boundary record snapped up into this window can sit a few ULPs
        // before the nominal edge; clamp so `window_start <= t` holds for
        // every record in the batch.
        let window_start = if first.timestamp < nominal_start {
            first.timestamp
        } else {
            nominal_start
        };
        let window_end = origin + (window + 1) as f64 * self.batch_secs;

        // Sized from the stream already seen: a batch holds about what the
        // one before it held, and one that outgrows that doubles like any
        // `Vec` — never the remaining run's length, which a long replay puts
        // far beyond any one window.
        let mut records = Vec::with_capacity(self.last_len);
        records.push(first);
        loop {
            match self.source.next_record() {
                Some(r) if self.window_of(r.timestamp, origin) == window => records.push(r),
                Some(r) => {
                    self.pending = Some(r);
                    break;
                }
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        self.last_len = records.len();
        let index = self.next_index;
        self.next_index += 1;
        if telemetry::enabled() {
            // Batch-granular, so the registry lookup is off the hot path.
            telemetry::histogram(
                telemetry::names::METRIC_BATCH_RECORDS,
                &[16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0],
            )
            .observe(records.len() as f64);
            telemetry::gauge(telemetry::names::METRIC_BATCH_WINDOW_SECS).set(self.batch_secs);
        }
        Some(MiniBatch {
            index,
            window_start,
            window_end,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{RepeatSource, VecSource};
    use diststream_types::Point;

    fn rec(id: u64, t: f64) -> Record {
        Record::new(id, Point::zeros(1), Timestamp::from_secs(t))
    }

    fn batch_all(records: Vec<Record>, window: f64) -> Vec<MiniBatch> {
        MiniBatcher::new(VecSource::new(records), window).collect()
    }

    #[test]
    fn empty_source_yields_no_batches() {
        assert!(batch_all(Vec::new(), 1.0).is_empty());
    }

    #[test]
    fn splits_on_window_boundaries() {
        let recs = vec![rec(0, 0.0), rec(1, 0.5), rec(2, 1.0), rec(3, 2.5)];
        let batches = batch_all(recs, 1.0);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[2].len(), 1);
        assert_eq!(batches[0].index, 0);
        assert_eq!(batches[2].index, 2);
    }

    #[test]
    fn windows_are_aligned_to_first_record() {
        let recs = vec![rec(0, 10.0), rec(1, 10.9), rec(2, 11.0)];
        let batches = batch_all(recs, 1.0);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].window_start.secs(), 10.0);
        assert_eq!(batches[0].window_end.secs(), 11.0);
        assert_eq!(batches[1].window_start.secs(), 11.0);
    }

    #[test]
    fn empty_windows_are_skipped() {
        // Gap between t=0 and t=10 spans several empty 2s windows.
        let recs = vec![rec(0, 0.0), rec(1, 10.0)];
        let batches = batch_all(recs, 2.0);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].window_start.secs(), 10.0);
        // Indexes stay consecutive even when windows were skipped.
        assert_eq!(batches[1].index, 1);
    }

    #[test]
    fn all_records_preserved_in_order() {
        let recs: Vec<Record> = (0..100).map(|i| rec(i, i as f64 * 0.3)).collect();
        let batches = batch_all(recs.clone(), 2.5);
        let flattened: Vec<Record> = batches.into_iter().flat_map(|b| b.records).collect();
        assert_eq!(flattened, recs);
    }

    #[test]
    fn single_batch_when_window_spans_everything() {
        let recs: Vec<Record> = (0..10).map(|i| rec(i, i as f64)).collect();
        let batches = batch_all(recs, 1000.0);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 10);
    }

    #[test]
    fn batches_reserve_what_the_previous_one_held() {
        // Ten records a second, replayed for a million-record length hint.
        let base: Vec<Record> = (0..10).map(|i| rec(i, i as f64 * 0.1)).collect();
        let source = RepeatSource::new(base, 100_000);
        let batches: Vec<MiniBatch> = MiniBatcher::new(source, 1.0).take(3).collect();
        assert!(batches.iter().all(|b| b.len() == 10));
        assert_eq!(batches[0].records.capacity(), 16, "the first batch's guess");
        assert_eq!(batches[1].records.capacity(), 10);
        assert_eq!(batches[2].records.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "batch window must be positive")]
    fn rejects_zero_window() {
        let _ = MiniBatcher::new(VecSource::new(Vec::new()), 0.0);
    }

    #[test]
    fn boundary_record_goes_to_next_window() {
        // A record exactly at the window end belongs to the next batch
        // (windows are half-open [start, end)).
        let recs = vec![rec(0, 0.0), rec(1, 1.0)];
        let batches = batch_all(recs, 1.0);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn boundary_records_split_for_non_dyadic_widths() {
        // 0.3 / 0.1 = 2.999… in f64, so the old division-truncation
        // implementation dropped the t = 0.3 record into the *previous*
        // window, silently merging two batches. Every record here sits
        // exactly on a window edge and must open its own batch.
        let recs = vec![rec(0, 0.0), rec(1, 0.1), rec(2, 0.2), rec(3, 0.3)];
        let batches = batch_all(recs, 0.1);
        assert_eq!(
            batches.len(),
            4,
            "each boundary record must start its own window"
        );
    }

    #[test]
    fn boundary_records_split_across_awkward_widths() {
        for width in [0.1, 0.3, 0.7, 2.5] {
            let recs: Vec<Record> = (0..20).map(|i| rec(i, i as f64 * width)).collect();
            let batches = batch_all(recs, width);
            assert_eq!(batches.len(), 20, "width {width}: windows merged");
            for b in &batches {
                for r in &b.records {
                    assert!(
                        b.window_start <= r.timestamp && r.timestamp < b.window_end,
                        "width {width}: t={:?} outside [{:?}, {:?})",
                        r.timestamp,
                        b.window_start,
                        b.window_end
                    );
                }
            }
        }
    }

    #[test]
    fn near_boundary_records_are_not_snapped() {
        // A record genuinely short of the edge (far beyond ULP noise) must
        // stay in the earlier window.
        let recs = vec![rec(0, 0.0), rec(1, 0.299_999_99)];
        let batches = batch_all(recs, 0.1);
        // 0.29999999 lies in window 2, separate from window 0.
        assert_eq!(batches.len(), 2);
        assert!(batches[1].window_start.secs() < 0.299_999_99);
    }
}
