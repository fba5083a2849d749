//! Record sources — the Kafka-producer analog.
//!
//! In the paper's testbed an Apache Kafka producer replays a dataset from
//! disk at a user-defined rate; DistStream pulls the resulting stream in
//! mini-batches. Here a [`RecordSource`] plays that role:
//!
//! - [`VecSource`] replays an in-memory record vector, the dataset already
//!   stamped at a fixed rate (`Dataset::to_records` in the datasets crate:
//!   "first setting the timestamp for each record and then streaming them
//!   in chronological order", §VII-A).
//! - [`RepeatSource`] replays a base stream `n` times with continued
//!   timestamps and fresh ids — the paper's `large-*` datasets, produced by
//!   "instructing Kafka to read from the same dataset ten times".

use diststream_types::Record;

/// An unbounded-or-finite, pull-based stream of [`Record`]s.
///
/// This is the engine's ingestion boundary: the [`MiniBatcher`] repeatedly
/// pulls records until a batch window closes. Sources must yield records in
/// non-decreasing `(timestamp, id)` order — the arrival order that the
/// order-aware update mechanism preserves.
///
/// [`MiniBatcher`]: crate::MiniBatcher
pub trait RecordSource {
    /// Pulls the next record, or `None` when the stream is exhausted.
    fn next_record(&mut self) -> Option<Record>;

    /// A hint of how many records remain, if known. Advisory only: it need
    /// not be exact, and nothing in the engine sizes a buffer from it (the
    /// [`MiniBatcher`] reserves what its previous batch held).
    ///
    /// [`MiniBatcher`]: crate::MiniBatcher
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// Records currently held back inside the source awaiting release —
    /// the reorder backlog for a [`ReorderBuffer`], zero for sources that
    /// never buffer. The backpressure policy reads this directly (telemetry
    /// gauges are observation-only and must never feed back into the
    /// computation).
    ///
    /// [`ReorderBuffer`]: crate::ReorderBuffer
    fn backlog_hint(&self) -> usize {
        0
    }
}

impl<S: RecordSource + ?Sized> RecordSource for &mut S {
    fn next_record(&mut self) -> Option<Record> {
        (**self).next_record()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }

    fn backlog_hint(&self) -> usize {
        (**self).backlog_hint()
    }
}

/// Replays an in-memory, already-stamped record vector in order.
///
/// # Examples
///
/// ```
/// use diststream_engine::{RecordSource, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let mut src = VecSource::new(vec![Record::new(0, Point::zeros(1), Timestamp::ZERO)]);
/// assert!(src.next_record().is_some());
/// assert!(src.next_record().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct VecSource {
    records: std::vec::IntoIter<Record>,
}

impl VecSource {
    /// Creates a source over `records` (assumed already in arrival order).
    pub fn new(records: Vec<Record>) -> Self {
        VecSource {
            records: records.into_iter(),
        }
    }
}

impl RecordSource for VecSource {
    fn next_record(&mut self) -> Option<Record> {
        self.records.next()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.records.len())
    }
}

/// Replays a base record vector `rounds` times, continuing ids and
/// timestamps across rounds — the paper's `large-*` datasets.
///
/// Round `r` re-emits every base record with id `r * n + i` and timestamp
/// shifted by `r * (duration + gap)` where `gap` is the base inter-record
/// spacing, so the concatenation is one seamless chronological stream.
///
/// # Examples
///
/// ```
/// use diststream_engine::{RecordSource, RepeatSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let base = vec![
///     Record::new(0, Point::zeros(1), Timestamp::ZERO),
///     Record::new(1, Point::zeros(1), Timestamp::from_secs(1.0)),
/// ];
/// let mut src = RepeatSource::new(base, 2);
/// let times: Vec<f64> = std::iter::from_fn(|| src.next_record())
///     .map(|r| r.timestamp.secs())
///     .collect();
/// assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RepeatSource {
    base: Vec<Record>,
    rounds: usize,
    round: usize,
    index: usize,
    round_shift: f64,
}

impl RepeatSource {
    /// Creates a source replaying `base` exactly `rounds` times.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn new(base: Vec<Record>, rounds: usize) -> Self {
        assert!(rounds > 0, "rounds must be at least 1");
        let round_shift = match (base.first(), base.last()) {
            (Some(first), Some(last)) if base.len() > 1 => {
                let duration = last.timestamp - first.timestamp;
                // Keep the base stream's average spacing across the seam.
                duration + duration / (base.len() - 1) as f64
            }
            _ => 1.0,
        };
        RepeatSource {
            base,
            rounds,
            round: 0,
            index: 0,
            round_shift,
        }
    }
}

impl RecordSource for RepeatSource {
    fn next_record(&mut self) -> Option<Record> {
        if self.base.is_empty() || self.round >= self.rounds {
            return None;
        }
        let template = &self.base[self.index];
        let id = (self.round * self.base.len() + self.index) as u64;
        let t = template.timestamp + self.round as f64 * self.round_shift;
        let record = Record {
            id,
            point: template.point.clone(),
            timestamp: t,
            label: template.label,
        };
        self.index += 1;
        if self.index == self.base.len() {
            self.index = 0;
            self.round += 1;
        }
        Some(record)
    }

    /// Saturates at `usize::MAX` for a run too long to count.
    fn len_hint(&self) -> Option<usize> {
        let emitted = self.round * self.base.len() + self.index;
        Some(
            self.base
                .len()
                .saturating_mul(self.rounds)
                .saturating_sub(emitted),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::{Point, Timestamp};

    fn drain<S: RecordSource>(mut src: S) -> Vec<Record> {
        std::iter::from_fn(move || src.next_record()).collect()
    }

    #[test]
    fn vec_source_replays_in_order() {
        let recs = vec![
            Record::new(0, Point::zeros(1), Timestamp::ZERO),
            Record::new(1, Point::zeros(1), Timestamp::from_secs(1.0)),
        ];
        let src = VecSource::new(recs.clone());
        assert_eq!(src.len_hint(), Some(2));
        assert_eq!(drain(src), recs);
    }

    #[test]
    fn repeat_source_continues_ids_and_time() {
        let base = vec![
            Record::new(0, Point::zeros(1), Timestamp::ZERO),
            Record::new(1, Point::zeros(1), Timestamp::from_secs(2.0)),
        ];
        let recs = drain(RepeatSource::new(base, 3));
        assert_eq!(recs.len(), 6);
        let ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let times: Vec<f64> = recs.iter().map(|r| r.timestamp.secs()).collect();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        // Arrival order is total and non-decreasing.
        for w in recs.windows(2) {
            assert!(w[0].arrival_key() < w[1].arrival_key());
        }
    }

    #[test]
    fn repeat_source_len_hint_counts_down() {
        let base = vec![Record::new(0, Point::zeros(1), Timestamp::ZERO)];
        let mut src = RepeatSource::new(base, 2);
        assert_eq!(src.len_hint(), Some(2));
        src.next_record();
        assert_eq!(src.len_hint(), Some(1));
        src.next_record();
        assert_eq!(src.len_hint(), Some(0));
        assert!(src.next_record().is_none());
    }

    #[test]
    fn repeat_source_len_hint_saturates_on_huge_rounds() {
        let base = vec![
            Record::new(0, Point::zeros(1), Timestamp::ZERO),
            Record::new(1, Point::zeros(1), Timestamp::from_secs(1.0)),
        ];
        let mut src = RepeatSource::new(base, usize::MAX);
        assert_eq!(src.len_hint(), Some(usize::MAX));
        for _ in 0..3 {
            src.next_record();
        }
        assert_eq!(src.len_hint(), Some(usize::MAX - 3));
    }

    #[test]
    fn repeat_source_empty_base_is_empty() {
        let mut src = RepeatSource::new(Vec::new(), 5);
        assert!(src.next_record().is_none());
    }

    #[test]
    fn source_works_through_mut_reference() {
        let mut src = VecSource::new(vec![Record::new(0, Point::zeros(1), Timestamp::ZERO)]);
        let by_ref: &mut VecSource = &mut src;
        assert_eq!(drain(by_ref).len(), 1);
    }
}
