//! Stream records, virtual timestamps, and identity newtypes.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::point::Point;

/// Virtual stream time, in seconds.
///
/// DistStream's quality experiments run on *virtual* time: each record's
/// timestamp is assigned when the dataset is converted into a stream, decay
/// factors `λ = β^{-Δt}` are computed from virtual intervals, and batch
/// windows cut the stream at virtual boundaries. This keeps every quality
/// number deterministic and host-independent. Throughput experiments measure
/// wall-clock time separately.
///
/// `Timestamp` is totally ordered (via IEEE total ordering); constructing
/// one from a NaN value is a caller bug and will behave like the IEEE total
/// order places it.
///
/// # Examples
///
/// ```
/// use diststream_types::Timestamp;
///
/// let t0 = Timestamp::from_secs(10.0);
/// let t1 = Timestamp::from_secs(12.5);
/// assert_eq!((t1 - t0), 2.5);
/// assert!(t0 < t1);
/// ```
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Timestamp(f64);

impl Timestamp {
    /// The stream origin, `t = 0`.
    pub const ZERO: Timestamp = Timestamp(0.0);

    /// Creates a timestamp at `secs` virtual seconds.
    pub fn from_secs(secs: f64) -> Self {
        Timestamp(secs)
    }

    /// The timestamp value in virtual seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Saturating elapsed time since `earlier`, never negative.
    ///
    /// Out-of-order arrivals can make naive subtraction negative; decay
    /// computations treat such records as contemporaneous instead.
    pub fn saturating_since(self, earlier: Timestamp) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }

    /// The later of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if other > self {
            other
        } else {
            self
        }
    }
}

impl Eq for Timestamp {}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: f64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub for Timestamp {
    type Output = f64;

    fn sub(self, rhs: Timestamp) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// Global arrival sequence number of a record.
///
/// The "order" that the order-aware update mechanism preserves: records are
/// numbered consecutively as they enter the stream, and ties in virtual
/// timestamps are broken by this number so the update order is always total.
pub type RecordId = u64;

/// Ground-truth class label, used only by the evaluation harness.
///
/// # Examples
///
/// ```
/// use diststream_types::ClassId;
/// let attack = ClassId(3);
/// assert_eq!(attack.0, 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// One element of a data stream.
///
/// A record couples a feature [`Point`] with its arrival [`Timestamp`] and
/// its global arrival sequence number [`RecordId`]. The optional `label` is
/// ground truth for quality measurement (CMM); the clustering algorithms
/// never read it.
///
/// # Examples
///
/// ```
/// use diststream_types::{ClassId, Point, Record, Timestamp};
///
/// let r = Record::labeled(7, Point::from(vec![1.0]), Timestamp::from_secs(3.0), ClassId(2));
/// assert_eq!(r.id, 7);
/// assert_eq!(r.label, Some(ClassId(2)));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Record {
    /// Global arrival sequence number (total order tiebreaker).
    pub id: RecordId,
    /// Feature vector.
    pub point: Point,
    /// Virtual arrival time.
    pub timestamp: Timestamp,
    /// Ground-truth class, if known (evaluation only).
    pub label: Option<ClassId>,
}

impl Record {
    /// Creates an unlabeled record.
    pub fn new(id: RecordId, point: Point, timestamp: Timestamp) -> Self {
        Record {
            id,
            point,
            timestamp,
            label: None,
        }
    }

    /// Creates a record with a ground-truth class label.
    pub fn labeled(id: RecordId, point: Point, timestamp: Timestamp, label: ClassId) -> Self {
        Record {
            id,
            point,
            timestamp,
            label: Some(label),
        }
    }

    /// Feature dimensionality of the record.
    pub fn dims(&self) -> usize {
        self.point.dims()
    }

    /// Bytes this record occupies in the engine's wire encoding, in O(1):
    /// id (8) + coordinate-vector length prefix (8) + 8 per coordinate +
    /// timestamp (8) + label tag (1) + the `u32` class when labeled. The
    /// shuffle accounting charges this per record instead of running the
    /// encoder over every coordinate; the engine's codec tests pin it to
    /// `serialized_size(&record)`.
    pub fn wire_size(&self) -> u64 {
        25 + 8 * self.dims() as u64 + if self.label.is_some() { 4 } else { 0 }
    }

    /// The `(timestamp, id)` key that defines the total arrival order.
    ///
    /// Sorting a batch by this key is exactly the order the one-record-at-a-
    /// time model would have consumed it in.
    pub fn arrival_key(&self) -> (Timestamp, RecordId) {
        (self.timestamp, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(5.0);
        assert_eq!((t + 2.0).secs(), 7.0);
        assert_eq!(t + 2.0 - t, 2.0);
    }

    #[test]
    fn timestamp_saturating_since_clamps_negative() {
        let early = Timestamp::from_secs(1.0);
        let late = Timestamp::from_secs(4.0);
        assert_eq!(late.saturating_since(early), 3.0);
        assert_eq!(early.saturating_since(late), 0.0);
    }

    #[test]
    fn timestamp_total_order() {
        let mut ts = [
            Timestamp::from_secs(3.0),
            Timestamp::from_secs(-1.0),
            Timestamp::from_secs(0.0),
        ];
        ts.sort();
        assert_eq!(ts[0].secs(), -1.0);
        assert_eq!(ts[2].secs(), 3.0);
    }

    #[test]
    fn timestamp_max() {
        let a = Timestamp::from_secs(1.0);
        let b = Timestamp::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn record_arrival_key_breaks_ties_by_id() {
        let t = Timestamp::from_secs(1.0);
        let a = Record::new(1, Point::zeros(1), t);
        let b = Record::new(2, Point::zeros(1), t);
        assert!(a.arrival_key() < b.arrival_key());
    }

    #[test]
    fn labeled_record_carries_class() {
        let r = Record::labeled(0, Point::zeros(2), Timestamp::ZERO, ClassId(9));
        assert_eq!(r.label, Some(ClassId(9)));
        assert_eq!(r.dims(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Timestamp::from_secs(1.25)), "1.250s");
        assert_eq!(format!("{}", ClassId(4)), "class#4");
    }

    proptest! {
        #[test]
        fn prop_arrival_order_total(
            ids in prop::collection::vec(0u64..1000, 2..20),
            secs in prop::collection::vec(0.0_f64..100.0, 2..20),
        ) {
            let n = ids.len().min(secs.len());
            let mut recs: Vec<Record> = (0..n)
                .map(|i| Record::new(ids[i], Point::zeros(1), Timestamp::from_secs(secs[i])))
                .collect();
            recs.sort_by_key(Record::arrival_key);
            for w in recs.windows(2) {
                prop_assert!(w[0].arrival_key() <= w[1].arrival_key());
            }
        }
    }
}
