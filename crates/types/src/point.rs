//! Dense feature vectors and the arithmetic used by micro-cluster sketches.

use std::fmt;
use std::ops::{Add, AddAssign, Index, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Number of independent accumulator lanes in the canonical reduction used
/// by every Euclidean-distance and norm computation in the workspace.
///
/// Element `i` of a reduction always lands in lane `i % REDUCE_LANES`, and
/// the lanes are always combined as `(l0 + l1) + (l2 + l3)`. Fixing one
/// lane order everywhere is what lets the SoA distance kernel
/// (`CentroidKernel` in `diststream-algorithms`) run a 4-wide loop that
/// LLVM autovectorizes while staying bit-identical to the "naive"
/// [`Point::distance`] scans it replaces: both sides are the *same*
/// floating-point expression, not merely algebraically equal ones.
pub(crate) const REDUCE_LANES: usize = 4;

/// Combines the four reduction lanes in the one canonical order.
#[inline]
fn lane_combine(acc: [f64; REDUCE_LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Canonical lane-ordered squared Euclidean distance between two coordinate
/// slices. Excess elements of the longer slice are ignored (callers assert
/// dimension agreement where it is a contract).
///
/// The chunked loop body is a fixed-width 4-lane subtract-square-accumulate
/// that LLVM reliably autovectorizes under `#![forbid(unsafe_code)]`; the
/// remainder fills lanes `0..len % 4` so the result is a pure function of
/// the element values, never of how the loop was tiled.
#[inline]
pub fn lane_squared_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; REDUCE_LANES];
    let mut ca = a.chunks_exact(REDUCE_LANES);
    let mut cb = b.chunks_exact(REDUCE_LANES);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            let d = x - y;
            *lane += d * d;
        }
    }
    for ((lane, &x), &y) in acc.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
        let d = x - y;
        *lane += d * d;
    }
    lane_combine(acc)
}

/// [`lane_squared_distance`] between `a·sa` and `b·sb` without materializing
/// either scaled vector: each lane term is `(x·sa − y·sb)²`, the very
/// expression the allocating form `scaled(sa)` → `scaled(sb)` →
/// [`lane_squared_distance`] evaluates (one rounded multiply per side, then
/// subtract, square, accumulate), so the result is bit-identical to it.
/// CF centroids are `CF1x · (1/w)`; this is their distance straight from the
/// linear sums.
#[inline]
pub fn lane_squared_distance_scaled(a: &[f64], sa: f64, b: &[f64], sb: f64) -> f64 {
    let mut acc = [0.0f64; REDUCE_LANES];
    let mut ca = a.chunks_exact(REDUCE_LANES);
    let mut cb = b.chunks_exact(REDUCE_LANES);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            let d = x * sa - y * sb;
            *lane += d * d;
        }
    }
    for ((lane, &x), &y) in acc.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
        let d = x * sa - y * sb;
        *lane += d * d;
    }
    lane_combine(acc)
}

/// [`lane_squared_distance`] with early exit: returns `None` as soon as the
/// combined partial sum reaches `bound`, checked every eighth chunk and at
/// the end.
///
/// Lane partials only grow, and IEEE addition of non-negative terms is
/// monotone, so the combined partial is a lower bound on the final
/// reduction: `None` proves the full sum would be ≥ `bound`, while
/// `Some(d2)` implies `d2 < bound` and carries the bits of the full
/// canonical reduction.
#[inline]
pub fn lane_squared_distance_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    let mut acc = [0.0f64; REDUCE_LANES];
    let mut ca = a.chunks_exact(REDUCE_LANES);
    let mut cb = b.chunks_exact(REDUCE_LANES);
    let mut chunk = 0usize;
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            let d = x - y;
            *lane += d * d;
        }
        // Checking every chunk would force a horizontal combine into each
        // vectorized iteration; every 8th chunk keeps the loop branchless
        // at the dimensionalities the datasets use (d ≤ 64) while still
        // cutting off runaway rows in high dimensions.
        chunk += 1;
        if chunk % 8 == 0 && lane_combine(acc) >= bound {
            return None;
        }
    }
    for ((lane, &x), &y) in acc.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
        let d = x - y;
        *lane += d * d;
    }
    let total = lane_combine(acc);
    if total >= bound {
        None
    } else {
        Some(total)
    }
}

/// Canonical lane-ordered sum of squares of a coordinate slice (the squared
/// Euclidean norm — callers take the square root where they need the norm
/// itself).
#[inline]
pub fn lane_squared_norm(coords: &[f64]) -> f64 {
    let mut acc = [0.0f64; REDUCE_LANES];
    let mut chunks = coords.chunks_exact(REDUCE_LANES);
    for xs in chunks.by_ref() {
        for (lane, &x) in acc.iter_mut().zip(xs) {
            *lane += x * x;
        }
    }
    for (lane, &x) in acc.iter_mut().zip(chunks.remainder()) {
        *lane += x * x;
    }
    lane_combine(acc)
}

/// A dense `d`-dimensional feature vector.
///
/// `Point` is the unit of spatial data everywhere in DistStream: stream
/// records carry one, micro-cluster linear/squared sums are stored as them,
/// and cluster centroids are computed as them. Arithmetic is implemented for
/// the operations the online-offline paradigm needs: element-wise addition
/// (micro-cluster additivity), scaling (decay), and element-wise squaring
/// (the `CF2x` squared-sum feature vector of CluStream).
///
/// # Examples
///
/// ```
/// use diststream_types::Point;
///
/// let p = Point::from(vec![1.0, 2.0]);
/// let q = Point::from(vec![3.0, 4.0]);
/// assert_eq!((&p + &q).as_slice(), &[4.0, 6.0]);
/// assert_eq!(p.scaled(2.0).as_slice(), &[2.0, 4.0]);
/// assert_eq!(p.squared().as_slice(), &[1.0, 4.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Point(Vec<f64>);

impl Point {
    /// Creates the zero vector of dimension `dims`.
    ///
    /// ```
    /// use diststream_types::Point;
    /// assert_eq!(Point::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(dims: usize) -> Self {
        Point(vec![0.0; dims])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the point has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrows the coordinates.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consumes the point, returning the underlying coordinate vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Element-wise square: `(x_1^2, ..., x_d^2)`.
    ///
    /// Used to build the squared-sum feature vector `CF2x` when a record is
    /// absorbed by a micro-cluster.
    pub fn squared(&self) -> Point {
        Point(self.0.iter().map(|v| v * v).collect())
    }

    /// Returns this point scaled by `factor` (time decay).
    pub fn scaled(&self, factor: f64) -> Point {
        Point(self.0.iter().map(|v| v * factor).collect())
    }

    /// Scales this point in place by `factor`.
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.0 {
            *v *= factor;
        }
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; dimension agreement is validated at
    /// stream ingestion, so a mismatch here is a programming error.
    pub fn add_in_place(&mut self, other: &Point) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "point dimension mismatch: {} vs {}",
            self.dims(),
            other.dims()
        );
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Adds `other * factor` into `self` in place.
    ///
    /// Each element is updated as `self[i] + (other[i] * factor)` — the same
    /// operation order as `self.add_in_place(&other.scaled(factor))`, so the
    /// result is bit-identical to that allocating form.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_scaled_in_place(&mut self, other: &Point, factor: f64) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "point dimension mismatch: {} vs {}",
            self.dims(),
            other.dims()
        );
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b * factor;
        }
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Point) -> f64 {
        assert_eq!(self.dims(), other.dims(), "point dimension mismatch");
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean distance to `other`, computed with the canonical
    /// lane-ordered reduction ([`lane_squared_distance`]) every distance in
    /// the workspace uses.
    ///
    /// The online phase compares distances against radius bounds, so the
    /// squared form avoids a `sqrt` in the hot loop.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn squared_distance(&self, other: &Point) -> f64 {
        assert_eq!(self.dims(), other.dims(), "point dimension mismatch");
        lane_squared_distance(&self.0, &other.0)
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance(&self, other: &Point) -> f64 {
        self.squared_distance(other).sqrt()
    }

    /// Euclidean norm of the point (canonical lane-ordered sum of squares,
    /// then square root).
    pub fn norm(&self) -> f64 {
        lane_squared_norm(&self.0).sqrt()
    }

    /// Sum of all coordinates.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Returns `true` if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Iterates over the coordinates.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point(coords.to_vec())
    }
}

impl FromIterator<f64> for Point {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Point(iter.into_iter().collect())
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.0[index]
    }
}

impl Add for &Point {
    type Output = Point;

    fn add(self, rhs: &Point) -> Point {
        let mut out = self.clone();
        out.add_in_place(rhs);
        out
    }
}

impl AddAssign<&Point> for Point {
    fn add_assign(&mut self, rhs: &Point) {
        self.add_in_place(rhs);
    }
}

impl Sub for &Point {
    type Output = Point;

    fn sub(self, rhs: &Point) -> Point {
        assert_eq!(self.dims(), rhs.dims(), "point dimension mismatch");
        Point(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Mul<f64> for &Point {
    type Output = Point;

    fn mul(self, rhs: f64) -> Point {
        self.scaled(rhs)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i >= 8 {
                write!(f, "... {} dims", self.0.len())?;
                break;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_requested_dims() {
        let p = Point::zeros(5);
        assert_eq!(p.dims(), 5);
        assert!(p.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_point_is_empty() {
        assert!(Point::zeros(0).is_empty());
        assert!(!Point::zeros(1).is_empty());
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::from(vec![0.0, 0.0]);
        let b = Point::from(vec![3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.squared_distance(&b), 25.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::from(vec![1.5, -2.5, 7.0]);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let mut p = Point::from(vec![1.0, 2.0]);
        p.add_in_place(&Point::from(vec![3.0, 4.0]));
        assert_eq!(p.as_slice(), &[4.0, 6.0]);
        p.scale_in_place(0.5);
        assert_eq!(p.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn squared_is_elementwise() {
        let p = Point::from(vec![-2.0, 3.0]);
        assert_eq!(p.squared().as_slice(), &[4.0, 9.0]);
    }

    #[test]
    fn dot_product() {
        let a = Point::from(vec![1.0, 2.0, 3.0]);
        let b = Point::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn sub_and_mul_operators() {
        let a = Point::from(vec![5.0, 7.0]);
        let b = Point::from(vec![2.0, 3.0]);
        assert_eq!((&a - &b).as_slice(), &[3.0, 4.0]);
        assert_eq!((&a * 2.0).as_slice(), &[10.0, 14.0]);
    }

    #[test]
    fn norm_and_sum() {
        let p = Point::from(vec![3.0, 4.0]);
        assert_eq!(p.norm(), 5.0);
        assert_eq!(p.sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = Point::zeros(2);
        let b = Point::zeros(3);
        let _ = a.distance(&b);
    }

    #[test]
    fn collects_from_iterator() {
        let p: Point = (0..4).map(|i| i as f64).collect();
        assert_eq!(p.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_truncates_long_points() {
        let p = Point::zeros(20);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("20 dims"));
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::from(vec![1.0, 2.0]).is_finite());
        assert!(!Point::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Point::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn lane_helpers_handle_every_remainder_width() {
        // Dimensions 0..=9 cover empty, sub-chunk, exact-chunk, and
        // chunk-plus-remainder shapes.
        for dims in 0..10 {
            let a: Vec<f64> = (0..dims).map(|i| i as f64 * 1.25 - 3.0).collect();
            let b: Vec<f64> = (0..dims).map(|i| (i as f64).sin() * 10.0).collect();
            let pa = Point::from(a.clone());
            let pb = Point::from(b.clone());
            let d2 = lane_squared_distance(&a, &b);
            assert_eq!(pa.squared_distance(&pb).to_bits(), d2.to_bits());
            assert_eq!(pa.norm().to_bits(), lane_squared_norm(&a).sqrt().to_bits());
            // The bounded variant returns the identical bits below the
            // bound and None at or above it.
            assert_eq!(
                lane_squared_distance_bounded(&a, &b, f64::INFINITY),
                Some(d2)
            );
            assert_eq!(lane_squared_distance_bounded(&a, &b, d2), None);
            if d2 > 0.0 {
                assert_eq!(lane_squared_distance_bounded(&a, &b, d2 * 0.5), None);
            }
        }
    }

    #[test]
    fn lane_reduction_is_the_documented_order() {
        // Six elements: lanes get (x0²+x4², x1²+x5², x2², x3²), combined
        // as (l0 + l1) + (l2 + l3).
        let xs = [1.0e-3, 2.0, 3.0e7, 4.0, 5.0e-5, 6.0];
        let l0 = xs[0] * xs[0] + xs[4] * xs[4];
        let l1 = xs[1] * xs[1] + xs[5] * xs[5];
        let l2 = xs[2] * xs[2];
        let l3 = xs[3] * xs[3];
        let expected = (l0 + l1) + (l2 + l3);
        assert_eq!(lane_squared_norm(&xs).to_bits(), expected.to_bits());
        let zeros = [0.0; 6];
        assert_eq!(
            lane_squared_distance(&xs, &zeros).to_bits(),
            expected.to_bits()
        );
    }

    fn small_point(dims: usize) -> impl Strategy<Value = Point> {
        prop::collection::vec(-1e6_f64..1e6, dims).prop_map(Point::from)
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(a in small_point(4), b in small_point(4)) {
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(a in small_point(3), b in small_point(3), c in small_point(3)) {
            let direct = a.distance(&c);
            let via = a.distance(&b) + b.distance(&c);
            prop_assert!(direct <= via + 1e-6);
        }

        #[test]
        fn prop_addition_commutative(a in small_point(5), b in small_point(5)) {
            let ab = &a + &b;
            let ba = &b + &a;
            prop_assert_eq!(ab.as_slice(), ba.as_slice());
        }

        #[test]
        fn prop_scaling_distributes_over_addition(a in small_point(3), b in small_point(3), k in -100.0_f64..100.0) {
            let lhs = (&a + &b).scaled(k);
            let rhs = &a.scaled(k) + &b.scaled(k);
            for (l, r) in lhs.iter().zip(rhs.iter()) {
                prop_assert!((l - r).abs() <= 1e-6 * l.abs().max(r.abs()).max(1.0));
            }
        }

        #[test]
        fn prop_norm_nonnegative(a in small_point(6)) {
            prop_assert!(a.norm() >= 0.0);
        }
    }
}
