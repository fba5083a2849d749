//! Clustering-feature (CF) vectors — the additive micro-cluster sketch
//! shared by CluStream, DenStream, and ClusTree.
//!
//! A CF vector summarizes a set of records as `(CF2x, CF1x, CF2t, CF1t, w)`:
//! the per-dimension squared and linear sums of the points, the squared and
//! linear sums of the timestamps, and the (possibly decayed) weight. All
//! components are additive, which is what lets local updates run on detached
//! copies and merge back (paper §II-A, §VI).

use serde::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use diststream_core::{MicroClusterId, Sketch, WeightedPoint};
use diststream_types::{
    lane_squared_distance, lane_squared_distance_bounded, lane_squared_distance_scaled,
    lane_squared_norm, DistStreamError, Point, Record, Result, Timestamp,
};

/// An additive, decayable clustering-feature vector.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::CfVector;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let a = Record::new(0, Point::from(vec![1.0, 0.0]), Timestamp::ZERO);
/// let b = Record::new(1, Point::from(vec![3.0, 0.0]), Timestamp::from_secs(1.0));
/// let mut cf = CfVector::from_record(&a);
/// cf.insert(&b, 1.0); // no decay
/// assert_eq!(cf.centroid().as_slice(), &[2.0, 0.0]);
/// assert_eq!(cf.weight(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CfVector {
    /// Per-dimension squared sum `Σ w·x²`.
    cf2x: Point,
    /// Per-dimension linear sum `Σ w·x`.
    cf1x: Point,
    /// Squared timestamp sum `Σ w·t²`.
    cf2t: f64,
    /// Linear timestamp sum `Σ w·t`.
    cf1t: f64,
    /// Decayed weight `Σ w` (= record count when no decay).
    weight: f64,
    /// Creation time of the micro-cluster.
    created_at: Timestamp,
    /// Time of the last insert/decay.
    updated_at: Timestamp,
}

impl CfVector {
    /// Creates a CF vector holding exactly one record with unit weight.
    pub fn from_record(record: &Record) -> Self {
        let t = record.timestamp.secs();
        CfVector {
            cf2x: record.point.squared(),
            cf1x: record.point.clone(),
            cf2t: t * t,
            cf1t: t,
            weight: 1.0,
            created_at: record.timestamp,
            updated_at: record.timestamp,
        }
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.cf1x.dims()
    }

    /// The decayed weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Creation timestamp.
    pub(crate) fn created_at(&self) -> Timestamp {
        self.created_at
    }

    /// Timestamp of the last insert or decay.
    pub fn updated_at(&self) -> Timestamp {
        self.updated_at
    }

    /// Mean of the absorbed timestamps, in seconds.
    pub(crate) fn mean_time(&self) -> f64 {
        if self.weight > 0.0 {
            self.cf1t / self.weight
        } else {
            self.updated_at.secs()
        }
    }

    /// Standard deviation of the absorbed timestamps, in seconds.
    pub(crate) fn std_time(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let mean = self.cf1t / self.weight;
        (self.cf2t / self.weight - mean * mean).max(0.0).sqrt()
    }

    /// CluStream's relevance stamp: `μ_t + z·σ_t`, an estimate of the
    /// arrival time of the cluster's most recent records.
    pub(crate) fn relevance_stamp(&self, z: f64) -> f64 {
        self.mean_time() + z * self.std_time()
    }

    /// The centroid `CF1x / w`.
    pub fn centroid(&self) -> Point {
        self.cf1x.scaled(self.centroid_scale())
    }

    /// The factor that turns `CF1x` into the centroid: `1/w`, or 1 for an
    /// emptied sketch, whose centroid is `CF1x` itself (`x · 1.0` is `x`
    /// bit for bit, so there is no second code path).
    fn centroid_scale(&self) -> f64 {
        if self.weight > 0.0 {
            1.0 / self.weight
        } else {
            1.0
        }
    }

    /// Euclidean distance between the two sketches' centroids, straight from
    /// the linear sums: bit-identical to
    /// `self.centroid().distance(&other.centroid())` without materializing
    /// either `Point` (the pre-merge asks this for every candidate pair).
    pub(crate) fn centroid_distance(&self, other: &CfVector) -> f64 {
        debug_assert_eq!(self.dims(), other.dims(), "point dimension mismatch");
        lane_squared_distance_scaled(
            self.cf1x.as_slice(),
            self.centroid_scale(),
            other.cf1x.as_slice(),
            other.centroid_scale(),
        )
        .sqrt()
    }

    /// Squared Euclidean distance from the centroid to `point`, straight
    /// from the linear sums: bit-identical to
    /// `self.centroid().squared_distance(point)` (`x · 1.0` is `x`) without
    /// materializing the centroid — the per-record reference `assign`s ask
    /// this of every micro-cluster.
    pub(crate) fn squared_distance_to(&self, point: &Point) -> f64 {
        debug_assert_eq!(self.dims(), point.dims(), "point dimension mismatch");
        lane_squared_distance_scaled(
            self.cf1x.as_slice(),
            self.centroid_scale(),
            point.as_slice(),
            1.0,
        )
    }

    /// RMS deviation of absorbed points from the centroid — the
    /// micro-cluster "radius" used for maximum-boundary checks.
    ///
    /// Returns 0.0 for a singleton.
    pub(crate) fn rms_radius(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let mut var_sum = 0.0;
        for (s2, s1) in self.cf2x.iter().zip(self.cf1x.iter()) {
            let mean = s1 / self.weight;
            var_sum += (s2 / self.weight - mean * mean).max(0.0);
        }
        var_sum.sqrt() // sqrt of the summed per-dimension variances
    }

    /// The radius the sketch would have after absorbing `point` with unit
    /// weight and no decay — DenStream's tentative-insertion check.
    pub(crate) fn radius_with(&self, point: &Point) -> f64 {
        let w = self.weight + 1.0;
        let mut var_sum = 0.0;
        for ((&s2x, &s1x), &x) in self.cf2x.iter().zip(self.cf1x.iter()).zip(point.iter()) {
            let s2 = s2x + x * x;
            let s1 = s1x + x;
            let mean = s1 / w;
            var_sum += (s2 / w - mean * mean).max(0.0);
        }
        var_sum.sqrt()
    }

    /// Applies decay factor `lambda` to every additive component and stamps
    /// the sketch as updated at `now`.
    pub fn decay(&mut self, lambda: f64, now: Timestamp) {
        debug_assert!((0.0..=1.0).contains(&lambda));
        self.cf2x.scale_in_place(lambda);
        self.cf1x.scale_in_place(lambda);
        self.cf2t *= lambda;
        self.cf1t *= lambda;
        self.weight *= lambda;
        self.updated_at = now;
    }

    /// Inserts a record: decays the sketch by `lambda` (computed by the
    /// caller from the record's arrival interval) then adds the record's
    /// increment `Δx = (x², x, t², t, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the record's dimensionality differs from the sketch's.
    pub fn insert(&mut self, record: &Record, lambda: f64) {
        debug_assert!((0.0..=1.0).contains(&lambda));
        assert_eq!(self.dims(), record.point.dims(), "point dimension mismatch");
        // One pass over the sums: per element the same rounded multiply and
        // then the same rounded add (of `x`, of the rounded `x²`) as
        // `decay` followed by the two additions, so the sketch is
        // bit-identical to that form.
        let sums = self
            .cf1x
            .as_mut_slice()
            .iter_mut()
            .zip(self.cf2x.as_mut_slice());
        for ((s1, s2), &x) in sums.zip(record.point.iter()) {
            *s1 = *s1 * lambda + x;
            *s2 = *s2 * lambda + x * x;
        }
        let t = record.timestamp.secs();
        self.cf2t = self.cf2t * lambda + t * t;
        self.cf1t = self.cf1t * lambda + t;
        self.weight = self.weight * lambda + 1.0;
        self.updated_at = record.timestamp.max(self.updated_at);
    }

    /// Adds another CF vector using the additivity property. The creation
    /// time becomes the earlier of the two; the update time the later.
    pub fn add(&mut self, other: &CfVector) {
        self.cf2x.add_in_place(&other.cf2x);
        self.cf1x.add_in_place(&other.cf1x);
        self.cf2t += other.cf2t;
        self.cf1t += other.cf1t;
        self.weight += other.weight;
        self.created_at = self.created_at.min(other.created_at);
        self.updated_at = self.updated_at.max(other.updated_at);
    }

    /// Exports centroid + weight for the offline phase.
    pub(crate) fn to_weighted_point(&self) -> WeightedPoint {
        WeightedPoint {
            point: self.centroid(),
            weight: self.weight,
        }
    }
}

impl Sketch for CfVector {
    fn centroid(&self) -> Point {
        CfVector::centroid(self)
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn merge(&mut self, other: &Self) {
        self.add(other);
    }
}

// ---------------------------------------------------------------------------
// SoA nearest-centroid kernel
// ---------------------------------------------------------------------------

/// Relative deflation applied to triangle-inequality screening bounds.
///
/// The screen `|‖c‖ − ‖x‖| ≤ ‖c − x‖` holds exactly over the reals but each
/// side is computed in floating point; deflating the lower bound by one part
/// in 10⁹ (orders of magnitude above the ~1e-15·dims rounding error of the
/// norm computations) guarantees we never skip a candidate the naive scan
/// would have selected.
const SCREEN_DEFLATE: f64 = 1.0 - 1e-9;

/// Largest kernel that ever gets a [`SearchIndex`]: the index caches
/// centre-to-centre distances, `rows² × 8` bytes once every row has been a
/// best row, so this caps it at 2 MiB per kernel. Larger kernels keep the
/// plain in-order scan.
const MAX_INDEXED_ROWS: usize = 512;

/// Coordinates per row in the first-candidate table of a [`SearchIndex`].
const PROBE_DIMS: usize = 8;

/// Rows per tile of that table: one tile's partial sums fill one 4-wide
/// accumulator, like the lanes of the distance reductions.
const PROBE_TILE: usize = 4;

/// Structure-of-arrays nearest-centroid search kernel shared by the online
/// assignment hot paths of CluStream, DenStream, ClusTree, and the offline
/// k-means loop.
///
/// Centroids are flattened into one contiguous `f64` buffer with their
/// Euclidean norms cached, so a nearest-neighbour query runs over dense rows
/// with (a) a triangle-inequality screen against the running best and (b)
/// early exit of the per-row summation once the monotone partial sum can no
/// longer win. Row distances use the workspace's canonical lane-ordered
/// reduction ([`diststream_types::lane_squared_distance`]): a fixed 4-wide
/// accumulator loop LLVM autovectorizes, with the same lane assignment and
/// combine order as [`Point::squared_distance`] itself. Both cuts are
/// therefore *value-preserving*: the winning candidate's distance is always
/// the full canonical reduction, so the returned index and distance are
/// bit-identical to the naive per-cluster loop the kernel replaces
/// (property-tested in this module and relied on by the `debug_invariants`
/// p=1-vs-p=4 replay gate).
///
/// An in-order scan starts with its running best at row 0, usually far from
/// the query, so on clustered centroids the screens above rule out few rows.
/// A kernel that keeps answering queries against unchanged rows therefore
/// buys a `SearchIndex` and searches in two stages — a cheap first
/// candidate, then the same in-order scan seeded with it and screened by the
/// cached centre-to-centre distances. The index only decides which rows are
/// *skipped*; every row it skips provably loses, ties still go to the
/// earliest row, so the answers stay bit-identical to the plain scan. It is
/// derived state: bought by a rent-or-buy rule on the queries the kernel
/// observes (see `CentroidKernel::index`), dropped by every row mutation,
/// not carried over by `clone`, never serialized.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::CentroidKernel;
/// use diststream_types::Point;
///
/// let mut kernel = CentroidKernel::new();
/// kernel.push_point(10, &Point::from(vec![0.0, 0.0]));
/// kernel.push_point(20, &Point::from(vec![3.0, 4.0]));
/// let (idx, dist) = kernel.nearest(&Point::from(vec![2.9, 4.1])).unwrap();
/// assert_eq!(kernel.id(idx), 20);
/// assert!(dist < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CentroidKernel {
    ids: Vec<u64>,
    centers: Vec<f64>,
    norms: Vec<f64>,
    dims: usize,
    search: SearchState,
}

/// What a [`CentroidKernel`] has learned about its current rows: the ledger
/// of the rent-or-buy rule in [`CentroidKernel::index`] and the index bought
/// under it. Reset to empty by every row mutation; a cloned kernel starts
/// renting again. The counters are statistics: they decide how a query is
/// searched, never what it answers, and publish no data (the `OnceLock`
/// publishes the index); `SeqCst` only because the workspace uses no other
/// ordering.
#[derive(Debug, Default)]
struct SearchState {
    /// Queries answered since the rows last changed, counted until the
    /// verdict.
    queries: AtomicUsize,
    /// Row distances evaluated by the plain scans before the index was
    /// built...
    rent_effort: AtomicUsize,
    /// ...and by as many indexed searches after it, first-candidate work
    /// included.
    trial_effort: AtomicUsize,
    /// [`UNDECIDED`], [`KEPT`] or [`RETURNED`].
    verdict: AtomicU8,
    /// `Some(None)` once the rows were found unfit for an index (a
    /// non-finite centre).
    index: OnceLock<Option<SearchIndex>>,
}

/// [`SearchState::verdict`]: still renting, or the index is on trial.
const UNDECIDED: u8 = 0;
/// [`SearchState::verdict`]: the index beat the plain scan; every query
/// uses it.
const KEPT: u8 = 1;
/// [`SearchState::verdict`]: no index for these rows (too many, unfit, or
/// it did not beat the plain scan); every query scans in order.
const RETURNED: u8 = 2;

impl Clone for SearchState {
    fn clone(&self) -> Self {
        SearchState::default()
    }
}

impl SearchState {
    /// Books the row distances one search evaluated on `account`
    /// (`rent_effort` or `trial_effort`), while the ledger is open.
    fn book(&self, account: &AtomicUsize, evaluated: usize) {
        if self.verdict.load(Ordering::SeqCst) == UNDECIDED {
            account.fetch_add(evaluated, Ordering::SeqCst);
        }
    }
}

/// Derived search structure over the rows of a [`CentroidKernel`], built by
/// [`CentroidKernel::build_index`].
#[derive(Debug)]
struct SearchIndex {
    rows: usize,
    /// Entry `j` of row `i` is half the Euclidean distance between rows `i`
    /// and `j`, deflated by [`SCREEN_DEFLATE`]. By the triangle inequality
    /// `d(q, j) ≥ d(i, j) − d(q, i)`, so an entry above `d(q, i)` proves row
    /// `j` is farther from the query `q` than row `i`. A row is filled the
    /// first time it is the best row of a scan
    /// ([`SearchIndex::half_pairs_of`]): the table's `rows² / 2`
    /// distances are paid one scan's worth at a time, by the queries that
    /// use them, and rows that never win are never computed.
    half_pairs: Vec<OnceLock<Box<[f64]>>>,
    /// The (up to [`PROBE_DIMS`]) coordinates with the largest variance
    /// across rows.
    probe_dims: Vec<usize>,
    /// Those coordinates of every row, column-major within tiles of
    /// [`PROBE_TILE`] rows: per tile, [`PROBE_TILE`] values per entry of
    /// `probe_dims` (zeros past the last row).
    probe: Vec<f64>,
    /// What one [`SearchIndex::first_candidate`] costs, in row distances:
    /// it reads `probe_dims.len()` of the `dims` coordinates of every row.
    probe_cost: usize,
}

impl SearchIndex {
    /// Row `idx` of the pair table, computed on first use from `kernel`'s
    /// centres: one distance to every row (about one plain scan), less what
    /// rows filled earlier already hold of it by symmetry. Finite centres
    /// can still be so far apart that their distance overflows; such a pair
    /// is stored as zero, which never screens.
    fn half_pairs_of(&self, kernel: &CentroidKernel, idx: usize) -> &[f64] {
        let Some(cell) = self.half_pairs.get(idx) else {
            return &[];
        };
        cell.get_or_init(|| {
            let target = kernel.center(idx);
            let mirrored = |j: usize| self.half_pairs.get(j)?.get()?.get(idx).copied();
            (0..self.rows)
                .map(|j| {
                    mirrored(j).unwrap_or_else(|| {
                        let d = lane_squared_distance(kernel.center(j), target).sqrt();
                        if d.is_finite() {
                            d * 0.5 * SCREEN_DEFLATE
                        } else {
                            0.0
                        }
                    })
                })
                .collect()
        })
    }

    /// The kept row nearest to `query` over the probe coordinates alone
    /// (earliest on ties). A guess: it decides how much the seeded scan can
    /// skip, never what it answers.
    fn first_candidate(
        &self,
        query: &[f64],
        keep: &mut impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut q = [0.0f64; PROBE_DIMS];
        for (slot, &dim) in q.iter_mut().zip(&self.probe_dims) {
            *slot = *query.get(dim)?;
        }
        let mut best: Option<(usize, f64)> = None;
        let tiles = self.probe.chunks_exact(PROBE_TILE * self.probe_dims.len());
        for (tile, coords) in tiles.enumerate() {
            let mut partial = [0.0f64; PROBE_TILE];
            for (column, &q) in coords.chunks_exact(PROBE_TILE).zip(&q) {
                for (sum, &c) in partial.iter_mut().zip(column) {
                    let d = c - q;
                    *sum += d * d;
                }
            }
            for (lane, &sum) in partial.iter().enumerate() {
                let row = tile * PROBE_TILE + lane;
                if row < self.rows && best.is_none_or(|(_, least)| sum < least) && keep(row) {
                    best = Some((row, sum));
                }
            }
        }
        best.map(|(row, _)| row)
    }
}

/// Running best of a seeded scan.
struct Best {
    row: usize,
    /// The distance in the caller's comparison domain (`d` or `d²`).
    key: f64,
    d2: f64,
    /// A row whose distance lower bound exceeds this is strictly farther
    /// than the best row. The argument needs the 1e-9 deflation of the
    /// bound to dominate the rounding of the distances it compares, which
    /// holds for sums of squares in the normal range only; below it nothing
    /// is screened.
    radius: f64,
    /// Early-exit bound for a row that wins a tie with the best row: above
    /// every `d²` whose `key` can equal the best one (`sqrt` maps at most a
    /// few neighbouring `d²` to one `d`).
    tie_bound: f64,
}

impl Best {
    fn new(row: usize, d2: f64, key: f64) -> Self {
        Best {
            row,
            key,
            d2,
            radius: if d2 >= f64::MIN_POSITIVE {
                d2.sqrt()
            } else {
                f64::INFINITY
            },
            tie_bound: d2 * (1.0 + 4.0 * f64::EPSILON) + f64::MIN_POSITIVE,
        }
    }
}

impl CentroidKernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        CentroidKernel::default()
    }

    /// Creates an empty kernel with room for `rows` centroids of `dims`
    /// dimensions.
    pub fn with_capacity(rows: usize, dims: usize) -> Self {
        CentroidKernel {
            ids: Vec::with_capacity(rows),
            centers: Vec::with_capacity(rows * dims),
            norms: Vec::with_capacity(rows),
            dims: 0,
            search: SearchState::default(),
        }
    }

    /// Number of centroids held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the kernel holds no centroids.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the stored centroids (0 until the first push).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Removes all centroids, keeping the allocated buffers.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.centers.clear();
        self.norms.clear();
        self.dims = 0;
        self.rows_changed();
    }

    /// Forgets everything learned about the previous rows, index included.
    fn rows_changed(&mut self) {
        self.search = SearchState::default();
    }

    /// The caller-supplied id of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn id(&self, idx: usize) -> u64 {
        // lint:allow(index-in-hot-path) idx < len() is the caller's documented contract; every idx a search returns meets it
        self.ids[idx]
    }

    /// The flattened centroid coordinates of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn center(&self, idx: usize) -> &[f64] {
        // lint:allow(index-in-hot-path) idx < len() is the caller's documented contract; centers holds len() * dims coordinates
        &self.centers[idx * self.dims..(idx + 1) * self.dims]
    }

    /// Appends a centroid row from an iterator of coordinates.
    ///
    /// The first push fixes the kernel's dimensionality; later pushes must
    /// match it (checked with `debug_assert`).
    pub(crate) fn push_center(&mut self, id: u64, coords: impl IntoIterator<Item = f64>) {
        let start = self.centers.len();
        self.centers.extend(coords);
        if self.ids.is_empty() {
            self.dims = self.centers.len() - start;
        }
        debug_assert_eq!(
            self.centers.len() - start,
            self.dims,
            "kernel rows must share one dimensionality"
        );
        // Cached norm for the triangle-inequality screen. Only used as a
        // conservative bound, never compared for equality, so its own
        // rounding does not affect results.
        let row = self.centers.split_at(start).1;
        self.norms.push(lane_squared_norm(row).sqrt());
        self.ids.push(id);
        self.rows_changed();
    }

    /// Appends the centroid of `cf`, computed exactly as
    /// [`CfVector::centroid`] computes it (one division by the weight, then
    /// one multiply per coordinate) so the flattened row is bit-identical to
    /// the `Point` the naive loop would have materialized.
    pub(crate) fn push_cf(&mut self, id: u64, cf: &CfVector) {
        let scale = cf.centroid_scale();
        self.push_center(id, cf.cf1x.iter().map(|&v| v * scale));
    }

    /// Inserts the centroid of `cf` as row `idx`, shifting later rows up.
    fn insert_cf(&mut self, idx: usize, id: u64, cf: &CfVector) {
        if self.ids.is_empty() {
            return self.push_cf(id, cf);
        }
        let scale = cf.centroid_scale();
        let at = idx * self.dims;
        self.centers
            .splice(at..at, cf.cf1x.iter().map(|&v| v * scale));
        self.norms
            .insert(idx, lane_squared_norm(self.center(idx)).sqrt());
        self.ids.insert(idx, id);
        self.rows_changed();
    }

    /// Overwrites row `idx` with the centroid of `cf`.
    fn replace_cf(&mut self, idx: usize, cf: &CfVector) {
        let scale = cf.centroid_scale();
        let at = idx * self.dims;
        if let Some(row) = self.centers.get_mut(at..at + self.dims) {
            for (slot, &v) in row.iter_mut().zip(cf.cf1x.iter()) {
                *slot = v * scale;
            }
        }
        let norm = lane_squared_norm(self.center(idx)).sqrt();
        if let Some(slot) = self.norms.get_mut(idx) {
            *slot = norm;
        }
        self.rows_changed();
    }

    /// Removes row `idx`, shifting later rows down.
    fn remove(&mut self, idx: usize) {
        let at = idx * self.dims;
        self.centers.drain(at..at + self.dims);
        self.norms.remove(idx);
        self.ids.remove(idx);
        self.rows_changed();
    }

    /// Appends a plain point as a centroid row.
    pub fn push_point(&mut self, id: u64, point: &Point) {
        self.push_center(id, point.iter().copied());
    }

    /// The search index queries against the current rows should use, if any.
    ///
    /// Rent or buy, on what the kernel observes. The index is paid for as it
    /// is used — each row of its pair table costs about one plain scan the
    /// first time that row is a scan's best row, `rows / 2` scans once all
    /// have been — so a kernel rents (scans in order) until it has answered
    /// `rows / 2` queries against unchanged rows, and buys then: if the rows
    /// last as long again the index can have paid for itself, and a kernel
    /// that is mutated between queries (a [`ClosestPairIndex`]'s rows) or
    /// answers only a handful never pays. The next `rows / 2` queries are
    /// the index's trial: it is kept if they evaluated fewer row distances,
    /// first candidates included, than the rented ones did, and returned
    /// otherwise — on rows without neighbourhoods (uniform coordinates in
    /// many dimensions) no screen fires and the first candidate is pure
    /// overhead. Kernels above [`MAX_INDEXED_ROWS`] never buy.
    fn index(&self) -> Option<&SearchIndex> {
        let state = &self.search;
        let settle = |verdict: u8| state.verdict.store(verdict, Ordering::SeqCst);
        match state.verdict.load(Ordering::SeqCst) {
            KEPT => return state.index.get()?.as_ref(),
            RETURNED => return None,
            _ => {}
        }
        let rows = self.len();
        if rows > MAX_INDEXED_ROWS {
            settle(RETURNED);
            return None;
        }
        let rent = rows / 2;
        let asked = state.queries.fetch_add(1, Ordering::SeqCst);
        if asked < rent {
            return None;
        }
        let index = state.index.get_or_init(|| self.build_index()).as_ref();
        if index.is_none() {
            settle(RETURNED);
        } else if asked >= 2 * rent {
            let trial = state.trial_effort.load(Ordering::SeqCst);
            let kept = trial < state.rent_effort.load(Ordering::SeqCst);
            settle(if kept { KEPT } else { RETURNED });
            return index.filter(|_| kept);
        }
        index
    }

    /// Whether queries currently go through a search index.
    #[cfg(test)]
    pub(crate) fn is_indexed(&self) -> bool {
        matches!(self.search.index.get(), Some(Some(_)))
            && self.search.verdict.load(Ordering::SeqCst) != RETURNED
    }

    /// Builds the index now and keeps it whatever a trial would say, so
    /// tests can check its answers on rows it would not pay for. `false` if
    /// the rows cannot carry one.
    #[cfg(test)]
    fn pin_index(&self) -> bool {
        let built = self.search.index.get_or_init(|| self.build_index());
        let verdict = if built.is_some() { KEPT } else { RETURNED };
        self.search.verdict.store(verdict, Ordering::SeqCst);
        built.is_some()
    }

    /// Builds the search index — the first-candidate table and an empty
    /// pair table — or `None` if the rows cannot carry one: the screens
    /// reason about finite distances, so every norm must be finite.
    fn build_index(&self) -> Option<SearchIndex> {
        let rows = self.len();
        if rows == 0 || self.dims == 0 || !self.norms.iter().all(|norm| norm.is_finite()) {
            return None;
        }
        // Probe coordinates: the largest variance across rows first (ties
        // by coordinate order — the sort is stable).
        let mut spread: Vec<(usize, f64)> = (0..self.dims)
            .map(|dim| {
                let column = || self.centers.iter().skip(dim).step_by(self.dims);
                let mean = column().sum::<f64>() / rows as f64;
                (dim, column().map(|&v| (v - mean) * (v - mean)).sum())
            })
            .collect();
        spread.sort_by(|a, b| b.1.total_cmp(&a.1));
        spread.truncate(PROBE_DIMS);
        let probe_dims: Vec<usize> = spread.into_iter().map(|(dim, _)| dim).collect();
        let mut probe = Vec::with_capacity(rows.next_multiple_of(PROBE_TILE) * probe_dims.len());
        for tile in (0..rows).step_by(PROBE_TILE) {
            for &dim in &probe_dims {
                probe.extend((tile..tile + PROBE_TILE).map(|row| {
                    let at = row * self.dims + dim;
                    self.centers.get(at).copied().unwrap_or(0.0) // past the last row
                }));
            }
        }
        Some(SearchIndex {
            rows,
            half_pairs: (0..rows).map(|_| OnceLock::new()).collect(),
            probe_cost: (rows * probe_dims.len()).div_ceil(self.dims),
            probe_dims,
            probe,
        })
    }

    /// Two-stage exact search through the index: a first candidate from the
    /// probe table, then the in-order scan seeded with it. `key` maps `d²`
    /// into the caller's comparison domain (`sqrt` or identity). Returns
    /// `(row, key, rows whose distance was evaluated)`, or `None` to hand
    /// the query to the plain scan: no index, no kept row, or a query that
    /// is not finite (NaN would freeze the seeded best — every comparison
    /// with it is false — and the plain scan defines what such queries get).
    ///
    /// Exactness: the scan keeps the earliest row of minimal `key` among the
    /// seed and the rows visited so far, and a row is skipped only when a
    /// lower bound on its distance — half the cached distance to the best
    /// row, or the gap between its norm and the query's — exceeds the best
    /// distance (see [`Best::radius`]). The seed is the one best row that
    /// can sit *after* the row being visited; such a row takes over on a
    /// tie, every other on a strictly smaller `key` only.
    fn seeded_search(
        &self,
        query: &[f64],
        qnorm: f64,
        keep: &mut impl FnMut(usize) -> bool,
        key: impl Fn(f64) -> f64,
    ) -> Option<(usize, f64, usize)> {
        let index = self.index()?;
        let seed = index.first_candidate(query, keep)?;
        let seed_d2 = lane_squared_distance(self.center(seed), query);
        if !(seed_d2.is_finite() && qnorm.is_finite()) {
            return None;
        }
        let mut best = Best::new(seed, seed_d2, key(seed_d2));
        let mut half_pairs = index.half_pairs_of(self, seed);
        let mut evaluated = 1;
        for (row, &rnorm) in self.norms.iter().enumerate() {
            if best.d2 == 0.0 && row > best.row {
                break; // zero cannot be beaten, and no earlier row is left to tie it
            }
            if row == seed
                || half_pairs.get(row).is_some_and(|&half| half > best.radius)
                || (rnorm - qnorm).abs() * SCREEN_DEFLATE > best.radius
                || !keep(row)
            {
                continue;
            }
            let wins_ties = row < best.row;
            let bound = if wins_ties { best.tie_bound } else { best.d2 };
            evaluated += 1;
            if let Some(d2) = lane_squared_distance_bounded(self.center(row), query, bound) {
                let k = key(d2);
                if k < best.key || (wins_ties && k == best.key) {
                    best = Best::new(row, d2, k);
                    half_pairs = index.half_pairs_of(self, row);
                }
            }
        }
        let ledger = &self.search;
        ledger.book(&ledger.trial_effort, evaluated + index.probe_cost);
        Some((best.row, best.key, evaluated))
    }

    /// Nearest row to `query` by Euclidean distance, as `(row index,
    /// distance)`. Ties keep the earliest row, and the distance bits equal
    /// `centroid.distance(query)` of the naive scan.
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(query, |_| true)
    }

    /// [`CentroidKernel::nearest`] plus the number of rows whose distance
    /// the search evaluated rather than screened out — what a query cost,
    /// for benchmarks and diagnostics.
    pub fn nearest_with_effort(&self, query: &Point) -> Option<(usize, f64, usize)> {
        self.nearest_counted(query, |_| true)
    }

    /// Like [`CentroidKernel::nearest`], restricted to rows where
    /// `keep(idx)` is true.
    pub fn nearest_filtered(
        &self,
        query: &Point,
        keep: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64)> {
        self.nearest_counted(query, keep)
            .map(|(idx, d, _)| (idx, d))
    }

    fn nearest_counted(
        &self,
        query: &Point,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64, usize)> {
        let query = query.as_slice();
        let qnorm = lane_squared_norm(query).sqrt();
        if let Some(found) = self.seeded_search(query, qnorm, &mut keep, f64::sqrt) {
            return Some(found);
        }
        let found = self.scan_in_order(query, qnorm, keep);
        let evaluated = found.map_or(0, |(_, _, evaluated)| evaluated);
        self.search.book(&self.search.rent_effort, evaluated);
        found
    }

    /// [`CentroidKernel::nearest`] by the plain in-order scan alone: the
    /// query is not counted towards a search index and never goes through
    /// one, so its cost is the same from the first query against new rows to
    /// the last.
    pub(crate) fn nearest_in_order(&self, query: &Point) -> Option<(usize, f64)> {
        let query = query.as_slice();
        let qnorm = lane_squared_norm(query).sqrt();
        self.scan_in_order(query, qnorm, |_| true)
            .map(|(idx, d, _)| (idx, d))
    }

    /// The in-order scan behind [`CentroidKernel::nearest_filtered`]:
    /// running best from the first kept row, norm screen, bounded early
    /// exit. Returns `(row, distance, rows whose distance was evaluated)`.
    fn scan_in_order(
        &self,
        query: &[f64],
        qnorm: f64,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64, usize)> {
        let mut best: Option<(usize, f64, f64)> = None; // (idx, dist, dist²)
        let mut evaluated = 0;
        for (idx, &rnorm) in self.norms.iter().enumerate() {
            if !keep(idx) {
                continue;
            }
            match best {
                None => {
                    let d2 = lane_squared_distance(self.center(idx), query);
                    best = Some((idx, d2.sqrt(), d2));
                    evaluated += 1;
                }
                Some((_, best_d, best_d2)) => {
                    let gap = rnorm - qnorm;
                    if gap.abs() * SCREEN_DEFLATE >= best_d {
                        continue;
                    }
                    evaluated += 1;
                    if let Some(d2) =
                        lane_squared_distance_bounded(self.center(idx), query, best_d2)
                    {
                        let d = d2.sqrt();
                        // sqrt is monotone, so d ≤ best_d here; the strict
                        // comparison keeps the earliest row on sqrt-level
                        // ties exactly like the naive `min_by` scan.
                        if d < best_d {
                            best = Some((idx, d, d2));
                        }
                    }
                }
            }
        }
        best.map(|(idx, d, _)| (idx, d, evaluated))
    }

    /// Nearest row to `query` by *squared* Euclidean distance. Ties keep the
    /// earliest row, and the distance bits equal
    /// `centroid.squared_distance(query)` of the naive scan.
    pub fn nearest_squared(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_squared_filtered(query, |_| true)
    }

    /// Like [`CentroidKernel::nearest_squared`], restricted to rows where
    /// `keep(idx)` is true.
    pub(crate) fn nearest_squared_filtered(
        &self,
        query: &Point,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64)> {
        let query = query.as_slice();
        let qnorm = lane_squared_norm(query).sqrt();
        if let Some((idx, d2, _)) = self.seeded_search(query, qnorm, &mut keep, |d2| d2) {
            return Some((idx, d2));
        }
        let mut best: Option<(usize, f64)> = None;
        let mut evaluated = 0;
        for (idx, &rnorm) in self.norms.iter().enumerate() {
            if !keep(idx) {
                continue;
            }
            match best {
                None => {
                    let d2 = lane_squared_distance(self.center(idx), query);
                    best = Some((idx, d2));
                    evaluated += 1;
                }
                Some((_, best_sq)) => {
                    let gap = rnorm - qnorm;
                    if gap * gap * SCREEN_DEFLATE >= best_sq {
                        continue;
                    }
                    evaluated += 1;
                    if let Some(d2) =
                        lane_squared_distance_bounded(self.center(idx), query, best_sq)
                    {
                        best = Some((idx, d2));
                    }
                }
            }
        }
        self.search.book(&self.search.rent_effort, evaluated);
        best
    }

    /// Minimum Euclidean distance from row `idx` to any *other* row
    /// (`f64::INFINITY` when no other row exists) — CluStream's
    /// nearest-other-centroid boundary for singleton clusters. The value
    /// bits equal the naive `fold(INFINITY, f64::min)` over
    /// `other.distance(center)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn nearest_other_distance(&self, idx: usize) -> f64 {
        let query = self.center(idx);
        let qnorm = lane_squared_norm(query).sqrt();
        let mut best_d = f64::INFINITY;
        let mut best_d2 = f64::INFINITY;
        for (row, &rnorm) in self.norms.iter().enumerate() {
            if row == idx {
                continue;
            }
            let gap = rnorm - qnorm;
            if gap.abs() * SCREEN_DEFLATE >= best_d {
                continue;
            }
            if let Some(d2) = lane_squared_distance_bounded(self.center(row), query, best_d2) {
                let d = d2.sqrt();
                if d < best_d {
                    best_d = d;
                    best_d2 = d2;
                }
            }
        }
        best_d
    }
}

// ---------------------------------------------------------------------------
// Closed-form screen for DenStream's tentative-insertion radius
// ---------------------------------------------------------------------------

/// Magnitudes the screen reasons about: below this neither path's
/// intermediates (sums of squares times a weight) can overflow. A weight or
/// a sum of squares at or beyond it is left to [`CfVector::radius_with`].
const SCREEN_RANGE: f64 = 1e150;

/// DenStream's absorption test — `cf.radius_with(x) <= eps` — decided from
/// the squared distance `d²` the nearest-centroid search has already
/// computed, for the sketches behind the rows of a [`CentroidKernel`].
///
/// Over the reals, for a sketch `(S1, S2, w₀)` with `w₀ > 0`, centroid
/// `c = S1/w₀`, `w = w₀ + 1` and `V_j = S2_j − S1_j²/w₀`, the term
/// `radius_with` sums for dimension `j` is
///
/// ```text
/// (S2_j + x_j²)/w − ((S1_j + x_j)/w)²  =  V_j/w + w₀·(x_j − c_j)²/w²
/// ```
///
/// so the radius squared is `a + b·d²` with `a = Σ V_j / w` and
/// `b = w₀/w²` — no pass over the coordinates. Two things separate that
/// from what `radius_with` returns. It clamps every term at zero; the
/// second summand above is never negative, so a term is below zero only
/// where `V_j` is (cancellation in a dimension of no variance), the clamp
/// can only *add*, and by at most `clamp = Σ max(0, −V_j) / w`. And both
/// sides round: every intermediate of either is bounded by the sum of
/// squares `scale` below, each contributes a relative `2⁻⁵³`, a sum of `d`
/// terms compounds `d` of them, and the constants add up to less than
/// `2·dims + 22` units — [`RadiusScreen::new`] allows
/// `(4·dims + 32)·ε_mach`, three to four times that (DESIGN.md §15.1c has
/// the tally). So the screen **accepts** when
/// `a + b·d² + clamp + margin ≤ ε²`, **rejects** when
/// `a + b·d² − margin > ε²`, and otherwise answers `None`: the caller runs
/// `radius_with`, as it does for an emptied sketch, a weight or magnitude
/// outside [`SCREEN_RANGE`], and anything non-finite (NaN fails both
/// comparisons). Every decision is therefore the one the full sum makes.
#[derive(Debug)]
pub(crate) struct RadiusScreen {
    rows: Vec<ScreenRow>,
    eps2: f64,
    /// Relative rounding allowance on [`ScreenRow::scale`] and the
    /// per-query magnitudes.
    slack: f64,
}

/// What [`RadiusScreen`] keeps per sketch.
#[derive(Debug)]
struct ScreenRow {
    a: f64,
    b: f64,
    clamp: f64,
    /// The query-independent magnitudes the margin is relative to:
    /// `Σ|S2_j|/w + 3‖c‖² + clamp + ε²`.
    scale: f64,
}

impl RadiusScreen {
    /// An empty screen for `dims`-dimensional sketches under threshold `eps`.
    pub(crate) fn new(rows: usize, dims: usize, eps: f64) -> Self {
        RadiusScreen {
            rows: Vec::with_capacity(rows),
            eps2: eps * eps,
            slack: (4 * dims + 32) as f64 * f64::EPSILON,
        }
    }

    /// Appends the row of `cf`; call in step with the kernel's `push_cf`.
    pub(crate) fn push(&mut self, cf: &CfVector) {
        let w0 = cf.weight;
        let inv0 = 1.0 / w0;
        let w = w0 + 1.0;
        let (mut spread, mut clamp, mut s2_abs, mut c2) = (0.0, 0.0, 0.0, 0.0);
        for (&s2, &s1) in cf.cf2x.iter().zip(cf.cf1x.iter()) {
            let sq = s1 * (s1 * inv0);
            let v = s2 - sq;
            spread += v.max(0.0);
            clamp += (-v).max(0.0);
            s2_abs += s2.abs();
            c2 += sq;
        }
        let a = if w0 > 0.0 && w0 < SCREEN_RANGE {
            (spread - clamp) / w
        } else {
            f64::NAN // fails every comparison in `within`
        };
        let clamp = clamp / w;
        self.rows.push(ScreenRow {
            a,
            b: w0 / (w * w),
            clamp,
            scale: s2_abs / w + 3.0 * (c2 * inv0) + clamp + self.eps2,
        });
    }

    /// Whether the sketch behind `row` keeps its radius within `eps` after
    /// absorbing a point at squared distance `d2` from its centroid —
    /// `None` where only [`CfVector::radius_with`] can tell.
    pub(crate) fn within(&self, row: usize, d2: f64) -> Option<bool> {
        let row = self.rows.get(row)?;
        let estimate = row.a + row.b * d2;
        // ‖x‖² ≤ 2‖c‖² + 2d² — the row holds the first, this adds the rest.
        let scale = row.scale + 2.0 * d2 + estimate.abs();
        let margin = self.slack * scale + f64::MIN_POSITIVE;
        if scale < SCREEN_RANGE {
            if estimate + row.clamp + margin <= self.eps2 {
                return Some(true);
            }
            if estimate - margin > self.eps2 {
                return Some(false);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Closest-pair index for capacity merges
// ---------------------------------------------------------------------------

/// The two closest centroids of a micro-cluster set, kept current across
/// insertions, updates and removals — the capacity-merge search of CluStream
/// and ClusTree.
///
/// Centroids sit in a [`CentroidKernel`] in ascending id order (rows are
/// bit-identical to [`CfVector::centroid`]); beside them an upper-triangular
/// table caches every pairwise squared distance, each row beside its own
/// minimum ([`PairRow`]). The table is filled by the first
/// [`ClosestPairIndex::closest`] call (`O(n²·d)`, once); from then on each
/// mutation recomputes one row (`O(n·d)`) and one entry of every earlier
/// row, whose minimum follows by a comparison, or by a rescan of that row if
/// the entry was its minimum. A capacity merge so costs `O(n·d)` distance
/// work plus a scan of `n` row minima instead of a full `O(n²·d)` rescan.
/// Until the table exists mutations touch the centroid row only, so callers
/// that never exceed their budget pay for the flat rows alone.
///
/// The pair returned is the lexicographically first `(d², i, j)` with
/// `i < j` in id order under strict `<` — exactly what a fresh double loop
/// over the id-ordered centroids selects, duplicate centroids (`d² = 0`
/// ties) included — so swapping the rescan for the index leaves every model
/// bit-identical.
///
/// An index lives for one `apply_global` call; it is never part of a model.
#[derive(Debug)]
pub(crate) struct ClosestPairIndex {
    rows: CentroidKernel,
    /// `pairs[i].d2[j - i - 1]` is the squared distance between rows `i < j`;
    /// `None` until the first `closest()`.
    pairs: Option<Vec<PairRow>>,
}

/// One row of the pair table and what a strict-`<` scan of it from infinity
/// ends on: the smallest entry and its first position — `(INFINITY, 0)` for
/// an empty row or one of overflowed and NaN distances only.
#[derive(Debug)]
struct PairRow {
    d2: Vec<f64>,
    min: f64,
    at: usize,
}

impl PairRow {
    fn new(d2: Vec<f64>) -> Self {
        let (min, at) = (f64::INFINITY, 0);
        let mut row = PairRow { d2, min, at };
        row.rescan();
        row
    }

    fn rescan(&mut self) {
        (self.min, self.at) = (f64::INFINITY, 0);
        for (k, &d2) in self.d2.iter().enumerate() {
            if d2 < self.min {
                (self.min, self.at) = (d2, k);
            }
        }
    }

    /// Lets the entry now at `k` stand for the minimum if a scan would have
    /// ended on it: smaller, or as small and earlier.
    fn offer(&mut self, k: usize, d2: f64) {
        if d2 < self.min || (d2 == self.min && k < self.at) {
            (self.min, self.at) = (d2, k);
        }
    }

    fn insert(&mut self, k: usize, d2: f64) -> Result<()> {
        if k > self.d2.len() {
            return Err(out_of_step());
        }
        self.d2.insert(k, d2);
        if self.min < f64::INFINITY && k <= self.at {
            self.at += 1;
        }
        self.offer(k, d2);
        Ok(())
    }

    fn set(&mut self, k: usize, d2: f64) -> Result<()> {
        *self.d2.get_mut(k).ok_or_else(out_of_step)? = d2;
        if k == self.at {
            self.rescan();
        } else {
            self.offer(k, d2);
        }
        Ok(())
    }

    fn remove(&mut self, k: usize) -> Result<()> {
        if k >= self.d2.len() {
            return Err(out_of_step());
        }
        self.d2.remove(k);
        match k.cmp(&self.at) {
            std::cmp::Ordering::Less => self.at -= 1,
            std::cmp::Ordering::Equal => self.rescan(),
            std::cmp::Ordering::Greater => {}
        }
        Ok(())
    }
}

/// The table and the rows it caches disagree on shape — unreachable while
/// every mutation goes through the methods below.
fn out_of_step() -> DistStreamError {
    DistStreamError::Invariant("closest-pair table is out of step with its centroid rows".into())
}

impl ClosestPairIndex {
    /// Flattens the centroids of `entries` (a `BTreeMap`, hence ascending
    /// unique ids).
    pub(crate) fn build(entries: &BTreeMap<MicroClusterId, CfVector>) -> Self {
        let dims = entries.values().next().map_or(0, CfVector::dims);
        let mut rows = CentroidKernel::with_capacity(entries.len() + 1, dims);
        for (id, cf) in entries {
            rows.push_cf(*id, cf);
        }
        ClosestPairIndex { rows, pairs: None }
    }

    /// The id-ordered centroid rows, for nearest-centroid queries.
    pub(crate) fn rows(&self) -> &CentroidKernel {
        &self.rows
    }

    fn position(&self, id: MicroClusterId) -> Result<usize> {
        self.rows
            .ids
            .binary_search(&id)
            .map_err(|_| DistStreamError::UnknownMicroCluster { id })
    }

    /// Squared distances from row `pos` to rows `from..`, in row order.
    fn distances(rows: &CentroidKernel, pos: usize, from: usize) -> impl Iterator<Item = f64> + '_ {
        let target = rows.center(pos);
        (from..rows.len()).map(move |j| lane_squared_distance(rows.center(j), target))
    }

    /// Adds micro-cluster `id` at its place in id order.
    ///
    /// # Errors
    ///
    /// [`DistStreamError::Invariant`] if `id` is already indexed.
    pub(crate) fn insert(&mut self, id: MicroClusterId, cf: &CfVector) -> Result<()> {
        let pos = match self.rows.ids.binary_search(&id) {
            Ok(_) => {
                return Err(DistStreamError::Invariant(format!(
                    "micro-cluster {id} is already in the closest-pair index"
                )))
            }
            Err(pos) => pos,
        };
        self.rows.insert_cf(pos, id, cf);
        if let Some(pairs) = &mut self.pairs {
            let rows = &self.rows;
            for ((i, row), d2) in pairs
                .iter_mut()
                .enumerate()
                .take(pos)
                .zip(Self::distances(rows, pos, 0))
            {
                row.insert(pos - i - 1, d2)?;
            }
            if pos > pairs.len() {
                return Err(out_of_step());
            }
            let own = Self::distances(rows, pos, pos + 1).collect();
            pairs.insert(pos, PairRow::new(own));
        }
        Ok(())
    }

    /// Re-reads the centroid of micro-cluster `id` after its sketch changed.
    ///
    /// # Errors
    ///
    /// [`DistStreamError::UnknownMicroCluster`] if `id` is not indexed.
    pub(crate) fn update(&mut self, id: MicroClusterId, cf: &CfVector) -> Result<()> {
        let pos = self.position(id)?;
        self.rows.replace_cf(pos, cf);
        if let Some(pairs) = &mut self.pairs {
            let rows = &self.rows;
            for ((i, row), d2) in pairs
                .iter_mut()
                .enumerate()
                .take(pos)
                .zip(Self::distances(rows, pos, 0))
            {
                row.set(pos - i - 1, d2)?;
            }
            let own = pairs.get_mut(pos).ok_or_else(out_of_step)?;
            for (slot, d2) in own.d2.iter_mut().zip(Self::distances(rows, pos, pos + 1)) {
                *slot = d2;
            }
            own.rescan();
        }
        Ok(())
    }

    /// Drops micro-cluster `id`.
    ///
    /// # Errors
    ///
    /// [`DistStreamError::UnknownMicroCluster`] if `id` is not indexed.
    pub(crate) fn remove(&mut self, id: MicroClusterId) -> Result<()> {
        let pos = self.position(id)?;
        self.rows.remove(pos);
        if let Some(pairs) = &mut self.pairs {
            if pos >= pairs.len() {
                return Err(out_of_step());
            }
            pairs.remove(pos);
            for (i, row) in pairs.iter_mut().enumerate().take(pos) {
                row.remove(pos - i - 1)?;
            }
        }
        Ok(())
    }

    /// The closest pair as `(lower id, higher id, d²)`, or `None` with fewer
    /// than two micro-clusters. Pairs at non-finite distance never win; if
    /// no pair is finite the first two ids are returned.
    pub(crate) fn closest(&mut self) -> Option<(MicroClusterId, MicroClusterId, f64)> {
        let rows = &self.rows;
        let pairs = self.pairs.get_or_insert_with(|| {
            (0..rows.len())
                .map(|i| PairRow::new(Self::distances(rows, i, i + 1).collect()))
                .collect()
        });
        if rows.len() < 2 {
            return None;
        }
        // The first row holding the smallest row minimum, at that row's
        // first position holding it, is the pair a strict-`<` scan of the
        // whole table in row order would have kept.
        let mut best = (0, 1, f64::INFINITY);
        for (i, row) in pairs.iter().enumerate() {
            if row.min < best.2 {
                best = (i, i + 1 + row.at, row.min);
            }
        }
        Some((rows.id(best.0), rows.id(best.1), best.2))
    }

    /// One capacity merge on `entries`, the map this index mirrors: folds
    /// the higher id of the closest pair into the lower and keeps the index
    /// in step. Returns `false` when fewer than two micro-clusters remain.
    ///
    /// # Errors
    ///
    /// [`DistStreamError::UnknownMicroCluster`] if `entries` and the index
    /// disagree on which ids exist.
    pub(crate) fn merge_closest(
        &mut self,
        entries: &mut BTreeMap<MicroClusterId, CfVector>,
    ) -> Result<bool> {
        let Some((keep, fold, _)) = self.closest() else {
            return Ok(false);
        };
        let folded = entries
            .remove(&fold)
            .ok_or(DistStreamError::UnknownMicroCluster { id: fold })?;
        self.remove(fold)?;
        let kept = entries
            .get_mut(&keep)
            .ok_or(DistStreamError::UnknownMicroCluster { id: keep })?;
        kept.add(&folded);
        self.update(keep, kept)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(id: u64, coords: Vec<f64>, t: f64) -> Record {
        Record::new(id, Point::from(coords), Timestamp::from_secs(t))
    }

    #[test]
    fn singleton_statistics() {
        let cf = CfVector::from_record(&rec(0, vec![2.0, 4.0], 3.0));
        assert_eq!(cf.weight(), 1.0);
        assert_eq!(cf.centroid().as_slice(), &[2.0, 4.0]);
        assert_eq!(cf.rms_radius(), 0.0);
        assert_eq!(cf.mean_time(), 3.0);
        assert_eq!(cf.std_time(), 0.0);
        assert_eq!(cf.created_at(), Timestamp::from_secs(3.0));
    }

    #[test]
    fn insert_updates_all_components() {
        let mut cf = CfVector::from_record(&rec(0, vec![0.0], 0.0));
        cf.insert(&rec(1, vec![4.0], 2.0), 1.0);
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.centroid().as_slice(), &[2.0]);
        assert_eq!(cf.mean_time(), 1.0);
        assert_eq!(cf.std_time(), 1.0);
        // Radius: points at 0 and 4, centroid 2 → rms deviation 2.
        assert!((cf.rms_radius() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn decay_scales_weight_but_not_centroid() {
        let mut cf = CfVector::from_record(&rec(0, vec![3.0, 1.0], 0.0));
        cf.insert(&rec(1, vec![5.0, 3.0], 0.0), 1.0);
        let before = cf.centroid();
        cf.decay(0.5, Timestamp::from_secs(1.0));
        assert_eq!(cf.weight(), 1.0);
        assert_eq!(cf.centroid(), before);
        assert_eq!(cf.updated_at(), Timestamp::from_secs(1.0));
    }

    #[test]
    fn radius_with_matches_actual_insert() {
        let mut cf = CfVector::from_record(&rec(0, vec![0.0, 0.0], 0.0));
        cf.insert(&rec(1, vec![2.0, 0.0], 0.0), 1.0);
        let predicted = cf.radius_with(&Point::from(vec![4.0, 0.0]));
        cf.insert(&rec(2, vec![4.0, 0.0], 0.0), 1.0);
        assert!((predicted - cf.rms_radius()).abs() < 1e-12);
    }

    /// Every stored number of a sketch, as bits.
    fn sketch_bits(cf: &CfVector) -> Vec<u64> {
        let scalars = [cf.cf2t, cf.cf1t, cf.weight];
        let stamps = [cf.created_at.secs(), cf.updated_at.secs()];
        let all = cf.cf2x.iter().chain(cf.cf1x.iter()).chain(&scalars);
        all.chain(&stamps).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_pass_insert_is_decay_then_add_bit_for_bit() {
        let mut rng = proptest::test_runner::TestRng::from_seed(22);
        for dims in [1, 54, 315] {
            for lambda in [1.0, 0.5, 1e-300] {
                let mut coords = |scale: f64| -> Vec<f64> {
                    (0..dims).map(|_| (rng.unit_f64() - 0.5) * scale).collect()
                };
                let mut cf = CfVector::from_record(&rec(0, coords(1e3), 1.0));
                for (i, scale) in [1.0, 1e-7, 1e9, 3.0].into_iter().enumerate() {
                    // Out of order on the third insert: `updated_at` holds.
                    let t = if i == 2 { 0.5 } else { 2.0 + i as f64 * 0.37 };
                    let record = rec(1 + i as u64, coords(scale), t);
                    // The four-pass form `insert` used to be.
                    let mut want = cf.clone();
                    want.decay(lambda, record.timestamp.max(want.updated_at));
                    want.cf1x.add_in_place(&record.point);
                    want.cf2x.add_in_place(&record.point.squared());
                    want.cf2t += t * t;
                    want.cf1t += t;
                    want.weight += 1.0;
                    cf.insert(&record, lambda);
                    assert_eq!(sketch_bits(&cf), sketch_bits(&want), "d={dims} λ={lambda}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn insert_rejects_a_record_of_another_dimensionality() {
        let mut cf = CfVector::from_record(&rec(0, vec![1.0, 2.0], 0.0));
        cf.insert(&rec(1, vec![1.0], 0.0), 1.0);
    }

    /// The screen's answer for `point` against the one sketch it holds, and
    /// the full sum's.
    fn screened_and_exact(cf: &CfVector, point: &Point, eps: f64) -> (Option<bool>, bool) {
        let mut screen = RadiusScreen::new(1, cf.dims(), eps);
        screen.push(cf);
        let d2 = cf.squared_distance_to(point);
        (screen.within(0, d2), cf.radius_with(point) <= eps)
    }

    #[test]
    fn radius_screen_decides_interior_points_and_only_as_the_full_sum_does() {
        let mut cf = CfVector::from_record(&rec(0, vec![0.0, 0.0], 0.0));
        cf.insert(&rec(1, vec![2.0, 0.0], 0.0), 1.0);
        // Centroid (1, 0), per-dimension SSE (2, 0): absorbing (1, y) gives
        // r² = (2 + ⅔·y²)/3.
        for (y, absorbed) in [
            (0.0, true),
            (1.0, true),
            (1.2, true),
            (1.3, false),
            (9.0, false),
        ] {
            let got = screened_and_exact(&cf, &Point::from(vec![1.0, y]), 1.0);
            assert_eq!(got, (Some(absorbed), absorbed), "y = {y}");
        }
        // On the boundary itself — r² = 1 at y² = 3/2 up to rounding — the
        // screen abstains.
        let edge = Point::from(vec![1.0, 1.5f64.sqrt()]);
        assert_eq!(screened_and_exact(&cf, &edge, 1.0).0, None);
    }

    /// The clamp is one-sided. A sketch whose squared sums undercut its
    /// linear sums in some dimensions — what rounding does to a dimension of
    /// no variance at a large offset, here made large enough to see — has
    /// `a + b·d²` *below* what `radius_with` sums, because the full sum
    /// lifts each negative term to zero. Accepting on the closed form alone
    /// would absorb a point the full sum rejects.
    #[test]
    fn radius_screen_allows_for_the_clamp() {
        let mut cf = CfVector::from_record(&rec(0, vec![0.0; 3], 0.0));
        cf.insert(&rec(1, vec![2.0, 0.0, 0.0], 0.0), 1.0);
        // Dimension 0: S1 = 2, S2 = 4 (SSE 2). Dimensions 1 and 2 hold 10
        // twice over in S1 but only 199 of the 200 in S2: SSE −1 each.
        cf.cf1x = Point::from(vec![2.0, 20.0, 20.0]);
        cf.cf2x = Point::from(vec![4.0, 199.0, 199.0]);
        let at_centroid = Point::from(vec![1.0, 10.0, 10.0]);
        // Closed form: (2 − 1 − 1)/3 = 0. Full sum: 2/3 + 0 + 0.
        let exact = cf.radius_with(&at_centroid);
        assert!((exact * exact - 2.0 / 3.0).abs() < 1e-12);
        for eps in [0.5, 0.8] {
            // ε² = 0.25 and 0.64 both lie between 0 and ⅔: the estimate
            // accepts, the clamp allowance (⅔) forbids it, the full sum
            // rejects.
            let (screened, absorbed) = screened_and_exact(&cf, &at_centroid, eps);
            assert!(!absorbed);
            assert_eq!(screened, None, "eps = {eps}");
        }
        // Past the allowance both agree again.
        assert_eq!(
            screened_and_exact(&cf, &at_centroid, 0.9),
            (Some(true), true)
        );
        // The allowance never turns into a rejection: far out the
        // estimate alone exceeds ε².
        let far = Point::from(vec![1.0, 10.0, 14.0]);
        assert_eq!(screened_and_exact(&cf, &far, 0.9), (Some(false), false));
    }

    /// Sketches and points the closed form has no business judging: the
    /// screen abstains and [`CfVector::radius_with`] answers, whatever that
    /// answer is.
    #[test]
    fn hostile_sketches_and_points_leave_the_radius_to_the_full_sum() {
        let base = |x: f64| {
            let mut cf = CfVector::from_record(&rec(0, vec![x, 1.0], 0.0));
            cf.insert(&rec(1, vec![x, 3.0], 0.0), 1.0);
            cf
        };
        let healthy = base(5.0);
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200] {
            // In the point...
            let point = Point::from(vec![hostile, 2.0]);
            assert_eq!(screened_and_exact(&healthy, &point, 1.0).0, None);
            // ...and in the sketch.
            let near = Point::from(vec![5.0, 2.0]);
            assert_eq!(screened_and_exact(&base(hostile), &near, 1.0).0, None);
        }
        // Magnitudes that are finite but square past the screen's range.
        let point = Point::from(vec![1e80, 2.0]);
        assert_eq!(screened_and_exact(&base(1e80), &point, 1.0).0, None);
        // An emptied sketch (w₀ = 0) and a weight past the range.
        let mut emptied = healthy.clone();
        emptied.decay(0.0, Timestamp::from_secs(1.0));
        let mut heavy = healthy.clone();
        heavy.weight = 1e200;
        for cf in [&emptied, &heavy] {
            let point = Point::from(vec![5.0, 2.0]);
            assert_eq!(screened_and_exact(cf, &point, 1.0).0, None);
        }
        // A one-record sketch is ordinary: SSE 0, b = ¼.
        let single = CfVector::from_record(&rec(0, vec![5.0, 2.0], 0.0));
        for (x, absorbed) in [(5.0, true), (6.9, true), (7.1, false)] {
            let got = screened_and_exact(&single, &Point::from(vec![x, 2.0]), 1.0);
            assert_eq!(got, (Some(absorbed), absorbed), "x = {x}");
        }
        // A threshold whose square underflows leaves nothing to compare.
        let at = Point::from(vec![5.0, 2.0]);
        assert_eq!(screened_and_exact(&single, &at, 1e-170), (None, true));
    }

    #[test]
    fn add_is_component_wise() {
        let mut a = CfVector::from_record(&rec(0, vec![1.0], 0.0));
        let b = CfVector::from_record(&rec(1, vec![3.0], 5.0));
        a.add(&b);
        assert_eq!(a.weight(), 2.0);
        assert_eq!(a.centroid().as_slice(), &[2.0]);
        assert_eq!(a.created_at(), Timestamp::ZERO);
        assert_eq!(a.updated_at(), Timestamp::from_secs(5.0));
    }

    #[test]
    fn relevance_stamp_grows_with_recency() {
        let mut old = CfVector::from_record(&rec(0, vec![0.0], 0.0));
        old.insert(&rec(1, vec![0.0], 1.0), 1.0);
        let mut fresh = CfVector::from_record(&rec(2, vec![0.0], 10.0));
        fresh.insert(&rec(3, vec![0.0], 11.0), 1.0);
        assert!(fresh.relevance_stamp(1.0) > old.relevance_stamp(1.0));
    }

    #[test]
    fn weighted_point_export() {
        let cf = CfVector::from_record(&rec(0, vec![7.0], 0.0));
        let wp = cf.to_weighted_point();
        assert_eq!(wp.point.as_slice(), &[7.0]);
        assert_eq!(wp.weight, 1.0);
    }

    #[test]
    fn sketch_trait_merge_delegates_to_add() {
        let mut a = CfVector::from_record(&rec(0, vec![0.0], 0.0));
        let b = CfVector::from_record(&rec(1, vec![2.0], 0.0));
        Sketch::merge(&mut a, &b);
        assert_eq!(Sketch::centroid(&a).as_slice(), &[1.0]);
    }

    #[test]
    fn kernel_push_cf_matches_centroid_bits() {
        let mut cf = CfVector::from_record(&rec(0, vec![0.3, -1.7, 9.1], 0.0));
        cf.insert(&rec(1, vec![2.2, 0.4, -3.0], 1.5), 0.9);
        let mut kernel = CentroidKernel::new();
        kernel.push_cf(7, &cf);
        let centroid = cf.centroid();
        assert_eq!(kernel.id(0), 7);
        for (a, b) in kernel.center(0).iter().zip(centroid.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn kernel_clear_keeps_capacity() {
        let mut kernel = CentroidKernel::with_capacity(4, 2);
        kernel.push_point(0, &Point::from(vec![1.0, 2.0]));
        kernel.push_point(1, &Point::from(vec![3.0, 4.0]));
        let cap = kernel.centers.capacity();
        kernel.clear();
        assert!(kernel.is_empty());
        assert_eq!(kernel.dims(), 0);
        assert_eq!(kernel.centers.capacity(), cap);
    }

    #[test]
    fn kernel_empty_returns_none() {
        let kernel = CentroidKernel::new();
        assert!(kernel.nearest(&Point::from(vec![1.0])).is_none());
        assert!(kernel.nearest_squared(&Point::from(vec![1.0])).is_none());
    }

    #[test]
    fn kernel_ties_keep_earliest_row() {
        // Two centroids equidistant from the query: the naive min_by keeps
        // the first, so must the kernel — in both distance domains.
        let mut kernel = CentroidKernel::new();
        kernel.push_point(10, &Point::from(vec![-1.0]));
        kernel.push_point(20, &Point::from(vec![1.0]));
        let q = Point::from(vec![0.0]);
        assert_eq!(kernel.nearest(&q).unwrap().0, 0);
        assert_eq!(kernel.nearest_squared(&q).unwrap().0, 0);
    }

    #[test]
    fn kernel_nearest_other_distance_of_two_rows() {
        let mut kernel = CentroidKernel::new();
        kernel.push_point(0, &Point::from(vec![0.0, 0.0]));
        kernel.push_point(1, &Point::from(vec![3.0, 4.0]));
        assert_eq!(kernel.nearest_other_distance(0), 5.0);
        assert_eq!(kernel.nearest_other_distance(1), 5.0);
        let mut single = CentroidKernel::new();
        single.push_point(0, &Point::from(vec![1.0]));
        assert_eq!(single.nearest_other_distance(0), f64::INFINITY);
    }

    /// Strategy: a set of CF vectors (each folded from a handful of random
    /// records, so weights and centroids are arbitrary) plus a query point,
    /// all of one dimensionality. Coordinates are generated at the maximum
    /// width and truncated to the drawn dimensionality (the vendored
    /// proptest has no `prop_flat_map`).
    fn cf_set_and_query() -> impl Strategy<Value = (Vec<CfVector>, Point)> {
        let coords = || prop::collection::vec(-1000.0_f64..1000.0, 4usize..5);
        let cfs = prop::collection::vec(prop::collection::vec(coords(), 1..6), 1..12);
        (1usize..5, cfs, coords()).prop_map(|(dims, cfs, mut query)| {
            query.truncate(dims);
            let cfs: Vec<CfVector> = cfs
                .into_iter()
                .map(|points| {
                    let mut iter = points.into_iter().enumerate();
                    let (_, mut first) = iter.next().expect("non-empty record set");
                    first.truncate(dims);
                    let mut cf = CfVector::from_record(&rec(0, first, 0.0));
                    for (i, mut p) in iter {
                        p.truncate(dims);
                        cf.insert(&rec(i as u64, p, i as f64), 0.97);
                    }
                    cf
                })
                .collect();
            (cfs, Point::from(query))
        })
    }

    proptest! {
        /// The kernel's sqrt-domain search returns the identical winning
        /// index and identical distance bits as the naive per-cluster loop
        /// (`centroid().distance()` + first-min scan) it replaces.
        #[test]
        fn prop_kernel_nearest_matches_naive_bits(
            (cfs, query) in cf_set_and_query(),
        ) {
            let mut kernel = CentroidKernel::new();
            for (i, cf) in cfs.iter().enumerate() {
                kernel.push_cf(i as u64, cf);
            }
            let naive = cfs
                .iter()
                .enumerate()
                .map(|(i, cf)| (i, cf.centroid().distance(&query)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            let (idx, dist) = kernel.nearest(&query).expect("non-empty");
            prop_assert_eq!(idx, naive.0);
            prop_assert_eq!(dist.to_bits(), naive.1.to_bits());
        }

        /// Same bit-identity in the squared-distance domain (DenStream's
        /// comparison space).
        #[test]
        fn prop_kernel_nearest_squared_matches_naive_bits(
            (cfs, query) in cf_set_and_query(),
        ) {
            let mut kernel = CentroidKernel::new();
            for (i, cf) in cfs.iter().enumerate() {
                kernel.push_cf(i as u64, cf);
            }
            let naive = cfs
                .iter()
                .enumerate()
                .map(|(i, cf)| (i, cf.centroid().squared_distance(&query)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            let (idx, d2) = kernel.nearest_squared(&query).expect("non-empty");
            prop_assert_eq!(idx, naive.0);
            prop_assert_eq!(d2.to_bits(), naive.1.to_bits());
        }

        /// Filtered squared search against the naive filtered scan, using a
        /// role mask like DenStream's potential/outlier split.
        #[test]
        fn prop_kernel_filtered_matches_naive_bits(
            (cfs, query) in cf_set_and_query(),
            mask_seed in 0u64..1024,
        ) {
            let mask: Vec<bool> = (0..cfs.len())
                .map(|i| (mask_seed >> (i % 10)) & 1 == 1)
                .collect();
            let mut kernel = CentroidKernel::new();
            for (i, cf) in cfs.iter().enumerate() {
                kernel.push_cf(i as u64, cf);
            }
            let naive = cfs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask[*i])
                .map(|(i, cf)| (i, cf.centroid().squared_distance(&query)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let got = kernel.nearest_squared_filtered(&query, |i| mask[i]);
            match (naive, got) {
                (None, None) => {}
                (Some((i, d2)), Some((gi, gd2))) => {
                    prop_assert_eq!(gi, i);
                    prop_assert_eq!(gd2.to_bits(), d2.to_bits());
                }
                (naive, got) => prop_assert!(false, "mismatch: {:?} vs {:?}", naive, got),
            }
        }

        /// `nearest_other_distance` equals the naive exclusion fold used by
        /// CluStream's singleton boundary.
        #[test]
        fn prop_kernel_nearest_other_matches_naive_bits(
            (cfs, _query) in cf_set_and_query(),
        ) {
            let mut kernel = CentroidKernel::new();
            for (i, cf) in cfs.iter().enumerate() {
                kernel.push_cf(i as u64, cf);
            }
            for (i, cf) in cfs.iter().enumerate() {
                let center = cf.centroid();
                let naive = cfs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, other)| other.centroid().distance(&center))
                    .fold(f64::INFINITY, f64::min);
                let got = kernel.nearest_other_distance(i);
                prop_assert_eq!(got.to_bits(), naive.to_bits());
            }
        }
    }

    // -- the indexed (candidate-then-screen) search ------------------------

    fn kernel_of(rows: &[Point]) -> CentroidKernel {
        let mut kernel = CentroidKernel::new();
        for (i, row) in rows.iter().enumerate() {
            kernel.push_point(i as u64, row);
        }
        kernel
    }

    /// The naive reference: every kept row's full distance (`squared`
    /// chooses the comparison domain), first minimum wins. Distances as
    /// bits, so `assert_eq!` compares them exactly.
    fn naive(
        rows: &[Point],
        query: &Point,
        keep: impl Fn(usize) -> bool,
        squared: bool,
    ) -> Option<(usize, u64)> {
        let distance = |row: &Point| {
            if squared {
                row.squared_distance(query)
            } else {
                row.distance(query)
            }
        };
        rows.iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(i, row)| (i, distance(row)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, d)| (i, d.to_bits()))
    }

    fn bits(found: Option<(usize, f64)>) -> Option<(usize, u64)> {
        found.map(|(i, d)| (i, d.to_bits()))
    }

    /// All four `nearest*` forms against the naive reference, under `keep`.
    fn assert_matches_naive(
        kernel: &CentroidKernel,
        rows: &[Point],
        query: &Point,
        keep: impl Fn(usize) -> bool,
    ) {
        let all = |_: usize| true;
        assert_eq!(bits(kernel.nearest(query)), naive(rows, query, all, false));
        assert_eq!(
            bits(kernel.nearest_squared(query)),
            naive(rows, query, all, true)
        );
        assert_eq!(
            bits(kernel.nearest_filtered(query, &keep)),
            naive(rows, query, &keep, false)
        );
        assert_eq!(
            bits(kernel.nearest_squared_filtered(query, &keep)),
            naive(rows, query, &keep, true)
        );
    }

    /// `rows` centroids and some queries in `dims` dimensions, from `seed`.
    /// Clustered: rows scatter around a few far-apart centres, queries
    /// around rows. Gridded: rows are drawn (with repeats) from a small pool
    /// of points one or two integer steps along one coordinate away from a
    /// common base, and queries are the base, rows, or midpoints of two rows
    /// — so duplicate rows, zero distances and exact ties are the rule, and
    /// tied rows differ in whether the step lies on a probe coordinate.
    fn layout(seed: u64, rows: usize, dims: usize, gridded: bool) -> (Vec<Point>, Vec<Point>) {
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let point = |coord: &mut dyn FnMut(usize) -> f64| -> Point {
            Point::from((0..dims).map(coord).collect::<Vec<f64>>())
        };
        if gridded {
            let base = point(&mut |_| rng.below(4) as f64);
            let pool: Vec<Point> = (0..rows.div_ceil(3))
                .map(|_| {
                    let mut coords = base.as_slice().to_vec();
                    coords[rng.below(dims.min(12) as u64) as usize] +=
                        [-1.0, 1.0, 2.0][rng.below(3) as usize];
                    Point::from(coords)
                })
                .collect();
            let pick = |rng: &mut proptest::test_runner::TestRng| {
                pool[rng.below(pool.len() as u64) as usize].clone()
            };
            let centroids: Vec<Point> = (0..rows).map(|_| pick(&mut rng)).collect();
            let queries = (0..12)
                .map(|i| {
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    match i % 3 {
                        0 => base.clone(),
                        1 => a,
                        _ => (&a + &b).scaled(0.5),
                    }
                })
                .collect();
            (centroids, queries)
        } else {
            let centres: Vec<Point> = (0..5)
                .map(|_| point(&mut |_| rng.unit_f64() * 200.0 - 100.0))
                .collect();
            let near = |rng: &mut proptest::test_runner::TestRng, centre: &Point, spread: f64| {
                Point::from(
                    centre
                        .iter()
                        .map(|&c| c + (rng.unit_f64() - 0.5) * spread)
                        .collect::<Vec<f64>>(),
                )
            };
            let centroids: Vec<Point> = (0..rows)
                .map(|_| {
                    let centre = rng.below(centres.len() as u64) as usize;
                    near(&mut rng, &centres[centre], 6.0)
                })
                .collect();
            let queries = (0..12)
                .map(|_| {
                    let row = rng.below(rows as u64) as usize;
                    near(&mut rng, &centroids[row], 3.0)
                })
                .collect();
            (centroids, queries)
        }
    }

    const SHAPE_ROWS: [usize; 4] = [1, 2, 3, 230];
    const SHAPE_DIMS: [usize; 4] = [1, 2, 54, 315];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Once a kernel has bought its index, all four forms still return
        /// the naive winner and distance bits — on clustered rows and on
        /// rows full of duplicates and exact ties, at every kernel shape the
        /// workloads use, under a filter that keeps a random subset, one
        /// that rejects the unfiltered winner, and one that rejects all.
        #[test]
        fn prop_indexed_search_matches_naive_bits(
            seed in 0u64..u64::MAX,
            mask_seed in 0u64..u64::MAX,
        ) {
            for (shape, gridded) in (0..16).flat_map(|shape| [(shape, false), (shape, true)]) {
                let (n, dims) = (SHAPE_ROWS[shape % 4], SHAPE_DIMS[shape / 4]);
                let (rows, queries) = layout(seed, n, dims, gridded);
                let kernel = kernel_of(&rows);
                prop_assert!(!kernel.is_indexed());
                prop_assert!(kernel.pin_index());
                prop_assert!(kernel.is_indexed());
                for query in &queries {
                    let random = |i: usize| (mask_seed >> (i % 61)) & 1 == 1;
                    assert_matches_naive(&kernel, &rows, query, random);
                    let winner = kernel.nearest(query).expect("non-empty").0;
                    assert_matches_naive(&kernel, &rows, query, |i| i != winner);
                    assert_matches_naive(&kernel, &rows, query, |_| false);
                }
            }
        }
    }

    proptest! {
        /// Every row mutation drops the index, and the answers that follow
        /// — plain, then through an index of the new rows — are the naive
        /// ones.
        #[test]
        fn prop_mutation_drops_the_index(
            seed in 0u64..u64::MAX,
            gridded in any::<bool>(),
            op in 0u8..5,
            at in 0usize..24,
        ) {
            let (mut rows, queries) = layout(seed, 24, 3, gridded);
            let mut kernel = kernel_of(&rows);
            prop_assert!(kernel.pin_index());
            let moved = rec(0, queries[1].as_slice().to_vec(), 0.0);
            let cf = CfVector::from_record(&moved);
            match op {
                0 => {
                    kernel.clear();
                    rows.clear();
                }
                1 => {
                    kernel.push_point(99, &queries[1]);
                    rows.push(queries[1].clone());
                }
                2 => {
                    kernel.insert_cf(at, 99, &cf);
                    rows.insert(at, queries[1].clone());
                }
                3 => {
                    kernel.replace_cf(at, &cf);
                    rows[at] = queries[1].clone();
                }
                _ => {
                    kernel.remove(at);
                    rows.remove(at);
                }
            }
            prop_assert!(!kernel.is_indexed());
            // Through the rent-or-buy rule's own course first: rented
            // scans, a bought index on trial, its verdict.
            for query in &queries {
                assert_matches_naive(&kernel, &rows, query, |i| i % 3 != 1);
            }
            prop_assert_eq!(kernel.pin_index(), !rows.is_empty());
            for query in &queries {
                assert_matches_naive(&kernel, &rows, query, |i| i % 3 != 1);
            }
        }
    }

    #[test]
    fn small_work_never_pays_for_the_index() {
        let (rows, queries) = layout(7, 230, 54, false);
        let ask = |kernel: &CentroidKernel, times: usize| {
            for query in queries.iter().cycle().take(times) {
                kernel.nearest(query);
            }
        };
        // Fewer queries than the build costs in scans: still renting. One
        // more buys, and on clustered rows the trial keeps the index.
        let kernel = kernel_of(&rows);
        ask(&kernel, 230 / 2);
        assert!(!kernel.is_indexed());
        ask(&kernel, 1);
        assert!(kernel.is_indexed());
        ask(&kernel, 230);
        assert!(kernel.is_indexed());
        assert_matches_naive(&kernel, &rows, &queries[0], |i| i % 2 == 0);
        // A clone starts over.
        assert!(!kernel.clone().is_indexed());
        // In-order queries (the serving read path) are not counted towards
        // a buy, and ignore an index other callers bought.
        let quiet = kernel_of(&rows);
        for query in queries.iter().cycle().take(4 * 230) {
            assert_eq!(
                bits(quiet.nearest_in_order(query)),
                bits(kernel.nearest(query))
            );
            assert_eq!(
                bits(kernel.nearest_in_order(query)),
                bits(kernel.nearest(query))
            );
        }
        assert!(!quiet.is_indexed());
        // Mutated between queries, as a closest-pair index's rows are.
        let mut kernel = kernel_of(&rows);
        for query in queries.iter().cycle().take(2_000) {
            kernel.nearest(query);
            let moved = rec(0, query.as_slice().to_vec(), 0.0);
            kernel.replace_cf(3, &CfVector::from_record(&moved));
        }
        assert!(!kernel.is_indexed());
        // Rows without neighbourhoods — uniform in many dimensions, where
        // every centre is about as far from a query as any other: bought,
        // tried, returned.
        let mut rng = proptest::test_runner::TestRng::from_seed(7);
        let uniform: Vec<Point> = (0..150)
            .map(|_| Point::from((0..54).map(|_| rng.unit_f64() * 10.0).collect::<Vec<_>>()))
            .collect();
        let (rows, queries) = uniform.split_at(100);
        let kernel = kernel_of(rows);
        for query in queries.iter().cycle().take(100 / 2 + 1) {
            kernel.nearest(query);
        }
        assert!(kernel.is_indexed());
        for query in queries.iter().cycle().take(100) {
            kernel.nearest(query);
        }
        assert!(!kernel.is_indexed());
        assert_matches_naive(&kernel, rows, &queries[0], |i| i % 2 == 0);
        // Above the row cap: never, however many queries.
        let (rows, queries) = layout(7, MAX_INDEXED_ROWS + 1, 2, false);
        let kernel = kernel_of(&rows);
        for query in queries.iter().cycle().take(2 * MAX_INDEXED_ROWS) {
            kernel.nearest(query);
        }
        assert!(!kernel.is_indexed());
        assert_matches_naive(&kernel, &rows, &queries[0], |i| i % 2 == 0);
        // At the cap the index still fits its scratch.
        let (rows, _) = layout(7, MAX_INDEXED_ROWS, 2, false);
        let kernel = kernel_of(&rows);
        assert!(kernel.pin_index());
        assert_matches_naive(&kernel, &rows, &queries[0], |i| i % 2 == 0);
    }

    #[test]
    fn indexed_ties_keep_the_earliest_kept_row() {
        // Rows 0 and 1 are equidistant from the origin, but only along
        // coordinate 8, which the far rows 2.. keep out of the probe table
        // (coordinates 0..8 vary far more): the first candidate is row 1,
        // the later of the tie, and the earlier must still win.
        let unit = |dim: usize, len: f64| {
            let mut coords = vec![0.0; 9];
            coords[dim] = len;
            Point::from(coords)
        };
        let mut rows = vec![unit(0, 1.0), unit(8, 1.0)];
        rows.extend((0..8).map(|dim| unit(dim, 100.0)));
        let kernel = kernel_of(&rows);
        let origin = Point::from(vec![0.0; 9]);
        assert!(kernel.pin_index());
        let index = kernel.index().expect("indexed");
        assert_eq!(
            index.first_candidate(origin.as_slice(), &mut |_| true),
            Some(1)
        );
        assert_eq!(kernel.nearest(&origin), Some((0, 1.0)));
        assert_eq!(kernel.nearest_squared(&origin), Some((0, 1.0)));
        assert_matches_naive(&kernel, &rows, &origin, |i| i != 0);

        // Duplicate rows: the earliest kept copy answers, at distance zero
        // and at a distance.
        let rows: Vec<Point> = [5.0, 1.0, 9.0, 1.0, 1.0, 7.0]
            .iter()
            .map(|&x| Point::from(vec![x, -x]))
            .collect();
        let kernel = kernel_of(&rows);
        let query = Point::from(vec![1.0, -1.0]);
        assert!(kernel.pin_index());
        assert_eq!(kernel.nearest(&query), Some((1, 0.0)));
        assert_eq!(kernel.nearest_filtered(&query, |i| i != 1), Some((3, 0.0)));
        assert_eq!(kernel.nearest_filtered(&query, |i| i > 3), Some((4, 0.0)));
        for query in [vec![1.5, -1.0], vec![0.0, 0.0], vec![8.0, -8.0]] {
            assert_matches_naive(&kernel, &rows, &Point::from(query), |i| i != 1);
        }

        // A tie that exists only after the square root: d² = 1 + ε and
        // d² = 1 both have d = 1. Row 0 wins on `d`, row 1 on `d²`, and the
        // first candidate (the exact `d²` argmin in two dimensions) is row 1.
        let rows = vec![
            Point::from(vec![1.0, 2.0_f64.powi(-26)]),
            Point::from(vec![1.0, 0.0]),
        ];
        let kernel = kernel_of(&rows);
        let origin = Point::from(vec![0.0, 0.0]);
        assert!(kernel.pin_index());
        assert_eq!(kernel.nearest(&origin), Some((0, 1.0)));
        assert_eq!(kernel.nearest_squared(&origin), Some((1, 1.0)));
        assert_matches_naive(&kernel, &rows, &origin, |_| true);
    }

    /// A NaN or infinite coordinate, in the query or in a row, gets exactly
    /// what the plain scan gives it: such a query falls through the index,
    /// and such rows never get one.
    #[test]
    fn hostile_coordinates_take_the_plain_scan() {
        let (rows, queries) = layout(11, 40, 5, false);
        let even = |i: usize| i % 2 == 0;
        let all_forms = |kernel: &CentroidKernel, query: &Point| {
            [
                bits(kernel.nearest(query)),
                bits(kernel.nearest_squared(query)),
                bits(kernel.nearest_filtered(query, even)),
                bits(kernel.nearest_squared_filtered(query, even)),
            ]
        };
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for dim in [0, 4] {
                // In the query: the indexed kernel answers like one that
                // never indexed (a clone starts unindexed; one query does
                // not buy 40 rows an index).
                let kernel = kernel_of(&rows);
                assert!(kernel.pin_index());
                let mut coords = queries[1].as_slice().to_vec();
                coords[dim] = hostile;
                let query = Point::from(coords);
                let plain = kernel.clone();
                assert_eq!(all_forms(&kernel, &query), all_forms(&plain, &query));
                assert!(!plain.is_indexed());

                // In a row (the first, a middle one, the last): no index,
                // however many queries, and the same answers as a fresh
                // kernel gives on its first.
                for at in [0, 17, 39] {
                    let mut rows = rows.clone();
                    let mut coords = rows[at].as_slice().to_vec();
                    coords[dim] = hostile;
                    rows[at] = Point::from(coords);
                    let kernel = kernel_of(&rows);
                    for query in queries.iter().cycle().take(40) {
                        kernel.nearest(query);
                    }
                    assert!(!kernel.is_indexed());
                    assert!(!kernel.pin_index());
                    for query in &queries {
                        let plain = kernel.clone();
                        assert_eq!(all_forms(&kernel, query), all_forms(&plain, query));
                    }
                }
            }
        }
        // Finite coordinates whose distances overflow: a query that far from
        // its seed falls through, and a pair of rows that far apart is
        // stored as zero, which screens nothing.
        let rows = vec![
            Point::from(vec![1e154, 0.0]),
            Point::from(vec![-1e154, 0.0]),
            Point::from(vec![0.0, 1.0]),
        ];
        let kernel = kernel_of(&rows);
        assert!(kernel.pin_index());
        for query in [&rows[2], &Point::from(vec![1e154, 1.0])] {
            assert_matches_naive(&kernel, &rows, query, |_| true);
        }
    }

    /// The double loop the index replaces, kept as the reference: centroids
    /// materialized in id order, strict `<` from infinity, first pair as the
    /// fallback.
    fn naive_closest(entries: &BTreeMap<u64, CfVector>) -> Option<(u64, u64, f64)> {
        let items: Vec<(u64, Point)> = entries
            .iter()
            .map(|(id, cf)| (*id, cf.centroid()))
            .collect();
        if items.len() < 2 {
            return None;
        }
        let mut best = (0, 1, f64::INFINITY);
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                let d = items[i].1.squared_distance(&items[j].1);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        Some((items[best.0].0, items[best.1].0, best.2))
    }

    /// `closest()` is the naive double loop's pair, and every cached row —
    /// distances, minimum and its position — is what a fresh build holds.
    fn assert_closest_matches(index: &mut ClosestPairIndex, entries: &BTreeMap<u64, CfVector>) {
        let got = index.closest().map(|(i, j, d)| (i, j, d.to_bits()));
        let want = naive_closest(entries).map(|(i, j, d)| (i, j, d.to_bits()));
        assert_eq!(got, want);
        let bits = |table: &[PairRow]| -> Vec<(Vec<u64>, u64, usize)> {
            let row = |r: &PairRow| {
                (
                    r.d2.iter().map(|d| d.to_bits()).collect(),
                    r.min.to_bits(),
                    r.at,
                )
            };
            table.iter().map(row).collect()
        };
        let mut fresh = ClosestPairIndex::build(entries);
        fresh.closest();
        assert_eq!(
            bits(index.pairs.as_deref().unwrap()),
            bits(fresh.pairs.as_deref().unwrap())
        );
    }

    #[test]
    fn closest_pair_breaks_duplicate_ties_by_id_order() {
        // Three coincident centroids and a farther one: every coincident
        // pair is at d² = 0, and the first in id order wins.
        let mut entries = BTreeMap::new();
        entries.insert(9, CfVector::from_record(&rec(0, vec![1.0, 1.0], 0.0)));
        entries.insert(3, CfVector::from_record(&rec(1, vec![1.0, 1.0], 0.0)));
        entries.insert(5, CfVector::from_record(&rec(2, vec![1.0, 1.0], 0.0)));
        entries.insert(1, CfVector::from_record(&rec(3, vec![4.0, 1.0], 0.0)));
        let mut index = ClosestPairIndex::build(&entries);
        assert_eq!(index.closest(), Some((3, 5, 0.0)));
        // Folding 5 into 3 leaves (3, 9) as the first zero pair.
        assert!(index.merge_closest(&mut entries).unwrap());
        assert_eq!(entries.keys().copied().collect::<Vec<_>>(), [1, 3, 9]);
        assert_eq!(entries[&3].weight(), 2.0);
        assert_eq!(index.closest(), Some((3, 9, 0.0)));
        assert_closest_matches(&mut index, &entries);
    }

    #[test]
    fn row_minima_follow_an_id_inserted_below_every_other() {
        let at = |x: f64| CfVector::from_record(&rec(0, vec![x], 0.0));
        let mut entries: BTreeMap<u64, CfVector> =
            [(10, at(0.0)), (20, at(5.0)), (30, at(5.0)), (40, at(9.0))].into();
        let mut index = ClosestPairIndex::build(&entries);
        assert_eq!(index.closest(), Some((20, 30, 0.0)));
        // A new first row: every other row keeps its entries and minimum,
        // and the new row's duplicate of 20 and 30 wins as the earlier pair.
        entries.insert(1, at(5.0));
        index.insert(1, &entries[&1]).unwrap();
        assert_eq!(index.closest(), Some((1, 20, 0.0)));
        assert_closest_matches(&mut index, &entries);
        // Taking it away again hands the minimum back.
        entries.remove(&1);
        index.remove(1).unwrap();
        assert_eq!(index.closest(), Some((20, 30, 0.0)));
        assert_closest_matches(&mut index, &entries);
        // An insertion in the middle shifts the later entries of the rows
        // before it: row 10's minimum (to 20) stays put, row 20's moves up.
        entries.insert(25, at(7.0));
        index.insert(25, &entries[&25]).unwrap();
        assert_closest_matches(&mut index, &entries);
        assert_eq!(index.closest(), Some((20, 30, 0.0)));
    }

    #[test]
    fn pairs_too_far_apart_to_measure_never_win() {
        let at = |x: f64| CfVector::from_record(&rec(0, vec![x, 0.0], 0.0));
        let mut entries: BTreeMap<u64, CfVector> =
            [(1, at(-1e200)), (2, at(1e200)), (3, at(f64::NAN))].into();
        let mut index = ClosestPairIndex::build(&entries);
        // Every d² overflows or is NaN: the fallback is the first two ids.
        assert_eq!(index.closest(), Some((1, 2, f64::INFINITY)));
        assert_closest_matches(&mut index, &entries);
        // One measurable pair appears behind them, then leaves again.
        entries.insert(4, at(1e200));
        index.insert(4, &entries[&4]).unwrap();
        assert_eq!(index.closest(), Some((2, 4, 0.0)));
        assert_closest_matches(&mut index, &entries);
        entries.remove(&2);
        index.remove(2).unwrap();
        assert_eq!(index.closest(), Some((1, 3, f64::INFINITY)));
        assert_closest_matches(&mut index, &entries);
    }

    #[test]
    fn closest_pair_index_reports_misuse_as_typed_errors() {
        let mut entries = BTreeMap::new();
        entries.insert(2, CfVector::from_record(&rec(0, vec![0.0], 0.0)));
        let mut index = ClosestPairIndex::build(&entries);
        assert_eq!(index.closest(), None);
        let cf = CfVector::from_record(&rec(1, vec![1.0], 0.0));
        assert!(matches!(
            index.insert(2, &cf),
            Err(DistStreamError::Invariant(_))
        ));
        assert!(matches!(
            index.update(7, &cf),
            Err(DistStreamError::UnknownMicroCluster { id: 7 })
        ));
        assert!(matches!(
            index.remove(7),
            Err(DistStreamError::UnknownMicroCluster { id: 7 })
        ));
        // An empty index accepts its first row.
        index.remove(2).unwrap();
        index.insert(4, &cf).unwrap();
        assert_eq!(index.rows().len(), 1);
        assert_eq!(index.rows().id(0), 4);
    }

    #[test]
    fn centroid_distance_of_an_emptied_sketch_uses_the_raw_sums() {
        let mut empty = CfVector::from_record(&rec(0, vec![3.0, -4.0], 0.0));
        empty.decay(0.0, Timestamp::from_secs(1.0));
        assert_eq!(empty.weight(), 0.0);
        let other = CfVector::from_record(&rec(1, vec![1.5, 2.5], 0.0));
        let naive = empty.centroid().distance(&other.centroid());
        assert_eq!(empty.centroid_distance(&other).to_bits(), naive.to_bits());
        assert_eq!(other.centroid_distance(&empty).to_bits(), naive.to_bits());
        let point = Point::from(vec![1.5, 2.5]);
        assert_eq!(
            empty.squared_distance_to(&point).to_bits(),
            empty.centroid().squared_distance(&point).to_bits()
        );
    }

    proptest! {
        /// `centroid_distance` is the materialized path, bit for bit, for
        /// every pair of a random CF set (both argument orders), and
        /// `squared_distance_to` for every sketch and the query.
        #[test]
        fn prop_centroid_distance_matches_materialized_bits(
            (cfs, query) in cf_set_and_query(),
        ) {
            for a in &cfs {
                let naive = a.centroid().squared_distance(&query);
                prop_assert_eq!(a.squared_distance_to(&query).to_bits(), naive.to_bits());
                for b in &cfs {
                    let naive = a.centroid().distance(&b.centroid());
                    prop_assert_eq!(a.centroid_distance(b).to_bits(), naive.to_bits());
                }
            }
        }

        /// After any interleaving of insert / update / remove / merge the
        /// index's `closest()` equals the naive double loop in both ids and
        /// d² bits, and the maintained row minima equal a fresh rescan.
        /// Centroids come from a 5 × 5 integer grid, so duplicate and
        /// collinear centroids — exact ties — are the common case; two more
        /// cells lie so far out that their distance to anything else
        /// overflows; and ids are drawn from a small range so insertions
        /// land in the middle of the id order and below it, not only at its
        /// end.
        #[test]
        fn prop_closest_pair_index_matches_naive_scan(
            initial in prop::collection::vec((0u64..40, 0usize..27), 0..12),
            ops in prop::collection::vec((0u8..4, 0u64..40, 0usize..27), 1..40),
            first_check in 0usize..8,
        ) {
            let grid = |cell: usize, id: u64| {
                let (x, y) = match cell {
                    25 => (1e200, 0.0),
                    26 => (-1e200, 0.0),
                    _ => ((cell % 5) as f64 - 2.0, (cell / 5) as f64 - 2.0),
                };
                CfVector::from_record(&rec(id, vec![x, y], 0.0))
            };
            let mut entries: BTreeMap<u64, CfVector> = BTreeMap::new();
            for &(id, cell) in &initial {
                entries.insert(id, grid(cell, id));
            }
            let mut index = ClosestPairIndex::build(&entries);
            for (step, &(kind, id, cell)) in ops.iter().enumerate() {
                // The `id`-th live entry, for ops that need an existing one.
                let live = entries.keys().nth(id as usize % entries.len().max(1)).copied();
                match (kind, live) {
                    (0, _) if !entries.contains_key(&id) => {
                        let cf = grid(cell, id);
                        index.insert(id, &cf).unwrap();
                        entries.insert(id, cf);
                    }
                    (1, Some(target)) => {
                        let cf = entries.get_mut(&target).unwrap();
                        cf.add(&grid(cell, id));
                        index.update(target, cf).unwrap();
                    }
                    (2, Some(target)) => {
                        entries.remove(&target);
                        index.remove(target).unwrap();
                    }
                    (3, _) => {
                        // A capacity merge, as `enforce_capacity` runs it:
                        // the pair it folds must be the naive scan's.
                        let want = naive_closest(&entries);
                        let merged = index.merge_closest(&mut entries).unwrap();
                        prop_assert_eq!(merged, want.is_some());
                        if let Some((keep, fold, _)) = want {
                            prop_assert!(entries.contains_key(&keep));
                            prop_assert!(!entries.contains_key(&fold));
                        }
                    }
                    _ => {}
                }
                // Mutations before the first query run against rows only;
                // later ones maintain the cached table.
                if step >= first_check {
                    assert_closest_matches(&mut index, &entries);
                }
            }
            assert_closest_matches(&mut index, &entries);
            // The flat rows stay the id-ordered centroids, bit for bit.
            prop_assert_eq!(index.rows().len(), entries.len());
            for (row, (id, cf)) in entries.iter().enumerate() {
                prop_assert_eq!(index.rows().id(row), *id);
                let centroid = cf.centroid();
                for (a, b) in index.rows().center(row).iter().zip(centroid.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_additivity_order_independent(
            xs in prop::collection::vec(-100.0_f64..100.0, 2..20),
        ) {
            // Building one CF from all records equals merging two halves.
            let records: Vec<Record> = xs.iter().enumerate()
                .map(|(i, &x)| rec(i as u64, vec![x], i as f64))
                .collect();
            let mid = records.len() / 2;
            let mut whole = CfVector::from_record(&records[0]);
            for r in &records[1..] {
                whole.insert(r, 1.0);
            }
            let mut left = CfVector::from_record(&records[0]);
            for r in &records[1..mid.max(1)] {
                left.insert(r, 1.0);
            }
            if mid >= 1 && mid < records.len() {
                let mut right = CfVector::from_record(&records[mid]);
                for r in &records[mid + 1..] {
                    right.insert(r, 1.0);
                }
                left.add(&right);
            }
            prop_assert!((left.weight() - whole.weight()).abs() < 1e-9);
            let (lc, wc) = (left.centroid(), whole.centroid());
            for (a, b) in lc.iter().zip(wc.iter()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_radius_nonnegative(
            xs in prop::collection::vec(-50.0_f64..50.0, 1..15),
        ) {
            let mut cf = CfVector::from_record(&rec(0, vec![xs[0]], 0.0));
            for (i, &x) in xs.iter().enumerate().skip(1) {
                cf.insert(&rec(i as u64, vec![x], i as f64), 0.95);
            }
            prop_assert!(cf.rms_radius() >= 0.0);
            prop_assert!(cf.weight() > 0.0);
        }
    }
}
