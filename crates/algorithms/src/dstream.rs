//! D-Stream (Chen & Tu, KDD 2007) on the DistStream APIs.
//!
//! D-Stream "partitions the feature space into grids (i.e., micro-clusters)
//! and groups the adjacent grids with high temporal locality and large
//! record counts as macro-clusters". Each record maps to the grid cell
//! containing it — an O(d) operation instead of an O(n·d) nearest-centroid
//! scan, which is why the paper measures 1.1–1.3× higher DistStream
//! throughput for D-Stream than for CluStream/DenStream (§VII-E).
//!
//! Grid densities decay exponentially; *sporadic* (low-density) grids are
//! removed periodically. The grid-cell hash doubles as the micro-cluster id
//! **and** as the [`Assignment::New`] coalescing key, so outlier records
//! landing in the same new cell coalesce into one grid within a batch.
//!
//! Step 1 does not compute that hash for a record whose cell already holds
//! a grid. Once per batch, [`DStream`]'s searcher lays the model's grids out
//! in an open-addressing table keyed by their stored integer coordinates
//! (a multiply-rotate hash of the ≤ `grid_dims` words; probed, never
//! iterated). A record's floored coordinates either find their grid there —
//! `Existing(key)` — or the record goes through [`StreamClustering::assign`]
//! as before: FNV-1a over the coordinate bytes and a `BTreeMap` probe. A
//! grid enters the table only when its key is the FNV-1a id of its
//! coordinates, so a hit is exactly the answer `assign` gives, for any
//! model, including one whose keys were never derived from its coordinates.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{
    Assignment, MicroClusterId, Searcher, Sketch, StreamClustering, WeightedPoint,
};
use diststream_engine::{fnv1a_hash, Fnv1a};
use diststream_types::{DistStreamError, Point, Record, Result, Timestamp};

/// Tuning parameters for [`DStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DStreamParams {
    /// Grid cell width per dimension.
    pub cell_width: f64,
    /// Decay base `β` (> 1): densities decay as `β^{-Δt}`.
    pub beta: f64,
    /// Dense-grid threshold factor `C_m` (> 1).
    pub cm: f64,
    /// Sparse-grid threshold factor `C_l` (< 1).
    pub cl: f64,
    /// Estimated number of reachable grid cells `N` (the original D-Stream
    /// uses the full grid count; a sparse high-dimensional stream touches
    /// far fewer, so this is a parameter).
    pub expected_cells: usize,
    /// Seconds between sporadic-grid sweeps.
    pub prune_period_secs: f64,
    /// Number of leading dimensions used for grid mapping (`0` = all).
    ///
    /// Grid partitioning is infeasible in raw high-dimensional space (a
    /// 54-dimensional grid fragments every cluster into astronomically many
    /// cells), so — as grid-based stream clustering implementations
    /// commonly do — the cell index is computed on a leading subspace while
    /// records keep their full vectors.
    pub grid_dims: usize,
}

impl Default for DStreamParams {
    fn default() -> Self {
        DStreamParams {
            cell_width: 1.0,
            beta: 2f64.powf(0.25),
            cm: 3.0,
            cl: 0.8,
            expected_cells: 1000,
            prune_period_secs: 20.0,
            grid_dims: 0,
        }
    }
}

/// One grid cell: its (possibly projected) integer coordinates, the decayed
/// full-dimension linear sum of its records, and the decayed density.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSketch {
    /// Per-dimension cell indices over the gridded subspace.
    pub coords: Vec<i64>,
    /// Decayed linear sum of absorbed records (full dimensionality), so the
    /// centroid handed to the offline phase is the actual data mean, not
    /// the projected cell center.
    pub sum: Point,
    /// Decayed record density.
    pub density: f64,
    /// Creation time of the grid.
    pub created_at: Timestamp,
    /// Last insert/decay time.
    pub updated_at: Timestamp,
}

impl Sketch for GridSketch {
    fn centroid(&self) -> Point {
        if self.density > 0.0 {
            self.sum.scaled(1.0 / self.density)
        } else {
            self.sum.clone()
        }
    }

    fn weight(&self) -> f64 {
        self.density
    }

    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.coords, other.coords, "only same-cell grids merge");
        self.sum.add_in_place(&other.sum);
        self.density += other.density;
        self.created_at = self.created_at.min(other.created_at);
        self.updated_at = self.updated_at.max(other.updated_at);
    }
}

/// The D-Stream model: the sparse set of non-empty grid cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DStreamModel {
    grids: BTreeMap<MicroClusterId, GridSketch>,
    last_prune_secs: f64,
}

impl DStreamModel {
    /// Number of non-empty grid cells.
    pub fn len(&self) -> usize {
        self.grids.len()
    }

    /// Whether no grid cells exist.
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }

    /// Iterates over `(cell id, grid)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MicroClusterId, &GridSketch)> {
        self.grids.iter()
    }
}

/// D-Stream implemented through the four DistStream APIs.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::{DStream, DStreamParams};
/// use diststream_core::{Assignment, StreamClustering};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = DStream::new(DStreamParams::default());
/// let model = algo.init(&[Record::new(0, Point::from(vec![0.2, 0.7]), Timestamp::ZERO)])?;
/// // A record in the same unit cell is absorbed; a distant one is new.
/// let same = Record::new(1, Point::from(vec![0.9, 0.1]), Timestamp::from_secs(1.0));
/// assert!(matches!(algo.assign(&model, &same), Assignment::Existing(_)));
/// let far = Record::new(2, Point::from(vec![5.0, 5.0]), Timestamp::from_secs(2.0));
/// assert!(matches!(algo.assign(&model, &far), Assignment::New(_)));
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DStream {
    params: DStreamParams,
}

impl DStream {
    /// Creates D-Stream with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_width ≤ 0`, `beta ≤ 1`, the threshold factors are
    /// inconsistent (`cm ≤ cl`), or `expected_cells` is 0 (both thresholds
    /// divide by it).
    pub fn new(params: DStreamParams) -> Self {
        assert!(params.cell_width > 0.0, "cell width must be positive");
        assert!(params.beta > 1.0, "decay base must exceed 1");
        assert!(
            params.cm > params.cl && params.cl > 0.0,
            "dense threshold must exceed sparse threshold"
        );
        assert!(
            params.expected_cells > 0,
            "expected cell count must be positive"
        );
        DStream { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &DStreamParams {
        &self.params
    }

    /// How many leading dimensions of `point` are gridded.
    fn gridded(&self, point: &Point) -> usize {
        match self.params.grid_dims {
            0 => point.dims(),
            g => g.min(point.dims()),
        }
    }

    /// The cell index of coordinate `x` along one gridded axis (the cast
    /// saturates: NaN is 0, ±∞ and huge values are `i64::MAX` / `MIN`).
    fn coord(&self, x: f64) -> i64 {
        (x / self.params.cell_width).floor() as i64
    }

    /// The gridded coordinates of `point`, one cell index each.
    fn coords<'p>(&'p self, point: &'p Point) -> impl Iterator<Item = i64> + 'p {
        point
            .iter()
            .take(self.gridded(point))
            .map(|&x| self.coord(x))
    }

    /// The integer cell coordinates containing `point` (over the gridded
    /// subspace when `grid_dims > 0`).
    pub(crate) fn cell_of(&self, point: &Point) -> Vec<i64> {
        self.coords(point).collect()
    }

    /// Deterministic cell id (FNV-1a over the coordinate bytes).
    pub(crate) fn cell_id(coords: &[i64]) -> MicroClusterId {
        let mut bytes = Vec::with_capacity(coords.len() * 8);
        for c in coords {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        fnv1a_hash(&bytes)
    }

    /// The cell id of the cell containing `point`, fused into one pass:
    /// equivalent to `Self::cell_id(&self.cell_of(point))` but hashing each
    /// coordinate incrementally, so the per-record grid lookup allocates
    /// nothing.
    pub(crate) fn cell_key(&self, point: &Point) -> MicroClusterId {
        let mut hash = Fnv1a::new();
        for c in self.coords(point) {
            hash.write(&c.to_le_bytes());
        }
        hash.finish()
    }

    fn lambda(&self, dt: f64) -> f64 {
        self.params.beta.powf(-dt)
    }

    /// The steady-state total density `1 / (1 − λ₁)` where `λ₁` is the
    /// one-second decay factor.
    fn density_scale(&self) -> f64 {
        1.0 / (1.0 - self.lambda(1.0))
    }

    /// Density above which a grid is *dense*: `C_m / (N·(1 − λ₁))`.
    pub fn dense_threshold(&self) -> f64 {
        self.params.cm * self.density_scale() / self.params.expected_cells as f64
    }

    /// Density below which a grid is *sparse*: `C_l / (N·(1 − λ₁))`.
    pub(crate) fn sparse_threshold(&self) -> f64 {
        self.params.cl * self.density_scale() / self.params.expected_cells as f64
    }

    fn sketch_for(&self, record: &Record) -> GridSketch {
        let coords = self.cell_of(&record.point);
        GridSketch {
            coords,
            sum: record.point.clone(),
            density: 1.0,
            created_at: record.timestamp,
            updated_at: record.timestamp,
        }
    }
}

/// The most gridded axes [`CellTable::find`] floors a record over, on the
/// stack; a wider record is left to `assign`.
const TABLE_DIMS: usize = 16;

/// The searcher's per-batch table: each grid's stored coordinates mapped to
/// its key, by open addressing (linear probing, load ≤ ½) over
/// [`coords_hash`]. A grid enters only when its key is
/// `DStream::cell_id(coords)`, so a hit is what `assign` answers.
struct CellTable<'m> {
    /// `(hash of its coordinates, key, grid)` per occupied slot.
    slots: Vec<Option<(u64, MicroClusterId, &'m GridSketch)>>,
    /// `64 − log2(slots.len())`: a hash's top bits name its home slot.
    shift: u32,
}

impl<'m> CellTable<'m> {
    fn build(model: &'m DStreamModel) -> Self {
        let capacity = (2 * model.grids.len()).next_power_of_two().max(2);
        let mut table = CellTable {
            slots: vec![None; capacity],
            shift: 64 - capacity.trailing_zeros(),
        };
        for (&key, grid) in &model.grids {
            if DStream::cell_id(&grid.coords) == key {
                let hash = coords_hash(grid.coords.iter().copied());
                let at = table.probe(hash, |_| false);
                if let Some(slot) = table.slots.get_mut(at) {
                    *slot = Some((hash, key, grid));
                }
            }
        }
        table
    }

    /// From `hash`'s home slot on, the first slot that is empty or whose
    /// entry `is_it` accepts. One exists: at most half the slots are full.
    fn probe(&self, hash: u64, is_it: impl Fn(&[i64]) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while let Some(Some((h, _, grid))) = self.slots.get(at) {
            if *h == hash && is_it(&grid.coords) {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }

    /// The key of the grid whose coordinates are `point`'s under `algo`;
    /// `None` also for a point gridded over more than [`TABLE_DIMS`] axes.
    fn find(&self, algo: &DStream, point: &Point) -> Option<MicroClusterId> {
        let mut buffer = [0i64; TABLE_DIMS];
        let coords = buffer.get_mut(..algo.gridded(point))?;
        for (c, x) in coords.iter_mut().zip(point.iter()) {
            *c = algo.coord(*x);
        }
        let hash = coords_hash(coords.iter().copied());
        let at = self.probe(hash, |stored| stored == coords);
        let (_, key, _) = self.slots.get(at)?.as_ref()?;
        Some(*key)
    }
}

/// A multiply-rotate hash of a cell's coordinates, one round per word; its
/// high bits are well mixed, and [`CellTable`] probes from them.
fn coords_hash(coords: impl Iterator<Item = i64>) -> u64 {
    coords.fold(0, |h, c| {
        (h.rotate_left(5) ^ c as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl StreamClustering for DStream {
    type Model = DStreamModel;
    type Sketch = GridSketch;

    fn name(&self) -> &str {
        "dstream"
    }

    fn init(&self, records: &[Record]) -> Result<DStreamModel> {
        if records.is_empty() {
            return Err(DistStreamError::EmptyStream);
        }
        let mut model = DStreamModel::default();
        for record in records {
            let id = self.cell_key(&record.point);
            match model.grids.get_mut(&id) {
                Some(grid) => {
                    let mut sketch = grid.clone();
                    self.update(&mut sketch, record);
                    *grid = sketch;
                }
                None => {
                    model.grids.insert(id, self.sketch_for(record));
                }
            }
        }
        Ok(model)
    }

    fn assign(&self, model: &DStreamModel, record: &Record) -> Assignment {
        // Grid mapping: O(d), no distance scan, no allocation.
        let id = self.cell_key(&record.point);
        if model.grids.contains_key(&id) {
            Assignment::Existing(id)
        } else {
            // The cell id is the coalescing key: same-cell outliers in a
            // batch become one new grid.
            Assignment::New(id)
        }
    }

    fn searcher<'m>(&'m self, model: &'m DStreamModel) -> Searcher<'m> {
        let cells = CellTable::build(model);
        Box::new(move |record| match cells.find(self, &record.point) {
            Some(key) => Assignment::Existing(key),
            None => self.assign(model, record),
        })
    }

    fn sketch_of(&self, model: &DStreamModel, id: MicroClusterId) -> GridSketch {
        // lint:allow(index-in-hot-path) the trait's documented panic: `id` is one `assign` returned on this model
        model.grids[&id].clone()
    }

    fn create(&self, record: &Record) -> GridSketch {
        self.sketch_for(record)
    }

    fn update(&self, sketch: &mut GridSketch, record: &Record) {
        let dt = record.timestamp.saturating_since(sketch.updated_at);
        let lambda = self.lambda(dt);
        let (dims, got) = (sketch.sum.dims(), record.point.dims());
        assert_eq!(dims, got, "point dimension mismatch: {dims} vs {got}");
        // One pass over the sum: per element the same rounded multiply and
        // then the same rounded add as `scale_in_place` followed by
        // `add_in_place`, so the sketch is bit-identical to that form.
        let sum = sketch.sum.as_mut_slice().iter_mut();
        for (s, &x) in sum.zip(record.point.iter()) {
            *s = *s * lambda + x;
        }
        sketch.density = sketch.density * lambda + 1.0;
        sketch.updated_at = record.timestamp.max(sketch.updated_at);
    }

    // D-Stream needs no distance-based pre-merge: same-cell coalescing is
    // exact via the cell-id coalescing key, and distinct cells never merge
    // online. The default `can_premerge` (false) is correct.

    fn apply_global(
        &self,
        model: &mut DStreamModel,
        updated: Vec<(MicroClusterId, GridSketch)>,
        created: Vec<GridSketch>,
        now: Timestamp,
    ) -> Result<()> {
        for (id, sketch) in updated {
            model.grids.insert(id, sketch);
        }
        for sketch in created {
            let id = Self::cell_id(&sketch.coords);
            match model.grids.get_mut(&id) {
                Some(existing) => existing.merge(&sketch),
                None => {
                    model.grids.insert(id, sketch);
                }
            }
        }
        // Periodic sporadic-grid sweep; untouched grids are decayed lazily
        // here rather than on every call (the one-record-at-a-time baseline
        // would otherwise pay O(cells) per record).
        if now.secs() - model.last_prune_secs >= self.params.prune_period_secs {
            for grid in model.grids.values_mut() {
                let dt = now.saturating_since(grid.updated_at);
                if dt > 0.0 {
                    let lambda = self.lambda(dt);
                    grid.sum.scale_in_place(lambda);
                    grid.density *= lambda;
                    grid.updated_at = now;
                }
            }
            let sparse = self.sparse_threshold();
            model.grids.retain(|_, g| g.density >= sparse);
            model.last_prune_secs = now.secs();
        }
        Ok(())
    }

    fn snapshot(&self, model: &DStreamModel) -> Vec<WeightedPoint> {
        model
            .grids
            .values()
            .map(|g| WeightedPoint {
                point: Sketch::centroid(g),
                weight: g.density,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, coords: Vec<f64>, t: f64) -> Record {
        Record::new(id, Point::from(coords), Timestamp::from_secs(t))
    }

    fn algo() -> DStream {
        DStream::new(DStreamParams::default())
    }

    #[test]
    fn cell_mapping_floors_coordinates() {
        let a = algo();
        assert_eq!(
            a.cell_of(&Point::from(vec![0.4, 1.7, -0.3])),
            vec![0, 1, -1]
        );
    }

    #[test]
    fn same_cell_same_id() {
        let a = algo();
        let c1 = a.cell_of(&Point::from(vec![0.1, 0.9]));
        let c2 = a.cell_of(&Point::from(vec![0.8, 0.2]));
        assert_eq!(DStream::cell_id(&c1), DStream::cell_id(&c2));
        let c3 = a.cell_of(&Point::from(vec![1.1, 0.2]));
        assert_ne!(DStream::cell_id(&c1), DStream::cell_id(&c3));
    }

    #[test]
    fn cell_key_matches_two_step_lookup() {
        for grid_dims in [0, 1, 2] {
            let a = DStream::new(DStreamParams {
                grid_dims,
                cell_width: 0.7,
                ..Default::default()
            });
            for i in 0..50 {
                let p = Point::from(vec![
                    (i as f64) * 0.31 - 5.0,
                    (i as f64) * -1.7,
                    (i % 7) as f64,
                ]);
                assert_eq!(
                    a.cell_key(&p),
                    DStream::cell_id(&a.cell_of(&p)),
                    "grid_dims={grid_dims} i={i}"
                );
            }
        }
    }

    #[test]
    fn assign_uses_grid_mapping() {
        let a = algo();
        let model = a.init(&[rec(0, vec![0.5], 0.0)]).unwrap();
        assert!(matches!(
            a.assign(&model, &rec(1, vec![0.2], 1.0)),
            Assignment::Existing(_)
        ));
        // New cell: the coalescing key equals the would-be cell id.
        let far = rec(2, vec![7.5], 1.0);
        let expected_id = DStream::cell_id(&a.cell_of(&far.point));
        assert_eq!(a.assign(&model, &far), Assignment::New(expected_id));
    }

    #[test]
    fn update_decays_density() {
        let a = algo();
        let mut g = a.create(&rec(0, vec![0.5], 0.0));
        a.update(&mut g, &rec(1, vec![0.6], 4.0));
        // λ(4) = 0.5 → density 1×0.5 + 1 = 1.5.
        assert!((g.density - 1.5).abs() < 1e-12);
    }

    #[test]
    fn created_same_cell_merges_in_global() {
        let a = algo();
        let mut model = a.init(&[rec(0, vec![0.5], 0.0)]).unwrap();
        let g1 = a.create(&rec(1, vec![5.5], 1.0));
        let g2 = a.create(&rec(2, vec![5.6], 1.0));
        a.apply_global(&mut model, vec![], vec![g1, g2], Timestamp::from_secs(1.0))
            .unwrap();
        assert_eq!(model.len(), 2);
        let merged = model
            .iter()
            .find(|(_, g)| g.coords == vec![5])
            .expect("cell 5 exists");
        assert!((merged.1.density - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sporadic_grids_pruned() {
        let a = algo();
        let mut model = a.init(&[rec(0, vec![0.5], 0.0)]).unwrap();
        // Far in the future, past the prune period: density has decayed to
        // ~0, below the sparse threshold.
        a.apply_global(&mut model, vec![], vec![], Timestamp::from_secs(200.0))
            .unwrap();
        assert!(model.is_empty());
    }

    #[test]
    fn thresholds_are_ordered() {
        let a = algo();
        assert!(a.dense_threshold() > a.sparse_threshold());
        assert!(a.sparse_threshold() > 0.0);
    }

    #[test]
    fn centroid_is_record_mean() {
        let a = algo();
        let mut g = a.create(&rec(0, vec![2.3, -0.7], 0.0));
        a.update(&mut g, &rec(1, vec![2.7, -0.3], 0.0));
        assert_eq!(g.centroid().as_slice(), &[2.5, -0.5]);
    }

    #[test]
    fn projected_grid_keeps_full_dim_centroid() {
        let a = DStream::new(DStreamParams {
            grid_dims: 1,
            ..Default::default()
        });
        // Same leading coordinate → same cell, even though dim 2 differs.
        let model = a.init(&[rec(0, vec![0.5, 100.0], 0.0)]).unwrap();
        assert!(matches!(
            a.assign(&model, &rec(1, vec![0.4, -100.0], 1.0)),
            Assignment::Existing(_)
        ));
        // Centroid carries both dimensions.
        let (_, g) = model.iter().next().unwrap();
        assert_eq!(g.centroid().dims(), 2);
    }

    #[test]
    fn snapshot_weights_are_densities() {
        let a = algo();
        let model = a
            .init(&[rec(0, vec![0.5], 0.0), rec(1, vec![0.6], 0.0)])
            .unwrap();
        let snap = a.snapshot(&model);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].weight, 2.0);
    }

    #[test]
    #[should_panic(expected = "dense threshold")]
    fn rejects_inverted_thresholds() {
        let _ = DStream::new(DStreamParams {
            cm: 0.5,
            cl: 0.8,
            ..Default::default()
        });
    }

    /// Both thresholds divide by `expected_cells`: at 0 they were +∞, and
    /// the first sporadic-grid sweep deleted every grid without an error.
    #[test]
    #[should_panic(expected = "expected cell count")]
    fn rejects_zero_expected_cells() {
        let _ = DStream::new(DStreamParams {
            expected_cells: 0,
            ..Default::default()
        });
    }

    /// Every stored number of a grid, as bits.
    fn grid_bits(g: &GridSketch) -> Vec<u64> {
        let scalars = [g.density, g.created_at.secs(), g.updated_at.secs()];
        g.sum.iter().chain(&scalars).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_pass_update_is_scale_then_add_bit_for_bit() {
        let a = algo();
        let mut fused = a.create(&rec(0, vec![0.1, -3.7, 1e-9], 0.0));
        let mut reference = fused.clone();
        for (i, t) in [0.3, 0.3, 1.9, 7.25, 7.0, 40.0].into_iter().enumerate() {
            let x = i as f64;
            let r = rec(i as u64 + 1, vec![x * 0.37, -x / 3.0, 1e6 - x], t);
            a.update(&mut fused, &r);
            let lambda = a.lambda(r.timestamp.saturating_since(reference.updated_at));
            reference.sum.scale_in_place(lambda);
            reference.sum.add_in_place(&r.point);
            reference.density = reference.density * lambda + 1.0;
            reference.updated_at = r.timestamp.max(reference.updated_at);
            assert_eq!(grid_bits(&fused), grid_bits(&reference), "record {i}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn update_rejects_a_record_of_another_dimensionality() {
        let a = algo();
        let mut g = a.create(&rec(0, vec![0.5, 0.5], 0.0));
        a.update(&mut g, &rec(1, vec![0.5], 1.0));
    }

    /// Coordinates that stress the floor-and-cast: signed zeros, cell
    /// edges, values whose floors saturate the `i64` cast, NaN and ±∞.
    const HOSTILE: [f64; 14] = [
        0.0,
        -0.0,
        0.3,
        -0.3,
        0.7,
        -0.7,
        1.5,
        -2.2,
        1e300,
        -1e300,
        1e18,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// `count` records of 1–4 or `TABLE_DIMS + 4` dimensions (too wide for
    /// the table) over [`HOSTILE`], in a fixed pseudo-random mix.
    fn hostile_records(count: u64) -> Vec<Record> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        (0..count)
            .map(|id| {
                let dims = [1, 2, 3, 4, TABLE_DIMS + 4][next() % 5];
                let point = (0..dims).map(|_| HOSTILE[next() % HOSTILE.len()]).collect();
                rec(id, point, id as f64)
            })
            .collect()
    }

    /// The per-batch searcher decides every record as `assign` does.
    fn assert_searcher_assigns_like_assign(a: &DStream, model: &DStreamModel, records: &[Record]) {
        let searcher = a.searcher(model);
        for r in records {
            assert_eq!(
                searcher(r),
                a.assign(model, r),
                "record {} {:?}",
                r.id,
                r.point
            );
        }
    }

    #[test]
    fn searcher_assigns_like_assign_on_hostile_coordinates() {
        let records = hostile_records(600);
        for grid_dims in [0, 1, 2, 3, 5] {
            let a = DStream::new(DStreamParams {
                grid_dims,
                cell_width: 0.7,
                ..Default::default()
            });
            // A grid at every other record's cell: hits and misses, at every
            // gridded width (records with fewer dimensions than `grid_dims`
            // grid over what they have). Built by hand: `init` would fold
            // records of different widths into one cell and panic.
            let mut model = DStreamModel::default();
            for r in records.iter().step_by(2) {
                let key = a.cell_key(&r.point);
                model.grids.entry(key).or_insert_with(|| a.create(r));
            }
            assert!(model.len() > 5, "grid_dims={grid_dims}: {}", model.len());
            assert_searcher_assigns_like_assign(&a, &model, &records);
            let hits = records
                .iter()
                .filter(|r| matches!(a.assign(&model, r), Assignment::Existing(_)))
                .count();
            assert!(
                hits > records.len() / 2,
                "grid_dims={grid_dims}: {hits} hits"
            );
            // And over an empty model, where nothing hits.
            assert_searcher_assigns_like_assign(&a, &DStreamModel::default(), &records);
        }
    }

    /// A model whose keys are not the ids of their grids' coordinates — one
    /// no `init` builds, but a deserialized one can be: the table must not
    /// answer for such a grid by its coordinates, and `assign` still finds
    /// it by its key.
    #[test]
    fn searcher_assigns_like_assign_when_a_key_is_not_its_cells_id() {
        let a = algo();
        let grid = |coords: Vec<i64>| {
            let mut g = a.create(&rec(0, coords.iter().map(|&c| c as f64).collect(), 0.0));
            g.coords = coords;
            g
        };
        let elsewhere = DStream::cell_id(&[5, 5]);
        let model = DStreamModel {
            grids: BTreeMap::from([
                (elsewhere, grid(vec![0, 0])),
                (DStream::cell_id(&[2, 2]), grid(vec![2, 2])),
                (DStream::cell_id(&[3, 3]) ^ 1, grid(vec![3, 3])),
            ]),
            last_prune_secs: 0.0,
        };
        let at = |x: f64| rec(9, vec![x + 0.5, x + 0.5], 1.0);
        let searcher = a.searcher(&model);
        assert_eq!(
            searcher(&at(0.0)),
            Assignment::New(DStream::cell_id(&[0, 0]))
        );
        assert_eq!(searcher(&at(5.0)), Assignment::Existing(elsewhere));
        assert_eq!(
            searcher(&at(2.0)),
            Assignment::Existing(DStream::cell_id(&[2, 2]))
        );
        assert_eq!(
            searcher(&at(3.0)),
            Assignment::New(DStream::cell_id(&[3, 3]))
        );
        let records: Vec<Record> = (-2..8).map(|x| at(f64::from(x))).collect();
        assert_searcher_assigns_like_assign(&a, &model, &records);
    }
}
