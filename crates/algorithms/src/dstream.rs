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

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{Assignment, MicroClusterId, Sketch, StreamClustering, WeightedPoint};
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
    /// Panics if `cell_width ≤ 0`, `beta ≤ 1`, or the threshold factors are
    /// inconsistent (`cm ≤ cl`).
    pub fn new(params: DStreamParams) -> Self {
        assert!(params.cell_width > 0.0, "cell width must be positive");
        assert!(params.beta > 1.0, "decay base must exceed 1");
        assert!(
            params.cm > params.cl && params.cl > 0.0,
            "dense threshold must exceed sparse threshold"
        );
        DStream { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &DStreamParams {
        &self.params
    }

    /// The integer cell coordinates containing `point` (over the gridded
    /// subspace when `grid_dims > 0`).
    pub(crate) fn cell_of(&self, point: &Point) -> Vec<i64> {
        let dims = match self.params.grid_dims {
            0 => point.dims(),
            g => g.min(point.dims()),
        };
        point
            .iter()
            .take(dims)
            .map(|&x| (x / self.params.cell_width).floor() as i64)
            .collect()
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
        let dims = match self.params.grid_dims {
            0 => point.dims(),
            g => g.min(point.dims()),
        };
        let mut hash = Fnv1a::new();
        for &x in point.iter().take(dims) {
            let c = (x / self.params.cell_width).floor() as i64;
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
        sketch.sum.scale_in_place(lambda);
        sketch.sum.add_in_place(&record.point);
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
}
