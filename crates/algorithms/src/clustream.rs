//! CluStream (Aggarwal et al., VLDB 2003) on the DistStream APIs.
//!
//! CluStream keeps a fixed budget of `q` CF micro-clusters (the paper sets
//! `q` to ten times the number of real clusters). Records are absorbed by
//! the closest micro-cluster when they fall inside its maximum boundary
//! (a factor times the cluster's RMS radius); otherwise they found a new
//! micro-cluster, and the budget is restored by deleting the least-recent
//! micro-cluster (relevance stamp below a recency threshold) or, failing
//! that, merging the two closest micro-clusters. CluStream's sketch is not
//! decayed (`λ = 1`); aging is handled entirely by relevance-based deletion.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{
    Assignment, MicroClusterId, Searcher, Sketch, StreamClustering, WeightedPoint,
};
use diststream_types::{DistStreamError, Point, Record, Result, Timestamp};

use crate::cf::{CentroidKernel, CfVector, ClosestPairIndex};
use crate::offline::{kmeans, KmeansParams};

/// Tuning parameters for [`CluStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CluStreamParams {
    /// Micro-cluster budget `q` (paper default: 10 × the real cluster count).
    pub max_micro_clusters: usize,
    /// Maximum-boundary factor `t`: a record joins a micro-cluster when its
    /// distance to the centroid is within `t ×` the RMS radius.
    pub boundary_factor: f64,
    /// Relevance horizon `δ` in virtual seconds: a micro-cluster whose
    /// relevance stamp is older than `now − δ` may be deleted.
    pub horizon_secs: f64,
    /// Quantile multiplier `z` in the relevance stamp `μ_t + z·σ_t`.
    pub relevance_z: f64,
    /// Centroid distance below which two newly created outlier
    /// micro-clusters are pre-merged (§V-C).
    pub premerge_distance: f64,
    /// Seed for the k-means initialization.
    pub seed: u64,
}

impl Default for CluStreamParams {
    fn default() -> Self {
        CluStreamParams {
            max_micro_clusters: 100,
            boundary_factor: 2.0,
            horizon_secs: 100.0,
            relevance_z: 1.0,
            premerge_distance: 1.0,
            seed: 0xC105,
        }
    }
}

/// The CluStream micro-cluster model: an id-keyed CF set under a capacity
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CluStreamModel {
    mcs: BTreeMap<MicroClusterId, CfVector>,
    next_id: MicroClusterId,
}

impl CluStreamModel {
    /// Number of live micro-clusters.
    pub fn len(&self) -> usize {
        self.mcs.len()
    }

    /// Whether the model holds no micro-clusters.
    pub fn is_empty(&self) -> bool {
        self.mcs.is_empty()
    }

    /// Iterates over `(id, micro-cluster)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MicroClusterId, &CfVector)> {
        self.mcs.iter()
    }

    fn insert_new(&mut self, cf: CfVector) -> (MicroClusterId, &CfVector) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.mcs.entry(id).or_insert(cf))
    }

    /// Distance from `point` to the nearest micro-cluster other than
    /// `exclude` (used as a singleton's maximum boundary).
    fn nearest_other_distance(&self, point: &Point, exclude: MicroClusterId) -> f64 {
        self.mcs
            .iter()
            .filter(|(id, _)| **id != exclude)
            .map(|(_, cf)| cf.squared_distance_to(point).sqrt())
            .fold(f64::INFINITY, f64::min)
    }
}

/// `t ×` RMS radius — the maximum boundary of a multi-record micro-cluster.
/// `None` for a singleton (or a cluster of coincident records), whose
/// boundary is the distance to its nearest other micro-cluster instead.
fn rms_boundary(cf: &CfVector, boundary_factor: f64) -> Option<f64> {
    let rms = cf.rms_radius();
    (cf.weight() > 1.0 && rms > 0.0).then_some(boundary_factor * rms)
}

/// Per-task search structure for [`CluStream::assign_many`]: the model's
/// centroids flattened into a [`CentroidKernel`] plus each micro-cluster's
/// maximum boundary, both computed once per task instead of per record.
///
/// Boundaries reproduce [`CluStream::max_boundary`] exactly: `t ×` RMS
/// radius for multi-record clusters, nearest-other-centroid distance for
/// singletons (the kernel's exclusion scan is bit-identical to the naive
/// fold the per-record path uses).
struct CluStreamSearcher {
    kernel: CentroidKernel,
    boundaries: Vec<f64>,
}

impl CluStreamSearcher {
    fn build(model: &CluStreamModel, boundary_factor: f64) -> Self {
        let dims = model.mcs.values().next().map_or(0, CfVector::dims);
        let mut kernel = CentroidKernel::with_capacity(model.len(), dims);
        // NaN marks rows whose boundary needs the full kernel (singletons).
        let mut boundaries = Vec::with_capacity(model.len());
        for (id, cf) in model.mcs.iter() {
            kernel.push_cf(*id, cf);
            boundaries.push(rms_boundary(cf, boundary_factor).unwrap_or(f64::NAN));
        }
        for (idx, boundary) in boundaries.iter_mut().enumerate() {
            if boundary.is_nan() {
                *boundary = kernel.nearest_other_distance(idx);
            }
        }
        CluStreamSearcher { kernel, boundaries }
    }

    fn assign(&self, record: &Record) -> Assignment {
        match self.kernel.nearest(&record.point) {
            // lint:allow(index-in-hot-path) `build` pushes one boundary per kernel row, and idx < kernel.len()
            Some((idx, dist)) if dist <= self.boundaries[idx] => {
                Assignment::Existing(self.kernel.id(idx))
            }
            _ => Assignment::New(record.id),
        }
    }
}

/// CluStream implemented through the four DistStream APIs.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::{CluStream, CluStreamParams};
/// use diststream_core::StreamClustering;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = CluStream::new(CluStreamParams { max_micro_clusters: 4, ..Default::default() });
/// let init: Vec<Record> = (0..20)
///     .map(|i| Record::new(i, Point::from(vec![(i % 4) as f64 * 5.0]), Timestamp::from_secs(i as f64)))
///     .collect();
/// let model = algo.init(&init)?;
/// assert!(model.len() <= 4);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CluStream {
    params: CluStreamParams,
}

impl CluStream {
    /// Creates CluStream with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_micro_clusters` is zero or `boundary_factor` is not
    /// positive.
    pub fn new(params: CluStreamParams) -> Self {
        assert!(
            params.max_micro_clusters > 0,
            "micro-cluster budget must be at least 1"
        );
        assert!(
            params.boundary_factor > 0.0,
            "boundary factor must be positive"
        );
        CluStream { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &CluStreamParams {
        &self.params
    }

    /// The maximum boundary of micro-cluster `id`: `t ×` RMS radius for a
    /// multi-record cluster, or the distance to the closest other
    /// micro-cluster for a singleton (the original CluStream heuristic).
    fn max_boundary(&self, model: &CluStreamModel, id: MicroClusterId, cf: &CfVector) -> f64 {
        rms_boundary(cf, self.params.boundary_factor)
            .unwrap_or_else(|| model.nearest_other_distance(&cf.centroid(), id))
    }

    /// [`CluStream::max_boundary`] of the micro-cluster at row `row` of
    /// `index`, with the singleton case answered from the flat centroid rows
    /// (bit-identical to the naive fold, see
    /// [`CentroidKernel::nearest_other_distance`]).
    fn boundary_at(
        &self,
        model: &CluStreamModel,
        index: &ClosestPairIndex,
        row: usize,
    ) -> Result<f64> {
        let id = index.rows().id(row);
        let cf = model
            .mcs
            .get(&id)
            .ok_or(DistStreamError::UnknownMicroCluster { id })?;
        Ok(rms_boundary(cf, self.params.boundary_factor)
            .unwrap_or_else(|| index.rows().nearest_other_distance(row)))
    }

    /// Restores the capacity budget after inserting new micro-clusters.
    ///
    /// Deletion of below-horizon micro-clusters is handled first (cheap);
    /// remaining overage is resolved by repeatedly merging the closest pair
    /// (earliest ids on ties) through the call's closest-pair `index`, kept
    /// in step with every deletion and merge: `O(overage · n · d)` distance
    /// evaluations once the index's table exists.
    fn enforce_capacity(
        &self,
        model: &mut CluStreamModel,
        index: &mut ClosestPairIndex,
        now: Timestamp,
    ) -> Result<()> {
        let recency_threshold = now.secs() - self.params.horizon_secs;
        // Phase 1: delete least-recent micro-clusters past the horizon.
        while model.len() > self.params.max_micro_clusters {
            let oldest = model
                .mcs
                .iter()
                .map(|(id, cf)| (*id, cf.relevance_stamp(self.params.relevance_z)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match oldest {
                Some((id, stamp)) if stamp < recency_threshold => {
                    model.mcs.remove(&id);
                    index.remove(id)?;
                }
                _ => break,
            }
        }
        // Phase 2: merge closest pairs.
        while model.len() > self.params.max_micro_clusters {
            if !index.merge_closest(&mut model.mcs)? {
                break;
            }
        }
        Ok(())
    }
}

impl StreamClustering for CluStream {
    type Model = CluStreamModel;
    type Sketch = CfVector;

    fn name(&self) -> &str {
        "clustream"
    }

    fn init(&self, records: &[Record]) -> Result<CluStreamModel> {
        if records.is_empty() {
            return Err(DistStreamError::EmptyStream);
        }
        // Batch k-means into q seed clusters (paper §II-B), then summarize
        // each seed cluster as a CF vector.
        let points: Vec<WeightedPoint> = records
            .iter()
            .map(|r| WeightedPoint {
                point: r.point.clone(),
                weight: 1.0,
            })
            .collect();
        let mut km = KmeansParams::new(self.params.max_micro_clusters);
        km.seed = self.params.seed;
        let clusters = kmeans(&points, km);

        let mut model = CluStreamModel::default();
        let mut cf_by_cluster: BTreeMap<usize, CfVector> = BTreeMap::new();
        for (record, assigned) in records.iter().zip(clusters.assignment.iter()) {
            let c = assigned.ok_or_else(|| {
                DistStreamError::Invariant("k-means left an init point unassigned".into())
            })?;
            match cf_by_cluster.get_mut(&c) {
                Some(cf) => cf.insert(record, 1.0),
                None => {
                    cf_by_cluster.insert(c, CfVector::from_record(record));
                }
            }
        }
        for (_, cf) in cf_by_cluster {
            model.insert_new(cf);
        }
        Ok(model)
    }

    fn assign(&self, model: &CluStreamModel, record: &Record) -> Assignment {
        let closest = model
            .mcs
            .iter()
            .map(|(id, cf)| (*id, cf, cf.squared_distance_to(&record.point).sqrt()))
            .min_by(|a, b| a.2.total_cmp(&b.2));
        match closest {
            Some((id, cf, dist)) => {
                let boundary = self.max_boundary(model, id, cf);
                if dist <= boundary {
                    Assignment::Existing(id)
                } else {
                    Assignment::New(record.id)
                }
            }
            None => Assignment::New(record.id),
        }
    }

    fn searcher<'m>(&'m self, model: &'m CluStreamModel) -> Searcher<'m> {
        let searcher = CluStreamSearcher::build(model, self.params.boundary_factor);
        Box::new(move |record| searcher.assign(record))
    }

    fn sketch_of(&self, model: &CluStreamModel, id: MicroClusterId) -> CfVector {
        // lint:allow(index-in-hot-path) the trait's documented panic: `id` is one `assign` returned on this model
        model.mcs[&id].clone()
    }

    fn create(&self, record: &Record) -> CfVector {
        CfVector::from_record(record)
    }

    fn update(&self, sketch: &mut CfVector, record: &Record) {
        // CluStream does not decay: λ = 1 (paper §VI).
        sketch.insert(record, 1.0);
    }

    fn can_premerge(&self, a: &CfVector, b: &CfVector) -> bool {
        a.centroid_distance(b) <= self.params.premerge_distance
    }

    fn apply_global(
        &self,
        model: &mut CluStreamModel,
        updated: Vec<(MicroClusterId, CfVector)>,
        created: Vec<CfVector>,
        now: Timestamp,
    ) -> Result<()> {
        // An update's target may have died between the assignment snapshot
        // and now: under the asynchronous protocol the snapshot is one
        // global update stale, and the intervening capacity enforcement may
        // have merged the cluster away. Re-inserting the dead id would
        // resurrect it alongside the survivor that already carries its mass
        // and push the model over budget, costing one extra closest-pair
        // merge per orphan. Instead, orphaned updates take the
        // same absorb-or-insert placement as created micro-clusters below
        // (ahead of them, preserving the update-then-create order).
        let mut orphaned: Vec<CfVector> = Vec::new();
        for (id, cf) in updated {
            match model.mcs.get_mut(&id) {
                Some(slot) => *slot = cf,
                None => orphaned.push(cf),
            }
        }
        // New micro-clusters are placed one at a time, restoring the budget
        // after each insertion — deletion and merging are irreversible, so
        // the order in which new micro-clusters arrive here decides which
        // old ones die (§IV-C2). The framework hands `created` in
        // creation-time order (order-aware) or shuffled (unordered).
        //
        // Placement re-checks absorption against the *authoritative* model
        // first: assignment ran against a stale broadcast (one batch stale
        // under the asynchronous protocol), so a "new" micro-cluster may by
        // now sit inside an existing cluster's maximum boundary — absorbing
        // it is CluStream's own rule for such points and costs one O(n·d)
        // scan instead of a capacity merge.
        //
        // One closest-pair index serves the whole call — the placement
        // scans, the singleton boundaries and every capacity merge — and is
        // dropped on return.
        if orphaned.is_empty()
            && created.is_empty()
            && model.len() <= self.params.max_micro_clusters
        {
            return Ok(());
        }
        let mut index = ClosestPairIndex::build(&model.mcs);
        for cf in orphaned.into_iter().chain(created) {
            let absorber = match index.rows().nearest(&cf.centroid()) {
                Some((row, dist)) if dist <= self.boundary_at(model, &index, row)? => {
                    Some(index.rows().id(row))
                }
                _ => None,
            };
            match absorber {
                Some(id) => {
                    let mc = model
                        .mcs
                        .get_mut(&id)
                        .ok_or(DistStreamError::UnknownMicroCluster { id })?;
                    mc.merge(&cf);
                    index.update(id, mc)?;
                }
                None => {
                    let (id, stored) = model.insert_new(cf);
                    index.insert(id, stored)?;
                    self.enforce_capacity(model, &mut index, now)?;
                }
            }
        }
        self.enforce_capacity(model, &mut index, now)
    }

    fn snapshot(&self, model: &CluStreamModel) -> Vec<WeightedPoint> {
        model
            .mcs
            .values()
            .map(CfVector::to_weighted_point)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x, 0.0]), Timestamp::from_secs(t))
    }

    fn algo(q: usize) -> CluStream {
        CluStream::new(CluStreamParams {
            max_micro_clusters: q,
            horizon_secs: 10.0,
            ..Default::default()
        })
    }

    fn seeded_model(algo: &CluStream) -> CluStreamModel {
        // Two well-populated micro-clusters near x = 0 and x = 10.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(rec(
                i,
                (i % 2) as f64 * 10.0 + (i as f64) * 0.01,
                i as f64 * 0.1,
            ));
        }
        algo.init(&records).unwrap()
    }

    #[test]
    fn init_respects_budget() {
        let algo = algo(3);
        let records: Vec<Record> = (0..50)
            .map(|i| rec(i, (i % 10) as f64 * 3.0, i as f64))
            .collect();
        let model = algo.init(&records).unwrap();
        assert!(model.len() <= 3);
        assert!(!model.is_empty());
    }

    #[test]
    fn init_empty_errors() {
        assert!(algo(3).init(&[]).is_err());
    }

    #[test]
    fn assign_absorbs_within_boundary() {
        let algo = algo(10);
        let model = seeded_model(&algo);
        let near = rec(100, 0.02, 2.0);
        assert!(matches!(
            algo.assign(&model, &near),
            Assignment::Existing(_)
        ));
        let far = rec(101, 50.0, 2.0);
        assert_eq!(algo.assign(&model, &far), Assignment::New(101));
    }

    #[test]
    fn capacity_enforced_by_merge_or_delete() {
        let algo = algo(2);
        let mut model = seeded_model(&algo);
        // Insert new micro-clusters far away, at a recent time.
        let created = vec![
            CfVector::from_record(&rec(200, 100.0, 5.0)),
            CfVector::from_record(&rec(201, 200.0, 5.0)),
        ];
        algo.apply_global(&mut model, vec![], created, Timestamp::from_secs(5.0))
            .unwrap();
        assert!(model.len() <= 2);
    }

    #[test]
    fn old_micro_clusters_deleted_before_merging() {
        let algo = algo(2);
        // Two clusters built at t≈0, then new arrivals at t=1000 (way past
        // the 10s horizon): the old ones should be deleted, keeping the new.
        let mut model = seeded_model(&algo);
        let fresh_a = CfVector::from_record(&rec(300, 100.0, 1000.0));
        let fresh_b = CfVector::from_record(&rec(301, 200.0, 1000.0));
        algo.apply_global(
            &mut model,
            vec![],
            vec![fresh_a, fresh_b],
            Timestamp::from_secs(1000.0),
        )
        .unwrap();
        assert_eq!(model.len(), 2);
        let centroids: Vec<f64> = model.iter().map(|(_, cf)| cf.centroid()[0]).collect();
        assert!(centroids.contains(&100.0));
        assert!(centroids.contains(&200.0));
    }

    #[test]
    fn absorb_or_insert_ties_go_to_the_earliest_id() {
        let algo = algo(10);
        // Two clusters mirrored around the origin, each with RMS radius 3
        // (boundary 6): a new micro-cluster at the origin is 5 from both.
        let mut model = CluStreamModel::default();
        for (id, xs) in [(0, [-8.0, -2.0]), (1, [8.0, 2.0])] {
            let mut cf = CfVector::from_record(&rec(id * 2, xs[0], 0.0));
            cf.insert(&rec(id * 2 + 1, xs[1], 0.0), 1.0);
            model.insert_new(cf);
        }
        let created = vec![CfVector::from_record(&rec(10, 0.0, 1.0))];
        algo.apply_global(&mut model, vec![], created, Timestamp::from_secs(1.0))
            .unwrap();
        let weights: Vec<(MicroClusterId, f64)> =
            model.iter().map(|(id, cf)| (*id, cf.weight())).collect();
        assert_eq!(weights, vec![(0, 3.0), (1, 2.0)]);
        // An orphaned update takes the same placement, ahead of `created`.
        let orphan = CfVector::from_record(&rec(11, 1.0, 2.0));
        algo.apply_global(
            &mut model,
            vec![(77, orphan)],
            vec![],
            Timestamp::from_secs(2.0),
        )
        .unwrap();
        let weights: Vec<(MicroClusterId, f64)> =
            model.iter().map(|(id, cf)| (*id, cf.weight())).collect();
        assert_eq!(weights, vec![(0, 3.0), (1, 3.0)]);
    }

    #[test]
    fn capacity_merge_ties_go_to_the_earliest_pair() {
        let algo = algo(3);
        // Singletons at 0, 10, 20, all recent, and a new one at 31 — outside
        // the 10-wide singleton boundary of its nearest, so it is inserted.
        // Nothing is past the horizon; (0, 1) and (1, 2) tie at 10 apart and
        // the first pair in id order merges.
        let mut model = CluStreamModel::default();
        for (id, x) in [0.0, 10.0, 20.0].into_iter().enumerate() {
            model.insert_new(CfVector::from_record(&rec(id as u64, x, 1.0)));
        }
        let created = vec![CfVector::from_record(&rec(3, 31.0, 1.0))];
        algo.apply_global(&mut model, vec![], created, Timestamp::from_secs(1.0))
            .unwrap();
        let state: Vec<(MicroClusterId, f64)> = model
            .iter()
            .map(|(id, cf)| (*id, cf.centroid()[0]))
            .collect();
        assert_eq!(state, vec![(0, 5.0), (2, 20.0), (3, 31.0)]);
    }

    #[test]
    fn update_does_not_decay() {
        let algo = algo(10);
        let mut cf = algo.create(&rec(0, 1.0, 0.0));
        algo.update(&mut cf, &rec(1, 3.0, 100.0));
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.centroid()[0], 2.0);
    }

    #[test]
    fn premerge_uses_distance_threshold() {
        let algo = algo(10);
        let a = algo.create(&rec(0, 0.0, 0.0));
        let near = algo.create(&rec(1, 0.5, 0.0));
        let far = algo.create(&rec(2, 5.0, 0.0));
        assert!(algo.can_premerge(&a, &near));
        assert!(!algo.can_premerge(&a, &far));
    }

    #[test]
    fn snapshot_matches_model_size() {
        let algo = algo(10);
        let model = seeded_model(&algo);
        assert_eq!(algo.snapshot(&model).len(), model.len());
    }

    #[test]
    fn assign_many_matches_per_record_assign() {
        let algo = algo(10);
        // Mix of populated clusters and singletons so both boundary paths
        // (t·RMS and nearest-other-distance) are exercised.
        let mut model = seeded_model(&algo);
        model.insert_new(CfVector::from_record(&rec(50, 20.0, 1.0)));
        model.insert_new(CfVector::from_record(&rec(51, 22.0, 1.0)));
        let records: Vec<Record> = (0..200)
            .map(|i| rec(1000 + i, (i % 47) as f64 * 0.6, 2.0 + i as f64 * 0.01))
            .collect();
        let batched = algo.assign_many(&model, &records);
        for (r, got) in records.iter().zip(batched) {
            assert_eq!(got, algo.assign(&model, r), "record {:?}", r.id);
        }
    }

    #[test]
    fn singleton_boundary_is_nearest_other_distance() {
        let algo = algo(10);
        let mut model = CluStreamModel::default();
        model.insert_new(CfVector::from_record(&rec(0, 0.0, 0.0)));
        model.insert_new(CfVector::from_record(&rec(1, 10.0, 0.0)));
        // Point at 4.0: distance to singleton at 0 is 4, boundary = distance
        // to the other micro-cluster = 10 → absorbed.
        let r = rec(2, 4.0, 1.0);
        assert!(matches!(algo.assign(&model, &r), Assignment::Existing(0)));
    }
}
