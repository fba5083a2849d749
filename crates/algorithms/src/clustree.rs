//! ClusTree (Kranen et al., ICDM 2009) on the DistStream APIs.
//!
//! ClusTree keeps decayed CF micro-clusters indexed by a hierarchical CF
//! tree ([`CfTree`]); record insertion descends the tree greedily, making
//! the closest-micro-cluster search logarithmic rather than linear — the
//! source of the 1.1–1.3× throughput edge the paper measures for the
//! tree/grid algorithms (§VII-E).
//!
//! Adaptation note (recorded in DESIGN.md): the original ClusTree threads
//! "hitchhiker" buffers through interior nodes for anytime insertion. Under
//! DistStream's mini-batch model, inserts happen in bulk at the global
//! update, so this implementation maintains the authoritative micro-cluster
//! set in a map, inserts new entries into the CF-tree index incrementally at
//! each global update, rebuilds the index at every maintenance pass
//! (`maintenance_secs`), and uses the tree for all assignment searches — the
//! same search structure and cost profile without per-record anytime
//! buffering.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{Assignment, MicroClusterId, Searcher, StreamClustering, WeightedPoint};
use diststream_types::{DistStreamError, Record, Result, Timestamp};

use crate::cf::{CfVector, ClosestPairIndex};
use crate::cftree::{CfTree, FlatTree};

/// Tuning parameters for [`ClusTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusTreeParams {
    /// CF-tree node fanout (the original uses 3).
    pub fanout: usize,
    /// Maximum number of leaf micro-clusters (memory bound); the closest
    /// pair is merged when exceeded.
    pub max_micro_clusters: usize,
    /// Maximum-boundary factor over the micro-cluster RMS radius.
    pub boundary_factor: f64,
    /// Boundary for singleton micro-clusters (whose RMS radius is zero).
    pub singleton_radius: f64,
    /// Decay base `β` (> 1).
    pub beta: f64,
    /// Micro-clusters lighter than this are dropped at maintenance.
    pub min_weight: f64,
    /// Centroid distance below which new outlier micro-clusters pre-merge.
    pub premerge_distance: f64,
    /// Seconds between maintenance passes (decay sweep, pruning, and index
    /// rebuild). Between passes new entries are inserted into the tree
    /// incrementally and interior summaries may be slightly stale — the
    /// anytime spirit of ClusTree.
    pub maintenance_secs: f64,
}

impl Default for ClusTreeParams {
    fn default() -> Self {
        ClusTreeParams {
            fanout: 3,
            max_micro_clusters: 100,
            boundary_factor: 2.0,
            singleton_radius: 1.0,
            beta: 2f64.powf(0.25),
            min_weight: 0.05,
            premerge_distance: 1.0,
            maintenance_secs: 5.0,
        }
    }
}

/// The ClusTree model: authoritative micro-cluster map plus the CF-tree
/// search index (extended at each global update, rebuilt at maintenance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusTreeModel {
    entries: BTreeMap<MicroClusterId, CfVector>,
    tree: CfTree,
    next_id: MicroClusterId,
    last_maintenance_secs: f64,
}

impl ClusTreeModel {
    /// Number of leaf micro-clusters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the model holds no micro-clusters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Height of the CF-tree index.
    pub fn tree_height(&self) -> usize {
        self.tree.height()
    }

    /// Iterates over `(id, micro-cluster)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MicroClusterId, &CfVector)> {
        self.entries.iter()
    }
}

/// ClusTree implemented through the four DistStream APIs.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::{ClusTree, ClusTreeParams};
/// use diststream_core::StreamClustering;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = ClusTree::new(ClusTreeParams::default());
/// let init: Vec<Record> = (0..40)
///     .map(|i| Record::new(i, Point::from(vec![(i % 4) as f64 * 10.0]), Timestamp::from_secs(i as f64 * 0.1)))
///     .collect();
/// let model = algo.init(&init)?;
/// assert!(model.len() >= 4);
/// assert!(model.tree_height() >= 2);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusTree {
    params: ClusTreeParams,
}

impl ClusTree {
    /// Creates ClusTree with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`, the budget is zero, or `beta ≤ 1`.
    pub fn new(params: ClusTreeParams) -> Self {
        assert!(params.fanout >= 2, "fanout must be at least 2");
        assert!(
            params.max_micro_clusters > 0,
            "micro-cluster budget must be at least 1"
        );
        assert!(params.beta > 1.0, "decay base must exceed 1");
        ClusTree { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &ClusTreeParams {
        &self.params
    }

    fn lambda(&self, dt: f64) -> f64 {
        self.params.beta.powf(-dt)
    }

    fn boundary(&self, cf: &CfVector) -> f64 {
        let rms = cf.rms_radius();
        if cf.weight() > 1.0 && rms > 0.0 {
            self.params.boundary_factor * rms
        } else {
            self.params.singleton_radius
        }
    }

    fn rebuild_tree(&self, model: &mut ClusTreeModel) {
        model.tree = CfTree::bulk(
            self.params.fanout,
            model
                .entries
                .iter()
                .map(|(id, cf)| (*id, cf.centroid(), cf.weight())),
        );
    }

    /// Restores the budget by merging the closest pair of leaf
    /// micro-clusters until the model fits. `index` is the call's shared
    /// closest-pair index, built here on first need and kept in step with
    /// every merge, so one over-budget insertion costs `O(n·d)` distance
    /// evaluations plus a scan of `n` cached row minima.
    fn enforce_capacity(
        &self,
        model: &mut ClusTreeModel,
        index: &mut Option<ClosestPairIndex>,
    ) -> Result<()> {
        while model.entries.len() > self.params.max_micro_clusters {
            let index = index.get_or_insert_with(|| ClosestPairIndex::build(&model.entries));
            if !index.merge_closest(&mut model.entries)? {
                break;
            }
        }
        Ok(())
    }
}

impl StreamClustering for ClusTree {
    type Model = ClusTreeModel;
    type Sketch = CfVector;

    fn name(&self) -> &str {
        "clustree"
    }

    fn init(&self, records: &[Record]) -> Result<ClusTreeModel> {
        if records.is_empty() {
            return Err(DistStreamError::EmptyStream);
        }
        let mut model = ClusTreeModel {
            entries: BTreeMap::new(),
            tree: CfTree::new(self.params.fanout),
            next_id: 0,
            last_maintenance_secs: 0.0,
        };
        for record in records {
            match self.assign(&model, record) {
                Assignment::Existing(id) => {
                    let cf = model
                        .entries
                        .get_mut(&id)
                        .ok_or(DistStreamError::UnknownMicroCluster { id })?;
                    let dt = record.timestamp.saturating_since(cf.updated_at());
                    let lambda = self.lambda(dt);
                    cf.insert(record, lambda);
                }
                Assignment::New(_) => {
                    let id = model.next_id;
                    model.next_id += 1;
                    let cf = CfVector::from_record(record);
                    model.tree.insert(id, cf.centroid(), cf.weight());
                    model.entries.insert(id, cf);
                }
            }
        }
        self.enforce_capacity(&mut model, &mut None)?;
        self.rebuild_tree(&mut model);
        Ok(model)
    }

    fn assign(&self, model: &ClusTreeModel, record: &Record) -> Assignment {
        // Tree-based search: greedy descent instead of a linear scan. The
        // index may reference entries merged away since the last rebuild;
        // those lookups fall through to outlier creation.
        match model.tree.nearest(&record.point) {
            Some((id, dist)) => match model.entries.get(&id) {
                Some(cf) if dist <= self.boundary(cf) => Assignment::Existing(id),
                _ => Assignment::New(record.id),
            },
            None => Assignment::New(record.id),
        }
    }

    fn searcher<'m>(&'m self, model: &'m ClusTreeModel) -> Searcher<'m> {
        // Once per batch: the tree flattened and, per leaf slot, the id and
        // the boundary `assign` looks up and computes for every record that
        // lands there. NaN stands for an id merged or pruned away since the
        // tree last saw it: no distance is within NaN, so such lookups fall
        // through to outlier creation as they do in `assign`.
        let tree = FlatTree::build(&model.tree);
        let boundary = |id| {
            let entry = model.entries.get(id);
            entry.map_or(f64::NAN, |cf| self.boundary(cf))
        };
        let slots: Vec<(MicroClusterId, f64)> =
            tree.ids().iter().map(|id| (*id, boundary(id))).collect();
        Box::new(move |record| {
            let found = tree.nearest(&record.point);
            match found.and_then(|(slot, dist)| Some((slots.get(slot)?, dist))) {
                Some((&(id, boundary), dist)) if dist <= boundary => Assignment::Existing(id),
                _ => Assignment::New(record.id),
            }
        })
    }

    fn sketch_of(&self, model: &ClusTreeModel, id: MicroClusterId) -> CfVector {
        // lint:allow(index-in-hot-path) the trait's documented panic: `id` is one `assign` returned on this model
        model.entries[&id].clone()
    }

    fn create(&self, record: &Record) -> CfVector {
        CfVector::from_record(record)
    }

    fn update(&self, sketch: &mut CfVector, record: &Record) {
        let dt = record.timestamp.saturating_since(sketch.updated_at());
        let lambda = self.lambda(dt);
        sketch.insert(record, lambda);
    }

    fn can_premerge(&self, a: &CfVector, b: &CfVector) -> bool {
        a.centroid_distance(b) <= self.params.premerge_distance
    }

    fn apply_global(
        &self,
        model: &mut ClusTreeModel,
        updated: Vec<(MicroClusterId, CfVector)>,
        created: Vec<CfVector>,
        now: Timestamp,
    ) -> Result<()> {
        // One closest-pair index serves the whole call: the orphan fold's
        // nearest-centroid scans and every capacity merge below. It is built
        // at the first orphan or over-budget insertion and dropped on return.
        let mut index: Option<ClosestPairIndex> = None;
        // An update's target may have been capacity-merged or pruned away
        // since the (possibly one-update-stale) assignment snapshot.
        // Re-inserting the dead id would resurrect an entry the tree index
        // no longer knows about and push the model over budget, forcing an
        // extra closest-pair merge per orphan; folding the orphan into its
        // nearest surviving entry (earliest id on ties) sends the mass where
        // the capacity merge sent it, at one O(n·d) scan.
        for (id, cf) in updated {
            let target = match model.entries.get_mut(&id) {
                Some(slot) => {
                    *slot = cf;
                    id
                }
                None => {
                    let rows = index
                        .get_or_insert_with(|| ClosestPairIndex::build(&model.entries))
                        .rows();
                    let Some((row, _)) = rows.nearest_squared(&cf.centroid()) else {
                        continue;
                    };
                    let nearest = rows.id(row);
                    model
                        .entries
                        .get_mut(&nearest)
                        .ok_or(DistStreamError::UnknownMicroCluster { id: nearest })?
                        .add(&cf);
                    nearest
                }
            };
            // Later orphans must see this update's centroid.
            if let (Some(index), Some(cf)) = (&mut index, model.entries.get(&target)) {
                index.update(target, cf)?;
            }
        }
        // Insert one at a time, restoring the budget after each insertion:
        // merges are irreversible, so application order matters (§IV-C2).
        // New entries also join the search index incrementally so the next
        // batch's assignment can find them.
        for cf in created {
            let id = model.next_id;
            model.next_id += 1;
            model.tree.insert(id, cf.centroid(), cf.weight());
            if let Some(index) = &mut index {
                index.insert(id, &cf)?;
            }
            model.entries.insert(id, cf);
            self.enforce_capacity(model, &mut index)?;
        }
        // Periodic maintenance: decay sweep, pruning, and a fresh index.
        // Doing this on every call would charge the one-record-at-a-time
        // baseline O(n·d + n·log n) per record.
        if now.secs() - model.last_maintenance_secs >= self.params.maintenance_secs {
            for cf in model.entries.values_mut() {
                let dt = now.saturating_since(cf.updated_at());
                if dt > 0.0 {
                    cf.decay(self.lambda(dt), now);
                }
            }
            let min_weight = self.params.min_weight;
            model.entries.retain(|_, cf| cf.weight() >= min_weight);
            // Pruning left the call's index stale; the model is at or under
            // budget here unless it was restored under a smaller one.
            self.enforce_capacity(model, &mut None)?;
            self.rebuild_tree(model);
            model.last_maintenance_secs = now.secs();
        }
        Ok(())
    }

    fn snapshot(&self, model: &ClusTreeModel) -> Vec<WeightedPoint> {
        model
            .entries
            .values()
            .map(CfVector::to_weighted_point)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::Point;

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn algo() -> ClusTree {
        ClusTree::new(ClusTreeParams::default())
    }

    #[test]
    fn init_builds_searchable_tree() {
        let a = algo();
        let records: Vec<Record> = (0..30)
            .map(|i| rec(i, (i % 6) as f64 * 20.0, i as f64 * 0.1))
            .collect();
        let model = a.init(&records).unwrap();
        assert_eq!(model.len(), 6);
        assert!(model.tree_height() >= 2);
    }

    #[test]
    fn assign_descends_tree() {
        let a = algo();
        let records: Vec<Record> = (0..12)
            .map(|i| rec(i, (i % 4) as f64 * 50.0, 0.0))
            .collect();
        let model = a.init(&records).unwrap();
        assert!(matches!(
            a.assign(&model, &rec(100, 50.3, 1.0)),
            Assignment::Existing(_)
        ));
        assert!(matches!(
            a.assign(&model, &rec(101, 500.0, 1.0)),
            Assignment::New(_)
        ));
    }

    #[test]
    fn assign_many_matches_per_record_assign() {
        let a = ClusTree::new(ClusTreeParams {
            max_micro_clusters: 6,
            ..Default::default()
        });
        // Six populated micro-clusters (boundary 2 × RMS), then ten created
        // ones before any maintenance pass: each joins the tree, and the
        // capacity merges that follow fold ids away that the tree still
        // names — lookups landing on those must fall through to `New`.
        let init: Vec<Record> = (0..36)
            .map(|i| rec(i, (i % 6) as f64 * 40.0 + (i / 6) as f64 * 0.3, 0.0))
            .collect();
        let mut model = a.init(&init).unwrap();
        let created: Vec<CfVector> = (0..10)
            .map(|i| CfVector::from_record(&rec(100 + i, 7.0 + i as f64 * 23.0, 0.5)))
            .collect();
        a.apply_global(&mut model, vec![], created, Timestamp::from_secs(0.5))
            .unwrap();
        assert_eq!(model.len(), 6);
        assert_eq!(model.tree.len(), 16);

        let records: Vec<Record> = (0..400)
            .map(|i| rec(1000 + i, i as f64 * 0.61 - 10.0, 1.0))
            .collect();
        let batched = a.assign_many(&model, &records);
        let mut stale = 0;
        for (r, got) in records.iter().zip(&batched) {
            assert_eq!(*got, a.assign(&model, r), "record {}", r.id);
            let (id, _) = model.tree.nearest(&r.point).unwrap();
            stale += usize::from(!model.entries.contains_key(&id));
        }
        assert!(stale > 20, "only {stale} lookups landed on a removed id");
        let existing = batched
            .iter()
            .filter(|a| matches!(a, Assignment::Existing(_)));
        assert!(existing.count() > 20);
    }

    #[test]
    fn capacity_merges_closest_pair() {
        let a = ClusTree::new(ClusTreeParams {
            max_micro_clusters: 2,
            ..Default::default()
        });
        let mut model = a.init(&[rec(0, 0.0, 0.0), rec(1, 100.0, 0.0)]).unwrap();
        // Two new clusters near 100 → merge pressure keeps the budget.
        let created = vec![
            CfVector::from_record(&rec(2, 103.0, 1.0)),
            CfVector::from_record(&rec(3, 106.0, 1.0)),
        ];
        a.apply_global(&mut model, vec![], created, Timestamp::from_secs(1.0))
            .unwrap();
        assert_eq!(model.len(), 2);
        // The far-apart 0.0 cluster survives; the 100-ish ones merged.
        let centroids: Vec<f64> = model.iter().map(|(_, cf)| cf.centroid()[0]).collect();
        assert!(centroids.iter().any(|&c| c < 1.0));
    }

    #[test]
    fn orphan_fold_ties_go_to_the_earliest_id() {
        let a = algo();
        let mut model = a.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        assert_eq!(model.len(), 2);
        // An update for an id that no longer exists, exactly halfway between
        // the two survivors: the scan keeps the first minimum in id order.
        let orphan = CfVector::from_record(&rec(2, 5.0, 0.1));
        a.apply_global(
            &mut model,
            vec![(99, orphan)],
            vec![],
            Timestamp::from_secs(0.1),
        )
        .unwrap();
        let weights: Vec<(MicroClusterId, f64)> =
            model.iter().map(|(id, cf)| (*id, cf.weight())).collect();
        assert_eq!(weights, vec![(0, 2.0), (1, 1.0)]);
        // A second orphan sees the first fold: entry 0 now sits at 2.5, so
        // 6.0 is closer to entry 1.
        let orphan = CfVector::from_record(&rec(3, 6.4, 0.2));
        a.apply_global(
            &mut model,
            vec![(98, orphan.clone()), (97, orphan)],
            vec![],
            Timestamp::from_secs(0.2),
        )
        .unwrap();
        let weights: Vec<(MicroClusterId, f64)> =
            model.iter().map(|(id, cf)| (*id, cf.weight())).collect();
        assert_eq!(weights, vec![(0, 2.0), (1, 3.0)]);
    }

    #[test]
    fn capacity_merge_ties_go_to_the_earliest_pair() {
        let a = ClusTree::new(ClusTreeParams {
            max_micro_clusters: 3,
            ..Default::default()
        });
        // Entries at 0, 10, 20: inserting 30 makes every neighbouring pair
        // equidistant; the first pair in id order, (0, 1), merges.
        let mut model = a
            .init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0), rec(2, 20.0, 0.0)])
            .unwrap();
        let created = vec![CfVector::from_record(&rec(3, 30.0, 0.1))];
        a.apply_global(&mut model, vec![], created, Timestamp::from_secs(0.1))
            .unwrap();
        let state: Vec<(MicroClusterId, f64)> = model
            .iter()
            .map(|(id, cf)| (*id, cf.centroid()[0]))
            .collect();
        assert_eq!(state, vec![(0, 5.0), (2, 20.0), (3, 30.0)]);
    }

    #[test]
    fn decayed_entries_dropped() {
        let a = algo();
        let mut model = a.init(&[rec(0, 0.0, 0.0)]).unwrap();
        a.apply_global(&mut model, vec![], vec![], Timestamp::from_secs(100.0))
            .unwrap();
        assert!(model.is_empty());
        assert_eq!(model.tree_height(), 0);
    }

    #[test]
    fn tree_rebuilt_after_global_update() {
        let a = algo();
        let mut model = a.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let created: Vec<CfVector> = (1..10)
            .map(|i| CfVector::from_record(&rec(i, i as f64 * 30.0, 0.5)))
            .collect();
        a.apply_global(&mut model, vec![], created, Timestamp::from_secs(0.5))
            .unwrap();
        assert_eq!(model.len(), 10);
        assert!(model.tree_height() >= 2);
        // Greedy descent is approximate: most entries must resolve to
        // themselves, and no lookup may stray beyond the 30-unit spacing.
        let mut exact = 0;
        for (_, cf) in model.iter() {
            let (_, dist) = model.tree.nearest(&cf.centroid()).unwrap();
            assert!(dist <= 30.0 + 1e-9, "lookup strayed: {dist}");
            if dist < 1e-9 {
                exact += 1;
            }
        }
        assert!(exact >= 7, "only {exact}/10 entries resolved exactly");
    }

    #[test]
    fn update_decays_by_interval() {
        let a = algo();
        let mut cf = a.create(&rec(0, 1.0, 0.0));
        a.update(&mut cf, &rec(1, 1.0, 4.0));
        assert!((cf.weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_matches_entries() {
        let a = algo();
        let model = a.init(&[rec(0, 0.0, 0.0), rec(1, 50.0, 0.0)]).unwrap();
        assert_eq!(a.snapshot(&model).len(), 2);
    }
}
