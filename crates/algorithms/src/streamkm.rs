//! A fifth algorithm on the DistStream APIs: decayed leader–follower online
//! k-means.
//!
//! The paper argues its four APIs cover *any* online-offline stream
//! clustering algorithm, "because such algorithms only differ in their
//! micro-cluster representations and micro-cluster update functions" (§VI).
//! This module is the existence proof beyond the paper's four: a
//! streaming-k-means-style algorithm (one decayed centroid per
//! micro-cluster, leader–follower creation, closest-pair merging under a
//! capacity bound) implemented purely through the same trait — no executor
//! changes required.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{Assignment, MicroClusterId, StreamClustering, WeightedPoint};
use diststream_types::{DistStreamError, Point, Record, Result, Timestamp};

use crate::cf::CfVector;
use crate::offline::{kmeans, KmeansParams};

/// Tuning parameters for [`StreamKMeans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamKMeansParams {
    /// Maximum number of micro-centroids.
    pub max_centroids: usize,
    /// Leader radius: a record farther than this from every centroid founds
    /// a new one.
    pub radius: f64,
    /// Decay base `β` (> 1): centroid weights decay as `β^{-Δt}`.
    pub beta: f64,
    /// Centroids lighter than this are dropped at global update.
    pub min_weight: f64,
    /// Seed for the k-means initialization.
    pub seed: u64,
}

impl Default for StreamKMeansParams {
    fn default() -> Self {
        StreamKMeansParams {
            max_centroids: 100,
            radius: 1.0,
            beta: 2f64.powf(0.25),
            min_weight: 0.05,
            seed: 0x5EED,
        }
    }
}

/// The model: an id-keyed set of decayed centroid sketches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamKMeansModel {
    centroids: BTreeMap<MicroClusterId, CfVector>,
    next_id: MicroClusterId,
}

impl StreamKMeansModel {
    /// Number of live micro-centroids.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether the model holds no centroids.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Iterates over `(id, sketch)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MicroClusterId, &CfVector)> {
        self.centroids.iter()
    }
}

/// Decayed leader–follower online k-means through the four DistStream APIs.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::{StreamKMeans, StreamKMeansParams};
/// use diststream_core::StreamClustering;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = StreamKMeans::new(StreamKMeansParams {
///     max_centroids: 8,
///     radius: 1.0,
///     ..Default::default()
/// });
/// let init: Vec<Record> = (0..20)
///     .map(|i| Record::new(i, Point::from(vec![(i % 4) as f64 * 10.0]), Timestamp::from_secs(i as f64 * 0.1)))
///     .collect();
/// let model = algo.init(&init)?;
/// assert!(model.len() >= 4 && model.len() <= 8);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamKMeans {
    params: StreamKMeansParams,
}

impl StreamKMeans {
    /// Creates the algorithm with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_centroids` is zero, `radius ≤ 0`, or `beta ≤ 1`.
    pub fn new(params: StreamKMeansParams) -> Self {
        assert!(params.max_centroids > 0, "centroid budget must be positive");
        assert!(params.radius > 0.0, "leader radius must be positive");
        assert!(params.beta > 1.0, "decay base must exceed 1");
        StreamKMeans { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &StreamKMeansParams {
        &self.params
    }

    fn lambda(&self, dt: f64) -> f64 {
        self.params.beta.powf(-dt)
    }

    fn enforce_capacity(&self, model: &mut StreamKMeansModel) -> Result<()> {
        while model.centroids.len() > self.params.max_centroids {
            let items: Vec<(MicroClusterId, Point)> = model
                .centroids
                .iter()
                .map(|(id, cf)| (*id, cf.centroid()))
                .collect();
            let mut best = (items[0].0, items[1].0, f64::INFINITY);
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    let d = items[i].1.squared_distance(&items[j].1);
                    if d < best.2 {
                        best = (items[i].0, items[j].0, d);
                    }
                }
            }
            let folded = model
                .centroids
                .remove(&best.1)
                .ok_or(DistStreamError::UnknownMicroCluster { id: best.1 })?;
            model
                .centroids
                .get_mut(&best.0)
                .ok_or(DistStreamError::UnknownMicroCluster { id: best.0 })?
                .add(&folded);
        }
        Ok(())
    }
}

impl StreamClustering for StreamKMeans {
    type Model = StreamKMeansModel;
    type Sketch = CfVector;

    fn name(&self) -> &str {
        "stream-kmeans"
    }

    fn init(&self, records: &[Record]) -> Result<StreamKMeansModel> {
        if records.is_empty() {
            return Err(DistStreamError::EmptyStream);
        }
        let points: Vec<WeightedPoint> = records
            .iter()
            .map(|r| WeightedPoint {
                point: r.point.clone(),
                weight: 1.0,
            })
            .collect();
        let mut km = KmeansParams::new(self.params.max_centroids);
        km.seed = self.params.seed;
        let clusters = kmeans(&points, km);
        let mut model = StreamKMeansModel::default();
        let mut by_cluster: BTreeMap<usize, CfVector> = BTreeMap::new();
        for (record, assigned) in records.iter().zip(clusters.assignment.iter()) {
            let c = assigned.ok_or_else(|| {
                DistStreamError::Invariant("k-means left an init point unassigned".into())
            })?;
            match by_cluster.get_mut(&c) {
                Some(cf) => cf.insert(record, 1.0),
                None => {
                    by_cluster.insert(c, CfVector::from_record(record));
                }
            }
        }
        for (_, cf) in by_cluster {
            let id = model.next_id;
            model.next_id += 1;
            model.centroids.insert(id, cf);
        }
        Ok(model)
    }

    fn assign(&self, model: &StreamKMeansModel, record: &Record) -> Assignment {
        let closest = model
            .centroids
            .iter()
            .map(|(id, cf)| (*id, cf.centroid().distance(&record.point)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match closest {
            Some((id, d)) if d <= self.params.radius => Assignment::Existing(id),
            _ => Assignment::New(record.id),
        }
    }

    fn sketch_of(&self, model: &StreamKMeansModel, id: MicroClusterId) -> CfVector {
        model.centroids[&id].clone()
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
        a.centroid_distance(b) <= self.params.radius
    }

    fn apply_global(
        &self,
        model: &mut StreamKMeansModel,
        updated: Vec<(MicroClusterId, CfVector)>,
        created: Vec<CfVector>,
        now: Timestamp,
    ) -> Result<()> {
        for (id, cf) in updated {
            model.centroids.insert(id, cf);
        }
        for cf in created {
            let id = model.next_id;
            model.next_id += 1;
            model.centroids.insert(id, cf);
            self.enforce_capacity(model)?;
        }
        for cf in model.centroids.values_mut() {
            let dt = now.saturating_since(cf.updated_at());
            if dt > 0.0 {
                cf.decay(self.lambda(dt), now);
            }
        }
        let min_weight = self.params.min_weight;
        model.centroids.retain(|_, cf| cf.weight() >= min_weight);
        Ok(())
    }

    fn snapshot(&self, model: &StreamKMeansModel) -> Vec<WeightedPoint> {
        model
            .centroids
            .values()
            .map(CfVector::to_weighted_point)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_core::{DistStreamJob, SequentialExecutor};
    use diststream_engine::{ExecutionMode, StreamingContext, VecSource};
    use diststream_types::ClusteringConfig;

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn algo() -> StreamKMeans {
        StreamKMeans::new(StreamKMeansParams {
            max_centroids: 10,
            radius: 1.0,
            ..Default::default()
        })
    }

    fn stream(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                rec(
                    i,
                    (i % 4) as f64 * 6.0 + (i % 3) as f64 * 0.1,
                    i as f64 * 0.2,
                )
            })
            .collect()
    }

    #[test]
    fn init_respects_budget() {
        let model = algo().init(&stream(50)).unwrap();
        assert!(model.len() <= 10);
        assert!(!model.is_empty());
    }

    #[test]
    fn leader_rule_creates_new_centroids() {
        let a = algo();
        let model = a.init(&[rec(0, 0.0, 0.0)]).unwrap();
        assert!(matches!(
            a.assign(&model, &rec(1, 0.5, 1.0)),
            Assignment::Existing(_)
        ));
        assert!(matches!(
            a.assign(&model, &rec(2, 9.0, 1.0)),
            Assignment::New(_)
        ));
    }

    #[test]
    fn capacity_enforced_by_merging() {
        let a = StreamKMeans::new(StreamKMeansParams {
            max_centroids: 2,
            radius: 0.5,
            ..Default::default()
        });
        let mut model = a.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        let created = vec![CfVector::from_record(&rec(2, 20.0, 1.0))];
        a.apply_global(&mut model, vec![], created, Timestamp::from_secs(1.0))
            .unwrap();
        assert!(model.len() <= 2);
    }

    #[test]
    fn stale_centroids_decay_away() {
        let a = algo();
        let mut model = a.init(&[rec(0, 0.0, 0.0)]).unwrap();
        a.apply_global(&mut model, vec![], vec![], Timestamp::from_secs(100.0))
            .unwrap();
        assert!(model.is_empty());
    }

    #[test]
    fn runs_under_every_executor() {
        let a = algo();
        let records = stream(400);
        // Sequential baseline.
        let seq = SequentialExecutor::new(&a);
        let mut model = a.init(&records[..40]).unwrap();
        for r in &records[40..] {
            seq.process_record(&mut model, r).unwrap();
        }
        assert!(!model.is_empty());
        // Mini-batch executor, parallelism invariance included.
        let run = |p: usize| {
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            DistStreamJob::new(&a, &ctx, ClusteringConfig::default())
                .init_records(40)
                .run_to_end(VecSource::new(records.clone()))
                .unwrap()
                .model
        };
        let base = run(1);
        assert!(!base.is_empty());
        assert_eq!(run(8), base);
    }

    #[test]
    fn snapshot_feeds_offline_phase() {
        let a = algo();
        let model = a.init(&stream(100)).unwrap();
        let macros = kmeans(&a.snapshot(&model), KmeansParams::new(4));
        assert_eq!(macros.len(), 4);
    }
}
