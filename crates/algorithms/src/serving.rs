//! Nearest-cluster predict over published [`ServingSnapshot`]s.
//!
//! A [`ServingPredictor`] is the read side of the online-serving path: it
//! owns a caching [`SnapshotReader`] plus a [`CentroidKernel`] rebuilt from
//! the snapshot's exported micro-clusters whenever the epoch advances.
//! Between publishes, a predict costs one atomic load plus one vectorized
//! kernel scan — no lock, no allocation, no driver contention — so many
//! predictor threads can serve queries while the stream executes.
//!
//! # Examples
//!
//! ```
//! use diststream_algorithms::{CluStream, CluStreamParams, ServingPredictor};
//! use diststream_core::{serving_handle, DistStreamJob, StreamClustering};
//! use diststream_engine::{ExecutionMode, StreamingContext, VecSource};
//! use diststream_types::{ClusteringConfig, Point, Record, Timestamp};
//!
//! let algo = CluStream::new(CluStreamParams { max_micro_clusters: 10, ..Default::default() });
//! let ctx = StreamingContext::new(2, ExecutionMode::Simulated)?;
//! let stream: Vec<Record> = (0..300)
//!     .map(|i| Record::new(i, Point::from(vec![(i % 3) as f64 * 9.0]), Timestamp::from_secs(i as f64 * 0.05)))
//!     .collect();
//! let handle = serving_handle();
//! let mut predictor = ServingPredictor::new(&handle);
//! assert!(predictor.predict(&Point::from(vec![0.1])).is_none(), "nothing published yet");
//!
//! let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
//! job.init_records(30).serving(handle.clone());
//! job.run_to_end(VecSource::new(stream))?;
//!
//! let p = predictor.predict(&Point::from(vec![9.1])).expect("model published");
//! assert!(p.distance < 4.5, "query lands near the 9.0 cluster");
//! # Ok::<(), diststream_types::DistStreamError>(())
//! ```

use std::sync::Arc;

use diststream_core::{serving_reader, ServingHandle, ServingSnapshot};
use diststream_engine::SnapshotReader;
use diststream_types::Point;

use crate::cf::CentroidKernel;

/// Answer to one nearest-cluster predict query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Serving epoch (batch index) the answer was computed against.
    pub epoch: u64,
    /// Index of the nearest micro-cluster within the snapshot's
    /// [`centroids`](ServingSnapshot::centroids) export.
    pub cluster: usize,
    /// Euclidean distance from the query to that centroid.
    pub distance: f64,
    /// Temporal weight of the matched micro-cluster.
    pub weight: f64,
}

/// One thread's predict handle: caching snapshot reader + centroid kernel.
///
/// Cheap to clone-per-thread via [`ServingPredictor::new`] on a shared
/// [`ServingHandle`]; each predictor rebuilds its kernel independently on
/// epoch change, so readers never synchronize with each other either.
#[derive(Debug)]
pub struct ServingPredictor {
    reader: SnapshotReader<ServingSnapshot>,
    /// Epoch the kernel was built from (`None` = never built).
    kernel_epoch: Option<u64>,
    kernel: CentroidKernel,
}

impl ServingPredictor {
    /// Creates a predictor reading from `handle`.
    pub fn new(handle: &ServingHandle) -> Self {
        ServingPredictor {
            reader: serving_reader(handle),
            kernel_epoch: None,
            kernel: CentroidKernel::new(),
        }
    }

    /// Nearest micro-cluster to `query` in the latest published snapshot,
    /// or `None` while nothing has been published (or the snapshot exports
    /// no micro-clusters). The query must match the model's
    /// dimensionality.
    pub fn predict(&mut self, query: &Point) -> Option<Prediction> {
        let (epoch, snapshot) = {
            let (epoch, snapshot) = self.reader.current()?;
            (epoch, Arc::clone(snapshot))
        };
        if self.kernel_epoch != Some(epoch) {
            self.kernel.clear();
            for (idx, wp) in snapshot.centroids.iter().enumerate() {
                self.kernel.push_point(idx as u64, &wp.point);
            }
            self.kernel_epoch = Some(epoch);
        }
        // The in-order scan, not `nearest`: the kernel lives for one epoch
        // (one batch interval under a running stream), and a search index
        // bought inside it makes a predict cost three different things
        // within every epoch — rented scans, the build, indexed searches.
        // A read path is worth more steady than fast.
        let (cluster, distance) = self.kernel.nearest_in_order(query)?;
        let weight = snapshot.centroids.get(cluster)?.weight;
        Some(Prediction {
            epoch,
            cluster,
            distance,
            weight,
        })
    }

    /// The epoch of the snapshot the predictor last answered from.
    pub fn epoch(&self) -> Option<u64> {
        self.kernel_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_core::serving_handle;
    use diststream_core::{ServingSnapshot, WeightedPoint};

    fn snap(epoch: u64, centers: &[(f64, f64)]) -> ServingSnapshot {
        ServingSnapshot {
            epoch,
            model_bytes: vec![epoch as u8],
            centroids: centers
                .iter()
                .map(|&(x, w)| WeightedPoint {
                    point: Point::from(vec![x]),
                    weight: w,
                })
                .collect(),
        }
    }

    #[test]
    fn predicts_nearest_and_tracks_epochs() {
        let handle = serving_handle();
        let mut predictor = ServingPredictor::new(&handle);
        assert!(predictor.predict(&Point::from(vec![0.0])).is_none());

        handle.publish(0, snap(0, &[(0.0, 2.0), (10.0, 5.0)]));
        let p = predictor.predict(&Point::from(vec![9.0])).unwrap();
        assert_eq!((p.epoch, p.cluster), (0, 1));
        assert_eq!(p.distance, 1.0);
        assert_eq!(p.weight, 5.0);

        // New epoch moves the second centroid; the kernel rebuilds.
        handle.publish(1, snap(1, &[(0.0, 2.0), (4.0, 7.0)]));
        let p = predictor.predict(&Point::from(vec![9.0])).unwrap();
        assert_eq!((p.epoch, p.cluster), (1, 1));
        assert_eq!(p.distance, 5.0);
        assert_eq!(p.weight, 7.0);
        assert_eq!(predictor.epoch(), Some(1));
    }

    #[test]
    fn predicts_never_buy_a_search_index() {
        // Scattered 54-d centres, queries right beside them and far more
        // predicts than a kernel's rent: `nearest` buys an index on these
        // rows and keeps it.
        let at = |i: usize, offset: f64| {
            let coords = (0..54u64).map(|dim| {
                let mixed = (i as u64 * 54 + dim + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (mixed >> 54) as f64 + offset
            });
            Point::from(coords.collect::<Vec<_>>())
        };
        let handle = serving_handle();
        let centroids = (0..64)
            .map(|i| WeightedPoint {
                point: at(i, 0.0),
                weight: 1.0,
            })
            .collect();
        handle.publish(
            0,
            ServingSnapshot {
                epoch: 0,
                model_bytes: Vec::new(),
                centroids,
            },
        );
        let mut predictor = ServingPredictor::new(&handle);
        for i in 0..1_000 {
            let p = predictor.predict(&at(i % 64, 0.5)).unwrap();
            assert_eq!(p.cluster, i % 64);
        }
        assert!(!predictor.kernel.is_indexed());
        for i in 0..1_000 {
            predictor.kernel.nearest(&at(i % 64, 0.5));
        }
        assert!(predictor.kernel.is_indexed(), "the rows are worth an index");
    }

    #[test]
    fn empty_centroid_export_yields_none() {
        let handle = serving_handle();
        let mut predictor = ServingPredictor::new(&handle);
        handle.publish(0, snap(0, &[]));
        assert!(predictor.predict(&Point::from(vec![1.0])).is_none());
    }

    #[test]
    fn prediction_bits_match_naive_scan() {
        let centers: Vec<(f64, f64)> = (0..13).map(|i| (i as f64 * 1.7, 1.0)).collect();
        let handle = serving_handle();
        handle.publish(0, snap(0, &centers));
        let mut predictor = ServingPredictor::new(&handle);
        let query = Point::from(vec![7.3]);
        let p = predictor.predict(&query).unwrap();
        let (naive_idx, naive_d) = centers
            .iter()
            .enumerate()
            .map(|(i, &(x, _))| (i, Point::from(vec![x]).distance(&query)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(p.cluster, naive_idx);
        assert_eq!(p.distance.to_bits(), naive_d.to_bits());
    }
}
