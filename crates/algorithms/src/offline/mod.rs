//! The offline phase: batch macro-clustering over micro-cluster snapshots.
//!
//! The online phase maintains micro-clusters; "the final clustering results
//! can be generated directly from the micro-clusters using batch-mode
//! algorithms such as K-means and DBSCAN" (paper §II-B). CluStream and
//! ClusTree use weighted k-means over micro-cluster centroids; DenStream and
//! D-Stream group density-connected micro-clusters with DBSCAN.

mod dbscan;
mod grids;
mod kmeans;

pub use dbscan::{dbscan, DbscanParams};
pub use grids::adjacent_grid_clusters;
pub use kmeans::{kmeans, KmeansParams};

use diststream_core::WeightedPoint;
use diststream_types::Point;

/// The offline phase's output: macro-clusters, each a centroid plus the
/// indices of the micro-clusters it groups.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroClusters {
    /// One centroid per macro-cluster.
    pub centroids: Vec<Point>,
    /// For each input micro-cluster, the macro-cluster index it belongs to
    /// (`None` for DBSCAN noise).
    pub assignment: Vec<Option<usize>>,
}

impl MacroClusters {
    /// Number of macro-clusters.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether no macro-clusters were produced.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Index of the macro-cluster whose centroid is nearest to `point`, or
    /// `None` when there are no clusters.
    pub fn nearest(&self, point: &Point) -> Option<usize> {
        self.centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.squared_distance(point)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    }
}

pub(crate) fn weighted_mean(points: &[WeightedPoint], members: &[usize]) -> Option<Point> {
    let mut total = 0.0;
    let mut sum: Option<Point> = None;
    for &i in members {
        let wp = &points[i];
        total += wp.weight;
        match &mut sum {
            // `a + b*w` in place: bit-identical to adding `point.scaled(w)`
            // without allocating the scaled copy per member.
            Some(s) => s.add_scaled_in_place(&wp.point, wp.weight),
            None => sum = Some(wp.point.scaled(wp.weight)),
        }
    }
    sum.map(|mut s| {
        if total > 0.0 {
            s.scale_in_place(1.0 / total);
        }
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nearest_picks_closest_centroid() {
        let mc = MacroClusters {
            centroids: vec![Point::from(vec![0.0]), Point::from(vec![10.0])],
            assignment: vec![Some(0), Some(1)],
        };
        assert_eq!(mc.nearest(&Point::from(vec![2.0])), Some(0));
        assert_eq!(mc.nearest(&Point::from(vec![8.0])), Some(1));
        assert_eq!(mc.len(), 2);
    }

    #[test]
    fn nearest_on_empty_is_none() {
        let mc = MacroClusters {
            centroids: vec![],
            assignment: vec![],
        };
        assert!(mc.is_empty());
        assert_eq!(mc.nearest(&Point::from(vec![0.0])), None);
    }

    proptest! {
        /// The in-place mean must be bit-identical to the allocating form it
        /// replaced: `sum += point.scaled(w)` then `sum.scaled(1/total)`.
        #[test]
        fn prop_weighted_mean_matches_allocating_form_bits(
            xs in prop::collection::vec(-100.0_f64..100.0, 1..20),
        ) {
            let points: Vec<WeightedPoint> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| WeightedPoint {
                    point: Point::from(vec![x, -x * 0.5]),
                    weight: 0.25 + (i % 4) as f64,
                })
                .collect();
            let members: Vec<usize> = (0..points.len()).collect();

            let mut total = 0.0;
            let mut sum: Option<Point> = None;
            for &i in &members {
                let wp = &points[i];
                total += wp.weight;
                match &mut sum {
                    Some(s) => s.add_in_place(&wp.point.scaled(wp.weight)),
                    None => sum = Some(wp.point.scaled(wp.weight)),
                }
            }
            let reference = sum.map(|s| if total > 0.0 { s.scaled(1.0 / total) } else { s });

            let fast = weighted_mean(&points, &members);
            let (fast, reference) = (fast.unwrap(), reference.unwrap());
            for (a, b) in fast.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let points = vec![
            WeightedPoint {
                point: Point::from(vec![0.0]),
                weight: 3.0,
            },
            WeightedPoint {
                point: Point::from(vec![4.0]),
                weight: 1.0,
            },
        ];
        let mean = weighted_mean(&points, &[0, 1]).unwrap();
        assert_eq!(mean.as_slice(), &[1.0]);
        assert!(weighted_mean(&points, &[]).is_none());
    }
}
