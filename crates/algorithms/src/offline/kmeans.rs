//! Weighted k-means++ over micro-cluster centroids.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use diststream_core::WeightedPoint;
use diststream_types::Point;

use super::{weighted_mean, MacroClusters};
use crate::cf::CentroidKernel;

/// Parameters for weighted k-means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansParams {
    /// Number of macro-clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl KmeansParams {
    /// Paper-style defaults: 100 Lloyd iterations, fixed seed.
    pub fn new(k: usize) -> Self {
        KmeansParams {
            k,
            max_iters: 100,
            seed: 0x5EED,
        }
    }
}

/// Weighted k-means with k-means++ seeding.
///
/// Each input carries a weight (the micro-cluster's decayed weight); both
/// seeding probabilities and the Lloyd centroid step are weight-aware, so a
/// heavy micro-cluster pulls macro-centroids exactly as the records it
/// summarizes would have.
///
/// If fewer than `k` distinct points exist, fewer than `k` clusters are
/// returned. An empty input yields an empty result.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::offline::{kmeans, KmeansParams};
/// use diststream_core::WeightedPoint;
/// use diststream_types::Point;
///
/// let pts: Vec<WeightedPoint> = [0.0, 0.2, 9.8, 10.0]
///     .iter()
///     .map(|&x| WeightedPoint { point: Point::from(vec![x]), weight: 1.0 })
///     .collect();
/// let clusters = kmeans(&pts, KmeansParams::new(2));
/// assert_eq!(clusters.len(), 2);
/// assert_eq!(clusters.assignment[0], clusters.assignment[1]);
/// assert_ne!(clusters.assignment[0], clusters.assignment[3]);
/// ```
pub fn kmeans(points: &[WeightedPoint], params: KmeansParams) -> MacroClusters {
    if points.is_empty() || params.k == 0 {
        return MacroClusters {
            centroids: Vec::new(),
            assignment: vec![None; points.len()],
        };
    }
    // lint:allow(wallclock-entropy) k-means++ init; params.seed arrives through configuration
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut centroids = plus_plus_seeds(points, params.k, &mut rng);

    // Scratch reused across Lloyd iterations: the SoA kernel holding the
    // flattened centroids, and the per-cluster member lists. The kernel's
    // strict-`<` index-order scan keeps the earliest of tied rows — the same
    // winner as the `min_by(total_cmp)` reference scan (tests compare the
    // two bit-for-bit).
    let mut kernel = CentroidKernel::with_capacity(centroids.len(), points[0].point.dims());
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); centroids.len()];
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..params.max_iters {
        kernel.clear();
        for (c, centroid) in centroids.iter().enumerate() {
            kernel.push_point(c as u64, centroid);
        }
        // Assign step.
        let mut changed = false;
        for (i, wp) in points.iter().enumerate() {
            // k >= 1 and points is non-empty here, so the kernel always has
            // a centroid; keep the previous assignment if it somehow does not.
            let Some((nearest, _)) = kernel.nearest_squared(&wp.point) else {
                continue;
            };
            if assignment[i] != nearest {
                assignment[i] = nearest;
                changed = true;
            }
        }
        // Update step.
        for m in &mut members {
            m.clear();
        }
        for (i, &c) in assignment.iter().enumerate() {
            members[c].push(i);
        }
        for (c, m) in members.iter().enumerate() {
            if let Some(mean) = weighted_mean(points, m) {
                centroids[c] = mean;
            }
        }
        if !changed {
            break;
        }
    }

    // Drop empty clusters and compact indices.
    let mut used: Vec<usize> = assignment.clone();
    used.sort_unstable();
    used.dedup();
    let remap: std::collections::BTreeMap<usize, usize> = used
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    MacroClusters {
        centroids: used.iter().map(|&c| centroids[c].clone()).collect(),
        assignment: assignment.into_iter().map(|c| Some(remap[&c])).collect(),
    }
}

/// Weighted k-means++ seeding: the first seed is drawn by weight, each
/// subsequent seed with probability proportional to `w · D(x)²`.
fn plus_plus_seeds(points: &[WeightedPoint], k: usize, rng: &mut StdRng) -> Vec<Point> {
    let mut centroids = Vec::with_capacity(k.min(points.len()));
    let total_weight: f64 = points.iter().map(|p| p.weight).sum();
    let first = weighted_index(points.iter().map(|p| p.weight), total_weight, rng);
    centroids.push(points[first].point.clone());

    while centroids.len() < k.min(points.len()) {
        let dists: Vec<f64> = points
            .iter()
            .map(|wp| {
                let d = centroids
                    .iter()
                    .map(|c| c.squared_distance(&wp.point))
                    .fold(f64::INFINITY, f64::min);
                d * wp.weight.max(0.0)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            break; // All remaining points coincide with a centroid.
        }
        let next = weighted_index(dists.iter().copied(), total, rng);
        centroids.push(points[next].point.clone());
    }
    centroids
}

fn weighted_index(weights: impl Iterator<Item = f64>, total: f64, rng: &mut StdRng) -> usize {
    debug_assert!(total > 0.0);
    let mut target = rng.gen_range(0.0..total);
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        last = i;
        if target < w {
            return i;
        }
        target -= w;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wp(x: f64, w: f64) -> WeightedPoint {
        WeightedPoint {
            point: Point::from(vec![x]),
            weight: w,
        }
    }

    /// The pre-kernel reference scan: index-order `min_by(total_cmp)`, which
    /// keeps the first of equally-minimal centroids.
    fn naive_nearest_centroid(centroids: &[Point], point: &Point) -> usize {
        centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.squared_distance(point)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("at least one centroid")
    }

    /// The pre-kernel Lloyd loop, kept verbatim as the bit-exactness oracle
    /// for [`kmeans`]: same seeding, naive assignment scan, fresh member
    /// vectors per iteration.
    fn naive_kmeans(points: &[WeightedPoint], params: KmeansParams) -> MacroClusters {
        if points.is_empty() || params.k == 0 {
            return MacroClusters {
                centroids: Vec::new(),
                assignment: vec![None; points.len()],
            };
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut centroids = plus_plus_seeds(points, params.k, &mut rng);
        let mut assignment = vec![0usize; points.len()];
        for _ in 0..params.max_iters {
            let mut changed = false;
            for (i, wp) in points.iter().enumerate() {
                let nearest = naive_nearest_centroid(&centroids, &wp.point);
                if assignment[i] != nearest {
                    assignment[i] = nearest;
                    changed = true;
                }
            }
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); centroids.len()];
            for (i, &c) in assignment.iter().enumerate() {
                members[c].push(i);
            }
            for (c, m) in members.iter().enumerate() {
                if let Some(mean) = weighted_mean(points, m) {
                    centroids[c] = mean;
                }
            }
            if !changed {
                break;
            }
        }
        let mut used: Vec<usize> = assignment.clone();
        used.sort_unstable();
        used.dedup();
        let remap: std::collections::BTreeMap<usize, usize> = used
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        MacroClusters {
            centroids: used.iter().map(|&c| centroids[c].clone()).collect(),
            assignment: assignment.into_iter().map(|c| Some(remap[&c])).collect(),
        }
    }

    #[test]
    fn empty_input_empty_output() {
        let out = kmeans(&[], KmeansParams::new(3));
        assert!(out.is_empty());
        assert!(out.assignment.is_empty());
    }

    #[test]
    fn k_zero_assigns_nothing() {
        let out = kmeans(&[wp(0.0, 1.0)], KmeansParams::new(0));
        assert!(out.is_empty());
        assert_eq!(out.assignment, vec![None]);
    }

    #[test]
    fn separates_two_obvious_groups() {
        let pts = vec![wp(0.0, 1.0), wp(0.5, 1.0), wp(20.0, 1.0), wp(20.5, 1.0)];
        let out = kmeans(&pts, KmeansParams::new(2));
        assert_eq!(out.len(), 2);
        assert_eq!(out.assignment[0], out.assignment[1]);
        assert_eq!(out.assignment[2], out.assignment[3]);
        assert_ne!(out.assignment[0], out.assignment[2]);
    }

    #[test]
    fn weights_pull_centroids() {
        // Heavy point at 0, light at 4, single cluster → centroid near 0.
        let pts = vec![wp(0.0, 99.0), wp(4.0, 1.0)];
        let out = kmeans(&pts, KmeansParams::new(1));
        assert_eq!(out.len(), 1);
        assert!((out.centroids[0].as_slice()[0] - 0.04).abs() < 1e-9);
    }

    #[test]
    fn fewer_distinct_points_than_k() {
        let pts = vec![wp(1.0, 1.0), wp(1.0, 1.0), wp(1.0, 1.0)];
        let out = kmeans(&pts, KmeansParams::new(3));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts: Vec<WeightedPoint> = (0..40).map(|i| wp((i % 7) as f64 * 3.0, 1.0)).collect();
        let a = kmeans(&pts, KmeansParams::new(4));
        let b = kmeans(&pts, KmeansParams::new(4));
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_every_point_assigned(
            xs in prop::collection::vec(-100.0_f64..100.0, 1..50),
            k in 1usize..6,
        ) {
            let pts: Vec<WeightedPoint> = xs.iter().map(|&x| wp(x, 1.0)).collect();
            let out = kmeans(&pts, KmeansParams::new(k));
            prop_assert_eq!(out.assignment.len(), pts.len());
            for a in &out.assignment {
                let a = a.expect("kmeans never produces noise");
                prop_assert!(a < out.len());
            }
            prop_assert!(out.len() <= k);
        }

        #[test]
        fn prop_kernel_lloyd_matches_naive_reference_bits(
            xs in prop::collection::vec(-50.0_f64..50.0, 2..40),
            k in 1usize..5,
        ) {
            let pts: Vec<WeightedPoint> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| wp(x, 1.0 + (i % 3) as f64))
                .collect();
            let params = KmeansParams::new(k);
            let fast = kmeans(&pts, params);
            let naive = naive_kmeans(&pts, params);
            prop_assert_eq!(&fast.assignment, &naive.assignment);
            prop_assert_eq!(fast.centroids.len(), naive.centroids.len());
            for (a, b) in fast.centroids.iter().zip(naive.centroids.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        #[test]
        fn prop_assignment_is_nearest_centroid(
            xs in prop::collection::vec(-100.0_f64..100.0, 2..40),
        ) {
            let pts: Vec<WeightedPoint> = xs.iter().map(|&x| wp(x, 1.0)).collect();
            let out = kmeans(&pts, KmeansParams::new(3));
            for (i, wp) in pts.iter().enumerate() {
                let assigned = out.assignment[i].unwrap();
                let assigned_d = out.centroids[assigned].squared_distance(&wp.point);
                for c in &out.centroids {
                    prop_assert!(assigned_d <= c.squared_distance(&wp.point) + 1e-9);
                }
            }
        }
    }
}
