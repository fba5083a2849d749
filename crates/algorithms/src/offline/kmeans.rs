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
    let mut centroids = plus_plus_seeds(points, params.k, &mut rng, Point::squared_distance);

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
///
/// `nearest[i]` holds `D(x_i)²` to the seeds drawn so far and is folded
/// against the newest seed only, so drawing `k` seeds costs `n·(k−1)`
/// calls of `distance` instead of `n·k(k−1)/2`. Per point this is the
/// same `f64::min` chain, on the same operands in the same seed order, as
/// folding over every seed afresh — NaN and ±∞ included — so the seeds are
/// bit-identical to the full rescan's (the `rescan_seeds` test oracle).
fn plus_plus_seeds(
    points: &[WeightedPoint],
    k: usize,
    rng: &mut StdRng,
    distance: impl Fn(&Point, &Point) -> f64,
) -> Vec<Point> {
    let mut centroids = Vec::with_capacity(k.min(points.len()));
    let total_weight: f64 = points.iter().map(|p| p.weight).sum();
    let first = weighted_index(points.iter().map(|p| p.weight), total_weight, rng);
    centroids.push(points[first].point.clone());

    let mut nearest = vec![f64::INFINITY; points.len()];
    let mut dists = vec![0.0; points.len()];
    let mut newest = first;
    while centroids.len() < k.min(points.len()) {
        let seed = &points[newest].point;
        for ((near, d), wp) in nearest.iter_mut().zip(&mut dists).zip(points) {
            *near = f64::min(*near, distance(seed, &wp.point));
            *d = *near * wp.weight.max(0.0);
        }
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            break; // All remaining points coincide with a centroid.
        }
        newest = weighted_index(dists.iter().copied(), total, rng);
        centroids.push(points[newest].point.clone());
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
    use std::panic::UnwindSafe;

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

    /// The pre-change k-means++ seeding, kept as the bit-exactness oracle for
    /// [`plus_plus_seeds`]: for every new seed, every point's distance to
    /// *every* seed drawn so far, folded afresh — `n·k(k−1)/2` distances.
    fn rescan_seeds(
        points: &[WeightedPoint],
        k: usize,
        rng: &mut StdRng,
        distance: impl Fn(&Point, &Point) -> f64,
    ) -> Vec<Point> {
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
                        .map(|c| distance(c, &wp.point))
                        .fold(f64::INFINITY, f64::min);
                    d * wp.weight.max(0.0)
                })
                .collect();
            let total: f64 = dists.iter().sum();
            if total <= 0.0 {
                break;
            }
            let next = weighted_index(dists.iter().copied(), total, rng);
            centroids.push(points[next].point.clone());
        }
        centroids
    }

    /// The pre-kernel Lloyd loop, kept verbatim as the bit-exactness oracle
    /// for [`kmeans`]: the rescan seeding, naive assignment scan, fresh
    /// member vectors per iteration.
    fn naive_kmeans(points: &[WeightedPoint], params: KmeansParams) -> MacroClusters {
        if points.is_empty() || params.k == 0 {
            return MacroClusters {
                centroids: Vec::new(),
                assignment: vec![None; points.len()],
            };
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut centroids = rescan_seeds(points, params.k, &mut rng, Point::squared_distance);
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

    /// How a seeding run ended: each seed's coordinate bits plus the next
    /// draw of the RNG it left behind, or `None` if it panicked (a total
    /// weight ≤ 0 or a NaN total makes `gen_range` panic, in the oracle as
    /// in the incremental fold).
    type SeedRun = Option<(Vec<Vec<u64>>, u64)>;

    fn seed_run(
        seeding: impl FnOnce(&mut StdRng) -> Vec<Point> + UnwindSafe,
        seed: u64,
    ) -> SeedRun {
        std::panic::catch_unwind(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let seeds = seeding(&mut rng);
            let bits = seeds
                .iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect();
            (bits, rng.gen::<u64>())
        })
        .ok()
    }

    /// `(plus_plus_seeds, rescan_seeds)` on the same input and RNG seed.
    fn both_seedings(points: &[WeightedPoint], k: usize, seed: u64) -> (SeedRun, SeedRun) {
        (
            seed_run(
                |rng| plus_plus_seeds(points, k, rng, Point::squared_distance),
                seed,
            ),
            seed_run(
                |rng| rescan_seeds(points, k, rng, Point::squared_distance),
                seed,
            ),
        )
    }

    /// `n` weighted points of dimension `d` drawn from `case`: coordinates
    /// on a coarse lattice at a scale of 1.5 (half the cases), 1e-160
    /// (squared distances subnormal) or 1e150 (they overflow to +∞ beyond
    /// a few dimensions), a quarter of the points copies of earlier ones;
    /// in one case of three a NaN or ±∞ in one coordinate of one point;
    /// weights 0, negative, 1e-300…1e300 or 1.
    fn hostile_points(case: u64, n: usize, d: usize) -> Vec<WeightedPoint> {
        let mut rng = StdRng::seed_from_u64(case);
        let scale = [1.5, 1.5, 1e-160, 1e150][rng.gen_range(0..4usize)];
        let mut points: Vec<WeightedPoint> = Vec::with_capacity(n);
        for _ in 0..n {
            let point = if !points.is_empty() && rng.gen_bool(0.25) {
                points[rng.gen_range(0..points.len())].point.clone()
            } else {
                (0..d)
                    .map(|_| rng.gen_range(-2i32..3) as f64 * scale)
                    .collect::<Vec<f64>>()
                    .into()
            };
            let weight = match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -rng.gen_range(0.0f64..4.0),
                2 | 3 => 10f64.powi(rng.gen_range(-300i32..=300)),
                _ => 1.0,
            };
            points.push(WeightedPoint { point, weight });
        }
        if rng.gen_bool(1.0 / 3.0) {
            let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let at = rng.gen_range(0..n);
            let mut coords = points[at].point.clone().into_inner();
            coords[rng.gen_range(0..d)] = special[rng.gen_range(0..3usize)];
            points[at].point = coords.into();
        }
        points
    }

    /// The edges the proptest below draws at random, pinned: the
    /// `total <= 0` break, the panicking first draw, k ≥ n, and NaN / ±∞
    /// coordinates.
    #[test]
    fn seeding_edges_end_like_the_oracle() {
        let pair = [wp(0.0, 1.0), wp(3.0, 1.0)];
        let duplicated: Vec<WeightedPoint> = pair.iter().cycle().take(6).cloned().collect();
        let (fast, oracle) = both_seedings(&duplicated, 5, 1);
        assert_eq!(fast, oracle);
        assert_eq!(fast.map(|(seeds, _)| seeds.len()), Some(2), "break fires");

        let weightless = [wp(0.0, 0.0), wp(1.0, 0.0)];
        assert_eq!(both_seedings(&weightless, 2, 1), (None, None));

        let hostile = [
            wp(f64::NAN, 1.0),
            wp(0.0, 1.0),
            wp(f64::INFINITY, 2.0),
            wp(f64::NEG_INFINITY, 0.0),
            wp(1e200, 1e300),
            wp(2.0, -1.0),
        ];
        for k in [1, 3, 6, 9] {
            for seed in 0..16 {
                let (fast, oracle) = both_seedings(&hostile, k, seed);
                assert_eq!(fast, oracle, "k = {k}, seed = {seed}");
            }
        }
    }

    /// Drawing k′ seeds evaluates exactly n·(k′−1) distances; the rescan
    /// made n·k′(k′−1)/2. n = 960 and k = 230 are CluStream's init on the
    /// `clustream-kdd99` workload: 219 840 against 25 281 600.
    #[test]
    fn seeding_evaluates_one_distance_per_point_per_new_seed() {
        let pts: Vec<WeightedPoint> = (0..960)
            .map(|i| WeightedPoint {
                point: Point::from(vec![(i as f64 * 0.618).sin(), (i as f64 * 0.377).cos()]),
                weight: 1.0,
            })
            .collect();
        let calls = std::cell::Cell::new(0usize);
        let counted = |a: &Point, b: &Point| {
            calls.set(calls.get() + 1);
            a.squared_distance(b)
        };
        let seeds = plus_plus_seeds(&pts, 230, &mut StdRng::seed_from_u64(0x5EED), counted);
        assert_eq!(seeds.len(), 230);
        assert_eq!(calls.replace(0), 219_840);

        let oracle = rescan_seeds(&pts, 230, &mut StdRng::seed_from_u64(0x5EED), counted);
        assert_eq!(calls.get(), 25_281_600);
        assert_eq!(seeds, oracle);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `kmeans` is public and is fed snapshots, so the rescan oracle
        /// defines the seeds for any input: same seeds to the bit, same
        /// RNG state after, or a panic on both sides.
        #[test]
        fn prop_seeds_match_rescan_oracle_bits(
            case in any::<u64>(),
            n in 1usize..40,
            dim in 0usize..4,
            k_pick in 0usize..4,
        ) {
            let d = [1, 2, 54, 315][dim];
            let k = match k_pick {
                0 => 1,
                1 => n,
                2 => n + 3,
                _ => 1 + case as usize % n,
            };
            let points = hostile_points(case, n, d);
            let (fast, oracle) = both_seedings(&points, k, case);
            prop_assert_eq!(fast, oracle, "case {}, n {}, d {}, k {}", case, n, d, k);
        }
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
