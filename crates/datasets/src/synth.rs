//! The seeded synthetic stream generator: Gaussian clusters with activity
//! windows (emerging / dominating / vanishing patterns) and centroid drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use diststream_types::{ClassId, LabeledPoint, Point};

/// One ground-truth cluster of the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Share of the whole stream's records this cluster contributes.
    pub fraction: f64,
    /// Stream interval `[start, end)` (as fractions of the stream) in which
    /// the cluster is active. `(0.0, 1.0)` means always active.
    pub active: (f64, f64),
    /// Per-dimension standard deviation of the cluster's Gaussian.
    pub std: f64,
    /// How far (in units of `std`) the centroid drifts across the cluster's
    /// *activity window*. Zero for stationary clusters. Drift within the
    /// window is what makes update order matter: micro-clusters must keep
    /// tracking the moving centroid, and stale/unordered updates lag.
    pub drift_stds: f64,
    /// Number of sub-clumps the cluster is made of (≥ 1).
    ///
    /// Real-world classes are not single Gaussians: a TCP attack type or a
    /// forest cover type is a *clumpy* region, and the online phase
    /// summarizes it with several micro-clusters. Each clump is a tight
    /// Gaussian (`std / 3`) centered at a seeded offset within the cluster;
    /// drift moves all clumps together.
    pub clumps: usize,
}

impl ClusterSpec {
    /// A stationary cluster active for the whole stream.
    pub fn stable(fraction: f64, std: f64) -> Self {
        ClusterSpec {
            fraction,
            active: (0.0, 1.0),
            std,
            drift_stds: 0.0,
            clumps: 1,
        }
    }

    /// A bursty cluster active only inside `[start, end)`.
    pub fn burst(fraction: f64, std: f64, start: f64, end: f64) -> Self {
        ClusterSpec {
            fraction,
            active: (start, end),
            std,
            drift_stds: 0.0,
            clumps: 1,
        }
    }

    fn window(&self) -> f64 {
        (self.active.1 - self.active.0).max(1e-9)
    }
}

/// Configuration of a synthetic stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of records to generate.
    pub records: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// The ground-truth clusters.
    pub clusters: Vec<ClusterSpec>,
    /// Half-width of the uniform box cluster centers are drawn from.
    pub center_range: f64,
    /// RNG seed; every aspect of the stream is reproducible from it.
    pub seed: u64,
}

/// Generates a labeled point stream from `config`.
///
/// Each cluster contributes exactly `round(fraction / Σ fractions × records)`
/// records (the largest cluster absorbs rounding remainders), placed at
/// uniformly random stream positions inside its activity window; the stream
/// is the position-sorted interleaving. Every point is a Gaussian sample
/// around the cluster's (possibly drifted) centroid.
///
/// # Panics
///
/// Panics if `config` has no clusters, zero dimensions, or non-positive
/// fractions.
///
/// # Examples
///
/// ```
/// use diststream_datasets::{generate, ClusterSpec, SynthConfig};
///
/// let config = SynthConfig {
///     records: 1000,
///     dims: 4,
///     clusters: vec![ClusterSpec::stable(0.7, 0.5), ClusterSpec::stable(0.3, 0.5)],
///     center_range: 4.0,
///     seed: 1,
/// };
/// let points = generate(&config);
/// assert_eq!(points.len(), 1000);
/// assert_eq!(points[0].point.dims(), 4);
/// ```
pub fn generate(config: &SynthConfig) -> Vec<LabeledPoint> {
    assert!(!config.clusters.is_empty(), "at least one cluster required");
    assert!(config.dims > 0, "dimensionality must be positive");
    assert!(
        config.clusters.iter().all(|c| c.fraction > 0.0),
        "cluster fractions must be positive"
    );

    // lint:allow(wallclock-entropy) the generator's seed arrives through its config
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Centers and drift directions drawn first so that record count does not
    // change cluster geometry.
    let centers: Vec<Vec<f64>> = (0..config.clusters.len())
        .map(|_| {
            (0..config.dims)
                .map(|_| rng.gen_range(-config.center_range..config.center_range))
                .collect()
        })
        .collect();
    let drift_dirs: Vec<Vec<f64>> = (0..config.clusters.len())
        .map(|_| {
            let v: Vec<f64> = (0..config.dims).map(|_| gaussian(&mut rng)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            v.into_iter().map(|x| x / norm).collect()
        })
        .collect();
    // Clump offsets: each cluster is a mixture of tight sub-clumps spread
    // by its own std around the cluster center.
    let clump_offsets: Vec<Vec<Vec<f64>>> = config
        .clusters
        .iter()
        .map(|spec| {
            (0..spec.clumps.max(1))
                .map(|_| {
                    (0..config.dims)
                        .map(|_| spec.std * gaussian(&mut rng))
                        .collect()
                })
                .collect()
        })
        .collect();

    let n = config.records;
    // Exact per-cluster record budgets (largest cluster takes remainders).
    let total_fraction: f64 = config.clusters.iter().map(|c| c.fraction).sum();
    let mut budgets: Vec<usize> = config
        .clusters
        .iter()
        .map(|c| ((c.fraction / total_fraction) * n as f64).round() as usize)
        .collect();
    let allotted: usize = budgets.iter().sum();
    let biggest = config
        .clusters
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.fraction.total_cmp(&b.1.fraction))
        .map(|(i, _)| i)
        .expect("non-empty clusters");
    if allotted <= n {
        budgets[biggest] += n - allotted;
    } else {
        budgets[biggest] = budgets[biggest].saturating_sub(allotted - n);
    }

    // Each cluster scatters its records uniformly inside its window; the
    // stream is the position-sorted interleaving.
    let mut placements: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (ci, spec) in config.clusters.iter().enumerate() {
        for _ in 0..budgets[ci] {
            let pos = spec.active.0 + rng.gen_range(0.0..1.0) * spec.window();
            placements.push((pos, ci));
        }
    }
    placements.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut out = Vec::with_capacity(n);
    for (frac, cluster_idx) in placements {
        let spec = &config.clusters[cluster_idx];
        let progress = (frac - spec.active.0) / spec.window();
        let drift = spec.drift_stds * spec.std * progress;
        let offsets = &clump_offsets[cluster_idx];
        let clump = &offsets[rng.gen_range(0..offsets.len())];
        let inner_std = if spec.clumps > 1 {
            spec.std / 3.0
        } else {
            spec.std
        };
        let coords: Vec<f64> = (0..config.dims)
            .map(|d| {
                centers[cluster_idx][d]
                    + drift * drift_dirs[cluster_idx][d]
                    + clump[d]
                    + inner_std * gaussian(&mut rng)
            })
            .collect();
        out.push(LabeledPoint {
            point: Point::from(coords),
            label: ClassId(cluster_idx as u32),
        });
    }
    out
}

/// A standard normal sample via the Box–Muller transform (kept in-repo to
/// avoid a `rand_distr` dependency).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn label_counts(points: &[LabeledPoint]) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for p in points {
            *counts.entry(p.label.0).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = SynthConfig {
            records: 200,
            dims: 3,
            clusters: vec![ClusterSpec::stable(0.5, 0.5), ClusterSpec::stable(0.5, 0.5)],
            center_range: 4.0,
            seed: 9,
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        let mut other = cfg.clone();
        other.seed = 10;
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn fractions_approximately_respected() {
        let cfg = SynthConfig {
            records: 20_000,
            dims: 2,
            clusters: vec![ClusterSpec::stable(0.8, 0.5), ClusterSpec::stable(0.2, 0.5)],
            center_range: 4.0,
            seed: 3,
        };
        let counts = label_counts(&generate(&cfg));
        let frac0 = counts[&0] as f64 / 20_000.0;
        assert!((frac0 - 0.8).abs() < 0.02, "frac0 = {frac0}");
    }

    #[test]
    fn burst_clusters_confined_to_window() {
        let cfg = SynthConfig {
            records: 10_000,
            dims: 2,
            clusters: vec![
                ClusterSpec::stable(0.7, 0.5),
                ClusterSpec::burst(0.3, 0.5, 0.4, 0.6),
            ],
            center_range: 4.0,
            seed: 5,
        };
        let points = generate(&cfg);
        // The burst is contiguous in stream order: it emerges, dominates its
        // window, and vanishes. (Its index-space span exceeds the 0.2
        // position window because the burst raises local stream density.)
        let burst_idx: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.label.0 == 1)
            .map(|(i, _)| i)
            .collect();
        let n = points.len() as f64;
        let span = (burst_idx[burst_idx.len() - 1] - burst_idx[0]) as f64 / n;
        assert!(span < 0.5, "burst spread over {span} of the stream");
        let start = burst_idx[0] as f64 / n;
        assert!(start > 0.2, "burst started too early: {start}");
        // The burst supplies exactly ~30% overall.
        let counts = label_counts(&points);
        let frac1 = counts[&1] as f64 / n;
        assert!((frac1 - 0.3).abs() < 0.01, "frac1 = {frac1}");
    }

    #[test]
    fn drift_moves_centroids() {
        let mut spec = ClusterSpec::stable(1.0, 0.1);
        spec.drift_stds = 50.0;
        let cfg = SynthConfig {
            records: 4000,
            dims: 3,
            clusters: vec![spec],
            center_range: 1.0,
            seed: 7,
        };
        let points = generate(&cfg);
        let mean = |slice: &[LabeledPoint]| -> Vec<f64> {
            let mut m = [0.0; 3];
            for p in slice {
                for (d, v) in p.point.iter().enumerate() {
                    m[d] += v;
                }
            }
            m.iter().map(|v| v / slice.len() as f64).collect()
        };
        let early = mean(&points[..500]);
        let late = mean(&points[3500..]);
        let moved: f64 = early
            .iter()
            .zip(late.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(moved > 1.0, "drift too small: {moved}");
    }

    #[test]
    fn gaussian_is_standard_normal_ish() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_empty_clusters() {
        let cfg = SynthConfig {
            records: 10,
            dims: 1,
            clusters: vec![],
            center_range: 1.0,
            seed: 0,
        };
        let _ = generate(&cfg);
    }
}
