//! Z-score feature normalization.
//!
//! The paper "normalize[s] each feature of the three datasets to have zero
//! mean and unit variance, to avoid biasing any features" (Table I note).

use diststream_types::{LabeledPoint, Point};

/// Per-feature mean/standard-deviation statistics of a point set.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStats {
    /// Per-dimension means.
    pub means: Vec<f64>,
    /// Per-dimension standard deviations (1.0 substituted for constant
    /// features so normalization never divides by zero).
    pub stds: Vec<f64>,
}

impl FeatureStats {
    /// Computes feature statistics over `points`.
    ///
    /// Returns `None` for an empty input.
    pub fn compute(points: &[LabeledPoint]) -> Option<FeatureStats> {
        let first = points.first()?;
        let dims = first.point.dims();
        let n = points.len() as f64;
        let mut means = vec![0.0; dims];
        for p in points {
            for (d, v) in p.point.iter().enumerate() {
                means[d] += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dims];
        for p in points {
            for (d, v) in p.point.iter().enumerate() {
                let delta = v - means[d];
                vars[d] += delta * delta;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Some(FeatureStats { means, stds })
    }

    /// Normalizes one point in place.
    pub(crate) fn normalize_point(&self, point: &mut Point) {
        let coords = point.as_mut_slice();
        for (d, v) in coords.iter_mut().enumerate() {
            *v = (*v - self.means[d]) / self.stds[d];
        }
    }
}

/// Z-score normalizes `points` in place and returns the statistics used.
///
/// Returns `None` (and changes nothing) for an empty input.
///
/// # Examples
///
/// ```
/// use diststream_datasets::normalize;
/// use diststream_types::{ClassId, LabeledPoint, Point};
///
/// let mut pts = vec![
///     LabeledPoint { point: Point::from(vec![10.0]), label: ClassId(0) },
///     LabeledPoint { point: Point::from(vec![20.0]), label: ClassId(0) },
/// ];
/// normalize(&mut pts);
/// assert_eq!(pts[0].point.as_slice(), &[-1.0]);
/// assert_eq!(pts[1].point.as_slice(), &[1.0]);
/// ```
pub fn normalize(points: &mut [LabeledPoint]) -> Option<FeatureStats> {
    let stats = FeatureStats::compute(points)?;
    for p in points.iter_mut() {
        stats.normalize_point(&mut p.point);
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::ClassId;

    fn lp(coords: Vec<f64>) -> LabeledPoint {
        LabeledPoint {
            point: Point::from(coords),
            label: ClassId(0),
        }
    }

    #[test]
    fn empty_input_is_none() {
        let mut pts: Vec<LabeledPoint> = Vec::new();
        assert!(normalize(&mut pts).is_none());
    }

    #[test]
    fn normalized_features_have_zero_mean_unit_variance() {
        let mut pts: Vec<LabeledPoint> = (0..100)
            .map(|i| lp(vec![i as f64, i as f64 * -3.0 + 7.0]))
            .collect();
        normalize(&mut pts);
        for d in 0..2 {
            let mean: f64 = pts.iter().map(|p| p.point[d]).sum::<f64>() / 100.0;
            let var: f64 =
                pts.iter().map(|p| p.point[d] * p.point[d]).sum::<f64>() / 100.0 - mean * mean;
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_features_left_centered() {
        let mut pts = vec![lp(vec![5.0]), lp(vec![5.0])];
        let stats = normalize(&mut pts).unwrap();
        assert_eq!(stats.stds, vec![1.0]);
        assert_eq!(pts[0].point.as_slice(), &[0.0]);
    }

    #[test]
    fn stats_reusable_on_new_points() {
        let mut pts = vec![lp(vec![0.0]), lp(vec![10.0])];
        let stats = normalize(&mut pts).unwrap();
        let mut fresh = Point::from(vec![5.0]);
        stats.normalize_point(&mut fresh);
        assert_eq!(fresh.as_slice(), &[0.0]);
    }
}
