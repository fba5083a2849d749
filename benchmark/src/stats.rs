//! Order statistics: quantiles, the "highest percentile the sample
//! supports" rule, and the run-to-run spread the contract uses.

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending sample, linearly
/// interpolated between order statistics.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(ascending: &[f64], q: f64) -> f64 {
    assert!(!ascending.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (ascending.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    ascending[lo] + (ascending[hi] - ascending[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The percentiles a latency is ever reported at, ascending.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail report: the highest percentile of [`PERCENTILE_LADDER`] that
/// still has at least ten samples beyond it, its value, and the sample
/// count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// Its value, in the sample's unit.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Highest percentile with ≥ 10 samples beyond it (at least the median),
/// over an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn supported_tail(ascending: &[f64]) -> Tail {
    let n = ascending.len();
    let percentile = PERCENTILE_LADDER
        .iter()
        .copied()
        // (tolerance: 100 × (1 − 0.9) is 9.999… in floating point)
        .filter(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
        .fold(PERCENTILE_LADDER[0], f64::max);
    Tail {
        percentile,
        value: quantile(ascending, percentile / 100.0),
        samples: n,
    }
}

/// Whether `percentile` is backed by ≥ 10 samples beyond it.
pub fn supports(ascending: &[f64], percentile: f64) -> bool {
    supported_tail(ascending).percentile >= percentile
}

/// Run-to-run spread of one metric: interquartile distance as a share of
/// the median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (exclusive method). With fewer than four values, falls back to
/// `(max − min) ÷ median`.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let mid = quantile(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    if n < 4 {
        return (v[n - 1] - v[0]) / mid.abs();
    }
    let exclusive = |k: usize| {
        // Python's exclusive method: position k·(n+1)/4 on 1-based order
        // statistics, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (exclusive(3) - exclusive(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
