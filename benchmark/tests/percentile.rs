//! The "highest percentile the sample supports" rule.

use diststream_benchmark::stats::{quantile, sorted, supported_tail, supports};

fn ramp(n: usize) -> Vec<f64> {
    sorted((0..n).map(|i| i as f64).collect())
}

#[test]
fn reports_the_highest_percentile_with_ten_samples_beyond_it() {
    for (n, expect) in [
        (5, 50.0),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
    ] {
        let tail = supported_tail(&ramp(n));
        assert_eq!(tail.percentile, expect, "n={n}");
        assert_eq!(tail.samples, n, "the sample count travels with the value");
        assert_eq!(tail.value, quantile(&ramp(n), expect / 100.0));
    }
}

#[test]
fn a_named_percentile_is_supported_only_with_enough_samples() {
    assert!(supports(&ramp(200), 95.0));
    assert!(!supports(&ramp(199), 95.0));
    assert!(supports(&ramp(1000), 99.0));
    assert!(!supports(&ramp(999), 99.0));
    assert!(supports(&ramp(3), 50.0));
}
