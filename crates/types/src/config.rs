//! Shared configuration for decay and batch-size selection.

use serde::{Deserialize, Serialize};

use crate::error::DistStreamError;
use crate::Result;

/// Shared stream clustering knobs: the decay base `β`, the impact threshold
/// `α`, and the mini-batch window.
///
/// The paper's update function is `q' = λ·q + Δx` with decay factor
/// `λ = β^{-Δt}` (§II-B). §IV-D bounds the useful mini-batch size by
/// requiring every record's increment within a batch to retain at least an
/// `α` fraction of its weight: `β^{-Δt} > α ⇒ Δt < log_β(1/α)`, so the
/// maximum batch size is [`ClusteringConfig::max_batch_secs`]. For the
/// paper's example values (`α = 0.01`, `β = 1.2`) this is ≈ 25 seconds.
///
/// # Examples
///
/// ```
/// use diststream_types::ClusteringConfig;
///
/// let cfg = ClusteringConfig::builder()
///     .beta(1.2)
///     .alpha(0.01)
///     .batch_secs(10.0)
///     .build()?;
/// assert!((cfg.max_batch_secs() - 25.26).abs() < 0.1);
/// assert!(cfg.batch_secs() <= cfg.max_batch_secs());
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    beta: f64,
    alpha: f64,
    batch_secs: f64,
}

impl ClusteringConfig {
    /// Paper-default decay base `β = 2^{0.25} ≈ 1.19` (§VII intro).
    pub(crate) const DEFAULT_BETA: f64 = 1.189_207_115_002_721; // 2^0.25
    /// Paper-default impact threshold `α = 0.01` (§IV-D example).
    pub(crate) const DEFAULT_ALPHA: f64 = 0.01;
    /// Paper-default batch window of 10 virtual seconds (§VII-B1).
    pub(crate) const DEFAULT_BATCH_SECS: f64 = 10.0;

    /// Starts building a configuration.
    pub fn builder() -> ClusteringConfigBuilder {
        ClusteringConfigBuilder::default()
    }

    /// Decay base `β ≥ 1`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Impact threshold `α ∈ (0, 1)`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Mini-batch window in virtual seconds.
    pub fn batch_secs(&self) -> f64 {
        self.batch_secs
    }

    /// Returns a copy with a different batch window.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `batch_secs` is not
    /// strictly positive and finite.
    pub fn with_batch_secs(self, batch_secs: f64) -> Result<Self> {
        ClusteringConfig::builder()
            .beta(self.beta)
            .alpha(self.alpha)
            .batch_secs(batch_secs)
            .build()
    }

    /// Decay factor `λ = β^{-Δt}` for an elapsed virtual interval.
    ///
    /// With `β = 1` (CluStream's additive sketch) this is always `1.0`.
    ///
    /// ```
    /// use diststream_types::ClusteringConfig;
    /// let cfg = ClusteringConfig::builder().beta(2.0).build()?;
    /// assert_eq!(cfg.decay(1.0), 0.5);
    /// assert_eq!(cfg.decay(0.0), 1.0);
    /// # Ok::<(), diststream_types::DistStreamError>(())
    /// ```
    pub fn decay(&self, delta_secs: f64) -> f64 {
        debug_assert!(delta_secs >= 0.0, "decay interval must be non-negative");
        self.beta.powf(-delta_secs)
    }

    /// Maximum batch size `log_β(1/α)` from §IV-D.
    ///
    /// Returns `f64::INFINITY` when `β = 1` (no decay ⇒ no bound).
    pub fn max_batch_secs(&self) -> f64 {
        if self.beta == 1.0 {
            f64::INFINITY
        } else {
            (1.0 / self.alpha).ln() / self.beta.ln()
        }
    }
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            beta: Self::DEFAULT_BETA,
            alpha: Self::DEFAULT_ALPHA,
            batch_secs: Self::DEFAULT_BATCH_SECS,
        }
    }
}

/// Builder for [`ClusteringConfig`].
///
/// # Examples
///
/// ```
/// use diststream_types::ClusteringConfig;
/// let cfg = ClusteringConfig::builder().beta(1.5).build()?;
/// assert_eq!(cfg.beta(), 1.5);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusteringConfigBuilder {
    beta: Option<f64>,
    alpha: Option<f64>,
    batch_secs: Option<f64>,
}

impl ClusteringConfigBuilder {
    /// Sets the decay base `β` (must be ≥ 1).
    pub fn beta(&mut self, beta: f64) -> &mut Self {
        self.beta = Some(beta);
        self
    }

    /// Sets the impact threshold `α` (must be in `(0, 1)`).
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.alpha = Some(alpha);
        self
    }

    /// Sets the mini-batch window in virtual seconds (must be > 0).
    pub fn batch_secs(&mut self, batch_secs: f64) -> &mut Self {
        self.batch_secs = Some(batch_secs);
        self
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if any knob is out of
    /// range (`β < 1`, `α ∉ (0,1)`, non-positive batch window, or any value
    /// non-finite).
    pub fn build(&self) -> Result<ClusteringConfig> {
        let beta = self.beta.unwrap_or(ClusteringConfig::DEFAULT_BETA);
        let alpha = self.alpha.unwrap_or(ClusteringConfig::DEFAULT_ALPHA);
        let batch_secs = self
            .batch_secs
            .unwrap_or(ClusteringConfig::DEFAULT_BATCH_SECS);
        if !beta.is_finite() || beta < 1.0 {
            return Err(DistStreamError::InvalidConfig(format!(
                "decay base beta must be finite and >= 1, got {beta}"
            )));
        }
        if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
            return Err(DistStreamError::InvalidConfig(format!(
                "impact threshold alpha must be in (0, 1), got {alpha}"
            )));
        }
        if !batch_secs.is_finite() || batch_secs <= 0.0 {
            return Err(DistStreamError::InvalidConfig(format!(
                "batch window must be positive and finite, got {batch_secs}"
            )));
        }
        Ok(ClusteringConfig {
            beta,
            alpha,
            batch_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_matches_paper_values() {
        let cfg = ClusteringConfig::default();
        assert!((cfg.beta() - 2f64.powf(0.25)).abs() < 1e-12);
        assert_eq!(cfg.alpha(), 0.01);
        assert_eq!(cfg.batch_secs(), 10.0);
    }

    #[test]
    fn paper_worked_example_batch_bound() {
        // §IV-D: "the maximum batch size is about 25 seconds when alpha=0.01
        // and beta=1.2" — the exact value of log_1.2(100) is 25.26.
        let cfg = ClusteringConfig::builder()
            .beta(1.2)
            .alpha(0.01)
            .build()
            .unwrap();
        assert!((cfg.max_batch_secs() - 25.258).abs() < 1e-2);
    }

    #[test]
    fn no_decay_means_unbounded_batch() {
        let cfg = ClusteringConfig::builder().beta(1.0).build().unwrap();
        assert_eq!(cfg.max_batch_secs(), f64::INFINITY);
        assert_eq!(cfg.decay(1000.0), 1.0);
    }

    #[test]
    fn decay_is_one_at_zero_interval() {
        let cfg = ClusteringConfig::default();
        assert_eq!(cfg.decay(0.0), 1.0);
    }

    #[test]
    fn rejects_invalid_beta() {
        assert!(ClusteringConfig::builder().beta(0.9).build().is_err());
        assert!(ClusteringConfig::builder().beta(f64::NAN).build().is_err());
    }

    #[test]
    fn rejects_invalid_alpha() {
        assert!(ClusteringConfig::builder().alpha(0.0).build().is_err());
        assert!(ClusteringConfig::builder().alpha(1.0).build().is_err());
        assert!(ClusteringConfig::builder().alpha(-0.5).build().is_err());
    }

    #[test]
    fn rejects_invalid_batch() {
        assert!(ClusteringConfig::builder().batch_secs(0.0).build().is_err());
        assert!(ClusteringConfig::builder()
            .batch_secs(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn with_batch_secs_replaces_window() {
        let cfg = ClusteringConfig::default().with_batch_secs(5.0).unwrap();
        assert_eq!(cfg.batch_secs(), 5.0);
        assert!(ClusteringConfig::default().with_batch_secs(-1.0).is_err());
    }

    proptest! {
        #[test]
        fn prop_decay_monotone_decreasing(beta in 1.01_f64..3.0, d1 in 0.0_f64..50.0, d2 in 0.0_f64..50.0) {
            let cfg = ClusteringConfig::builder().beta(beta).build().unwrap();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(cfg.decay(lo) >= cfg.decay(hi));
        }

        #[test]
        fn prop_decay_in_unit_interval(beta in 1.0_f64..3.0, d in 0.0_f64..100.0) {
            let cfg = ClusteringConfig::builder().beta(beta).build().unwrap();
            let lambda = cfg.decay(d);
            prop_assert!(lambda > 0.0 && lambda <= 1.0);
        }

        #[test]
        fn prop_batch_bound_respects_alpha(beta in 1.05_f64..2.0, alpha in 0.001_f64..0.5) {
            let cfg = ClusteringConfig::builder().beta(beta).alpha(alpha).build().unwrap();
            let bound = cfg.max_batch_secs();
            // Within the bound, increments keep more than alpha weight.
            prop_assert!(cfg.decay(bound * 0.999) > alpha * 0.999);
            // Beyond the bound, they keep less.
            prop_assert!(cfg.decay(bound * 1.001) < alpha * 1.001);
        }
    }
}
