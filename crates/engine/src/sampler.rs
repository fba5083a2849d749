//! Stratified-sampling ingest stage — bounded-error load shedding.
//!
//! Under sustained overload (arrival rate above processing capacity) the
//! exact pipeline's only option is an unboundedly growing backlog. Following
//! StreamApprox, [`StratifiedSampler`] sits between the [`ReorderBuffer`]
//! and the batcher and sheds records *per stratum* so that every region of
//! the stream stays represented: records are assigned to strata by coarse
//! point locality (nearby points share a stratum, so a cluster cannot be
//! shed wholesale), and each stratum carries its own keep-rate that the
//! backpressure policy adapts batch by batch. The sampler owns its rates,
//! its per-stratum `(seen, kept)` counts and the upstream backlog it last
//! saw as plain integers: its one reader, the overload loop, runs on the
//! thread that pulls it, between pulls.
//!
//! Sampling is a pure function of `(seed, record)` through splitmix64 — no
//! RNG state, no wall clock — so a replay with the same seed keeps exactly
//! the same records at any parallelism, preserving the engine's bit-identical
//! replay guarantee.
//!
//! The Horvitz–Thompson view: a record in stratum `s` is kept with inclusion
//! probability `f_s = rate_s / 1e6`, so any per-record mean over the kept
//! sample reweighted by `1/f_s` is unbiased, and for `[0, 1]`-bounded
//! quantities the worst-case standard error is computable from the
//! seen/kept counts alone — see [`StratifiedSampler::error_bound`].
//!
//! [`ReorderBuffer`]: crate::ReorderBuffer

use std::sync::Arc;

use diststream_telemetry as telemetry;
use diststream_types::Record;

use crate::faults::splitmix64;
use crate::partition::Fnv1a;
use crate::source::RecordSource;

/// Keep-rates are expressed in parts-per-million; this is the "keep
/// everything" rate.
pub(crate) const RATE_ONE_PPM: u32 = 1_000_000;

/// Cached telemetry handles, registered once so the per-record path touches
/// only lock-free atomics (same pattern as the reorder buffer's).
#[derive(Debug)]
struct SamplerTelemetry {
    seen: Arc<telemetry::Counter>,
    kept: Arc<telemetry::Counter>,
    shed: Arc<telemetry::Counter>,
}

impl SamplerTelemetry {
    fn new() -> Self {
        SamplerTelemetry {
            seen: telemetry::counter(telemetry::names::METRIC_SAMPLER_SEEN_TOTAL),
            kept: telemetry::counter(telemetry::names::METRIC_SAMPLER_KEPT_TOTAL),
            shed: telemetry::counter(telemetry::names::METRIC_SAMPLER_SHED_TOTAL),
        }
    }
}

/// A [`RecordSource`] adapter that sheds records stratum-by-stratum at its
/// per-stratum keep-rates, counting what each stratum offered and kept.
///
/// # Examples
///
/// ```
/// use diststream_engine::{RecordSource, StratifiedSampler, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let records: Vec<Record> = (0..100)
///     .map(|i| Record::new(i, Point::from(vec![i as f64]), Timestamp::from_secs(i as f64)))
///     .collect();
/// let mut src = StratifiedSampler::new(VecSource::new(records), 7, 4);
/// // A 50% budget over four equally busy strata: keep about half of each.
/// src.rebalance(500_000, &[25; 4], 0);
/// let kept: Vec<Record> = std::iter::from_fn(|| src.next_record()).collect();
/// let (seen, kept_total) = src
///     .stratum_counts()
///     .iter()
///     .fold((0, 0), |(s, k), &(seen, kept)| (s + seen, k + kept));
/// assert_eq!(seen, 100);
/// assert_eq!(kept.len() as u64, kept_total);
/// assert!(src.error_bound() > 0.0);
/// ```
#[derive(Debug)]
pub struct StratifiedSampler<S> {
    inner: S,
    seed: u64,
    /// Keep-rate per stratum, ppm.
    rates_ppm: Vec<u32>,
    /// Cumulative `(seen, kept)` per stratum.
    counts: Vec<(u64, u64)>,
    /// The upstream reorder backlog after the last record pulled, so the
    /// policy sees backlog growth without reading telemetry gauges (which
    /// are observation-only by contract).
    backlog: u64,
    telemetry: SamplerTelemetry,
}

impl<S: RecordSource> StratifiedSampler<S> {
    /// Wraps `inner`, sampling with `seed` over `strata` strata, every
    /// rate at `RATE_ONE_PPM` (1 000 000 ppm: no shedding).
    ///
    /// # Panics
    ///
    /// Panics if `strata` is zero.
    pub fn new(inner: S, seed: u64, strata: usize) -> Self {
        assert!(strata > 0, "at least one stratum is required");
        StratifiedSampler {
            inner,
            seed,
            rates_ppm: vec![RATE_ONE_PPM; strata],
            counts: vec![(0, 0); strata],
            backlog: 0,
            telemetry: SamplerTelemetry::new(),
        }
    }

    /// Cumulative `(seen, kept)` per stratum.
    pub fn stratum_counts(&self) -> &[(u64, u64)] {
        &self.counts
    }

    /// Upstream reorder backlog after the last record pulled.
    pub fn reorder_backlog(&self) -> u64 {
        self.backlog
    }

    /// Worst-case 95% error bound for a stratified Horvitz–Thompson
    /// estimate of a `[0, 1]`-bounded per-record mean, from the cumulative
    /// `(seen, kept)` counts per stratum:
    ///
    /// ```text
    /// bound = z · sqrt( Σ_s W_s² · (1 − f_s) / (4 · max(n_s, 1)) ),   z = 2
    /// ```
    ///
    /// where `W_s = seen_s / seen_total` is the stratum weight,
    /// `f_s = kept_s / seen_s` the realized sampling fraction (so `1 − f_s`
    /// is the finite-population correction — a fully-kept stratum
    /// contributes zero error), and `n_s = kept_s` the sample size. The
    /// `1/4` is the worst-case per-record variance `p(1 − p) ≤ 1/4` of a
    /// bounded quantity. A pure function of the counts, hence deterministic
    /// and replay-safe.
    pub fn error_bound(&self) -> f64 {
        let seen_total: u64 = self.counts.iter().map(|&(s, _)| s).sum();
        if seen_total == 0 {
            return 0.0;
        }
        let mut variance = 0.0_f64;
        for &(seen, kept) in &self.counts {
            if seen == 0 {
                continue;
            }
            let w = seen as f64 / seen_total as f64;
            let f = (kept as f64 / seen as f64).min(1.0);
            let n = kept.max(1) as f64;
            variance += w * w * (1.0 - f) / (4.0 * n);
        }
        2.0 * variance.sqrt()
    }

    /// Re-allocates per-stratum keep-rates for a global budget of
    /// `global_rate_ppm`, using `recent_seen` (per-stratum arrivals over
    /// the last control interval) as the size predictor.
    ///
    /// Allocation is deterministic water-filling with an equal-share start:
    /// the keep *budget* (`global_rate × total arrivals`) is split equally
    /// across strata, smallest strata first; a stratum smaller than its
    /// share is kept in full and its surplus is redistributed to the
    /// remaining (larger) strata. Small strata therefore get *higher*
    /// keep-rates — the StreamApprox adaptive-rate property that keeps
    /// minority clusters represented under shedding. Rates are floored at
    /// `min_rate_ppm`; a stratum with no recent arrivals keeps rate 1e6 so
    /// a newly appearing region is never shed blind.
    ///
    /// # Panics
    ///
    /// Panics if `recent_seen` does not hold one count per stratum.
    pub fn rebalance(&mut self, global_rate_ppm: u32, recent_seen: &[u64], min_rate_ppm: u32) {
        assert_eq!(
            recent_seen.len(),
            self.rates_ppm.len(),
            "one count per stratum"
        );
        let total: u128 = recent_seen.iter().map(|&n| n as u128).sum();
        let mut budget: u128 =
            total * global_rate_ppm.min(RATE_ONE_PPM) as u128 / RATE_ONE_PPM as u128;
        // Smallest strata first so surpluses flow toward the large ones.
        let mut order: Vec<usize> = (0..recent_seen.len()).collect();
        order.sort_by_key(|&i| (recent_seen[i], i));
        let mut remaining = order.len() as u128;
        for &i in &order {
            let n = recent_seen[i] as u128;
            if n == 0 {
                self.rates_ppm[i] = RATE_ONE_PPM;
                remaining -= 1;
                continue;
            }
            let share = budget / remaining;
            let take = n.min(share);
            budget -= take;
            remaining -= 1;
            let rate = (take * RATE_ONE_PPM as u128 / n) as u32;
            self.rates_ppm[i] = rate.max(min_rate_ppm).min(RATE_ONE_PPM);
        }
    }

    /// Stratum of `record`: a coarse locality cell (each coordinate rounded
    /// to the unit grid) hashed onto the strata, so nearby points — records
    /// of the same emerging cluster — land in the same stratum and shedding
    /// can never eliminate a cluster wholesale while its stratum keeps a
    /// positive rate. A dimensionless point falls back to the arrival id.
    pub(crate) fn stratum_of(&self, record: &Record) -> usize {
        let mut h = Fnv1a::new();
        if record.point.is_empty() {
            h.write(&record.id.to_le_bytes());
        } else {
            for &c in record.point.iter() {
                let cell = if c.is_finite() {
                    c.round() as i64
                } else {
                    i64::MAX
                };
                h.write(&cell.to_le_bytes());
            }
        }
        (splitmix64(self.seed ^ h.finish()) % self.rates_ppm.len() as u64) as usize
    }

    /// The keep decision for `record` at `rate_ppm`: a pure splitmix64 hash
    /// of `(seed, arrival key)` compared against the rate. Replaying the
    /// same stream with the same seed and rates keeps exactly the same
    /// records, at any parallelism.
    fn keeps(&self, record: &Record, rate_ppm: u32) -> bool {
        if rate_ppm >= RATE_ONE_PPM {
            return true;
        }
        let mut h = Fnv1a::new();
        h.write(&record.id.to_le_bytes());
        h.write(&record.timestamp.secs().to_bits().to_le_bytes());
        // Domain-separate the keep ticket from the stratum hash so the two
        // decisions are independent draws.
        let ticket = splitmix64(self.seed.wrapping_add(0xA5A5_5A5A_0F0F_F0F0) ^ h.finish());
        (ticket % RATE_ONE_PPM as u64) < rate_ppm as u64
    }
}

impl<S: RecordSource> RecordSource for StratifiedSampler<S> {
    fn next_record(&mut self) -> Option<Record> {
        loop {
            let record = self.inner.next_record()?;
            self.backlog = self.inner.backlog_hint() as u64;
            let stratum = self.stratum_of(&record);
            self.counts[stratum].0 += 1;
            let enabled = telemetry::enabled();
            if enabled {
                self.telemetry.seen.inc();
            }
            if self.keeps(&record, self.rates_ppm[stratum]) {
                self.counts[stratum].1 += 1;
                if enabled {
                    self.telemetry.kept.inc();
                }
                return Some(record);
            }
            if enabled {
                self.telemetry.shed.inc();
            }
        }
    }

    /// Upper bound: shed records leave before the batcher sees them, so the
    /// inner hint may over-count — it never under-counts.
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn backlog_hint(&self) -> usize {
        self.inner.backlog_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use diststream_types::{Point, Timestamp};

    fn rec(id: u64, x: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(id as f64))
    }

    fn stream(n: u64) -> Vec<Record> {
        (0..n).map(|i| rec(i, (i % 17) as f64)).collect()
    }

    /// A sampler over `n` records with every stratum at `rate_ppm`.
    fn sampler(n: u64, seed: u64, strata: usize, rate_ppm: u32) -> StratifiedSampler<VecSource> {
        let mut sampler = StratifiedSampler::new(VecSource::new(stream(n)), seed, strata);
        sampler.rates_ppm.fill(rate_ppm);
        sampler
    }

    fn drain<S: RecordSource>(src: &mut S) -> Vec<Record> {
        std::iter::from_fn(|| src.next_record()).collect()
    }

    fn totals<S>(src: &StratifiedSampler<S>) -> (u64, u64) {
        src.counts
            .iter()
            .fold((0, 0), |(s, k), &(seen, kept)| (s + seen, k + kept))
    }

    #[test]
    fn full_rate_passes_everything_through() {
        let mut src = sampler(200, 42, 4, RATE_ONE_PPM);
        assert_eq!(drain(&mut src).len(), 200);
        assert_eq!(totals(&src), (200, 200));
        assert_eq!(src.error_bound(), 0.0, "no shedding, no error");
    }

    #[test]
    fn zero_rate_sheds_everything_but_counts_it() {
        let mut src = sampler(150, 42, 2, 0);
        assert!(drain(&mut src).is_empty());
        assert_eq!(totals(&src), (150, 0));
        assert!(src.error_bound() > 0.0);
    }

    #[test]
    fn same_seed_keeps_the_same_records() {
        let pick = |seed: u64| -> Vec<u64> {
            drain(&mut sampler(500, seed, 4, 400_000))
                .iter()
                .map(|r| r.id)
                .collect()
        };
        assert_eq!(pick(7), pick(7), "replay with one seed is bit-stable");
        assert_ne!(pick(7), pick(8), "different seeds pick differently");
    }

    #[test]
    fn sampling_rate_is_roughly_honored() {
        let out = drain(&mut sampler(4000, 3, 1, 250_000));
        let frac = out.len() as f64 / 4000.0;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "kept fraction {frac} far from requested 0.25"
        );
    }

    #[test]
    fn nearby_points_share_a_stratum() {
        let sampler = StratifiedSampler::new(VecSource::new(Vec::new()), 9, 8);
        // Same unit cell after rounding → same stratum, regardless of id.
        let a = sampler.stratum_of(&rec(1, 5.1));
        let b = sampler.stratum_of(&rec(999, 4.9));
        assert_eq!(a, b, "points rounding to the same cell share a stratum");
    }

    #[test]
    fn error_bound_matches_hand_computation() {
        let error_bound = |counts: &[(u64, u64)]| {
            let mut src = sampler(0, 1, 1, RATE_ONE_PPM);
            src.counts = counts.to_vec();
            src.error_bound()
        };
        // One stratum, half kept: bound = 2·sqrt(1 · 0.5 / (4·50)).
        let b = error_bound(&[(100, 50)]);
        assert!((b - 2.0 * (0.5 / 200.0_f64).sqrt()).abs() < 1e-12);
        // Fully kept strata contribute nothing.
        assert_eq!(error_bound(&[(100, 100), (50, 50)]), 0.0);
        assert_eq!(error_bound(&[]), 0.0);
        assert_eq!(error_bound(&[(0, 0)]), 0.0);
        // Empty sample in a stratum: finite (n floored at 1), positive.
        let b = error_bound(&[(100, 0)]);
        assert!(b.is_finite() && b > 0.0);
    }

    #[test]
    fn rebalance_keeps_small_strata_at_higher_rates() {
        let mut src = sampler(0, 1, 3, RATE_ONE_PPM);
        // Stratum arrivals 10 / 100 / 1000, global budget 50%: the small
        // stratum is kept in full, the surplus flows to the large ones.
        src.rebalance(500_000, &[10, 100, 1000], 10_000);
        let [r0, r1, r2] = [0, 1, 2].map(|i| src.rates_ppm[i]);
        assert_eq!(r0, RATE_ONE_PPM, "smallest stratum kept in full");
        assert!(r1 >= r2, "smaller strata get higher rates ({r1} < {r2})");
        // Budget is honored approximately: total kept ≈ 555 of 1110.
        let kept = 10 + 100 * r1 as u64 / 1_000_000 + 1000 * r2 as u64 / 1_000_000;
        assert!((500..=600).contains(&kept), "kept {kept} far from budget");
        // Floor applies.
        src.rebalance(0, &[10, 100, 1000], 10_000);
        assert!(src.rates_ppm[2] >= 10_000);
        // A stratum with no recent arrivals keeps everything.
        src.rebalance(100_000, &[0, 100, 1000], 10_000);
        assert_eq!(src.rates_ppm[0], RATE_ONE_PPM);
    }
}
