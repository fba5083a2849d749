//! Stratified-sampling ingest stage — bounded-error load shedding.
//!
//! Under sustained overload (arrival rate above processing capacity) the
//! exact pipeline's only option is an unboundedly growing backlog. Following
//! StreamApprox, [`StratifiedSampler`] sits between the [`ReorderBuffer`]
//! and the batcher and sheds records *per stratum* so that every region of
//! the stream stays represented: records are assigned to strata by coarse
//! point locality (nearby points share a stratum, so a cluster cannot be
//! shed wholesale), and each stratum carries its own keep-rate that the
//! backpressure policy adapts batch by batch.
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
//! seen/kept counts alone — see [`error_bound`].
//!
//! [`ReorderBuffer`]: crate::ReorderBuffer

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use diststream_telemetry as telemetry;
use diststream_types::Record;

use crate::faults::splitmix64;
use crate::partition::Fnv1a;
use crate::source::RecordSource;

/// Keep-rates are expressed in parts-per-million; this is the "keep
/// everything" rate.
pub(crate) const RATE_ONE_PPM: u32 = 1_000_000;

/// Shared, lock-free control block between a [`StratifiedSampler`] (the
/// ingest thread) and the backpressure policy (the driver loop). All
/// orderings are `SeqCst`, per the engine's atomics policy.
#[derive(Debug)]
pub struct SamplerControl {
    rates_ppm: Vec<AtomicU32>,
    seen: Vec<AtomicU64>,
    kept: Vec<AtomicU64>,
    /// Snapshot of the upstream reorder backlog, refreshed on every pull so
    /// the policy sees backlog growth without reading telemetry gauges
    /// (which are observation-only by contract).
    backlog: AtomicU64,
}

impl SamplerControl {
    /// A control block for `strata` strata, all rates at
    /// [`RATE_ONE_PPM`] (no shedding).
    ///
    /// # Panics
    ///
    /// Panics if `strata` is zero.
    pub fn new(strata: usize) -> Arc<Self> {
        assert!(strata > 0, "at least one stratum is required");
        Arc::new(SamplerControl {
            rates_ppm: (0..strata).map(|_| AtomicU32::new(RATE_ONE_PPM)).collect(),
            seen: (0..strata).map(|_| AtomicU64::new(0)).collect(),
            kept: (0..strata).map(|_| AtomicU64::new(0)).collect(),
            backlog: AtomicU64::new(0),
        })
    }

    /// Number of strata.
    pub fn strata(&self) -> usize {
        self.rates_ppm.len()
    }

    /// Current keep-rate of `stratum`, in ppm.
    pub fn rate_ppm(&self, stratum: usize) -> u32 {
        self.rates_ppm[stratum].load(Ordering::SeqCst)
    }

    /// Sets the keep-rate of `stratum`, clamped to `[0, 1e6]` ppm.
    pub(crate) fn set_rate_ppm(&self, stratum: usize, ppm: u32) {
        self.rates_ppm[stratum].store(ppm.min(RATE_ONE_PPM), Ordering::SeqCst);
    }

    /// Sets every stratum to the same keep-rate.
    pub fn set_uniform_rate_ppm(&self, ppm: u32) {
        for r in &self.rates_ppm {
            r.store(ppm.min(RATE_ONE_PPM), Ordering::SeqCst);
        }
    }

    /// Cumulative `(seen, kept)` per stratum.
    pub fn stratum_counts(&self) -> Vec<(u64, u64)> {
        self.seen
            .iter()
            .zip(self.kept.iter())
            .map(|(s, k)| (s.load(Ordering::SeqCst), k.load(Ordering::SeqCst)))
            .collect()
    }

    /// Total records offered to the sampler.
    pub fn seen_total(&self) -> u64 {
        self.seen.iter().map(|s| s.load(Ordering::SeqCst)).sum()
    }

    /// Total records kept (released downstream).
    pub fn kept_total(&self) -> u64 {
        self.kept.iter().map(|k| k.load(Ordering::SeqCst)).sum()
    }

    /// Total records shed.
    pub fn shed_total(&self) -> u64 {
        self.seen_total() - self.kept_total()
    }

    /// Last observed upstream reorder backlog.
    pub fn reorder_backlog(&self) -> u64 {
        self.backlog.load(Ordering::SeqCst)
    }

    /// Worst-case 95% error bound of the current cumulative sample — see
    /// [`error_bound`].
    pub fn error_bound(&self) -> f64 {
        error_bound(&self.stratum_counts())
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
    pub fn rebalance(&self, global_rate_ppm: u32, recent_seen: &[u64], min_rate_ppm: u32) {
        assert_eq!(recent_seen.len(), self.strata(), "one count per stratum");
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
                self.set_rate_ppm(i, RATE_ONE_PPM);
                remaining -= 1;
                continue;
            }
            let share = budget / remaining;
            let take = n.min(share);
            budget -= take;
            remaining -= 1;
            let rate = (take * RATE_ONE_PPM as u128 / n) as u32;
            self.set_rate_ppm(i, rate.max(min_rate_ppm).min(RATE_ONE_PPM));
        }
    }

    fn record_seen(&self, stratum: usize) {
        self.seen[stratum].fetch_add(1, Ordering::SeqCst);
    }

    fn record_kept(&self, stratum: usize) {
        self.kept[stratum].fetch_add(1, Ordering::SeqCst);
    }

    fn set_backlog(&self, depth: u64) {
        self.backlog.store(depth, Ordering::SeqCst);
    }
}

/// Worst-case 95% error bound for a stratified Horvitz–Thompson estimate of
/// a `[0, 1]`-bounded per-record mean, from `(seen, kept)` counts per
/// stratum:
///
/// ```text
/// bound = z · sqrt( Σ_s W_s² · (1 − f_s) / (4 · max(n_s, 1)) ),   z = 2
/// ```
///
/// where `W_s = seen_s / seen_total` is the stratum weight, `f_s = kept_s /
/// seen_s` the realized sampling fraction (so `1 − f_s` is the
/// finite-population correction — a fully-kept stratum contributes zero
/// error), and `n_s = kept_s` the sample size. The `1/4` is the worst-case
/// per-record variance `p(1 − p) ≤ 1/4` of a bounded quantity. A pure
/// function of the counts, hence deterministic and replay-safe.
pub fn error_bound(strata: &[(u64, u64)]) -> f64 {
    let seen_total: u64 = strata.iter().map(|&(s, _)| s).sum();
    if seen_total == 0 {
        return 0.0;
    }
    let mut variance = 0.0_f64;
    for &(seen, kept) in strata {
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

/// A [`RecordSource`] adapter that sheds records stratum-by-stratum at the
/// rates in a shared [`SamplerControl`].
///
/// # Examples
///
/// ```
/// use diststream_engine::{RecordSource, SamplerControl, StratifiedSampler, VecSource};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let records: Vec<Record> = (0..100)
///     .map(|i| Record::new(i, Point::from(vec![i as f64]), Timestamp::from_secs(i as f64)))
///     .collect();
/// let control = SamplerControl::new(4);
/// control.set_uniform_rate_ppm(500_000); // keep ~half
/// let mut src = StratifiedSampler::new(VecSource::new(records), 7, control.clone());
/// let kept: Vec<Record> = std::iter::from_fn(|| src.next_record()).collect();
/// assert_eq!(kept.len() as u64, control.kept_total());
/// assert_eq!(control.seen_total(), 100);
/// ```
#[derive(Debug)]
pub struct StratifiedSampler<S> {
    inner: S,
    seed: u64,
    control: Arc<SamplerControl>,
    telemetry: SamplerTelemetry,
}

impl<S: RecordSource> StratifiedSampler<S> {
    /// Wraps `inner`, sampling with `seed` under `control`'s rates.
    pub fn new(inner: S, seed: u64, control: Arc<SamplerControl>) -> Self {
        StratifiedSampler {
            inner,
            seed,
            control,
            telemetry: SamplerTelemetry::new(),
        }
    }

    /// The shared control block.
    pub fn control(&self) -> &Arc<SamplerControl> {
        &self.control
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
        (splitmix64(self.seed ^ h.finish()) % self.control.strata() as u64) as usize
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
            self.control.set_backlog(self.inner.backlog_hint() as u64);
            let stratum = self.stratum_of(&record);
            self.control.record_seen(stratum);
            let enabled = telemetry::enabled();
            if enabled {
                self.telemetry.seen.inc();
            }
            if self.keeps(&record, self.control.rate_ppm(stratum)) {
                self.control.record_kept(stratum);
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

    fn drain<S: RecordSource>(mut src: S) -> Vec<Record> {
        std::iter::from_fn(move || src.next_record()).collect()
    }

    #[test]
    fn full_rate_passes_everything_through() {
        let control = SamplerControl::new(4);
        let out = drain(StratifiedSampler::new(
            VecSource::new(stream(200)),
            42,
            control.clone(),
        ));
        assert_eq!(out.len(), 200);
        assert_eq!(control.seen_total(), 200);
        assert_eq!(control.kept_total(), 200);
        assert_eq!(control.shed_total(), 0);
        assert_eq!(control.error_bound(), 0.0, "no shedding, no error");
    }

    #[test]
    fn zero_rate_sheds_everything_but_counts_it() {
        let control = SamplerControl::new(2);
        control.set_uniform_rate_ppm(0);
        let out = drain(StratifiedSampler::new(
            VecSource::new(stream(150)),
            42,
            control.clone(),
        ));
        assert!(out.is_empty());
        assert_eq!(control.seen_total(), 150);
        assert_eq!(control.shed_total(), 150);
        assert!(control.error_bound() > 0.0);
    }

    #[test]
    fn same_seed_keeps_the_same_records() {
        let pick = |seed: u64| -> Vec<u64> {
            let control = SamplerControl::new(4);
            control.set_uniform_rate_ppm(400_000);
            drain(StratifiedSampler::new(
                VecSource::new(stream(500)),
                seed,
                control,
            ))
            .iter()
            .map(|r| r.id)
            .collect()
        };
        assert_eq!(pick(7), pick(7), "replay with one seed is bit-stable");
        assert_ne!(pick(7), pick(8), "different seeds pick differently");
    }

    #[test]
    fn sampling_rate_is_roughly_honored() {
        let control = SamplerControl::new(1);
        control.set_uniform_rate_ppm(250_000);
        let out = drain(StratifiedSampler::new(
            VecSource::new(stream(4000)),
            3,
            control.clone(),
        ));
        let frac = out.len() as f64 / 4000.0;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "kept fraction {frac} far from requested 0.25"
        );
    }

    #[test]
    fn nearby_points_share_a_stratum() {
        let control = SamplerControl::new(8);
        let sampler = StratifiedSampler::new(VecSource::new(Vec::new()), 9, control);
        // Same unit cell after rounding → same stratum, regardless of id.
        let a = sampler.stratum_of(&rec(1, 5.1));
        let b = sampler.stratum_of(&rec(999, 4.9));
        assert_eq!(a, b, "points rounding to the same cell share a stratum");
    }

    #[test]
    fn error_bound_matches_hand_computation() {
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
        let control = SamplerControl::new(3);
        // Stratum arrivals 10 / 100 / 1000, global budget 50%: the small
        // stratum is kept in full, the surplus flows to the large ones.
        control.rebalance(500_000, &[10, 100, 1000], 10_000);
        let r0 = control.rate_ppm(0);
        let r1 = control.rate_ppm(1);
        let r2 = control.rate_ppm(2);
        assert_eq!(r0, RATE_ONE_PPM, "smallest stratum kept in full");
        assert!(r1 >= r2, "smaller strata get higher rates ({r1} < {r2})");
        // Budget is honored approximately: total kept ≈ 555 of 1110.
        let kept = 10 + 100 * r1 as u64 / 1_000_000 + 1000 * r2 as u64 / 1_000_000;
        assert!((500..=600).contains(&kept), "kept {kept} far from budget");
        // Floor applies.
        control.rebalance(0, &[10, 100, 1000], 10_000);
        assert!(control.rate_ppm(2) >= 10_000);
        // A stratum with no recent arrivals keeps everything.
        control.rebalance(100_000, &[0, 100, 1000], 10_000);
        assert_eq!(control.rate_ppm(0), RATE_ONE_PPM);
    }
}
