//! Backpressure and load shedding — the control loop that drives the
//! stratified sampler.
//!
//! [`LoadShedPolicy`] models the executor as a deterministic queueing
//! server: a batch window of `w` seconds costs a fixed overhead (scheduling,
//! shuffle setup) plus a per-record service time, so its *capacity* —
//! records it can absorb per window while staying real-time — is
//! `rate × (w − overhead)`. Arrivals beyond capacity accumulate in a
//! virtual backlog; the virtual batch latency is the time to drain that
//! backlog at the service rate. The policy watches the backlog it models
//! *plus* the upstream reorder depth (via [`RecordSource::backlog_hint`],
//! never via telemetry gauges, which are observation-only) and computes the
//! next global keep-rate by dead-beat control: keep exactly what fits in the
//! next window after reserving a share of capacity for draining the
//! pressure already queued.
//!
//! Everything here is integer/IEEE-f64 arithmetic over observed counts — no
//! wall-clock reads — so runs replay bit-identically; measured wall time
//! feeding the controller would destroy the p=1-vs-p=4 replay guarantee.
//!
//! [`RecordSource::backlog_hint`]: crate::RecordSource::backlog_hint

use crate::sampler::RATE_ONE_PPM;

/// Number of control intervals over which queued pressure is drained; a
/// larger horizon sheds more gently but holds latency longer.
const DRAIN_HORIZON: u64 = 4;

/// Deterministic backpressure policy: converts observed arrivals, keeps,
/// and reorder depth into the next sampling rate.
///
/// # Examples
///
/// ```
/// use diststream_engine::LoadShedPolicy;
///
/// // 100 records/batch capacity, 1 s windows, 10% fixed overhead.
/// let mut policy = LoadShedPolicy::new(100, 1.0, 100, 10_000);
/// // Underload: everything fits, no shedding requested.
/// assert_eq!(policy.observe_batch(80, 80, 0), 1_000_000);
/// // Sustained 3× overload: the rate backs off below full.
/// let rate = policy.observe_batch(300, 300, 0);
/// assert!(rate < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct LoadShedPolicy {
    /// Per-second service rate, derived once from the initial window.
    service_per_sec: f64,
    /// Fixed per-batch overhead in (virtual) seconds.
    overhead_secs: f64,
    /// Records the executor absorbs per window at the current width.
    capacity: f64,
    /// Virtual queued records not yet served.
    backlog: f64,
    rate_ppm: u32,
    min_rate_ppm: u32,
}

impl LoadShedPolicy {
    /// A policy for an executor that can serve `capacity_per_batch` records
    /// in a `window_secs` window, of which `overhead_permille/1000` is
    /// fixed per-batch overhead. `min_rate_ppm` floors the sampling rate so
    /// the stream is never shed to nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_batch` is zero, `window_secs` is not
    /// strictly positive and finite, or the overhead is ≥ 1000 permille.
    pub fn new(
        capacity_per_batch: u64,
        window_secs: f64,
        overhead_permille: u32,
        min_rate_ppm: u32,
    ) -> Self {
        assert!(capacity_per_batch > 0, "capacity must be positive");
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window must be positive and finite"
        );
        assert!(overhead_permille < 1000, "overhead must leave service time");
        let overhead_secs = window_secs * overhead_permille as f64 / 1000.0;
        let service_per_sec = capacity_per_batch as f64 / (window_secs - overhead_secs);
        LoadShedPolicy {
            service_per_sec,
            overhead_secs,
            capacity: capacity_per_batch as f64,
            backlog: 0.0,
            rate_ppm: RATE_ONE_PPM,
            min_rate_ppm: min_rate_ppm.min(RATE_ONE_PPM),
        }
    }

    /// The current global keep-rate, ppm.
    pub fn rate_ppm(&self) -> u32 {
        self.rate_ppm
    }

    /// The modeled backlog, in records.
    pub fn backlog_records(&self) -> u64 {
        self.backlog as u64
    }

    /// Records the executor absorbs per window at the current width.
    pub fn capacity_per_batch(&self) -> u64 {
        self.capacity as u64
    }

    /// Re-derives capacity for a new window width: a wider window amortizes
    /// the fixed overhead over more service time, so effective capacity
    /// grows super-linearly — this is the lever the adaptive batch sizer
    /// pulls, and why window width and sample rate co-adapt.
    pub fn set_window(&mut self, window_secs: f64) {
        let usable = (window_secs - self.overhead_secs).max(window_secs * 1e-3);
        self.capacity = (self.service_per_sec * usable).max(1.0);
    }

    /// Virtual wall time to process a batch of `kept` records: fixed
    /// overhead plus per-record service. This is what the adaptive sizer
    /// observes instead of measured time, keeping adaptation replay-safe.
    pub fn virtual_batch_secs(&self, kept: u64) -> f64 {
        self.overhead_secs + kept as f64 / self.service_per_sec
    }

    /// Virtual latency of the *next* record: time to drain everything
    /// queued ahead of it at the service rate.
    pub fn virtual_latency_secs(&self) -> f64 {
        self.backlog / self.service_per_sec
    }

    /// Folds one finished batch into the model — `arrived` records offered
    /// to the sampler, `kept` passed through, `reorder_depth` still queued
    /// upstream — and returns the keep-rate for the next interval.
    ///
    /// Dead-beat step: after serving one window's capacity, whatever
    /// remains queued (modeled backlog plus the observed reorder depth) is
    /// scheduled to drain over `DRAIN_HORIZON` (4) windows, and the next rate
    /// keeps exactly the arrivals that fit in the capacity left over. Under
    /// sustained overload the rate converges to `capacity / arrival_rate`;
    /// when load drops, backlog drains and the rate recovers to 1e6.
    pub fn observe_batch(&mut self, arrived: u64, kept: u64, reorder_depth: u64) -> u32 {
        self.backlog = (self.backlog + kept as f64 - self.capacity).max(0.0);
        let pressure = self.backlog + reorder_depth as f64;
        let drain_share = pressure / DRAIN_HORIZON as f64;
        let target_kept = (self.capacity - drain_share).max(0.0);
        let predicted_arrivals = arrived.max(1) as f64;
        let raw = target_kept / predicted_arrivals * RATE_ONE_PPM as f64;
        self.rate_ppm = (raw as u32).clamp(self.min_rate_ppm, RATE_ONE_PPM);
        self.rate_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underload_never_sheds() {
        let mut p = LoadShedPolicy::new(1000, 1.0, 0, 1000);
        for _ in 0..20 {
            assert_eq!(p.observe_batch(500, 500, 0), RATE_ONE_PPM);
        }
        assert_eq!(p.backlog_records(), 0);
        assert_eq!(p.virtual_latency_secs(), 0.0);
    }

    #[test]
    fn sustained_overload_converges_near_capacity_over_arrivals() {
        let mut p = LoadShedPolicy::new(100, 1.0, 0, 1000);
        let mut rate = RATE_ONE_PPM;
        for _ in 0..50 {
            let kept = 400 * rate as u64 / RATE_ONE_PPM as u64;
            rate = p.observe_batch(400, kept, 0);
        }
        // 4× overload → steady-state keep-rate ≈ 25%.
        let frac = rate as f64 / RATE_ONE_PPM as f64;
        assert!((frac - 0.25).abs() < 0.05, "rate {frac} far from 0.25");
        // And the backlog stays bounded (latency did not run away).
        assert!(p.virtual_latency_secs() < 5.0);
    }

    #[test]
    fn reorder_pressure_backs_the_rate_off_early() {
        let mut calm = LoadShedPolicy::new(100, 1.0, 0, 1000);
        let mut pressured = calm.clone();
        let calm_rate = calm.observe_batch(100, 100, 0);
        let pressured_rate = pressured.observe_batch(100, 100, 300);
        assert!(
            pressured_rate < calm_rate,
            "a growing reorder backlog must lower the rate before batches lag"
        );
    }

    #[test]
    fn load_drop_recovers_full_rate_and_drains_backlog() {
        let mut p = LoadShedPolicy::new(100, 1.0, 0, 1000);
        for _ in 0..10 {
            p.observe_batch(500, 500, 0);
        }
        assert!(p.backlog_records() > 0);
        let mut rate = 0;
        for _ in 0..60 {
            rate = p.observe_batch(10, 10, 0);
        }
        assert_eq!(rate, RATE_ONE_PPM, "underload must recover to keep-all");
        assert_eq!(p.backlog_records(), 0, "backlog must drain");
    }

    #[test]
    fn wider_windows_amortize_overhead_into_capacity() {
        // 50% overhead at 1 s: capacity 100 records in 0.5 s of service.
        let mut p = LoadShedPolicy::new(100, 1.0, 500, 1000);
        assert_eq!(p.capacity_per_batch(), 100);
        p.set_window(2.0);
        // 2 s window, same 0.5 s overhead → 1.5 s of service → 300 records.
        assert_eq!(p.capacity_per_batch(), 300);
        p.set_window(0.25);
        // Narrower than the overhead: capacity collapses but stays positive.
        assert!(p.capacity_per_batch() >= 1);
    }

    #[test]
    fn virtual_times_are_pure_functions_of_counts() {
        let p = LoadShedPolicy::new(200, 1.0, 100, 1000);
        let a = p.virtual_batch_secs(400);
        let b = p.virtual_batch_secs(400);
        assert_eq!(a, b);
        // overhead 0.1 s + 400 records at 200/0.9 rec/s.
        assert!((a - (0.1 + 400.0 * 0.9 / 200.0)).abs() < 1e-12);
    }

    #[test]
    fn rate_respects_the_floor() {
        let mut p = LoadShedPolicy::new(1, 1.0, 0, 50_000);
        let rate = p.observe_batch(1_000_000, 1_000_000, 0);
        assert_eq!(rate, 50_000);
    }
}
