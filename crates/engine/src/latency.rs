//! Event-time → model-integration latency tracking.
//!
//! Throughput averages hide the per-record experience: a record that
//! arrives at the start of a window waits a full window before the global
//! update folds it into the model, and the asynchronous protocol adds a
//! whole batch of staleness on top. SAMOA-style streaming-ML evaluation
//! treats that distribution — not its mean — as the first-class signal, so
//! this module tracks it end to end.
//!
//! Everything here runs in *virtual* (event) time: a record's latency is
//! `integration_time − record.timestamp`, where the integration time is
//! the window end at which the global update containing the record applies
//! (the synchronous protocol integrates at the record's own window end;
//! the asynchronous protocol integrates one window later). Virtual-time
//! arithmetic makes the statistics bit-identical across repeated runs,
//! parallelism degrees, and execution modes — unlike measured wall time —
//! which is exactly what the workspace determinism suite pins.
//!
//! [`LatencyProbe`] captures a batch's record timestamps before the
//! assignment step consumes the records; [`LatencyProbe::resolve`] turns
//! the captured timestamps into a [`RecordLatency`] digest (exact
//! nearest-rank p50/p95/p99 plus fixed-bound histogram buckets) once the
//! integration window end is known. The digest is observation-only: it
//! rides on `BatchOutcome` and — when telemetry is enabled — lands in the
//! journal as a `record_latency` point and in the registry as the
//! `diststream_record_latency_secs` histogram, the one run-level aggregate
//! (the digests merge into it exactly).

use diststream_telemetry as telemetry;
use diststream_types::{Record, Timestamp};
use serde::{Deserialize, Serialize};

/// Upper bucket bounds (seconds) shared by every record-latency histogram:
/// the per-batch digest and the registry metric. Sharing one set of bounds
/// is what lets pre-bucketed digests merge exactly.
pub const LATENCY_BUCKET_BOUNDS: [f64; 10] =
    [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0];

/// Event-time → integration latency digest for one mini-batch's records.
///
/// Quantiles are exact nearest-rank values over the batch (not bucket
/// interpolations); `buckets` holds per-bucket counts aligned with
/// [`LATENCY_BUCKET_BOUNDS`] plus a trailing `+Inf` bucket so digests can
/// be merged downstream without the raw timestamps.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecordLatency {
    /// Index of the batch whose records this digest covers (the *source*
    /// batch — under the asynchronous protocol it resolves one batch
    /// later).
    pub source_batch: usize,
    /// Records in the digest.
    pub count: usize,
    /// Sum of latencies, seconds.
    pub sum_secs: f64,
    /// Smallest latency, seconds.
    pub min_secs: f64,
    /// Largest latency, seconds.
    pub max_secs: f64,
    /// Exact nearest-rank median, seconds.
    pub p50_secs: f64,
    /// Exact nearest-rank 95th percentile, seconds.
    pub p95_secs: f64,
    /// Exact nearest-rank 99th percentile, seconds.
    pub p99_secs: f64,
    /// Per-bucket counts for [`LATENCY_BUCKET_BOUNDS`] + `+Inf`.
    pub buckets: Vec<u64>,
}

impl RecordLatency {
    /// Mean latency in seconds (0.0 for an empty digest).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }

    /// Records the digest into the telemetry subsystem: one
    /// `record_latency` journal point (batch-scoped to the source batch)
    /// and a pre-bucketed merge into the
    /// `diststream_record_latency_secs` registry histogram.
    ///
    /// Observation-only and cheap when telemetry is disabled (one atomic
    /// load); empty digests record nothing.
    pub fn emit_telemetry(&self) {
        if !telemetry::enabled() || self.count == 0 {
            return;
        }
        telemetry::emit_point(
            telemetry::names::POINT_RECORD_LATENCY,
            Some(self.source_batch as u64),
            &[
                ("records", self.count as f64),
                ("mean_secs", self.mean_secs()),
                ("min_secs", self.min_secs),
                ("max_secs", self.max_secs),
                ("p50_secs", self.p50_secs),
                ("p95_secs", self.p95_secs),
                ("p99_secs", self.p99_secs),
            ],
        );
        telemetry::histogram(
            telemetry::names::METRIC_RECORD_LATENCY_SECS,
            &LATENCY_BUCKET_BOUNDS,
        )
        .add_bucketed(&self.buckets, self.sum_secs);
    }
}

/// Captured event times of one batch's records, awaiting their integration
/// window end.
///
/// Capture happens on the driver before the assignment step consumes the
/// batch's records; the executor resolves the probe once it knows when the
/// records' global update applies. The probe is pure data — capturing and
/// resolving never touches the clock or the model.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProbe {
    source_batch: usize,
    /// Record event times in seconds, sorted ascending.
    ts_secs: Vec<f64>,
}

impl LatencyProbe {
    /// Captures the event times of `records` for batch `source_batch`.
    pub fn capture(source_batch: usize, records: &[Record]) -> Self {
        let mut ts_secs: Vec<f64> = records.iter().map(|r| r.timestamp.secs()).collect();
        ts_secs.sort_unstable_by(f64::total_cmp);
        LatencyProbe {
            source_batch,
            ts_secs,
        }
    }

    /// The batch whose records were captured.
    pub fn source_batch(&self) -> usize {
        self.source_batch
    }

    /// Resolves the probe against the integration time: the window end at
    /// which the global update containing these records applies.
    ///
    /// Latencies are `integration_end − timestamp`; with timestamps sorted
    /// ascending, the latency order is the reverse, so the nearest-rank
    /// `q`-quantile (rank `⌈q·n⌉`) of the latencies is
    /// `integration_end − ts[n − ⌈q·n⌉]`.
    pub fn resolve(&self, integration_end: Timestamp) -> RecordLatency {
        let n = self.ts_secs.len();
        let end = integration_end.secs();
        if n == 0 {
            return RecordLatency {
                source_batch: self.source_batch,
                buckets: vec![0; LATENCY_BUCKET_BOUNDS.len() + 1],
                ..RecordLatency::default()
            };
        }
        let quantile = |q: f64| -> f64 {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            end - self.ts_secs[n - rank]
        };
        let mut buckets = vec![0u64; LATENCY_BUCKET_BOUNDS.len() + 1];
        let mut sum_secs = 0.0;
        for &ts in &self.ts_secs {
            let latency = end - ts;
            sum_secs += latency;
            let idx = LATENCY_BUCKET_BOUNDS
                .iter()
                .position(|&bound| latency <= bound)
                .unwrap_or(LATENCY_BUCKET_BOUNDS.len());
            buckets[idx] += 1;
        }
        RecordLatency {
            source_batch: self.source_batch,
            count: n,
            sum_secs,
            // Latest record waits least; earliest waits longest.
            min_secs: end - self.ts_secs[n - 1],
            max_secs: end - self.ts_secs[0],
            p50_secs: quantile(0.50),
            p95_secs: quantile(0.95),
            p99_secs: quantile(0.99),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::Point;

    fn rec(id: u64, t: f64) -> Record {
        Record::new(id, Point::from(vec![0.0]), Timestamp::from_secs(t))
    }

    #[test]
    fn resolve_computes_exact_nearest_rank_quantiles() {
        // Timestamps 1..=10 s, integration end 11 s → latencies 1..=10 s.
        let records: Vec<Record> = (1..=10).map(|i| rec(i, i as f64)).collect();
        let probe = LatencyProbe::capture(3, &records);
        let digest = probe.resolve(Timestamp::from_secs(11.0));
        assert_eq!(digest.source_batch, 3);
        assert_eq!(digest.count, 10);
        assert!((digest.min_secs - 1.0).abs() < 1e-12);
        assert!((digest.max_secs - 10.0).abs() < 1e-12);
        assert!((digest.sum_secs - 55.0).abs() < 1e-12);
        assert!((digest.mean_secs() - 5.5).abs() < 1e-12);
        // Nearest-rank over 10 values: rank ⌈0.5·10⌉ = 5 → 5 s,
        // rank ⌈0.95·10⌉ = 10 → 10 s, rank ⌈0.99·10⌉ = 10 → 10 s.
        assert!((digest.p50_secs - 5.0).abs() < 1e-12);
        assert!((digest.p95_secs - 10.0).abs() < 1e-12);
        assert!((digest.p99_secs - 10.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_buckets_latencies_against_the_shared_bounds() {
        // Latencies 0.04, 0.2, 3.0, 100.0 → buckets ≤0.05, ≤0.25, ≤5, +Inf.
        let records = vec![rec(1, 9.96), rec(2, 9.8), rec(3, 7.0), rec(4, -90.0)];
        let digest = LatencyProbe::capture(0, &records).resolve(Timestamp::from_secs(10.0));
        assert_eq!(digest.buckets.len(), LATENCY_BUCKET_BOUNDS.len() + 1);
        assert_eq!(digest.buckets.iter().sum::<u64>(), 4);
        assert_eq!(digest.buckets[0], 1, "0.04 s belongs in ≤0.05");
        assert_eq!(digest.buckets[2], 1, "0.2 s belongs in ≤0.25");
        assert_eq!(digest.buckets[6], 1, "3.0 s belongs in ≤5");
        assert_eq!(
            *digest.buckets.last().unwrap(),
            1,
            "100 s is beyond every bound"
        );
    }

    #[test]
    fn capture_is_order_insensitive_and_empty_batches_are_zero() {
        let shuffled = vec![rec(1, 3.0), rec(2, 1.0), rec(3, 2.0)];
        let ordered = vec![rec(4, 1.0), rec(5, 2.0), rec(6, 3.0)];
        let end = Timestamp::from_secs(4.0);
        assert_eq!(
            LatencyProbe::capture(0, &shuffled).resolve(end),
            LatencyProbe::capture(0, &ordered).resolve(end)
        );

        let empty = LatencyProbe::capture(7, &[]).resolve(end);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.source_batch, 7);
        assert_eq!(empty.mean_secs(), 0.0);
        assert_eq!(empty.buckets.iter().sum::<u64>(), 0);
    }

    #[test]
    fn later_integration_end_shows_the_staleness_penalty() {
        let records: Vec<Record> = (1..=5).map(|i| rec(i, i as f64)).collect();
        let probe = LatencyProbe::capture(0, &records);
        let sync = probe.resolve(Timestamp::from_secs(6.0));
        let stale = probe.resolve(Timestamp::from_secs(16.0));
        assert!((stale.p50_secs - sync.p50_secs - 10.0).abs() < 1e-12);
        assert!((stale.mean_secs() - sync.mean_secs() - 10.0).abs() < 1e-12);
    }
}
