//! Overload subsystem end-to-end tests: record-accounting reconciliation,
//! bit-identical sampled replays, and backpressure observability.
//!
//! The reconciliation property is the one ISSUE-9 pins: for any seeded
//! overload run over a disordered, duplicated, partially-late stream,
//!
//! ```text
//! init + kept + shed + dropped_late + dropped_duplicate == source total
//! ```
//!
//! across the synchronous and overlapped protocols at p ∈ {1, 4} — no
//! record is ever double-counted or silently lost, no matter which stage
//! disposed of it.

use std::sync::{Arc, Mutex};

use diststream::algorithms::{CluStream, CluStreamParams};
use diststream::core::{DistStreamJob, OverloadOptions, OverloadStats, PipelineOptions, RunResult};
use diststream::datasets::covertype_like;
use diststream::engine::{
    encode, fnv1a_hash, ExecutionMode, RecordSource, ReorderBuffer, StreamingContext, VecSource,
};
use diststream::telemetry;
use diststream::types::{ClusteringConfig, Record, Timestamp};

/// Telemetry globals (enabled flag, metric registry, journal sink) are
/// process-wide; every test here that flips them holds this lock, same as
/// the other telemetry-touching integration binaries — and so does every
/// test that runs a job, whose points would land in a captured journal.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const INIT_RECORDS: usize = 100;
const LATENESS_SECS: f64 = 0.5;

/// 0.25 s windows over a 200 records/s stream: ~50 arrivals per window
/// against a 20-records/batch capacity — sustained 2.5× overload with
/// dozens of control intervals in the 7.5 s stream.
fn overload_config() -> ClusteringConfig {
    ClusteringConfig::default()
        .with_batch_secs(0.25)
        .expect("valid window")
}

/// A realistic hostile stream: covertype-like records at 200/s with bounded
/// disorder (reversed 4-record blocks ≈ 20 ms skew), at-least-once
/// re-deliveries (every 9th record duplicated), and a tail of hopeless
/// stragglers (fresh ids carrying long-expired timestamps).
fn hostile_stream() -> Vec<Record> {
    let base = covertype_like(1500, 5).to_records(200.0);
    let mut out: Vec<Record> = Vec::with_capacity(base.len() + base.len() / 9 + 8);
    for chunk in base.chunks(4) {
        for r in chunk.iter().rev() {
            out.push(r.clone());
            if r.id % 9 == 0 {
                out.push(r.clone()); // immediate re-delivery
            }
        }
    }
    // Stragglers near the end of the stream, far beyond the lateness bound.
    for i in 0..8u64 {
        let insert_at = out.len() - 1 - (i as usize * 13);
        let mut straggler = out[0].clone();
        straggler.id = 1_000_000 + i;
        straggler.timestamp = Timestamp::from_secs(0.001 * i as f64);
        out.insert(insert_at, straggler);
    }
    out
}

fn overload_options(seed: u64) -> OverloadOptions {
    OverloadOptions {
        seed,
        strata: 6,
        capacity_per_batch: 20,
        min_rate_ppm: 20_000,
        adapt_window: true,
    }
}

struct RunWithDrops {
    result: RunResult<<CluStream as diststream::core::StreamClustering>::Model>,
    dropped_late: usize,
    dropped_duplicate: usize,
}

fn run_overloaded(records: Vec<Record>, parallelism: usize, overlap: bool) -> RunWithDrops {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 60,
        ..Default::default()
    });
    let ctx = StreamingContext::new(parallelism, ExecutionMode::Simulated).expect("context");
    let mut reorder = ReorderBuffer::new(VecSource::new(records), LATENESS_SECS);
    let pipeline = if overlap {
        PipelineOptions::all()
    } else {
        PipelineOptions::sync()
    }
    .with_overload(overload_options(42));
    let result = DistStreamJob::new(&algo, &ctx, overload_config())
        .init_records(INIT_RECORDS)
        .pipeline(pipeline)
        .run_to_end(&mut reorder)
        .expect("overloaded job");
    RunWithDrops {
        result,
        dropped_late: reorder.dropped_late(),
        dropped_duplicate: reorder.dropped_duplicates(),
    }
}

/// released + shed + dropped_late + dropped_duplicate == source total, for
/// both protocols at p ∈ {1, 4} — and the accounting itself is identical
/// across all four cells.
#[test]
fn every_record_is_accounted_for_exactly_once() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records = hostile_stream();
    let total = records.len() as u64;
    let mut accountings = Vec::new();
    for overlap in [false, true] {
        for parallelism in [1usize, 4] {
            let run = run_overloaded(records.clone(), parallelism, overlap);
            let stats = run.result.overload.expect("overload stats");
            assert!(
                run.dropped_late > 0,
                "the stragglers must exercise the late-drop path"
            );
            assert!(
                run.dropped_duplicate > 0,
                "the re-deliveries must exercise the dedup path"
            );
            assert!(stats.shed > 0, "20-records/batch capacity must shed");
            assert_eq!(
                INIT_RECORDS as u64
                    + stats.kept
                    + stats.shed
                    + run.dropped_late as u64
                    + run.dropped_duplicate as u64,
                total,
                "overlap={overlap} p={parallelism}: records leaked or double-counted"
            );
            assert_eq!(
                run.result.meter.records(),
                stats.kept as usize,
                "exactly the kept records reach the executor"
            );
            assert!(
                stats.error_bound > 0.0 && stats.error_bound.is_finite(),
                "shedding implies a finite nonzero error bound"
            );
            accountings.push((
                overlap,
                parallelism,
                stats.kept,
                stats.shed,
                run.dropped_late,
                run.dropped_duplicate,
            ));
        }
    }
    // Ingest-side disposition is executor- and parallelism-independent.
    let (_, _, kept, shed, late, dup) = accountings[0];
    for &(overlap, p, k, s, l, d) in &accountings {
        assert_eq!(
            (k, s, l, d),
            (kept, shed, late, dup),
            "ingest accounting diverged at overlap={overlap} p={p}"
        );
    }
}

/// For a fixed sampler seed the final model bytes are bit-identical across
/// reruns and across p=1 vs p=4, for both protocols — the replay gate
/// extended to the approximate path.
#[test]
fn sampled_model_bytes_are_bit_identical_across_replays_and_parallelism() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records = hostile_stream();
    for overlap in [false, true] {
        let bytes = |p: usize| encode(&run_overloaded(records.clone(), p, overlap).result.model);
        let base = bytes(1);
        assert!(!base.is_empty());
        assert_eq!(bytes(1), base, "overlap={overlap}: rerun diverged");
        assert_eq!(bytes(4), base, "overlap={overlap}: p=4 diverged");
    }
}

/// The p = 1 run of each protocol, pinned: the model digest and every
/// field of `OverloadStats`. The stream passes a `ReorderBuffer`, so the
/// reorder backlog the policy reads at each control step — the last one
/// included — steers the rates, and through them every field. The
/// comparisons above hold runs to each other; this one holds them to the
/// values the shed loop produced when it was written, so a change that
/// moves every run alike fails here.
#[test]
fn sampled_runs_reproduce_their_pinned_bytes_and_stats() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Both protocols shed the same records; only the update order (and so
    // the model) differs.
    let stats = OverloadStats {
        seen: 1400,
        kept: 106,
        shed: 1294,
        error_bound: 0.09566116591451826,
        final_rate_ppm: 784_363,
        final_backlog: 0,
        max_virtual_latency_secs: 0.34875,
        final_batch_secs: 0.335102872,
    };
    let records = hostile_stream();
    for (overlap, digest) in [
        (false, 0xbc26_53d3_e64a_883f_u64),
        (true, 0xa3db_7dd9_dba3_c688),
    ] {
        let run = run_overloaded(records.clone(), 1, overlap).result;
        assert_eq!(
            fnv1a_hash(&encode(&run.model)),
            digest,
            "overlap={overlap}: model bytes moved"
        );
        assert_eq!(run.overload, Some(stats), "overlap={overlap}: stats moved");
    }
}

/// Every batch journals one `overload_summary` point, the last included.
/// The control step for a batch runs at the next pull, after that batch's
/// journal drain, so the run must drain once more after its last pull.
#[test]
fn every_batch_journals_one_overload_summary() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_journal_capture();
    telemetry::set_enabled(true);
    let run = run_overloaded(hostile_stream(), 1, false);
    telemetry::set_enabled(false);
    let journaled: Vec<u64> = telemetry::close_journal()
        .iter()
        .filter(|e| e.name == telemetry::names::POINT_OVERLOAD_SUMMARY)
        .filter_map(|e| e.batch)
        .collect();
    let batches = run.result.meter.batches() as u64;
    assert!(batches > 1);
    assert_eq!(journaled, (0..batches).collect::<Vec<_>>());
}

/// Different seeds shed different records — the seed is live, not vestigial.
#[test]
fn sampler_seed_changes_the_kept_sample() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records = hostile_stream();
    let kept_ids = |seed: u64| {
        let algo = CluStream::new(CluStreamParams::default());
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).expect("context");
        let result = DistStreamJob::new(&algo, &ctx, overload_config())
            .init_records(INIT_RECORDS)
            .pipeline(PipelineOptions::sync().with_overload(overload_options(seed)))
            .run_to_end(ReorderBuffer::new(
                VecSource::new(records.clone()),
                LATENESS_SECS,
            ))
            .expect("job");
        encode(&result.model)
    };
    assert_ne!(kept_ids(1), kept_ids(2), "seed must select the sample");
}

/// A source that reads the reorder depth gauge at every pull — what an
/// operator's dashboard would see while the buffer is stalled waiting for
/// its watermark (ISSUE-9 satellite: the gauge used to be written only at
/// release time, so a growing backlog was invisible between releases).
struct GaugeProbe {
    inner: VecSource,
    depth: Arc<telemetry::Gauge>,
    readings: Arc<Mutex<Vec<f64>>>,
}

impl RecordSource for GaugeProbe {
    fn next_record(&mut self) -> Option<Record> {
        self.readings
            .lock()
            .expect("probe lock")
            .push(self.depth.get());
        self.inner.next_record()
    }
}

#[test]
fn reorder_depth_gauge_is_visible_while_stalled() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records: Vec<Record> = covertype_like(20, 2).to_records(1.0);
    let readings = Arc::new(Mutex::new(Vec::new()));
    let probe = GaugeProbe {
        inner: VecSource::new(records),
        depth: telemetry::gauge(telemetry::names::METRIC_REORDER_DEPTH),
        readings: readings.clone(),
    };
    // A lateness bound far beyond the stream: nothing is ever releasable,
    // so every probe reading happens while the buffer is stalled.
    let mut buffer = ReorderBuffer::new(probe, 1e9);
    telemetry::set_enabled(true);
    let drained: Vec<Record> = std::iter::from_fn(|| buffer.next_record()).collect();
    telemetry::set_enabled(false);
    assert_eq!(drained.len(), 20, "everything releases at exhaustion");
    let readings = readings.lock().expect("probe lock");
    assert!(
        readings.iter().any(|&d| d >= 10.0),
        "depth gauge must grow while the buffer is stalled (got {readings:?})"
    );
}
