//! The committed performance baseline: records/sec and per-phase times for
//! all four algorithms at p ∈ {1, 4, 8, 16} ([`PARALLELISMS`]).
//!
//! The `bench_baseline` binary runs this and writes `BENCH_BASELINE.json`;
//! `cargo run -p xtask -- bench-check` re-runs it and compares the fresh
//! numbers against the committed file (see DESIGN.md §9 for the regression
//! policy). Measurements use [`ExecutionMode::Simulated`] with a *zero* cost
//! model: every task body really executes and is individually wall-timed,
//! and the reported step latency is the barrier makespan of those measured
//! times over `p` slots with no simulated overheads. That keeps the signal
//! meaningful on small CI runners (including single-core ones), where real
//! `p = 4` threads would only measure oversubscription noise.

use std::time::Instant;

use diststream_core::{DistStreamJob, PipelineOptions, StrategyKind, StreamClustering};
use diststream_engine::{ExecutionMode, RepeatSource, SimCostModel, StreamingContext};
use diststream_types::{ClusteringConfig, Result};

use crate::bundle::{Bundle, DatasetKind};
use crate::overload::{measure_overload, OverloadScenario};
use crate::report::{fmt_f64, print_table, Table};
use crate::serving::{measure_serving, ServingBench};

/// Repo-relative path of the committed baseline file (default workload).
pub const BASELINE_PATH: &str = "BENCH_BASELINE.json";

/// Repo-relative path of the committed `--quick` baseline file (the
/// workload the CI `bench-gate` job measures on every PR).
pub const BASELINE_QUICK_PATH: &str = "BENCH_BASELINE_QUICK.json";

/// Schema version stamped into the JSON (bump on incompatible change).
/// v2: entries carry a `pipeline` label (`sync` / `overlapped`) and the
/// matrix measures both pipelines per `(algorithm, parallelism)`.
/// v3: entries add `overhead_secs` (completing the per-phase critical-path
/// columns for regression attribution) and the event-time latency
/// percentiles `latency_p50_secs` / `latency_p95_secs` / `latency_p99_secs`.
/// v4: entries carry a `strategy` label (the distribution strategy the run
/// used) and the report adds a `shuffle_skew` section measuring charged
/// shuffle bytes under round-robin vs key-range placement, which
/// `xtask bench-check` gates at [`SHUFFLE_SKEW_FACTOR`]×.
/// v5: the report adds an `overload` section — shed fraction, error bound,
/// achieved vs target latency, quality deltas, and the p=1/p=4 model
/// digests of the seeded approximate run — which `xtask bench-check` gates
/// (see [`crate::measure_overload`]).
/// v6: the matrix extends to p ∈ {1, 4, 8, 16} (scaling-loss attribution at
/// higher degrees) and the report adds a `serving` section — concurrent
/// predict readers racing the stream against the lock-free snapshot slot —
/// whose `predict_qps_while_streaming` column `xtask bench-check` gates (see
/// [`crate::measure_serving`]).
pub const BASELINE_SCHEMA: u32 = 6;

/// Required round-robin/key-range charged-shuffle-byte ratio on the
/// baseline workload (the ISSUE's key-skew acceptance bar).
pub const SHUFFLE_SKEW_FACTOR: f64 = 1.2;

/// Parallelism degree the shuffle-skew measurement runs at. Key-range
/// placement co-locates each key's updates with its modeled map partition,
/// so the charged remote fraction is about `(p - 1) / p` of the round-robin
/// full charge — `4/3 ≈ 1.33×` at `p = 4`, comfortably over the gate.
pub(crate) const SHUFFLE_SKEW_PARALLELISM: usize = 4;

/// Pipeline label for the paper's synchronous configuration.
pub const PIPELINE_SYNC: &str = "sync";

/// Pipeline label for the overlapped configuration (prefetch + combine +
/// chunk scheduling + asynchronous update protocol, unless toggled off).
pub const PIPELINE_OVERLAPPED: &str = "overlapped";

/// Parallelism degrees measured for every algorithm.
pub(crate) const PARALLELISMS: [usize; 4] = [1, 4, 8, 16];

/// Mini-batch width used by every baseline run.
pub const BATCH_SECS: f64 = 1.0;

/// Workload parameters for one baseline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineSpec {
    /// `--quick`: the scaled-down workload CI runs on every PR.
    pub quick: bool,
    /// Generated records in the base stream.
    pub records: usize,
    /// Stream replays per run (as the paper's `large-*` stress sets do).
    pub rounds: usize,
    /// Dataset generation seed.
    pub seed: u64,
}

impl BaselineSpec {
    /// The default (committed-baseline) or `--quick` (CI gate) workload.
    pub fn new(quick: bool) -> BaselineSpec {
        if quick {
            BaselineSpec {
                quick,
                records: 4_000,
                rounds: 1,
                seed: 42,
            }
        } else {
            BaselineSpec {
                quick,
                records: 12_000,
                rounds: 3,
                seed: 42,
            }
        }
    }

    /// Mode label stored in the JSON.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "default"
        }
    }
}

/// One measured `(algorithm, parallelism)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Algorithm key (`clustream`, `denstream`, `dstream`, `clustree`).
    pub algo: String,
    /// Pipeline label ([`PIPELINE_SYNC`] or [`PIPELINE_OVERLAPPED`]).
    pub pipeline: String,
    /// Distribution-strategy label the run used ([`StrategyKind::label`]).
    pub strategy: String,
    /// Parallelism degree of the run.
    pub parallelism: usize,
    /// Records processed (post-initialization).
    pub records: usize,
    /// End-to-end throughput over the batch critical path.
    pub records_per_sec: f64,
    /// Sum of assignment-step makespans.
    pub assignment_secs: f64,
    /// Sum of local-update-step makespans.
    pub local_secs: f64,
    /// Sum of *per-task measured* local-update seconds (CPU work, not
    /// makespan) — the denominator for the per-core hot-path signal.
    pub local_cpu_secs: f64,
    /// Sum of driver-side global-update seconds.
    pub global_secs: f64,
    /// Sum of charged scheduling/network overhead seconds.
    pub overhead_secs: f64,
    /// Sum of batch critical-path seconds.
    pub total_secs: f64,
    /// Median event-time → model-integration latency (virtual seconds,
    /// interpolated from the run's merged latency histogram).
    pub latency_p50_secs: f64,
    /// 95th-percentile event-time latency (virtual seconds).
    pub latency_p95_secs: f64,
    /// 99th-percentile event-time latency (virtual seconds).
    pub latency_p99_secs: f64,
}

impl BaselineEntry {
    /// Local-update throughput over the step makespan.
    pub(crate) fn local_records_per_sec(&self) -> f64 {
        if self.local_secs > 0.0 {
            self.records as f64 / self.local_secs
        } else {
            0.0
        }
    }
}

/// A full baseline run: workload spec, calibration score, and all cells.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// JSON schema version.
    pub schema: u32,
    /// `"quick"` or `"default"`.
    pub mode: String,
    /// Dataset name (Table-I analog driving the workload).
    pub dataset: String,
    /// Generated records in the base stream.
    pub records: usize,
    /// Stream replays per run.
    pub rounds: usize,
    /// Mini-batch width in virtual seconds.
    pub batch_secs: f64,
    /// Machine-speed score from [`calibration_score`], for cross-machine
    /// normalization in `bench-check`.
    pub calibration_score: f64,
    /// Charged shuffle bytes under round-robin vs key-range placement.
    pub shuffle_skew: ShuffleSkew,
    /// The measured overload scenario (schema v5): exact sync ingestion
    /// falls behind, the seeded approximate path holds the latency target.
    pub overload: OverloadScenario,
    /// The measured serving workload (schema v6): concurrent predict
    /// readers racing the stream against the lock-free snapshot slot.
    pub serving: ServingBench,
    /// One cell per `(algorithm, parallelism)`.
    pub entries: Vec<BaselineEntry>,
}

/// Charged shuffle bytes per distribution strategy on the baseline
/// workload, measured deterministically (byte accounting is a pure function
/// of the stream, not of timings). `xtask bench-check` gates the
/// round-robin/key-range ratio at [`SHUFFLE_SKEW_FACTOR`]×.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleSkew {
    /// Parallelism degree of both measurement runs.
    pub parallelism: usize,
    /// Total charged shuffle bytes under [`StrategyKind::RoundRobin`].
    pub roundrobin_bytes: u64,
    /// Total charged shuffle bytes under [`StrategyKind::KeyRange`].
    pub keyrange_bytes: u64,
}

impl ShuffleSkew {
    /// Round-robin over key-range charged bytes — the skew-reduction factor
    /// key-range placement buys on this workload.
    pub(crate) fn reduction_ratio(&self) -> f64 {
        if self.keyrange_bytes > 0 {
            self.roundrobin_bytes as f64 / self.keyrange_bytes as f64
        } else {
            0.0
        }
    }
}

/// Measures a fixed synthetic floating-point workload (the same
/// subtract-square-accumulate mix as the distance kernel) and returns its
/// element rate. `bench-check` uses the ratio of two calibration scores to
/// normalize throughput comparisons across machines of different speeds.
pub fn calibration_score() -> f64 {
    const N: usize = 1 << 16;
    const REPS: usize = 64;
    let data: Vec<f64> = (0..N).map(|i| (i % 1024) as f64 * 1e-3).collect();
    let start = Instant::now();
    let mut acc = 0.0f64;
    for rep in 0..REPS {
        let q = rep as f64 * 0.5;
        for &v in &data {
            let d = v - q;
            acc += d * d;
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    (N * REPS) as f64 / secs
}

fn run_one<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    p: usize,
    spec: &BaselineSpec,
    pipeline_label: &str,
    options: PipelineOptions,
) -> Result<BaselineEntry> {
    let ctx = StreamingContext::with_cost_model(p, ExecutionMode::Simulated, SimCostModel::zero())?;
    let config = ClusteringConfig::builder().batch_secs(BATCH_SECS).build()?;
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(bundle.init_records()).pipeline(options);
    let mut assignment_secs = 0.0;
    let mut local_secs = 0.0;
    let mut local_cpu_secs = 0.0;
    let mut global_secs = 0.0;
    let mut overhead_secs = 0.0;
    let base = bundle.stress_records();
    let result = job.run(RepeatSource::new(base, spec.rounds), |report| {
        let m = &report.outcome.metrics;
        assignment_secs += m.assignment.wall_secs();
        local_secs += m.local.wall_secs();
        local_cpu_secs += m.local.task_secs().iter().sum::<f64>();
        global_secs += m.global_secs;
        overhead_secs += m.overhead_secs;
    })?;
    let records = result.meter.records();
    let total_secs = result.meter.secs();
    Ok(BaselineEntry {
        algo: algo.name().to_string(),
        pipeline: pipeline_label.to_string(),
        strategy: options.strategy.label().to_string(),
        parallelism: p,
        records,
        records_per_sec: if total_secs > 0.0 {
            records as f64 / total_secs
        } else {
            0.0
        },
        assignment_secs,
        local_secs,
        local_cpu_secs,
        global_secs,
        overhead_secs,
        total_secs,
        latency_p50_secs: result.meter.latency_quantile_secs(0.50),
        latency_p95_secs: result.meter.latency_quantile_secs(0.95),
        latency_p99_secs: result.meter.latency_quantile_secs(0.99),
    })
}

/// Sums the charged shuffle bytes of one synchronous CluStream run at
/// [`SHUFFLE_SKEW_PARALLELISM`] under `strategy`. Byte accounting is
/// deterministic — it depends only on the stream and the strategy's
/// placement, never on task timings — so the skew section reproduces
/// exactly across machines.
fn shuffle_bytes_for(bundle: &Bundle, spec: &BaselineSpec, strategy: StrategyKind) -> Result<u64> {
    let ctx = StreamingContext::with_cost_model(
        SHUFFLE_SKEW_PARALLELISM,
        ExecutionMode::Simulated,
        SimCostModel::zero(),
    )?;
    let config = ClusteringConfig::builder().batch_secs(BATCH_SECS).build()?;
    let algo = bundle.clustream();
    let mut job = DistStreamJob::new(&algo, &ctx, config);
    job.init_records(bundle.init_records())
        .pipeline(PipelineOptions::sync().with_strategy(strategy));
    let mut bytes = 0u64;
    job.run(
        RepeatSource::new(bundle.stress_records(), spec.rounds),
        |report| bytes += report.outcome.metrics.shuffle_bytes,
    )?;
    Ok(bytes)
}

/// Measures the committed `shuffle_skew` section: charged shuffle bytes of
/// the same workload under round-robin vs key-range distribution.
pub(crate) fn measure_shuffle_skew(bundle: &Bundle, spec: &BaselineSpec) -> Result<ShuffleSkew> {
    Ok(ShuffleSkew {
        parallelism: SHUFFLE_SKEW_PARALLELISM,
        roundrobin_bytes: shuffle_bytes_for(bundle, spec, StrategyKind::RoundRobin)?,
        keyrange_bytes: shuffle_bytes_for(bundle, spec, StrategyKind::KeyRange)?,
    })
}

/// Runs the baseline matrix: four algorithms × [`PARALLELISMS`] × the
/// given pipeline variants (the `bench_baseline` binary's `--pipeline` /
/// `--no-*` toggles; by default synchronous, and overlapped with prefetch +
/// combine + chunk scheduling all on).
///
/// # Errors
///
/// Propagates engine failures and empty-stream errors.
pub fn run_baseline_pipelines(
    spec: &BaselineSpec,
    pipelines: &[(&str, PipelineOptions)],
) -> Result<BaselineReport> {
    let kind = DatasetKind::Kdd99;
    let bundle = Bundle::new(kind, spec.records, spec.seed);
    let mut entries = Vec::new();
    for &p in &PARALLELISMS {
        for &(label, options) in pipelines {
            entries.push(run_one(
                &bundle.clustream(),
                &bundle,
                p,
                spec,
                label,
                options,
            )?);
            entries.push(run_one(
                &bundle.denstream(),
                &bundle,
                p,
                spec,
                label,
                options,
            )?);
            entries.push(run_one(
                &bundle.dstream(),
                &bundle,
                p,
                spec,
                label,
                options,
            )?);
            entries.push(run_one(
                &bundle.clustree(),
                &bundle,
                p,
                spec,
                label,
                options,
            )?);
        }
    }
    Ok(BaselineReport {
        schema: BASELINE_SCHEMA,
        mode: spec.mode().to_string(),
        dataset: kind.name().to_string(),
        records: spec.records,
        rounds: spec.rounds,
        batch_secs: BATCH_SECS,
        calibration_score: calibration_score(),
        shuffle_skew: measure_shuffle_skew(&bundle, spec)?,
        overload: measure_overload(&bundle)?,
        serving: measure_serving(&bundle, spec)?,
        entries,
    })
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        // Rust's `Display` for f64 prints the shortest round-trip decimal.
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Serializes a report as pretty-printed JSON (no serde_json in this
/// workspace; the schema is flat enough to write by hand).
pub fn baseline_to_json(report: &BaselineReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", report.schema));
    out.push_str(&format!("  \"mode\": \"{}\",\n", report.mode));
    out.push_str(&format!("  \"dataset\": \"{}\",\n", report.dataset));
    out.push_str(&format!("  \"records\": {},\n", report.records));
    out.push_str(&format!("  \"rounds\": {},\n", report.rounds));
    out.push_str(&format!(
        "  \"batch_secs\": {},\n",
        json_f64(report.batch_secs)
    ));
    out.push_str(&format!(
        "  \"calibration_score\": {},\n",
        json_f64(report.calibration_score)
    ));
    out.push_str(&format!(
        "  \"shuffle_skew\": {{\"parallelism\": {}, \"roundrobin_bytes\": {}, \
         \"keyrange_bytes\": {}}},\n",
        report.shuffle_skew.parallelism,
        report.shuffle_skew.roundrobin_bytes,
        report.shuffle_skew.keyrange_bytes,
    ));
    let o = &report.overload;
    out.push_str(&format!(
        "  \"overload\": {{\"batch_secs\": {}, \"capacity_per_batch\": {}, \
         \"target_latency_secs\": {}, \"exact_latency_secs\": {}, \"approx_latency_secs\": {}, \
         \"shed_fraction\": {}, \"error_bound\": {}, \"exact_purity\": {}, \
         \"approx_purity\": {}, \"purity_delta\": {}, \"ssq_delta\": {}, \
         \"measured_batches\": {}, \"vacuous_batches\": {}, \
         \"model_digest_p1\": \"{:016x}\", \"model_digest_p4\": \"{:016x}\"}},\n",
        json_f64(o.batch_secs),
        o.capacity_per_batch,
        json_f64(o.target_latency_secs),
        json_f64(o.exact_latency_secs),
        json_f64(o.approx_latency_secs),
        json_f64(o.shed_fraction),
        json_f64(o.error_bound),
        json_f64(o.exact_purity),
        json_f64(o.approx_purity),
        json_f64(o.purity_delta),
        json_f64(o.ssq_delta),
        o.measured_batches,
        o.vacuous_batches,
        o.model_digest_p1,
        o.model_digest_p4,
    ));
    let s = &report.serving;
    out.push_str(&format!(
        "  \"serving\": {{\"parallelism\": {}, \"reader_threads\": {}, \
         \"streaming_secs\": {}, \"predicts_total\": {}, \"predict_qps_while_streaming\": {}, \
         \"epochs_published\": {}, \"final_epoch\": {}}},\n",
        s.parallelism,
        s.reader_threads,
        json_f64(s.streaming_secs),
        s.predicts_total,
        json_f64(s.predict_qps),
        s.epochs_published,
        s.final_epoch,
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in report.entries.iter().enumerate() {
        let sep = if i + 1 == report.entries.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"algo\": \"{}\", \"pipeline\": \"{}\", \"strategy\": \"{}\", \
             \"parallelism\": {}, \
             \"records\": {}, \
             \"records_per_sec\": {}, \"assignment_secs\": {}, \"local_secs\": {}, \
             \"local_cpu_secs\": {}, \"global_secs\": {}, \"overhead_secs\": {}, \
             \"total_secs\": {}, \"latency_p50_secs\": {}, \"latency_p95_secs\": {}, \
             \"latency_p99_secs\": {}}}{}\n",
            e.algo,
            e.pipeline,
            e.strategy,
            e.parallelism,
            e.records,
            json_f64(e.records_per_sec),
            json_f64(e.assignment_secs),
            json_f64(e.local_secs),
            json_f64(e.local_cpu_secs),
            json_f64(e.global_secs),
            json_f64(e.overhead_secs),
            json_f64(e.total_secs),
            json_f64(e.latency_p50_secs),
            json_f64(e.latency_p95_secs),
            json_f64(e.latency_p99_secs),
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the human-readable baseline table.
pub fn print_baseline(report: &BaselineReport) {
    let mut table = Table::new([
        "algorithm",
        "pipeline",
        "strategy",
        "p",
        "records",
        "records/s",
        "local rec/s",
        "assign s",
        "local s",
        "global s",
        "lat p50",
        "lat p95",
        "lat p99",
    ]);
    for e in &report.entries {
        table.row([
            e.algo.clone(),
            e.pipeline.clone(),
            e.strategy.clone(),
            e.parallelism.to_string(),
            e.records.to_string(),
            fmt_f64(e.records_per_sec, 1),
            fmt_f64(e.local_records_per_sec(), 1),
            fmt_f64(e.assignment_secs, 3),
            fmt_f64(e.local_secs, 3),
            fmt_f64(e.global_secs, 3),
            fmt_f64(e.latency_p50_secs, 3),
            fmt_f64(e.latency_p95_secs, 3),
            fmt_f64(e.latency_p99_secs, 3),
        ]);
    }
    print_table(
        &format!(
            "Performance baseline ({} mode, {} on {} records x {} rounds, calibration {:.0})",
            report.mode, report.dataset, report.records, report.rounds, report.calibration_score
        ),
        &table,
    );
    let skew = &report.shuffle_skew;
    println!(
        "shuffle skew (p={}): roundrobin {} B vs keyrange {} B — {:.2}x reduction \
         (gate {:.1}x)",
        skew.parallelism,
        skew.roundrobin_bytes,
        skew.keyrange_bytes,
        skew.reduction_ratio(),
        SHUFFLE_SKEW_FACTOR,
    );
    let o = &report.overload;
    println!(
        "overload (capacity {}/batch, {:.2}s windows): shed {:.1}% — latency approx {:.2}s vs \
         exact {:.2}s (target {:.2}s), purity delta {:.4} within bound {:.4}, ssq delta {:+.3}, \
         {} measured / {} vacuous batches, digest {:016x} (p1 == p4)",
        o.capacity_per_batch,
        o.batch_secs,
        100.0 * o.shed_fraction,
        o.approx_latency_secs,
        o.exact_latency_secs,
        o.target_latency_secs,
        o.purity_delta,
        o.error_bound,
        o.ssq_delta,
        o.measured_batches,
        o.vacuous_batches,
        o.model_digest_p1,
    );
    let s = &report.serving;
    println!(
        "serving (p={}, {} readers): {} predicts in {:.2}s streaming — {:.0} predict/s, \
         {} epochs published (final {})",
        s.parallelism,
        s.reader_threads,
        s.predicts_total,
        s.streaming_secs,
        s.predict_qps,
        s.epochs_published,
        s.final_epoch,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_is_smaller_than_default() {
        let quick = BaselineSpec::new(true);
        let full = BaselineSpec::new(false);
        assert!(quick.records < full.records);
        assert!(quick.rounds <= full.rounds);
        assert_eq!(quick.mode(), "quick");
        assert_eq!(full.mode(), "default");
    }

    #[test]
    fn calibration_score_is_positive() {
        assert!(calibration_score() > 0.0);
    }

    fn sample_overload() -> OverloadScenario {
        OverloadScenario {
            batch_secs: 0.25,
            capacity_per_batch: 70,
            target_latency_secs: 1.0,
            exact_latency_secs: 7.5,
            approx_latency_secs: 0.45,
            shed_fraction: 0.62,
            error_bound: 0.021,
            exact_purity: 0.97,
            approx_purity: 0.96,
            purity_delta: 0.01,
            ssq_delta: 0.05,
            measured_batches: 18,
            vacuous_batches: 2,
            model_digest_p1: 0xDEAD_BEEF,
            model_digest_p4: 0xDEAD_BEEF,
        }
    }

    fn sample_serving() -> ServingBench {
        ServingBench {
            parallelism: 4,
            reader_threads: 2,
            streaming_secs: 0.8,
            predicts_total: 120_000,
            predict_qps: 150_000.0,
            epochs_published: 12,
            final_epoch: 11,
        }
    }

    #[test]
    fn json_serialization_contains_all_cells() {
        let report = BaselineReport {
            schema: BASELINE_SCHEMA,
            mode: "quick".into(),
            dataset: "KDD-99".into(),
            records: 100,
            rounds: 1,
            batch_secs: 1.0,
            calibration_score: 1e7,
            shuffle_skew: ShuffleSkew {
                parallelism: 4,
                roundrobin_bytes: 4000,
                keyrange_bytes: 3000,
            },
            overload: sample_overload(),
            serving: sample_serving(),
            entries: vec![BaselineEntry {
                algo: "clustream".into(),
                pipeline: PIPELINE_OVERLAPPED.into(),
                strategy: "roundrobin".into(),
                parallelism: 4,
                records: 90,
                records_per_sec: 1234.5,
                assignment_secs: 0.01,
                local_secs: 0.02,
                local_cpu_secs: 0.03,
                global_secs: 0.005,
                overhead_secs: 0.002,
                total_secs: 0.035,
                latency_p50_secs: 0.6,
                latency_p95_secs: 1.1,
                latency_p99_secs: 1.4,
            }],
        };
        let json = baseline_to_json(&report);
        assert!(json.contains("\"schema\": 6"));
        assert!(json.contains("\"predict_qps_while_streaming\": 150000"));
        assert!(json.contains("\"reader_threads\": 2"));
        assert!(json.contains("\"epochs_published\": 12"));
        assert!(json.contains("\"shed_fraction\": 0.62"));
        assert!(json.contains("\"error_bound\": 0.021"));
        assert!(json.contains("\"approx_latency_secs\": 0.45"));
        // Digests are 64-bit and must survive a float-only JSON parser, so
        // they are serialized as fixed-width hex strings.
        assert!(json.contains("\"model_digest_p1\": \"00000000deadbeef\""));
        assert!(json.contains("\"model_digest_p4\": \"00000000deadbeef\""));
        assert!(json.contains("\"algo\": \"clustream\""));
        assert!(json.contains("\"pipeline\": \"overlapped\""));
        assert!(json.contains("\"strategy\": \"roundrobin\""));
        assert!(json.contains(
            "\"shuffle_skew\": {\"parallelism\": 4, \"roundrobin_bytes\": 4000, \
             \"keyrange_bytes\": 3000}"
        ));
        assert!(json.contains("\"parallelism\": 4"));
        assert!(json.contains("\"records_per_sec\": 1234.5"));
        assert!(json.contains("\"overhead_secs\": 0.002"));
        assert!(json.contains("\"latency_p95_secs\": 1.1"));
        // Valid JSON must not end entries with a trailing comma.
        assert!(!json.contains("},\n  ]"));
    }

    #[test]
    fn tiny_baseline_run_produces_full_matrix() {
        let spec = BaselineSpec {
            quick: true,
            records: 600,
            rounds: 1,
            seed: 7,
        };
        let pipelines = [
            (PIPELINE_SYNC, PipelineOptions::sync()),
            (PIPELINE_OVERLAPPED, PipelineOptions::all()),
        ];
        let report = run_baseline_pipelines(&spec, &pipelines).unwrap();
        assert_eq!(report.entries.len(), 4 * PARALLELISMS.len() * 2);
        // The overload scenario ships with every report and must meet the
        // gates bench-check enforces on blessed files.
        let o = &report.overload;
        assert!(o.shed_fraction > 0.0, "scenario must actually shed");
        assert!(o.approx_latency_secs <= o.target_latency_secs);
        assert!(o.exact_latency_secs > o.target_latency_secs);
        assert!(o.purity_delta <= o.error_bound);
        assert_eq!(o.model_digest_p1, o.model_digest_p4);
        // The serving section ships with every report: readers answered
        // queries and snapshots were published for every batch.
        assert!(report.serving.predicts_total > 0);
        assert!(report.serving.predict_qps > 0.0);
        assert!(report.serving.epochs_published > 0);
        // The skew section is measured on every run and meets the gate even
        // on this tiny workload: the reduction is structural (placement
        // co-location), not a property of stream length.
        assert!(report.shuffle_skew.roundrobin_bytes > 0);
        assert!(report.shuffle_skew.keyrange_bytes > 0);
        assert!(
            report.shuffle_skew.reduction_ratio() >= SHUFFLE_SKEW_FACTOR,
            "key-range reduction {:.2}x below {SHUFFLE_SKEW_FACTOR}x",
            report.shuffle_skew.reduction_ratio()
        );
        for e in &report.entries {
            assert!(e.records > 0, "{} p={} empty", e.algo, e.parallelism);
            assert!(e.records_per_sec > 0.0);
            assert_eq!(e.strategy, "roundrobin");
            // Event-time latency percentiles are measured for every cell
            // (both pipelines, all algorithms) and ordered.
            assert!(
                e.latency_p50_secs > 0.0,
                "{} {} p={} has no latency signal",
                e.algo,
                e.pipeline,
                e.parallelism
            );
            assert!(e.latency_p95_secs >= e.latency_p50_secs);
            assert!(e.latency_p99_secs >= e.latency_p95_secs);
        }
        // Every algorithm appears at every parallelism degree, in both
        // pipelines.
        for &p in &PARALLELISMS {
            for algo in ["clustream", "denstream", "dstream", "clustree"] {
                for pipeline in [PIPELINE_SYNC, PIPELINE_OVERLAPPED] {
                    assert!(report
                        .entries
                        .iter()
                        .any(|e| e.algo == algo && e.parallelism == p && e.pipeline == pipeline));
                }
            }
        }
    }
}
