//! Generic quality and throughput runners used by the experiments.

use diststream_algorithms::offline::{kmeans, KmeansParams};
use diststream_core::{
    DistStreamJob, PipelineOptions, SequentialExecutor, SequentialSummary, StreamClustering,
    UpdateOrdering, WeightedPoint,
};
use diststream_engine::{
    ExecutionMode, RepeatSource, StreamingContext, ThroughputMeter, VecSource,
};
use diststream_quality::{cmm, nearest_assignment_bounded, CmmParams};
use diststream_types::{ClusteringConfig, Record, Result, Timestamp};

use crate::bundle::Bundle;
use crate::cluster::{Replay, SimCostModel};

/// Which executor drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecutorKind {
    /// DistStream's order-aware mini-batch executor.
    OrderAware,
    /// The unordered mini-batch baseline.
    Unordered,
    /// The order-aware executor on the asynchronous update protocol
    /// (§VII-D2 future work): everything else at the paper defaults.
    Async,
}

impl ExecutorKind {
    /// The corresponding core-crate ordering flag.
    fn ordering(self) -> UpdateOrdering {
        match self {
            ExecutorKind::Unordered => UpdateOrdering::Unordered,
            ExecutorKind::OrderAware | ExecutorKind::Async => UpdateOrdering::OrderAware,
        }
    }

    fn pipeline(self) -> PipelineOptions {
        PipelineOptions {
            overlap: self == ExecutorKind::Async,
            ..PipelineOptions::sync()
        }
    }
}

/// Result of a quality run: the CMM trajectory and fault statistics.
#[derive(Debug, Clone, Default)]
pub(crate) struct QualityOutcome {
    /// `(virtual stream seconds, CMM)` at every batch end.
    pub series: Vec<(f64, f64)>,
    /// Mean CMM over the stream.
    pub avg_cmm: f64,
    /// Total missed records across evaluations.
    pub missed: usize,
    /// Total misplaced records across evaluations.
    pub misplaced: usize,
    /// Records the online phase labelled outliers.
    pub outlier_records: usize,
    /// Outlier micro-clusters created (before pre-merge).
    pub created_micro_clusters: usize,
    /// Outlier micro-clusters remaining after pre-merge.
    pub created_after_premerge: usize,
    /// Throughput metrics of the run.
    pub meter: ThroughputMeter,
}

/// Mean CMM of a series (1.0 over an empty one).
fn avg_cmm(series: &[(f64, f64)]) -> f64 {
    if series.is_empty() {
        1.0
    } else {
        series.iter().map(|(_, c)| c).sum::<f64>() / series.len() as f64
    }
}

fn evaluate(
    bundle: &Bundle,
    records: &[Record],
    processed: usize,
    snapshot: &[WeightedPoint],
    now: Timestamp,
) -> diststream_quality::CmmBreakdown {
    let macros = kmeans(snapshot, KmeansParams::new(bundle.kind.clusters()));
    let params = CmmParams::default();
    let upto = processed.min(records.len());
    let start = upto.saturating_sub(params.horizon);
    let window = &records[start..upto];
    let assignment = nearest_assignment_bounded(window, &macros.centroids, bundle.coverage_bound());
    cmm(window, &assignment, now, &params)
}

/// Runs a DistStream (or unordered-baseline) quality experiment at
/// parallelism `p` on the simulated cluster: stream at the quality rate,
/// evaluate CMM at the end of every batch using the offline phase, exactly
/// as §VII-B1 prescribes.
///
/// # Errors
///
/// Propagates engine failures and empty-stream errors.
pub(crate) fn run_quality<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    p: usize,
    kind: ExecutorKind,
    batch_secs: f64,
    premerge: bool,
) -> Result<QualityOutcome> {
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated)?;
    let records = bundle.quality_records();
    let config = ClusteringConfig::builder().batch_secs(batch_secs).build()?;
    let mut processed = bundle.init_records();
    let mut series = Vec::new();
    let mut missed = 0;
    let mut misplaced = 0;
    let mut outliers = 0;
    let mut created = 0;
    let mut premerged = 0;

    let mut job = DistStreamJob::new(algo, &ctx, config);
    // Pre-merge is a DistStream contribution (§V-C); the unordered baseline
    // does not have it, which is also why it handles more outlier
    // micro-clusters in the global update (§VII-C2).
    job.init_records(bundle.init_records())
        .ordering(kind.ordering())
        .pipeline(kind.pipeline())
        .premerge(premerge && kind != ExecutorKind::Unordered);
    let result = job.run(VecSource::new(records.clone()), |report| {
        processed += report.outcome.metrics.records;
        outliers += report.outcome.outlier_records;
        created += report.outcome.created_micro_clusters;
        premerged += report.outcome.created_after_premerge;
        let snapshot = algo.snapshot(report.model);
        let out = evaluate(bundle, &records, processed, &snapshot, report.window_end);
        missed += out.missed;
        misplaced += out.misplaced;
        series.push((report.window_end.secs(), out.cmm));
    })?;

    Ok(QualityOutcome {
        avg_cmm: avg_cmm(&series),
        series,
        missed,
        misplaced,
        outlier_records: outliers,
        created_micro_clusters: created,
        created_after_premerge: premerged,
        meter: result.meter,
    })
}

/// Runs the one-record-at-a-time (MOA analog) quality experiment, with CMM
/// evaluated at the same virtual-time interval as the mini-batch runs.
///
/// # Errors
///
/// Returns an error if the stream is empty.
pub(crate) fn run_sequential_quality<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    batch_secs: f64,
) -> Result<QualityOutcome> {
    let records = bundle.quality_records();
    let init = bundle.init_records();
    if records.is_empty() {
        return Err(diststream_types::DistStreamError::EmptyStream);
    }
    let mut model = algo.init(&records[..init.min(records.len())])?;
    let exec = SequentialExecutor::new(algo);

    let mut series = Vec::new();
    let mut missed = 0;
    let mut misplaced = 0;
    let mut next_eval = records
        .get(init)
        .map_or(Timestamp::ZERO, |r| r.timestamp + batch_secs);
    for (i, record) in records.iter().enumerate().skip(init) {
        exec.process_record(&mut model, record)
            .expect("sequential quality run");
        if record.timestamp >= next_eval || i == records.len() - 1 {
            let snapshot = algo.snapshot(&model);
            let out = evaluate(bundle, &records, i + 1, &snapshot, record.timestamp);
            missed += out.missed;
            misplaced += out.misplaced;
            series.push((record.timestamp.secs(), out.cmm));
            next_eval = record.timestamp + batch_secs;
        }
    }
    Ok(QualityOutcome {
        avg_cmm: avg_cmm(&series),
        series,
        missed,
        misplaced,
        ..QualityOutcome::default()
    })
}

/// The modeled cluster of the throughput runs: the default charges, with
/// the fixed scheduling/broadcast costs scaled by the bundle's workload
/// scale so the overhead-to-compute ratio matches a full-size deployment
/// (see [`SimCostModel::workload_scale`]).
pub(crate) fn throughput_cost(bundle: &Bundle) -> SimCostModel {
    SimCostModel {
        workload_scale: bundle.scale.min(1.0),
        ..SimCostModel::default()
    }
}

/// Runs a stress-rate throughput experiment on the modeled cluster:
/// `rounds` replays of the bundle's stream (the `large-*` datasets are ten
/// replays, §VII-A) through the mini-batch executor on a simulated context
/// of parallelism `p`, each recorded batch priced by `cost` ([`Replay`]).
///
/// # Errors
///
/// Propagates engine failures and empty-stream errors.
pub(crate) fn run_throughput<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    p: usize,
    cost: SimCostModel,
    kind: ExecutorKind,
    batch_secs: f64,
    rounds: usize,
) -> Result<ThroughputMeter> {
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated)?;
    let base = bundle.stress_records();
    let config = ClusteringConfig::builder().batch_secs(batch_secs).build()?;
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(bundle.init_records())
        .ordering(kind.ordering())
        .pipeline(kind.pipeline())
        .premerge(kind != ExecutorKind::Unordered);
    let mut replay = Replay::new(cost);
    let run = job.run(RepeatSource::new(base, rounds), |report| {
        replay.batch(&report.outcome.metrics);
    })?;
    Ok(replay.meter(&run.meter))
}

/// Runs the one-record-at-a-time throughput baseline (wall-clock measured).
///
/// # Errors
///
/// Returns an error if the stream is empty.
pub(crate) fn run_sequential_throughput<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    rounds: usize,
) -> Result<SequentialSummary> {
    let base = bundle.stress_records();
    let init = bundle.init_records().min(base.len());
    if base.is_empty() {
        return Err(diststream_types::DistStreamError::EmptyStream);
    }
    let mut model = algo.init(&base[..init])?;
    let exec = SequentialExecutor::new(algo);
    let mut source = RepeatSource::new(base, rounds);
    // Skip the initialization prefix to match the mini-batch runs.
    for _ in 0..init {
        let _ = diststream_engine::RecordSource::next_record(&mut source);
    }
    exec.process_stream(&mut model, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::DatasetKind;

    fn small_bundle() -> Bundle {
        Bundle::new(DatasetKind::CoverType, 4000, 3)
    }

    #[test]
    fn quality_runner_produces_series() {
        let bundle = small_bundle();
        let algo = bundle.clustream();
        let out = run_quality(&algo, &bundle, 2, ExecutorKind::OrderAware, 10.0, true).unwrap();
        assert!(!out.series.is_empty());
        assert!(out.avg_cmm > 0.0 && out.avg_cmm <= 1.0);
        assert!(out.meter.records() > 0);
    }

    #[test]
    fn sequential_quality_runner_produces_series() {
        let bundle = small_bundle();
        let algo = bundle.clustream();
        let out = run_sequential_quality(&algo, &bundle, 10.0).unwrap();
        assert!(!out.series.is_empty());
        assert!(out.avg_cmm > 0.0 && out.avg_cmm <= 1.0);
    }

    #[test]
    fn throughput_runner_counts_all_rounds() {
        let bundle = small_bundle();
        let algo = bundle.denstream();
        let cost = throughput_cost(&bundle);
        let out =
            run_throughput(&algo, &bundle, 4, cost, ExecutorKind::OrderAware, 10.0, 2).unwrap();
        assert_eq!(out.records(), 2 * bundle.records() - bundle.init_records());
        assert!(out.records_per_sec() > 0.0);
    }

    #[test]
    fn sequential_throughput_runner_runs() {
        let bundle = small_bundle();
        let algo = bundle.clustream();
        let out = run_sequential_throughput(&algo, &bundle, 1).unwrap();
        assert_eq!(out.records, bundle.records() - bundle.init_records());
        assert!(out.records_per_sec() > 0.0);
    }
}
