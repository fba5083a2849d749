//! The overload scenario: synchronous ingestion driven past capacity,
//! measured twice over the same stream.
//!
//! The *exact* run processes every record; feeding its per-window arrival
//! counts through the same deterministic service model the load-shed policy
//! uses shows the backlog latency growing without bound — sync ingestion
//! has fallen behind. The *approximate* run turns on the seeded stratified
//! sampler ([`diststream_core::OverloadOptions`]); backpressure holds the
//! modeled latency under [`OVERLOAD_TARGET_LATENCY_SECS`] at a quality
//! delta the Horvitz–Thompson error bound must cover. Everything here is
//! virtual-time arithmetic over a seeded sample, so the scenario reproduces
//! bit-identically, and the model digests double as a replay gate: a p = 1
//! rerun and p = 4 must match, or [`measure_overload`] fails. The five
//! conditions the scenario must meet are asserted by this module's tests;
//! `repro matrix` only prints it.

use diststream_algorithms::offline::{kmeans, KmeansParams};
use diststream_core::{
    DistStreamJob, OverloadOptions, OverloadStats, PipelineOptions, StreamClustering,
};
use diststream_engine::{
    encode, fnv1a_hash, ExecutionMode, LoadShedPolicy, StreamingContext, VecSource,
};
use diststream_quality::{nearest_assignment_bounded, purity_with_coverage, ssq, CoverageScore};
use diststream_types::{ClusteringConfig, DistStreamError, Record, Result};

use crate::bundle::Bundle;

/// Mini-batch width of the overload scenario — narrower than the matrix's
/// [`crate::matrix::BATCH_SECS`] so the backpressure loop gets ~20 control
/// intervals over the stress stream's few virtual seconds.
pub(crate) const OVERLOAD_BATCH_SECS: f64 = 0.25;

/// Offered load over capacity: the executor's capacity is sized to a third
/// of the per-window arrival rate, a sustained 3× overload.
pub(crate) const OVERLOAD_FACTOR: f64 = 3.0;

/// Latency bar the approximate path must hold: four windows of modeled
/// backlog, matching the policy's own drain horizon.
pub(crate) const OVERLOAD_TARGET_LATENCY_SECS: f64 = 4.0 * OVERLOAD_BATCH_SECS;

/// Sampler seed of the scenario.
pub(crate) const OVERLOAD_SEED: u64 = 0xD157_10AD;

/// Strata count of the scenario.
pub(crate) const OVERLOAD_STRATA: u32 = 8;

/// The measured overload section of a matrix report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OverloadScenario {
    /// Mini-batch width of both runs, virtual seconds.
    pub batch_secs: f64,
    /// Executor capacity per window (records), derived from the arrival
    /// rate so the overload factor is [`OVERLOAD_FACTOR`] at any scale.
    pub capacity_per_batch: u32,
    /// Latency bar the approximate path must stay under.
    pub target_latency_secs: f64,
    /// Peak modeled backlog latency of the exact (shed-nothing) run.
    pub exact_latency_secs: f64,
    /// Peak modeled backlog latency of the sampled run.
    pub approx_latency_secs: f64,
    /// Fraction of post-init arrivals the sampler shed.
    pub shed_fraction: f64,
    /// Horvitz–Thompson error bound of the final sample.
    pub error_bound: f64,
    /// Purity of the exact run's final model over the post-init stream.
    pub exact_purity: f64,
    /// Purity of the sampled run's final model over the same records.
    pub approx_purity: f64,
    /// Purity lost to sampling (clamped at zero; the bound must cover it).
    pub purity_delta: f64,
    /// Relative change in per-clustered-record SSE, sampled vs exact.
    pub ssq_delta: f64,
    /// Batches whose window had records the offline phase could cluster.
    pub measured_batches: usize,
    /// Batches where nothing clustered — their quality scores are vacuous
    /// and excluded from the measured count, never reported as perfect.
    pub vacuous_batches: usize,
    /// FNV-1a digest of the sampled run's encoded model at p = 1.
    pub model_digest_p1: u64,
    /// Same digest at p = 4 — must equal the p = 1 digest (replay gate).
    pub model_digest_p4: u64,
}

fn overload_options(capacity_per_batch: u32) -> OverloadOptions {
    OverloadOptions {
        seed: OVERLOAD_SEED,
        strata: OVERLOAD_STRATA,
        capacity_per_batch,
        min_rate_ppm: 50_000,
        adapt_window: true,
    }
}

type CluModel = <diststream_algorithms::CluStream as StreamClustering>::Model;

/// Final-model quality over `window`: offline k-means on the snapshot, then
/// coverage-aware purity and the per-clustered-record mean SSE.
fn evaluate_model(
    bundle: &Bundle,
    algo: &diststream_algorithms::CluStream,
    model: &CluModel,
    window: &[Record],
) -> (CoverageScore, f64) {
    let snapshot = algo.snapshot(model);
    let macros = kmeans(&snapshot, KmeansParams::new(bundle.kind.clusters()));
    let assignment = nearest_assignment_bounded(window, &macros.centroids, bundle.coverage_bound());
    let coverage = purity_with_coverage(window, &assignment);
    let mean_sse = if coverage.clustered > 0 {
        ssq(window, &assignment, &macros.centroids) / coverage.clustered as f64
    } else {
        0.0
    };
    (coverage, mean_sse)
}

/// The scenario's job on `bundle`: the stress records, their
/// initialization count, the overload options with the capacity sized to
/// [`OVERLOAD_FACTOR`], and the [`OVERLOAD_BATCH_SECS`] window.
fn scenario(bundle: &Bundle) -> Result<(Vec<Record>, usize, OverloadOptions, ClusteringConfig)> {
    let records = bundle.stress_records();
    let init = bundle.init_records().min(records.len());
    let post_init = &records[init..];
    let (first, last) = match (post_init.first(), post_init.last()) {
        (Some(first), Some(last)) => (first, last),
        _ => return Err(DistStreamError::EmptyStream),
    };
    let duration = (last.timestamp.secs() - first.timestamp.secs()).max(1e-9);
    let per_window = post_init.len() as f64 * OVERLOAD_BATCH_SECS / duration;
    let capacity = ((per_window / OVERLOAD_FACTOR) as u32).max(1);
    let config = ClusteringConfig::builder()
        .batch_secs(OVERLOAD_BATCH_SECS)
        .build()?;
    Ok((records, init, overload_options(capacity), config))
}

/// FNV-1a digest of the scenario's sampled CluStream model on `bundle` at
/// parallelism `p`, on `executor`'s update protocol: the replay gate's
/// reruns and `repro digest`'s overload rows.
///
/// # Errors
///
/// Propagates engine failures.
pub(crate) fn overload_digest(bundle: &Bundle, p: usize, executor: PipelineOptions) -> Result<u64> {
    let (records, init, opts, config) = scenario(bundle)?;
    let algo = bundle.clustream();
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated)?;
    let mut job = DistStreamJob::new(&algo, &ctx, config);
    job.init_records(init)
        .pipeline(executor.with_overload(opts));
    Ok(fnv1a_hash(&encode(
        &job.run_to_end(VecSource::new(records))?.model,
    )))
}

/// Measures the overload scenario on `bundle`'s stress stream (one round —
/// the scenario stresses the control loop, not the `large-*` replays).
///
/// # Errors
///
/// Propagates engine failures; fails hard when the sampled model bytes
/// diverge between the p = 1 rerun and p = 4 (the replay gate).
pub(crate) fn measure_overload(bundle: &Bundle) -> Result<OverloadScenario> {
    let (records, init, opts, config) = scenario(bundle)?;
    let post_init = &records[init..];
    let capacity = opts.capacity_per_batch;
    let algo = bundle.clustream();

    // Exact reference: everything processed, per-window arrivals collected.
    let ctx1 = StreamingContext::new(1, ExecutionMode::Simulated)?;
    let mut arrivals: Vec<u64> = Vec::new();
    let mut exact_job = DistStreamJob::new(&algo, &ctx1, config);
    exact_job
        .init_records(init)
        .pipeline(PipelineOptions::sync());
    let exact = exact_job.run(VecSource::new(records.clone()), |report| {
        arrivals.push(report.outcome.metrics.records as u64);
    })?;
    // The exact path sheds nothing, so under the same service model its
    // backlog latency compounds every window: sync ingestion falls behind.
    let mut exact_policy =
        LoadShedPolicy::new(u64::from(capacity), OVERLOAD_BATCH_SECS, opts.min_rate_ppm);
    let mut exact_latency = 0.0f64;
    for &arrived in &arrivals {
        exact_policy.observe_batch(arrived, arrived, 0);
        exact_latency = exact_latency.max(exact_policy.virtual_latency_secs());
    }

    // Approximate run at p = 1, classifying every batch window as measured
    // or vacuous against the model of record at that point in the stream.
    let mut measured_batches = 0usize;
    let mut vacuous_batches = 0usize;
    let (mut lo, mut hi) = (init, init);
    let mut approx_job = DistStreamJob::new(&algo, &ctx1, config);
    approx_job
        .init_records(init)
        .pipeline(PipelineOptions::sync().with_overload(opts));
    let approx = approx_job.run(VecSource::new(records.clone()), |report| {
        while hi < records.len() && records[hi].timestamp <= report.window_end {
            hi += 1;
        }
        let window = &records[lo..hi];
        lo = hi;
        if window.is_empty() {
            return;
        }
        let snapshot = algo.snapshot(report.model);
        let macros = kmeans(&snapshot, KmeansParams::new(bundle.kind.clusters()));
        let assignment =
            nearest_assignment_bounded(window, &macros.centroids, bundle.coverage_bound());
        if purity_with_coverage(window, &assignment).is_vacuous() {
            vacuous_batches += 1;
        } else {
            measured_batches += 1;
        }
    })?;
    let stats: OverloadStats = approx
        .overload
        .expect("overload pipeline always reports stats");

    // Replay gate, enforced in-binary before anything is printed: a p = 1
    // rerun and a p = 4 run must reproduce the model bytes exactly.
    let model_digest_p1 = fnv1a_hash(&encode(&approx.model));
    if overload_digest(bundle, 1, PipelineOptions::sync())? != model_digest_p1 {
        return Err(DistStreamError::Engine(
            "overload scenario: p=1 rerun produced different model bytes".to_string(),
        ));
    }
    let model_digest_p4 = overload_digest(bundle, 4, PipelineOptions::sync())?;
    if model_digest_p1 != model_digest_p4 {
        return Err(DistStreamError::Engine(format!(
            "overload scenario: p=1 model digest {model_digest_p1:016x} != p=4 digest \
             {model_digest_p4:016x}"
        )));
    }

    let (exact_cov, exact_mean_sse) = evaluate_model(bundle, &algo, &exact.model, post_init);
    let (approx_cov, approx_mean_sse) = evaluate_model(bundle, &algo, &approx.model, post_init);
    let ssq_delta = if exact_mean_sse > 0.0 {
        (approx_mean_sse - exact_mean_sse) / exact_mean_sse
    } else {
        0.0
    };
    Ok(OverloadScenario {
        batch_secs: OVERLOAD_BATCH_SECS,
        capacity_per_batch: capacity,
        target_latency_secs: OVERLOAD_TARGET_LATENCY_SECS,
        exact_latency_secs: exact_latency,
        approx_latency_secs: stats.max_virtual_latency_secs,
        shed_fraction: stats.shed as f64 / stats.seen.max(1) as f64,
        error_bound: stats.error_bound,
        exact_purity: exact_cov.score,
        approx_purity: approx_cov.score,
        purity_delta: (exact_cov.score - approx_cov.score).max(0.0),
        ssq_delta,
        measured_batches,
        vacuous_batches,
        model_digest_p1,
        model_digest_p4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::DatasetKind;

    #[test]
    fn overload_scenario_meets_its_own_gates() {
        let bundle = Bundle::new(DatasetKind::Kdd99, 1500, 11);
        let s = measure_overload(&bundle).expect("overload scenario");
        assert!(s.capacity_per_batch >= 1);
        assert!(s.shed_fraction > 0.0, "3x overload must shed");
        assert!(s.shed_fraction < 1.0);
        assert!(
            s.approx_latency_secs <= s.target_latency_secs,
            "approx latency {} above target {}",
            s.approx_latency_secs,
            s.target_latency_secs
        );
        assert!(
            s.exact_latency_secs > s.target_latency_secs,
            "exact latency {} must breach the target {}",
            s.exact_latency_secs,
            s.target_latency_secs
        );
        assert!(s.error_bound > 0.0 && s.error_bound.is_finite());
        assert!(
            s.purity_delta <= s.error_bound,
            "purity delta {} exceeds the reported bound {}",
            s.purity_delta,
            s.error_bound
        );
        assert!(s.measured_batches > 0, "quality must be measured somewhere");
        assert_eq!(s.model_digest_p1, s.model_digest_p4);
    }

    #[test]
    fn overload_scenario_is_deterministic_across_calls() {
        let bundle = Bundle::new(DatasetKind::Kdd99, 1200, 5);
        let a = measure_overload(&bundle).expect("first run");
        let b = measure_overload(&bundle).expect("second run");
        assert_eq!(a, b, "virtual-time scenario must reproduce exactly");
    }
}
