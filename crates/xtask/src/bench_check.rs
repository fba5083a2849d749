//! `xtask bench-check`: the CI performance-regression gate.
//!
//! Re-runs the `bench_baseline` workload and compares the fresh throughput
//! numbers against the committed baseline (`BENCH_BASELINE.json`, or
//! `BENCH_BASELINE_QUICK.json` with `--quick` — the two workloads have
//! different warmup fractions and model shapes, so cross-mode comparison
//! would be meaningless). Fresh measurements land in a mode-namespaced
//! output (`BENCH_CURRENT_QUICK.json` / `BENCH_CURRENT_DEFAULT.json`) so a
//! quick gate and a full run never clobber each other's artifacts, and any
//! file whose recorded `mode` does not match the requested workload is
//! refused. See DESIGN.md §9 for the policy.
//!
//! Machine-speed normalization: each baseline file records a
//! `calibration_score` (element rate of a fixed subtract-square-accumulate
//! loop). Fresh throughput is scaled by `committed_cal / fresh_cal` before
//! comparison, so a uniformly slower CI runner does not read as a
//! regression. A cell fails when its normalized fresh rate drops more than
//! [`REGRESSION_TOLERANCE`] below the committed rate; because single-core
//! runners occasionally degrade mid-run (cache contention from co-tenants
//! that the FLOP-bound calibration loop does not see), the measurement is
//! retried up to [`MAX_ATTEMPTS`] times keeping the best rate per cell, and
//! stops early once everything passes.
//!
//! Overlap win: the overlapped pipeline exists to beat the synchronous one,
//! so the gate additionally requires CluStream at p = 4 to run at least
//! [`OVERLAP_WIN_FACTOR`]× faster overlapped than sync — checked on the
//! committed file (a hard error: a blessed baseline without the win is
//! stale) and on the fresh measurement (retryable like any cell failure).
//! The ratio compares two cells of the same run, so calibration cancels.
//!
//! Scaling loss — a cell whose `p=4 / p=1` speedup fell below half its
//! committed value — is *reported* but does not fail the gate: on small
//! runners the simulated-makespan scaling signal is real but noisy.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use diststream_trace::{attribute_regression, Phase, PhaseDelta};

use crate::json::{self, Json};

/// Maximum tolerated relative throughput drop (0.15 = 15%).
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Reported (non-fatal) loss factor for the p/p1 scaling ratios.
pub const SCALING_LOSS_FACTOR: f64 = 2.0;

/// Parallelism degrees whose speedup over p = 1 the scaling-loss report
/// covers (every degree of the matrix above the singleton).
pub const SCALING_DEGREES: [u64; 3] = [4, 8, 16];

/// Fresh-measurement attempts before declaring a regression real.
pub const MAX_ATTEMPTS: usize = 3;

/// Required overlapped-over-sync throughput factor for CluStream at
/// [`OVERLAP_WIN_PARALLELISM`] (the ISSUE's acceptance bar).
pub const OVERLAP_WIN_FACTOR: f64 = 1.25;

/// Parallelism degree the overlap-win gate checks.
pub const OVERLAP_WIN_PARALLELISM: u64 = 4;

/// Algorithm the overlap-win gate checks.
pub const OVERLAP_WIN_ALGO: &str = "clustream";

/// The one baseline schema version this checker reads (mirrors
/// `diststream_bench::BASELINE_SCHEMA`; the checker keeps its own JSON
/// parser rather than depending on the bench crate it is gating): the
/// p ∈ {1, 4, 8, 16} throughput matrix with per-phase seconds and a
/// `strategy` column, plus the `shuffle_skew`, `overload` and `serving`
/// sections. Both committed baselines are this version; anything else is
/// rejected.
const SUPPORTED_SCHEMA: f64 = 6.0;

/// Required round-robin/key-range charged-shuffle-byte ratio (mirrors
/// `diststream_bench::SHUFFLE_SKEW_FACTOR`).
pub const SHUFFLE_SKEW_FACTOR: f64 = 1.2;

/// The overload section of a baseline: everything in it is
/// virtual-time deterministic, so its gates are absolute (within-file),
/// never calibration-normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadGate {
    /// Latency bar the approximate path must stay under.
    pub target_latency_secs: f64,
    /// Peak modeled latency of the exact (shed-nothing) run.
    pub exact_latency_secs: f64,
    /// Peak modeled latency of the sampled run.
    pub approx_latency_secs: f64,
    /// Fraction of arrivals the sampler shed.
    pub shed_fraction: f64,
    /// Horvitz–Thompson error bound of the final sample.
    pub error_bound: f64,
    /// Purity lost to sampling; must be covered by the bound.
    pub purity_delta: f64,
    /// Hex model digest of the sampled run at p = 1.
    pub model_digest_p1: String,
    /// Hex model digest at p = 4 — must equal the p = 1 digest.
    pub model_digest_p4: String,
}

/// Every way an overload section can fail its gates. Empty means pass. The
/// measurements are deterministic, so a failure on a committed file is a
/// stale bless and a failure on a fresh file is a real regression — there
/// is nothing to retry.
pub fn overload_failures(gate: &OverloadGate) -> Vec<String> {
    let mut failures = Vec::new();
    if gate.approx_latency_secs > gate.target_latency_secs {
        failures.push(format!(
            "overload: approximate path ran at {:.3}s modeled latency, above the {:.3}s target",
            gate.approx_latency_secs, gate.target_latency_secs
        ));
    }
    if gate.exact_latency_secs <= gate.target_latency_secs {
        failures.push(format!(
            "overload: exact path held {:.3}s latency under the {:.3}s target — the scenario \
             is not overloaded, so the approximate win is vacuous",
            gate.exact_latency_secs, gate.target_latency_secs
        ));
    }
    if gate.shed_fraction <= 0.0 {
        failures.push("overload: nothing was shed — the sampler never engaged".to_string());
    }
    if gate.purity_delta > gate.error_bound {
        failures.push(format!(
            "overload: measured purity delta {:.4} exceeds the reported error bound {:.4}",
            gate.purity_delta, gate.error_bound
        ));
    }
    if gate.model_digest_p1 != gate.model_digest_p4 {
        failures.push(format!(
            "overload: p=1 model digest {} != p=4 digest {} — the sampled run lost its \
             bit-identical replay guarantee",
            gate.model_digest_p1, gate.model_digest_p4
        ));
    }
    failures
}

/// The serving section of a baseline: the concurrent-predict
/// workload measured alongside the throughput matrix. `predict_qps` is a
/// wall-clock rate, so its gate is calibration-normalized like the
/// throughput cells; the remaining columns are context for the printout.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingGate {
    /// Driver parallelism of the streaming run the readers raced.
    pub parallelism: f64,
    /// Concurrent predictor threads.
    pub reader_threads: f64,
    /// Answered predicts per wall second of streaming — the gated column.
    pub predict_qps: f64,
    /// Snapshots published during the run (one per applied global update).
    pub epochs_published: f64,
}

/// The predict-throughput failure for the serving gate, if any.
/// `best_qps` is the calibration-normalized best across attempts.
pub fn serving_failure(committed: &ServingGate, best_qps: f64) -> Option<String> {
    (best_qps < committed.predict_qps * (1.0 - REGRESSION_TOLERANCE)).then(|| {
        format!(
            "serving: {best_qps:.0} predict/s is {:.1}% below the committed {:.0} predict/s \
             (tolerance {:.0}%)",
            (1.0 - best_qps / committed.predict_qps) * 100.0,
            committed.predict_qps,
            REGRESSION_TOLERANCE * 100.0
        )
    })
}

/// A throughput cell key: `(algorithm, pipeline, parallelism)`.
pub type CellKey = (String, String, u64);

/// Per-cell critical-path phase seconds, in pipeline order:
/// `[assignment, local_update, global_update, overhead]`.
pub type PhaseSecs = [f64; 4];

/// One parsed baseline report.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// `"quick"` or `"default"`.
    pub mode: String,
    /// Distribution-strategy label every entry ran under.
    pub strategy: String,
    /// `(roundrobin_bytes, keyrange_bytes)` from the `shuffle_skew`
    /// section, both positive.
    pub shuffle_skew: (f64, f64),
    /// The `overload` section.
    pub overload: OverloadGate,
    /// The `serving` section.
    pub serving: ServingGate,
    /// Machine-speed score recorded alongside the measurements.
    pub calibration: f64,
    /// `(algo, pipeline, parallelism) -> records_per_sec`.
    pub cells: BTreeMap<CellKey, f64>,
    /// Per-cell phase seconds, for regression attribution. A cell may be
    /// absent when a file predates the per-phase columns.
    pub phases: BTreeMap<CellKey, PhaseSecs>,
}

impl Baseline {
    /// The round-robin/key-range charged-byte ratio.
    pub fn shuffle_skew_ratio(&self) -> f64 {
        let (roundrobin, keyrange) = self.shuffle_skew;
        roundrobin / keyrange
    }
}

/// Outcome of comparing one fresh measurement set against the baseline.
#[derive(Debug, Default, PartialEq)]
pub struct Comparison {
    /// `(algo, pipeline, p, committed rate, best normalized fresh rate)`.
    pub rows: Vec<(String, String, u64, f64, f64)>,
    /// Human-readable failures (regressed, missing, or overlap-win cells).
    pub failures: Vec<String>,
    /// Non-fatal p4/p1 scaling-loss reports.
    pub scaling_warnings: Vec<String>,
}

/// Parses a baseline report file's JSON into the comparison shape.
pub fn parse_baseline(contents: &str) -> Result<Baseline, String> {
    let doc = json::parse(contents)?;
    match doc.get("schema").and_then(Json::as_num) {
        Some(v) if v == SUPPORTED_SCHEMA => {}
        Some(v) => {
            return Err(format!(
                "unsupported schema {v} (expected {SUPPORTED_SCHEMA})"
            ))
        }
        None => return Err("missing numeric `schema`".to_string()),
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing string `mode`")?
        .to_string();
    let calibration = doc
        .get("calibration_score")
        .and_then(Json::as_num)
        .ok_or("missing numeric `calibration_score`")?;
    // NaN fails too: a baseline without a sane calibration can't normalize.
    if calibration.is_nan() || calibration <= 0.0 {
        return Err(format!("calibration_score {calibration} must be positive"));
    }
    let shuffle_skew = {
        let section = doc
            .get("shuffle_skew")
            .ok_or("missing `shuffle_skew` section")?;
        let field = |name: &str| {
            section
                .get(name)
                .and_then(Json::as_num)
                .ok_or(format!("shuffle_skew: missing numeric `{name}`"))
        };
        let roundrobin = field("roundrobin_bytes")?;
        let keyrange = field("keyrange_bytes")?;
        if roundrobin <= 0.0 || keyrange <= 0.0 {
            return Err(format!(
                "shuffle_skew: byte counts must be positive (roundrobin {roundrobin}, \
                 keyrange {keyrange})"
            ));
        }
        (roundrobin, keyrange)
    };
    let overload = {
        let section = doc.get("overload").ok_or("missing `overload` section")?;
        let num = |name: &str| {
            section
                .get(name)
                .and_then(Json::as_num)
                .ok_or(format!("overload: missing numeric `{name}`"))
        };
        let digest = |name: &str| {
            section
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("overload: missing string `{name}`"))
        };
        OverloadGate {
            target_latency_secs: num("target_latency_secs")?,
            exact_latency_secs: num("exact_latency_secs")?,
            approx_latency_secs: num("approx_latency_secs")?,
            shed_fraction: num("shed_fraction")?,
            error_bound: num("error_bound")?,
            purity_delta: num("purity_delta")?,
            model_digest_p1: digest("model_digest_p1")?,
            model_digest_p4: digest("model_digest_p4")?,
        }
    };
    let serving = {
        let section = doc.get("serving").ok_or("missing `serving` section")?;
        let num = |name: &str| {
            section
                .get(name)
                .and_then(Json::as_num)
                .ok_or(format!("serving: missing numeric `{name}`"))
        };
        let gate = ServingGate {
            parallelism: num("parallelism")?,
            reader_threads: num("reader_threads")?,
            predict_qps: num("predict_qps_while_streaming")?,
            epochs_published: num("epochs_published")?,
        };
        if gate.predict_qps.is_nan() || gate.predict_qps <= 0.0 {
            return Err(format!(
                "serving: predict_qps {} must be positive",
                gate.predict_qps
            ));
        }
        if gate.epochs_published <= 0.0 {
            return Err(
                "serving: epochs_published is zero — the run never published a snapshot"
                    .to_string(),
            );
        }
        gate
    };
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or("missing `entries` array")?;
    let mut cells = BTreeMap::new();
    let mut phases = BTreeMap::new();
    let mut strategy: Option<String> = None;
    for (i, entry) in entries.iter().enumerate() {
        let label = entry
            .get("strategy")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i}: missing string `strategy`"))?;
        match &strategy {
            None => strategy = Some(label.to_string()),
            Some(first) if first != label => {
                return Err(format!(
                    "entry {i}: strategy `{label}` differs from `{first}` — a baseline \
                     file measures exactly one strategy"
                ))
            }
            Some(_) => {}
        }
        let algo = entry
            .get("algo")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i}: missing string `algo`"))?;
        let pipeline = entry
            .get("pipeline")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i}: missing string `pipeline`"))?;
        let p = entry
            .get("parallelism")
            .and_then(Json::as_num)
            .ok_or(format!("entry {i}: missing numeric `parallelism`"))?;
        let rate = entry
            .get("records_per_sec")
            .and_then(Json::as_num)
            .ok_or(format!("entry {i}: missing numeric `records_per_sec`"))?;
        if rate.is_nan() || rate <= 0.0 {
            return Err(format!(
                "entry {i}: records_per_sec {rate} must be positive"
            ));
        }
        let key = (algo.to_string(), pipeline.to_string(), p as u64);
        let phase_cols = [
            "assignment_secs",
            "local_secs",
            "global_secs",
            "overhead_secs",
        ]
        .map(|col| entry.get(col).and_then(Json::as_num));
        if let [Some(a), Some(l), Some(g), Some(o)] = phase_cols {
            phases.insert(key.clone(), [a, l, g, o]);
        }
        cells.insert(key, rate);
    }
    let Some(strategy) = strategy else {
        return Err("baseline has no entries".to_string());
    };
    Ok(Baseline {
        mode,
        strategy,
        shuffle_skew,
        overload,
        serving,
        calibration,
        cells,
        phases,
    })
}

/// The overlapped/sync throughput ratio for the overlap-win gate's cell, if
/// both pipelines are present in `cells`.
pub fn overlap_win_ratio(cells: &BTreeMap<CellKey, f64>) -> Option<f64> {
    let key = |pipeline: &str| {
        (
            OVERLAP_WIN_ALGO.to_string(),
            pipeline.to_string(),
            OVERLAP_WIN_PARALLELISM,
        )
    };
    let sync = cells.get(&key("sync"))?;
    let overlapped = cells.get(&key("overlapped"))?;
    Some(overlapped / sync)
}

/// Phase-level attribution for a regressed cell: the phase whose
/// critical-path seconds grew the most, rendered as a failure-message
/// suffix. Empty when either side lacks the per-phase columns.
fn attribution_suffix(committed: Option<&PhaseSecs>, fresh: Option<&PhaseSecs>) -> String {
    let (Some(base), Some(new)) = (committed, fresh) else {
        return String::new();
    };
    const PHASES: [Phase; 4] = [
        Phase::Assignment,
        Phase::LocalUpdate,
        Phase::GlobalUpdate,
        Phase::Overhead,
    ];
    let deltas: Vec<PhaseDelta> = PHASES
        .iter()
        .zip(base)
        .zip(new)
        .map(|((&phase, &base_secs), &new_secs)| PhaseDelta {
            phase,
            base_secs,
            new_secs,
        })
        .collect();
    match attribute_regression(&deltas) {
        Some(worst) => format!(
            " — largest phase regression: {} ({:+.3}s, {:+.1}%)",
            worst.phase.name(),
            worst.delta_secs(),
            100.0 * worst.rel_change()
        ),
        None => String::new(),
    }
}

/// Compares best-per-cell normalized fresh rates against the committed
/// baseline. `best` holds the running per-cell maximum across attempts;
/// `best_phases` the phase seconds of each cell's best attempt.
pub fn compare(
    committed: &Baseline,
    best: &BTreeMap<CellKey, f64>,
    best_phases: &BTreeMap<CellKey, PhaseSecs>,
) -> Comparison {
    let mut cmp = Comparison::default();
    for ((algo, pipeline, p), &committed_rate) in &committed.cells {
        let key = (algo.clone(), pipeline.clone(), *p);
        match best.get(&key) {
            Some(&fresh_rate) => {
                cmp.rows.push((
                    algo.clone(),
                    pipeline.clone(),
                    *p,
                    committed_rate,
                    fresh_rate,
                ));
                if fresh_rate < committed_rate * (1.0 - REGRESSION_TOLERANCE) {
                    cmp.failures.push(format!(
                        "{algo} {pipeline} p={p}: {fresh_rate:.0} rec/s is {:.1}% below the \
                         committed {committed_rate:.0} rec/s (tolerance {:.0}%){}",
                        (1.0 - fresh_rate / committed_rate) * 100.0,
                        REGRESSION_TOLERANCE * 100.0,
                        attribution_suffix(committed.phases.get(&key), best_phases.get(&key))
                    ));
                }
            }
            None => cmp.failures.push(format!(
                "{algo} {pipeline} p={p}: missing from the fresh measurement"
            )),
        }
    }
    // Overlap win on the fresh measurement. The ratio compares two cells of
    // the same runs, so the calibration factor cancels.
    match overlap_win_ratio(best) {
        Some(ratio) if ratio < OVERLAP_WIN_FACTOR => cmp.failures.push(format!(
            "{OVERLAP_WIN_ALGO} p={OVERLAP_WIN_PARALLELISM}: overlapped is only {ratio:.2}x \
             sync (gate requires {OVERLAP_WIN_FACTOR}x)"
        )),
        Some(_) => {}
        None if overlap_win_ratio(&committed.cells).is_some() => cmp.failures.push(format!(
            "{OVERLAP_WIN_ALGO} p={OVERLAP_WIN_PARALLELISM}: overlap-win cells missing from \
             the fresh measurement"
        )),
        None => {}
    }
    // p/p1 scaling loss for every degree of [`SCALING_DEGREES`], per
    // (algorithm, pipeline) present at both degrees in both sets. The
    // calibration factor cancels in the ratio.
    let lanes: Vec<(&String, &String)> = committed
        .cells
        .keys()
        .map(|(algo, pipeline, _)| (algo, pipeline))
        .collect();
    for (algo, pipeline) in lanes {
        let key = |p: u64| (algo.clone(), pipeline.clone(), p);
        for degree in SCALING_DEGREES {
            let committed_scaling = match (
                committed.cells.get(&key(degree)),
                committed.cells.get(&key(1)),
            ) {
                (Some(&rp), Some(&r1)) => rp / r1,
                _ => continue,
            };
            let fresh_scaling = match (best.get(&key(degree)), best.get(&key(1))) {
                (Some(&rp), Some(&r1)) => rp / r1,
                _ => continue,
            };
            let tag = format!("{algo} {pipeline} p{degree}/p1");
            if fresh_scaling * SCALING_LOSS_FACTOR < committed_scaling
                && !cmp.scaling_warnings.iter().any(|w| w.starts_with(&tag))
            {
                cmp.scaling_warnings.push(format!(
                    "{tag}: scaling fell from {committed_scaling:.2}x to \
                     {fresh_scaling:.2}x (more than {SCALING_LOSS_FACTOR}x loss)"
                ));
            }
        }
    }
    cmp
}

/// Folds one fresh run into the per-cell best map, normalizing by the
/// calibration ratio so machine speed cancels. Phase seconds follow their
/// cell: when an attempt becomes a cell's best, its phase times (scaled by
/// the inverse ratio — rates scale up where times scale down) come along.
pub fn fold_best(
    committed: &Baseline,
    fresh: &Baseline,
    best: &mut BTreeMap<CellKey, f64>,
    best_phases: &mut BTreeMap<CellKey, PhaseSecs>,
) {
    let scale = committed.calibration / fresh.calibration;
    for (key, &rate) in &fresh.cells {
        let normalized = rate * scale;
        let improved = match best.get(key) {
            Some(&current) => normalized > current,
            None => true,
        };
        if improved {
            best.insert(key.clone(), normalized);
            if let Some(phases) = fresh.phases.get(key) {
                best_phases.insert(key.clone(), phases.map(|secs| secs / scale));
            }
        }
    }
}

/// Repo-relative committed baseline path for a mode.
pub fn committed_path(quick: bool) -> &'static str {
    if quick {
        "BENCH_BASELINE_QUICK.json"
    } else {
        "BENCH_BASELINE.json"
    }
}

/// Repo-relative fresh-measurement output path for a mode. Namespaced per
/// workload so `--quick` gates and full runs never overwrite each other.
pub fn fresh_path(quick: bool) -> &'static str {
    if quick {
        "BENCH_CURRENT_QUICK.json"
    } else {
        "BENCH_CURRENT_DEFAULT.json"
    }
}

/// Runs the full gate: load committed baseline, measure fresh (retrying up
/// to [`MAX_ATTEMPTS`] times, early exit on pass), print the comparison.
/// Returns `Ok(true)` on pass, `Ok(false)` on regression.
pub fn run_gate(root: &Path, quick: bool) -> Result<bool, String> {
    let committed_file = root.join(committed_path(quick));
    let contents = std::fs::read_to_string(&committed_file)
        .map_err(|err| format!("cannot read {}: {err}", committed_file.display()))?;
    let committed =
        parse_baseline(&contents).map_err(|err| format!("{}: {err}", committed_file.display()))?;
    let expected_mode = if quick { "quick" } else { "default" };
    if committed.mode != expected_mode {
        return Err(format!(
            "{}: mode is `{}` but this gate runs the `{expected_mode}` workload — \
             refusing the mismatched baseline",
            committed_file.display(),
            committed.mode
        ));
    }
    // The blessed values must themselves meet the bar — skew bytes and the
    // overload section are both deterministic, so failing here is a hard
    // error (stale bless), not a flaky measurement.
    let ratio = committed.shuffle_skew_ratio();
    if ratio < SHUFFLE_SKEW_FACTOR {
        return Err(format!(
            "{}: committed roundrobin/keyrange shuffle-byte ratio is {ratio:.2}x, \
             below the required {SHUFFLE_SKEW_FACTOR}x — re-bless from a run that \
             meets the bar",
            committed_file.display()
        ));
    }
    let failures = overload_failures(&committed.overload);
    if !failures.is_empty() {
        return Err(format!(
            "{}: committed overload section fails its gates — re-bless from a run that \
             meets the bar:\n  {}",
            committed_file.display(),
            failures.join("\n  ")
        ));
    }
    // A blessed baseline must itself demonstrate the overlap win; failing
    // here is a hard error, not a flaky measurement.
    match overlap_win_ratio(&committed.cells) {
        Some(ratio) if ratio < OVERLAP_WIN_FACTOR => {
            return Err(format!(
                "{}: committed overlapped/sync ratio for {OVERLAP_WIN_ALGO} \
                 p={OVERLAP_WIN_PARALLELISM} is {ratio:.2}x, below the required \
                 {OVERLAP_WIN_FACTOR}x — re-bless from a run that meets the bar",
                committed_file.display()
            ))
        }
        Some(_) => {}
        None => {
            return Err(format!(
                "{}: missing {OVERLAP_WIN_ALGO} p={OVERLAP_WIN_PARALLELISM} sync/overlapped \
                 cells for the overlap-win gate",
                committed_file.display()
            ))
        }
    }

    let fresh_file = root.join(fresh_path(quick));
    let mut best: BTreeMap<CellKey, f64> = BTreeMap::new();
    let mut best_phases: BTreeMap<CellKey, PhaseSecs> = BTreeMap::new();
    let mut comparison = Comparison::default();
    let mut last_fresh = None;
    let mut best_serving_qps = 0.0_f64;
    for attempt in 1..=MAX_ATTEMPTS {
        let fresh = measure_fresh(root, quick, &fresh_file)?;
        if fresh.mode != expected_mode {
            return Err(format!(
                "{}: fresh measurement ran in `{}` mode, expected `{expected_mode}` — \
                 refusing the mismatched workload",
                fresh_file.display(),
                fresh.mode
            ));
        }
        if committed.strategy != fresh.strategy {
            return Err(format!(
                "{}: fresh measurement ran strategy `{}` but the committed baseline \
                 is `{}` — refusing the mismatched configuration",
                fresh_file.display(),
                fresh.strategy,
                committed.strategy
            ));
        }
        fold_best(&committed, &fresh, &mut best, &mut best_phases);
        // predict_qps is wall-clock like the throughput cells, so the same
        // calibration normalization and best-of-attempts retry policy apply.
        best_serving_qps = best_serving_qps
            .max(fresh.serving.predict_qps * (committed.calibration / fresh.calibration));
        comparison = compare(&committed, &best, &best_phases);
        comparison
            .failures
            .extend(serving_failure(&committed.serving, best_serving_qps));
        // Fresh shuffle skew and overload gates: deterministic, but checked
        // per attempt so a regression shows up alongside the throughput
        // failures.
        let ratio = fresh.shuffle_skew_ratio();
        if ratio < SHUFFLE_SKEW_FACTOR {
            comparison.failures.push(format!(
                "shuffle skew: fresh roundrobin/keyrange ratio is only {ratio:.2}x \
                 (gate requires {SHUFFLE_SKEW_FACTOR}x)"
            ));
        }
        comparison
            .failures
            .extend(overload_failures(&fresh.overload));
        last_fresh = Some(fresh);
        if comparison.failures.is_empty() {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            println!(
                "xtask bench-check: attempt {attempt}/{MAX_ATTEMPTS} regressed, retrying \
                 (best rate per cell is kept)"
            );
        }
    }

    println!(
        "xtask bench-check: {} mode vs {} (calibration-normalized)",
        expected_mode,
        committed_file.display()
    );
    for (algo, pipeline, p, committed_rate, fresh_rate) in &comparison.rows {
        println!(
            "  {algo:<10} {pipeline:<10} p={p}  committed {committed_rate:>12.0} rec/s  \
             fresh {fresh_rate:>12.0} rec/s  ({:+.1}%)",
            (fresh_rate / committed_rate - 1.0) * 100.0
        );
    }
    if let Some(ratio) = overlap_win_ratio(&best) {
        println!(
            "  overlap win: {OVERLAP_WIN_ALGO} p={OVERLAP_WIN_PARALLELISM} overlapped/sync = \
             {ratio:.2}x (required {OVERLAP_WIN_FACTOR}x)"
        );
    }
    if let Some(fresh) = &last_fresh {
        println!(
            "  shuffle skew: roundrobin/keyrange charged bytes = {:.2}x \
             (required {SHUFFLE_SKEW_FACTOR}x)",
            fresh.shuffle_skew_ratio()
        );
        let gate = &fresh.overload;
        println!(
            "  overload: shed {:.1}% — latency approx {:.2}s vs exact {:.2}s (target {:.2}s), \
             purity delta {:.4} within bound {:.4}, digest p1 {} p4 {}",
            100.0 * gate.shed_fraction,
            gate.approx_latency_secs,
            gate.exact_latency_secs,
            gate.target_latency_secs,
            gate.purity_delta,
            gate.error_bound,
            gate.model_digest_p1,
            gate.model_digest_p4,
        );
    }
    let gate = &committed.serving;
    println!(
        "  serving: {best_serving_qps:.0} predict/s (normalized) vs committed {:.0} predict/s \
         (p={}, {} readers, {} epochs blessed)",
        gate.predict_qps, gate.parallelism, gate.reader_threads, gate.epochs_published
    );
    for warning in &comparison.scaling_warnings {
        println!("  warning: {warning}");
    }
    for failure in &comparison.failures {
        println!("  FAIL: {failure}");
    }
    if comparison.failures.is_empty() {
        println!(
            "xtask bench-check: OK — {} cell(s) within {:.0}% of the committed baseline",
            comparison.rows.len(),
            REGRESSION_TOLERANCE * 100.0
        );
        Ok(true)
    } else {
        println!(
            "xtask bench-check: {} regression(s) after {MAX_ATTEMPTS} attempt(s); \
             if intentional, re-bless with `cargo run --release -p diststream-bench \
             --bin bench_baseline -- {}--out {}` (see DESIGN.md §9)",
            comparison.failures.len(),
            if quick { "--quick " } else { "" },
            committed_path(quick)
        );
        Ok(false)
    }
}

/// Runs one fresh `bench_baseline` measurement and parses its output file.
fn measure_fresh(root: &Path, quick: bool, out: &Path) -> Result<Baseline, String> {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).args([
        "run",
        "--release",
        "-q",
        "-p",
        "diststream-bench",
        "--bin",
        "bench_baseline",
        "--",
    ]);
    if quick {
        cmd.arg("--quick");
    }
    cmd.arg("--out").arg(out);
    let status = cmd
        .status()
        .map_err(|err| format!("cannot spawn cargo: {err}"))?;
    if !status.success() {
        return Err(format!("bench_baseline exited with {status}"));
    }
    let contents = std::fs::read_to_string(out)
        .map_err(|err| format!("cannot read {}: {err}", out.display()))?;
    parse_baseline(&contents).map_err(|err| format!("{}: {err}", out.display()))
}

/// Parses `bench-check` arguments: `[--quick] [--root <path>]`.
pub fn parse_args(args: &[String]) -> Result<(bool, Option<PathBuf>), String> {
    let mut quick = false;
    let mut root = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--root" => match iter.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return Err("--root requires a path argument".to_string()),
            },
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok((quick, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing_gate() -> OverloadGate {
        OverloadGate {
            target_latency_secs: 1.0,
            exact_latency_secs: 7.5,
            approx_latency_secs: 0.45,
            shed_fraction: 0.62,
            error_bound: 0.021,
            purity_delta: 0.01,
            model_digest_p1: "00000000deadbeef".to_string(),
            model_digest_p4: "00000000deadbeef".to_string(),
        }
    }

    fn passing_serving() -> ServingGate {
        ServingGate {
            parallelism: 4.0,
            reader_threads: 2.0,
            predict_qps: 150_000.0,
            epochs_published: 12.0,
        }
    }

    fn baseline(mode: &str, calibration: f64, cells: &[(&str, &str, u64, f64)]) -> Baseline {
        Baseline {
            mode: mode.to_string(),
            strategy: "roundrobin".to_string(),
            shuffle_skew: (1_300_000.0, 1_000_000.0),
            overload: passing_gate(),
            serving: passing_serving(),
            calibration,
            cells: cells
                .iter()
                .map(|(algo, pipeline, p, rate)| {
                    ((algo.to_string(), pipeline.to_string(), *p), *rate)
                })
                .collect(),
            phases: BTreeMap::new(),
        }
    }

    fn best_of(
        committed: &Baseline,
        fresh: &Baseline,
    ) -> (BTreeMap<CellKey, f64>, BTreeMap<CellKey, PhaseSecs>) {
        let mut best = BTreeMap::new();
        let mut best_phases = BTreeMap::new();
        fold_best(committed, fresh, &mut best, &mut best_phases);
        (best, best_phases)
    }

    fn compare_of(committed: &Baseline, fresh: &Baseline) -> Comparison {
        let (best, best_phases) = best_of(committed, fresh);
        compare(committed, &best, &best_phases)
    }

    #[test]
    fn parses_real_baseline_json() {
        let contents = r#"{
  "schema": 6,
  "mode": "default",
  "dataset": "KDD-99",
  "records": 12000,
  "rounds": 3,
  "batch_secs": 1,
  "calibration_score": 1500000000.5,
  "shuffle_skew": {"parallelism": 4, "roundrobin_bytes": 4000000, "keyrange_bytes": 3000000},
  "overload": {"batch_secs": 0.25, "capacity_per_batch": 70, "target_latency_secs": 1, "exact_latency_secs": 7.5, "approx_latency_secs": 0.45, "shed_fraction": 0.62, "error_bound": 0.021, "exact_purity": 0.97, "approx_purity": 0.96, "purity_delta": 0.01, "ssq_delta": 0.05, "measured_batches": 18, "vacuous_batches": 2, "model_digest_p1": "00000000deadbeef", "model_digest_p4": "00000000deadbeef"},
  "serving": {"parallelism": 4, "reader_threads": 2, "streaming_secs": 1.25, "predicts_total": 187500, "predict_qps_while_streaming": 150000, "epochs_published": 12, "final_epoch": 11},
  "entries": [
    {"algo": "clustream", "pipeline": "sync", "strategy": "roundrobin", "parallelism": 1, "records": 35760, "records_per_sec": 106935.4, "assignment_secs": 0.168, "local_secs": 0.007, "local_cpu_secs": 0.007, "global_secs": 0.16, "overhead_secs": 0.005, "total_secs": 0.34, "latency_p50_secs": 0.6, "latency_p95_secs": 1.1, "latency_p99_secs": 1.4},
    {"algo": "clustream", "pipeline": "sync", "strategy": "roundrobin", "parallelism": 16, "records": 35760, "records_per_sec": 406935.4, "assignment_secs": 0.042, "local_secs": 0.002, "local_cpu_secs": 0.007, "global_secs": 0.16, "overhead_secs": 0.005, "total_secs": 0.21, "latency_p50_secs": 0.4, "latency_p95_secs": 0.8, "latency_p99_secs": 1.0}
  ]
}
"#;
        let parsed = parse_baseline(contents).expect("valid baseline");
        assert_eq!(parsed.mode, "default");
        assert_eq!(parsed.calibration, 1_500_000_000.5);
        assert_eq!(parsed.strategy, "roundrobin");
        assert_eq!(parsed.shuffle_skew, (4_000_000.0, 3_000_000.0));
        assert!((parsed.shuffle_skew_ratio() - 4.0 / 3.0).abs() < 1e-12);
        let gate = &parsed.overload;
        assert_eq!(gate.model_digest_p1, "00000000deadbeef");
        assert_eq!(gate.purity_delta, 0.01);
        assert!(overload_failures(gate).is_empty(), "{gate:?}");
        let serving = &parsed.serving;
        assert_eq!(serving.predict_qps, 150_000.0);
        assert_eq!(serving.reader_threads, 2.0);
        assert_eq!(serving.epochs_published, 12.0);
        let key = ("clustream".to_string(), "sync".to_string(), 1);
        assert_eq!(parsed.cells.get(&key), Some(&106_935.4));
        assert_eq!(parsed.phases.get(&key), Some(&[0.168, 0.007, 0.16, 0.005]));
        let key16 = ("clustream".to_string(), "sync".to_string(), 16);
        assert_eq!(parsed.cells.get(&key16), Some(&406_935.4));
    }

    const SKEW: &str =
        r#""shuffle_skew": {"parallelism": 4, "roundrobin_bytes": 4, "keyrange_bytes": 3}"#;
    const OVERLOAD: &str = r#""overload": {"target_latency_secs": 1, "exact_latency_secs": 7,
        "approx_latency_secs": 0.4, "shed_fraction": 0.5, "error_bound": 0.02,
        "purity_delta": 0.01, "model_digest_p1": "00000000deadbeef",
        "model_digest_p4": "00000000deadbeef"}"#;
    const SERVING: &str = r#""serving": {"parallelism": 4, "reader_threads": 2,
        "predict_qps_while_streaming": 1000, "epochs_published": 12}"#;
    const ENTRIES: &str = r#""entries": [{"algo": "clustream", "pipeline": "sync",
        "strategy": "roundrobin", "parallelism": 1, "records_per_sec": 10.0}]"#;

    /// A schema-`schema` document made of the given top-level members.
    fn doc(schema: u32, members: &[&str]) -> String {
        format!(
            r#"{{"schema": {schema}, "mode": "default", "calibration_score": 1, {}}}"#,
            members.join(", ")
        )
    }

    fn parse_err(members: &[&str]) -> String {
        parse_baseline(&doc(6, members)).unwrap_err()
    }

    #[test]
    fn every_section_is_required_and_validated() {
        parse_baseline(&doc(6, &[SKEW, OVERLOAD, SERVING, ENTRIES])).expect("complete file");

        assert!(parse_err(&[OVERLOAD, SERVING, ENTRIES]).contains("shuffle_skew"));
        let zero_bytes =
            r#""shuffle_skew": {"parallelism": 4, "roundrobin_bytes": 4, "keyrange_bytes": 0}"#;
        assert!(parse_err(&[zero_bytes, OVERLOAD, SERVING, ENTRIES]).contains("positive"));

        assert!(parse_err(&[SKEW, SERVING, ENTRIES]).contains("overload"));
        // Digests must be strings — a numeric digest would lose precision
        // in the f64-only parser, so it is rejected as missing.
        let numeric_digest = OVERLOAD.replace(r#""00000000deadbeef""#, "123");
        assert!(parse_err(&[SKEW, &numeric_digest, SERVING, ENTRIES]).contains("model_digest_p1"));

        assert!(parse_err(&[SKEW, OVERLOAD, ENTRIES]).contains("serving"));
        let zero_qps = SERVING.replace("1000", "0");
        assert!(parse_err(&[SKEW, OVERLOAD, &zero_qps, ENTRIES]).contains("predict_qps"));
        let no_epochs = SERVING.replace("12", "0");
        assert!(parse_err(&[SKEW, OVERLOAD, &no_epochs, ENTRIES]).contains("never published"));
    }

    #[test]
    fn entries_need_one_strategy_a_pipeline_and_at_least_one_cell() {
        let with_entries = |entries: &str| parse_err(&[SKEW, OVERLOAD, SERVING, entries]);
        assert!(with_entries(r#""entries": []"#).contains("no entries"));
        let no_strategy = r#""entries": [{"algo": "clustream", "pipeline": "sync",
            "parallelism": 1, "records_per_sec": 10.0}]"#;
        assert!(with_entries(no_strategy).contains("strategy"));
        let no_pipeline = r#""entries": [{"algo": "clustream", "strategy": "roundrobin",
            "parallelism": 1, "records_per_sec": 10.0}]"#;
        assert!(with_entries(no_pipeline).contains("pipeline"));
        let mixed = r#""entries": [
            {"algo": "clustream", "pipeline": "sync", "strategy": "roundrobin",
             "parallelism": 1, "records_per_sec": 10.0},
            {"algo": "clustream", "pipeline": "sync", "strategy": "keyrange",
             "parallelism": 4, "records_per_sec": 10.0}]"#;
        assert!(with_entries(mixed).contains("exactly one strategy"));
    }

    /// Both committed baselines are schema 6; every other version — the
    /// retired v3/v4/v5 included — is one "unsupported schema" error.
    #[test]
    fn any_other_schema_is_unsupported() {
        for schema in [2, 3, 4, 5, 7] {
            let err =
                parse_baseline(&doc(schema, &[SKEW, OVERLOAD, SERVING, ENTRIES])).unwrap_err();
            assert!(err.contains("unsupported schema"), "schema {schema}: {err}");
        }
    }

    #[test]
    fn serving_gate_fails_only_beyond_tolerance() {
        let gate = passing_serving();
        // 10% down: within the 15% tolerance.
        assert_eq!(serving_failure(&gate, 135_000.0), None);
        // 20% down: regression.
        let failure = serving_failure(&gate, 120_000.0).expect("regression");
        assert!(failure.contains("predict/s"), "{failure}");
    }

    #[test]
    fn scaling_loss_covers_p8_and_p16_degrees() {
        let committed = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 100_000.0),
                ("clustream", "sync", 16, 1_200_000.0),
            ],
        );
        // p1 improves 12x, p16 flat: scaling 12.0x -> 1.0x, rates fine.
        let fresh = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 1_200_000.0),
                ("clustream", "sync", 16, 1_200_000.0),
            ],
        );
        let cmp = compare_of(&committed, &fresh);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert_eq!(cmp.scaling_warnings.len(), 1, "{:?}", cmp.scaling_warnings);
        assert!(
            cmp.scaling_warnings[0].contains("p16/p1"),
            "{:?}",
            cmp.scaling_warnings
        );
    }

    #[test]
    fn overload_gates_catch_each_failure_mode() {
        assert!(overload_failures(&passing_gate()).is_empty());
        let fail = |mutate: fn(&mut OverloadGate), needle: &str| {
            let mut gate = passing_gate();
            mutate(&mut gate);
            let failures = overload_failures(&gate);
            assert!(
                failures.iter().any(|f| f.contains(needle)),
                "expected a failure mentioning `{needle}`, got {failures:?}"
            );
        };
        fail(|g| g.approx_latency_secs = 2.0, "above the");
        fail(|g| g.exact_latency_secs = 0.5, "not overloaded");
        fail(|g| g.shed_fraction = 0.0, "never engaged");
        fail(|g| g.purity_delta = 0.5, "exceeds the reported error bound");
        fail(
            |g| g.model_digest_p4 = "0badc0de0badc0de".to_string(),
            "replay",
        );
    }

    #[test]
    fn equal_rates_pass_within_tolerance() {
        let committed = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        let fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 90_000.0)]);
        let cmp = compare_of(&committed, &fresh);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let committed = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        let fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 80_000.0)]);
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("clustream"), "{:?}", cmp.failures);
    }

    #[test]
    fn pipelines_are_distinct_cells() {
        // A regression in the overlapped lane is caught even when the sync
        // lane at the same (algo, p) is healthy.
        let committed = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 100_000.0),
                ("clustream", "overlapped", 1, 150_000.0),
            ],
        );
        let fresh = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 100_000.0),
                ("clustream", "overlapped", 1, 100_000.0),
            ],
        );
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("overlapped"), "{:?}", cmp.failures);
    }

    #[test]
    fn calibration_ratio_normalizes_slow_machines() {
        // Half-speed machine: raw rate halves, calibration halves — no fail.
        let committed = baseline("quick", 2e9, &[("clustream", "sync", 1, 100_000.0)]);
        let fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 50_000.0)]);
        let cmp = compare_of(&committed, &fresh);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn missing_cell_fails() {
        let committed = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 100_000.0),
                ("dstream", "sync", 1, 100_000.0),
            ],
        );
        let fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("dstream"));
    }

    #[test]
    fn best_of_retries_keeps_per_cell_maximum() {
        let committed = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        let slow = baseline("quick", 1e9, &[("clustream", "sync", 1, 40_000.0)]);
        let fast = baseline("quick", 1e9, &[("clustream", "sync", 1, 99_000.0)]);
        let mut best = BTreeMap::new();
        let mut best_phases = BTreeMap::new();
        fold_best(&committed, &slow, &mut best, &mut best_phases);
        assert_eq!(compare(&committed, &best, &best_phases).failures.len(), 1);
        fold_best(&committed, &fast, &mut best, &mut best_phases);
        assert!(compare(&committed, &best, &best_phases).failures.is_empty());
    }

    #[test]
    fn regression_failures_name_the_guilty_phase() {
        let key = ("clustream".to_string(), "sync".to_string(), 1);
        let mut committed = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        committed
            .phases
            .insert(key.clone(), [0.10, 0.05, 0.02, 0.01]);
        let mut fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 70_000.0)]);
        fresh.phases.insert(key.clone(), [0.10, 0.12, 0.02, 0.01]);
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(
            cmp.failures[0].contains("largest phase regression: local_update"),
            "{:?}",
            cmp.failures
        );

        // Without phase columns the failure still fires, just unattributed.
        let committed = baseline("quick", 1e9, &[("clustream", "sync", 1, 100_000.0)]);
        let fresh = baseline("quick", 1e9, &[("clustream", "sync", 1, 70_000.0)]);
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1);
        assert!(
            !cmp.failures[0].contains("largest phase regression"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn overlap_win_below_factor_fails_fresh_comparison() {
        let committed = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 4, 100_000.0),
                ("clustream", "overlapped", 4, 150_000.0),
            ],
        );
        // Both cells within tolerance individually, but the ratio collapsed
        // to 1.04x < 1.25x.
        let fresh = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 4, 125_000.0),
                ("clustream", "overlapped", 4, 130_000.0),
            ],
        );
        let cmp = compare_of(&committed, &fresh);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(cmp.failures[0].contains("1.25"), "{:?}", cmp.failures);

        let healthy = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 4, 100_000.0),
                ("clustream", "overlapped", 4, 140_000.0),
            ],
        );
        let cmp = compare_of(&committed, &healthy);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn overlap_win_ratio_needs_both_pipelines() {
        let committed = baseline("quick", 1e9, &[("clustream", "sync", 4, 100_000.0)]);
        assert_eq!(overlap_win_ratio(&committed.cells), None);
        let both = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 4, 100_000.0),
                ("clustream", "overlapped", 4, 150_000.0),
            ],
        );
        assert_eq!(overlap_win_ratio(&both.cells), Some(1.5));
    }

    #[test]
    fn scaling_loss_is_reported_but_not_fatal() {
        let committed = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 100_000.0),
                ("clustream", "sync", 4, 400_000.0),
            ],
        );
        // p1 improves, p4 flat: scaling 4.0x -> 1.0x, rates themselves fine.
        let fresh = baseline(
            "quick",
            1e9,
            &[
                ("clustream", "sync", 1, 400_000.0),
                ("clustream", "sync", 4, 400_000.0),
            ],
        );
        let cmp = compare_of(&committed, &fresh);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert_eq!(cmp.scaling_warnings.len(), 1);
        assert!(cmp.scaling_warnings[0].contains("scaling"));
    }

    #[test]
    fn parse_args_handles_flags() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert_eq!(parse_args(&args(&[])).unwrap(), (false, None));
        assert_eq!(parse_args(&args(&["--quick"])).unwrap(), (true, None));
        let (quick, root) = parse_args(&args(&["--quick", "--root", "/x"])).unwrap();
        assert!(quick);
        assert_eq!(root, Some(PathBuf::from("/x")));
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--root"])).is_err());
    }

    #[test]
    fn output_paths_depend_on_mode() {
        assert_eq!(committed_path(false), "BENCH_BASELINE.json");
        assert_eq!(committed_path(true), "BENCH_BASELINE_QUICK.json");
        assert_eq!(fresh_path(false), "BENCH_CURRENT_DEFAULT.json");
        assert_eq!(fresh_path(true), "BENCH_CURRENT_QUICK.json");
    }
}
