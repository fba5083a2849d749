//! One measuring process: set-up and the untraced run, or — traced — the
//! reference run, the stepped pass and the micro section; then the
//! correctness checks and the result.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use diststream_core::{ServingHandle, StreamClustering};
use diststream_engine::{encode, fnv1a_hash};
use diststream_quality::{nearest_assignment, purity};
use diststream_types::{Point, Record};
use serde::de::DeserializeOwned;

use crate::loadgen::Pace;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::micro::run_micro;
use crate::result::ResultLine;
use crate::run::{
    beside_reader, end_to_end, reader_loop, run_job, tail_note, timed, work_for, Metric, ReaderObs,
    RunOut, VERIFY_PREDICTS,
};
use crate::stats::{quantile, sorted, supports};
use crate::stepped::{run_stepped, write_trace, Stepped, LAYERS, SERIAL_LAYERS};
use crate::workloads::{
    build_inputs, clustream, clustree, denstream, dstream, Algo, Inputs, Workload, BATCH_SECS,
    PURITY_FLOOR, PURITY_RECORDS,
};

/// Seconds the post-stream predict phase lasts on workloads without a
/// live reader.
pub const QUIET_READER_SECS: f64 = 0.4;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Record counts ÷ 20; numbers are not comparable.
    pub quick: bool,
    /// Where traces land.
    pub out_dir: PathBuf,
    /// When `main` started: `setup_s` counts from here.
    pub process_start: Instant,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Records generated plus predicts attempted.
    pub attempted: u64,
    /// Records dropped, predicts lost or wrong.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line the contract asks for.
    pub fn result(&self) -> ResultLine {
        ResultLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).unwrap_or("?");
                    (name.to_string(), *value, unit.to_string())
                })
                .collect(),
        }
    }
}

/// Runs workload `w` under `opts`.
///
/// # Errors
///
/// Returns a message when the run could not be carried out at all (engine
/// error, too short to time); check failures come back inside the
/// [`Outcome`] instead.
pub fn run_workload(w: &Workload, opts: &Opts) -> Result<Outcome, String> {
    match w.algo {
        Algo::CluStream => drive(w, opts, |inputs| clustream(w, inputs)),
        Algo::ClusTree => drive(w, opts, |inputs| clustree(w, inputs)),
        Algo::DStream => drive(w, opts, dstream),
        Algo::DenStream => drive(w, opts, denstream),
    }
}

fn drive<A, F>(w: &Workload, opts: &Opts, make_algo: F) -> Result<Outcome, String>
where
    A: StreamClustering,
    A::Model: DeserializeOwned,
    F: Fn(&Inputs) -> A,
{
    let inputs = build_inputs(w, opts.seed, opts.quick);
    let algo = make_algo(&inputs);
    if opts.trace {
        traced(w, opts, &inputs, &algo)
    } else {
        // One process, one set-up: generate, stamp, build, initialize,
        // first batch — from process start to the first callback of the
        // measured run itself.
        let work = work_for(w, &inputs, opts.seconds, opts.quick);
        let out = run_job(w, &inputs, &algo, opts.quick, work)?;
        let first = out.callbacks.first().ok_or("no batch completed")?;
        let setup_secs = first
            .at
            .saturating_duration_since(opts.process_start)
            .as_secs_f64();
        untraced::<A>(w, opts, &inputs, out, setup_secs)
    }
}

/// The reader's view of a run: the live reader's, or — where the workload
/// leaves no core for one — the same loop run after the stream against the
/// final snapshot.
fn reader_obs<M>(w: &Workload, opts: &Opts, inputs: &Inputs, out: &RunOut<M>) -> ReaderObs {
    match &out.reader {
        Some(obs) => obs.clone(),
        None => {
            debug_assert!(!w.live_reader);
            let secs = if opts.quick { 0.2 } else { QUIET_READER_SECS };
            let until = Instant::now() + Duration::from_secs_f64(secs);
            reader_loop(&out.handle, &inputs.queries, |i| {
                i % 1024 != 0 || Instant::now() < until
            })
        }
    }
}

/// Checks every run must pass; returns `(failures, failed operations)`.
fn common_checks<M>(
    inputs: &Inputs,
    out: &RunOut<M>,
    reader: &ReaderObs,
    notes: &mut Vec<String>,
) -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    let integrated: u64 = out.callbacks.iter().map(|c| c.records as u64).sum();
    let (late, dup) = out.drops;
    let emitted = out.gen.emitted();
    let init = inputs.init_records as u64;
    if init + integrated + late as u64 + dup as u64 != emitted {
        failures.push(format!(
            "conservation: init {init} + integrated {integrated} + late {late} + dup {dup} != generated {emitted}"
        ));
    }
    if late + dup > 0 {
        failures.push(format!("reorder dropped {late} late, {dup} duplicate"));
    }
    let published = out.handle.version();
    if published != out.callbacks.len() as u64 {
        failures.push(format!(
            "epochs published {published} != batches {}",
            out.callbacks.len()
        ));
    }
    failures.extend(purity_check(inputs, &out.handle, emitted, notes));
    if reader.verified == 0 || reader.mismatched > 0 {
        failures.push(format!(
            "predict vs naive scan: {} of {} sampled predicts differ",
            reader.mismatched, reader.verified
        ));
    }
    if reader.lost > 0 {
        failures.push(format!("{} predicts lost a published model", reader.lost));
    }
    notes.push(format!(
        "  checks: conservation {init}+{integrated}+{late}+{dup}={emitted}, epochs {published}, predicts verified {}/{VERIFY_PREDICTS}",
        reader.verified
    ));
    let failed = (late + dup) as u64 + reader.lost + u64::from(reader.mismatched);
    (failures, failed)
}

/// Purity of the final snapshot over the last records generated.
fn purity_check(
    inputs: &Inputs,
    handle: &ServingHandle,
    emitted: u64,
    notes: &mut Vec<String>,
) -> Option<String> {
    let Some((_, snapshot)) = handle.latest() else {
        return Some("nothing was published".into());
    };
    let centroids: Vec<Point> = snapshot.centroids.iter().map(|c| c.point.clone()).collect();
    let n = inputs.base.len() as u64;
    let last: Vec<Record> = (emitted.saturating_sub(PURITY_RECORDS as u64)..emitted)
        .map(|i| inputs.base[(i % n) as usize].clone())
        .collect();
    let score = purity(&last, &nearest_assignment(&last, &centroids));
    notes.push(format!(
        "  purity of final snapshot over last {} records: {score:.4} (floor {PURITY_FLOOR}), {} micro-clusters",
        last.len(),
        centroids.len()
    ));
    (score < PURITY_FLOOR).then(|| format!("purity {score:.4} below floor {PURITY_FLOOR}"))
}

fn digest<M: serde::Serialize>(model: &M) -> u64 {
    fnv1a_hash(&encode(model))
}

fn finish(
    catalogue: impl Iterator<Item = &'static str>,
    mut metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    // Catalogue order, every name exactly once.
    let mut ordered = Vec::with_capacity(metrics.len());
    for name in catalogue {
        let at = metrics
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.push(metrics.swap_remove(at));
    }
    if let Some((name, _)) = metrics.first() {
        return Err(format!("metric {name} is not in the catalogue"));
    }
    if let Some((name, v)) = ordered.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }
    for f in &failures {
        notes.push(format!("  FAILED: {f}"));
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics: ordered,
        notes,
    })
}

fn untraced<A: StreamClustering>(
    w: &Workload,
    opts: &Opts,
    inputs: &Inputs,
    out: RunOut<A::Model>,
    setup_secs: f64,
) -> Result<Outcome, String> {
    let t = timed(w, inputs, &out)?;
    let reader = reader_obs(w, opts, inputs, &out);
    let mut notes = vec![format!(
        "  set-up {setup_secs:.3}s; timed phase: {:.2}s wall, {} batches, {} records",
        t.wall_secs, t.batches, t.records
    )];
    notes.push(tail_note("batch interval", "ms", &t.batch_ms));
    notes.push(tail_note("publish latency", "ms", &t.publish_ms));
    notes.push(tail_note("record latency", "ms", &t.record_ms));
    notes.push(tail_note("predict latency", "us", &reader.latency_us()));
    notes.push(format!(
        "  model digest {:016x} after {} records",
        digest(&out.model),
        out.gen.emitted()
    ));
    let (mut failures, mut failed) = common_checks(inputs, &out, &reader, &mut notes);
    failures.extend(open_loop_validity(w, opts, inputs, &out, &mut notes));
    // For the parent process, which combines its children batch by batch.
    notes.extend(t.series.to_lines());
    let metrics = end_to_end(&t, &reader, setup_secs);
    if !failures.is_empty() {
        failed = failed.max(1);
    }
    finish(
        END_TO_END.iter().map(|m| m.name),
        metrics,
        failures,
        out.gen.emitted() + reader.attempted,
        failed,
        notes,
    )
}

/// Open-loop validity limits, as shares of the batch window: the
/// generator's own lag (p95) and the backlog the run ended on.
pub const LAG_LIMIT_WINDOWS: f64 = 0.1;
/// See [`LAG_LIMIT_WINDOWS`].
pub const BACKLOG_LIMIT_WINDOWS: f64 = 2.0;

/// Whether an open-loop run kept its schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoop {
    /// p95 of the generator's lag over the records it waited on, ms.
    pub lag_p95_ms: f64,
    /// Worst `pull − due` over the run's last two windows, ms.
    pub final_backlog_ms: f64,
    /// Why the run is invalid (not merely slow), if it is.
    pub invalid: Option<String>,
}

/// Judges an open-loop run from the generator's samples (`lags`, `behind`:
/// seconds, in emission order; `behind` holds `per_window` samples per
/// batch window of `window_ms`).
pub fn open_loop_verdict(
    lags: &[f64],
    behind: &[f64],
    window_ms: f64,
    per_window: usize,
) -> OpenLoop {
    let lags_ms = sorted(lags.iter().map(|s| s * 1e3).collect());
    let lag_p95_ms = if lags_ms.is_empty() {
        0.0
    } else {
        quantile(&lags_ms, 0.95)
    };
    let tail = &behind[behind.len().saturating_sub((2 * per_window).max(1))..];
    let final_backlog_ms = tail.iter().copied().fold(0.0, f64::max) * 1e3;
    let (lag_limit, backlog_limit) = (
        LAG_LIMIT_WINDOWS * window_ms,
        BACKLOG_LIMIT_WINDOWS * window_ms,
    );
    let invalid = if behind.is_empty() {
        Some("open-loop run sampled no pull".into())
    } else if lag_p95_ms > lag_limit || final_backlog_ms > backlog_limit {
        Some(format!(
            "INVALID open-loop run: generator lag p95 {lag_p95_ms:.4}ms (limit {lag_limit:.3}ms), final backlog {final_backlog_ms:.3}ms (limit {backlog_limit:.3}ms)"
        ))
    } else {
        None
    };
    OpenLoop {
        lag_p95_ms,
        final_backlog_ms,
        invalid,
    }
}

/// The batch window of an open-loop workload: its wall milliseconds and the
/// pull samples (release quanta) it holds. `None` on a saturated workload.
fn window(w: &Workload, opts: &Opts, inputs: &Inputs) -> Option<(f64, usize)> {
    let Pace::Fixed { rps, quantum } = w.pace(opts.quick) else {
        return None;
    };
    let records = BATCH_SECS / inputs.record_gap_secs;
    Some((
        records / rps * 1e3,
        (records / quantum as f64).ceil() as usize,
    ))
}

/// Open-loop validity of a run of `w` (`None` on a saturated workload).
fn open_loop<M>(w: &Workload, opts: &Opts, inputs: &Inputs, out: &RunOut<M>) -> Option<OpenLoop> {
    let (window_ms, per_window) = window(w, opts, inputs)?;
    Some(open_loop_verdict(
        out.gen.lags(),
        out.gen.behind(),
        window_ms,
        per_window,
    ))
}

/// Notes a run's open-loop verdict; returns why it is invalid, if it is.
fn open_loop_validity<M>(
    w: &Workload,
    opts: &Opts,
    inputs: &Inputs,
    out: &RunOut<M>,
    notes: &mut Vec<String>,
) -> Option<String> {
    let verdict = open_loop(w, opts, inputs, out)?;
    notes.push(format!(
        "  open loop: generator lag p95 {:.4}ms over {} waits, final backlog {:.3}ms",
        verdict.lag_p95_ms,
        out.gen.lags().len(),
        verdict.final_backlog_ms
    ));
    verdict.invalid
}

fn traced<A>(w: &Workload, opts: &Opts, inputs: &Inputs, algo: &A) -> Result<Outcome, String>
where
    A: StreamClustering,
    A::Model: DeserializeOwned,
{
    // Two passes over the same fixed work, half the run length each.
    let work = work_for(w, inputs, opts.seconds / 2.0, opts.quick);
    let reference = run_job(w, inputs, algo, opts.quick, work)?;
    let ref_timed = timed(w, inputs, &reference)?;
    let reader = reader_obs(w, opts, inputs, &reference);
    // The stepped pass runs beside the same reader load as the reference
    // run, so the two reconcile like for like.
    let stepped_handle = diststream_core::serving_handle();
    let (stepped, _) = beside_reader(w.live_reader, &stepped_handle, &inputs.queries, || {
        run_stepped(w, inputs, algo, work, &stepped_handle)
    })?;
    let stepped = stepped?;

    let mut notes = vec![
        tail_note("batch interval", "ms", &ref_timed.batch_ms),
        tail_note("publish latency", "ms", &ref_timed.publish_ms),
        tail_note("record latency", "ms", &ref_timed.record_ms),
        tail_note("predict latency", "us", &reader.latency_us()),
    ];
    let (mut failures, mut failed) = common_checks(inputs, &reference, &reader, &mut notes);
    failures.extend(open_loop_validity(w, opts, inputs, &reference, &mut notes));
    let (ref_digest, stepped_digest) = (digest(&reference.model), digest(&stepped.model));
    notes.push(format!(
        "  model digest {ref_digest:016x} after {work} records (stepped: {stepped_digest:016x})"
    ));
    if ref_digest != stepped_digest {
        failures.push("stepped run and DistStreamJob::run end on different models".into());
    }
    let (late, dup) = stepped.drops;
    if stepped.init_records as u64 + stepped.integrated + (late + dup) as u64 != stepped.emitted
        || stepped.emitted != reference.gen.emitted()
    {
        failures.push(format!(
            "stepped conservation: init {} + integrated {} + drops {} vs generated {} (reference {})",
            stepped.init_records,
            stepped.integrated,
            late + dup,
            stepped.emitted,
            reference.gen.emitted()
        ));
    }

    let mut metrics = layer_metrics(
        w, opts, inputs, &reference, &ref_timed, &stepped, &reader, &mut notes,
    );
    metrics.extend(run_micro(
        w,
        inputs,
        algo,
        &stepped.model,
        &stepped.sample_batch,
        opts.quick,
    )?);

    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let trace_path = opts.out_dir.join(format!("{}.trace.jsonl", w.name));
    write_trace(&trace_path, &stepped.spans).map_err(|e| e.to_string())?;
    notes.push(format!(
        "  {} spans written to {}",
        stepped.spans.len(),
        trace_path.display()
    ));
    if !failures.is_empty() {
        failed = failed.max(1);
    }
    finish(
        PER_LAYER.iter().map(|m| m.name),
        metrics,
        failures,
        reference.gen.emitted() + stepped.emitted + reader.attempted,
        failed,
        notes,
    )
}

/// Per-layer metrics from the stepped pass, reconciled against the
/// untraced reference run over the same records.
#[allow(clippy::too_many_arguments)]
fn layer_metrics<M>(
    w: &Workload,
    opts: &Opts,
    inputs: &Inputs,
    reference: &RunOut<M>,
    ref_timed: &crate::run::Timed,
    stepped: &Stepped<M>,
    reader: &ReaderObs,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let c = &stepped.counts;
    let batches = c.batches.max(1) as f64;
    let busy: Vec<(&str, f64)> = LAYERS.iter().map(|l| (*l, stepped.busy_secs(l))).collect();
    let of = |layer: &str| {
        busy.iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s)
    };
    let layer_sum: f64 = busy.iter().map(|(_, s)| s).sum();
    let serial: f64 = SERIAL_LAYERS.iter().map(|l| of(l)).sum();
    let stepped_wall = stepped.wall_secs();

    // What the stepped layers are reconciled against. Saturated: the
    // untraced wall of the same records. Open loop: the untraced wall is
    // set by the schedule, so compare service time instead — Σ (last
    // record due → published) against the stepped non-ingest layers
    // (ingest hides inside the window wait when paced).
    let (target, covered, wall_ratio) = match w.paced_rps {
        None => (
            ref_timed.wall_secs,
            layer_sum,
            stepped_wall / ref_timed.wall_secs,
        ),
        Some(_) => {
            let service: f64 = ref_timed.publish_ms.iter().sum::<f64>() / 1e3;
            let stepped_service = layer_sum - of("engine.ingest");
            (service, stepped_service, stepped_service / service)
        }
    };
    let reconcile_err = (covered - target).abs() / target;
    let metered: f64 = reference.callbacks[1..]
        .iter()
        .map(|c| c.metered_secs)
        .sum::<f64>()
        + (reference.meter_secs
            - reference
                .callbacks
                .iter()
                .map(|c| c.metered_secs)
                .sum::<f64>())
        .max(0.0);
    let overlap_hidden = if w.overlapped {
        1.0 - ref_timed.wall_secs / layer_sum
    } else {
        0.0
    };

    notes.push(format!(
        "  stepped pass: {} batches, {} records, {:.3}s wall ({:.3}s untraced); layers:",
        c.batches, c.records, stepped_wall, ref_timed.wall_secs
    ));
    for (layer, secs) in &busy {
        notes.push(format!(
            "    {layer:<22} {secs:>8.3}s  {:>5.1}% of cycle",
            100.0 * secs / stepped_wall
        ));
    }
    notes.push(format!(
        "    {:<22} {:>8.3}s  {:>5.1}% of cycle",
        "(between layers)",
        stepped_wall - layer_sum,
        100.0 * (stepped_wall - layer_sum) / stepped_wall
    ));

    // Tails of the reference run, flagged where the sample is too small.
    let predict_us = reader.latency_us();
    let tails = [
        ("core.pipeline.batch_p95_ms", &ref_timed.batch_ms, 95.0),
        (
            "core.serving.publish_latency_p95_ms",
            &ref_timed.publish_ms,
            95.0,
        ),
        (
            "core.pipeline.record_latency_p99_ms",
            &ref_timed.record_ms,
            99.0,
        ),
        ("algorithms.serving.predict_p99_us", &predict_us, 99.0),
    ];
    for (name, sample, p) in tails {
        if !supports(sample, p) {
            notes.push(format!(
                "  note: fewer than 10 samples beyond {name} (n={})",
                sample.len()
            ));
        }
    }

    // Live counts of the reference run.
    let publish_at = crate::run::publish_times(&reference.callbacks, reference.ended);
    let staleness_us = sorted(
        reader
            .epochs
            .iter()
            .filter_map(|(epoch, seen)| {
                publish_at
                    .get(*epoch as usize)
                    .map(|at| seen.saturating_duration_since(*at).as_secs_f64() * 1e6)
            })
            .collect(),
    );
    let over_window = window(w, opts, inputs).map_or(0, |(window_ms, _)| {
        ref_timed
            .publish_ms
            .iter()
            .filter(|ms| **ms > window_ms)
            .count()
    });
    let live_predicts = if w.live_reader { reader.answered } else { 0 };

    vec![
        ("engine.ingest.busy_s", of("engine.ingest")),
        ("engine.ingest.records", c.records as f64),
        ("engine.reorder.dropped_late", stepped.drops.0 as f64),
        ("engine.reorder.dropped_dup", stepped.drops.1 as f64),
        ("engine.broadcast.busy_s", of("engine.broadcast")),
        (
            "engine.broadcast.bytes_per_batch",
            c.broadcast_bytes as f64 / batches,
        ),
        ("core.assignment.busy_s", of("core.assignment")),
        ("core.assignment.task_cpu_s", c.assign_task_secs),
        ("core.assignment.skew", c.assign_skew_sum / batches),
        (
            "core.assignment.outlier_share",
            c.outlier_records as f64 / c.records.max(1) as f64,
        ),
        ("core.local.busy_s", of("core.local")),
        ("core.local.task_cpu_s", c.local_task_secs),
        ("core.local.shuffle_bytes", c.shuffle_bytes as f64),
        ("core.global.busy_s", of("core.global")),
        ("core.global.created", c.created as f64),
        (
            "core.global.premerged_share",
            c.created.saturating_sub(c.created_after_premerge) as f64 / c.created.max(1) as f64,
        ),
        ("core.serving.publish_busy_s", of("core.serving.publish")),
        (
            "core.serving.snapshot_bytes",
            c.snapshot_bytes as f64 / c.published.max(1) as f64,
        ),
        ("core.pipeline.serial_share", serial / stepped_wall),
        ("core.pipeline.unmetered_share", 1.0 - metered / target),
        ("core.pipelined.overlap_hidden_share", overlap_hidden),
        ("trace.reconcile_err", reconcile_err),
        ("trace.overhead", wall_ratio - 1.0),
        ("algorithms.serving.predicts_total", live_predicts as f64),
        ("algorithms.serving.epochs_seen", reader.epochs.len() as f64),
        (
            "algorithms.serving.staleness_p95_us",
            if w.live_reader && !staleness_us.is_empty() {
                quantile(&staleness_us, 0.95)
            } else {
                0.0
            },
        ),
        (
            "engine.source.generator_lag_p95_ms",
            open_loop(w, opts, inputs, reference).map_or(0.0, |v| v.lag_p95_ms),
        ),
        ("core.pipeline.batches_over_window", over_window as f64),
    ]
    .into_iter()
    .chain(
        tails
            .iter()
            .map(|(name, sample, p)| (*name, quantile(sample, p / 100.0))),
    )
    .collect()
}
