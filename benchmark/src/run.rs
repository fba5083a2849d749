//! The untraced run: `DistStreamJob::run` on real threads, timed from
//! outside, from generated record to published `ServingSnapshot`, plus the
//! predict reader and the end-to-end metrics derived from both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use diststream_algorithms::ServingPredictor;
use diststream_core::{
    serving_handle, serving_reader, DistStreamJob, PipelineOptions, ServingHandle, ServingSnapshot,
    StreamClustering,
};
use diststream_engine::{
    ExecutionMode, RecordSource, ReorderBuffer, RepeatSource, StreamingContext,
};
use diststream_types::{ClusteringConfig, Point, Record};

use crate::loadgen::{LoadGen, Pace, STAMP_EVERY};
use crate::series::Series;
use crate::stats::{median, quantile, sorted, supported_tail};
use crate::workloads::{Inputs, Workload, BATCH_SECS, QUICK_DIVISOR};

/// The source stack a workload's job pulls from: the generator, behind a
/// `ReorderBuffer` when the workload injects disorder.
#[derive(Debug)]
pub enum Stack<'g> {
    /// In-order stream.
    Plain(&'g mut LoadGen),
    /// Disordered stream, order restored by the engine's reorder buffer.
    Reordered(ReorderBuffer<&'g mut LoadGen>),
}

impl<'g> Stack<'g> {
    /// Wraps `gen` as workload `w` prescribes: lateness is twice the
    /// injected bound, so nothing is ever dropped as late.
    pub fn new(gen: &'g mut LoadGen, w: &Workload, inputs: &Inputs) -> Self {
        if w.disorder_block > 1 {
            let injected = (w.disorder_block - 1) as f64 * inputs.record_gap_secs;
            Stack::Reordered(ReorderBuffer::new(gen, 2.0 * injected))
        } else {
            Stack::Plain(gen)
        }
    }

    /// `(late, duplicate)` drops of the reorder buffer.
    pub fn drops(&self) -> (usize, usize) {
        match self {
            Stack::Plain(_) => (0, 0),
            Stack::Reordered(r) => (r.dropped_late(), r.dropped_duplicates()),
        }
    }
}

impl RecordSource for Stack<'_> {
    fn next_record(&mut self) -> Option<Record> {
        match self {
            Stack::Plain(s) => s.next_record(),
            Stack::Reordered(s) => s.next_record(),
        }
    }

    fn len_hint(&self) -> Option<usize> {
        match self {
            Stack::Plain(s) => s.len_hint(),
            Stack::Reordered(s) => s.len_hint(),
        }
    }

    fn backlog_hint(&self) -> usize {
        match self {
            Stack::Plain(s) => s.backlog_hint(),
            Stack::Reordered(s) => s.backlog_hint(),
        }
    }
}

/// Builds the generator for one run. `max_records` bounds the stream and
/// sizes the replay count.
pub fn load_gen(w: &Workload, inputs: &Inputs, pace: Pace, max_records: u64) -> LoadGen {
    let rounds = (max_records as usize)
        .div_ceil(inputs.base.len().max(1))
        .max(1);
    LoadGen::new(
        RepeatSource::new(inputs.base.clone(), rounds),
        pace,
        w.disorder_block,
        inputs.disorder_seed,
        inputs.init_records,
        max_records,
    )
}

/// The fixed work of a run that should measure for about `seconds`:
/// initialization plus what this host sustained for that long when the
/// workload was defined. The stream ends after exactly this many records,
/// so every run of a `(workload, seconds)` pair sees the same batches and
/// ends on the same model.
pub fn work_for(w: &Workload, inputs: &Inputs, seconds: f64, quick: bool) -> u64 {
    let scale = if quick { QUICK_DIVISOR as f64 } else { 1.0 };
    inputs.init_records as u64 + (w.nominal_rps * seconds / scale) as u64
}

/// The real-thread context workload `w` runs on.
pub fn context(w: &Workload) -> Result<StreamingContext, String> {
    StreamingContext::new(w.parallelism, ExecutionMode::Threads).map_err(|e| e.to_string())
}

/// What the batch callback saw.
#[derive(Debug, Clone, Copy)]
pub struct Callback {
    /// When the callback ran.
    pub at: Instant,
    /// Records in the batch just processed.
    pub records: usize,
    /// Snapshots published so far (`SnapshotSlot::version`).
    pub published: u64,
    /// The program's own metered seconds for this batch.
    pub metered_secs: f64,
}

/// One predict reader's observations.
#[derive(Debug, Clone)]
pub struct ReaderObs {
    /// First answer (nothing is timed or counted before it).
    pub started: Instant,
    /// Loop end.
    pub ended: Instant,
    /// Predicts attempted.
    pub attempted: u64,
    /// Predicts answered.
    pub answered: u64,
    /// `None` answers (a published model went missing): failures.
    pub lost: u64,
    /// Per-call latency in ns: the mean over one pass of the query mix,
    /// one pass in four.
    pub latency_ns: Vec<f64>,
    /// First answer from each epoch: `(epoch, when)`.
    pub epochs: Vec<(u64, Instant)>,
    /// Predicts checked bit-for-bit against a naive scan.
    pub verified: u32,
    /// ... of which differed.
    pub mismatched: u32,
}

impl ReaderObs {
    /// Per-call latency samples in µs, ascending.
    pub fn latency_us(&self) -> Vec<f64> {
        sorted(self.latency_ns.iter().map(|ns| ns / 1e3).collect())
    }
}

/// Predicts to verify against a naive scan, at most.
pub const VERIFY_PREDICTS: u32 = 256;

fn naive_nearest(snapshot: &ServingSnapshot, query: &Point) -> Option<(usize, f64)> {
    snapshot
        .centroids
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.point.distance(query)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The closed-loop predict reader: cycles the query mix until
/// `keep_going(i)` says stop (asked once per pass).
pub fn reader_loop(
    handle: &ServingHandle,
    queries: &[Point],
    mut keep_going: impl FnMut(u64) -> bool,
) -> ReaderObs {
    let mut predictor = ServingPredictor::new(handle);
    let mut own = serving_reader(handle);
    let mut obs = ReaderObs {
        started: Instant::now(),
        ended: Instant::now(),
        attempted: 0,
        answered: 0,
        lost: 0,
        latency_ns: Vec::new(),
        epochs: Vec::new(),
        verified: 0,
        mismatched: 0,
    };
    let mut last_epoch = None;
    let mut i = 0u64;
    // Nothing is published until the job has initialized its model and
    // finished a batch; the reader's clock starts at its first answer.
    while keep_going(0) && predictor.predict(&queries[0]).is_none() {
        std::thread::yield_now();
    }
    obs.started = Instant::now();
    // One pass of the mix in four is timed, as a whole: a single predict
    // (tens of ns on a small model) is at the clock's own resolution, and
    // a query's cost depends on the query — every timed sample must cover
    // the same ones.
    let pass = queries.len() as u64;
    while keep_going(i) {
        let pass_start = (i / pass % 4 == 0).then(Instant::now);
        for query in queries {
            match predictor.predict(query) {
                Some(p) => {
                    obs.answered += 1;
                    let new_epoch = last_epoch != Some(p.epoch);
                    if new_epoch {
                        obs.epochs.push((p.epoch, Instant::now()));
                        last_epoch = Some(p.epoch);
                    }
                    // Checked: the first answer of each epoch and, every 64
                    // passes, one query of the (untimed) second pass — the
                    // next one of the mix each time.
                    let periodic = i % (64 * pass) == pass + i / (64 * pass) % pass;
                    if (new_epoch || periodic) && obs.verified < VERIFY_PREDICTS {
                        // The answer names its epoch; check it against that
                        // very snapshot, or skip if a newer one replaced it.
                        if let Some((epoch, snapshot)) = own.current() {
                            if epoch == p.epoch {
                                obs.verified += 1;
                                let same =
                                    naive_nearest(snapshot, query).is_some_and(|(idx, d)| {
                                        idx == p.cluster && d.to_bits() == p.distance.to_bits()
                                    });
                                obs.mismatched += u32::from(!same);
                            }
                        }
                    }
                }
                None => obs.lost += 1,
            }
            i += 1;
        }
        if let Some(t) = pass_start {
            obs.latency_ns
                .push(t.elapsed().as_nanos() as f64 / pass as f64);
        }
    }
    obs.attempted = i;
    obs.ended = Instant::now();
    obs
}

/// Runs `work` with — if `live` — one reader thread beside it, polling
/// `handle` until `work` returns.
///
/// # Errors
///
/// Fails if the reader thread panicked.
pub fn beside_reader<T>(
    live: bool,
    handle: &ServingHandle,
    queries: &[Point],
    work: impl FnOnce() -> T,
) -> Result<(T, Option<ReaderObs>), String> {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let reader = live
            .then(|| s.spawn(|| reader_loop(handle, queries, |_| !stop.load(Ordering::SeqCst))));
        let out = work();
        stop.store(true, Ordering::SeqCst);
        let obs = reader
            .map(|h| h.join().map_err(|_| "reader thread panicked".to_string()))
            .transpose()?;
        Ok((out, obs))
    })
}

/// Everything one untraced run produced.
#[derive(Debug)]
pub struct RunOut<M> {
    /// One entry per `on_batch` callback.
    pub callbacks: Vec<Callback>,
    /// When `run` returned.
    pub ended: Instant,
    /// The final model.
    pub model: M,
    /// `RunResult.meter.secs()`.
    pub meter_secs: f64,
    /// The generator, with its stamps and counts.
    pub gen: LoadGen,
    /// Reorder drops `(late, duplicate)`.
    pub drops: (usize, usize),
    /// The serving slot the job published into.
    pub handle: ServingHandle,
    /// The live reader's observations, if the workload has one.
    pub reader: Option<ReaderObs>,
}

/// Runs `work` records of workload `w` through the public entry point.
///
/// # Errors
///
/// Returns the engine's error as text.
pub fn run_job<A: StreamClustering>(
    w: &Workload,
    inputs: &Inputs,
    algo: &A,
    quick: bool,
    work: u64,
) -> Result<RunOut<A::Model>, String> {
    let ctx = context(w)?;
    let config = ClusteringConfig::builder()
        .batch_secs(BATCH_SECS)
        .build()
        .map_err(|e| e.to_string())?;
    let handle = serving_handle();
    let mut gen = load_gen(w, inputs, w.pace(quick), work);
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(inputs.init_records)
        .pipeline(if w.overlapped {
            PipelineOptions::all()
        } else {
            PipelineOptions::sync()
        })
        .serving(Arc::clone(&handle));

    let mut callbacks: Vec<Callback> = Vec::new();
    let ((result, drops), reader) = {
        let mut stack = Stack::new(&mut gen, w, inputs);
        beside_reader(w.live_reader, &handle, &inputs.queries, || {
            let result = job.run(&mut stack, |report| {
                callbacks.push(Callback {
                    at: Instant::now(),
                    records: report.outcome.metrics.records,
                    published: handle.version(),
                    metered_secs: report.outcome.metrics.total_secs(),
                });
            });
            (result, stack.drops())
        })?
    };
    let ended = Instant::now();
    let result = result.map_err(|e| e.to_string())?;
    Ok(RunOut {
        callbacks,
        ended,
        model: result.model,
        meter_secs: result.meter.secs(),
        gen,
        drops,
        handle,
        reader,
    })
}

/// When each batch's model was first visible as published: the first
/// callback that saw `published > index`, or the end of the run (the
/// overlapped pipeline publishes its last epoch in the final flush).
pub fn publish_times(callbacks: &[Callback], ended: Instant) -> Vec<Instant> {
    let mut times = Vec::with_capacity(callbacks.len());
    let mut seen = 0usize;
    for index in 0..callbacks.len() {
        while seen < callbacks.len() && callbacks[seen].published <= index as u64 {
            seen += 1;
        }
        times.push(callbacks.get(seen).map_or(ended, |c| c.at));
    }
    times
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The timed phase of a run, reduced to the samples the metrics rest on.
/// The first completed batch (it absorbs `algo.init` and warm-up) is
/// excluded throughout.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Wall seconds, first callback → `run` return.
    pub wall_secs: f64,
    /// Records of batches 1.. (integrated by the end of the run).
    pub records: u64,
    /// Batches 1..
    pub batches: usize,
    /// Interval between consecutive callbacks, ms, ascending.
    pub batch_ms: Vec<f64>,
    /// Last record of a batch emitted/due → that batch published, ms,
    /// ascending.
    pub publish_ms: Vec<f64>,
    /// Sampled records: emitted/due → integrated into a published model,
    /// ms, ascending.
    pub record_ms: Vec<f64>,
    /// The same phase batch by batch, in stream order: what the stream
    /// metrics are computed from, here and across a run's children.
    pub series: Series,
}

/// Reduces a run to its timed-phase samples.
///
/// # Errors
///
/// Fails when the run is too short to time (fewer than three batches).
pub fn timed<M>(w: &Workload, inputs: &Inputs, out: &RunOut<M>) -> Result<Timed, String> {
    let cbs = &out.callbacks;
    if cbs.len() < 3 {
        return Err(format!("only {} batches completed", cbs.len()));
    }
    let published = publish_times(cbs, out.ended);
    // cum[k] = records in batches 0..=k; positions are offset by init.
    let cum: Vec<u64> = cbs
        .iter()
        .scan(0u64, |acc, c| {
            *acc += c.records as u64;
            Some(*acc)
        })
        .collect();
    let init = inputs.init_records as u64;
    let stamps = out.gen.stamps();
    // When the record at position `pos` of the ordered stream was handed
    // to the system. Saturated: the stamp nearest its emission (within
    // STAMP_EVERY + disorder-block records of it — microseconds).
    let handed = |pos: u64| -> Option<Instant> {
        match w.paced_rps {
            Some(_) => out.gen.due_time(pos),
            None => stamps.get((pos / STAMP_EVERY) as usize).map(|(_, at)| *at),
        }
    };

    let batch_ms: Vec<f64> = cbs.windows(2).map(|p| ms(p[0].at, p[1].at)).collect();
    // Per batch 1..; NaN where the batch is empty or its last record
    // carries no stamp.
    let publish_ms: Vec<f64> = (1..cbs.len())
        .map(|k| {
            (cbs[k].records > 0)
                .then(|| handed(init + cum[k] - 1))
                .flatten()
                .map_or(f64::NAN, |t| ms(t, published[k]))
        })
        .collect();
    // Sampled records, grouped by the batch (1..) that integrated them.
    let mut record_ms: Vec<Vec<f64>> = vec![Vec::new(); cbs.len() - 1];
    let batch_of = |pos: u64| cum.partition_point(|&c| c <= pos - init);
    let mut sample = |pos: u64, from: Instant| {
        let k = batch_of(pos);
        record_ms[k - 1].push(ms(from, published[k]));
    };
    match w.paced_rps {
        Some(_) => {
            let mut pos = init + cum[0];
            while pos < init + cum[cum.len() - 1] {
                if let Some(t) = handed(pos) {
                    sample(pos, t);
                }
                pos += 4;
            }
        }
        None => {
            for &(pos, stamp) in stamps {
                if pos < init + cum[0] || pos >= init + cum[cum.len() - 1] {
                    continue;
                }
                sample(pos, stamp);
            }
        }
    }
    let series = Series {
        records: cbs[1..].iter().map(|c| c.records as u64).collect(),
        batch_ms: batch_ms.clone(),
        publish_ms: publish_ms.clone(),
        record_ms: record_ms
            .iter()
            .map(|of_batch| {
                if of_batch.is_empty() {
                    f64::NAN
                } else {
                    median(of_batch)
                }
            })
            .collect(),
        tail_ms: ms(cbs[cbs.len() - 1].at, out.ended),
    };
    Ok(Timed {
        wall_secs: out.ended.saturating_duration_since(cbs[0].at).as_secs_f64(),
        records: cum[cum.len() - 1] - cum[0],
        batches: cbs.len() - 1,
        batch_ms: sorted(batch_ms),
        publish_ms: sorted(publish_ms.into_iter().filter(|v| v.is_finite()).collect()),
        record_ms: sorted(record_ms.into_iter().flatten().collect()),
        series,
    })
}

/// A named measurement.
pub type Metric = (&'static str, f64);

/// One line of the human-readable report for a percentile pair.
pub fn tail_note(name: &str, unit: &str, ascending: &[f64]) -> String {
    let tail = supported_tail(ascending);
    format!(
        "  {name}: n={} p50={:.3}{unit} highest supported p{}={:.3}{unit}",
        tail.samples,
        quantile(ascending, 0.5),
        tail.percentile,
        tail.value
    )
}

/// The end-to-end metrics of one measuring process.
pub fn end_to_end(timed: &Timed, reader: &ReaderObs, setup_secs: f64) -> Vec<Metric> {
    let reader_secs = reader
        .ended
        .saturating_duration_since(reader.started)
        .as_secs_f64();
    let mut metrics = vec![("setup_s", setup_secs)];
    metrics.extend(timed.series.metrics());
    metrics.extend([
        ("predict_qps", reader.answered as f64 / reader_secs),
        ("predict_p50_us", quantile(&reader.latency_us(), 0.5)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    metrics
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
