//! The stepped traced run: the benchmark drives the batch loop itself
//! through the public step functions, in the order the executors use, and
//! records one in-memory span around each call into a layer. Spans live in
//! the benchmark's own files; spans inside the program are a later change.
//!
//! Sync workloads follow `DistStreamExecutor::process_batch`
//! (broadcast → assign → local → global → publish); the overlapped
//! workload follows `PipelinedExecutor::process_batch` (broadcast → apply
//! the *previous* batch's global update and publish it → assign → local,
//! one final flush), without the prefetch worker. Either way the stepped
//! loop must end on the same model bytes as `DistStreamJob::run`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use diststream_core::{
    assign_records_distributed, global_update, local_update_distributed, strategy_for,
    take_records, Assignment, LocalOutcome, LocalScratch, ServingHandle, ServingSnapshot,
    StrategyKind, StreamClustering, UpdateOrdering,
};
use diststream_engine::{encode, Broadcast, LatencyProbe, MiniBatcher, StepMetrics};
use diststream_types::{Record, Timestamp};

use crate::loadgen::Pace;
use crate::run::{context, load_gen, Stack};
use crate::workloads::{Inputs, Workload, BATCH_SECS};

/// The layers a batch cycle is split into, in `crate.module` names.
pub const LAYERS: [&str; 6] = [
    "engine.ingest",
    "engine.broadcast",
    "core.assignment",
    "core.local",
    "core.global",
    "core.serving.publish",
];

/// Layers that run on the driver alone (the measured serial fraction).
pub const SERIAL_LAYERS: [&str; 4] = [
    "engine.ingest",
    "engine.broadcast",
    "core.global",
    "core.serving.publish",
];

/// Index of the batch whose records the micro section reuses.
pub const SAMPLE_BATCH: usize = 2;

/// One span: a call into a layer, or the batch cycle around them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `"batch"` or one of [`LAYERS`].
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// Batch the span belongs to (the identifier its spans share).
    pub batch: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

#[derive(Debug, Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, batch: usize, start: Instant) -> usize {
        self.spans.push(Span {
            name: "batch",
            start,
            end: start,
            parent: None,
            batch,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, root: usize) -> Instant {
        let end = Instant::now();
        self.spans[root].end = end;
        end
    }

    fn push(&mut self, name: &'static str, root: usize, start: Instant, end: Instant) {
        let batch = self.spans[root].batch;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(root),
            batch,
        });
    }

    fn call<T>(&mut self, name: &'static str, root: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, root, start, Instant::now());
        out
    }
}

/// Counts taken at the layer boundaries, summed over the timed phase
/// (batches 1..).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Batches in the timed phase.
    pub batches: usize,
    /// Records ingested.
    pub records: u64,
    /// Serialized bytes of one broadcast copy, summed.
    pub broadcast_bytes: u64,
    /// Assignment task seconds, summed over tasks.
    pub assign_task_secs: f64,
    /// Σ over batches of (max task ÷ mean task) for assignment.
    pub assign_skew_sum: f64,
    /// Records assigned `New` (outliers).
    pub outlier_records: u64,
    /// Local-update task seconds, summed over tasks.
    pub local_task_secs: f64,
    /// Charged shuffle bytes.
    pub shuffle_bytes: u64,
    /// Micro-clusters created by the local step, before pre-merge.
    pub created: u64,
    /// ... remaining after pre-merge.
    pub created_after_premerge: u64,
    /// Bytes of the published snapshots (model encoding + centroids).
    pub snapshot_bytes: u64,
    /// Snapshots published.
    pub published: u64,
}

/// What the stepped run produced.
#[derive(Debug)]
pub struct Stepped<M> {
    /// The final model.
    pub model: M,
    /// Every span, batch roots first within each batch.
    pub spans: Vec<Span>,
    /// Boundary counts over the timed phase.
    pub counts: Counts,
    /// End of batch 0 (the stepped run's "first callback").
    pub first_done: Instant,
    /// End of the run, final flush included.
    pub ended: Instant,
    /// Records emitted by the generator.
    pub emitted: u64,
    /// Records consumed by initialization.
    pub init_records: usize,
    /// Records integrated, all batches.
    pub integrated: u64,
    /// Reorder drops `(late, duplicate)`.
    pub drops: (usize, usize),
    /// The records of batch [`SAMPLE_BATCH`].
    pub sample_batch: Vec<Record>,
}

impl<M> Stepped<M> {
    /// Seconds spent in `layer` over the timed phase.
    pub fn busy_secs(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == layer && s.batch >= 1)
            .map(Span::secs)
            .sum()
    }

    /// Wall seconds of the timed phase.
    pub fn wall_secs(&self) -> f64 {
        self.ended
            .saturating_duration_since(self.first_done)
            .as_secs_f64()
    }
}

struct Pending<S> {
    index: usize,
    local: LocalOutcome<S>,
    window_end: Timestamp,
    seed: u64,
    probe: LatencyProbe,
}

fn skew(step: &StepMetrics) -> f64 {
    let mean = step.mean_task_secs();
    if mean > 0.0 {
        step.max_task_secs() / mean
    } else {
        1.0
    }
}

/// The driver-side state of the stepped loop.
struct Driver<'a, A: StreamClustering> {
    algo: &'a A,
    handle: &'a ServingHandle,
    model: A::Model,
    tracer: Tracer,
    counts: Counts,
}

impl<A: StreamClustering> Driver<'_, A> {
    /// Applies one batch's global update and publishes the result — the
    /// tail of the sync cycle, or the head of the next overlapped one.
    /// `now` is the window end the executors resolve the latency digest at.
    fn apply(
        &mut self,
        p: Pending<A::Sketch>,
        now: Timestamp,
        root: usize,
        timed: bool,
    ) -> Result<(), String> {
        let (algo, model) = (self.algo, &mut self.model);
        let global = self
            .tracer
            .call("core.global", root, || {
                global_update(
                    algo,
                    model,
                    p.local,
                    p.window_end,
                    UpdateOrdering::OrderAware,
                    true,
                    p.seed,
                )
            })
            .map_err(|e| e.to_string())?;
        let (handle, model) = (self.handle, &self.model);
        let snapshot_bytes = self.tracer.call("core.serving.publish", root, || {
            let snapshot = ServingSnapshot {
                epoch: p.index as u64,
                model_bytes: encode(model),
                centroids: algo.snapshot(model),
            };
            // Encoded model plus the centroid export as the codec would
            // write it (length prefix; per centroid a point and a weight).
            let dims = snapshot.centroids.first().map_or(0, |c| c.point.dims());
            let bytes = snapshot.model_bytes.len() + 8 + snapshot.centroids.len() * (16 + 8 * dims);
            handle.publish(p.index as u64, snapshot);
            bytes as u64
        });
        std::hint::black_box(p.probe.resolve(now));
        if timed {
            self.counts.created += global.created_before_premerge as u64;
            self.counts.created_after_premerge += global.created_after_premerge as u64;
            self.counts.snapshot_bytes += snapshot_bytes;
            self.counts.published += 1;
        }
        Ok(())
    }
}

/// Drives `work` records of workload `w` through the step functions,
/// unpaced, publishing into `handle`.
///
/// # Errors
///
/// Returns the engine's error as text.
pub fn run_stepped<A: StreamClustering>(
    w: &Workload,
    inputs: &Inputs,
    algo: &A,
    work: u64,
    handle: &ServingHandle,
) -> Result<Stepped<A::Model>, String> {
    let ctx = context(w)?;
    let mut gen = load_gen(w, inputs, Pace::Saturated, work);
    let mut stack = Stack::new(&mut gen, w, inputs);

    let init = take_records(&mut stack, inputs.init_records.max(1));
    let mut driver = Driver {
        algo,
        handle,
        model: algo.init(&init).map_err(|e| e.to_string())?,
        tracer: Tracer::default(),
        counts: Counts::default(),
    };
    let strategy = strategy_for(StrategyKind::RoundRobin);
    // The executors' defaults: order-aware, pre-merge on; combine and
    // chunking as PipelineOptions::all() turns them on.
    let (combine, chunking) = (w.overlapped, w.overlapped);
    let mut scratch = LocalScratch::default();
    let mut pending: Option<Pending<A::Sketch>> = None;
    let mut sample_batch = Vec::new();
    let mut first_done = None;
    let mut integrated = 0u64;

    let mut batcher = MiniBatcher::new(&mut stack, BATCH_SECS);
    loop {
        let cycle_start = Instant::now();
        let Some(batch) = batcher.next() else { break };
        let ingested = Instant::now();
        let index = batch.index;
        let timed = index >= 1;
        let root = driver.tracer.open(index, cycle_start);
        driver
            .tracer
            .push("engine.ingest", root, cycle_start, ingested);

        ctx.begin_batch(index);
        // The executors' per-batch shuffle seed (unused when order-aware).
        let seed = 0x0B5E_55EDu64 ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let records = batch.len();
        let (window_start, window_end) = (batch.window_start, batch.window_end);
        let probe = LatencyProbe::capture(index, &batch.records);
        if index == SAMPLE_BATCH {
            sample_batch = batch.records.clone();
        }

        let model = &driver.model;
        let bcast = driver
            .tracer
            .call("engine.broadcast", root, || Broadcast::new(model.clone()));
        if w.overlapped {
            if let Some(p) = pending.take() {
                driver.apply(p, window_end, root, timed)?;
            }
        }
        let assignment = driver
            .tracer
            .call("core.assignment", root, || {
                assign_records_distributed(&ctx, algo, &bcast, batch.records, chunking, strategy)
            })
            .map_err(|e| e.to_string())?;
        let outliers = assignment
            .pairs
            .iter()
            .filter(|(_, a)| matches!(a, Assignment::New(_)))
            .count();
        let assign_metrics = assignment.metrics;
        let local = driver
            .tracer
            .call("core.local", root, || {
                local_update_distributed(
                    &ctx,
                    algo,
                    &bcast,
                    assignment.pairs,
                    UpdateOrdering::OrderAware,
                    window_start,
                    seed,
                    &mut scratch,
                    combine,
                    strategy,
                )
            })
            .map_err(|e| e.to_string())?;
        if timed {
            let c = &mut driver.counts;
            c.batches += 1;
            c.records += records as u64;
            c.broadcast_bytes += bcast.payload_bytes();
            c.assign_task_secs += assign_metrics.task_secs().iter().sum::<f64>();
            c.assign_skew_sum += skew(&assign_metrics);
            c.outlier_records += outliers as u64;
            c.local_task_secs += local.metrics.task_secs().iter().sum::<f64>();
            c.shuffle_bytes += local.shuffle_bytes;
        }
        integrated += records as u64;
        let this = Pending {
            index,
            local,
            window_end,
            seed,
            probe,
        };
        if w.overlapped {
            pending = Some(this);
        } else {
            driver.apply(this, window_end, root, timed)?;
        }
        let done = driver.tracer.close(root);
        first_done.get_or_insert(done);
    }
    if let Some(p) = pending.take() {
        // The overlapped pipeline's final flush, charged to the last batch.
        let root = driver.tracer.open(p.index, Instant::now());
        let now = p.window_end;
        driver.apply(p, now, root, true)?;
        driver.tracer.close(root);
    }
    let ended = Instant::now();
    drop(batcher);
    let drops = stack.drops();
    Ok(Stepped {
        model: driver.model,
        spans: driver.tracer.spans,
        counts: driver.counts,
        first_done: first_done.ok_or("no batch completed")?,
        ended,
        emitted: gen.emitted(),
        init_records: init.len(),
        integrated,
        drops,
        sample_batch,
    })
}

/// Writes the trace as JSON lines: `name, start_us, end_us, parent, batch`,
/// times relative to the first span.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let Some(origin) = spans.first().map(|s| s.start) else {
        return Ok(());
    };
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"batch\": {}}}",
            s.name,
            us(s.start),
            us(s.end),
            s.batch
        )?;
    }
    out.flush()
}
