//! The micro section: each layer alone, on the workload's own captured
//! inputs (its base stream, one real batch, its final model), fixed work,
//! a fraction of a second each.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use diststream_algorithms::{CentroidKernel, ServingPredictor};
use diststream_core::{serving_handle, Assignment, ServingSnapshot, StreamClustering};
use diststream_engine::{
    combine_by_key, decode, encode, group_by_key, split_chunks, AppendCombiner, MiniBatcher,
    RecordSource, ReorderBuffer, SnapshotSlot,
};
use diststream_types::Record;
use serde::de::DeserializeOwned;

use crate::loadgen::Pace;
use crate::run::{context, load_gen, Metric, Stack};
use crate::stats::median;
use crate::workloads::{Inputs, Workload, BATCH_SECS};

/// Records drained per ingest-stage measurement.
const DRAIN_RECORDS: u64 = 100_000;

/// Repetitions whose median is reported.
const REPS: usize = 5;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Median over [`REPS`] runs of `f`, each timed on a fresh `setup()` value.
fn median_secs<S>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = setup();
            secs(|| f(state))
        })
        .collect();
    median(&samples)
}

fn drain(mut source: impl RecordSource) -> u64 {
    let mut n = 0u64;
    while let Some(r) = source.next_record() {
        black_box(&r);
        n += 1;
    }
    n
}

fn group_key(a: Assignment) -> (u64, u64) {
    match a {
        Assignment::Existing(id) => (0, id),
        Assignment::New(key) => (1, key),
    }
}

/// Runs the micro section and returns its per-layer metrics, plus the
/// reorder buffer's high-water mark on this workload's stream.
///
/// # Errors
///
/// Returns the engine's error as text.
pub fn run_micro<A: StreamClustering>(
    w: &Workload,
    inputs: &Inputs,
    algo: &A,
    model: &A::Model,
    batch: &[Record],
    quick: bool,
) -> Result<Vec<Metric>, String>
where
    A::Model: DeserializeOwned,
{
    if batch.is_empty() {
        return Err("no sample batch captured".into());
    }
    let ctx = context(w)?;
    let p = w.parallelism;
    let drain_records = if quick {
        DRAIN_RECORDS / 20
    } else {
        DRAIN_RECORDS
    };
    let mut out: Vec<Metric> = Vec::new();

    // Ingest stages, cumulative: generator alone, + the workload's reorder
    // stage, + the batcher. A stage's cost is the difference to the row
    // above. (On in-order workloads `Stack` adds no reorder buffer, so that
    // row measures a buffer with zero lateness: the cost of adding one.)
    let gen = || load_gen(w, inputs, Pace::Saturated, drain_records);
    let per_record = |s: f64| s * 1e9 / drain_records as f64;
    let source_ns = per_record(median_secs(gen, |g| {
        black_box(drain(g));
    }));
    let mut buffered_max = 0usize;
    let reorder_ns = per_record(median_secs(gen, |mut g| {
        if w.disorder_block > 1 {
            let Stack::Reordered(mut r) = Stack::new(&mut g, w, inputs) else {
                unreachable!("disorder implies a reorder stage");
            };
            while let Some(rec) = r.next_record() {
                black_box(&rec);
                buffered_max = buffered_max.max(r.buffered());
            }
        } else {
            black_box(drain(ReorderBuffer::new(&mut g, 0.0)));
        }
    }));
    let batcher_ns = per_record(median_secs(gen, |mut g| {
        let stack = Stack::new(&mut g, w, inputs);
        for b in MiniBatcher::new(stack, BATCH_SECS) {
            black_box(&b);
        }
    }));
    out.push(("engine.source.ns_per_record", source_ns));
    out.push((
        "engine.reorder.ns_per_record",
        (reorder_ns - source_ns).max(0.0),
    ));
    out.push((
        "engine.batcher.ns_per_record",
        (batcher_ns - reorder_ns.max(source_ns)).max(0.0),
    ));
    out.push(("engine.reorder.buffered_max", buffered_max as f64));

    // Shuffle: the sample batch keyed by its real assignments.
    let assignments = algo.assign_many(model, batch);
    let keyed = || -> Vec<((u64, u64), Record)> {
        assignments
            .iter()
            .zip(batch)
            .map(|(a, r)| (group_key(*a), r.clone()))
            .collect()
    };
    let per_pair = |s: f64| s * 1e9 / batch.len() as f64;
    out.push((
        "engine.partition.group_ns_per_pair",
        per_pair(median_secs(keyed, |pairs| {
            black_box(group_by_key(pairs, p));
        })),
    ));
    let chunk = diststream_engine::chunk_size(batch.len(), p);
    out.push((
        "engine.partition.combine_ns_per_pair",
        per_pair(median_secs(
            || split_chunks(keyed(), chunk),
            |chunks| {
                black_box(combine_by_key(chunks, p, &AppendCombiner));
            },
        )),
    ));

    // Pool dispatch: one step of p no-op tasks.
    let dispatches = if quick { 50 } else { 500 };
    let dispatch = secs(|| {
        for _ in 0..dispatches {
            black_box(ctx.run_tasks(vec![(); p], |_, ()| ()).is_ok());
        }
    });
    out.push((
        "engine.pool.dispatch_us",
        dispatch * 1e6 / dispatches as f64,
    ));

    // Codec, on the final model.
    let bytes = encode(model);
    let mb = bytes.len() as f64 / 1e6;
    let codec_reps = if quick { 5 } else { 50 };
    let enc = secs(|| {
        for _ in 0..codec_reps {
            black_box(encode(black_box(model)));
        }
    });
    out.push(("engine.codec.encode_mb_s", mb * codec_reps as f64 / enc));
    let mut decoded_ok = true;
    let dec = secs(|| {
        for _ in 0..codec_reps {
            decoded_ok &= decode::<A::Model>(black_box(&bytes)).is_ok();
        }
    });
    if !decoded_ok {
        return Err("final model does not decode".into());
    }
    out.push(("engine.codec.decode_mb_s", mb * codec_reps as f64 / dec));

    // Snapshot slot: publish and steady-state read.
    let snapshot = Arc::new(ServingSnapshot {
        epoch: 0,
        model_bytes: bytes,
        centroids: algo.snapshot(model),
    });
    let slot_ops = if quick { 10_000u64 } else { 200_000 };
    let slot = SnapshotSlot::shared();
    let publish = secs(|| {
        for epoch in 0..slot_ops {
            slot.publish(epoch, Arc::clone(&snapshot));
        }
    });
    out.push(("engine.serving.publish_ns", publish * 1e9 / slot_ops as f64));
    let mut reader = slot.reader();
    let read = secs(|| {
        for _ in 0..slot_ops {
            black_box(reader.current().map(|(epoch, _)| epoch));
        }
    });
    out.push(("engine.serving.read_ns", read * 1e9 / slot_ops as f64));

    // Algorithm: init, single-thread assignment, kernel scan, export.
    let init: Vec<Record> = inputs.base[..inputs.init_records].to_vec();
    let mut init_ok = true;
    let init_secs = median_secs(|| (), |()| init_ok &= black_box(algo.init(&init)).is_ok());
    if !init_ok {
        return Err("algo.init failed in the micro section".into());
    }
    out.push(("algorithms.init_s", init_secs));
    out.push((
        "algorithms.assign_ns_per_record",
        per_pair(median_secs(
            || (),
            |()| {
                black_box(algo.assign_many(model, batch));
            },
        )),
    ));
    let mut kernel = CentroidKernel::new();
    for (idx, wp) in snapshot.centroids.iter().enumerate() {
        kernel.push_point(idx as u64, &wp.point);
    }
    out.push((
        "algorithms.cf.nearest_ns_per_point",
        per_pair(median_secs(
            || (),
            |()| {
                for r in batch {
                    black_box(kernel.nearest(&r.point));
                }
            },
        )),
    ));
    out.push((
        "algorithms.snapshot_us",
        median_secs(
            || (),
            |()| {
                black_box(algo.snapshot(model));
            },
        ) * 1e6,
    ));

    // Predict path: steady state, and the first predict after a publish
    // (kernel rebuild), less the steady-state cost.
    let handle = serving_handle();
    handle.publish(0, (*snapshot).clone());
    let mut predictor = ServingPredictor::new(&handle);
    let predicts = if quick { 2_000u64 } else { 50_000 };
    let steady = secs(|| {
        for i in 0..predicts {
            let q = &inputs.queries[(i % inputs.queries.len() as u64) as usize];
            black_box(predictor.predict(q));
        }
    });
    let predict_ns = steady * 1e9 / predicts as f64;
    out.push(("algorithms.serving.predict_ns", predict_ns));
    let rebuilds = if quick { 5u64 } else { 50 };
    let mut rebuild_secs = 0.0;
    for epoch in 1..=rebuilds {
        handle.publish(epoch, (*snapshot).clone());
        rebuild_secs += secs(|| {
            black_box(predictor.predict(&inputs.queries[0]));
        });
    }
    out.push((
        "algorithms.serving.rebuild_us",
        (rebuild_secs * 1e6 / rebuilds as f64 - predict_ns / 1e3).max(0.0),
    ));
    Ok(out)
}
