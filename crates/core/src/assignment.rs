//! Step 1 — finding the closest micro-cluster with record-based parallelism
//! (paper §V-A).

use std::time::Instant;

use diststream_engine::{
    chunk_size, chunk_strides, Broadcast, StepMetrics, StreamingContext, Stride,
};
use diststream_types::{DistStreamError, Record, Result};

use crate::api::{Assignment, StreamClustering};
use crate::distribution::Placement;

/// Output of the assignment step: every record of the batch paired with its
/// step-1 decision, in arrival order, plus the step's timing and the bytes
/// broadcast to tasks.
#[derive(Debug)]
pub struct AssignmentOutcome {
    /// `(record, assignment)` pairs in arrival order.
    pub pairs: Vec<(Record, Assignment)>,
    /// Step timing (record-based parallel tasks).
    pub metrics: StepMetrics,
    /// Serialized bytes of one copy of the broadcast model.
    pub model_bytes: u64,
    /// Measured seconds the driver spent handling records around the
    /// parallel tasks — laying out the split, merging the task outputs,
    /// pairing them with the records: the call's elapsed time minus the
    /// task pool's and the searcher build's. The framework's own per-record
    /// cost, which no task metric shows.
    pub driver_secs: f64,
}

/// Runs step 1: broadcasts the stale model `Q_t` to every task, splits the
/// batch's records across `p` tasks, and computes each record's closest
/// micro-cluster (or outlier decision) in parallel.
///
/// The batch is never copied or re-partitioned: every task *borrows* it and
/// reads the arrival positions of its [`Stride`], returning one
/// [`Assignment`] (`Copy`, 16 bytes) per position. The merged assignment
/// list is then zipped onto the untouched records by move.
///
/// The task layout is the `placement`'s round-robin
/// [`Placement::split_records`] (`chunking == false`; it preserves relative
/// record order inside every task, and [`Placement::merge_assigned`]
/// interleaves the outputs back),
/// or deterministic size-aware chunk scheduling (`chunking == true`):
/// the batch is cut into contiguous fixed-size chunks ([`chunk_size`])
/// claimed by workers from the pool's shared deterministic queue, so a slow
/// slot sheds load at chunk granularity instead of holding the step barrier
/// on the largest static partition, and chunk outputs are concatenated in
/// chunk order. Chunking is the scheduler's lever, orthogonal to placement.
///
/// Either way `pairs` comes back in arrival order — the property the
/// order-aware local update depends on — and, per-record assignment being a
/// pure function of `(model, record)`, byte-identical under every task
/// layout and parallelism degree.
///
/// # Errors
///
/// Propagates engine failures (task panics) as
/// [`DistStreamError::Engine`](diststream_types::DistStreamError::Engine), and
/// reports a merge that does not return one assignment per record as
/// [`DistStreamError::Invariant`].
pub fn assign_records_distributed<A: StreamClustering>(
    ctx: &StreamingContext,
    algo: &A,
    model: &Broadcast<A::Model>,
    records: Vec<Record>,
    chunking: bool,
    placement: Placement,
) -> Result<AssignmentOutcome> {
    let entered = Instant::now(); // lint:allow(wallclock-entropy) driver-side timing feeds step metrics only
    let layout = if chunking {
        let chunk = chunk_size(records.len(), ctx.parallelism());
        chunk_strides(records.len(), chunk)
    } else {
        placement.split_records(records.len(), ctx.parallelism())
    };
    // Batched distance computation: the searcher (the algorithm's per-model
    // scan structure) is built once per batch and shared read-only by every
    // task, so its build cost is paid once per worker slot instead of once
    // per claimed chunk — the property that keeps over-partitioned chunk
    // scheduling as cheap as the static split.
    let snapshot = model.handle();
    let build_start = Instant::now(); // lint:allow(wallclock-entropy) searcher-build timing feeds step metrics only
    let searcher = algo.searcher(&snapshot);
    let build_secs = build_start.elapsed().as_secs_f64();
    let batch = records.as_slice();
    let tasks_start = Instant::now(); // lint:allow(wallclock-entropy) driver-side timing feeds step metrics only
    let (outputs, mut metrics) = ctx.run_tasks(layout, |_task, stride: Stride| {
        stride.of(batch).map(&searcher).collect::<Vec<Assignment>>()
    })?;
    let off_driver_secs = tasks_start.elapsed().as_secs_f64() + build_secs;
    drop(searcher);
    // Every slot builds the searcher once, concurrently, right after the
    // broadcast lands.
    metrics.charge_setup(build_secs);
    let assignments = if chunking {
        // Contiguous chunks: concatenation in chunk order is the inverse
        // of the split.
        outputs.concat()
    } else {
        placement.merge_assigned(outputs)
    };
    if assignments.len() != records.len() {
        return Err(DistStreamError::Invariant(format!(
            "assignment merge returned {} decisions for {} records",
            assignments.len(),
            records.len()
        )));
    }
    let pairs = records.into_iter().zip(assignments).collect();
    Ok(AssignmentOutcome {
        pairs,
        metrics,
        model_bytes: model.payload_bytes(),
        driver_secs: entered.elapsed().as_secs_f64() - off_driver_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveClustering;
    use diststream_engine::ExecutionMode;
    use diststream_types::{Point, Timestamp};

    fn assign<A: StreamClustering>(
        ctx: &StreamingContext,
        algo: &A,
        model: &Broadcast<A::Model>,
        records: Vec<Record>,
        chunking: bool,
    ) -> AssignmentOutcome {
        assign_records_distributed(ctx, algo, model, records, chunking, Placement).unwrap()
    }

    fn rec(id: u64, x: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(id as f64))
    }

    fn setup() -> (
        NaiveClustering,
        <NaiveClustering as StreamClustering>::Model,
    ) {
        let algo = NaiveClustering::new(1.0);
        // Two micro-clusters at x = 0 and x = 10.
        let model = algo.init(&[rec(0, 0.0), rec(1, 10.0)]).unwrap();
        (algo, model)
    }

    #[test]
    fn assignments_match_sequential_reference() {
        let (algo, model) = setup();
        let records: Vec<Record> = (2..42).map(|i| rec(i, (i % 11) as f64)).collect();
        let expected: Vec<Assignment> = records.iter().map(|r| algo.assign(&model, r)).collect();

        for p in [1, 3, 8] {
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            let bcast = Broadcast::new(model.clone());
            let out = assign(&ctx, &algo, &bcast, records.clone(), false);
            let got: Vec<Assignment> = out.pairs.iter().map(|(_, a)| *a).collect();
            assert_eq!(got, expected, "parallelism {p} changed assignments");
        }
    }

    #[test]
    fn pairs_keep_arrival_order() {
        let (algo, model) = setup();
        let records: Vec<Record> = (2..30).map(|i| rec(i, 0.1)).collect();
        let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
        let bcast = Broadcast::new(model.clone());
        let out = assign(&ctx, &algo, &bcast, records, false);
        let ids: Vec<u64> = out.pairs.iter().map(|(r, _)| r.id).collect();
        assert_eq!(ids, (2..30).collect::<Vec<u64>>());
    }

    /// Chunk scheduling changes the task layout, never the output: pairs
    /// must be byte-identical to the round-robin layout at every
    /// parallelism degree, and in arrival order.
    #[test]
    fn chunked_assignment_equals_round_robin() {
        let (algo, model) = setup();
        let records: Vec<Record> = (2..300).map(|i| rec(i, (i % 13) as f64)).collect();
        let reference = {
            let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
            let bcast = Broadcast::new(model.clone());
            assign(&ctx, &algo, &bcast, records.clone(), false).pairs
        };
        for p in [1, 3, 4, 8] {
            let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
            let bcast = Broadcast::new(model.clone());
            let out = assign(&ctx, &algo, &bcast, records.clone(), true);
            assert_eq!(out.pairs, reference, "parallelism {p}");
            // With 298 records and MIN_CHUNK_SIZE = 32, chunking produces
            // more tasks than slots at low p — the balance lever.
            assert!(out.metrics.task_secs().len() >= p.min(298 / 32), "p={p}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (algo, model) = setup();
        let ctx = StreamingContext::new(4, ExecutionMode::Simulated).unwrap();
        let bcast = Broadcast::new(model.clone());
        let out = assign(&ctx, &algo, &bcast, Vec::new(), false);
        assert!(out.pairs.is_empty());
        assert!(out.model_bytes > 0);
    }

    #[test]
    fn close_records_assigned_outliers_marked() {
        let (algo, model) = setup();
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let bcast = Broadcast::new(model.clone());
        let records = vec![rec(2, 0.5), rec(3, 5.0), rec(4, 9.8)];
        let out = assign(&ctx, &algo, &bcast, records, false);
        assert!(matches!(out.pairs[0].1, Assignment::Existing(_)));
        assert!(matches!(out.pairs[1].1, Assignment::New(_)));
        assert!(matches!(out.pairs[2].1, Assignment::Existing(_)));
    }
}
