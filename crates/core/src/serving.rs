//! Online serving: an immutable, epoch-tagged model snapshot published at
//! every batch boundary for concurrent readers.
//!
//! The DistStream feedback loop mutates the model only on the driver, at one
//! well-defined point per batch (the global update). That makes batch
//! boundaries natural *serving epochs*: right after `Q_{t+1}` is installed,
//! the executor publishes a [`ServingSnapshot`] — the checkpoint encoding of
//! the model plus its exported micro-clusters — into a shared
//! [`SnapshotSlot`]. Reader threads answer nearest-cluster predict queries
//! from their cached snapshot with **zero driver contention**: a reader
//! touches one atomic per query and takes a lock only when a newer epoch
//! exists (see [`SnapshotReader`]).
//!
//! Determinism carries over: the snapshot for epoch `N` is a pure function
//! of the model after batch `N`'s global update, so its bytes are identical
//! across parallelism degrees and across the synchronous and overlapped
//! pipelines (the executor always publishes under the *applied* batch's
//! index, preserving the async lag in the epoch numbering).

use std::sync::Arc;

use diststream_engine::{encode, SnapshotReader, SnapshotSlot};
use diststream_telemetry as telemetry;

use crate::api::{StreamClustering, WeightedPoint};

/// One published serving epoch: everything a reader needs to answer
/// queries against the model as of a batch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSnapshot {
    /// Index of the batch whose global update produced this model state.
    pub epoch: u64,
    /// Checkpoint encoding of the model (`encode(&model)`) — byte-identical
    /// to what [`Checkpoint`](crate::Checkpoint) would persist at this
    /// boundary, so recovery and serving agree on what epoch `N` means.
    pub model_bytes: Vec<u8>,
    /// The model's exported micro-clusters
    /// ([`StreamClustering::snapshot`]), the input to both the offline
    /// phase and nearest-cluster predicts.
    pub centroids: Vec<WeightedPoint>,
}

/// Shared handle wiring a serving slot to a job: clone one side into
/// [`DistStreamJob::serving`](crate::DistStreamJob::serving), hand
/// [`serving_reader`] handles to query threads.
pub type ServingHandle = Arc<SnapshotSlot<ServingSnapshot>>;

/// Creates an empty serving slot.
pub fn serving_handle() -> ServingHandle {
    SnapshotSlot::shared()
}

/// Creates a caching read handle for query threads.
pub fn serving_reader(handle: &ServingHandle) -> SnapshotReader<ServingSnapshot> {
    handle.reader()
}

/// Builds and publishes the serving snapshot for `batch_index`. Called by
/// the executor immediately after a global update installs the new model;
/// the encode + export cost is driver-side and traced as its own span so
/// the overhead is visible in batch critical paths.
pub(crate) fn publish_snapshot<A: StreamClustering>(
    handle: &ServingHandle,
    algo: &A,
    model: &A::Model,
    batch_index: usize,
) {
    let _span = telemetry::span!(telemetry::names::SPAN_SNAPSHOT_PUBLISH, batch = batch_index);
    let epoch = batch_index as u64;
    let snapshot = ServingSnapshot {
        epoch,
        model_bytes: encode(model),
        centroids: algo.snapshot(model),
    };
    handle.publish(epoch, snapshot);
    if telemetry::enabled() {
        telemetry::counter(telemetry::names::METRIC_SERVING_PUBLISHES_TOTAL).inc();
        telemetry::gauge(telemetry::names::METRIC_SERVING_EPOCH).set(epoch as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveClustering;
    use diststream_types::{Point, Record, Timestamp};

    #[test]
    fn publish_encodes_the_exact_model() {
        let algo = NaiveClustering::new(1.0);
        let model = algo
            .init(&[Record::new(0, Point::from(vec![1.0]), Timestamp::ZERO)])
            .unwrap();
        let handle = serving_handle();
        publish_snapshot(&handle, &algo, &model, 3);
        let (epoch, snap) = handle.latest().expect("published");
        assert_eq!(epoch, 3);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.model_bytes, encode(&model));
        assert_eq!(snap.centroids, algo.snapshot(&model));
    }

    #[test]
    fn reader_helper_reads_the_slot() {
        let algo = NaiveClustering::new(1.0);
        let model = algo
            .init(&[Record::new(0, Point::from(vec![2.0]), Timestamp::ZERO)])
            .unwrap();
        let handle = serving_handle();
        let mut reader = serving_reader(&handle);
        assert!(reader.current().is_none());
        publish_snapshot(&handle, &algo, &model, 0);
        assert_eq!(reader.current().map(|(e, _)| e), Some(0));
    }
}
