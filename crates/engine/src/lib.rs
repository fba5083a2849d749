//! Mini-batch distributed streaming runtime — the Spark-Streaming-equivalent
//! substrate DistStream is built on.
//!
//! The DistStream paper implements its order-aware mini-batch update model on
//! top of Spark Streaming, relying on four runtime capabilities:
//!
//! 1. **Mini-batch division** of an unbounded record stream — [`MiniBatcher`]
//!    cuts a [`RecordSource`] into virtual-time windows.
//! 2. **Parallel map over record partitions** (record-based parallelism) —
//!    [`StreamingContext::run_tasks`] over contiguous `&[Record]` slices of
//!    the batch (Spark splits round-robin; any split whose outputs
//!    concatenate back into arrival order computes the same bytes), with
//!    the model shipped to every task as a [`Broadcast`].
//! 3. **Shuffle / group-by-key** (model-based parallelism) —
//!    [`FlatShuffle`], routed by a deterministic hash partitioner.
//! 4. **Driver-side aggregation** at the end of each batch — task outputs are
//!    collected in task order, and the caller runs the global step on the
//!    driver.
//!
//! This crate provides those capabilities with two interchangeable execution
//! modes ([`ExecutionMode`]):
//!
//! - [`ExecutionMode::Threads`] — a real OS-thread worker pool: a step's
//!   `p` tasks run on `p` threads and its wall time is measured. Used by
//!   tests of the concurrent code paths and on multi-core hosts.
//! - [`ExecutionMode::Simulated`] — the `p` tasks run on one thread, each
//!   individually wall-timed, and the step's wall time in [`StepMetrics`]
//!   is the barrier makespan of those times over `p` slots (the list
//!   schedule of `diststream_telemetry::time_model`).
//!
//! Either way the *data* computed is identical — execution mode only affects
//! the reported timings. The runtime measures and never prices: network,
//! scheduling and straggler charges of a modelled cluster are computed
//! afterwards from the recorded [`BatchRecord`] (the `repro` harness does).

//! # Examples
//!
//! ```
//! use diststream_engine::{ExecutionMode, StreamingContext};
//!
//! // Four parallel tasks each squaring a partition of numbers.
//! let ctx = StreamingContext::new(4, ExecutionMode::Threads)?;
//! // Tasks take `Copy` views of their partition, never the data itself.
//! let parts: Vec<Vec<i64>> = vec![vec![1, 2], vec![3], vec![4, 5], vec![6]];
//! let views: Vec<&[i64]> = parts.iter().map(Vec::as_slice).collect();
//! let (out, metrics) = ctx.run_tasks(views, |_task, xs| {
//!     xs.iter().map(|x| x * x).collect::<Vec<_>>()
//! })?;
//! assert_eq!(out, vec![vec![1, 4], vec![9], vec![16, 25], vec![36]]);
//! assert_eq!(metrics.task_secs().len(), 4);
//! # Ok::<(), diststream_types::DistStreamError>(())
//! ```

#![forbid(unsafe_code)]

mod backpressure;
mod batcher;
mod broadcast;
mod codec;
mod driver;
mod faults;
mod latency;
mod partition;
mod pool;
mod prefetch;
mod reorder;
mod sampler;
mod serving;
mod source;

pub use backpressure::LoadShedPolicy;
pub use batcher::{MiniBatch, MiniBatcher};
pub use broadcast::Broadcast;
pub use codec::{decode, encode, encode_into, serialized_size};
pub use diststream_telemetry::record::{BatchRecord, StepMetrics, ThroughputMeter};
pub use driver::{ExecutionMode, StreamingContext};
pub use faults::FaultPlan;
pub use latency::{LatencyProbe, RecordLatency, LATENCY_BUCKET_BOUNDS};
pub use partition::{
    combine_by_key, fnv1a_hash, group_by_key, AppendCombiner, CombineStats, Combiner, FlatShuffle,
    Fnv1a, HashPartitioner, KeyBytes, ShufflePartition,
};
pub use pool::{
    chunk_size, split_chunks, TaskPool, CHUNK_OVERPARTITION, DEFAULT_MAX_TASK_FAILURES,
    MIN_CHUNK_SIZE,
};
pub use prefetch::{prefetch_batches, PrefetchedBatches};
pub use reorder::ReorderBuffer;
pub use sampler::{error_bound, SamplerControl, StratifiedSampler};
pub use serving::{SnapshotReader, SnapshotSlot};
pub use source::{RecordSource, RepeatSource, VecSource};
