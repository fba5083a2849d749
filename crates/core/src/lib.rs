//! DistStream framework core: the order-aware mini-batch update model.
//!
//! This crate is the primary contribution of *DistStream: An Order-Aware
//! Distributed Framework for Online-Offline Stream Clustering Algorithms*
//! (ICDCS 2020), implemented on the `diststream-engine` runtime:
//!
//! - [`StreamClustering`] — the four developer APIs (micro-cluster
//!   representation, distance computation, local update, global update) that
//!   any online-offline algorithm implements to get parallelized.
//! - [`JobSession`] — the one batch stepper: per batch its
//!   [`step`](JobSession::step) broadcasts the stale model, assigns records
//!   with record-based parallelism (§V-A), locally updates chosen
//!   micro-clusters with model-based parallelism and per-group
//!   arrival-order folds (§V-B), and runs the ordered, pre-merged global
//!   update on the driver (§V-C) — at the bottom of the same step, or with
//!   [`PipelineOptions::overlap`] (the §VII-D2 asynchronous protocol) at
//!   the top of the next one.
//! - [`UpdateOrdering::Unordered`] — the unordered mini-batch baseline the
//!   paper compares against.
//! - [`SequentialExecutor`] — the one-record-at-a-time baseline (MOA
//!   analog) with the strict sequential feedback loop.
//! - [`DistStreamJob`] — the one driver: end-to-end wiring from a record
//!   source through initialization, mini-batching, and per-batch reporting.
//!   `run` (optionally prefetched, or sampled in overload mode) and
//!   `run_adaptive` differ only in the batch feed, which sees the previous
//!   batch's outcome at each pull and so hosts any controller of the next
//!   batch (`run_adaptive` takes the caller's, e.g. an
//!   [`AdaptiveBatchSizer`]); each is `init_model → start → for batch in
//!   feed(previous outcome) { step; report; drain } → finish` over a
//!   [`JobSession`], which fault and elastic harnesses step directly.
//!   Checkpointing ([`DistStreamJob::checkpoint_every`]) and elastic resizing
//!   ([`DistStreamJob::resize`]) are boundary steps of [`JobSession::step`],
//!   so they combine with every pipeline option and with each other.
//!
//! Every batch crosses its boundaries — resize, write-ahead log, the three
//! steps and snapshot publication, rollback, meter, checkpoint, report,
//! journal drain, and at the next pull the controller — in one fixed order,
//! stated once in DESIGN.md §11.1a.
//!
//! # Examples
//!
//! ```
//! use diststream_core::reference::NaiveClustering;
//! use diststream_core::DistStreamJob;
//! use diststream_engine::{ExecutionMode, StreamingContext, VecSource};
//! use diststream_types::{ClusteringConfig, Point, Record, Timestamp};
//!
//! let algo = NaiveClustering::new(1.0);
//! let ctx = StreamingContext::new(4, ExecutionMode::Simulated)?;
//! let stream: Vec<Record> = (0..500)
//!     .map(|i| {
//!         let x = (i % 5) as f64 * 4.0;
//!         Record::new(i, Point::from(vec![x]), Timestamp::from_secs(i as f64 * 0.05))
//!     })
//!     .collect();
//! let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
//!     .init_records(20)
//!     .run_to_end(VecSource::new(stream))?;
//! assert!(result.meter.records() > 0);
//! # Ok::<(), diststream_types::DistStreamError>(())
//! ```

#![forbid(unsafe_code)]

mod adaptive;
mod api;
mod assignment;
mod distribution;
mod elastic;
mod global;
mod local;
mod pipeline;
mod recovery;
pub mod reference;
mod sequential;
mod serving;
mod session;
mod store;

pub use adaptive::AdaptiveBatchSizer;
pub use api::{
    Assignment, MicroClusterId, Searcher, Sketch, StreamClustering, UpdateOrdering, WeightedPoint,
};
pub use assignment::{assign_records_distributed, AssignmentOutcome};
pub use distribution::{strategy_for, Placement, StrategyKind};
pub use elastic::{ResizeOutcome, ResizeSchedule};
pub use global::{global_update, GlobalOutcome};
pub use local::{
    local_update_distributed, CreatedSketch, LocalOutcome, LocalScratch, UpdatedSketch,
};
pub use pipeline::{
    take_records, BatchReport, DistStreamJob, OverloadOptions, OverloadStats, PipelineOptions,
    RunResult,
};
pub use recovery::{BatchDisposition, Checkpoint};
pub use sequential::{SequentialExecutor, SequentialSummary};
pub use serving::{serving_handle, serving_reader, ServingHandle, ServingSnapshot};
pub use session::{BatchOutcome, JobSession};
pub use store::{CheckpointStore, FileCheckpointStore, MemoryCheckpointStore};

/// The telemetry crate, for the counters an algorithm's [`Searcher`] bumps
/// from inside this crate's assignment step: algorithm crates reach it
/// through here, so their dependency lists — which `benchmark/Cargo.lock`
/// pins — stay as they are.
pub use diststream_telemetry as telemetry;
