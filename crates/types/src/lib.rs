//! Core data types shared by every crate in the DistStream workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *DistStream: An Order-Aware Distributed Framework for Online-Offline
//! Stream Clustering Algorithms* (ICDCS 2020):
//!
//! - [`Point`] — a dense `d`-dimensional feature vector with the arithmetic
//!   needed by micro-cluster sketches (addition, scaling, squared distance).
//! - [`Timestamp`] — virtual stream time in seconds. Quality experiments run
//!   on virtual time so results are deterministic and host-independent.
//! - [`Record`] — one stream element: a point, its arrival timestamp, a
//!   global arrival sequence number (the *order* in "order-aware"), and an
//!   optional ground-truth class label used only for evaluation.
//! - [`ClusteringConfig`] — the shared algorithm knobs (decay base `β`,
//!   impact threshold `α`, batch size) including the paper's maximum batch
//!   bound `log_β(1/α)` from §IV-D.
//! - [`DistStreamError`] — the common error type.
//!
//! # Examples
//!
//! ```
//! use diststream_types::{Point, Record, Timestamp};
//!
//! let a = Point::from(vec![0.0, 3.0]);
//! let b = Point::from(vec![4.0, 0.0]);
//! assert_eq!(a.distance(&b), 5.0);
//!
//! let record = Record::new(0, a, Timestamp::from_secs(1.5));
//! assert_eq!(record.dims(), 2);
//! ```

#![forbid(unsafe_code)]

mod config;
mod error;
mod point;
mod record;
mod stream;

pub use config::ClusteringConfig;
pub use error::DistStreamError;
pub use point::{
    lane_squared_distance, lane_squared_distance_bounded, lane_squared_distance_scaled,
    lane_squared_norm, Point,
};
pub use record::{ClassId, Record, RecordId, Timestamp};
pub use stream::{LabeledPoint, StreamSummary};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DistStreamError>;
