//! The workspace-wide error type.

use std::error::Error;
use std::fmt;

/// Errors produced by DistStream crates.
///
/// All public fallible APIs in the workspace return this type (or a crate
/// alias of `Result<T, DistStreamError>`). It is `Send + Sync + 'static` so
/// it can cross the engine's task boundaries.
///
/// # Examples
///
/// ```
/// use diststream_types::DistStreamError;
///
/// let err = DistStreamError::DimensionMismatch { expected: 2, got: 3 };
/// assert_eq!(err.to_string(), "dimension mismatch: expected 2, got 3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistStreamError {
    /// A record's dimensionality disagrees with the model's.
    DimensionMismatch {
        /// Dimensionality the model was initialized with.
        expected: usize,
        /// Dimensionality of the offending record.
        got: usize,
    },
    /// The stream produced no records where at least one was required.
    EmptyStream,
    /// A record carries a NaN or ±∞ coordinate, which no sketch can absorb
    /// without poisoning it.
    NonFiniteRecord {
        /// Id of the offending record.
        id: u64,
    },
    /// A configuration knob is out of its valid range.
    InvalidConfig(String),
    /// The distributed engine failed (worker panic, channel closed, ...).
    Engine(String),
    /// A task kept failing after its configured retry budget was spent.
    ///
    /// Produced by the engine's task-retry layer: a panicking task is
    /// re-executed on its retained input up to `max_task_failures` times
    /// (the Spark `spark.task.maxFailures` analog) before this error
    /// surfaces to the driver.
    TaskFailed {
        /// Step-local index of the failing task.
        task: usize,
        /// Number of attempts made (initial execution plus retries).
        attempts: usize,
        /// Panic message of the final attempt, where recoverable.
        reason: String,
    },
    /// Stable-storage checkpoint I/O failed (write, rename, manifest).
    Storage(String),
    /// A model checkpoint failed validation and cannot be restored
    /// (empty, truncated, or otherwise malformed payload).
    CorruptCheckpoint {
        /// Index of the last batch folded into the rejected checkpoint.
        batch_index: usize,
        /// Why validation rejected it.
        reason: String,
    },
    /// The model has not been initialized (no initial micro-clusters).
    Uninitialized,
    /// A micro-cluster id referenced by a global update does not exist in
    /// the model (and the algorithm has no orphan-placement fallback).
    UnknownMicroCluster {
        /// The missing micro-cluster id.
        id: u64,
    },
    /// An internal invariant did not hold. Produced where the panic-path
    /// audit converted an `unwrap()`/`expect()` into a typed error: the
    /// condition indicates a framework bug, but surfacing it as an error
    /// lets the fault model (retry, batch skip) contain it instead of
    /// tearing down the worker.
    Invariant(String),
}

impl fmt::Display for DistStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistStreamError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            DistStreamError::EmptyStream => write!(f, "stream produced no records"),
            DistStreamError::NonFiniteRecord { id } => {
                write!(f, "record {id} has a non-finite coordinate")
            }
            DistStreamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DistStreamError::Engine(msg) => write!(f, "engine failure: {msg}"),
            DistStreamError::TaskFailed {
                task,
                attempts,
                reason,
            } => {
                write!(f, "task {task} failed after {attempts} attempts: {reason}")
            }
            DistStreamError::Storage(msg) => write!(f, "checkpoint storage failure: {msg}"),
            DistStreamError::CorruptCheckpoint {
                batch_index,
                reason,
            } => {
                write!(f, "checkpoint after batch {batch_index} corrupt: {reason}")
            }
            DistStreamError::Uninitialized => {
                write!(f, "model not initialized with initial micro-clusters")
            }
            DistStreamError::UnknownMicroCluster { id } => {
                write!(f, "unknown micro-cluster id {id} in global update")
            }
            DistStreamError::Invariant(msg) => {
                write!(f, "internal invariant violated: {msg}")
            }
        }
    }
}

impl Error for DistStreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<DistStreamError>();
    }

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let cases: Vec<DistStreamError> = vec![
            DistStreamError::DimensionMismatch {
                expected: 1,
                got: 2,
            },
            DistStreamError::EmptyStream,
            DistStreamError::NonFiniteRecord { id: 7 },
            DistStreamError::InvalidConfig("beta".into()),
            DistStreamError::Engine("worker died".into()),
            DistStreamError::TaskFailed {
                task: 2,
                attempts: 4,
                reason: "boom".into(),
            },
            DistStreamError::Storage("rename failed".into()),
            DistStreamError::Uninitialized,
            DistStreamError::UnknownMicroCluster { id: 9 },
            DistStreamError::Invariant("k-means left a point unassigned".into()),
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
