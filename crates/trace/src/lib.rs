//! Trace analytics over DistStream telemetry journals.
//!
//! The telemetry crate *records* JSONL journals; this crate *consumes*
//! them. It turns a journal into a per-batch profile and answers the
//! questions an operator actually asks of a trace:
//!
//! - **Where did the time go?** [`analyze`] extracts each batch's
//!   critical path — the chain of phases that bounds wall time, which
//!   differs between the synchronous and overlapped pipelines — and
//!   aggregates it into a [`BlameTable`] naming the dominant phase.
//! - **What changed?** [`diff_blame`] compares two runs phase by phase
//!   and [`attribute_regression`] names the phase with the largest
//!   critical-path growth, so a >15% throughput regression comes with an
//!   attribution instead of a shrug.
//! - **Would more workers help?** [`predict`] replays the recorded
//!   per-task durations through the list schedule the runtime itself uses
//!   (tasks in submission order, each on the least-loaded slot) at
//!   hypothetical parallelism levels, reporting predicted speedup and the
//!   serial fraction (Amdahl ceiling) that caps it.
//! - **Can I look at it?** [`chrome::export`] renders the journal in the
//!   Chrome trace-event format for `chrome://tracing` / Perfetto.
//!
//! Its one dependency is the dependency-free telemetry crate, whose
//! [`time_model`](diststream_telemetry::time_model) defines the makespan,
//! the critical path and the reconciliation tolerance this crate reads
//! journals by. It is consumed by `xtask` (which must stay fast to build)
//! and by the bench harness.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod diff;
pub mod parse;
pub mod whatif;

pub use analysis::{
    analyze, span_multiset, BatchProfile, BlameRow, BlameTable, LatencyDigest, Phase, RunProfile,
    Segment,
};
pub use diff::{attribute_regression, diff_blame, PhaseDelta};
pub use parse::{
    parse_flat_object, parse_journal, parse_journal_file, EventKind, Journal, ParseError,
    TraceEvent, Value,
};
pub use whatif::{predict, WhatIf};
