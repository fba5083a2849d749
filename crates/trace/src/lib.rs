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
//!   per-task durations through a simulated LPT schedule at hypothetical
//!   parallelism levels, reporting predicted speedup and the serial
//!   fraction (Amdahl ceiling) that caps it.
//! - **Can I look at it?** [`chrome::export`] renders the journal in the
//!   Chrome trace-event format for `chrome://tracing` / Perfetto.
//!
//! Like the telemetry crate it mirrors, this crate deliberately has no
//! dependencies: it is consumed by `xtask` (which must stay fast to
//! build) and by the bench harness.

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
