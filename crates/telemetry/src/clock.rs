//! The telemetry clock — the single sanctioned monotonic-time read.
//!
//! All span and journal timestamps come from `now_ns`: nanoseconds since
//! a process-wide anchor taken on first use. Confining the `Instant::now`
//! call to this module keeps the `wallclock-entropy` lint meaningful: time
//! is observed here for *attribution only* and never feeds back into model
//! state, batching decisions, or anything else replay-sensitive.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process-wide telemetry anchor.
///
/// The anchor is the first call to this function, so early timestamps are
/// small; only differences between readings are meaningful.
pub(crate) fn now_ns() -> u64 {
    let anchor = ANCHOR.get_or_init(Instant::now);
    // u64 nanoseconds cover ~584 years of process uptime.
    anchor.elapsed().as_nanos() as u64
}

/// Converts a [`now_ns`] reading (or duration) to microseconds, the unit
/// used in the JSONL journal.
pub(crate) fn ns_to_us(ns: u64) -> u64 {
    ns / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_us(1_500), 1);
    }
}
