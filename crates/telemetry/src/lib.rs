//! # diststream-telemetry
//!
//! Dependency-free structured tracing and metrics for the DistStream
//! workspace: a span-scoped JSONL event journal, a typed metrics registry
//! with Prometheus-style exposition, and the plumbing the engine uses for
//! straggler/backpressure attribution.
//!
//! ## Design in one paragraph
//!
//! Instrumentation sites open spans with the [`span!`] macro; each span
//! records an `open`/`close` event pair into a per-thread buffer (plain
//! `Vec` pushes — no locks on the hot path). Worker threads flush their
//! buffers automatically when they exit at the step barrier; the driver
//! then calls [`barrier_drain`] once per mini-batch to move everything
//! into the installed sink — a JSONL file (`--trace-out`) or an in-memory
//! capture for tests. Metrics ([`counter`], [`gauge`], [`histogram`]) are
//! lock-free atomic handles registered by name and rendered at run end via
//! [`expose`] (Prometheus text) or [`summary_rows`] (human table).
//! [`time_model`] defines once what the journal's timing fields mean: the
//! step makespan and the batch critical path that the engine records and
//! that trace analytics and `xtask check-trace` read back.
//!
//! ## Observation-only guarantee
//!
//! Telemetry never feeds back into computation: timestamps come from the
//! single sanctioned monotonic clock in [`clock`], and nothing the
//! subsystem records influences batching, scheduling, or model state. The
//! workspace determinism suite runs with tracing enabled to enforce this
//! (bit-identical merged models, tracing on vs off, threads 1 vs 4).
//!
//! ## Overhead budget
//!
//! Disabled (the default): one `SeqCst` load per instrumentation site.
//! Enabled: two `Instant` reads and two `Vec` pushes per span, amortized
//! buffer drains at batch barriers only.

#![forbid(unsafe_code)]

pub mod clock;
pub mod journal;
pub mod metrics;
pub mod names;
pub mod span;
pub mod time_model;

pub use journal::{
    barrier_drain, close_journal, dropped_events, set_journal_capture, Event, EventKind,
    JOURNAL_VERSION,
};
pub use metrics::{
    counter, expose, gauge, histogram, interpolate_quantile, summary_rows, Counter, Gauge,
    Histogram, SummaryRow,
};
pub use span::{emit_point, enabled, open_span, set_enabled, SpanGuard};

/// Convenience session setup: enables tracing and installs a JSONL file
/// sink at `path` (truncating it). Pair with [`finish_file_session`].
///
/// # Errors
///
/// Returns the I/O error if the journal file cannot be created; tracing is
/// left disabled in that case.
pub fn start_file_session(path: &std::path::Path) -> std::io::Result<()> {
    journal::set_journal_file(path)?;
    set_enabled(true);
    Ok(())
}

/// Ends a file session: performs a final drain, disables tracing, surfaces
/// the session's lost-event count as the
/// `diststream_journal_events_dropped_total` counter (registered even
/// at zero, so the exposition always answers "was anything dropped?"), and
/// closes the journal (flushing the file, with a `drops` trailer line when
/// events were lost).
pub fn finish_file_session() {
    barrier_drain();
    set_enabled(false);
    counter(names::METRIC_JOURNAL_EVENTS_DROPPED_TOTAL).add(dropped_events());
    close_journal();
}

/// Serializes the tests of this crate that touch its process-global state:
/// the span journal, and the metrics registry (`metrics::reset` in one test
/// would otherwise wipe what another has just recorded).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match TEST_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::test_lock as lock;
    use super::*;

    #[test]
    fn spans_record_open_close_pairs() {
        let _guard = lock();
        set_journal_capture();
        set_enabled(true);
        {
            let _outer = span!("outer", batch = 3);
            let _inner = span!("inner", batch = 3, task = 1);
        }
        barrier_drain();
        set_enabled(false);
        let events = close_journal();
        let spans: Vec<_> = events.iter().filter(|e| e.name == "outer").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, EventKind::Open);
        assert_eq!(spans[1].kind, EventKind::Close);
        assert_eq!(spans[0].batch, Some(3));
        let inner: Vec<_> = events.iter().filter(|e| e.name == "inner").collect();
        assert_eq!(inner.len(), 2);
        assert_eq!(inner[0].task, Some(1));
        // Inner opened after outer, at one level deeper.
        assert_eq!(inner[0].depth, spans[0].depth + 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = lock();
        set_journal_capture();
        set_enabled(false);
        {
            let _span = span!("ghost");
            emit_point("ghost_point", None, &[("x", 1.0)]);
        }
        barrier_drain();
        let events = close_journal();
        assert!(events.iter().all(|e| !e.name.starts_with("ghost")));
    }

    #[test]
    fn guard_closes_silently_if_disabled_mid_span() {
        let _guard = lock();
        set_journal_capture();
        set_enabled(false);
        let open = span!("toggle");
        set_enabled(true);
        drop(open);
        set_enabled(false);
        barrier_drain();
        let events = close_journal();
        assert!(events.iter().all(|e| e.name != "toggle"));
    }

    #[test]
    fn point_events_carry_fields() {
        let _guard = lock();
        set_journal_capture();
        set_enabled(true);
        emit_point("batch_summary", Some(7), &[("total_secs", 0.5)]);
        barrier_drain();
        set_enabled(false);
        let events = close_journal();
        let point = events
            .iter()
            .find(|e| e.name == "batch_summary")
            .expect("point recorded");
        assert_eq!(point.kind, EventKind::Point);
        assert_eq!(point.batch, Some(7));
        assert_eq!(point.fields, vec![("total_secs", 0.5)]);
    }

    #[test]
    fn file_session_surfaces_drops_as_counter_and_trailer() {
        let _guard = lock();
        let dir = std::env::temp_dir();
        let clean = dir.join(format!(
            "diststream-journal-clean-{}.jsonl",
            std::process::id()
        ));
        let truncated = dir.join(format!(
            "diststream-journal-drops-{}.jsonl",
            std::process::id()
        ));

        metrics::reset();
        start_file_session(&clean).expect("create journal");
        finish_file_session();
        assert_eq!(
            counter(names::METRIC_JOURNAL_EVENTS_DROPPED_TOTAL).get(),
            0,
            "clean session counted drops"
        );
        let contents = std::fs::read_to_string(&clean).expect("read journal");
        assert!(
            !contents.contains("\"ev\":\"drops\""),
            "clean journal got a drops trailer: {contents:?}"
        );

        metrics::reset();
        start_file_session(&truncated).expect("create journal");
        journal::force_write_errors(2);
        finish_file_session();
        assert_eq!(counter(names::METRIC_JOURNAL_EVENTS_DROPPED_TOTAL).get(), 2);
        let contents = std::fs::read_to_string(&truncated).expect("read journal");
        assert!(
            contents.ends_with("{\"ev\":\"drops\",\"count\":2}\n"),
            "missing drops trailer: {contents:?}"
        );

        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&truncated);
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit() {
        let _guard = lock();
        set_journal_capture();
        set_enabled(true);
        // Joined through its handle, not a scope: `join` returns once the
        // thread is gone, thread-local destructors (the flush under test)
        // included, whereas a scope only waits for the closure to return.
        std::thread::spawn(|| {
            let _span = span!("worker_side");
        })
        .join()
        .expect("worker thread panicked");
        barrier_drain();
        set_enabled(false);
        let events = close_journal();
        let count = events.iter().filter(|e| e.name == "worker_side").count();
        assert_eq!(count, 2);
    }
}
