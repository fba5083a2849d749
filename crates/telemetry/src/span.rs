//! Span recording: RAII guards writing into lock-free per-thread buffers.
//!
//! Opening a span appends an `open` event to the calling thread's local
//! buffer and dropping the guard appends the matching `close` — plain
//! `Vec` pushes, no locks or atomics beyond the one global enable check.
//! Buffers reach the journal in two ways:
//!
//! - the driver thread flushes explicitly inside the barrier drain;
//! - worker threads flush automatically when they exit (the thread-local
//!   buffer's `Drop` runs as the step's thread scope joins, *before* the
//!   step barrier releases the driver), so a barrier drain always sees a
//!   complete picture of the batch that just finished.
//!
//! Guards close in LIFO order by construction (Rust drop order), so spans
//! on one thread always nest; the journal records depth so `xtask
//! check-trace` and the integrity tests can verify it end to end.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::clock;
use crate::journal::{self, Event, EventKind};

/// Global switch. When off, span guards and point events are no-ops whose
/// only cost is one atomic load at the call site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Next per-thread ordinal (assigned lazily at a thread's first event).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Whether telemetry recording is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Turns recording on or off. Enabling does not install a journal sink —
/// see [`start_file_session`](crate::start_file_session) /
/// [`journal::set_journal_capture`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

struct ThreadBuffer {
    thread: u64,
    seq: u64,
    depth: u16,
    events: Vec<Event>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer {
            thread: NEXT_THREAD.fetch_add(1, Ordering::SeqCst),
            seq: 0,
            depth: 0,
            events: Vec::with_capacity(64),
        }
    }

    fn push(&mut self, kind: EventKind, name: &'static str, record: &SpanRecord) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event {
            kind,
            name,
            thread: self.thread,
            seq,
            depth: record.depth,
            t_us: clock::ns_to_us(record.t_ns),
            dur_us: clock::ns_to_us(record.dur_ns),
            batch: record.batch,
            task: record.task,
            fields: record.fields.clone(),
        });
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        journal::push_pending(&mut self.events);
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

struct SpanRecord {
    depth: u16,
    t_ns: u64,
    dur_ns: u64,
    batch: Option<u64>,
    task: Option<u64>,
    fields: Vec<(&'static str, f64)>,
}

/// Flushes the calling thread's buffer into the journal's pending queue.
pub(crate) fn flush_thread() {
    BUFFER.with(|b| {
        if let Ok(mut buffer) = b.try_borrow_mut() {
            let mut events = std::mem::take(&mut buffer.events);
            journal::push_pending(&mut events);
        }
    });
}

/// An open span; dropping it records the close event. Created by
/// [`open_span`] (usually through the [`span!`](crate::span!) macro).
#[must_use = "a span measures the scope it is bound to; use `let _span = span!(…)`"]
pub struct SpanGuard {
    /// `Some` while the span is recording (telemetry was enabled at open).
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    depth: u16,
    batch: Option<u64>,
    task: Option<u64>,
}

/// Opens a span. Records nothing (and costs one atomic load) when
/// telemetry is disabled; the guard then closes silently even if telemetry
/// is enabled before the drop, so opens and closes always pair up.
pub fn open_span(name: &'static str, batch: Option<u64>, task: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let start_ns = clock::now_ns();
    let depth = BUFFER.with(|b| {
        let Ok(mut buffer) = b.try_borrow_mut() else {
            return None;
        };
        let depth = buffer.depth;
        buffer.depth = depth.saturating_add(1);
        let record = SpanRecord {
            depth,
            t_ns: start_ns,
            dur_ns: 0,
            batch,
            task,
            fields: Vec::new(),
        };
        buffer.push(EventKind::Open, name, &record);
        Some(depth)
    });
    match depth {
        Some(depth) => SpanGuard {
            open: Some(OpenSpan {
                name,
                start_ns,
                depth,
                batch,
                task,
            }),
        },
        None => SpanGuard { open: None },
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let now = clock::now_ns();
        BUFFER.with(|b| {
            let Ok(mut buffer) = b.try_borrow_mut() else {
                return;
            };
            buffer.depth = buffer.depth.saturating_sub(1);
            let record = SpanRecord {
                depth: open.depth,
                t_ns: now,
                dur_ns: now.saturating_sub(open.start_ns),
                batch: open.batch,
                task: open.task,
                fields: Vec::new(),
            };
            buffer.push(EventKind::Close, open.name, &record);
        });
    }
}

/// Records a named point event with numeric fields (batch-scoped when
/// `batch` is `Some`). No-op when telemetry is disabled.
pub fn emit_point(name: &'static str, batch: Option<u64>, fields: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    let t_ns = clock::now_ns();
    BUFFER.with(|b| {
        let Ok(mut buffer) = b.try_borrow_mut() else {
            return;
        };
        let record = SpanRecord {
            depth: 0,
            t_ns,
            dur_ns: 0,
            batch,
            task: None,
            fields: fields.to_vec(),
        };
        buffer.push(EventKind::Point, name, &record);
    });
}

/// Opens a scope-bound span: `let _span = span!("local_update", batch = i);`
///
/// Accepted forms: `span!(name)`, `span!(name, batch = expr)`,
/// `span!(name, task = expr)`, `span!(name, batch = expr, task = expr)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::open_span($name, None, None)
    };
    ($name:expr, batch = $b:expr) => {
        $crate::span::open_span($name, Some($b as u64), None)
    };
    ($name:expr, task = $t:expr) => {
        $crate::span::open_span($name, None, Some($t as u64))
    };
    ($name:expr, batch = $b:expr, task = $t:expr) => {
        $crate::span::open_span($name, Some($b as u64), Some($t as u64))
    };
}
