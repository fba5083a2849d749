//! The event journal: typed events, JSONL encoding, and the barrier drain.
//!
//! Spans and point events accumulate in per-thread buffers (see `span.rs`).
//! When a thread's buffer flushes — explicitly at a barrier, or implicitly
//! when the thread exits — its events land in a process-wide pending queue.
//! [`barrier_drain`] moves the pending queue into the installed sink: a
//! JSONL file (`--trace-out`) or an in-memory capture used by tests.
//!
//! The journal is strictly observational: when no sink is installed the
//! drain discards events (counting them), and when telemetry is disabled
//! nothing is recorded at all.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Schema version stamped into the journal's leading `meta` line; readers
/// (`diststream-trace`, `xtask check-trace`) refuse any other. Version 2
/// dropped `batch_summary`'s `overhead_secs`, which the runtime always
/// wrote as 0.0.
pub const JOURNAL_VERSION: u64 = 2;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was opened.
    Open,
    /// A span was closed; `dur_us` holds its duration.
    Close,
    /// A named instantaneous observation with numeric fields.
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Point => "point",
        }
    }
}

/// One journal event. Span events carry nesting metadata; point events
/// carry a flat list of numeric fields (merged into the JSON object, so
/// field names must avoid the reserved keys `ev`, `span`, `name`,
/// `thread`, `seq`, `depth`, `t_us`, `dur_us`, `batch`, `task`).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Span or point name (static so hot paths never allocate for it).
    pub name: &'static str,
    /// Per-thread ordinal assigned at the thread's first event.
    pub thread: u64,
    /// Per-thread monotonically increasing sequence number.
    pub seq: u64,
    /// Span nesting depth at open time (0 = top level). 0 for points.
    pub depth: u16,
    /// Event timestamp, microseconds since the telemetry clock anchor.
    pub t_us: u64,
    /// Span duration in microseconds (close events only).
    pub dur_us: u64,
    /// Mini-batch index, when the emitter is batch-scoped.
    pub batch: Option<u64>,
    /// Task index, when the emitter is task-scoped.
    pub task: Option<u64>,
    /// Extra numeric payload (point events).
    pub fields: Vec<(&'static str, f64)>,
}

/// Serializes a finite `f64` the way JSON requires; non-finite values
/// (which JSON cannot represent) become `null`.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest round-trippable form.
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

impl Event {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ev\":\"");
        out.push_str(self.kind.as_str());
        out.push('"');
        let name_key = match self.kind {
            EventKind::Point => "name",
            _ => "span",
        };
        out.push_str(&format!(",\"{name_key}\":\"{}\"", escape(self.name)));
        out.push_str(&format!(
            ",\"thread\":{},\"seq\":{},\"t_us\":{}",
            self.thread, self.seq, self.t_us
        ));
        if self.kind != EventKind::Point {
            out.push_str(&format!(",\"depth\":{}", self.depth));
        }
        if self.kind == EventKind::Close {
            out.push_str(&format!(",\"dur_us\":{}", self.dur_us));
        }
        if let Some(batch) = self.batch {
            out.push_str(&format!(",\"batch\":{batch}"));
        }
        if let Some(task) = self.task {
            out.push_str(&format!(",\"task\":{task}"));
        }
        for (key, value) in &self.fields {
            out.push_str(&format!(",\"{}\":{}", escape(key), json_f64(*value)));
        }
        out.push('}');
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

enum Sink {
    Memory(Vec<Event>),
    File(BufWriter<File>),
}

#[derive(Default)]
struct JournalState {
    sink: Option<Sink>,
    /// Events drained while no sink was installed.
    discarded: u64,
    /// Write errors swallowed (telemetry must never fail the run).
    write_errors: u64,
}

static PENDING: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static JOURNAL: Mutex<Option<JournalState>> = Mutex::new(None);

fn with_journal<R>(f: impl FnOnce(&mut JournalState) -> R) -> R {
    let mut guard = match JOURNAL.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(guard.get_or_insert_with(JournalState::default))
}

/// Appends a thread buffer's events to the process-wide pending queue.
/// Called by `span.rs` when a thread flushes or exits.
pub(crate) fn push_pending(events: &mut Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut pending = match PENDING.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    pending.append(events);
}

fn write_line(sink: &mut Sink, line: &str) -> std::io::Result<()> {
    match sink {
        Sink::Memory(_) => Ok(()),
        Sink::File(w) => {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")
        }
    }
}

/// Installs a JSONL file sink at `path`, truncating any existing file, and
/// writes the leading `meta` line.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created or written.
pub(crate) fn set_journal_file(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(
        format!("{{\"ev\":\"meta\",\"version\":{JOURNAL_VERSION},\"clock\":\"monotonic-us\"}}\n")
            .as_bytes(),
    )?;
    with_journal(|j| {
        j.sink = Some(Sink::File(writer));
        j.discarded = 0;
        j.write_errors = 0;
    });
    Ok(())
}

/// Installs an in-memory capture sink (tests). Captured events are
/// returned by [`close_journal`].
pub fn set_journal_capture() {
    with_journal(|j| {
        j.sink = Some(Sink::Memory(Vec::new()));
        j.discarded = 0;
        j.write_errors = 0;
    });
}

/// Renders the trailing journal line recording `count` dropped events.
fn drops_line(count: u64) -> String {
    format!("{{\"ev\":\"drops\",\"count\":{count}}}")
}

/// Removes the sink, flushing a file sink. Returns captured events when the
/// sink was an in-memory capture.
///
/// A file journal that lost events (swallowed write errors — telemetry
/// never fails the run) gets a trailing `{"ev":"drops","count":N}` line so
/// downstream consumers (`xtask check-trace`, trace analytics) can tell a
/// truncated journal from a complete one.
pub fn close_journal() -> Vec<Event> {
    with_journal(|j| {
        let drops = j.discarded + j.write_errors;
        match j.sink.take() {
            Some(Sink::Memory(events)) => events,
            Some(Sink::File(mut w)) => {
                if drops > 0 {
                    let _ = w.write_all(drops_line(drops).as_bytes());
                    let _ = w.write_all(b"\n");
                }
                let _ = w.flush();
                Vec::new()
            }
            None => Vec::new(),
        }
    })
}

/// Test hook: pretends `count` journal writes failed, so the drops trailer
/// path can be exercised without an actual I/O failure.
#[cfg(test)]
pub(crate) fn force_write_errors(count: u64) {
    with_journal(|j| j.write_errors += count);
}

/// Number of events drained while no sink was installed, plus write errors
/// swallowed. Non-zero values indicate a misconfigured session, never a
/// correctness problem.
pub fn dropped_events() -> u64 {
    with_journal(|j| j.discarded + j.write_errors)
}

/// The barrier drain: flushes the calling thread's buffer, then moves the
/// whole pending queue into the installed sink.
///
/// The engine calls this on the driver thread at every mini-batch barrier —
/// after the global update, when all worker threads of the batch have
/// exited and their buffers have auto-flushed — so the journal is complete
/// and batch-ordered without any cross-thread coordination on the hot path.
pub fn barrier_drain() {
    crate::span::flush_thread();
    let drained: Vec<Event> = {
        let mut pending = match PENDING.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::take(&mut *pending)
    };
    if drained.is_empty() {
        return;
    }
    with_journal(|j| match &mut j.sink {
        Some(Sink::Memory(events)) => events.extend(drained),
        Some(sink @ Sink::File(_)) => {
            for event in &drained {
                if write_line(sink, &event.to_json()).is_err() {
                    j.write_errors += 1;
                }
            }
        }
        None => j.discarded += drained.len() as u64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind) -> Event {
        Event {
            kind,
            name: "demo",
            thread: 1,
            seq: 2,
            depth: 3,
            t_us: 4,
            dur_us: 5,
            batch: Some(6),
            task: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn open_event_json_shape() {
        let json = event(EventKind::Open).to_json();
        assert_eq!(
            json,
            "{\"ev\":\"open\",\"span\":\"demo\",\"thread\":1,\"seq\":2,\"t_us\":4,\"depth\":3,\"batch\":6}"
        );
    }

    #[test]
    fn close_event_includes_duration() {
        let json = event(EventKind::Close).to_json();
        assert!(json.contains("\"dur_us\":5"));
    }

    #[test]
    fn point_event_merges_fields() {
        let mut e = event(EventKind::Point);
        e.fields = vec![("records", 10.0), ("frac", 0.25)];
        let json = e.to_json();
        assert!(json.contains("\"name\":\"demo\""));
        assert!(json.contains("\"records\":10.0"));
        assert!(json.contains("\"frac\":0.25"));
        assert!(!json.contains("depth"));
    }

    #[test]
    fn non_finite_fields_become_null() {
        let mut e = event(EventKind::Point);
        e.fields = vec![("bad", f64::NAN), ("worse", f64::INFINITY)];
        let json = e.to_json();
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("\"worse\":null"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn drops_line_shape() {
        assert_eq!(drops_line(3), "{\"ev\":\"drops\",\"count\":3}");
    }
}
