//! Chrome trace-event export: journal → the JSON array format that
//! `chrome://tracing` and Perfetto load directly.
//!
//! Span close events become `"X"` (complete) events — the close carries
//! both the duration and, by subtraction, the start timestamp. Point
//! events become `"i"` (instant) events with their numeric payload in
//! `args`. Timestamps are already microseconds, the format's native unit.

use std::fmt::Write as _;

use crate::parse::{EventKind, Journal};

/// Renders the journal as a Chrome trace-event JSON array.
pub fn export(journal: &Journal) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for event in &journal.events {
        let mut entry = String::new();
        match event.kind {
            EventKind::Close => {
                let ts = event.t_us.saturating_sub(event.dur_us);
                let _ = write!(
                    entry,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":0,\"tid\":{}",
                    escape(&event.name),
                    event.dur_us,
                    event.thread
                );
            }
            EventKind::Point => {
                let _ = write!(
                    entry,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":0,\"tid\":{}",
                    escape(&event.name),
                    event.t_us,
                    event.thread
                );
            }
            // Opens are redundant with the "X" entries built from closes.
            EventKind::Open => continue,
        }
        entry.push_str(",\"args\":{");
        let mut first_arg = true;
        let mut arg = |key: &str, value: String| {
            if !first_arg {
                entry.push(',');
            }
            first_arg = false;
            let _ = write!(entry, "\"{}\":{value}", escape(key));
        };
        if let Some(batch) = event.batch {
            arg("batch", batch.to_string());
        }
        if let Some(task) = event.task {
            arg("task", task.to_string());
        }
        for (key, value) in &event.fields {
            let rendered = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            arg(key, rendered);
        }
        entry.push_str("}}");

        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&entry);
    }
    out.push_str("\n]\n");
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_journal;

    #[test]
    fn exports_complete_and_instant_events() {
        let contents = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"monotonic-us\"}\n\
            {\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":100,\"depth\":0,\"batch\":2}\n\
            {\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":1,\"t_us\":400,\"depth\":0,\"dur_us\":300,\"batch\":2}\n\
            {\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":2,\"t_us\":401,\"batch\":2,\"total_secs\":0.5}";
        let journal = parse_journal(contents).expect("parses");
        let trace = export(&journal);
        // The "X" event starts at close − duration.
        assert!(
            trace.contains(
                "{\"name\":\"batch\",\"ph\":\"X\",\"ts\":100,\"dur\":300,\"pid\":0,\"tid\":0,\"args\":{\"batch\":2}}"
            ),
            "{trace}"
        );
        assert!(
            trace.contains(
                "{\"name\":\"batch_summary\",\"ph\":\"i\",\"ts\":401,\"s\":\"t\",\"pid\":0,\"tid\":0,\"args\":{\"batch\":2,\"total_secs\":0.5}}"
            ),
            "{trace}"
        );
        assert!(trace.starts_with('['));
        assert!(trace.ends_with("]\n"));
        // Opens are folded into the "X" entries.
        assert_eq!(trace.matches("\"name\":\"batch\"").count(), 1);
    }
}
