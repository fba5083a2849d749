//! Journal parsing: JSONL text → typed event stream.
//!
//! The telemetry journal is JSONL with a leading `meta` line; every other
//! line is a flat object with scalar values — an `open`/`close` span event,
//! a named `point`, or a trailing `drops` line recording lost events (see
//! `crates/telemetry/src/journal.rs`). The parser here handles exactly that
//! subset (string / number / null values, no nesting), so the crate needs
//! no JSON dependency.
//!
//! Unlike `xtask check-trace` — which reads lines through the same
//! [`parse_flat_object`], validates structure and reports every defect —
//! [`parse_journal`] is a consumer: it requires the meta line and a
//! supported version, errors on lines it cannot parse, and skips event
//! kinds it does not know (forward compatibility with future journal
//! additions).

use std::fmt;

use diststream_telemetry::JOURNAL_VERSION;

/// Accepts a journal's meta-line `version` when it is the one this
/// workspace writes, [`JOURNAL_VERSION`]: the batch record's field table
/// reads exactly the fields that version writes.
///
/// # Errors
///
/// Names both versions. A journal of another version is re-recorded, not
/// read.
pub fn check_version(version: f64) -> Result<(), String> {
    if version == JOURNAL_VERSION as f64 {
        Ok(())
    } else {
        Err(format!(
            "unsupported journal version {version} (this reader reads version \
             {JOURNAL_VERSION}; re-record the run)"
        ))
    }
}

/// What a parsed journal event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was opened.
    Open,
    /// A span was closed; `dur_us` holds its duration.
    Close,
    /// A named instantaneous observation with numeric fields.
    Point,
}

/// One parsed journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Span or point name.
    pub name: String,
    /// Per-thread ordinal assigned at the thread's first event.
    pub thread: u64,
    /// Per-thread monotonically increasing sequence number.
    pub seq: u64,
    /// Event timestamp, microseconds since the telemetry clock anchor.
    pub t_us: u64,
    /// Span nesting depth at open time. 0 for points.
    pub depth: u16,
    /// Span duration in microseconds (close events only, 0 otherwise).
    pub dur_us: u64,
    /// Mini-batch index, when the emitter was batch-scoped.
    pub batch: Option<u64>,
    /// Task index, when the emitter was task-scoped.
    pub task: Option<u64>,
    /// Extra numeric payload (point events).
    pub fields: Vec<(String, f64)>,
}

impl TraceEvent {
    /// Looks up a numeric payload field by name.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// A parsed journal: the event stream plus file-level metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journal {
    /// Schema version from the meta line.
    pub version: f64,
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// Lost-event count from the trailing `drops` line (0 when absent —
    /// the journal is complete).
    pub drops: u64,
}

impl Journal {
    /// Iterates the journal's point events with the given name.
    pub fn points<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind == EventKind::Point && e.name == name)
    }
}

/// A journal parse failure, with the 1-based line it occurred on (0 for
/// file-level problems).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based journal line, 0 for file-level errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a journal file.
///
/// # Errors
///
/// Returns the I/O error message or the first malformed line.
pub fn parse_journal_file(path: &std::path::Path) -> Result<Journal, ParseError> {
    let contents = std::fs::read_to_string(path)
        .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
    parse_journal(&contents)
}

/// Parses journal contents.
///
/// # Errors
///
/// Fails on a missing/unsupported meta line or any line that is not a flat
/// scalar object. Unknown *event kinds* are skipped, unknown *keys* are
/// kept as fields — both leave room for journal additions.
pub fn parse_journal(contents: &str) -> Result<Journal, ParseError> {
    let mut journal = Journal::default();
    let mut saw_meta = false;

    for (idx, line) in contents.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_flat_object(line).map_err(|e| err(lineno, e))?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ev = get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| err(lineno, "missing string field `ev`"))?;

        if !saw_meta {
            if ev != "meta" {
                return Err(err(
                    lineno,
                    format!("journal must start with a meta line, found `{ev}`"),
                ));
            }
            let version = get("version")
                .and_then(Value::as_num)
                .ok_or_else(|| err(lineno, "meta line lacks `version`"))?;
            check_version(version).map_err(|e| err(lineno, e))?;
            journal.version = version;
            saw_meta = true;
            continue;
        }

        let kind = match ev {
            "open" => EventKind::Open,
            "close" => EventKind::Close,
            "point" => EventKind::Point,
            "drops" => {
                journal.drops = get("count").and_then(Value::as_num).unwrap_or(0.0) as u64;
                continue;
            }
            // Skip kinds this version does not know.
            _ => continue,
        };
        let name_key = if kind == EventKind::Point {
            "name"
        } else {
            "span"
        };
        let name = get(name_key)
            .and_then(Value::as_str)
            .ok_or_else(|| err(lineno, format!("`{ev}` event lacks `{name_key}`")))?
            .to_string();
        let num = |key: &str| -> Result<u64, ParseError> {
            get(key)
                .and_then(Value::as_num)
                .map(|v| v as u64)
                .ok_or_else(|| err(lineno, format!("`{ev}` event lacks numeric `{key}`")))
        };
        let mut event = TraceEvent {
            kind,
            name,
            thread: num("thread")?,
            seq: num("seq")?,
            t_us: num("t_us")?,
            depth: 0,
            dur_us: 0,
            batch: get("batch").and_then(Value::as_num).map(|v| v as u64),
            task: get("task").and_then(Value::as_num).map(|v| v as u64),
            fields: Vec::new(),
        };
        match kind {
            EventKind::Open => event.depth = num("depth")? as u16,
            EventKind::Close => {
                event.depth = num("depth")? as u16;
                event.dur_us = num("dur_us")?;
            }
            EventKind::Point => {
                const RESERVED: &[&str] = &[
                    "ev", "span", "name", "thread", "seq", "depth", "t_us", "dur_us", "batch",
                    "task",
                ];
                for (key, value) in &fields {
                    if !RESERVED.contains(&key.as_str()) {
                        // Non-finite payloads are journaled as null; keep
                        // the key with NaN so consumers can tell "absent"
                        // from "unrepresentable".
                        let v = value.as_num().unwrap_or(f64::NAN);
                        event.fields.push((key.clone(), v));
                    }
                }
            }
        }
        journal.events.push(event);
    }

    if !saw_meta {
        return Err(err(0, "journal is empty (no meta line)"));
    }
    Ok(journal)
}

/// A minimal JSON scalar — everything the journal encoder can emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `null` (how the encoder journals a non-finite number).
    Null,
}

impl Value {
    /// The string, `None` for anything else.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, `None` for anything else.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one journal line: a flat JSON object (`{"key":value,...}`) with
/// scalar values, fields in file order. The only journal line parser in the
/// workspace — `xtask check-trace` validates through it too.
///
/// # Errors
///
/// Returns what is malformed and at which byte.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let src = line.trim();
    let mut chars = src.char_indices().peekable();
    let mut fields = Vec::new();

    let expect =
        |chars: &mut std::iter::Peekable<std::str::CharIndices>, want: char| match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((at, c)) => Err(format!("expected `{want}` at byte {at}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of line")),
        };

    expect(&mut chars, '{')?;
    if chars.peek().map(|(_, c)| *c) == Some('}') {
        return Ok(fields);
    }
    loop {
        let key = parse_string(src, &mut chars)?;
        expect(&mut chars, ':')?;
        let value = parse_value(src, &mut chars)?;
        fields.push((key, value));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            Some((at, c)) => return Err(format!("expected `,` or `}}` at byte {at}, found `{c}`")),
            None => return Err("unterminated object".to_string()),
        }
    }
    if chars.next().is_some() {
        return Err("trailing characters after object".to_string());
    }
    Ok(fields)
}

fn parse_string(
    src: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        Some((at, c)) => return Err(format!("expected `\"` at byte {at}, found `{c}`")),
        None => return Err("expected string, found end of line".to_string()),
    }
    let mut out = String::new();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars
                            .next()
                            .and_then(|(_, d)| d.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + digit;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(format!("bad escape in string at byte {at} of `{src}`")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_value(
    src: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
) -> Result<Value, String> {
    match chars.peek() {
        Some((_, '"')) => parse_string(src, chars).map(Value::Str),
        Some((_, 'n')) => {
            for want in "null".chars() {
                match chars.next() {
                    Some((_, c)) if c == want => {}
                    _ => return Err("bad literal (expected `null`)".to_string()),
                }
            }
            Ok(Value::Null)
        }
        Some((start, c)) if *c == '-' || c.is_ascii_digit() => {
            let start = *start;
            let mut end = start;
            while let Some((at, c)) = chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = at + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            src[start..end]
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number `{}`", &src[start..end]))
        }
        Some((at, c)) => Err(format!(
            "unsupported value starting with `{c}` at byte {at}"
        )),
        None => Err("expected value, found end of line".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"monotonic-us\"}";

    fn journal(lines: &[&str]) -> String {
        let mut out = String::from(META);
        for line in lines {
            out.push('\n');
            out.push_str(line);
        }
        out
    }

    #[test]
    fn parses_spans_points_and_drops() {
        let contents = journal(&[
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":10,\"depth\":0,\"batch\":0}",
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":1,\"t_us\":30,\"depth\":0,\"dur_us\":20,\"batch\":0}",
            "{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":2,\"t_us\":31,\"batch\":0,\"records\":10.0,\"total_secs\":0.5}",
            "{\"ev\":\"drops\",\"count\":3}",
        ]);
        let parsed = parse_journal(&contents).expect("parses");
        assert_eq!(parsed.version, 2.0);
        assert_eq!(parsed.events.len(), 3);
        assert_eq!(parsed.drops, 3);
        assert_eq!(parsed.events[0].kind, EventKind::Open);
        assert_eq!(parsed.events[1].dur_us, 20);
        let point = &parsed.events[2];
        assert_eq!(point.kind, EventKind::Point);
        assert_eq!(point.batch, Some(0));
        assert_eq!(point.field("records"), Some(10.0));
        assert_eq!(point.field("total_secs"), Some(0.5));
        assert_eq!(point.field("absent"), None);
        assert_eq!(parsed.points("batch_summary").count(), 1);
    }

    #[test]
    fn skips_unknown_event_kinds() {
        let contents = journal(&[
            "{\"ev\":\"future_thing\",\"payload\":1}",
            "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":0,\"t_us\":1}",
        ]);
        let parsed = parse_journal(&contents).expect("parses");
        assert_eq!(parsed.events.len(), 1);
    }

    #[test]
    fn null_point_fields_become_nan() {
        let contents = journal(&[
            "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":0,\"t_us\":1,\"bad\":null}",
        ]);
        let parsed = parse_journal(&contents).expect("parses");
        assert!(parsed.events[0].field("bad").unwrap().is_nan());
    }

    #[test]
    fn rejects_missing_meta_and_bad_version() {
        let no_meta = "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":0,\"t_us\":1}";
        let e = parse_journal(no_meta).expect_err("no meta");
        assert!(e.message.contains("meta"), "{e}");

        let bad_version = "{\"ev\":\"meta\",\"version\":99}";
        let e = parse_journal(bad_version).expect_err("bad version");
        assert!(e.message.contains("unsupported"), "{e}");

        // Version 1 still wrote `overhead_secs`; it is refused by name.
        let v1 = "{\"ev\":\"meta\",\"version\":1,\"clock\":\"monotonic-us\"}";
        let e = parse_journal(v1).expect_err("v1 journal");
        assert_eq!(e.line, 1);
        assert!(
            e.message.contains("version 1") && e.message.contains("version 2"),
            "{e}"
        );

        let e = parse_journal("").expect_err("empty");
        assert!(e.message.contains("empty"), "{e}");
    }

    #[test]
    fn line_parser_handles_escapes_null_and_rejects_garbage() {
        let fields =
            parse_flat_object("{\"a\":\"x\\\"y\",\"b\":-1.5e3,\"c\":null}").expect("parses");
        assert_eq!(fields[0].1, Value::Str("x\"y".to_string()));
        assert_eq!(fields[1].1, Value::Num(-1500.0));
        assert_eq!(fields[2].1, Value::Null);
        assert!(parse_flat_object("{\"a\":[1]}").is_err());
        assert!(parse_flat_object("{\"a\":1").is_err());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let contents = journal(&["not json"]);
        let e = parse_journal(&contents).expect_err("garbage line");
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("line 2:"), "{e}");
    }
}
