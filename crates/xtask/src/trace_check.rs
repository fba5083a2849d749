//! `xtask check-trace`: structural validation of a telemetry span journal.
//!
//! The journal (`--trace-out`) is JSONL with a leading `meta` line; every
//! other line is a flat object — an `open`/`close` span event or a named
//! `point` (see `crates/telemetry/src/journal.rs`). The checker verifies
//! what the integrity tests verify in-process, but against the actual file
//! an experiment produced:
//!
//! 1. the meta line is present and the schema version is supported;
//! 2. every event carries its required fields with sane types;
//! 3. per thread: sequence numbers strictly increase, timestamps never go
//!    backwards, spans nest LIFO (each `close` matches the innermost open
//!    span and records the same depth), and every opened span is closed;
//! 4. every `batch_summary` point reads back as a batch record (the field
//!    table of `diststream_telemetry::record` — every field present) and
//!    reconciles: the critical-path components sum (sync protocol) or
//!    overlap-max (async protocol) to `total_secs` within 5% — the rule and
//!    the tolerance are the runtime's own (`diststream_telemetry::time_model`);
//! 5. pipeline spans sit where the overlapped pipeline puts them: a
//!    `prefetch` or `retire` span never nests inside a `batch` span (ingest
//!    and the freeing of spent batches run on the prefetch worker's own
//!    thread, off the driver's batch loop), and a `combine` span
//!    always nests inside a `local_update` span (the map-side combine is
//!    part of step 2);
//! 6. the driver phase is tiled by its sub-spans: `global_copy`,
//!    `global_order`, `global_premerge` and `global_apply` open only
//!    directly inside a `global_update` span, and over the whole journal
//!    their durations sum to the `global_update` spans' within 5%. The sum
//!    is judged per journal, the granularity the blame table reports at,
//!    because that is what a journal can resolve: one span with a 30 us
//!    hole is a thread the scheduler took off the core, every span with
//!    one is work nobody wrapped in a sub-span;
//! 7. set-up comes before its job's batches: an `init` span opens with
//!    nothing open on its thread, no `batch` span opens inside one, and a
//!    thread opens no second `init` before a `batch` — at most one per job,
//!    since every run path initialises once and then drives its batches on
//!    the same thread.
//!
//! Lines are parsed by `diststream_trace::parse_flat_object` — the one
//! journal line parser in the workspace, written against the file format
//! and sharing no code with the telemetry encoder, so an encoder bug
//! cannot hide from its validator.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use diststream_telemetry::names::POINT_BATCH_SUMMARY;
use diststream_telemetry::record::BatchRecord;
use diststream_telemetry::time_model::{reconcile_tolerance, GLOBAL_SUBSPANS, RECONCILE_REL_TOL};
use diststream_trace::parse::check_version;
use diststream_trace::{parse_flat_object, Value};

/// One open span on a thread's stack.
struct OpenSpan {
    name: String,
    depth: f64,
    line: usize,
    /// Summed duration of the `GLOBAL_SUBSPANS` closed directly inside this
    /// span, and how many there were.
    sub_us: f64,
    subs: usize,
}

/// Summary of a successful check, for the one-line report.
#[derive(Debug, Default, PartialEq)]
pub struct TraceStats {
    pub lines: usize,
    pub spans_closed: usize,
    pub points: usize,
    pub batch_summaries: usize,
    pub threads: usize,
}

/// Validates the journal file at `path`. Returns run statistics, or every
/// diagnostic found (each prefixed `line N:`).
pub fn check_trace_file(path: &Path) -> Result<TraceStats, Vec<String>> {
    let contents = std::fs::read_to_string(path)
        .map_err(|err| vec![format!("cannot read {}: {err}", path.display())])?;
    check_trace(&contents)
}

/// Validates journal contents (testable without touching the filesystem).
pub fn check_trace(contents: &str) -> Result<TraceStats, Vec<String>> {
    let mut errors = Vec::new();
    let mut stats = TraceStats::default();
    // Per-thread checker state: (last seq, last t_us, stack of open spans).
    let mut threads: BTreeMap<u64, (f64, f64, Vec<OpenSpan>)> = BTreeMap::new();
    let mut saw_meta = false;
    // Summed duration of the `global_update` spans, of the sub-spans
    // closed directly inside them, and their count.
    let (mut phase_us, mut phase_sub_us, mut phase_subs) = (0.0, 0.0, 0usize);
    // Threads that opened an `init` span and no `batch` span since.
    let mut initialised: BTreeSet<u64> = BTreeSet::new();

    for (idx, line) in contents.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        stats.lines += 1;
        let fields = match parse_flat_object(line) {
            Ok(fields) => fields,
            Err(err) => {
                errors.push(format!("line {lineno}: {err}"));
                continue;
            }
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(ev) = get("ev").and_then(Value::as_str) else {
            errors.push(format!("line {lineno}: missing string field `ev`"));
            continue;
        };

        if !saw_meta {
            // The meta line must come first so readers can dispatch on the
            // schema before touching any event.
            if ev != "meta" {
                errors.push(format!(
                    "line {lineno}: journal must start with a meta line, found `{ev}`"
                ));
            } else {
                match get("version").and_then(Value::as_num).map(check_version) {
                    Some(Ok(())) => {}
                    Some(Err(err)) => errors.push(format!("line {lineno}: {err}")),
                    None => errors.push(format!("line {lineno}: meta line lacks `version`")),
                }
            }
            saw_meta = true;
            continue;
        }

        match ev {
            "meta" => {
                errors.push(format!("line {lineno}: duplicate meta line"));
            }
            "open" | "close" => {
                let name = get("span").and_then(Value::as_str).map(str::to_string);
                let thread = get("thread").and_then(Value::as_num);
                let seq = get("seq").and_then(Value::as_num);
                let t_us = get("t_us").and_then(Value::as_num);
                let depth = get("depth").and_then(Value::as_num);
                let (Some(name), Some(thread), Some(seq), Some(t_us), Some(depth)) =
                    (name, thread, seq, t_us, depth)
                else {
                    errors.push(format!(
                        "line {lineno}: `{ev}` event lacks span/thread/seq/t_us/depth"
                    ));
                    continue;
                };
                let state = threads
                    .entry(thread as u64)
                    .or_insert((-1.0, 0.0, Vec::new()));
                check_thread_order(state, seq, t_us, lineno, &mut errors);
                let stack = &mut state.2;
                if ev == "open" {
                    if depth != stack.len() as f64 {
                        errors.push(format!(
                            "line {lineno}: open `{name}` records depth {depth} but thread \
                             {thread} has {} open span(s)",
                            stack.len()
                        ));
                    }
                    if (name == "prefetch" || name == "retire")
                        && stack.iter().any(|s| s.name == "batch")
                    {
                        errors.push(format!(
                            "line {lineno}: `{name}` span opened inside a `batch` span — \
                             the prefetch worker's spans must stay off the driver's batch loop"
                        ));
                    }
                    if name == "combine" && !stack.iter().any(|s| s.name == "local_update") {
                        errors.push(format!(
                            "line {lineno}: `combine` span opened outside a `local_update` \
                             span — the map-side combine belongs to step 2"
                        ));
                    }
                    if name == "init" {
                        if let Some(outer) = stack.last() {
                            errors.push(format!(
                                "line {lineno}: `init` span opened inside `{}` — set-up is \
                                 nested in nothing",
                                outer.name
                            ));
                        }
                        if !initialised.insert(thread as u64) {
                            errors.push(format!(
                                "line {lineno}: second `init` span on thread {thread} before \
                                 any `batch` — a job initialises once"
                            ));
                        }
                    }
                    if name == "batch" {
                        if stack.iter().any(|s| s.name == "init") {
                            errors.push(format!(
                                "line {lineno}: `batch` span opened inside `init` — set-up \
                                 closes before the first batch opens"
                            ));
                        }
                        initialised.remove(&(thread as u64));
                    }
                    if GLOBAL_SUBSPANS.contains(&name.as_str())
                        && stack.last().is_none_or(|s| s.name != "global_update")
                    {
                        errors.push(format!(
                            "line {lineno}: `{name}` span opened outside a `global_update` \
                             span — it is a sub-span of step 3"
                        ));
                    }
                    stack.push(OpenSpan {
                        name,
                        depth,
                        line: lineno,
                        sub_us: 0.0,
                        subs: 0,
                    });
                } else {
                    let dur_us = get("dur_us").and_then(Value::as_num);
                    if dur_us.is_none() {
                        errors.push(format!("line {lineno}: close `{name}` lacks `dur_us`"));
                    }
                    match stack.pop() {
                        Some(open) => {
                            if open.name != name || open.depth != depth {
                                errors.push(format!(
                                    "line {lineno}: close `{name}` (depth {depth}) does not \
                                     match innermost open `{}` (depth {}, line {}) — spans \
                                     must nest LIFO",
                                    open.name, open.depth, open.line
                                ));
                            } else {
                                stats.spans_closed += 1;
                                let dur_us = dur_us.unwrap_or(0.0);
                                if GLOBAL_SUBSPANS.contains(&name.as_str()) {
                                    if let Some(parent) = stack.last_mut() {
                                        parent.sub_us += dur_us;
                                        parent.subs += 1;
                                    }
                                }
                                if name == "global_update" {
                                    phase_us += dur_us;
                                    phase_sub_us += open.sub_us;
                                    phase_subs += open.subs;
                                }
                            }
                        }
                        None => errors.push(format!(
                            "line {lineno}: close `{name}` with no open span on thread {thread}"
                        )),
                    }
                }
            }
            "point" => {
                let name = get("name").and_then(Value::as_str).map(str::to_string);
                let thread = get("thread").and_then(Value::as_num);
                let seq = get("seq").and_then(Value::as_num);
                let t_us = get("t_us").and_then(Value::as_num);
                let (Some(name), Some(thread), Some(seq), Some(t_us)) = (name, thread, seq, t_us)
                else {
                    errors.push(format!(
                        "line {lineno}: `point` event lacks name/thread/seq/t_us"
                    ));
                    continue;
                };
                let state = threads
                    .entry(thread as u64)
                    .or_insert((-1.0, 0.0, Vec::new()));
                check_thread_order(state, seq, t_us, lineno, &mut errors);
                stats.points += 1;
                if name == POINT_BATCH_SUMMARY {
                    stats.batch_summaries += 1;
                    let field = |key: &str| get(key).and_then(Value::as_num);
                    if let Err(err) = check_batch_summary(field) {
                        errors.push(format!("line {lineno}: {err}"));
                    }
                }
            }
            "drops" => {
                // Trailer appended on close when the bounded journal queue
                // overflowed. A truncated journal fails validation: every
                // downstream analysis would silently under-count.
                match get("count").and_then(Value::as_num) {
                    Some(count) if count > 0.0 => errors.push(format!(
                        "line {lineno}: journal truncated — {count} event(s) dropped by the \
                         bounded writer queue (raise the queue capacity or slow the workload)"
                    )),
                    Some(_) => {}
                    None => errors.push(format!("line {lineno}: `drops` event lacks `count`")),
                }
            }
            other => {
                errors.push(format!("line {lineno}: unknown event kind `{other}`"));
            }
        }
    }

    if !saw_meta {
        errors.push("journal is empty (no meta line)".to_string());
    }
    for (thread, (_, _, stack)) in &threads {
        for open in stack {
            errors.push(format!(
                "line {}: span `{}` on thread {thread} is never closed",
                open.line, open.name
            ));
        }
    }
    // Journal durations are truncated to whole microseconds, one truncation
    // per sub-span, on top of the relative tolerance.
    let tolerance = phase_us * RECONCILE_REL_TOL + phase_subs as f64;
    if (phase_us - phase_sub_us).abs() > tolerance {
        errors.push(format!(
            "the `global_update` spans lasted {phase_us}us in all but their {phase_subs} \
             sub-span(s) sum to {phase_sub_us}us (tolerance {tolerance:.0}us) — the sub-spans \
             must tile the phase"
        ));
    }
    stats.threads = threads.len();
    if errors.is_empty() {
        Ok(stats)
    } else {
        Err(errors)
    }
}

/// Per-thread ordering: `seq` strictly increases and the monotonic
/// timestamp never goes backwards.
fn check_thread_order(
    state: &mut (f64, f64, Vec<OpenSpan>),
    seq: f64,
    t_us: f64,
    lineno: usize,
    errors: &mut Vec<String>,
) {
    let (last_seq, last_t, _) = state;
    if seq <= *last_seq {
        errors.push(format!(
            "line {lineno}: seq {seq} not greater than previous {last_seq} on this thread"
        ));
    }
    if t_us < *last_t {
        errors.push(format!(
            "line {lineno}: t_us {t_us} moves backwards (previous {last_t}) on this thread"
        ));
    }
    *last_seq = seq;
    *last_t = t_us;
}

/// The `batch_summary` reconciliation: the point reads back as a
/// [`BatchRecord`], whose critical path must reproduce the journaled
/// `total_secs` within [`reconcile_tolerance`].
fn check_batch_summary(field: impl Fn(&str) -> Option<f64>) -> Result<(), String> {
    let (record, total) = BatchRecord::from_point(0, field)?;
    let expected = record.total_secs();
    let tolerance = reconcile_tolerance(total);
    if (expected - total).abs() > tolerance {
        return Err(format!(
            "batch_summary does not reconcile: components give {expected:.6}s \
             but total_secs is {total:.6}s (tolerance {tolerance:.6}s)"
        ));
    }
    Ok(())
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

    /// A version-2 `batch_summary` point: `head` carries the point's own
    /// keys and the components under test, the rest is zero.
    fn summary(head: &str) -> String {
        format!(
            "{{\"ev\":\"point\",\"name\":\"batch_summary\",{head},\"records\":10.0,\
             \"broadcast_bytes\":0,\"shuffle_bytes\":0,\"collect_bytes\":0,\"stragglers\":0,\
             \"parallelism\":1,\"assign_driver_secs\":0.0,\"local_driver_secs\":0.0}}"
        )
    }

    #[test]
    fn accepts_well_formed_journal() {
        let contents = journal(&[
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":10,\"depth\":0,\"batch\":0}",
            "{\"ev\":\"open\",\"span\":\"assignment\",\"thread\":0,\"seq\":1,\"t_us\":11,\"depth\":1,\"batch\":0}",
            "{\"ev\":\"close\",\"span\":\"assignment\",\"thread\":0,\"seq\":2,\"t_us\":20,\"depth\":1,\"dur_us\":9,\"batch\":0}",
            &summary(
                "\"thread\":0,\"seq\":3,\"t_us\":21,\"batch\":0,\"assignment_secs\":1.0,\
                 \"local_secs\":0.5,\"global_secs\":0.5,\"total_secs\":2.0,\"async_overlap\":0.0",
            ),
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":4,\"t_us\":22,\"depth\":0,\"dur_us\":12,\"batch\":0}",
        ]);
        let stats = check_trace(&contents).expect("journal is valid");
        assert_eq!(stats.spans_closed, 2);
        assert_eq!(stats.points, 1);
        assert_eq!(stats.batch_summaries, 1);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn async_overlap_reconciles_with_max_form() {
        // total = max(1.0 + 0.5, 5.0) = 5.0 — the sync sum (6.5)
        // would fail, the async max must pass.
        let contents = journal(&[&summary(
            "\"thread\":0,\"seq\":0,\"t_us\":1,\"assignment_secs\":1.0,\"local_secs\":0.5,\
             \"global_secs\":5.0,\"total_secs\":5.0,\"async_overlap\":1.0",
        )]);
        assert!(check_trace(&contents).is_ok());
    }

    #[test]
    fn rejects_unclosed_and_misnested_spans() {
        let unclosed = journal(&[
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
        ]);
        let errors = check_trace(&unclosed).expect_err("unclosed span");
        assert!(errors[0].contains("never closed"), "{errors:?}");

        let misnested = journal(&[
            "{\"ev\":\"open\",\"span\":\"a\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"open\",\"span\":\"b\",\"thread\":0,\"seq\":1,\"t_us\":2,\"depth\":1}",
            "{\"ev\":\"close\",\"span\":\"a\",\"thread\":0,\"seq\":2,\"t_us\":3,\"depth\":0,\"dur_us\":2}",
        ]);
        let errors = check_trace(&misnested).expect_err("misnested spans");
        assert!(errors.iter().any(|e| e.contains("nest LIFO")), "{errors:?}");
    }

    #[test]
    fn rejects_seq_regression_and_missing_meta() {
        let regressed = journal(&[
            "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":5,\"t_us\":1}",
            "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":5,\"t_us\":2}",
        ]);
        let errors = check_trace(&regressed).expect_err("seq regression");
        assert!(errors.iter().any(|e| e.contains("seq")), "{errors:?}");

        let no_meta = "{\"ev\":\"point\",\"name\":\"p\",\"thread\":0,\"seq\":0,\"t_us\":1}";
        let errors = check_trace(no_meta).expect_err("missing meta");
        assert!(errors[0].contains("meta"), "{errors:?}");
    }

    #[test]
    fn rejects_unreconciled_batch_summary() {
        let contents = journal(&[&summary(
            "\"thread\":0,\"seq\":0,\"t_us\":1,\"assignment_secs\":1.0,\"local_secs\":1.0,\
             \"global_secs\":1.0,\"total_secs\":9.0,\"async_overlap\":0.0",
        )]);
        let errors = check_trace(&contents).expect_err("bad reconciliation");
        assert!(errors[0].contains("reconcile"), "{errors:?}");

        // A summary the batch record cannot be read from names the field.
        let incomplete = journal(&[
            "{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":0,\"t_us\":1,\
             \"records\":10.0,\"total_secs\":1.0}",
        ]);
        let errors = check_trace(&incomplete).expect_err("incomplete summary");
        assert_eq!(
            errors,
            vec!["line 2: batch_summary lacks numeric `assignment_secs`"]
        );
    }

    #[test]
    fn independent_threads_have_independent_stacks() {
        let contents = journal(&[
            "{\"ev\":\"open\",\"span\":\"a\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"open\",\"span\":\"b\",\"thread\":1,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"a\",\"thread\":0,\"seq\":1,\"t_us\":2,\"depth\":0,\"dur_us\":1}",
            "{\"ev\":\"close\",\"span\":\"b\",\"thread\":1,\"seq\":1,\"t_us\":2,\"depth\":0,\"dur_us\":1}",
        ]);
        let stats = check_trace(&contents).expect("two clean threads");
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.spans_closed, 2);
    }

    #[test]
    fn prefetch_span_must_not_nest_inside_batch() {
        // Correct placement: prefetch on its own (worker) thread.
        let ok = journal(&[
            "{\"ev\":\"open\",\"span\":\"prefetch\",\"thread\":1,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"prefetch\",\"thread\":1,\"seq\":1,\"t_us\":2,\"depth\":0,\"dur_us\":1}",
        ]);
        assert!(check_trace(&ok).is_ok());

        // Wrong placement: prefetch inside the driver's batch span.
        let bad = journal(&[
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"open\",\"span\":\"prefetch\",\"thread\":0,\"seq\":1,\"t_us\":2,\"depth\":1}",
            "{\"ev\":\"close\",\"span\":\"prefetch\",\"thread\":0,\"seq\":2,\"t_us\":3,\"depth\":1,\"dur_us\":1}",
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":3,\"t_us\":4,\"depth\":0,\"dur_us\":3}",
        ]);
        let errors = check_trace(&bad).expect_err("prefetch inside batch");
        assert!(errors.iter().any(|e| e.contains("prefetch")), "{errors:?}");

        // `retire` is the same worker's span and falls under the same rule.
        let retire = |text: &str| text.replace("prefetch", "retire");
        assert!(check_trace(&retire(&ok)).is_ok());
        let errors = check_trace(&retire(&bad)).expect_err("retire inside batch");
        assert!(errors.iter().any(|e| e.contains("retire")), "{errors:?}");
    }

    #[test]
    fn combine_span_must_nest_inside_local_update() {
        let ok = journal(&[
            "{\"ev\":\"open\",\"span\":\"local_update\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"open\",\"span\":\"combine\",\"thread\":0,\"seq\":1,\"t_us\":2,\"depth\":1}",
            "{\"ev\":\"close\",\"span\":\"combine\",\"thread\":0,\"seq\":2,\"t_us\":3,\"depth\":1,\"dur_us\":1}",
            "{\"ev\":\"close\",\"span\":\"local_update\",\"thread\":0,\"seq\":3,\"t_us\":4,\"depth\":0,\"dur_us\":3}",
        ]);
        assert!(check_trace(&ok).is_ok());

        let bad = journal(&[
            "{\"ev\":\"open\",\"span\":\"combine\",\"thread\":0,\"seq\":0,\"t_us\":1,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"combine\",\"thread\":0,\"seq\":1,\"t_us\":2,\"depth\":0,\"dur_us\":1}",
        ]);
        let errors = check_trace(&bad).expect_err("combine outside local_update");
        assert!(errors.iter().any(|e| e.contains("combine")), "{errors:?}");
    }

    #[test]
    fn global_sub_spans_must_nest_in_and_tile_global_update() {
        let span = |ev: &str, name: &str, seq: u32, t: u32, depth: u32, dur: Option<u32>| {
            let dur = dur.map_or(String::new(), |d| format!(",\"dur_us\":{d}"));
            format!(
                "{{\"ev\":\"{ev}\",\"span\":\"{name}\",\"thread\":0,\"seq\":{seq},\
                 \"t_us\":{t},\"depth\":{depth}{dur}}}"
            )
        };
        // order 100us + premerge 300us + apply 1500us inside a 1950us phase.
        let tiled = |apply_dur: u32| {
            [
                span("open", "global_update", 0, 0, 0, None),
                span("open", "global_order", 1, 10, 1, None),
                span("close", "global_order", 2, 110, 1, Some(100)),
                span("open", "global_premerge", 3, 120, 1, None),
                span("close", "global_premerge", 4, 420, 1, Some(300)),
                span("open", "global_apply", 5, 430, 1, None),
                span("close", "global_apply", 6, 1940, 1, Some(apply_dur)),
                span("close", "global_update", 7, 1950, 0, Some(1950)),
            ]
        };
        let lines = tiled(1500);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        assert!(check_trace(&journal(&refs)).is_ok());

        // A phase the sub-spans do not account for fails the tiling check.
        let lines = tiled(500);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let errors = check_trace(&journal(&refs)).expect_err("untiled phase");
        assert!(errors.iter().any(|e| e.contains("tile")), "{errors:?}");

        // Regression (the overlapped quick journal failed ~1 run in 6): one
        // phase the scheduler interrupted between two sub-spans — 35us
        // unaccounted for out of 56us — among phases that tile is not a
        // tiling defect. The same hole in every phase is.
        let phase = |seq: u32, t: u32, hole: u32| {
            [
                span("open", "global_update", seq, t, 0, None),
                span("open", "global_apply", seq + 1, t, 1, None),
                span(
                    "close",
                    "global_apply",
                    seq + 2,
                    t + 56 - hole,
                    1,
                    Some(56 - hole),
                ),
                span("close", "global_update", seq + 3, t + 56, 0, Some(56)),
            ]
        };
        let run = |holes: [u32; 40]| {
            let lines: Vec<String> = (0u32..)
                .zip(holes)
                .flat_map(|(i, hole)| phase(4 * i, 100 * i, hole))
                .collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            check_trace(&journal(&refs))
        };
        let mut holes = [1; 40];
        holes[17] = 35;
        assert!(run(holes).is_ok());
        let errors = run([35; 40]).expect_err("every phase has the hole");
        assert!(errors.iter().any(|e| e.contains("tile")), "{errors:?}");

        // A sub-span outside step 3 is misplaced.
        let lines = [
            span("open", "global_apply", 0, 0, 0, None),
            span("close", "global_apply", 1, 5, 0, Some(5)),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let errors = check_trace(&journal(&refs)).expect_err("stray sub-span");
        assert!(errors.iter().any(|e| e.contains("outside")), "{errors:?}");

        // The runtime opens all four sub-spans in every global update, so
        // a phase with none is untiled, not an older journal.
        let lines = [
            span("open", "global_update", 0, 0, 0, None),
            span("close", "global_update", 1, 900, 0, Some(900)),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let errors = check_trace(&journal(&refs)).expect_err("phase without sub-spans");
        assert!(errors.iter().any(|e| e.contains("tile")), "{errors:?}");
    }

    #[test]
    fn init_span_precedes_its_jobs_batches_once() {
        let span = |ev: &str, name: &str, seq: u32, depth: u32| {
            let dur = if ev == "close" { ",\"dur_us\":1" } else { "" };
            format!(
                "{{\"ev\":\"{ev}\",\"span\":\"{name}\",\"thread\":0,\"seq\":{seq},\
                 \"t_us\":{seq},\"depth\":{depth}{dur}}}"
            )
        };
        let check = |lines: &[String]| {
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            check_trace(&journal(&refs))
        };
        // Two jobs back to back on one thread, each initialised once.
        let job = |seq: u32| {
            [
                span("open", "init", seq, 0),
                span("close", "init", seq + 1, 0),
                span("open", "batch", seq + 2, 0),
                span("close", "batch", seq + 3, 0),
                span("open", "batch", seq + 4, 0),
                span("close", "batch", seq + 5, 0),
            ]
        };
        let two_jobs: Vec<String> = job(0).into_iter().chain(job(6)).collect();
        assert!(check(&two_jobs).is_ok());

        let twice = [
            span("open", "init", 0, 0),
            span("close", "init", 1, 0),
            span("open", "init", 2, 0),
            span("close", "init", 3, 0),
        ];
        let errors = check(&twice).expect_err("two inits, no batch");
        assert!(
            errors.iter().any(|e| e.contains("second `init`")),
            "{errors:?}"
        );

        let nested = [
            span("open", "batch", 0, 0),
            span("open", "init", 1, 1),
            span("close", "init", 2, 1),
            span("close", "batch", 3, 0),
        ];
        let errors = check(&nested).expect_err("init inside a batch");
        assert!(
            errors.iter().any(|e| e.contains("nested in nothing")),
            "{errors:?}"
        );

        let batch_inside = [
            span("open", "init", 0, 0),
            span("open", "batch", 1, 1),
            span("close", "batch", 2, 1),
            span("close", "init", 3, 0),
        ];
        let errors = check(&batch_inside).expect_err("batch inside init");
        assert!(
            errors.iter().any(|e| e.contains("inside `init`")),
            "{errors:?}"
        );
    }

    #[test]
    fn drops_trailer_fails_only_when_events_were_lost() {
        let clean = journal(&["{\"ev\":\"drops\",\"count\":0}"]);
        assert!(check_trace(&clean).is_ok());

        let truncated = journal(&["{\"ev\":\"drops\",\"count\":3}"]);
        let errors = check_trace(&truncated).expect_err("dropped events");
        assert!(errors[0].contains("truncated"), "{errors:?}");

        let malformed = journal(&["{\"ev\":\"drops\"}"]);
        let errors = check_trace(&malformed).expect_err("missing count");
        assert!(errors[0].contains("count"), "{errors:?}");
    }

    /// Malformed lines come back as `line N: <what, at which byte>` from the
    /// shared line parser, one diagnostic per bad line, and checking goes on.
    #[test]
    fn malformed_lines_are_reported_with_their_line_and_byte() {
        let contents = journal(&[
            "not json",
            "{\"ev\":\"point\",\"name\":[1]}",
            "{\"ev\":\"drops\",\"count\":0",
            "{\"ev\":\"drops\",\"count\":0} trailing",
            "{\"thread\":0}",
            "{\"ev\":\"teleport\"}",
        ]);
        let errors = check_trace(&contents).expect_err("six bad lines");
        assert_eq!(
            errors,
            vec![
                "line 2: expected `{` at byte 0, found `n`",
                "line 3: unsupported value starting with `[` at byte 21",
                "line 4: unterminated object",
                "line 5: trailing characters after object",
                "line 6: missing string field `ev`",
                "line 7: unknown event kind `teleport`",
            ]
        );
        // Version 1 (which still carried `overhead_secs`) is refused with
        // both versions named.
        let v1 = "{\"ev\":\"meta\",\"version\":1}";
        let errors = check_trace(v1).expect_err("unsupported version");
        assert_eq!(
            errors,
            vec![
                "line 1: unsupported journal version 1 (this reader reads version 2; \
                 re-record the run)"
            ]
        );
    }

    /// A small in-process job's journal passes the checker in both
    /// protocols. Under the asynchronous one the model is copied inside
    /// `global_update` (the broadcast still shares it), and D-Stream's grid
    /// table is the largest model for the least apply work: without the
    /// `global_copy` sub-span, over a third of this journal's phase is
    /// untiled.
    #[test]
    fn in_process_journals_pass_in_both_protocols() {
        use diststream::algorithms::{DStream, DStreamParams};
        use diststream::core::{DistStreamJob, PipelineOptions};
        use diststream::datasets::covertype_like;
        use diststream::engine::{ExecutionMode, StreamingContext, VecSource};
        use diststream::telemetry;
        use diststream::types::ClusteringConfig;

        let algo = DStream::new(DStreamParams::default());
        let ctx = StreamingContext::new(2, ExecutionMode::Threads).expect("context");
        for (protocol, pipeline) in [
            ("sync", PipelineOptions::sync()),
            ("overlapped", PipelineOptions::all()),
        ] {
            let path = std::env::temp_dir().join(format!(
                "check-trace-{}-{protocol}.jsonl",
                std::process::id()
            ));
            telemetry::start_file_session(&path).expect("journal file");
            let run = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
                .init_records(400)
                .pipeline(pipeline)
                .run_to_end(VecSource::new(covertype_like(6000, 3).to_records(50.0)));
            telemetry::finish_file_session();
            let checked = check_trace_file(&path);
            let journal = std::fs::read_to_string(&path).unwrap_or_default();
            let _ = std::fs::remove_file(&path);
            run.expect("job");
            let stats = checked.unwrap_or_else(|errors| panic!("{protocol}: {errors:#?}"));
            assert!(stats.batch_summaries > 5, "{protocol}: too few batches");
            assert_eq!(
                journal.contains("\"span\":\"prefetch\""),
                protocol == "overlapped"
            );
        }
    }
}
