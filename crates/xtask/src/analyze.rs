//! `cargo xtask analyze` — flow-aware workspace static analysis.
//!
//! Runs the legacy lint catalog (`rules.rs`) *and* five flow-aware rule
//! families over one shared walk/lex pass (`workspace.rs`), emits human
//! diagnostics plus SARIF 2.1 (`sarif.rs`), and gates the panic-path and
//! hot-path-indexing audits on a committed baseline so CI fails only on
//! *new* findings while the baseline ratchets down.
//!
//! The flow-aware rules (see DESIGN.md §7 for the full catalog):
//!
//! * `determinism-dataflow` — a `HashMap`/`HashSet` binding iterated into
//!   an ordered sink (`push`/`insert` into another collection) without a
//!   post-loop `sort` on the sink.
//! * `panic-path` — `unwrap`/`expect`/`panic!`-family in shipping
//!   core/engine/algorithms/telemetry code; baseline-gated, honors
//!   `lint:allow(no-panic)` as an alias.
//! * `index-in-hot-path` — `x[i]` indexing in per-record paths
//!   (core/algorithms); baseline-gated.
//! * `telemetry-names` — every `span!`/`counter`/`gauge`/`histogram`/
//!   `emit_point` name must resolve against the catalog in
//!   `crates/telemetry/src/names.rs` (string literals by value with
//!   `{label}` suffixes stripped, `names::CONST` paths by const name);
//!   catalog entries referenced nowhere are dead; the trace nesting rules
//!   in `trace_check.rs` must compare against catalog'd names.
//! * `guard-across-boundary` — a lock guard (`lock()`/`read()`/`write()`)
//!   still live at a `send`/`spawn`/`catch_unwind` boundary call.
//! * `ignored-result` — a checkpoint/journal write (`persist`,
//!   `write_atomic`, `write_manifest`, `set_journal_file`) whose `Result`
//!   is dropped on the floor as a bare statement.
//! * `unsafe-without-safety-comment` — an `unsafe` block or fn without a
//!   `// SAFETY:` comment on a preceding line.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{Tok, Token};
use crate::parser;
use crate::rules;
use crate::sarif;
use crate::workspace::{self, SourceFile};

/// A diagnostic from any rule (legacy or flow-aware), keyed for baseline
/// grouping and SARIF emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// Parsed options for the `analyze` subcommand.
pub struct Options {
    pub sarif_out: Option<std::path::PathBuf>,
    pub update_baseline: bool,
}

/// Repo-relative path of the committed baseline file.
pub const BASELINE_PATH: &str = "crates/xtask/analyze-baseline.txt";

/// Rules whose findings are grandfathered per (rule, file) by the
/// baseline: CI fails only when a file's count *grows*.
const BASELINE_GATED: [&str; 2] = ["panic-path", "index-in-hot-path"];

/// The analyze outcome: what to print, what to gate on.
pub struct Report {
    /// Findings that fail the run (not baselined, not allowed).
    pub active: Vec<Finding>,
    /// Baseline-suppressed count per (rule, path).
    pub baselined: BTreeMap<(String, String), usize>,
    /// (rule, path, baseline, current) where current < baseline: the
    /// baseline can ratchet down.
    pub ratchet: Vec<(String, String, usize, usize)>,
    pub files_scanned: usize,
    pub rules_run: usize,
}

/// Runs the full analysis over the workspace at `root`.
pub fn run(root: &Path, opts: &Options) -> Result<Report, String> {
    let files = workspace::load(root)?;
    let catalog = load_name_catalog(&files)?;

    let mut findings: Vec<Finding> = Vec::new();

    // The lint catalog (inline `lint:allow` + per-rule allowlist files),
    // sharing this pass's walk and lex.
    let lint_catalog = rules::catalog();
    for rule in &lint_catalog {
        let allowlist = workspace::load_allowlist(root, rule.name);
        for file in &files {
            if !(rule.applies)(&file.rel) || allowlist.contains(&file.rel) {
                continue;
            }
            for v in (rule.check)(&file.tokens) {
                if !file.allows(rule.name, v.line) {
                    findings.push(Finding {
                        rule: v.rule.to_string(),
                        path: file.rel.clone(),
                        line: v.line,
                        message: v.message,
                    });
                }
            }
        }
    }

    // Flow-aware rules.
    let mut used_names: BTreeSet<String> = BTreeSet::new();
    for file in &files {
        check_panic_path(file, &mut findings);
        check_index_in_hot_path(file, &mut findings);
        check_determinism_dataflow(file, &mut findings);
        check_guard_across_boundary(file, &mut findings);
        check_ignored_result(file, &mut findings);
        check_unsafe_safety_comment(file, &mut findings);
        check_telemetry_names(file, &catalog, &mut used_names, &mut findings);
    }
    check_dead_names(&files, &catalog, &used_names, &mut findings);

    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });

    // Baseline gating.
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &findings {
        if BASELINE_GATED.contains(&f.rule.as_str()) {
            *counts.entry((f.rule.clone(), f.path.clone())).or_insert(0) += 1;
        }
    }
    let baseline_file = root.join(BASELINE_PATH);
    if opts.update_baseline {
        std::fs::write(&baseline_file, render_baseline(&counts))
            .map_err(|err| format!("cannot write {}: {err}", baseline_file.display()))?;
    }
    let baseline = load_baseline(&baseline_file)?;

    let mut active = Vec::new();
    let mut baselined: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut over: BTreeSet<(String, String)> = BTreeSet::new();
    for ((rule, path), &current) in &counts {
        let allowed = baseline
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if current > allowed {
            over.insert((rule.clone(), path.clone()));
        } else {
            baselined.insert((rule.clone(), path.clone()), current);
        }
    }
    let mut ratchet = Vec::new();
    for ((rule, path), &allowed) in &baseline {
        let current = counts
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if current < allowed {
            ratchet.push((rule.clone(), path.clone(), allowed, current));
        }
    }
    for f in findings {
        if BASELINE_GATED.contains(&f.rule.as_str())
            && !over.contains(&(f.rule.clone(), f.path.clone()))
        {
            continue; // within baseline budget
        }
        active.push(f);
    }

    Ok(Report {
        active,
        baselined,
        ratchet,
        files_scanned: files.len(),
        rules_run: lint_catalog.len() + 7,
    })
}

/// Writes the SARIF log for a report.
pub fn write_sarif(report: &Report, out: &Path) -> Result<(), String> {
    let text = sarif::to_sarif(&report.active);
    std::fs::write(out, text).map_err(|err| format!("cannot write {}: {err}", out.display()))
}

// ---------------------------------------------------------------------------
// Baseline file

fn render_baseline(counts: &BTreeMap<(String, String), usize>) -> String {
    let mut out = String::from(
        "# xtask analyze baseline — grandfathered finding counts per (rule, file).\n\
         # CI fails only when a file's count grows; shrink freely and regenerate\n\
         # with: cargo run -p xtask -- analyze --update-baseline\n",
    );
    for ((rule, path), count) in counts {
        out.push_str(&format!("{rule}\t{path}\t{count}\n"));
    }
    out
}

fn load_baseline(path: &Path) -> Result<BTreeMap<(String, String), usize>, String> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Ok(BTreeMap::new()); // no baseline: everything is new
    };
    let mut out = BTreeMap::new();
    for (idx, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{}:{}: expected `rule<TAB>path<TAB>count`",
                path.display(),
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{}:{}: bad count `{count}`", path.display(), idx + 1))?;
        out.insert((rule.to_string(), file.to_string()), count);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Token helpers

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match &tokens.get(i)?.tok {
        Tok::Ident(id) => Some(id),
        _ => None,
    }
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::Punct(c))
}

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::PathSep)
}

fn str_at(tokens: &[Token], i: usize) -> Option<&str> {
    match &tokens.get(i)?.tok {
        Tok::Str(s) => Some(s),
        _ => None,
    }
}

/// Index just past the `)` matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, token) in tokens.iter().enumerate().skip(open) {
        match token.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

// ---------------------------------------------------------------------------
// panic-path

fn panic_path_scope(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/engine/src")
        || path.starts_with("crates/algorithms/src")
        || path.starts_with("crates/telemetry/src")
}

pub(crate) fn check_panic_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !panic_path_scope(&file.rel) {
        return;
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let hit = if is_punct(tokens, i, '.') {
            match ident_at(tokens, i + 1) {
                Some(name @ ("unwrap" | "expect")) if is_punct(tokens, i + 2, '(') => Some((
                    tokens[i + 1].line,
                    format!("`.{name}()` on a shipping path; return a typed DistStreamError"),
                )),
                _ => None,
            }
        } else {
            match ident_at(tokens, i) {
                Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented"))
                    if is_punct(tokens, i + 1, '!') =>
                {
                    Some((
                        tokens[i].line,
                        format!("`{name}!` on a shipping path; return a typed DistStreamError"),
                    ))
                }
                _ => None,
            }
        };
        if let Some((line, message)) = hit {
            // `lint:allow(no-panic)` is honored as an alias so existing
            // escapes keep working under the stricter audit.
            if !file.allows("panic-path", line) && !file.allows("no-panic", line) {
                findings.push(Finding {
                    rule: "panic-path".into(),
                    path: file.rel.clone(),
                    line,
                    message,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// index-in-hot-path

fn hot_path_scope(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/algorithms/src")
}

pub(crate) fn check_index_in_hot_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !hot_path_scope(&file.rel) {
        return;
    }
    let tokens = &file.tokens;
    for i in 1..tokens.len() {
        if !is_punct(tokens, i, '[') {
            continue;
        }
        // Indexing: `[` after an ident, `)`, or `]`. Type positions
        // (`: [u8; 4]`), array literals (`= [`), attributes (`#[`), and
        // macro invocations (`vec![`) all follow punctuation instead.
        let is_index = matches!(
            &tokens[i - 1].tok,
            Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']')
        );
        if !is_index {
            continue;
        }
        let line = tokens[i].line;
        if !file.allows("index-in-hot-path", line) {
            findings.push(Finding {
                rule: "index-in-hot-path".into(),
                path: file.rel.clone(),
                line,
                message: "`x[i]` indexing on a per-record path can panic on a bad index; \
                          prefer `get()` with a typed error or an iterator"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// determinism-dataflow

pub(crate) fn check_determinism_dataflow(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for func in parser::functions(tokens) {
        let body = &tokens[func.body_start..=func.body_end.min(tokens.len() - 1)];
        // Bindings are collected over the whole item span so `map:
        // HashMap<…>` parameters in the signature count too.
        let item = &tokens[func.start..=func.body_end.min(tokens.len() - 1)];
        let unordered = unordered_bindings(item);
        if unordered.is_empty() {
            continue;
        }
        // Find `for … in <expr over unordered var>` loops.
        let mut i = 0;
        while i < body.len() {
            if ident_at(body, i) != Some("for") {
                i += 1;
                continue;
            }
            // Scan the loop header up to its `{` for an unordered var.
            let mut j = i + 1;
            let mut header_var: Option<&str> = None;
            let mut saw_in = false;
            while j < body.len() && !is_punct(body, j, '{') {
                if ident_at(body, j) == Some("in") {
                    saw_in = true;
                }
                if saw_in {
                    if let Some(id) = ident_at(body, j) {
                        if unordered.contains(id) {
                            header_var = Some(id);
                        }
                    }
                }
                j += 1;
            }
            let Some(var) = header_var else {
                i = j + 1;
                continue;
            };
            if j >= body.len() {
                break;
            }
            let loop_end = parser::match_brace(body, j);
            // Ordered sinks fed inside the loop body.
            let mut sinks: BTreeSet<String> = BTreeSet::new();
            let mut k = j;
            while k < loop_end {
                if is_punct(body, k + 1, '.')
                    && matches!(ident_at(body, k + 2), Some("push" | "extend"))
                    && is_punct(body, k + 3, '(')
                {
                    if let Some(sink) = ident_at(body, k) {
                        sinks.insert(sink.to_string());
                    }
                }
                k += 1;
            }
            // A sink is protected if it is sorted after the loop.
            let mut unprotected: Vec<String> = Vec::new();
            for sink in sinks {
                let mut sorted = false;
                let mut m = loop_end;
                while m + 2 < body.len() {
                    if ident_at(body, m) == Some(sink.as_str())
                        && is_punct(body, m + 1, '.')
                        && ident_at(body, m + 2).is_some_and(|id| id.starts_with("sort"))
                    {
                        sorted = true;
                        break;
                    }
                    m += 1;
                }
                if !sorted {
                    unprotected.push(sink);
                }
            }
            let line = body[i].line;
            if !unprotected.is_empty() && !file.allows("determinism-dataflow", line) {
                findings.push(Finding {
                    rule: "determinism-dataflow".into(),
                    path: file.rel.clone(),
                    line,
                    message: format!(
                        "iterating unordered `{var}` into `{}` without a post-loop sort; \
                         hash iteration order leaks into an ordered output",
                        unprotected.join("`, `")
                    ),
                });
            }
            i = j + 1; // descend into the loop body for nested loops
        }
    }
}

/// Variable names bound to `HashMap`/`HashSet` in a token slice: matches
/// `let [mut] NAME` bindings whose initializer or type annotation mentions
/// either, plus `NAME: HashMap<…>` parameter/field positions.
fn unordered_bindings(body: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < body.len() {
        if ident_at(body, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(body, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_at(body, j) {
                // Statement extent: to the terminating `;` at depth 0.
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut unordered = false;
                while k < body.len() {
                    match &body[k].tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                        Tok::Punct(';') if depth <= 0 => break,
                        Tok::Ident(id) if id == "HashMap" || id == "HashSet" => unordered = true,
                        _ => {}
                    }
                    k += 1;
                }
                if unordered {
                    out.insert(name.to_string());
                }
                i = k;
                continue;
            }
        }
        // `name: HashMap<…>` / `name: &mut HashSet<…>` (fn parameters
        // reaching the body's rules). Skip reference/mut sigils between
        // the colon and the type name.
        if is_punct(body, i + 1, ':') {
            let mut j = i + 2;
            while is_punct(body, j, '&') || ident_at(body, j) == Some("mut") {
                j += 1;
            }
            if matches!(ident_at(body, j), Some("HashMap" | "HashSet")) {
                if let Some(name) = ident_at(body, i) {
                    out.insert(name.to_string());
                }
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// guard-across-boundary

pub(crate) fn check_guard_across_boundary(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for func in parser::functions(tokens) {
        let body = &tokens[func.body_start..=func.body_end.min(tokens.len() - 1)];
        let mut i = 0;
        while i < body.len() {
            // `let NAME = … .lock()/.read()/.write() …;`
            if ident_at(body, i) != Some("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if ident_at(body, j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident_at(body, j) else {
                i += 1;
                continue;
            };
            // Bindings named `_guard`-style still hold the lock; `_` alone
            // drops immediately and is lexed as a plain ident we skip.
            if name == "_" {
                i += 1;
                continue;
            }
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut is_guard = false;
            while k < body.len() {
                match &body[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                    Tok::Punct(';') if depth <= 0 => break,
                    // Depth 0 only: a `.lock()` inside a nested block or a
                    // helper call's arguments does not make this binding
                    // the guard.
                    Tok::Ident(id)
                        if depth == 0
                            && (id == "lock" || id == "read" || id == "write")
                            && is_punct(body, k - 1, '.')
                            && is_punct(body, k + 1, '(') =>
                    {
                        is_guard = true;
                    }
                    _ => {}
                }
                k += 1;
            }
            if !is_guard {
                i = k;
                continue;
            }
            let name = name.to_string();
            // Live range: from the binding's `;` to the close of the
            // enclosing block (brace depth going negative), or an explicit
            // `drop(name)`.
            let mut m = k;
            let mut rel_depth = 0i32;
            while m < body.len() {
                match &body[m].tok {
                    Tok::Punct('{') => rel_depth += 1,
                    Tok::Punct('}') => {
                        rel_depth -= 1;
                        if rel_depth < 0 {
                            break; // enclosing block closed; guard dropped
                        }
                    }
                    Tok::Ident(id)
                        if id == "drop"
                            && is_punct(body, m + 1, '(')
                            && ident_at(body, m + 2) == Some(name.as_str()) =>
                    {
                        break;
                    }
                    Tok::Ident(id)
                        if (id == "send" || id == "spawn" || id == "catch_unwind")
                            && is_punct(body, m + 1, '(') =>
                    {
                        let line = body[m].line;
                        if !file.allows("guard-across-boundary", line) {
                            findings.push(Finding {
                                rule: "guard-across-boundary".into(),
                                path: file.rel.clone(),
                                line,
                                message: format!(
                                    "lock guard `{name}` is still live at this `{id}` \
                                     boundary; drop the guard before crossing into \
                                     another thread's schedule"
                                ),
                            });
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            i = k + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// ignored-result

/// Fallible checkpoint/journal write methods whose `Result` must not be
/// dropped: `CheckpointStore::persist` and the durable-store internals,
/// plus the telemetry journal sink installer.
const MUST_USE_WRITES: [&str; 4] = [
    "persist",
    "write_atomic",
    "write_manifest",
    "set_journal_file",
];

pub(crate) fn check_ignored_result(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 1..tokens.len() {
        let Some(method) = ident_at(tokens, i) else {
            continue;
        };
        if !MUST_USE_WRITES.contains(&method)
            || !is_punct(tokens, i - 1, '.')
            || !is_punct(tokens, i + 1, '(')
        {
            continue;
        }
        let after = match_paren(tokens, i + 1);
        // Consumed: `?`, a chained method, `)`/`,` inside a larger
        // expression — anything but a bare `;`.
        if !is_punct(tokens, after, ';') {
            continue;
        }
        // Walk back to the statement start; a `let`, `=`, `return`, or
        // `match` prefix means the value is consumed.
        let mut consumed = false;
        let mut depth = 0i32;
        let mut j = i - 1;
        while j > 0 {
            match &tokens[j].tok {
                Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth == 0 => break,
                Tok::Punct('=') if depth == 0 => consumed = true,
                Tok::Ident(id)
                    if depth == 0 && (id == "let" || id == "return" || id == "match") =>
                {
                    consumed = true;
                }
                _ => {}
            }
            j -= 1;
        }
        let line = tokens[i].line;
        if !consumed && !file.allows("ignored-result", line) {
            findings.push(Finding {
                rule: "ignored-result".into(),
                path: file.rel.clone(),
                line,
                message: format!(
                    "`.{method}()` returns a Result that is silently dropped; a failed \
                     checkpoint/journal write must surface (`?` it or handle the error)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-without-safety-comment

pub(crate) fn check_unsafe_safety_comment(file: &SourceFile, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = file.source.lines().collect();
    for (i, token) in file.tokens.iter().enumerate() {
        if ident_at(&file.tokens, i) != Some("unsafe") {
            continue;
        }
        let line = token.line;
        // Look for `// SAFETY:` on the same line or up to three lines above
        // (attributes and signatures may sit between comment and keyword).
        let from = line.saturating_sub(4).max(1);
        let documented = (from..=line)
            .filter_map(|l| lines.get(l as usize - 1))
            .any(|text| text.contains("// SAFETY:"));
        if !documented && !file.allows("unsafe-without-safety-comment", line) {
            findings.push(Finding {
                rule: "unsafe-without-safety-comment".into(),
                path: file.rel.clone(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment stating the invariant \
                          that makes it sound"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// telemetry-names

/// One catalog entry from `crates/telemetry/src/names.rs`.
#[derive(Debug, Clone)]
pub struct NameDef {
    pub const_name: String,
    pub value: String,
    pub line: u32,
    pub kind: NameKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameKind {
    Span,
    Point,
    Metric,
}

pub const NAMES_PATH: &str = "crates/telemetry/src/names.rs";

/// Parses the name catalog out of the already-lexed `names.rs`:
/// `pub const KIND_NAME: &str = "value";` items.
fn load_name_catalog(files: &[SourceFile]) -> Result<Vec<NameDef>, String> {
    let names = files
        .iter()
        .find(|f| f.rel == NAMES_PATH)
        .ok_or_else(|| format!("{NAMES_PATH} not found; the telemetry name catalog is gone"))?;
    let tokens = &names.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i) != Some("const") {
            continue;
        }
        let Some(const_name) = ident_at(tokens, i + 1) else {
            continue;
        };
        let kind = if const_name.starts_with("SPAN_") {
            NameKind::Span
        } else if const_name.starts_with("POINT_") {
            NameKind::Point
        } else if const_name.starts_with("METRIC_") {
            NameKind::Metric
        } else {
            continue;
        };
        // `: &str = "value"` — scan a few tokens ahead for the Str.
        let value = (i + 2..i + 8).find_map(|j| str_at(tokens, j));
        let Some(value) = value else { continue };
        out.push(NameDef {
            const_name: const_name.to_string(),
            value: value.to_string(),
            line: tokens[i + 1].line,
            kind,
        });
    }
    if out.is_empty() {
        return Err(format!(
            "{NAMES_PATH} defines no SPAN_/POINT_/METRIC_ consts"
        ));
    }
    Ok(out)
}

/// The metric base name: everything before the first `{` (label blocks in
/// `format!` sources appear as `{{label=…` which renders to `{label=…`).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn catalog_has(catalog: &[NameDef], kind: NameKind, value: &str) -> bool {
    catalog
        .iter()
        .any(|def| def.kind == kind && def.value == base_name(value))
}

pub(crate) fn check_telemetry_names(
    file: &SourceFile,
    catalog: &[NameDef],
    used_names: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    if file.rel.starts_with("crates/xtask/src") {
        check_trace_rule_names(file, catalog, findings);
        return;
    }
    for i in 0..tokens.len() {
        let Some(callee) = ident_at(tokens, i) else {
            continue;
        };
        let (kind, arg_start) = match callee {
            "span" if is_punct(tokens, i + 1, '!') && is_punct(tokens, i + 2, '(') => {
                (NameKind::Span, i + 3)
            }
            "counter" | "gauge" | "histogram" if is_punct(tokens, i + 1, '(') => {
                (NameKind::Metric, i + 2)
            }
            "emit_point" if is_punct(tokens, i + 1, '(') => (NameKind::Point, i + 2),
            _ => continue,
        };
        // Skip definitions (`fn counter(…)`) and `use` items.
        if matches!(ident_at(tokens, i.wrapping_sub(1)), Some("fn" | "use")) {
            continue;
        }
        // First argument: scan to the end of the call's argument list,
        // collecting the first string literal and any `names::CONST` path.
        // A const path wins over a literal — the format-with-labels idiom
        // (`format!("{}{{kind=…}}", names::METRIC_X)`) puts the template
        // literal first but resolves through the const.
        let mut j = arg_start;
        let mut depth = 0i32;
        let mut literal: Option<String> = None;
        let mut const_path: Option<String> = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') if depth == 0 => break,
                Tok::Punct(')') => depth -= 1,
                Tok::Punct(',') if depth == 0 => break,
                Tok::Str(s) if literal.is_none() => literal = Some(s.clone()),
                Tok::Ident(id)
                    if id == "names" && is_path_sep(tokens, j + 1) && const_path.is_none() =>
                {
                    if let Some(name) = ident_at(tokens, j + 2) {
                        const_path = Some(name.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let resolved: Option<Result<String, String>> = if let Some(const_name) = const_path {
            used_names.insert(const_name.clone());
            match catalog.iter().find(|d| d.const_name == const_name) {
                Some(def) if def.kind != kind => Some(Err(format!(
                    "`names::{const_name}` is a {:?} name used as a {kind:?} name",
                    def.kind
                ))),
                Some(_) => None, // resolves by construction
                None => Some(Err(format!(
                    "`names::{const_name}` does not exist in {NAMES_PATH}"
                ))),
            }
        } else {
            literal.map(Ok)
        };
        let line = tokens[i].line;
        match resolved {
            Some(Ok(literal)) => {
                used_names.insert(base_name(&literal).to_string());
                if !catalog_has(catalog, kind, &literal) && !file.allows("telemetry-names", line) {
                    findings.push(Finding {
                        rule: "telemetry-names".into(),
                        path: file.rel.clone(),
                        line,
                        message: format!(
                            "{kind:?} name \"{}\" does not resolve against {NAMES_PATH}; \
                             add it to the catalog or fix the typo",
                            base_name(&literal)
                        ),
                    });
                }
            }
            Some(Err(message)) if !file.allows("telemetry-names", line) => {
                findings.push(Finding {
                    rule: "telemetry-names".into(),
                    path: file.rel.clone(),
                    line,
                    message,
                });
            }
            Some(Err(_)) | None => {}
        }
    }
}

/// The trace validator hardcodes span names in its nesting rules
/// (`name == "prefetch"`-style comparisons). Those literals must resolve
/// against the catalog, or the validator silently stops checking the
/// nesting it was written for when a span is renamed.
pub(crate) fn check_trace_rule_names(
    file: &SourceFile,
    catalog: &[NameDef],
    findings: &mut Vec<Finding>,
) {
    if !file.rel.ends_with("trace_check.rs") {
        return;
    }
    let tokens = &file.tokens;
    for i in 2..tokens.len() {
        let Some(name) = str_at(tokens, i) else {
            continue;
        };
        // `name == "…"` / `n == "…"` comparisons only — the validator's
        // span-name variables. Event kinds (`ev == "open"`), error text,
        // and JSON keys are out of scope.
        if !(is_punct(tokens, i - 1, '=') && is_punct(tokens, i - 2, '=')) {
            continue;
        }
        if !matches!(ident_at(tokens, i - 3), Some("name" | "n")) {
            continue;
        }
        if !name.chars().all(|c| c.is_ascii_lowercase() || c == '_') || name.is_empty() {
            continue;
        }
        let known = catalog
            .iter()
            .any(|def| matches!(def.kind, NameKind::Span | NameKind::Point) && def.value == name);
        let line = tokens[i].line;
        if !known && !file.allows("telemetry-names", line) {
            findings.push(Finding {
                rule: "telemetry-names".into(),
                path: file.rel.clone(),
                line,
                message: format!(
                    "trace nesting rule compares against \"{name}\", which is not a \
                     span/point name in {NAMES_PATH}; the check would never fire"
                ),
            });
        }
    }
}

/// A catalog entry no shipping or test code mentions (by const name or by
/// literal value at a telemetry call) is dead: it either outlived its call
/// sites or was added for a metric that never shipped.
pub(crate) fn check_dead_names(
    files: &[SourceFile],
    catalog: &[NameDef],
    used_names: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let names_file = files.iter().find(|f| f.rel == NAMES_PATH);
    for def in catalog {
        let used = used_names.contains(&def.const_name)
            || used_names.contains(&def.value)
            || files.iter().any(|f| {
                f.rel != NAMES_PATH
                    && !f.rel.starts_with("crates/xtask/src")
                    && f.source.contains(&def.const_name)
            });
        if used {
            continue;
        }
        if let Some(nf) = names_file {
            if nf.allows("telemetry-names", def.line) {
                continue;
            }
        }
        findings.push(Finding {
            rule: "telemetry-names".into(),
            path: NAMES_PATH.into(),
            line: def.line,
            message: format!(
                "`{}` (\"{}\") is referenced nowhere outside the catalog; delete the \
                 dead name or instrument the site it was written for",
                def.const_name, def.value
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{inline_allows, lex, strip_test_code};

    fn file(rel: &str, source: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            source: source.to_string(),
            tokens: strip_test_code(&lex(source)),
            allows: inline_allows(source),
        }
    }

    fn catalog() -> Vec<NameDef> {
        vec![
            NameDef {
                const_name: "SPAN_BATCH".into(),
                value: "batch".into(),
                line: 1,
                kind: NameKind::Span,
            },
            NameDef {
                const_name: "METRIC_BATCHES_TOTAL".into(),
                value: "diststream_batches_total".into(),
                line: 2,
                kind: NameKind::Metric,
            },
            NameDef {
                const_name: "POINT_BATCH_SUMMARY".into(),
                value: "batch_summary".into(),
                line: 3,
                kind: NameKind::Point,
            },
        ]
    }

    #[test]
    fn determinism_dataflow_flags_unsorted_sink() {
        let src = r#"
            fn collect(map: &HashMap<u64, f64>) -> Vec<u64> {
                let mut out = Vec::new();
                for (k, _) in map {
                    out.push(*k);
                }
                out
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_determinism_dataflow(&f, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`map`"));
        assert!(findings[0].message.contains("`out`"));
    }

    #[test]
    fn determinism_dataflow_accepts_post_loop_sort() {
        let src = r#"
            fn collect(map: &HashMap<u64, f64>) -> Vec<u64> {
                let mut out = Vec::new();
                for (k, _) in map.iter() {
                    out.push(*k);
                }
                out.sort_unstable();
                out
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_determinism_dataflow(&f, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn determinism_dataflow_tracks_let_bindings() {
        let src = r#"
            fn f() -> Vec<u64> {
                let mut seen = HashSet::new();
                seen.insert(1);
                let mut out = Vec::new();
                for v in &seen { out.push(*v); }
                out
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_determinism_dataflow(&f, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn determinism_dataflow_ignores_ordered_maps() {
        let src = r#"
            fn f(map: &BTreeMap<u64, f64>) -> Vec<u64> {
                let mut out = Vec::new();
                for (k, _) in map { out.push(*k); }
                out
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_determinism_dataflow(&f, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn panic_path_honors_no_panic_alias() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); } // lint:allow(no-panic) justified\n";
        let f = file("crates/algorithms/src/x.rs", src);
        let mut findings = Vec::new();
        check_panic_path(&f, &mut findings);
        assert!(findings.is_empty());
        let bare = file(
            "crates/algorithms/src/x.rs",
            "fn f(x: Option<u32>) { x.unwrap(); }",
        );
        check_panic_path(&bare, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn panic_path_out_of_scope_for_bench() {
        let f = file(
            "crates/bench/src/x.rs",
            "fn f(x: Option<u32>) { x.unwrap(); }",
        );
        let mut findings = Vec::new();
        check_panic_path(&f, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn index_in_hot_path_flags_indexing_not_types() {
        let src = "fn f(v: &[f64], i: usize) -> f64 { let a: [u8; 4] = [0; 4]; v[i] }";
        let f = file("crates/algorithms/src/x.rs", src);
        let mut findings = Vec::new();
        check_index_in_hot_path(&f, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn guard_across_boundary_flags_live_guard() {
        let src = r#"
            fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
                let guard = m.lock().unwrap();
                tx.send(*guard);
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_guard_across_boundary(&f, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`guard`"));
    }

    #[test]
    fn guard_across_boundary_respects_drop_and_scope() {
        let src = r#"
            fn scoped(m: &Mutex<u32>, tx: &Sender<u32>) {
                let v = { let guard = m.lock().unwrap(); *guard };
                tx.send(v);
            }
            fn dropped(m: &Mutex<u32>, tx: &Sender<u32>) {
                let guard = m.lock().unwrap();
                let v = *guard;
                drop(guard);
                tx.send(v);
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut findings = Vec::new();
        check_guard_across_boundary(&f, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ignored_result_flags_bare_persist() {
        let src = "fn f(store: &mut S, cp: &Checkpoint) { store.persist(cp); }";
        let f = file("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check_ignored_result(&f, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn ignored_result_accepts_question_mark_and_let() {
        let src = r#"
            fn f(store: &mut S, cp: &Checkpoint) -> Result<()> {
                store.persist(cp)?;
                let out = store.persist(cp);
                if store.persist(cp).is_err() { return out; }
                Ok(())
            }
        "#;
        let f = file("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check_ignored_result(&f, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        let mut findings = Vec::new();
        check_unsafe_safety_comment(&file("crates/engine/src/x.rs", bad), &mut findings);
        assert_eq!(findings.len(), 1);
        findings.clear();
        check_unsafe_safety_comment(&file("crates/engine/src/x.rs", good), &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn telemetry_names_resolves_literals_and_consts() {
        let src = r#"
            fn f() {
                let _s = telemetry::span!("batch");
                telemetry::counter(telemetry::names::METRIC_BATCHES_TOTAL).inc();
                telemetry::counter("diststream_batches_total{kind=\"x\"}").inc();
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut used = BTreeSet::new();
        let mut findings = Vec::new();
        check_telemetry_names(&f, &catalog(), &mut used, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(used.contains("batch"));
        assert!(used.contains("METRIC_BATCHES_TOTAL"));
    }

    #[test]
    fn telemetry_names_flags_typo_and_unknown_const() {
        let src = r#"
            fn f() {
                let _s = telemetry::span!("bacth");
                telemetry::counter(telemetry::names::METRIC_DOES_NOT_EXIST).inc();
            }
        "#;
        let f = file("crates/engine/src/x.rs", src);
        let mut used = BTreeSet::new();
        let mut findings = Vec::new();
        check_telemetry_names(&f, &catalog(), &mut used, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("bacth"));
        assert!(findings[1].message.contains("METRIC_DOES_NOT_EXIST"));
    }

    #[test]
    fn telemetry_names_flags_kind_mismatch() {
        let src = "fn f() { telemetry::counter(telemetry::names::SPAN_BATCH).inc(); }";
        let f = file("crates/engine/src/x.rs", src);
        let mut used = BTreeSet::new();
        let mut findings = Vec::new();
        check_telemetry_names(&f, &catalog(), &mut used, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Span name used as a Metric"));
    }

    #[test]
    fn dead_name_detection_spares_used_consts() {
        let names_src =
            "pub const SPAN_BATCH: &str = \"batch\";\npub const SPAN_GHOST: &str = \"ghost\";\n";
        let user_src = "fn f() { let _s = telemetry::span!(telemetry::names::SPAN_BATCH); }";
        let files = vec![
            file(NAMES_PATH, names_src),
            file("crates/engine/src/x.rs", user_src),
        ];
        let catalog = vec![
            NameDef {
                const_name: "SPAN_BATCH".into(),
                value: "batch".into(),
                line: 1,
                kind: NameKind::Span,
            },
            NameDef {
                const_name: "SPAN_GHOST".into(),
                value: "ghost".into(),
                line: 2,
                kind: NameKind::Span,
            },
        ];
        let mut findings = Vec::new();
        check_dead_names(&files, &catalog, &BTreeSet::new(), &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SPAN_GHOST"));
    }

    #[test]
    fn trace_rule_name_comparisons_must_resolve() {
        let src = r#"fn f(name: &str) { if name == "prefetch" {} if name == "not_a_span" {} }"#;
        let f = file("crates/xtask/src/trace_check.rs", src);
        let catalog = vec![NameDef {
            const_name: "SPAN_PREFETCH".into(),
            value: "prefetch".into(),
            line: 1,
            kind: NameKind::Span,
        }];
        let mut findings = Vec::new();
        check_trace_rule_names(&f, &catalog, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not_a_span"));
    }

    #[test]
    fn baseline_round_trip() {
        let mut counts = BTreeMap::new();
        counts.insert(
            ("panic-path".to_string(), "crates/a.rs".to_string()),
            3usize,
        );
        let text = render_baseline(&counts);
        let dir = std::env::temp_dir().join("xtask-analyze-test-baseline.txt");
        std::fs::write(&dir, &text).unwrap();
        let loaded = load_baseline(&dir).unwrap();
        std::fs::remove_file(&dir).ok();
        assert_eq!(
            loaded.get(&("panic-path".to_string(), "crates/a.rs".to_string())),
            Some(&3)
        );
    }
}
