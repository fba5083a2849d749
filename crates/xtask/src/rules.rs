//! The `xtask analyze` rule table — the whole catalog, one entry per rule.
//!
//! Each [`Rule`] names a DistStream invariant, the path scope it applies
//! to, and a checker over one lexed [`SourceFile`]. [`Rule::run`] is the
//! only way a checker is invoked — by `analyze` and by the fixture tests
//! alike — so scoping, inline `// lint:allow(<rule>) <why>` suppression (the
//! one way to keep a finding) and the `(rule, path)` stamp live in one
//! place.
//!
//! Matching is lexical (see `lexer.rs` for why), which errs toward
//! flagging: `nondeterministic-collection` flags any `HashMap`/`HashSet`
//! mention rather than proving iteration, because a lookup table one
//! refactor away from being iterated is exactly how order bugs creep in.
//! What rustc already enforces is not re-implemented here: dropped
//! `Result`s are `unused_must_use = "deny"` and `unsafe` is
//! `unsafe_code = "forbid"` in the root manifest's `[workspace.lints.rust]`.

use crate::lexer::{Tok, Token};
use crate::workspace::SourceFile;

/// A diagnostic: which rule fired where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// What a checker reports: `(line, message)`. [`Rule::run`] turns it into a
/// [`Finding`], so a checker cannot report under another rule's name.
type Hit = (u32, String);

/// What the cross-file rule needs beyond the file in hand.
pub struct Context<'a> {
    /// Every loaded source file (dead telemetry names are those no file
    /// mentions).
    pub files: &'a [SourceFile],
    /// The telemetry name catalog parsed from [`NAMES_PATH`].
    pub names: &'a [NameDef],
}

pub struct Rule {
    pub name: &'static str,
    /// Human-readable invariant, printed by `xtask rules`.
    pub rationale: &'static str,
    /// Whether the rule inspects the file at this repo-relative path.
    pub scope: fn(&str) -> bool,
    /// The checker, over a file's non-test tokens.
    pub check: fn(&SourceFile, &Context) -> Vec<Hit>,
}

impl Rule {
    /// The rule's findings in `file`: nothing out of scope, nothing an
    /// inline allow on the same or the preceding line covers.
    pub fn run(&self, file: &SourceFile, ctx: &Context) -> Vec<Finding> {
        if !(self.scope)(&file.rel) {
            return Vec::new();
        }
        (self.check)(file, ctx)
            .into_iter()
            .filter(|(line, _)| !file.allows(self.name, *line))
            .map(|(line, message)| Finding {
                rule: self.name,
                path: file.rel.clone(),
                line,
                message,
            })
            .collect()
    }
}

/// Whether `path` lies under `crates/<one of crates>/src`.
fn in_crates(path: &str, crates: &[&str]) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once("/src/"))
        .is_some_and(|(name, _)| crates.contains(&name))
}

/// The full catalog, in diagnostic-priority order.
pub const RULES: [Rule; 9] = [
    Rule {
        name: "nondeterministic-collection",
        rationale: "shipping crates must not touch HashMap/HashSet: unordered iteration \
                    breaks the order-aware guarantee (use BTreeMap or sort before iterating; \
                    a pure lookup table carries an inline allow saying so)",
        scope: |path| {
            in_crates(
                path,
                &[
                    "types",
                    "engine",
                    "core",
                    "algorithms",
                    "datasets",
                    "quality",
                    "telemetry",
                ],
            )
        },
        check: check_nondeterministic_collection,
    },
    Rule {
        name: "thread-spawn",
        rationale: "all parallelism goes through TaskPool (crates/engine/src/pool.rs); \
                    ad-hoc threads bypass the deterministic claim/merge protocol",
        scope: |path| path != "crates/engine/src/pool.rs",
        check: check_thread_spawn,
    },
    Rule {
        name: "relaxed-ordering",
        rationale: "atomics that gate task scheduling or barriers must not use \
                    Ordering::Relaxed; a relaxed claim can race ahead of the data \
                    handoff it authorizes",
        scope: |_| true,
        check: check_relaxed_ordering,
    },
    Rule {
        name: "wallclock-entropy",
        rationale: "wall-clock reads and RNG construction outside the driver, metrics \
                    and telemetry-clock modules leak nondeterminism into \
                    simulated-mode replays (a seed that arrives through configuration \
                    carries an inline allow naming its source)",
        scope: |path| {
            let sanctioned_module = path == "crates/engine/src/driver.rs"
                || path == "crates/engine/src/metrics.rs"
                || path == "crates/telemetry/src/clock.rs";
            !sanctioned_module
                && in_crates(
                    path,
                    &["engine", "core", "algorithms", "datasets", "telemetry"],
                )
        },
        check: check_wallclock_entropy,
    },
    Rule {
        name: "print-in-shipping",
        rationale: "engine/core/algorithms shipping code must not write to \
                    stdout/stderr with println!/eprintln!/print!/eprint!: output \
                    belongs to the bench binaries, and diagnostics go through the \
                    telemetry journal or DistStreamError",
        scope: |path| in_crates(path, &["engine", "core", "algorithms"]),
        check: check_print_in_shipping,
    },
    Rule {
        name: "panic-path",
        rationale: "core/engine/algorithms/telemetry shipping code must surface failures \
                    as DistStreamError, not unwrap()/expect()/panic!: a worker panic tears \
                    down the whole mini-batch step",
        scope: |path| in_crates(path, &["core", "engine", "algorithms", "telemetry"]),
        check: check_panic_path,
    },
    Rule {
        name: "index-in-hot-path",
        rationale: "`x[i]` indexing on the per-record paths of core/algorithms can panic \
                    on a bad index; prefer `get()` with a typed error or an iterator (an \
                    inline allow names the bound that makes a kept index safe). The offline \
                    phase, the checkpoint store and the reference algorithm are out of \
                    scope: no record of a running stream crosses them",
        scope: |path| {
            in_crates(path, &["core", "algorithms"])
                && !path.starts_with("crates/algorithms/src/offline/")
                && path != "crates/core/src/store.rs"
                && path != "crates/core/src/reference.rs"
        },
        check: check_index_in_hot_path,
    },
    Rule {
        name: "guard-across-boundary",
        rationale: "a lock guard (`lock()`/`read()`/`write()`) must be dropped before a \
                    `send`/`spawn`/`catch_unwind` boundary: holding it hands another \
                    thread's schedule a lock it cannot see",
        scope: |_| true,
        check: check_guard_across_boundary,
    },
    Rule {
        name: "telemetry-names",
        rationale: "every span!/counter/gauge/histogram/emit_point name resolves against \
                    crates/telemetry/src/names.rs, every catalog entry is referenced \
                    somewhere, and check-trace's nesting rules compare against catalog'd \
                    names — a renamed span must not silently stop being checked",
        scope: |_| true,
        check: check_telemetry_names,
    },
];

/// What `xtask rules` prints: every entry's name and rationale.
pub fn catalog_text() -> String {
    RULES
        .iter()
        .map(|rule| format!("{}\n    {}\n\n", rule.name, rule.rationale))
        .collect()
}

// ---------------------------------------------------------------------------
// Token helpers

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match &tokens.get(i)?.tok {
        Tok::Ident(id) => Some(id),
        _ => None,
    }
}

fn str_at(tokens: &[Token], i: usize) -> Option<&str> {
    match &tokens.get(i)?.tok {
        Tok::Str(s) => Some(s),
        _ => None,
    }
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::Punct(c))
}

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::PathSep)
}

/// Matches `first::second` at position `i`.
fn path_pair(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    ident_at(tokens, i) == Some(first)
        && is_path_sep(tokens, i + 1)
        && ident_at(tokens, i + 2) == Some(second)
}

/// Index of the token ending the statement that starts at `from`: its `;`
/// (brackets balanced), or the bracket that closes the enclosing block
/// first, or `tokens.len()`. `at_depth_0` sees every depth-0 token on the
/// way.
fn statement_end(tokens: &[Token], from: usize, mut at_depth_0: impl FnMut(usize)) -> usize {
    let mut depth = 0i32;
    for (k, token) in tokens.iter().enumerate().skip(from) {
        match token.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') if depth == 0 => return k,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            Tok::Punct(';') if depth == 0 => return k,
            _ if depth == 0 => at_depth_0(k),
            _ => {}
        }
    }
    tokens.len()
}

// ---------------------------------------------------------------------------
// The lexical bans

fn check_nondeterministic_collection(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if let Some(name @ ("HashMap" | "HashSet")) = ident_at(tokens, i) {
            out.push((
                token.line,
                format!("`{name}` in a shipping crate; use BTreeMap or sort before iterating"),
            ));
        }
    }
    out
}

fn check_thread_spawn(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        for what in ["spawn", "Builder", "scope"] {
            if path_pair(tokens, i, "thread", what) {
                out.push((
                    tokens[i].line,
                    format!(
                        "`thread::{what}` outside TaskPool; route parallelism through \
                         crates/engine/src/pool.rs"
                    ),
                ));
            }
        }
    }
    out
}

fn check_relaxed_ordering(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        // Catches `Ordering::Relaxed` and a bare imported `Relaxed`.
        if ident_at(tokens, i) == Some("Relaxed") {
            out.push((
                token.line,
                "`Ordering::Relaxed` on a scheduling/barrier atomic; use SeqCst \
                 (or Acquire/Release with a written-down proof)"
                    .into(),
            ));
        }
    }
    out
}

fn check_wallclock_entropy(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        for first in ["Instant", "SystemTime"] {
            if path_pair(tokens, i, first, "now") {
                out.push((
                    tokens[i].line,
                    format!(
                        "`{first}::now()` outside driver/metrics; wall-clock \
                         reads break simulated-mode reproducibility"
                    ),
                ));
            }
        }
        if let Some(name @ ("thread_rng" | "from_entropy" | "seed_from_u64")) = ident_at(tokens, i)
        {
            // Flag constructions (`f(...)` calls), not the trait method
            // definition site in vendored code (out of scan scope anyway).
            if is_punct(tokens, i + 1, '(') {
                out.push((
                    tokens[i].line,
                    format!(
                        "RNG construction `{name}(…)` outside driver/metrics; \
                         operators must receive seeds from the driver"
                    ),
                ));
            }
        }
    }
    out
}

fn check_print_in_shipping(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if let Some(name @ ("println" | "eprintln" | "print" | "eprint")) = ident_at(tokens, i) {
            if is_punct(tokens, i + 1, '!') {
                out.push((
                    token.line,
                    format!(
                        "`{name}!` in shipping library code; emit through the telemetry \
                         journal or return the information to the caller"
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The panic audits

fn check_panic_path(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // `.unwrap(` / `.expect(` — the dot guard skips unwrap_or_else
        // (distinct ident) and free functions named expect.
        if is_punct(tokens, i, '.') && is_punct(tokens, i + 2, '(') {
            if let Some(name @ ("unwrap" | "expect")) = ident_at(tokens, i + 1) {
                out.push((
                    tokens[i + 1].line,
                    format!("`.{name}()` on a shipping path; return a typed DistStreamError"),
                ));
            }
        }
        if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) =
            ident_at(tokens, i)
        {
            if is_punct(tokens, i + 1, '!') {
                out.push((
                    tokens[i].line,
                    format!("`{name}!` on a shipping path; return a typed DistStreamError"),
                ));
            }
        }
    }
    out
}

fn check_index_in_hot_path(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 1..tokens.len() {
        // Indexing: `[` after an ident, `)`, or `]`. Type positions
        // (`: [u8; 4]`), array literals (`= [`), attributes (`#[`), and
        // macro invocations (`vec![`) all follow punctuation instead; an
        // array literal can also follow a keyword (`for … in [a, b]`).
        let is_index = is_punct(tokens, i, '[')
            && match &tokens[i - 1].tok {
                Tok::Ident(id) => !matches!(id.as_str(), "in" | "return" | "break"),
                Tok::Punct(')') | Tok::Punct(']') => true,
                _ => false,
            };
        if is_index {
            out.push((
                tokens[i].line,
                "`x[i]` indexing on a per-record path can panic on a bad index; \
                 prefer `get()` with a typed error or an iterator"
                    .into(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// guard-across-boundary

fn check_guard_across_boundary(file: &SourceFile, _: &Context) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // `let [mut] NAME = … .lock()/.read()/.write() …;` — bindings named
        // `_guard`-style still hold the lock; `_` alone drops immediately.
        let name_at = i + 1 + usize::from(ident_at(tokens, i + 1) == Some("mut"));
        let name = match ident_at(tokens, name_at) {
            Some(name) if ident_at(tokens, i) == Some("let") && name != "_" => name,
            _ => {
                i += 1;
                continue;
            }
        };
        // Depth 0 only: a `.lock()` inside a nested block or a helper
        // call's arguments does not make this binding the guard.
        let mut is_guard = false;
        let end = statement_end(tokens, name_at + 1, |k| {
            is_guard |= matches!(ident_at(tokens, k), Some("lock" | "read" | "write"))
                && is_punct(tokens, k - 1, '.')
                && is_punct(tokens, k + 1, '(');
        });
        if !is_guard {
            i = end.max(i + 1);
            continue;
        }
        // Live range: from the binding's `;` to the close of the enclosing
        // block (brace depth going negative), or an explicit `drop(name)`.
        let mut rel_depth = 0i32;
        for m in end..tokens.len() {
            match &tokens[m].tok {
                Tok::Punct('{') => rel_depth += 1,
                Tok::Punct('}') => {
                    rel_depth -= 1;
                    if rel_depth < 0 {
                        break;
                    }
                }
                Tok::Ident(id) if is_punct(tokens, m + 1, '(') => match id.as_str() {
                    "drop" if ident_at(tokens, m + 2) == Some(name) => break,
                    "send" | "spawn" | "catch_unwind" => out.push((
                        tokens[m].line,
                        format!(
                            "lock guard `{name}` is still live at this `{id}` boundary; \
                             drop the guard before crossing into another thread's schedule"
                        ),
                    )),
                    _ => {}
                },
                _ => {}
            }
        }
        i = end + 1;
    }
    out
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
pub fn load_name_catalog(files: &[SourceFile]) -> Result<Vec<NameDef>, String> {
    let names = files
        .iter()
        .find(|f| f.rel == NAMES_PATH)
        .ok_or_else(|| format!("{NAMES_PATH} not found; the telemetry name catalog is gone"))?;
    let tokens = &names.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let (Some("const"), Some(const_name)) = (ident_at(tokens, i), ident_at(tokens, i + 1))
        else {
            continue;
        };
        let kind = match const_name.split('_').next() {
            Some("SPAN") => NameKind::Span,
            Some("POINT") => NameKind::Point,
            Some("METRIC") => NameKind::Metric,
            _ => continue,
        };
        // `: &str = "value"` — scan a few tokens ahead for the Str.
        if let Some(value) = (i + 2..i + 8).find_map(|j| str_at(tokens, j)) {
            out.push(NameDef {
                const_name: const_name.to_string(),
                value: value.to_string(),
                line: tokens[i + 1].line,
                kind,
            });
        }
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

/// One `span!(…)` / `counter(…)` / `gauge(…)` / `histogram(…)` /
/// `emit_point(…)` call: the kind of name it takes and what its first
/// argument names — a `names::CONST` path or a string literal.
struct CallSite<'a> {
    line: u32,
    kind: NameKind,
    const_name: Option<&'a str>,
    literal: Option<&'a str>,
}

fn call_sites(tokens: &[Token]) -> Vec<CallSite<'_>> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let (kind, arg_start) = match ident_at(tokens, i) {
            Some("span") if is_punct(tokens, i + 1, '!') && is_punct(tokens, i + 2, '(') => {
                (NameKind::Span, i + 3)
            }
            Some("counter" | "gauge" | "histogram") if is_punct(tokens, i + 1, '(') => {
                (NameKind::Metric, i + 2)
            }
            Some("emit_point") if is_punct(tokens, i + 1, '(') => (NameKind::Point, i + 2),
            _ => continue,
        };
        // Skip definitions (`fn counter(…)`) and `use` items.
        if matches!(ident_at(tokens, i.wrapping_sub(1)), Some("fn" | "use")) {
            continue;
        }
        // First argument: the first string literal and any `names::CONST`
        // path before the depth-0 `,` or `)`. A const path wins over a
        // literal — the format-with-labels idiom
        // (`format!("{}{{kind=…}}", names::METRIC_X)`) puts the template
        // literal first but resolves through the const.
        let mut site = CallSite {
            line: tokens[i].line,
            kind,
            const_name: None,
            literal: None,
        };
        let mut depth = 0i32;
        for j in arg_start..tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')' | ',') if depth == 0 => break,
                Tok::Punct(')') => depth -= 1,
                Tok::Str(s) if site.literal.is_none() => site.literal = Some(s),
                Tok::Ident(id)
                    if id == "names" && is_path_sep(tokens, j + 1) && site.const_name.is_none() =>
                {
                    site.const_name = ident_at(tokens, j + 2);
                }
                _ => {}
            }
        }
        out.push(site);
    }
    out
}

fn check_telemetry_names(file: &SourceFile, ctx: &Context) -> Vec<Hit> {
    if file.rel == NAMES_PATH {
        return check_dead_names(ctx);
    }
    if file.rel.starts_with("crates/xtask/src") {
        return check_trace_rule_names(file, ctx.names);
    }
    let mut out = Vec::new();
    for site in call_sites(&file.tokens) {
        let kind = site.kind;
        let problem = match (site.const_name, site.literal) {
            (Some(name), _) => match ctx.names.iter().find(|d| d.const_name == name) {
                Some(def) if def.kind != kind => Some(format!(
                    "`names::{name}` is a {:?} name used as a {kind:?} name",
                    def.kind
                )),
                Some(_) => None,
                None => Some(format!("`names::{name}` does not exist in {NAMES_PATH}")),
            },
            (None, Some(literal)) => {
                let base = base_name(literal);
                let known = ctx.names.iter().any(|d| d.kind == kind && d.value == base);
                (!known).then(|| {
                    format!(
                        "{kind:?} name \"{base}\" does not resolve against {NAMES_PATH}; \
                         add it to the catalog or fix the typo"
                    )
                })
            }
            (None, None) => None,
        };
        out.extend(problem.map(|message| (site.line, message)));
    }
    out
}

/// The trace validator hardcodes span names in its nesting rules
/// (`name == "prefetch"`-style comparisons). Those literals must resolve
/// against the catalog, or the validator silently stops checking the
/// nesting it was written for when a span is renamed.
fn check_trace_rule_names(file: &SourceFile, names: &[NameDef]) -> Vec<Hit> {
    if !file.rel.ends_with("trace_check.rs") {
        return Vec::new();
    }
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 3..tokens.len() {
        // `name == "…"` / `n == "…"` comparisons only — the validator's
        // span-name variables. Event kinds (`ev == "open"`), error text,
        // and JSON keys are out of scope.
        let Some(name) = str_at(tokens, i) else {
            continue;
        };
        let compares_a_span_name = is_punct(tokens, i - 1, '=')
            && is_punct(tokens, i - 2, '=')
            && matches!(ident_at(tokens, i - 3), Some("name" | "n"))
            && !name.is_empty()
            && name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
        let known = || {
            names
                .iter()
                .any(|def| def.kind != NameKind::Metric && def.value == name)
        };
        if compares_a_span_name && !known() {
            out.push((
                tokens[i].line,
                format!(
                    "trace nesting rule compares against \"{name}\", which is not a \
                     span/point name in {NAMES_PATH}; the check would never fire"
                ),
            ));
        }
    }
    out
}

/// A catalog entry no shipping or test code mentions (by const name
/// anywhere, or by literal value at a telemetry call) is dead: it either
/// outlived its call sites or was added for a metric that never shipped.
fn check_dead_names(ctx: &Context) -> Vec<Hit> {
    let users = || {
        ctx.files
            .iter()
            .filter(|f| f.rel != NAMES_PATH && !f.rel.starts_with("crates/xtask/src"))
    };
    let literals: Vec<&str> = users()
        .flat_map(|f| call_sites(&f.tokens))
        .filter_map(|site| site.literal.map(base_name))
        .collect();
    ctx.names
        .iter()
        .filter(|def| {
            !literals.contains(&def.value.as_str())
                && !users().any(|f| f.source.contains(&def.const_name))
        })
        .map(|def| {
            (
                def.line,
                format!(
                    "`{}` (\"{}\") is referenced nowhere outside the catalog; delete the \
                     dead name or instrument the site it was written for",
                    def.const_name, def.value
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, source: &str) -> SourceFile {
        SourceFile::new(rel.to_string(), source.to_string())
    }

    fn names() -> Vec<NameDef> {
        let def = |const_name: &str, value: &str, line, kind| NameDef {
            const_name: const_name.into(),
            value: value.into(),
            line,
            kind,
        };
        vec![
            def("SPAN_BATCH", "batch", 1, NameKind::Span),
            def(
                "METRIC_BATCHES_TOTAL",
                "diststream_batches_total",
                2,
                NameKind::Metric,
            ),
            def("POINT_BATCH_SUMMARY", "batch_summary", 3, NameKind::Point),
        ]
    }

    /// Runs the named rule the way `analyze` does.
    fn run_in(name: &str, files: &[SourceFile], at: usize) -> Vec<Finding> {
        let rule = RULES.iter().find(|r| r.name == name).expect("rule exists");
        let names = names();
        rule.run(
            &files[at],
            &Context {
                files,
                names: &names,
            },
        )
    }

    fn run_rule(name: &str, path: &str, source: &str) -> Vec<Finding> {
        run_in(name, &[file(path, source)], 0)
    }

    fn lines(findings: &[Finding]) -> Vec<u32> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn rule_names_are_unique() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
    }

    #[test]
    fn hashmap_flagged_in_every_shipping_crate_but_not_in_tooling() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        for krate in [
            "types",
            "engine",
            "core",
            "algorithms",
            "datasets",
            "quality",
            "telemetry",
        ] {
            let path = format!("crates/{krate}/src/x.rs");
            let hits = run_rule("nondeterministic-collection", &path, src);
            assert_eq!(lines(&hits), vec![1, 2, 2], "{krate}");
        }
        for krate in ["bench", "trace", "xtask"] {
            let path = format!("crates/{krate}/src/x.rs");
            assert!(run_rule("nondeterministic-collection", &path, src).is_empty());
        }
    }

    #[test]
    fn inline_allow_covers_the_same_and_the_next_line_of_its_own_rule_only() {
        let src = "// lint:allow(nondeterministic-collection) lookup only, never iterated\n\
                   use std::collections::HashMap;\n\
                   use std::collections::HashSet; // lint:allow(thread-spawn) wrong rule\n";
        let hits = run_rule(
            "nondeterministic-collection",
            "crates/engine/src/partition.rs",
            src,
        );
        assert_eq!(lines(&hits), vec![3]);
    }

    #[test]
    fn thread_spawn_flagged_except_pool_and_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let hits = run_rule("thread-spawn", "crates/core/src/parallel.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(run_rule("thread-spawn", "crates/engine/src/pool.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(|| {}); }\n}";
        assert!(run_rule("thread-spawn", "crates/core/src/parallel.rs", src).is_empty());
        // A scoped worker spawns through the scope's handle, not through
        // `thread::spawn`: the scope itself is what the rule sees.
        for src in [
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
            "fn f() { let _ = crossbeam::thread::scope(|s| { s.spawn(|_| {}); }); }",
        ] {
            let hits = run_rule("thread-spawn", "crates/engine/src/prefetch.rs", src);
            assert_eq!(hits.len(), 1, "{src}");
            assert!(run_rule("thread-spawn", "crates/engine/src/pool.rs", src).is_empty());
        }
    }

    #[test]
    fn relaxed_ordering_flagged() {
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }";
        let hits = run_rule("relaxed-ordering", "crates/engine/src/pool.rs", src);
        assert_eq!(hits.len(), 1);
        let seqcst = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::SeqCst); }";
        assert!(run_rule("relaxed-ordering", "crates/engine/src/pool.rs", seqcst).is_empty());
    }

    #[test]
    fn wallclock_flagged_outside_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); let r = StdRng::seed_from_u64(7); }";
        let hits = run_rule("wallclock-entropy", "crates/core/src/global.rs", src);
        assert_eq!(hits.len(), 2);
        assert_eq!(
            run_rule("wallclock-entropy", "crates/telemetry/src/span.rs", src).len(),
            2
        );
        for exempt in [
            "crates/engine/src/driver.rs",
            "crates/telemetry/src/clock.rs",
            "crates/quality/src/cmm.rs",
        ] {
            assert!(run_rule("wallclock-entropy", exempt, src).is_empty());
        }
    }

    #[test]
    fn print_flagged_in_shipping_library_code() {
        let src = "fn f() {\n println!(\"x\");\n eprintln!(\"y\");\n print!(\"z\");\n}";
        let hits = run_rule("print-in-shipping", "crates/engine/src/driver.rs", src);
        assert_eq!(lines(&hits), vec![2, 3, 4]);
        // Bench binaries and telemetry are out of scope: printing is their job.
        assert!(run_rule("print-in-shipping", "crates/bench/src/report.rs", src).is_empty());
        assert!(run_rule("print-in-shipping", "crates/telemetry/src/journal.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { println!(\"debug\"); }\n}";
        assert!(run_rule("print-in-shipping", "crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn panic_path_flags_each_form_in_all_four_crates() {
        let src = "fn f(x: Option<u32>) -> u32 {\n let a = x.unwrap();\n let b = x.expect(\"msg\");\n panic!(\"boom\");\n unreachable!()\n}";
        for krate in ["core", "engine", "algorithms", "telemetry"] {
            let hits = run_rule("panic-path", &format!("crates/{krate}/src/x.rs"), src);
            assert_eq!(lines(&hits), vec![2, 3, 4, 5], "{krate}");
        }
        assert!(run_rule("panic-path", "crates/bench/src/x.rs", src).is_empty());
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }";
        assert!(run_rule("panic-path", "crates/engine/src/codec.rs", src).is_empty());
    }

    #[test]
    fn index_in_hot_path_flags_indexing_not_types() {
        let src = "fn f(v: &[f64], i: usize) -> f64 { let a: [u8; 4] = [0; 4]; for b in [true, false] {} if i > 9 { return [0.0, 1.0].len() as f64; } v[i] }";
        let hits = run_rule("index-in-hot-path", "crates/algorithms/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        // No record of a running stream crosses these: out of scope.
        for cold in [
            "crates/algorithms/src/offline/kmeans.rs",
            "crates/core/src/store.rs",
            "crates/core/src/reference.rs",
        ] {
            assert!(
                run_rule("index-in-hot-path", cold, src).is_empty(),
                "{cold}"
            );
        }
    }

    #[test]
    fn guard_across_boundary_flags_live_guard() {
        let src = r#"
            fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
                let guard = m.lock().unwrap();
                tx.send(*guard);
            }
        "#;
        let hits = run_rule("guard-across-boundary", "crates/engine/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`guard`"));
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
            fn helper_locks(m: &Mutex<u32>, tx: &Sender<u32>) {
                let v = read_under_lock(|| m.lock().unwrap().clone());
                tx.send(v);
            }
        "#;
        let hits = run_rule("guard-across-boundary", "crates/engine/src/x.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
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
        let hits = run_rule("telemetry-names", "crates/engine/src/x.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn telemetry_names_flags_typo_unknown_const_and_kind_mismatch() {
        let src = r#"
            fn f() {
                let _s = telemetry::span!("bacth");
                telemetry::counter(telemetry::names::METRIC_DOES_NOT_EXIST).inc();
                telemetry::counter(telemetry::names::SPAN_BATCH).inc();
            }
        "#;
        let hits = run_rule("telemetry-names", "crates/engine/src/x.rs", src);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].message.contains("bacth"));
        assert!(hits[1].message.contains("METRIC_DOES_NOT_EXIST"));
        assert!(hits[2].message.contains("Span name used as a Metric"));
    }

    #[test]
    fn dead_names_are_reported_on_the_catalog_file() {
        let files = [
            file(NAMES_PATH, "pub const SPAN_BATCH: &str = \"batch\";\n"),
            file(
                "crates/engine/src/x.rs",
                "fn f() { let _s = telemetry::span!(telemetry::names::SPAN_BATCH); }",
            ),
            file(
                "crates/core/src/y.rs",
                "fn g() { telemetry::emit_point(\"batch_summary\", None, &[]); }",
            ),
        ];
        let hits = run_in("telemetry-names", &files, 0);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("METRIC_BATCHES_TOTAL"));
        assert_eq!((hits[0].path.as_str(), hits[0].line), (NAMES_PATH, 2));
    }

    #[test]
    fn trace_rule_name_comparisons_must_resolve() {
        let src = r#"fn f(name: &str) { if name == "batch" {} if name == "not_a_span" {} }"#;
        let hits = run_rule("telemetry-names", "crates/xtask/src/trace_check.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("not_a_span"));
        assert!(run_rule("telemetry-names", "crates/xtask/src/main.rs", src).is_empty());
    }

    #[test]
    fn name_catalog_is_parsed_from_the_lexed_names_file() {
        let files = [file(
            NAMES_PATH,
            "/// doc\npub const SPAN_BATCH: &str = \"batch\";\npub const OTHER: u8 = 1;\n\
             pub const METRIC_X_TOTAL: &str = \"x_total\";\n",
        )];
        let names = load_name_catalog(&files).expect("catalog");
        let got: Vec<_> = names
            .iter()
            .map(|d| (d.const_name.as_str(), d.value.as_str(), d.line, d.kind))
            .collect();
        assert_eq!(
            got,
            vec![
                ("SPAN_BATCH", "batch", 2, NameKind::Span),
                ("METRIC_X_TOTAL", "x_total", 4, NameKind::Metric),
            ]
        );
        assert!(load_name_catalog(&[file("crates/a/src/b.rs", "")]).is_err());
    }
}
