//! The determinism lint catalog.
//!
//! Each rule names a DistStream invariant, the path scope it applies to,
//! and a token-pattern matcher. Matching is lexical (see `lexer.rs` for
//! why), which errs toward flagging: e.g. `nondeterministic-collection`
//! flags any `HashMap`/`HashSet` mention in order-sensitive paths rather
//! than proving iteration, because a lookup table one refactor away from
//! being iterated is exactly how order bugs creep in. Sanctioned uses go
//! through the per-rule allowlist file (`crates/xtask/allow/<rule>.txt`)
//! or an inline `// lint:allow(<rule>)` on the offending or preceding
//! line.

use crate::lexer::{Tok, Token};

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

pub struct Rule {
    pub name: &'static str,
    /// Human-readable invariant, printed by `xtask rules`.
    pub rationale: &'static str,
    /// Whether the rule inspects the file at this repo-relative path.
    pub applies: fn(&str) -> bool,
    /// Token matcher over non-test tokens.
    pub check: fn(&[Token]) -> Vec<Violation>,
}

/// The full catalog, in diagnostic-priority order.
pub fn catalog() -> Vec<Rule> {
    vec![
        Rule {
            name: "nondeterministic-collection",
            rationale: "merge/aggregation/offline paths must not touch HashMap/HashSet: \
                        unordered iteration breaks the order-aware guarantee (use BTreeMap \
                        or sort before iterating)",
            applies: |path| {
                path.starts_with("crates/core/src")
                    || path.starts_with("crates/algorithms/src/offline")
                    || path.starts_with("crates/quality/src")
            },
            check: check_nondeterministic_collection,
        },
        Rule {
            name: "thread-spawn",
            rationale: "all parallelism goes through TaskPool (crates/engine/src/pool.rs); \
                        ad-hoc threads bypass the deterministic claim/merge protocol",
            applies: |path| path != "crates/engine/src/pool.rs",
            check: check_thread_spawn,
        },
        Rule {
            name: "relaxed-ordering",
            rationale: "atomics that gate task scheduling or barriers must not use \
                        Ordering::Relaxed; a relaxed claim can race ahead of the data \
                        handoff it authorizes",
            applies: |_| true,
            check: check_relaxed_ordering,
        },
        Rule {
            name: "no-panic",
            rationale: "engine and core shipping code must surface failures as \
                        DistStreamError, not unwrap()/expect()/panic!: a worker panic \
                        tears down the whole mini-batch step",
            applies: |path| {
                path.starts_with("crates/engine/src") || path.starts_with("crates/core/src")
            },
            check: check_no_panic,
        },
        Rule {
            name: "wallclock-entropy",
            rationale: "wall-clock reads and RNG construction outside the driver, metrics, \
                        netcost, and telemetry-clock modules leak nondeterminism into \
                        simulated-mode replays",
            applies: |path| {
                let in_scope = path.starts_with("crates/engine/src")
                    || path.starts_with("crates/core/src")
                    || path.starts_with("crates/algorithms/src")
                    || path.starts_with("crates/datasets/src")
                    || path.starts_with("crates/telemetry/src");
                let sanctioned_module = path == "crates/engine/src/driver.rs"
                    || path == "crates/engine/src/metrics.rs"
                    || path == "crates/engine/src/netcost.rs"
                    || path == "crates/telemetry/src/clock.rs";
                in_scope && !sanctioned_module
            },
            check: check_wallclock_entropy,
        },
        Rule {
            name: "print-in-shipping",
            rationale: "engine/core/algorithms shipping code must not write to \
                        stdout/stderr with println!/eprintln!/print!/eprint!: output \
                        belongs to the bench binaries, and diagnostics go through the \
                        telemetry journal or DistStreamError",
            applies: |path| {
                path.starts_with("crates/engine/src")
                    || path.starts_with("crates/core/src")
                    || path.starts_with("crates/algorithms/src")
            },
            check: check_print_in_shipping,
        },
    ]
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match &tokens.get(i)?.tok {
        Tok::Ident(id) => Some(id),
        _ => None,
    }
}

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::PathSep)
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::Punct(c))
}

/// Matches `first::second` at position `i`.
fn path_pair(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    ident_at(tokens, i) == Some(first)
        && is_path_sep(tokens, i + 1)
        && ident_at(tokens, i + 2) == Some(second)
}

fn check_nondeterministic_collection(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if let Some(name @ ("HashMap" | "HashSet")) = ident_at(tokens, i) {
            out.push(Violation {
                rule: "nondeterministic-collection",
                line: token.line,
                message: format!(
                    "`{name}` in an order-sensitive path; use BTreeMap or sort before iterating"
                ),
            });
        }
    }
    out
}

fn check_thread_spawn(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if path_pair(tokens, i, "thread", "spawn") {
            out.push(Violation {
                rule: "thread-spawn",
                line: tokens[i].line,
                message: "`thread::spawn` outside TaskPool; route parallelism through \
                          crates/engine/src/pool.rs"
                    .into(),
            });
        }
        if path_pair(tokens, i, "thread", "Builder") {
            out.push(Violation {
                rule: "thread-spawn",
                line: tokens[i].line,
                message: "`thread::Builder` outside TaskPool; route parallelism through \
                          crates/engine/src/pool.rs"
                    .into(),
            });
        }
    }
    out
}

fn check_relaxed_ordering(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        // Catches `Ordering::Relaxed` and a bare imported `Relaxed`.
        if ident_at(tokens, i) == Some("Relaxed") {
            out.push(Violation {
                rule: "relaxed-ordering",
                line: token.line,
                message: "`Ordering::Relaxed` on a scheduling/barrier atomic; use SeqCst \
                          (or Acquire/Release with a written-down proof)"
                    .into(),
            });
        }
    }
    out
}

fn check_no_panic(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // `.unwrap(` / `.expect(` — the dot guard skips unwrap_or_else
        // (distinct ident) and free functions named expect.
        if is_punct(tokens, i, '.') {
            if let Some(name @ ("unwrap" | "expect")) = ident_at(tokens, i + 1) {
                if is_punct(tokens, i + 2, '(') {
                    out.push(Violation {
                        rule: "no-panic",
                        line: tokens[i + 1].line,
                        message: format!(
                            "`.{name}()` in shipping engine/core code; return DistStreamError instead"
                        ),
                    });
                }
            }
        }
        if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) =
            ident_at(tokens, i)
        {
            if is_punct(tokens, i + 1, '!') {
                out.push(Violation {
                    rule: "no-panic",
                    line: tokens[i].line,
                    message: format!(
                        "`{name}!` in shipping engine/core code; return DistStreamError instead"
                    ),
                });
            }
        }
    }
    out
}

fn check_print_in_shipping(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if let Some(name @ ("println" | "eprintln" | "print" | "eprint")) = ident_at(tokens, i) {
            if is_punct(tokens, i + 1, '!') {
                out.push(Violation {
                    rule: "print-in-shipping",
                    line: token.line,
                    message: format!(
                        "`{name}!` in shipping library code; emit through the telemetry \
                         journal or return the information to the caller"
                    ),
                });
            }
        }
    }
    out
}

fn check_wallclock_entropy(tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        for (first, second) in [("Instant", "now"), ("SystemTime", "now")] {
            if path_pair(tokens, i, first, second) {
                out.push(Violation {
                    rule: "wallclock-entropy",
                    line: tokens[i].line,
                    message: format!(
                        "`{first}::{second}()` outside driver/metrics/netcost; wall-clock \
                         reads break simulated-mode reproducibility"
                    ),
                });
            }
        }
        if let Some(name @ ("thread_rng" | "from_entropy" | "seed_from_u64")) = ident_at(tokens, i)
        {
            // Flag constructions (`f(...)` calls), not the trait method
            // definition site in vendored code (out of scan scope anyway).
            if is_punct(tokens, i + 1, '(') {
                out.push(Violation {
                    rule: "wallclock-entropy",
                    line: tokens[i].line,
                    message: format!(
                        "RNG construction `{name}(…)` outside driver/metrics/netcost; \
                         operators must receive seeds from the driver"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    fn run_rule(name: &str, path: &str, source: &str) -> Vec<Violation> {
        let rule = catalog()
            .into_iter()
            .find(|r| r.name == name)
            .expect("rule exists");
        if !(rule.applies)(path) {
            return Vec::new();
        }
        (rule.check)(&strip_test_code(&lex(source)))
    }

    #[test]
    fn hashmap_flagged_only_in_scope() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        let hits = run_rule(
            "nondeterministic-collection",
            "crates/core/src/global.rs",
            src,
        );
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].line, 1);
        let out_of_scope = run_rule(
            "nondeterministic-collection",
            "crates/engine/src/partition.rs",
            src,
        );
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn thread_spawn_flagged_except_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let hits = run_rule("thread-spawn", "crates/core/src/parallel.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(run_rule("thread-spawn", "crates/engine/src/pool.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(|| {}); }\n}";
        assert!(run_rule("thread-spawn", "crates/core/src/parallel.rs", src).is_empty());
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
    fn no_panic_flags_each_form() {
        let src = "fn f(x: Option<u32>) -> u32 {\n let a = x.unwrap();\n let b = x.expect(\"msg\");\n panic!(\"boom\");\n unreachable!()\n}";
        let hits = run_rule("no-panic", "crates/engine/src/codec.rs", src);
        let lines: Vec<u32> = hits.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5]);
        // Out of scope: algorithms may use expect.
        assert!(run_rule("no-panic", "crates/algorithms/src/cf.rs", src).is_empty());
    }

    #[test]
    fn no_panic_ignores_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }";
        assert!(run_rule("no-panic", "crates/engine/src/codec.rs", src).is_empty());
    }

    #[test]
    fn wallclock_flagged_outside_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); let r = StdRng::seed_from_u64(7); }";
        let hits = run_rule("wallclock-entropy", "crates/core/src/global.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(run_rule("wallclock-entropy", "crates/engine/src/driver.rs", src).is_empty());
        assert!(run_rule("wallclock-entropy", "crates/engine/src/netcost.rs", src).is_empty());
        assert!(run_rule("wallclock-entropy", "crates/quality/src/cmm.rs", src).is_empty());
    }

    #[test]
    fn wallclock_covers_telemetry_except_clock() {
        let src = "fn f() { let t = Instant::now(); }";
        let hits = run_rule("wallclock-entropy", "crates/telemetry/src/span.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(run_rule("wallclock-entropy", "crates/telemetry/src/clock.rs", src).is_empty());
    }

    #[test]
    fn print_flagged_in_shipping_library_code() {
        let src = "fn f() {\n println!(\"x\");\n eprintln!(\"y\");\n print!(\"z\");\n}";
        let hits = run_rule("print-in-shipping", "crates/engine/src/driver.rs", src);
        let lines: Vec<u32> = hits.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        // Bench binaries and telemetry are out of scope: printing is their job.
        assert!(run_rule("print-in-shipping", "crates/bench/src/report.rs", src).is_empty());
        assert!(run_rule("print-in-shipping", "crates/telemetry/src/journal.rs", src).is_empty());
    }

    #[test]
    fn print_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { println!(\"debug\"); }\n}";
        assert!(run_rule("print-in-shipping", "crates/core/src/pipeline.rs", src).is_empty());
    }
}
