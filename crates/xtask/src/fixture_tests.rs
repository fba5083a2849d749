//! Fixture-file tests for the rule table.
//!
//! Each rule has a directory under `crates/xtask/fixtures/<rule>/` with
//! three files: `firing.rs` (the rule must flag it), `clean.rs` (the rule
//! must accept it), and `allowed.rs` (a violation suppressed by an inline
//! `// lint:allow(<rule>)` escape). Keeping the cases on disk instead of
//! inline strings makes the rule semantics reviewable as real code, and
//! every case goes through [`Rule::run`] — the same lex/strip/scope/allow
//! path production files go through, with no per-rule dispatch here.

use std::path::Path;

use crate::rules::{self, Context, Finding, NameDef, NameKind, Rule, RULES};
use crate::workspace::SourceFile;

/// Loads a rule's fixture `case` as a file of a crate every rule has in
/// scope.
fn fixture(rule: &Rule, case: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule.name)
        .join(format!("{case}.rs"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read fixture {}: {err}", path.display()));
    SourceFile::new("crates/algorithms/src/fixture.rs".into(), source)
}

/// Runs `rule` over `file` against a small synthetic name catalog.
fn run(rule: &Rule, file: &SourceFile) -> Vec<Finding> {
    let def = |const_name: &str, value: &str, kind| NameDef {
        const_name: const_name.into(),
        value: value.into(),
        line: 1,
        kind,
    };
    let names = [
        def("SPAN_BATCH", "batch", NameKind::Span),
        def(
            "METRIC_BATCHES_TOTAL",
            "diststream_batches_total",
            NameKind::Metric,
        ),
    ];
    let ctx = Context {
        files: std::slice::from_ref(file),
        names: &names,
    };
    rule.run(file, &ctx)
}

#[test]
fn firing_fixtures_fire_with_real_lines_under_their_own_name() {
    for rule in &RULES {
        let findings = run(rule, &fixture(rule, "firing"));
        assert!(
            !findings.is_empty(),
            "`{0}` did not flag fixtures/{0}/firing.rs",
            rule.name
        );
        for f in findings {
            assert_eq!(f.rule, rule.name);
            assert!(f.line > 0 && !f.message.is_empty(), "{f:?}");
        }
    }
}

#[test]
fn clean_fixtures_stay_clean() {
    for rule in &RULES {
        let findings = run(rule, &fixture(rule, "clean"));
        assert!(
            findings.is_empty(),
            "`{0}` flagged fixtures/{0}/clean.rs: {findings:?}",
            rule.name
        );
    }
}

#[test]
fn allowed_fixtures_are_suppressed_by_the_inline_allow_alone() {
    for rule in &RULES {
        let mut file = fixture(rule, "allowed");
        let findings = run(rule, &file);
        assert!(
            findings.is_empty(),
            "inline allow did not suppress `{0}` in fixtures/{0}/allowed.rs: {findings:?}",
            rule.name
        );
        // Without its allow comments the same file fires: the comment, not
        // the code, is what kept it quiet.
        file.allows.clear();
        assert!(
            !run(rule, &file).is_empty(),
            "fixtures/{}/allowed.rs holds no violation to allow",
            rule.name
        );
    }
}

/// The fixture directories are exactly the table: no rule without cases,
/// no cases for a rule that is gone.
#[test]
fn every_rule_has_fixtures_and_every_fixture_has_a_rule() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    on_disk.sort();
    let mut in_table: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    in_table.sort_unstable();
    assert_eq!(on_disk, in_table);
}

/// `xtask rules` prints the whole table: one unindented name line per
/// entry, in table order, each followed by its indented rationale.
#[test]
fn rules_subcommand_lists_exactly_the_table() {
    let text = rules::catalog_text();
    let listed: Vec<&str> = text
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with(' '))
        .collect();
    let in_table: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(listed, in_table);
    for rule in &RULES {
        assert!(text.contains(&format!("{}\n    {}", rule.name, rule.rationale)));
    }
}
