//! `cargo xtask analyze` — the workspace static analysis pass.
//!
//! Loads and lexes every shipping file once (`workspace.rs`), runs every
//! entry of the rule table (`rules.rs`) over every file, and prints
//! `file:line: [rule] message` diagnostics. A finding goes away by fixing
//! the code or by an inline `// lint:allow(<rule>) <why>` on the offending
//! or the preceding line; there is no other suppression.

use std::path::Path;

use crate::rules::{self, Context, Finding, RULES};
use crate::workspace;

/// The analyze outcome: what to print, what to gate on.
pub struct Report {
    /// Every finding no inline allow covers; any fails the run.
    pub active: Vec<Finding>,
    pub files_scanned: usize,
}

/// Runs the full analysis over the workspace at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let files = workspace::load(root)?;
    let names = rules::load_name_catalog(&files)?;
    let ctx = Context {
        files: &files,
        names: &names,
    };

    let mut active: Vec<Finding> = RULES
        .iter()
        .flat_map(|rule| files.iter().flat_map(|file| rule.run(file, &ctx)))
        .collect();
    active.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(Report {
        active,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace: the telemetry catalog plus one core file with
    /// `unwraps` panic-path findings, `allowed` of them under an inline
    /// allow.
    fn scratch(tag: &str, unwraps: usize, allowed: usize) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-analyze-{tag}-{}", std::process::id()));
        let write = |rel: &str, text: String| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
            std::fs::write(path, text).expect("write");
        };
        write(
            rules::NAMES_PATH,
            "pub const SPAN_BATCH: &str = \"batch\";\n".into(),
        );
        let body = "    x.unwrap();\n".repeat(unwraps - allowed)
            + &"    x.unwrap(); // lint:allow(panic-path) checked above\n".repeat(allowed);
        write(
            "crates/core/src/x.rs",
            format!("fn f(x: Option<u8>) {{\n    let _s = span!(names::SPAN_BATCH);\n{body}}}\n"),
        );
        write("crates/xtask/src/main.rs", String::new());
        root
    }

    #[test]
    fn every_finding_fails_unless_an_inline_allow_covers_it() {
        let root = scratch("gate", 3, 1);
        let report = run(&root).expect("runs");
        assert_eq!(report.active.len(), 2);
        assert!(report.active.iter().all(|f| f.rule == "panic-path"));
        std::fs::remove_dir_all(&root).ok();
    }

    /// The committed tree is clean — the same run CI's `analyze` job makes.
    #[test]
    fn the_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let report = run(root).expect("runs");
        assert!(report.active.is_empty(), "{:#?}", report.active);
    }
}
