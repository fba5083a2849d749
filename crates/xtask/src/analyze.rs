//! `cargo xtask analyze` — the workspace static analysis pass.
//!
//! Loads and lexes every shipping file once (`workspace.rs`), runs every
//! entry of the rule table (`rules.rs`) over every file, and prints
//! `file:line: [rule] message` diagnostics. There are two ways to suppress
//! a finding: an inline `// lint:allow(<rule>) <why>` on the offending or
//! the preceding line, and — for the rules marked `baseline_gated` — the
//! committed per-(rule, file) counts in `analyze-baseline.txt`, so CI fails
//! only on *new* findings while the baseline ratchets down.

use std::collections::BTreeMap;
use std::path::Path;

use crate::rules::{self, Context, Finding, RULES};
use crate::workspace;

/// Repo-relative path of the committed baseline file.
pub const BASELINE_PATH: &str = "crates/xtask/analyze-baseline.txt";

/// Finding counts per (rule, path).
type Counts = BTreeMap<(String, String), usize>;

/// The analyze outcome: what to print, what to gate on.
pub struct Report {
    /// Findings that fail the run (not baselined, not allowed).
    pub active: Vec<Finding>,
    /// How many findings the baseline grandfathered.
    pub baselined: usize,
    /// (rule, path, baseline, current) where current < baseline: the
    /// baseline can ratchet down.
    pub ratchet: Vec<(String, String, usize, usize)>,
    pub files_scanned: usize,
}

/// Runs the full analysis over the workspace at `root`; with
/// `update_baseline`, first rewrites the baseline to the current counts.
pub fn run(root: &Path, update_baseline: bool) -> Result<Report, String> {
    let files = workspace::load(root)?;
    let names = rules::load_name_catalog(&files)?;
    let ctx = Context {
        files: &files,
        names: &names,
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut counts = Counts::new();
    for rule in &RULES {
        for file in &files {
            let found = rule.run(file, &ctx);
            if rule.baseline_gated && !found.is_empty() {
                counts.insert((rule.name.to_string(), file.rel.clone()), found.len());
            }
            findings.extend(found);
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });

    let baseline_file = root.join(BASELINE_PATH);
    if update_baseline {
        std::fs::write(&baseline_file, render_baseline(&counts))
            .map_err(|err| format!("cannot write {}: {err}", baseline_file.display()))?;
    }
    let baseline = load_baseline(&baseline_file)?;

    // A file within its budget has all of its gated findings grandfathered;
    // a file over it reports every one (the new finding is among them).
    let within = |rule: &str, path: &str| {
        let key = (rule.to_string(), path.to_string());
        counts
            .get(&key)
            .is_some_and(|current| current <= baseline.get(&key).unwrap_or(&0))
    };
    let (grandfathered, active): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| within(f.rule, &f.path));
    let ratchet = baseline
        .iter()
        .filter_map(|(key, &allowed)| {
            let current = counts.get(key).copied().unwrap_or(0);
            (current < allowed).then(|| (key.0.clone(), key.1.clone(), allowed, current))
        })
        .collect();

    Ok(Report {
        active,
        baselined: grandfathered.len(),
        ratchet,
        files_scanned: files.len(),
    })
}

fn render_baseline(counts: &Counts) -> String {
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

fn load_baseline(path: &Path) -> Result<Counts, String> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Ok(Counts::new()); // no baseline: everything is new
    };
    let mut out = Counts::new();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace: the telemetry catalog plus one core file with
    /// `unwraps` panic-path findings.
    fn scratch(tag: &str, unwraps: usize) -> std::path::PathBuf {
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
        let body = "    x.unwrap();\n".repeat(unwraps);
        write(
            "crates/core/src/x.rs",
            format!("fn f(x: Option<u8>) {{\n    let _s = span!(names::SPAN_BATCH);\n{body}}}\n"),
        );
        write("crates/xtask/src/main.rs", String::new());
        root
    }

    #[test]
    fn baseline_grandfathers_until_a_files_count_grows_and_ratchets_down() {
        let root = scratch("gate", 2);
        let fresh = run(&root, false).expect("runs");
        assert_eq!((fresh.active.len(), fresh.baselined), (2, 0));
        assert!(fresh.active.iter().all(|f| f.rule == "panic-path"));

        let blessed = run(&root, true).expect("runs");
        assert_eq!((blessed.active.len(), blessed.baselined), (0, 2));
        let text = std::fs::read_to_string(root.join(BASELINE_PATH)).expect("baseline written");
        assert!(
            text.ends_with("panic-path\tcrates/core/src/x.rs\t2\n"),
            "{text}"
        );

        // One more finding in the file: all three are reported.
        scratch("gate", 3);
        let report = run(&root, false).expect("runs");
        assert_eq!((report.active.len(), report.baselined), (3, 0));

        // One fewer than blessed: clean, and the ratchet says so.
        scratch("gate", 1);
        let report = run(&root, false).expect("runs");
        assert_eq!((report.active.len(), report.baselined), (0, 1));
        assert_eq!(
            report.ratchet,
            vec![("panic-path".into(), "crates/core/src/x.rs".into(), 2, 1)]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_baseline_lines_are_errors() {
        let root = scratch("bad-baseline", 0);
        std::fs::write(
            root.join(BASELINE_PATH),
            "panic-path crates/core/src/x.rs 2\n",
        )
        .expect("write");
        let err = run(&root, false).err().expect("rejects");
        assert!(err.contains("expected `rule<TAB>path<TAB>count`"), "{err}");
        std::fs::write(
            root.join(BASELINE_PATH),
            "panic-path\tcrates/core/src/x.rs\tmany\n",
        )
        .expect("write");
        let err = run(&root, false).err().expect("rejects");
        assert!(err.contains("bad count"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// The committed tree is clean under the committed baseline — the same
    /// run CI's `analyze` job makes.
    #[test]
    fn the_workspace_is_clean_under_its_committed_baseline() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let report = run(root, false).expect("runs");
        assert!(report.active.is_empty(), "{:#?}", report.active);
    }
}
