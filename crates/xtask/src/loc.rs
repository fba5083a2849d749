//! `xtask loc`: the size report committed as `LOC.txt`.
//!
//! Per crate under `crates/`, over the same files `analyze` loads:
//! source files, non-test lines, and `pub` items. A file's non-test lines
//! are the lines above its first `#[cfg(test)]`-gated inline module
//! (`#[cfg(test)]` directly followed by `mod … {`), or all of them when it
//! has none — comments and blanks included, so the number is what an
//! editor shows. A `pub` item is a `pub` token directly followed by an item
//! keyword in the test-stripped token stream, so `pub(crate)` items and
//! `pub` fields are not counted.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer::Tok;
use crate::workspace::{self, SourceFile};

/// Repo-relative path of the committed report.
pub const REPORT_PATH: &str = "LOC.txt";

const ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async",
];

fn non_test_lines(source: &str) -> usize {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    lines
        .windows(2)
        .position(|pair| {
            pair[0] == "#[cfg(test)]" && pair[1].starts_with("mod ") && pair[1].ends_with('{')
        })
        .unwrap_or(lines.len())
}

fn pub_items(file: &SourceFile) -> usize {
    file.tokens
        .windows(2)
        .filter(|pair| {
            matches!(&pair[0].tok, Tok::Ident(word) if word == "pub")
                && matches!(&pair[1].tok, Tok::Ident(word) if ITEM_KEYWORDS.contains(&word.as_str()))
        })
        .count()
}

/// Renders the report for the workspace at `root`.
pub fn report(root: &Path) -> Result<String, String> {
    // crate name -> (files, non-test lines, pub items)
    let mut crates: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for file in workspace::load(root)? {
        let name = file.rel.split('/').nth(1).unwrap_or("?").to_string();
        let row = crates.entry(name).or_default();
        row.0 += 1;
        row.1 += non_test_lines(&file.source);
        row.2 += pub_items(&file);
    }
    let mut out = String::from(
        "# cargo run -q -p xtask -- loc > LOC.txt   (the lint CI job fails when this file is stale)\n\
         # non-test lines: above the first `#[cfg(test)] mod … {` of each crates/*/src file\n\
         # pub items: `pub <item keyword>` outside test code (no pub(crate), no fields)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>5} {:>14} {:>9}\n",
        "crate", "files", "non-test lines", "pub items"
    ));
    let mut total = (0, 0, 0);
    for (name, (files, lines, items)) in &crates {
        out.push_str(&format!("{name:<12} {files:>5} {lines:>14} {items:>9}\n"));
        total = (total.0 + files, total.1 + lines, total.2 + items);
    }
    out.push_str(&format!(
        "{:<12} {:>5} {:>14} {:>9}\n",
        "total", total.0, total.1, total.2
    ));
    Ok(out)
}

/// Prints the report, or with `check` compares it to the committed
/// [`REPORT_PATH`]. Returns `Ok(false)` when the committed file is stale.
pub fn run(root: &Path, check: bool) -> Result<bool, String> {
    let fresh = report(root)?;
    if !check {
        print!("{fresh}");
        return Ok(true);
    }
    let path = root.join(REPORT_PATH);
    let committed = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    if committed == fresh {
        println!("xtask loc: {REPORT_PATH} is up to date");
        return Ok(true);
    }
    println!("xtask loc: {REPORT_PATH} is stale — the workspace now measures:\n{fresh}");
    println!("regenerate with `cargo run -q -p xtask -- loc > {REPORT_PATH}`");
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(source: &str) -> SourceFile {
        SourceFile::new("crates/demo/src/lib.rs".into(), source.into())
    }

    #[test]
    fn counts_lines_above_the_first_test_module_only() {
        let source = "//! docs\npub fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(source), 3);
        assert_eq!(non_test_lines("fn a() {}\nfn b() {}\n"), 2);
        // A gated out-of-line module declaration is not the test block.
        let declared = "#[cfg(test)]\nmod fixture_tests;\nfn main() {}\n";
        assert_eq!(non_test_lines(declared), 3);
    }

    #[test]
    fn counts_pub_items_not_fields_or_restricted_or_test_items() {
        let source = "pub struct S { pub field: u8 }\npub(crate) fn hidden() {}\n\
                      pub const fn c() {}\npub use a::b;\n\
                      #[cfg(test)]\nmod tests {\n    pub fn in_test() {}\n}\n";
        assert_eq!(pub_items(&file(source)), 3);
    }
}
