//! Workspace loading shared by the `analyze` and `loc` passes.
//!
//! Both operate on the same inputs: every shipping `.rs` file under
//! `crates/*/src`, lexed once, with test code stripped and inline
//! `// lint:allow(rule)` escapes collected.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Token};

/// One shipping source file, lexed and ready for every rule.
pub struct SourceFile {
    /// Repo-relative path with `/` separators (the rules' scoping key).
    pub rel: String,
    /// Raw source text (line counts, and whole-file mention searches).
    pub source: String,
    /// Tokens with `#[cfg(test)]` items removed — what the rules see.
    pub tokens: Vec<Token>,
    /// `(line, rule)` pairs from inline `// lint:allow(rule)` escapes.
    pub allows: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes `source` as the file at repo-relative path `rel`.
    pub fn new(rel: String, source: String) -> Self {
        SourceFile {
            tokens: lexer::strip_test_code(&lexer::lex(&source)),
            allows: lexer::inline_allows(&source),
            rel,
            source,
        }
    }

    /// Whether an inline allow for `rule` covers `line` (same or preceding
    /// line).
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|(l, name)| name == rule && (*l == line || *l + 1 == line))
    }
}

/// Walks `crates/*/src/**/*.rs` under `root` and lexes every file.
pub fn load(root: &Path) -> Result<Vec<SourceFile>, String> {
    let files =
        discover_files(root).map_err(|err| format!("cannot walk {}: {err}", root.display()))?;
    if files.is_empty() {
        return Err(format!("no source files found under {}", root.display()));
    }
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let rel = relative_path(root, &file);
        let source =
            std::fs::read_to_string(&file).map_err(|err| format!("cannot read {rel}: {err}"))?;
        out.push(SourceFile::new(rel, source));
    }
    Ok(out)
}

/// Shipping sources: `crates/*/src/**/*.rs`. Integration tests, benches,
/// and the vendored stub crates are out of scan scope by construction.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

pub fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .expect("workspace root")
    }

    #[test]
    fn discovers_workspace_sources() {
        let root = root();
        let files = discover_files(&root).expect("walk");
        let rels: Vec<String> = files.iter().map(|f| relative_path(&root, f)).collect();
        assert!(rels.iter().any(|r| r == "crates/engine/src/pool.rs"));
        assert!(rels.iter().any(|r| r == "crates/core/src/global.rs"));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
        assert!(!rels.iter().any(|r| r.contains("/tests/")));
    }

    #[test]
    fn load_collects_tokens_and_allows() {
        let files = load(&root()).expect("load");
        let sequential = files
            .iter()
            .find(|f| f.rel == "crates/core/src/sequential.rs")
            .expect("sequential.rs present");
        assert!(!sequential.tokens.is_empty());
        // sequential.rs carries a known inline wallclock-entropy allow.
        assert!(sequential
            .allows
            .iter()
            .any(|(_, rule)| rule == "wallclock-entropy"));
    }

    #[test]
    fn inline_allow_covers_same_and_next_line() {
        let file = SourceFile::new(
            "x.rs".into(),
            "\n".repeat(9) + "// lint:allow(panic-path) why",
        );
        assert!(file.allows("panic-path", 10));
        assert!(file.allows("panic-path", 11));
        assert!(!file.allows("panic-path", 12));
        assert!(!file.allows("other-rule", 10));
    }
}
