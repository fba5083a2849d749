//! A minimal Rust lexer for the `analyze` and `loc` passes.
//!
//! The build environment has no crates.io access, so the passes cannot
//! use `syn`; instead they tokenize source text directly. The lexer strips
//! comments, char literals, and numbers — everything the lint rules
//! could false-positive on — and keeps identifiers, punctuation, and
//! string literals with line numbers. Consecutive `::` colons are fused
//! into [`Tok::PathSep`] so rules can match path patterns like
//! `Ordering::Relaxed` structurally. String literals carry their contents
//! as [`Tok::Str`] so the telemetry-name conformance rule can resolve
//! `span!("batch")`-style names against the catalog; ident/punct pattern
//! rules are unaffected because a string can never appear *inside* the
//! `.unwrap(`/`Ordering::Relaxed`-shaped sequences they match.

/// One significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Punct(char),
    /// A `::` pair.
    PathSep,
    /// A string literal's unescaped-as-written contents (escape sequences
    /// are kept verbatim; the rules only match plain-ASCII names).
    Str(String),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Tokenizes `source`, discarding comments, literals, and whitespace.
pub fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let start = i + 1;
                i = skip_string(&chars, start, &mut line, 0);
                let end = i.saturating_sub(1).max(start); // drop the closing quote
                tokens.push(Token {
                    tok: Tok::Str(chars[start..end.min(chars.len())].iter().collect()),
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'\x'`-style and `'c'` are
                // literals; `'ident` without a closing quote is a lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    i += 2; // opening quote + backslash
                    if i < n {
                        i += 1; // escaped char (covers \', \n, first of \x..)
                    }
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1; // closing quote
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    i += 3; // 'c'
                } else {
                    i += 1; // lifetime tick; identifier lexes next round
                }
            }
            c if c.is_ascii_digit() => {
                // Numbers carry no lint signal; consume and drop. The `.`
                // is left alone so float syntax lexes as number-punct-number.
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            c if c == '_' || c.is_alphabetic() => {
                let start = i;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw/byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
                if (word == "r" || word == "b" || word == "br") && i < n {
                    if chars[i] == '"' {
                        let start_line = line;
                        let start = i + 1;
                        i = if word == "b" {
                            skip_string(&chars, start, &mut line, 0)
                        } else {
                            skip_raw_string(&chars, start, &mut line, 0)
                        };
                        let end = i.saturating_sub(1).max(start);
                        tokens.push(Token {
                            tok: Tok::Str(chars[start..end.min(chars.len())].iter().collect()),
                            line: start_line,
                        });
                        continue;
                    }
                    if chars[i] == '#' && word != "b" {
                        let mut hashes = 0;
                        while i < n && chars[i] == '#' {
                            hashes += 1;
                            i += 1;
                        }
                        if i < n && chars[i] == '"' {
                            let start_line = line;
                            let start = i + 1;
                            i = skip_raw_string(&chars, start, &mut line, hashes);
                            let end = i.saturating_sub(1 + hashes).max(start);
                            tokens.push(Token {
                                tok: Tok::Str(chars[start..end.min(chars.len())].iter().collect()),
                                line: start_line,
                            });
                            continue;
                        }
                        // `r#ident` raw identifier: emit the identifier.
                        continue;
                    }
                }
                tokens.push(Token {
                    tok: Tok::Ident(word),
                    line,
                });
            }
            ':' if i + 1 < n && chars[i + 1] == ':' => {
                tokens.push(Token {
                    tok: Tok::PathSep,
                    line,
                });
                i += 2;
            }
            other => {
                tokens.push(Token {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

/// Skips a (non-raw) string body starting after the opening quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32, _hashes: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // An escaped newline (a `\`-continued literal) still ends a line.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string body (no escapes) until `"` followed by `hashes` `#`s.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut u32, hashes: usize) -> usize {
    let n = chars.len();
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Removes every token inside a `#[cfg(test)]`-gated item (typically
/// `mod tests { … }`), so rules only see shipping code.
///
/// An attribute whose idents include `test` but not `not` gates the next
/// item; the exclusion runs to the item's closing brace (or terminating
/// semicolon for brace-less items).
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut kept = Vec::with_capacity(tokens.len());
    let mut i = 0;
    let n = tokens.len();
    while i < n {
        if tokens[i].tok == Tok::Punct('#') && i + 1 < n && tokens[i + 1].tok == Tok::Punct('[') {
            let (attr_end, idents) = scan_attribute(tokens, i + 1);
            let has = |name: &str| idents.iter().any(|id| id == name);
            // `#[test]` or `#[cfg(test)]`-style gates exclude the item;
            // `cfg(not(test))` and `cfg_attr(test, …)` guard shipping code.
            let is_test_gate = (idents.len() == 1 && idents[0] == "test")
                || (has("cfg") && has("test") && !has("not") && !has("cfg_attr"));
            if is_test_gate {
                i = skip_gated_item(tokens, attr_end);
                continue;
            }
        }
        kept.push(tokens[i].clone());
        i += 1;
    }
    kept
}

/// Scans an attribute starting at its `[`; returns (index past `]`, idents).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, Vec<String>) {
    let mut depth = 0;
    let mut idents = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, idents);
                }
            }
            Tok::Ident(id) => idents.push(id.clone()),
            _ => {}
        }
        i += 1;
    }
    (i, idents)
}

/// Skips the item a test-gate attribute applies to: further attributes,
/// then tokens through the matching `}` (or a top-level `;`).
fn skip_gated_item(tokens: &[Token], mut i: usize) -> usize {
    let n = tokens.len();
    // Additional attributes on the same item.
    while i + 1 < n && tokens[i].tok == Tok::Punct('#') && tokens[i + 1].tok == Tok::Punct('[') {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end;
    }
    let mut brace_depth = 0;
    while i < n {
        match tokens[i].tok {
            Tok::Punct('{') => brace_depth += 1,
            Tok::Punct('}') => {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct(';') if brace_depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Collects `// lint:allow(rule)` escape hatches: map of line → rule names
/// allowed on that line (and, by the caller's convention, the next line).
pub fn inline_allows(source: &str) -> Vec<(u32, String)> {
    let mut allows = Vec::new();
    for (idx, text) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        let mut rest = text;
        while let Some(pos) = rest.find("lint:allow(") {
            let after = &rest[pos + "lint:allow(".len()..];
            if let Some(close) = after.find(')') {
                allows.push((line, after[..close].trim().to_string()));
                rest = &after[close + 1..];
            } else {
                break;
            }
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(id) => Some(id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in /* a nested */ block comment */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|w| *w == "HashMap").count(), 1);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'de>(c: char) { let x = 'λ'; let y = '\\n'; let z: &'static str = s; }";
        let ids = idents(src);
        assert!(ids.contains(&"de".to_string()));
        assert!(ids.contains(&"static".to_string()));
        // The literal contents never become identifiers.
        assert!(!ids.contains(&"n".to_string()));
    }

    #[test]
    fn string_literal_contents_are_captured() {
        let toks = lex(r##"span!("batch"); let r = r#"raw_name"#; let b = b"bytes";"##);
        let strs: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["batch", "raw_name", "bytes"]);
    }

    #[test]
    fn escaped_string_contents_keep_escapes_verbatim() {
        let toks = lex(r#"f("a\"b");"#);
        let strs: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![r#"a\"b"#]);
    }

    #[test]
    fn path_sep_is_fused() {
        let toks = lex("Ordering::Relaxed");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].tok, Tok::PathSep);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    /// Regression: a `\`-continued string literal used to swallow its
    /// newline uncounted, shifting every later token — and every inline
    /// allow below it — up by one line.
    #[test]
    fn continued_string_literals_keep_the_line_count() {
        let toks = lex("f(\"a \\\n   b\");\nafter");
        let after = toks.last().expect("tokens");
        assert_eq!(after.tok, Tok::Ident("after".into()));
        assert_eq!(after.line, 3);
    }

    #[test]
    fn test_mod_is_stripped() {
        let src = r#"
            fn shipping() { spawn(); }
            #[cfg(test)]
            mod tests {
                fn helper() { thread::spawn(|| {}); }
            }
            fn also_shipping() {}
        "#;
        let kept = strip_test_code(&lex(src));
        let ids: Vec<&String> = kept
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(id) => Some(id),
                _ => None,
            })
            .collect();
        assert!(ids.iter().any(|id| *id == "also_shipping"));
        assert!(!ids.iter().any(|id| *id == "thread"));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src = "#[cfg(not(test))] fn shipping() { thread::spawn(|| {}); }";
        let kept = strip_test_code(&lex(src));
        assert!(kept
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(id) if id == "thread")));
    }

    #[test]
    fn inline_allow_parsing() {
        let src = "let x = 1; // lint:allow(panic-path) justification text\nplain line\n// lint:allow(wallclock-entropy)\n";
        let allows = inline_allows(src);
        assert_eq!(
            allows,
            vec![
                (1, "panic-path".to_string()),
                (3, "wallclock-entropy".to_string())
            ]
        );
    }
}
