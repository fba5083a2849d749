//! A minimal recursive-descent JSON parser for `xtask bench-check`.
//!
//! `BENCH_BASELINE.json` nests an array of entry objects, so the journal's
//! flat-object parser (`diststream_trace::parse_flat_object`) is not enough.
//! This is still a deliberate subset of JSON — objects, arrays, strings,
//! numbers, booleans, null — with no streaming and no serde dependency
//! (xtask has none by design).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Key order is irrelevant to bench-check, so a sorted map is fine.
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, `None` for non-numbers.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == want => {
                self.at += 1;
                Ok(())
            }
            Some(c) => Err(format!(
                "expected `{}` at byte {}, found `{}`",
                want as char, self.at, c as char
            )),
            None => Err(format!("expected `{}`, found end of input", want as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!(
                "bad literal at byte {} (expected `{word}`)",
                self.at
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unsupported value starting with `{}` at byte {}",
                c as char, self.at
            )),
            None => Err("expected value, found end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The journal and baseline files are ASCII-producing encoders,
            // but the source is valid UTF-8 — consume by char boundary.
            let rest = std::str::from_utf8(&self.bytes[self.at..])
                .map_err(|_| "invalid UTF-8 in string".to_string())?;
            let mut chars = rest.chars();
            match chars.next() {
                Some('"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = self
                                    .peek()
                                    .and_then(|d| (d as char).to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + digit;
                                self.at += 1;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.at += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.at += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_baseline_shape() {
        let doc = parse(
            "{\n  \"schema\": 1,\n  \"mode\": \"quick\",\n  \"entries\": [\n    \
             {\"algo\": \"clustream\", \"parallelism\": 1, \"records_per_sec\": 1234.5},\n    \
             {\"algo\": \"denstream\", \"parallelism\": 4, \"records_per_sec\": 6.7e3}\n  ]\n}\n",
        )
        .expect("valid document");
        assert_eq!(doc.get("schema").and_then(Json::as_num), Some(1.0));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
        let entries = doc.get("entries").and_then(Json::as_array).expect("array");
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("records_per_sec").and_then(Json::as_num),
            Some(6700.0)
        );
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" null ").unwrap(), Json::Null);
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            parse("\"a\\\"b\\u0041\"").unwrap(),
            Json::Str("a\"bA".to_string())
        );
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(BTreeMap::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }
}
