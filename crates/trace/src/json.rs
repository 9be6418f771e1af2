//! A minimal JSON reader.
//!
//! The vendored serde stand-in only *writes* JSON, but the tooling side
//! of observability needs to read it back: the bench-compare tool diffs
//! two `BENCH_*.json` documents, and the trace tests validate the Chrome
//! export. This is a small recursive-descent parser over the JSON the
//! workspace itself emits (plus standard escapes); objects preserve key
//! order as a `Vec<(String, JsonValue)>`.
//!
//! The tools also run it on HTTP bodies from whatever endpoint they are
//! pointed at, so any input yields a value or a [`JsonError`], never a
//! panic: nesting deeper than [`MAX_DEPTH`] is rejected before the
//! recursion can exhaust the stack.

use std::fmt;

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The deepest document the workspace writes has 5 levels.
pub const MAX_DEPTH: usize = 128;

/// Why a document did not parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document at which parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub kind: JsonErrorKind,
}

/// The kinds of [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// An array or object opens more than [`MAX_DEPTH`] levels deep.
    TooDeep,
    /// Malformed JSON; the message says what was wrong.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels")?,
            JsonErrorKind::Syntax(message) => f.write_str(message)?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A syntax error at `offset`.
fn syntax(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        kind: JsonErrorKind::Syntax(message.into()),
    }
}

/// A syntax error at `pos` naming what was expected there and what was found.
fn unexpected(b: &[u8], pos: usize, expected: &str) -> JsonError {
    let found = b.get(pos).map(|&x| x as char);
    syntax(pos, format!("expected {expected}, found {found:?}"))
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what vendored serde writes for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syntax(pos, "trailing garbage"));
        }
        Ok(v)
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(unexpected(b, *pos, &format!("{:?}", c as char)))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(JsonError {
            offset: *pos,
            kind: JsonErrorKind::TooDeep,
        });
    }
    match b.get(*pos) {
        None => Err(syntax(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                entries.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(entries));
                    }
                    _ => return Err(unexpected(b, *pos, "',' or '}'")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(unexpected(b, *pos, "',' or ']'")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => keyword(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => keyword(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => keyword(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn keyword(
    b: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(syntax(*pos, "invalid literal"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(syntax(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let code = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| syntax(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not emitted by the vendored
                        // writer; map lone surrogates to the replacement
                        // character rather than failing the document.
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(unexpected(b, *pos, "an escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x80 => {
                // ASCII fast path: one byte, one char. Validating only
                // this byte keeps the parse linear — re-checking the
                // whole remaining input per character made multi-MB
                // trace documents quadratic to read.
                s.push(c as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe): a scalar
                // is at most 4 bytes, so validate just that window.
                let chunk = &b[*pos..(*pos + 4).min(b.len())];
                let c = match std::str::from_utf8(chunk) {
                    Ok(valid) => valid.chars().next().expect("non-empty"),
                    Err(e) if e.valid_up_to() > 0 => std::str::from_utf8(&chunk[..e.valid_up_to()])
                        .expect("validated prefix")
                        .chars()
                        .next()
                        .expect("non-empty"),
                    Err(e) => return Err(syntax(*pos, e.to_string())),
                };
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if start == *pos {
        return Err(syntax(start, "expected a value"));
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| syntax(start, e.to_string()))?
        .parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| syntax(start, format!("bad number: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_vendored_serde_writes() {
        #[derive(serde::Serialize)]
        struct Sample {
            name: String,
            rate: f64,
            flags: Vec<bool>,
            nested: Option<u32>,
            bad: f64,
        }
        let doc = serde::Serialize::to_json(&Sample {
            name: "a \"quoted\"\nline".to_string(),
            rate: -1.25e-3,
            flags: vec![true, false],
            nested: None,
            bad: f64::NAN,
        });
        let v = JsonValue::parse(&doc).expect("round-trips");
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(-1.25e-3));
        assert_eq!(
            v.get("flags").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("nested"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("bad"),
            Some(&JsonValue::Null),
            "NaN serialises as null"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_with_the_offending_offset() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&arrays(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&arrays(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        let err = JsonValue::parse(&objects).expect_err("too deep");
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        assert!(err
            .to_string()
            .contains(&format!("at byte {}", 5 * MAX_DEPTH)));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_an_abort() {
        // Without the cap each of these overflows the stack, which aborts
        // the process; the default test-thread stack is the tight case.
        for doc in ["[".repeat(1_000_000), "{\"a\":".repeat(100_000)] {
            let err = JsonValue::parse(&doc).expect_err("too deep");
            assert_eq!(err.kind, JsonErrorKind::TooDeep);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":{"b":[1,2,{"c":3}]},"d":"e"}"#).expect("valid");
        let b = v.get("a").and_then(|a| a.get("b")).expect("path a.b");
        assert_eq!(b.as_array().map(<[_]>::len), Some(3));
        assert_eq!(
            b.as_array().unwrap()[2]
                .get("c")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }
}
