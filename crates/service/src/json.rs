//! A minimal JSON value model, parser and writer (std-only).
//!
//! The service speaks newline-delimited JSON; with no external registry
//! available the (de)serialization layer is hand-rolled. The subset is
//! complete for the protocol's needs: objects, arrays, strings with
//! escapes, numbers (f64), booleans and null. Object key order is
//! preserved so responses are stable and diffable in tests.

use se_reactor::scan::{find, lanes_below, lanes_eq};
use std::fmt::Write as _;
use std::sync::Arc;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON text spliced verbatim into the output.
    ///
    /// Never produced by [`parse`]; the writer emits the text as-is, so the
    /// caller is responsible for it being valid single-line JSON. The cache
    /// fast path uses this to reuse a permutation array rendered once at
    /// insert time (shared via `Arc`, so splicing is O(1) in allocations).
    Raw(Arc<str>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves object field `key` (first match) out, leaving `null` behind,
    /// so a decoder can keep a large string without copying it.
    pub(crate) fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.007_199_254_740_992e15 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string (never contains a raw
    /// newline, so it is safe for the newline-delimited wire format).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The bytes a JSON string cannot hold literally — `"`, `\` and controls
/// below 0x20 — flagged per lane of an eight-byte word. The parser stops
/// on them to unescape, the writer to escape.
fn special_lanes(w: u64) -> u64 {
    lanes_eq(w, b'"') | lanes_eq(w, b'\\') | lanes_below(w, 0x20)
}

/// Writes `s` as a quoted JSON string. The runs between bytes that need
/// escaping are copied whole; those bytes are ASCII, so every run ends on
/// a char boundary.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    // Room for an escape every 8 bytes, which covers a matrix payload's
    // one `\n` per entry line without growing the buffer mid-copy.
    out.reserve(s.len() + s.len() / 8 + 2);
    out.push('"');
    let mut rest = s;
    while let Some(i) = find(rest.as_bytes(), special_lanes) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c);
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Nesting depth cap: the protocol never needs more, and a cap keeps
/// adversarial inputs from overflowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("bad number '{text}'"),
            offset: start,
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one piece. Those delimiters are
            // ASCII, so the run is a `str` slice of the input: no per-byte
            // tests and no UTF-8 revalidation.
            let Some(run) = find(&self.bytes[self.pos..], special_lanes) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `u32::from_str_radix` alone would also
        // take a leading `+`.
        let digits = &self.bytes[self.pos..self.pos + 4];
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let v = digits.iter().fold(0, |v, &b| {
            (v << 4) | char::from(b).to_digit(16).expect("an ASCII hex digit")
        });
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"[1,2,3]"#,
            r#"{"a":1,"b":[true,null],"c":"x"}"#,
            r#"{"nested":{"deep":{"ok":false}}}"#,
        ];
        for c in cases {
            let v = parse(c).unwrap();
            assert_eq!(v.to_string_compact(), c, "case {c}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("line1\nline2\t\"quoted\" \\ \u{1}".to_string());
        let s = v.to_string_compact();
        assert!(!s.contains('\n'), "wire form must be single-line: {s}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".to_string()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("é😀".to_string())
        );
        // A `\u` escape takes exactly four hex digits; a sign is not one.
        for bad in [r#""\u+123""#, r#""\u+0041""#, r#""\u-123""#] {
            let err = parse(bad).unwrap_err();
            assert_eq!((err.message.as_str(), err.offset), ("bad \\u escape", 3));
        }
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "\"abc",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashing() {
        let s = "[".repeat(100_000);
        assert!(parse(&s).is_err());
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("perm", Json::Raw("[2,0,1]".into())),
        ]);
        let s = v.to_string_compact();
        assert_eq!(s, r#"{"ok":true,"perm":[2,0,1]}"#);
        // The spliced output parses back to the plain equivalent.
        let back = parse(&s).unwrap();
        assert_eq!(
            back.get("perm").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn getters() {
        let v = parse(r#"{"cmd":"ORDER","n":4,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("ORDER"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("missing"), None);
    }
}
