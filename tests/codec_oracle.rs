//! Differential oracles for the request codec's word-at-a-time scans.
//!
//! The reactor's line split (`LineBuf`), the JSON string decoder
//! (`json::parse`) and the JSON string writer each search eight bytes per
//! step (`se_reactor::scan`). This suite keeps their byte-at-a-time
//! predecessors as references and checks that the fast versions agree with
//! them exactly: the same lines, the same values, the same error messages
//! and offsets, the same bytes. Inputs put every kind of special byte at
//! every offset mod 8 ahead of every tail length the word scan handles
//! separately. The last test mutates ORDER and BATCH lines from a grammar
//! and pushes them through `LineBuf` and `decode_request`: nothing may
//! panic, and every decode must match what the reference parser implies.

use se_prng::SmallRng;
use se_reactor::{LineBuf, LineError};
use spectral_envelope_repro::service::json::{self, Json, JsonError};
use spectral_envelope_repro::service::proto::{
    decode_request, encode_request, MatrixSource, ProtoError, Request,
};

// ---------------------------------------------------------------------------
// References: the byte-at-a-time versions the word scans replaced.
// ---------------------------------------------------------------------------

/// The byte-at-a-time JSON parser: one test per byte of every string, then
/// a UTF-8 validation of each run of plain bytes.
fn ref_parse(input: &str) -> Result<Json, JsonError> {
    let mut p = RefParser {
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

struct RefParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl RefParser<'_> {
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
        if depth > 64 {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("bad number '{text}'"),
            offset: start,
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
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

/// The char-at-a-time JSON string writer.
fn ref_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The line buffer with `iter().position` / `contains` newline searches.
struct RefLineBuf {
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    max_line: usize,
}

impl RefLineBuf {
    fn new(max_line: usize) -> RefLineBuf {
        RefLineBuf {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_line: max_line.max(1),
        }
    }

    fn extend(&mut self, bytes: &[u8]) -> Result<(), LineError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() - self.start > self.max_line && !self.buf[self.start..].contains(&b'\n') {
            return Err(LineError::TooLong);
        }
        Ok(())
    }

    fn pop_line(&mut self) -> Result<Option<String>, LineError> {
        let from = self.scanned.max(self.start);
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() - self.start > self.max_line {
                    return Err(LineError::TooLong);
                }
                Ok(None)
            }
            Some(rel) => {
                let nl = from + rel;
                let line = self.buf[self.start..nl].to_vec();
                self.start = nl + 1;
                self.scanned = self.start;
                String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| LineError::NotUtf8)
            }
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// JSON string-body fragments that stop the scan: quotes, backslashes,
/// every raw control byte, every short escape, `\u` escapes (surrogate
/// pairs, lone and mismatched halves, truncated and malformed ones) and
/// multi-byte UTF-8.
fn special_fragments() -> Vec<String> {
    let mut f: Vec<String> = (0u8..0x20).map(|b| (b as char).to_string()).collect();
    f.extend(
        [
            "\"",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0000",
            "\\u001f",
            "\\u0041",
            "\\u00e9",
            "\\u20AC",
            "\\ud83d\\ude00",
            "\\uD83D\\uDE00",
            "\\ud83d",
            "\\ud83dx",
            "\\ud83d\\u0041",
            "\\ude00",
            "\\ud83d\\",
            "\\u12",
            "\\u12G4",
            "\\u+123",
            "\\u+0041",
            "\\x",
            "\\",
            "é",
            "€",
            "😀",
            "\u{7f}",
            "a\"b",
            "\\\\\"",
        ]
        .map(String::from),
    );
    f
}

/// Plain bytes (no `"`, `\` or control), mixing 1- to 4-byte chars.
fn plain(rng: &mut SmallRng, len: usize) -> String {
    const POOL: [&str; 8] = ["a", "0", " ", "%", "é", "€", "😀", "~"];
    let mut s = String::new();
    while s.len() < len {
        let c = POOL[rng.gen_range(0..POOL.len())];
        s.push_str(if s.len() + c.len() <= len { c } else { "z" });
    }
    s
}

/// Asserts the word-scan parser and the reference agree on `text`, and
/// that the writer re-escapes every string of an accepted value the same
/// way the reference writer does.
fn check_parse(text: &str) {
    let got = json::parse(text);
    assert_eq!(got, ref_parse(text), "parse disagrees on {text:?}");
    if let Ok(v) = got {
        check_write(&v);
    }
}

fn check_write(v: &Json) {
    match v {
        Json::Str(s) => assert_eq!(
            v.to_string_compact(),
            ref_escape(s),
            "escape disagrees on {s:?}"
        ),
        Json::Arr(items) => items.iter().for_each(check_write),
        Json::Obj(pairs) => {
            for (k, item) in pairs {
                check_write(&Json::Str(k.clone()));
                check_write(item);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn json_strings_match_the_bytewise_parser_at_every_offset() {
    let mut rng = SmallRng::seed_from_u64(0x0DEC0DE);
    for frag in special_fragments() {
        for lead in 0..8 {
            for tail in 0..16 {
                let head = "a".repeat(lead);
                let rest = plain(&mut rng, tail);
                let body = format!("{head}{frag}{rest}");
                check_parse(&format!("\"{body}\""));
                check_parse(&format!("\"{body}"));
                check_parse(&format!("{{\"k{frag}\":\"{body}\",\"n\":1}}"));
                check_parse(&format!("[\"{body}\",\"{body}\"]  "));
            }
        }
    }
}

#[test]
fn seeded_json_documents_match_the_bytewise_parser() {
    let mut rng = SmallRng::seed_from_u64(7);
    let frags = special_fragments();
    for _ in 0..3000 {
        let mut body = String::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let n = rng.gen_range(0..20usize);
            body.push_str(&plain(&mut rng, n));
            body.push_str(&frags[rng.gen_range(0..frags.len())]);
        }
        let n = rng.gen_range(0..20usize);
        body.push_str(&plain(&mut rng, n));
        let doc = match rng.gen_range(0..3usize) {
            0 => format!("\"{body}\""),
            1 => format!("{{\"cmd\":\"ORDER\",\"payload\":\"{body}\"}}"),
            _ => format!("[1,\"{body}\",null,\"{body}\"]"),
        };
        check_parse(&doc);
        // Truncation at every char boundary exercises every error path.
        for (cut, _) in doc.char_indices() {
            check_parse(&doc[..cut]);
        }
    }
}

#[test]
fn escaping_matches_the_charwise_writer() {
    let mut rng = SmallRng::seed_from_u64(0xE5C);
    let chars: Vec<char> = (0u32..0x80)
        .filter_map(char::from_u32)
        .chain(['é', '€', '😀', '\u{2028}', '\u{FFFD}'])
        .collect();
    for &c in &chars {
        for lead in 0..8 {
            for tail in 0..16 {
                let s = format!("{}{c}{}", "a".repeat(lead), plain(&mut rng, tail));
                let got = Json::Str(s.clone()).to_string_compact();
                assert_eq!(got, ref_escape(&s), "escape disagrees on {s:?}");
                assert_eq!(json::parse(&got), Ok(Json::Str(s)));
            }
        }
    }
}

#[test]
fn line_buffer_matches_the_bytewise_splitter_across_read_splits() {
    let mut rng = SmallRng::seed_from_u64(0x11E);
    for round in 0..200 {
        // A stream of lines of every tail length, with empty lines, CRs,
        // invalid UTF-8 and a partial last line.
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let len = rng.gen_range(0..40usize);
            for _ in 0..len {
                stream.push(match rng.gen_range(0..12u32) {
                    0 => b'\r',
                    1 => 0xFF,
                    2 => 0xC3,
                    3 => 0xA9,
                    4 => 0x00,
                    _ => b'a' + rng.gen_range(0..26u32) as u8,
                });
            }
            stream.push(b'\n');
        }
        stream.extend(plain(&mut rng, round % 16).bytes());
        let cap = if round % 4 == 0 { 24 } else { 1 << 16 };
        for split in 0..=stream.len() {
            let mut fast = LineBuf::new(cap);
            let mut slow = RefLineBuf::new(cap);
            for part in [&stream[..split], &stream[split..]] {
                let (a, b) = (fast.extend(part), slow.extend(part));
                assert_eq!(a, b, "extend, round {round} split {split}");
                if a.is_err() {
                    break;
                }
                loop {
                    let (a, b) = (fast.pop_line(), slow.pop_line());
                    assert_eq!(a, b, "pop_line, round {round} split {split}");
                    assert_eq!(fast.pending(), slow.pending());
                    if !matches!(a, Ok(Some(_)) | Err(LineError::NotUtf8)) {
                        break;
                    }
                }
            }
        }
    }
}

/// A grammar for ORDER objects: the real fields with right and wrong
/// types, in random order, sometimes duplicated or missing.
fn order_object(rng: &mut SmallRng) -> String {
    let frags = special_fragments();
    let mut fields: Vec<String> = Vec::new();
    let mut payload = String::from("%%MatrixMarket matrix coordinate pattern symmetric\\n");
    for _ in 0..rng.gen_range(0..4usize) {
        let n = rng.gen_range(0..12usize);
        payload.push_str(&plain(rng, n));
        if rng.gen_range(0..6u32) == 0 {
            payload.push_str(&frags[rng.gen_range(0..frags.len())]);
        } else {
            payload.push_str("\\n");
        }
    }
    let choices: [(&str, &[&str]); 10] = [
        ("\"cmd\"", &["\"ORDER\"", "\"order\"", "\"BATCH\"", "7"]),
        ("\"alg\"", &["\"rcm\"", "\"spectral\"", "\"bogus\"", "1"]),
        ("\"format\"", &["\"mtx\"", "\"chaco\"", "\"x\"", "null"]),
        ("\"payload\"", &["PAYLOAD", "PAYLOAD", "3", "null"]),
        ("\"path\"", &["\"/m.mtx\"", "[]"]),
        ("\"timeout_ms\"", &["100", "-1", "1.5", "1e999"]),
        ("\"threads\"", &["2", "100000", "\"2\""]),
        ("\"id\"", &["9", "9007199254740993", "-0"]),
        ("\"include_perm\"", &["false", "0"]),
        ("\"hop\"", &["true", "\"yes\""]),
    ];
    for (key, values) in choices {
        // Mostly one well-typed cmd and payload; the rest now and then.
        let copies = match key {
            "\"cmd\"" | "\"payload\"" => [1, 1, 1, 1, 1, 1, 0, 2][rng.gen_range(0..8usize)],
            _ => usize::from(rng.gen_range(0..4u32) == 0),
        };
        for _ in 0..copies {
            let v = if rng.gen::<bool>() {
                values[0]
            } else {
                values[rng.gen_range(0..values.len())]
            };
            let v = if v == "PAYLOAD" {
                format!("\"{payload}\"")
            } else {
                v.to_string()
            };
            fields.push(format!("{key}:{v}"));
        }
    }
    rng.shuffle(&mut fields);
    format!("{{{}}}", fields.join(","))
}

/// One mutation: delete, insert, replace, duplicate or truncate.
fn mutate(rng: &mut SmallRng, line: &mut Vec<u8>) {
    const BYTES: &[u8] = b"\"\\{}[],:\n\r\t 0u9e-\x00\x1f\x7f\xc3\xa9\xff\xf0";
    if line.is_empty() {
        line.push(BYTES[rng.gen_range(0..BYTES.len())]);
        return;
    }
    let at = rng.gen_range(0..line.len());
    match rng.gen_range(0..5u32) {
        0 => {
            line.remove(at);
        }
        1 => line.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
        2 => line[at] = BYTES[rng.gen_range(0..BYTES.len())],
        3 => {
            let end = (at + rng.gen_range(1..12usize)).min(line.len());
            let span = line[at..end].to_vec();
            line.splice(at..at, span);
        }
        _ => line.truncate(at),
    }
}

/// What `decode_request` must answer for `line`, from the reference
/// parser: its error unchanged, or the decode of its value written out
/// canonically.
fn reference_decode(line: &str) -> Result<Request, ProtoError> {
    match ref_parse(line) {
        Err(e) => Err(ProtoError::Json(e)),
        Ok(v) => decode_request(&v.to_string_compact()),
    }
}

/// Every decoded inline payload is the first `payload` field's string.
fn check_payloads(line: &str, req: &Request) {
    let v = ref_parse(line).expect("decoded lines parse");
    let (objects, orders): (Vec<&Json>, Vec<_>) = match req {
        Request::Order(o) => (vec![&v], vec![o]),
        Request::Batch(items) => (
            v.get("requests")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .collect(),
            items.iter().collect(),
        ),
        _ => return,
    };
    for (obj, o) in objects.iter().zip(orders) {
        if let MatrixSource::Inline { payload, .. } = &o.source {
            assert_eq!(
                Some(payload.as_str()),
                obj.get("payload").and_then(Json::as_str)
            );
        }
    }
}

#[test]
fn hostile_order_and_batch_lines_decode_like_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xBAD_B17E5);
    let mut decoded = 0;
    for round in 0..1500 {
        let mut line = if rng.gen_range(0..3u32) == 0 {
            let members: Vec<String> = (0..rng.gen_range(0..4usize))
                .map(|_| order_object(&mut rng))
                .collect();
            format!("{{\"cmd\":\"BATCH\",\"requests\":[{}]}}", members.join(","))
        } else {
            order_object(&mut rng)
        }
        .into_bytes();
        for _ in 0..rng.gen_range(0..4usize).saturating_sub(1) {
            mutate(&mut rng, &mut line);
        }
        line.push(b'\n');
        // Through the reactor's line split, in two reads cut anywhere.
        let cut = rng.gen_range(0..=line.len());
        let mut fast = LineBuf::new(1 << 20);
        let mut slow = RefLineBuf::new(1 << 20);
        for part in [&line[..cut], &line[cut..]] {
            fast.extend(part).unwrap();
            slow.extend(part).unwrap();
        }
        loop {
            let got = fast.pop_line();
            assert_eq!(got, slow.pop_line(), "round {round}");
            match got {
                Ok(Some(text)) => {
                    let req = decode_request(&text);
                    assert_eq!(req, reference_decode(&text), "round {round}: {text:?}");
                    if let Ok(req) = &req {
                        check_payloads(&text, req);
                        decoded += 1;
                    }
                }
                Err(LineError::NotUtf8) => {}
                _ => break,
            }
        }
    }
    // The grammar keeps a fair share of lines well-formed.
    assert!(decoded > 100, "only {decoded} lines decoded");
}

#[test]
fn order_errors_keep_their_precedence() {
    for (line, want) in [
        (
            r#"{"cmd":"ORDER","payload":5,"format":"bogus"}"#,
            "payload must be a string",
        ),
        (
            r#"{"cmd":"ORDER","payload":"x","format":"bogus"}"#,
            "unknown format 'bogus'",
        ),
        (
            r#"{"cmd":"ORDER","alg":"bogus","payload":5}"#,
            "unknown algorithm 'bogus'",
        ),
        (
            r#"{"cmd":"ORDER","payload":null,"path":"/m.mtx"}"#,
            "give either payload or path, not both",
        ),
        (
            r#"{"cmd":"BATCH","requests":{}}"#,
            "BATCH needs a requests array",
        ),
        (
            r#"{"cmd":"BATCH","requests":[{"path":"/a.mtx"},{"payload":1}]}"#,
            "payload must be a string",
        ),
    ] {
        let err = decode_request(line).unwrap_err().to_string();
        assert!(err.contains(want), "{line}: {err}");
    }
    // The first of duplicated payload fields is the one decoded.
    match decode_request(r#"{"cmd":"ORDER","payload":"a","payload":"b"}"#).unwrap() {
        Request::Order(o) => {
            assert!(matches!(o.source, MatrixSource::Inline { ref payload, .. } if payload == "a"))
        }
        other => panic!("expected ORDER, got {other:?}"),
    }
    // BATCH lines re-encode to the bytes they decoded from.
    let line = r#"{"cmd":"BATCH","requests":[{"cmd":"ORDER","alg":"rcm","format":"mtx","payload":"a\nb\"c\u0001"},{"cmd":"ORDER","alg":"spectral","path":"/m.mtx","id":3}]}"#;
    assert_eq!(encode_request(&decode_request(line).unwrap()), line);
}
