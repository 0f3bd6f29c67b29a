//! Dependency-free JSON machinery shared by every telemetry format in the
//! workspace: string escaping (used by the trace exporter and the metrics
//! writer) and a small strict recursive-descent parser (no trailing commas,
//! no comments, no NaN/Infinity) used to validate and read back emitted
//! artifacts. The container has no serde; this is the single JSON layer
//! everything above (the Chrome trace writer, `sim-perf`, the ledger) builds on.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Append `s` to `out`, escaped for embedding in a JSON string literal.
/// The plain runs between bytes that need escaping are copied whole.
pub fn push_json_string(out: &mut String, mut s: &str) {
    while let Some(i) = s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Append an `f64` to `out` as a JSON number. Rust's `Display` for finite
/// floats is shortest-round-trip, and a bare integer form ("3") is still a
/// valid JSON number, so no fixup is needed beyond rejecting non-finite
/// values. A nonzero integer below 2^53 prints the same digits as the `i64`
/// it equals, and integer formatting writes them faster.
pub fn push_json_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
    if v != 0.0 && v.fract() == 0.0 && v.abs() < EXACT_INT {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// 2^53: every integer of smaller magnitude is an exact `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Format an `f64` as a JSON number (see [`push_json_f64`]).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, v);
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    /// Key-value pairs in source order (duplicates rejected at parse time).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The string itself, moved out of the value.
    pub fn into_string(self) -> Option<String> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The documents the
/// workspace writes (ledgers, metrics, cache entries, BENCH files, traces)
/// nest fewer than ten levels; the limit keeps the recursive descent's stack
/// bounded on hostile input instead of overflowing it.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn fail(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.fail(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.fail(&format!("unexpected {:?}", other as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {lit:?}")))
        }
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// An RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.fail("expected digits")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.fail("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.fail("expected exponent digits"));
            }
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| self.fail(&format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.fail(&format!("non-finite number {text:?}")));
        }
        Ok(JsonValue::Number(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.string_ref().map(Cow::into_owned)
    }

    /// A string literal in one linear pass: each run of plain bytes up to
    /// the next `"`, `\\` or control byte is copied with one `push_str`.
    /// Both ends of a run are ASCII bytes (or the end of the input), so the
    /// run is whole UTF-8 scalars of the `&str` being parsed. A literal
    /// without escapes is borrowed from the input, not copied.
    fn string_ref(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - run);
            let plain = &self.text[run..self.pos];
            match self.peek() {
                Some(b'"') if out.is_empty() => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(plain));
                }
                Some(b'"') => {
                    self.pos += 1;
                    out.push_str(plain);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(plain);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.fail("bad \\u escape"));
                            }
                            // Four ASCII hex digits: a char-boundary slice.
                            let hex = &self.text[self.pos + 1..self.pos + 5];
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.fail("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.fail("raw control char in string")),
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut pairs = Vec::new();
        self.fields(&mut pairs)?;
        Ok(JsonValue::Object(pairs))
    }

    /// An object's fields, in source order, into `sink`. Duplicate keys are
    /// rejected as soon as the second one is read.
    fn fields(&mut self, sink: &mut impl ObjectSink<'a>) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string_ref()?;
            let slot = sink
                .slot(key)
                .map_err(|key| self.fail(&format!("duplicate key {key:?}")))?;
            self.skip_ws();
            self.expect(b':')?;
            *slot = self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    /// Fail unless only whitespace is left.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.fail("trailing garbage after document"));
        }
        Ok(())
    }
}

/// Where [`parse_json_fields`] puts an object's fields. Keys are borrowed
/// from the input unless they hold escapes.
pub(crate) trait ObjectSink<'a> {
    /// The place for the value of `key`, or `key` back if it came already.
    fn slot(&mut self, key: Cow<'a, str>) -> Result<&mut JsonValue, Cow<'a, str>>;
}

impl<'a> ObjectSink<'a> for Vec<(String, JsonValue)> {
    fn slot(&mut self, key: Cow<'a, str>) -> Result<&mut JsonValue, Cow<'a, str>> {
        if self.iter().any(|(k, _)| *k == key) {
            return Err(key);
        }
        let at = self.len();
        self.push((key.into_owned(), JsonValue::Null));
        Ok(&mut self[at].1)
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// Parse a complete JSON document like [`parse_json`], accepting and
/// rejecting exactly the same texts, but hand the fields of a top-level
/// object to `sink` instead of building key strings and a field list. Any
/// other document is parsed and dropped, leaving `sink` empty.
pub(crate) fn parse_json_fields<'a>(
    text: &'a str,
    sink: &mut impl ObjectSink<'a>,
) -> Result<(), String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.depth = 1;
        p.fields(sink)?;
    } else {
        p.value()?;
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_json_string(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json_string("a\\b"), r"a\\b");
        assert_eq!(escape_json_string("line\nbreak"), r"line\nbreak");
        assert_eq!(escape_json_string("\u{1}"), "\\u0001");
        assert_eq!(escape_json_string("plain"), "plain");
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let doc =
            parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n", "d": true}}"#).expect("parses");
        assert_eq!(
            doc.get("a")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\n")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("{\"a\":1,\"a\":2}").is_err(), "duplicate keys");
        assert!(parse_json("NaN").is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for ok in ["0", "-0", "12", "1.5", "-3e2", "2E+3", "4e-07", "0.000"] {
            assert!(parse_json(ok).is_ok(), "{ok:?}");
        }
        for bad in [
            "01", "+1", "1.", ".5", "-", "1e", "1e+", "--1", "1.e5", "0x10",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
        assert!(
            parse_json(r#""\u+041""#).is_err(),
            "\\u needs four hex digits"
        );
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let original = "tab\tquote\"backslash\\ctrl\u{1}\nend";
        let doc = format!("{{\"k\": \"{}\"}}", escape_json_string(original));
        let parsed = parse_json(&doc).expect("escaped string parses");
        assert_eq!(parsed.get("k").and_then(JsonValue::as_str), Some(original));
    }

    /// One string of several MiB parses in one linear pass. A scan that
    /// re-validated the rest of the document per character would take
    /// hours here.
    #[test]
    fn multi_mib_string_round_trips() {
        let original = format!("{}π\"🧪", "a".repeat(6 << 20));
        let doc = format!("\"{}\"", escape_json_string(&original));
        let parsed = parse_json(&doc).expect("long string parses");
        assert_eq!(parsed.as_str(), Some(original.as_str()));
    }

    #[test]
    fn raw_control_byte_after_a_long_run_reports_its_offset() {
        let plain = 100_000;
        let doc = format!("\"{}\u{1}\"", "a".repeat(plain));
        let err = parse_json(&doc).expect_err("raw control byte");
        let offset = 1 + plain;
        assert_eq!(
            err,
            format!("JSON parse error at byte {offset}: raw control char in string")
        );
    }

    #[test]
    fn unicode_escape_after_a_multi_byte_scalar_decodes() {
        let parsed = parse_json(r#"["🧪\u00e9π\u0041", "π\u03c0"]"#).expect("parses");
        let items = parsed.as_array().expect("array");
        assert_eq!(items[0].as_str(), Some("🧪éπA"));
        assert_eq!(items[1].as_str(), Some("ππ"));
    }

    /// `depth` nested arrays (or objects) around a scalar.
    fn nested_doc(depth: usize, open: &str, close: &str) -> String {
        format!("{}1{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = nested_doc(MAX_DEPTH, "[", "]");
        assert!(parse_json(&ok).is_ok(), "the limit itself parses");
        let deep = nested_doc(MAX_DEPTH + 1, "[", "]");
        assert!(parse_json(&deep).is_err());
        assert!(parse_json(&nested_doc(10_000, "[", "]")).is_err());
        assert!(parse_json(&nested_doc(10_000, "{\"k\":", "}")).is_err());
    }

    /// Without the limit, one line of 50,000 `[` overflows the stack and
    /// aborts the process. A 2 MiB stack is the default for spawned threads.
    #[test]
    fn hostile_nesting_is_an_error_on_a_small_stack() {
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                [
                    parse_json(&"[".repeat(50_000)).is_err(),
                    parse_json(&nested_doc(50_000, "[", "]")).is_err(),
                    parse_json(&nested_doc(50_000, "{\"k\":", "}")).is_err(),
                ]
            })
            .expect("spawn parser thread")
            .join()
            .expect("parser thread did not overflow");
        assert_eq!(outcome, [true; 3]);
    }

    #[test]
    fn numbers_print_as_display_at_the_edges() {
        let max = EXACT_INT - 1.0;
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            3.0,
            21296.0,
            max,
            -max,
            EXACT_INT,
            -EXACT_INT,
            1e300,
            -1e300,
            1e-300,
            5e-324,
            f64::MAX,
            f64::MIN,
        ] {
            assert_eq!(json_f64(v), format!("{v}"), "{v:e}");
        }
    }

    proptest! {
        /// Escaped output never contains raw control characters or unescaped
        /// quotes/backslashes in positions that would break a JSON literal.
        #[test]
        fn output_is_literal_safe(s in ".*") {
            let e = escape_json_string(&s);
            let mut chars = e.chars().peekable();
            while let Some(c) = chars.next() {
                prop_assert!((c as u32) >= 0x20, "raw control char survived");
                if c == '\\' {
                    let next = chars.next();
                    prop_assert!(next.is_some(), "dangling escape");
                } else {
                    prop_assert!(c != '"', "unescaped quote");
                }
            }
        }

        /// The integer shortcut prints exactly what `Display` prints.
        #[test]
        fn integers_print_as_display(
            wide in 0u64..(1 << 54),
            small in 0u64..100_000,
            bits in 0u64..u64::MAX,
        ) {
            for v in [wide as f64 - EXACT_INT, small as f64, -(small as f64)] {
                prop_assert_eq!(json_f64(v), format!("{v}"));
            }
            let f = f64::from_bits(bits);
            if f.is_finite() {
                prop_assert_eq!(json_f64(f), format!("{f}"));
            }
        }

        /// Any string survives escape → embed → parse bit for bit.
        #[test]
        fn escape_parse_round_trip(s in ".*") {
            let doc = format!("[\"{}\"]", escape_json_string(&s));
            let parsed = parse_json(&doc).expect("escaped string must parse");
            let back = parsed.as_array().and_then(|a| a[0].as_str()).map(str::to_string);
            prop_assert_eq!(back, Some(s));
        }
    }
}
