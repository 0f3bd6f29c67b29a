//! Dependency-free JSON machinery shared by every telemetry format in the
//! workspace: string escaping (used by the trace exporter and the metrics
//! writer) and a small strict recursive-descent parser (no trailing commas,
//! no comments, no NaN/Infinity) used to validate and read back emitted
//! artifacts. The container has no serde; this is the single JSON layer
//! everything above (the Chrome trace writer, `sim-perf`, the ledger) builds on.

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number. Rust's `Display` for finite floats is
/// shortest-round-trip, and a bare integer form ("3") is still a valid JSON
/// number, so no fixup is needed beyond rejecting non-finite values.
pub fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
    format!("{v}")
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("non-UTF8 number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.fail(&format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.fail(&format!("non-finite number {text:?}")));
        }
        Ok(JsonValue::Number(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.fail("non-UTF8 \\u escape"))?;
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
                Some(b) if b < 0x20 => return Err(self.fail("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.fail("non-UTF8 string"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.fail("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
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
        self.expect(b'{')?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing garbage after document"));
    }
    Ok(v)
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
