//! A minimal JSON value with a canonical renderer and a strict parser.
//!
//! The workspace builds fully offline (no serde); this is just enough JSON
//! to export metrics and to load them back (`obs-diff` reads run-ledger
//! bundles and bench files through [`Json::parse`]). Object keys keep
//! insertion order, so output is stable and render→parse→render is the
//! identity on this module's own output.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all metrics counters are `u64`).
    Int(u64),
    /// A finite float, rendered with three decimals (milliseconds).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render to a compact JSON string (single spaces after `:` and `,`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:.3}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(src: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (`Int`, or an integral `Float`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a float (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The value as an object's `(key, value)` slice, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset and 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// 1-based line number of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent, so the limit turns hostile input (thousands of `[`)
/// into a typed error instead of a stack overflow; every document this
/// workspace writes nests fewer than ten levels.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        let line = 1 + self
            .bytes
            .iter()
            .take(self.pos)
            .filter(|b| **b == b'\n')
            .count();
        JsonParseError {
            offset: self.pos,
            line,
            message: message.to_string(),
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

    fn eat(&mut self, lit: &str) -> bool {
        let rest = self.bytes.get(self.pos..);
        if rest.is_some_and(|r| r.starts_with(lit.as_bytes())) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal (expected null)"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("invalid literal (expected true)"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal (expected false)"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = match cp {
                                0xD800..=0xDBFF => {
                                    // A high surrogate must pair with \uDC00..DFFF.
                                    if !self.eat("\\u") {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                }
                                0xDC00..=0xDFFF => None,
                                _ => char::from_u32(cp),
                            };
                            match ch {
                                Some(ch) => out.push(ch),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                _ if c < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control byte at once. Those are ASCII, so
                    // the run starts and ends on char boundaries.
                    let start = self.pos - 1;
                    let rest = self.bytes.get(start..).unwrap_or_default();
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(self.src.get(start..start + len).unwrap_or_default());
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated unicode escape"));
            };
            let d = match c {
                b'0'..=b'9' => (c - b'0') as u32,
                b'a'..=b'f' => (c - b'a') as u32 + 10,
                b'A'..=b'F' => (c - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !negative && !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => Err(self.err("invalid number")),
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(42).render(), "42");
        assert_eq!(Json::Float(1.5).render(), "1.500");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Str("hi".into()).render(), "\"hi\"");
    }

    #[test]
    fn renders_composites() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("b".into(), Json::Null),
        ]);
        assert_eq!(v.render(), "{\"a\": [1, 2], \"b\": null}");
    }

    #[test]
    fn escapes_strings() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(Json::parse("1.500").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("é😀".into())
        );
    }

    #[test]
    fn parse_render_round_trips() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Float(2.5)])),
            ("b".into(), Json::Str("x\"y\\z".into())),
            ("c".into(), Json::Obj(vec![("n".into(), Json::Null)])),
            ("d".into(), Json::Bool(false)),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        assert_eq!(back, doc);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "1..2",
            "\"x",
            "tru",
            "[1] extra",
            "{'a': 1}",
            "\"\\q\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn parse_errors_pinpoint_offset_and_line() {
        // Truncated input: the failure sits at end-of-input, on the line
        // the document broke off.
        let err = Json::parse("{\n  \"a\": [1,\n    2").unwrap_err();
        assert_eq!((err.offset, err.line), (18, 3));
        assert!(err.message.contains("',' or ']'"), "{}", err.message);

        // Mis-nested close: the stray '}' inside an array names its own
        // byte, not the start of the container.
        let err = Json::parse("[1, 2}").unwrap_err();
        assert_eq!((err.offset, err.line), (5, 1));
        assert!(err.message.contains("',' or ']'"), "{}", err.message);

        // Bad string escape past a newline: offset lands just after the
        // offending escape character and the line count follows it.
        let err = Json::parse("[\"ok\",\n\"a\\qb\"]").unwrap_err();
        assert_eq!((err.offset, err.line), (11, 2));
        assert!(err.message.contains("escape"), "{}", err.message);

        // A string that never closes reports end-of-input.
        let err = Json::parse("\"abc").unwrap_err();
        assert_eq!((err.offset, err.line), (4, 1));
        assert!(err.message.contains("unterminated"), "{}", err.message);

        // Display couples the line number with the cause for CI logs.
        let err = Json::parse("[\n\n  nope\n]").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.to_string(), format!("line 3: {}", err.message));
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\": ".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());

        // One level past the limit fails at the offending bracket.
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.offset, err.line), (MAX_DEPTH, 1));
        assert!(err.message.contains("nesting"), "{}", err.message);

        // Far past it — once a stack overflow — still a plain error, with
        // the line of the first too-deep bracket.
        let err = Json::parse(&("\n".to_string() + &"[".repeat(200_000))).unwrap_err();
        assert_eq!((err.offset, err.line), (MAX_DEPTH + 1, 2));
        let err = Json::parse(&"{\"a\": ".repeat(200_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
    }

    #[test]
    fn accessors_navigate_values() {
        let doc =
            Json::parse("{\"n\": 7, \"s\": \"x\", \"a\": [1], \"f\": 2.0, \"b\": true}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("f").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.as_obj().map(<[(String, Json)]>::len), Some(5));
        assert!(doc.get("missing").is_none());
        assert!(Json::Int(1).get("x").is_none());
    }
}
