//! A minimal JSON document model with a writer and a parser.
//!
//! The workspace's serde shim provides neither a serializer nor a
//! deserializer, so machine-readable output (the service metrics
//! snapshot) and input (`paresy serve` JSONL requests) are handled by
//! this hand-rolled module instead, shared so the service, the network
//! front-end and the CLI all speak the same dialect.
//!
//! Numbers are stored *preformatted* (as their textual form): the writers
//! in this workspace care about exact precision (`{:.2}` speedups, `{:.4}`
//! wall-clock seconds), and keeping the text verbatim also makes
//! parse → edit → render round trips lossless for untouched values.

use std::fmt;

/// A JSON value.
///
/// # Example
///
/// ```
/// use rei_service::json::Json;
///
/// let doc = Json::object([
///     ("name", Json::str("paresy")),
///     ("solved", Json::uint(25)),
///     ("rate", Json::fixed(0.96, 2)),
/// ]);
/// let text = doc.to_pretty();
/// let back = Json::parse(&text).unwrap();
/// assert_eq!(back.get("solved").and_then(Json::as_u64), Some(25));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept in its textual form (always a valid JSON number).
    Number(String),
    /// A string (unescaped).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; key order is preserved (and meaningful for rendering).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// An unsigned integer.
    pub fn uint(value: u64) -> Json {
        Json::Number(value.to_string())
    }

    /// A float rendered with exactly `decimals` fractional digits.
    /// Non-finite values become `null` (JSON has no NaN/Infinity).
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Number(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` pairs, preserving their order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in an object (appending new keys at the
    /// end). Returns `false` (and does nothing) on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> bool {
        match self {
            Json::Object(pairs) => {
                match pairs.iter_mut().find(|(k, _)| k == key) {
                    Some((_, slot)) => *slot = value,
                    None => pairs.push((key.to_string(), value)),
                }
                true
            }
            _ => false,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the document compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document pretty-printed with two-space indentation and
    /// a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Array(values) => {
                write_seq(out, indent, depth, '[', ']', values.len(), |out, i| {
                    values[i].write(out, indent, depth + 1);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (key, value) = &pairs[i];
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str(if indent.is_some() { "\": " } else { "\":" });
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Escapes a string for inclusion in a JSON document (content only, no
/// surrounding quotes).
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
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
    out
}

/// An error produced while parsing a JSON document: a message and the
/// byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected (guards the recursive-descent
/// parser against stack exhaustion on adversarial input).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json {
    /// Parses a complete JSON document. Trailing whitespace is allowed,
    /// trailing content is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax error and its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after document"));
        }
        Ok(value)
    }
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(values));
        }
        loop {
            values.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = std::str::from_utf8(&self.bytes[self.pos..])
            .map_err(|_| self.error("invalid UTF-8"))?
            .char_indices();
        loop {
            let Some((offset, c)) = chars.next() else {
                return Err(self.error("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += offset + 1;
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, escape)) = chars.next() else {
                        return Err(self.error("unterminated escape"));
                    };
                    match escape {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let high = hex4(&mut chars).ok_or_else(|| {
                                self.error("malformed \\u escape (expected 4 hex digits)")
                            })?;
                            let code = if (0xD800..0xDC00).contains(&high) {
                                // A UTF-16 surrogate pair split over two
                                // \uXXXX escapes.
                                if chars.next().map(|(_, c)| c) != Some('\\')
                                    || chars.next().map(|(_, c)| c) != Some('u')
                                {
                                    return Err(self.error("unpaired UTF-16 surrogate"));
                                }
                                let low = hex4(&mut chars)
                                    .filter(|low| (0xDC00..0xE000).contains(low))
                                    .ok_or_else(|| self.error("unpaired UTF-16 surrogate"))?;
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                high
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("unknown escape '\\{other}'")));
                        }
                    }
                }
                c if (c as u32) < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("malformed number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("malformed number (empty exponent)"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        Ok(Json::Number(raw.to_string()))
    }
}

fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        let (_, c) = chars.next()?;
        code = code * 16 + c.to_digit(16)?;
    }
    Some(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_render_compact_and_pretty() {
        let doc = Json::object([
            ("name", Json::str("a\"b")),
            ("n", Json::uint(3)),
            ("rate", Json::fixed(0.5, 2)),
            ("tags", Json::array([Json::str("x"), Json::Null])),
            ("empty", Json::object::<String>([])),
        ]);
        assert_eq!(
            doc.to_compact(),
            r#"{"name":"a\"b","n":3,"rate":0.50,"tags":["x",null],"empty":{}}"#
        );
        let pretty = doc.to_pretty();
        assert!(pretty.ends_with("}\n"));
        assert!(pretty.contains("  \"n\": 3,\n"), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 2), Json::Null);
        assert_eq!(Json::fixed(1.25, 1), Json::Number("1.2".into()));
    }

    #[test]
    fn get_and_set_edit_objects_in_place() {
        let mut doc = Json::object([("a", Json::uint(1))]);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert!(doc.get("b").is_none());
        assert!(doc.set("a", Json::uint(2)));
        assert!(doc.set("b", Json::str("new")));
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("new"));
        assert!(!Json::Null.set("a", Json::Null));
    }

    #[test]
    fn parses_the_usual_shapes() {
        let doc = Json::parse(
            r#" { "s": "hi\n\u0041", "i": -42, "f": 3.25e2,
                 "b": [true, false, null], "o": {"k": []} } "#,
        )
        .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi\nA"));
        assert_eq!(doc.get("i").and_then(Json::as_f64), Some(-42.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(325.0));
        assert_eq!(
            doc.get("b").and_then(Json::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("b").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(doc.get("o").unwrap().get("k").is_some());
    }

    #[test]
    fn surrogate_pairs_and_escapes_round_trip() {
        let text = "quote\" slash\\ nl\n tab\t emoji\u{1F600} ctl\u{1}";
        let doc = Json::Str(text.to_string());
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
        // An explicit surrogate pair parses to the astral character.
        let parsed = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01e",
            "1.",
            "nul",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "{} trailing",
            "\"ctl\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn numbers_keep_their_textual_form() {
        let doc = Json::parse("[1.50, 2e3]").unwrap();
        assert_eq!(doc.to_compact(), "[1.50,2e3]");
        assert_eq!(doc.as_array().unwrap()[1].as_f64(), Some(2000.0));
        assert_eq!(doc.as_array().unwrap()[0].as_u64(), None);
    }

    #[test]
    fn escape_handles_control_and_quote_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
