//! The workspace's one JSON tree, parser and writer.
//!
//! The build environment is fully offline (no serde), so every JSON
//! surface goes through this module: the on-disk trace format
//! (`eo_model::Trace::{to_json, from_json}`), `--config` files, `eo lint`
//! and `eo mhp` reports, serve protocol frames, metrics and trace
//! emitters, and the committed bench baselines. Numbers are `f64`;
//! decoders that need ids or counters check integrality and range at the
//! decode site. Objects preserve insertion order, and the writer emits a
//! number as an integer whenever it is one exactly, so integer fields
//! round-trip textually.
//!
//! The parser is linear in the input and nests at most [`MAX_DEPTH`]
//! arrays/objects deep, so hostile input (a network frame, a trace file)
//! gets a positioned [`ParseError`], never a stall or a stack overflow.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level; the bound keeps a document of `[[[[…` from overflowing
/// the stack. Real documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Integers with magnitude below this are exact in `f64` (2^53).
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; integers are exact below 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number with no fractional part
    /// and magnitude below 2^53 (so no rounding happened while parsing).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT => Some(*n as i64),
            _ => None,
        }
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The JSON type name (`"null"`, `"bool"`, `"number"`, `"string"`,
    /// `"array"`, `"object"`), for decoders' "expected X, got Y" errors.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Serializes the value to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes the value with two-space indentation, `"key": value`
    /// members and `[]`/`{}` for empty containers (serde_json's pretty
    /// format, which the on-disk trace format was first written in).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `indent` is the current nesting level when
    /// pretty-printing, `None` for compact output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                write_seq(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Value::Obj(fields) => write_seq(
                out,
                indent,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (`key` always `None`) or object body between `brackets`.
fn write_seq<'v>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'v str>, &'v Value)>,
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    };
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, indent.map(|level| level + 1));
    }
    if let (Some(level), false) = (indent, empty) {
        newline(out, level);
    }
    out.push(brackets[1]);
}

/// Writes a number, preferring exact integer form.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; degrade to null rather than emit invalid text.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

/// Writes a JSON string literal with escaping.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Short description of what was expected.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document; trailing whitespace is allowed.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn rest(&self) -> &[u8] {
        &self.input.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.rest().starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parses one value; `depth` counts the arrays/objects around it.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash in one slice. Both are ASCII, so the run ends on a
            // char boundary and the input, a `&str`, needs no re-check.
            let run = self
                .rest()
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.rest().len());
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape sequence after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                if !(0xD800..0xDC00).contains(&cp) {
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"));
                }
                // High surrogate: require a \uXXXX low surrogate.
                if !self.rest().starts_with(b"\\u") {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            cp = (cp << 4) | d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        // Every byte scanned is ASCII, so the slice is on char boundaries.
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError {
                offset: start,
                message: "invalid number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_the_serde_layout() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("x\"y".into())),
            (
                "ids".into(),
                Value::Arr(vec![Value::Num(0.0), Value::Num(1.0)]),
            ),
            ("empty".into(), Value::Arr(vec![])),
            ("none".into(), Value::Obj(vec![])),
            ("flag".into(), Value::Null),
        ]);
        let text = v.pretty();
        assert_eq!(
            text,
            "{\n  \"name\": \"x\\\"y\",\n  \"ids\": [\n    0,\n    1\n  ],\n  \
             \"empty\": [],\n  \"none\": {},\n  \"flag\": null\n}"
        );
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "nesting too deep");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1.4 MB of mixed-width text with escapes sprinkled in; a per-char
        // rescan of the remaining input would take minutes here.
        let chunk = "abcé😀\\n".repeat(1 << 17);
        let doc = format!("[\"{chunk}\"]");
        let v = parse(&doc).unwrap();
        let s = v.as_array().unwrap()[0].as_str().unwrap();
        assert_eq!(s, "abcé😀\n".repeat(1 << 17));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }
}
