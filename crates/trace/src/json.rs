//! Minimal, hand-rolled JSON value type, writer, and parser (std-only).
//!
//! This mirrors the workspace's "no external dependencies" policy: trace
//! files and run reports must be machine-readable without pulling in
//! `serde`. The module lives in `snbc-trace` (the bottom-most observability
//! crate) and is re-exported by `snbc-telemetry` for the run-report schema.
//! The subset implemented is exactly what those two schemas need:
//!
//! - Objects preserve **insertion order** (they are vectors of pairs), so a
//!   serialized report is stable across runs and diff-friendly in
//!   `bench-out/`.
//! - Numbers are written with Rust's shortest round-trip `f64` formatting;
//!   integer-valued fields (counters) are kept exact in a dedicated
//!   [`Value::Int`] variant covering the full `u64` range.
//! - Non-finite floats (`NaN`, `±inf` — e.g. a margin gauge after solver
//!   breakdown) have no JSON representation and are written as `null`.
//! - Strings support the standard escapes plus `\uXXXX` (parsed, and
//!   emitted for control characters).

use std::fmt;

/// A JSON value. Objects are ordered `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integer (counters, indices); kept exact over `u64`.
    Int(u64),
    /// Any other number; non-finite values serialize as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::Num(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline-free body.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out
    }

    /// Serializes without whitespace.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        _ => write_compact(v, out),
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            out.push_str(&n.to_string());
        }
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// JSON has no NaN/inf: non-finite values degrade to `null` (documented in
/// docs/TELEMETRY.md — readers treat a null gauge as "solver broke down").
fn write_number(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's `Display` for f64 is the shortest representation that
        // round-trips, and its grammar (`-?d+(.d+)?(e-?d+)?`) is valid JSON.
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // `char as u32` is the codepoint and cannot lose information.
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset and a short message;
/// arrays and objects nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
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

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            // The slice between escapes is valid UTF-8 (input is &str).
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(
                |_| self.err("invalid UTF-8 in string"),
            )?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not needed for report
                            // content; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Obj(vec![
            ("schema".to_string(), Value::Str("snbc-run-report/1".to_string())),
            ("ok".to_string(), Value::Bool(true)),
            ("count".to_string(), Value::Int(u64::MAX)),
            ("loss".to_string(), Value::Num(3.25e-4)),
            ("nothing".to_string(), Value::Null),
            (
                "items".to_string(),
                Value::Arr(vec![Value::Int(1), Value::Num(-0.5), Value::Str("γ*".to_string())]),
            ),
            ("empty_obj".to_string(), Value::Obj(vec![])),
            ("empty_arr".to_string(), Value::Arr(vec![])),
        ]);
        for text in [v.to_pretty_string(), v.to_compact_string()] {
            assert_eq!(parse(&text).unwrap(), v, "source: {text}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e300, 5e-324, -2.5, 0.0] {
            let mut out = String::new();
            write_number(x, &mut out);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::Num(x);
            assert_eq!(v.to_compact_string(), "null");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{0001}".to_string());
        let text = v.to_compact_string();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            parse(r#""Aé""#).unwrap(),
            Value::Str("Aé".to_string())
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn integers_stay_exact() {
        let text = "9007199254740993"; // 2^53 + 1: not representable in f64
        assert_eq!(parse(text).unwrap(), Value::Int(9007199254740993));
        assert_eq!(parse("-3").unwrap(), Value::Num(-3.0));
    }
}
