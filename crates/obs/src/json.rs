//! Minimal JSON support shared across the workspace: emission helpers
//! (used by the trace sink and the metrics/profile renderers) and a small
//! RFC 8259 reader/writer (used by the server protocol and the bench
//! comparison tooling).
//!
//! This crate sits at the bottom of the workspace and must stay
//! dependency-free, so serialization is hand-rolled: numbers use the `{:e}`
//! scientific form (round-trip exact for `f64`), non-finite values become
//! `null`, and strings are escaped per RFC 8259. The parser accepts all of
//! RFC 8259 (objects, arrays, strings with escapes and surrogate pairs,
//! numbers, literals); numbers are held as `f64`, which is exact for every
//! integer the workspace's protocols carry.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write;

/// Append `v` as a JSON number (`null` when non-finite).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v:e}").unwrap();
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Append the body of a JSON string literal for `s`, without the quotes:
/// `"` and `\\` are backslash-escaped and every control character is
/// written as `\\u00XX` (so a newline becomes `\\u000a`).
pub fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not significant in the protocols, so a
    /// sorted map keeps lookups simple and `render` deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object and the key is present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render back to JSON text (integers without a fractional part,
    /// strings escaped, object keys in sorted order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => {
                if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                    write!(out, "{}", *v as i64).unwrap();
                } else {
                    push_f64(out, *v);
                }
            }
            Value::Str(s) => push_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Value::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A syntax error, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing content is an error.
///
/// # Errors
///
/// [`ParseError`] with the offending byte offset.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing content after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves `at` past the digits; undo the
                            // generic advance below.
                            self.at -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(b as char);
                    self.at += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so decode via
                    // the next char boundary.
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.at += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid number"))?;
        text.parse()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_nonfinite() {
        let mut s = String::new();
        push_f64(&mut s, 0.5);
        assert_eq!(s, "5e-1");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn strings_escape_specials() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}\t");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\\u0001\\u0009\"");
        assert_eq!(parse(&s).unwrap(), Value::Str("a\"b\\c\nd\u{1}\t".into()));
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -2.5e3 ").unwrap(), Value::Num(-2500.0));
        assert_eq!(parse("\"a b\"").unwrap(), Value::Str("a b".into()));
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#"{"check":{"model":"m1","threads":4},"ids":[1,2,3]}"#).unwrap();
        let check = v.get("check").unwrap();
        assert_eq!(check.get("model").unwrap().as_str(), Some("m1"));
        assert_eq!(check.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(
            v.get("ids").unwrap(),
            &Value::Arr(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)])
        );
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn renders_are_stable_json() {
        let v = parse(r#"{"b":1,"a":[true,null,"x"],"c":2.5}"#).unwrap();
        assert_eq!(v.render(), r#"{"a":[true,null,"x"],"b":1,"c":2.5e0}"#);
    }

    #[test]
    fn garbage_is_rejected_with_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
        let e = parse("nul").unwrap_err();
        assert!(e.to_string().contains("byte 0"), "{e}");
    }
}
