//! The workspace's one JSON codec: a [`Value`] tree whose objects keep
//! insertion order, a strict [`parse`] capped at [`MAX_DEPTH`] nested
//! containers, and the two writers every encoder shares, [`write_str`]
//! (quoted and escaped) and [`write_f64`] (shortest round-trip).
//!
//! The daemon's wire protocol decodes and encodes through it and
//! `bench_check` reads baselines with it. The file uses nothing but
//! `std`, so `reap-lint` compiles this same source as a `#[path]`
//! module and stays dependency-free.
//!
//! [`parse`] accepts one JSON value surrounded by optional whitespace
//! (space, tab, CR, LF): strings with the standard escapes and paired
//! `\u` surrogates but no raw control characters, and finite numbers in
//! RFC 8259's grammar (no leading zero, digits after `.` and `e`).
//! Anything else is an [`Error`] carrying the byte offset; the parser
//! never panics (every read goes through `get`). It recurses once per
//! container, so the depth cap is what keeps a line of brackets inside
//! the daemon's 16 KiB frame limit from overflowing a connection
//! thread's stack.
//!
//! A written `f64` uses Rust's shortest round-trip `Display`, so it
//! parses back to the same bits.

use std::fmt::{self, Write as _};

/// The deepest container nesting [`parse`] accepts (`[]` is depth 1).
/// The deepest document the workspace reads, a bench baseline, nests 5
/// containers; a wire frame nests 3.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order. Duplicate keys are kept;
    /// [`Value::get`] returns the first.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The first member named `key`, if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) on one line. A non-finite
    /// number writes `null`.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_str(out, s),
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
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string. `"`, `\` and control
/// characters are escaped; everything else, non-ASCII included, is
/// copied verbatim. The output never contains a raw newline.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` in shortest round-trip form (`0.18`, `3600`,
/// `-0`), or `null` when it is not finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Why [`parse`] rejected a document, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// What was wrong, e.g. `expected ',' or ']'`.
    pub what: &'static str,
    /// Byte offset into the input at which parsing stopped.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parses exactly one JSON document.
///
/// # Errors
///
/// [`Error`] on malformed input, trailing bytes after the value,
/// nesting deeper than [`MAX_DEPTH`], or a number that is not finite.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos == text.len() {
        Ok(v)
    } else {
        Err(p.err("trailing bytes after JSON value"))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> Error {
        Error {
            what,
            offset: self.pos,
        }
    }

    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits and returns it (empty if none).
    fn digits(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.text.get(start..self.pos).unwrap_or_default()
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", "expected 'true'", Value::Bool(true)),
            Some(b'f') => self.literal("false", "expected 'false'", Value::Bool(false)),
            Some(b'n') => self.literal("null", "expected 'null'", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, what: &'static str, v: Value) -> Result<Value, Error> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(what))
        }
    }

    /// Steps over an opening bracket, one level deeper.
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("containers nested too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.open()?;
        let mut members = Vec::new();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return Err(self.err("expected ':'"));
                }
                members.push((key, self.value()?));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Obj(members))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.open()?;
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Arr(items))
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte at once. Those stop bytes are ASCII, so the run ends
            // on a char boundary.
            let rest = self.rest();
            let Some(run) = rest
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1F))
            else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            let chunk = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(chunk);
            self.pos += run + 1;
            match rest.get(run) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(esc) = self.peek() else {
            return Err(self.err("dangling escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must be followed by \uDC00..DFFF.
                    if !self.rest().starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let cp = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        // RFC 8259: `int` is `0` or digits without a leading zero, and
        // `frac` and `exp` take one digit or more each. `f64::from_str`
        // alone would accept `01`, `1.` and `.5`.
        let int = self.digits();
        let mut valid = int.len() == 1 || (!int.is_empty() && !int.starts_with('0'));
        if self.eat(b'.') {
            valid &= !self.digits().is_empty();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= !self.digits().is_empty();
        }
        if !valid {
            return Err(self.err("invalid number"));
        }
        let v: f64 = self
            .text
            .get(start..self.pos)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.err("invalid number"))?;
        if v.is_finite() {
            Ok(Value::Num(v))
        } else {
            Err(self.err("number out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let v = Value::obj(vec![
            ("a", Value::Num(1.5)),
            ("b", Value::Str("x \"quoted\" \n end".into())),
            ("c", Value::Arr(vec![Value::Null, Value::Bool(true)])),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Value::Num(42.0).encode(), "42");
        assert_eq!(Value::Num(0.25).encode(), "0.25");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        for bad in ["[01]", "[-01]", "[00.5]", "[1.]", "[-.5]", "[1.e3]"] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }
}
