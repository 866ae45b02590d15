//! The workspace's one JSON codec: a [`Value`] tree whose objects keep
//! insertion order, a strict [`parse`] capped at [`MAX_DEPTH`] nested
//! containers, and the two writers every encoder shares, [`write_str`]
//! (quoted and escaped) and [`write_f64`] (shortest round-trip).
//!
//! The daemon's wire protocol decodes and encodes through it, the bench
//! bins write their `BENCH_*.json` baselines with [`Value::encode_pretty`]
//! and `bench_check` reads them back with [`parse`]. The file uses nothing but
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

    /// Serializes as a document for people and diffs, ending in a
    /// newline. The top-level container puts each member on its own
    /// line; below it, a container whose members are all scalars prints
    /// on one line (`{"k": 1, "j": "x"}`) and any other container one
    /// member per line. Each level indents two spaces, and an empty
    /// container prints as `[]` or `{}`. Leaves are written as by
    /// [`Value::encode`], so a non-finite number writes `null`.
    #[must_use]
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            scalar => return scalar.write(out),
        };
        let multiline = members
            .iter()
            .any(|(_, v)| depth == 0 || matches!(v, Value::Arr(_) | Value::Obj(_)));
        out.push(open);
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write_pretty(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        }
        out.push(close);
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
    fn pretty_puts_each_top_level_member_on_its_own_line() {
        let flat = Value::obj(vec![("a", Value::Num(1.0)), ("b", Value::Bool(false))]);
        assert_eq!(flat.encode_pretty(), "{\n  \"a\": 1,\n  \"b\": false\n}\n");
        let list = Value::Arr(vec![Value::Num(0.5), Value::Null]);
        assert_eq!(list.encode_pretty(), "[\n  0.5,\n  null\n]\n");
        assert_eq!(Value::Num(3.0).encode_pretty(), "3\n");
    }

    #[test]
    fn pretty_inlines_scalar_containers_and_indents_nested_ones() {
        let doc = Value::obj(vec![
            ("schema", Value::Str("s-v1".into())),
            (
                "sources",
                Value::Arr(vec![Value::obj(vec![
                    ("source", Value::Str("kinetic".into())),
                    (
                        "runs",
                        Value::Arr(vec![
                            Value::obj(vec![
                                ("p", Value::Str("DP1".into())),
                                ("x", Value::Num(0.25)),
                            ]),
                            Value::obj(vec![
                                ("p", Value::Str("DP2".into())),
                                ("x", Value::Num(2.0)),
                            ]),
                        ]),
                    ),
                ])]),
            ),
            (
                "p",
                Value::obj(vec![("p5", Value::Num(0.1)), ("p50", Value::Num(0.5))]),
            ),
            ("xs", Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)])),
        ]);
        let want = r#"{
  "schema": "s-v1",
  "sources": [
    {
      "source": "kinetic",
      "runs": [
        {"p": "DP1", "x": 0.25},
        {"p": "DP2", "x": 2}
      ]
    }
  ],
  "p": {"p5": 0.1, "p50": 0.5},
  "xs": [1, 2]
}
"#;
        assert_eq!(doc.encode_pretty(), want);
        assert_eq!(parse(want).unwrap(), doc);
    }

    #[test]
    fn pretty_escapes_strings_and_writes_null_for_non_finite_numbers() {
        let doc = Value::obj(vec![
            ("say \"hi\"", Value::Str("a\\b\nc\u{1}".into())),
            (
                "bad",
                Value::Arr(vec![
                    Value::Num(f64::NAN),
                    Value::Num(f64::INFINITY),
                    Value::Num(f64::NEG_INFINITY),
                ]),
            ),
        ]);
        assert_eq!(
            doc.encode_pretty(),
            "{\n  \"say \\\"hi\\\"\": \"a\\\\b\\nc\\u0001\",\n  \"bad\": [null, null, null]\n}\n"
        );
    }

    #[test]
    fn pretty_prints_empty_containers_inline() {
        assert_eq!(Value::Obj(Vec::new()).encode_pretty(), "{}\n");
        assert_eq!(Value::Arr(Vec::new()).encode_pretty(), "[]\n");
        let doc = Value::obj(vec![
            ("a", Value::Arr(Vec::new())),
            ("o", Value::Obj(Vec::new())),
            ("n", Value::Arr(vec![Value::Arr(Vec::new())])),
        ]);
        assert_eq!(
            doc.encode_pretty(),
            "{\n  \"a\": [],\n  \"o\": {},\n  \"n\": [\n    []\n  ]\n}\n"
        );
    }

    #[test]
    fn pretty_parses_back_to_the_same_value() {
        let docs = [
            Value::Null,
            Value::Str("only \u{7f} \u{e9} \u{1f600}".into()),
            Value::obj(vec![
                ("a", Value::Num(-0.0)),
                ("b", Value::Num(1e-300)),
                ("c", Value::Num(123_456_789.125)),
                (
                    "d",
                    Value::Arr(vec![
                        Value::obj(vec![("x", Value::Arr(vec![Value::Bool(true)]))]),
                        Value::Obj(Vec::new()),
                        Value::Str("\t".into()),
                    ]),
                ),
                ("a", Value::Num(2.0)),
            ]),
        ];
        for doc in docs {
            let text = doc.encode_pretty();
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
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
