//! Dependency-free JSON: a pull reader, a streaming writer and a small
//! document tree over them.
//!
//! The build environment has no registry access, so the workspace carries
//! its own minimal JSON implementation instead of `serde`. Two layers:
//!
//! * [`Reader`] and [`Writer`] are the primitives: one pass over a
//!   `&str`, one append into a `String`, no intermediate tree and no
//!   allocation beyond strings that carry escapes. The SpeQuloS wire
//!   protocol (`spequlos::protocol`, the envelopes of `spq-server`), the
//!   write-ahead log's records and snapshots (`spequlos::snapshot`) are
//!   decoded and encoded directly on them — the service never builds a
//!   [`Value`] of what it reads.
//! * [`parse`] and [`Value`] are the general document tree, built by the
//!   same reader and written by the same writer: the bench telemetry
//!   records (`BENCH_<name>.json`, see `spq-bench::telemetry`) and tests
//!   live here.
//!
//! Both read untrusted bytes on a reactor thread, so the work done is
//! linear in the length of the text — strings are scanned in runs, never
//! re-validated — nesting is bounded by [`MAX_DEPTH`], and nothing
//! indexes a slice.
//!
//! Supported: objects (member order preserved), arrays, strings with the
//! standard escapes, numbers (kept as `f64`), booleans and null. Numbers
//! are written with [`fmt_f64`] — Rust's shortest-roundtrip float
//! formatting, with a `.0` suffix on integral values — which is what makes
//! session transcripts round-trip bit-identically (encode → decode →
//! re-encode yields the same bytes).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with member order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
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
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative number
    /// with no fractional part (integer ids and millisecond timestamps).
    /// Fractional values are rejected rather than silently truncated.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(whole)
    }

    /// Looks up a member of an object by key (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serializes the value compactly (no insignificant whitespace).
    /// Deterministic: the same value always produces the same bytes, and
    /// `parse(v.to_json())` reproduces `v` exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out).value(self);
        out
    }
}

/// The one rule for integers on the wire: non-negative, no fraction.
fn whole(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// What `str::parse::<f64>` makes of up to fifteen digits with an optional
/// `.0` — exactly that integer — without the general float parser: ids,
/// counters and timestamps are most of what is read.
fn whole_digits(run: &[u8]) -> Option<f64> {
    let digits = run.strip_suffix(b".0").unwrap_or(run);
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    digits
        .iter()
        .try_fold(0u64, |n, b| {
            b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'))
        })
        .map(|n| n as f64)
}

/// Streams one JSON document into a caller's `String` — no tree, no
/// scratch allocation. Commas are the writer's business: callers name
/// members and values in order and close what they open. Every method
/// returns the writer, so `w.key("bot").num(7.0)` reads as the member it
/// writes.
#[derive(Debug)]
pub struct Writer<'o> {
    out: &'o mut String,
    /// The next key or value is not the first of its container.
    comma: bool,
}

impl<'o> Writer<'o> {
    /// A writer appending to `out`.
    pub fn new(out: &'o mut String) -> Self {
        Writer { out, comma: false }
    }

    fn sep(&mut self) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.sep().out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object: `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object: `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array: `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array: `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Names the next member of the open object; its value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep().out.push_str("null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep().out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes a number exactly as [`fmt_f64`] spells it.
    pub fn num(&mut self, v: f64) -> &mut Self {
        push_f64(self.sep().out, v);
        self
    }

    /// Writes a string, quoted and escaped as by [`escape`].
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep().out.push('"');
        push_escaped(self.out, s);
        self.out.push('"');
        self
    }

    /// Writes a whole document tree.
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Num(n) => self.num(*n),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Obj(members) => {
                self.begin_object();
                for (k, v) in members {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }
}

/// One object as a whole document: `members` writes what goes between
/// the braces.
pub fn object(members: impl FnOnce(&mut Writer<'_>)) -> String {
    // Room for a typical message, so that writing one does not regrow
    // its buffer half a dozen times on the way to 200 bytes.
    let mut out = String::with_capacity(256);
    write_object(&mut out, members);
    out
}

/// [`object`] appended to a caller's `out` — a buffer kept across
/// documents stops allocating once it has grown to fit them.
pub fn write_object(out: &mut String, members: impl FnOnce(&mut Writer<'_>)) {
    let mut w = Writer::new(out);
    w.begin_object();
    members(&mut w);
    w.end_object();
}

fn push_f64(out: &mut String, v: f64) {
    // `write!` into a `String` cannot fail.
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() != 0.0 || v.abs() >= 1e15 {
        write!(out, "{v}")
    } else if v == 0.0 && v.is_sign_negative() {
        out.write_str("-0.0")
    } else {
        // `{v:.1}` of a whole number below 1e15 is its integer digits
        // and `.0`. Ids, counters and timestamps are most of what is
        // written, so the digits come off a stack buffer, not `fmt`.
        let mut digits = [b'0'; 15];
        let mut rest = v.abs() as u64;
        let mut start = digits.len();
        for slot in digits.iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
            start -= 1;
            if rest == 0 {
                break;
            }
        }
        if v < 0.0 {
            out.push('-');
        }
        let digits = digits.get(start..).unwrap_or_default();
        out.push_str(std::str::from_utf8(digits).unwrap_or_default());
        out.write_str(".0")
    };
}

fn push_escaped(out: &mut String, s: &str) {
    // Copy clean runs whole. A run ends at an ASCII byte, so both ends
    // are character boundaries and `get` cannot miss.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(clean..i).unwrap_or_default());
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        clean = i + 1;
    }
    out.push_str(s.get(clean..).unwrap_or_default());
}

/// Shortest-roundtrip float formatting, with a `.0` suffix so integral
/// values still read as JSON numbers that parse back to `f64`.
///
/// JSON has no representation for non-finite numbers, so infinities and
/// NaN are written as `null` — the output always parses (a consumer sees
/// a clean "missing or invalid field" error instead of an unreadable
/// document). The `parse(v.to_json()) == v` round-trip therefore holds
/// for finite numbers only.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// Escapes a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Maximum container nesting [`parse`] and [`Reader`] accept. Bounds
/// recursion so hostile input (e.g. a megabyte of `[`) errors instead of
/// overflowing the stack — this parser sits on the wire-protocol seam
/// where untrusted requests arrive.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed). Rejects
/// documents nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    read(text, Reader::value)
}

/// Decodes one JSON document through a [`Reader`]: what `decode` made of
/// it if the text is one well-formed value, else the first syntax error —
/// the text is accepted exactly when [`parse`] accepts it, and refused
/// with the same message. The check comes before the answer can be looked
/// at, which is what lets a decoder collect fields without looking at the
/// outcome of each read.
pub fn read<'a, T>(text: &'a str, decode: impl FnOnce(&mut Reader<'a>) -> T) -> Result<T, String> {
    let mut reader = Reader {
        text,
        pos: 0,
        depth: 0,
        fresh: false,
        err: None,
    };
    let decoded = decode(&mut reader);
    reader.skip_ws();
    match reader.err {
        Some(e) => Err(e),
        None if reader.pos != text.len() => Err(format!("trailing garbage at byte {}", reader.pos)),
        None => Ok(decoded),
    }
}

/// The head of the next value: a scalar read whole, or a container just
/// opened.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string — borrowed from the text unless it carried escapes.
    Str(Cow<'a, str>),
    /// `{` was consumed: iterate with [`Reader::next_key`].
    Obj,
    /// `[` was consumed: iterate with [`Reader::next_item`].
    Arr,
}

impl Token<'_> {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, under [`Value::as_u64`]'s rule.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(whole)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A pull reader over one JSON document, handed out by [`read`]: the
/// caller asks for the next member key, item or value and the reader
/// walks the text once, left to right, building nothing.
///
/// The first syntax error is *sticky*: it is remembered, the reader
/// jumps to the end of the text, and from then on every call returns its
/// neutral answer (`None`, `false`, [`Token::Null`]) — so decoding loops
/// end by themselves and [`read`] reports the error once they have.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has had no member yet.
    fresh: bool,
    err: Option<String>,
}

impl<'a> Reader<'a> {
    fn fail<T: Default>(&mut self, msg: String) -> T {
        self.err.get_or_insert(msg);
        self.pos = self.text.len();
        T::default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            self.fail(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    /// Reads the head of the next value.
    pub fn token(&mut self) -> Token<'a> {
        self.head(true)
    }

    /// `keep` = the caller wants string contents; a skipped string with
    /// escapes is then validated without being unescaped into a buffer.
    fn head(&mut self, keep: bool) -> Token<'a> {
        if self.depth >= MAX_DEPTH {
            let msg = format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos);
            return self.fail(msg);
        }
        self.skip_ws();
        match self.peek() {
            None => self.fail("unexpected end of input".into()),
            Some(b'{') => self.open(Token::Obj),
            Some(b'[') => self.open(Token::Arr),
            Some(b'"') => self.string(keep).map_or(Token::Null, Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(_) => Token::Num(self.number()),
        }
    }

    fn open(&mut self, container: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        container
    }

    /// Steps to the next member or item of the innermost container, or
    /// consumes its closing bracket and returns `false`.
    fn more(&mut self, close: u8) -> bool {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                self.fresh = false;
                false
            }
            // What stands where a first member should is the member
            // parser's to judge.
            _ if self.fresh => {
                self.fresh = false;
                true
            }
            Some(b',') => {
                self.pos += 1;
                true
            }
            _ => self.fail(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// The key of the next member of the object last opened, positioned
    /// at its value; `None` once the object is closed.
    pub fn next_key(&mut self) -> Option<Cow<'a, str>> {
        self.member(true)
    }

    fn member(&mut self, keep: bool) -> Option<Cow<'a, str>> {
        if !self.more(b'}') {
            return None;
        }
        self.skip_ws();
        let key = self.string(keep)?;
        self.skip_ws();
        self.eat(b':').then_some(key)
    }

    /// Whether the array last opened has another item, positioned at it;
    /// `false` once the array is closed.
    pub fn next_item(&mut self) -> bool {
        self.more(b']')
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Token<'a> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            token
        } else {
            self.fail(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> f64 {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        let run = self.text.get(start..self.pos).unwrap_or_default();
        match whole_digits(run.as_bytes()).map_or_else(|| run.parse(), Ok) {
            Ok(n) => n,
            Err(_) => self.fail(format!("invalid number at byte {start}")),
        }
    }

    /// One string, opening quote included. Runs between escapes are
    /// sliced out of the text, not walked character by character: they
    /// start after and end at an ASCII `"` or `\`, so `str::get` always
    /// finds a character boundary and nothing is validated twice.
    fn string(&mut self, keep: bool) -> Option<Cow<'a, str>> {
        if !self.eat(b'"') {
            return None;
        }
        let mut unescaped: Option<String> = None;
        loop {
            let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return self.fail("unterminated string".into());
            };
            let end = self.pos + run;
            let clean = self.text.get(self.pos..end).unwrap_or_default();
            self.pos = end + 1;
            if rest.get(run) == Some(&b'"') {
                return Some(match unescaped {
                    Some(mut s) => {
                        s.push_str(clean);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(clean),
                });
            }
            let c = self.escape()?;
            if keep {
                let s = unescaped.get_or_insert_with(String::new);
                s.push_str(clean);
                s.push(c);
            }
        }
    }

    /// The character an escape stands for; the backslash is consumed.
    fn escape(&mut self) -> Option<char> {
        let Some(esc) = self.peek() else {
            return self.fail("unterminated escape".into());
        };
        self.pos += 1;
        Some(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self.hex4()?;
                // Standards-compliant encoders write non-BMP characters
                // as UTF-16 surrogate pairs: combine them; a lone
                // surrogate is an error, not a silent U+FFFD.
                let scalar = if (0xD800..=0xDBFF).contains(&code) {
                    if self.text.as_bytes().get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return self.fail(format!("lone high surrogate at byte {}", self.pos));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return self.fail(format!("invalid low surrogate at byte {}", self.pos));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else if (0xDC00..=0xDFFF).contains(&code) {
                    return self.fail(format!("lone low surrogate at byte {}", self.pos));
                } else {
                    code
                };
                match char::from_u32(scalar) {
                    Some(c) => c,
                    None => return self.fail(format!("bad \\u escape at byte {}", self.pos)),
                }
            }
            other => return self.fail(format!("bad escape `\\{}`", other as char)),
        })
    }

    fn hex4(&mut self) -> Option<u32> {
        let Some(hex) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return self.fail("truncated \\u escape".into());
        };
        let Ok(hex) = std::str::from_utf8(hex) else {
            return self.fail("non-utf8 \\u escape".into());
        };
        let Ok(code) = u32::from_str_radix(hex, 16) else {
            return self.fail(format!("bad \\u escape at byte {}", self.pos));
        };
        self.pos += 4;
        Some(code)
    }

    /// Consumes what `head` opened, contents unread but checked.
    pub fn skip_from(&mut self, head: &Token<'a>) {
        match head {
            Token::Obj => {
                while self.member(false).is_some() {
                    self.skip_value();
                }
            }
            Token::Arr => {
                while self.next_item() {
                    self.skip_value();
                }
            }
            _ => {}
        }
    }

    /// How many bytes of the text have been read: after a value, where
    /// it ends.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Consumes the next value, whatever it is, checking its syntax.
    pub fn skip_value(&mut self) {
        let head = self.head(false);
        self.skip_from(&head);
    }

    /// Consumes the next value and returns its head: the value itself
    /// when it is a scalar, what it was when it is a container.
    pub fn scalar(&mut self) -> Token<'a> {
        let head = self.token();
        self.skip_from(&head);
        head
    }

    /// The next value as a document tree.
    pub fn value(&mut self) -> Value {
        let head = self.token();
        self.value_from(head)
    }

    /// The document tree of a value whose head has been read already.
    pub fn value_from(&mut self, head: Token<'a>) -> Value {
        match head {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Num(n) => Value::Num(n),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Obj => {
                let mut members = Vec::new();
                while let Some(key) = self.next_key() {
                    members.push((key.into_owned(), self.value()));
                }
                Value::Obj(members)
            }
            Token::Arr => {
                let mut items = Vec::new();
                while self.next_item() {
                    items.push(self.value());
                }
                Value::Arr(items)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_nested_and_literals() {
        let v = parse(r#"{"a": [1, 2.5, true, null], "b": {"c": "x"}}"#).expect("parse");
        let obj = v.as_object().expect("obj");
        assert_eq!(obj.len(), 2);
        assert_eq!(
            obj[0].1,
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Bool(true),
                Value::Null,
            ])
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn writer_roundtrips_bit_identically() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\"\nline".into())),
            ("n".into(), Value::Num(0.1 + 0.2)), // not representable exactly
            ("whole".into(), Value::Num(42.0)),
            (
                "items".into(),
                Value::Arr(vec![Value::Null, Value::Bool(false), Value::Num(-1.5)]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let text = v.to_json();
        let reparsed = parse(&text).expect("own output parses");
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.to_json(), text, "encode → decode → re-encode");
    }

    #[test]
    fn fmt_f64_is_shortest_roundtrip() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(1.25), "1.25");
        let v: f64 = 0.1 + 0.2;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn escape_covers_control_chars() {
        assert_eq!(escape("a\tb\u{1}"), "a\\tb\\u0001");
    }

    #[test]
    fn non_finite_numbers_emit_parseable_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = Value::Obj(vec![("x".into(), Value::Num(v))]).to_json();
            let parsed = parse(&text).expect("output must always parse");
            assert_eq!(parsed.get("x"), Some(&Value::Null));
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(5.0).as_u64(), Some(5));
        assert_eq!(Value::Num(5.9).as_u64(), None, "no silent truncation");
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("5".into()).as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_error() {
        // A standards-compliant encoder writes U+1F600 as a pair.
        let v = parse(r#""\ud83d\ude00""#).expect("surrogate pair");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Round-trip: our writer emits the scalar directly.
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        // Lone or malformed surrogates are errors, not silent U+FFFD.
        assert!(parse(r#""\ud83d""#).is_err(), "lone high");
        assert!(parse(r#""\ude00""#).is_err(), "lone low");
        assert!(parse(r#""\ud83dx""#).is_err(), "high + non-escape");
        assert!(parse(r#""\ud83dA""#).is_err(), "high + non-low");
    }

    #[test]
    fn reader_pulls_typed_values_in_one_pass() {
        let text = r#" {"id": 7, "name": "plain", "esc": "a\nb", "skip": {"x": [1, {"y": "\u00e9"}]},
            "list": [1.5, "two", null], "wrong": "7", "neg": -1, "frac": 0.5, "last": true} "#;
        let seen = read(text, |r| {
            assert_eq!(r.token(), Token::Obj);
            let mut seen = 0;
            while let Some(key) = r.next_key() {
                seen += 1;
                match &*key {
                    "id" => assert_eq!(r.scalar().as_u64(), Some(7)),
                    "name" => assert!(matches!(r.scalar(), Token::Str(Cow::Borrowed("plain")))),
                    "esc" => {
                        assert!(matches!(r.scalar(), Token::Str(Cow::Owned(s)) if s == "a\nb"))
                    }
                    "list" => {
                        assert_eq!(r.token(), Token::Arr);
                        assert!(r.next_item());
                        assert_eq!(r.scalar().as_f64(), Some(1.5));
                        assert!(r.next_item());
                        assert_eq!(r.scalar().as_str(), Some("two"));
                        assert!(r.next_item());
                        assert_eq!(r.token(), Token::Null);
                        assert!(!r.next_item());
                    }
                    "wrong" | "neg" | "frac" => assert_eq!(r.scalar().as_u64(), None, "{key}"),
                    // A container read as a scalar is consumed whole.
                    "skip" => assert_eq!(r.scalar(), Token::Obj),
                    _ => r.skip_value(),
                }
            }
            seen
        });
        assert_eq!(seen, Ok(9));
        // What the decoder made of a malformed text is never seen.
        assert_eq!(
            read("[1, 2] x", Reader::skip_value),
            Err("trailing garbage at byte 7".into())
        );
    }

    /// Every way to walk a document — build the tree, skip it, pull it
    /// member by member — accepts and rejects the same texts with the
    /// same message: each single-byte deletion and replacement of a
    /// document that uses every construct.
    #[test]
    fn every_walk_agrees_with_parse_on_mutated_documents() {
        fn pull(r: &mut Reader<'_>) {
            match r.token() {
                Token::Obj => {
                    while r.next_key().is_some() {
                        pull(r);
                    }
                }
                Token::Arr => {
                    while r.next_item() {
                        pull(r);
                    }
                }
                _ => {}
            }
        }
        let doc = r#"{"a": [1, -2.5e3, true, false, null, {}], "é😀": "x\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00y", "o": {"k": []}}"#;
        assert!(parse(doc).is_ok());
        let mut mutants = vec![doc.as_bytes().to_vec()];
        for i in 0..doc.len() {
            let mut cut = doc.as_bytes().to_vec();
            cut.remove(i);
            mutants.push(cut);
            for b in *b"\"\\{}[],:x0u-. \xc3" {
                let mut swapped = doc.as_bytes().to_vec();
                swapped[i] = b;
                mutants.push(swapped);
            }
        }
        let mut rejected = 0;
        for mutant in mutants {
            let Ok(text) = String::from_utf8(mutant) else {
                continue;
            };
            let expected = parse(&text).map(|_| ());
            rejected += usize::from(expected.is_err());
            assert_eq!(read(&text, Reader::skip_value), expected, "skip: {text}");
            assert_eq!(read(&text, pull), expected, "pull: {text}");
        }
        assert!(rejected > 1000, "the mutations must bite: {rejected}");
    }

    #[test]
    fn writer_streams_the_bytes_the_tree_writes() {
        let text = object(|w| {
            w.key("n").num(1.0).key("s").str("a\"b").key("list");
            w.begin_array().null().value(&Value::Bool(true));
            w.begin_object().end_object();
            w.begin_array().end_array().end_array();
            w.key("o").begin_object().key("k\n").num(-0.5).end_object();
        });
        assert_eq!(
            text,
            r#"{"n":1.0,"s":"a\"b","list":[null,true,{},[]],"o":{"k\n":-0.5}}"#
        );
        assert_eq!(parse(&text).expect("parses").to_json(), text);
    }

    #[test]
    fn whole_number_fast_paths_match_the_general_ones() {
        let limit: f64 = 999_999_999_999_999.0;
        for v in [
            0.0, -0.0, 1.0, -1.0, 42.0, 61_500.0, 1e14, limit, -limit, 1e15,
        ] {
            let general = if v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            };
            assert_eq!(fmt_f64(v), general);
        }
        for text in [
            "0",
            "7",
            "007.0",
            "123.0",
            "999999999999999",
            "999999999999999.0",
            "1000000000000000",
            "1000000000000000.0",
            "1.5",
            "1e3",
            "-0.0",
            "-5",
            "+5",
            "1.",
            ".5",
            ".0",
            "12.00",
            "1.0.0",
            "1-2",
            "",
            "e",
            "-",
        ] {
            let general = text.parse::<f64>().ok().map(Value::Num);
            assert_eq!(parse(text).ok(), general, "{text:?}");
        }
    }

    /// The complexity guard: work is linear in the length of the text.
    /// The parser this replaced re-validated the rest of the document
    /// once per character — 0.83 s for 885 KB, optimised — so each of
    /// these 8 MiB documents would have taken it minutes; the budget is
    /// generous enough for an unoptimised build on a slow machine and
    /// still two orders of magnitude short of that.
    #[test]
    fn eight_mebibyte_documents_parse_in_linear_time() {
        const SIZE: usize = 8 << 20;
        let budget = std::time::Duration::from_secs(5);
        let documents = [
            ("one string body", format!("\"{}\"", "é".repeat(SIZE / 2))),
            ("escapes only", format!("\"{}\"", "\\n".repeat(SIZE / 2))),
            (
                "short string members",
                format!("{{{}\"k\":\"v\"}}", "\"k\":\"v\",".repeat(SIZE / 8)),
            ),
        ];
        for (what, text) in &documents {
            assert!(text.len() >= SIZE, "{what}");
            let start = std::time::Instant::now();
            assert!(parse(text).is_ok(), "{what}");
            let tree = start.elapsed();
            let start = std::time::Instant::now();
            assert_eq!(read(text, Reader::skip_value), Ok(()), "{what}");
            let skip = start.elapsed();
            assert!(
                tree < budget && skip < budget,
                "{what}: parse took {tree:?}, the reader {skip:?}"
            );
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("must reject, not crash");
        assert!(err.contains("nesting"), "{err}");
        // Depths at the limit still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }
}
