//! A minimal JSON layer for the wire protocol.
//!
//! The build is offline (no serde), so this module hand-rolls exactly
//! what newline-delimited JSON needs: a recursive-descent parser with a
//! depth bound and full string-escape handling, and a writer whose
//! float formatting uses Rust's shortest-roundtrip `Display` (so a
//! value survives serialize → parse unchanged). Integers and floats are
//! distinct variants — the protocol cares whether `3` or `3.0` arrived.
//! Objects preserve insertion order, which keeps responses byte-stable.
//!
//! There is one grammar: the pull [`Reader`]. [`Json::parse`] is
//! [`Reader::value`] plus the trailing check, and the request decoder
//! walks the same reader to fill array payloads without a tree.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with no fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: u32 = 128;

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(input);
        let v = r.value()?;
        r.end()?;
        Ok(v)
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value, if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean value, if a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object fields, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to a compact single-line string.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_to(&mut out);
        out
    }

    /// Append the compact serialization to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => write_int(*v, out),
            Json::Float(v) => {
                if v.is_finite() {
                    // `Display` for floats is shortest-roundtrip; force a
                    // fraction marker so the value re-parses as Float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

/// Append `v` in decimal.
pub(crate) fn write_int(v: i64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

/// Start the next member of the object being written into `out` (the
/// caller pushed its `{`): a comma unless it is the first, then
/// `"key":`. No member value ends in `{`, so the test is exact.
pub(crate) fn write_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_escaped(key, out);
    out.push(':');
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A pull reader over one JSON document: the only JSON grammar in the
/// crate. [`Reader::value`] builds a [`Json`] tree; the `open_*` /
/// [`Reader::key`] / [`Reader::element`] calls walk a container member
/// by member, so a caller can decode a large payload in place and hand
/// everything else to `value`. Both ways report the same [`JsonError`]
/// (offset and text) for the same malformed input.
#[derive(Clone)]
pub struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// Containers open around the cursor.
    depth: u32,
    /// The innermost open container has yielded no member yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader { b: input.as_bytes(), i: 0, depth: 0, fresh: false }
    }

    fn err(&self, m: impl Into<String>) -> JsonError {
        JsonError { at: self.i, message: m.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    /// The first byte of the value the cursor is in front of (`{`, `[`,
    /// `"`, a digit, …), or `None` at the end of input.
    pub fn peek_value(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    /// The document is over: only whitespace remains.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.i != self.b.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// Read one value of any kind as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        self.check_depth()?;
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.open_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.open_array()?;
                let mut items = Vec::new();
                while self.element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// The bound holds for a caller that recurses through `open_*` by
    /// itself just as for `value`.
    fn check_depth(&self) -> Result<(), JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.check_depth()?;
        self.skip_ws();
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step to the next member of the innermost container: past the
    /// `,` that precedes it, or past the closing bracket when there is
    /// none (`false`).
    fn member(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        let more = if std::mem::take(&mut self.fresh) {
            !self.eat(close)
        } else if self.eat(b',') {
            true
        } else {
            self.expect(close)?;
            false
        };
        if !more {
            self.depth = self.depth.saturating_sub(1);
        }
        Ok(more)
    }

    /// Enter the object the cursor is in front of; [`Reader::key`] then
    /// yields its members.
    pub fn open_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// The next member's key, with the cursor left in front of its
    /// value (which the caller must read), or `None` once the object
    /// has closed.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.member(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enter the array the cursor is in front of; [`Reader::element`]
    /// then steps through it.
    pub fn open_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// `true` with the cursor in front of the next element (which the
    /// caller must read), `false` once the array has closed.
    pub fn element(&mut self) -> Result<bool, JsonError> {
        self.member(b']')
    }

    /// Decode the run of *plain* elements at the cursor — which is
    /// where [`Reader::element`] would be called: just inside an opened
    /// array or just behind an element — appending each one's
    /// little-endian bytes to `out`. A plain element is written the one
    /// way every builder writes it (see [`Plain`]), directly behind the
    /// `[` or `,` and directly in front of a `,` or `]`. The run ends
    /// in front of the separator of the first element that is anything
    /// else (whitespace, an exponent, 19 digits, an escape, the closing
    /// bracket, the end of input), with nothing of it consumed, so
    /// `element` and `value` / `string` read that one as if there had
    /// been no run.
    ///
    /// Each element is first tried at the length of the one before it,
    /// a word at a time: a builder writes runs of equally long elements.
    /// Whatever that try does not take goes the element-wise way, which
    /// alone decides where the run ends.
    pub fn plain_run(&mut self, kind: Plain, out: &mut Vec<u8>) {
        match kind {
            Plain::Low32 => {
                self.run_of(out, digits_at, predicted_digits, |w| (w as u32).to_le_bytes())
            }
            Plain::Int32 => {
                self.run_of(out, int32_at, predicted_int32, |w| (w as u32).to_le_bytes())
            }
            Plain::Word64 => self.run_of(out, word64_at, predicted_word64, u64::to_le_bytes),
        }
    }

    /// [`Reader::plain_run`] for one kind: `element(bytes, at)` is the
    /// plain element starting at `at`, as a word and the offset behind
    /// it; `predicted(window, len)` is the word of a plain element of
    /// `len` bytes at `window[1]` followed by `,` or `]`, when that is
    /// what the window holds; `encode` is the word in the array.
    #[inline(always)]
    fn run_of<const WIDTH: usize>(
        &mut self,
        out: &mut Vec<u8>,
        element: impl Fn(&[u8], usize) -> Option<(u64, usize)>,
        predicted: impl Fn(&[u8; WINDOW], usize) -> Option<u64>,
        encode: impl Fn(u64) -> [u8; WIDTH],
    ) {
        const CHUNK: usize = 64;
        let (b, mut i, mut fresh) = (self.b, self.i, self.fresh);
        // Words wait here and reach `out` a chunk at a time.
        let mut chunk = [[0u8; WIDTH]; CHUNK];
        let mut filled = 0;
        // The length of the last element, which the next one is tried at.
        let mut len = 0;
        loop {
            let guess = match b.get(i..i + WINDOW) {
                Some(window) if !fresh && window[0] == b',' => {
                    predicted(window.try_into().expect("a window-long slice"), len)
                }
                _ => None,
            };
            let word = if let Some(word) = guess {
                i += 1 + len;
                word
            } else {
                let at = match b.get(i) {
                    _ if fresh => i,
                    Some(b',') => i + 1,
                    _ => break,
                };
                let Some((word, end)) = element(b, at) else { break };
                if !matches!(b.get(end), Some(b',' | b']')) {
                    break;
                }
                (i, fresh, len) = (end, false, end - at);
                word
            };
            chunk[filled] = encode(word);
            filled += 1;
            if filled == CHUNK {
                out.extend_from_slice(chunk.as_flattened());
                filled = 0;
            }
        }
        out.extend_from_slice(chunk[..filled].as_flattened());
        (self.i, self.fresh) = (i, fresh);
    }

    /// Read a string; borrowed from the input unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        let mut run_start = self.i;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let run = self.raw_str(run_start, self.i)?;
                    self.i += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(self.raw_str(run_start, self.i)?);
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.eat(b'\\') && self.eat(b'u') {
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    } else {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        c => return Err(self.err(format!("bad escape `\\{}`", c as char))),
                    }
                    run_start = self.i;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn raw_str(&self, from: usize, to: usize) -> Result<&'a str, JsonError> {
        std::str::from_utf8(&self.b[from..to])
            .map_err(|_| JsonError { at: from, message: "invalid utf-8 in string".into() })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        let negative = self.eat(b'-');
        // Integers — every element of a `bits` payload — are summed as
        // they are scanned. Up to 18 digits cannot wrap the sum; longer
        // ones take the text route below.
        let mut magnitude = 0u64;
        let mut digits = 0;
        for c in self.b[self.i..].iter().take_while(|c| c.is_ascii_digit()) {
            magnitude = magnitude.wrapping_mul(10).wrapping_add((c - b'0') as u64);
            digits += 1;
        }
        self.i += digits;
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.i += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if !is_float && (1..=18).contains(&digits) {
            let magnitude = magnitude as i64;
            return Ok(Json::Int(if negative { -magnitude } else { magnitude }));
        }
        let text = self.raw_str(start, self.i)?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { at: start, message: format!("bad number `{text}`") })
    }
}

/// How the elements of a `bits` list are written by every builder, and
/// what [`Reader::plain_run`] therefore decodes without [`Reader::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plain {
    /// 1..=18 digits; four bytes, the low 32 bits (`f32` patterns).
    Low32,
    /// An optional `-` and 1..=18 digits that fit an `i32`; four bytes.
    Int32,
    /// 1..=18 digits, or `"0x` + 1..=16 hex digits + `"` with no
    /// escapes; eight bytes (`f64` patterns).
    Word64,
}

/// 1..=18 ASCII digits starting at byte `at`: as many as cannot wrap
/// the sum, and as [`Reader::number`] sums without the text route.
#[inline(always)]
fn digits_at(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut n = 0;
    while let Some(d) = b.get(at + n).map(|c| c.wrapping_sub(b'0')).filter(|d| *d < 10) {
        if n == 18 {
            return None;
        }
        value = value * 10 + d as u64;
        n += 1;
    }
    (n > 0).then_some((value, at + n))
}

/// An optional `-` and [`digits_at`] that fit an `i32`, as its `u32`.
#[inline(always)]
fn int32_at(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let negative = b.get(at) == Some(&b'-');
    let (magnitude, end) = digits_at(b, at + negative as usize)?;
    let value = if negative { -(magnitude as i64) } else { magnitude as i64 };
    Some((i32::try_from(value).ok()? as u32 as u64, end))
}

/// [`digits_at`], or `"0x` + 1..=16 hex digits of either case + `"`.
#[inline(always)]
fn word64_at(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let Some(digits) = b.get(at..).and_then(|rest| rest.strip_prefix(b"\"0x")) else {
        return digits_at(b, at);
    };
    let mut word = 0u64;
    let mut n = 0;
    while let Some(d) = digits.get(n).map(|c| HEX_VALUE[*c as usize]).filter(|d| *d < 16) {
        if n == 16 {
            return None;
        }
        word = word << 4 | d as u64;
        n += 1;
    }
    (n > 0 && digits.get(n) == Some(&b'"')).then_some((word, at + 3 + n + 1))
}

/// The value of an ASCII hex digit of either case; 0xff for other bytes.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        table[b"0123456789ABCDEF"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Bytes a predicted element is read from: its separator, up to 20
/// bytes of element (an `f64` hex string) and the byte behind it, in
/// whole 8-byte loads.
const WINDOW: usize = 24;

/// `byte` in every byte of a word.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// The 8 bytes of `window` from `at`, the first one lowest.
#[inline(always)]
fn load(window: &[u8; WINDOW], at: usize) -> u64 {
    u64::from_le_bytes(window[at..at + 8].try_into().expect("8 bytes"))
}

/// 0x80 in each byte of `word` within `lo..=hi`. Exact for every byte
/// below 0x80 that no byte below it in the word is 0x80 or more.
#[inline(always)]
fn bytes_within(word: u64, lo: u8, hi: u8) -> u64 {
    word.wrapping_add(splat(0x80 - lo)) & !word.wrapping_add(splat(0x7f - hi)) & splat(0x80)
}

/// The value of the 8 digit values (0..=9) in the bytes of `d`, the
/// lowest byte most significant: digit pairs, pairs of pairs, halves.
#[inline(always)]
fn value8(d: u64) -> u64 {
    let d = d.wrapping_mul(10 << 8 | 1) >> 8;
    let d = (d & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 << 16 | 1) >> 16;
    (d & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 << 32 | 1) >> 32
}

/// How `n` digits in two 8-byte loads are read: the bytes of each load
/// that are digits, the shift that puts leading zeros below them, and
/// the weight of the first load's value.
#[derive(Clone, Copy)]
struct DigitShape {
    keep: [u64; 2],
    shift: [u32; 2],
    scale: u64,
}

/// A mask of the low `k` (0..=8) bytes of a word.
const fn low_bytes(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        u64::MAX >> (64 - 8 * k)
    }
}

/// [`DigitShape`] for 1..=16 digits, at index `n - 1`.
const SHAPES: [DigitShape; 16] = {
    let mut shapes = [DigitShape { keep: [0; 2], shift: [0; 2], scale: 1 }; 16];
    let mut n = 1;
    while n <= 16 {
        let counts = if n <= 8 { [n, 0] } else { [8, n - 8] };
        shapes[n - 1] = DigitShape {
            keep: [low_bytes(counts[0]), low_bytes(counts[1])],
            // A load with no digits keeps no byte: its shift is moot.
            shift: [(64 - 8 * counts[0] as u32) % 64, (64 - 8 * counts[1] as u32) % 64],
            scale: 10u64.pow(counts[1] as u32),
        };
        n += 1;
    }
    shapes
};

/// The value of the 8 ASCII hex digits of either case in `word`, the
/// first one most significant, when all of them are hex digits.
#[inline(always)]
fn hex8(word: u64) -> Option<u64> {
    let hex = bytes_within(word, b'0', b'9') | bytes_within(word | splat(0x20), b'a', b'f');
    if word & splat(0x80) != 0 || hex != splat(0x80) {
        return None;
    }
    // Letters have bit 6 set: their low nibble is 9 short of the value.
    let v = ((word & splat(0x0f)) + (word >> 6 & splat(1)) * 9).swap_bytes();
    let v = (v | v >> 4) & 0x00ff_00ff_00ff_00ff;
    let v = (v | v >> 8) & 0x0000_ffff_0000_ffff;
    Some((v | v >> 16) & 0xffff_ffff)
}

/// [`digits_at`] of exactly `n` (1..=16) digits at `window[at]`
/// (`at` ≤ 2) followed by `,` or `]`: the same word, or `None` where
/// the window holds anything else.
#[inline(always)]
fn digits_in(window: &[u8; WINDOW], at: usize, n: usize) -> Option<u64> {
    let shape = SHAPES.get(n.wrapping_sub(1))?;
    if !matches!(window[at + n], b',' | b']') {
        return None;
    }
    // Digit values; a byte that is no digit reads 10 or more (a byte
    // below it that borrows or carries is no digit either).
    let d = [load(window, at), load(window, at + 8)].map(|w| w.wrapping_sub(splat(b'0')));
    let over = |w: u64| (w | w.wrapping_add(splat(0x76))) & splat(0x80);
    if over(d[0]) & shape.keep[0] | over(d[1]) & shape.keep[1] != 0 {
        return None;
    }
    let value = |i: usize| value8((d[i] & shape.keep[i]) << shape.shift[i]);
    Some(value(0) * shape.scale + value(1))
}

/// A [`Plain::Low32`] element of `len` bytes behind the separator at
/// `window[0]`: [`digits_at`] at that length, or `None`.
#[inline(always)]
fn predicted_digits(window: &[u8; WINDOW], len: usize) -> Option<u64> {
    digits_in(window, 1, len)
}

/// A [`Plain::Int32`] element of `len` bytes: [`int32_at`] at that
/// length, or `None` (a lone `-` has no digits, and is `None`).
#[inline(always)]
fn predicted_int32(window: &[u8; WINDOW], len: usize) -> Option<u64> {
    let negative = window[1] == b'-';
    let magnitude = digits_in(window, 1 + negative as usize, len.checked_sub(negative as usize)?)?;
    let value = if negative { -(magnitude as i64) } else { magnitude as i64 };
    Some(i32::try_from(value).ok()? as u32 as u64)
}

/// A [`Plain::Word64`] element of `len` bytes: [`word64_at`] at that
/// length for digits or a string of all 16 hex digits, else `None`.
#[inline(always)]
fn predicted_word64(window: &[u8; WINDOW], len: usize) -> Option<u64> {
    if window[1] != b'"' {
        return digits_in(window, 1, len);
    }
    let framed = window[1..4] == *b"\"0x" && window[20] == b'"';
    if len != 20 || !framed || !matches!(window[21], b',' | b']') {
        return None;
    }
    Some(hex8(load(window, 4))? << 32 | hex8(load(window, 12))?)
}

/// Convenience constructor: an object from key/value pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for s in ["null", "true", "false", "0", "-42", "3.25", "1e3"] {
            let v = Json::parse(s).unwrap();
            assert_eq!(Json::parse(&v.dump()).unwrap(), v, "{s}");
        }
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        // Out-of-range integers fall back to float rather than failing.
        assert!(matches!(Json::parse("18446744073709551615").unwrap(), Json::Float(_)));
    }

    #[test]
    fn integers_at_the_edges_of_i64_parse_and_print_as_std_does() {
        for v in [0, 7, -7, 10, 1_065_353_216, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut printed = String::new();
            write_int(v, &mut printed);
            assert_eq!(printed, v.to_string());
            assert_eq!(Json::parse(&printed).unwrap(), Json::Int(v));
        }
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("00012").unwrap(), Json::Int(12));
        // One past either end is a float, as `str::parse::<i64>` failing made it.
        for beyond in ["9223372036854775808", "-9223372036854775809", "99999999999999999999999"] {
            assert_eq!(Json::parse(beyond).unwrap(), Json::Float(beyond.parse().unwrap()));
        }
        let e = Json::parse("-").unwrap_err();
        assert_eq!((e.at, e.message.as_str()), (0, "bad number `-`"));
    }

    #[test]
    fn a_pull_walk_reports_what_the_tree_reports() {
        // Rebuild a document from the pull calls alone, scalars aside.
        fn walk(r: &mut Reader<'_>) -> Result<Json, JsonError> {
            match r.peek_value() {
                Some(b'{') => {
                    r.open_object()?;
                    let mut fields = Vec::new();
                    while let Some(key) = r.key()? {
                        fields.push((key.into_owned(), walk(r)?));
                    }
                    Ok(Json::Obj(fields))
                }
                Some(b'[') => {
                    r.open_array()?;
                    let mut items = Vec::new();
                    while r.element()? {
                        items.push(walk(r)?);
                    }
                    Ok(Json::Arr(items))
                }
                Some(b'"') => Ok(Json::Str(r.string()?.into_owned())),
                _ => r.value(),
            }
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        for doc in [
            r#"{"a":[1,{"b":"c\n"},[]],"d":{},"a":null}"#,
            " [ 1 , 2 ] ",
            "{\"a\":1,}",
            "[1,,2]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1",
            "[\"x",
            "{\"a\":[1,2}",
            "[1]]",
            deep.as_str(),
        ] {
            let mut r = Reader::new(doc);
            let walked = walk(&mut r).and_then(|v| r.end().map(|()| v));
            assert_eq!(walked, Json::parse(doc), "{doc}");
        }
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn a_plain_run_takes_what_value_would_and_stops_where_element_resumes() {
        // Every digit count, ended by every kind of byte, against `value`.
        for digits in 0..=20 {
            for ender in [",", "]", " ,", ".5,", "e1,", "x", "\t]"] {
                let number = &"12345678909876543210"[..digits];
                let doc = format!("[{number}{ender}5,6,7777777777]");
                let mut r = Reader::new(&doc);
                r.open_array().unwrap();
                let mut out = Vec::new();
                r.plain_run(Plain::Word64, &mut out);
                let words: Vec<u64> = out
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                let plain = (1..=18).contains(&digits) && matches!(ender, "," | "]");
                let expect: Vec<u64> = match (plain, ender) {
                    (true, ",") => vec![number.parse().unwrap(), 5, 6, 7_777_777_777],
                    (true, _) => vec![number.parse().unwrap()],
                    (false, _) => vec![],
                };
                assert_eq!(words, expect, "{doc}");
                // Where it stopped, the general calls carry on.
                let mut general = Reader::new(&doc);
                general.open_array().unwrap();
                for w in &words {
                    assert!(general.element().unwrap());
                    assert_eq!(general.value().unwrap(), Json::Int(*w as i64));
                }
                assert_eq!((r.i, r.fresh, r.depth), (general.i, general.fresh, general.depth), "{doc}");
            }
        }
        fn run(kind: Plain, doc: &str) -> (Vec<u8>, &str) {
            let mut r = Reader::new(doc);
            r.open_array().unwrap();
            let mut out = Vec::new();
            r.plain_run(kind, &mut out);
            (out, &doc[r.i..])
        }
        let le32 = |v: &[u32]| v.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        assert_eq!(run(Plain::Low32, "[4294967297,1,-1,2]"), (le32(&[1, 1]), ",-1,2]"));
        assert_eq!(
            run(Plain::Int32, "[-2147483648,2147483647,-0,2147483648,1]"),
            (le32(&[0x8000_0000, 0x7fff_ffff, 0]), ",2147483648,1]")
        );
        assert_eq!(run(Plain::Int32, "[-2147483649,1]"), (vec![], "-2147483649,1]"));
        assert_eq!(run(Plain::Int32, "[12345"), (vec![], "12345"), "the end of input ends no element");
        let (out, rest) = run(Plain::Word64, r#"["0x1","0xFFFFFFFFffffffff",9,"0x00000000000000001"]"#);
        assert_eq!(out, [1u64, u64::MAX, 9].map(u64::to_le_bytes).concat());
        assert_eq!(rest, r#","0x00000000000000001"]"#);
        for stops in [r#"["0x"]"#, r#"["0x1\u0031"]"#, r#"["0x1"#, r#"["0x1" ]"#, r#"["0x+1"]"#, r#"[-]"#] {
            assert_eq!(run(Plain::Word64, stops), (vec![], &stops[1..]), "{stops}");
        }
    }

    #[test]
    fn floats_survive_roundtrip_exactly() {
        for v in [0.1f64, -1.0e-300, std::f64::consts::PI, 1.5e300, -0.0] {
            let dumped = Json::Float(v).dump();
            match Json::parse(&dumped).unwrap() {
                Json::Float(w) => assert_eq!(v.to_bits(), w.to_bits(), "{dumped}"),
                other => panic!("expected float from {dumped}, got {other:?}"),
            }
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r — ünïcode 😀";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
        // Escapes parse from foreign producers too.
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00\/""#).unwrap(),
            Json::Str("Aé😀/".into())
        );
    }

    #[test]
    fn nested_structures_roundtrip_and_lookup() {
        let src = r#"{"op":"run","n":3,"xs":[1,2.5,null],"inner":{"ok":true},"op":"last-wins"}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("last-wins"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("inner").and_then(|i| i.get("ok")).and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(3));
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "\"unterminated", "01x", "{\"a\":1}trailing",
            "\"\\q\"", "\"\\ud800\"", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        // Depth bound holds instead of blowing the stack.
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn source_with_pragma_newlines_roundtrips() {
        let src = "void f(int n) {\n  #pragma acc kernels\n  { }\n}";
        let line = obj(vec![("source", Json::Str(src.into()))]).dump();
        assert!(!line.contains('\n'), "newline-delimited transport needs single lines");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("source").and_then(Json::as_str), Some(src));
    }
}
