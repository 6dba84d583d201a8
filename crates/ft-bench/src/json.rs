//! A minimal JSON reader for validating the harness's own output.
//!
//! The workspace builds offline (no serde), but `BENCH_engine.json` is
//! consumed by CI (`scripts/check.sh` runs the `bench_check` binary) and by
//! downstream tooling, so malformed output must fail loudly rather than
//! ship. This is a strict recursive-descent parser for the JSON the harness
//! emits — objects, arrays, strings (with the standard escapes), numbers,
//! booleans, and null — not a general-purpose library.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers parse as f64 (the harness emits integers and 3-decimal
    /// ratios, both exact in f64 at the magnitudes involved).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// A parse error with its byte offset in the input.
#[derive(Debug)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// Deepest array/object nesting [`parse`] accepts (`ft-perf/v2` needs 4).
/// The parser recurses once per level, and `bench_check` reads a path the
/// user names, so without a cap a file of `[[[[…` overflows the stack.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The harness never emits surrogate pairs; reject
                            // rather than mis-decode.
                            let ch = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            s.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) => {
                    // Copy the raw UTF-8 byte run up to the next quote/escape.
                    if c < 0x20 {
                        return Err(self.err("control character in string"));
                    }
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_shapes() {
        let v = parse(
            r#"{"schema": "ft-perf/v1", "results": [{"op": "x", "n": 1024, "median_ns": 123}],
                "speedups": [], "ratio": 4.125, "missing": null, "ok": true}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("ft-perf/v1"));
        let rows = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("n").unwrap().as_num(), Some(1024.0));
        assert_eq!(v.get("ratio").unwrap().as_num(), Some(4.125));
        assert_eq!(v.get("missing"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert!(v.get("speedups").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\n\t\"\\ b A""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\ b A"));
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#] {
            assert!(parse(bad).is_err(), "accepted malformed escape {bad}");
        }
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let doc = parse(&nest(MAX_DEPTH)).expect("the cap itself parses");
        let mut v = &doc;
        for _ in 1..MAX_DEPTH {
            v = &v.as_arr().unwrap()[0];
        }
        assert_eq!(v, &Value::Arr(Vec::new()));
        assert!(parse(&nest(MAX_DEPTH - 1)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "error points at the offending '['");
        // Objects count against the same cap as arrays.
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).is_err());
        // Unclosed, as a truncated write would leave it, and closed.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&nest(200_000)).is_err());
    }
}
