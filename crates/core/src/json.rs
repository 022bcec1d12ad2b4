//! A minimal, std-only JSON reader/writer: the workspace's one codec for
//! `relia-serve` bodies, `relia-jobs` sweep checkpoints and `relia-lint`
//! reports.
//!
//! Those schemas are small and fully known, so this module implements
//! exactly the JSON subset they need: UTF-8 text, objects, arrays, strings
//! with the standard escapes, finite numbers, booleans and `null`. Parsing
//! is recursive-descent with a hard depth bound, so hostile bodies cannot
//! blow the stack.
//!
//! Float formatting uses Rust's shortest-round-trip `Display`, so a value
//! computed by the library and one decoded from a response body or a
//! checkpoint line are bit-equal. That is what lets `loadgen` compare
//! responses byte-for-byte against direct library calls, and what makes a
//! resumed sweep bit-exact.

use std::fmt::Write as _;

/// Deepest permitted nesting of arrays/objects in a request body.
const MAX_DEPTH: u32 = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order. Duplicate keys are kept; [`Json::get`]
    /// returns the first match, and no caller rejects them, matching the
    /// schemas' tolerance.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `name` of an object (first match).
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a body failed to parse (all map to HTTP 400 at the service layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`JsonError`] for malformed input, non-UTF-8 text, non-finite
/// numbers, or nesting deeper than the internal bound.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        at: e.valid_up_to(),
        what: "body is not valid utf-8",
    })?;
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.i, what }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                None
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input validated as UTF-8).
                    let rest = &self.s[self.i..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("bad utf-8"))?;
                    let ch = text.chars().next().ok_or_else(|| self.err("bad utf-8"))?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|_| JsonError {
            at: start,
            what: "bad number",
        })?;
        // Rust's f64 parser accepts a superset of JSON numbers ("inf",
        // "1."), but everything it accepts here is digits/./e/±, so the
        // practical difference is leniency JSON clients won't exercise.
        let v: f64 = text.parse().map_err(|_| JsonError {
            at: start,
            what: "bad number",
        })?;
        if !v.is_finite() {
            return Err(JsonError {
                at: start,
                what: "number out of range",
            });
        }
        Ok(Json::Num(v))
    }
}

/// Formats a finite `f64` in shortest-round-trip form (`1` for `1.0`).
/// Non-finite values are a bug upstream; they render as `null` rather than
/// emitting invalid JSON.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Appends [`fmt_f64`]'s text for `v` to `out`, without a `String` of its
/// own.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                #[expect(clippy::expect_used, reason = "writing to a String cannot fail")]
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_degrade_schema() {
        let v =
            parse(br#"{"ras":[1,9],"t_standby_k":330.5,"years":3.2,"p_active":0.5,"p_standby":1}"#)
                .unwrap();
        assert_eq!(v.get("t_standby_k").unwrap().as_f64(), Some(330.5));
        let ras = v.get("ras").unwrap().as_arr().unwrap();
        assert_eq!(ras[0].as_f64(), Some(1.0));
        assert_eq!(ras[1].as_f64(), Some(9.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_strings_escapes_and_nesting() {
        let v = parse(br#"{"a":"x\n\"y\"\u00e9","b":[true,false,null],"c":{"d":-1.5e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\n\"y\"é"));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-1500.0)
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(parse(br#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(br#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first_match() {
        let v = parse(br#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"{\"a\":}",
            b"nul",
            b"\"unterminated",
            b"1 2",
            b"{\"a\" 1}",
            b"[1e999]",
            b"\xff\xfe",
            b"",
            b"{\"a\":\"\\x\"}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = b"[".repeat(64);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, 1.0, -1.5, 0.031_415_926_535, 1e-300, f64::MAX] {
            let text = fmt_f64(v);
            let back = parse(text.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn push_f64_appends_the_text_of_fmt_f64() {
        let values = [
            0.0,
            -0.0,
            1e21,
            1e-7,
            0.031_415_926_535,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut out = String::from("x");
        for v in values {
            push_f64(&mut out, v);
        }
        let expected: String = values.into_iter().map(fmt_f64).collect();
        assert_eq!(out, format!("x{expected}"));
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
