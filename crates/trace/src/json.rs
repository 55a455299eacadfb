//! The workspace's one JSON codec: a small parser ([`parse`] into
//! [`Json`]) and the writers behind every report, trace and server
//! response ([`push_string`] / [`json_string`], [`json_f64`],
//! [`json_opt_f64`], [`json_opt_string`]).
//!
//! Hand-rolled because the build has no crates.io access, and available
//! without the `trace` feature: `tr-trace` has no dependencies, so every
//! crate above it shares this module.
//!
//! Decoding is linear in the input. A string is copied one run at a time:
//! each run reaches the next `"` or `\` and is pushed as one slice of the
//! `&str` source. Both delimiters are ASCII, so every run ends on a char
//! boundary and no byte is looked at twice.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a limit a body of a few hundred KB of `[`
/// overflows the stack and aborts the whole process.
const MAX_DEPTH: usize = 256;

/// A parsed JSON value. Objects preserve key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String with escapes decoded.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as a key/value list in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` on an array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Every byte taken is ASCII, so the slice ends on a char boundary.
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
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
                    out.push(self.parse_unicode_escape()?);
                    continue; // parse_hex4 already advanced
                }
                _ => return Err(self.err("invalid escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is already
    /// consumed. A high surrogate followed by an escaped low surrogate is
    /// one supplementary character; any other surrogate is unpaired and
    /// decodes to U+FFFD without swallowing what follows.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let cp = self.parse_hex4()?;
        let mut c = char::from_u32(cp);
        if (0xd800..0xdc00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let lo = self.parse_hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                c = char::from_u32(0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00));
            } else {
                self.pos = resume;
            }
        }
        Ok(c.unwrap_or('\u{fffd}'))
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string (RFC 8259 escaping:
/// `"`, `\`, and control characters, with the short forms for `\n`,
/// `\r` and `\t`). Runs between characters that need escaping are
/// copied as slices; every such character is ASCII, so each run ends on
/// a char boundary.
pub fn push_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Escapes and quotes a string for JSON (see [`push_string`]).
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_string(&mut out, s);
    out
}

/// Formats a float as a JSON number (`null` for NaN/±∞, which JSON
/// cannot represent). Rust's shortest round-trip formatting.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an `Option<f64>` (`None` → `null`).
pub fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// Formats an optional string (`None` → `null`).
pub fn json_opt_string(v: Option<&str>) -> String {
    match v {
        Some(s) => json_string(s),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_basic_values() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(parse(r#""a\"bA\n""#), Ok(Json::Str("a\"bA\n".to_string())));
        assert_eq!(
            parse(r#"[1, {"k": "v"}, []]"#),
            Ok(Json::Arr(vec![
                Json::Num(1.0),
                Json::Obj(vec![("k".to_string(), Json::Str("v".to_string()))]),
                Json::Arr(vec![]),
            ]))
        );
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1] x").is_err());
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        assert_eq!(parse(r#""😀""#), Ok(Json::Str("😀".to_string())));
    }

    #[test]
    fn string_errors_report_their_position() {
        assert_eq!(
            parse(r#""abc"#),
            Err("unterminated string at byte 4".into())
        );
        assert_eq!(parse(r#""a\q""#), Err("invalid escape at byte 3".into()));
        assert_eq!(parse(r#""a\"#), Err("invalid escape at byte 3".into()));
        assert_eq!(
            parse(r#""\u12zz""#),
            Err("invalid \\u escape at byte 3".into())
        );
        assert_eq!(
            parse(r#""\u12"#),
            Err("truncated \\u escape at byte 3".into())
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_escape() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}\t\r"), "\"\\u0001\\t\\r\"");
        assert_eq!(json_string("é—😀\u{7f}"), "\"é—😀\u{7f}\"");
        let mut out = String::from("[");
        push_string(&mut out, "x\"");
        assert_eq!(out, "[\"x\\\"\"");
    }

    #[test]
    fn floats_round_trip() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_f64(Some(2.0)), "2");
        assert_eq!(json_opt_string(None), "null");
        assert_eq!(json_opt_string(Some("a\"b")), "\"a\\\"b\"");
    }
}
