//! Offline trace analysis: a minimal JSON parser (the workspace has JSON
//! *writers* only) and a folder that turns a Chrome trace-event file into a
//! per-span-name self-profile while validating its shape — valid JSON,
//! balanced `B`/`E` pairs per thread, monotone per-thread timestamps.
//!
//! Available without the `trace` feature: analysis of an existing trace file
//! never needs the runtime tracer.

use std::collections::BTreeMap;

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
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // A high surrogate followed by an escaped low
                            // surrogate is one supplementary character;
                            // any other surrogate is unpaired and decodes
                            // to U+FFFD without swallowing what follows.
                            let mut c = char::from_u32(cp);
                            if (0xd800..0xdc00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let resume = self.pos;
                                self.pos += 2;
                                let lo = self.parse_hex4()?;
                                if (0xdc00..0xe000).contains(&lo) {
                                    c = char::from_u32(
                                        0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00),
                                    );
                                } else {
                                    self.pos = resume;
                                }
                            }
                            out.push(c.unwrap_or('\u{fffd}'));
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (strings are the only place
                    // multi-byte sequences can appear).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
        bytes: src.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(value)
}

/// Aggregate statistics for one span name.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Exact 99th-percentile duration (nearest-rank), µs.
    pub p99_us: u64,
}

/// A folded trace: total wall-clock extent plus per-span-name statistics.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// `max(ts) - min(ts)` over all non-metadata events, µs.
    pub wall_us: u64,
    /// Non-metadata events seen.
    pub events: usize,
    /// Per-name statistics sorted by `total_us` descending.
    pub spans: Vec<SpanStat>,
}

impl TraceSummary {
    /// Renders the self-profile as an aligned text table.
    pub fn render_table(&self) -> String {
        let name_w = self
            .spans
            .iter()
            .map(|s| s.name.len())
            .chain(std::iter::once("span".len()))
            .max()
            .unwrap_or(4);
        let mut out = format!(
            "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
            "span", "count", "total_us", "mean_us", "p99_us"
        );
        for s in &self.spans {
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>12}  {:>12.1}  {:>12}\n",
                s.name, s.count, s.total_us, s.mean_us, s.p99_us
            ));
        }
        out.push_str(&format!(
            "wall time: {} us over {} events\n",
            self.wall_us, self.events
        ));
        out
    }
}

/// Folds a Chrome trace-event JSON document into a [`TraceSummary`],
/// validating shape along the way: every event needs `ph`/`ts`/`tid`, `B`/`E`
/// must balance per thread with matching names, and per-thread timestamps
/// must be monotone. Returns a description of the first violation found.
pub fn fold(src: &str) -> Result<TraceSummary, String> {
    let root = parse(src)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing 'traceEvents' array".to_string())?;

    let mut stacks: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut durations: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    let mut counted = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing 'ph'"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing or negative 'ts'"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing 'tid'"))?;
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        counted += 1;
        min_ts = min_ts.min(ts);
        max_ts = max_ts.max(ts);
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamp {ts} < {prev} — not monotone on tid {tid}"
                ));
            }
        }
        last_ts.insert(tid, ts);

        match ph {
            "B" => stacks.entry(tid).or_default().push((name.to_string(), ts)),
            "E" => {
                let (open_name, open_ts) = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: 'E' with no open span on tid {tid}"))?;
                if !name.is_empty() && name != open_name {
                    return Err(format!(
                        "event {i}: 'E' for '{name}' closes open span '{open_name}' on tid {tid}"
                    ));
                }
                durations.entry(open_name).or_default().push(ts - open_ts);
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: 'X' without 'dur'"))?;
                max_ts = max_ts.max(ts + dur);
                durations.entry(name.to_string()).or_default().push(dur);
            }
            "C" | "i" | "I" => {}
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }

    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "unbalanced trace: span '{name}' still open on tid {tid} ({} open total)",
                stack.len()
            ));
        }
    }

    let mut spans: Vec<SpanStat> = durations
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            let count = durs.len() as u64;
            let total: u64 = durs.iter().sum();
            // Nearest-rank p99 over the exact durations (the registry
            // histograms bucket; here we have every sample).
            let rank = ((0.99 * count as f64).ceil() as usize).clamp(1, durs.len());
            SpanStat {
                name,
                count,
                total_us: total,
                mean_us: total as f64 / count as f64,
                p99_us: durs[rank - 1],
            }
        })
        .collect();
    spans.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));

    Ok(TraceSummary {
        wall_us: if counted == 0 { 0 } else { max_ts - min_ts },
        events: counted,
        spans,
    })
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
    fn fold_computes_per_span_stats() {
        let src = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
            {"name":"a","ph":"B","pid":1,"tid":1,"ts":0},
            {"name":"b","ph":"B","pid":1,"tid":1,"ts":10},
            {"name":"b","ph":"E","pid":1,"tid":1,"ts":40},
            {"name":"a","ph":"E","pid":1,"tid":1,"ts":100},
            {"name":"b","ph":"X","pid":1,"tid":2,"ts":50,"dur":20}
        ]}"#;
        let summary = fold(src).expect("valid trace");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.wall_us, 100);
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.spans[0].name, "a");
        assert_eq!(summary.spans[0].total_us, 100);
        assert_eq!(summary.spans[1].name, "b");
        assert_eq!(summary.spans[1].count, 2);
        assert_eq!(summary.spans[1].total_us, 50);
        assert_eq!(summary.spans[1].p99_us, 30);
    }

    #[test]
    fn fold_rejects_malformed_traces() {
        let unbalanced = r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":1,"ts":0}]}"#;
        assert!(fold(unbalanced).unwrap_err().contains("still open"));
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":1,"ts":0},
            {"name":"x","ph":"E","pid":1,"tid":1,"ts":5}
        ]}"#;
        assert!(fold(crossed).unwrap_err().contains("closes open span"));
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"i","pid":1,"tid":1,"ts":10},
            {"name":"b","ph":"i","pid":1,"tid":1,"ts":5}
        ]}"#;
        assert!(fold(backwards).unwrap_err().contains("not monotone"));
        let stray_end = r#"{"traceEvents":[{"name":"a","ph":"E","pid":1,"tid":1,"ts":0}]}"#;
        assert!(fold(stray_end).unwrap_err().contains("no open span"));
        assert!(fold("not json").is_err());
    }
}
