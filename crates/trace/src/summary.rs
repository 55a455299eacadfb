//! Offline trace analysis: a folder that turns a Chrome trace-event file
//! (read with [`crate::json`]) into a per-span-name self-profile while
//! validating its shape — valid JSON, balanced `B`/`E` pairs per thread,
//! monotone per-thread timestamps.
//!
//! Available without the `trace` feature: analysis of an existing trace file
//! never needs the runtime tracer.

use std::collections::BTreeMap;

use crate::json::{parse, Json};

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
