//! The benchmark's own span recorder for the traced pass.
//!
//! Spans wrap calls into the program's public functions from benchmark
//! code; the program itself is not instrumented. Spans are kept in
//! memory and folded at the end into self time per layer: a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    dur_s: f64,
    children_s: f64,
}

/// Records nested spans of one thread.
pub struct Tracer {
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span, if any).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            dur_s: 0.0,
            children_s: 0.0,
        });
        self.open.push(idx);
        let t = Instant::now();
        let out = f(self);
        let dur = t.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[idx].dur_s = dur;
        if let Some(&parent) = self.open.last() {
            self.spans[parent].children_s += dur;
        }
        out
    }

    /// Per layer name: (calls, total self time in seconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.dur_s - s.children_s).max(0.0);
        }
        out
    }

    /// Total self time of `name` in seconds (0 when it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |e| e.1)
    }

    /// Mean self time per call of `name` in milliseconds (0 when it
    /// never ran).
    pub fn per_call_ms(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |&(n, s)| 1.0e3 * s / n as f64)
    }

    /// Prints the self-time table to stderr.
    pub fn print_summary(&self) {
        eprintln!(
            "  {:<20} {:>8} {:>12} {:>12}",
            "span", "calls", "self_ms", "ms/call"
        );
        for (name, (n, s)) in self.self_times() {
            eprintln!(
                "  {name:<20} {n:>8} {:>12.3} {:>12.4}",
                1.0e3 * s,
                1.0e3 * s / n as f64
            );
        }
    }
}
