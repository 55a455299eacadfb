//! `tr-trace`: structured tracing and metrics for the transistor-reordering
//! workspace, hand-rolled to match the vendored-shim convention (no crates.io
//! dependencies).
//!
//! Three pieces:
//!
//! * a **span-based tracer** — thread-local event buffers over a shared
//!   monotonic clock, merged at flush into [Chrome trace-event JSON] that
//!   Perfetto and `chrome://tracing` load directly ([`span!`], [`counter!`],
//!   [`instant!`], [`write_chrome_trace`]);
//! * a **metrics registry** ([`metrics`]) — named atomic counters, gauges,
//!   and log₂-bucketed latency histograms with quantile extraction, designed
//!   to back a future `tr-serve` `/metrics` endpoint;
//! * an **offline analyzer** ([`summary`]) — a folder that turns a trace
//!   file into a per-span-name self-profile (count, total, mean, p99) and
//!   validates its shape.
//!
//! Under all three sits the workspace's one JSON codec ([`json`]): the
//! parser the analyzer and `tr-serve`'s request decoder read with, and
//! the string/number writers every report, trace and response uses.
//!
//! # Cost model
//!
//! Recording is double-gated. The `trace` cargo feature gates compilation:
//! without it [`is_enabled`] is a constant `false` and every call site folds
//! away. With the feature on (the workspace default), a relaxed atomic load
//! gates each site at runtime, so an idle tracer costs one predictable branch
//! per instrumentation point — a CI bench gate holds this under 3% on the
//! hottest propagation path. Each thread owns its buffer behind an
//! uncontended mutex; the only cross-thread locking happens at flush.
//!
//! [Chrome trace-event JSON]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

pub mod json;
pub mod metrics;
pub mod summary;

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Typed value attached to a span or instant event, rendered into the
/// event's `args` object. Constructed via `From` in the [`span!`] macro.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (also the target of `usize`/`u32` conversions).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values render as `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::I64(i64::from(v))
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One recorded trace event. `ph` follows the Chrome trace-event phase
/// letters: `B`/`E` span begin/end, `C` counter, `i` instant.
#[derive(Clone, Debug)]
struct Event {
    name: Cow<'static, str>,
    ph: char,
    ts_us: u64,
    tid: u64,
    /// Counter payload, meaningful only when `ph == 'C'`.
    value: f64,
    args: Vec<(&'static str, ArgValue)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every thread's buffer, registered on first use so flush can reach buffers
/// of threads that have since exited (the `Arc` keeps them alive).
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Event>>>>> = Mutex::new(Vec::new());
static THREAD_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

struct Local {
    tid: u64,
    buf: Arc<Mutex<Vec<Event>>>,
}

thread_local! {
    static LOCAL: Local = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS
            .lock()
            .expect("trace buffer registry poisoned")
            .push(Arc::clone(&buf));
        Local { tid, buf }
    };
}

/// Whether events are being recorded right now. A constant `false` when the
/// `trace` feature is compiled out, so guarded call sites fold away entirely.
#[inline(always)]
pub fn is_enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Turns recording on and pins the clock epoch. With the `trace` feature
/// compiled out this still flips the flag, but [`is_enabled`] stays `false`
/// and nothing is recorded.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-buffered events are kept until
/// [`chrome_trace_json`] drains them or [`reset`] discards them.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discards all buffered events and thread names without writing them.
pub fn reset() {
    for buf in BUFFERS
        .lock()
        .expect("trace buffer registry poisoned")
        .iter()
    {
        buf.lock().expect("trace buffer poisoned").clear();
    }
    THREAD_NAMES
        .lock()
        .expect("thread-name registry poisoned")
        .clear();
}

/// Microseconds since the tracer epoch (pinned at [`enable`] or first use).
fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn current_tid() -> u64 {
    LOCAL.with(|l| l.tid)
}

fn push(ev: Event) {
    // Owner-only push: the mutex is uncontended except while a flush on
    // another thread briefly holds it.
    LOCAL.with(|l| l.buf.lock().expect("trace buffer poisoned").push(ev));
}

/// Labels the calling thread in the trace timeline (a `thread_name`
/// metadata event). No-op while recording is off.
pub fn set_thread_name(name: &str) {
    if !is_enabled() {
        return;
    }
    let tid = current_tid();
    let mut names = THREAD_NAMES.lock().expect("thread-name registry poisoned");
    if let Some(slot) = names.iter_mut().find(|(t, _)| *t == tid) {
        slot.1 = name.to_string();
    } else {
        names.push((tid, name.to_string()));
    }
}

/// RAII guard for an open span: emits the matching `E` event on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Close unconditionally (not gated on `is_enabled`) so a span whose
        // `B` was recorded stays balanced even if tracing is disabled while
        // it is open.
        push(Event {
            name: Cow::Borrowed(self.name),
            ph: 'E',
            ts_us: now_us(),
            tid: current_tid(),
            value: 0.0,
            args: Vec::new(),
        });
    }
}

/// Opens a span; prefer the [`span!`] macro. Returns `None` (and records
/// nothing) while recording is off.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    span_with(name, Vec::new())
}

/// Opens a span with arguments attached to its `B` event.
pub fn span_with(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> Option<SpanGuard> {
    if !is_enabled() {
        return None;
    }
    push(Event {
        name: Cow::Borrowed(name),
        ph: 'B',
        ts_us: now_us(),
        tid: current_tid(),
        value: 0.0,
        args,
    });
    Some(SpanGuard { name })
}

/// Records a counter sample (`ph: C`) — a named time series in the viewer.
pub fn counter(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    push(Event {
        name: Cow::Borrowed(name),
        ph: 'C',
        ts_us: now_us(),
        tid: current_tid(),
        value,
        args: Vec::new(),
    });
}

/// Records an instant event (`ph: i`) — a zero-duration mark.
pub fn instant(name: &'static str) {
    instant_with(name, Vec::new());
}

/// Records an instant event with arguments.
pub fn instant_with(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !is_enabled() {
        return;
    }
    push(Event {
        name: Cow::Borrowed(name),
        ph: 'i',
        ts_us: now_us(),
        tid: current_tid(),
        value: 0.0,
        args,
    });
}

/// Opens a span bound to the enclosing scope.
///
/// ```
/// let _g = tr_trace::span!("bdd.build");
/// let _g = tr_trace::span!("part.region", id = 3usize, cut = 7usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::span_with(
                $name,
                vec![$((stringify!($key), $crate::ArgValue::from($val))),+],
            )
        } else {
            None
        }
    };
}

/// Records a counter sample: `tr_trace::counter!("bdd.live", live)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $value:expr) => {
        $crate::counter($name, $value as f64)
    };
}

/// Records an instant mark, optionally with arguments.
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::instant($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::instant_with(
                $name,
                vec![$((stringify!($key), $crate::ArgValue::from($val))),+],
            )
        }
    };
}

fn write_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(x) => out.push_str(&json::json_f64(*x)),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => json::push_string(out, s),
    }
}

/// Drains every thread's buffer and merges by timestamp. The sort is stable,
/// so each thread's own push order (e.g. `B` before `E` at equal `ts`) is
/// preserved.
fn drain_events() -> Vec<Event> {
    let mut all = Vec::new();
    for buf in BUFFERS
        .lock()
        .expect("trace buffer registry poisoned")
        .iter()
    {
        all.append(&mut buf.lock().expect("trace buffer poisoned"));
    }
    all.sort_by_key(|e| e.ts_us);
    all
}

/// Serializes (and drains) all buffered events as a Chrome trace-event JSON
/// document: `{"traceEvents": [...]}` with `thread_name` metadata first.
pub fn chrome_trace_json() -> String {
    let events = drain_events();
    let names: Vec<(u64, String)> = THREAD_NAMES
        .lock()
        .expect("thread-name registry poisoned")
        .drain(..)
        .collect();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in &names {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        ));
        json::push_string(&mut out, name);
        out.push_str("}}");
    }
    for ev in &events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":");
        json::push_string(&mut out, &ev.name);
        out.push_str(&format!(
            ",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            ev.ph, ev.tid, ev.ts_us
        ));
        if ev.ph == 'C' {
            out.push_str(",\"args\":{\"value\":");
            write_arg_value(&mut out, &ArgValue::F64(ev.value));
            out.push('}');
        } else if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, k);
                out.push(':');
                write_arg_value(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Writes (and drains) the buffered trace to `path` as Chrome trace JSON.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_conversions() {
        assert_eq!(ArgValue::from(3usize), ArgValue::U64(3));
        assert_eq!(ArgValue::from(-2i32), ArgValue::I64(-2));
        assert_eq!(ArgValue::from(0.5f64), ArgValue::F64(0.5));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".to_string()));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_feature_records_nothing() {
        enable();
        assert!(!is_enabled());
        let g = span("never");
        assert!(g.is_none());
        counter("never", 1.0);
        assert!(!chrome_trace_json().contains("never"));
        disable();
    }
}
