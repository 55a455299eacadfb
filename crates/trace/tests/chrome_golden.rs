//! Golden test for the Chrome trace-event JSON emitted by the tracer: the
//! document must parse, carry thread names, keep `B`/`E` balanced with
//! monotone per-thread timestamps, and survive its own validator.
//!
//! Runs single-threaded through the global tracer, so everything lives in
//! one `#[test]` (integration tests share a process).
#![cfg(feature = "trace")]

use tr_trace::json::{parse, Json};
use tr_trace::summary::fold;

#[test]
fn chrome_trace_shape() {
    tr_trace::reset();
    tr_trace::enable();
    tr_trace::set_thread_name("golden-main");

    {
        let _outer = tr_trace::span!("outer", gates = 12usize, mode = "part");
        for i in 0..3usize {
            let _inner = tr_trace::span!("inner", index = i);
            std::hint::black_box(i);
        }
        tr_trace::counter!("live_nodes", 42);
        tr_trace::instant!("checkpoint", phase = "stats");
    }

    tr_trace::disable();
    let json = tr_trace::chrome_trace_json();

    // Valid JSON with a traceEvents array.
    let root = parse(&json).expect("tracer must emit valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Metadata: the thread is named.
    let meta: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .collect();
    assert_eq!(meta.len(), 1);
    assert_eq!(
        meta[0]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str),
        Some("golden-main")
    );

    // Span args made it through with their types.
    let outer_b = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("outer")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        })
        .expect("outer B event");
    let args = outer_b.get("args").expect("outer args");
    assert_eq!(args.get("gates").and_then(Json::as_u64), Some(12));
    assert_eq!(args.get("mode").and_then(Json::as_str), Some("part"));

    // Every event carries pid/tid/ts (except M, which has no ts).
    for e in events {
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }

    // Balanced B/E, monotone timestamps — the validator is the oracle.
    let summary = fold(&json).expect("well-formed trace");
    // 4 B + 4 E + 1 C + 1 i.
    assert_eq!(summary.events, 10);
    let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
    assert_eq!(outer.count, 1);
    let inner = summary.spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(inner.count, 3);
    // Nesting: the outer span extends at least as far as its inners.
    assert!(outer.total_us >= inner.total_us);

    // The buffer drained: a second flush is empty.
    let empty = fold(&tr_trace::chrome_trace_json()).expect("empty trace still valid");
    assert_eq!(empty.events, 0);
}
