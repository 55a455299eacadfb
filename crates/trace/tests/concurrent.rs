//! Multi-threaded property test: concurrent span emission from a pool of
//! worker threads must never interleave corruptly — the merged trace stays
//! valid JSON with balanced `B`/`E` per tid, monotone per-thread timestamps,
//! and exactly the spans each worker emitted, on that worker's own tid.
//!
//! The tracer is a process-wide singleton, so the whole property runs inside
//! one `#[test]` (proptest drives the cases sequentially).
#![cfg(feature = "trace")]

use proptest::prelude::*;
use tr_trace::json::Json;
use tr_trace::summary::fold;

fn worker(id: usize, spans: usize, depth: usize) {
    tr_trace::set_thread_name(&format!("worker-{id}"));
    for s in 0..spans {
        let _outer = tr_trace::span!("work", worker = id, item = s);
        for d in 0..depth {
            let _inner = tr_trace::span!("step", level = d);
            std::hint::black_box(d);
        }
        tr_trace::counter!("items_done", s + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn concurrent_span_emission_stays_well_formed(
        threads in 2usize..6,
        spans in 1usize..8,
        depth in 0usize..4,
    ) {
        tr_trace::reset();
        tr_trace::enable();
        let handles: Vec<_> = (0..threads)
            .map(|id| std::thread::spawn(move || worker(id, spans, depth)))
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        tr_trace::disable();

        let json = tr_trace::chrome_trace_json();
        // fold() is the oracle: parses, checks balance and monotonicity.
        let summary = fold(&json).unwrap_or_else(|e| panic!("corrupt trace: {e}"));

        let work = summary.spans.iter().find(|s| s.name == "work");
        prop_assert_eq!(work.map(|s| s.count), Some((threads * spans) as u64));
        let steps = summary.spans.iter().find(|s| s.name == "step");
        prop_assert_eq!(
            steps.map_or(0, |s| s.count),
            (threads * spans * depth) as u64
        );

        // Each worker's spans sit on its own tid: as many distinct tids carry
        // "work" B events as there were threads, and each tid carries exactly
        // `spans` of them.
        let root = tr_trace::json::parse(&json).unwrap();
        let events = root.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut per_tid: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in events {
            if e.get("name").and_then(Json::as_str) == Some("work")
                && e.get("ph").and_then(Json::as_str) == Some("B")
            {
                *per_tid.entry(e.get("tid").and_then(Json::as_u64).unwrap()).or_default() += 1;
            }
        }
        prop_assert_eq!(per_tid.len(), threads);
        prop_assert!(per_tid.values().all(|&n| n == spans as u64));
    }
}
