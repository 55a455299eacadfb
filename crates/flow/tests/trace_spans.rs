//! The self-profile attributes a file load to its parse and map
//! sub-stages and an in-memory load to its validate stage (a file's
//! circuit is validated once, by its parser or the mapper), and the
//! post-optimization statistics refresh records how many of its dirty
//! gates changed function (none, for the paper's reordering-only moves).
#![cfg(feature = "trace")]

use tr_flow::{Flow, FlowEnv, PropagationMode};
use tr_netlist::{bench, generators};
use tr_trace::json::{parse, Json};
use tr_trace::summary::{fold, SpanStat};

fn has(spans: &[SpanStat], name: &str) -> bool {
    spans.iter().any(|s| s.name == name)
}

#[test]
fn load_stages_and_refresh_filter_are_traced() {
    let env = FlowEnv::new();
    let dir = std::env::temp_dir().join(format!("tr-flow-trace-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("csel8.bench");
    std::fs::write(
        &netlist,
        bench::write(&generators::carry_select_adder_generic(8, 4)),
    )
    .expect("write netlist");
    let trace = dir.join("trace.json");
    let report = Flow::open(&netlist)
        .prob(PropagationMode::ExactBdd)
        .trace(&trace)
        .run(&env)
        .expect("flow runs");
    assert!(
        report.changed_gates > 0,
        "the optimizer must reorder something"
    );
    let json = std::fs::read_to_string(&trace).expect("trace written");

    let summary = fold(&json).expect("well-formed trace");
    for name in ["flow.load", "load.parse", "load.map", "prop.refresh"] {
        assert!(
            has(&summary.spans, name),
            "span {name} missing from the trace"
        );
    }
    assert!(
        !has(&summary.spans, "load.validate"),
        "a file's circuit comes back validated; the flow must not validate it again"
    );
    let root = parse(&json).expect("valid JSON");
    let refresh = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("prop.refresh")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        })
        .and_then(|e| e.get("args"))
        .expect("prop.refresh carries args");
    assert_eq!(
        refresh.get("dirty_gates").and_then(Json::as_u64),
        Some(report.changed_gates as u64)
    );
    assert_eq!(
        refresh.get("changed_function").and_then(Json::as_u64),
        Some(0),
        "reordering never changes a gate's function"
    );

    let in_memory = dir.join("in_memory.json");
    Flow::from_circuit(generators::carry_select_adder(8, 4, &env.library))
        .trace(&in_memory)
        .run(&env)
        .expect("flow runs");
    let json = std::fs::read_to_string(&in_memory).expect("trace written");
    std::fs::remove_dir_all(&dir).ok();
    let spans = fold(&json).expect("well-formed trace").spans;
    assert!(
        has(&spans, "load.validate"),
        "an in-memory circuit is validated"
    );
    assert!(!has(&spans, "load.parse") && !has(&spans, "load.map"));
}
