//! The self-profile attributes a file load to its parse and map
//! sub-stages and an in-memory load to its validate stage (a file's
//! circuit is validated once, by its parser or the mapper), and the
//! post-optimization statistics refresh records how many of its dirty
//! gates changed function (none, for the paper's reordering-only moves).
//! Every simulator run names how many gate configurations it solved and
//! how many events and transitions it processed. The statistics stage
//! spans every ladder attempt, failed ones included, in the order they
//! were tried, and the independence check of an exact backend.
#![cfg(feature = "trace")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use tr_flow::{Flow, FlowEnv, PropagationMode, RunBudget, SimOptions};
use tr_netlist::{bench, generators, suite};
use tr_power::scenario::Scenario;
use tr_trace::json::{parse, Json};
use tr_trace::summary::{fold, SpanStat};

/// The tracer is process-global: two traced runs at once would record
/// into (and drain) each other's buffers. A panicking test must not
/// wedge the rest, so poisoning is ignored.
fn tracer_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn has(spans: &[SpanStat], name: &str) -> bool {
    spans.iter().any(|s| s.name == name)
}

#[test]
fn load_stages_and_refresh_filter_are_traced() {
    let _guard = tracer_lock();
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

#[test]
fn simulator_runs_report_configs_events_and_transitions() {
    let _guard = tracer_lock();
    let env = FlowEnv::new();
    let dir = std::env::temp_dir().join(format!("tr-flow-trace-sim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("sim.json");
    let circuit = generators::carry_select_adder(8, 4, &env.library);
    let gates = circuit.gates().len() as u64;
    Flow::from_circuit(circuit)
        .simulate(SimOptions::quick(3))
        .trace(&trace)
        .run(&env)
        .expect("flow runs");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_dir_all(&dir).ok();

    let root = parse(&json).expect("valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let named = |name: &str, ph: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some(ph)
            })
            .filter_map(|e| e.get("args"))
            .collect()
    };
    let runs = named("sim.run", "B");
    assert!(!runs.is_empty(), "the flow simulates");
    for run in &runs {
        let configs = run.get("configs").and_then(Json::as_u64);
        assert!(
            configs.is_some_and(|c| (1..=gates).contains(&c)),
            "sim.run configs = {configs:?} for {gates} gates"
        );
    }
    let values = |name: &str| -> Vec<f64> {
        named(name, "C")
            .iter()
            .map(|a| a.get("value").and_then(Json::as_f64).expect("value"))
            .collect()
    };
    let (events, transitions) = (values("sim.events"), values("sim.transitions"));
    assert_eq!(events.len(), runs.len(), "one sim.events per run");
    assert_eq!(transitions.len(), runs.len(), "one sim.transitions per run");
    for (e, t) in events.iter().zip(&transitions) {
        // Every counted transition is one processed event; events also
        // cover the warm-up and commits that change nothing.
        assert!(*t > 0.0 && e >= t, "events {e}, transitions {t}");
    }
}

/// `(name, ph)`-matching events' args, in trace order.
fn args_of<'a>(events: &'a [Json], name: &str, ph: &str) -> Vec<&'a Json> {
    events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some(name)
                && e.get("ph").and_then(Json::as_str) == Some(ph)
        })
        .filter_map(|e| e.get("args"))
        .collect()
}

#[test]
fn every_ladder_attempt_and_the_independence_check_are_traced() {
    let _guard = tracer_lock();
    let env = FlowEnv::new();
    let dir = std::env::temp_dir().join(format!("tr-flow-trace-ladder-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("ladder.json");
    let rnd_e = suite::standard_suite(&env.library)
        .into_iter()
        .find(|c| c.name == "rnd_e")
        .expect("rnd_e registered in the suite")
        .circuit;
    let attempt = |rung: &str, mode: &str| (rung.to_string(), mode.to_string());
    let cases = [
        // Too few nodes under any order: the exact build, its
        // information-order retry, then the fallback.
        (
            generators::ripple_carry_adder(8, &env.library),
            PropagationMode::ExactBdd,
            4,
            vec![
                attempt("requested", "bdd"),
                attempt("info-reorder-retry", "bdd"),
                attempt("independent-fallback", "indep"),
            ],
        ),
        // Dense random logic blows every region budget: the partitioned
        // build, three halvings, then the fallback.
        (
            rnd_e,
            PropagationMode::partitioned(),
            1000,
            vec![
                attempt("requested", "part"),
                attempt("shrink-regions", "part"),
                attempt("shrink-regions", "part"),
                attempt("shrink-regions", "part"),
                attempt("independent-fallback", "indep"),
            ],
        ),
    ];
    for (circuit, mode, nodes, want) in cases {
        let report = Flow::from_circuit(circuit)
            .scenario(Scenario::a(), 1)
            .prob(mode)
            .budget(RunBudget::default().bdd_nodes(nodes))
            .trace(&trace)
            .run(&env)
            .expect("the ladder lands the run");
        assert_eq!(report.degrade_rung.as_deref(), Some("independent-fallback"));
        let json = std::fs::read_to_string(&trace).expect("trace written");
        let root = parse(&json).expect("valid JSON");
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let got: Vec<(String, String)> = args_of(events, "stats.attempt", "B")
            .iter()
            .map(|a| {
                let arg = |k: &str| a.get(k).and_then(Json::as_str).expect(k).to_string();
                (arg("rung"), arg("mode"))
            })
            .collect();
        assert_eq!(got, want, "{mode}: one stats.attempt per rung, in order");
        assert!(
            args_of(events, "stats.independence", "B").is_empty(),
            "{mode}: an independent fallback has nothing to compare against"
        );
    }

    Flow::from_circuit(generators::ripple_carry_adder(8, &env.library))
        .prob(PropagationMode::ExactBdd)
        .trace(&trace)
        .run(&env)
        .expect("flow runs");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_dir_all(&dir).ok();
    let spans = fold(&json).expect("well-formed trace").spans;
    let count = |name: &str| spans.iter().find(|s| s.name == name).map_or(0, |s| s.count);
    assert_eq!(count("stats.attempt"), 1, "the requested build lands");
    assert_eq!(count("stats.independence"), 1);
}
