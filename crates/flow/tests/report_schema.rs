//! Golden test pinning the `FlowReport` JSON schema.
//!
//! Downstream consumers (dashboards, the batch driver's JSONL output,
//! future server endpoints) key on these field names and units. If this
//! test fails, you are changing the public data contract: bump it
//! consciously, updating README's batch walkthrough alongside.

use tr_flow::{
    DegradeEvent, DelayReport, FlowReport, GateReport, PerfReport, PowerReport, SimSummary,
    StageTimings,
};

/// A fully-populated report with hand-picked values (no floats that
/// format differently across platforms; Rust's shortest-round-trip
/// float formatting is deterministic for these).
fn sample_report() -> FlowReport {
    FlowReport {
        circuit: "c17".into(),
        scenario: "A#42".into(),
        gates: 6,
        inputs: 5,
        outputs: 2,
        depth: 3,
        objective: "min".into(),
        delay_bound: "none".into(),
        prob_mode: "indep".into(),
        degraded: true,
        degrade_reason: Some("bdd interrupted (deadline) after 50 ms and 4096 work units".into()),
        degrade_rung: Some("independent-fallback".into()),
        degrade_events: vec![
            DegradeEvent {
                rung: "info-reorder-retry".into(),
                phase: "stats".into(),
                elapsed_ms: 50.5,
            },
            DegradeEvent {
                rung: "independent-fallback".into(),
                phase: "stats".into(),
                elapsed_ms: 61.25,
            },
        ],
        independence_error: None,
        partition_regions: Some(11),
        max_cut_width: Some(24),
        partition_error_bound: Some(0.5),
        changed_gates: 2,
        fixpoint_iters: Some(2),
        repropagations: 1,
        stale_power_discrepancy_w: Some(0.0),
        power: PowerReport {
            model_before_w: 4.5e-7,
            model_after_w: 4.0e-7,
            reduction_percent: 11.125,
            model_best_w: Some(4.0e-7),
            model_worst_w: Some(5.0e-7),
            headroom_percent: Some(20.0),
        },
        delay: DelayReport {
            critical_path_before_s: 5.0e-10,
            critical_path_after_s: 5.5e-10,
            increase_percent: 10.0,
        },
        sim: Some(SimSummary {
            duration_s: 0.0004,
            warmup_s: 0.00004,
            seed: 20817,
            baseline_w: None,
            optimized_w: 5.25e-7,
            best_w: Some(5.25e-7),
            worst_w: Some(6.0e-7),
            reduction_percent: Some(12.5),
        }),
        per_gate: Some(vec![GateReport {
            gate: "n10".into(),
            cell: "nand2".into(),
            config_before: 0,
            config_after: 1,
            power_w: 2.5e-8,
        }]),
        perf: PerfReport {
            peak_live_nodes: Some(4096),
            cache_hit_rate: Some(0.75),
            region_utilization: Some(1.0),
        },
        timings: StageTimings {
            load_s: 0.001,
            stats_s: 0.0005,
            optimize_s: 0.25,
            timing_s: 0.002,
            sim_s: 1.5,
            write_s: 0.0,
            total_s: 1.7535,
        },
    }
}

/// The pinned JSON serialization, byte for byte.
const GOLDEN_JSON: &str = concat!(
    "{\"circuit\":\"c17\",\"scenario\":\"A#42\",\"gates\":6,\"inputs\":5,\"outputs\":2,",
    "\"depth\":3,\"objective\":\"min\",\"delay_bound\":\"none\",\"prob_mode\":\"indep\",",
    "\"degraded\":true,",
    "\"degrade_reason\":\"bdd interrupted (deadline) after 50 ms and 4096 work units\",",
    "\"degrade_rung\":\"independent-fallback\",",
    "\"degrade_events\":[",
    "{\"rung\":\"info-reorder-retry\",\"phase\":\"stats\"},",
    "{\"rung\":\"independent-fallback\",\"phase\":\"stats\"}],",
    "\"independence_error\":null,\"partition_regions\":11,\"max_cut_width\":24,",
    "\"partition_error_bound\":0.5,\"changed_gates\":2,",
    "\"fixpoint_iters\":2,\"repropagations\":1,\"stale_power_discrepancy_w\":0,",
    "\"power\":{\"model_before_w\":0.00000045,\"model_after_w\":0.0000004,",
    "\"reduction_percent\":11.125,\"model_best_w\":0.0000004,\"model_worst_w\":0.0000005,",
    "\"headroom_percent\":20},",
    "\"delay\":{\"critical_path_before_s\":0.0000000005,",
    "\"critical_path_after_s\":0.00000000055,\"increase_percent\":10},",
    "\"sim\":{\"duration_s\":0.0004,\"warmup_s\":0.00004,\"seed\":20817,",
    "\"baseline_w\":null,\"optimized_w\":0.000000525,\"best_w\":0.000000525,",
    "\"worst_w\":0.0000006,\"reduction_percent\":12.5},",
    "\"per_gate\":[{\"gate\":\"n10\",\"cell\":\"nand2\",\"config_before\":0,",
    "\"config_after\":1,\"power_w\":0.000000025}],",
    "\"perf\":{\"peak_live_nodes\":4096,\"cache_hit_rate\":0.75,\"region_utilization\":1},",
    "\"timings\":{\"load_s\":0.001,\"stats_s\":0.0005,\"optimize_s\":0.25,",
    "\"timing_s\":0.002,\"sim_s\":1.5,\"write_s\":0,\"total_s\":1.7535,",
    "\"degrade_ms\":[50.5,61.25]}}",
);

#[test]
fn json_schema_is_pinned() {
    assert_eq!(sample_report().to_json(), GOLDEN_JSON);
}

#[test]
fn json_nulls_for_absent_sections() {
    let mut report = sample_report();
    report.sim = None;
    report.per_gate = None;
    report.power.model_best_w = None;
    report.power.model_worst_w = None;
    report.power.headroom_percent = None;
    let json = report.to_json();
    assert!(json.contains("\"sim\":null"));
    assert!(json.contains("\"per_gate\":null"));
    assert!(json.contains("\"model_best_w\":null"));
}

/// The CSV header is part of the same contract.
#[test]
fn csv_header_is_pinned() {
    assert_eq!(
        FlowReport::csv_header(),
        "circuit,scenario,gates,inputs,outputs,depth,objective,delay_bound,prob_mode,\
         degraded,degrade_reason,degrade_rung,degrade_events,\
         independence_error,partition_regions,max_cut_width,partition_error_bound,\
         changed_gates,\
         fixpoint_iters,repropagations,stale_power_discrepancy_w,\
         model_before_w,model_after_w,reduction_percent,model_best_w,model_worst_w,\
         headroom_percent,critical_path_before_s,critical_path_after_s,delay_increase_percent,\
         sim_duration_s,sim_baseline_w,sim_optimized_w,sim_best_w,sim_worst_w,\
         sim_reduction_percent,peak_live_nodes,cache_hit_rate,region_utilization,\
         load_s,stats_s,optimize_s,timing_s,sim_s,write_s,total_s"
    );
}

/// A real end-to-end run emits exactly the pinned fields (values vary;
/// the key set must not).
#[test]
fn live_report_matches_the_schema_key_set() {
    let env = tr_flow::FlowEnv::new();
    let circuit = tr_netlist::generators::ripple_carry_adder(2, &env.library);
    let report = tr_flow::Flow::from_circuit(circuit)
        .per_gate(true)
        .run(&env)
        .expect("flow runs");
    let live = report.to_json();
    for key in [
        "\"circuit\":",
        "\"scenario\":",
        "\"gates\":",
        "\"inputs\":",
        "\"outputs\":",
        "\"depth\":",
        "\"objective\":",
        "\"delay_bound\":",
        "\"prob_mode\":",
        "\"degraded\":",
        "\"degrade_reason\":",
        "\"degrade_rung\":",
        "\"degrade_events\":",
        "\"independence_error\":",
        "\"partition_regions\":",
        "\"max_cut_width\":",
        "\"partition_error_bound\":",
        "\"changed_gates\":",
        "\"fixpoint_iters\":",
        "\"repropagations\":",
        "\"stale_power_discrepancy_w\":",
        "\"power\":",
        "\"model_before_w\":",
        "\"model_after_w\":",
        "\"reduction_percent\":",
        "\"model_best_w\":",
        "\"model_worst_w\":",
        "\"headroom_percent\":",
        "\"delay\":",
        "\"critical_path_before_s\":",
        "\"critical_path_after_s\":",
        "\"increase_percent\":",
        "\"sim\":",
        "\"per_gate\":",
        "\"config_before\":",
        "\"config_after\":",
        "\"power_w\":",
        "\"perf\":",
        "\"peak_live_nodes\":",
        "\"cache_hit_rate\":",
        "\"region_utilization\":",
        "\"timings\":",
        "\"load_s\":",
        "\"stats_s\":",
        "\"optimize_s\":",
        "\"timing_s\":",
        "\"sim_s\":",
        "\"write_s\":",
        "\"total_s\":",
        "\"degrade_ms\":",
    ] {
        assert!(live.contains(key), "missing {key} in {live}");
    }
}
