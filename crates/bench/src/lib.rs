//! Shared experiment-harness machinery for the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_motivation` | Table 1(b) + Fig. 1(a) |
//! | `table2_library` | Table 2 |
//! | `figure5_exploration` | Fig. 5 |
//! | `table3_benchmarks` | Table 3 + Fig. 6 scenarios |
//! | `ablation_model` | model ablations (ours) |
//! | `independence_error` | exact-vs-independent statistics table (ours, via `tr-bdd`) |
//!
//! Since PR 3 the pipeline itself lives in `tr-flow`: the [`Harness`] is
//! `tr_flow::FlowEnv` under its historical name, and [`table3_row`] is a
//! thin adapter from a [`tr_flow::FlowReport`] to the paper's Table 3
//! columns. This library keeps the table renderers and the JSON artifact
//! writers so they can be unit-tested and reused by the Criterion
//! benches.

#![forbid(unsafe_code)]

use tr_boolean::SignalStats;
use tr_flow::{DurationPolicy, Flow, SimOptions};
use tr_netlist::Circuit;
use tr_power::scenario::Scenario;
use tr_trace::json::{json_f64, json_string};

/// Everything the experiments need, constructed once. The historical
/// name of [`tr_flow::FlowEnv`] — same fields, same construction.
pub use tr_flow::FlowEnv as Harness;

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Gate count (paper column G).
    pub gates: usize,
    /// Model-estimated reduction, best vs worst, percent (column M).
    pub model_reduction: f64,
    /// Switch-level simulated reduction, best vs worst, percent (column S).
    pub sim_reduction: f64,
    /// Delay increase of the best-power netlist vs the original mapping,
    /// percent (column D).
    pub delay_increase: f64,
    /// Simulated power of the best netlist (W) — extra diagnostics.
    pub sim_power_best: f64,
    /// Simulated power of the worst netlist (W).
    pub sim_power_worst: f64,
}

impl Table3Row {
    /// Serializes the row as a JSON object (no external serializer in the
    /// offline build environment, so this is hand-rolled via
    /// [`tr_trace::json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"gates\":{},\"model_reduction\":{},",
                "\"sim_reduction\":{},\"delay_increase\":{},",
                "\"sim_power_best\":{},\"sim_power_worst\":{}}}"
            ),
            json_string(&self.name),
            self.gates,
            json_f64(self.model_reduction),
            json_f64(self.sim_reduction),
            json_f64(self.delay_increase),
            json_f64(self.sim_power_best),
            json_f64(self.sim_power_worst),
        )
    }
}

/// Serializes scenario-keyed rows as pretty-printed JSON.
pub fn table3_json(results: &std::collections::BTreeMap<String, Vec<Table3Row>>) -> String {
    let mut out = String::from("{\n");
    for (i, (label, rows)) in results.iter().enumerate() {
        out.push_str(&format!("  {}: [\n", json_string(label)));
        for (j, row) in rows.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&row.to_json());
            out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str(if i + 1 < results.len() {
            "  ],\n"
        } else {
            "  ]\n"
        });
    }
    out.push('}');
    out
}

/// Simulation length heuristics: long enough for each input to toggle a
/// few thousand times, bounded so the whole suite stays laptop-scale.
/// (The policy itself lives in [`tr_flow::sim_duration`].)
pub fn sim_duration(stats: &[SignalStats], quick: bool) -> f64 {
    tr_flow::sim_duration(stats, if quick { 400.0 } else { 2000.0 })
}

/// Computes one Table 3 row by running the standard flow — optimize for
/// best and worst power, measure both with the switch-level simulator,
/// compare delays — and projecting the report onto the paper's columns.
pub fn table3_row(
    harness: &Harness,
    name: &str,
    circuit: &Circuit,
    scenario: Scenario,
    seed: u64,
    quick: bool,
) -> Table3Row {
    let report = Flow::from_circuit(circuit.clone())
        .scenario(scenario, seed)
        .simulate(SimOptions {
            duration: DurationPolicy::Auto {
                target_toggles: if quick { 400.0 } else { 2000.0 },
            },
            warmup_frac: 0.1,
            seed: seed ^ 0x5151,
            baseline: false,
        })
        .run(harness)
        .expect("in-memory suite circuits always flow");
    let sim = report.sim.expect("simulation was requested");
    Table3Row {
        name: name.to_string(),
        gates: report.gates,
        model_reduction: report
            .power
            .headroom_percent
            .expect("headroom pass is on by default"),
        sim_reduction: sim.reduction_percent.expect("worst ordering was simulated"),
        delay_increase: report.delay.increase_percent,
        sim_power_best: sim.optimized_w,
        sim_power_worst: sim.worst_w.expect("worst ordering was simulated"),
    }
}

/// Formats rows as the paper-style text table, with averages.
pub fn render_table3(scenario_name: &str, rows: &[Table3Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Scenario {scenario_name}:");
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>8} {:>8} {:>8}",
        "circuit", "G", "M%", "S%", "D%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>8.1} {:>8.1} {:>8.1}",
            r.name, r.gates, r.model_reduction, r.sim_reduction, r.delay_increase
        );
    }
    let n = rows.len().max(1) as f64;
    let avg_m: f64 = rows.iter().map(|r| r.model_reduction).sum::<f64>() / n;
    let avg_s: f64 = rows.iter().map(|r| r.sim_reduction).sum::<f64>() / n;
    let avg_d: f64 = rows.iter().map(|r| r.delay_increase).sum::<f64>() / n;
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>8.1} {:>8.1} {:>8.1}   (averages)",
        "AVG", "", avg_m, avg_s, avg_d
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_netlist::generators;

    #[test]
    fn table3_row_on_small_circuit() {
        let h = Harness::new();
        let c = generators::ripple_carry_adder(4, &h.library);
        let row = table3_row(&h, "rca4", &c, Scenario::a(), 3, true);
        assert_eq!(row.gates, c.gates().len());
        // Model headroom must exist and simulation must agree on the sign.
        assert!(row.model_reduction > 0.0);
        assert!(row.sim_power_worst > 0.0);
        assert!(
            row.sim_reduction > -5.0,
            "simulator strongly disagrees: {row:?}"
        );
    }

    #[test]
    fn table3_row_equals_direct_pipeline() {
        // The flow-based row must reproduce the hand-rolled pipeline it
        // replaced, float for float.
        let h = Harness::new();
        let c = generators::parity_tree(8, &h.library);
        let seed = 11u64;
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), seed);
        let best = tr_reorder::optimize(
            &c,
            &h.library,
            &h.model,
            &stats,
            tr_reorder::Objective::MinimizePower,
        );
        let worst = tr_reorder::optimize(
            &c,
            &h.library,
            &h.model,
            &stats,
            tr_reorder::Objective::MaximizePower,
        );
        let duration = sim_duration(&stats, true);
        let config = tr_sim::SimConfig {
            duration,
            warmup: duration * 0.1,
            seed: seed ^ 0x5151,
        };
        let sim_best = tr_sim::simulate(
            &best.circuit,
            &h.library,
            &h.process,
            &h.timing,
            &stats,
            &config,
        );
        let sim_worst = tr_sim::simulate(
            &worst.circuit,
            &h.library,
            &h.process,
            &h.timing,
            &stats,
            &config,
        );
        let row = table3_row(&h, "parity8", &c, Scenario::a(), seed, true);
        assert_eq!(
            row.model_reduction,
            100.0 * (worst.power_after - best.power_after)
                / worst.power_after.max(f64::MIN_POSITIVE)
        );
        assert_eq!(row.sim_power_best, sim_best.power);
        assert_eq!(row.sim_power_worst, sim_worst.power);
        let d0 = tr_timing::critical_path_delay(&c, &h.timing);
        let d1 = tr_timing::critical_path_delay(&best.circuit, &h.timing);
        assert_eq!(
            row.delay_increase,
            100.0 * (d1 - d0) / d0.max(f64::MIN_POSITIVE)
        );
    }

    #[test]
    fn durations_are_sane() {
        let stats = vec![SignalStats::new(0.5, 1.0e6)];
        let d = sim_duration(&stats, false);
        assert!((1.0e-6..=1.0e-2).contains(&d));
        let dq = sim_duration(&stats, true);
        assert!(dq < d);
    }

    #[test]
    fn render_contains_averages() {
        let rows = vec![Table3Row {
            name: "x".into(),
            gates: 10,
            model_reduction: 5.0,
            sim_reduction: 7.0,
            delay_increase: 1.0,
            sim_power_best: 1.0,
            sim_power_worst: 2.0,
        }];
        let s = render_table3("A", &rows);
        assert!(s.contains("AVG"));
        assert!(s.contains('x'));
    }
}
