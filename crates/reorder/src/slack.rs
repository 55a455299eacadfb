//! Slack-aware delay-constrained optimization ([`crate::Bound::Slack`]).
//!
//! [`crate::Bound::Local`] is *local*: no gate may get slower than its
//! own current configuration. That is safe but pessimistic —
//! off-critical gates usually have timing slack to spend on cheaper
//! orderings. This module implements the global version of the paper's
//! §6 future-work direction (b): minimize power subject to the circuit's
//! critical path not exceeding its original value.
//!
//! Method: compute required arrival times against the original netlist's
//! critical delay, then walk the gates in topological order, giving each
//! gate the cheapest configuration whose (updated) output arrival still
//! meets its required time. Keeping the original configuration always
//! meets it, so the pass is total, and by induction the final critical
//! path never exceeds the budget.

use crate::{gather_inputs, optimize_with, Bound, OptimizeOptions, Pass};
use tr_boolean::govern::Interrupted;
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::Circuit;
use tr_power::{circuit_power, propagate, PowerModel, Scratch, MAX_CELL_ARITY};
use tr_timing::TimingModel;

/// The slack-aware pass's selection for every gate, indexed like
/// `pass.compiled.gates()`: the cheapest configuration whose output
/// arrival (over the configurations already committed upstream) meets
/// the gate's required time against the original critical delay.
pub(crate) fn choices(
    circuit: &Circuit,
    pass: &Pass,
    timing: &TimingModel,
    scratch: &mut Scratch,
) -> Result<Vec<usize>, Interrupted> {
    let Pass {
        compiled,
        model,
        net_stats,
        loads,
        options,
    } = *pass;
    let gates = compiled.gates();
    let order = compiled.order();
    let delay = |g: usize, c: usize, pin: usize| {
        timing.gate_delay_by_id(gates[g].cell, c, pin, loads[gates[g].output.0])
    };

    // The timing budget: the original critical delay.
    let budget = tr_timing::arrival_times(circuit, timing)
        .into_iter()
        .fold(0.0, f64::max);

    // Required times against original gate delays, in reverse topo order.
    let mut required: Vec<f64> = vec![budget; compiled.net_count()];
    for gid in order.iter().rev() {
        let gate = &gates[gid.0];
        for (pin, net) in compiled.inputs(gate).iter().enumerate() {
            let need = required[gate.output.0] - delay(gid.0, gate.config as usize, pin);
            if need < required[net.0] {
                required[net.0] = need;
            }
        }
    }

    // Forward pass: cheapest configuration meeting the required time.
    // Undriven nets (primary inputs) arrive at 0; every driven net is
    // committed before its readers (topological order).
    let eps = budget * 1e-12;
    let mut arrival = vec![0.0f64; compiled.net_count()];
    let mut choices = vec![0usize; gates.len()];
    let mut buf = [SignalStats::constant(false); MAX_CELL_ARITY];
    for gid in order {
        if let Some(g) = options.governor {
            g.check("optimize")?;
        }
        let gate = &gates[gid.0];
        let nets = compiled.inputs(gate);
        let arrival_with = |c: usize| {
            nets.iter()
                .enumerate()
                .map(|(pin, net)| arrival[net.0] + delay(gid.0, c, pin))
                .fold(0.0f64, f64::max)
        };
        gather_inputs(compiled, gate, net_stats, &mut buf);
        let inputs = &buf[..nets.len()];
        let load = loads[gate.output.0];
        let current = gate.config as usize;
        let deadline = required[gate.output.0] + eps;

        let mut best_cfg = current;
        let mut best_power = f64::MAX;
        let mut best_arrival = f64::MAX;
        for c in 0..gate.n_configs as usize {
            let a = arrival_with(c);
            if a > deadline && c != current {
                continue;
            }
            let p = model.total_power_into(gate.cell, c, inputs, load, scratch);
            if p < best_power || (p == best_power && a < best_arrival) {
                best_power = p;
                best_cfg = c;
                best_arrival = a;
            }
        }
        // The original config is always admissible, so best_cfg is
        // well-defined even if every other candidate missed the deadline.
        arrival[gate.output.0] = arrival_with(best_cfg);
        choices[gid.0] = best_cfg;
    }
    Ok(choices)
}

/// Convenience: best power without constraints, then the slack-aware,
/// locally-bounded and unconstrained variants compared in one report.
#[derive(Debug, Clone)]
pub struct DelayPowerTradeoff {
    /// Model power of the unconstrained best (W).
    pub unconstrained: f64,
    /// Model power of the slack-aware result (W).
    pub slack_aware: f64,
    /// Model power of the locally delay-bounded result (W).
    pub locally_bounded: f64,
    /// Original circuit's model power (W).
    pub original: f64,
    /// Original critical-path delay (s).
    pub delay_original: f64,
    /// Critical-path delay of the unconstrained best (s).
    pub delay_unconstrained: f64,
}

/// Computes the three-way trade-off on one circuit (used by examples and
/// the experiment harness).
///
/// # Panics
///
/// As [`crate::optimize`].
pub fn delay_power_tradeoff(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    timing: &TimingModel,
    pi_stats: &[SignalStats],
) -> DelayPowerTradeoff {
    let net_stats = propagate(circuit, library, pi_stats);
    let mut scratch = Scratch::new();
    let mut run = |bound| {
        let options = OptimizeOptions {
            bound,
            ..OptimizeOptions::default()
        };
        optimize_with(circuit, library, model, &net_stats, &options, &mut scratch)
            .expect("ungoverned traversal cannot be interrupted")
    };
    let unconstrained = run(Bound::Unbounded);
    let slack = run(Bound::Slack(timing));
    let local = run(Bound::Local(timing));
    DelayPowerTradeoff {
        unconstrained: unconstrained.power_after,
        slack_aware: slack.power_after,
        locally_bounded: local.power_after,
        original: circuit_power(circuit, model, &net_stats).total,
        delay_original: tr_timing::critical_path_delay(circuit, timing),
        delay_unconstrained: tr_timing::critical_path_delay(&unconstrained.circuit, timing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_gatelib::Process;
    use tr_netlist::generators;
    use tr_power::scenario::Scenario;

    fn setup() -> (Library, PowerModel, TimingModel) {
        let lib = Library::standard();
        let model = PowerModel::new(&lib, Process::default());
        let timing = TimingModel::new(&lib, Process::default());
        (lib, model, timing)
    }

    /// One minimizing pass under `bound` from primary-input statistics.
    fn bounded(
        c: &Circuit,
        lib: &Library,
        model: &PowerModel,
        bound: Bound,
        stats: &[SignalStats],
    ) -> crate::OptimizeResult {
        let options = OptimizeOptions {
            bound,
            ..OptimizeOptions::default()
        };
        let net_stats = propagate(c, lib, stats);
        optimize_with(c, lib, model, &net_stats, &options, &mut Scratch::new()).unwrap()
    }

    #[test]
    fn never_exceeds_the_budget() {
        let (lib, model, timing) = setup();
        for (name, c) in [
            ("rca8", generators::ripple_carry_adder(8, &lib)),
            ("mult4", generators::array_multiplier(4, &lib)),
            ("alu4", generators::alu(4, &lib)),
        ] {
            let stats = Scenario::a().input_stats(c.primary_inputs().len(), 3);
            let before = tr_timing::critical_path_delay(&c, &timing);
            let r = bounded(&c, &lib, &model, Bound::Slack(&timing), &stats);
            let after = tr_timing::critical_path_delay(&r.circuit, &timing);
            assert!(after <= before * (1.0 + 1e-9), "{name}: {before} → {after}");
            assert!(r.power_after <= r.power_before + 1e-18, "{name}");
        }
    }

    #[test]
    fn beats_or_matches_the_local_variant() {
        let (lib, model, timing) = setup();
        // Across the small suite, global slack must never lose to the
        // local rule (it strictly contains its feasible set per gate when
        // arrivals allow, and both always include the original config).
        let mut wins = 0usize;
        let mut total = 0usize;
        for c in [
            generators::ripple_carry_adder(8, &lib),
            generators::comparator(8, &lib),
            generators::array_multiplier(4, &lib),
        ] {
            let stats = Scenario::a().input_stats(c.primary_inputs().len(), 11);
            let slack = bounded(&c, &lib, &model, Bound::Slack(&timing), &stats);
            let local = bounded(&c, &lib, &model, Bound::Local(&timing), &stats);
            total += 1;
            if slack.power_after <= local.power_after * (1.0 + 1e-9) {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "slack-aware lost too often: {wins}/{total}"
        );
    }

    #[test]
    fn tradeoff_report_is_consistent() {
        let (lib, model, timing) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 7);
        let t = delay_power_tradeoff(&c, &lib, &model, &timing, &stats);
        assert!(t.unconstrained <= t.slack_aware + 1e-18);
        assert!(t.slack_aware <= t.original + 1e-18);
        assert!(t.locally_bounded <= t.original + 1e-18);
        assert!(t.delay_original > 0.0);
    }

    #[test]
    fn function_preserved() {
        let (lib, model, timing) = setup();
        let c = generators::parity_tree(8, &lib);
        let stats = Scenario::a().input_stats(8, 13);
        let r = bounded(&c, &lib, &model, Bound::Slack(&timing), &stats);
        for m in 0..256usize {
            let v: Vec<bool> = (0..8).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(c.evaluate(&lib, &v), r.circuit.evaluate(&lib, &v));
        }
    }
}
