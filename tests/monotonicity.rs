//! Seeded, deterministic property tests for the paper's §4.2 monotonicity
//! invariant, exercised on **every** generator circuit of `tr-netlist`:
//!
//! 1. transistor reordering never changes a gate's Boolean function —
//!    checked at the library level (every configuration of every cell
//!    computes the same output function) and at the circuit level (the
//!    optimized netlists evaluate identically to the original on random
//!    input vectors);
//! 2. `optimize(MinimizePower)` never reports more power than
//!    `optimize(MaximizePower)` under the same statistics, and both
//!    bracket the unoptimized mapping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transistor_reordering::prelude::*;

/// Every circuit generator in `tr_netlist::generators`, at a size that
/// keeps the whole suite under a few seconds.
fn generator_circuits(lib: &Library) -> Vec<(&'static str, Circuit)> {
    vec![
        ("ripple_carry_adder", generators::ripple_carry_adder(6, lib)),
        (
            "carry_lookahead_adder",
            generators::carry_lookahead_adder(6, lib),
        ),
        (
            "carry_select_adder",
            generators::carry_select_adder(8, 4, lib),
        ),
        ("array_multiplier", generators::array_multiplier(4, lib)),
        ("parity_tree", generators::parity_tree(8, lib)),
        ("decoder", generators::decoder(4, lib)),
        ("comparator", generators::comparator(6, lib)),
        ("mux_tree", generators::mux_tree(3, lib)),
        ("alu", generators::alu(4, lib)),
        ("barrel_shifter", generators::barrel_shifter(8, lib)),
        ("priority_encoder", generators::priority_encoder(8, lib)),
        ("gray_to_binary", generators::gray_to_binary(8, lib)),
        (
            "random_circuit",
            generators::random_circuit(8, 40, 0xD00D, lib),
        ),
    ]
}

/// Library level: every configuration of every Table 2 cell computes the
/// same output function as configuration 0 — reordering is invisible to
/// downstream logic by construction.
#[test]
fn every_cell_configuration_preserves_the_function() {
    let lib = Library::standard();
    for cell in lib.cells() {
        let configs = cell.configurations();
        let n = cell.arity();
        let reference = GateGraph::build(&configs[0], n).output_function();
        for (i, topo) in configs.iter().enumerate() {
            let y = GateGraph::build(topo, n).output_function();
            assert_eq!(
                y,
                reference,
                "{} configuration {i} changes the gate function",
                cell.name()
            );
        }
    }
}

/// Circuit level: on every generator circuit, the minimize- and
/// maximize-power netlists agree with the original mapping on seeded
/// random input vectors.
#[test]
fn reordering_preserves_circuit_function_on_every_generator() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let mut rng = StdRng::seed_from_u64(0x51CA_D096);
    for (name, circuit) in generator_circuits(&lib) {
        let n_in = circuit.primary_inputs().len();
        let stats = Scenario::a().input_stats(n_in, 7);
        let best = optimize(&circuit, &lib, &model, &stats, Objective::MinimizePower);
        let worst = optimize(&circuit, &lib, &model, &stats, Objective::MaximizePower);
        for _case in 0..32 {
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            let reference = circuit.evaluate(&lib, &inputs);
            assert_eq!(
                best.circuit.evaluate(&lib, &inputs),
                reference,
                "{name}: MinimizePower changed the circuit function"
            );
            assert_eq!(
                worst.circuit.evaluate(&lib, &inputs),
                reference,
                "{name}: MaximizePower changed the circuit function"
            );
        }
    }
}

/// Objective ordering: minimized power ≤ default mapping ≤ maximized
/// power under the model, on every generator circuit and across several
/// seeded scenarios.
#[test]
fn minimize_never_exceeds_maximize_on_every_generator() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let mut rng = StdRng::seed_from_u64(0xBEE5);
    for (name, circuit) in generator_circuits(&lib) {
        let n_in = circuit.primary_inputs().len();
        for scenario in [Scenario::a(), Scenario::b()] {
            let seed = rng.gen_range(0u64..1_000_000);
            let stats = scenario.input_stats(n_in, seed);
            let default_p = {
                let nets = propagate(&circuit, &lib, &stats);
                circuit_power(&circuit, &model, &nets).total
            };
            let best = optimize(&circuit, &lib, &model, &stats, Objective::MinimizePower);
            let worst = optimize(&circuit, &lib, &model, &stats, Objective::MaximizePower);
            assert!(
                best.power_after <= worst.power_after + 1e-18,
                "{name} (seed {seed}): min power {} > max power {}",
                best.power_after,
                worst.power_after
            );
            assert!(
                best.power_after <= default_p + 1e-18,
                "{name} (seed {seed}): min power above default mapping"
            );
            assert!(
                worst.power_after + 1e-18 >= default_p,
                "{name} (seed {seed}): max power below default mapping"
            );
            // The reported before-power is the default mapping's power.
            assert!((best.power_before - default_p).abs() <= 1e-15 * default_p.max(1.0));
        }
    }
}

/// The delay-bounded variant obeys the same function-preservation and
/// power-ordering invariants while never lengthening the critical path.
#[test]
fn delay_bounded_variant_holds_the_invariants() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let timing = TimingModel::new(&lib, Process::default());
    let options = OptimizeOptions {
        bound: Bound::Local(&timing),
        ..OptimizeOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0xDE1A);
    for (name, circuit) in generator_circuits(&lib) {
        let n_in = circuit.primary_inputs().len();
        let stats = Scenario::a().input_stats(n_in, 11);
        let net_stats = propagate(&circuit, &lib, &stats);
        let bounded = optimize_with(
            &circuit,
            &lib,
            &model,
            &net_stats,
            &options,
            &mut Scratch::new(),
        )
        .expect("ungoverned");
        let free = optimize(&circuit, &lib, &model, &stats, Objective::MinimizePower);
        assert!(
            free.power_after <= bounded.power_after + 1e-18,
            "{name}: unconstrained optimum worse than the constrained one"
        );
        let d0 = critical_path_delay(&circuit, &timing);
        let d1 = critical_path_delay(&bounded.circuit, &timing);
        assert!(
            d1 <= d0 * (1.0 + 1e-9),
            "{name}: delay-bounded run grew the critical path {d0} → {d1}"
        );
        for _case in 0..16 {
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(
                bounded.circuit.evaluate(&lib, &inputs),
                circuit.evaluate(&lib, &inputs),
                "{name}: delay-bounded reordering changed the function"
            );
        }
    }
}
