//! Whole-circuit equivalence for the compiled optimizer, on every circuit
//! of the full `tr_netlist::suite`:
//!
//! 1. the configurations `optimize` picks are *identical* to a per-gate
//!    brute-force argmin/argmax over the public `gate_power` API (the
//!    fast path and the straightforward path of the model must be the
//!    same decision procedure, bitwise);
//! 2. the parallel traversal returns the identical circuit;
//! 3. under the retained naive reference evaluator, every chosen
//!    configuration is exactly as optimal as the reference's own
//!    argmin/argmax to 1e-12 relative. (Index equality across the two
//!    evaluators is asserted only when the reference sees a unique
//!    optimum: gates with repeated input nets have several mathematically
//!    tied configurations, where float rounding may legally break the tie
//!    differently.)

use transistor_reordering::power::reference;
use transistor_reordering::prelude::*;

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()) + 1e-30
}

#[test]
fn optimize_picks_reference_optimal_configs_on_the_full_suite() {
    let lib = Library::standard();
    let process = Process::default();
    let model = PowerModel::new(&lib, process.clone());
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    for case in suite::standard_suite(&lib) {
        let circuit = &case.circuit;
        let stats = Scenario::a().input_stats(circuit.primary_inputs().len(), 0xC0DE);
        let net_stats = propagate(circuit, &lib, &stats);
        let loads = external_loads(circuit, &model);

        let best = optimize(circuit, &lib, &model, &stats, Objective::MinimizePower);
        let worst = optimize(circuit, &lib, &model, &stats, Objective::MaximizePower);
        // The parallel traversal is the same decision procedure.
        let options = OptimizeOptions {
            threads,
            ..OptimizeOptions::default()
        };
        let best_par = optimize_with(
            circuit,
            &lib,
            &model,
            &net_stats,
            &options,
            &mut Scratch::new(),
        )
        .expect("ungoverned");
        assert_eq!(best.circuit, best_par.circuit, "{}", case.name);

        for (i, gate) in circuit.gates().iter().enumerate() {
            let cell = lib.cell(&gate.cell).expect("library cell");
            let inputs: Vec<SignalStats> = gate.inputs.iter().map(|n| net_stats[n.0]).collect();
            let load = loads[gate.output.0];
            let chosen_best = best.circuit.gates()[i].config;
            let chosen_worst = worst.circuit.gates()[i].config;

            // (1) Exact agreement with the public API's own argmin/argmax
            // (ties to the lowest index, as documented).
            let totals: Vec<f64> = (0..cell.configurations().len())
                .map(|c| model.gate_power(cell.kind(), c, &inputs, load).total)
                .collect();
            let mut api_best = 0usize;
            let mut api_worst = 0usize;
            for (c, &t) in totals.iter().enumerate() {
                if t < totals[api_best] {
                    api_best = c;
                }
                if t > totals[api_worst] {
                    api_worst = c;
                }
            }
            assert_eq!(chosen_best, api_best, "{} gate {i}", case.name);
            assert_eq!(chosen_worst, api_worst, "{} gate {i}", case.name);

            // (3) Reference-evaluator optimality of the chosen configs.
            let (ref_best, ref_worst) = reference::best_and_worst(cell, &process, &inputs, load);
            let ref_p = |c: usize| reference::gate_power(cell, &process, c, &inputs, load).total;
            assert!(
                rel_close(ref_p(chosen_best), ref_p(ref_best), 1e-12),
                "{} gate {i} ({}): best config {} not reference-optimal (ref picks {})",
                case.name,
                cell.name(),
                chosen_best,
                ref_best
            );
            assert!(
                rel_close(ref_p(chosen_worst), ref_p(ref_worst), 1e-12),
                "{} gate {i} ({}): worst config {} not reference-pessimal (ref picks {})",
                case.name,
                cell.name(),
                chosen_worst,
                ref_worst
            );
            // Repeated input nets create mathematically tied configs; only
            // a unique reference optimum pins the exact index.
            let unique = |target: usize| {
                totals
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| c != target)
                    .all(|(c, _)| !rel_close(ref_p(c), ref_p(target), 1e-12))
            };
            if unique(ref_best) {
                assert_eq!(chosen_best, ref_best, "{} gate {i}", case.name);
            }
            if unique(ref_worst) {
                assert_eq!(chosen_worst, ref_worst, "{} gate {i}", case.name);
            }
        }
    }
}
