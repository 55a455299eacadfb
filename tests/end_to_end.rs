//! End-to-end pipeline tests spanning every crate: parse → map →
//! propagate → optimize → simulate.

use transistor_reordering::prelude::*;

fn harness() -> (Library, Process, PowerModel, TimingModel) {
    let lib = Library::standard();
    let process = Process::default();
    let model = PowerModel::new(&lib, process.clone());
    let timing = TimingModel::new(&lib, process.clone());
    (lib, process, model, timing)
}

#[test]
fn bench_to_optimized_netlist() {
    let (lib, process, model, timing) = harness();
    // Parse the embedded c17, map it, optimize it, simulate it.
    let generic = bench::c17();
    let circuit = map::map_default(&generic, &lib);
    assert!(circuit.validate(&lib).is_ok());

    let stats = Scenario::a().input_stats(circuit.primary_inputs().len(), 17);
    let best = optimize(&circuit, &lib, &model, &stats, Objective::MinimizePower);
    let worst = optimize(&circuit, &lib, &model, &stats, Objective::MaximizePower);
    assert!(best.power_after <= worst.power_after);

    // Mapped + optimized netlists stay functionally equal to the source.
    for m in 0..32usize {
        let v: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
        let want = generic.evaluate_outputs(&v);
        for c in [&best.circuit, &worst.circuit] {
            let nets = c.evaluate(&lib, &v);
            let got: Vec<bool> = c.primary_outputs().iter().map(|o| nets[o.0]).collect();
            assert_eq!(got, want, "input {m:05b}");
        }
    }

    // And the simulator agrees with the model's ranking.
    let cfg = SimConfig {
        duration: 1.0e-3,
        warmup: 1.0e-4,
        seed: 3,
    };
    let p_best = simulate(&best.circuit, &lib, &process, &timing, &stats, &cfg).power;
    let p_worst = simulate(&worst.circuit, &lib, &process, &timing, &stats, &cfg).power;
    assert!(
        p_best < p_worst,
        "simulation contradicts the model: best {p_best} vs worst {p_worst}"
    );
}

#[test]
fn suite_optimization_always_improves_the_model() {
    let (lib, _, model, _) = harness();
    for case in suite::quick_suite(&lib) {
        let n = case.circuit.primary_inputs().len();
        let stats = Scenario::a().input_stats(n, 0xE2E);
        let best = optimize(
            &case.circuit,
            &lib,
            &model,
            &stats,
            Objective::MinimizePower,
        );
        let worst = optimize(
            &case.circuit,
            &lib,
            &model,
            &stats,
            Objective::MaximizePower,
        );
        assert!(
            best.power_after <= best.power_before + 1e-18,
            "{}: best regressed",
            case.name
        );
        assert!(
            worst.power_after + 1e-18 >= best.power_after,
            "{}: worst below best",
            case.name
        );
    }
}

#[test]
fn model_vs_simulator_rank_agreement_on_single_gates() {
    // For a strong majority of multi-configuration cells, the
    // configuration the model calls best must simulate cheaper than the
    // one it calls worst. Exact agreement on every cell is NOT a claim of
    // the paper — its own Table 3 M/S columns disagree per circuit (M is
    // even negative for some rows); with the steep profile used here the
    // known offenders are aoi31/oai31, where the hot input sits in a deep
    // stack and the model's steady-state weighting overcounts its
    // transitions (see EXPERIMENTS.md).
    let (lib, process, model, timing) = harness();
    let mut agree = 0usize;
    let mut total = 0usize;
    for cell in lib.cells() {
        let n_cfg = cell.configurations().len();
        if n_cfg < 2 {
            continue;
        }
        // Steep activity gradient across the inputs.
        let stats: Vec<SignalStats> = (0..cell.arity())
            .map(|i| SignalStats::new(0.5, 10f64.powi(4 + (i % 3) as i32)))
            .collect();
        let (best, worst) = model.best_and_worst(cell.kind(), &stats, 4.0e-15);
        if best == worst {
            continue;
        }
        let build = |config: usize| {
            let mut c = Circuit::new("single");
            let ins: Vec<NetId> = (0..cell.arity())
                .map(|i| c.add_input(format!("i{i}")))
                .collect();
            let (g, y) = c.add_gate(cell.kind().clone(), ins, "y");
            let (_, z) = c.add_gate(CellKind::Inv, vec![y], "z");
            c.mark_output(z);
            c.set_config(g, config);
            c
        };
        let cfg = SimConfig {
            duration: 4.0e-3,
            warmup: 2.0e-4,
            seed: 1234,
        };
        let sim = |config: usize| {
            let c = build(config);
            let r = simulate(&c, &lib, &process, &timing, &stats, &cfg);
            // Energy of the gate under test only (index 0).
            r.per_gate_energy[0]
        };
        let e_best = sim(best);
        let e_worst = sim(worst);
        total += 1;
        if e_best < e_worst {
            agree += 1;
        }
        assert!(
            e_best < e_worst * 1.6,
            "{}: catastrophic inversion (best {e_best:.3e} J vs worst {e_worst:.3e} J)",
            cell.name()
        );
    }
    assert!(
        agree * 100 >= total * 75,
        "model/simulator rank agreement too low: {agree}/{total}"
    );
}

#[test]
fn scenario_b_headroom_half_of_a_on_adders() {
    // The paper's headline shape: Scenario B savings ≈ half of A.
    let (lib, _, model, _) = harness();
    let c = generators::ripple_carry_adder(16, &lib);
    let n = c.primary_inputs().len();
    let headroom = |stats: &[SignalStats]| {
        let best = optimize(&c, &lib, &model, stats, Objective::MinimizePower);
        let worst = optimize(&c, &lib, &model, stats, Objective::MaximizePower);
        100.0 * (worst.power_after - best.power_after) / worst.power_after
    };
    let a: f64 = (0..4)
        .map(|s| headroom(&Scenario::a().input_stats(n, s)))
        .sum::<f64>()
        / 4.0;
    let b = headroom(&Scenario::b().input_stats(n, 0));
    assert!(a > 5.0, "Scenario A headroom too small: {a:.1}%");
    assert!(b > 0.0, "Scenario B has no headroom");
    assert!(b < a, "B ({b:.1}%) should be below A ({a:.1}%)");
}

#[test]
fn delay_bounded_optimizer_end_to_end() {
    let (lib, _, model, timing) = harness();
    let c = generators::array_multiplier(4, &lib);
    let stats = Scenario::a().input_stats(c.primary_inputs().len(), 77);
    let options = OptimizeOptions {
        bound: Bound::Local(&timing),
        ..OptimizeOptions::default()
    };
    let net_stats = propagate(&c, &lib, &stats);
    let r = optimize_with(&c, &lib, &model, &net_stats, &options, &mut Scratch::new())
        .expect("ungoverned");
    let d_before = critical_path_delay(&c, &timing);
    let d_after = critical_path_delay(&r.circuit, &timing);
    assert!(d_after <= d_before * (1.0 + 1e-9));
    assert!(r.power_after <= r.power_before + 1e-18);
    // It still finds something on a multiplier.
    assert!(r.changed_gates > 0);
}

#[test]
fn bdd_backend_runs_the_small_suite_and_the_new_large_circuits() {
    // The `tr-opt --prob bdd` pipeline (Flow is exactly what the CLI
    // drives): the full 13-circuit small suite plus the new ≥16-bit
    // reconvergent generators, end to end, with exact statistics.
    // (`mult8`, the third new workload, is exercised in release builds
    // by the `p6_bdd_propagate` bench and the tr-power equivalence
    // tests — its BDD has ~125k live nodes, too slow for a debug test.)
    let env = FlowEnv::new();
    let mut circuits: Vec<(String, Circuit)> = suite::small_suite(&env.library)
        .into_iter()
        .map(|c| (c.name, c.circuit))
        .collect();
    circuits.push((
        "csel32".into(),
        generators::carry_select_adder(32, 8, &env.library),
    ));
    circuits.push((
        "cskip24".into(),
        generators::carry_skip_adder(24, 4, &env.library),
    ));
    for (name, circuit) in circuits {
        let n = circuit.primary_inputs().len();
        let report = Flow::from_circuit(circuit)
            .scenario(Scenario::a(), 0xB00)
            .prob(transistor_reordering::power::PropagationMode::ExactBdd)
            .run(&env)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.prob_mode, "bdd", "{name}");
        assert_eq!(report.inputs, n, "{name}");
        let err = report
            .independence_error
            .unwrap_or_else(|| panic!("{name}: exact backend must measure the error"));
        assert!((0.0..=1.0).contains(&err), "{name}: error {err}");
        assert!(
            report.power.model_after_w <= report.power.model_before_w + 1e-18,
            "{name}: minimize regressed"
        );
    }
}

#[test]
fn exact_propagation_improves_on_reconvergent_logic() {
    // On c17 (5 inputs, reconvergent), exact and approximate propagation
    // must both be valid statistics, and the exact one is available.
    let (lib, _, _, _) = harness();
    let circuit = map::map_default(&bench::c17(), &lib);
    let stats = Scenario::a().input_stats(circuit.primary_inputs().len(), 4);
    let approx = propagate(&circuit, &lib, &stats);
    let exact = propagate_exact(&circuit, &lib, &stats).expect("5 inputs fit");
    assert_eq!(approx.len(), exact.len());
    for (a, e) in approx.iter().zip(&exact) {
        assert!((0.0..=1.0).contains(&a.probability()));
        assert!((0.0..=1.0).contains(&e.probability()));
        assert!(a.density() >= 0.0 && e.density() >= 0.0);
    }
}
