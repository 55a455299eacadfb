//! The paper's headline claims, as assertions.
//!
//! Each test encodes one claim from the paper and checks our
//! implementation reproduces its *shape* (winners, orderings,
//! crossovers); absolute numbers are calibration-dependent and recorded
//! in `EXPERIMENTS.md` instead.

use transistor_reordering::prelude::*;

/// Table 1(b): the best ordering of the OAI21 gate depends on which input
/// is hot, and best-vs-worst is worth double-digit percent.
#[test]
fn table1_best_ordering_flips_with_activity() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let cell = lib.cell(&CellKind::oai21()).expect("oai21");
    let n = cell.configurations().len();
    assert_eq!(n, 4, "Fig. 1(a): four configurations");

    let case1: Vec<SignalStats> = [1.0e4, 1.0e5, 1.0e6]
        .iter()
        .map(|&d| SignalStats::new(0.5, d))
        .collect();
    let case2: Vec<SignalStats> = [1.0e6, 1.0e5, 1.0e4]
        .iter()
        .map(|&d| SignalStats::new(0.5, d))
        .collect();
    let load = 8.0 * FEMTO;
    let (best1, worst1) = model.best_and_worst(cell.kind(), &case1, load);
    let (best2, _) = model.best_and_worst(cell.kind(), &case2, load);
    assert_ne!(best1, best2, "the winner must flip between the two cases");

    let p_best = model.gate_power(cell.kind(), best1, &case1, load).total;
    let p_worst = model.gate_power(cell.kind(), worst1, &case1, load).total;
    let reduction = 100.0 * (p_worst - p_best) / p_worst;
    assert!(
        (10.0..=30.0).contains(&reduction),
        "case-1 reduction {reduction:.1}% outside the paper's ~19% band"
    );
}

/// §5: the speed rule ("critical transistor near the output") conflicts
/// with the power-optimal ordering whenever the timing-critical input is
/// not the activity-critical one. Input 0 is hot (power wants it near
/// the output, shielding the internal stack nodes); input 2 is the
/// late-arriving timing-critical input (speed wants *it* near the
/// output). Both cannot win.
#[test]
fn power_and_delay_rules_conflict() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let timing = TimingModel::new(&lib, Process::default());
    let cell = lib.cell_by_name("nand3").expect("nand3");
    let n = cell.configurations().len();
    // Input 0 is hot; input 2 is timing-critical but cold.
    let stats = [
        SignalStats::new(0.5, 1.0e6),
        SignalStats::new(0.5, 1.0e4),
        SignalStats::new(0.5, 1.0e4),
    ];
    let load = 6.0 * FEMTO;
    let (best_power, _) = model.best_and_worst(cell.kind(), &stats, load);
    // Fastest configuration *for the critical input 2*.
    let best_delay_crit = (0..n)
        .min_by(|&a, &b| {
            timing
                .gate_delay(cell.kind(), a, 2, load)
                .total_cmp(&timing.gate_delay(cell.kind(), b, 2, load))
        })
        .expect("non-empty");
    assert_ne!(
        best_power, best_delay_crit,
        "expected the power/delay tension of the paper's §5"
    );
    // Quantified: the power winner is measurably slower through input 2.
    let slow = timing.gate_delay(cell.kind(), best_power, 2, load);
    let fast = timing.gate_delay(cell.kind(), best_delay_crit, 2, load);
    assert!(
        slow > fast * 1.05,
        "power-optimal config should cost >5% delay on the critical input: {fast} vs {slow}"
    );
}

/// Fig. 5 / §4.3: the pivot search generates every reordering, and the
/// count matches Table 2's arithmetic for every library cell.
#[test]
fn exploration_is_exhaustive_for_every_cell() {
    let lib = Library::standard();
    for cell in lib.cells() {
        let topo = &cell.configurations()[0];
        let found = pivot::find_all_reorderings(topo);
        assert_eq!(
            found.len() as u64,
            topo.configuration_count(),
            "{}",
            cell.name()
        );
    }
}

/// §4.2: reordering an individual gate never changes what downstream
/// gates see, so the greedy traversal is globally optimal w.r.t. the
/// model. We verify the strongest consequence: optimizing gates in any
/// order yields the same total power.
#[test]
fn greedy_traversal_is_order_independent() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let c = generators::comparator(6, &lib);
    let stats = Scenario::a().input_stats(c.primary_inputs().len(), 99);
    let seq = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
    let options = OptimizeOptions {
        threads: 4,
        ..OptimizeOptions::default()
    };
    let net_stats = propagate(&c, &lib, &stats);
    let par = optimize_with(&c, &lib, &model, &net_stats, &options, &mut Scratch::new())
        .expect("ungoverned");
    assert_eq!(seq.circuit, par.circuit);
    assert!((seq.power_after - par.power_after).abs() < 1e-21);
}

/// §1.1: in the ripple-carry adder, equilibrium probabilities carry no
/// information (all ≈ 0.5-ish) while transition density clearly separates
/// the carry chain from the operands.
#[test]
fn carry_chain_motivation() {
    let lib = Library::standard();
    let c = generators::ripple_carry_adder(12, &lib);
    let stats = Scenario::b().input_stats(c.primary_inputs().len(), 0);
    let nets = propagate(&c, &lib, &stats);
    let d_first = nets[c.primary_outputs()[0].0].density();
    let d_late = nets[c.primary_outputs()[10].0].density();
    assert!(
        d_late > 1.25 * d_first,
        "carry chain should accumulate density: {d_first} → {d_late}"
    );
    // Probabilities stay in a narrow band around 0.5.
    for i in 0..12 {
        let p = nets[c.primary_outputs()[i].0].probability();
        assert!((0.35..=0.65).contains(&p), "sum bit {i} probability {p}");
    }
}

/// §5 conclusion: optimizing for power typically leaves the critical path
/// roughly unchanged (small average delta, either sign) — check the best
/// netlist's delay stays within ±25% on the quick suite.
#[test]
fn delay_impact_is_bounded() {
    let lib = Library::standard();
    let model = PowerModel::new(&lib, Process::default());
    let timing = TimingModel::new(&lib, Process::default());
    for case in suite::quick_suite(&lib) {
        let stats = Scenario::a().input_stats(case.circuit.primary_inputs().len(), 1);
        let best = optimize(
            &case.circuit,
            &lib,
            &model,
            &stats,
            Objective::MinimizePower,
        );
        let d0 = critical_path_delay(&case.circuit, &timing);
        let d1 = critical_path_delay(&best.circuit, &timing);
        let delta = 100.0 * (d1 - d0) / d0;
        assert!(
            delta.abs() < 25.0,
            "{}: delay change {delta:.1}% out of band",
            case.name
        );
    }
}

/// Table 2 instances: all instances of a cell have the same transistor
/// count (the paper: same area ⇒ optimized circuits cost no area).
#[test]
fn instances_cost_no_area() {
    let lib = Library::standard();
    for cell in lib.cells() {
        let t = cell.transistor_count();
        for config in cell.configurations() {
            assert_eq!(config.transistor_count(), t, "{}", cell.name());
        }
    }
}
