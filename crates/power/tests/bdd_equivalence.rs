//! Equivalence of the two exact backends, and proof that the exact one
//! is *needed*:
//!
//! 1. `ExactBdd` vs the truth-table `propagate_exact` on every suite
//!    circuit where the latter applies (≤ `MAX_VARS` primary inputs),
//!    to 1e-12 — randomized statistics on the lighter circuits, one
//!    deterministic draw on the 16-input ones, and a composed-function
//!    probability check on `mult8` (whose truth-table *density* oracle
//!    needs ~a minute in debug builds; its BDD probabilities are still
//!    pinned to 1e-12 here).
//! 2. A reconvergent-fanout circuit where the independence assumption is
//!    provably wrong by 0.125 in probability while `ExactBdd` agrees
//!    with an i.i.d.-sampling Monte Carlo run within 3σ.

use proptest::prelude::*;
use std::sync::OnceLock;
use tr_boolean::{prob, BoolFn, SignalStats, MAX_VARS};
use tr_gatelib::{CellKind, Library};
use tr_netlist::suite::BenchmarkCase;
use tr_netlist::{suite, Circuit};
use tr_power::{
    propagate, propagate_exact, propagate_exact_bdd, IncrementalPropagator, PropagationMode,
};

fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(Library::standard)
}

/// Suite circuits whose primary-input count is within `max_pis`.
fn suite_up_to(max_pis: usize) -> Vec<BenchmarkCase> {
    suite::standard_suite(library())
        .into_iter()
        .filter(|c| c.circuit.primary_inputs().len() <= max_pis)
        .collect()
}

/// Asserts `(P, D)` agreement to 1e-12 (absolute in P, relative in D).
fn assert_stats_close(name: &str, net: usize, a: &SignalStats, b: &SignalStats) {
    assert!(
        (a.probability() - b.probability()).abs() < 1e-12,
        "{name} net {net}: P {} vs {}",
        a.probability(),
        b.probability()
    );
    let d_tol = 1e-12 * a.density().abs().max(b.density().abs()).max(1.0);
    assert!(
        (a.density() - b.density()).abs() < d_tol,
        "{name} net {net}: D {} vs {}",
        a.density(),
        b.density()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Randomized statistics over every ≤12-input suite circuit (the
    /// truth-table oracle stays fast there).
    #[test]
    fn bdd_matches_truth_table_exact_on_light_suite(
        raw in prop::collection::vec((0.0f64..=1.0, 0.0f64..1.0e6), 12),
    ) {
        let lib = library();
        for case in suite_up_to(12) {
            let n = case.circuit.primary_inputs().len();
            let pi: Vec<SignalStats> = raw[..n]
                .iter()
                .map(|&(p, d)| SignalStats::new(p, d))
                .collect();
            let tt = propagate_exact(&case.circuit, lib, &pi).expect("≤ MAX_VARS inputs");
            let bdd = propagate_exact_bdd(&case.circuit, lib, &pi).expect("fits node budget");
            for (net, (a, b)) in tt.iter().zip(&bdd).enumerate() {
                assert_stats_close(&case.name, net, a, b);
            }
        }
    }
}

/// One deterministic, deliberately asymmetric draw over the 13-to-16
/// input suite circuits (minus `mult8`, handled below): together with
/// the proptest above this covers **every** ≤`MAX_VARS`-input circuit
/// of the suite.
#[test]
fn bdd_matches_truth_table_exact_on_sixteen_input_suite() {
    let lib = library();
    for case in suite_up_to(MAX_VARS) {
        let n = case.circuit.primary_inputs().len();
        if n <= 12 || case.name == "mult8" {
            continue;
        }
        let pi: Vec<SignalStats> = (0..n)
            .map(|i| SignalStats::new(0.07 + 0.05 * i as f64, 3.0e4 * (1 + i % 5) as f64))
            .collect();
        let tt = propagate_exact(&case.circuit, lib, &pi).expect("≤ MAX_VARS inputs");
        let bdd = propagate_exact_bdd(&case.circuit, lib, &pi).expect("fits node budget");
        for (net, (a, b)) in tt.iter().zip(&bdd).enumerate() {
            assert_stats_close(&case.name, net, a, b);
        }
    }
}

/// `mult8` (16 inputs, 656 gates): pin the BDD probabilities of every
/// net against the Parker–McCluskey probability of the composed global
/// truth tables — the same global-function oracle `propagate_exact`
/// uses, without its (here minute-scale) density pass.
#[test]
fn bdd_matches_composed_function_probabilities_on_mult8() {
    let lib = library();
    let case = suite::standard_suite(lib)
        .into_iter()
        .find(|c| c.name == "mult8")
        .expect("mult8 registered in the suite");
    let c = &case.circuit;
    let n = c.primary_inputs().len();
    let pi: Vec<SignalStats> = (0..n)
        .map(|i| SignalStats::new(0.2 + 0.04 * i as f64, 1.0e5))
        .collect();
    let probs: Vec<f64> = pi.iter().map(SignalStats::probability).collect();

    let mut funcs: Vec<BoolFn> = vec![BoolFn::zero(n); c.net_count()];
    for (i, &net) in c.primary_inputs().iter().enumerate() {
        funcs[net.0] = BoolFn::var(n, i);
    }
    for gid in c.topological_order().expect("acyclic") {
        let gate = c.gate(gid);
        let cell = lib.cell(&gate.cell).expect("library cell");
        let subs: Vec<BoolFn> = gate.inputs.iter().map(|i| funcs[i.0].clone()).collect();
        funcs[gate.output.0] = cell.function().compose(&subs);
    }

    let bdd = propagate_exact_bdd(c, lib, &pi).expect("fits node budget");
    // Every 7th net plus every primary output: broad coverage without a
    // 2¹⁶-minterm walk for all 672 nets.
    let mut nets: Vec<usize> = (0..c.net_count()).step_by(7).collect();
    nets.extend(c.primary_outputs().iter().map(|n| n.0));
    for net in nets {
        let want = prob::probability(&funcs[net], &probs);
        assert!(
            (bdd[net].probability() - want).abs() < 1e-12,
            "net {net}: P {} vs {want}",
            bdd[net].probability()
        );
    }
}

/// The PR's reason to exist: on reconvergent fanout the independence
/// assumption is off by 0.125 in probability, while the BDD backend
/// lands within 3σ of an i.i.d. Monte Carlo measurement.
#[test]
fn independent_is_provably_wrong_where_exact_matches_monte() {
    let lib = library();
    // n1 = NAND(a, b); y = NAND(n1, b): y = a·b + ¬b. With P = 0.5,
    // exact P(y) = 0.75; treating n1 and b as independent gives
    // 1 − P(n1)·P(b) = 1 − 0.75·0.5 = 0.625.
    let mut c = Circuit::new("reconv");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let (_, n1) = c.add_gate(CellKind::Nand(2), vec![a, b], "n1");
    let (_, y) = c.add_gate(CellKind::Nand(2), vec![n1, b], "y");
    c.mark_output(y);
    let pi = vec![SignalStats::new(0.5, 1.0); 2];

    let indep = propagate(&c, lib, &pi);
    let exact = propagate_exact_bdd(&c, lib, &pi).expect("two variables");
    assert!((exact[y.0].probability() - 0.75).abs() < 1e-12);
    assert!((indep[y.0].probability() - 0.625).abs() < 1e-12);

    let steps = 50_000usize;
    let mc = IncrementalPropagator::new(
        &c,
        lib,
        &pi,
        PropagationMode::Monte {
            steps,
            seed: 0x3A17,
        },
    )
    .expect("monte runs")
    .net_stats()
    .to_vec();
    let p = exact[y.0].probability();
    // σ of the sample mean over the correlated chain: the backend steps
    // at dt = 0.2·min-dwell, each input flips with p01 = dt/t0,
    // p10 = dt/t1 (unclamped at this dt), giving lag-1 autocorrelation
    // λ = 1 − p01 − p10 and a (1+λ)/(1−λ) variance inflation over
    // binomial.
    let (t0, t1) = pi[0].dwell_times().expect("non-quiescent input");
    let dt = 0.2 * t0.min(t1);
    let lambda = 1.0 - dt / t0 - dt / t1;
    let inflation = (1.0 + lambda) / (1.0 - lambda);
    let sigma = (p * (1.0 - p) / (steps - 1) as f64 * inflation).sqrt();
    let mc_err = (mc[y.0].probability() - p).abs();
    assert!(
        mc_err < 3.0 * sigma,
        "Monte Carlo {:.5} vs exact {p:.5}: {mc_err:.5} > 3σ = {:.5}",
        mc[y.0].probability(),
        3.0 * sigma
    );
    // The independence bias (0.125) towers over the sampling noise.
    let indep_err = (indep[y.0].probability() - p).abs();
    assert!(
        indep_err > 20.0 * sigma,
        "independence bias {indep_err:.5} should dwarf σ = {sigma:.5}"
    );
}
