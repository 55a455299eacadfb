//! Cancellation safety, property-tested: a governed engine that trips
//! mid-operation must remain fully usable. For randomized trip points
//! (a [`Governor::with_trip_after`] work budget) across the three
//! long-running exact-backend operations — the statistics walk
//! (`exact_stats`), the dirty-cone sweep (`repropagate`) and the
//! reorder fixpoint loop — we require that
//!
//! 1. no BDD root protection leaks: `protected_count` returns to its
//!    pre-operation baseline whether or not the governor tripped, and
//! 2. detaching the governor and re-running *from the same engine*
//!    matches a never-governed fresh engine to 1e-12.

use proptest::prelude::*;
use std::sync::OnceLock;
use tr_bdd::{BddError, BuildOptions, CircuitBdds};
use tr_boolean::SignalStats;
use tr_flow::Governor;
use tr_gatelib::Library;
use tr_netlist::{generators, Circuit, CompiledCircuit, GateId};
use tr_power::{IncrementalPropagator, PropagationError, PropagationMode, PropagatorOptions};
use tr_reorder::{optimize_to_fixpoint, FixpointOptions, Objective};

fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(Library::standard)
}

fn model() -> &'static tr_power::PowerModel {
    static MODEL: OnceLock<tr_power::PowerModel> = OnceLock::new();
    MODEL.get_or_init(|| tr_power::PowerModel::new(library(), tr_gatelib::Process::default()))
}

/// The reconvergent workhorse: enough cache-missing BDD work that small
/// trip budgets interrupt mid-walk, small enough to property-test.
fn test_circuit() -> Circuit {
    generators::ripple_carry_adder(4, library())
}

fn pi_stats(raw: &[(f64, f64)], n: usize) -> Vec<SignalStats> {
    raw[..n]
        .iter()
        .map(|&(p, d)| SignalStats::new(p, d))
        .collect()
}

fn assert_stats_match(same: &[SignalStats], fresh: &[SignalStats]) {
    assert_eq!(same.len(), fresh.len());
    for (net, (a, b)) in same.iter().zip(fresh).enumerate() {
        assert!(
            (a.probability() - b.probability()).abs() <= 1e-12,
            "net {net}: P {} vs {}",
            a.probability(),
            b.probability()
        );
        let tol = 1e-12 * a.density().abs().max(b.density().abs()).max(1.0);
        assert!(
            (a.density() - b.density()).abs() <= tol,
            "net {net}: D {} vs {}",
            a.density(),
            b.density()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `exact_stats` interrupted at a random point, then re-run
    /// ungoverned from the same engine.
    #[test]
    fn interrupted_exact_stats_engine_stays_usable(
        raw in prop::collection::vec((0.0f64..=1.0, 0.0f64..1.0e6), 16),
        trip in 0u64..400,
    ) {
        let circuit = test_circuit();
        let compiled = CompiledCircuit::compile(&circuit, library()).unwrap();
        let stats = pi_stats(&raw, circuit.primary_inputs().len());

        let mut engine =
            CircuitBdds::build(&compiled, library(), BuildOptions::default()).unwrap();
        let baseline = engine.stats().protected_count;

        engine.set_governor(Some(Governor::with_trip_after(trip)));
        let governed = engine.exact_stats(&stats);
        prop_assert_eq!(engine.stats().protected_count, baseline);

        engine.set_governor(None);
        let rerun = engine.exact_stats(&stats).expect("ungoverned rerun");
        prop_assert_eq!(engine.stats().protected_count, baseline);

        let mut fresh =
            CircuitBdds::build(&compiled, library(), BuildOptions::default()).unwrap();
        let reference = fresh.exact_stats(&stats).unwrap();
        assert_stats_match(&rerun, &reference);
        // If the governed attempt did complete, it too must agree.
        if let Ok(governed) = governed {
            assert_stats_match(&governed, &reference);
        }
    }

    /// `repropagate` (every gate dirty — the worst-case cone) interrupted
    /// at a random point, then re-run ungoverned from the same engine.
    #[test]
    fn interrupted_repropagate_engine_stays_usable(
        raw in prop::collection::vec((0.0f64..=1.0, 0.0f64..1.0e6), 16),
        trip in 0u64..400,
    ) {
        let circuit = test_circuit();
        let compiled = CompiledCircuit::compile(&circuit, library()).unwrap();
        let stats = pi_stats(&raw, circuit.primary_inputs().len());
        let all_gates: Vec<GateId> = (0..compiled.gates().len()).map(GateId).collect();

        let mut engine =
            CircuitBdds::build(&compiled, library(), BuildOptions::default()).unwrap();
        let baseline = engine.stats().protected_count;

        engine.set_governor(Some(Governor::with_trip_after(trip)));
        let _ = engine.repropagate(&compiled, library(), &all_gates);
        prop_assert_eq!(engine.stats().protected_count, baseline);

        engine.set_governor(None);
        // Reordering is config-only (§4.2): recomposing every gate must
        // hash-cons back to the same roots — no net changes.
        let changed = engine
            .repropagate(&compiled, library(), &all_gates)
            .expect("ungoverned rerun");
        prop_assert_eq!(changed.len(), 0);
        prop_assert_eq!(engine.stats().protected_count, baseline);

        let rerun = engine.exact_stats(&stats).expect("stats after reprop");
        let mut fresh =
            CircuitBdds::build(&compiled, library(), BuildOptions::default()).unwrap();
        assert_stats_match(&rerun, &fresh.exact_stats(&stats).unwrap());
    }

    /// The reorder fixpoint loop interrupted at a random point, then
    /// re-run ungoverned *with the same propagator*. Because reordering
    /// never changes a net's Boolean function, the propagator's
    /// statistics stay valid for every intermediate configuration, so
    /// the retry must land on the fresh run's answer exactly.
    #[test]
    fn interrupted_fixpoint_retries_to_the_same_answer(
        trip in 0u64..2000,
    ) {
        let circuit = test_circuit();
        let stats: Vec<SignalStats> = (0..circuit.primary_inputs().len())
            .map(|i| SignalStats::new(0.3 + 0.05 * (i as f64 % 8.0), 2.0e5))
            .collect();
        let options = FixpointOptions {
            objective: Objective::MinimizePower,
            ..FixpointOptions::default()
        };

        let build = || {
            IncrementalPropagator::new_with(
                &circuit,
                library(),
                &stats,
                PropagationMode::ExactBdd,
                &PropagatorOptions::default(),
            )
            .expect("exact build fits the default budget")
        };

        let mut reference_prop = build();
        let reference = optimize_to_fixpoint(
            &circuit,
            library(),
            model(),
            &mut reference_prop,
            options,
            None,
        )
        .expect("ungoverned reference run");

        // Build ungoverned (a tiny trip budget would abort the build
        // itself), then attach the governor for the loop under test.
        let governor = Governor::with_trip_after(trip);
        let mut prop = build();
        prop.set_governor(Some(governor.clone()));
        let governed = optimize_to_fixpoint(
            &circuit,
            library(),
            model(),
            &mut prop,
            options,
            Some(&governor),
        );
        match governed {
            Err(PropagationError::Interrupted(_)) => {}
            Err(other) => panic!("only Interrupted is expected: {other}"),
            Ok(ref report) => {
                let rel = (report.result.power_after - reference.result.power_after).abs()
                    / reference.result.power_after;
                prop_assert!(rel <= 1e-12, "governed-but-untripped run diverged: {rel}");
            }
        }

        prop.set_governor(None);
        let retried = optimize_to_fixpoint(
            &circuit,
            library(),
            model(),
            &mut prop,
            options,
            None,
        )
        .expect("ungoverned retry from the same propagator");
        let rel = (retried.result.power_after - reference.result.power_after).abs()
            / reference.result.power_after;
        prop_assert!(rel <= 1e-12, "retry diverged from fresh run: {rel}");
        prop_assert_eq!(retried.result.changed_gates, reference.result.changed_gates);
    }
}

/// A zero work budget must actually interrupt the statistics walk — the
/// proptest above would be vacuous if small budgets never tripped.
#[test]
fn zero_work_budget_interrupts_exact_stats() {
    let circuit = test_circuit();
    let compiled = CompiledCircuit::compile(&circuit, library()).unwrap();
    let stats = vec![SignalStats::new(0.5, 1.0e5); circuit.primary_inputs().len()];
    let mut engine = CircuitBdds::build(&compiled, library(), BuildOptions::default()).unwrap();
    engine.set_governor(Some(Governor::with_trip_after(0)));
    match engine.exact_stats(&stats) {
        Err(BddError::Interrupted(i)) => {
            assert_eq!(i.reason, tr_flow::TripReason::WorkLimit);
        }
        other => panic!("expected Interrupted(WorkLimit), got {other:?}"),
    }
}
