//! The fault-injection suite: drives every rung of the degradation
//! ladder and the batch runner's per-cell panic fence through named,
//! deterministic faultpoints (`tr_flow::faultpoint`). Compiled only
//! with the `fault-injection` feature:
//!
//! ```text
//! cargo test -p tr-flow --features fault-injection
//! ```
//!
//! The faultpoint registry is process-global, so every test here
//! serializes on one lock and disarms all sites on entry and exit.

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use tr_flow::faultpoint::{arm, arm_nth, disarm_all, Fault};
use tr_flow::{
    BatchJob, BatchRunner, Error, Flow, FlowEnv, PropagationMode, RunBudget, ScenarioSpec,
};
use tr_netlist::generators;
use tr_power::scenario::Scenario;

/// One lock for the whole suite (the registry is process-global). A
/// panicking test must not wedge the rest, so poisoning is ignored.
fn suite_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    disarm_all();
    guard
}

#[test]
fn injected_node_limit_recovers_on_the_info_reorder_rung() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("exact-build", Fault::NodeLimit);
    let report = Flow::from_circuit(generators::ripple_carry_adder(8, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::ExactBdd)
        .run(&env)
        .expect("rung 1 absorbs a single node-limit failure");
    assert!(report.degraded);
    assert_eq!(report.degrade_rung.as_deref(), Some("info-reorder-retry"));
    // The full history carries the single rung with its phase and a
    // sensible timestamp.
    assert_eq!(report.degrade_events.len(), 1);
    assert_eq!(report.degrade_events[0].rung, "info-reorder-retry");
    assert_eq!(report.degrade_events[0].phase, "stats");
    assert!(report.degrade_events[0].elapsed_ms >= 0.0);
    // The retry succeeded, so the run stays on the exact backend and
    // still measures the independence error.
    assert_eq!(report.prob_mode, "bdd");
    assert!(report.independence_error.is_some());
    let reason = report.degrade_reason.expect("first failure recorded");
    assert!(reason.contains("node limit"), "reason: {reason}");
    assert!(report.power.model_after_w > 0.0);
    disarm_all();
}

#[test]
fn injected_node_limits_never_snapshot() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    let adder = generators::ripple_carry_adder(8, &env.library);
    for (site, mode) in [
        ("exact-build", PropagationMode::ExactBdd),
        ("part-build", PropagationMode::partitioned()),
    ] {
        arm(site, Fault::NodeLimit);
        let stage = Flow::from_circuit(adder.clone())
            .scenario(Scenario::a(), 11)
            .prob(mode)
            .prepare_stats(&env, &adder)
            .expect("the next rung lands");
        assert!(stage.degraded(), "{site}");
        // An injected fault is not a function of the request: nothing to
        // cache.
        assert!(stage.snapshot().is_none(), "{site}");
    }
    disarm_all();
}

#[test]
fn injected_node_limit_on_both_rungs_falls_back_to_independent() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("exact-build", Fault::NodeLimit);
    arm("info-reorder-retry", Fault::NodeLimit);
    let report = Flow::from_circuit(generators::ripple_carry_adder(8, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::ExactBdd)
        .run(&env)
        .expect("rung 2 always lands");
    assert!(report.degraded);
    assert_eq!(report.degrade_rung.as_deref(), Some("independent-fallback"));
    // A failed retry records no event: the history has the one rung
    // that actually landed, and it matches `degrade_rung`.
    assert_eq!(report.degrade_events.len(), 1);
    assert_eq!(report.degrade_events[0].rung, "independent-fallback");
    assert_eq!(report.degrade_events[0].phase, "stats");
    assert_eq!(report.prob_mode, "indep");
    assert_eq!(report.independence_error, None);
    assert!(report.power.model_after_w > 0.0);
    disarm_all();
}

#[test]
fn injected_node_limit_recovers_on_the_shrink_regions_rung() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("part-build", Fault::NodeLimit);
    let report = Flow::from_circuit(generators::array_multiplier(6, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::partitioned())
        .run(&env)
        .expect("shrink-regions absorbs a single node-limit failure");
    assert!(report.degraded);
    assert_eq!(report.degrade_rung.as_deref(), Some("shrink-regions"));
    assert_eq!(report.degrade_events.len(), 1);
    assert_eq!(report.degrade_events[0].rung, "shrink-regions");
    assert_eq!(report.degrade_events[0].phase, "stats");
    // The retry succeeded with halved regions: still the partitioned
    // backend, with its shape in the report.
    assert_eq!(report.prob_mode, "part");
    assert!(report.partition_regions.is_some());
    assert!(report.partition_error_bound.is_some());
    let reason = report.degrade_reason.expect("first failure recorded");
    assert!(reason.contains("node limit"), "reason: {reason}");
    assert!(report.power.model_after_w > 0.0);
    disarm_all();
}

#[test]
fn injected_node_limit_on_both_partition_rungs_falls_back_to_independent() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("part-build", Fault::NodeLimit);
    // The shrink-regions site fails the whole rung (every halving).
    arm("shrink-regions", Fault::NodeLimit);
    let report = Flow::from_circuit(generators::array_multiplier(6, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::partitioned())
        .run(&env)
        .expect("rung 2 always lands");
    assert!(report.degraded);
    assert_eq!(report.degrade_rung.as_deref(), Some("independent-fallback"));
    assert_eq!(report.prob_mode, "indep");
    assert_eq!(report.partition_regions, None);
    assert_eq!(report.partition_error_bound, None);
    assert!(report.power.model_after_w > 0.0);
    disarm_all();
}

#[test]
fn injected_node_limit_with_degrade_off_is_a_typed_error() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("exact-build", Fault::NodeLimit);
    let err = Flow::from_circuit(generators::ripple_carry_adder(8, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::ExactBdd)
        .budget(RunBudget::default().bdd_nodes(4096))
        .degrade(false)
        .run(&env)
        .unwrap_err();
    assert!(
        err.to_string().contains("node limit"),
        "expected the injected NodeLimit verbatim, got: {err}"
    );
    disarm_all();
}

/// An injected delay at the optimize faultpoint blows the run's
/// deadline; the next stage-boundary checkpoint trips, and the
/// remaining stages finish ungoverned.
#[test]
fn injected_delay_blows_the_deadline_and_finishes_ungoverned() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    arm("optimize", Fault::DelayMs(800));
    let report = Flow::from_circuit(generators::ripple_carry_adder(8, &env.library))
        .scenario(Scenario::a(), 11)
        .prob(PropagationMode::ExactBdd)
        .budget(RunBudget::default().deadline_ms(600))
        .run(&env)
        .expect("a blown deadline degrades, never aborts");
    assert!(report.degraded);
    assert_eq!(report.degrade_rung.as_deref(), Some("finish-ungoverned"));
    // The deepest rung in the report is always the last event, and the
    // event timeline is monotone.
    let events = &report.degrade_events;
    assert!(!events.is_empty());
    assert_eq!(events.last().unwrap().rung, "finish-ungoverned");
    assert_eq!(events.last().unwrap().phase, "boundary");
    assert!(events
        .windows(2)
        .all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
    // The exact statistics were computed before the trip: the backend
    // does not downgrade.
    assert_eq!(report.prob_mode, "bdd");
    let reason = report.degrade_reason.expect("trip recorded");
    assert!(reason.contains("deadline"), "reason: {reason}");
    disarm_all();
}

/// An injected panic in one batch cell fails exactly that cell; every
/// other cell of the grid completes normally.
#[test]
fn injected_worker_panic_fails_only_its_own_cell() {
    let _guard = suite_lock();
    let env = FlowEnv::new();
    let jobs = vec![
        BatchJob::from_circuit("rca4", generators::ripple_carry_adder(4, &env.library)),
        BatchJob::from_circuit("par8", generators::parity_tree(8, &env.library)),
    ];
    let matrix = vec![ScenarioSpec::a(1), ScenarioSpec::a(2)];
    // One worker visits the grid in order; the second visit is
    // (rca4, A#2).
    arm_nth("batch-cell", Fault::Panic, 2);
    let results = BatchRunner::new(Flow::from_circuit(tr_netlist::Circuit::new("t")))
        .threads(1)
        .run(&env, &jobs, &matrix, |_| {});
    assert_eq!(results.len(), 4);
    let (failed, ok): (Vec<_>, Vec<_>) = results.iter().partition(|r| r.outcome.is_err());
    assert_eq!(ok.len(), 3, "the other cells must complete");
    assert_eq!(failed.len(), 1, "exactly the armed cell fails");
    assert_eq!(failed[0].job, "rca4");
    assert_eq!(failed[0].scenario, "A#2");
    match failed[0].outcome.as_ref().unwrap_err() {
        Error::Panicked(msg) => {
            assert!(msg.contains("injected fault"), "payload survives: {msg}")
        }
        other => panic!("expected Error::Panicked, got {other}"),
    }
    for r in ok {
        let report = r.outcome.as_ref().unwrap();
        assert!(report.power.model_after_w > 0.0);
        assert!(!report.degraded);
    }
    disarm_all();
}
