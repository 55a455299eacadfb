//! The dirty-cone contract: after every accepted change, incremental
//! re-propagation must be indistinguishable (to 1e-12) from throwing the
//! engine away and rebuilding — on randomized input statistics and
//! change sequences over the light suite circuits, on a deterministic
//! multi-change `csel32` scenario, and for one accepted change on
//! **every** circuit of the benchmark suite. Configuration-only edits
//! (§4.2: reordering preserves every gate function) must cost the exact
//! backends no engine work at all, alone or mixed with a cell change.

use proptest::prelude::*;
use std::sync::OnceLock;
use tr_boolean::SignalStats;
use tr_gatelib::{CellKind, Library};
use tr_netlist::suite::BenchmarkCase;
use tr_netlist::{suite, Circuit, GateId, NetId};
use tr_power::{propagate_exact_bdd, propagate_with_mode, IncrementalPropagator, PropagationMode};

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

/// Gates with a same-arity dual cell (everything but inverters).
fn candidates(c: &Circuit) -> Vec<GateId> {
    (0..c.gates().len())
        .filter(|&i| !matches!(c.gates()[i].cell, CellKind::Inv))
        .map(GateId)
        .collect()
}

/// Swaps a gate's cell for its same-arity dual (NAND↔NOR, AOI↔OAI) —
/// the function-changing "accepted cell change" of the fixpoint loop.
fn toggle_cell(c: &mut Circuit, g: GateId) {
    let new = match c.gate(g).cell.clone() {
        CellKind::Nand(k) => CellKind::Nor(k),
        CellKind::Nor(k) => CellKind::Nand(k),
        CellKind::Aoi(gs) => CellKind::Oai(gs),
        CellKind::Oai(gs) => CellKind::Aoi(gs),
        CellKind::Inv => panic!("an inverter has no same-arity dual"),
    };
    c.set_cell(g, new);
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

fn csel32() -> Circuit {
    suite::standard_suite(library())
        .into_iter()
        .find(|c| c.name == "csel32")
        .expect("csel32 registered in the suite")
        .circuit
}

fn skewed_stats(n: usize) -> Vec<SignalStats> {
    (0..n)
        .map(|i| SignalStats::new(0.08 + 0.013 * (i % 64) as f64, 2.0e4 * (1 + i % 9) as f64))
        .collect()
}

/// Applies a sequence of accepted cell changes to `circuit`, refreshing
/// incrementally after each, and pins every refresh against a full
/// rebuild of the edited circuit.
fn run_sequence(name: &str, circuit: &Circuit, pi: &[SignalStats], picks: &[u32]) {
    let lib = library();
    let mut c = circuit.clone();
    let mut prop = IncrementalPropagator::new(&c, lib, pi, PropagationMode::ExactBdd)
        .expect("fits node budget");
    let cands = candidates(&c);
    assert!(!cands.is_empty(), "{name}: no toggleable gate");
    for &pick in picks {
        let victim = cands[pick as usize % cands.len()];
        toggle_cell(&mut c, victim);
        prop.refresh(&c, lib, &[victim])
            .expect("refresh fits budget");
        let want = propagate_exact_bdd(&c, lib, pi).expect("rebuild fits budget");
        for (net, (a, b)) in prop.net_stats().iter().zip(&want).enumerate() {
            assert_stats_close(name, net, a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Randomized statistics and change sequences over every ≤12-input
    /// suite circuit: four accepted changes each, every one checked
    /// against a full rebuild.
    #[test]
    fn incremental_matches_full_rebuild_on_light_suite(
        raw in prop::collection::vec((0.0f64..=1.0, 0.0f64..1.0e6), 12),
        picks in prop::collection::vec(any::<u32>(), 4),
    ) {
        for case in suite_up_to(12) {
            let n = case.circuit.primary_inputs().len();
            let pi: Vec<SignalStats> = raw[..n]
                .iter()
                .map(|&(p, d)| SignalStats::new(p, d))
                .collect();
            run_sequence(&case.name, &case.circuit, &pi, &picks);
        }
    }
}

/// The deterministic `csel32` scenario (65 primary inputs — far past
/// any truth-table oracle): six accepted changes, including an
/// immediate un-toggle (picks 4 and 5 hit the same victim), each
/// checked against a full rebuild.
#[test]
fn incremental_matches_full_rebuild_on_csel32() {
    let c = csel32();
    let pi = skewed_stats(c.primary_inputs().len());
    run_sequence("csel32", &c, &pi, &[0, 17, 43, 9, 26, 26]);
}

/// One accepted change on **every** circuit of the suite (the
/// acceptance bar: incremental matches a full `exact_stats` rebuild to
/// 1e-12 on every suite circuit, `rnd_e`'s 500 dense random gates
/// included). The victim sits mid-circuit so the cone is non-trivial.
#[test]
fn incremental_matches_full_rebuild_on_every_suite_circuit() {
    for case in suite::standard_suite(library()) {
        let n = case.circuit.primary_inputs().len();
        let pi: Vec<SignalStats> = (0..n)
            .map(|i| SignalStats::new(0.1 + 0.025 * (i % 30) as f64, 1.0e4 * (1 + i % 7) as f64))
            .collect();
        let mid = candidates(&case.circuit).len() as u32 / 2;
        run_sequence(&case.name, &case.circuit, &pi, &[mid]);
    }
}

/// Moves every gate with a choice to its last configuration — the
/// optimizer's function-preserving edit — and returns those gates.
fn reconfigure_all(c: &mut Circuit) -> Vec<GateId> {
    let mut edited = Vec::new();
    for i in 0..c.gates().len() {
        let n = library()
            .cell(&c.gates()[i].cell)
            .expect("library cell")
            .configurations()
            .len();
        if n > 1 {
            c.set_config(GateId(i), n - 1);
            edited.push(GateId(i));
        }
    }
    edited
}

/// Nets in the transitive fanout of `g` (its output included).
fn fanout_cone(c: &Circuit, g: GateId) -> Vec<bool> {
    let mut in_cone = vec![false; c.net_count()];
    in_cone[c.gate(g).output.0] = true;
    for gid in c.topological_order().expect("acyclic") {
        let gate = c.gate(gid);
        if gate.inputs.iter().any(|n| in_cone[n.0]) {
            in_cone[gate.output.0] = true;
        }
    }
    in_cone
}

fn bits(s: &SignalStats) -> (u64, u64) {
    (s.probability().to_bits(), s.density().to_bits())
}

/// A refresh whose dirty gates only changed configuration touches no
/// engine: no net is reported, every statistic stays bitwise equal, and
/// the BDD op-cache lookup counters do not move.
#[test]
fn config_only_refresh_does_no_backend_work() {
    let lib = library();
    for mode in [PropagationMode::ExactBdd, PropagationMode::partitioned()] {
        let mut c = csel32();
        let pi = skewed_stats(c.primary_inputs().len());
        let mut prop = IncrementalPropagator::new(&c, lib, &pi, mode).expect("fits node budget");
        let before: Vec<_> = prop.net_stats().iter().map(bits).collect();
        let engine = prop.engine_stats().expect("exact backends keep an engine");
        let dirty = reconfigure_all(&mut c);
        assert!(dirty.len() > 100, "{mode}: csel32 has reorderable gates");
        let refreshed = prop.refresh(&c, lib, &dirty).expect("refresh");
        assert!(refreshed.is_empty(), "{mode}: §4.2 — no net may change");
        let after: Vec<_> = prop.net_stats().iter().map(bits).collect();
        assert_eq!(after, before, "{mode}: statistics must stay bitwise equal");
        let caches = prop.engine_stats().expect("engine").caches;
        assert_eq!(
            (caches.ite_lookups, caches.restrict_lookups),
            (engine.caches.ite_lookups, engine.caches.restrict_lookups),
            "{mode}: a config-only refresh must not probe the engine"
        );
        assert_eq!(prop.repropagations(), 1, "{mode}: the call still counts");
        assert_eq!(prop.refreshed_nets(), 0, "{mode}");
    }
}

/// One cell substitution hidden among hundreds of configuration edits:
/// the refresh reports only nets of the substituted gate's fanout cone,
/// reports every net that moved, leaves every other net bitwise alone,
/// and lands within 1e-12 of a full propagation of the edited circuit.
#[test]
fn cell_edit_among_config_edits_refreshes_exactly_its_cone() {
    let lib = library();
    for mode in [PropagationMode::ExactBdd, PropagationMode::partitioned()] {
        let mut c = csel32();
        let pi = skewed_stats(c.primary_inputs().len());
        let mut prop = IncrementalPropagator::new(&c, lib, &pi, mode).expect("fits node budget");
        let before = prop.net_stats().to_vec();
        let mut dirty = reconfigure_all(&mut c);
        let cands = candidates(&c);
        let victim = cands[cands.len() / 2];
        toggle_cell(&mut c, victim);
        dirty.push(victim);
        let refreshed = prop.refresh(&c, lib, &dirty).expect("refresh");
        assert!(
            !refreshed.is_empty(),
            "{mode}: a cell substitution moves its output"
        );
        let cone = fanout_cone(&c, victim);
        for net in &refreshed {
            assert!(cone[net.0], "{mode}: net {} is outside the cone", net.0);
        }
        for (i, (now, was)) in prop.net_stats().iter().zip(&before).enumerate() {
            if !cone[i] {
                assert_eq!(
                    bits(now),
                    bits(was),
                    "{mode}: net {i} outside the cone moved"
                );
            } else if bits(now) != bits(was) {
                assert!(
                    refreshed.contains(&NetId(i)),
                    "{mode}: net {i} moved but was not reported"
                );
            }
        }
        let want = propagate_with_mode(&c, lib, &pi, mode).expect("full propagation");
        for (net, (a, b)) in prop.net_stats().iter().zip(&want).enumerate() {
            assert_stats_close(&format!("csel32/{mode}"), net, a, b);
        }
    }
}
