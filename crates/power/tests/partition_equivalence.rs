//! Equivalence envelope of the cone-partitioned backend, through
//! `IncrementalPropagator` — the one engine the flow, the server and
//! `tr-opt analyze` run:
//!
//! 1. Partitioned vs monolithic full-BDD statistics on **every** suite
//!    circuit where the monolithic backend runs, under an
//!    accuracy-tuned config (few, large regions): the deviation is
//!    pinned to a measured envelope, and vanishes entirely wherever
//!    the partition certifies itself exact (`approx_fraction == 0`).
//! 2. Degenerate cuts recover the neighbouring backends: cut width 0
//!    is *bitwise* the monolithic `ExactBdd`; cutting every net
//!    reproduces gate-local independent propagation to rounding.
//! 3. Randomized cut budgets (proptest) never break sanity: statistics
//!    stay valid and primary inputs pass through untouched.

use proptest::prelude::*;
use std::sync::OnceLock;
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::{generators, suite, Circuit};
use tr_power::{
    propagate, propagate_exact_bdd, IncrementalPropagator, PropagationError, PropagationMode,
    PropagatorOptions,
};

fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(Library::standard)
}

/// A deterministic, deliberately asymmetric stimulus.
fn skewed_stats(n: usize) -> Vec<SignalStats> {
    (0..n)
        .map(|i| {
            let p = 0.1 + 0.8 * ((i as f64) * 0.137).fract();
            let d = 2.0e4 * (1 + i % 7) as f64;
            SignalStats::new(p, d)
        })
        .collect()
}

/// A partition's `(regions, cut_nets, approx_fraction)`.
type Summary = (usize, usize, f64);

/// Partitioned statistics and the partition's summary under the given
/// budgets.
fn partitioned(
    circuit: &Circuit,
    pi: &[SignalStats],
    max_region_nodes: usize,
    max_cut_width: usize,
    region_cost: Option<usize>,
) -> Result<(Vec<SignalStats>, Summary), PropagationError> {
    let prop = IncrementalPropagator::new_with(
        circuit,
        library(),
        pi,
        PropagationMode::PartitionedBdd {
            max_region_nodes,
            max_cut_width,
        },
        &PropagatorOptions {
            region_cost,
            ..PropagatorOptions::default()
        },
    )?;
    let summary = prop.partition_summary().expect("partitioned backend");
    Ok((prop.net_stats().to_vec(), summary))
}

/// Max |ΔP| over all nets.
fn max_dp(a: &[SignalStats], b: &[SignalStats]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.probability() - y.probability()).abs())
        .fold(0.0, f64::max)
}

/// Max relative ΔD over all nets (floored at 1.0 to keep near-zero
/// densities from blowing up the ratio).
fn max_rel_dd(a: &[SignalStats], b: &[SignalStats]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            (x.density() - y.density()).abs() / x.density().abs().max(y.density().abs()).max(1.0)
        })
        .fold(0.0, f64::max)
}

/// Partitioned vs monolithic full-BDD on every suite circuit where the
/// monolithic backend completes under its default node budget. The
/// only approximation is lost correlation between a region's inputs,
/// so the deviation must stay within the acceptance envelope — and
/// must vanish entirely when the partition certifies itself exact.
#[test]
fn partitioned_tracks_full_bdd_across_the_suite() {
    let lib = library();
    let mut compared = 0usize;
    for case in suite::standard_suite(lib) {
        let pi = skewed_stats(case.circuit.primary_inputs().len());
        let Ok(full) = propagate_exact_bdd(&case.circuit, lib, &pi) else {
            continue; // monolithic backend blew its budget: nothing to compare
        };
        // Mirror the flow's shrink-regions ladder: when the preferred
        // few-large-regions shape blows a per-region budget, halve the
        // packing cost (smaller regions) until it fits.
        let mut cost = 2048usize;
        let (part, (regions, cut_nets, approx_fraction)) = loop {
            match partitioned(&case.circuit, &pi, 1 << 20, 40, Some(cost)) {
                Ok(result) => break result,
                Err(e) if cost > 16 => {
                    eprintln!(
                        "{}: cost {cost} blew the budget ({e}), shrinking",
                        case.name
                    );
                    cost /= 2;
                }
                Err(e) => panic!("{}: smallest regions still fail: {e}", case.name),
            }
        };
        let dp = max_dp(&full, &part);
        let dd = max_rel_dd(&full, &part);
        eprintln!(
            "{}: regions {} cut {} approx {:.3} max|dP| {:.3e} max relΔD {:.3e}",
            case.name, regions, cut_nets, approx_fraction, dp, dd
        );
        if approx_fraction == 0.0 {
            assert!(dp < 1e-12, "{}: certified exact but dP = {dp}", case.name);
            assert!(dd < 1e-9, "{}: certified exact but dD = {dd}", case.name);
        } else {
            // The 0.05 acceptance point on mult8 is pinned in
            // `partition.rs` under the acceptance stimulus; this sweep
            // uses a deliberately harsher skew, where the worst measured
            // deviations are |ΔP| 0.097 and relΔD 1.0, both on the
            // structureless random circuits (`rnd_d`/`rnd_e`). The
            // envelope carries a small margin over those.
            assert!(dp <= 0.12, "{}: |dP| {dp} beyond the envelope", case.name);
            assert!(dd <= 1.5, "{}: relΔD {dd} beyond the envelope", case.name);
        }
        compared += 1;
    }
    assert!(
        compared >= 10,
        "the monolithic backend should run on most of the suite, got {compared}"
    );
}

/// Cut width 0 disables cutting: one region, built by the monolithic
/// engine — bitwise equal to `ExactBdd`, certified exact.
#[test]
fn cut_width_zero_is_bitwise_full_bdd() {
    let lib = library();
    let circuit = generators::array_multiplier(6, lib);
    let pi = skewed_stats(circuit.primary_inputs().len());
    let full = propagate_exact_bdd(&circuit, lib, &pi).expect("mult6 fits");
    let (part, summary) = partitioned(&circuit, &pi, 0, 0, None).expect("single region fits");
    assert_eq!(summary, (1, 0, 0.0));
    for (net, (a, b)) in full.iter().zip(&part).enumerate() {
        assert!(
            a.probability() == b.probability() && a.density() == b.density(),
            "net {net}: ({}, {}) vs ({}, {})",
            a.probability(),
            a.density(),
            b.probability(),
            b.density()
        );
    }
}

/// `max_region_nodes == 1` cuts every net: every gate is its own
/// region, whose cut inputs carry exactly the upstream (P, D) — i.e.
/// gate-local independent propagation, to rounding.
#[test]
fn cutting_every_net_reproduces_independent_propagation() {
    let lib = library();
    for circuit in [
        generators::ripple_carry_adder(8, lib),
        generators::array_multiplier(4, lib),
    ] {
        let pi = skewed_stats(circuit.primary_inputs().len());
        let indep = propagate(&circuit, lib, &pi);
        let (part, (regions, _, _)) =
            partitioned(&circuit, &pi, 1, 16, None).expect("one-gate regions always fit");
        assert!(
            regions >= circuit.gates().len(),
            "{}: every gate its own region",
            circuit.name()
        );
        for (net, (a, b)) in indep.iter().zip(&part).enumerate() {
            assert!(
                (a.probability() - b.probability()).abs() < 1e-9,
                "{} net {net}: P {} vs {}",
                circuit.name(),
                a.probability(),
                b.probability()
            );
            let d_tol = 1e-9 * a.density().abs().max(b.density().abs()).max(1.0);
            assert!(
                (a.density() - b.density()).abs() < d_tol,
                "{} net {net}: D {} vs {}",
                circuit.name(),
                a.density(),
                b.density()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Any cut budget yields sane, input-preserving statistics whose
    /// probabilities stay within the acceptance envelope of full-BDD.
    #[test]
    fn random_cut_budgets_stay_sane_and_close(
        region_nodes in 2usize..20_000,
        cut_width in 1usize..40,
    ) {
        let lib = library();
        let circuit = generators::array_multiplier(4, lib);
        let pi = skewed_stats(circuit.primary_inputs().len());
        let full = propagate_exact_bdd(&circuit, lib, &pi).expect("mult4 fits");
        let (part, (regions, _, _)) = partitioned(&circuit, &pi, region_nodes, cut_width, None)
            .expect("mult4 fits any cut");
        prop_assert!(regions >= 1);
        for (net, s) in part.iter().enumerate() {
            prop_assert!(
                (0.0..=1.0).contains(&s.probability()),
                "net {net}: P {}", s.probability()
            );
            prop_assert!(
                s.density().is_finite() && s.density() >= 0.0,
                "net {net}: D {}", s.density()
            );
        }
        for (i, &net) in circuit.primary_inputs().iter().enumerate() {
            prop_assert!(
                part[net.0].probability() == pi[i].probability()
                    && part[net.0].density() == pi[i].density(),
                "primary input {i} must pass through untouched"
            );
        }
        // Aggressive cuts lose more correlation than the tuned config
        // (measured up to ~0.12 on mult4), so this is a gross-corruption
        // guard, not an accuracy envelope — accuracy is pinned above
        // under the config the flow actually uses.
        let dp = max_dp(&full, &part);
        prop_assert!(dp <= 0.25, "max|dP| {dp}: corrupted statistics");
    }
}
