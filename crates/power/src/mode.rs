//! Selectable probability backends for whole-circuit propagation.
//!
//! Four ways to obtain per-net `(P, D)` statistics, one trade-off axis:
//!
//! | mode | correlation | cost | limit |
//! |------|-------------|------|-------|
//! | [`PropagationMode::Independent`] | assumed independent at every gate | one linear pass | none |
//! | [`PropagationMode::ExactBdd`]    | exact (shared ROBDDs)             | circuit BDD size | *live*-node budget |
//! | [`PropagationMode::PartitionedBdd`] | exact within regions, cut nets assumed independent | Σ region BDD sizes | per-region node budget |
//! | [`PropagationMode::Monte`]       | exact in the limit (`1/√N`)       | `steps` sweeps   | sampling noise |
//!
//! `Independent` is the paper's own §3 propagation; `ExactBdd` replaces
//! the [`tr_boolean::MAX_VARS`]-capped truth-table `propagate_exact` with BDDs and no
//! input cap; `Monte` is the assumption-free sampling estimate.
//! [`IncrementalPropagator::new_with`](crate::IncrementalPropagator::new_with)
//! is the one place a mode becomes statistics; the partitioned mode
//! spans the other two as its corner cases (cut width 0 *is* the
//! exact engine, cutting every net reproduces independent propagation).
//!
//! The BDD backend's node budget bounds the **live** working set, not
//! the allocation total: the mark-and-sweep manager recycles dead
//! composition intermediates, and the density pass never materializes
//! difference BDDs, so a circuit only fails when the reachable per-net
//! BDDs themselves cannot fit ([`tr_bdd::DEFAULT_NODE_LIMIT`] nodes).
//! Every suite circuit — including `rnd_e`'s dense random logic, which
//! used to exhaust the budget with garbage — now completes.

use std::fmt;
use tr_bdd::{BddError, BuildOptions, CircuitBddStats, CircuitBdds};
use tr_boolean::govern::Interrupted;
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::{Circuit, CircuitError, CompiledCircuit};

/// Which backend computes the per-net signal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Gate-local propagation under the input-independence assumption
    /// (the paper's §3; fast, biased on reconvergent fanout).
    #[default]
    Independent,
    /// Exact whole-circuit statistics over shared ROBDDs (`tr-bdd`):
    /// reconvergent correlation handled exactly, no primary-input cap.
    ExactBdd,
    /// Cone-partitioned exact statistics (`tr_power::partition`): one
    /// small BDD engine pass per fanout-bounded region, cut nets
    /// carrying their upstream `(P, D)` downstream as pseudo-inputs,
    /// regions evaluated in topological order. Exact within every
    /// region; only cross-cut correlation is approximated. This is the
    /// backend that scales past the whole-circuit BDD ceiling.
    PartitionedBdd {
        /// Per-region live-node budget (`0` ⇒ default 8192; `1` ⇒ cut
        /// every net, which reproduces the independent backend).
        max_region_nodes: usize,
        /// Cut width — external inputs per region (`0` ⇒ no cuts: the
        /// whole-circuit engine of [`PropagationMode::ExactBdd`], under
        /// the run's node budget).
        max_cut_width: usize,
    },
    /// Monte Carlo estimate: sample the stationary input process for
    /// `steps` time steps and count probabilities and transitions.
    /// Unbiased but noisy (`1/√steps`, worse for inputs much slower
    /// than the simulated span) — a cross-check, not a precision
    /// backend.
    Monte {
        /// Number of sampled time steps.
        steps: usize,
        /// RNG seed (estimates are deterministic per seed).
        seed: u64,
    },
}

impl PropagationMode {
    /// A Monte Carlo mode with the default step budget (50 000 samples —
    /// probability standard error ≈ 0.002).
    pub fn monte(seed: u64) -> Self {
        PropagationMode::Monte {
            steps: 50_000,
            seed,
        }
    }

    /// The partitioned backend with its default budgets
    /// (8192 live nodes per region, cut width 24).
    pub fn partitioned() -> Self {
        PropagationMode::PartitionedBdd {
            max_region_nodes: crate::partition::DEFAULT_REGION_NODES,
            max_cut_width: crate::partition::DEFAULT_CUT_WIDTH,
        }
    }

    /// Whether this mode is served by the whole-circuit exact BDD engine:
    /// [`PropagationMode::ExactBdd`], and the partitioned mode at cut
    /// width 0 (no cuts, one region: the whole circuit). Such a build
    /// degrades like the exact one, by an information-order retry.
    pub fn uses_exact_engine(&self) -> bool {
        matches!(
            self,
            PropagationMode::ExactBdd
                | PropagationMode::PartitionedBdd {
                    max_cut_width: 0,
                    ..
                }
        )
    }

    /// The CLI/report spelling (`indep`, `bdd`, `part`, `monte`).
    pub fn as_str(&self) -> &'static str {
        match self {
            PropagationMode::Independent => "indep",
            PropagationMode::ExactBdd => "bdd",
            PropagationMode::PartitionedBdd { .. } => "part",
            PropagationMode::Monte { .. } => "monte",
        }
    }
}

impl fmt::Display for PropagationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Failure of a statistics backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagationError {
    /// The BDD backend exceeded its node budget.
    Bdd(BddError),
    /// The circuit failed to compile against the library.
    Circuit(CircuitError),
    /// A governed backend was cancelled or ran past its deadline
    /// (cooperative — the engine was left consistent). Kept distinct
    /// from [`PropagationError::Bdd`] so callers can tell "this run was
    /// cut short" from "this circuit does not fit".
    Interrupted(Interrupted),
}

impl fmt::Display for PropagationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropagationError::Bdd(e) => write!(f, "exact BDD propagation failed: {e}"),
            PropagationError::Circuit(e) => write!(f, "circuit does not compile: {e}"),
            PropagationError::Interrupted(i) => write!(f, "propagation {i}"),
        }
    }
}

impl std::error::Error for PropagationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PropagationError::Bdd(e) => Some(e),
            PropagationError::Circuit(e) => Some(e),
            PropagationError::Interrupted(i) => Some(i),
        }
    }
}

impl From<BddError> for PropagationError {
    fn from(e: BddError) -> Self {
        match e {
            // Normalize: interruption is a property of the *run*, not of
            // the BDD backend, so it surfaces the same way from every
            // governed backend.
            BddError::Interrupted(i) => PropagationError::Interrupted(*i),
            other => PropagationError::Bdd(other),
        }
    }
}

impl From<Interrupted> for PropagationError {
    fn from(i: Interrupted) -> Self {
        PropagationError::Interrupted(i)
    }
}

impl From<CircuitError> for PropagationError {
    fn from(e: CircuitError) -> Self {
        PropagationError::Circuit(e)
    }
}

/// The Monte Carlo sample interval: resolve the fastest input's dwell
/// time so no flip probability needs clamping and observed-flip density
/// counting stays exact in expectation (see `monte::estimate`). Inputs
/// much slower than the simulated span `steps·dt` estimate their P with
/// high variance; Monte is a cross-check, not a precision backend.
/// Quiescent inputs (no dwell) make dt arbitrary.
pub(crate) fn monte_dt(pi_stats: &[SignalStats]) -> f64 {
    let min_dwell = pi_stats
        .iter()
        .filter_map(|s| s.dwell_times().map(|(t0, t1)| t0.min(t1)))
        .fold(f64::INFINITY, f64::min);
    if min_dwell.is_finite() {
        0.2 * min_dwell
    } else {
        1.0
    }
}

/// Exact whole-circuit statistics over shared ROBDDs: the successor of
/// [`propagate_exact`](crate::propagate_exact) with no [`tr_boolean::MAX_VARS`] cap.
///
/// # Errors
///
/// Returns [`PropagationError`] if the circuit does not compile against
/// `library` or the BDD build blows the default node budget.
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count.
pub fn propagate_exact_bdd(
    circuit: &Circuit,
    library: &Library,
    pi_stats: &[SignalStats],
) -> Result<Vec<SignalStats>, PropagationError> {
    propagate_exact_bdd_with_stats(circuit, library, pi_stats).map(|(stats, _)| stats)
}

/// [`propagate_exact_bdd`] also returning the BDD size/cache statistics
/// (reported by EXPERIMENTS.md and the `independence_error` binary).
///
/// # Errors
///
/// As [`propagate_exact_bdd`].
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count.
pub fn propagate_exact_bdd_with_stats(
    circuit: &Circuit,
    library: &Library,
    pi_stats: &[SignalStats],
) -> Result<(Vec<SignalStats>, CircuitBddStats), PropagationError> {
    let compiled = CompiledCircuit::compile(circuit, library)?;
    let mut bdds = CircuitBdds::build(&compiled, library, BuildOptions::default())?;
    let stats = bdds.exact_stats(pi_stats)?;
    Ok((stats, bdds.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{propagate, propagate_exact, IncrementalPropagator};
    use tr_netlist::{generators, Circuit};

    /// Net statistics of `mode` through the one engine constructor.
    fn stats_of(
        c: &Circuit,
        lib: &Library,
        pi: &[SignalStats],
        mode: PropagationMode,
    ) -> Vec<SignalStats> {
        IncrementalPropagator::new(c, lib, pi, mode)
            .unwrap()
            .net_stats()
            .to_vec()
    }

    #[test]
    fn bdd_matches_truth_table_exact() {
        let lib = Library::standard();
        let c = generators::mux_tree(3, &lib); // 11 inputs ≤ MAX_VARS
        let pi: Vec<SignalStats> = (0..11)
            .map(|i| SignalStats::new(0.05 + 0.08 * i as f64, 1.0e4 * (i + 1) as f64))
            .collect();
        let tt = propagate_exact(&c, &lib, &pi).expect("fits MAX_VARS");
        let bdd = propagate_exact_bdd(&c, &lib, &pi).expect("fits node budget");
        for (n, (a, b)) in tt.iter().zip(&bdd).enumerate() {
            assert!(
                (a.probability() - b.probability()).abs() < 1e-12,
                "net {n}: P {a} vs {b}"
            );
            let rel = (a.density() - b.density()).abs() / a.density().max(1.0);
            assert!(rel < 1e-12, "net {n}: D {a} vs {b}");
        }
    }

    #[test]
    fn modes_dispatch() {
        let lib = Library::standard();
        let c = generators::parity_tree(4, &lib);
        let pi = vec![SignalStats::new(0.5, 1.0e5); 4];
        let indep = stats_of(&c, &lib, &pi, PropagationMode::Independent);
        assert_eq!(indep, propagate(&c, &lib, &pi));
        let bdd = stats_of(&c, &lib, &pi, PropagationMode::ExactBdd);
        assert_eq!(bdd, propagate_exact_bdd(&c, &lib, &pi).unwrap());
        let mc = stats_of(&c, &lib, &pi, PropagationMode::monte(7));
        assert_eq!(mc.len(), c.net_count());
        // Parity of independent 0.5 inputs is exactly 1/2 — but only the
        // exact backends know it: the mapped XOR expansion reconverges,
        // so the independent backend is merely close.
        let y = c.primary_outputs()[0];
        assert!((bdd[y.0].probability() - 0.5).abs() < 1e-12);
        assert!((mc[y.0].probability() - 0.5).abs() < 0.03);
        assert!((indep[y.0].probability() - 0.5).abs() < 0.2);
    }

    #[test]
    fn monte_preserves_skewed_input_statistics() {
        // Regression: with dt derived from density alone (0.5/max_D), a
        // P = 0.9 input had its 1→0 flip probability clamped at 0.5 but
        // not its 0→1, dragging the simulated probability to ~0.64. The
        // dwell-aware dt must reproduce the requested statistics.
        let lib = Library::standard();
        let mut c = Circuit::new("skew");
        let a = c.add_input("a");
        let (_, y) = c.add_gate(tr_gatelib::CellKind::Inv, vec![a], "y");
        c.mark_output(y);
        let pi = vec![SignalStats::new(0.9, 1.0e5)];
        let mc = stats_of(&c, &lib, &pi, PropagationMode::monte(11));
        assert!(
            (mc[a.0].probability() - 0.9).abs() < 0.02,
            "input probability drifted: {}",
            mc[a.0].probability()
        );
        let rel = (mc[a.0].density() - 1.0e5).abs() / 1.0e5;
        assert!(rel < 0.1, "input density drifted: {}", mc[a.0].density());
    }

    #[test]
    fn mode_spellings_round_trip() {
        assert_eq!(PropagationMode::Independent.as_str(), "indep");
        assert_eq!(PropagationMode::ExactBdd.as_str(), "bdd");
        assert_eq!(PropagationMode::partitioned().as_str(), "part");
        assert_eq!(PropagationMode::monte(0).as_str(), "monte");
        assert_eq!(PropagationMode::default(), PropagationMode::Independent);
    }

    #[test]
    fn only_exact_and_uncut_partitioned_use_the_exact_engine() {
        assert!(PropagationMode::ExactBdd.uses_exact_engine());
        let uncut = PropagationMode::PartitionedBdd {
            max_region_nodes: 4096,
            max_cut_width: 0,
        };
        assert!(uncut.uses_exact_engine());
        assert!(!PropagationMode::partitioned().uses_exact_engine());
        assert!(!PropagationMode::Independent.uses_exact_engine());
        assert!(!PropagationMode::monte(0).uses_exact_engine());
    }

    #[test]
    fn partitioned_mode_dispatches() {
        let lib = Library::standard();
        let c = generators::array_multiplier(6, &lib);
        let n = c.primary_inputs().len();
        let pi: Vec<SignalStats> = (0..n)
            .map(|i| SignalStats::new(0.2 + 0.05 * i as f64, 1.0e4))
            .collect();
        let exact = stats_of(&c, &lib, &pi, PropagationMode::ExactBdd);
        let part = stats_of(&c, &lib, &pi, PropagationMode::partitioned());
        assert_eq!(part.len(), c.net_count());
        // Dispatch sanity under the speed-biased defaults: bounded
        // cut-approximation error (the tight |ΔP| ≤ 0.05 accuracy point
        // is pinned in `partition::tests`).
        let max_dp = exact
            .iter()
            .zip(&part)
            .map(|(a, b)| (a.probability() - b.probability()).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dp <= 0.12, "max |ΔP| = {max_dp}");
    }

    #[test]
    fn node_limit_error_propagates() {
        // propagate_exact_bdd uses the default budget; exercise the error
        // path through the lower-level API instead.
        let lib = Library::standard();
        let c = generators::array_multiplier(6, &lib);
        let compiled = CompiledCircuit::compile(&c, &lib).unwrap();
        let err = CircuitBdds::build(
            &compiled,
            &lib,
            tr_bdd::BuildOptions {
                node_limit: 32,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            PropagationError::from(err),
            PropagationError::Bdd(_)
        ));
    }
}
