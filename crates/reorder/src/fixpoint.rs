//! The sound fixed-point optimization loop: propagate → optimize →
//! re-propagate dirty cones → repeat until no gate changes.
//!
//! The single-pass optimizer scores every configuration against net
//! statistics computed *once*, before optimization. That is provably
//! sufficient for the paper's move set — reordering a gate's
//! transistors never changes its Boolean function (§4.2), so the
//! statistics cannot drift — but the claim deserves to be *checked*,
//! not assumed, and it stops holding the moment a flow substitutes
//! cells or feeds the optimizer statistics that were stale to begin
//! with. [`optimize_to_fixpoint`] closes the loop:
//!
//! 1. optimize against the current statistics;
//! 2. if no gate changed, stop — the statistics provably describe the
//!    final circuit (they were just used unchanged);
//! 3. otherwise re-derive exactly the dirty cones of the accepted
//!    changes through [`IncrementalPropagator::refresh`] (for the BDD
//!    backend: GC-safe in-place recomposition in the long-lived
//!    manager, no rebuild) and go to 1.
//!
//! For config-only moves the refresh finds every cone clean and the
//! loop converges on the second iteration with a measured
//! stale-vs-fresh discrepancy of exactly zero — the §4.2 lemma,
//! verified at runtime instead of trusted. The iteration cap exists for
//! move sets with real feedback (cell substitution); hitting it is not
//! an error but a typed [`FixpointTermination::IterationCap`] report,
//! with the final numbers still computed from fresh statistics.

use crate::{optimize_with, Objective, OptimizeOptions, OptimizeResult};
use tr_boolean::govern::Governor;
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::{Circuit, CompiledCircuit, GateId};
use tr_power::{
    circuit_total_compiled, external_loads_compiled, IncrementalPropagator, PowerModel,
    PropagationError, Scratch,
};

/// Default [`FixpointOptions::max_iterations`]: config-only moves
/// converge in two iterations, so eight leaves ample room for
/// cell-substituting flows before the typed cap report fires.
pub const DEFAULT_MAX_ITERATIONS: usize = 8;

/// Knobs of [`optimize_to_fixpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixpointOptions {
    /// What each traversal selects per gate.
    pub objective: Objective,
    /// Iteration cap; reaching it yields
    /// [`FixpointTermination::IterationCap`], not an error.
    pub max_iterations: usize,
    /// Worker threads per traversal (see [`OptimizeOptions::threads`]).
    pub threads: usize,
}

impl Default for FixpointOptions {
    fn default() -> Self {
        FixpointOptions {
            objective: Objective::MinimizePower,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            threads: 1,
        }
    }
}

/// How the fixed-point loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixpointTermination {
    /// An iteration accepted zero changes: the statistics provably
    /// describe the final circuit.
    Converged,
    /// [`FixpointOptions::max_iterations`] traversals all accepted
    /// changes. The reported numbers are still fresh (the last accepted
    /// circuit was re-propagated before reporting).
    IterationCap {
        /// Gates still changing in the final traversal.
        last_changed_gates: usize,
    },
}

/// Everything [`optimize_to_fixpoint`] learned.
#[derive(Debug, Clone)]
pub struct FixpointReport {
    /// The final circuit with before/after powers: `power_before` under
    /// the initial statistics, `power_after` under statistics that are
    /// *fresh for the final circuit*, and `changed_gates` counted
    /// against the input circuit.
    pub result: OptimizeResult,
    /// Optimizer traversals run (the converging run counts).
    pub iterations: usize,
    /// Dirty-cone re-propagations run (one per accepting traversal).
    pub repropagations: usize,
    /// Nets whose statistics actually changed across all
    /// re-propagations (0 for config-only moves — the §4.2 lemma,
    /// measured).
    pub refreshed_nets: usize,
    /// Final circuit's power as the last traversal *believed* it —
    /// scored against that traversal's (possibly stale) statistics (W).
    pub stale_power_w: f64,
    /// Final circuit's power under fresh statistics (W). Equal to
    /// `result.power_after`.
    pub fresh_power_w: f64,
    /// Why the loop stopped.
    pub termination: FixpointTermination,
}

impl FixpointReport {
    /// Whether the loop reached a true fixed point.
    pub fn converged(&self) -> bool {
        self.termination == FixpointTermination::Converged
    }

    /// The measured price of trusting a frozen statistics snapshot:
    /// `|stale − fresh|` (W). Exactly zero for config-only moves.
    pub fn stale_discrepancy_w(&self) -> f64 {
        (self.stale_power_w - self.fresh_power_w).abs()
    }
}

/// Gate indices whose configuration or cell differs between two
/// structurally identical circuits — the dirty set one accepted
/// traversal hands to the re-propagator.
fn diff_gates(a: &Circuit, b: &Circuit) -> Vec<GateId> {
    debug_assert_eq!(a.gates().len(), b.gates().len());
    a.gates()
        .iter()
        .zip(b.gates())
        .enumerate()
        .filter(|(_, (x, y))| x.config != y.config || x.cell != y.cell)
        .map(|(i, _)| GateId(i))
        .collect()
}

/// Full-pass total power of `circuit` under `net_stats` (the fresh
/// number reported when the iteration cap fires mid-flight).
fn total_power(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    net_stats: &[SignalStats],
    scratch: &mut Scratch,
) -> f64 {
    let compiled = CompiledCircuit::compile(circuit, library).expect("validated circuit");
    let loads = external_loads_compiled(&compiled, model);
    circuit_total_compiled(&compiled, model, net_stats, &loads, scratch, |i| {
        compiled.gates()[i].config as usize
    })
}

/// Runs the propagate → optimize → re-propagate loop to a fixed point
/// (see the module docs) over a caller-owned propagator whose statistics
/// are already valid for `circuit`, so one statistics pass serves both a
/// flow's report and the loop. On return the propagator's statistics
/// are valid for the *final* circuit.
///
/// Under a `governor`, each optimizer traversal checks it per gate, each
/// iteration boundary checks it immediately, and the propagator's own
/// governor (if it carries one) governs the refreshes. The input circuit
/// is never modified, so an interrupted loop loses nothing but time.
///
/// # Errors
///
/// Returns [`PropagationError`] if the circuit does not compile against
/// `library`, the BDD backend blows its node budget, or a governor trips
/// ([`PropagationError::Interrupted`]). Non-convergence is **not** an
/// error — see [`FixpointTermination`].
///
/// # Panics
///
/// As [`crate::optimize_with_net_stats`]; additionally if
/// `options.threads == 0` or `options.max_iterations == 0`.
pub fn optimize_to_fixpoint(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    propagator: &mut IncrementalPropagator,
    options: FixpointOptions,
    governor: Option<&Governor>,
) -> Result<FixpointReport, PropagationError> {
    assert!(options.threads > 0, "need at least one thread");
    assert!(options.max_iterations > 0, "need at least one iteration");
    let _g = tr_trace::span!(
        "opt.fixpoint",
        max_iterations = options.max_iterations,
        threads = options.threads
    );
    let repropagations_before = propagator.repropagations();
    let refreshed_before = propagator.refreshed_nets();
    let pass = OptimizeOptions {
        objective: options.objective,
        threads: options.threads,
        governor,
        ..OptimizeOptions::default()
    };
    let mut scratch = Scratch::new();
    let mut current = circuit.clone();
    let mut power_before = f64::NAN;
    // The previous traversal's belief about the current circuit's power
    // (scored against its pre-refresh statistics).
    let mut stale_power = f64::NAN;
    let mut iterations = 0usize;
    loop {
        if let Some(g) = governor {
            g.check_now("fixpoint")?;
        }
        iterations += 1;
        let _g = tr_trace::span!("opt.iteration", iteration = iterations);
        let r = optimize_with(
            &current,
            library,
            model,
            propagator.net_stats(),
            &pass,
            &mut scratch,
        )?;
        if iterations == 1 {
            power_before = r.power_before;
        }
        let (termination, fresh_power) = if r.changed_gates == 0 {
            // Fixed point: the traversal just scored `current` against
            // statistics valid for it and kept every gate — its
            // `power_before` IS the fresh final power.
            (FixpointTermination::Converged, r.power_before)
        } else {
            let dirty = diff_gates(&current, &r.circuit);
            stale_power = r.power_after;
            current = r.circuit;
            propagator.refresh(&current, library, &dirty)?;
            if iterations < options.max_iterations {
                continue;
            }
            // Cap reached with changes still flowing: report fresh
            // numbers anyway (the refresh above just ran).
            let fresh = total_power(
                &current,
                library,
                model,
                propagator.net_stats(),
                &mut scratch,
            );
            (
                FixpointTermination::IterationCap {
                    last_changed_gates: r.changed_gates,
                },
                fresh,
            )
        };
        let changed = diff_gates(circuit, &current).len();
        return Ok(FixpointReport {
            result: OptimizeResult {
                circuit: current,
                power_before,
                power_after: fresh_power,
                changed_gates: changed,
            },
            iterations,
            repropagations: propagator.repropagations() - repropagations_before,
            refreshed_nets: propagator.refreshed_nets() - refreshed_before,
            stale_power_w: if stale_power.is_nan() {
                fresh_power
            } else {
                stale_power
            },
            fresh_power_w: fresh_power,
            termination,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use tr_gatelib::Process;
    use tr_netlist::{generators, suite};
    use tr_power::scenario::Scenario;
    use tr_power::PropagationMode;

    fn setup() -> (Library, PowerModel) {
        let lib = Library::standard();
        let model = PowerModel::new(&lib, Process::default());
        (lib, model)
    }

    /// The loop from primary-input statistics under `mode`, ungoverned.
    fn fixpoint(
        c: &Circuit,
        lib: &Library,
        model: &PowerModel,
        stats: &[SignalStats],
        mode: PropagationMode,
        options: FixpointOptions,
    ) -> Result<FixpointReport, PropagationError> {
        let mut propagator = IncrementalPropagator::new(c, lib, stats, mode)?;
        optimize_to_fixpoint(c, lib, model, &mut propagator, options, None)
    }

    /// The loop terminates on every circuit of the benchmark suite — in
    /// at most two traversals, because the paper's move set is
    /// config-only and the statistics provably cannot drift (§4.2). The
    /// fixed point must agree with the single-pass optimizer.
    #[test]
    fn fixpoint_converges_on_every_suite_circuit() {
        let (lib, model) = setup();
        for case in suite::standard_suite(&lib) {
            let n = case.circuit.primary_inputs().len();
            let stats = Scenario::a().input_stats(n, 0xF1);
            let rep = fixpoint(
                &case.circuit,
                &lib,
                &model,
                &stats,
                PropagationMode::Independent,
                FixpointOptions::default(),
            )
            .expect("independent backend is infallible here");
            assert!(rep.converged(), "{}: did not converge", case.name);
            assert!(
                rep.iterations <= 2,
                "{}: took {} iterations",
                case.name,
                rep.iterations
            );
            assert_eq!(
                rep.stale_discrepancy_w(),
                0.0,
                "{}: config-only moves must measure zero discrepancy",
                case.name
            );
            let single = optimize(
                &case.circuit,
                &lib,
                &model,
                &stats,
                Objective::MinimizePower,
            );
            assert_eq!(rep.result.circuit, single.circuit, "{}", case.name);
            assert_eq!(rep.result.power_after, single.power_after, "{}", case.name);
            assert_eq!(
                rep.result.changed_gates, single.changed_gates,
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn fixpoint_under_exact_bdd_verifies_the_monotonicity_lemma() {
        let (lib, model) = setup();
        let c = generators::carry_select_adder(16, 4, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 7);
        let rep = fixpoint(
            &c,
            &lib,
            &model,
            &stats,
            PropagationMode::ExactBdd,
            FixpointOptions::default(),
        )
        .expect("fits node budget");
        assert!(rep.converged());
        assert!(rep.result.changed_gates > 0, "optimizer should find moves");
        assert_eq!(rep.iterations, 2, "accept once, then confirm");
        assert_eq!(rep.repropagations, 1, "one refresh after the accept");
        assert_eq!(
            rep.refreshed_nets, 0,
            "§4.2: a config-only refresh re-derives no net"
        );
        assert_eq!(rep.stale_discrepancy_w(), 0.0);
        assert_eq!(rep.fresh_power_w, rep.result.power_after);
        assert!(rep.result.power_after <= rep.result.power_before + 1e-18);
    }

    #[test]
    fn fixpoint_iteration_cap_is_a_typed_report_not_an_error() {
        let (lib, model) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 3);
        let rep = fixpoint(
            &c,
            &lib,
            &model,
            &stats,
            PropagationMode::Independent,
            FixpointOptions {
                max_iterations: 1,
                ..FixpointOptions::default()
            },
        )
        .expect("independent backend");
        assert!(!rep.converged());
        match rep.termination {
            FixpointTermination::IterationCap { last_changed_gates } => {
                assert!(last_changed_gates > 0)
            }
            FixpointTermination::Converged => panic!("cap of 1 must not converge here"),
        }
        assert_eq!(rep.iterations, 1);
        // The cap path still reports fresh numbers; config-only moves
        // leave the statistics untouched, so stale == fresh exactly.
        assert_eq!(rep.stale_discrepancy_w(), 0.0);
        let single = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        assert_eq!(rep.result.circuit, single.circuit);
        assert_eq!(rep.result.power_after, single.power_after);
    }

    #[test]
    fn fixpoint_parallel_matches_serial() {
        let (lib, model) = setup();
        let c = generators::array_multiplier(4, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 21);
        let serial = fixpoint(
            &c,
            &lib,
            &model,
            &stats,
            PropagationMode::Independent,
            FixpointOptions::default(),
        )
        .unwrap();
        let parallel = fixpoint(
            &c,
            &lib,
            &model,
            &stats,
            PropagationMode::Independent,
            FixpointOptions {
                threads: 4,
                ..FixpointOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.result.circuit, parallel.result.circuit);
        assert_eq!(serial.result.power_after, parallel.result.power_after);
        assert_eq!(serial.iterations, parallel.iterations);
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn fixpoint_zero_threads_panics() {
        let (lib, model) = setup();
        let c = generators::ripple_carry_adder(2, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 1);
        let _ = fixpoint(
            &c,
            &lib,
            &model,
            &stats,
            PropagationMode::Independent,
            FixpointOptions {
                threads: 0,
                ..FixpointOptions::default()
            },
        );
    }
}
