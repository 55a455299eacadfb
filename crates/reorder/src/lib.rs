//! The transistor-reordering power optimizer — the paper's §4 algorithm.
//!
//! One depth-first traversal of the circuit (Fig. 3):
//!
//! 1. `OBTAIN_PROBABILITIES` — propagate `(P, D)` statistics from the
//!    primary inputs through every gate *function* (ordering-independent);
//! 2. for each gate, `FIND_BEST_REORDERING` — exhaustively evaluate every
//!    configuration of its cell under the extended power model and keep
//!    the cheapest;
//! 3. `CALCULATE_DENS` / `UPDATE_CIRCUIT_INFORMATION` — the output
//!    statistics are already correct because reordering never changes the
//!    gate function (§4.2 monotonicity), so a single pass is optimal with
//!    respect to the model.
//!
//! The same machinery selects the *worst* ordering, which is how the
//! paper's Table 3 measures the technique's headroom (best vs worst), and
//! a delay bound ([`Bound`]) implements the paper's §6 future-work
//! direction (power reduction without delay increase). Every variant is
//! one call to [`optimize_with`]; [`optimize`] and
//! [`optimize_with_net_stats`] are its unbounded, single-threaded
//! shorthands.
//!
//! # Example
//!
//! ```
//! use tr_boolean::SignalStats;
//! use tr_gatelib::{Library, Process};
//! use tr_netlist::generators;
//! use tr_power::PowerModel;
//! use tr_reorder::{optimize, Objective};
//!
//! let lib = Library::standard();
//! let model = PowerModel::new(&lib, Process::default());
//! let adder = generators::ripple_carry_adder(8, &lib);
//! let stats = vec![SignalStats::new(0.5, 0.5); 17];
//! let result = optimize(&adder, &lib, &model, &stats, Objective::MinimizePower);
//! assert!(result.power_after <= result.power_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;
use tr_boolean::govern::{Governor, Interrupted};
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::{Circuit, CompiledCircuit, ResolvedGate};
use tr_power::{
    circuit_total_compiled, external_loads_compiled, propagate, PowerModel, Scratch, MAX_CELL_ARITY,
};
use tr_timing::TimingModel;

/// What the traversal selects in each gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Choose the lowest-power configuration of every gate.
    MinimizePower,
    /// Choose the highest-power configuration (the paper's worst-case
    /// reference for Table 3).
    MaximizePower,
}

/// The delay constraint of one optimization pass — the paper's §6
/// future-work direction (b): "it is possible to obtain power reductions
/// without increasing the delay of the circuit".
#[derive(Debug, Clone, Copy, Default)]
pub enum Bound<'a> {
    /// Power only; the critical path may grow (paper Table 3).
    #[default]
    Unbounded,
    /// Each gate may only switch to configurations that are no slower
    /// than its *current* configuration on **every** input pin (at the
    /// gate's actual load). Pin-wise dominance is the local condition
    /// that makes the global guarantee sound: by induction over the
    /// topological order no arrival time can increase, so the critical
    /// path never grows. (Comparing only the worst pin would admit
    /// configurations that are slower on a non-worst pin and could
    /// lengthen a path through it.)
    Local(&'a TimingModel),
    /// The critical path may not grow; off-critical gates spend their
    /// slack on cheaper orderings (see [`slack`]).
    Slack(&'a TimingModel),
}

/// How [`optimize_with`] runs one traversal.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions<'a> {
    /// What each gate's selection maximizes or minimizes.
    pub objective: Objective,
    /// The delay constraint (only [`Objective::MinimizePower`] may be
    /// bounded).
    pub bound: Bound<'a>,
    /// Worker threads (1 = inline on the caller's thread). The pool is
    /// used only above its break-even work; the result is identical
    /// either way. The [`Bound::Slack`] pass is sequential and ignores
    /// this.
    pub threads: usize,
    /// Checked once per gate; shared by every worker, so a trip seen by
    /// any of them stops the pool within one queue chunk.
    pub governor: Option<&'a Governor>,
}

impl Default for OptimizeOptions<'_> {
    /// Unbounded minimization on one thread, ungoverned.
    fn default() -> Self {
        OptimizeOptions {
            objective: Objective::MinimizePower,
            bound: Bound::Unbounded,
            threads: 1,
            governor: None,
        }
    }
}

/// Result of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The rewritten circuit.
    pub circuit: Circuit,
    /// Model-estimated total power before (W).
    pub power_before: f64,
    /// Model-estimated total power after (W).
    pub power_after: f64,
    /// Number of gates whose configuration changed.
    pub changed_gates: usize,
}

impl OptimizeResult {
    /// Relative power change in percent (positive = reduction).
    pub fn reduction_percent(&self) -> f64 {
        if self.power_before == 0.0 {
            0.0
        } else {
            100.0 * (self.power_before - self.power_after) / self.power_before
        }
    }
}

/// Runs the Fig. 3 traversal over the whole circuit.
///
/// `pi_stats` supplies the primary-input statistics (see
/// [`tr_power::scenario`]). The input circuit is not modified; the chosen
/// configurations are returned in [`OptimizeResult::circuit`].
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count, the
/// circuit is invalid, or a cell is missing from the library.
pub fn optimize(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    pi_stats: &[SignalStats],
    objective: Objective,
) -> OptimizeResult {
    let net_stats = propagate(circuit, library, pi_stats);
    optimize_with_net_stats(
        circuit,
        library,
        model,
        &net_stats,
        objective,
        &mut Scratch::new(),
    )
}

/// [`optimize`] against caller-supplied **per-net** statistics — the
/// entry point for exact probability backends: pass the output of
/// [`tr_power::propagate_exact_bdd`] (or a Monte Carlo estimate) and the
/// Fig. 3 traversal scores every configuration against correlation-exact
/// activities instead of the independence approximation. Long-running
/// callers (the batch runner, benchmark loops) reuse one `scratch` per
/// thread; results do not depend on its prior contents.
///
/// # Panics
///
/// Panics if `net_stats.len()` differs from the net count, the circuit
/// is invalid, or a cell is missing from the library.
pub fn optimize_with_net_stats(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    net_stats: &[SignalStats],
    objective: Objective,
    scratch: &mut Scratch,
) -> OptimizeResult {
    let options = OptimizeOptions {
        objective,
        ..OptimizeOptions::default()
    };
    optimize_with(circuit, library, model, net_stats, &options, scratch)
        .expect("ungoverned traversal cannot be interrupted")
}

/// One optimization pass under `options`, against caller-supplied
/// per-net statistics.
///
/// The bound picks each gate's selection: unbounded argmin/argmax over
/// every configuration, or the cheapest pin-wise-dominating one
/// ([`Bound::Local`]) — both independent per gate given the statistics,
/// so gates are explored in fixed-size chunks that idle workers pull off
/// a shared queue, or inline on the caller's thread and `scratch` when
/// `threads == 1` or the work is too small for the pool to pay off. The
/// [`Bound::Slack`] pass carries arrival times from gate to gate and
/// runs sequentially. An interrupted traversal returns no partial
/// result — the input circuit is untouched either way.
///
/// # Errors
///
/// Returns [`Interrupted`] when the governor trips mid-traversal.
///
/// # Panics
///
/// Panics if `net_stats.len()` differs from the net count, the circuit
/// is invalid, a cell is missing from the library, a model was built
/// from a different library, `threads == 0`, or a delay bound is asked
/// to maximize power.
pub fn optimize_with(
    circuit: &Circuit,
    library: &Library,
    model: &PowerModel,
    net_stats: &[SignalStats],
    options: &OptimizeOptions,
    scratch: &mut Scratch,
) -> Result<OptimizeResult, Interrupted> {
    assert!(options.threads > 0, "need at least one thread");
    let compiled = CompiledCircuit::compile(circuit, library).expect("validated circuit");
    assert_cell_ids_aligned(circuit, &compiled, |k| model.cell_id(k), "PowerModel");
    if let Bound::Local(timing) | Bound::Slack(timing) = options.bound {
        assert_eq!(
            options.objective,
            Objective::MinimizePower,
            "delay bounds only minimize power"
        );
        assert_cell_ids_aligned(circuit, &compiled, |k| timing.cell_id(k), "TimingModel");
    }
    assert_eq!(
        net_stats.len(),
        compiled.net_count(),
        "one SignalStats per net"
    );
    let _g = tr_trace::span!(
        "opt.pass",
        gates = compiled.gates().len(),
        threads = options.threads
    );
    let loads = external_loads_compiled(&compiled, model);
    let before = circuit_total_compiled(&compiled, model, net_stats, &loads, scratch, |i| {
        compiled.gates()[i].config as usize
    });
    let pass = Pass {
        compiled: &compiled,
        model,
        net_stats,
        loads: &loads,
        options,
    };
    let choices = match options.bound {
        Bound::Slack(timing) => slack::choices(circuit, &pass, timing, scratch)?,
        Bound::Unbounded | Bound::Local(_) => pass.explore(scratch)?,
    };
    let after =
        circuit_total_compiled(&compiled, model, net_stats, &loads, scratch, |i| choices[i]);
    let mut result = circuit.clone();
    let mut changed = 0usize;
    for (i, (&choice, gate)) in choices.iter().zip(compiled.gates()).enumerate() {
        if choice != gate.config as usize {
            changed += 1;
            result.set_config(tr_netlist::GateId(i), choice);
        }
    }
    Ok(OptimizeResult {
        circuit: result,
        power_before: before,
        power_after: after,
        changed_gates: changed,
    })
}

/// Verifies — once per distinct cell, so the cost is a branch per gate
/// plus a handful of hash probes — that a model's interned id space
/// matches the library this circuit was compiled against. Guards the
/// by-id fast paths from silently reading another cell's tables when a
/// caller mixes models built from different libraries.
fn assert_cell_ids_aligned(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    resolve: impl Fn(&tr_gatelib::CellKind) -> Option<tr_gatelib::CellId>,
    what: &str,
) {
    let max_id = compiled.gates().iter().map(|g| g.cell.0).max();
    let mut checked = vec![false; max_id.map_or(0, |m| m + 1)];
    for (gate, rg) in circuit.gates().iter().zip(compiled.gates()) {
        if checked[rg.cell.0] {
            continue;
        }
        assert_eq!(
            resolve(&gate.cell),
            Some(rg.cell),
            "{what} was built from a different library than this circuit"
        );
        checked[rg.cell.0] = true;
    }
}

/// Copies a gate's input-net statistics into the reusable stack buffer.
#[inline]
fn gather_inputs(
    compiled: &CompiledCircuit,
    gate: &ResolvedGate,
    net_stats: &[SignalStats],
    buf: &mut [SignalStats; MAX_CELL_ARITY],
) {
    for (slot, net) in buf.iter_mut().zip(compiled.inputs(gate)) {
        *slot = net_stats[net.0];
    }
}

/// Gates handed to a worker per grab of the shared queue. Small enough to
/// balance cells with wildly different configuration counts (2 for
/// `nand2`, 48 for `oai222`), big enough to keep contention negligible.
const PARALLEL_CHUNK: usize = 32;

/// Minimum total work — summed configuration evaluations over all gates —
/// below which [`optimize_with`] explores inline instead of spawning.
/// Spawning and joining scoped threads costs tens of microseconds; a
/// 16-bit ripple-carry adder's whole exploration (496 config evals,
/// ~300 µs) is barely past break-even, and on small inputs the pool is a
/// pure regression (BENCH_PR4: `p3_optimize_rca16_parallel4` 390 µs vs
/// 318 µs serial). 1024 puts the cutoff at double that scale:
/// parallelism has to *win*, not tie (mult8's 1792 evals still
/// qualify).
const PARALLEL_MIN_WORK: usize = 1024;

/// Total exploration work of a circuit: one unit per (gate,
/// configuration) pair the optimizer will evaluate.
fn exploration_work(compiled: &CompiledCircuit) -> usize {
    compiled.gates().iter().map(|g| g.n_configs as usize).sum()
}

/// Whether a pass of `work` config evaluations on `threads` threads runs
/// inline on the caller's thread and [`Scratch`], spawning nothing: always
/// on one thread, however large the work, and below [`PARALLEL_MIN_WORK`]
/// on more.
fn runs_inline(work: usize, threads: usize) -> bool {
    threads == 1 || work < PARALLEL_MIN_WORK
}

/// Everything one gate's selection reads, shared by every worker.
struct Pass<'a> {
    compiled: &'a CompiledCircuit,
    model: &'a PowerModel,
    net_stats: &'a [SignalStats],
    loads: &'a [f64],
    options: &'a OptimizeOptions<'a>,
}

impl Pass<'_> {
    /// Every gate's selection, indexed like `compiled.gates()`: inline
    /// when the pool would not pay for itself, otherwise by
    /// `options.threads` scoped workers pulling [`PARALLEL_CHUNK`]-gate
    /// chunks of the result off one queue (a worker stuck on a run of
    /// 48-config cells simply grabs fewer chunks). Gates go in index
    /// order, not the paper's depth-first order: with fixed statistics
    /// (§4.2) every order gives the same choices, which is also what
    /// lets the pool split them.
    fn explore(&self, scratch: &mut Scratch) -> Result<Vec<usize>, Interrupted> {
        let mut choices = vec![0usize; self.compiled.gates().len()];
        let threads = self.options.threads;
        if runs_inline(exploration_work(self.compiled), threads) {
            self.select_range(0, &mut choices, scratch)?;
            return Ok(choices);
        }
        let queue = Mutex::new(choices.chunks_mut(PARALLEL_CHUNK).enumerate());
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = Scratch::new();
                        loop {
                            let next = queue
                                .lock()
                                .expect("no worker panics holding the queue")
                                .next();
                            let Some((k, chunk)) = next else {
                                return Ok(());
                            };
                            self.select_range(k * PARALLEL_CHUNK, chunk, &mut scratch)?;
                        }
                    })
                })
                .collect();
            // The scope joins any worker left unjoined after an early
            // error before returning.
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("optimizer worker panicked"))
        })?;
        Ok(choices)
    }

    /// Fills `out` with the selections of gates `start..start + out.len()`.
    fn select_range(
        &self,
        start: usize,
        out: &mut [usize],
        scratch: &mut Scratch,
    ) -> Result<(), Interrupted> {
        let mut buf = [SignalStats::constant(false); MAX_CELL_ARITY];
        for (slot, gate) in out.iter_mut().zip(&self.compiled.gates()[start..]) {
            if let Some(g) = self.options.governor {
                g.check("optimize")?;
            }
            gather_inputs(self.compiled, gate, self.net_stats, &mut buf);
            let inputs = &buf[..gate.arity as usize];
            let load = self.loads[gate.output.0];
            *slot = match self.options.bound {
                Bound::Local(timing) => {
                    self.cheapest_dominating(gate, timing, inputs, load, scratch)
                }
                _ => {
                    let (best, worst) = self
                        .model
                        .best_and_worst_by_id(gate.cell, inputs, load, scratch);
                    match self.options.objective {
                        Objective::MinimizePower => best,
                        Objective::MaximizePower => worst,
                    }
                }
            };
        }
        Ok(())
    }

    /// [`Bound::Local`]'s selection: the cheapest configuration no
    /// slower than the gate's current one on any pin (the current one
    /// wins ties, so an already-optimal gate never moves).
    fn cheapest_dominating(
        &self,
        gate: &ResolvedGate,
        timing: &TimingModel,
        inputs: &[SignalStats],
        load: f64,
        scratch: &mut Scratch,
    ) -> usize {
        let current = gate.config as usize;
        let delay = |c: usize, pin: usize| timing.gate_delay_by_id(gate.cell, c, pin, load);
        let mut best = current;
        let mut best_power = self
            .model
            .total_power_into(gate.cell, current, inputs, load, scratch);
        for c in 0..gate.n_configs as usize {
            let dominated =
                (0..inputs.len()).all(|pin| delay(c, pin) <= delay(current, pin) * (1.0 + 1e-12));
            if !dominated {
                continue;
            }
            let p = self
                .model
                .total_power_into(gate.cell, c, inputs, load, scratch);
            if p < best_power {
                best_power = p;
                best = c;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_gatelib::Process;
    use tr_netlist::{generators, suite};
    use tr_power::scenario::Scenario;

    fn setup() -> (Library, PowerModel, TimingModel) {
        let lib = Library::standard();
        let model = PowerModel::new(&lib, Process::default());
        let timing = TimingModel::new(&lib, Process::default());
        (lib, model, timing)
    }

    /// One minimizing pass under `bound` from primary-input statistics.
    fn bounded(
        c: &Circuit,
        lib: &Library,
        model: &PowerModel,
        bound: Bound,
        stats: &[SignalStats],
    ) -> OptimizeResult {
        let options = OptimizeOptions {
            bound,
            ..OptimizeOptions::default()
        };
        let net_stats = propagate(c, lib, stats);
        optimize_with(c, lib, model, &net_stats, &options, &mut Scratch::new()).unwrap()
    }

    #[test]
    fn best_never_worse_than_default_or_worst() {
        let (lib, model, _) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 5);
        let best = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        let worst = optimize(&c, &lib, &model, &stats, Objective::MaximizePower);
        assert!(best.power_after <= best.power_before + 1e-18);
        assert!(worst.power_after >= worst.power_before - 1e-18);
        assert!(best.power_after < worst.power_after);
        // There is real headroom on an adder under random stats.
        let headroom = 100.0 * (worst.power_after - best.power_after) / worst.power_after;
        assert!(headroom > 2.0, "headroom only {headroom:.2}%");
    }

    /// Per-gate choices are independent given the net statistics, so
    /// the worker count is invisible in the result: every suite circuit
    /// under every bound gives the identical circuit and bitwise-equal
    /// totals on 1, 2 and 4 threads — and the unbounded inline pass
    /// agrees with the primary-input entry point.
    #[test]
    fn results_are_thread_invariant_under_every_bound() {
        let (lib, model, timing) = setup();
        let mut pooled = 0usize;
        for case in suite::standard_suite(&lib) {
            let c = &case.circuit;
            let stats = Scenario::a().input_stats(c.primary_inputs().len(), 8);
            let net_stats = propagate(c, &lib, &stats);
            let compiled = CompiledCircuit::compile(c, &lib).unwrap();
            if !runs_inline(exploration_work(&compiled), 4) {
                pooled += 1;
            }
            for bound in [
                Bound::Unbounded,
                Bound::Local(&timing),
                Bound::Slack(&timing),
            ] {
                let run = |threads| {
                    let options = OptimizeOptions {
                        bound,
                        threads,
                        ..OptimizeOptions::default()
                    };
                    optimize_with(c, &lib, &model, &net_stats, &options, &mut Scratch::new())
                        .unwrap()
                };
                let inline = run(1);
                for threads in [2, 4] {
                    let r = run(threads);
                    let what = format!("{} {bound:?} threads={threads}", case.name);
                    assert_eq!(r.circuit, inline.circuit, "{what}");
                    assert_eq!(r.power_before, inline.power_before, "{what}");
                    assert_eq!(r.power_after, inline.power_after, "{what}");
                    assert_eq!(r.changed_gates, inline.changed_gates, "{what}");
                }
                if let Bound::Unbounded = bound {
                    let via_pi = optimize(c, &lib, &model, &stats, Objective::MinimizePower);
                    assert_eq!(via_pi.circuit, inline.circuit, "{}", case.name);
                    assert_eq!(via_pi.power_after, inline.power_after, "{}", case.name);
                }
            }
        }
        assert!(pooled > 0, "some suite circuit must exercise the pool");
    }

    /// The delay-bounded passes check the governor once per gate, inline
    /// and pooled: a work budget smaller than the gate count always
    /// interrupts them, and a rerun without the governor (same scratch)
    /// matches a never-governed run.
    #[test]
    fn bounded_passes_stop_at_a_tripped_governor() {
        let (lib, model, timing) = setup();
        let c = generators::array_multiplier(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 4);
        let net_stats = propagate(&c, &lib, &stats);
        let gates = c.gates().len() as u64;
        for bound in [Bound::Local(&timing), Bound::Slack(&timing)] {
            for threads in [1, 4] {
                let options = OptimizeOptions {
                    bound,
                    threads,
                    ..OptimizeOptions::default()
                };
                let mut scratch = Scratch::new();
                let reference =
                    optimize_with(&c, &lib, &model, &net_stats, &options, &mut scratch).unwrap();
                for trip in [0, gates / 2, gates - 1] {
                    let what = format!("{bound:?} threads={threads} trip={trip}");
                    let governor = Governor::with_trip_after(trip);
                    let governed = OptimizeOptions {
                        governor: Some(&governor),
                        ..options
                    };
                    let err = optimize_with(&c, &lib, &model, &net_stats, &governed, &mut scratch)
                        .expect_err(&what);
                    assert_eq!(err.phase, "optimize", "{what}");
                    let rerun = optimize_with(&c, &lib, &model, &net_stats, &options, &mut scratch)
                        .unwrap();
                    assert_eq!(rerun.circuit, reference.circuit, "{what}");
                    assert_eq!(rerun.power_after, reference.power_after, "{what}");
                }
            }
        }
    }

    #[test]
    fn exact_bdd_stats_plug_into_the_optimizer() {
        // The whole point of the net-stats entry: score configurations
        // against correlation-exact activities. On a reconvergent adder
        // the exact statistics differ from the independent ones, and the
        // optimizer must accept them and still never regress the (exact)
        // power model total.
        let (lib, model, _) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 6);
        let exact = tr_power::propagate_exact_bdd(&c, &lib, &stats).expect("fits node budget");
        let indep = propagate(&c, &lib, &stats);
        assert!(
            exact
                .iter()
                .zip(&indep)
                .any(|(e, i)| (e.probability() - i.probability()).abs() > 1e-6),
            "adder carries should expose independence error"
        );
        let r = optimize_with_net_stats(
            &c,
            &lib,
            &model,
            &exact,
            Objective::MinimizePower,
            &mut Scratch::new(),
        );
        assert!(r.power_after <= r.power_before + 1e-18);
    }

    #[test]
    fn optimization_preserves_function() {
        let (lib, model, _) = setup();
        let c = generators::alu(4, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 11);
        let best = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        for trial in 0..64usize {
            let m = trial.wrapping_mul(0x9E3779B9) % (1 << c.primary_inputs().len().min(20));
            let v: Vec<bool> = (0..c.primary_inputs().len())
                .map(|i| (m >> (i % 20)) & 1 == 1)
                .collect();
            assert_eq!(
                c.evaluate(&lib, &v),
                best.circuit.evaluate(&lib, &v),
                "functional mismatch"
            );
        }
    }

    #[test]
    fn optimization_is_idempotent() {
        let (lib, model, _) = setup();
        let c = generators::comparator(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 3);
        let once = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        let twice = optimize(
            &once.circuit,
            &lib,
            &model,
            &stats,
            Objective::MinimizePower,
        );
        assert_eq!(twice.changed_gates, 0);
        assert!((twice.power_after - once.power_after).abs() < 1e-18);
    }

    #[test]
    fn mismatched_model_library_is_rejected() {
        // A model interned against a different library must not silently
        // read the wrong cell tables through the by-id fast path.
        let lib = Library::standard();
        let slim = Library::from_kinds([tr_gatelib::CellKind::Nand(3), tr_gatelib::CellKind::Inv]);
        let slim_model = PowerModel::new(&slim, Process::default());
        let c = generators::ripple_carry_adder(2, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            optimize(&c, &lib, &slim_model, &stats, Objective::MinimizePower)
        }));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "delay bounds only minimize power")]
    fn bounded_maximize_panics() {
        let (lib, model, timing) = setup();
        let c = generators::ripple_carry_adder(2, &lib);
        let net_stats = propagate(&c, &lib, &Scenario::a().input_stats(5, 1));
        let options = OptimizeOptions {
            objective: Objective::MaximizePower,
            bound: Bound::Local(&timing),
            ..OptimizeOptions::default()
        };
        let _ = optimize_with(&c, &lib, &model, &net_stats, &options, &mut Scratch::new());
    }

    #[test]
    fn small_circuits_stay_inline() {
        // Regression guard for BENCH_PR4's p3_optimize_rca16_parallel4
        // (390 µs parallel vs 318 µs serial): on pool-overhead-scale work
        // a multi-threaded pass must explore inline.
        let lib = Library::standard();
        let rca16 = generators::ripple_carry_adder(16, &lib);
        let rca_work = exploration_work(&CompiledCircuit::compile(&rca16, &lib).unwrap());
        assert!(
            runs_inline(rca_work, 4),
            "rca16 ({rca_work} config evals) must stay inline"
        );
        // One thread never uses the pool, however big the work.
        assert!(runs_inline(usize::MAX, 1));
        // A large multiplier clears the threshold and keeps the pool.
        let mult8 = generators::array_multiplier(8, &lib);
        let mult_work = exploration_work(&CompiledCircuit::compile(&mult8, &lib).unwrap());
        assert!(
            !runs_inline(mult_work, 4),
            "mult8 ({mult_work} config evals) should use the pool"
        );
    }

    #[test]
    fn delay_bounded_never_slows_the_circuit() {
        let (lib, model, timing) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 17);
        let before = tr_timing::critical_path_delay(&c, &timing);
        let r = bounded(&c, &lib, &model, Bound::Local(&timing), &stats);
        let after = tr_timing::critical_path_delay(&r.circuit, &timing);
        assert!(
            after <= before * (1.0 + 1e-9),
            "delay grew: {before} → {after}"
        );
        assert!(r.power_after <= r.power_before + 1e-18);
    }

    #[test]
    fn delay_bounded_saves_less_than_unbounded() {
        let (lib, model, timing) = setup();
        let c = generators::ripple_carry_adder(16, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 2);
        let unbounded = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        let local = bounded(&c, &lib, &model, Bound::Local(&timing), &stats);
        assert!(local.power_after >= unbounded.power_after - 1e-18);
    }

    #[test]
    fn scenario_b_savings_lower_than_scenario_a() {
        // The paper: Scenario B's reduction is roughly half of A's.
        // Check the direction (B ≤ A) on an adder.
        let (lib, model, _) = setup();
        let c = generators::ripple_carry_adder(16, &lib);
        let n = c.primary_inputs().len();
        let headroom = |stats: &[SignalStats]| {
            let best = optimize(&c, &lib, &model, stats, Objective::MinimizePower);
            let worst = optimize(&c, &lib, &model, stats, Objective::MaximizePower);
            100.0 * (worst.power_after - best.power_after) / worst.power_after
        };
        // Average A over several seeds to tame variance.
        let a: f64 = (0..5)
            .map(|s| headroom(&Scenario::a().input_stats(n, s)))
            .sum::<f64>()
            / 5.0;
        let b = headroom(&Scenario::b().input_stats(n, 0));
        assert!(a > 0.0 && b > 0.0);
        assert!(b < a, "A={a:.2}% should exceed B={b:.2}%");
    }

    #[test]
    fn monotonicity_every_gate_improves() {
        let (lib, model, _) = setup();
        let c = generators::parity_tree(16, &lib);
        let stats = Scenario::a().input_stats(c.primary_inputs().len(), 23);
        let net_stats = propagate(&c, &lib, &stats);
        let best = optimize(&c, &lib, &model, &stats, Objective::MinimizePower);
        let p_before = tr_power::circuit_power(&c, &model, &net_stats);
        let p_after = tr_power::circuit_power(&best.circuit, &model, &net_stats);
        for (i, (b, a)) in p_before.per_gate.iter().zip(&p_after.per_gate).enumerate() {
            assert!(
                a.total <= b.total + 1e-18,
                "gate {i} regressed: {} → {}",
                b.total,
                a.total
            );
        }
    }
}

pub mod analysis;
pub mod fixpoint;
pub mod heuristic;
pub mod slack;

pub use analysis::{instance_demand, CellDemand, InstanceDemand};
pub use fixpoint::{
    optimize_to_fixpoint, FixpointOptions, FixpointReport, FixpointTermination,
    DEFAULT_MAX_ITERATIONS,
};
pub use heuristic::{optimize_rule_based, Rule};
pub use slack::{delay_power_tradeoff, DelayPowerTradeoff};
