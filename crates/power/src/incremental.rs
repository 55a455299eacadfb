//! The one statistics engine: per-net `(P, D)` under any
//! [`PropagationMode`], kept consistent across circuit edits by
//! dirty-cone refresh.
//!
//! [`IncrementalPropagator::new_with`] is the only place a mode becomes
//! statistics; the flow, the server, `tr-opt analyze` and the
//! benchmarks all build one. It picks the engine from the mode:
//!
//! * [`PropagationMode::Independent`] — the paper's gate-local §3
//!   propagation;
//! * [`PropagationMode::ExactBdd`], and
//!   [`PropagationMode::PartitionedBdd`] at cut width 0 — one
//!   whole-circuit [`CircuitBdds`] under the run's node budget;
//! * [`PropagationMode::PartitionedBdd`] otherwise — the cone partition
//!   (packed under the `part.pack` span), evaluated region by region in
//!   topological order through one reusable [`RegionEvaluator`];
//! * [`PropagationMode::Monte`] — a sampled estimate.
//!
//! The optimizer's inner loop scores configurations against per-net
//! statistics computed *before* optimization. A config-only move never
//! invalidates them (reordering preserves every gate function — the
//! monotonicity lemma of §4.2), but an accepted *cell* change does: the
//! fanout cone of the edited gate carries stale probabilities and
//! densities from that point on. [`IncrementalPropagator`] keeps one
//! statistics vector alive across edits, together with the cell each
//! gate had when the statistics were last derived. On
//! [`IncrementalPropagator::refresh`] it first drops every dirty gate
//! whose cell is unchanged: no engine reads a gate's configuration
//! (they see cells and wiring only), so such a gate cannot move any
//! statistic. A refresh left with no function-changing gate returns at
//! once, without compiling the circuit or touching an engine. Otherwise
//! the circuit is compiled once and the remaining gates' dirty cone is
//! re-derived by the engine that was built:
//!
//! * gate-local — re-propagation over the cone only, pruned the moment
//!   a recomputed net's statistics come out unchanged;
//! * whole-circuit BDD — [`CircuitBdds::repropagate`] recomposes the
//!   cone's roots in the long-lived manager (GC-safe protect/unprotect
//!   of replaced edges, no rebuild), then
//!   [`CircuitBdds::exact_stats_into`] refreshes just those nets' slots;
//! * partitioned — dirty gates map to dirty *regions*; each dirty region
//!   re-evaluates in the same evaluator (bit-for-bit the constructor's
//!   pass), and the cascade follows region dependency edges only while
//!   output statistics actually change;
//! * Monte Carlo — re-estimates with the same step budget, interval and
//!   seed (sampling has no cone structure to exploit), so an unchanged
//!   circuit reproduces its estimate exactly.
//!
//! Refreshed entries are bit-for-bit what a fresh propagator over the
//! edited circuit would hold — pinned by the equivalence suite in
//! `tests/incremental_equivalence.rs`.

use crate::mode::monte_dt;
use crate::model::MAX_CELL_ARITY;
use crate::monte;
use crate::partition::{packing_options, RegionEvaluator};
use crate::{propagate, PropagationError, PropagationMode};
use std::sync::Arc;
use tr_bdd::{BuildOptions, CircuitBdds, EngineStats};
use tr_boolean::govern::Governor;
use tr_boolean::{prob, SignalStats};
use tr_gatelib::{CellId, Library};
use tr_netlist::partition::{partition, Partition};
use tr_netlist::{Circuit, CompiledCircuit, GateId, NetId};

/// Resource knobs for a governed [`IncrementalPropagator`] (see
/// [`IncrementalPropagator::new_with`]). `Default` reproduces the
/// ungoverned constructor exactly.
#[derive(Debug, Clone, Default)]
pub struct PropagatorOptions {
    /// Override of the BDD backend's live-node budget
    /// ([`tr_bdd::DEFAULT_NODE_LIMIT`] when `None`). The partitioned
    /// backend caps each region's budget with it.
    pub node_limit: Option<usize>,
    /// Governor every backend pass checks cooperatively: the BDD build,
    /// every later statistics walk and repropagation (the propagator
    /// keeps it and hands it to the engine at each refresh), and each
    /// Monte Carlo step.
    pub governor: Option<Governor>,
    /// Explicit BDD variable order (a permutation of primary-input
    /// positions) instead of the default fanin-DFS heuristic — how the
    /// degradation ladder retries a budget-blown build under the
    /// information-measure order ([`tr_bdd::order::info_measure`]).
    pub bdd_order: Option<Vec<usize>>,
    /// Explicit packing cost budget of the partitioned backend
    /// (truth-table mass per region), decoupled from the node limit.
    /// `None` derives `max_region_nodes / 8`: region BDD size tracks
    /// packing cost super-linearly, so callers chasing *accuracy*
    /// (fewer, larger regions) set the cost explicitly and leave node
    /// headroom (see [`packing_options`]).
    pub region_cost: Option<usize>,
}

/// The partitioned engine's long-lived refresh state.
#[derive(Debug, Clone)]
struct PartitionState {
    partition: Partition,
    evaluator: RegionEvaluator,
    /// For each gate, the regions that *recompose* it in their
    /// cut-refinement expansion (beyond the region that owns it). A
    /// dirty gate must also dirty these regions, or their locally
    /// re-expanded copy of the logic would go stale.
    expanders: Vec<Vec<u32>>,
    /// Fraction of gate-driven nets not provably exact under the cut,
    /// captured at construction (see [`Partition::approx_fraction`]).
    approx_fraction: f64,
}

/// The engine a mode was built into, retained for cone refreshes. The
/// BDD engines sit behind [`Arc`]: clones share them, and a refresh that
/// has a cell change to re-derive copies a shared engine before writing
/// to it ([`Arc::make_mut`]).
#[derive(Debug, Clone)]
enum Engine {
    /// Gate-local propagation: nothing to retain.
    Independent,
    /// The long-lived whole-circuit manager.
    Exact(Arc<CircuitBdds>),
    /// The partition plus its reusable single-region evaluator.
    Partitioned(Arc<PartitionState>),
    /// The sampler's budget and seed.
    Monte { steps: usize, seed: u64 },
}

fn cells_of(compiled: &CompiledCircuit) -> Vec<CellId> {
    compiled.gates().iter().map(|g| g.cell).collect()
}

fn expander_map(partition: &Partition, n_gates: usize) -> Vec<Vec<u32>> {
    let mut map = vec![Vec::new(); n_gates];
    for (r, region) in partition.regions().iter().enumerate() {
        for g in &region.expansion {
            map[g.0].push(r as u32);
        }
    }
    map
}

/// Per-net signal statistics kept consistent across circuit edits by
/// re-deriving only dirty cones (see the module docs).
///
/// # Example
///
/// ```
/// use tr_boolean::SignalStats;
/// use tr_gatelib::{CellKind, Library};
/// use tr_netlist::Circuit;
/// use tr_power::{IncrementalPropagator, PropagationMode};
///
/// let lib = Library::standard();
/// let mut c = Circuit::new("tiny");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let (g, y) = c.add_gate(CellKind::Nand(2), vec![a, b], "y");
/// c.mark_output(y);
/// let pi = vec![SignalStats::new(0.5, 1.0e5); 2];
/// let mut prop =
///     IncrementalPropagator::new(&c, &lib, &pi, PropagationMode::ExactBdd).unwrap();
/// // Accept a cell change, then refresh just its fanout cone.
/// c.set_cell(g, CellKind::Nor(2));
/// let dirty = prop.refresh(&c, &lib, &[g]).unwrap();
/// assert_eq!(dirty, vec![y]);
/// assert!((prop.net_stats()[y.0].probability() - 0.25).abs() < 1e-15);
/// ```
/// A clone continues bit-for-bit where the original stood (a warm-cache
/// server snapshots a freshly built propagator and replays requests
/// against clones). It copies the statistics vectors and counters but
/// shares the BDD engine — manager or partition evaluator — copy on
/// write: the first [`IncrementalPropagator::refresh`] with a cell
/// change to re-derive copies the engine for the side that refreshes,
/// and the other side keeps the original. A reordering-only refresh
/// writes nothing, so it never copies. The attached [`Governor`] is
/// shared with the original; use [`IncrementalPropagator::set_governor`]
/// to give a clone its own, which copies nothing either.
#[derive(Debug, Clone)]
pub struct IncrementalPropagator {
    mode: PropagationMode,
    pi_stats: Vec<SignalStats>,
    net_stats: Vec<SignalStats>,
    /// Each gate's cell as of the last statistics update: a dirty gate
    /// whose cell still matches changed only its configuration.
    cells: Vec<CellId>,
    engine: Engine,
    /// Handed to the engine at each refresh that writes to it.
    governor: Option<Governor>,
    repropagations: usize,
    refreshed_nets: usize,
}

impl IncrementalPropagator {
    /// Propagates once in full under `mode` and retains everything the
    /// engine needs for later cone refreshes (for the exact backend, the
    /// built [`CircuitBdds`] engine itself).
    ///
    /// # Errors
    ///
    /// Returns [`PropagationError`] if the circuit does not compile
    /// against `library` or the BDD backend blows its node budget.
    ///
    /// # Panics
    ///
    /// Panics if `pi_stats.len()` differs from the primary-input count.
    pub fn new(
        circuit: &Circuit,
        library: &Library,
        pi_stats: &[SignalStats],
        mode: PropagationMode,
    ) -> Result<Self, PropagationError> {
        IncrementalPropagator::new_with(
            circuit,
            library,
            pi_stats,
            mode,
            &PropagatorOptions::default(),
        )
    }

    /// [`IncrementalPropagator::new`] under explicit resource knobs: an
    /// optional node-budget override, an optional [`Governor`] (which
    /// stays attached, so every later [`IncrementalPropagator::refresh`]
    /// is governed too), an optional explicit BDD variable order and an
    /// optional partition packing cost. This is the only function that
    /// picks an engine from a mode (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`IncrementalPropagator::new`], plus
    /// [`PropagationError::Interrupted`] when the governor trips.
    ///
    /// # Panics
    ///
    /// Panics if `pi_stats.len()` differs from the primary-input count,
    /// or `options.bdd_order` is present and not a permutation of
    /// primary-input positions.
    pub fn new_with(
        circuit: &Circuit,
        library: &Library,
        pi_stats: &[SignalStats],
        mode: PropagationMode,
        options: &PropagatorOptions,
    ) -> Result<Self, PropagationError> {
        assert_eq!(
            pi_stats.len(),
            circuit.primary_inputs().len(),
            "one SignalStats per primary input"
        );
        let (net_stats, cells, engine) = match mode {
            PropagationMode::Independent => {
                // Interning the cells is all this backend needs of a
                // compile; it propagates over the circuit itself.
                let cells = circuit
                    .gates()
                    .iter()
                    .map(|g| library.cell_id(&g.cell).expect("unknown cell"))
                    .collect();
                (
                    propagate(circuit, library, pi_stats),
                    cells,
                    Engine::Independent,
                )
            }
            PropagationMode::PartitionedBdd {
                max_region_nodes,
                max_cut_width,
            } if !mode.uses_exact_engine() => {
                let compiled = CompiledCircuit::compile(circuit, library)?;
                // The run-level node budget caps the per-region budget:
                // every region engine is bounded separately, so the cap
                // applies region by region, not to the sum.
                let region_nodes = match options.node_limit {
                    Some(limit) if max_region_nodes > 1 => max_region_nodes.min(limit.max(2)),
                    _ => max_region_nodes,
                };
                let part = {
                    let _g = tr_trace::span!("part.pack", gates = compiled.gates().len());
                    partition(
                        &compiled,
                        &packing_options(region_nodes, max_cut_width, options.region_cost),
                    )
                };
                let mut evaluator = RegionEvaluator::new(
                    compiled.net_count(),
                    region_nodes,
                    options.governor.clone(),
                );
                let mut stats = vec![SignalStats::new(0.0, 0.0); compiled.net_count()];
                for (pi, s) in compiled.primary_inputs().iter().zip(pi_stats) {
                    stats[pi.0] = *s;
                }
                for region in part.regions() {
                    let out = evaluator.evaluate(&compiled, library, region, &stats)?;
                    for (net, s) in region.outputs.iter().zip(out) {
                        stats[net.0] = *s;
                    }
                }
                // Refresh bookkeeping, only once every region fitted.
                let state = PartitionState {
                    expanders: expander_map(&part, compiled.gates().len()),
                    approx_fraction: part.approx_fraction(&compiled),
                    partition: part,
                    evaluator,
                };
                (
                    stats,
                    cells_of(&compiled),
                    Engine::Partitioned(Arc::new(state)),
                )
            }
            PropagationMode::ExactBdd | PropagationMode::PartitionedBdd { .. } => {
                let compiled = CompiledCircuit::compile(circuit, library)?;
                let build = BuildOptions {
                    node_limit: options
                        .node_limit
                        .unwrap_or(BuildOptions::default().node_limit),
                    ..BuildOptions::default()
                };
                let mut bdds = match &options.bdd_order {
                    Some(order) => CircuitBdds::build_with_order(
                        &compiled,
                        library,
                        build,
                        order.clone(),
                        options.governor.as_ref(),
                    )?,
                    None => CircuitBdds::build_governed(
                        &compiled,
                        library,
                        build,
                        options.governor.as_ref(),
                    )?,
                };
                let stats = bdds.exact_stats(pi_stats)?;
                (stats, cells_of(&compiled), Engine::Exact(Arc::new(bdds)))
            }
            PropagationMode::Monte { steps, seed } => {
                let compiled = CompiledCircuit::compile(circuit, library)?;
                let stats = monte::estimate_governed(
                    &compiled,
                    library,
                    pi_stats,
                    steps,
                    monte_dt(pi_stats),
                    seed,
                    options.governor.as_ref(),
                )?;
                (stats, cells_of(&compiled), Engine::Monte { steps, seed })
            }
        };
        Ok(IncrementalPropagator {
            mode,
            pi_stats: pi_stats.to_vec(),
            net_stats,
            cells,
            engine,
            governor: options.governor.clone(),
            repropagations: 0,
            refreshed_nets: 0,
        })
    }

    /// The active backend.
    pub fn mode(&self) -> PropagationMode {
        self.mode
    }

    /// Attaches (or with `None` detaches) a [`Governor`] for every
    /// subsequent refresh — how the degradation ladder stops enforcing a
    /// deadline once it has already degraded (the run must complete).
    /// The engine receives it when a refresh writes to it, so this never
    /// copies a shared engine.
    pub fn set_governor(&mut self, governor: Option<Governor>) {
        self.governor = governor;
    }

    /// The current per-net statistics (valid for the last circuit seen).
    pub fn net_stats(&self) -> &[SignalStats] {
        &self.net_stats
    }

    /// The `PartitionedBdd` backend's partition shape as
    /// `(regions, cut_nets, approx_fraction)`; `None` for the other
    /// backends. `approx_fraction` is the fraction of gate-driven nets
    /// not *provably* exact under the cut (`0.0` certifies the
    /// statistics equal full-BDD up to rounding — see
    /// [`Partition::approx_fraction`]). At cut width 0 the one region is
    /// the whole circuit: `(1, 0, 0.0)`.
    pub fn partition_summary(&self) -> Option<(usize, usize, f64)> {
        match (&self.engine, self.mode) {
            (Engine::Partitioned(s), _) => Some((
                s.partition.regions().len(),
                s.partition.cut_nets().len(),
                s.approx_fraction,
            )),
            (Engine::Exact(_), PropagationMode::PartitionedBdd { .. }) => Some((1, 0, 0.0)),
            _ => None,
        }
    }

    /// Cumulative engine health (caches, GC, peak live) of the BDD
    /// engine: the whole-circuit manager, or the region evaluator's
    /// engine (counters accumulate across its per-region resets);
    /// `None` for the engines without BDDs (`Independent`, `Monte`).
    pub fn engine_stats(&self) -> Option<EngineStats> {
        match &self.engine {
            Engine::Exact(bdds) => Some(bdds.manager().engine_stats()),
            Engine::Partitioned(state) => Some(state.evaluator.engine_stats()),
            Engine::Independent | Engine::Monte { .. } => None,
        }
    }

    /// Number of [`IncrementalPropagator::refresh`] calls so far.
    pub fn repropagations(&self) -> usize {
        self.repropagations
    }

    /// Total nets whose statistics were re-derived across all refreshes
    /// (the accumulated dirty-cone size; a full Monte re-estimate counts
    /// every net).
    pub fn refreshed_nets(&self) -> usize {
        self.refreshed_nets
    }

    /// Brings the statistics up to date after `dirty_gates` of `circuit`
    /// changed, re-deriving only their fanout cones (see the module
    /// docs for what each engine does). `circuit` must be the *edited*
    /// circuit, structurally identical (same nets, gates and wiring) to
    /// the one the propagator last saw — exactly what
    /// [`Circuit::set_config`]/[`Circuit::set_cell`] guarantee.
    ///
    /// Dirty gates whose cell is the one the propagator last saw are
    /// dropped first: they changed only their configuration, which
    /// preserves the gate's function (§4.2) and is read by no engine,
    /// so they cannot move any statistic. When no gate is left the call
    /// returns an empty set without compiling `circuit` or running the
    /// backend; it still counts in
    /// [`IncrementalPropagator::repropagations`].
    ///
    /// Returns the nets whose statistics actually changed, in
    /// topological order (empty for a config-only edit; every net for a
    /// Monte re-estimate of a cell edit) — a caller that finds it empty
    /// knows the statistics are unchanged. The refreshed vector itself
    /// is read back via
    /// [`IncrementalPropagator::net_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`PropagationError`] if the circuit does not compile
    /// against `library` or a recomposed cone blows the node budget.
    ///
    /// # Panics
    ///
    /// Panics if `circuit`'s net count differs from the propagator's.
    pub fn refresh(
        &mut self,
        circuit: &Circuit,
        library: &Library,
        dirty_gates: &[GateId],
    ) -> Result<Vec<NetId>, PropagationError> {
        assert_eq!(
            circuit.net_count(),
            self.net_stats.len(),
            "circuit must keep its net numbering across edits"
        );
        self.repropagations += 1;
        let changed: Vec<GateId> = dirty_gates
            .iter()
            .copied()
            .filter(|g| circuit.gate(*g).cell != *library.cell_by_id(self.cells[g.0]).kind())
            .collect();
        let _g = tr_trace::span!(
            "prop.refresh",
            dirty_gates = dirty_gates.len(),
            changed_function = changed.len()
        );
        if changed.is_empty() {
            return Ok(Vec::new());
        }
        let compiled = CompiledCircuit::compile(circuit, library)?;
        let dirty = match &mut self.engine {
            Engine::Independent => {
                let mut gate_dirty = vec![false; compiled.gates().len()];
                for &g in &changed {
                    gate_dirty[g.0] = true;
                }
                let mut net_dirty = vec![false; compiled.net_count()];
                let mut dirty = Vec::new();
                let mut buf = [SignalStats::constant(false); MAX_CELL_ARITY];
                for &gid in compiled.order() {
                    let gate = &compiled.gates()[gid.0];
                    let inputs = compiled.inputs(gate);
                    if !gate_dirty[gid.0] && !inputs.iter().any(|n| net_dirty[n.0]) {
                        continue;
                    }
                    for (slot, net) in buf.iter_mut().zip(inputs) {
                        *slot = self.net_stats[net.0];
                    }
                    let function = library.cell_by_id(gate.cell).function();
                    let new = prob::propagate(function, &buf[..inputs.len()]);
                    // The cone ends wherever the recomputed statistics
                    // come out unchanged.
                    if new != self.net_stats[gate.output.0] {
                        self.net_stats[gate.output.0] = new;
                        net_dirty[gate.output.0] = true;
                        dirty.push(gate.output);
                    }
                }
                dirty
            }
            Engine::Exact(bdds) => {
                let bdds = Arc::make_mut(bdds);
                bdds.set_governor(self.governor.clone());
                let dirty = bdds.repropagate(&compiled, library, &changed)?;
                bdds.exact_stats_into(&self.pi_stats, &dirty, &mut self.net_stats)?;
                dirty
            }
            Engine::Partitioned(state) => {
                // Dirty gates dirty their owning regions; a re-evaluated
                // region whose outputs change dirties its dependents.
                // Regions are topologically indexed, so one pass in
                // index order settles the cascade, and the re-evaluation
                // is bit-for-bit the constructor's pass — a region whose
                // inputs did not move reproduces identical statistics
                // and the cascade stops there.
                let state = Arc::make_mut(state);
                state.evaluator.set_governor(self.governor.clone());
                let n_regions = state.partition.regions().len();
                let mut region_dirty = vec![false; n_regions];
                for &g in &changed {
                    region_dirty[state.partition.region_of(g)] = true;
                    // Regions that re-expanded this gate behind their cut
                    // hold a private copy of its logic; refresh them too.
                    if let Some(rs) = state.expanders.get(g.0) {
                        for &r in rs {
                            region_dirty[r as usize] = true;
                        }
                    }
                }
                let mut dirty = Vec::new();
                for r in 0..n_regions {
                    if !region_dirty[r] {
                        continue;
                    }
                    let region = &state.partition.regions()[r];
                    let out =
                        state
                            .evaluator
                            .evaluate(&compiled, library, region, &self.net_stats)?;
                    let mut moved: Vec<(NetId, SignalStats)> = Vec::new();
                    for (net, s) in region.outputs.iter().zip(out) {
                        if *s != self.net_stats[net.0] {
                            moved.push((*net, *s));
                        }
                    }
                    if moved.is_empty() {
                        continue;
                    }
                    for &dep in state.partition.dependents(r) {
                        region_dirty[dep as usize] = true;
                    }
                    for (net, s) in moved {
                        self.net_stats[net.0] = s;
                        dirty.push(net);
                    }
                }
                dirty
            }
            Engine::Monte { steps, seed } => {
                // Sampling has no cone structure to exploit; re-estimate
                // with the same budget, interval and seed so an
                // unchanged circuit reproduces its estimate exactly.
                self.net_stats = monte::estimate_governed(
                    &compiled,
                    library,
                    &self.pi_stats,
                    *steps,
                    monte_dt(&self.pi_stats),
                    *seed,
                    self.governor.as_ref(),
                )?;
                (0..self.net_stats.len()).map(NetId).collect()
            }
        };
        for g in changed {
            self.cells[g.0] = compiled.gates()[g.0].cell;
        }
        self.refreshed_nets += dirty.len();
        Ok(dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate_exact_bdd;
    use tr_gatelib::CellKind;
    use tr_netlist::generators;

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

    fn pick_victim(c: &Circuit) -> GateId {
        GateId(
            c.gates()
                .iter()
                .position(|g| !matches!(g.cell, CellKind::Inv))
                .expect("multi-input gate"),
        )
    }

    fn pi_stats(n: usize) -> Vec<SignalStats> {
        (0..n)
            .map(|i| SignalStats::new(0.15 + 0.03 * (i % 20) as f64, 1.0e4 * (1 + i % 6) as f64))
            .collect()
    }

    #[test]
    fn initial_stats_match_the_direct_passes() {
        let lib = Library::standard();
        let c = generators::carry_skip_adder(8, 4, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let compiled = CompiledCircuit::compile(&c, &lib).unwrap();
        for (mode, want) in [
            (PropagationMode::Independent, propagate(&c, &lib, &pi)),
            (
                PropagationMode::ExactBdd,
                propagate_exact_bdd(&c, &lib, &pi).unwrap(),
            ),
            (
                PropagationMode::monte(3),
                monte::estimate(&compiled, &lib, &pi, 50_000, monte_dt(&pi), 3),
            ),
        ] {
            let prop = IncrementalPropagator::new(&c, &lib, &pi, mode).unwrap();
            assert_eq!(prop.net_stats(), &want[..], "{mode}");
        }
    }

    #[test]
    fn refresh_matches_full_propagation_for_every_backend() {
        let lib = Library::standard();
        let mut c = generators::carry_select_adder(8, 4, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let victim = pick_victim(&c);
        for mode in [
            PropagationMode::Independent,
            PropagationMode::ExactBdd,
            PropagationMode::monte(9),
        ] {
            let mut prop = IncrementalPropagator::new(&c, &lib, &pi, mode).unwrap();
            toggle_cell(&mut c, victim);
            prop.refresh(&c, &lib, &[victim]).unwrap();
            let fresh = IncrementalPropagator::new(&c, &lib, &pi, mode).unwrap();
            for (net, (x, y)) in prop.net_stats().iter().zip(fresh.net_stats()).enumerate() {
                assert!(
                    (x.probability() - y.probability()).abs() < 1e-12,
                    "{mode} net {net}: P {x} vs {y}"
                );
                let tol = 1e-12 * y.density().abs().max(1.0);
                assert!(
                    (x.density() - y.density()).abs() < tol,
                    "{mode} net {net}: D {x} vs {y}"
                );
            }
            toggle_cell(&mut c, victim); // restore for the next mode
            prop.refresh(&c, &lib, &[victim]).unwrap();
            assert_eq!(prop.repropagations(), 2, "{mode}");
        }
    }

    fn shares_engine(a: &IncrementalPropagator, b: &IncrementalPropagator) -> bool {
        match (&a.engine, &b.engine) {
            (Engine::Exact(x), Engine::Exact(y)) => Arc::ptr_eq(x, y),
            (Engine::Partitioned(x), Engine::Partitioned(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn clones_share_the_engine_until_a_cell_change_is_refreshed() {
        let lib = Library::standard();
        let c = generators::carry_select_adder(8, 4, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let victim = pick_victim(&c);
        let small_regions = PropagationMode::PartitionedBdd {
            max_region_nodes: 512,
            max_cut_width: 8,
        };
        for mode in [PropagationMode::ExactBdd, small_regions] {
            let original = IncrementalPropagator::new(&c, &lib, &pi, mode).unwrap();
            let stats = original.net_stats().to_vec();
            let engine = original.engine_stats();
            let mut clone = original.clone();
            assert!(shares_engine(&original, &clone), "{mode}");
            // A new governor and a reordering-only refresh copy nothing.
            clone.set_governor(Some(Governor::new(None)));
            let mut reordered = c.clone();
            let n_configs = lib
                .cell(&reordered.gate(victim).cell)
                .unwrap()
                .configurations()
                .len();
            reordered.set_config(victim, n_configs - 1);
            assert!(clone
                .refresh(&reordered, &lib, &[victim])
                .unwrap()
                .is_empty());
            assert!(shares_engine(&original, &clone), "{mode}");
            // A cell change copies the engine for the side that refreshes.
            let mut edited = c.clone();
            toggle_cell(&mut edited, victim);
            assert!(!clone.refresh(&edited, &lib, &[victim]).unwrap().is_empty());
            assert!(!shares_engine(&original, &clone), "{mode}");
            assert_eq!(original.net_stats(), &stats[..], "{mode}");
            assert_eq!(original.engine_stats(), engine, "{mode}");
            assert_ne!(clone.engine_stats(), engine, "{mode}");
            let fresh = IncrementalPropagator::new(&edited, &lib, &pi, mode).unwrap();
            for (x, y) in clone.net_stats().iter().zip(fresh.net_stats()) {
                assert!((x.probability() - y.probability()).abs() < 1e-12, "{mode}");
            }
        }
    }

    #[test]
    fn config_only_refresh_re_derives_nothing() {
        let lib = Library::standard();
        let mut c = generators::comparator(4, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let mut prop =
            IncrementalPropagator::new(&c, &lib, &pi, PropagationMode::Independent).unwrap();
        let before = prop.net_stats().to_vec();
        let choices: Vec<usize> = c
            .gates()
            .iter()
            .map(|g| lib.cell(&g.cell).unwrap().configurations().len() - 1)
            .collect();
        for (i, cfg) in choices.into_iter().enumerate() {
            c.set_config(GateId(i), cfg);
        }
        let all: Vec<GateId> = (0..c.gates().len()).map(GateId).collect();
        let dirty = prop.refresh(&c, &lib, &all).unwrap();
        assert!(dirty.is_empty(), "§4.2: no net may change");
        assert_eq!(prop.refreshed_nets(), 0);
        assert_eq!(prop.net_stats(), &before[..]);
    }
}
