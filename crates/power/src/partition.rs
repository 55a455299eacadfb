//! Partitioned exact statistics: per-region BDDs with cut-net
//! pseudo-inputs, evaluated region by region.
//!
//! The monolithic [`ExactBdd`](crate::PropagationMode::ExactBdd) backend
//! tops out near a hundred gates of dense logic — global reconvergence
//! makes whole-circuit BDDs blow up even when every local cone is tiny.
//! The [`PartitionedBdd`](crate::PropagationMode::PartitionedBdd)
//! backend breaks that ceiling with the classic cut-point scheme:
//!
//! 1. [`tr_netlist::partition`] carves the compiled circuit into
//!    fanout-bounded **regions** (cut on high-fanout nets, bounded node
//!    cost and cut width, topologically ordered) under the budgets
//!    [`packing_options`] derives;
//! 2. each region gets its own small [`Bdd`] engine pass whose
//!    variables are the region's external nets; **cut nets** enter as
//!    pseudo-inputs carrying their upstream computed probability *and*
//!    transition density, so Najm's boolean-difference density
//!    propagation stays exact within the region;
//! 3. region variables are ordered by the §4.2 information measure
//!    (entropy × local cone size) via
//!    [`tr_bdd::order::rank_by_information`];
//! 4. [`IncrementalPropagator`](crate::IncrementalPropagator) walks the
//!    regions in topological order through one reusable
//!    [`RegionEvaluator`] ([`Bdd::reset`] between regions), for the
//!    initial pass and every later refresh alike, so a re-evaluated
//!    region reproduces its statistics bit for bit. The flow, the server
//!    and `tr-opt analyze` all run this one serial engine.
//!
//! The only information lost is the correlation *between* a region's
//! inputs. [`IncrementalPropagator::partition_summary`] reports the
//! fraction of nets not *provably* exact under the cut (`0.0` certifies
//! the result equals full-BDD up to rounding — see
//! [`Partition::approx_fraction`](tr_netlist::partition::Partition::approx_fraction)).
//! Degenerate cuts recover the neighbouring backends: cut width 0 builds
//! the monolithic [`CircuitBdds`](tr_bdd::CircuitBdds) engine itself
//! (bitwise `ExactBdd`), and one-gate regions reproduce the gate-local
//! independent propagation to rounding.
//!
//! [`IncrementalPropagator::partition_summary`]: crate::IncrementalPropagator::partition_summary

use crate::mode::PropagationError;
use tr_bdd::{
    order::rank_by_information, Bdd, BddError, DensityScratch, Edge, ProbScratch, VisitScratch,
    DEFAULT_GC_THRESHOLD,
};
use tr_boolean::govern::Governor;
use tr_boolean::SignalStats;
use tr_gatelib::Library;
use tr_netlist::partition::{PartitionOptions, Region};
use tr_netlist::CompiledCircuit;

/// Default per-region live-node budget (`max_region_nodes`).
pub const DEFAULT_REGION_NODES: usize = 8192;
/// Default cut width (`max_cut_width`): external inputs per region.
pub const DEFAULT_CUT_WIDTH: usize = 24;

/// Maps the mode-level `(max_region_nodes, max_cut_width)` pair onto
/// packing options. `max_cut_width == 0` disables cutting (single
/// region); `max_region_nodes <= 1` cuts every net; otherwise the cost
/// budget is `region_cost` when given, else scaled so a region's
/// estimated truth-table mass stays well under its live-node limit.
pub fn packing_options(
    max_region_nodes: usize,
    max_cut_width: usize,
    region_cost: Option<usize>,
) -> PartitionOptions {
    if max_cut_width == 0 {
        return PartitionOptions::single_region();
    }
    if max_region_nodes == 1 {
        return PartitionOptions::every_net_cut();
    }
    let nodes = if max_region_nodes == 0 {
        DEFAULT_REGION_NODES
    } else {
        max_region_nodes
    };
    let cost = region_cost.unwrap_or(nodes / 8).max(16);
    PartitionOptions {
        max_region_cost: cost,
        max_region_inputs: max_cut_width,
        cut_fanout_threshold: 8,
        expand_cost: (cost / 4).max(8),
    }
}

/// A reusable single-region evaluator: one engine plus every scratch
/// buffer a region evaluation touches, fed the full per-net statistics
/// vector. Reused across regions via [`Bdd::reset`] (capacity is
/// retained; external scratches self-invalidate through the GC epoch).
#[derive(Clone)]
pub struct RegionEvaluator {
    bdd: Bdd,
    prob: ProbScratch,
    density: DensityScratch,
    visited: VisitScratch,
    /// net -> region-local slot (input index, or `n_inputs + gate_pos`).
    net_local: Vec<u32>,
    net_stamp: Vec<u32>,
    epoch: u32,
    /// local slot -> BDD edge.
    edges: Vec<Edge>,
    /// Per-gate local-input support bitsets (`n_gates * words`).
    gate_support: Vec<u64>,
    cones: Vec<usize>,
    in_probs: Vec<f64>,
    in_dens: Vec<f64>,
    level_probs: Vec<f64>,
    level_dens: Vec<f64>,
    seen: Vec<bool>,
    args: Vec<Edge>,
    /// Output statistics, parallel to the region's `outputs`.
    out: Vec<SignalStats>,
    /// Expansion prefix + own gates, rebuilt per region.
    gate_list: Vec<tr_netlist::GateId>,
    node_limit: usize,
    gc_threshold: usize,
    governor: Option<Governor>,
}

impl std::fmt::Debug for RegionEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionEvaluator")
            .field("node_limit", &self.node_limit)
            .finish_non_exhaustive()
    }
}

impl RegionEvaluator {
    /// An evaluator over `n_nets` nets whose engine is budgeted for
    /// `max_region_nodes` live nodes (`0` or `1` mean
    /// [`DEFAULT_REGION_NODES`]; the floor is 512).
    pub fn new(n_nets: usize, max_region_nodes: usize, governor: Option<Governor>) -> Self {
        let node_limit = if max_region_nodes <= 1 {
            DEFAULT_REGION_NODES
        } else {
            max_region_nodes.max(512)
        };
        RegionEvaluator {
            bdd: Bdd::with_node_limit(0, node_limit),
            prob: ProbScratch::new(),
            density: DensityScratch::new(),
            visited: VisitScratch::new(),
            net_local: vec![0; n_nets],
            net_stamp: vec![0; n_nets],
            epoch: 0,
            edges: Vec::new(),
            gate_support: Vec::new(),
            cones: Vec::new(),
            in_probs: Vec::new(),
            in_dens: Vec::new(),
            level_probs: Vec::new(),
            level_dens: Vec::new(),
            seen: Vec::new(),
            args: Vec::new(),
            out: Vec::new(),
            gate_list: Vec::new(),
            node_limit,
            // Proactive collection point well under the region's hard
            // limit, so NodeLimit means "the live functions don't fit",
            // not "garbage piled up".
            gc_threshold: DEFAULT_GC_THRESHOLD.min((node_limit / 2).max(1024)),
            governor,
        }
    }

    /// The engine's cumulative health counters (caches, GC, peak live)
    /// across every region this evaluator has processed — counters
    /// survive the per-region [`Bdd::reset`], so this tells the whole
    /// backend's story for the report's `perf` block.
    pub fn engine_stats(&self) -> tr_bdd::EngineStats {
        self.bdd.engine_stats()
    }

    /// Replaces the governor used by subsequent evaluations.
    pub fn set_governor(&mut self, governor: Option<Governor>) {
        self.governor = governor;
    }

    /// Evaluates `region` from `stats` (indexed by net; primary inputs
    /// and upstream cut nets must be current): builds its BDDs over the
    /// external inputs and returns `(P, D)` for every gate output,
    /// parallel to `region.outputs`.
    ///
    /// # Errors
    ///
    /// [`PropagationError::Bdd`] when the region exceeds its live-node
    /// budget even after collection; [`PropagationError::Interrupted`]
    /// when the governor trips.
    pub fn evaluate(
        &mut self,
        compiled: &CompiledCircuit,
        library: &Library,
        region: &Region,
        stats: &[SignalStats],
    ) -> Result<&[SignalStats], PropagationError> {
        let _g = tr_trace::span!(
            "part.region",
            gates = region.gates.len(),
            cut = region.inputs.len()
        );
        let n_inputs = region.inputs.len();
        // The expansion prefix (cut-refinement recompositions from earlier
        // regions) is composed like any other gate; statistics are emitted
        // only for the region's own gates.
        self.gate_list.clear();
        self.gate_list.extend_from_slice(&region.expansion);
        self.gate_list.extend_from_slice(&region.gates);
        let n_gates = self.gate_list.len();
        let n_own = region.gates.len();
        let gate_list = std::mem::take(&mut self.gate_list);
        self.epoch += 1;
        let epoch = self.epoch;

        // External input statistics, in the region's first-read order.
        self.in_probs.clear();
        self.in_dens.clear();
        for (i, net) in region.inputs.iter().enumerate() {
            let s = stats[net.0];
            self.in_probs.push(s.probability());
            self.in_dens.push(s.density());
            self.net_local[net.0] = i as u32;
            self.net_stamp[net.0] = epoch;
        }

        // Local cone sizes: for each external input, how many region gates
        // it transitively feeds. One pass over the (topologically ordered)
        // region gates with per-gate input bitsets.
        let words = n_inputs.div_ceil(64).max(1);
        self.gate_support.clear();
        self.gate_support.resize(n_gates * words, 0);
        self.cones.clear();
        self.cones.resize(n_inputs, 0);
        for (pos, &gid) in gate_list.iter().enumerate() {
            let gate = &compiled.gates()[gid.0];
            for net in compiled.inputs(gate) {
                debug_assert_eq!(self.net_stamp[net.0], epoch, "unstamped region net");
                let local = self.net_local[net.0] as usize;
                if local < n_inputs {
                    self.gate_support[pos * words + local / 64] |= 1u64 << (local % 64);
                } else {
                    let src = local - n_inputs;
                    for w in 0..words {
                        let bits = self.gate_support[src * words + w];
                        self.gate_support[pos * words + w] |= bits;
                    }
                }
            }
            self.net_local[gate.output.0] = (n_inputs + pos) as u32;
            self.net_stamp[gate.output.0] = epoch;
            for w in 0..words {
                let mut bits = self.gate_support[pos * words + w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    self.cones[w * 64 + b] += 1;
                    bits &= bits - 1;
                }
            }
        }

        // §4.2 information ordering: high entropy × wide cone first.
        let order = rank_by_information(&self.in_probs, &self.cones);

        // Fresh engine pass over the region, retained capacity.
        self.bdd.reset(n_inputs);
        self.bdd.set_node_limit(self.node_limit);
        self.bdd.set_gc_threshold(self.gc_threshold);
        self.bdd.set_governor(self.governor.clone());

        self.level_probs.clear();
        self.level_probs.resize(n_inputs, 0.0);
        self.level_dens.clear();
        self.level_dens.resize(n_inputs, 0.0);
        self.edges.clear();
        self.edges.resize(n_inputs + n_gates, Edge::ZERO);
        for (level, &input_pos) in order.iter().enumerate() {
            self.level_probs[level] = self.in_probs[input_pos];
            self.level_dens[level] = self.in_dens[input_pos];
            let var = self.bdd.var(level);
            // Protect the variable edges: a mid-region collection would
            // otherwise free an input not yet reachable from a protected
            // gate root, leaving a stale edge in the local table.
            self.bdd.protect(var);
            self.edges[input_pos] = var;
        }

        // Compose the region's gates (same NodeLimit-retry idiom as the
        // monolithic builder: collect once, then give up).
        for (pos, &gid) in gate_list.iter().enumerate() {
            let gate = &compiled.gates()[gid.0];
            self.args.clear();
            for net in compiled.inputs(gate) {
                self.args.push(self.edges[self.net_local[net.0] as usize]);
            }
            let function = library.cell_by_id(gate.cell).function();
            let edge = match self.bdd.compose_fn(function, &self.args) {
                Ok(edge) => edge,
                Err(BddError::NodeLimit { .. }) => {
                    self.bdd.gc();
                    self.bdd.compose_fn(function, &self.args)?
                }
                Err(e) => return Err(e.into()),
            };
            self.bdd.protect(edge);
            self.edges[n_inputs + pos] = edge;
            self.bdd.maybe_gc();
        }

        // Statistics per output: P from the level probabilities, D by
        // boolean differences against the support, each weighted by the
        // input's upstream density.
        self.seen.clear();
        self.seen.resize(n_inputs, false);
        self.out.clear();
        for pos in n_gates - n_own..n_gates {
            if let Some(governor) = &self.governor {
                governor.check_now("partition-stats")?;
            }
            let edge = self.edges[n_inputs + pos];
            let p = self
                .bdd
                .probability(edge, &self.level_probs, &mut self.prob);
            self.bdd
                .support_into(edge, &mut self.seen, &mut self.visited);
            let mut d = 0.0;
            for level in 0..n_inputs {
                let dens = self.level_dens[level];
                if !self.seen[level] || dens == 0.0 {
                    continue;
                }
                let boundary = self.bdd.difference_probability(
                    edge,
                    level,
                    &self.level_probs,
                    &mut self.prob,
                    &mut self.density,
                )?;
                d += boundary * dens;
            }
            self.out.push(SignalStats::new(p, d.max(0.0)));
        }
        self.gate_list = gate_list;
        Ok(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        propagate, propagate_exact_bdd, IncrementalPropagator, PropagationMode, PropagatorOptions,
    };
    use tr_netlist::generators;

    fn pi_stats(n: usize) -> Vec<SignalStats> {
        (0..n)
            .map(|i| {
                SignalStats::new(
                    0.15 + 0.6 * (i as f64 / n.max(1) as f64),
                    1.0e4 * (i + 1) as f64,
                )
            })
            .collect()
    }

    fn partitioned(max_region_nodes: usize, max_cut_width: usize) -> PropagationMode {
        PropagationMode::PartitionedBdd {
            max_region_nodes,
            max_cut_width,
        }
    }

    #[test]
    fn cut_width_zero_is_bitwise_exact_bdd() {
        let lib = Library::standard();
        let c = generators::array_multiplier(6, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let exact = propagate_exact_bdd(&c, &lib, &pi).unwrap();
        let part = IncrementalPropagator::new(&c, &lib, &pi, partitioned(4096, 0)).unwrap();
        assert_eq!(part.partition_summary(), Some((1, 0, 0.0)));
        // Bitwise: same engine, same order, same arithmetic.
        assert_eq!(part.net_stats(), &exact[..]);
    }

    #[test]
    fn every_net_cut_matches_independent_backend() {
        let lib = Library::standard();
        let c = generators::carry_select_adder(16, 4, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let indep = propagate(&c, &lib, &pi);
        let part = IncrementalPropagator::new(&c, &lib, &pi, partitioned(1, 4)).unwrap();
        let (regions, _, _) = part.partition_summary().unwrap();
        assert!(regions >= c.gates().len());
        for (n, (a, b)) in indep.iter().zip(part.net_stats()).enumerate() {
            assert!(
                (a.probability() - b.probability()).abs() < 1e-12,
                "net {n}: P {a} vs {b}"
            );
            let rel = (a.density() - b.density()).abs() / a.density().max(1.0);
            assert!(rel < 1e-12, "net {n}: D {a} vs {b}");
        }
    }

    #[test]
    fn partitioned_stays_close_to_exact_on_reconvergent_logic() {
        let lib = Library::standard();
        let c = generators::array_multiplier(8, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let exact = propagate_exact_bdd(&c, &lib, &pi).unwrap();
        // The acceptance point: an accuracy-biased config (two large
        // regions, explicit packing cost with node headroom) holds the
        // paper-grade |ΔP| ≤ 0.05 bound on the densest reconvergent
        // circuit in the suite while still clearing the monolithic
        // engine by well over 2× (pinned by `p8_partitioned_propagate`).
        let accurate = IncrementalPropagator::new_with(
            &c,
            &lib,
            &pi,
            partitioned(1 << 16, 40),
            &PropagatorOptions {
                region_cost: Some(2048),
                ..PropagatorOptions::default()
            },
        )
        .unwrap();
        let (regions, _, approx_fraction) = accurate.partition_summary().unwrap();
        assert!(regions > 1);
        assert!(approx_fraction > 0.0, "multiplier cuts approximate");
        let max_dp = exact
            .iter()
            .zip(accurate.net_stats())
            .map(|(a, b)| (a.probability() - b.probability()).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dp <= 0.05, "max |ΔP| = {max_dp}");

        // The speed-biased default config trades accuracy for a much
        // deeper cut: the error stays bounded but measurably larger.
        let fast =
            IncrementalPropagator::new(&c, &lib, &pi, PropagationMode::partitioned()).unwrap();
        assert!(fast.partition_summary().unwrap().0 > regions);
        let fast_dp = exact
            .iter()
            .zip(fast.net_stats())
            .map(|(a, b)| (a.probability() - b.probability()).abs())
            .fold(0.0f64, f64::max);
        assert!(fast_dp <= 0.10, "max |ΔP| = {fast_dp} at defaults");
    }

    #[test]
    fn governor_trip_surfaces_as_interrupted() {
        let lib = Library::standard();
        let c = generators::array_multiplier(8, &lib);
        let pi = pi_stats(c.primary_inputs().len());
        let err = IncrementalPropagator::new_with(
            &c,
            &lib,
            &pi,
            partitioned(1024, 12),
            &PropagatorOptions {
                governor: Some(Governor::with_trip_after(1)),
                ..PropagatorOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PropagationError::Interrupted(_)), "{err}");
    }
}
