//! Cone partitioning: carve a [`CompiledCircuit`] into fanout-bounded
//! regions for per-region exact statistics.
//!
//! A monolithic whole-circuit BDD engine tops out near a hundred gates of
//! dense logic — reconvergence makes the global functions blow up even
//! when every local cone is tiny. The classic remedy (cutpoint
//! approximation) is to **cut** the netlist at selected internal nets:
//! each region gets its own small engine whose variables are the region's
//! *external* nets (primary inputs or cut nets from upstream regions),
//! and cut nets carry their upstream computed statistics downstream as
//! pseudo-inputs. The only information lost is the correlation *between*
//! a region's inputs; everything inside a region stays exact.
//!
//! [`partition`] packs gates greedily in topological order, closing the
//! current region when its estimated node cost would exceed the budget or
//! its external-input count would exceed the cut width, preferring to cut
//! right after high-fanout nets (their statistics are computed once and
//! reused by every reader). Region indices come out topologically sorted:
//! every region that `r` reads a cut net from has an index `< r`, so a
//! serial evaluation in index order is always safe, and a re-evaluated
//! region only ever dirties higher-indexed [`Partition::dependents`].
//!
//! [`Partition::approx_fraction`] reports which nets are *provably*
//! exact under the cut: a region whose external inputs have pairwise
//! disjoint primary-input supports (and are themselves exact) introduces
//! no approximation at all, because functions of disjoint independent
//! variables are independent. Trees, carry chains and well-cut datapaths
//! routinely come out 100% exact; the fraction of nets that do not is a
//! structural quality indicator for the chosen cut (0 ⇒ exact).

use crate::circuit::{GateId, NetId};
use crate::compiled::CompiledCircuit;

/// Packing knobs for [`partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Estimated-node budget per region. Each gate is charged `2^arity`
    /// (its truth-table size — a proxy for the BDD nodes its composition
    /// can add), and a region closes before exceeding the budget. The
    /// per-region engine still enforces a hard live-node limit; this
    /// budget just sizes regions so the limit is rarely met.
    pub max_region_cost: usize,
    /// Maximum number of external input nets (primary inputs + cut nets)
    /// a region may read — the cut width. A region always accepts its
    /// first gate even if that gate alone exceeds the width.
    pub max_region_inputs: usize,
    /// Fanout count at or above which a net is considered a preferred
    /// cut point: once a region has consumed half its cost budget, it
    /// closes right after producing such a net.
    pub cut_fanout_threshold: usize,
    /// Cut-refinement budget: each region re-expands the fanin cone
    /// behind its cut inputs by up to this much extra gate cost
    /// (same `2^arity` units as `max_region_cost`), pushing its
    /// pseudo-input frontier toward the primary inputs. Re-expanded
    /// gates are *recomposed* locally — their statistics still come
    /// from their owning region — so nearby reconvergence (an XOR
    /// macro, an adjacent adder cell) is captured exactly and only
    /// long-range correlation is approximated. `0` disables
    /// refinement (the frontier is the raw cut).
    pub expand_cost: usize,
}

impl PartitionOptions {
    /// Options that produce exactly one region (no cuts): both budgets
    /// unbounded.
    pub fn single_region() -> Self {
        PartitionOptions {
            max_region_cost: usize::MAX,
            max_region_inputs: usize::MAX,
            cut_fanout_threshold: usize::MAX,
            expand_cost: 0,
        }
    }

    /// Options that cut every net: one gate per region.
    pub fn every_net_cut() -> Self {
        PartitionOptions {
            max_region_cost: 1,
            max_region_inputs: 0,
            cut_fanout_threshold: usize::MAX,
            expand_cost: 0,
        }
    }
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            max_region_cost: 512,
            max_region_inputs: 24,
            cut_fanout_threshold: 8,
            expand_cost: 512,
        }
    }
}

/// One region of a [`Partition`]: a contiguous (in topological order)
/// set of gates evaluated by one BDD engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The region's gates, in topological order.
    pub gates: Vec<GateId>,
    /// Cut-refinement prefix: gates of *earlier* regions recomposed
    /// locally (topological order) so this region's functions reach
    /// back past the raw cut. Their statistics still come from their
    /// owning regions; these are evaluation duplicates only. Empty
    /// when [`PartitionOptions::expand_cost`] is `0`.
    pub expansion: Vec<GateId>,
    /// External nets the region reads (primary inputs or nets driven by
    /// earlier regions), in first-read order — the pseudo-input
    /// frontier *after* cut refinement. These become the region
    /// engine's variables.
    pub inputs: Vec<NetId>,
    /// Nets driven by the region's gates, parallel to `gates`.
    pub outputs: Vec<NetId>,
}

/// A cone partition of a [`CompiledCircuit`] — see [`partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    regions: Vec<Region>,
    /// Gate index -> owning region index.
    region_of_gate: Vec<u32>,
    /// Region -> distinct successor regions (readers of its cut
    /// outputs), ascending.
    dependents: Vec<Vec<u32>>,
    /// All nets read across a region boundary (non-primary-input region
    /// inputs), ascending, deduplicated.
    cut_nets: Vec<NetId>,
}

impl Partition {
    /// The regions, topologically sorted: every region that
    /// `regions()[r]` reads a cut net from has an index `< r`.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region owning `gate`.
    pub fn region_of(&self, gate: GateId) -> usize {
        self.region_of_gate[gate.0] as usize
    }

    /// Distinct regions reading cut nets that `region` produces
    /// (ascending region indices, all `> region`).
    pub fn dependents(&self, region: usize) -> &[u32] {
        &self.dependents[region]
    }

    /// Every net that crosses a region boundary (ascending, distinct).
    pub fn cut_nets(&self) -> &[NetId] {
        &self.cut_nets
    }

    /// Fraction of gate-driven nets whose statistics are **not provably
    /// exact** under this cut, in `[0, 1]`.
    ///
    /// A net is provably exact when every external input of its region
    /// is itself exact and the region's external inputs have pairwise
    /// disjoint transitive primary-input supports: deterministic
    /// functions of disjoint sets of independent variables are mutually
    /// independent, so treating them as fresh independent pseudo-inputs
    /// loses nothing. `0.0` therefore certifies the partitioned result
    /// equals the full-BDD result (up to float rounding); a positive
    /// fraction is a structural *indicator* of how much of the circuit
    /// may carry cut-approximation error — not a bound on its magnitude.
    ///
    /// Transitive primary-input supports are kept only for cut nets of
    /// exact regions, the only ones a disjointness test ever reads: an
    /// input that is not exact already decides its region, two primary
    /// inputs are disjoint by construction, and a primary input against
    /// a cut net is one bit test.
    pub fn approx_fraction(&self, compiled: &CompiledCircuit) -> f64 {
        let mut supports = CutSupports::new(compiled);
        let mut exact = vec![false; compiled.net_count()];
        for pi in compiled.primary_inputs() {
            exact[pi.0] = true;
        }
        let mut approx_nets = 0usize;
        let mut total_nets = 0usize;
        for region in &self.regions {
            total_nets += region.outputs.len();
            let region_exact =
                region.inputs.iter().all(|net| exact[net.0]) && supports.disjoint(&region.inputs);
            if !region_exact {
                approx_nets += region.outputs.len();
                continue;
            }
            for out in &region.outputs {
                exact[out.0] = true;
            }
            supports.store(compiled, region, &self.cut_nets);
        }
        if total_nets == 0 {
            0.0
        } else {
            approx_nets as f64 / total_nets as f64
        }
    }
}

/// The transitive primary-input supports [`Partition::approx_fraction`]
/// tests for disjointness, kept for cut nets only, as bitsets over the
/// primary inputs.
struct CutSupports {
    /// Words per support bitset.
    words: usize,
    /// net -> primary-input position (`u32::MAX` for gate-driven nets).
    pi_pos: Vec<u32>,
    /// net -> offset of its support in `bits` (`usize::MAX` until its
    /// region proves exact).
    at: Vec<usize>,
    bits: Vec<u64>,
    /// Region-local scratch: net -> local slot (input index, or
    /// `n_inputs + local gate index`), valid where `stamp == epoch`.
    local: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Per local gate, its support over the region's inputs.
    local_bits: Vec<u64>,
    pis: Vec<usize>,
    cuts: Vec<usize>,
}

impl CutSupports {
    fn new(compiled: &CompiledCircuit) -> Self {
        let n_nets = compiled.net_count();
        let mut pi_pos = vec![u32::MAX; n_nets];
        for (pos, pi) in compiled.primary_inputs().iter().enumerate() {
            pi_pos[pi.0] = pos as u32;
        }
        CutSupports {
            words: compiled.primary_inputs().len().div_ceil(64),
            pi_pos,
            at: vec![usize::MAX; n_nets],
            bits: Vec::new(),
            local: vec![0; n_nets],
            stamp: vec![0; n_nets],
            epoch: 0,
            local_bits: Vec::new(),
            pis: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// Whether `inputs` (primary inputs, and cut nets whose supports are
    /// stored) have pairwise disjoint supports: distinct primary inputs
    /// always do, a primary input against a cut net is one bit test, and
    /// two cut nets compare their bitsets.
    fn disjoint(&mut self, inputs: &[NetId]) -> bool {
        self.pis.clear();
        self.cuts.clear();
        for net in inputs {
            match self.pi_pos[net.0] {
                u32::MAX => self.cuts.push(self.at[net.0]),
                pos => self.pis.push(pos as usize),
            }
        }
        let words = self.words;
        let support = |at: usize| &self.bits[at..at + words];
        self.cuts.iter().enumerate().all(|(i, &a)| {
            let sa = support(a);
            self.pis
                .iter()
                .all(|&p| sa[p / 64] & (1u64 << (p % 64)) == 0)
                && self.cuts[..i]
                    .iter()
                    .all(|&b| sa.iter().zip(support(b)).all(|(x, y)| x & y == 0))
        })
    }

    /// Stores the support of each of `region`'s outputs that is a cut
    /// net: the union of the supports of the region inputs in its local
    /// cone. Every region input must be a primary input or a stored cut
    /// net.
    fn store(&mut self, compiled: &CompiledCircuit, region: &Region, cut_nets: &[NetId]) {
        let is_cut = |net: &NetId| cut_nets.binary_search(net).is_ok();
        if !region.outputs.iter().any(is_cut) {
            return;
        }
        let words = self.words;
        let n_inputs = region.inputs.len();
        let in_words = n_inputs.div_ceil(64).max(1);
        self.epoch += 1;
        for (i, net) in region.inputs.iter().enumerate() {
            self.local[net.0] = i as u32;
            self.stamp[net.0] = self.epoch;
        }
        let n_gates = region.expansion.len() + region.gates.len();
        self.local_bits.clear();
        self.local_bits.resize(n_gates * in_words, 0);
        let gates = region.expansion.iter().chain(&region.gates);
        for (pos, &gid) in gates.enumerate() {
            let gate = &compiled.gates()[gid.0];
            let row = pos * in_words;
            for net in compiled.inputs(gate) {
                debug_assert_eq!(self.stamp[net.0], self.epoch, "non-local region net");
                let local = self.local[net.0] as usize;
                if local < n_inputs {
                    self.local_bits[row + local / 64] |= 1u64 << (local % 64);
                } else {
                    let src = (local - n_inputs) * in_words;
                    for w in 0..in_words {
                        self.local_bits[row + w] |= self.local_bits[src + w];
                    }
                }
            }
            self.local[gate.output.0] = (n_inputs + pos) as u32;
            self.stamp[gate.output.0] = self.epoch;
            // Expansion gates belong to earlier regions, which stored
            // their cut outputs already.
            if pos < region.expansion.len() || !is_cut(&gate.output) {
                continue;
            }
            let at = self.bits.len();
            self.at[gate.output.0] = at;
            self.bits.resize(at + words, 0);
            for w in 0..in_words {
                let mut set = self.local_bits[row + w];
                while set != 0 {
                    let input = region.inputs[w * 64 + set.trailing_zeros() as usize];
                    set &= set - 1;
                    match self.pi_pos[input.0] {
                        u32::MAX => {
                            let from = self.at[input.0];
                            for k in 0..words {
                                self.bits[at + k] |= self.bits[from + k];
                            }
                        }
                        p => self.bits[at + p as usize / 64] |= 1u64 << (p % 64),
                    }
                }
            }
        }
    }
}

/// Gates in fanin-DFS postorder from the primary outputs: a valid
/// topological order (fanins precede every reader) that keeps each
/// output cone *contiguous*, so greedy interval packing yields
/// cone-coherent regions. Plain creation order interleaves unrelated
/// logic (an array multiplier's rows, say), which makes every cut sever
/// correlated pairs; cone order cuts between cones instead. Gates
/// unreachable from any output are appended in compiled (topological)
/// order.
fn cone_order(compiled: &CompiledCircuit) -> Vec<GateId> {
    let n_gates = compiled.gates().len();
    let mut driver: Vec<Option<GateId>> = vec![None; compiled.net_count()];
    for (idx, gate) in compiled.gates().iter().enumerate() {
        driver[gate.output.0] = Some(GateId(idx));
    }
    let mut order = Vec::with_capacity(n_gates);
    let mut state = vec![0u8; n_gates]; // 0 unseen, 1 expanded, 2 emitted
    let mut stack: Vec<(GateId, bool)> = Vec::new();
    for &out in compiled.primary_outputs() {
        if let Some(root) = driver[out.0] {
            stack.push((root, false));
        }
        while let Some((gid, expanded)) = stack.pop() {
            if expanded {
                if state[gid.0] != 2 {
                    state[gid.0] = 2;
                    order.push(gid);
                }
                continue;
            }
            if state[gid.0] != 0 {
                continue;
            }
            state[gid.0] = 1;
            stack.push((gid, true));
            let gate = &compiled.gates()[gid.0];
            // Reverse so the first fanin is explored first.
            for net in compiled.inputs(gate).iter().rev() {
                if let Some(src) = driver[net.0] {
                    if state[src.0] == 0 {
                        stack.push((src, false));
                    }
                }
            }
        }
    }
    for &gid in compiled.order() {
        if state[gid.0] != 2 {
            order.push(gid);
        }
    }
    order
}

/// Greedy topological cone packing — see the module docs for the scheme
/// and [`PartitionOptions`] for the knobs. Deterministic: identical
/// inputs always produce the identical partition.
pub fn partition(compiled: &CompiledCircuit, options: &PartitionOptions) -> Partition {
    pack(compiled, options, true)
}

/// [`partition`], optionally without rejecting hopeless refinement
/// probes before walking them (the walk alone decides the same, slower).
fn pack(compiled: &CompiledCircuit, options: &PartitionOptions, skip_hopeless: bool) -> Partition {
    let n_nets = compiled.net_count();
    let n_gates = compiled.gates().len();
    const NO_REGION: u32 = u32::MAX;

    // Fanout counts, for the preferred-cut heuristic.
    let mut fanout = vec![0u32; n_nets];
    for gate in compiled.gates() {
        for input in compiled.inputs(gate) {
            fanout[input.0] += 1;
        }
    }

    let gate_cost = |gate: &crate::compiled::ResolvedGate| 1usize << (gate.arity as usize).min(10);

    let mut regions: Vec<Region> = Vec::new();
    let mut region_of_gate = vec![NO_REGION; n_gates];
    // net -> region that drives it (NO_REGION for primary inputs).
    let mut driver_region = vec![NO_REGION; n_nets];
    // net -> region whose input list already holds it (stamp dedup).
    let mut input_stamp = vec![NO_REGION; n_nets];

    let mut cur = Region {
        gates: Vec::new(),
        expansion: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    let mut cur_cost = 0usize;

    for &gid in &cone_order(compiled) {
        let gate = &compiled.gates()[gid.0];
        let cur_id = regions.len() as u32;
        if !cur.gates.is_empty() {
            let new_inputs = compiled
                .inputs(gate)
                .iter()
                .filter(|net| driver_region[net.0] != cur_id && input_stamp[net.0] != cur_id)
                .count();
            let over_cost = cur_cost + gate_cost(gate) > options.max_region_cost;
            let over_width = cur.inputs.len() + new_inputs > options.max_region_inputs;
            if over_cost || over_width {
                regions.push(std::mem::replace(
                    &mut cur,
                    Region {
                        gates: Vec::new(),
                        expansion: Vec::new(),
                        inputs: Vec::new(),
                        outputs: Vec::new(),
                    },
                ));
                cur_cost = 0;
            }
        }
        let cur_id = regions.len() as u32;
        for net in compiled.inputs(gate) {
            if driver_region[net.0] != cur_id && input_stamp[net.0] != cur_id {
                input_stamp[net.0] = cur_id;
                cur.inputs.push(*net);
            }
        }
        cur.gates.push(gid);
        cur.outputs.push(gate.output);
        region_of_gate[gid.0] = cur_id;
        driver_region[gate.output.0] = cur_id;
        cur_cost += gate_cost(gate);
        // Preferred cut: a hot net's statistics should be computed once
        // and fanned out, not replicated into many region supports.
        if fanout[gate.output.0] as usize >= options.cut_fanout_threshold
            && cur_cost.saturating_mul(2) >= options.max_region_cost
        {
            regions.push(std::mem::replace(
                &mut cur,
                Region {
                    gates: Vec::new(),
                    expansion: Vec::new(),
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                },
            ));
            cur_cost = 0;
        }
    }
    if !cur.gates.is_empty() {
        regions.push(cur);
    }

    // Cut refinement: for every pseudo-input of every region, probe its
    // unexpanded fanin cone, *terminating* at primary inputs and at the
    // region's other pseudo-inputs. If the whole cone fits inside the
    // remaining `expand_cost` budget the region recomposes it locally:
    // the recomposed logic is then an exact function of genuinely
    // independent primary inputs and of the surviving cut variables, so
    // short-range correlation behind the cut — complementary
    // inverter/buffer copies, sum/carry macros, reconvergent fanout —
    // is recovered exactly. A cone that does not fit is left alone: the
    // cut stays exactly where packing put it, never at an arbitrary
    // mid-cone net whose correlation with its neighbours might be worse
    // than the original cut net's.
    if options.expand_cost > 0 && regions.len() > 1 {
        let mut driver_gate = vec![u32::MAX; n_nets];
        for (idx, gate) in compiled.gates().iter().enumerate() {
            driver_gate[gate.output.0] = idx as u32;
        }
        let mut topo_pos = vec![0u32; n_gates];
        for (i, &g) in compiled.order().iter().enumerate() {
            topo_pos[g.0] = i as u32;
        }
        // Heaviest gate-cost path behind each net, capped just past the
        // budget. A probe walks every gate of its cone, so while its
        // region has expanded nothing (no gate is excluded from the
        // walk, and the budget is still `expand_cost`) a cone whose
        // path alone exceeds the budget cannot fit: skip it unwalked.
        let cap = options.expand_cost.saturating_add(1).min(u32::MAX as usize) as u32;
        let mut path_cost = vec![0u32; if skip_hopeless { n_nets } else { 0 }];
        if skip_hopeless {
            for &gid in compiled.order() {
                let gate = &compiled.gates()[gid.0];
                let deepest = compiled
                    .inputs(gate)
                    .iter()
                    .map(|net| path_cost[net.0])
                    .max()
                    .unwrap_or(0);
                path_cost[gate.output.0] = deepest.saturating_add(gate_cost(gate) as u32).min(cap);
            }
        }
        let mut expanded_stamp = vec![NO_REGION; n_gates];
        let mut candidate_stamp = vec![NO_REGION; n_nets];
        let mut frontier_stamp = vec![NO_REGION; n_nets];
        let mut probe_stamp = vec![0u32; n_gates];
        let mut probe_id = 0u32;
        let mut stack: Vec<NetId> = Vec::new();
        let mut collected: Vec<u32> = Vec::new();
        let mut terminals: Vec<NetId> = Vec::new();
        let mut region_pis: Vec<NetId> = Vec::new();
        for (rid, region) in regions.iter_mut().enumerate() {
            let rid = rid as u32;
            let mut budget = options.expand_cost;
            let mut expansion: Vec<GateId> = Vec::new();
            let inputs = std::mem::take(&mut region.inputs);
            for net in &inputs {
                candidate_stamp[net.0] = rid;
            }
            region_pis.clear();
            for &cut in &inputs {
                let d0 = driver_gate[cut.0];
                if d0 == u32::MAX || expanded_stamp[d0 as usize] == rid {
                    continue; // a primary input, or already recomposed
                }
                if skip_hopeless && expansion.is_empty() && path_cost[cut.0] as usize > budget {
                    continue;
                }
                // Probe the full cone behind `cut`, stopping at primary
                // inputs, at the region's other pseudo-inputs, and at
                // gates already committed for this region.
                probe_id += 1;
                let mut cost = 0usize;
                let mut fits = true;
                stack.clear();
                collected.clear();
                terminals.clear();
                stack.push(cut);
                while let Some(net) = stack.pop() {
                    let d = driver_gate[net.0];
                    if d == u32::MAX {
                        terminals.push(net);
                        continue;
                    }
                    let d = d as usize;
                    if expanded_stamp[d] == rid || probe_stamp[d] == probe_id {
                        continue;
                    }
                    probe_stamp[d] = probe_id;
                    cost += gate_cost(&compiled.gates()[d]);
                    if cost > budget {
                        fits = false;
                        break;
                    }
                    collected.push(d as u32);
                    for input in compiled.inputs(&compiled.gates()[d]) {
                        stack.push(*input);
                    }
                }
                if fits && !collected.is_empty() {
                    budget -= cost;
                    for &d in &collected {
                        expanded_stamp[d as usize] = rid;
                        expansion.push(GateId(d as usize));
                    }
                    for &t in &terminals {
                        // Newly reached primary inputs join the frontier;
                        // cut-input terminals are already in `inputs`.
                        if candidate_stamp[t.0] != rid && frontier_stamp[t.0] != rid {
                            frontier_stamp[t.0] = rid;
                            region_pis.push(t);
                        }
                    }
                }
            }
            // Depth-1 absorb: a pseudo-input whose driver reads only
            // nets already available locally (surviving cut variables,
            // reached primary inputs, or recomposed outputs) is itself
            // recomposed — one gate at a time, repeated until a fixed
            // point. This recovers complementary pairs exactly: when a
            // net and its inverted or buffered copy both cross the cut,
            // the copy becomes a local function of the original variable
            // instead of a second, spuriously independent variable.
            // Unlike deep recomposition *through* cut variables (which
            // measurably amplifies error by re-deriving logic from
            // correlated variables), a single absorbed gate is exactly
            // equivalent to packing having placed it in this region.
            let mut changed = true;
            while changed && budget > 0 {
                changed = false;
                for &cut in &inputs {
                    let d = driver_gate[cut.0];
                    if d == u32::MAX || expanded_stamp[d as usize] == rid {
                        continue;
                    }
                    let gate = &compiled.gates()[d as usize];
                    let cost = gate_cost(gate);
                    if cost > budget {
                        continue;
                    }
                    let absorbable = compiled.inputs(gate).iter().all(|&i| {
                        let di = driver_gate[i.0];
                        // Locally available: a primary input (added to
                        // the frontier below), another pseudo-input
                        // variable, or an already-recomposed output.
                        di == u32::MAX
                            || candidate_stamp[i.0] == rid
                            || expanded_stamp[di as usize] == rid
                    });
                    if absorbable {
                        expanded_stamp[d as usize] = rid;
                        budget -= cost;
                        expansion.push(GateId(d as usize));
                        for &i in compiled.inputs(gate) {
                            if driver_gate[i.0] == u32::MAX
                                && candidate_stamp[i.0] != rid
                                && frontier_stamp[i.0] != rid
                            {
                                frontier_stamp[i.0] = rid;
                                region_pis.push(i);
                            }
                        }
                        changed = true;
                    }
                }
            }
            // The surviving frontier: original pseudo-inputs whose driver
            // was not recomposed locally, plus every primary input the
            // committed cones reached.
            let mut frontier: Vec<NetId> = Vec::new();
            for &net in &inputs {
                let d = driver_gate[net.0];
                if d == u32::MAX || expanded_stamp[d as usize] != rid {
                    frontier.push(net);
                }
            }
            frontier.extend(region_pis.iter().copied());
            expansion.sort_unstable_by_key(|g| topo_pos[g.0]);
            region.expansion = expansion;
            region.inputs = frontier;
        }
    }

    // Dependent edges and cut nets, from each region's input list.
    let n_regions = regions.len();
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
    let mut cut_nets: Vec<NetId> = Vec::new();
    let mut producers: Vec<u32> = Vec::new();
    for (rid, region) in regions.iter().enumerate() {
        producers.clear();
        for net in &region.inputs {
            let producer = driver_region[net.0];
            if producer != NO_REGION {
                producers.push(producer);
                cut_nets.push(*net);
            }
        }
        producers.sort_unstable();
        producers.dedup();
        for &producer in &producers {
            dependents[producer as usize].push(rid as u32);
        }
    }
    cut_nets.sort_unstable();
    cut_nets.dedup();

    Partition {
        regions,
        region_of_gate,
        dependents,
        cut_nets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use tr_gatelib::Library;

    fn compiled(circuit: &crate::Circuit, lib: &Library) -> CompiledCircuit {
        CompiledCircuit::compile(circuit, lib).expect("valid circuit")
    }

    /// Structural sanity: every gate in exactly one region, regions
    /// topologically sorted, inputs external and deduplicated.
    fn check_invariants(p: &Partition, cc: &CompiledCircuit) {
        let mut seen_gate = vec![false; cc.gates().len()];
        for (rid, region) in p.regions().iter().enumerate() {
            assert!(!region.gates.is_empty(), "no empty regions");
            assert_eq!(region.gates.len(), region.outputs.len());
            for (&gid, &out) in region.gates.iter().zip(&region.outputs) {
                assert!(!seen_gate[gid.0], "gate in two regions");
                seen_gate[gid.0] = true;
                assert_eq!(p.region_of(gid), rid);
                assert_eq!(cc.gates()[gid.0].output, out);
            }
            let mut inputs = region.inputs.clone();
            inputs.sort_unstable();
            inputs.dedup();
            assert_eq!(inputs.len(), region.inputs.len(), "inputs deduplicated");
            // Every external input is a PI or produced by an earlier region.
            for net in &region.inputs {
                assert!(
                    !region.outputs.contains(net),
                    "region input produced internally"
                );
            }
            for &dep in p.dependents(rid) {
                assert!((dep as usize) > rid, "regions topologically sorted");
            }
            // Expansion gates belong to earlier regions, and the
            // expansion is fanin-closed up to the frontier.
            let mut local: std::collections::HashSet<crate::NetId> =
                region.inputs.iter().copied().collect();
            for &g in &region.expansion {
                assert!(
                    p.region_of(g) < rid,
                    "expansion reaches earlier regions only"
                );
                for net in cc.inputs(&cc.gates()[g.0]) {
                    assert!(local.contains(net), "expansion input not local");
                }
                local.insert(cc.gates()[g.0].output);
            }
            for (&gid, _) in region.gates.iter().zip(&region.outputs) {
                for net in cc.inputs(&cc.gates()[gid.0]) {
                    assert!(
                        local.contains(net) || region.outputs.contains(net),
                        "region gate input not local"
                    );
                }
            }
        }
        assert!(seen_gate.iter().all(|&s| s), "every gate assigned");
    }

    #[test]
    fn single_region_covers_everything_with_zero_cuts() {
        let lib = Library::standard();
        let cc = compiled(&generators::array_multiplier(4, &lib), &lib);
        let p = partition(&cc, &PartitionOptions::single_region());
        check_invariants(&p, &cc);
        assert_eq!(p.regions().len(), 1);
        assert!(p.cut_nets().is_empty());
        assert_eq!(p.approx_fraction(&cc), 0.0, "no cuts, no approximation");
    }

    #[test]
    fn every_net_cut_gives_one_gate_per_region() {
        let lib = Library::standard();
        let cc = compiled(&generators::ripple_carry_adder(4, &lib), &lib);
        let p = partition(&cc, &PartitionOptions::every_net_cut());
        check_invariants(&p, &cc);
        assert_eq!(p.regions().len(), cc.gates().len());
        assert!(p.regions().iter().all(|r| r.gates.len() == 1));
    }

    #[test]
    fn default_options_bound_width_and_stay_deterministic() {
        let lib = Library::standard();
        let cc = compiled(&generators::array_multiplier(8, &lib), &lib);
        // Width is a *raw-cut* cap; disable refinement to observe it
        // (the refined frontier deliberately widens past the cut).
        let opts = PartitionOptions {
            expand_cost: 0,
            ..PartitionOptions::default()
        };
        let p = partition(&cc, &opts);
        check_invariants(&p, &cc);
        assert!(p.regions().len() > 1, "mult8 does not fit one region");
        for region in p.regions() {
            assert!(region.expansion.is_empty(), "refinement disabled");
            // The width cap may only be exceeded by a region whose very
            // first gate already reads more nets than the cap.
            assert!(
                region.inputs.len() <= opts.max_region_inputs || region.gates.len() == 1,
                "cut width respected"
            );
        }
        assert_eq!(partition(&cc, &opts), p, "deterministic");
        // Refinement on: invariants still hold, and the multiplier's
        // regions actually reach back past their cuts.
        let refined = partition(&cc, &PartitionOptions::default());
        check_invariants(&refined, &cc);
        assert!(
            refined.regions().iter().any(|r| !r.expansion.is_empty()),
            "refinement expands something"
        );
        assert_eq!(partition(&cc, &PartitionOptions::default()), refined);
    }

    #[test]
    fn tree_partition_is_provably_exact() {
        // A genuine cell-level tree (every net read exactly once): any
        // cut yields disjoint supports, so the whole partition certifies
        // exact. Built inline — the mapped generator circuits expand
        // XOR into NAND macros with internal fanout, which is exactly
        // the reconvergence this test must exclude.
        let lib = Library::standard();
        let mut c = crate::Circuit::new("nand_tree");
        let mut layer: Vec<crate::NetId> = (0..32).map(|i| c.add_input(format!("x{i}"))).collect();
        let mut level = 0;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .enumerate()
                .map(|(i, pair)| {
                    let (_, out) = c.add_gate(
                        tr_gatelib::CellKind::Nand(2),
                        pair.to_vec(),
                        format!("n{level}_{i}"),
                    );
                    out
                })
                .collect();
            level += 1;
        }
        c.mark_output(layer[0]);
        let cc = compiled(&c, &lib);
        let opts = PartitionOptions {
            max_region_cost: 16,
            max_region_inputs: 8,
            cut_fanout_threshold: 8,
            expand_cost: 16,
        };
        let p = partition(&cc, &opts);
        check_invariants(&p, &cc);
        assert!(p.regions().len() > 1);
        assert_eq!(p.approx_fraction(&cc), 0.0);
    }

    /// The whole-circuit PI-support table `approx_fraction` used to
    /// build: the reference its cut-only supports must match bit for
    /// bit.
    fn approx_fraction_reference(p: &Partition, compiled: &CompiledCircuit) -> f64 {
        let n_pis = compiled.primary_inputs().len();
        let words = n_pis.div_ceil(64);
        let n_nets = compiled.net_count();
        let mut support = vec![0u64; n_nets * words];
        for (pos, pi) in compiled.primary_inputs().iter().enumerate() {
            support[pi.0 * words + pos / 64] |= 1u64 << (pos % 64);
        }
        for &gid in compiled.order() {
            let gate = &compiled.gates()[gid.0];
            let out = gate.output.0;
            for input in compiled.inputs(gate) {
                for w in 0..words {
                    let bits = support[input.0 * words + w];
                    support[out * words + w] |= bits;
                }
            }
        }
        let disjoint = |a: usize, b: usize| {
            (0..words).all(|w| support[a * words + w] & support[b * words + w] == 0)
        };
        let mut exact = vec![false; n_nets];
        for pi in compiled.primary_inputs() {
            exact[pi.0] = true;
        }
        let mut approx_nets = 0usize;
        let mut total_nets = 0usize;
        for region in p.regions() {
            let inputs_exact = region.inputs.iter().all(|net| exact[net.0]);
            let inputs_disjoint = region
                .inputs
                .iter()
                .enumerate()
                .all(|(i, a)| region.inputs[..i].iter().all(|b| disjoint(a.0, b.0)));
            let region_exact = inputs_exact && inputs_disjoint;
            for out in &region.outputs {
                exact[out.0] = region_exact;
                total_nets += 1;
                if !region_exact {
                    approx_nets += 1;
                }
            }
        }
        if total_nets == 0 {
            0.0
        } else {
            approx_nets as f64 / total_nets as f64
        }
    }

    /// The standard and large suites plus the four `scale-part`
    /// netlists (smaller instances of them in debug builds).
    fn reference_cases(lib: &Library) -> Vec<(String, CompiledCircuit)> {
        let mut cases: Vec<(String, crate::Circuit)> = crate::suite::standard_suite(lib)
            .into_iter()
            .chain(crate::suite::large_suite(lib))
            .map(|case| (case.name, case.circuit))
            .collect();
        let (adder, multiplier, control, iscas) = if cfg!(debug_assertions) {
            (512, 16, 10_000, 5_000)
        } else {
            (4096, 48, 100_000, 25_000)
        };
        cases.push((
            format!("rca{adder}"),
            crate::map::map_default(&generators::ripple_carry_adder_generic(adder), lib),
        ));
        cases.push((
            format!("mult{multiplier}"),
            crate::map::map_default(&generators::array_multiplier_generic(multiplier), lib),
        ));
        cases.push((
            format!("rnd_ctrl_{control}"),
            generators::random_circuit(20, control, 1, lib),
        ));
        cases.push((
            format!("rnd_iscas_{iscas}"),
            generators::rnd_large(0x25000, iscas, lib),
        ));
        cases
            .into_iter()
            .map(|(name, circuit)| (name, compiled(&circuit, lib)))
            .collect()
    }

    /// Packing options for a (region nodes, cut width) pair, derived as
    /// the partitioned statistics backend derives them: the default, the
    /// ladder's three halvings, narrower cuts and a small region.
    fn reference_settings() -> Vec<PartitionOptions> {
        [
            (8192, 24),
            (4096, 24),
            (2048, 24),
            (1024, 24),
            (8192, 16),
            (8192, 8),
            (512, 4),
        ]
        .into_iter()
        .map(|(nodes, width)| {
            let cost = (nodes / 8).max(16);
            PartitionOptions {
                max_region_cost: cost,
                max_region_inputs: width,
                cut_fanout_threshold: 8,
                expand_cost: (cost / 4).max(8),
            }
        })
        .collect()
    }

    #[test]
    fn skipping_hopeless_probes_and_cut_only_supports_change_nothing() {
        let lib = Library::standard();
        let settings = reference_settings();
        let mut compared = 0;
        for (name, cc) in reference_cases(&lib) {
            for opts in &settings {
                let p = partition(&cc, opts);
                assert_eq!(p, pack(&cc, opts, false), "{name} {opts:?}");
                assert_eq!(
                    p.approx_fraction(&cc).to_bits(),
                    approx_fraction_reference(&p, &cc).to_bits(),
                    "{name} {opts:?}"
                );
                compared += 1;
            }
        }
        assert_eq!(compared, 39 * settings.len());
    }

    #[test]
    fn overlapping_supports_are_approximate_across_every_input_kind() {
        // One gate per region: `p` reads two primary inputs, `q` a cut
        // net beside a primary input in its support, `r` two cut nets
        // sharing `b`, and `s` a cut net beside a disjoint input.
        let lib = Library::standard();
        let mut c = crate::Circuit::new("overlaps");
        let [a, b, d, e] = ["a", "b", "d", "e"].map(|name| c.add_input(name));
        let nand = |c: &mut crate::Circuit, x, y, name: &str| {
            c.add_gate(tr_gatelib::CellKind::Nand(2), vec![x, y], name)
                .1
        };
        let p = nand(&mut c, a, b, "p");
        let q = nand(&mut c, p, a, "q");
        let t = nand(&mut c, b, d, "t");
        let r = nand(&mut c, p, t, "r");
        let s = nand(&mut c, t, e, "s");
        for out in [q, r, s] {
            c.mark_output(out);
        }
        let cc = compiled(&c, &lib);
        let part = partition(&cc, &PartitionOptions::every_net_cut());
        check_invariants(&part, &cc);
        // `q` and `r` are approximate; `p`, `t` and `s` are exact.
        assert_eq!(part.approx_fraction(&cc), 2.0 / 5.0);
        assert_eq!(approx_fraction_reference(&part, &cc), 2.0 / 5.0);
    }

    #[test]
    fn reconvergent_cut_reports_approximate_nets() {
        // Cutting inside a multiplier severs reconvergent paths: some
        // regions must read inputs with overlapping PI supports.
        let lib = Library::standard();
        let cc = compiled(&generators::array_multiplier(8, &lib), &lib);
        let p = partition(&cc, &PartitionOptions::default());
        let fraction = p.approx_fraction(&cc);
        assert!(fraction > 0.0, "multiplier cuts cannot all be exact");
        assert!(fraction <= 1.0);
    }
}
