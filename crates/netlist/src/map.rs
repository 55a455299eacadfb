//! Structural technology mapping onto the Table 2 library.
//!
//! The paper's benchmarks are "mapped into the gate library shown in
//! Table 2"; this module is that flow's stand-in. It lowers a
//! [`GenericCircuit`] through a normalized AND/OR/NOT DAG and emits
//! library cells, absorbing AND-OR-INVERT / OR-AND-INVERT patterns into
//! the AOI/OAI families where the library has a matching cell:
//!
//! * `NOT(OR(AND(a,b), c))`            → `aoi21`
//! * `NOT(AND(OR(a,b), OR(c,d), e))`   → `oai221`
//! * plain inverted groups             → `nandk` / `nork` (k ≤ 4)
//! * wider operators                   → balanced trees
//!
//! Mapping preserves functionality (property-tested against the generic
//! netlist) and never duplicates logic: shared subterms map to shared
//! nets.

use crate::circuit::{Circuit, NetId};
use crate::generic::{GenericCircuit, GenericOp};
use std::collections::HashMap;
use tr_gatelib::{CellKind, Library};

/// Options controlling the mapper.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Absorb AOI/OAI patterns (on by default). Off gives a NAND/NOR/INV
    /// mapping — useful for ablations.
    pub absorb_aoi: bool,
    /// Maximum NAND/NOR fanin (the Table 2 library has 4).
    pub max_fanin: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            absorb_aoi: true,
            max_fanin: 4,
        }
    }
}

/// Normalized intermediate node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NNode {
    /// Primary input (index into the generic circuit's input list).
    Input(usize),
    And(Vec<usize>),
    Or(Vec<usize>),
    Not(usize),
}

/// The normalized DAG plus bookkeeping.
struct Normalized {
    nodes: Vec<NNode>,
    fanout: Vec<usize>,
}

impl Normalized {
    fn push(&mut self, n: NNode) -> usize {
        self.nodes.push(n);
        self.fanout.push(0);
        self.nodes.len() - 1
    }
}

/// Maps a generic circuit onto the library.
///
/// Primary outputs keep their generic-circuit names; internal nets get
/// synthetic names. The result is validated before being returned.
///
/// # Panics
///
/// Panics if the generic circuit is cyclic, or if the library is missing
/// a required basic cell (`inv`, `nand2..4`, `nor2..4`).
pub fn map(generic: &GenericCircuit, library: &Library, options: &MapOptions) -> Circuit {
    map_with_outputs(generic, library, options).0
}

/// Like [`map`], additionally returning the mapped net of every generic
/// primary output, in declaration order.
///
/// Distinct generic outputs can alias the same net (e.g. through `BUFF`),
/// in which case `Circuit::primary_outputs` contains the net once but the
/// returned vector still has one entry per generic output.
///
/// # Panics
///
/// As [`map`].
pub fn map_with_outputs(
    generic: &GenericCircuit,
    library: &Library,
    options: &MapOptions,
) -> (Circuit, Vec<NetId>) {
    let mut mapper = Mapper::new(generic, library, options);
    let outputs = mapper.run();
    let circuit = mapper.circuit;
    circuit
        .validate(library)
        .expect("mapper produced an invalid circuit");
    (circuit, outputs)
}

/// Maps with default options.
pub fn map_default(generic: &GenericCircuit, library: &Library) -> Circuit {
    map(generic, library, &MapOptions::default())
}

struct Mapper<'a> {
    generic: &'a GenericCircuit,
    library: &'a Library,
    options: &'a MapOptions,
    norm: Normalized,
    /// Generic signal → normalized node.
    signal_node: HashMap<usize, usize>,
    /// Normalized node → realized (positive polarity) net.
    realized: HashMap<usize, NetId>,
    circuit: Circuit,
    fresh: usize,
}

impl<'a> Mapper<'a> {
    fn new(generic: &'a GenericCircuit, library: &'a Library, options: &'a MapOptions) -> Self {
        Mapper {
            generic,
            library,
            options,
            norm: Normalized {
                nodes: Vec::new(),
                fanout: Vec::new(),
            },
            signal_node: HashMap::new(),
            realized: HashMap::new(),
            circuit: Circuit::new(generic.name()),
            fresh: 0,
        }
    }

    fn run(&mut self) -> Vec<NetId> {
        // 1. Primary inputs.
        for (i, &sig) in self.generic.inputs().iter().enumerate() {
            let node = self.norm.push(NNode::Input(i));
            self.signal_node.insert(sig, node);
            let net = self.circuit.add_input(self.generic.signal_name(sig));
            self.realized.insert(node, net);
        }
        // 2. Normalize gates in dependency order.
        for g in self
            .generic
            .topological_order()
            .unwrap_or_else(|_| panic!("combinational cycle in generic circuit"))
        {
            let gate = self.generic.gates()[g].clone();
            let args: Vec<usize> = gate
                .inputs
                .iter()
                .map(|s| *self.signal_node.get(s).expect("inputs precede use"))
                .collect();
            let node = self.normalize(gate.op, args);
            self.signal_node.insert(gate.output, node);
        }
        // 3. Flatten single-fanout associative chains, then split fanin.
        self.count_fanout();
        self.flatten();
        self.split_wide();
        self.count_fanout();
        // 4. Emit primary outputs (realizing their cones).
        let mut outputs = Vec::with_capacity(self.generic.outputs().len());
        for &sig in self.generic.outputs() {
            let node = *self
                .signal_node
                .get(&sig)
                .expect("output signal must be defined");
            let net = self.realize(node);
            self.circuit.mark_output(net);
            outputs.push(net);
        }
        outputs
    }

    fn normalize(&mut self, op: GenericOp, args: Vec<usize>) -> usize {
        match op {
            GenericOp::Buff => args[0],
            GenericOp::Not => self.norm.push(NNode::Not(args[0])),
            GenericOp::And => {
                if args.len() == 1 {
                    args[0]
                } else {
                    self.norm.push(NNode::And(args))
                }
            }
            GenericOp::Or => {
                if args.len() == 1 {
                    args[0]
                } else {
                    self.norm.push(NNode::Or(args))
                }
            }
            GenericOp::Nand => {
                let inner = self.normalize(GenericOp::And, args);
                self.norm.push(NNode::Not(inner))
            }
            GenericOp::Nor => {
                let inner = self.normalize(GenericOp::Or, args);
                self.norm.push(NNode::Not(inner))
            }
            GenericOp::Xor => {
                // Fold to binary XORs: a⊕b = a·b̄ + ā·b.
                let mut acc = args[0];
                for &b in &args[1..] {
                    let na = self.norm.push(NNode::Not(acc));
                    let nb = self.norm.push(NNode::Not(b));
                    let t1 = self.norm.push(NNode::And(vec![acc, nb]));
                    let t2 = self.norm.push(NNode::And(vec![na, b]));
                    acc = self.norm.push(NNode::Or(vec![t1, t2]));
                }
                acc
            }
            GenericOp::Xnor => {
                let x = self.normalize(GenericOp::Xor, args);
                self.norm.push(NNode::Not(x))
            }
        }
    }

    fn count_fanout(&mut self) {
        for f in &mut self.norm.fanout {
            *f = 0;
        }
        let bump = |children: &[usize], fanout: &mut Vec<usize>| {
            for &c in children {
                fanout[c] += 1;
            }
        };
        let nodes = self.norm.nodes.clone();
        for n in &nodes {
            match n {
                NNode::Input(_) => {}
                NNode::And(cs) | NNode::Or(cs) => bump(cs, &mut self.norm.fanout),
                NNode::Not(c) => bump(&[*c], &mut self.norm.fanout),
            }
        }
        // Outputs count as fanout so their nodes are never absorbed away.
        for &sig in self.generic.outputs() {
            if let Some(&n) = self.signal_node.get(&sig) {
                self.norm.fanout[n] += 1;
            }
        }
    }

    /// Collapses `And(And(a,b), c)` (inner fanout 1) into `And(a,b,c)`,
    /// and likewise for `Or`.
    fn flatten(&mut self) {
        for i in 0..self.norm.nodes.len() {
            let node = self.norm.nodes[i].clone();
            let (is_and, children) = match node {
                NNode::And(cs) => (true, cs),
                NNode::Or(cs) => (false, cs),
                _ => continue,
            };
            let mut flat = Vec::with_capacity(children.len());
            let mut changed = false;
            for c in children {
                let absorbable = self.norm.fanout[c] == 1
                    && matches!(
                        (&self.norm.nodes[c], is_and),
                        (NNode::And(_), true) | (NNode::Or(_), false)
                    );
                if absorbable {
                    match self.norm.nodes[c].clone() {
                        NNode::And(inner) | NNode::Or(inner) => {
                            flat.extend(inner);
                            changed = true;
                        }
                        _ => unreachable!("absorbable is And/Or"),
                    }
                } else {
                    flat.push(c);
                }
            }
            if changed {
                self.norm.nodes[i] = if is_and {
                    NNode::And(flat)
                } else {
                    NNode::Or(flat)
                };
            }
        }
    }

    /// Splits operators wider than `max_fanin` into balanced trees.
    fn split_wide(&mut self) {
        let max = self.options.max_fanin.max(2);
        let mut i = 0;
        while i < self.norm.nodes.len() {
            let node = self.norm.nodes[i].clone();
            let (is_and, children) = match node {
                NNode::And(cs) if cs.len() > max => (true, cs),
                NNode::Or(cs) if cs.len() > max => (false, cs),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Group into ⌈n/max⌉ chunks; the node becomes the combiner.
            let mut groups: Vec<usize> = Vec::new();
            for chunk in children.chunks(max) {
                if chunk.len() == 1 {
                    groups.push(chunk[0]);
                } else {
                    let sub = if is_and {
                        NNode::And(chunk.to_vec())
                    } else {
                        NNode::Or(chunk.to_vec())
                    };
                    groups.push(self.norm.push(sub));
                }
            }
            self.norm.nodes[i] = if is_and {
                NNode::And(groups)
            } else {
                NNode::Or(groups)
            };
            // Do not advance: the node may still be wider than `max`.
        }
    }

    fn fresh_name(&mut self, tag: &str) -> String {
        self.fresh += 1;
        format!("_{tag}{}", self.fresh)
    }

    /// Realizes node `n` as a net carrying its positive value.
    fn realize(&mut self, n: usize) -> NetId {
        if let Some(&net) = self.realized.get(&n) {
            return net;
        }
        let node = self.norm.nodes[n].clone();
        let net = match node {
            NNode::Input(_) => unreachable!("inputs are pre-realized"),
            NNode::Not(x) => {
                let inner = self.norm.nodes[x].clone();
                let single_use = self.norm.fanout[x] == 1;
                match inner {
                    NNode::And(args) if single_use => self.emit_inverted_and(&args),
                    NNode::Or(args) if single_use => self.emit_inverted_or(&args),
                    _ => {
                        let src = self.realize(x);
                        self.emit_cell(CellKind::Inv, vec![src], "inv")
                    }
                }
            }
            NNode::And(args) => {
                let nand = self.emit_inverted_and(&args);
                self.emit_cell(CellKind::Inv, vec![nand], "and")
            }
            NNode::Or(args) => {
                let nor = self.emit_inverted_or(&args);
                self.emit_cell(CellKind::Inv, vec![nor], "or")
            }
        };
        self.realized.insert(n, net);
        net
    }

    /// Emits `NOT(AND(args))`: an OAI cell when the children form a
    /// library pattern, otherwise a NAND.
    fn emit_inverted_and(&mut self, args: &[usize]) -> NetId {
        if args.len() == 1 {
            let src = self.realize(args[0]);
            return self.emit_cell(CellKind::Inv, vec![src], "inv");
        }
        if self.options.absorb_aoi && args.len() <= 3 {
            if let Some(net) = self.try_absorb(args, /*and_of_ors=*/ true) {
                return net;
            }
        }
        let nets: Vec<NetId> = args.iter().map(|&a| self.realize(a)).collect();
        self.emit_cell(CellKind::Nand(nets.len()), nets, "nand")
    }

    /// Emits `NOT(OR(args))`: an AOI cell when possible, otherwise a NOR.
    fn emit_inverted_or(&mut self, args: &[usize]) -> NetId {
        if args.len() == 1 {
            let src = self.realize(args[0]);
            return self.emit_cell(CellKind::Inv, vec![src], "inv");
        }
        if self.options.absorb_aoi && args.len() <= 3 {
            if let Some(net) = self.try_absorb(args, /*and_of_ors=*/ false) {
                return net;
            }
        }
        let nets: Vec<NetId> = args.iter().map(|&a| self.realize(a)).collect();
        self.emit_cell(CellKind::Nor(nets.len()), nets, "nor")
    }

    /// Attempts to absorb group children into an OAI (`and_of_ors`) or AOI
    /// cell. Returns `None` when the group-size pattern has no Table 2
    /// cell, in which case the caller falls back to NAND/NOR.
    fn try_absorb(&mut self, args: &[usize], and_of_ors: bool) -> Option<NetId> {
        // Collect groups: a child collapses into a group if it is the
        // complementary op, single-fanout, and small enough.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &a in args {
            let group = match (&self.norm.nodes[a], and_of_ors) {
                (NNode::Or(sub), true) | (NNode::And(sub), false)
                    if self.norm.fanout[a] == 1 && sub.len() <= 3 =>
                {
                    sub.clone()
                }
                _ => vec![a],
            };
            groups.push(group);
        }
        // Library patterns require at least one real group.
        if groups.iter().all(|g| g.len() == 1) {
            return None;
        }
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let kind = if and_of_ors {
            CellKind::Oai(sizes)
        } else {
            CellKind::Aoi(sizes)
        };
        self.library.cell(&kind)?;
        let mut nets: Vec<NetId> = Vec::new();
        for g in &groups {
            for &s in g {
                nets.push(self.realize(s));
            }
        }
        let tag = if and_of_ors { "oai" } else { "aoi" };
        Some(self.emit_cell(kind, nets, tag))
    }

    fn emit_cell(&mut self, cell: CellKind, inputs: Vec<NetId>, tag: &str) -> NetId {
        let name = self.fresh_name(tag);
        let (_, net) = self.circuit.add_gate(cell, inputs, name);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::generic::GenericOp;

    fn check_equivalent(generic: &GenericCircuit, mapped: &Circuit, library: &Library) {
        let n = generic.inputs().len();
        assert!(n <= 14, "exhaustive check limited to 14 inputs");
        for m in 0..(1usize << n) {
            let vals: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            let want = generic.evaluate_outputs(&vals);
            let nets = mapped.evaluate(library, &vals);
            let got: Vec<bool> = mapped.primary_outputs().iter().map(|o| nets[o.0]).collect();
            assert_eq!(got, want, "mismatch on input {m:b}");
        }
    }

    #[test]
    fn maps_c17_equivalently() {
        let lib = Library::standard();
        let g = bench::c17();
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        // c17 is pure NAND2: mapping should not inflate it much.
        assert!(c.gates().len() <= 8, "got {} gates", c.gates().len());
    }

    #[test]
    fn absorbs_aoi21() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("aoi");
        g.add_input("a");
        g.add_input("b");
        g.add_input("c");
        g.add_gate("t", GenericOp::And, &["a", "b"]);
        g.add_gate("y", GenericOp::Nor, &["t", "c"]);
        g.add_output("y");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        assert_eq!(c.gates().len(), 1);
        assert_eq!(c.gates()[0].cell, CellKind::aoi(&[2, 1]));
    }

    #[test]
    fn absorbs_oai221() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("oai");
        for n in ["a", "b", "c", "d", "e"] {
            g.add_input(n);
        }
        g.add_gate("t1", GenericOp::Or, &["a", "b"]);
        g.add_gate("t2", GenericOp::Or, &["c", "d"]);
        g.add_gate("y", GenericOp::Nand, &["t1", "t2", "e"]);
        g.add_output("y");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        assert_eq!(c.gates().len(), 1);
        assert_eq!(c.gates()[0].cell, CellKind::oai(&[2, 2, 1]));
    }

    #[test]
    fn shared_group_is_not_absorbed() {
        // The AND feeds two gates: it must stay a separate gate.
        let lib = Library::standard();
        let mut g = GenericCircuit::new("shared");
        for n in ["a", "b", "c", "d"] {
            g.add_input(n);
        }
        g.add_gate("t", GenericOp::And, &["a", "b"]);
        g.add_gate("y1", GenericOp::Nor, &["t", "c"]);
        g.add_gate("y2", GenericOp::Nor, &["t", "d"]);
        g.add_output("y1");
        g.add_output("y2");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        // t as nand+inv (or equivalent) plus two NOR2s: at least 4 gates.
        assert!(c.gates().len() >= 4);
    }

    #[test]
    fn xor_expands_and_matches() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("xor3");
        g.add_input("a");
        g.add_input("b");
        g.add_input("c");
        g.add_gate("y", GenericOp::Xor, &["a", "b", "c"]);
        g.add_output("y");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
    }

    #[test]
    fn wide_gates_split() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("wide");
        let names: Vec<String> = (0..9).map(|i| format!("i{i}")).collect();
        for n in &names {
            g.add_input(n);
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        g.add_gate("y", GenericOp::And, &refs);
        g.add_output("y");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        for gate in c.gates() {
            assert!(gate.inputs.len() <= 6);
        }
    }

    #[test]
    fn buffers_alias_through() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("buf");
        g.add_input("a");
        g.add_gate("b", GenericOp::Buff, &["a"]);
        g.add_gate("y", GenericOp::Not, &["b"]);
        g.add_output("y");
        let c = map_default(&g, &lib);
        check_equivalent(&g, &c, &lib);
        assert_eq!(c.gates().len(), 1); // just the inverter
    }

    #[test]
    fn no_absorb_option_gives_nand_nor_only() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("plain");
        g.add_input("a");
        g.add_input("b");
        g.add_input("c");
        g.add_gate("t", GenericOp::And, &["a", "b"]);
        g.add_gate("y", GenericOp::Nor, &["t", "c"]);
        g.add_output("y");
        let opts = MapOptions {
            absorb_aoi: false,
            ..MapOptions::default()
        };
        let c = map(&g, &lib, &opts);
        check_equivalent(&g, &c, &lib);
        for gate in c.gates() {
            assert!(
                matches!(
                    gate.cell,
                    CellKind::Inv | CellKind::Nand(_) | CellKind::Nor(_)
                ),
                "unexpected {}",
                gate.cell
            );
        }
    }

    #[test]
    fn output_driven_by_input_is_handled() {
        let lib = Library::standard();
        let mut g = GenericCircuit::new("wire");
        g.add_input("a");
        g.add_gate("y", GenericOp::Buff, &["a"]);
        g.add_output("y");
        let c = map_default(&g, &lib);
        assert_eq!(c.gates().len(), 0);
        assert_eq!(c.primary_outputs(), &[c.primary_inputs()[0]]);
    }
}
