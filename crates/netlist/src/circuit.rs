//! The mapped, gate-level circuit representation.

use std::collections::HashMap;
use std::fmt;
use tr_gatelib::{CellKind, Library};

/// Identifier of a net (a signal wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub usize);

/// One gate instance: a library cell, its input nets (positional), its
/// output net, and the transistor-reordering configuration currently
/// chosen for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The library cell.
    pub cell: CellKind,
    /// Input nets, one per cell input, in cell-input order.
    pub inputs: Vec<NetId>,
    /// Output net (driven exclusively by this gate).
    pub output: NetId,
    /// Index into the cell's configuration list (0 = default).
    pub config: usize,
}

/// Errors raised by circuit validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A net is driven by more than one gate (or a gate drives a primary
    /// input).
    MultipleDrivers(NetId),
    /// A net is neither a primary input nor driven by a gate.
    Undriven(NetId),
    /// The gate graph contains a combinational cycle.
    Cycle,
    /// A gate's input count does not match its cell's arity.
    ArityMismatch(GateId),
    /// A gate references a cell missing from the library.
    UnknownCell(GateId),
    /// A gate's configuration index is out of range for its cell.
    BadConfiguration(GateId),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::MultipleDrivers(n) => write!(f, "net {} has multiple drivers", n.0),
            CircuitError::Undriven(n) => write!(f, "net {} is undriven", n.0),
            CircuitError::Cycle => write!(f, "combinational cycle detected"),
            CircuitError::ArityMismatch(g) => write!(f, "gate {} arity mismatch", g.0),
            CircuitError::UnknownCell(g) => write!(f, "gate {} uses an unknown cell", g.0),
            CircuitError::BadConfiguration(g) => {
                write!(f, "gate {} configuration out of range", g.0)
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A combinational circuit mapped onto the cell library.
///
/// Nets are created first (primary inputs or internal), gates drive
/// exactly one net each, primary outputs designate nets observable from
/// outside. The structure is append-only; in-place mutation is limited
/// to the per-gate `config` field (the optimizer's move,
/// [`Circuit::set_config`]) and same-arity cell substitution
/// ([`Circuit::set_cell`]), so net and gate ids are stable for a
/// circuit's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    net_names: Vec<String>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    /// Per-net membership in `primary_outputs`, one entry per net, so
    /// [`Circuit::mark_output`] deduplicates in O(1).
    is_output: Vec<bool>,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            net_names: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            is_output: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a fresh net with the given name and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.net_names.push(name.into());
        self.is_output.push(false);
        NetId(self.net_names.len() - 1)
    }

    /// Adds a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.primary_inputs.push(id);
        id
    }

    /// Marks a net as a primary output (a net marked twice stays listed
    /// once, at its first position).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.is_output[net.0] {
            self.is_output[net.0] = true;
            self.primary_outputs.push(net);
        }
    }

    /// Adds a gate driving a fresh net; returns `(gate, output net)`.
    pub fn add_gate(
        &mut self,
        cell: CellKind,
        inputs: Vec<NetId>,
        output_name: impl Into<String>,
    ) -> (GateId, NetId) {
        let output = self.add_net(output_name);
        self.gates.push(Gate {
            cell,
            inputs,
            output,
            config: 0,
        });
        (GateId(self.gates.len() - 1), output)
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// Primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// A gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0]
    }

    /// Sets the configuration of a gate (the optimizer's only mutation).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_config(&mut self, id: GateId, config: usize) {
        self.gates[id.0].config = config;
    }

    /// Substitutes a gate's library cell in place, keeping its nets. The
    /// replacement must have the same arity, so the netlist structure
    /// (and every NetId/GateId) survives — this is the "accepted cell
    /// change" that dirty-cone re-propagation invalidates statistics
    /// for, unlike [`Circuit::set_config`] which preserves the gate's
    /// Boolean function. The configuration resets to 0 (configuration
    /// indices of different cells are unrelated).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the new cell's input count
    /// differs from the gate's.
    pub fn set_cell(&mut self, id: GateId, cell: CellKind) {
        let gate = &mut self.gates[id.0];
        assert_eq!(
            cell.arity(),
            gate.inputs.len(),
            "replacement cell must keep the gate's arity"
        );
        gate.cell = cell;
        gate.config = 0;
    }

    /// The gate driving each net, if any.
    pub fn drivers(&self) -> HashMap<NetId, GateId> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.output, GateId(i)))
            .collect()
    }

    /// The gates reading each net (fanout).
    pub fn fanouts(&self) -> HashMap<NetId, Vec<GateId>> {
        let mut map: HashMap<NetId, Vec<GateId>> = HashMap::new();
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                map.entry(inp).or_default().push(GateId(i));
            }
        }
        map
    }

    /// Gates in dependency order: every gate appears after all gates in
    /// its transitive fan-in (the paper's `DEPTH_FIRST_TRAVERSE`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Cycle`] if the netlist is cyclic.
    pub fn topological_order(&self) -> Result<Vec<GateId>, CircuitError> {
        // Driver lookup indexed by net; on a doubly driven net the last
        // gate wins, as in [`Circuit::drivers`].
        let mut drivers: Vec<Option<GateId>> = vec![None; self.net_count()];
        for (i, g) in self.gates.iter().enumerate() {
            drivers[g.output.0] = Some(GateId(i));
        }
        let mut state = vec![0u8; self.gates.len()]; // 0 new, 1 open, 2 done
        let mut order = Vec::with_capacity(self.gates.len());
        // Iterative DFS so deep circuits (long adder chains) cannot blow
        // the stack.
        for root in 0..self.gates.len() {
            if state[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            state[root] = 1;
            while let Some(&mut (g, ref mut next)) = stack.last_mut() {
                let gate = &self.gates[g];
                if *next < gate.inputs.len() {
                    let input = gate.inputs[*next];
                    *next += 1;
                    if let Some(&Some(dep)) = drivers.get(input.0) {
                        match state[dep.0] {
                            0 => {
                                state[dep.0] = 1;
                                stack.push((dep.0, 0));
                            }
                            1 => return Err(CircuitError::Cycle),
                            _ => {}
                        }
                    }
                } else {
                    state[g] = 2;
                    order.push(GateId(g));
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Validates structural well-formedness against a library.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`CircuitError`].
    pub fn validate(&self, library: &Library) -> Result<(), CircuitError> {
        // Single driver per net; primary inputs undriven.
        let mut is_input = vec![false; self.net_count()];
        for pi in &self.primary_inputs {
            is_input[pi.0] = true;
        }
        let mut driven = vec![false; self.net_count()];
        for (i, g) in self.gates.iter().enumerate() {
            if driven[g.output.0] || is_input[g.output.0] {
                return Err(CircuitError::MultipleDrivers(g.output));
            }
            driven[g.output.0] = true;
            let cell = library
                .cell(&g.cell)
                .ok_or(CircuitError::UnknownCell(GateId(i)))?;
            if g.inputs.len() != cell.arity() {
                return Err(CircuitError::ArityMismatch(GateId(i)));
            }
            if g.config >= cell.configurations().len() {
                return Err(CircuitError::BadConfiguration(GateId(i)));
            }
        }
        for (n, &is_driven) in driven.iter().enumerate() {
            if !is_driven && !is_input[n] {
                return Err(CircuitError::Undriven(NetId(n)));
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Evaluates the circuit on a primary-input assignment; returns the
    /// value of every net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary input count, the
    /// circuit is cyclic, or a cell is missing from the library.
    pub fn evaluate(&self, library: &Library, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.primary_inputs.len(),
            "one value per primary input"
        );
        let mut values = vec![false; self.net_count()];
        for (i, &net) in self.primary_inputs.iter().enumerate() {
            values[net.0] = inputs[i];
        }
        let order = self.topological_order().expect("cyclic circuit");
        for gid in order {
            let gate = &self.gates[gid.0];
            let cell = library.cell(&gate.cell).expect("unknown cell");
            let assignment: Vec<bool> = gate.inputs.iter().map(|n| values[n.0]).collect();
            values[gate.output.0] = cell.function().eval(&assignment);
        }
        values
    }

    /// Gate-count histogram by cell name (the `G` column of Table 3 is
    /// the total).
    pub fn cell_histogram(&self) -> HashMap<String, usize> {
        let mut h: HashMap<String, usize> = HashMap::new();
        for g in &self.gates {
            *h.entry(g.cell.name()).or_insert(0) += 1;
        }
        h
    }

    /// Maximum logic depth in gates (length of the longest PI→PO path).
    pub fn logic_depth(&self) -> usize {
        let order = match self.topological_order() {
            Ok(o) => o,
            Err(_) => return 0,
        };
        // Undriven nets (primary inputs) stay at depth 0.
        let mut depth = vec![0usize; self.net_count()];
        for gid in order {
            let gate = &self.gates[gid.0];
            let d = gate
                .inputs
                .iter()
                .map(|n| depth.get(n.0).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
                + 1;
            depth[gate.output.0] = d;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.primary_inputs.len(),
            self.primary_outputs.len(),
            self.gates.len(),
            self.logic_depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// c17-like toy: two NAND2 layers.
    fn toy(lib: &Library) -> Circuit {
        let _ = lib;
        let mut c = Circuit::new("toy");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let (_, n1) = c.add_gate(CellKind::Nand(2), vec![a, b], "n1");
        let (_, n2) = c.add_gate(CellKind::Nand(2), vec![n1, b], "n2");
        c.mark_output(n2);
        c
    }

    #[test]
    fn build_and_validate() {
        let lib = Library::standard();
        let c = toy(&lib);
        assert!(c.validate(&lib).is_ok());
        assert_eq!(c.net_count(), 4);
        assert_eq!(c.gates().len(), 2);
    }

    #[test]
    fn evaluate_nand_chain() {
        let lib = Library::standard();
        let c = toy(&lib);
        // n1 = !(a·b); n2 = !(n1·b)
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = c.evaluate(&lib, &[a, b]);
            let n1 = !(a && b);
            let n2 = !(n1 && b);
            assert_eq!(v[c.primary_outputs()[0].0], n2, "a={a} b={b}");
        }
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let lib = Library::standard();
        let c = toy(&lib);
        let order = c.topological_order().unwrap();
        assert_eq!(order, vec![GateId(0), GateId(1)]);
    }

    #[test]
    fn multiple_drivers_detected() {
        let lib = Library::standard();
        let mut c = Circuit::new("bad");
        let a = c.add_input("a");
        let (_, n1) = c.add_gate(CellKind::Inv, vec![a], "n1");
        // Second gate illegally drives the same net.
        c.gates.push(Gate {
            cell: CellKind::Inv,
            inputs: vec![a],
            output: n1,
            config: 0,
        });
        assert_eq!(c.validate(&lib), Err(CircuitError::MultipleDrivers(n1)));
    }

    #[test]
    fn undriven_net_detected() {
        let lib = Library::standard();
        let mut c = Circuit::new("bad");
        let a = c.add_input("a");
        let floating = c.add_net("floating");
        let (_, _) = c.add_gate(CellKind::Nand(2), vec![a, floating], "n1");
        assert_eq!(c.validate(&lib), Err(CircuitError::Undriven(floating)));
    }

    #[test]
    fn arity_mismatch_detected() {
        let lib = Library::standard();
        let mut c = Circuit::new("bad");
        let a = c.add_input("a");
        let (g, _) = c.add_gate(CellKind::Nand(2), vec![a], "n1");
        assert_eq!(c.validate(&lib), Err(CircuitError::ArityMismatch(g)));
    }

    #[test]
    fn bad_configuration_detected() {
        let lib = Library::standard();
        let mut c = Circuit::new("bad");
        let a = c.add_input("a");
        let (g, _) = c.add_gate(CellKind::Inv, vec![a], "n1");
        c.set_config(g, 7);
        assert_eq!(c.validate(&lib), Err(CircuitError::BadConfiguration(g)));
    }

    #[test]
    fn cycle_detected() {
        let lib = Library::standard();
        let mut c = Circuit::new("cyclic");
        let a = c.add_input("a");
        // Manually create a cycle: g0 reads g1's output and vice versa.
        let n0 = c.add_net("n0");
        let n1 = c.add_net("n1");
        c.gates.push(Gate {
            cell: CellKind::Nand(2),
            inputs: vec![a, n1],
            output: n0,
            config: 0,
        });
        c.gates.push(Gate {
            cell: CellKind::Nand(2),
            inputs: vec![a, n0],
            output: n1,
            config: 0,
        });
        assert_eq!(c.validate(&lib), Err(CircuitError::Cycle));
    }

    #[test]
    fn fanout_and_drivers() {
        let lib = Library::standard();
        let c = toy(&lib);
        let b = c.primary_inputs()[1];
        let fan = c.fanouts();
        assert_eq!(fan[&b].len(), 2);
        let drv = c.drivers();
        assert_eq!(drv.len(), 2);
    }

    #[test]
    fn depth_and_histogram() {
        let lib = Library::standard();
        let c = toy(&lib);
        assert_eq!(c.logic_depth(), 2);
        assert_eq!(c.cell_histogram()["nand2"], 2);
    }
}
