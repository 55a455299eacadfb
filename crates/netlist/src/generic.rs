//! Technology-independent netlists — the mapper's input.

use std::collections::HashMap;
use std::fmt;

/// Operators of the generic netlist (arbitrary fanin unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenericOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Inversion (fanin 1).
    Not,
    /// Identity (fanin 1).
    Buff,
    /// Odd parity.
    Xor,
    /// Even parity.
    Xnor,
}

impl GenericOp {
    /// Evaluates the operator.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty, or has more than one element for
    /// `Not`/`Buff`.
    pub fn eval(&self, args: &[bool]) -> bool {
        assert!(!args.is_empty(), "generic op needs at least one operand");
        match self {
            GenericOp::And => args.iter().all(|&v| v),
            GenericOp::Or => args.iter().any(|&v| v),
            GenericOp::Nand => !args.iter().all(|&v| v),
            GenericOp::Nor => !args.iter().any(|&v| v),
            GenericOp::Not => {
                assert_eq!(args.len(), 1, "NOT takes one operand");
                !args[0]
            }
            GenericOp::Buff => {
                assert_eq!(args.len(), 1, "BUFF takes one operand");
                args[0]
            }
            GenericOp::Xor => args.iter().filter(|&&v| v).count() % 2 == 1,
            GenericOp::Xnor => args.iter().filter(|&&v| v).count() % 2 == 0,
        }
    }

    /// Parses a `.bench` operator name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "AND" => Some(GenericOp::And),
            "OR" => Some(GenericOp::Or),
            "NAND" => Some(GenericOp::Nand),
            "NOR" => Some(GenericOp::Nor),
            "NOT" | "INV" => Some(GenericOp::Not),
            "BUF" | "BUFF" => Some(GenericOp::Buff),
            "XOR" => Some(GenericOp::Xor),
            "XNOR" => Some(GenericOp::Xnor),
            _ => None,
        }
    }
}

impl fmt::Display for GenericOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GenericOp::And => "AND",
            GenericOp::Or => "OR",
            GenericOp::Nand => "NAND",
            GenericOp::Nor => "NOR",
            GenericOp::Not => "NOT",
            GenericOp::Buff => "BUFF",
            GenericOp::Xor => "XOR",
            GenericOp::Xnor => "XNOR",
        };
        write!(f, "{s}")
    }
}

/// One generic gate: `output = op(inputs…)`, nets addressed by name index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericGate {
    /// Operator.
    pub op: GenericOp,
    /// Input net indices.
    pub inputs: Vec<usize>,
    /// Output net index.
    pub output: usize,
}

/// A technology-independent combinational netlist.
///
/// Signals are indexed densely; names are kept for round-tripping
/// `.bench` files and for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericCircuit {
    name: String,
    signal_names: Vec<String>,
    name_index: HashMap<String, usize>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    /// Per-signal membership in `inputs` and `outputs`, and whether a
    /// gate drives the signal, one entry per signal, so declaration and
    /// lookup run in O(1).
    is_input: Vec<bool>,
    is_output: Vec<bool>,
    is_driven: Vec<bool>,
    gates: Vec<GenericGate>,
}

impl GenericCircuit {
    /// Creates an empty generic circuit.
    pub fn new(name: impl Into<String>) -> Self {
        GenericCircuit {
            name: name.into(),
            signal_names: Vec::new(),
            name_index: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            is_input: Vec::new(),
            is_output: Vec::new(),
            is_driven: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interns a signal name, returning its index.
    pub fn signal(&mut self, name: &str) -> usize {
        if let Some(&i) = self.name_index.get(name) {
            return i;
        }
        self.signal_names.push(name.to_string());
        self.is_input.push(false);
        self.is_output.push(false);
        self.is_driven.push(false);
        let i = self.signal_names.len() - 1;
        self.name_index.insert(name.to_string(), i);
        i
    }

    /// Declares a signal as primary input (interning it).
    pub fn add_input(&mut self, name: &str) -> usize {
        let i = self.signal(name);
        if !self.is_input[i] {
            self.is_input[i] = true;
            self.inputs.push(i);
        }
        i
    }

    /// Declares a signal as primary output (interning it).
    pub fn add_output(&mut self, name: &str) -> usize {
        let i = self.signal(name);
        if !self.is_output[i] {
            self.is_output[i] = true;
            self.outputs.push(i);
        }
        i
    }

    /// Adds a gate `output = op(inputs…)` by signal names.
    pub fn add_gate(&mut self, output: &str, op: GenericOp, inputs: &[&str]) -> usize {
        let out = self.signal(output);
        let ins: Vec<usize> = inputs.iter().map(|n| self.signal(n)).collect();
        self.add_gate_ids(out, op, ins);
        out
    }

    /// Adds a gate by signal indices.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not an interned signal.
    pub fn add_gate_ids(&mut self, output: usize, op: GenericOp, inputs: Vec<usize>) {
        self.is_driven[output] = true;
        self.gates.push(GenericGate { op, inputs, output });
    }

    /// Whether some gate drives the signal named `name`.
    pub fn is_driven(&self, name: &str) -> bool {
        self.name_index
            .get(name)
            .is_some_and(|&i| self.is_driven[i])
    }

    /// The first signal that is read but never defined — neither a
    /// primary input nor driven by a gate — with the index of the gate
    /// reading it (`None` when only a primary output reads it). Gates
    /// are scanned in order, then the outputs. The parsers reject such a
    /// netlist; the mapper assumes none.
    pub fn undefined_read(&self) -> Option<(usize, Option<usize>)> {
        let defined = |s: usize| self.is_input[s] || self.is_driven[s];
        for (g, gate) in self.gates.iter().enumerate() {
            if let Some(&s) = gate.inputs.iter().find(|&&s| !defined(s)) {
                return Some((s, Some(g)));
            }
        }
        self.outputs
            .iter()
            .find(|&&s| !defined(s))
            .map(|&s| (s, None))
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signal_names.len()
    }

    /// Name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn signal_name(&self, id: usize) -> &str {
        &self.signal_names[id]
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// All gates.
    pub fn gates(&self) -> &[GenericGate] {
        &self.gates
    }

    /// Gates in dependency order.
    ///
    /// # Errors
    ///
    /// On a combinational cycle, returns the indices of the gates on one,
    /// each driving an input of the one before it.
    pub fn topological_order(&self) -> Result<Vec<usize>, Vec<usize>> {
        // Driver of every signal; on a doubly driven signal the last gate
        // wins.
        let mut driver: Vec<Option<usize>> = vec![None; self.signal_count()];
        for (i, g) in self.gates.iter().enumerate() {
            driver[g.output] = Some(i);
        }
        let mut state = vec![0u8; self.gates.len()]; // 0 new, 1 open, 2 done
        let mut order = Vec::with_capacity(self.gates.len());
        for root in 0..self.gates.len() {
            if state[root] != 0 {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            state[root] = 1;
            while let Some(&mut (g, ref mut next)) = stack.last_mut() {
                if *next < self.gates[g].inputs.len() {
                    let sig = self.gates[g].inputs[*next];
                    *next += 1;
                    if let Some(dep) = driver[sig] {
                        match state[dep] {
                            0 => {
                                state[dep] = 1;
                                stack.push((dep, 0));
                            }
                            // `dep` is open on the stack: it reaches itself.
                            1 => {
                                let at = stack.iter().position(|&(o, _)| o == dep);
                                let at = at.expect("open gates are on the stack");
                                return Err(stack[at..].iter().map(|&(o, _)| o).collect());
                            }
                            _ => {}
                        }
                    }
                } else {
                    state[g] = 2;
                    order.push(g);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Evaluates every signal given a primary-input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count or the
    /// netlist is cyclic.
    pub fn evaluate(&self, values: &[bool]) -> Vec<bool> {
        assert_eq!(values.len(), self.inputs.len(), "one value per input");
        let mut sig = vec![false; self.signal_count()];
        for (i, &input) in self.inputs.iter().enumerate() {
            sig[input] = values[i];
        }
        for g in self
            .topological_order()
            .unwrap_or_else(|_| panic!("combinational cycle in generic circuit"))
        {
            let gate = &self.gates[g];
            let args: Vec<bool> = gate.inputs.iter().map(|&i| sig[i]).collect();
            sig[gate.output] = gate.op.eval(&args);
        }
        sig
    }

    /// Evaluates and projects the primary outputs.
    ///
    /// # Panics
    ///
    /// Same as [`GenericCircuit::evaluate`].
    pub fn evaluate_outputs(&self, values: &[bool]) -> Vec<bool> {
        let sig = self.evaluate(values);
        self.outputs.iter().map(|&o| sig[o]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_evaluate() {
        assert!(GenericOp::And.eval(&[true, true, true]));
        assert!(!GenericOp::And.eval(&[true, false]));
        assert!(GenericOp::Nand.eval(&[true, false]));
        assert!(GenericOp::Or.eval(&[false, true]));
        assert!(GenericOp::Nor.eval(&[false, false]));
        assert!(GenericOp::Xor.eval(&[true, true, true]));
        assert!(!GenericOp::Xor.eval(&[true, true]));
        assert!(GenericOp::Xnor.eval(&[true, true]));
        assert!(GenericOp::Not.eval(&[false]));
        assert!(GenericOp::Buff.eval(&[true]));
    }

    #[test]
    fn parse_bench_names() {
        assert_eq!(GenericOp::parse("nand"), Some(GenericOp::Nand));
        assert_eq!(GenericOp::parse("XNOR"), Some(GenericOp::Xnor));
        assert_eq!(GenericOp::parse("DFF"), None);
    }

    #[test]
    fn build_and_evaluate_full_adder() {
        let mut c = GenericCircuit::new("fa");
        c.add_input("a");
        c.add_input("b");
        c.add_input("cin");
        c.add_gate("axb", GenericOp::Xor, &["a", "b"]);
        c.add_gate("sum", GenericOp::Xor, &["axb", "cin"]);
        c.add_gate("g1", GenericOp::And, &["a", "b"]);
        c.add_gate("g2", GenericOp::And, &["axb", "cin"]);
        c.add_gate("cout", GenericOp::Or, &["g1", "g2"]);
        c.add_output("sum");
        c.add_output("cout");
        for m in 0..8u32 {
            let a = m & 1 == 1;
            let b = (m >> 1) & 1 == 1;
            let cin = (m >> 2) & 1 == 1;
            let out = c.evaluate_outputs(&[a, b, cin]);
            let total = u32::from(a) + u32::from(b) + u32::from(cin);
            assert_eq!(out[0], total & 1 == 1, "sum for {m}");
            assert_eq!(out[1], total >= 2, "cout for {m}");
        }
    }

    #[test]
    fn signal_interning_is_stable() {
        let mut c = GenericCircuit::new("t");
        let a1 = c.signal("a");
        let a2 = c.signal("a");
        assert_eq!(a1, a2);
        assert_eq!(c.signal_count(), 1);
    }

    #[test]
    fn topological_order_reports_the_gates_of_a_cycle() {
        let mut c = GenericCircuit::new("cyc");
        c.add_input("a");
        c.add_gate("w", GenericOp::Not, &["a"]);
        c.add_gate("x", GenericOp::And, &["a", "y"]);
        c.add_gate("y", GenericOp::Not, &["x"]);
        c.add_gate("z", GenericOp::Or, &["w", "x"]);
        let mut cycle = c.topological_order().unwrap_err();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2]);
        c.add_gate("s", GenericOp::Buff, &["s"]);
        assert!(c.topological_order().is_err());
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn cycle_panics() {
        let mut c = GenericCircuit::new("cyc");
        c.add_input("a");
        c.add_gate("x", GenericOp::And, &["a", "y"]);
        c.add_gate("y", GenericOp::And, &["a", "x"]);
        c.evaluate(&[true]);
    }
}
