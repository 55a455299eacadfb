//! Parser and writer for the ISCAS-style `.bench` netlist format.
//!
//! The format the classic combinational benchmarks circulate in:
//!
//! ```text
//! # c17
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Only combinational operators are supported (`DFF` is rejected: the
//! paper optimizes combinational logic; latch the inputs per Scenario B
//! instead).

use crate::generic::{GenericCircuit, GenericOp};
use std::fmt::Write as _;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a `.bench` document into a [`GenericCircuit`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, unknown operators
/// (including sequential elements), empty operand lists, a signal read
/// but never defined (reported where it is read), or a combinational
/// cycle (reported at the definition of a signal on it).
pub fn parse(name: &str, text: &str) -> Result<GenericCircuit, ParseError> {
    let mut circuit = GenericCircuit::new(name);
    // Line of every gate definition and output declaration, for the
    // undefined-signal and cycle reports.
    let mut gate_lines = Vec::new();
    let mut output_lines = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = strip_call(line, "INPUT") {
            circuit.add_input(rest.trim());
            continue;
        }
        if let Some(rest) = strip_call(line, "OUTPUT") {
            output_lines.push((circuit.add_output(rest.trim()), lineno));
            continue;
        }
        // `out = OP(in1, in2, …)`
        let (lhs, rhs) = line.split_once('=').ok_or_else(|| ParseError {
            line: lineno,
            message: format!("expected `signal = OP(...)`, got `{line}`"),
        })?;
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(|| ParseError {
            line: lineno,
            message: "missing `(` in gate definition".to_string(),
        })?;
        if !rhs.ends_with(')') {
            return Err(ParseError {
                line: lineno,
                message: "missing `)` in gate definition".to_string(),
            });
        }
        let opname = rhs[..open].trim();
        let op = GenericOp::parse(opname).ok_or_else(|| ParseError {
            line: lineno,
            message: format!("unsupported operator `{opname}` (combinational only)"),
        })?;
        let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if args.is_empty() {
            return Err(ParseError {
                line: lineno,
                message: "gate with no operands".to_string(),
            });
        }
        if matches!(op, GenericOp::Not | GenericOp::Buff) && args.len() != 1 {
            return Err(ParseError {
                line: lineno,
                message: format!("{op} takes exactly one operand"),
            });
        }
        circuit.add_gate(lhs, op, &args);
        gate_lines.push(lineno);
    }
    if let Some((signal, reader)) = circuit.undefined_read() {
        let line = match reader {
            Some(g) => gate_lines[g],
            None => output_lines
                .iter()
                .find(|&&(s, _)| s == signal)
                .map_or(0, |&(_, line)| line),
        };
        return Err(ParseError {
            line,
            message: format!(
                "signal `{}` is read but never defined (no INPUT or gate drives it)",
                circuit.signal_name(signal)
            ),
        });
    }
    if let Err(cycle) = circuit.topological_order() {
        let g = cycle[0];
        return Err(ParseError {
            line: gate_lines[g],
            message: format!(
                "combinational cycle through signal `{}`",
                circuit.signal_name(circuit.gates()[g].output)
            ),
        });
    }
    Ok(circuit)
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if upper.starts_with(keyword) {
        let rest = line[keyword.len()..].trim();
        if let Some(inner) = rest.strip_prefix('(') {
            return inner.strip_suffix(')');
        }
    }
    None
}

/// Serializes a [`GenericCircuit`] back to `.bench` text.
pub fn write(circuit: &GenericCircuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.signal_name(i));
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.signal_name(o));
    }
    for g in circuit.gates() {
        let args: Vec<&str> = g.inputs.iter().map(|&i| circuit.signal_name(i)).collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            circuit.signal_name(g.output),
            g.op,
            args.join(", ")
        );
    }
    out
}

/// The ISCAS-85 c17 benchmark — the classic six-NAND teaching circuit,
/// embedded for tests and examples.
pub fn c17() -> GenericCircuit {
    parse(
        "c17",
        "# c17 ISCAS-85\n\
         INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
         OUTPUT(22)\nOUTPUT(23)\n\
         10 = NAND(1, 3)\n\
         11 = NAND(3, 6)\n\
         16 = NAND(2, 11)\n\
         19 = NAND(11, 7)\n\
         22 = NAND(10, 16)\n\
         23 = NAND(16, 19)\n",
    )
    .expect("embedded c17 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_c17() {
        let c = c17();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.gates().len(), 6);
    }

    #[test]
    fn c17_functional_spot_checks() {
        let c = c17();
        // All zeros: every NAND of zeros is 1 → 22 = NAND(1,1) = 0…
        // compute: 10 = 1, 11 = 1, 16 = NAND(0,1) = 1, 19 = NAND(1,0)=1,
        // 22 = NAND(1,1)=0, 23 = NAND(1,1)=0.
        let out = c.evaluate_outputs(&[false; 5]);
        assert_eq!(out, vec![false, false]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let c = c17();
        let text = write(&c);
        let c2 = parse("c17", &text).unwrap();
        assert_eq!(c.inputs().len(), c2.inputs().len());
        assert_eq!(c.gates().len(), c2.gates().len());
        for m in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(c.evaluate_outputs(&v), c2.evaluate_outputs(&v));
        }
    }

    #[test]
    fn rejects_sequential() {
        let err = parse("seq", "INPUT(a)\nq = DFF(a)\n").unwrap_err();
        assert!(err.message.contains("unsupported operator"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("bad", "x NAND(a, b)\n").is_err());
        assert!(parse("bad", "x = NAND a, b\n").is_err());
        assert!(parse("bad", "x = NAND()\n").is_err());
        assert!(parse("bad", "x = NOT(a, b)\n").is_err());
    }

    #[test]
    fn rejects_an_undeclared_signal_naming_it() {
        let err = parse("u", "OUTPUT(y)\ny = NAND(a, b)\n").unwrap_err();
        assert!(err.message.contains("signal `a`"), "{err}");
        assert_eq!(err.line, 2);
        // An output nothing drives is reported at its declaration.
        let err = parse("u", "INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n").unwrap_err();
        assert!(err.message.contains("signal `z`"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_a_combinational_cycle_naming_a_signal_on_it() {
        let text = "INPUT(a)\nOUTPUT(x)\nw = NOT(a)\nx = AND(a, y)\ny = NOT(x)\n";
        let err = parse("cyc", text).unwrap_err();
        assert!(err.message.contains("combinational cycle"), "{err}");
        let named = ["x", "y"]
            .into_iter()
            .find(|s| err.message.contains(&format!("`{s}`")))
            .expect("names a signal on the cycle");
        let defined_on = if named == "x" { 4 } else { 5 };
        assert_eq!(err.line, defined_on, "{err}");
        // A self-loop is a cycle too.
        let err = parse("self", "INPUT(a)\nOUTPUT(z)\nz = OR(a, z)\n").unwrap_err();
        assert_eq!((err.line, err.message.contains("`z`")), (3, true), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let c = parse("t", "# hello\n\nINPUT(a)\n# more\nOUTPUT(a)\n").unwrap();
        assert_eq!(c.inputs().len(), 1);
    }
}
