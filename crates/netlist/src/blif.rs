//! Parser for the Berkeley Logic Interchange Format (BLIF) — the format
//! the MCNC benchmarks of the paper's Table 3 actually circulate in.
//!
//! Supported subset: combinational models with `.model`, `.inputs`,
//! `.outputs`, `.names` (single-output PLA-style cover tables) and `.end`.
//! Sequential (`.latch`), hierarchy (`.subckt`) and don't-care constructs
//! are rejected with a clear error, matching the paper's combinational
//! scope.
//!
//! A `.names` table with output cover `1` is an OR of product terms over
//! `-`/`0`/`1` literals; an output cover `0` describes the complement.
//! Each table is lowered to AND/OR/NOT gates of a [`GenericCircuit`],
//! which then flows through the standard technology mapper.

use crate::generic::{GenericCircuit, GenericOp};

/// BLIF parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for BlifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blif line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BlifError {}

/// One parsed `.names` table.
struct NamesTable {
    inputs: Vec<String>,
    output: String,
    /// Rows as (input pattern, output bit).
    rows: Vec<(Vec<Option<bool>>, bool)>,
    line: usize,
}

/// Parses a combinational BLIF model into a [`GenericCircuit`].
///
/// # Errors
///
/// Returns [`BlifError`] on sequential/hierarchical constructs, malformed
/// tables, inconsistent output phases within one table, a signal read
/// but never defined (reported where it is read), or a combinational
/// cycle (reported at the table of a signal on it).
pub fn parse(text: &str) -> Result<GenericCircuit, BlifError> {
    let mut name = "blif".to_string();
    let mut inputs: Vec<String> = Vec::new();
    // Each declared output with the line declaring it.
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut tables: Vec<NamesTable> = Vec::new();
    let mut current: Option<NamesTable> = None;

    // Join continuation lines (trailing `\`).
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        let (cont, body) = match line.strip_suffix('\\') {
            Some(b) => (true, b.trim_end().to_string()),
            None => (false, line.to_string()),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(&body);
                if cont {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, acc));
                }
            }
            None => {
                if cont {
                    pending = Some((lineno, body));
                } else {
                    logical.push((lineno, body));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, acc));
    }

    for (lineno, line) in logical {
        let line = match line.find('#') {
            Some(i) => line[..i].trim().to_string(),
            None => line,
        };
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().expect("non-empty line");
        match head {
            ".model" => {
                if let Some(n) = toks.next() {
                    name = n.to_string();
                }
            }
            ".inputs" => inputs.extend(toks.map(str::to_string)),
            ".outputs" => outputs.extend(toks.map(|t| (t.to_string(), lineno))),
            ".names" => {
                if let Some(t) = current.take() {
                    tables.push(t);
                }
                let signals: Vec<String> = toks.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(BlifError {
                        line: lineno,
                        message: ".names needs at least an output".into(),
                    });
                }
                let output = signals.last().expect("non-empty").clone();
                let ins = signals[..signals.len() - 1].to_vec();
                current = Some(NamesTable {
                    inputs: ins,
                    output,
                    rows: Vec::new(),
                    line: lineno,
                });
            }
            ".end" => {
                if let Some(t) = current.take() {
                    tables.push(t);
                }
            }
            ".latch" | ".subckt" | ".gate" | ".mlatch" => {
                return Err(BlifError {
                    line: lineno,
                    message: format!("unsupported construct `{head}` (combinational BLIF only)"),
                });
            }
            ".exdc" | ".wire_load_slope" | ".default_input_arrival" => {
                return Err(BlifError {
                    line: lineno,
                    message: format!("unsupported construct `{head}`"),
                });
            }
            _ if head.starts_with('.') => {
                return Err(BlifError {
                    line: lineno,
                    message: format!("unknown directive `{head}`"),
                });
            }
            _ => {
                // A cover row of the current .names table.
                let Some(table) = current.as_mut() else {
                    return Err(BlifError {
                        line: lineno,
                        message: "cover row outside a .names table".into(),
                    });
                };
                let (pattern, out_bit) = if table.inputs.is_empty() {
                    (String::new(), head)
                } else {
                    let out = toks.next().ok_or_else(|| BlifError {
                        line: lineno,
                        message: "cover row missing output bit".into(),
                    })?;
                    (head.to_string(), out)
                };
                if pattern.len() != table.inputs.len() {
                    return Err(BlifError {
                        line: lineno,
                        message: format!(
                            "cover row has {} literals for {} inputs",
                            pattern.len(),
                            table.inputs.len()
                        ),
                    });
                }
                let lits: Result<Vec<Option<bool>>, BlifError> = pattern
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(Some(false)),
                        '1' => Ok(Some(true)),
                        '-' => Ok(None),
                        other => Err(BlifError {
                            line: lineno,
                            message: format!("bad cover literal `{other}`"),
                        }),
                    })
                    .collect();
                let out_val = match out_bit {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(BlifError {
                            line: lineno,
                            message: format!("bad output bit `{other}`"),
                        })
                    }
                };
                table.rows.push((lits?, out_val));
            }
        }
    }
    if let Some(t) = current.take() {
        tables.push(t);
    }

    // Lower to a generic circuit.
    let mut circuit = GenericCircuit::new(name);
    for i in &inputs {
        circuit.add_input(i);
    }
    // The gate that drives each table's output, with the table's line,
    // and the table line of every gate.
    let mut table_gates: Vec<(usize, usize)> = Vec::with_capacity(tables.len());
    let mut gate_lines: Vec<usize> = Vec::new();
    for t in &tables {
        lower_table(&mut circuit, t)?;
        table_gates.push((circuit.gates().len() - 1, t.line));
        gate_lines.resize(circuit.gates().len(), t.line);
    }
    for (o, _) in &outputs {
        circuit.add_output(o);
    }
    if let Some((signal, reader)) = circuit.undefined_read() {
        let name = circuit.signal_name(signal);
        let line = match reader {
            Some(g) => gate_lines[g],
            None => outputs
                .iter()
                .find(|(o, _)| o == name)
                .map_or(0, |&(_, line)| line),
        };
        return Err(BlifError {
            line,
            message: format!(
                "signal `{name}` is read but never defined (no .inputs entry or table drives it)"
            ),
        });
    }
    if let Err(cycle) = circuit.topological_order() {
        // Every cycle passes through some table's output gate: the other
        // gates of a table feed only that table, and an inverted literal
        // reads a table output or a primary input.
        let mut on_cycle = vec![false; circuit.gates().len()];
        for &g in &cycle {
            on_cycle[g] = true;
        }
        let (gate, line) = table_gates
            .iter()
            .copied()
            .find(|&(g, _)| on_cycle[g])
            .unwrap_or((cycle[0], 0));
        return Err(BlifError {
            line,
            message: format!(
                "combinational cycle through signal `{}`",
                circuit.signal_name(circuit.gates()[gate].output)
            ),
        });
    }
    Ok(circuit)
}

/// Lowers one `.names` table: OR of ANDs of (possibly negated) inputs,
/// complemented if the output phase is 0.
fn lower_table(circuit: &mut GenericCircuit, table: &NamesTable) -> Result<(), BlifError> {
    // All rows must share one output phase (standard BLIF ON-set/OFF-set).
    let phases: Vec<bool> = table.rows.iter().map(|(_, v)| *v).collect();
    if phases.iter().any(|&p| p != phases[0]) && !phases.is_empty() {
        return Err(BlifError {
            line: table.line,
            message: "mixed output phases in one .names table".into(),
        });
    }
    let phase = phases.first().copied().unwrap_or(true);

    // Constant table (no rows, or no inputs).
    if table.rows.is_empty() {
        // No rows: output is constant 0 (standard interpretation). Model a
        // constant by AND(x, NOT x) over a fresh helper only if some input
        // exists; otherwise reject (constant sources are rare in MCNC).
        return Err(BlifError {
            line: table.line,
            message: "empty .names cover (constant) not supported".into(),
        });
    }
    if table.inputs.is_empty() {
        return Err(BlifError {
            line: table.line,
            message: "constant .names table not supported".into(),
        });
    }

    let mut term_names: Vec<String> = Vec::new();
    for (ri, (lits, _)) in table.rows.iter().enumerate() {
        let mut factors: Vec<String> = Vec::new();
        for (ii, lit) in lits.iter().enumerate() {
            match lit {
                None => {}
                Some(true) => factors.push(table.inputs[ii].clone()),
                Some(false) => {
                    let n = format!("_not_{}", table.inputs[ii]);
                    if !circuit.is_driven(&n) {
                        circuit.add_gate(&n, GenericOp::Not, &[&table.inputs[ii]]);
                    }
                    factors.push(n);
                }
            }
        }
        let term = if factors.is_empty() {
            // Full don't-care row: the function is constant `phase`…
            return Err(BlifError {
                line: table.line,
                message: "tautological cover row not supported".into(),
            });
        } else if factors.len() == 1 {
            factors[0].clone()
        } else {
            let t = format!("_t_{}_{}", table.output, ri);
            let refs: Vec<&str> = factors.iter().map(String::as_str).collect();
            circuit.add_gate(&t, GenericOp::And, &refs);
            t
        };
        term_names.push(term);
    }
    let sum = if term_names.len() == 1 {
        term_names[0].clone()
    } else {
        let s = format!("_s_{}", table.output);
        let refs: Vec<&str> = term_names.iter().map(String::as_str).collect();
        circuit.add_gate(&s, GenericOp::Or, &refs);
        s
    };
    if phase {
        circuit.add_gate(&table.output, GenericOp::Buff, &[&sum]);
    } else {
        circuit.add_gate(&table.output, GenericOp::Not, &[&sum]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map;
    use tr_gatelib::Library;

    const FULL_ADDER: &str = "\
# one-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

    #[test]
    fn parses_full_adder() {
        let c = parse(FULL_ADDER).unwrap();
        assert_eq!(c.name(), "fa");
        assert_eq!(c.inputs().len(), 3);
        assert_eq!(c.outputs().len(), 2);
        for m in 0..8usize {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let out = c.evaluate_outputs(&v);
            let total = v.iter().filter(|&&x| x).count();
            assert_eq!(out[0], total % 2 == 1, "sum at {m:03b}");
            assert_eq!(out[1], total >= 2, "cout at {m:03b}");
        }
    }

    #[test]
    fn offset_phase_tables() {
        // Output phase 0: f = NOT(a·b)  — a NAND via the OFF-set.
        let text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let c = parse(text).unwrap();
        for m in 0..4usize {
            let v = [m & 1 == 1, m >> 1 == 1];
            assert_eq!(c.evaluate_outputs(&v)[0], !(v[0] && v[1]), "{m:02b}");
        }
    }

    #[test]
    fn continuation_lines() {
        let text = ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let c = parse(text).unwrap();
        assert_eq!(c.inputs().len(), 2);
    }

    #[test]
    fn comments_stripped() {
        let text = ".model t # named t\n.inputs a\n.outputs y\n.names a y # copy\n1 1\n.end\n";
        let c = parse(text).unwrap();
        assert_eq!(c.evaluate_outputs(&[true]), vec![true]);
        assert_eq!(c.evaluate_outputs(&[false]), vec![false]);
    }

    #[test]
    fn rejects_sequential() {
        let text = ".model t\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains(".latch"));
    }

    #[test]
    fn rejects_mixed_phase() {
        let text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("mixed"));
    }

    #[test]
    fn rejects_bad_literal() {
        let text = ".model t\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn maps_through_the_standard_flow() {
        let lib = Library::standard();
        let generic = parse(FULL_ADDER).unwrap();
        let mapped = map::map_default(&generic, &lib);
        assert!(mapped.validate(&lib).is_ok());
        for m in 0..8usize {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let nets = mapped.evaluate(&lib, &v);
            let got: Vec<bool> = mapped.primary_outputs().iter().map(|o| nets[o.0]).collect();
            assert_eq!(got, generic.evaluate_outputs(&v), "{m:03b}");
        }
    }

    #[test]
    fn rejects_an_undeclared_signal_naming_it() {
        let text = ".model u\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("signal `b`"), "{err}");
        assert_eq!(err.line, 4);
        let text = ".model u\n.inputs a\n.outputs y z\n.names a y\n0 1\n.end\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("signal `z`"), "{err}");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_a_combinational_cycle_naming_a_signal_on_it() {
        // x = a·y, y = x̄: the cycle runs through both tables (and the
        // shared inverter of x).
        let text = ".model cyc\n.inputs a\n.outputs x\n\
                    .names a y x\n11 1\n.names x y\n0 1\n.end\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("combinational cycle"), "{err}");
        assert!(
            (err.message.contains("`x`") && err.line == 4)
                || (err.message.contains("`y`") && err.line == 6),
            "{err}"
        );
    }

    #[test]
    fn shared_not_gates_are_reused() {
        // Both rows negate `a`; the NOT(a) gate must not be duplicated.
        let text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n01 1\n00 1\n.end\n";
        let c = parse(text).unwrap();
        let not_a_count = c
            .gates()
            .iter()
            .filter(|g| matches!(g.op, GenericOp::Not) && c.signal_name(g.output) == "_not_a")
            .count();
        assert_eq!(not_a_count, 1, "NOT(a) should be shared");
        // Function check: y = ā·b + ā·b̄ = ā.
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(c.evaluate_outputs(&[a, b]), vec![!a]);
        }
    }
}
