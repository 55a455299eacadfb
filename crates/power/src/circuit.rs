//! Circuit-level probability/density propagation and power estimation.
//!
//! This is the `OBTAIN_PROBABILITIES` + per-gate information flow of the
//! paper's Fig. 3: net statistics are propagated through gate *functions*
//! (so they are independent of the chosen transistor ordering — the
//! monotonicity lemma of §4.2), then each gate's power is evaluated with
//! the extended model under its currently selected configuration.

use crate::model::{GatePower, PowerModel, Scratch, MAX_CELL_ARITY};
use tr_boolean::{prob, BoolFn, SignalStats, MAX_VARS};
use tr_gatelib::Library;
use tr_netlist::{Circuit, CompiledCircuit};

/// Per-gate and total power of a circuit (W).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPower {
    /// Power per gate, indexed like `circuit.gates()`.
    pub per_gate: Vec<GatePower>,
    /// Total power (W).
    pub total: f64,
}

impl CircuitPower {
    /// Total power dissipated at gate output nodes.
    pub fn output_total(&self) -> f64 {
        self.per_gate.iter().map(GatePower::output).sum()
    }

    /// Total power dissipated at internal gate nodes — the part classic
    /// output-only models cannot see.
    pub fn internal_total(&self) -> f64 {
        self.per_gate.iter().map(GatePower::internal).sum()
    }
}

/// Propagates `(P, D)` statistics from the primary inputs to every net
/// using per-gate exact probability and Najm density propagation
/// (independence assumed across gate inputs).
///
/// Returns one [`SignalStats`] per net.
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count, the
/// circuit is cyclic, or a cell is missing from the library.
pub fn propagate(
    circuit: &Circuit,
    library: &Library,
    pi_stats: &[SignalStats],
) -> Vec<SignalStats> {
    assert_eq!(
        pi_stats.len(),
        circuit.primary_inputs().len(),
        "one SignalStats per primary input"
    );
    let mut stats: Vec<SignalStats> = vec![SignalStats::constant(false); circuit.net_count()];
    for (i, &net) in circuit.primary_inputs().iter().enumerate() {
        stats[net.0] = pi_stats[i];
    }
    let order = circuit.topological_order().expect("cyclic circuit");
    for gid in order {
        let gate = circuit.gate(gid);
        let cell = library.cell(&gate.cell).expect("unknown cell");
        let inputs: Vec<SignalStats> = gate.inputs.iter().map(|n| stats[n.0]).collect();
        stats[gate.output.0] = prob::propagate(cell.function(), &inputs);
    }
    stats
}

/// Exact whole-circuit propagation: expresses every net as a global
/// Boolean function of the primary inputs, eliminating the reconvergent-
/// fanout error of [`propagate`]. Only feasible for circuits with at most
/// [`MAX_VARS`] primary inputs; returns `None` above that.
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count or the
/// circuit is cyclic.
pub fn propagate_exact(
    circuit: &Circuit,
    library: &Library,
    pi_stats: &[SignalStats],
) -> Option<Vec<SignalStats>> {
    let n = circuit.primary_inputs().len();
    if n > MAX_VARS {
        return None;
    }
    assert_eq!(pi_stats.len(), n, "one SignalStats per primary input");
    let mut funcs: Vec<BoolFn> = vec![BoolFn::zero(n); circuit.net_count()];
    for (i, &net) in circuit.primary_inputs().iter().enumerate() {
        funcs[net.0] = BoolFn::var(n, i);
    }
    let order = circuit.topological_order().expect("cyclic circuit");
    for gid in order {
        let gate = circuit.gate(gid);
        let cell = library.cell(&gate.cell).expect("unknown cell");
        let subs: Vec<BoolFn> = gate.inputs.iter().map(|i| funcs[i.0].clone()).collect();
        funcs[gate.output.0] = cell.function().compose(&subs);
    }
    Some(funcs.iter().map(|f| prob::propagate(f, pi_stats)).collect())
}

/// External load on every net: the sum of the input capacitances of the
/// gates it drives. (Wire capacitance is part of the gate's own output
/// node model.)
pub fn external_loads(circuit: &Circuit, model: &PowerModel) -> Vec<f64> {
    let mut loads = vec![0.0f64; circuit.net_count()];
    for gate in circuit.gates() {
        for (pin, net) in gate.inputs.iter().enumerate() {
            loads[net.0] += model.input_capacitance(&gate.cell, pin);
        }
    }
    loads
}

/// [`external_loads`] over a compiled view: interned-id capacitance
/// lookups, no per-pin hashing.
pub fn external_loads_compiled(compiled: &CompiledCircuit, model: &PowerModel) -> Vec<f64> {
    let mut loads = vec![0.0f64; compiled.net_count()];
    for gate in compiled.gates() {
        for (pin, net) in compiled.inputs(gate).iter().enumerate() {
            loads[net.0] += model.input_capacitance_by_id(gate.cell, pin);
        }
    }
    loads
}

/// Total circuit power over a compiled view, with per-gate configurations
/// supplied by `config_of` (gate index → configuration).
///
/// This is the optimizer's bookkeeping fast path: it never materializes a
/// [`GatePower`], reuses one [`Scratch`] across all gates, and sums in
/// gate order — bitwise identical to [`circuit_power`]'s total for the
/// same configurations.
///
/// # Panics
///
/// Panics if `net_stats`/`loads` are not net-indexed for this circuit or
/// a configuration is out of range.
pub fn circuit_total_compiled(
    compiled: &CompiledCircuit,
    model: &PowerModel,
    net_stats: &[SignalStats],
    loads: &[f64],
    scratch: &mut Scratch,
    mut config_of: impl FnMut(usize) -> usize,
) -> f64 {
    assert_eq!(
        net_stats.len(),
        compiled.net_count(),
        "one SignalStats per net"
    );
    assert_eq!(loads.len(), compiled.net_count(), "one load per net");
    let mut buf = [SignalStats::constant(false); MAX_CELL_ARITY];
    let mut total = 0.0;
    for (i, gate) in compiled.gates().iter().enumerate() {
        let nets = compiled.inputs(gate);
        for (slot, net) in buf.iter_mut().zip(nets) {
            *slot = net_stats[net.0];
        }
        total += model.total_power_into(
            gate.cell,
            config_of(i),
            &buf[..nets.len()],
            loads[gate.output.0],
            scratch,
        );
    }
    total
}

/// Evaluates the power of every gate under its currently selected
/// configuration, given per-net statistics (from [`propagate`] or
/// [`propagate_exact`]).
///
/// # Panics
///
/// Panics if `net_stats.len()` differs from the net count or a cell is
/// missing from the model.
pub fn circuit_power(
    circuit: &Circuit,
    model: &PowerModel,
    net_stats: &[SignalStats],
) -> CircuitPower {
    assert_eq!(
        net_stats.len(),
        circuit.net_count(),
        "one SignalStats per net"
    );
    let loads = external_loads(circuit, model);
    let mut scratch = Scratch::new();
    let mut buf = [SignalStats::constant(false); MAX_CELL_ARITY];
    let mut per_gate = Vec::with_capacity(circuit.gates().len());
    let mut total = 0.0;
    for gate in circuit.gates() {
        let id = model
            .cell_id(&gate.cell)
            .unwrap_or_else(|| panic!("cell {} not in model", gate.cell));
        for (slot, net) in buf.iter_mut().zip(&gate.inputs) {
            *slot = net_stats[net.0];
        }
        let gp = model.gate_power_by_id(
            id,
            gate.config,
            &buf[..gate.inputs.len()],
            loads[gate.output.0],
            &mut scratch,
        );
        total += gp.total;
        per_gate.push(gp);
    }
    CircuitPower { per_gate, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_gatelib::Process;
    use tr_netlist::{generators, CellKind};

    fn setup() -> (Library, PowerModel) {
        let lib = Library::standard();
        let model = PowerModel::new(&lib, Process::default());
        (lib, model)
    }

    #[test]
    fn propagate_through_inverter_chain() {
        let (lib, _) = setup();
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let (_, n1) = c.add_gate(CellKind::Inv, vec![a], "n1");
        let (_, n2) = c.add_gate(CellKind::Inv, vec![n1], "n2");
        c.mark_output(n2);
        let stats = propagate(&c, &lib, &[SignalStats::new(0.3, 1.0e5)]);
        assert!((stats[n1.0].probability() - 0.7).abs() < 1e-12);
        assert!((stats[n2.0].probability() - 0.3).abs() < 1e-12);
        // Inverters pass density through unchanged.
        assert!((stats[n2.0].density() - 1.0e5).abs() < 1e-6);
    }

    #[test]
    fn carry_chain_density_grows() {
        // The paper's §1.1 ripple-carry motivation: operand bits all have
        // identical statistics, yet carry density grows along the chain.
        let (lib, _) = setup();
        let rca = generators::ripple_carry_adder(8, &lib);
        let pi = vec![SignalStats::new(0.5, 0.5); rca.primary_inputs().len()];
        let stats = propagate(&rca, &lib, &pi);
        // Sum outputs s0..s7: density should be increasing overall.
        let densities: Vec<f64> = (0..8)
            .map(|i| stats[rca.primary_outputs()[i].0].density())
            .collect();
        // Density rises along the chain and saturates at the fixed point
        // of the full-adder density map (≈1.28 for P=0.5, D=0.5 inputs).
        assert!(
            densities[3] > densities[0] * 1.2,
            "carry accumulation missing: {densities:?}"
        );
        assert!(
            densities[7] > densities[0] * 1.2,
            "carry accumulation lost: {densities:?}"
        );
    }

    #[test]
    fn exact_matches_approximate_on_trees() {
        // A fanout-free tree has no reconvergence: both propagations must
        // agree exactly.
        let (lib, _) = setup();
        let mut c = Circuit::new("tree");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let e = c.add_input("e");
        let (_, n1) = c.add_gate(CellKind::Nand(2), vec![a, b], "n1");
        let (_, n2) = c.add_gate(CellKind::Nor(2), vec![d, e], "n2");
        let (_, y) = c.add_gate(CellKind::Nand(2), vec![n1, n2], "y");
        c.mark_output(y);
        let pi = vec![
            SignalStats::new(0.3, 1.0e5),
            SignalStats::new(0.6, 2.0e5),
            SignalStats::new(0.8, 3.0e5),
            SignalStats::new(0.1, 4.0e5),
        ];
        let approx = propagate(&c, &lib, &pi);
        let exact = propagate_exact(&c, &lib, &pi).unwrap();
        for n in 0..c.net_count() {
            assert!(
                (approx[n].probability() - exact[n].probability()).abs() < 1e-9,
                "net {n} probability"
            );
            assert!(
                (approx[n].density() - exact[n].density()).abs() < 1e-3,
                "net {n} density"
            );
        }
    }

    #[test]
    fn exact_diverges_under_reconvergence() {
        // y = NAND(a, a) = ¬a: the approximate model treats the two pins
        // as independent, the exact model knows better.
        let (lib, _) = setup();
        let mut c = Circuit::new("reconv");
        let a = c.add_input("a");
        let (_, y) = c.add_gate(CellKind::Nand(2), vec![a, a], "y");
        c.mark_output(y);
        let pi = vec![SignalStats::new(0.5, 2.0e5)];
        let approx = propagate(&c, &lib, &pi);
        let exact = propagate_exact(&c, &lib, &pi).unwrap();
        // Exact: P(y) = 0.5, D(y) = D(a). Approximate: P(y) = 0.75.
        assert!((exact[y.0].probability() - 0.5).abs() < 1e-12);
        assert!((approx[y.0].probability() - 0.75).abs() < 1e-12);
        assert!((exact[y.0].density() - 2.0e5).abs() < 1e-6);
    }

    #[test]
    fn circuit_power_positive_and_decomposes() {
        let (lib, model) = setup();
        let rca = generators::ripple_carry_adder(4, &lib);
        let pi = vec![SignalStats::new(0.5, 1.0e6); rca.primary_inputs().len()];
        let stats = propagate(&rca, &lib, &pi);
        let power = circuit_power(&rca, &model, &stats);
        assert!(power.total > 0.0);
        assert_eq!(power.per_gate.len(), rca.gates().len());
        let sum: f64 = power.per_gate.iter().map(|g| g.total).sum();
        assert!((sum - power.total).abs() < power.total * 1e-9);
        assert!(
            (power.output_total() + power.internal_total() - power.total).abs()
                < power.total * 1e-9
        );
        // Internal nodes must contribute measurably, else reordering
        // could never matter.
        assert!(power.internal_total() > 0.02 * power.total);
    }

    /// The compiled helpers are bitwise equal to the plain paths on every
    /// suite circuit, under its own configurations and a rotated
    /// assignment — what lets a flow keep the optimizer's compiled total
    /// as the final power instead of re-running `circuit_power`.
    #[test]
    fn compiled_helpers_match_plain_paths() {
        let (lib, model) = setup();
        let mut scratch = Scratch::new();
        for case in tr_netlist::suite::standard_suite(&lib) {
            let mut c = case.circuit;
            let compiled = CompiledCircuit::compile(&c, &lib).unwrap();
            let pi = vec![SignalStats::new(0.4, 7.0e5); c.primary_inputs().len()];
            let stats = propagate(&c, &lib, &pi);

            let loads = external_loads(&c, &model);
            let loads_c = external_loads_compiled(&compiled, &model);
            assert_eq!(loads, loads_c, "{}", case.name);

            for rotate in [false, true] {
                if rotate {
                    for (i, g) in compiled.gates().iter().enumerate() {
                        c.set_config(tr_netlist::GateId(i), i % g.n_configs as usize);
                    }
                }
                let full = circuit_power(&c, &model, &stats);
                let total =
                    circuit_total_compiled(&compiled, &model, &stats, &loads, &mut scratch, |i| {
                        c.gates()[i].config
                    });
                assert_eq!(full.total, total, "{} rotate={rotate}", case.name);
            }
        }
    }

    #[test]
    fn quiescent_circuit_consumes_nothing() {
        let (lib, model) = setup();
        let rca = generators::ripple_carry_adder(4, &lib);
        let pi = vec![SignalStats::constant(true); rca.primary_inputs().len()];
        let stats = propagate(&rca, &lib, &pi);
        let power = circuit_power(&rca, &model, &stats);
        assert_eq!(power.total, 0.0);
    }

    #[test]
    fn external_loads_count_fanout() {
        let (_lib, model) = setup();
        let mut c = Circuit::new("fan");
        let a = c.add_input("a");
        let (_, n1) = c.add_gate(CellKind::Inv, vec![a], "n1");
        let (_, x) = c.add_gate(CellKind::Inv, vec![n1], "x");
        let (_, y) = c.add_gate(CellKind::Inv, vec![n1], "y");
        c.mark_output(x);
        c.mark_output(y);
        let loads = external_loads(&c, &model);
        let inv_in = model.input_capacitance(&CellKind::Inv, 0);
        assert!((loads[n1.0] - 2.0 * inv_in).abs() < 1e-21);
        assert!((loads[a.0] - inv_in).abs() < 1e-21);
        assert_eq!(loads[x.0], 0.0);
    }

    #[test]
    fn exact_refuses_large_circuits() {
        let (lib, _) = setup();
        let rca = generators::ripple_carry_adder(16, &lib); // 33 PIs
        let pi = vec![SignalStats::default(); rca.primary_inputs().len()];
        assert!(propagate_exact(&rca, &lib, &pi).is_none());
    }
}
