//! Output checks, each against a computation made apart from the code
//! path under test or a property the method must have.

use tr_boolean::SignalStats;
use tr_flow::FlowEnv;
use tr_netlist::{Circuit, GateId};
use tr_power::reference;
use tr_spnet::NodeId;

/// SplitMix64: the benchmark's own seeded generator for test vectors
/// and gate samples.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Primary inputs up to which [`exact_stats`] builds global truth tables.
const EXHAUSTIVE_PIS: usize = 16;

/// Reordering never changes logic (§4.2). `optimized` must keep
/// `original`'s interface, cells and wiring, and every gate's chosen
/// configuration must be a transistor network that drives the output to
/// the cell's function, without a rail conflict, on every assignment of
/// the cell's inputs. Together these make the optimized circuit compute
/// the input's Boolean function. Each distinct (cell, configuration)
/// pair is checked once.
pub fn same_function(env: &FlowEnv, original: &Circuit, optimized: &Circuit) -> Result<(), String> {
    if original.primary_inputs() != optimized.primary_inputs()
        || original.primary_outputs() != optimized.primary_outputs()
        || original.gates().len() != optimized.gates().len()
    {
        return Err("optimized circuit changed its interface or gate count".into());
    }
    let mut checked = std::collections::HashSet::new();
    for (a, b) in original.gates().iter().zip(optimized.gates()) {
        if a.cell != b.cell || a.inputs != b.inputs || a.output != b.output {
            return Err("optimized circuit changed a cell or its wiring".into());
        }
        if !checked.insert((b.cell.clone(), b.config)) {
            continue;
        }
        let cell = env.library.cell(&b.cell).ok_or("cell not in the library")?;
        if b.config >= cell.configurations().len() {
            return Err(format!(
                "{} has configuration {} of {}",
                cell.name(),
                b.config,
                cell.configurations().len()
            ));
        }
        let graph = cell.graph(b.config);
        let k = cell.arity();
        let mut assignment = vec![false; k];
        for m in 0..(1usize << k) {
            for (i, x) in assignment.iter_mut().enumerate() {
                *x = (m >> i) & 1 == 1;
            }
            let solved = graph.solve(&assignment);
            let want = cell.function().eval(&assignment);
            if solved.has_conflict() || solved.value(NodeId::Output) != Some(want) {
                return Err(format!(
                    "{} configuration {} does not compute its function on input {m:b}",
                    cell.name(),
                    b.config
                ));
            }
        }
    }
    Ok(())
}

/// Per-net statistics under the independence assumption (the paper's
/// §3 propagation), computed here from each cell's truth table: for a
/// gate `y = f(x)`, `P(y) = Σ_{m: f(m)} Π P(xᵢ = mᵢ)` and
/// `D(y) = Σᵢ P(∂f/∂xᵢ)·D(xᵢ)`.
pub fn independent_stats(env: &FlowEnv, circuit: &Circuit, pi: &[SignalStats]) -> Vec<SignalStats> {
    let mut stats = vec![SignalStats::constant(false); circuit.net_count()];
    for (net, s) in circuit.primary_inputs().iter().zip(pi) {
        stats[net.0] = *s;
    }
    let order = circuit
        .topological_order()
        .expect("generated circuits are acyclic");
    let mut assignment = Vec::new();
    for gid in order {
        let gate = circuit.gate(gid);
        let f = env
            .library
            .cell(&gate.cell)
            .expect("library cell")
            .function();
        let k = gate.inputs.len();
        let p: Vec<f64> = gate
            .inputs
            .iter()
            .map(|n| stats[n.0].probability())
            .collect();
        let mut p_y = 0.0;
        let mut p_diff = vec![0.0; k];
        for m in 0..(1usize << k) {
            assignment.clear();
            assignment.extend((0..k).map(|i| (m >> i) & 1 == 1));
            let weight: f64 = (0..k)
                .map(|i| if assignment[i] { p[i] } else { 1.0 - p[i] })
                .product();
            let fm = f.eval(&assignment);
            if fm {
                p_y += weight;
            }
            for i in 0..k {
                if assignment[i] {
                    continue;
                }
                assignment[i] = true;
                if f.eval(&assignment) != fm {
                    // Probability of the other inputs' assignment.
                    let others = if p[i] < 1.0 {
                        weight / (1.0 - p[i])
                    } else {
                        0.0
                    };
                    p_diff[i] += others;
                }
                assignment[i] = false;
            }
        }
        let d_y: f64 = (0..k)
            .map(|i| p_diff[i] * stats[gate.inputs[i].0].density())
            .sum();
        stats[gate.output.0] = SignalStats::new(p_y.clamp(0.0, 1.0), d_y);
    }
    stats
}

/// Exact per-net statistics for circuits of at most 16 primary inputs,
/// from bit-parallel global truth tables: `P(y)` sums the probability of
/// every input vector on which `y` is 1, and `D(y) = Σᵢ P(∂y/∂xᵢ)·D(xᵢ)`
/// over the primary inputs `xᵢ`. Returns `None` above 16 inputs.
pub fn exact_stats(
    env: &FlowEnv,
    circuit: &Circuit,
    pi: &[SignalStats],
) -> Option<Vec<SignalStats>> {
    let n = circuit.primary_inputs().len();
    if n > EXHAUSTIVE_PIS {
        return None;
    }
    let vectors = 1usize << n;
    let words = vectors.div_ceil(64);
    let valid = |w: usize| -> u64 {
        let bits = (vectors - 64 * w).min(64);
        if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    };
    // Probability of every input vector.
    let weights: Vec<f64> = (0..vectors)
        .map(|m| {
            (0..n)
                .map(|i| {
                    let p = pi[i].probability();
                    if (m >> i) & 1 == 1 {
                        p
                    } else {
                        1.0 - p
                    }
                })
                .product()
        })
        .collect();
    let mut tables = vec![Vec::new(); circuit.net_count()];
    for (i, net) in circuit.primary_inputs().iter().enumerate() {
        tables[net.0] = (0..words)
            .map(|w| {
                let mut t = 0u64;
                for b in 0..64 {
                    let m = 64 * w + b;
                    if m < vectors && (m >> i) & 1 == 1 {
                        t |= 1 << b;
                    }
                }
                t
            })
            .collect();
    }
    let order = circuit
        .topological_order()
        .expect("generated circuits are acyclic");
    let mut assignment = Vec::new();
    for gid in order {
        let gate = circuit.gate(gid);
        let f = env
            .library
            .cell(&gate.cell)
            .expect("library cell")
            .function();
        let k = gate.inputs.len();
        let mut out = vec![0u64; words];
        for m in 0..(1usize << k) {
            assignment.clear();
            assignment.extend((0..k).map(|j| (m >> j) & 1 == 1));
            if !f.eval(&assignment) {
                continue;
            }
            for (w, o) in out.iter_mut().enumerate() {
                let mut term = valid(w);
                for (j, net) in gate.inputs.iter().enumerate() {
                    let t = tables[net.0][w];
                    term &= if assignment[j] { t } else { !t };
                }
                *o |= term;
            }
        }
        tables[gate.output.0] = out;
    }
    // Σ of the weights of the vectors whose bits are set in `bits(w)`.
    let weight_of = |bits: &dyn Fn(usize) -> u64| -> f64 {
        let mut s = 0.0;
        for w in 0..words {
            let mut x = bits(w) & valid(w);
            while x != 0 {
                s += weights[64 * w + x.trailing_zeros() as usize];
                x &= x - 1;
            }
        }
        s
    };
    let stats = tables
        .iter()
        .map(|t| {
            let p = weight_of(&|w| t[w]);
            let mut d = 0.0;
            for (i, s) in pi.iter().enumerate() {
                if s.density() == 0.0 {
                    continue;
                }
                // Vectors with xᵢ = 0 on which flipping xᵢ flips y; their
                // weight over P(xᵢ = 0) is P(∂y/∂xᵢ).
                let stride = 1usize << i;
                let flips = |w: usize| -> u64 {
                    if stride >= 64 {
                        let span = stride / 64;
                        if w & span == 0 {
                            t[w] ^ t[w | span]
                        } else {
                            0
                        }
                    } else {
                        let low = (0..64)
                            .filter(|b| b & stride == 0)
                            .fold(0u64, |a, b| a | 1 << b);
                        (t[w] ^ (t[w] >> stride)) & low
                    }
                };
                d += weight_of(&flips) / (1.0 - s.probability()) * s.density();
            }
            SignalStats::new(p.clamp(0.0, 1.0), d)
        })
        .collect();
    Some(stats)
}

/// Power of every configuration of gate `gid` under the naive reference
/// evaluator.
fn oracle_gate_powers(
    env: &FlowEnv,
    circuit: &Circuit,
    gid: GateId,
    net_stats: &[SignalStats],
    loads: &[f64],
) -> Vec<f64> {
    let gate = circuit.gate(gid);
    let cell = env.library.cell(&gate.cell).expect("library cell");
    let inputs: Vec<SignalStats> = gate.inputs.iter().map(|n| net_stats[n.0]).collect();
    (0..cell.configurations().len())
        .map(|c| reference::gate_power(cell, &env.process, c, &inputs, loads[gate.output.0]).total)
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The optimizer picks every gate's cheapest configuration under the
/// net statistics, so the reported best power must equal the sum of the
/// reference evaluator's per-gate minima and the reported worst power
/// the sum of its maxima.
pub fn oracle_sums(
    env: &FlowEnv,
    circuit: &Circuit,
    net_stats: &[SignalStats],
    best_w: f64,
    worst_w: Option<f64>,
) -> Result<(), String> {
    let loads = tr_power::external_loads(circuit, &env.model);
    let (mut min_sum, mut max_sum) = (0.0, 0.0);
    for g in 0..circuit.gates().len() {
        let powers = oracle_gate_powers(env, circuit, GateId(g), net_stats, &loads);
        min_sum += powers.iter().copied().fold(f64::INFINITY, f64::min);
        max_sum += powers.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }
    if !close(min_sum, best_w) {
        return Err(format!(
            "model_after_w {best_w:e} W, oracle minimum {min_sum:e} W"
        ));
    }
    match worst_w {
        Some(w) if !close(max_sum, w) => Err(format!(
            "model_worst_w {w:e} W, oracle maximum {max_sum:e} W"
        )),
        _ => Ok(()),
    }
}

/// [`oracle_sums`] on a seeded sample of gates, for netlists too large
/// for the reference evaluator: each sampled gate of `optimized` must
/// sit in a configuration whose reference power is the gate's minimum.
pub fn oracle_sample(
    env: &FlowEnv,
    optimized: &Circuit,
    net_stats: &[SignalStats],
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    let loads = tr_power::external_loads(optimized, &env.model);
    let mut rng = Rng::new(seed);
    for _ in 0..samples {
        let gid = GateId(rng.below(optimized.gates().len()));
        let powers = oracle_gate_powers(env, optimized, gid, net_stats, &loads);
        let min = powers.iter().copied().fold(f64::INFINITY, f64::min);
        let chosen = powers[optimized.gate(gid).config];
        if !close(chosen, min) && chosen > min {
            return Err(format!(
                "gate {} sits at {chosen:e} W, its cheapest configuration is {min:e} W",
                gid.0
            ));
        }
    }
    Ok(())
}
