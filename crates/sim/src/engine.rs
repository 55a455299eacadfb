//! The event-driven switch-level engine.

use crate::waveform::generate_waveform;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tr_boolean::govern::{Governor, Interrupted};
use tr_boolean::SignalStats;
use tr_gatelib::{Cell, CellId, Library, Process};
use tr_netlist::{Circuit, NetId};
use tr_spnet::{GateGraph, NodeId};
use tr_timing::TimingModel;

/// How one primary input is driven.
#[derive(Debug, Clone)]
pub enum InputDrive {
    /// Stochastic waveform from the given `(P, D)` statistics.
    Stochastic(SignalStats),
    /// Explicit waveform: initial value and sorted toggle times (s).
    Waveform {
        /// Value at `t = 0`.
        initial: bool,
        /// Instants at which the signal flips.
        toggles: Vec<f64>,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Simulated time span (seconds).
    pub duration: f64,
    /// Initial interval whose energy is discarded (washes out the
    /// artificial t=0 state).
    pub warmup: f64,
    /// Seed for the stochastic waveforms (input `i` uses `seed ⊕ i`).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: 1.0e-4,
            warmup: 1.0e-5,
            seed: 0,
        }
    }
}

/// Simulation results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured interval (duration − warmup), seconds.
    pub measured_time: f64,
    /// Energy dissipated in the measured interval (J).
    pub energy: f64,
    /// Average power (W).
    pub power: f64,
    /// Energy per gate (J), indexed like `circuit.gates()`.
    pub per_gate_energy: Vec<f64>,
    /// Counted transitions per net (including glitches).
    pub net_transitions: Vec<u64>,
    /// Final logic value of every net.
    pub final_values: Vec<bool>,
    /// Rail-fight instants observed (0 for well-formed gates).
    pub conflicts: u64,
}

/// Femtoseconds per second (the engine's integer time base).
const FS: f64 = 1.0e15;

/// A scheduled event. Heap entries are keyed `(time, sequence number)`,
/// and sequence numbers are unique, so the payload never takes part in
/// the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Primary input `input` flips. Its sequence number is the toggle's
    /// index in the flat toggle list, so the next toggle is one past it.
    InputToggle { input: usize },
    /// A gate output value reaches the net.
    Commit { gate: usize, value: bool },
}

/// One row of a [`ConfigTable`]: the solved gate graph under one input
/// assignment. Bit 0 is the output node, bit `k + 1` internal node `k`.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Nodes connected to a rail.
    driven: u64,
    /// Level of every driven node (0 where floating).
    level: u64,
    /// Whether some node sees both rails.
    conflict: bool,
}

/// The switch-level behaviour of one `(cell, configuration)`, solved once
/// per input assignment (row index bit `i` = cell input `i`).
struct ConfigTable<'a> {
    cell: &'a Cell,
    graph: GateGraph,
    rows: Vec<Row>,
    /// `½·C·Vdd²` of every internal node.
    internal_energy: Vec<f64>,
}

impl<'a> ConfigTable<'a> {
    fn solve(cell: &'a Cell, config: usize, process: &Process) -> Self {
        let graph = cell.graph(config);
        assert!(
            graph.internal_count() < 64,
            "{} has more internal nodes than a row holds",
            cell.name()
        );
        let mut assignment = vec![false; cell.arity()];
        let rows = (0..1usize << cell.arity())
            .map(|m| {
                for (i, v) in assignment.iter_mut().enumerate() {
                    *v = (m >> i) & 1 == 1;
                }
                let solution = graph.solve(&assignment);
                let mut row = Row {
                    driven: 0,
                    level: 0,
                    conflict: solution.has_conflict(),
                };
                for (bit, node) in graph.power_nodes().enumerate() {
                    if let Some(v) = solution.value(node) {
                        row.driven |= 1 << bit;
                        row.level |= u64::from(v) << bit;
                    }
                }
                row
            })
            .collect();
        let internal_energy = (0..graph.internal_count())
            .map(|k| {
                let c = process.node_capacitance(&graph, NodeId::Internal(k), 0.0);
                0.5 * process.switching_energy(c)
            })
            .collect();
        ConfigTable {
            cell,
            graph,
            rows,
            internal_energy,
        }
    }
}

/// Simulates with stochastic drives on every input (the paper's protocol).
///
/// # Panics
///
/// Panics if `pi_stats.len()` differs from the primary-input count, the
/// circuit is invalid, or `config.duration <= config.warmup`.
pub fn simulate(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    pi_stats: &[SignalStats],
    config: &SimConfig,
) -> SimReport {
    let drives: Vec<InputDrive> = pi_stats
        .iter()
        .map(|s| InputDrive::Stochastic(*s))
        .collect();
    simulate_with_drives(circuit, library, process, timing, &drives, config)
}

/// [`simulate`] under an optional [`Governor`], checked once per
/// simulator event (an input toggle or an output commit — the event
/// loop's unit of work). An interrupted run returns no partial report: a
/// truncated event window would misreport power for the measured span.
///
/// # Errors
///
/// Returns [`Interrupted`] when the governor trips mid-run.
///
/// # Panics
///
/// As [`simulate`].
pub fn simulate_governed(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    pi_stats: &[SignalStats],
    config: &SimConfig,
    governor: Option<&Governor>,
) -> Result<SimReport, Interrupted> {
    let drives: Vec<InputDrive> = pi_stats
        .iter()
        .map(|s| InputDrive::Stochastic(*s))
        .collect();
    run(
        circuit, library, process, timing, &drives, config, None, governor,
    )
}

/// One recorded value change (for waveform dumping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in femtoseconds.
    pub time_fs: u64,
    /// The net that changed.
    pub net: usize,
    /// Its new value.
    pub value: bool,
}

/// A recorded waveform: initial values plus every change, in time order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Value of every net at `t = 0`.
    pub initial: Vec<bool>,
    /// Changes in chronological order.
    pub events: Vec<TraceEvent>,
}

/// Like [`simulate_with_drives`] but also records every net value change
/// for waveform inspection (see [`crate::vcd`]).
///
/// # Panics
///
/// As [`simulate_with_drives`].
pub fn simulate_traced(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    drives: &[InputDrive],
    config: &SimConfig,
) -> (SimReport, Trace) {
    let mut trace = Trace::default();
    let report = run(
        circuit,
        library,
        process,
        timing,
        drives,
        config,
        Some(&mut trace),
        None,
    )
    .expect("ungoverned simulation cannot be interrupted");
    (report, trace)
}

/// Simulates with explicit per-input drives.
///
/// # Panics
///
/// Panics if `drives.len()` differs from the primary-input count, the
/// circuit is invalid, or `config.duration <= config.warmup`.
pub fn simulate_with_drives(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    drives: &[InputDrive],
    config: &SimConfig,
) -> SimReport {
    run(
        circuit, library, process, timing, drives, config, None, None,
    )
    .expect("ungoverned simulation cannot be interrupted")
}

#[allow(clippy::too_many_arguments)]
fn run(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    drives: &[InputDrive],
    config: &SimConfig,
    mut trace: Option<&mut Trace>,
    governor: Option<&Governor>,
) -> Result<SimReport, Interrupted> {
    assert_eq!(
        drives.len(),
        circuit.primary_inputs().len(),
        "one drive per primary input"
    );
    assert!(
        config.duration > config.warmup,
        "duration must exceed warmup"
    );
    circuit.validate(library).expect("invalid circuit");
    let gate_count = circuit.gates().len();

    // One table per distinct (cell, configuration).
    let mut table_index: HashMap<(CellId, usize), usize> = HashMap::new();
    let mut table_keys: Vec<(CellId, usize)> = Vec::new();
    let table_of: Vec<usize> = circuit
        .gates()
        .iter()
        .map(|gate| {
            let key = (library.cell_id(&gate.cell).expect("validated"), gate.config);
            *table_index.entry(key).or_insert_with(|| {
                table_keys.push(key);
                table_keys.len() - 1
            })
        })
        .collect();
    let _g = tr_trace::span!(
        "sim.run",
        gates = gate_count,
        duration = config.duration,
        configs = table_keys.len()
    );
    let tables: Vec<ConfigTable> = table_keys
        .iter()
        .map(|&(cell, cfg)| ConfigTable::solve(library.cell_by_id(cell), cfg, process))
        .collect();

    // Flat per-gate data: input nets with their pin delays, output net
    // and output transition energy (the output load differs per gate).
    let loads = timing.external_loads(circuit);
    let mut pin_start: Vec<usize> = Vec::with_capacity(gate_count + 1);
    let mut pins: Vec<usize> = Vec::new();
    let mut delays: Vec<u64> = Vec::new();
    let mut out_net: Vec<usize> = Vec::with_capacity(gate_count);
    let mut out_energy: Vec<f64> = Vec::with_capacity(gate_count);
    for (gate, &t) in circuit.gates().iter().zip(&table_of) {
        let load = loads[gate.output.0];
        pin_start.push(pins.len());
        for (pin, net) in gate.inputs.iter().enumerate() {
            pins.push(net.0);
            delays.push((timing.gate_delay(&gate.cell, gate.config, pin, load) * FS).ceil() as u64);
        }
        out_net.push(gate.output.0);
        let c = process.node_capacitance(&tables[t].graph, NodeId::Output, load);
        out_energy.push(0.5 * process.switching_energy(c));
    }
    pin_start.push(pins.len());
    let input_mask = |g: usize, net_values: &[bool]| {
        pins[pin_start[g]..pin_start[g + 1]]
            .iter()
            .enumerate()
            .fold(0usize, |m, (i, &n)| m | usize::from(net_values[n]) << i)
    };

    // Readers of every net as (gate, first pin reading the net), in
    // `Circuit::fanouts` order: a gate reading a net on k pins is listed
    // k times.
    let fanouts = circuit.fanouts();
    let mut reader_start: Vec<usize> = Vec::with_capacity(circuit.net_count() + 1);
    let mut readers: Vec<(usize, usize)> = Vec::with_capacity(pins.len());
    for n in 0..circuit.net_count() {
        reader_start.push(readers.len());
        for gid in fanouts.get(&NetId(n)).into_iter().flatten() {
            let gate = &pins[pin_start[gid.0]..pin_start[gid.0 + 1]];
            let first = gate
                .iter()
                .position(|&m| m == n)
                .expect("reader has the net");
            readers.push((gid.0, first));
        }
    }
    reader_start.push(readers.len());

    // Initial input values and toggle times. Input `i`'s toggles hold the
    // sequence numbers `toggle_start[i]..toggle_start[i + 1]`, as if every
    // toggle were scheduled up front, but only each input's next toggle
    // sits in the heap.
    let mut net_values = vec![false; circuit.net_count()];
    let mut toggle_start: Vec<usize> = Vec::with_capacity(drives.len() + 1);
    let mut toggles: Vec<u64> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> =
        BinaryHeap::with_capacity(drives.len() + gate_count);
    for (input, drive) in drives.iter().enumerate() {
        let (initial, times) = match drive {
            InputDrive::Stochastic(stats) => generate_waveform(
                stats,
                config.duration,
                config.seed ^ (input as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            InputDrive::Waveform { initial, toggles } => (*initial, toggles.clone()),
        };
        net_values[circuit.primary_inputs()[input].0] = initial;
        let first = toggles.len();
        toggle_start.push(first);
        toggles.extend(times.iter().map(|&t| (t * FS) as u64));
        // One input's toggles are interchangeable and own a contiguous
        // block of sequence numbers, so sorting an unsorted list keeps
        // the pop order of scheduling it whole.
        toggles[first..].sort_unstable();
        if first < toggles.len() {
            heap.push(Reverse((
                toggles[first],
                first as u64,
                Event::InputToggle { input },
            )));
        }
    }
    toggle_start.push(toggles.len());
    let mut seq = toggles.len() as u64;

    // Settle the t=0 state: functional values, then internal charges.
    let order = circuit.topological_order().expect("validated");
    for gid in &order {
        let g = gid.0;
        let value = tables[table_of[g]]
            .cell
            .function()
            .eval_minterm(input_mask(g, &net_values));
        net_values[out_net[g]] = value;
    }
    // Retained charge of every gate's internal nodes, in row layout
    // (bit `k + 1` = internal node `k`; floating nodes start low).
    let mut charge: Vec<u64> = (0..gate_count)
        .map(|g| {
            let row = tables[table_of[g]].rows[input_mask(g, &net_values)];
            row.level & row.driven & !1
        })
        .collect();
    // Last output value passed to the scheduler, and the commit-order
    // watermark (fs) that keeps transport events ordered.
    let mut last_scheduled: Vec<bool> = out_net.iter().map(|&n| net_values[n]).collect();
    let mut last_commit = vec![0u64; gate_count];

    if let Some(t) = trace.as_deref_mut() {
        t.initial = net_values.clone();
    }

    // Main loop.
    let warmup_fs = (config.warmup * FS) as u64;
    let end_fs = (config.duration * FS) as u64;
    let mut energy = 0.0f64;
    let mut per_gate_energy = vec![0.0f64; gate_count];
    let mut net_transitions = vec![0u64; circuit.net_count()];
    let mut conflicts = 0u64;
    let mut events = 0u64;

    while let Some(Reverse((t, event_seq, event))) = heap.pop() {
        if t >= end_fs {
            break;
        }
        if let Some(g) = governor {
            g.check("simulate")?;
        }
        events += 1;
        let net = match event {
            Event::InputToggle { input } => {
                let next = event_seq as usize + 1;
                if next < toggle_start[input + 1] {
                    heap.push(Reverse((toggles[next], next as u64, event)));
                }
                let net = circuit.primary_inputs()[input].0;
                net_values[net] = !net_values[net];
                if t >= warmup_fs {
                    net_transitions[net] += 1;
                }
                net
            }
            Event::Commit { gate, value } => {
                let out = out_net[gate];
                if net_values[out] == value {
                    continue;
                }
                net_values[out] = value;
                if t >= warmup_fs {
                    net_transitions[out] += 1;
                    let e = out_energy[gate];
                    energy += e;
                    per_gate_energy[gate] += e;
                }
                out
            }
        };
        if let Some(tr) = trace.as_deref_mut() {
            tr.events.push(TraceEvent {
                time_fs: t,
                net,
                value: net_values[net],
            });
        }
        // Re-evaluate every reader: internal nodes charge or discharge
        // now, a new output value travels through the pin's delay.
        for &(g, pin) in &readers[reader_start[net]..reader_start[net + 1]] {
            let table = &tables[table_of[g]];
            let row = table.rows[input_mask(g, &net_values)];
            conflicts += u64::from(row.conflict);
            let changed = (row.level ^ charge[g]) & row.driven & !1;
            if changed != 0 {
                charge[g] ^= changed;
                if t >= warmup_fs {
                    let mut bits = changed;
                    while bits != 0 {
                        let e = table.internal_energy[bits.trailing_zeros() as usize - 1];
                        energy += e;
                        per_gate_energy[g] += e;
                        bits &= bits - 1;
                    }
                }
            }
            let new_out = if row.driven & 1 == 1 {
                row.level & 1 == 1
            } else {
                last_scheduled[g]
            };
            if new_out != last_scheduled[g] {
                last_scheduled[g] = new_out;
                let commit_at = (t + delays[pin_start[g] + pin]).max(last_commit[g]);
                last_commit[g] = commit_at;
                heap.push(Reverse((
                    commit_at,
                    seq,
                    Event::Commit {
                        gate: g,
                        value: new_out,
                    },
                )));
                seq += 1;
            }
        }
    }

    if tr_trace::is_enabled() {
        tr_trace::counter!("sim.events", events);
        tr_trace::counter!("sim.transitions", net_transitions.iter().sum::<u64>());
    }
    let measured_time = config.duration - config.warmup;
    Ok(SimReport {
        measured_time,
        energy,
        power: energy / measured_time,
        per_gate_energy,
        net_transitions,
        final_values: net_values,
        conflicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_netlist::{generators, CellKind};

    fn setup() -> (Library, Process, TimingModel) {
        let lib = Library::standard();
        let process = Process::default();
        let timing = TimingModel::new(&lib, process.clone());
        (lib, process, timing)
    }

    #[test]
    fn quiescent_inputs_zero_power() {
        let (lib, process, timing) = setup();
        let c = generators::ripple_carry_adder(4, &lib);
        let stats = vec![SignalStats::constant(false); 9];
        let r = simulate(&c, &lib, &process, &timing, &stats, &SimConfig::default());
        assert_eq!(r.energy, 0.0);
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn inverter_measures_input_density() {
        let (lib, process, timing) = setup();
        let mut c = Circuit::new("inv");
        let a = c.add_input("a");
        let (_, y) = c.add_gate(CellKind::Inv, vec![a], "y");
        c.mark_output(y);
        let stats = vec![SignalStats::new(0.5, 1.0e6)];
        let cfg = SimConfig {
            duration: 2.0e-3,
            warmup: 1.0e-4,
            seed: 3,
        };
        let r = simulate(&c, &lib, &process, &timing, &stats, &cfg);
        let d_in = r.net_transitions[a.0] as f64 / r.measured_time;
        let d_out = r.net_transitions[y.0] as f64 / r.measured_time;
        assert!((d_in - 1.0e6).abs() / 1.0e6 < 0.1, "input density {d_in}");
        assert!((d_out - d_in).abs() / d_in < 0.01, "output density {d_out}");
        // Energy ≈ ½CV²·(transitions of y)·(1 + input gate cap share)…
        // just check the output-node component alone is the right order:
        assert!(r.power > 0.0);
    }

    #[test]
    fn final_state_matches_functional_model() {
        let (lib, process, timing) = setup();
        let c = generators::ripple_carry_adder(4, &lib);
        // Explicit waveforms that stop toggling long before the horizon.
        let drives: Vec<InputDrive> = (0..9)
            .map(|i| InputDrive::Waveform {
                initial: i % 2 == 0,
                toggles: vec![1.0e-6 * (i as f64 + 1.0), 3.0e-6 * (i as f64 + 1.0)],
            })
            .collect();
        let cfg = SimConfig {
            duration: 1.0e-3,
            warmup: 0.0,
            seed: 0,
        };
        let r = simulate_with_drives(&c, &lib, &process, &timing, &drives, &cfg);
        // Final input values: initial ^ (2 toggles) = initial.
        let finals: Vec<bool> = (0..9).map(|i| i % 2 == 0).collect();
        let expect = c.evaluate(&lib, &finals);
        for (n, (&got, &want)) in r.final_values.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "net {n} ({})", c.net_name(tr_netlist::NetId(n)));
        }
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn glitches_are_generated() {
        // y = NAND(a, NOT(a)) is logically constant 1, but the inverter
        // delay makes every transition of `a` emit a glitch pulse on y.
        let (lib, process, timing) = setup();
        let mut c = Circuit::new("glitch");
        let a = c.add_input("a");
        let (_, na) = c.add_gate(CellKind::Inv, vec![a], "na");
        let (_, y) = c.add_gate(CellKind::Nand(2), vec![a, na], "y");
        c.mark_output(y);
        let drives = vec![InputDrive::Waveform {
            initial: false,
            toggles: vec![1.0e-6, 2.0e-6, 3.0e-6],
        }];
        let cfg = SimConfig {
            duration: 1.0e-4,
            warmup: 0.0,
            seed: 0,
        };
        let r = simulate_with_drives(&c, &lib, &process, &timing, &drives, &cfg);
        // Useless transitions: y still ends at 1 but toggled on the way.
        assert!(r.net_transitions[y.0] >= 2, "{:?}", r.net_transitions);
        assert!(r.final_values[y.0]);
    }

    #[test]
    fn deeper_circuits_glitch_more_than_density_predicts() {
        // In a ripple adder the simulator sees the §1.1 useless
        // transitions; just assert simulated power is positive and the
        // carry-side nets toggle more than operand inputs.
        let (lib, process, timing) = setup();
        let c = generators::ripple_carry_adder(8, &lib);
        let stats = vec![SignalStats::new(0.5, 1.0e6); 17];
        let cfg = SimConfig {
            duration: 5.0e-4,
            warmup: 5.0e-5,
            seed: 9,
        };
        let r = simulate(&c, &lib, &process, &timing, &stats, &cfg);
        let input_rate = r.net_transitions[c.primary_inputs()[0].0] as f64;
        let cout_rate = r.net_transitions[c.primary_outputs()[8].0] as f64;
        assert!(r.power > 0.0);
        assert!(
            cout_rate > 0.5 * input_rate,
            "cout {cout_rate} vs input {input_rate}"
        );
    }

    #[test]
    fn reordering_changes_measured_power() {
        // Single NAND3 with very asymmetric input activity: the stack
        // order must change measured energy.
        let (lib, process, timing) = setup();
        let build = |config: usize| {
            let mut c = Circuit::new("nand3");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let d = c.add_input("d");
            let (g, y) = c.add_gate(CellKind::Nand(3), vec![a, b, d], "y");
            c.mark_output(y);
            c.set_config(g, config);
            c
        };
        let stats = vec![
            SignalStats::new(0.5, 1.0e6),
            SignalStats::new(0.5, 1.0e4),
            SignalStats::new(0.5, 1.0e4),
        ];
        let cfg = SimConfig {
            duration: 1.0e-3,
            warmup: 1.0e-4,
            seed: 21,
        };
        let cell = lib.cell_by_name("nand3").unwrap();
        let powers: Vec<f64> = (0..cell.configurations().len())
            .map(|cfg_i| simulate(&build(cfg_i), &lib, &process, &timing, &stats, &cfg).power)
            .collect();
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min * 1.02, "powers {powers:?}");
    }

    #[test]
    fn seeded_and_deterministic() {
        let (lib, process, timing) = setup();
        let c = generators::parity_tree(8, &lib);
        let stats = vec![SignalStats::new(0.5, 5.0e5); 8];
        let cfg = SimConfig {
            duration: 2.0e-4,
            warmup: 2.0e-5,
            seed: 77,
        };
        let a = simulate(&c, &lib, &process, &timing, &stats, &cfg);
        let b = simulate(&c, &lib, &process, &timing, &stats, &cfg);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.net_transitions, b.net_transitions);
        let cfg2 = SimConfig { seed: 78, ..cfg };
        let c2 = simulate(&c, &lib, &process, &timing, &stats, &cfg2);
        assert_ne!(a.energy, c2.energy);
    }

    #[test]
    #[should_panic(expected = "duration must exceed warmup")]
    fn bad_config_panics() {
        let (lib, process, timing) = setup();
        let c = generators::parity_tree(4, &lib);
        let stats = vec![SignalStats::default(); 4];
        let cfg = SimConfig {
            duration: 1.0e-5,
            warmup: 1.0e-4,
            seed: 0,
        };
        simulate(&c, &lib, &process, &timing, &stats, &cfg);
    }
}
