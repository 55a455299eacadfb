//! Bitwise equivalence of the table-driven engine with a reference
//! engine that re-solves the gate's transistor graph on every
//! evaluation, plus a release-only speed floor against it.
//!
//! The reference below is the simulator's original event loop, written
//! against public APIs only: every input toggle is scheduled up front,
//! and every reader evaluation calls [`GateGraph::solve`]. The shipped
//! engine must reproduce every report field and every trace event bit
//! for bit, and trip a governor after the same amount of work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tr_boolean::govern::{Governor, Interrupted};
use tr_boolean::SignalStats;
use tr_gatelib::{Library, Process};
use tr_netlist::{suite, CellKind, Circuit, GateId, NetId};
use tr_sim::{
    generate_waveform, simulate, simulate_governed, simulate_traced, InputDrive, SimConfig,
    SimReport, Trace, TraceEvent,
};
use tr_spnet::{GateGraph, NodeId};
use tr_timing::TimingModel;

const FS: f64 = 1.0e15;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    InputToggle { net: usize },
    Commit { gate: usize, value: bool },
}

struct GateState {
    graph: GateGraph,
    caps: Vec<f64>,
    delays: Vec<u64>,
    internal: Vec<bool>,
    last_scheduled: bool,
    last_commit_time: u64,
}

/// The per-event-solve engine: the oracle the shipped engine is held to.
#[allow(clippy::too_many_arguments)]
fn reference(
    circuit: &Circuit,
    library: &Library,
    process: &Process,
    timing: &TimingModel,
    drives: &[InputDrive],
    config: &SimConfig,
    mut trace: Option<&mut Trace>,
    governor: Option<&Governor>,
) -> Result<SimReport, Interrupted> {
    let loads = timing.external_loads(circuit);
    let fanouts = circuit.fanouts();
    let mut gates: Vec<GateState> = Vec::with_capacity(circuit.gates().len());
    for gate in circuit.gates() {
        let cell = library.cell(&gate.cell).expect("library cell");
        let graph = cell.graph(gate.config);
        let load = loads[gate.output.0];
        let caps: Vec<f64> = graph
            .power_nodes()
            .map(|n| {
                process.node_capacitance(&graph, n, if n == NodeId::Output { load } else { 0.0 })
            })
            .collect();
        let delays: Vec<u64> = (0..cell.arity())
            .map(|pin| (timing.gate_delay(&gate.cell, gate.config, pin, load) * FS).ceil() as u64)
            .collect();
        gates.push(GateState {
            graph,
            caps,
            delays,
            internal: Vec::new(),
            last_scheduled: false,
            last_commit_time: 0,
        });
    }

    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut net_values = vec![false; circuit.net_count()];
    for (i, drive) in drives.iter().enumerate() {
        let net = circuit.primary_inputs()[i];
        let (initial, toggles) = match drive {
            InputDrive::Stochastic(stats) => generate_waveform(
                stats,
                config.duration,
                config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            InputDrive::Waveform { initial, toggles } => (*initial, toggles.clone()),
        };
        net_values[net.0] = initial;
        for t in toggles {
            heap.push(Reverse((
                (t * FS) as u64,
                seq,
                Event::InputToggle { net: net.0 },
            )));
            seq += 1;
        }
    }

    let order = circuit.topological_order().expect("acyclic");
    for gid in &order {
        let gate = circuit.gate(*gid);
        let cell = library.cell(&gate.cell).expect("library cell");
        let assignment: Vec<bool> = gate.inputs.iter().map(|n| net_values[n.0]).collect();
        net_values[gate.output.0] = cell.function().eval(&assignment);
    }
    for (gi, state) in gates.iter_mut().enumerate() {
        let gate = &circuit.gates()[gi];
        let assignment: Vec<bool> = gate.inputs.iter().map(|n| net_values[n.0]).collect();
        let solution = state.graph.solve(&assignment);
        state.internal = (0..state.graph.internal_count())
            .map(|k| solution.value(NodeId::Internal(k)).unwrap_or(false))
            .collect();
        state.last_scheduled = net_values[gate.output.0];
    }
    if let Some(t) = trace.as_deref_mut() {
        t.initial = net_values.clone();
    }

    let warmup_fs = (config.warmup * FS) as u64;
    let end_fs = (config.duration * FS) as u64;
    let mut energy = 0.0f64;
    let mut per_gate_energy = vec![0.0f64; circuit.gates().len()];
    let mut net_transitions = vec![0u64; circuit.net_count()];
    let mut conflicts = 0u64;
    let half_cv2 = |c: f64| 0.5 * process.switching_energy(c);

    while let Some(Reverse((t, _, event))) = heap.pop() {
        if t >= end_fs {
            break;
        }
        if let Some(g) = governor {
            g.check("simulate")?;
        }
        let changed = match event {
            Event::InputToggle { net } => {
                net_values[net] = !net_values[net];
                if t >= warmup_fs {
                    net_transitions[net] += 1;
                }
                NetId(net)
            }
            Event::Commit { gate: gi, value } => {
                let out = circuit.gates()[gi].output;
                if net_values[out.0] == value {
                    continue;
                }
                net_values[out.0] = value;
                if t >= warmup_fs {
                    net_transitions[out.0] += 1;
                    let e = half_cv2(gates[gi].caps[0]);
                    energy += e;
                    per_gate_energy[gi] += e;
                }
                out
            }
        };
        if let Some(tr) = trace.as_deref_mut() {
            tr.events.push(TraceEvent {
                time_fs: t,
                net: changed.0,
                value: net_values[changed.0],
            });
        }
        let Some(readers) = fanouts.get(&changed) else {
            continue;
        };
        for gid in readers {
            let gate = &circuit.gates()[gid.0];
            let pin = gate
                .inputs
                .iter()
                .position(|n| *n == changed)
                .expect("reader has the net");
            let state = &mut gates[gid.0];
            let assignment: Vec<bool> = gate.inputs.iter().map(|n| net_values[n.0]).collect();
            let solution = state.graph.solve(&assignment);
            if solution.has_conflict() {
                conflicts += 1;
            }
            for k in 0..state.internal.len() {
                if let Some(v) = solution.value(NodeId::Internal(k)) {
                    if v != state.internal[k] {
                        state.internal[k] = v;
                        if t >= warmup_fs {
                            let e = half_cv2(state.caps[k + 1]);
                            energy += e;
                            per_gate_energy[gid.0] += e;
                        }
                    }
                }
            }
            let new_out = solution
                .value(NodeId::Output)
                .unwrap_or(state.last_scheduled);
            if new_out != state.last_scheduled {
                state.last_scheduled = new_out;
                let commit_at = (t + state.delays[pin]).max(state.last_commit_time);
                state.last_commit_time = commit_at;
                heap.push(Reverse((
                    commit_at,
                    seq,
                    Event::Commit {
                        gate: gid.0,
                        value: new_out,
                    },
                )));
                seq += 1;
            }
        }
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

struct Env {
    lib: Library,
    process: Process,
    timing: TimingModel,
}

fn env() -> Env {
    let lib = Library::standard();
    let process = Process::default();
    let timing = TimingModel::new(&lib, process.clone());
    Env {
        lib,
        process,
        timing,
    }
}

/// Every report field, compared bit for bit (`f64::to_bits`, so even a
/// reassociated sum fails).
fn assert_same_report(what: &str, got: &SimReport, want: &SimReport) {
    assert_eq!(
        got.measured_time.to_bits(),
        want.measured_time.to_bits(),
        "{what}: measured_time"
    );
    assert_eq!(
        got.energy.to_bits(),
        want.energy.to_bits(),
        "{what}: energy {} vs {}",
        got.energy,
        want.energy
    );
    assert_eq!(got.power.to_bits(), want.power.to_bits(), "{what}: power");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.per_gate_energy),
        bits(&want.per_gate_energy),
        "{what}: per_gate_energy"
    );
    assert_eq!(
        got.net_transitions, want.net_transitions,
        "{what}: net_transitions"
    );
    assert_eq!(got.final_values, want.final_values, "{what}: final_values");
    assert_eq!(got.conflicts, want.conflicts, "{what}: conflicts");
}

/// Runs both engines traced and untraced on the same drives and asserts
/// identical reports and traces. Returns the number of trace events.
fn assert_equivalent(
    env: &Env,
    what: &str,
    circuit: &Circuit,
    drives: &[InputDrive],
    cfg: &SimConfig,
) -> usize {
    let mut want_trace = Trace::default();
    let want = reference(
        circuit,
        &env.lib,
        &env.process,
        &env.timing,
        drives,
        cfg,
        Some(&mut want_trace),
        None,
    )
    .expect("ungoverned");
    let (got, got_trace) =
        simulate_traced(circuit, &env.lib, &env.process, &env.timing, drives, cfg);
    assert_same_report(what, &got, &want);
    assert_eq!(got_trace.initial, want_trace.initial, "{what}: initial");
    assert_eq!(got_trace.events, want_trace.events, "{what}: trace events");
    let untraced =
        tr_sim::simulate_with_drives(circuit, &env.lib, &env.process, &env.timing, drives, cfg);
    assert_same_report(&format!("{what} (untraced)"), &untraced, &want);
    want_trace.events.len()
}

fn stochastic(stats: &[SignalStats]) -> Vec<InputDrive> {
    stats.iter().map(|s| InputDrive::Stochastic(*s)).collect()
}

/// Seeded per-input statistics: probabilities in `[0.05, 0.95]`,
/// densities in `[1e5, 1e6]` toggles per second.
fn random_stats(n: usize, seed: u64) -> Vec<SignalStats> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| SignalStats::new(rng.gen_range(0.05..0.95), rng.gen_range(1.0e5..1.0e6)))
        .collect()
}

/// About `toggles` transitions of the busiest input with a 10 % warm-up
/// (the flow's quick validation settings take 400).
fn quick_config(stats: &[SignalStats], toggles: f64, seed: u64) -> SimConfig {
    let busiest = stats.iter().map(|s| s.density()).fold(0.0, f64::max);
    let duration = toggles / busiest;
    SimConfig {
        duration,
        warmup: 0.1 * duration,
        seed,
    }
}

/// A uniformly drawn configuration for every gate.
fn random_configs(circuit: &Circuit, lib: &Library, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = circuit.clone();
    for i in 0..circuit.gates().len() {
        let n = lib
            .cell(&circuit.gates()[i].cell)
            .expect("library cell")
            .configurations()
            .len();
        out.set_config(GateId(i), rng.gen_range(0..n));
    }
    out
}

#[test]
fn every_cell_configuration_matches_as_a_single_gate() {
    let env = env();
    let mut checked = 0;
    for (ci, cell) in env.lib.cells().iter().enumerate() {
        for config in 0..cell.configurations().len() {
            let mut c = Circuit::new(format!("{}_{config}", cell.name()));
            let inputs: Vec<NetId> = (0..cell.arity())
                .map(|i| c.add_input(format!("x{i}")))
                .collect();
            let (g, y) = c.add_gate(cell.kind().clone(), inputs, "y");
            c.mark_output(y);
            c.set_config(g, config);
            let stats = random_stats(cell.arity(), (ci * 100 + config) as u64);
            let cfg = quick_config(&stats, 200.0, config as u64);
            let what = format!("{} config {config}", cell.name());
            assert!(assert_equivalent(&env, &what, &c, &stochastic(&stats), &cfg) > 0);
            checked += 1;
        }
    }
    assert_eq!(checked, env.lib.total_configurations());
}

#[test]
fn quick_suite_matches_under_default_and_random_configurations() {
    let env = env();
    for (k, case) in suite::quick_suite(&env.lib).iter().enumerate() {
        let stats = random_stats(case.circuit.primary_inputs().len(), 1000 + k as u64);
        let cfg = quick_config(&stats, 100.0, k as u64);
        let drives = stochastic(&stats);
        assert_equivalent(&env, &case.name, &case.circuit, &drives, &cfg);
        let shuffled = random_configs(&case.circuit, &env.lib, 7 + k as u64);
        assert_equivalent(
            &env,
            &format!("{} (random configurations)", case.name),
            &shuffled,
            &drives,
            &cfg,
        );
    }
}

#[test]
fn a_gate_reading_one_net_on_two_pins_matches() {
    // NAND(a, a) is listed twice among a's readers, and each listing is
    // an evaluation (and a conflict check) of its own.
    let env = env();
    let mut c = Circuit::new("nand_aa");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let (_, y) = c.add_gate(CellKind::Nand(2), vec![a, a], "y");
    let (_, z) = c.add_gate(CellKind::Aoi(vec![2, 1]), vec![y, a, y], "z");
    let (_, w) = c.add_gate(CellKind::Nor(3), vec![b, z, b], "w");
    c.mark_output(w);
    let stats = random_stats(2, 5);
    for seed in 0..4 {
        let cfg = quick_config(&stats, 200.0, seed);
        assert_equivalent(&env, "NAND(a, a)", &c, &stochastic(&stats), &cfg);
    }
}

#[test]
fn the_glitch_circuit_and_explicit_waveforms_match() {
    // y = NAND(a, NOT(a)): every toggle of `a` emits a glitch on y.
    let env = env();
    let mut c = Circuit::new("glitch");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let (_, na) = c.add_gate(CellKind::Inv, vec![a], "na");
    let (_, y) = c.add_gate(CellKind::Nand(2), vec![a, na], "y");
    let (_, z) = c.add_gate(CellKind::Nor(2), vec![y, b], "z");
    c.mark_output(z);
    let cfg = SimConfig {
        duration: 1.0e-5,
        warmup: 0.0,
        seed: 0,
    };
    // Sorted toggles; unsorted ones; toggles tied within one input and
    // across inputs; toggles at and past the horizon.
    let waveforms = [
        (vec![1.0e-6, 2.0e-6, 3.0e-6], vec![1.5e-6, 2.5e-6]),
        (vec![3.0e-6, 1.0e-6, 2.0e-6, 1.0e-6], vec![2.0e-6, 1.0e-6]),
        (vec![1.0e-6, 1.0e-6, 1.0e-6], vec![1.0e-6, 4.0e-6]),
        (vec![0.0, 9.9e-6, 1.0e-5, 2.0e-5], vec![]),
    ];
    for (k, (ta, tb)) in waveforms.into_iter().enumerate() {
        let drives = vec![
            InputDrive::Waveform {
                initial: k % 2 == 0,
                toggles: ta,
            },
            InputDrive::Waveform {
                initial: false,
                toggles: tb,
            },
        ];
        assert_equivalent(&env, &format!("glitch waveform {k}"), &c, &drives, &cfg);
    }
    let stats = vec![SignalStats::new(0.5, 1.0e6), SignalStats::new(0.3, 2.0e5)];
    let cfg = quick_config(&stats, 300.0, 3);
    assert_equivalent(&env, "glitch stochastic", &c, &stochastic(&stats), &cfg);
}

/// A float time that the engines' `(t * 1e15) as u64` maps to `fs`.
fn at_fs(fs: u64) -> f64 {
    let mut t = fs as f64 / FS;
    while ((t * FS) as u64) < fs {
        t = t.next_up();
    }
    while ((t * FS) as u64) > fs {
        t = t.next_down();
    }
    assert_eq!((t * FS) as u64, fs);
    t
}

#[test]
fn a_commit_tied_with_an_input_toggle_keeps_the_schedule_order() {
    // `b` toggles at the very femtosecond the inverter's output commits;
    // the toggle was scheduled first, so it must be processed first.
    let env = env();
    let mut c = Circuit::new("tie");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let (_, y) = c.add_gate(CellKind::Inv, vec![a], "y");
    let (_, z) = c.add_gate(CellKind::Nor(2), vec![y, b], "z");
    c.mark_output(z);
    let load = env.timing.external_loads(&c)[y.0];
    let delay = (env.timing.gate_delay(&CellKind::Inv, 0, 0, load) * FS).ceil() as u64;
    let t_a = 1_000_000_000; // 1 µs
    let drives = vec![
        InputDrive::Waveform {
            initial: false,
            toggles: vec![at_fs(t_a)],
        },
        InputDrive::Waveform {
            initial: true,
            toggles: vec![at_fs(t_a + delay), at_fs(2 * t_a)],
        },
    ];
    let cfg = SimConfig {
        duration: 1.0e-5,
        warmup: 0.0,
        seed: 0,
    };
    assert_equivalent(&env, "tie", &c, &drives, &cfg);
    let (_, trace) = simulate_traced(&c, &env.lib, &env.process, &env.timing, &drives, &cfg);
    let tied: Vec<usize> = trace
        .events
        .iter()
        .filter(|e| e.time_fs == t_a + delay)
        .map(|e| e.net)
        .collect();
    assert_eq!(tied, vec![b.0, y.0], "toggle first, then the commit");
}

#[test]
fn a_governor_trips_after_the_same_work_on_both_engines() {
    let env = env();
    let case = suite::quick_suite(&env.lib)
        .into_iter()
        .find(|c| c.circuit.gates().len() >= 20)
        .expect("a mid-sized quick-suite circuit");
    let stats = random_stats(case.circuit.primary_inputs().len(), 99);
    let cfg = quick_config(&stats, 100.0, 4);
    let drives = stochastic(&stats);
    let full = simulate(
        &case.circuit,
        &env.lib,
        &env.process,
        &env.timing,
        &stats,
        &cfg,
    );
    let events = full.net_transitions.iter().sum::<u64>();
    assert!(events > 100, "{} events", events);
    for n in [0, 1, 17, events / 2, events * 100] {
        let got = simulate_governed(
            &case.circuit,
            &env.lib,
            &env.process,
            &env.timing,
            &stats,
            &cfg,
            Some(&Governor::with_trip_after(n)),
        );
        let want = reference(
            &case.circuit,
            &env.lib,
            &env.process,
            &env.timing,
            &drives,
            &cfg,
            None,
            Some(&Governor::with_trip_after(n)),
        );
        match (got, want) {
            (Ok(g), Ok(w)) => assert_same_report(&format!("trip after {n}"), &g, &w),
            (Err(g), Err(w)) => {
                assert_eq!(g.work_done, w.work_done, "trip after {n}");
                assert_eq!((g.phase, g.reason), (w.phase, w.reason));
            }
            (g, w) => panic!("trip after {n}: engine {g:?}, reference {w:?}"),
        }
    }
}

/// The table-driven engine must beat the per-event solve by at least
/// this factor on the quick suite (it reads ~8-9x).
const MIN_SPEEDUP: f64 = 3.0;
const ROUNDS: usize = 5;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio guard; run with cargo test --release"
)]
fn table_driven_engine_is_at_least_3x_the_reference() {
    let env = env();
    let cases: Vec<(Circuit, Vec<SignalStats>, SimConfig)> = suite::quick_suite(&env.lib)
        .into_iter()
        .enumerate()
        .map(|(k, case)| {
            let stats = random_stats(case.circuit.primary_inputs().len(), 2000 + k as u64);
            let cfg = quick_config(&stats, 400.0, k as u64);
            (case.circuit, stats, cfg)
        })
        .collect();
    let time_engine = || {
        let t = Instant::now();
        for (c, stats, cfg) in &cases {
            std::hint::black_box(simulate(c, &env.lib, &env.process, &env.timing, stats, cfg));
        }
        t.elapsed().as_secs_f64()
    };
    let time_reference = || {
        let t = Instant::now();
        for (c, stats, cfg) in &cases {
            let drives = stochastic(stats);
            std::hint::black_box(
                reference(
                    c,
                    &env.lib,
                    &env.process,
                    &env.timing,
                    &drives,
                    cfg,
                    None,
                    None,
                )
                .expect("ungoverned"),
            );
        }
        t.elapsed().as_secs_f64()
    };
    let (mut engine, mut oracle) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        engine = engine.min(time_engine());
        oracle = oracle.min(time_reference());
    }
    let speedup = oracle / engine;
    eprintln!(
        "quick suite: reference {:.1} ms, table-driven {:.1} ms ({speedup:.1}x)",
        oracle * 1e3,
        engine * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "table-driven engine only {speedup:.1}x the reference ({:.1} ms vs {:.1} ms)",
        engine * 1e3,
        oracle * 1e3
    );
}
