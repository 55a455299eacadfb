//! The batch workloads: `table3-sim` and `scale-part`.
//!
//! One operation is one netlist, handed over as text, through the whole
//! pipeline: parse → map → validate → compile → statistics → optimize
//! (best and worst orderings) → static timing → (for `table3-sim`)
//! switch-level simulation → report. A run repeats whole rounds of the
//! workload's inputs until `--seconds` have passed.

use std::time::Instant;

use tr_boolean::SignalStats;
use tr_flow::{parse_netlist, sim_duration, Flow, FlowEnv, NetlistFormat, SimOptions, StatsStage};
use tr_netlist::map::MapOptions;
use tr_netlist::{bench, format, generators, map, suite, Circuit, CompiledCircuit, GateId};
use tr_power::scenario::Scenario;
use tr_power::{IncrementalPropagator, PropagationError, PropagationMode};
use tr_reorder::{optimize_with_net_stats, Objective};
use tr_sim::{simulate, SimConfig};

use crate::checks::{self, Rng};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{peak_rss_mb, report_tallies, Args, Outcome, SetupClock, Tally};

/// One workload input: a netlist as text plus everything its run needs.
struct Input {
    name: String,
    text: String,
    format: NetlistFormat,
    /// Gate and primary-input counts of the generator's own circuit.
    gates: usize,
    pis: usize,
    /// Scenario A seed of the primary-input statistics when it is fixed;
    /// `None` draws fresh statistics every round from the run's seed.
    fixed_seed: Option<u64>,
    mode: PropagationMode,
    /// Validate the best and worst orderings with `SimOptions::quick`.
    simulate: bool,
}

/// The statistics (and waveform seed) one operation runs under.
#[derive(Clone, Copy)]
struct Draw {
    scenario_seed: u64,
    sim: Option<SimOptions>,
}

impl Input {
    /// Round `round` of input `index` in a run seeded with `run_seed`.
    /// Fresh statistics every round average the optimizer's quality over
    /// many input scenarios within one run.
    fn draw(&self, run_seed: u64, round: u64, index: usize) -> Draw {
        let mut rng = Rng::new(run_seed ^ (round << 32) ^ index as u64);
        Draw {
            scenario_seed: self.fixed_seed.unwrap_or_else(|| rng.next_u64()),
            sim: self.simulate.then(|| SimOptions::quick(rng.next_u64())),
        }
    }
}

/// ISCAS85-ratio random netlist of `scale-part` (one primary input per
/// 16 gates). Its seed does not depend on `--seed`: it falls back to
/// independent statistics on every run (see README), and a failure kept
/// in the benchmark must be the same in every run.
const ISCAS_RATIO_SEED: u64 = 0x25_000;
const ISCAS_RATIO_GATES: usize = 25_000;

/// Scenario A seed of `scale-part`'s array multiplier. Its partitioned
/// statistics stop at `shrink-regions` under most input statistics but
/// fall back to independent under some (see README), so its statistics
/// are fixed to a seed under which it stops at `shrink-regions`.
const MULT48_SEED: u64 = 48;

fn trnet_input(name: &str, circuit: &Circuit, mode: PropagationMode) -> Input {
    Input {
        name: name.to_string(),
        text: format::write(circuit),
        format: NetlistFormat::Trnet,
        gates: circuit.gates().len(),
        pis: circuit.primary_inputs().len(),
        fixed_seed: None,
        mode,
        simulate: false,
    }
}

fn bench_input(
    name: &str,
    generic: &tr_netlist::GenericCircuit,
    env: &FlowEnv,
    mode: PropagationMode,
) -> Input {
    let mapped = map::map(generic, &env.library, &MapOptions::default());
    Input {
        name: name.to_string(),
        text: bench::write(generic),
        format: NetlistFormat::Bench,
        gates: mapped.gates().len(),
        pis: mapped.primary_inputs().len(),
        fixed_seed: None,
        mode,
        simulate: false,
    }
}

fn inputs(workload: &str, seed: u64, env: &FlowEnv) -> Vec<Input> {
    match workload {
        // The paper's Table 3 flow with switch-level validation, on the
        // suite's quick tier (the standard-suite circuits of at most 150
        // gates), so that one round of simulations stays well under a
        // second.
        "table3-sim" => suite::quick_suite(&env.library)
            .iter()
            .map(|case| Input {
                simulate: true,
                ..trnet_input(&case.name, &case.circuit, PropagationMode::Independent)
            })
            .collect(),
        "scale-part" => {
            let part = PropagationMode::partitioned();
            vec![
                bench_input(
                    "rca4096",
                    &generators::ripple_carry_adder_generic(4096),
                    env,
                    part,
                ),
                Input {
                    fixed_seed: Some(MULT48_SEED),
                    ..bench_input(
                        "mult48",
                        &generators::array_multiplier_generic(48),
                        env,
                        part,
                    )
                },
                trnet_input(
                    "rnd_ctrl_100k",
                    &generators::random_circuit(
                        20,
                        100_000,
                        Rng::new(seed).next_u64(),
                        &env.library,
                    ),
                    part,
                ),
                Input {
                    fixed_seed: Some(ISCAS_RATIO_SEED),
                    ..trnet_input(
                        "rnd_iscas_25k",
                        &generators::rnd_large(ISCAS_RATIO_SEED, ISCAS_RATIO_GATES, &env.library),
                        part,
                    )
                },
            ]
        }
        _ => unreachable!("dispatched on the workload name"),
    }
}

/// Statistics that fell back to the independent backend when an exact
/// one was asked for count as a failed operation.
fn fell_back(asked: PropagationMode, got: &str) -> bool {
    asked != PropagationMode::Independent && got == "indep"
}

/// What a run keeps of one operation for the output checks.
struct Produced {
    draw: Draw,
    best: Circuit,
    best_w: f64,
    worst_w: Option<f64>,
    sim_w: Option<(f64, f64)>,
    gates: usize,
    pis: usize,
}

/// Per-input results gathered over a run.
#[derive(Default)]
struct InputRun {
    tally: Tally,
    latencies_s: Vec<f64>,
    reductions_pct: Vec<f64>,
    first: Option<Produced>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (env, mut setup) = SetupClock::start();
    let t_inputs = Instant::now();
    let inputs = inputs(&args.workload, args.seed, &env);
    let inputs_s = t_inputs.elapsed().as_secs_f64();
    let mut tracer = Tracer::new();
    let mut runs: Vec<InputRun> = inputs.iter().map(|_| InputRun::default()).collect();
    let mut layer = LayerCounts::default();

    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        for (i, (inp, run)) in inputs.iter().zip(runs.iter_mut()).enumerate() {
            let draw = inp.draw(args.seed, rounds, i);
            let t = Instant::now();
            let result = if args.trace {
                tracer.span("op", |t| traced_op(t, &env, inp, draw, &mut layer))
            } else {
                untraced_op(&env, inp, draw)
            };
            // The traced pass builds a second propagator outside its
            // spans (see `traced_op`); that work is not the operation's.
            let dt = t.elapsed().as_secs_f64() - std::mem::take(&mut layer.untimed_s);
            run.latencies_s.push(dt);
            let ok = match result {
                Ok((produced, reduction, prob_mode)) => {
                    let ok = !fell_back(inp.mode, &prob_mode);
                    if ok {
                        run.reductions_pct.push(reduction);
                    }
                    if run.first.is_none() && ok {
                        run.first = Some(produced);
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("  {}: {e}", inp.name);
                    false
                }
            };
            run.tally.record(ok);
            setup.tick();
        }
        rounds += 1;
    }

    let measured_s = start.elapsed().as_secs_f64();
    let t_checks = Instant::now();
    let correct = check_outputs(&env, &inputs, &mut runs, args.seed);
    eprintln!(
        "{} ({}): inputs {inputs_s:.2} s, {rounds} rounds in {measured_s:.2} s, checks {:.2} s",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        t_checks.elapsed().as_secs_f64()
    );
    let total = report_tallies(
        inputs
            .iter()
            .zip(&runs)
            .map(|(i, r)| (i.name.as_str(), &r.tally)),
    );
    // Every time is taken per input as the mean over the run's rounds:
    // on a shared host the speed of the same operation drifts by a fifth
    // and more over tens of seconds, and a mean over the whole run
    // averages the drift where a median would pick one side of it. (The
    // fastest repeat, which `serve-mix` uses, would be the cheapest of
    // the round's fresh statistics here, not the typical cost.)
    // Throughput: gates of the inputs that succeeded over the time of a
    // round of all inputs, failed ones included.
    let mean_s: Vec<f64> = runs.iter().map(|r| mean(&r.latencies_s)).collect();
    let ok_gates: usize = inputs
        .iter()
        .zip(&runs)
        .filter(|(_, r)| r.tally.failed == 0)
        .map(|(i, _)| i.gates)
        .sum();
    let gates_per_s = ok_gates as f64 / mean_s.iter().sum::<f64>();
    let metrics = if args.trace {
        tracer.print_summary();
        layer.metrics(&tracer, gates_per_s)
    } else {
        // Latency of one operation: the median across the inputs that
        // succeeded (p50) and the slowest of them (the tail; a run holds
        // too few operations per input for a percentile over single
        // operations).
        let per_input_ms: Vec<f64> = runs
            .iter()
            .zip(&mean_s)
            .filter(|(r, _)| r.tally.failed == 0)
            .map(|(_, m)| 1.0e3 * m)
            .collect();
        let reductions: Vec<f64> = runs.iter().flat_map(|r| r.reductions_pct.clone()).collect();
        vec![
            ("setup_s", setup.median_s()),
            ("gates_per_s", gates_per_s),
            ("latency_p50_ms", median(&per_input_ms)),
            (
                "latency_p99_ms",
                per_input_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("peak_rss_mb", peak_rss_mb()),
            ("power_reduction_pct", mean(&reductions)),
        ]
    };
    Ok(Outcome {
        correct,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}

type OpResult = Result<(Produced, f64, String), String>;

/// One operation as a user runs it: `parse_netlist` plus `Flow::run_full`
/// and the JSON report.
fn untraced_op(env: &FlowEnv, inp: &Input, draw: Draw) -> OpResult {
    let circuit = parse_netlist(
        &inp.name,
        &inp.text,
        inp.format,
        &env.library,
        &MapOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut flow = Flow::from_circuit(circuit)
        .scenario(Scenario::a(), draw.scenario_seed)
        .prob(inp.mode)
        .threads(1);
    if let Some(sim) = draw.sim {
        flow = flow.simulate(sim);
    }
    let (report, best) = flow.run_full(env).map_err(|e| e.to_string())?;
    std::hint::black_box(report.to_json());
    let produced = Produced {
        draw,
        best,
        best_w: report.power.model_after_w,
        worst_w: report.power.model_worst_w,
        sim_w: report
            .sim
            .as_ref()
            .and_then(|s| Some((s.best_w?, s.worst_w?))),
        gates: report.gates,
        pis: report.inputs,
    };
    Ok((produced, report.power.reduction_percent, report.prob_mode))
}

/// Layer quantities the traced pass reads off the propagator and the
/// optimizer, accumulated per operation.
#[derive(Default)]
struct LayerCounts {
    ops: u64,
    gates_loaded: usize,
    peak_live_nodes: usize,
    cache_hit_rates: Vec<f64>,
    repropagations: usize,
    part_regions: Vec<f64>,
    part_approx: Vec<f64>,
    ladder_rungs: usize,
    changed_gates: usize,
    sim_transitions: u64,
    sim_calls: u64,
    /// Time of the current operation spent outside its spans on work the
    /// program does not do (taken off the operation's latency).
    untimed_s: f64,
}

impl LayerCounts {
    fn metrics(&self, t: &Tracer, traced_gates_per_s: f64) -> Vec<(&'static str, f64)> {
        let per_op = |x: f64| x / self.ops.max(1) as f64;
        let load_s = t.self_s("netlist.parse")
            + t.self_s("netlist.map")
            + t.self_s("netlist.validate")
            + t.self_s("netlist.compile");
        let sim_s = t.self_s("sim.simulate");
        vec![
            ("netlist.parse_ms", t.per_call_ms("netlist.parse")),
            ("netlist.map_ms", t.per_call_ms("netlist.map")),
            ("netlist.validate_ms", t.per_call_ms("netlist.validate")),
            ("netlist.compile_ms", t.per_call_ms("netlist.compile")),
            (
                "netlist.load_gates_per_s",
                self.gates_loaded as f64 / load_s,
            ),
            ("power.stats_ms", t.per_call_ms("power.stats")),
            ("power.bdd_peak_live_nodes", self.peak_live_nodes as f64),
            ("power.bdd_cache_hit_rate", mean(&self.cache_hit_rates)),
            ("power.refresh_ms", t.per_call_ms("power.refresh")),
            ("power.repropagations", per_op(self.repropagations as f64)),
            ("power.part_regions", mean(&self.part_regions)),
            ("power.part_approx_fraction", mean(&self.part_approx)),
            ("power.ladder_rungs", per_op(self.ladder_rungs as f64)),
            ("reorder.optimize_ms", t.per_call_ms("reorder.optimize")),
            ("reorder.changed_gates", per_op(self.changed_gates as f64)),
            ("timing.sta_ms", t.per_call_ms("timing.sta")),
            ("sim.simulate_ms", t.per_call_ms("sim.simulate")),
            (
                "sim.transitions",
                self.sim_transitions as f64 / self.sim_calls.max(1) as f64,
            ),
            (
                "sim.transitions_per_s",
                if sim_s > 0.0 {
                    self.sim_transitions as f64 / sim_s
                } else {
                    0.0
                },
            ),
            ("trace.gates_per_s", traced_gates_per_s),
        ]
    }
}

/// The gates whose configuration differs between `before` and `after`.
fn changed_gates(before: &Circuit, after: &Circuit) -> Vec<GateId> {
    before
        .gates()
        .iter()
        .zip(after.gates())
        .enumerate()
        .filter(|(_, (b, a))| b.config != a.config)
        .map(|(i, _)| GateId(i))
        .collect()
}

/// How far down the flow's degradation ladder the statistics went: 0
/// on the backend asked for, 1 on a degraded build of it
/// (`shrink-regions`), 2 on the independent fallback.
fn ladder_depth(asked: PropagationMode, stage: &StatsStage) -> usize {
    if !stage.degraded() {
        0
    } else if fell_back(asked, stage.prob_mode().as_str()) {
        2
    } else {
        1
    }
}

/// The program's own statistics stage for `circuit` under `mode` and
/// Scenario A statistics drawn from `seed`.
fn prepare_stats(
    env: &FlowEnv,
    circuit: &Circuit,
    mode: PropagationMode,
    seed: u64,
) -> Result<StatsStage, String> {
    Flow::from_circuit(Circuit::new("stats"))
        .scenario(Scenario::a(), seed)
        .prob(mode)
        .threads(1)
        .prepare_stats(env, circuit)
        .map_err(|e| e.to_string())
}

/// One operation composed from the layers' public functions, each call
/// inside a span: the same work as [`untraced_op`], attributed by layer.
fn traced_op(
    t: &mut Tracer,
    env: &FlowEnv,
    inp: &Input,
    draw: Draw,
    layer: &mut LayerCounts,
) -> OpResult {
    let lib = &env.library;
    let circuit = match inp.format {
        NetlistFormat::Bench => {
            let generic = t
                .span("netlist.parse", |_| bench::parse(&inp.name, &inp.text))
                .map_err(|e| e.to_string())?;
            t.span("netlist.map", |_| {
                map::map(&generic, lib, &MapOptions::default())
            })
        }
        _ => t
            .span("netlist.parse", |_| format::parse(&inp.text, lib))
            .map_err(|e| e.to_string())?,
    };
    t.span("netlist.validate", |_| circuit.validate(lib))
        .map_err(|e| e.to_string())?;
    let compiled = t
        .span("netlist.compile", |_| {
            CompiledCircuit::compile(&circuit, lib)
        })
        .map_err(|e| e.to_string())?;
    std::hint::black_box(compiled);
    layer.ops += 1;
    layer.gates_loaded += circuit.gates().len();

    let pi = Scenario::a().input_stats(circuit.primary_inputs().len(), draw.scenario_seed);
    let stage = t.span("power.stats", |_| {
        prepare_stats(env, &circuit, inp.mode, draw.scenario_seed)
    })?;
    let mode = stage.prob_mode();
    layer.ladder_rungs += ladder_depth(inp.mode, &stage);
    let net_stats = stage.net_stats().to_vec();
    // The stage keeps its propagator to itself, so the refresh after
    // optimization runs on an equal one built here under the backend the
    // stage ended on, outside every span and off the operation's clock.
    let t_rebuild = Instant::now();
    let mut prop =
        IncrementalPropagator::new(&circuit, lib, &pi, mode).map_err(|e| e.to_string())?;
    layer.untimed_s += t_rebuild.elapsed().as_secs_f64();

    let mut scratch = tr_power::Scratch::new();
    let mut best = t.span("reorder.optimize", |_| {
        optimize_with_net_stats(
            &circuit,
            lib,
            &env.model,
            &net_stats,
            Objective::MinimizePower,
            &mut scratch,
        )
    });
    let worst = t.span("reorder.optimize", |_| {
        optimize_with_net_stats(
            &circuit,
            lib,
            &env.model,
            &net_stats,
            Objective::MaximizePower,
            &mut scratch,
        )
    });
    layer.changed_gates += best.changed_gates;
    if mode != PropagationMode::Independent && best.changed_gates > 0 {
        let dirty = changed_gates(&circuit, &best.circuit);
        best.power_after = t
            .span("power.refresh", |_| {
                prop.refresh(&best.circuit, lib, &dirty)?;
                Ok::<_, PropagationError>(
                    tr_power::circuit_power(&best.circuit, &env.model, prop.net_stats()).total,
                )
            })
            .map_err(|e| e.to_string())?;
    }
    layer.repropagations += prop.repropagations();
    if let Some(engine) = prop.engine_stats() {
        layer.peak_live_nodes = layer.peak_live_nodes.max(engine.gc.peak_live);
        layer.cache_hit_rates.push(engine.caches.hit_rate());
    }
    if let Some((regions, _cut, approx)) = prop.partition_summary() {
        layer.part_regions.push(regions as f64);
        layer.part_approx.push(approx);
    }
    t.span("timing.sta", |_| {
        std::hint::black_box((
            tr_timing::critical_path_delay(&circuit, &env.timing),
            tr_timing::critical_path_delay(&best.circuit, &env.timing),
        ))
    });
    let sim_w = draw.sim.map(|opts| {
        let cfg = sim_config(&pi, &opts);
        let mut sim = |c: &Circuit| {
            let r = t.span("sim.simulate", |_| {
                simulate(c, lib, &env.process, &env.timing, &pi, &cfg)
            });
            layer.sim_calls += 1;
            layer.sim_transitions += r.net_transitions.iter().sum::<u64>();
            r.power
        };
        (sim(&best.circuit), sim(&worst.circuit))
    });
    let reduction = best.reduction_percent();
    let produced = Produced {
        draw,
        gates: circuit.gates().len(),
        pis: circuit.primary_inputs().len(),
        best: best.circuit,
        best_w: best.power_after,
        worst_w: Some(worst.power_after),
        sim_w,
    };
    Ok((produced, reduction, mode.as_str().to_string()))
}

/// The simulator configuration the flow derives from `SimOptions`.
fn sim_config(pi: &[SignalStats], opts: &SimOptions) -> SimConfig {
    let duration = match opts.duration {
        tr_flow::DurationPolicy::Auto { target_toggles } => sim_duration(pi, target_toggles),
        tr_flow::DurationPolicy::Fixed(d) => d,
    };
    SimConfig {
        duration,
        warmup: duration * opts.warmup_frac,
        seed: opts.seed,
    }
}

/// Runs the output checks on the first successful operation of every
/// input (rounds differ only in their input statistics). An input that
/// fails a check has all its operations counted as failed. Returns
/// whether every check passed.
fn check_outputs(env: &FlowEnv, inputs: &[Input], runs: &mut [InputRun], seed: u64) -> bool {
    let mut correct = true;
    let mut sim_gaps = Vec::new();
    for (i, (inp, run)) in inputs.iter().zip(runs.iter_mut()).enumerate() {
        let Some(out) = &run.first else { continue };
        let verdict = check_one(env, inp, out, seed.wrapping_add(i as u64));
        match verdict {
            Ok(gap) => sim_gaps.extend(gap),
            Err(e) => {
                eprintln!("  CHECK FAILED {}: {e}", inp.name);
                correct = false;
                run.tally.failed = run.tally.attempted;
            }
        }
    }
    // Table 3's S column: on the suite average the best ordering must
    // simulate below the worst one.
    if !sim_gaps.is_empty() && mean(&sim_gaps) <= 0.0 {
        eprintln!("  CHECK FAILED: simulated best ordering not below worst on average");
        correct = false;
    }
    correct
}

/// Checks one input's outputs. Returns the simulated relative best-to-
/// worst gap for `table3-sim` inputs.
fn check_one(env: &FlowEnv, inp: &Input, out: &Produced, seed: u64) -> Result<Option<f64>, String> {
    let lib = &env.library;
    if out.gates != inp.gates || out.pis != inp.pis {
        return Err(format!(
            "{} gates / {} inputs, the generator made {} / {}",
            out.gates, out.pis, inp.gates, inp.pis
        ));
    }
    let original = parse_netlist(
        &inp.name,
        &inp.text,
        inp.format,
        lib,
        &MapOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    checks::same_function(env, &original, &out.best)?;
    let pi = Scenario::a().input_stats(original.primary_inputs().len(), out.draw.scenario_seed);
    if inp.mode == PropagationMode::Independent {
        let stats = checks::independent_stats(env, &original, &pi);
        checks::oracle_sums(env, &original, &stats, out.best_w, out.worst_w)?;
    } else {
        // The partitioned statistics have no independent oracle at this
        // size; the optimizer's choices are judged against the reference
        // evaluator under the program's own statistics.
        let stage = prepare_stats(env, &original, inp.mode, out.draw.scenario_seed)?;
        checks::oracle_sample(env, &out.best, stage.net_stats(), 64, seed)?;
    }
    let Some(opts) = out.draw.sim else {
        return Ok(None);
    };
    // Re-simulate the best and worst orderings: no rail conflicts, and
    // the same power the run reported.
    let (best_w, worst_w) = out.sim_w.ok_or("no simulation in the report")?;
    let cfg = sim_config(&pi, &opts);
    let worst = tr_reorder::optimize(&original, lib, &env.model, &pi, Objective::MaximizePower);
    for (circuit, reported) in [(&out.best, best_w), (&worst.circuit, worst_w)] {
        let r = simulate(circuit, lib, &env.process, &env.timing, &pi, &cfg);
        if r.conflicts > 0 {
            return Err(format!("{} rail conflicts in simulation", r.conflicts));
        }
        if (r.power - reported).abs() > 1e-9 * reported.abs() {
            return Err(format!(
                "simulated {:e} W, reported {reported:e} W",
                r.power
            ));
        }
    }
    Ok(Some((worst_w - best_w) / worst_w))
}
