//! `tr-opt` — the command-line front end of the transistor-reordering
//! optimizer.
//!
//! ```text
//! tr-opt optimize <netlist> [--scenario a|b] [--seed N] [--prob indep|bdd|part|monte]
//!                 [--region-nodes N] [--cut-width N]
//!                 [--objective min|max] [--delay-bound none|local|slack]
//!                 [--simulate] [--vcd FILE] [--out FILE] [--trace FILE] [--json]
//! tr-opt analyze  <netlist> [--scenario a|b] [--seed N] [--prob indep|bdd|part|monte]
//!                 [--trace FILE]
//! tr-opt batch    <dir|files...> [--suite small|quick|full|large] [--scenarios M]
//!                 [--prob indep|bdd|part|monte] [--report json|csv] [--simulate]
//!                 [--threads N] [--trace FILE]
//! tr-opt library
//! ```
//!
//! Every command is a thin veneer over `tr_flow`: `optimize` runs one
//! [`Flow`], `batch` stamps a `Flow` template over circuits × scenarios
//! on a thread pool. `<netlist>` may be ISCAS `.bench`, combinational
//! `.blif` (both get technology-mapped onto the Table 2 library) or the
//! native mapped format `.trnet` written by `--out`.
//!
//! Exit codes: 0 success, 1 pipeline failure (bad netlist, I/O), 2
//! usage error, 3 batch completed with failed cells (partial results
//! are on stdout, the failure summary on stderr).

use std::process::ExitCode;
use std::time::Instant;
use transistor_reordering::flow::{
    load_path, max_probability_deviation, parse_prob_mode, BatchJob, BatchRunner, DelayBound,
    DurationPolicy, Error, Flow, FlowEnv, FlowReport, PropagationMode, RunBudget, ScenarioSpec,
    SimOptions,
};
use transistor_reordering::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "optimize" => cmd_optimize(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "library" => cmd_library(),
        "--version" | "-V" | "version" => {
            println!("tr-opt {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Error::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
tr-opt — low-power transistor reordering (Musoll & Cortadella, DATE 1996)

USAGE:
  tr-opt optimize <netlist> [options]   pick per-gate transistor orderings
  tr-opt analyze  <netlist> [options]   report power/delay without changes
  tr-opt batch    <inputs> [options]    run the flow over circuits × scenarios
  tr-opt serve    [options]             run the optimization daemon (HTTP)
  tr-opt library                        print the Table 2 cell library
  tr-opt --version                      print the version

OPTIONS (optimize/analyze):
  --scenario a|b        input statistics (default a: random P,D)
  --seed N              RNG seed for scenario A and the simulator
  --prob indep|bdd|part|monte
                        probability backend (default indep; bdd = exact
                        ROBDD statistics, reconvergence handled exactly;
                        part = cone-partitioned BDD, exact within regions)
  --region-nodes N      partitioned backend: live-node budget per region
                        (default 8192; only meaningful with --prob part)
  --cut-width N         partitioned backend: max cut nets per region
                        (default 24; 0 = never cut, exactly full-BDD;
                        only meaningful with --prob part)
  --objective min|max   minimize (default) or maximize power
  --delay-bound MODE    none (default) | local | slack
  --fixpoint            iterate optimize ↔ re-propagate dirty cones until
                        no gate changes (reports iterations and the
                        stale-vs-fresh power discrepancy; --delay-bound
                        none only)
  --threads N           optimizer worker threads (default: all cores;
                        applies to --delay-bound none)
  --simulate            validate with the switch-level simulator
  --vcd FILE            dump a simulation waveform (implies --simulate)
  --out FILE            write the optimized netlist (native format)
  --trace FILE          write a Chrome trace-event JSON self-profile of
                        the run (open in Perfetto or chrome://tracing;
                        summarize with `trace_summary FILE`)
  --json                print the full flow report as JSON (optimize only)
  --deadline-ms N       wall-clock budget for the run (optimize only)
  --node-budget N       live-node budget for the exact BDD backend
                        (optimize only)
  --degrade on|off      on (default): a blown budget degrades gracefully
                        (exact → info-measure reorder retry → independent
                        fallback; the report records `degraded` and the
                        ladder rung). off: a blown budget is an error

OPTIONS (batch):
  <inputs>              netlist files and/or directories of netlists
  --suite small|quick|full|large   use the built-in benchmark suite
                        instead (small = the 13-circuit ≤100-gate set;
                        large = the ≥1000-gate stress set)
  --scenarios M         comma-separated matrix of a:SEED and b:CLOCK_HZ
                        entries (default a:1,a:2,b:2e7,b:5e7)
  --report json|csv     one line per (circuit, scenario) on stdout
                        (default json)
  --prob indep|bdd|part|monte as above
  --region-nodes N      as above
  --cut-width N         as above
  --objective min|max   as above
  --delay-bound MODE    as above
  --fixpoint            as above
  --simulate            switch-level-validate every cell (quick profile)
  --threads N           worker threads (default: all cores)
  --deadline-ms N       per-cell wall-clock budget
  --node-budget N       per-cell BDD live-node budget
  --degrade on|off      as above (per cell)
  --trace FILE          one merged self-profile for the whole batch, every
                        worker on its own named track

OPTIONS (serve):
  --addr HOST:PORT      listen address (default 127.0.0.1:7878; :0 picks
                        a free port, printed on startup)
  --threads N           worker threads (default: all cores)
  --queue-depth N       admission queue bound; excess connections get 429
                        (default 64)
  --max-deadline-ms N   cap on per-request deadline_ms; requests without
                        one inherit the cap (default: uncapped)
  --max-node-budget N   cap on per-request node_budget (default: uncapped)
  --max-request-threads N
                        cap on per-request optimizer threads (default 4)
  --cache-nodes N       warm-cache budget, live BDD nodes (default 4e6)
  --cache-bytes N       warm-cache budget, approx heap bytes (default 256 MiB)
  --trace FILE          write a Chrome trace of the server's whole life
                        (accept loop, queue waits, worker spans) on exit
  Endpoints: POST /optimize /analyze /batch (JSON; batch streams JSONL),
  GET /healthz /metrics. SIGTERM/SIGINT drain in-flight work, then exit.

FORMATS: .bench (ISCAS), .blif (combinational subset), .trnet (native)";

struct Options {
    path: String,
    scenario: Scenario,
    seed: u64,
    prob: Option<String>,
    region_nodes: Option<usize>,
    cut_width: Option<usize>,
    objective: Objective,
    delay_bound: DelayBound,
    fixpoint: bool,
    threads: usize,
    simulate: bool,
    vcd: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    json: bool,
    budget: RunBudget,
    degrade: bool,
}

/// Default worker count: everything the machine offers.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The value following a flag, or a usage error naming the flag.
fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, Error> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| Error::Usage(format!("missing value for {flag}")))
}

/// Shared `--objective` parsing for `optimize`/`analyze`/`batch`.
fn parse_objective(value: Option<&str>) -> Result<Objective, Error> {
    match value {
        Some("min") => Ok(Objective::MinimizePower),
        Some("max") => Ok(Objective::MaximizePower),
        other => Err(Error::Usage(format!("bad --objective {other:?}"))),
    }
}

/// Shared `--degrade on|off` parsing.
fn parse_degrade(value: Option<&str>) -> Result<bool, Error> {
    match value {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        other => Err(Error::Usage(format!(
            "bad --degrade {other:?} (want on|off)"
        ))),
    }
}

/// Shared `--deadline-ms`/`--node-budget` parsing onto a [`RunBudget`].
fn parse_budget_flag(
    budget: &mut RunBudget,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<(), Error> {
    let value = flag_value(it, flag)?;
    match flag {
        "--deadline-ms" => {
            let ms: u64 = value
                .parse()
                .map_err(|e| Error::Usage(format!("bad --deadline-ms: {e}")))?;
            *budget = budget.deadline_ms(ms);
        }
        "--node-budget" => {
            let nodes: usize = value
                .parse()
                .map_err(|e| Error::Usage(format!("bad --node-budget: {e}")))?;
            if nodes == 0 {
                return Err(Error::Usage("--node-budget must be at least 1".into()));
            }
            *budget = budget.bdd_nodes(nodes);
        }
        other => unreachable!("not a budget flag: {other}"),
    }
    Ok(())
}

/// Shared `--threads` parsing (must be a positive integer).
fn parse_threads(it: &mut std::slice::Iter<'_, String>) -> Result<usize, Error> {
    let threads: usize = flag_value(it, "--threads")?
        .parse()
        .map_err(|e| Error::Usage(format!("bad --threads: {e}")))?;
    if threads == 0 {
        return Err(Error::Usage("--threads must be at least 1".into()));
    }
    Ok(threads)
}

/// Shared `--region-nodes`/`--cut-width` value parsing.
fn parse_usize_flag(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, Error> {
    flag_value(it, flag)?
        .parse()
        .map_err(|e| Error::Usage(format!("bad {flag}: {e}")))
}

/// Applies `--region-nodes`/`--cut-width` overrides to a parsed
/// propagation mode. The flags only shape the partitioned backend, so
/// combining them with any other `--prob` is a usage error rather than
/// a silent no-op.
fn apply_partition_overrides(
    mode: &mut PropagationMode,
    region_nodes: Option<usize>,
    cut_width: Option<usize>,
) -> Result<(), Error> {
    if region_nodes.is_none() && cut_width.is_none() {
        return Ok(());
    }
    match mode {
        PropagationMode::PartitionedBdd {
            max_region_nodes,
            max_cut_width,
        } => {
            if let Some(n) = region_nodes {
                *max_region_nodes = n;
            }
            if let Some(w) = cut_width {
                *max_cut_width = w;
            }
            Ok(())
        }
        _ => Err(Error::Usage(
            "--region-nodes/--cut-width require --prob part".into(),
        )),
    }
}

fn parse_options(args: &[String]) -> Result<Options, Error> {
    let mut opts = Options {
        path: String::new(),
        scenario: Scenario::a(),
        seed: 1,
        prob: None,
        region_nodes: None,
        cut_width: None,
        objective: Objective::MinimizePower,
        delay_bound: DelayBound::Unbounded,
        fixpoint: false,
        threads: default_threads(),
        simulate: false,
        vcd: None,
        out: None,
        trace: None,
        json: false,
        budget: RunBudget::default(),
        degrade: true,
    };
    let usage = |msg: String| Error::Usage(msg);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => {
                opts.scenario = match it.next().map(String::as_str) {
                    Some("a") | Some("A") => Scenario::a(),
                    Some("b") | Some("B") => Scenario::b(),
                    other => return Err(usage(format!("bad --scenario {other:?}"))),
                }
            }
            "--seed" => {
                opts.seed = flag_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| usage(format!("bad --seed: {e}")))?;
            }
            "--prob" => opts.prob = Some(flag_value(&mut it, "--prob")?.to_string()),
            "--region-nodes" => {
                opts.region_nodes = Some(parse_usize_flag(&mut it, "--region-nodes")?);
            }
            "--cut-width" => opts.cut_width = Some(parse_usize_flag(&mut it, "--cut-width")?),
            "--objective" => opts.objective = parse_objective(it.next().map(String::as_str))?,
            "--delay-bound" => {
                opts.delay_bound = DelayBound::parse(flag_value(&mut it, "--delay-bound")?)?;
            }
            "--fixpoint" => opts.fixpoint = true,
            "--threads" => opts.threads = parse_threads(&mut it)?,
            "--simulate" => opts.simulate = true,
            "--vcd" => {
                opts.vcd = Some(flag_value(&mut it, "--vcd")?.to_string());
                opts.simulate = true;
            }
            "--out" => opts.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--trace" => opts.trace = Some(flag_value(&mut it, "--trace")?.to_string()),
            "--json" => opts.json = true,
            flag @ ("--deadline-ms" | "--node-budget") => {
                parse_budget_flag(&mut opts.budget, flag, &mut it)?;
            }
            "--degrade" => opts.degrade = parse_degrade(it.next().map(String::as_str))?,
            other if !other.starts_with('-') && opts.path.is_empty() => {
                opts.path = other.to_string();
            }
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }
    if opts.path.is_empty() {
        return Err(usage("missing <netlist> argument".into()));
    }
    Ok(opts)
}

impl Options {
    /// Resolves `--prob` after all flags are parsed (so `--seed` applies
    /// to the Monte Carlo backend regardless of flag order).
    fn prob_mode(&self) -> Result<PropagationMode, Error> {
        let mut mode = match &self.prob {
            Some(s) => parse_prob_mode(s, self.seed)?,
            None => PropagationMode::Independent,
        };
        apply_partition_overrides(&mut mode, self.region_nodes, self.cut_width)?;
        Ok(mode)
    }
}

fn cmd_optimize(args: &[String]) -> Result<(), Error> {
    let opts = parse_options(args)?;
    let env = FlowEnv::new();

    let mut flow = Flow::open(&opts.path)
        .scenario(opts.scenario, opts.seed)
        .prob(opts.prob_mode()?)
        .objective(opts.objective)
        .delay_bound(opts.delay_bound)
        .fixpoint(opts.fixpoint)
        .threads(opts.threads)
        .budget(opts.budget)
        .degrade(opts.degrade)
        .headroom(false);
    if opts.simulate {
        // The waveform dump replaces the before/after comparison run.
        let sim = SimOptions::thorough(opts.seed ^ 0xC0FFEE);
        flow = flow.simulate(if opts.vcd.is_some() {
            sim
        } else {
            sim.with_baseline()
        });
    }
    if let Some(vcd_path) = &opts.vcd {
        flow = flow.vcd(vcd_path);
    }
    if let Some(out) = &opts.out {
        flow = flow.write_netlist(out);
    }
    if let Some(trace) = &opts.trace {
        flow = flow.trace(trace);
    }

    let (report, circuit) = flow.run_full(&env)?;
    if opts.json {
        println!("{}", report.to_json());
        return Ok(());
    }
    println!(
        "loaded: {} ({} gates, {} inputs, {} outputs, depth {})",
        report.circuit, report.gates, report.inputs, report.outputs, report.depth
    );
    println!(
        "model power: {:.4e} W → {:.4e} W ({:+.1}%), {} gates retuned",
        report.power.model_before_w,
        report.power.model_after_w,
        -report.power.reduction_percent,
        report.changed_gates
    );
    if let Some(err) = report.independence_error {
        println!(
            "probability backend: {} (independence error up to {:.3e} in P)",
            report.prob_mode, err
        );
    }
    if report.degraded {
        println!(
            "degraded: {} ({})",
            report.degrade_rung.as_deref().unwrap_or("?"),
            report.degrade_reason.as_deref().unwrap_or("?")
        );
    }
    if let Some(iters) = report.fixpoint_iters {
        println!(
            "fixpoint: {iters} iterations, {} cone re-propagations",
            report.repropagations
        );
    }
    if let Some(disc) = report.stale_power_discrepancy_w {
        println!("stale-statistics discrepancy: {disc:.3e} W");
    }
    println!(
        "critical path: {:.3} ns → {:.3} ns ({:+.1}%)",
        report.delay.critical_path_before_s * 1e9,
        report.delay.critical_path_after_s * 1e9,
        report.delay.increase_percent
    );
    println!("{}", instance_demand(&circuit, &env.library).render());
    if let Some(sim) = &report.sim {
        match (&opts.vcd, sim.baseline_w) {
            (Some(vcd_path), _) => println!(
                "simulated: {:.4e} W over {:.0} µs; waveform → {vcd_path}",
                sim.optimized_w,
                (sim.duration_s - sim.warmup_s) * 1e6
            ),
            (None, Some(before)) => println!(
                "simulated: {:.4e} W → {:.4e} W ({:+.1}%)",
                before,
                sim.optimized_w,
                100.0 * (sim.optimized_w - before) / before
            ),
            (None, None) => println!("simulated: {:.4e} W", sim.optimized_w),
        }
    }
    if let Some(out) = &opts.out {
        println!("netlist → {out}");
    }
    if let Some(trace) = &opts.trace {
        println!("trace → {trace}");
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), Error> {
    let opts = parse_options(args)?;
    if opts.json {
        return Err(Error::Usage(
            "--json is only supported by `tr-opt optimize` (analyze prints text)".into(),
        ));
    }
    if !opts.budget.is_unbounded() {
        return Err(Error::Usage(
            "--deadline-ms/--node-budget are only supported by `tr-opt optimize` and \
             `tr-opt batch`"
                .into(),
        ));
    }
    let env = FlowEnv::new();
    // Analyze bypasses `Flow`, so the self-profile is managed here: the
    // backend spans (BDD builds, GCs, region evaluations) still land in
    // the file.
    if opts.trace.is_some() {
        tr_trace::reset();
        tr_trace::enable();
        tr_trace::set_thread_name("analyze-main");
    }
    let circuit = {
        let _load = tr_trace::span!("analyze.load");
        load_path(
            std::path::Path::new(&opts.path),
            &env.library,
            &Default::default(),
        )?
    };
    let stats = opts
        .scenario
        .input_stats(circuit.primary_inputs().len(), opts.seed);
    println!("{circuit}");
    let mut hist: Vec<(String, usize)> = circuit.cell_histogram().into_iter().collect();
    hist.sort();
    let summary: Vec<String> = hist.iter().map(|(n, c)| format!("{n}×{c}")).collect();
    println!("cells: {}", summary.join(" "));
    let mode = opts.prob_mode()?;
    let stats_span = tr_trace::span!("analyze.stats", gates = circuit.gates().len());
    // One propagator: its statistics price the circuit, and `--fixpoint`
    // keeps refreshing the same engine.
    let mut propagator = IncrementalPropagator::new(&circuit, &env.library, &stats, mode)?;
    if mode != PropagationMode::Independent {
        let indep = propagate(&circuit, &env.library, &stats);
        let err = max_probability_deviation(propagator.net_stats(), &indep);
        println!("probability backend: {mode} (independence error up to {err:.3e} in P)");
    }
    drop(stats_span);
    let power = circuit_power(&circuit, &env.model, propagator.net_stats());
    println!(
        "model power: {:.4e} W (output nodes {:.4e} W, internal {:.4e} W)",
        power.total,
        power.output_total(),
        power.internal_total()
    );
    println!(
        "critical path: {:.3} ns over depth {}",
        critical_path_delay(&circuit, &env.timing) * 1e9,
        circuit.logic_depth()
    );
    if opts.fixpoint {
        // Read-only: run the fixed-point loop to report its convergence
        // behavior without touching the netlist.
        let rep = optimize_to_fixpoint(
            &circuit,
            &env.library,
            &env.model,
            &mut propagator,
            FixpointOptions {
                objective: opts.objective,
                ..FixpointOptions::default()
            },
            None,
        )?;
        println!(
            "fixpoint: {} after {} iterations ({} cone re-propagations, {} nets re-derived)",
            if rep.converged() {
                "converged"
            } else {
                "hit the iteration cap"
            },
            rep.iterations,
            rep.repropagations,
            rep.refreshed_nets
        );
        println!(
            "fixpoint power: {:.4e} W → {:.4e} W, stale-statistics discrepancy {:.3e} W",
            rep.result.power_before,
            rep.result.power_after,
            rep.stale_discrepancy_w()
        );
    }
    if let Some(trace) = &opts.trace {
        tr_trace::disable();
        tr_trace::write_chrome_trace(trace).map_err(|e| Error::io(trace.as_str(), e))?;
        println!("trace → {trace}");
    }
    Ok(())
}

/// Batch report format.
enum ReportFormat {
    Json,
    Csv,
}

fn cmd_batch(args: &[String]) -> Result<(), Error> {
    let usage = |msg: String| Error::Usage(msg);
    let mut inputs: Vec<String> = Vec::new();
    let mut suite_name: Option<String> = None;
    let mut scenarios: Option<String> = None;
    let mut report_format = ReportFormat::Json;
    let mut prob: Option<String> = None;
    let mut region_nodes: Option<usize> = None;
    let mut cut_width: Option<usize> = None;
    let mut objective = Objective::MinimizePower;
    let mut delay_bound = DelayBound::Unbounded;
    let mut fixpoint = false;
    let mut simulate = false;
    let mut threads = default_threads();
    let mut budget = RunBudget::default();
    let mut degrade = true;
    let mut trace: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => suite_name = Some(flag_value(&mut it, "--suite")?.to_string()),
            "--scenarios" => scenarios = Some(flag_value(&mut it, "--scenarios")?.to_string()),
            "--report" => {
                report_format = match it.next().map(String::as_str) {
                    Some("json") => ReportFormat::Json,
                    Some("csv") => ReportFormat::Csv,
                    other => return Err(usage(format!("bad --report {other:?}"))),
                }
            }
            "--prob" => prob = Some(flag_value(&mut it, "--prob")?.to_string()),
            "--region-nodes" => {
                region_nodes = Some(parse_usize_flag(&mut it, "--region-nodes")?);
            }
            "--cut-width" => cut_width = Some(parse_usize_flag(&mut it, "--cut-width")?),
            "--objective" => objective = parse_objective(it.next().map(String::as_str))?,
            "--delay-bound" => {
                delay_bound = DelayBound::parse(flag_value(&mut it, "--delay-bound")?)?;
            }
            "--fixpoint" => fixpoint = true,
            "--simulate" => simulate = true,
            "--threads" => threads = parse_threads(&mut it)?,
            flag @ ("--deadline-ms" | "--node-budget") => {
                parse_budget_flag(&mut budget, flag, &mut it)?;
            }
            "--degrade" => degrade = parse_degrade(it.next().map(String::as_str))?,
            "--trace" => trace = Some(flag_value(&mut it, "--trace")?.to_string()),
            other if !other.starts_with('-') => inputs.push(other.to_string()),
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }

    let env = FlowEnv::new();
    let mut jobs: Vec<BatchJob> = Vec::new();
    if let Some(name) = &suite_name {
        let cases = match name.as_str() {
            "small" => suite::small_suite(&env.library),
            "quick" => suite::quick_suite(&env.library),
            "full" => suite::standard_suite(&env.library),
            "large" => suite::large_suite(&env.library),
            other => return Err(usage(format!("bad --suite `{other}`"))),
        };
        jobs.extend(
            cases
                .into_iter()
                .map(|c| BatchJob::from_circuit(c.name, c.circuit)),
        );
    }
    for input in &inputs {
        let path = std::path::Path::new(input);
        if path.is_dir() {
            jobs.extend(BatchJob::from_dir(path)?);
        } else {
            jobs.push(BatchJob::from_path(path));
        }
    }
    if jobs.is_empty() {
        return Err(usage(
            "no inputs: pass netlist files/directories or --suite small|quick|full|large".into(),
        ));
    }
    let matrix = match &scenarios {
        Some(s) => ScenarioSpec::parse_matrix(s)?,
        None => ScenarioSpec::default_matrix(),
    };

    let mut template = Flow::from_source(transistor_reordering::flow::Source::Circuit(
        Circuit::new("template"),
    ))
    .objective(objective)
    .delay_bound(delay_bound)
    .fixpoint(fixpoint)
    .budget(budget)
    .degrade(degrade);
    if let Some(trace) = &trace {
        // The runner hoists a traced template to the run level: one
        // merged file, every worker on its own named track.
        template = template.trace(trace);
    }
    // The Monte Carlo backend takes one fixed seed across the grid —
    // per-cell scenarios already vary the input statistics.
    let mut mode = match &prob {
        Some(s) => parse_prob_mode(s, 0xBDD5EED)?,
        None => PropagationMode::Independent,
    };
    apply_partition_overrides(&mut mode, region_nodes, cut_width)?;
    if prob.is_some() {
        template = template.prob(mode);
    }
    if simulate {
        template = template.simulate(SimOptions {
            duration: DurationPolicy::Auto {
                target_toggles: 400.0,
            },
            warmup_frac: 0.1,
            seed: 0xBA7C4,
            baseline: false,
        });
    }

    eprintln!(
        "batch: {} circuits × {} scenarios = {} runs on {} threads",
        jobs.len(),
        matrix.len(),
        jobs.len() * matrix.len(),
        threads
    );
    if matches!(report_format, ReportFormat::Csv) {
        println!("{}", FlowReport::csv_header());
    }
    let t0 = Instant::now();
    // A load failure (scenario "-") stands for every cell of its job.
    let mut failed_cells = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut completed = 0usize;
    let results = BatchRunner::new(template)
        .threads(threads)
        .run(&env, &jobs, &matrix, |result| match &result.outcome {
            Ok(report) => {
                completed += 1;
                match report_format {
                    ReportFormat::Json => println!("{}", report.to_json()),
                    ReportFormat::Csv => println!("{}", report.to_csv_row()),
                }
                // One progress line per completed cell, so a long batch
                // shows where the time went while it runs.
                let rung = match report.degrade_rung.as_deref() {
                    Some(r) => format!(", degraded: {r}"),
                    None => String::new(),
                };
                eprintln!(
                    "  {} × {}: {:.2} s{rung}",
                    result.job, result.scenario, report.timings.total_s
                );
            }
            Err(e) => {
                failed_cells += if result.scenario == "-" {
                    matrix.len()
                } else {
                    1
                };
                failures.push(format!("{}×{}", result.job, result.scenario));
                eprintln!("  {} × {}: {e}", result.job, result.scenario);
            }
        });
    drop(results);
    eprintln!(
        "batch: {completed} runs in {:.2} s ({:.1} runs/s)",
        t0.elapsed().as_secs_f64(),
        completed as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    );
    if failed_cells > 0 {
        // One machine-grepable summary line naming every failed cell;
        // the per-cell diagnostics streamed above as they happened.
        eprintln!(
            "batch: {failed_cells}/{} cells failed: {}",
            jobs.len() * matrix.len(),
            failures.join(" ")
        );
        return Err(Error::Batch {
            failed: failed_cells,
            total: jobs.len() * matrix.len(),
        });
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let mut config = tr_serve::ServeConfig {
        threads: default_threads(),
        watch_signals: true,
        ..Default::default()
    };
    let mut trace: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = flag_value(&mut it, "--addr")?.to_string(),
            "--threads" => config.threads = parse_threads(&mut it)?,
            "--queue-depth" => {
                config.queue_depth = parse_usize_flag(&mut it, "--queue-depth")?;
                if config.queue_depth == 0 {
                    return Err(Error::Usage("--queue-depth must be at least 1".into()));
                }
            }
            "--max-deadline-ms" => {
                config.max_deadline_ms = Some(
                    flag_value(&mut it, "--max-deadline-ms")?
                        .parse()
                        .map_err(|e| Error::Usage(format!("bad --max-deadline-ms: {e}")))?,
                );
            }
            "--max-node-budget" => {
                config.max_node_budget = Some(parse_usize_flag(&mut it, "--max-node-budget")?);
            }
            "--max-request-threads" => {
                config.max_request_threads = parse_usize_flag(&mut it, "--max-request-threads")?;
                if config.max_request_threads == 0 {
                    return Err(Error::Usage(
                        "--max-request-threads must be at least 1".into(),
                    ));
                }
            }
            "--cache-nodes" => config.cache_nodes = parse_usize_flag(&mut it, "--cache-nodes")?,
            "--cache-bytes" => config.cache_bytes = parse_usize_flag(&mut it, "--cache-bytes")?,
            "--trace" => trace = Some(flag_value(&mut it, "--trace")?.to_string()),
            other => return Err(Error::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    // The trace spans the server's whole life: the accept loop, every
    // queue wait and every worker's request spans on named tracks.
    if trace.is_some() {
        tr_trace::reset();
        tr_trace::enable();
    }
    let server = tr_serve::Server::bind(config).map_err(|e| Error::io("serve", e))?;
    // Machine-readable startup line (the smoke test and loadgen watch
    // for it to learn the resolved port).
    println!("tr-serve listening on http://{}", server.addr());
    server.run().map_err(|e| Error::io("serve", e))?;
    eprintln!("tr-serve: drained, exiting");
    if let Some(path) = &trace {
        tr_trace::disable();
        tr_trace::write_chrome_trace(path).map_err(|e| Error::io(path.as_str(), e))?;
        eprintln!("trace → {path}");
    }
    Ok(())
}

fn cmd_library() -> Result<(), Error> {
    let library = Library::standard();
    println!(
        "{:<8} {:>4} {:>7} {:>9} {:>10}",
        "cell", "#in", "#trans", "#configs", "#instances"
    );
    for cell in library.cells() {
        println!(
            "{:<8} {:>4} {:>7} {:>9} {:>10}",
            cell.name(),
            cell.arity(),
            cell.transistor_count(),
            cell.configurations().len(),
            cell.instances().len()
        );
    }
    Ok(())
}
