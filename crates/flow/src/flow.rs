//! The typed pipeline builder: declare *what* to run, then [`Flow::run`]
//! executes parse → map → propagate → reorder → re-time → (optionally)
//! simulate → (optionally) write, and returns a structured
//! [`FlowReport`].

use std::path::PathBuf;
use std::time::Instant;

use crate::env::FlowEnv;
use crate::error::Error;
use crate::faultpoint::{self, Fault};
use crate::govern::{CancelToken, Governor, RunBudget, TripReason};
use crate::report::{
    DegradeEvent, DelayReport, FlowReport, GateReport, PerfReport, PowerReport, SimSummary,
    StageTimings,
};
use crate::source::Source;
use tr_bdd::BddError;
use tr_boolean::SignalStats;
use tr_netlist::map::MapOptions;
use tr_netlist::{format, Circuit, CompiledCircuit, GateId};
use tr_power::scenario::Scenario;
use tr_power::{
    circuit_power, propagate, IncrementalPropagator, PropagationError, PropagationMode,
    PropagatorOptions, Scratch,
};
use tr_reorder::{
    optimize_to_fixpoint, optimize_with, Bound, FixpointOptions, Objective, OptimizeOptions,
    OptimizeResult,
};
use tr_sim::{simulate_governed, simulate_traced, vcd, InputDrive, SimConfig};
use tr_timing::critical_path_delay;

/// Delay-bounding mode of the optimization stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayBound {
    /// Power only; the critical path may grow (paper Table 3).
    #[default]
    Unbounded,
    /// No gate may get slower on any pin (paper §6, local condition).
    Local,
    /// The critical path may not grow; off-critical gates spend their
    /// slack (paper §6, global condition).
    Slack,
}

impl DelayBound {
    /// The CLI/report spelling (`none`, `local`, `slack`).
    pub fn as_str(&self) -> &'static str {
        match self {
            DelayBound::Unbounded => "none",
            DelayBound::Local => "local",
            DelayBound::Slack => "slack",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "none" => Ok(DelayBound::Unbounded),
            "local" => Ok(DelayBound::Local),
            "slack" => Ok(DelayBound::Slack),
            other => Err(Error::Usage(format!("bad --delay-bound `{other}`"))),
        }
    }
}

/// Max absolute per-net probability deviation between two net-statistics
/// vectors — the `independence_error` metric recorded in
/// [`FlowReport`] and printed by `tr-opt analyze`.
///
/// # Panics
///
/// Panics if the vectors differ in length (they must describe the same
/// nets).
pub fn max_probability_deviation(a: &[SignalStats], b: &[SignalStats]) -> f64 {
    assert_eq!(a.len(), b.len(), "statistics must cover the same nets");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.probability() - y.probability()).abs())
        .fold(0.0, f64::max)
}

/// Parses the CLI spelling of a probability backend (`indep`, `bdd`,
/// `part`, `monte`); `seed` seeds the Monte Carlo backend. `part`
/// returns [`PropagationMode::partitioned`] with its default budgets —
/// callers with `--region-nodes`/`--cut-width` overrides patch the
/// returned variant's fields.
///
/// # Errors
///
/// Returns [`Error::Usage`] on an unknown spelling.
pub fn parse_prob_mode(s: &str, seed: u64) -> Result<PropagationMode, Error> {
    match s {
        "indep" => Ok(PropagationMode::Independent),
        "bdd" => Ok(PropagationMode::ExactBdd),
        "part" => Ok(PropagationMode::partitioned()),
        "monte" => Ok(PropagationMode::monte(seed)),
        other => Err(Error::Usage(format!(
            "bad --prob `{other}` (expected indep, bdd, part or monte)"
        ))),
    }
}

/// Initial BDD variable-order heuristic of the exact backend (ignored
/// by the other backends, whose ordering is internal). The degradation
/// ladder may still retry a blown build under the information-measure
/// order regardless of this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderHeuristic {
    /// The backend's default fanin-DFS structural order.
    #[default]
    Structural,
    /// [`tr_bdd::order::info_measure`] — high-entropy inputs driving
    /// large fanout cones get the top levels. Statistics-dependent, so
    /// two scenarios may settle different orders for the same netlist.
    InfoMeasure,
}

impl OrderHeuristic {
    /// The CLI/report spelling (`struct`, `info`).
    pub fn as_str(&self) -> &'static str {
        match self {
            OrderHeuristic::Structural => "struct",
            OrderHeuristic::InfoMeasure => "info",
        }
    }

    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] on an unknown spelling.
    pub fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "struct" => Ok(OrderHeuristic::Structural),
            "info" => Ok(OrderHeuristic::InfoMeasure),
            other => Err(Error::Usage(format!(
                "bad --order `{other}` (expected struct or info)"
            ))),
        }
    }
}

/// How long to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationPolicy {
    /// Long enough for the busiest input to toggle ~`target_toggles`
    /// times, clamped to `[1 µs, 10 ms]`.
    Auto {
        /// Toggle budget for the busiest input.
        target_toggles: f64,
    },
    /// Exactly this many seconds.
    Fixed(f64),
}

/// Switch-level validation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Simulated time span.
    pub duration: DurationPolicy,
    /// Fraction of the duration discarded as warm-up.
    pub warmup_frac: f64,
    /// Waveform seed.
    pub seed: u64,
    /// Also simulate the circuit as loaded (for before/after
    /// comparisons).
    pub baseline: bool,
}

impl SimOptions {
    /// Quick validation: ~400 toggles of the busiest input, 10 % warm-up.
    pub fn quick(seed: u64) -> Self {
        SimOptions {
            duration: DurationPolicy::Auto {
                target_toggles: 400.0,
            },
            warmup_frac: 0.1,
            seed,
            baseline: false,
        }
    }

    /// Thorough validation: ~2000 toggles, 10 % warm-up.
    pub fn thorough(seed: u64) -> Self {
        SimOptions {
            duration: DurationPolicy::Auto {
                target_toggles: 2000.0,
            },
            warmup_frac: 0.1,
            seed,
            baseline: false,
        }
    }

    /// Also simulate the unoptimized circuit.
    pub fn with_baseline(mut self) -> Self {
        self.baseline = true;
        self
    }
}

/// Picks a simulation span long enough for the busiest input to toggle
/// about `target_toggles` times, bounded to keep whole-suite runs
/// laptop-scale.
pub fn sim_duration(stats: &[SignalStats], target_toggles: f64) -> f64 {
    let max_d = stats
        .iter()
        .map(SignalStats::density)
        .fold(0.0f64, f64::max)
        .max(1.0);
    (target_toggles / max_d).clamp(1.0e-6, 1.0e-2)
}

/// Degradation bookkeeping for one run: whether a budget tripped, the
/// first failure's message, and the deepest ladder rung reached —
/// exactly what [`FlowReport`] records as `degraded`/`degrade_reason`/
/// `degrade_rung`.
#[derive(Debug, Clone)]
struct LadderState {
    degraded: bool,
    reason: Option<String>,
    rung: Option<&'static str>,
    /// Every rung taken in order, surfaced as
    /// [`FlowReport::degrade_events`].
    events: Vec<DegradeEvent>,
    /// Whether every failed statistics attempt was a genuine engine
    /// node-limit failure. The ladder's outcome is then a function of
    /// the request (netlist, scenario, backend, node budget) rather than
    /// of the clock or an injected fault.
    node_limit_only: bool,
    /// Pipeline start, the zero of each event's `elapsed_ms`.
    t0: Instant,
}

impl LadderState {
    fn new() -> Self {
        LadderState {
            degraded: false,
            reason: None,
            rung: None,
            events: Vec::new(),
            node_limit_only: true,
            t0: Instant::now(),
        }
    }

    /// Records one ladder step in `phase` (`stats`, `optimize`, `sim`
    /// or `boundary`). The *first* failure's message is kept (later
    /// steps are consequences of it); the rung is overwritten so the
    /// report shows the deepest one reached; the full history
    /// accumulates in `events`.
    fn record(&mut self, rung: &'static str, phase: &'static str, reason: &dyn std::fmt::Display) {
        self.degraded = true;
        if self.reason.is_none() {
            self.reason = Some(reason.to_string());
        }
        self.rung = Some(rung);
        self.events.push(DegradeEvent {
            rung: rung.to_string(),
            phase: phase.to_string(),
            elapsed_ms: self.t0.elapsed().as_secs_f64() * 1.0e3,
        });
        tr_trace::instant!("flow.degrade", rung = rung, phase = phase);
    }
}

/// The output of stage 2 ([`Flow::prepare_stats`]): input statistics
/// resolved, per-net statistics computed, and the backend propagator
/// live — everything [`Flow::run_staged`] needs to optimize and finish
/// the run. Holds the run's governor, so the deadline clock spans both
/// halves exactly as it does for the unsplit pipeline.
#[derive(Debug)]
pub struct StatsStage {
    run_governor: Option<Governor>,
    stats: Vec<SignalStats>,
    scenario_label: String,
    propagator: IncrementalPropagator,
    /// The backend the flow asked for.
    requested: PropagationMode,
    /// The backend that produced the statistics.
    prob: PropagationMode,
    /// The node budget the ladder ran under.
    node_budget: Option<usize>,
    net_stats: Vec<SignalStats>,
    independence_error: Option<f64>,
    ladder: LadderState,
    stats_s: f64,
}

impl StatsStage {
    /// Whether the statistics stage walked the degradation ladder.
    pub fn degraded(&self) -> bool {
        self.ladder.degraded
    }

    /// The backend that actually produced the statistics (post-ladder).
    pub fn prob_mode(&self) -> PropagationMode {
        self.prob
    }

    /// The computed per-net statistics.
    pub fn net_stats(&self) -> &[SignalStats] {
        &self.net_stats
    }

    /// Seconds spent computing the statistics.
    pub fn stats_seconds(&self) -> f64 {
        self.stats_s
    }

    /// Max |ΔP| against the independence assumption (`None` for the
    /// independent backend, which has nothing to compare against).
    pub fn independence_error(&self) -> Option<f64> {
        self.independence_error
    }

    /// Captures the staged artifacts for a warm cache: a clone of the
    /// propagator detached from this run's governor (it shares the BDD
    /// engine, see [`IncrementalPropagator`]), plus the resolved input
    /// statistics it answers for. Must be taken *before*
    /// [`Flow::run_staged`] consumes the stage — optimization refreshes
    /// mutate the propagator's counters.
    ///
    /// A stage that degraded only because engines blew their node
    /// budgets is as deterministic as an undegraded one: the same
    /// netlist, scenario, backend and node budget walk the same ladder
    /// to the same rung. Its snapshot carries the ladder's outcome —
    /// `degraded`, the reason, the rung, and the events with their
    /// `timings.degrade_ms` offsets — and both the requested and the
    /// landed backend, so [`Flow::rehydrate`] reproduces the cold
    /// report.
    ///
    /// Returns `None` when any failed attempt was something else: a
    /// deadline trip depends on the clock, and an injected fault on the
    /// test that armed it, so replaying either as if deterministic would
    /// be wrong, and caching the fallback would pin the degradation past
    /// the transient that caused it.
    pub fn snapshot(&self) -> Option<StatsSnapshot> {
        if self.ladder.degraded && !self.ladder.node_limit_only {
            return None;
        }
        let mut propagator = self.propagator.clone();
        propagator.set_governor(None);
        Some(StatsSnapshot {
            stats: self.stats.clone(),
            scenario_label: self.scenario_label.clone(),
            propagator,
            requested: self.requested,
            prob: self.prob,
            node_budget: self.node_budget,
            independence_error: self.independence_error,
            ladder: self.ladder.clone(),
        })
    }
}

/// A cacheable clone of a [`StatsStage`]'s artifacts — the value a
/// content-addressed warm cache retains per (netlist, scenario, backend,
/// order) key. [`Flow::rehydrate`] turns it back into a runnable stage
/// without re-parsing, re-compiling, or re-building BDDs.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    stats: Vec<SignalStats>,
    scenario_label: String,
    propagator: IncrementalPropagator,
    requested: PropagationMode,
    prob: PropagationMode,
    node_budget: Option<usize>,
    independence_error: Option<f64>,
    ladder: LadderState,
}

impl StatsSnapshot {
    /// The backend that produced the snapshot's statistics: the one the
    /// flow asked for, unless the ladder degraded it.
    pub fn prob_mode(&self) -> PropagationMode {
        self.prob
    }

    /// Whether the statistics stage walked the degradation ladder (only
    /// ever on node budgets; see [`StatsStage::snapshot`]).
    pub fn degraded(&self) -> bool {
        self.ladder.degraded
    }

    /// Live BDD nodes retained by the snapshot's engine (0 for the
    /// engine-less backends) — what a cache's node budget accounts.
    pub fn live_bdd_nodes(&self) -> usize {
        self.propagator.engine_stats().map_or(0, |s| s.live)
    }

    /// Rough heap footprint of the snapshot in bytes (statistics
    /// vectors plus ~16 bytes per live BDD node) — what a cache's byte
    /// budget accounts. An estimate, not an allocator measurement.
    pub fn approx_heap_bytes(&self) -> usize {
        let stats_bytes = (self.stats.len() + 2 * self.propagator.net_stats().len())
            * std::mem::size_of::<SignalStats>();
        stats_bytes + 16 * self.live_bdd_nodes()
    }
}

/// Disables the tracer when a traced [`Flow::run`] unwinds through an
/// error (the success path disables before writing the trace file).
struct TraceOff;

impl Drop for TraceOff {
    fn drop(&mut self) {
        tr_trace::disable();
    }
}

/// The failure an armed `NodeLimit` faultpoint stands in for.
fn injected_node_limit(limit: Option<usize>) -> PropagationError {
    PropagationError::Bdd(BddError::NodeLimit {
        limit: limit.unwrap_or(0),
    })
}

/// One attempt of the statistics degradation ladder (see
/// [`Flow::ladder`]).
#[derive(Debug)]
struct Rung {
    /// Recorded as the landing rung when a retry succeeds; also the
    /// `rung` arg of the attempt's `stats.attempt` span.
    name: &'static str,
    mode: PropagationMode,
    /// Faultpoint visited before the attempt: an armed `NodeLimit` fails
    /// it, and every later attempt of the same name.
    site: Option<&'static str>,
    /// Build the exact engine under the information-measure order
    /// ([`tr_bdd::order::info_measure`]).
    info_order: bool,
    /// Tried only when the requested build blew its node budget.
    on_node_limit: bool,
}

/// Where the input statistics come from.
#[derive(Debug, Clone)]
enum StatsSpec {
    /// Draw from one of the paper's scenarios with this seed.
    Scenario { scenario: Scenario, seed: u64 },
    /// Caller-supplied, one entry per primary input.
    Explicit(Vec<SignalStats>),
}

/// A declarative, reusable description of one pipeline run.
///
/// ```
/// use tr_flow::{Flow, FlowEnv};
/// use tr_netlist::generators;
/// use tr_power::scenario::Scenario;
///
/// let env = FlowEnv::new();
/// let adder = generators::ripple_carry_adder(4, &env.library);
/// let report = Flow::from_circuit(adder)
///     .scenario(Scenario::a(), 42)
///     .run(&env)
///     .unwrap();
/// assert!(report.power.headroom_percent.unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Flow {
    source: Source,
    map_options: MapOptions,
    stats: StatsSpec,
    prob: PropagationMode,
    order: OrderHeuristic,
    objective: Objective,
    delay_bound: DelayBound,
    fixpoint: bool,
    threads: usize,
    headroom: bool,
    sim: Option<SimOptions>,
    vcd: Option<PathBuf>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    per_gate: bool,
    budget: RunBudget,
    cancel: Option<CancelToken>,
    degrade: bool,
}

impl Flow {
    fn new(source: Source) -> Self {
        Flow {
            source,
            map_options: MapOptions::default(),
            stats: StatsSpec::Scenario {
                scenario: Scenario::a(),
                seed: 1,
            },
            prob: PropagationMode::Independent,
            order: OrderHeuristic::Structural,
            objective: Objective::MinimizePower,
            delay_bound: DelayBound::Unbounded,
            fixpoint: false,
            threads: 1,
            headroom: true,
            sim: None,
            vcd: None,
            out: None,
            trace: None,
            per_gate: false,
            budget: RunBudget::default(),
            cancel: None,
            degrade: true,
        }
    }

    /// A flow reading (and format-auto-detecting) a netlist file.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Flow::new(Source::Path(path.into()))
    }

    /// A flow over an already-mapped circuit.
    pub fn from_circuit(circuit: Circuit) -> Self {
        Flow::new(Source::Circuit(circuit))
    }

    /// A flow over any [`Source`].
    pub fn from_source(source: Source) -> Self {
        Flow::new(source)
    }

    /// Replaces the source, keeping every other setting — for reusing
    /// one configured flow across several netlists.
    pub fn with_source(mut self, source: Source) -> Self {
        self.source = source;
        self
    }

    /// Technology-mapper options for `.bench`/`.blif` sources.
    pub fn map_options(mut self, options: MapOptions) -> Self {
        self.map_options = options;
        self
    }

    /// Draw input statistics from a paper scenario with this seed.
    pub fn scenario(mut self, scenario: Scenario, seed: u64) -> Self {
        self.stats = StatsSpec::Scenario { scenario, seed };
        self
    }

    /// Use explicit input statistics (one per primary input).
    pub fn input_stats(mut self, stats: Vec<SignalStats>) -> Self {
        self.stats = StatsSpec::Explicit(stats);
        self
    }

    /// The probability backend computing per-net statistics (default
    /// [`PropagationMode::Independent`]; [`PropagationMode::ExactBdd`]
    /// handles reconvergent-fanout correlation exactly, and the report
    /// then records the independence error).
    pub fn prob(mut self, mode: PropagationMode) -> Self {
        self.prob = mode;
        self
    }

    /// Initial BDD variable-order heuristic for the exact backend
    /// (default structural fanin-DFS; see [`OrderHeuristic`]).
    pub fn order(mut self, order: OrderHeuristic) -> Self {
        self.order = order;
        self
    }

    /// Optimization objective (default: minimize power).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Delay-bounding mode (default: unbounded).
    pub fn delay_bound(mut self, bound: DelayBound) -> Self {
        self.delay_bound = bound;
        self
    }

    /// Run the optimizer to a statistics fixed point (default off):
    /// propagate → optimize → re-propagate dirty cones → repeat until no
    /// gate changes, per [`tr_reorder::optimize_to_fixpoint`]. The
    /// report then carries the iteration count and the measured
    /// stale-vs-fresh power discrepancy. Only available with
    /// [`DelayBound::Unbounded`].
    pub fn fixpoint(mut self, on: bool) -> Self {
        self.fixpoint = on;
        self
    }

    /// Optimizer worker threads (default 1; >1 lets large circuits use
    /// the work-queue pool of [`tr_reorder::optimize_with`], identical
    /// results).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` (same contract as
    /// [`tr_reorder::OptimizeOptions::threads`] and
    /// [`BatchRunner::threads`](crate::BatchRunner::threads)).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Whether to also run the opposite objective to measure best-vs-
    /// worst headroom (default on; only available unbounded).
    pub fn headroom(mut self, on: bool) -> Self {
        self.headroom = on;
        self
    }

    /// Validate with the switch-level simulator.
    pub fn simulate(mut self, options: SimOptions) -> Self {
        self.sim = Some(options);
        self
    }

    /// Dump a simulation waveform of the optimized circuit (implies
    /// nothing about `simulate`; set both).
    pub fn vcd(mut self, path: impl Into<PathBuf>) -> Self {
        self.vcd = Some(path.into());
        self
    }

    /// Write the optimized netlist in the native `.trnet` format.
    pub fn write_netlist(mut self, path: impl Into<PathBuf>) -> Self {
        self.out = Some(path.into());
        self
    }

    /// Write a Chrome trace-event JSON self-profile of the run
    /// (loadable in Perfetto / `chrome://tracing`): the tracer is
    /// enabled for the duration of [`Flow::run`] and every span the
    /// pipeline and its backends emit — stage spans, BDD builds and
    /// GCs, per-region evaluations, optimizer passes — lands in `path`.
    /// The tracer is process-global, so concurrent traced flows in one
    /// process interleave into whichever file is written last; the
    /// batch runner instead traces at the run level (`tr-opt batch
    /// --trace`), merging every worker into one file. No-op when the
    /// workspace is built with `--no-default-features` (tracing
    /// compiled out).
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Include per-gate power/configuration rows in the report.
    pub fn per_gate(mut self, on: bool) -> Self {
        self.per_gate = on;
        self
    }

    /// Resource bounds for the run (default: unbounded). What a tripped
    /// bound does depends on [`Flow::degrade`].
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cooperative cancellation token: another thread calling
    /// [`CancelToken::cancel`] aborts the run at its next governed check
    /// with [`Error::Interrupted`]. Cancellation is always a real abort,
    /// never a degradation.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether a tripped budget degrades gracefully (default `true`):
    /// the run completes through the degradation ladder — a blown BDD
    /// node budget retries once under the information-measure variable
    /// order (exact backend) or with halved regions (partitioned
    /// backend, up to three halvings), then falls back to the
    /// independent backend; a blown deadline finishes the remaining
    /// stages ungoverned — and the report records `degraded`, the
    /// reason and the rung. With `false` the trip surfaces as a typed
    /// error instead.
    pub fn degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }

    /// The full governor for budget-enforced stages: deadline plus the
    /// caller's token, `None` when neither bound exists. Created once
    /// per pipeline run and shared by every stage, so the deadline is
    /// wall-clock from the start of the run.
    fn full_governor(&self) -> Option<Governor> {
        if self.cancel.is_none() && self.budget.deadline.is_none() {
            return None;
        }
        Some(match &self.cancel {
            Some(token) => Governor::with_token(token.clone(), self.budget.deadline),
            None => Governor::new(self.budget.deadline),
        })
    }

    /// The governor for stages running *after* a degradation: no
    /// deadline (the run must complete), but explicit cancellation still
    /// aborts.
    fn cancel_governor(&self) -> Option<Governor> {
        self.cancel
            .as_ref()
            .map(|token| Governor::with_token(token.clone(), None))
    }

    /// The configured mapper options (the batch runner's pre-load pass
    /// needs them without consuming the template).
    pub(crate) fn map_options_value(&self) -> &MapOptions {
        &self.map_options
    }

    /// Whether this flow writes `--out`/`--vcd` artifacts (the batch
    /// runner rejects such templates: every cell would overwrite the
    /// same file).
    pub(crate) fn writes_artifacts(&self) -> bool {
        self.out.is_some() || self.vcd.is_some()
    }

    /// The self-profile destination, if any (the batch runner hoists it
    /// to the run level instead of letting every cell clobber one file).
    pub(crate) fn trace_path(&self) -> Option<&PathBuf> {
        self.trace.as_ref()
    }

    /// Runs the pipeline with a private scratch arena.
    pub fn run(&self, env: &FlowEnv) -> Result<FlowReport, Error> {
        self.run_with_scratch(env, &mut Scratch::new())
    }

    /// Runs the pipeline, returning the optimized circuit alongside the
    /// report (for callers that keep transforming it).
    pub fn run_full(&self, env: &FlowEnv) -> Result<(FlowReport, Circuit), Error> {
        self.run_full_with_scratch(env, &mut Scratch::new())
    }

    /// [`Flow::run`] with a caller-supplied scratch arena (reused across
    /// runs by the batch runner's worker threads).
    pub fn run_with_scratch(
        &self,
        env: &FlowEnv,
        scratch: &mut Scratch,
    ) -> Result<FlowReport, Error> {
        self.run_full_with_scratch(env, scratch).map(|(r, _)| r)
    }

    /// [`Flow::run_full`] with a caller-supplied scratch arena.
    pub fn run_full_with_scratch(
        &self,
        env: &FlowEnv,
        scratch: &mut Scratch,
    ) -> Result<(FlowReport, Circuit), Error> {
        // Tracing spans the whole run, including the load stage; the
        // guard keeps a failed run from leaving the process-global
        // tracer enabled.
        let _trace_guard = self.trace.as_ref().map(|_| {
            tr_trace::reset();
            tr_trace::enable();
            tr_trace::set_thread_name("flow-main");
            TraceOff
        });
        // 1. Load: read, parse, technology-map. A file's parser
        // (`.trnet`) or the mapper (`.bench`/`.blif`) validates what it
        // returns, so only an in-memory circuit is checked here.
        let t = Instant::now();
        let circuit = {
            let _s = tr_trace::span!("flow.load");
            let circuit = self.source.load(&env.library, &self.map_options)?;
            if let Source::Circuit(_) = self.source {
                let _v = tr_trace::span!("load.validate", gates = circuit.gates().len());
                circuit.validate(&env.library)?;
            }
            circuit
        };
        let load_s = t.elapsed().as_secs_f64();
        let result = self.run_pipeline(env, &circuit, self.source.name(), load_s, scratch)?;
        if let Some(path) = &self.trace {
            tr_trace::disable();
            tr_trace::write_chrome_trace(path).map_err(|e| Error::io(path, e))?;
        }
        Ok(result)
    }

    /// Stages 2–7 over an already-loaded circuit. The batch runner calls
    /// this directly so each worker borrows the once-parsed circuit
    /// instead of re-cloning it per scenario cell.
    pub(crate) fn run_pipeline(
        &self,
        env: &FlowEnv,
        circuit: &Circuit,
        name: String,
        load_s: f64,
        scratch: &mut Scratch,
    ) -> Result<(FlowReport, Circuit), Error> {
        let stage = self.prepare_stats(env, circuit)?;
        self.run_staged(env, circuit, name, load_s, stage, scratch)
    }

    /// The configured input statistics resolved against `circuit`, with
    /// their report label.
    fn resolve_input_stats(&self, circuit: &Circuit) -> Result<(Vec<SignalStats>, String), Error> {
        let n_inputs = circuit.primary_inputs().len();
        let (stats, scenario_label) = match &self.stats {
            StatsSpec::Scenario { scenario, seed } => (
                scenario.input_stats(n_inputs, *seed),
                scenario_label(scenario, *seed),
            ),
            StatsSpec::Explicit(stats) => (stats.clone(), "explicit".to_string()),
        };
        if stats.len() != n_inputs {
            return Err(Error::StatsMismatch {
                expected: n_inputs,
                got: stats.len(),
            });
        }
        Ok((stats, scenario_label))
    }

    /// Cheap configuration validation shared by every pipeline entry.
    fn validate_artifacts(&self) -> Result<(), Error> {
        if self.vcd.is_some() && self.sim.is_none() {
            return Err(Error::Usage(
                "a VCD dump needs a simulation: set Flow::simulate alongside Flow::vcd".into(),
            ));
        }
        Ok(())
    }

    /// Stage 2 alone: resolves the input statistics and computes per-net
    /// statistics under the configured backend, returning a
    /// [`StatsStage`] that [`Flow::run_staged`] finishes. Splitting the
    /// pipeline here lets a caller snapshot the expensive artifacts
    /// ([`StatsStage::snapshot`]) before optimization mutates them —
    /// the warm path of a serving cache.
    ///
    /// # Errors
    ///
    /// As [`Flow::run`]: statistics-stage failures (compile errors, a
    /// blown budget with [`Flow::degrade`] off, cancellation).
    pub fn prepare_stats(&self, env: &FlowEnv, circuit: &Circuit) -> Result<StatsStage, Error> {
        self.validate_artifacts()?;
        // Pre-flight: a token cancelled before the run starts aborts it
        // before any work is done.
        if let Some(governor) = self.cancel_governor() {
            governor.check_now("flow")?;
        }
        // One governor for the whole run: every governed stage shares
        // its deadline, token and work counter.
        let run_governor = self.full_governor();

        // 2. Input statistics.
        let t = Instant::now();
        let stats_span = tr_trace::span!(
            "flow.stats",
            gates = circuit.gates().len(),
            mode = self.prob.as_str()
        );
        let (stats, scenario_label) = self.resolve_input_stats(circuit)?;
        // 2b. Per-net statistics under the chosen probability backend,
        // held by an incremental propagator so later stages can
        // re-derive dirty cones instead of rebuilding; exact backends
        // also measure how far the independence assumption was off
        // (max |ΔP| over all nets). Under a budget this is where the
        // degradation ladder lives: `prob` tracks the backend that
        // actually produced the statistics.
        let mut ladder = LadderState::new();
        let (propagator, prob) = self.build_propagator(
            env,
            circuit,
            &stats,
            run_governor.as_ref(),
            true,
            &mut ladder,
        )?;
        let net_stats = propagator.net_stats().to_vec();
        let independence_error = match prob {
            PropagationMode::Independent => None,
            _ => {
                let _s = tr_trace::span!("stats.independence", gates = circuit.gates().len());
                let indep = propagate(circuit, &env.library, &stats);
                Some(max_probability_deviation(&net_stats, &indep))
            }
        };
        drop(stats_span);
        Ok(StatsStage {
            run_governor,
            stats,
            scenario_label,
            propagator,
            requested: self.prob,
            prob,
            node_budget: self.budget.bdd_node_budget,
            net_stats,
            independence_error,
            ladder,
            stats_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Reconstitutes a [`StatsStage`] from a cached [`StatsSnapshot`]
    /// without re-running stage 2: the snapshot's propagator is cloned
    /// (so the snapshot stays pristine for the next request; the clone
    /// shares its engine) and handed this flow's governor. A degraded
    /// snapshot restores the ladder's outcome, and its later stages run
    /// under cancellation only, as the cold run's did. Because a clone
    /// resumes bit-for-bit where the cold build stood,
    /// [`Flow::run_staged`] then produces a report identical to a fresh
    /// run's apart from wall-clock timings.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when this flow's probability backend or resolved
    /// input statistics differ from the ones the snapshot was prepared
    /// under, or, for a degraded snapshot, when its node budget differs
    /// or its degradation is off (a warm cache keying on them never hits
    /// this), plus pre-flight cancellation.
    pub fn rehydrate(
        &self,
        env: &FlowEnv,
        circuit: &Circuit,
        snapshot: &StatsSnapshot,
    ) -> Result<StatsStage, Error> {
        let _ = env; // symmetry with prepare_stats; the models live in the snapshot's stats
        self.validate_artifacts()?;
        if self.prob != snapshot.requested {
            return Err(Error::Usage(format!(
                "snapshot was prepared under --prob {}, flow wants {}",
                snapshot.requested, self.prob
            )));
        }
        if snapshot.degraded()
            && (!self.degrade || self.budget.bdd_node_budget != snapshot.node_budget)
        {
            return Err(Error::Usage(format!(
                "snapshot degraded under node budget {:?}; flow has node budget {:?}, degrade {}",
                snapshot.node_budget, self.budget.bdd_node_budget, self.degrade
            )));
        }
        let (stats, scenario_label) = self.resolve_input_stats(circuit)?;
        if stats != snapshot.stats || scenario_label != snapshot.scenario_label {
            return Err(Error::Usage(
                "snapshot was prepared under different input statistics".into(),
            ));
        }
        if let Some(governor) = self.cancel_governor() {
            governor.check_now("flow")?;
        }
        let run_governor = self.full_governor();
        let _s = tr_trace::span!("flow.rehydrate", gates = circuit.gates().len());
        let mut propagator = snapshot.propagator.clone();
        propagator.set_governor(if snapshot.degraded() {
            self.cancel_governor()
        } else {
            run_governor.clone()
        });
        let net_stats = propagator.net_stats().to_vec();
        let mut ladder = snapshot.ladder.clone();
        ladder.t0 = Instant::now();
        Ok(StatsStage {
            run_governor,
            stats,
            scenario_label,
            propagator,
            requested: snapshot.requested,
            prob: snapshot.prob,
            node_budget: snapshot.node_budget,
            net_stats,
            independence_error: snapshot.independence_error,
            ladder,
            stats_s: 0.0,
        })
    }

    /// Stages 3–7 against an already-prepared statistics stage (from
    /// [`Flow::prepare_stats`] or [`Flow::rehydrate`]). The stage's
    /// governor carries over, so a deadline keeps counting from
    /// preparation time.
    ///
    /// # Errors
    ///
    /// As [`Flow::run`].
    pub fn run_staged(
        &self,
        env: &FlowEnv,
        circuit: &Circuit,
        name: String,
        load_s: f64,
        stage: StatsStage,
        scratch: &mut Scratch,
    ) -> Result<(FlowReport, Circuit), Error> {
        self.validate_artifacts()?;
        let StatsStage {
            run_governor,
            stats,
            scenario_label,
            mut propagator,
            mut prob,
            net_stats,
            independence_error,
            mut ladder,
            stats_s,
            ..
        } = stage;
        let n_inputs = circuit.primary_inputs().len();
        let t_total = Instant::now();
        let mut timings = StageTimings {
            load_s,
            stats_s,
            ..StageTimings::default()
        };

        // 3. Optimize toward the objective — to a statistics fixed
        // point when requested — plus (unbounded only) the opposite
        // objective for the best-vs-worst headroom of Table 3.
        if self.fixpoint && self.delay_bound != DelayBound::Unbounded {
            return Err(Error::Unsupported(format!(
                "--fixpoint only supports --delay-bound none (got {})",
                self.delay_bound.as_str()
            )));
        }
        let t = Instant::now();
        let optimize_span = tr_trace::span!(
            "flow.optimize",
            gates = circuit.gates().len(),
            fixpoint = self.fixpoint,
            threads = self.threads
        );
        let mut fixpoint_iters = None;
        let mut stale_power_discrepancy_w = None;
        let primary = if self.fixpoint {
            let options = FixpointOptions {
                objective: self.objective,
                threads: self.threads,
                max_iterations: self
                    .budget
                    .max_fixpoint_iters
                    .unwrap_or(FixpointOptions::default().max_iterations),
            };
            let governor = if ladder.degraded {
                self.cancel_governor()
            } else {
                run_governor.clone()
            };
            let rep = match optimize_to_fixpoint(
                circuit,
                &env.library,
                &env.model,
                &mut propagator,
                options,
                governor.as_ref(),
            ) {
                Ok(rep) => rep,
                Err(PropagationError::Interrupted(i))
                    if self.degrade && i.reason != TripReason::Cancelled =>
                {
                    ladder.record("finish-ungoverned", "optimize", &i);
                    // An interrupted loop may leave the propagator's
                    // statistics describing an intermediate circuit;
                    // rebuild it fresh (deadline off) and rerun from the
                    // original circuit.
                    let (rebuilt, rebuilt_mode) = self.build_propagator(
                        env,
                        circuit,
                        &stats,
                        run_governor.as_ref(),
                        false,
                        &mut ladder,
                    )?;
                    propagator = rebuilt;
                    prob = rebuilt_mode;
                    optimize_to_fixpoint(
                        circuit,
                        &env.library,
                        &env.model,
                        &mut propagator,
                        options,
                        self.cancel_governor().as_ref(),
                    )?
                }
                Err(e) => return Err(e.into()),
            };
            fixpoint_iters = Some(rep.iterations);
            stale_power_discrepancy_w = Some(rep.stale_discrepancy_w());
            rep.result
        } else {
            let primary =
                self.degradable("optimize", run_governor.as_ref(), &mut ladder, |governor| {
                    self.optimize_once(env, circuit, &net_stats, self.objective, scratch, governor)
                })?;
            // The accepted changes go through the propagator, which
            // re-derives the cones of those that changed a cell. The
            // optimizer only reorders, which preserves every gate's
            // function (§4.2), so the refresh re-derives no net: the
            // statistics the optimizer scored the final circuit against
            // are fresh, and its `power_after` is the exact total.
            if prob != PropagationMode::Independent && primary.changed_gates > 0 {
                let dirty = changed_gate_ids(circuit, &primary.circuit);
                let nets = propagator.refresh(&primary.circuit, &env.library, &dirty)?;
                debug_assert!(nets.is_empty(), "reordering changed a statistic");
                stale_power_discrepancy_w = Some(0.0);
            }
            primary
        };
        let counterpart = if self.headroom && self.delay_bound == DelayBound::Unbounded {
            let opposite = match self.objective {
                Objective::MinimizePower => Objective::MaximizePower,
                Objective::MaximizePower => Objective::MinimizePower,
            };
            Some(
                self.degradable("optimize", run_governor.as_ref(), &mut ladder, |governor| {
                    self.optimize_once(env, circuit, &net_stats, opposite, scratch, governor)
                })?,
            )
        } else {
            None
        };
        drop(optimize_span);
        timings.optimize_s = t.elapsed().as_secs_f64();

        // Stage boundary: a deadline blown during optimization that no
        // amortized in-loop check caught (small circuits do little
        // governed work between checks) is detected here,
        // deterministically.
        self.checkpoint(run_governor.as_ref(), &mut ladder)?;

        let (model_best_w, model_worst_w) = match (&counterpart, self.objective) {
            (Some(c), Objective::MinimizePower) => (Some(primary.power_after), Some(c.power_after)),
            (Some(c), Objective::MaximizePower) => (Some(c.power_after), Some(primary.power_after)),
            (None, _) => (None, None),
        };
        let headroom_percent = match (model_best_w, model_worst_w) {
            (Some(best), Some(worst)) => {
                Some(100.0 * (worst - best) / worst.max(f64::MIN_POSITIVE))
            }
            _ => None,
        };

        // 4. Static timing, before and after.
        let t = Instant::now();
        let timing_span = tr_trace::span!("flow.timing");
        let delay_before = critical_path_delay(circuit, &env.timing);
        let delay_after = critical_path_delay(&primary.circuit, &env.timing);
        drop(timing_span);
        timings.timing_s = t.elapsed().as_secs_f64();

        // 5. Switch-level validation.
        let t = Instant::now();
        let sim_span = tr_trace::span!("flow.sim", enabled = self.sim.is_some());
        let mut vcd_trace = None;
        let sim_summary = match &self.sim {
            Some(opts) => {
                let duration = match opts.duration {
                    DurationPolicy::Auto { target_toggles } => sim_duration(&stats, target_toggles),
                    DurationPolicy::Fixed(d) => d,
                };
                let cfg = SimConfig {
                    duration,
                    warmup: duration * opts.warmup_frac,
                    seed: opts.seed,
                };
                let simulate_power = |circuit: &Circuit, ladder: &mut LadderState| {
                    self.degradable("sim", run_governor.as_ref(), ladder, |governor| {
                        let report = simulate_governed(
                            circuit,
                            &env.library,
                            &env.process,
                            &env.timing,
                            &stats,
                            &cfg,
                            governor,
                        )?;
                        Ok(report.power)
                    })
                };
                let optimized_w = if self.vcd.is_some() {
                    // The traced run keeps every transition for the VCD
                    // dump; it is explicitly requested, so it runs
                    // ungoverned.
                    let drives: Vec<InputDrive> =
                        stats.iter().map(|s| InputDrive::Stochastic(*s)).collect();
                    let (report, trace) = simulate_traced(
                        &primary.circuit,
                        &env.library,
                        &env.process,
                        &env.timing,
                        &drives,
                        &cfg,
                    );
                    vcd_trace = Some(trace);
                    report.power
                } else {
                    simulate_power(&primary.circuit, &mut ladder)?
                };
                let baseline_w = if opts.baseline {
                    Some(simulate_power(circuit, &mut ladder)?)
                } else {
                    None
                };
                let counterpart_w = match &counterpart {
                    Some(c) => Some(simulate_power(&c.circuit, &mut ladder)?),
                    None => None,
                };
                // With the headroom pass the two sim measurements are
                // best/worst regardless of the primary objective; without
                // it, neither bound was established (a delay-bounded
                // minimize is not the unconstrained best).
                let (best_w, worst_w) = match (counterpart_w, self.objective) {
                    (Some(c), Objective::MinimizePower) => (Some(optimized_w), Some(c)),
                    (Some(c), Objective::MaximizePower) => (Some(c), Some(optimized_w)),
                    (None, _) => (None, None),
                };
                let reduction_percent = match (best_w, worst_w) {
                    (Some(b), Some(w)) => Some(100.0 * (w - b) / w.max(f64::MIN_POSITIVE)),
                    _ => None,
                };
                Some(SimSummary {
                    duration_s: duration,
                    warmup_s: cfg.warmup,
                    seed: opts.seed,
                    baseline_w,
                    optimized_w,
                    best_w,
                    worst_w,
                    reduction_percent,
                })
            }
            None => None,
        };
        drop(sim_span);
        timings.sim_s = t.elapsed().as_secs_f64();

        // 6. Per-gate rows. Net statistics are configuration-independent
        // (the §4.2 monotonicity lemma), so the backend's stats computed
        // on the input circuit apply verbatim to the optimized one.
        let per_gate = self.per_gate.then(|| {
            let power = circuit_power(&primary.circuit, &env.model, &net_stats);
            primary
                .circuit
                .gates()
                .iter()
                .zip(circuit.gates())
                .zip(&power.per_gate)
                .map(|((after, before), gp)| GateReport {
                    gate: primary.circuit.net_name(after.output).to_string(),
                    cell: after.cell.name(),
                    config_before: before.config,
                    config_after: after.config,
                    power_w: gp.total,
                })
                .collect()
        });

        // 7. Artifacts.
        let t = Instant::now();
        let write_span = tr_trace::span!("flow.write");
        if let Some(path) = &self.out {
            std::fs::write(path, format::write(&primary.circuit))
                .map_err(|e| Error::io(path, e))?;
        }
        if let (Some(path), Some(trace)) = (&self.vcd, &vcd_trace) {
            vcd::write_to_file(&primary.circuit, trace, path).map_err(|e| Error::io(path, e))?;
        }
        drop(write_span);
        timings.write_s = t.elapsed().as_secs_f64();
        timings.total_s = load_s + stats_s + t_total.elapsed().as_secs_f64();

        // Partition-backend shape, from the propagator that actually
        // produced the statistics (post-ladder, so a shrink-regions
        // retry reports its shrunk partition).
        let (partition_regions, partition_error_bound) = match propagator.partition_summary() {
            Some((regions, _cut_nets, approx_fraction)) => (Some(regions), Some(approx_fraction)),
            None => (None, None),
        };
        let max_cut_width = match prob {
            PropagationMode::PartitionedBdd { max_cut_width, .. } => Some(max_cut_width),
            _ => None,
        };

        // Engine-health self-profile, one coherent snapshot from the
        // backend that produced the statistics. The propagator walks its
        // regions serially, so `part` utilization is 1.0.
        let engine = propagator.engine_stats();
        let perf = PerfReport {
            peak_live_nodes: engine.map(|s| s.gc.peak_live),
            cache_hit_rate: engine.map(|s| s.caches.hit_rate()),
            region_utilization: partition_regions.map(|_| 1.0),
        };
        if let Some(rate) = perf.cache_hit_rate {
            tr_trace::counter!("flow.cache_hit_rate", rate);
        }

        let report = FlowReport {
            circuit: name,
            scenario: scenario_label,
            gates: circuit.gates().len(),
            inputs: n_inputs,
            outputs: circuit.primary_outputs().len(),
            depth: circuit.logic_depth(),
            objective: match self.objective {
                Objective::MinimizePower => "min".to_string(),
                Objective::MaximizePower => "max".to_string(),
            },
            delay_bound: self.delay_bound.as_str().to_string(),
            prob_mode: prob.as_str().to_string(),
            degraded: ladder.degraded,
            degrade_reason: ladder.reason,
            degrade_rung: ladder.rung.map(str::to_string),
            degrade_events: ladder.events,
            independence_error,
            partition_regions,
            max_cut_width,
            partition_error_bound,
            changed_gates: primary.changed_gates,
            fixpoint_iters,
            repropagations: propagator.repropagations(),
            stale_power_discrepancy_w,
            power: PowerReport {
                model_before_w: primary.power_before,
                model_after_w: primary.power_after,
                reduction_percent: primary.reduction_percent(),
                model_best_w,
                model_worst_w,
                headroom_percent,
            },
            delay: DelayReport {
                critical_path_before_s: delay_before,
                critical_path_after_s: delay_after,
                increase_percent: 100.0 * (delay_after - delay_before)
                    / delay_before.max(f64::MIN_POSITIVE),
            },
            sim: sim_summary,
            per_gate,
            perf,
            timings,
        };
        Ok((report, primary.circuit))
    }

    /// Stage 2b: builds the statistics propagator under the configured
    /// budget, walking the degradation ladder on a recoverable failure
    /// (see [`Flow::degrade`]): each rung of [`Flow::ladder`] is tried
    /// in turn until one lands. `deadline_on` is false for post-trip
    /// rebuilds, where only cancellation is still enforced. Returns the
    /// propagator plus the backend that actually produced the
    /// statistics.
    fn build_propagator(
        &self,
        env: &FlowEnv,
        circuit: &Circuit,
        stats: &[SignalStats],
        run_governor: Option<&Governor>,
        deadline_on: bool,
        ladder: &mut LadderState,
    ) -> Result<(IncrementalPropagator, PropagationMode), Error> {
        // A post-trip rebuild that already fell back stays independent.
        let mode = if ladder.rung == Some("independent-fallback") {
            PropagationMode::Independent
        } else {
            self.prob
        };
        let rungs = self.ladder(mode);
        // The requested build's failure: the reason every later rung
        // records, and what decides which rungs apply.
        let mut reason: Option<PropagationError> = None;
        let mut injected_rung = None;
        for (i, rung) in rungs.iter().enumerate() {
            // The last rung, the independent fallback, must complete:
            // only cancellation aborts it.
            let last = i + 1 == rungs.len();
            let node_limit_blown = matches!(
                reason,
                Some(PropagationError::Bdd(BddError::NodeLimit { .. }))
            );
            if (rung.on_node_limit && !node_limit_blown) || injected_rung == Some(rung.name) {
                continue;
            }
            let _attempt =
                tr_trace::span!("stats.attempt", rung = rung.name, mode = rung.mode.as_str());
            let governor = if last || !deadline_on {
                self.cancel_governor()
            } else {
                run_governor.cloned()
            };
            let bdd_order = if rung.info_order {
                let compiled = CompiledCircuit::compile(circuit, &env.library)?;
                let probs: Vec<f64> = stats.iter().map(|s| s.probability()).collect();
                Some(tr_bdd::order::info_measure(&compiled, &probs))
            } else {
                None
            };
            let injected = rung
                .site
                .is_some_and(|site| faultpoint::hit(site) == Some(Fault::NodeLimit));
            let result = if injected {
                injected_rung = Some(rung.name);
                Err(injected_node_limit(self.budget.bdd_node_budget))
            } else {
                IncrementalPropagator::new_with(
                    circuit,
                    &env.library,
                    stats,
                    rung.mode,
                    &PropagatorOptions {
                        node_limit: self.budget.bdd_node_budget,
                        governor,
                        bdd_order,
                        region_cost: None,
                    },
                )
            };
            let err = match result {
                Ok(propagator) => {
                    if let Some(reason) = &reason {
                        ladder.record(rung.name, "stats", reason);
                    }
                    return Ok((propagator, rung.mode));
                }
                Err(err) => err,
            };
            // Explicit cancellation is a real abort, and so is a failed
            // last rung. The requested build has no ladder when
            // degradation is off, or when its failure is a defect
            // (compile, validation) rather than resource exhaustion.
            let cancelled = matches!(
                &err,
                PropagationError::Interrupted(trip) if trip.reason == TripReason::Cancelled
            );
            let recoverable = matches!(
                &err,
                PropagationError::Bdd(BddError::NodeLimit { .. })
                    | PropagationError::Interrupted(_)
            );
            if cancelled || last || (reason.is_none() && !(self.degrade && recoverable)) {
                return Err(err.into());
            }
            ladder.node_limit_only &=
                !injected && matches!(&err, PropagationError::Bdd(BddError::NodeLimit { .. }));
            reason.get_or_insert(err);
        }
        unreachable!("the independent fallback either lands or returns its error")
    }

    /// The statistics ladder for `mode`, in the order its rungs are
    /// tried:
    ///
    /// 1. the requested build (`requested`);
    /// 2. on a blown node budget only — a blown deadline would blow a
    ///    second build too — either one `info-reorder-retry` (the exact
    ///    engine: the failed engine is dropped, freeing every node, and
    ///    the build retried under the information-measure order, which
    ///    often fits where the structural default does not), or up to
    ///    three `shrink-regions` halvings of the per-region budget (the
    ///    partitioned engine: halving it halves the packing cost, and
    ///    region BDD size tracks region size super-linearly, so the
    ///    biggest region engine shrinks far more than 2×; the cut only
    ///    ever moves toward the gate-local limit, trading accuracy for
    ///    fit);
    /// 3. `independent-fallback`: always fits, always fast, and run
    ///    under the cancel-only governor, since the run must complete.
    fn ladder(&self, mode: PropagationMode) -> Vec<Rung> {
        let retry = |name, mode, info_order| Rung {
            name,
            mode,
            site: Some(name),
            info_order,
            on_node_limit: true,
        };
        let mut rungs = vec![Rung {
            name: "requested",
            mode,
            site: match mode {
                PropagationMode::ExactBdd => Some("exact-build"),
                PropagationMode::PartitionedBdd { .. } => Some("part-build"),
                _ => None,
            },
            // The configured order heuristic seeds the first exact build
            // only; the info-reorder-retry rung is independent of it.
            info_order: mode.uses_exact_engine() && self.order == OrderHeuristic::InfoMeasure,
            on_node_limit: false,
        }];
        if mode.uses_exact_engine() {
            rungs.push(retry("info-reorder-retry", mode, true));
        } else if let PropagationMode::PartitionedBdd {
            max_region_nodes,
            max_cut_width,
        } = mode
        {
            let mut nodes = if max_region_nodes == 0 {
                tr_power::partition::DEFAULT_REGION_NODES
            } else {
                max_region_nodes
            };
            for halving in 0..3 {
                if nodes <= 2 {
                    break;
                }
                nodes /= 2;
                let shrunk = PropagationMode::PartitionedBdd {
                    max_region_nodes: nodes,
                    max_cut_width,
                };
                let mut rung = retry("shrink-regions", shrunk, false);
                // The site is visited once per rung, not per halving:
                // an armed fault fails every halving.
                if halving > 0 {
                    rung.site = None;
                }
                rungs.push(rung);
            }
        }
        rungs.push(Rung {
            name: "independent-fallback",
            mode: PropagationMode::Independent,
            site: None,
            info_order: false,
            on_node_limit: false,
        });
        rungs
    }

    /// Runs one governed stage under the run's governor — cancellation
    /// only, once the run has degraded. A tripped budget degrades to one
    /// rerun under the cancel-only governor instead of failing, recorded
    /// as the `finish-ungoverned` rung for `phase`; cancellation still
    /// aborts.
    fn degradable<T>(
        &self,
        phase: &'static str,
        run_governor: Option<&Governor>,
        ladder: &mut LadderState,
        mut run: impl FnMut(Option<&Governor>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let governor = if ladder.degraded {
            self.cancel_governor()
        } else {
            run_governor.cloned()
        };
        match run(governor.as_ref()) {
            Err(Error::Interrupted(i)) if self.degrade && i.reason != TripReason::Cancelled => {
                ladder.record("finish-ungoverned", phase, &i);
                run(self.cancel_governor().as_ref())
            }
            other => other,
        }
    }

    /// A deterministic stage-boundary governor check. A trip here
    /// degrades — the remaining stages run under cancellation only,
    /// recorded as the `finish-ungoverned` rung — or, for explicit
    /// cancellation or with degradation off, aborts the run.
    fn checkpoint(
        &self,
        run_governor: Option<&Governor>,
        ladder: &mut LadderState,
    ) -> Result<(), Error> {
        if ladder.degraded {
            // Already finishing ungoverned; only cancellation applies.
            if let Some(governor) = self.cancel_governor() {
                governor.check_now("flow")?;
            }
            return Ok(());
        }
        let Some(governor) = run_governor else {
            return Ok(());
        };
        match governor.check_now("flow") {
            Ok(()) => Ok(()),
            Err(i) if self.degrade && i.reason != TripReason::Cancelled => {
                ladder.record("finish-ungoverned", "boundary", &i);
                Ok(())
            }
            Err(i) => Err(Error::Interrupted(i)),
        }
    }

    /// One optimization pass with the configured delay bound, against
    /// the already-computed per-net statistics (whichever backend made
    /// them).
    fn optimize_once(
        &self,
        env: &FlowEnv,
        circuit: &Circuit,
        net_stats: &[SignalStats],
        objective: Objective,
        scratch: &mut Scratch,
        governor: Option<&Governor>,
    ) -> Result<OptimizeResult, Error> {
        // Faultpoint: an injected delay here blows a short deadline at
        // the optimizer's first governor check, deterministically.
        let _ = faultpoint::hit("optimize");
        let bound = match (self.delay_bound, objective) {
            (DelayBound::Unbounded, _) => Bound::Unbounded,
            (DelayBound::Local, Objective::MinimizePower) => Bound::Local(&env.timing),
            (DelayBound::Slack, Objective::MinimizePower) => Bound::Slack(&env.timing),
            (bound, Objective::MaximizePower) => {
                return Err(Error::Unsupported(format!(
                    "--delay-bound {} only supports --objective min",
                    bound.as_str()
                )))
            }
        };
        let options = OptimizeOptions {
            objective,
            bound,
            threads: self.threads,
            governor,
        };
        Ok(optimize_with(
            circuit,
            &env.library,
            &env.model,
            net_stats,
            &options,
            scratch,
        )?)
    }
}

/// Gate indices whose configuration or cell differs between two
/// structurally identical circuits — the dirty set handed to the
/// incremental re-propagator after an accepted optimization pass.
fn changed_gate_ids(before: &Circuit, after: &Circuit) -> Vec<GateId> {
    before
        .gates()
        .iter()
        .zip(after.gates())
        .enumerate()
        .filter(|(_, (b, a))| b.config != a.config || b.cell != a.cell)
        .map(|(i, _)| GateId(i))
        .collect()
}

/// The report label of a scenario + seed pair.
fn scenario_label(scenario: &Scenario, seed: u64) -> String {
    match scenario {
        Scenario::A { .. } => format!("A#{seed}"),
        Scenario::B { clock_hz } => format!("B@{clock_hz}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_netlist::generators;

    #[test]
    fn flow_matches_direct_optimizer_calls() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(4, &env.library);
        let stats = Scenario::a().input_stats(adder.primary_inputs().len(), 9);
        let direct = tr_reorder::optimize(
            &adder,
            &env.library,
            &env.model,
            &stats,
            Objective::MinimizePower,
        );
        let report = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 9)
            .run(&env)
            .expect("flow runs");
        assert_eq!(report.power.model_after_w, direct.power_after);
        assert_eq!(report.power.model_before_w, direct.power_before);
        assert_eq!(report.changed_gates, direct.changed_gates);
        assert_eq!(report.power.model_best_w, Some(direct.power_after));
        assert!(report.power.headroom_percent.unwrap() > 0.0);
        assert_eq!(report.scenario, "A#9");
    }

    #[test]
    fn bdd_backend_reports_mode_and_independence_error() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let base = Flow::from_circuit(adder).scenario(Scenario::a(), 11);
        let indep = base.clone().run(&env).unwrap();
        assert_eq!(indep.prob_mode, "indep");
        assert_eq!(indep.independence_error, None);
        let exact = base.prob(PropagationMode::ExactBdd).run(&env).unwrap();
        assert_eq!(exact.prob_mode, "bdd");
        let err = exact.independence_error.expect("exact backend measures it");
        assert!(
            err > 1e-6 && err < 0.5,
            "adder reconvergence error out of range: {err}"
        );
        // Different statistics ⇒ (generally) different power totals; at
        // minimum the pipeline must complete and stay self-consistent.
        assert!(exact.power.model_after_w > 0.0);
        assert!(exact.power.model_after_w <= exact.power.model_before_w + 1e-18);
    }

    #[test]
    fn prob_mode_parses_cli_spellings() {
        assert_eq!(
            parse_prob_mode("indep", 1).unwrap(),
            PropagationMode::Independent
        );
        assert_eq!(
            parse_prob_mode("bdd", 1).unwrap(),
            PropagationMode::ExactBdd
        );
        assert!(matches!(
            parse_prob_mode("monte", 9).unwrap(),
            PropagationMode::Monte { seed: 9, .. }
        ));
        assert!(parse_prob_mode("exact", 1).unwrap_err().is_usage());
    }

    #[test]
    fn partitioned_backend_reports_its_shape() {
        let env = FlowEnv::new();
        let c = generators::array_multiplier(6, &env.library);
        let report = Flow::from_circuit(c)
            .scenario(Scenario::a(), 7)
            .prob(PropagationMode::partitioned())
            .run(&env)
            .unwrap();
        // Whether this lands undegraded or through the shrink-regions
        // rung depends on the stimulus (the information-measure variable
        // order is statistics-driven); either way the statistics must
        // come from the partitioned backend and report its shape.
        assert_eq!(report.prob_mode, "part");
        if report.degraded {
            assert_eq!(report.degrade_rung.as_deref(), Some("shrink-regions"));
        }
        let regions = report.partition_regions.expect("part reports regions");
        assert!(regions > 1, "a 6-bit multiplier must split");
        assert_eq!(
            report.max_cut_width,
            Some(tr_power::partition::DEFAULT_CUT_WIDTH)
        );
        let bound = report
            .partition_error_bound
            .expect("part reports its structural bound");
        assert!(bound > 0.0 && bound <= 1.0, "bound: {bound}");
        assert!(report.independence_error.is_some());
        assert!(report.power.model_after_w > 0.0);
    }

    /// Bitwise images of per-net statistics.
    fn bits(stats: &[SignalStats]) -> Vec<(u64, u64)> {
        stats
            .iter()
            .map(|s| (s.probability().to_bits(), s.density().to_bits()))
            .collect()
    }

    #[test]
    fn partitioned_cut_width_zero_matches_exact_bdd() {
        let env = FlowEnv::new();
        let uncut = PropagationMode::PartitionedBdd {
            max_region_nodes: tr_power::partition::DEFAULT_REGION_NODES,
            max_cut_width: 0,
        };
        let c = generators::ripple_carry_adder(8, &env.library);
        let base = Flow::from_circuit(c).scenario(Scenario::a(), 11);
        let exact = base
            .clone()
            .prob(PropagationMode::ExactBdd)
            .run(&env)
            .unwrap();
        let part = base.prob(uncut).run(&env).unwrap();
        assert_eq!(part.prob_mode, "part");
        assert_eq!(part.partition_regions, Some(1));
        assert_eq!(
            part.partition_error_bound,
            Some(0.0),
            "0.0 certifies exactness"
        );
        assert_eq!(part.power.model_after_w, exact.power.model_after_w);
        assert_eq!(part.changed_gates, exact.changed_gates);

        // Cut width 0 builds the whole-circuit engine under the run's
        // budget: wherever `--prob bdd` completes, so does it, with the
        // same statistics bit for bit.
        let mut compared = 0;
        for case in tr_netlist::suite::standard_suite(&env.library) {
            let flow = Flow::from_circuit(case.circuit.clone()).scenario(Scenario::a(), 1);
            let exact = flow
                .clone()
                .prob(PropagationMode::ExactBdd)
                .prepare_stats(&env, &case.circuit)
                .unwrap();
            if exact.degraded() {
                continue;
            }
            let part = flow.prob(uncut).prepare_stats(&env, &case.circuit).unwrap();
            assert!(!part.degraded(), "{}: cut width 0 degraded", case.name);
            assert_eq!(part.prob_mode(), uncut, "{}", case.name);
            assert_eq!(
                bits(part.net_stats()),
                bits(exact.net_stats()),
                "{}: statistics differ from the exact engine's",
                case.name
            );
            compared += 1;
        }
        assert!(compared >= 25, "only {compared} suite circuits compared");
    }

    #[test]
    fn flow_statistics_are_the_propagator_statistics() {
        // `tr-opt analyze` builds a plain propagator; `optimize` goes
        // through the flow's ladder. Where the flow lands undegraded the
        // two must agree bit for bit: there is one engine.
        let env = FlowEnv::new();
        let mut compared = 0;
        for case in tr_netlist::suite::standard_suite(&env.library) {
            let stats = Scenario::a().input_stats(case.circuit.primary_inputs().len(), 1);
            let stage = Flow::from_circuit(case.circuit.clone())
                .scenario(Scenario::a(), 1)
                .prob(PropagationMode::partitioned())
                .prepare_stats(&env, &case.circuit)
                .unwrap();
            if stage.degraded() {
                continue;
            }
            let plain = IncrementalPropagator::new(
                &case.circuit,
                &env.library,
                &stats,
                PropagationMode::partitioned(),
            )
            .unwrap();
            assert_eq!(
                bits(stage.net_stats()),
                bits(plain.net_stats()),
                "{}",
                case.name
            );
            compared += 1;
        }
        assert!(compared >= 25, "only {compared} suite circuits compared");
    }

    #[test]
    fn partitioned_threads_agree_with_sequential() {
        let env = FlowEnv::new();
        let c = generators::array_multiplier(6, &env.library);
        let base = Flow::from_circuit(c)
            .scenario(Scenario::b(), 0)
            .prob(PropagationMode::partitioned());
        let seq = base.clone().threads(1).run(&env).unwrap();
        let par = base.threads(4).run(&env).unwrap();
        assert_eq!(seq.power.model_after_w, par.power.model_after_w);
        assert_eq!(seq.changed_gates, par.changed_gates);
        assert_eq!(seq.partition_regions, par.partition_regions);
    }

    #[test]
    fn parallel_threads_agree_with_sequential() {
        let env = FlowEnv::new();
        let c = generators::alu(4, &env.library);
        let base = Flow::from_circuit(c).scenario(Scenario::b(), 0);
        let seq = base.clone().threads(1).run(&env).unwrap();
        let par = base.threads(4).run(&env).unwrap();
        assert_eq!(seq.power.model_after_w, par.power.model_after_w);
        assert_eq!(seq.changed_gates, par.changed_gates);
    }

    #[test]
    fn max_objective_sim_fields_keep_best_worst_semantics() {
        let env = FlowEnv::new();
        let c = generators::ripple_carry_adder(2, &env.library);
        let report = Flow::from_circuit(c)
            .scenario(Scenario::a(), 5)
            .objective(Objective::MaximizePower)
            .simulate(SimOptions::quick(3))
            .run(&env)
            .unwrap();
        let sim = report.sim.expect("simulation requested");
        // Maximizing: the optimized circuit IS the worst ordering.
        assert_eq!(sim.worst_w, Some(sim.optimized_w));
        let best = sim.best_w.expect("headroom pass simulated the best");
        assert!(best <= sim.worst_w.unwrap());
        assert!(sim.reduction_percent.unwrap() >= 0.0);
        assert_eq!(report.power.model_worst_w, Some(report.power.model_after_w));
    }

    #[test]
    fn fixpoint_flow_converges_and_matches_the_single_pass() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let base = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 11)
            .prob(PropagationMode::ExactBdd);
        let single = base.clone().run(&env).unwrap();
        let fixed = base.fixpoint(true).run(&env).unwrap();
        assert!(fixed.changed_gates > 0, "optimizer should find moves");
        // Config-only moves: one accepting pass, one confirming pass.
        assert_eq!(fixed.fixpoint_iters, Some(2));
        assert!(fixed.repropagations >= 1);
        let disc = fixed
            .stale_power_discrepancy_w
            .expect("fixpoint flows measure freshness");
        assert!(
            disc <= 1e-12 * fixed.power.model_after_w,
            "§4.2: config-only discrepancy must vanish, got {disc}"
        );
        // Same final circuit, same (fresh) power as the single pass.
        assert_eq!(fixed.changed_gates, single.changed_gates);
        let rel = (fixed.power.model_after_w - single.power.model_after_w).abs()
            / single.power.model_after_w;
        assert!(rel <= 1e-12, "fixpoint vs single-pass power: {rel}");
    }

    #[test]
    fn fixpoint_rejects_delay_bounds() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let err = Flow::from_circuit(c)
            .fixpoint(true)
            .delay_bound(DelayBound::Local)
            .run(&env)
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn exact_backend_single_pass_reports_fresh_final_power() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let base = Flow::from_circuit(adder).scenario(Scenario::a(), 11);
        // The independent backend has no staleness to measure.
        let indep = base.clone().run(&env).unwrap();
        assert_eq!(indep.stale_power_discrepancy_w, None);
        assert_eq!(indep.repropagations, 0);
        assert_eq!(indep.fixpoint_iters, None);
        // The exact backend re-propagates the accepted changes' cones
        // and records the (vanishing, §4.2) discrepancy.
        let exact = base.prob(PropagationMode::ExactBdd).run(&env).unwrap();
        assert!(exact.changed_gates > 0);
        assert_eq!(exact.repropagations, 1);
        let disc = exact
            .stale_power_discrepancy_w
            .expect("exact backends check freshness");
        assert!(disc <= 1e-12 * exact.power.model_after_w, "got {disc}");
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_panics() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let _ = Flow::from_circuit(c).threads(0).run(&env);
    }

    #[test]
    fn vcd_without_simulate_is_rejected() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let err = Flow::from_circuit(c)
            .vcd("/tmp/never-written.vcd")
            .run(&env)
            .unwrap_err();
        assert!(err.is_usage());
    }

    #[test]
    fn bounded_max_objective_is_rejected() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let err = Flow::from_circuit(c)
            .objective(Objective::MaximizePower)
            .delay_bound(DelayBound::Slack)
            .run(&env)
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn explicit_stats_must_match_input_count() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let err = Flow::from_circuit(c)
            .input_stats(vec![SignalStats::new(0.5, 1.0); 2])
            .run(&env)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::StatsMismatch {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn slack_bound_never_grows_the_critical_path() {
        let env = FlowEnv::new();
        let c = generators::array_multiplier(4, &env.library);
        let report = Flow::from_circuit(c)
            .scenario(Scenario::a(), 3)
            .delay_bound(DelayBound::Slack)
            .run(&env)
            .unwrap();
        assert!(report.delay.increase_percent <= 1e-9);
        // Bounded flows skip the headroom pass.
        assert_eq!(report.power.headroom_percent, None);
    }

    #[test]
    fn zero_deadline_degrades_to_independent_and_completes() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let report = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 11)
            .prob(PropagationMode::ExactBdd)
            .budget(RunBudget::default().deadline_ms(0))
            .run(&env)
            .expect("degradation ladder must land the run");
        assert!(report.degraded);
        assert_eq!(report.degrade_rung.as_deref(), Some("independent-fallback"));
        assert_eq!(report.prob_mode, "indep");
        assert!(report.degrade_reason.is_some());
        assert!(report.power.model_after_w > 0.0);
    }

    #[test]
    fn tiny_node_budget_climbs_the_ladder_but_completes() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let report = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 11)
            .prob(PropagationMode::ExactBdd)
            .budget(RunBudget::default().bdd_nodes(4))
            .run(&env)
            .expect("node-limit ladder must land the run");
        assert!(report.degraded);
        // 4 nodes is too few under ANY order: the info-measure retry also
        // blows the budget and the run lands on the independent backend.
        assert_eq!(report.degrade_rung.as_deref(), Some("independent-fallback"));
        assert_eq!(report.prob_mode, "indep");
        let reason = report.degrade_reason.expect("first failure recorded");
        assert!(reason.contains("node limit"), "reason: {reason}");
    }

    #[test]
    fn generous_node_budget_stays_exact_and_undegraded() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let report = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 11)
            .prob(PropagationMode::ExactBdd)
            .budget(RunBudget::default().bdd_nodes(1 << 20))
            .run(&env)
            .unwrap();
        assert!(!report.degraded);
        assert_eq!(report.degrade_rung, None);
        assert_eq!(report.prob_mode, "bdd");
    }

    /// A report's JSON without its wall-clock `timings` block.
    fn without_timings(report: &FlowReport) -> String {
        let json = report.to_json();
        let end = json.rfind(",\"timings\":").expect("a timings block");
        json[..end].to_string()
    }

    #[test]
    fn node_budget_degradations_snapshot_and_replay_the_cold_report() {
        let env = FlowEnv::new();
        let suite = tr_netlist::suite::standard_suite(&env.library);
        let case = |name: &str| {
            let case = suite
                .iter()
                .find(|c| c.name == name)
                .expect("suite circuit");
            case.circuit.clone()
        };
        let adder = generators::ripple_carry_adder(8, &env.library);
        for (circuit, mode, nodes, rung, landed) in [
            // A region of csel32 blows the partitioned default budget.
            (
                case("csel32"),
                PropagationMode::partitioned(),
                None,
                "shrink-regions",
                "part",
            ),
            // The structural order blows 800 nodes; the information
            // measure's fits.
            (
                case("rnd_b"),
                PropagationMode::ExactBdd,
                Some(800),
                "info-reorder-retry",
                "bdd",
            ),
            // No order fits 4 nodes.
            (
                adder,
                PropagationMode::ExactBdd,
                Some(4),
                "independent-fallback",
                "indep",
            ),
        ] {
            let budget = match nodes {
                Some(n) => RunBudget::default().bdd_nodes(n),
                None => RunBudget::default(),
            };
            let flow = Flow::from_circuit(circuit.clone())
                .scenario(Scenario::a(), 1)
                .prob(mode)
                .budget(budget);
            let stage = flow.prepare_stats(&env, &circuit).unwrap();
            let snapshot = stage.snapshot().expect("a node-budget ladder snapshots");
            assert!(snapshot.degraded(), "{rung}");
            assert_eq!(snapshot.prob_mode(), stage.prob_mode(), "{rung}");
            let mut scratch = Scratch::new();
            let (cold, _) = flow
                .run_staged(&env, &circuit, "c".into(), 0.0, stage, &mut scratch)
                .unwrap();
            assert!(cold.degraded, "{rung}");
            assert_eq!(cold.degrade_rung.as_deref(), Some(rung));
            assert_eq!(cold.prob_mode, landed, "{rung}");

            let stage = flow.rehydrate(&env, &circuit, &snapshot).unwrap();
            assert!(stage.degraded(), "{rung}");
            let (warm, _) = flow
                .run_staged(&env, &circuit, "c".into(), 0.0, stage, &mut scratch)
                .unwrap();
            assert_eq!(without_timings(&warm), without_timings(&cold), "{rung}");
            // The events keep the cold run's offsets.
            assert_eq!(warm.degrade_events, cold.degrade_events, "{rung}");
            assert_eq!(
                (
                    &warm.degrade_reason,
                    warm.partition_regions,
                    warm.partition_error_bound
                ),
                (
                    &cold.degrade_reason,
                    cold.partition_regions,
                    cold.partition_error_bound
                ),
                "{rung}"
            );

            // Only the flow that made it may replay it.
            let larger = flow.clone().budget(RunBudget::default().bdd_nodes(1 << 20));
            let strict = flow.clone().degrade(false);
            for other in [larger, strict] {
                let err = other.rehydrate(&env, &circuit, &snapshot).unwrap_err();
                assert!(err.is_usage(), "{rung}: {err}");
            }
        }
    }

    #[test]
    fn deadline_degradations_do_not_snapshot() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        for mode in [PropagationMode::ExactBdd, PropagationMode::partitioned()] {
            let stage = Flow::from_circuit(adder.clone())
                .scenario(Scenario::a(), 11)
                .prob(mode)
                .budget(RunBudget::default().deadline_ms(0))
                .prepare_stats(&env, &adder)
                .unwrap();
            assert!(stage.degraded(), "{mode}");
            assert!(stage.snapshot().is_none(), "{mode}");
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_with_interrupted() {
        let env = FlowEnv::new();
        let c = generators::parity_tree(4, &env.library);
        let token = CancelToken::new();
        token.cancel();
        let err = Flow::from_circuit(c).cancel(token).run(&env).unwrap_err();
        match err {
            Error::Interrupted(i) => assert_eq!(i.reason, TripReason::Cancelled),
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn degrade_off_surfaces_the_typed_error() {
        let env = FlowEnv::new();
        let adder = generators::ripple_carry_adder(8, &env.library);
        let err = Flow::from_circuit(adder)
            .scenario(Scenario::a(), 11)
            .prob(PropagationMode::ExactBdd)
            .budget(RunBudget::default().bdd_nodes(4))
            .degrade(false)
            .run(&env)
            .unwrap_err();
        assert!(
            err.to_string().contains("node limit"),
            "expected the NodeLimit error verbatim, got: {err}"
        );
    }

    #[test]
    fn per_gate_rows_cover_every_gate() {
        let env = FlowEnv::new();
        let c = generators::ripple_carry_adder(2, &env.library);
        let n = c.gates().len();
        let report = Flow::from_circuit(c)
            .scenario(Scenario::a(), 1)
            .per_gate(true)
            .run(&env)
            .unwrap();
        let rows = report.per_gate.expect("per-gate rows requested");
        assert_eq!(rows.len(), n);
        let total: f64 = rows.iter().map(|r| r.power_w).sum();
        assert!((total - report.power.model_after_w).abs() <= 1e-12 * total.max(1e-30));
    }
}
