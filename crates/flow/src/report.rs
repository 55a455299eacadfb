//! The structured result of one flow run.
//!
//! A [`FlowReport`] is the pipeline's public data contract: everything a
//! caller needs to rank circuits, regenerate the paper's tables, or feed
//! a dashboard, serializable as one JSON object per run (`to_json`, the
//! schema is pinned by a golden test) or one CSV row per run
//! (`csv_header`/`to_csv_row`).
//!
//! Unit conventions, encoded in the field names: `_w` watts, `_s`
//! seconds, `_percent` percent.

use tr_trace::json::{json_f64, json_opt_f64, json_opt_string, json_string};

/// One step down the degradation ladder, in the order the rungs were
/// hit. `degrade_rung` keeps only the deepest rung; this array is the
/// full history — which budgets tripped, in which pipeline phase, and
/// when. The JSON report keeps the wall-clock part with the other
/// timings: each event's `elapsed_ms` is an entry of `timings.degrade_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeEvent {
    /// The rung taken (`shrink-regions`, `info-reorder-retry`,
    /// `independent-fallback` or `finish-ungoverned`).
    pub rung: String,
    /// Pipeline phase the trip was handled in (`stats`, `optimize`,
    /// `sim` or `boundary`).
    pub phase: String,
    /// Milliseconds from the start of the pipeline to the rung.
    pub elapsed_ms: f64,
}

/// Engine-health block of the run: the self-profiling numbers that
/// complement the per-stage wall-times in [`StageTimings`]. All fields
/// are `None` when the statistics backend has no BDD engine (`indep`,
/// `monte`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// High-water mark of the engine's live node count (the monolithic
    /// engine under `bdd`; the shared region engine under `part`).
    pub peak_live_nodes: Option<usize>,
    /// Combined ITE/restrict op-cache hit fraction over the whole run.
    pub cache_hit_rate: Option<f64>,
    /// Fraction of region-schedule thread-time spent evaluating regions
    /// (`part` only). The statistics engine evaluates its regions on one
    /// thread, one after another, so this is always 1.0.
    pub region_utilization: Option<f64>,
}

/// Model-power outcome of the optimization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Model power of the circuit as loaded (W).
    pub model_before_w: f64,
    /// Model power after optimizing toward the objective (W).
    pub model_after_w: f64,
    /// `100·(before − after)/before` — positive means the objective
    /// improved the circuit.
    pub reduction_percent: f64,
    /// Model power of the best (minimum-power) ordering, when the
    /// headroom pass ran (W).
    pub model_best_w: Option<f64>,
    /// Model power of the worst (maximum-power) ordering, when the
    /// headroom pass ran (W).
    pub model_worst_w: Option<f64>,
    /// `100·(worst − best)/worst` — the paper's M column.
    pub headroom_percent: Option<f64>,
}

/// Static-timing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayReport {
    /// Critical-path delay of the circuit as loaded (s).
    pub critical_path_before_s: f64,
    /// Critical-path delay of the optimized circuit (s).
    pub critical_path_after_s: f64,
    /// `100·(after − before)/before` — the paper's D column.
    pub increase_percent: f64,
}

/// Switch-level simulation outcome (present when simulation ran).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Simulated time span (s).
    pub duration_s: f64,
    /// Discarded warm-up interval (s).
    pub warmup_s: f64,
    /// Waveform seed.
    pub seed: u64,
    /// Simulated power of the circuit as loaded, when the baseline
    /// simulation ran (W).
    pub baseline_w: Option<f64>,
    /// Simulated power of the optimized circuit (W).
    pub optimized_w: f64,
    /// Simulated power of the best (minimum-power) ordering, when the
    /// headroom pass ran (W). Equals `optimized_w` when minimizing.
    pub best_w: Option<f64>,
    /// Simulated power of the worst (maximum-power) ordering, when the
    /// headroom pass ran (W). Equals `optimized_w` when maximizing.
    pub worst_w: Option<f64>,
    /// `100·(worst − best)/worst` when both orderings were simulated —
    /// the paper's S column.
    pub reduction_percent: Option<f64>,
}

/// Per-gate detail row (present when requested via
/// [`Flow::per_gate`](crate::Flow::per_gate)).
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Output-net name of the gate.
    pub gate: String,
    /// Library cell name.
    pub cell: String,
    /// Configuration index before optimization.
    pub config_before: usize,
    /// Configuration index chosen by the optimizer.
    pub config_after: usize,
    /// Model power of the gate in its chosen configuration (W).
    pub power_w: f64,
}

/// Wall-clock seconds spent in each pipeline stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    /// Read + parse + technology-map the source.
    pub load_s: f64,
    /// Draw input statistics and propagate them.
    pub stats_s: f64,
    /// Optimization (including the headroom counterpart pass).
    pub optimize_s: f64,
    /// Static timing analysis.
    pub timing_s: f64,
    /// Switch-level simulation (0 when simulation is off).
    pub sim_s: f64,
    /// Netlist/VCD output (0 when nothing is written).
    pub write_s: f64,
    /// End-to-end run time.
    pub total_s: f64,
}

/// The structured result of one [`Flow`](crate::Flow) run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Circuit name (file stem or the circuit's own name).
    pub circuit: String,
    /// Scenario label (e.g. `A#42` for Scenario A with seed 42, `B@2e7`
    /// for Scenario B at 20 MHz, `explicit` for caller-supplied stats).
    pub scenario: String,
    /// Gate count.
    pub gates: usize,
    /// Primary-input count.
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Logic depth (gates on the longest topological path).
    pub depth: usize,
    /// Optimization objective (`min` or `max`).
    pub objective: String,
    /// Delay-bound mode (`none`, `local` or `slack`).
    pub delay_bound: String,
    /// Probability backend the statistics were *actually* computed with
    /// (`indep`, `bdd` or `monte`). When the degradation ladder fell
    /// back, this is the fallback backend, with `degraded`,
    /// `degrade_reason` and `degrade_rung` telling the story.
    pub prob_mode: String,
    /// Whether a resource budget tripped and the run completed through
    /// the degradation ladder instead of aborting.
    pub degraded: bool,
    /// The failure that started the degradation (e.g. the node-limit or
    /// deadline message), when `degraded`.
    pub degrade_reason: Option<String>,
    /// The deepest ladder rung reached: `info-reorder-retry` (exact
    /// backend rebuilt under the information-measure order),
    /// `shrink-regions` (partitioned backend rebuilt with halved
    /// per-region budgets), `independent-fallback` (statistics
    /// recomputed under the independence assumption), or
    /// `finish-ungoverned` (statistics survived; a later stage finished
    /// without deadline enforcement).
    pub degrade_rung: Option<String>,
    /// Every ladder rung taken, in order — empty when the run never
    /// degraded. `degrade_rung` is always the last entry's rung.
    pub degrade_events: Vec<DegradeEvent>,
    /// Max absolute per-net probability deviation of the independence
    /// assumption from this run's backend (present for any
    /// non-independent backend; `None` under `indep`). Under `bdd` this
    /// is the exact error; under `monte` it additionally carries the
    /// estimator's sampling noise (≈ `1/√steps` per net), so small
    /// values are indistinguishable from zero.
    pub independence_error: Option<f64>,
    /// Regions of the cone partition the `part` backend evaluated
    /// (`None` for every other backend).
    pub partition_regions: Option<usize>,
    /// The `part` backend's cut-width budget — external inputs per
    /// region (`None` for every other backend).
    pub max_cut_width: Option<usize>,
    /// The `part` backend's *structural* error bound: the fraction of
    /// gate-driven nets not provably exact under the cut, i.e. an upper
    /// bound on how much of the circuit can deviate from full-BDD
    /// statistics at all. `0.0` certifies the statistics equal full-BDD
    /// up to rounding. This bounds coverage, not magnitude — measured
    /// |ΔP| magnitudes live in the equivalence suite and EXPERIMENTS.
    pub partition_error_bound: Option<f64>,
    /// Gates whose configuration changed.
    pub changed_gates: usize,
    /// Optimizer traversals of the fixed-point loop (`None` for the
    /// classic single-pass flow).
    pub fixpoint_iters: Option<usize>,
    /// Dirty-cone statistics re-propagations this run performed
    /// (fixed-point refreshes, or the single post-optimization
    /// freshness check of exact-backend single-pass flows).
    pub repropagations: usize,
    /// `|stale − fresh|` final model power (W): the measured error of
    /// reporting the optimized circuit under pre-optimization
    /// statistics. Present whenever a freshness check ran: measured per
    /// run by fixed-point flows (≈0 for the paper's config-only moves,
    /// the §4.2 lemma), and exactly 0 for single-pass exact-backend
    /// flows, whose reordering-only moves re-derive no statistic.
    pub stale_power_discrepancy_w: Option<f64>,
    /// Model-power outcome.
    pub power: PowerReport,
    /// Static-timing outcome.
    pub delay: DelayReport,
    /// Simulation outcome, when simulation ran.
    pub sim: Option<SimSummary>,
    /// Per-gate rows, when requested.
    pub per_gate: Option<Vec<GateReport>>,
    /// Engine-health self-profile (peak live nodes, cache hit rate,
    /// region utilization).
    pub perf: PerfReport,
    /// Wall-clock per stage.
    pub timings: StageTimings,
}

impl FlowReport {
    /// Serializes the report as one JSON object on a single line.
    ///
    /// The schema (field names, nesting, units) is pinned by the golden
    /// test in `tests/report_schema.rs`; downstream consumers can rely
    /// on it.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"circuit\":{},", json_string(&self.circuit)));
        out.push_str(&format!("\"scenario\":{},", json_string(&self.scenario)));
        out.push_str(&format!("\"gates\":{},", self.gates));
        out.push_str(&format!("\"inputs\":{},", self.inputs));
        out.push_str(&format!("\"outputs\":{},", self.outputs));
        out.push_str(&format!("\"depth\":{},", self.depth));
        out.push_str(&format!("\"objective\":{},", json_string(&self.objective)));
        out.push_str(&format!(
            "\"delay_bound\":{},",
            json_string(&self.delay_bound)
        ));
        out.push_str(&format!("\"prob_mode\":{},", json_string(&self.prob_mode)));
        out.push_str(&format!("\"degraded\":{},", self.degraded));
        out.push_str(&format!(
            "\"degrade_reason\":{},",
            json_opt_string(self.degrade_reason.as_deref())
        ));
        out.push_str(&format!(
            "\"degrade_rung\":{},",
            json_opt_string(self.degrade_rung.as_deref())
        ));
        out.push_str("\"degrade_events\":[");
        for (i, e) in self.degrade_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rung\":{},\"phase\":{}}}",
                json_string(&e.rung),
                json_string(&e.phase),
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"independence_error\":{},",
            json_opt_f64(self.independence_error)
        ));
        match self.partition_regions {
            Some(n) => out.push_str(&format!("\"partition_regions\":{n},")),
            None => out.push_str("\"partition_regions\":null,"),
        }
        match self.max_cut_width {
            Some(n) => out.push_str(&format!("\"max_cut_width\":{n},")),
            None => out.push_str("\"max_cut_width\":null,"),
        }
        out.push_str(&format!(
            "\"partition_error_bound\":{},",
            json_opt_f64(self.partition_error_bound)
        ));
        out.push_str(&format!("\"changed_gates\":{},", self.changed_gates));
        match self.fixpoint_iters {
            Some(n) => out.push_str(&format!("\"fixpoint_iters\":{n},")),
            None => out.push_str("\"fixpoint_iters\":null,"),
        }
        out.push_str(&format!("\"repropagations\":{},", self.repropagations));
        out.push_str(&format!(
            "\"stale_power_discrepancy_w\":{},",
            json_opt_f64(self.stale_power_discrepancy_w)
        ));
        out.push_str(&format!(
            "\"power\":{{\"model_before_w\":{},\"model_after_w\":{},\"reduction_percent\":{},\
             \"model_best_w\":{},\"model_worst_w\":{},\"headroom_percent\":{}}},",
            json_f64(self.power.model_before_w),
            json_f64(self.power.model_after_w),
            json_f64(self.power.reduction_percent),
            json_opt_f64(self.power.model_best_w),
            json_opt_f64(self.power.model_worst_w),
            json_opt_f64(self.power.headroom_percent),
        ));
        out.push_str(&format!(
            "\"delay\":{{\"critical_path_before_s\":{},\"critical_path_after_s\":{},\
             \"increase_percent\":{}}},",
            json_f64(self.delay.critical_path_before_s),
            json_f64(self.delay.critical_path_after_s),
            json_f64(self.delay.increase_percent),
        ));
        match &self.sim {
            Some(sim) => out.push_str(&format!(
                "\"sim\":{{\"duration_s\":{},\"warmup_s\":{},\"seed\":{},\"baseline_w\":{},\
                 \"optimized_w\":{},\"best_w\":{},\"worst_w\":{},\"reduction_percent\":{}}},",
                json_f64(sim.duration_s),
                json_f64(sim.warmup_s),
                sim.seed,
                json_opt_f64(sim.baseline_w),
                json_f64(sim.optimized_w),
                json_opt_f64(sim.best_w),
                json_opt_f64(sim.worst_w),
                json_opt_f64(sim.reduction_percent),
            )),
            None => out.push_str("\"sim\":null,"),
        }
        match &self.per_gate {
            Some(rows) => {
                out.push_str("\"per_gate\":[");
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"gate\":{},\"cell\":{},\"config_before\":{},\"config_after\":{},\
                         \"power_w\":{}}}",
                        json_string(&r.gate),
                        json_string(&r.cell),
                        r.config_before,
                        r.config_after,
                        json_f64(r.power_w),
                    ));
                }
                out.push_str("],");
            }
            None => out.push_str("\"per_gate\":null,"),
        }
        match self.perf.peak_live_nodes {
            Some(n) => out.push_str(&format!("\"perf\":{{\"peak_live_nodes\":{n},")),
            None => out.push_str("\"perf\":{\"peak_live_nodes\":null,"),
        }
        out.push_str(&format!(
            "\"cache_hit_rate\":{},\"region_utilization\":{}}},",
            json_opt_f64(self.perf.cache_hit_rate),
            json_opt_f64(self.perf.region_utilization),
        ));
        out.push_str(&format!(
            "\"timings\":{{\"load_s\":{},\"stats_s\":{},\"optimize_s\":{},\"timing_s\":{},\
             \"sim_s\":{},\"write_s\":{},\"total_s\":{},\"degrade_ms\":[",
            json_f64(self.timings.load_s),
            json_f64(self.timings.stats_s),
            json_f64(self.timings.optimize_s),
            json_f64(self.timings.timing_s),
            json_f64(self.timings.sim_s),
            json_f64(self.timings.write_s),
            json_f64(self.timings.total_s),
        ));
        for (i, e) in self.degrade_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_f64(e.elapsed_ms));
        }
        out.push_str("]}}");
        out
    }

    /// The CSV header matching [`FlowReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "circuit,scenario,gates,inputs,outputs,depth,objective,delay_bound,prob_mode,\
         degraded,degrade_reason,degrade_rung,degrade_events,\
         independence_error,partition_regions,max_cut_width,partition_error_bound,\
         changed_gates,\
         fixpoint_iters,repropagations,stale_power_discrepancy_w,\
         model_before_w,model_after_w,reduction_percent,model_best_w,model_worst_w,\
         headroom_percent,critical_path_before_s,critical_path_after_s,delay_increase_percent,\
         sim_duration_s,sim_baseline_w,sim_optimized_w,sim_best_w,sim_worst_w,\
         sim_reduction_percent,peak_live_nodes,cache_hit_rate,region_utilization,\
         load_s,stats_s,optimize_s,timing_s,sim_s,write_s,total_s"
    }

    /// Serializes the report as one CSV row (per-gate rows are JSON-only).
    pub fn to_csv_row(&self) -> String {
        let opt = |v: Option<f64>| v.map(|v| format!("{v}")).unwrap_or_default();
        let sim = self.sim.as_ref();
        [
            csv_field(&self.circuit),
            csv_field(&self.scenario),
            self.gates.to_string(),
            self.inputs.to_string(),
            self.outputs.to_string(),
            self.depth.to_string(),
            csv_field(&self.objective),
            csv_field(&self.delay_bound),
            csv_field(&self.prob_mode),
            self.degraded.to_string(),
            self.degrade_reason
                .as_deref()
                .map(csv_field)
                .unwrap_or_default(),
            self.degrade_rung
                .as_deref()
                .map(csv_field)
                .unwrap_or_default(),
            // The full event array is JSON-only; CSV carries the count.
            self.degrade_events.len().to_string(),
            opt(self.independence_error),
            self.partition_regions
                .map(|n| n.to_string())
                .unwrap_or_default(),
            self.max_cut_width
                .map(|n| n.to_string())
                .unwrap_or_default(),
            opt(self.partition_error_bound),
            self.changed_gates.to_string(),
            self.fixpoint_iters
                .map(|n| n.to_string())
                .unwrap_or_default(),
            self.repropagations.to_string(),
            opt(self.stale_power_discrepancy_w),
            format!("{}", self.power.model_before_w),
            format!("{}", self.power.model_after_w),
            format!("{}", self.power.reduction_percent),
            opt(self.power.model_best_w),
            opt(self.power.model_worst_w),
            opt(self.power.headroom_percent),
            format!("{}", self.delay.critical_path_before_s),
            format!("{}", self.delay.critical_path_after_s),
            format!("{}", self.delay.increase_percent),
            opt(sim.map(|s| s.duration_s)),
            opt(sim.and_then(|s| s.baseline_w)),
            opt(sim.map(|s| s.optimized_w)),
            opt(sim.and_then(|s| s.best_w)),
            opt(sim.and_then(|s| s.worst_w)),
            opt(sim.and_then(|s| s.reduction_percent)),
            self.perf
                .peak_live_nodes
                .map(|n| n.to_string())
                .unwrap_or_default(),
            opt(self.perf.cache_hit_rate),
            opt(self.perf.region_utilization),
            format!("{}", self.timings.load_s),
            format!("{}", self.timings.stats_s),
            format!("{}", self.timings.optimize_s),
            format!("{}", self.timings.timing_s),
            format!("{}", self.timings.sim_s),
            format!("{}", self.timings.write_s),
            format!("{}", self.timings.total_s),
        ]
        .join(",")
    }
}

/// Quotes a CSV field only when it needs quoting.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comma_report() -> FlowReport {
        FlowReport {
            circuit: "c,17".into(),
            scenario: "A#1".into(),
            gates: 6,
            inputs: 5,
            outputs: 2,
            depth: 3,
            objective: "min".into(),
            delay_bound: "none".into(),
            prob_mode: "indep".into(),
            degraded: false,
            degrade_reason: None,
            degrade_rung: None,
            degrade_events: Vec::new(),
            independence_error: None,
            partition_regions: None,
            max_cut_width: None,
            partition_error_bound: None,
            changed_gates: 2,
            fixpoint_iters: None,
            repropagations: 0,
            stale_power_discrepancy_w: None,
            power: PowerReport {
                model_before_w: 1.0e-6,
                model_after_w: 9.0e-7,
                reduction_percent: 10.0,
                model_best_w: None,
                model_worst_w: None,
                headroom_percent: None,
            },
            delay: DelayReport {
                critical_path_before_s: 1.0e-9,
                critical_path_after_s: 1.1e-9,
                increase_percent: 10.0,
            },
            sim: None,
            per_gate: None,
            perf: PerfReport::default(),
            timings: StageTimings::default(),
        }
    }

    #[test]
    fn csv_header_and_row_have_same_arity() {
        let report = comma_report();
        let header_fields = FlowReport::csv_header().split(',').count();
        let row_fields = report.to_csv_row().split(',').count();
        // The quoted "c,17" field adds one raw comma.
        assert_eq!(header_fields + 1, row_fields);
        assert!(report.to_csv_row().starts_with("\"c,17\""));
    }

    /// Regression: `objective`, `delay_bound` and `prob_mode` used to be
    /// emitted raw, so a comma-bearing value would shift every later
    /// column. All string fields must go through the quoting path.
    #[test]
    fn every_string_field_is_csv_quoted() {
        let mut report = comma_report();
        report.scenario = "A#1,B@2e7".into();
        report.objective = "min,imize".into();
        report.delay_bound = "none,really".into();
        report.prob_mode = "bdd,exact".into();
        report.degrade_reason = Some("bdd interrupted (deadline), sadly".into());
        let row = report.to_csv_row();
        for quoted in [
            "\"c,17\"",
            "\"A#1,B@2e7\"",
            "\"min,imize\"",
            "\"none,really\"",
            "\"bdd,exact\"",
            "\"bdd interrupted (deadline), sadly\"",
        ] {
            assert!(row.contains(quoted), "missing {quoted} in {row}");
        }
        // Quoted, the six embedded commas cancel out: arity still holds.
        let header_fields = FlowReport::csv_header().split(',').count();
        assert_eq!(header_fields + 6, row.split(',').count());
    }
}
