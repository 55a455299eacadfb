//! End-to-end and per-layer benchmark of the transistor-reordering
//! optimizer.
//!
//! One invocation runs one named workload in this process and prints, as
//! the last line of standard output, one JSON object with the verdict of
//! the output checks, the operations attempted and failed, and every
//! metric by name with its unit:
//!
//! ```text
//! perfbench --workload scale-part --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` runs the program as a user would (its own tracer stays
//! off) and reports the end-to-end metrics; `--trace 1` is a separate
//! pass that drives the same inputs through the layers' public
//! functions, times each call with the benchmark's own spans and reports
//! per-layer metrics. See README.md for the workloads, metrics and their
//! meaning.

mod batch;
mod checks;
mod serve_mix;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use tr_flow::FlowEnv;

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and failed over the whole run.
    pub attempted: u64,
    pub failed: u64,
    /// Measured metrics by name; a per-layer metric of a layer the
    /// workload does not run is left out and reads 0.
    pub metrics: Vec<(&'static str, f64)>,
}

/// End-to-end metrics (untraced pass), with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("gates_per_s", "gates/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("power_reduction_pct", "%"),
];

/// Per-layer metrics (traced pass), with their units.
const PER_LAYER: [(&str, &str); 34] = [
    ("netlist.parse_ms", "ms"),
    ("netlist.map_ms", "ms"),
    ("netlist.validate_ms", "ms"),
    ("netlist.compile_ms", "ms"),
    ("netlist.load_gates_per_s", "gates/s"),
    ("power.stats_ms", "ms"),
    ("power.bdd_peak_live_nodes", "count"),
    ("power.bdd_cache_hit_rate", "ratio"),
    ("power.refresh_ms", "ms"),
    ("power.repropagations", "count"),
    ("power.part_regions", "count"),
    ("power.part_approx_fraction", "ratio"),
    ("power.ladder_rungs", "count"),
    ("reorder.optimize_ms", "ms"),
    ("reorder.changed_gates", "count"),
    ("timing.sta_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.transitions", "count"),
    ("sim.transitions_per_s", "1/s"),
    ("flow.render_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.body_kb", "KB"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.rehydrate_ms", "ms"),
    ("serve.optimize_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.evictions", "count"),
    ("trace.gates_per_s", "gates/s"),
];

/// Attempted/failed bookkeeping for one class of operations (one
/// workload input, or one `serve-mix` request class).
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Prints the per-class accounting to stderr and sums it.
pub fn report_tallies<'a>(tallies: impl IntoIterator<Item = (&'a str, &'a Tally)>) -> Tally {
    let mut total = Tally::default();
    for (name, t) in tallies {
        eprintln!(
            "  {name:<14} attempted {:>6}  failed {:>6}",
            t.attempted, t.failed
        );
        total.attempted += t.attempted;
        total.failed += t.failed;
    }
    total
}

/// `setup_s` for the batch workloads: `FlowEnv::new` (library plus
/// compiled power and timing models), timed a few times before the first
/// operation and then about every half second of the run, reported as
/// the median of all samples. The host's speed drifts during a run;
/// samples spread over it see the same conditions as the operations.
pub struct SetupClock {
    samples: Vec<f64>,
    last: Instant,
}

impl SetupClock {
    const FIRST: usize = 5;
    const EVERY_S: f64 = 0.5;

    /// Builds the environment the run uses, timing the first samples.
    pub fn start() -> (FlowEnv, SetupClock) {
        let mut clock = SetupClock {
            samples: Vec::new(),
            last: Instant::now(),
        };
        let mut env = clock.sample();
        for _ in 1..Self::FIRST {
            env = clock.sample();
        }
        (env, clock)
    }

    fn sample(&mut self) -> FlowEnv {
        let t = Instant::now();
        let env = std::hint::black_box(FlowEnv::new());
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        env
    }

    /// Takes one more sample when the last one is half a second old.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= Self::EVERY_S {
            self.sample();
        }
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.samples)
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The command line, validated.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table3-sim|scale-part|serve-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "table3-sim" | "scale-part" => batch::run(&args),
        "serve-mix" => serve_mix::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: metric `{name}` was not measured");
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric `{name}` is not a finite number ({value})");
            return ExitCode::from(1);
        }
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
