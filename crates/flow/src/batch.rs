//! Run one [`Flow`] template over many circuits × many scenarios on a
//! work-stealing thread pool, streaming one report per (circuit,
//! scenario) as it completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::env::FlowEnv;
use crate::error::Error;
use crate::flow::Flow;
use crate::report::FlowReport;
use crate::source::{NetlistFormat, Source};
use tr_netlist::Circuit;
use tr_power::scenario::Scenario;
use tr_power::Scratch;

/// One named input of a batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (file stem or circuit name).
    pub name: String,
    /// Where the circuit comes from.
    pub source: Source,
}

impl BatchJob {
    /// A job reading one netlist file.
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        let source = Source::Path(path.as_ref().to_path_buf());
        BatchJob {
            name: source.name(),
            source,
        }
    }

    /// A job over an in-memory circuit under an explicit name.
    pub fn from_circuit(name: impl Into<String>, circuit: Circuit) -> Self {
        BatchJob {
            name: name.into(),
            source: Source::Circuit(circuit),
        }
    }

    /// All recognizable netlist files (`.bench`, `.blif`, `.trnet`)
    /// directly inside `dir`, sorted by name.
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Vec<BatchJob>, Error> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| Error::io(dir, e))?;
        let mut jobs = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let path = entry.path();
            if path.is_file() && NetlistFormat::detect(&path).is_some() {
                jobs.push(BatchJob::from_path(&path));
            }
        }
        jobs.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(jobs)
    }
}

/// One cell of the scenario matrix: a labeled scenario + seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Report label (`A#<seed>`, `B@<clock_hz>`).
    pub label: String,
    /// The scenario.
    pub scenario: Scenario,
    /// Input-statistics seed (Scenario B ignores it).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Scenario A with this seed.
    pub fn a(seed: u64) -> Self {
        ScenarioSpec {
            label: format!("A#{seed}"),
            scenario: Scenario::a(),
            seed,
        }
    }

    /// Scenario B at this clock frequency.
    pub fn b(clock_hz: f64) -> Self {
        ScenarioSpec {
            label: format!("B@{clock_hz}"),
            scenario: Scenario::B { clock_hz },
            seed: 0,
        }
    }

    /// Parses one spec: `a:<seed>` or `b:<clock_hz>` (e.g. `a:42`,
    /// `b:2e7`).
    pub fn parse(token: &str) -> Result<Self, Error> {
        let (kind, value) = token
            .split_once(':')
            .ok_or_else(|| Error::Usage(format!("bad scenario `{token}` (want a:SEED or b:HZ)")))?;
        match kind {
            "a" | "A" => value
                .parse::<u64>()
                .map(ScenarioSpec::a)
                .map_err(|e| Error::Usage(format!("bad scenario seed `{value}`: {e}"))),
            "b" | "B" => {
                let hz = value
                    .parse::<f64>()
                    .map_err(|e| Error::Usage(format!("bad clock `{value}`: {e}")))?;
                if !(hz.is_finite() && hz > 0.0) {
                    return Err(Error::Usage(format!("bad clock `{value}`: must be > 0")));
                }
                Ok(ScenarioSpec::b(hz))
            }
            other => Err(Error::Usage(format!(
                "bad scenario kind `{other}` (want `a` or `b`)"
            ))),
        }
    }

    /// Parses a comma-separated matrix, e.g. `a:1,a:2,b:2e7,b:5e7`.
    pub fn parse_matrix(s: &str) -> Result<Vec<ScenarioSpec>, Error> {
        let specs: Result<Vec<_>, _> = s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| ScenarioSpec::parse(t.trim()))
            .collect();
        let specs = specs?;
        if specs.is_empty() {
            return Err(Error::Usage("empty scenario matrix".into()));
        }
        Ok(specs)
    }

    /// The default 4-entry matrix: two Scenario A seeds and two Scenario
    /// B clocks (20 MHz and 50 MHz).
    pub fn default_matrix() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::a(1),
            ScenarioSpec::a(2),
            ScenarioSpec::b(2.0e7),
            ScenarioSpec::b(5.0e7),
        ]
    }
}

/// The outcome of one (circuit, scenario) cell of the batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Job name.
    pub job: String,
    /// Scenario label.
    pub scenario: String,
    /// The report, or why this cell failed.
    pub outcome: Result<FlowReport, Error>,
}

/// Runs a [`Flow`] template over jobs × scenarios on a thread pool.
///
/// Workers pull (circuit, scenario) cells off a shared atomic queue —
/// work stealing in all but name: a thread stuck on a big circuit simply
/// claims fewer cells — and reuse one `Scratch` arena each across all
/// their runs. Each job's netlist is parsed and mapped once, not once
/// per scenario. Results stream to the caller's callback in completion
/// order.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    template: Flow,
    threads: usize,
}

impl BatchRunner {
    /// A runner stamping `template` over every (job, scenario) cell. The
    /// template's own source and scenario are ignored (and the source is
    /// dropped here, so a template built from a large circuit costs
    /// nothing per cell); its objective, delay bound, mapper options,
    /// simulation and per-gate settings apply to every cell. Per-cell
    /// optimization is single-threaded — parallelism comes from the
    /// pool. Templates that write `--out`/`--vcd` artifacts are rejected
    /// at [`BatchRunner::run`] time: every cell would clobber the same
    /// file.
    pub fn new(template: Flow) -> Self {
        BatchRunner {
            template: template
                .threads(1)
                .with_source(Source::Circuit(Circuit::new("template"))),
            threads: 1,
        }
    }

    /// Pool size (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` (same contract as [`Flow::threads`] and
    /// [`tr_reorder::optimize_with`] — this used to clamp silently while
    /// the others panicked).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Runs the whole matrix; `on_result` fires once per result as it
    /// completes (in completion order, from the calling thread). A job
    /// whose netlist fails to load yields a single result carrying the
    /// typed error (scenario label `-`) instead of one per scenario;
    /// loaded jobs yield one result per scenario cell.
    pub fn run(
        &self,
        env: &FlowEnv,
        jobs: &[BatchJob],
        matrix: &[ScenarioSpec],
        mut on_result: impl FnMut(&BatchResult),
    ) -> Vec<BatchResult> {
        // One fixed output path across N×M concurrent cells would leave
        // whichever cell finished last; refuse rather than lose data.
        if self.template.writes_artifacts() {
            let result = BatchResult {
                job: "-".to_string(),
                scenario: "-".to_string(),
                outcome: Err(Error::Unsupported(
                    "batch templates cannot write --out/--vcd artifacts: \
                     every cell would overwrite the same file"
                        .into(),
                )),
            };
            on_result(&result);
            return vec![result];
        }
        // A traced template profiles the whole batch: one run-level
        // trace file with every worker on its own named track, instead
        // of each cell clobbering the same file (per-cell tracing is
        // only handled inside `Flow::run`, which batch bypasses).
        let trace_path = self.template.trace_path();
        if trace_path.is_some() {
            tr_trace::reset();
            tr_trace::enable();
            tr_trace::set_thread_name("batch-main");
        }
        // Parse/map each netlist once, up front; the workers then borrow
        // the circuits without any per-cell cloning.
        let mut results = Vec::with_capacity(jobs.len() * matrix.len());
        let mut loaded: Vec<(String, Circuit)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            // The parser/mapper runs outside the worker fence, so it
            // gets its own: a panicking loader fails its job, not the
            // whole grid.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                job.source
                    .load(&env.library, self.template.map_options_value())
            }))
            .unwrap_or_else(|payload| Err(Error::Panicked(panic_message(payload))));
            match outcome {
                Ok(circuit) => loaded.push((job.name.clone(), circuit)),
                Err(e) => {
                    let result = BatchResult {
                        job: job.name.clone(),
                        scenario: "-".to_string(),
                        outcome: Err(e),
                    };
                    on_result(&result);
                    results.push(result);
                }
            }
        }

        let grid: Vec<(usize, usize)> = (0..loaded.len())
            .flat_map(|j| (0..matrix.len()).map(move |s| (j, s)))
            .collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<BatchResult>();

        std::thread::scope(|scope| {
            for w in 0..self.threads.min(grid.len().max(1)) {
                let tx = tx.clone();
                let next = &next;
                let grid = &grid;
                let loaded = &loaded;
                scope.spawn(move || {
                    tr_trace::set_thread_name(&format!("batch-worker-{w}"));
                    let mut scratch = Scratch::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(j, s)) = grid.get(i) else { break };
                        let (name, circuit) = &loaded[j];
                        let spec = &matrix[s];
                        let _cell = tr_trace::span!(
                            "batch.cell",
                            job = name.as_str(),
                            scenario = spec.label.as_str()
                        );
                        // Fence the cell: a panicking pipeline stage
                        // becomes this cell's reported outcome instead
                        // of tearing down the whole grid. The scratch
                        // arena is rebuilt afterwards — the unwound
                        // stage may have left it mid-update.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let _ = crate::faultpoint::hit("batch-cell");
                            self.template
                                .clone()
                                .scenario(spec.scenario, spec.seed)
                                .run_pipeline(env, circuit, name.clone(), 0.0, &mut scratch)
                                .map(|(report, _)| report)
                        }))
                        .unwrap_or_else(|payload| {
                            scratch = Scratch::new();
                            Err(Error::Panicked(panic_message(payload)))
                        });
                        if tx
                            .send(BatchResult {
                                job: name.clone(),
                                scenario: spec.label.clone(),
                                outcome,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for result in rx {
                on_result(&result);
                results.push(result);
            }
        });
        if let Some(path) = trace_path {
            tr_trace::disable();
            if let Err(e) = tr_trace::write_chrome_trace(path) {
                let result = BatchResult {
                    job: "-".to_string(),
                    scenario: "-".to_string(),
                    outcome: Err(Error::io(path, e)),
                };
                on_result(&result);
                results.push(result);
            }
        }
        results
    }
}

/// The human-readable payload of a caught panic (`panic!` with a string
/// or `String` — anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_netlist::generators;

    #[test]
    fn matrix_parsing() {
        let m = ScenarioSpec::parse_matrix("a:1, a:2 ,b:2e7,b:5e7").unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m[0].label, "A#1");
        assert_eq!(m[2].label, "B@20000000");
        assert!(ScenarioSpec::parse_matrix("").is_err());
        assert!(ScenarioSpec::parse("c:1").unwrap_err().is_usage());
        assert!(ScenarioSpec::parse("a:x").unwrap_err().is_usage());
        assert!(ScenarioSpec::parse("b:-5").unwrap_err().is_usage());
        assert_eq!(ScenarioSpec::default_matrix().len(), 4);
    }

    #[test]
    fn batch_covers_the_grid_and_matches_single_runs() {
        let env = FlowEnv::new();
        let jobs = vec![
            BatchJob::from_circuit("rca4", generators::ripple_carry_adder(4, &env.library)),
            BatchJob::from_circuit("par8", generators::parity_tree(8, &env.library)),
        ];
        let matrix = vec![
            ScenarioSpec::a(1),
            ScenarioSpec::a(2),
            ScenarioSpec::b(2.0e7),
        ];
        let mut streamed = 0usize;
        let results = BatchRunner::new(Flow::from_circuit(Circuit::new("template")))
            .threads(4)
            .run(&env, &jobs, &matrix, |_| streamed += 1);
        assert_eq!(results.len(), 6);
        assert_eq!(streamed, 6);
        for r in &results {
            let report = r.outcome.as_ref().expect("cell succeeded");
            assert_eq!(report.circuit, r.job);
            assert_eq!(report.scenario, r.scenario);
        }
        // A batch cell equals the same flow run standalone.
        let single = Flow::from_circuit(generators::ripple_carry_adder(4, &env.library))
            .scenario(Scenario::a(), 2)
            .run(&env)
            .unwrap();
        let cell = results
            .iter()
            .find(|r| r.job == "rca4" && r.scenario == "A#2")
            .unwrap();
        let cell = cell.outcome.as_ref().unwrap();
        assert_eq!(cell.power.model_after_w, single.power.model_after_w);
        assert_eq!(cell.changed_gates, single.changed_gates);
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_panics() {
        let _ = BatchRunner::new(Flow::from_circuit(Circuit::new("t"))).threads(0);
    }

    #[test]
    fn artifact_writing_templates_are_rejected() {
        let env = FlowEnv::new();
        let jobs = vec![BatchJob::from_circuit(
            "ok",
            generators::parity_tree(4, &env.library),
        )];
        let template = Flow::from_circuit(Circuit::new("t")).write_netlist("/tmp/clobbered.trnet");
        let results = BatchRunner::new(template).run(&env, &jobs, &[ScenarioSpec::a(1)], |_| {});
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0].outcome.as_ref().unwrap_err(),
            Error::Unsupported(_)
        ));
    }

    #[test]
    fn load_failures_yield_one_typed_error_per_job() {
        let env = FlowEnv::new();
        let jobs = vec![
            BatchJob::from_path("/nonexistent/ghost.bench"),
            BatchJob::from_circuit("ok", generators::parity_tree(4, &env.library)),
        ];
        let matrix = vec![ScenarioSpec::a(1), ScenarioSpec::b(2.0e7)];
        let results = BatchRunner::new(Flow::from_circuit(Circuit::new("t")))
            .threads(2)
            .run(&env, &jobs, &matrix, |_| {});
        // One error for the unloadable job, one result per scenario for
        // the good one.
        assert_eq!(results.len(), 3);
        let failed: Vec<_> = results.iter().filter(|r| r.outcome.is_err()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].job, "ghost");
        assert_eq!(failed[0].scenario, "-");
        // The original typed error survives (not stringified to Usage).
        assert!(matches!(
            failed[0].outcome.as_ref().unwrap_err(),
            Error::Io { .. }
        ));
    }
}
