//! # tr-flow — the end-to-end pipeline
//!
//! The paper's technique is a *flow*: map a benchmark onto the Table 2
//! library, propagate input statistics, reorder transistors, re-time,
//! validate with the switch-level simulator. This crate is that flow as
//! a first-class object, shared by the `tr-opt` CLI, the examples and
//! the `tr-bench` experiment binaries:
//!
//! * [`Error`] — one typed error for the whole workspace (`From` impls
//!   for every parser/validator error, `source()` chaining), replacing
//!   the ad-hoc `Result<_, String>` plumbing;
//! * [`Flow`] — a declarative builder (file-or-circuit source with
//!   format auto-detection, mapper options, scenario, objective, delay
//!   bound, threads, optional simulation/VCD/netlist output) whose
//!   [`Flow::run`] yields a structured [`FlowReport`], serializable to
//!   JSON (schema pinned by a golden test) and CSV;
//! * [`BatchRunner`] — one `Flow` template stamped over many circuits ×
//!   a scenario matrix on a work-stealing thread pool, reusing per-
//!   thread scratch arenas and streaming one report per (circuit,
//!   scenario) as it completes; every cell is panic-fenced, so one
//!   crashing cell is a reported outcome, not a lost grid. Surfaced on
//!   the CLI as `tr-opt batch`;
//! * [`RunBudget`] + [`CancelToken`] — deadlines, BDD node budgets and
//!   cooperative cancellation for any run, with a degradation ladder
//!   ([`Flow::degrade`]) that completes budget-blown runs under cheaper
//!   backends and records how in the report (see [`govern`]).
//!
//! ```
//! use tr_flow::{Flow, FlowEnv, SimOptions};
//! use tr_netlist::generators;
//! use tr_power::scenario::Scenario;
//!
//! let env = FlowEnv::new();
//! let adder = generators::ripple_carry_adder(4, &env.library);
//! let report = Flow::from_circuit(adder)
//!     .scenario(Scenario::a(), 42)
//!     .simulate(SimOptions::quick(7))
//!     .run(&env)
//!     .unwrap();
//! assert!(report.sim.as_ref().unwrap().optimized_w > 0.0);
//! println!("{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod env;
mod error;
pub mod faultpoint;
mod flow;
pub mod govern;
mod report;
mod source;

pub use batch::{BatchJob, BatchResult, BatchRunner, ScenarioSpec};
pub use env::FlowEnv;
pub use error::Error;
pub use flow::{
    max_probability_deviation, parse_prob_mode, sim_duration, DelayBound, DurationPolicy, Flow,
    OrderHeuristic, SimOptions, StatsSnapshot, StatsStage,
};
pub use govern::{CancelToken, Governor, Interrupted, RunBudget, TripReason};
pub use report::{
    DegradeEvent, DelayReport, FlowReport, GateReport, PerfReport, PowerReport, SimSummary,
    StageTimings,
};
pub use source::{load_path, parse_netlist, NetlistFormat, Source};
pub use tr_power::{PropagationError, PropagationMode};
