//! # transistor-reordering
//!
//! A full reproduction of *"Optimizing CMOS Circuits for Low Power Using
//! Transistor Reordering"* (E. Musoll and J. Cortadella, DATE 1996) as a
//! Rust workspace: the stochastic power model of static CMOS gates with
//! internal nodes, the exhaustive pivot-based exploration of transistor
//! orderings, the single-pass circuit optimizer, and everything the paper
//! depends on — a Table 2 cell library, a technology mapper, a benchmark
//! suite, an Elmore timing model and an event-driven switch-level
//! simulator for validation.
//!
//! This umbrella crate re-exports the workspace's public API under stable
//! module names; each subsystem is an independently usable crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`boolean`] | `tr-boolean` | truth-table Boolean algebra, `(P, D)` signal statistics, Najm density |
//! | [`bdd`] | `tr-bdd` | shared ROBDD engine (complement edges), exact whole-circuit signal statistics |
//! | [`spnet`] | `tr-spnet` | series-parallel networks, gate graphs, `H`/`G` path functions, pivot enumeration |
//! | [`gatelib`] | `tr-gatelib` | the Table 2 cell library, configurations, instances, process parameters |
//! | [`netlist`] | `tr-netlist` | circuits, `.bench` parsing, generators, technology mapping, benchmark suite |
//! | [`power`] | `tr-power` | the paper's extended power model and circuit-level propagation |
//! | [`timing`] | `tr-timing` | Elmore gate delays and static timing analysis |
//! | [`sim`] | `tr-sim` | the switch-level validation simulator |
//! | [`reorder`] | `tr-reorder` | the optimization algorithm (Fig. 3) and variants |
//! | [`flow`] | `tr-flow` | the typed end-to-end pipeline (`Flow`), structured reports, the parallel batch runner |
//! | [`serve`] | `tr-serve` | the warm-cache optimization daemon (`tr-opt serve`): HTTP/1.1 endpoints, content-addressed staged artifacts, bounded admission |
//!
//! ## Quickstart
//!
//! Optimize a ripple-carry adder for low power and check the headroom:
//!
//! ```
//! use transistor_reordering::prelude::*;
//!
//! let lib = Library::standard();
//! let model = PowerModel::new(&lib, Process::default());
//! let adder = generators::ripple_carry_adder(8, &lib);
//!
//! // Scenario A of the paper: random embedded-system input statistics.
//! let stats = Scenario::a().input_stats(adder.primary_inputs().len(), 42);
//! let best = optimize(&adder, &lib, &model, &stats, Objective::MinimizePower);
//! let worst = optimize(&adder, &lib, &model, &stats, Objective::MaximizePower);
//!
//! assert!(best.power_after < worst.power_after);
//! println!(
//!     "reordering headroom: {:.1}%",
//!     100.0 * (worst.power_after - best.power_after) / worst.power_after
//! );
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `tr-bench`
//! crate for the binaries that regenerate every table and figure of the
//! paper (documented in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tr_bdd as bdd;
pub use tr_boolean as boolean;
pub use tr_flow as flow;
pub use tr_gatelib as gatelib;
pub use tr_netlist as netlist;
pub use tr_power as power;
pub use tr_reorder as reorder;
pub use tr_serve as serve;
pub use tr_sim as sim;
pub use tr_spnet as spnet;
pub use tr_timing as timing;

/// One-stop imports for applications.
pub mod prelude {
    pub use tr_bdd::{Bdd, BuildOptions, CircuitBdds, OrderHeuristic};
    pub use tr_boolean::{sop, BoolFn, Expr, SignalStats};
    pub use tr_flow::{
        BatchJob, BatchRunner, DelayBound, Flow, FlowEnv, FlowReport, ScenarioSpec, SimOptions,
    };
    pub use tr_gatelib::{Cell, CellId, CellKind, Library, Process, FEMTO};
    pub use tr_netlist::{
        bench, blif, generators, map, suite, Circuit, CompiledCircuit, GateId, NetId, ResolvedGate,
    };
    pub use tr_power::scenario::Scenario;
    pub use tr_power::{
        circuit_power, circuit_total_compiled, external_loads, external_loads_compiled, monte,
        propagate, propagate_exact, propagate_exact_bdd, propagate_with_mode,
        IncrementalPropagator, PowerModel, PropagationMode, Scratch,
    };
    pub use tr_reorder::{
        delay_power_tradeoff, instance_demand, optimize, optimize_to_fixpoint, optimize_with,
        optimize_with_net_stats, Bound, FixpointOptions, FixpointReport, FixpointTermination,
        InstanceDemand, Objective, OptimizeOptions, OptimizeResult,
    };
    pub use tr_sim::{
        simulate, simulate_traced, simulate_with_drives, vcd, InputDrive, SimConfig, SimReport,
    };
    pub use tr_spnet::{pivot, shape, GateGraph, NodeId, SpTree, Topology};
    pub use tr_timing::{arrival_times, critical_path_delay, TimingModel};
}
