//! Event-driven switch-level simulator.
//!
//! The paper validates its model with SLS, a switch-level timing
//! simulator; this crate is the stand-in (see `DESIGN.md` §4). It follows
//! the paper's measurement protocol:
//!
//! * primary inputs are stochastic waveforms whose inter-transition times
//!   are exponentially distributed with mean `1/D` (generalized to an
//!   alternating renewal process so equilibrium probabilities other than
//!   0.5 are honored too);
//! * every gate is simulated at the **switch level**. Each run solves
//!   every distinct `(cell, configuration)` of the circuit once per input
//!   assignment ([`tr_spnet::GateGraph::solve`], at most 64 assignments
//!   per cell) into a table of which nodes a rail drives and to what
//!   level. On each input change the gate's row is looked up; floating
//!   internal nodes still keep their charge, and every node transition
//!   dissipates `½·C·Vdd²`;
//! * output transitions propagate with the per-input Elmore delay of the
//!   gate's configuration, so unequal path delays generate the *useless
//!   transitions* (glitches) the paper's introduction is about;
//! * measured power is accumulated energy divided by simulated time, after
//!   a warm-up interval.
//!
//! # Example
//!
//! ```
//! use tr_boolean::SignalStats;
//! use tr_gatelib::{Library, Process};
//! use tr_netlist::generators;
//! use tr_sim::{simulate, SimConfig};
//! use tr_timing::TimingModel;
//!
//! let lib = Library::standard();
//! let timing = TimingModel::new(&lib, Process::default());
//! let adder = generators::ripple_carry_adder(4, &lib);
//! let stats = vec![SignalStats::new(0.5, 1.0e6); 9];
//! let report = simulate(
//!     &adder, &lib, &Process::default(), &timing, &stats,
//!     &SimConfig { duration: 2.0e-4, warmup: 2.0e-5, seed: 1 },
//! );
//! assert!(report.power > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod vcd;
mod waveform;

pub use engine::{
    simulate, simulate_governed, simulate_traced, simulate_with_drives, InputDrive, SimConfig,
    SimReport, Trace, TraceEvent,
};
pub use waveform::generate_waveform;
