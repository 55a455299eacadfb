//! The paper's extended power-consumption model (§3.3).
//!
//! Classic gate-level power estimation charges only the output capacitance:
//! `P = ½·C_out·Vdd²·D(y)`. The paper's contribution is to extend this to
//! the **internal nodes** of each static CMOS gate, because transistor
//! reordering changes internal-node activity while leaving the output
//! untouched. For every node `n` of a gate:
//!
//! * `H_n` / `G_n` — Boolean path functions to Vdd/Vss (from [`tr_spnet`]);
//! * equilibrium probability — the stationary solution of the charge
//!   Markov chain, `P(n) = P(H_n) / (P(H_n) + P(G_n))`;
//! * transition density — a boolean-difference propagation in the style of
//!   Najm, weighted by the charge state (see `DESIGN.md` §3 for the
//!   reconstruction):
//!   `D(n) = Σᵢ [P(∂H_n/∂xᵢ)·(1−P(n)) + P(∂G_n/∂xᵢ)·P(n)]·D(xᵢ)`;
//! * power — `½·C_n·Vdd²·D(n)`, summed over the output and every internal
//!   node.
//!
//! For the output node the density formula collapses to exactly Najm's
//! `D(y) = Σ P(∂y/∂xᵢ)·D(xᵢ)` (property-tested), so the extension is
//! strictly additive.
//!
//! [`PowerModel`] *compiles* the path functions and Boolean differences
//! of **every configuration of every library cell** at construction into
//! flat, support-shrunk multilinear leaf tables — the whole Table 2
//! library is a few hundred truth tables — so per-gate evaluation inside
//! the optimizer's inner loop is an allocation-free Shannon fold driven
//! by a reusable [`Scratch`]. The dense-[`tr_gatelib::CellId`] fast paths
//! ([`PowerModel::total_power_into`], [`PowerModel::best_and_worst_by_id`])
//! pair with `tr_netlist::CompiledCircuit` to skip all hashing; the
//! original naive minterm-walk evaluator survives as a test oracle in
//! [`mod@reference`].
//!
//! # Example
//!
//! Power of a NAND2 under asymmetric input activity:
//!
//! ```
//! use tr_boolean::SignalStats;
//! use tr_gatelib::{CellKind, Library, Process};
//! use tr_power::PowerModel;
//!
//! let lib = Library::standard();
//! let model = PowerModel::new(&lib, Process::default());
//! let stats = [SignalStats::new(0.5, 1.0e6), SignalStats::new(0.5, 1.0e4)];
//! let p0 = model.gate_power(&CellKind::Nand(2), 0, &stats, 0.0);
//! let p1 = model.gate_power(&CellKind::Nand(2), 1, &stats, 0.0);
//! // The two orderings of the series stack consume different power…
//! assert!((p0.total - p1.total).abs() > 0.0);
//! // …but drive the output identically.
//! assert_eq!(p0.nodes[0].density, p1.nodes[0].density);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod incremental;
mod mode;
mod model;
pub mod monte;
pub mod partition;
pub mod reference;
pub mod scenario;

pub use circuit::{
    circuit_power, circuit_total_compiled, external_loads, external_loads_compiled, propagate,
    propagate_exact, CircuitPower,
};
pub use incremental::{IncrementalPropagator, PropagatorOptions};
pub use mode::{
    propagate_exact_bdd, propagate_exact_bdd_with_stats, PropagationError, PropagationMode,
};
pub use model::{GatePower, NodePower, PowerModel, Scratch, MAX_CELL_ARITY};
