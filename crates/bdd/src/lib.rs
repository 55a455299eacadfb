//! # tr-bdd — a shared ROBDD engine for exact signal statistics
//!
//! `tr_power::propagate` is fast but assumes gate inputs are independent,
//! which reconvergent fanout (the ripple-carry structure of the paper's
//! own §1.1 motivation) violates; `tr_power::propagate_exact` is exact
//! but capped at [`tr_boolean::MAX_VARS`] primary inputs by its dense
//! truth tables. This crate removes the cap: a reduced-ordered binary
//! decision diagram manager with **complement edges**, a unique table and
//! memoized ITE/restrict/Boolean-difference operations ([`Bdd`]), plus a
//! whole-circuit engine ([`CircuitBdds`]) that expresses every net of a
//! [`tr_netlist::CompiledCircuit`] as a global function of the primary
//! inputs and computes **exact** signal probabilities and Najm transition
//! densities — reconvergent correlation handled exactly, any input count
//! whose *live* BDDs fit the node budget.
//!
//! The manager is built for speed at scale: a struct-of-arrays node pool
//! with recycled slots, a custom open-addressed unique table, fixed-size
//! direct-mapped operation caches, and **mark-and-sweep garbage
//! collection** rooted at the registered net edges — dead composition
//! and Boolean-difference intermediates (routinely 10–30× the live set)
//! are reclaimed instead of counted against the budget.
//!
//! Variable ordering is pluggable ([`OrderHeuristic`]): topological,
//! fanin-DFS (default; interleaves operand bits along carry chains) and
//! a bounded **in-place sifting** refinement (adjacent level swaps per
//! Rudell — no rebuilds).
//!
//! # Example
//!
//! Exact probability of a reconvergent output no truth table could hold
//! (33 primary inputs):
//!
//! ```
//! use tr_bdd::{BuildOptions, CircuitBdds};
//! use tr_boolean::SignalStats;
//! use tr_gatelib::Library;
//! use tr_netlist::{generators, CompiledCircuit};
//!
//! let lib = Library::standard();
//! let adder = generators::ripple_carry_adder(16, &lib);
//! let compiled = CompiledCircuit::compile(&adder, &lib).unwrap();
//! let mut bdds = CircuitBdds::build(&compiled, &lib, BuildOptions::default()).unwrap();
//! let stats = bdds.exact_stats(&vec![SignalStats::default(); 33]).unwrap();
//! let cout = compiled.primary_outputs()[16];
//! assert!((stats[cout.0].probability() - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
mod manager;
pub mod order;

pub use circuit::{BuildOptions, CircuitBddStats, CircuitBdds};
pub use manager::{
    Bdd, BddError, CacheStats, DensityScratch, Edge, EngineStats, GcStats, ProbScratch,
    VisitScratch, DEFAULT_GC_THRESHOLD, DEFAULT_NODE_LIMIT,
};
pub use order::OrderHeuristic;
