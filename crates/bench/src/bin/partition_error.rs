//! The partition error-vs-speed table: what the cone-partitioned
//! backend trades for breaking the whole-circuit BDD ceiling.
//!
//! For every circuit of the standard *and* large suites, under
//! Scenario B statistics (`P = 0.5`, `D = 0.5` on every input — any
//! bias is then pure circuit structure), the table compares three
//! backends:
//!
//! * `full ms` — the monolithic exact engine's wall-clock, or `-` where
//!   it blows its default node budget (the ceiling this PR breaks);
//! * `part ms` / `x` — the partitioned backend under two configs
//!   (`acc` = accuracy-biased: few large regions, wide cuts; `def` =
//!   the untuned `--prob part` default), and its speedup over full;
//! * `reg`/`cut`/`apx` — regions, cut nets and the structural
//!   `approx_fraction` (`0` certifies bitwise full-BDD equality);
//! * `maxdP` / `maxdD%` — measured deviation of the partitioned
//!   statistics from full-BDD (only where full-BDD runs), and of
//!   independent from full-BDD in the last column for scale.
//!
//! Run: `cargo run -p tr-bench --release --bin partition_error`

use std::time::Instant;
use tr_bench::Harness;
use tr_boolean::SignalStats;
use tr_power::{
    propagate, propagate_exact_bdd, IncrementalPropagator, PropagationMode, PropagatorOptions,
};

/// Max |ΔP| and max relative ΔD% against a reference.
fn deviations(reference: &[SignalStats], other: &[SignalStats]) -> (f64, f64) {
    let mut max_dp = 0.0f64;
    let mut max_dd = 0.0f64;
    for (r, o) in reference.iter().zip(other) {
        max_dp = max_dp.max((r.probability() - o.probability()).abs());
        if r.density() > 0.0 {
            max_dd = max_dd.max(100.0 * (r.density() - o.density()).abs() / r.density());
        }
    }
    (max_dp, max_dd)
}

struct PartRun {
    wall_ms: f64,
    stats: Vec<SignalStats>,
    /// `(regions, cut_nets, approx_fraction)`.
    shape: (usize, usize, f64),
}

fn run_partitioned(
    circuit: &tr_netlist::Circuit,
    h: &Harness,
    pi: &[SignalStats],
    mode: PropagationMode,
    options: &PropagatorOptions,
) -> Option<PartRun> {
    let start = Instant::now();
    let prop = IncrementalPropagator::new_with(circuit, &h.library, pi, mode, options).ok()?;
    Some(PartRun {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        shape: prop.partition_summary()?,
        stats: prop.net_stats().to_vec(),
    })
}

fn main() {
    let h = Harness::new();
    println!(
        "{:<12} {:>5} {:>4} | {:>8} | {:>4} {:>8} {:>6} {:>4} {:>5} {:>5} {:>9} {:>7} | {:>9}",
        "circuit",
        "gates",
        "PIs",
        "full ms",
        "cfg",
        "part ms",
        "x",
        "reg",
        "cut",
        "apx",
        "maxdP",
        "maxdD%",
        "indep dP"
    );
    let mut cases = tr_netlist::suite::standard_suite(&h.library);
    cases.extend(tr_netlist::suite::large_suite(&h.library));
    for case in cases {
        let n = case.circuit.primary_inputs().len();
        let pi = vec![SignalStats::default(); n];

        let start = Instant::now();
        let full = propagate_exact_bdd(&case.circuit, &h.library, &pi).ok();
        let full_ms = full.as_ref().map(|_| start.elapsed().as_secs_f64() * 1e3);
        let indep = propagate(&case.circuit, &h.library, &pi);

        let accuracy = PropagatorOptions {
            region_cost: Some(2048),
            ..PropagatorOptions::default()
        };
        let configs = [
            (
                "acc",
                PropagationMode::PartitionedBdd {
                    max_region_nodes: 1 << 16,
                    max_cut_width: 40,
                },
                accuracy,
            ),
            (
                "def",
                PropagationMode::partitioned(),
                PropagatorOptions::default(),
            ),
        ];
        for (tag, mode, options) in configs {
            let Some(run) = run_partitioned(&case.circuit, &h, &pi, mode, &options) else {
                println!(
                    "{:<12} {:>5} {:>4} | {:>8} | {:>4} blew its per-region budget",
                    case.name,
                    case.circuit.gates().len(),
                    n,
                    full_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
                    tag
                );
                continue;
            };
            let (speedup, max_dp, max_dd) = match &full {
                Some(full) => {
                    let (dp, dd) = deviations(full, &run.stats);
                    (
                        format!("{:.1}", full_ms.unwrap() / run.wall_ms),
                        format!("{dp:.2e}"),
                        format!("{dd:.1}"),
                    )
                }
                None => ("-".into(), "-".into(), "-".into()),
            };
            let indep_dp = match &full {
                Some(full) => format!("{:.2e}", deviations(full, &indep).0),
                None => format!("{:.2e}", deviations(&run.stats, &indep).0),
            };
            println!(
                "{:<12} {:>5} {:>4} | {:>8} | {:>4} {:>8.2} {:>6} {:>4} {:>5} {:>5.2} {:>9} {:>7} | {:>9}",
                case.name,
                case.circuit.gates().len(),
                n,
                full_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
                tag,
                run.wall_ms,
                speedup,
                run.shape.0,
                run.shape.1,
                run.shape.2,
                max_dp,
                max_dd,
                indep_dp
            );
        }
    }
}
