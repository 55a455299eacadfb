//! Criterion performance benches (P1–P4 of DESIGN.md, plus P5):
//!
//! * P1 — per-gate power-model evaluation (the optimizer's inner loop);
//! * P2 — exhaustive reordering enumeration of the largest cell;
//! * P3 — whole-circuit optimization (Fig. 3 traversal), sequential and
//!   parallel;
//! * P4 — switch-level simulator event throughput;
//! * P5 — batch-runner throughput (circuits × scenarios grid on the
//!   work-stealing pool);
//! * P6 — exact-BDD statistics throughput (build + probabilities +
//!   densities) on the large reconvergent generators;
//! * P7 — the fixpoint loop's inner step: dirty-cone incremental
//!   re-propagation after one accepted cell change, against the
//!   full-rebuild-per-change alternative it replaces;
//! * P8 — the cone-partitioned exact backend: propagation on mult8
//!   (against `p6_bdd_propagate_mult8`, the monolithic engine it must
//!   beat ≥2×) and on mult16, past the monolithic ceiling, plus
//!   gate-parallel optimization against its exact statistics.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tr_bench::Harness;
use tr_boolean::SignalStats;
use tr_flow::{BatchJob, BatchRunner, Flow, ScenarioSpec};
use tr_gatelib::CellKind;
use tr_netlist::{generators, Circuit};
use tr_power::scenario::Scenario;
use tr_reorder::{optimize, optimize_with, Objective, OptimizeOptions};
use tr_sim::{simulate, SimConfig};
use tr_spnet::pivot;

fn p1_gate_power(c: &mut Criterion) {
    let h = Harness::new();
    let stats = [
        SignalStats::new(0.3, 1.0e5),
        SignalStats::new(0.7, 9.0e5),
        SignalStats::new(0.5, 2.0e5),
        SignalStats::new(0.4, 4.0e5),
        SignalStats::new(0.6, 7.0e5),
    ];
    c.bench_function("p1_gate_power_oai221", |b| {
        b.iter(|| {
            std::hint::black_box(h.model.gate_power(
                &CellKind::oai(&[2, 2, 1]),
                0,
                std::hint::black_box(&stats),
                5.0e-15,
            ))
        })
    });
    c.bench_function("p1_best_and_worst_oai221", |b| {
        b.iter(|| {
            std::hint::black_box(h.model.best_and_worst(
                &CellKind::oai(&[2, 2, 1]),
                std::hint::black_box(&stats),
                5.0e-15,
            ))
        })
    });
    // The by-id fast path the compiled optimizer actually runs: scratch
    // reuse, no hashing, no GatePower materialization.
    let oai221 = h.model.cell_id(&CellKind::oai(&[2, 2, 1])).expect("cell");
    c.bench_function("p1_best_and_worst_oai221_by_id", |b| {
        let mut scratch = tr_power::Scratch::new();
        b.iter(|| {
            std::hint::black_box(h.model.best_and_worst_by_id(
                oai221,
                std::hint::black_box(&stats),
                5.0e-15,
                &mut scratch,
            ))
        })
    });
}

fn p2_enumeration(c: &mut Criterion) {
    let h = Harness::new();
    let aoi222 = h
        .library
        .cell_by_name("aoi222")
        .expect("library cell")
        .configurations()[0]
        .clone();
    c.bench_function("p2_enumerate_aoi222_48_configs", |b| {
        b.iter(|| std::hint::black_box(pivot::find_all_reorderings(std::hint::black_box(&aoi222))))
    });
}

fn p3_optimize(c: &mut Criterion) {
    let h = Harness::new();
    let rca16 = generators::ripple_carry_adder(16, &h.library);
    let stats = Scenario::a().input_stats(rca16.primary_inputs().len(), 1);
    c.bench_function("p3_optimize_rca16", |b| {
        b.iter(|| {
            std::hint::black_box(optimize(
                &rca16,
                &h.library,
                &h.model,
                &stats,
                Objective::MinimizePower,
            ))
        })
    });
    let four = OptimizeOptions {
        threads: 4,
        ..OptimizeOptions::default()
    };
    c.bench_function("p3_optimize_rca16_parallel4", |b| {
        b.iter(|| {
            let net_stats = tr_power::propagate(&rca16, &h.library, &stats);
            std::hint::black_box(
                optimize_with(
                    &rca16,
                    &h.library,
                    &h.model,
                    &net_stats,
                    &four,
                    &mut tr_power::Scratch::new(),
                )
                .expect("ungoverned"),
            )
        })
    });
}

fn p4_simulator(c: &mut Criterion) {
    let h = Harness::new();
    let parity = generators::parity_tree(8, &h.library);
    let stats = vec![SignalStats::new(0.5, 1.0e6); 8];
    let config = SimConfig {
        duration: 5.0e-5,
        warmup: 5.0e-6,
        seed: 3,
    };
    c.bench_function("p4_simulate_parity8_50us", |b| {
        b.iter_batched(
            || config,
            |cfg| {
                std::hint::black_box(simulate(
                    &parity, &h.library, &h.process, &h.timing, &stats, &cfg,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn p5_batch(c: &mut Criterion) {
    let h = Harness::new();
    let jobs: Vec<BatchJob> = vec![
        BatchJob::from_circuit("rca8", generators::ripple_carry_adder(8, &h.library)),
        BatchJob::from_circuit("parity8", generators::parity_tree(8, &h.library)),
        BatchJob::from_circuit("mux8", generators::mux_tree(3, &h.library)),
        BatchJob::from_circuit("dec4", generators::decoder(4, &h.library)),
    ];
    let matrix = vec![
        ScenarioSpec::a(1),
        ScenarioSpec::a(2),
        ScenarioSpec::b(2.0e7),
        ScenarioSpec::b(5.0e7),
    ];
    let template = Flow::from_circuit(Circuit::new("template"));
    for threads in [1usize, 4] {
        c.bench_function(&format!("p5_batch_4x4_grid_threads{threads}"), |b| {
            let runner = BatchRunner::new(template.clone()).threads(threads);
            b.iter(|| std::hint::black_box(runner.run(&h, &jobs, &matrix, |_| {})))
        });
    }
}

fn p6_bdd_propagate(c: &mut Criterion) {
    let h = Harness::new();
    let cases = [
        ("csel32", generators::carry_select_adder(32, 8, &h.library)),
        ("cskip24", generators::carry_skip_adder(24, 4, &h.library)),
        ("mult8", generators::array_multiplier(8, &h.library)),
    ];
    for (name, circuit) in cases {
        let pi = vec![SignalStats::default(); circuit.primary_inputs().len()];
        c.bench_function(&format!("p6_bdd_propagate_{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    tr_power::propagate_exact_bdd(&circuit, &h.library, &pi)
                        .expect("fits the node budget"),
                )
            })
        });
    }
}

fn p7_fixpoint(c: &mut Criterion) {
    let h = Harness::new();
    let cases = [
        ("csel32", generators::carry_select_adder(32, 8, &h.library)),
        ("cskip24", generators::carry_skip_adder(24, 4, &h.library)),
        ("mult8", generators::array_multiplier(8, &h.library)),
    ];
    // A mid-circuit gate with a same-arity dual (NAND↔NOR, AOI↔OAI).
    let victim_of = |circuit: &Circuit| {
        let duals: Vec<tr_netlist::GateId> = (0..circuit.gates().len())
            .filter(|&i| !matches!(circuit.gates()[i].cell, CellKind::Inv))
            .map(tr_netlist::GateId)
            .collect();
        duals[duals.len() / 2]
    };
    let toggle_cell = |circuit: &mut Circuit, g: tr_netlist::GateId| {
        let dual = match circuit.gate(g).cell.clone() {
            CellKind::Nand(k) => CellKind::Nor(k),
            CellKind::Nor(k) => CellKind::Nand(k),
            CellKind::Aoi(gs) => CellKind::Oai(gs),
            CellKind::Oai(gs) => CellKind::Aoi(gs),
            CellKind::Inv => unreachable!("inverters are filtered out"),
        };
        circuit.set_cell(g, dual);
    };
    for (name, circuit) in cases {
        let pi = vec![SignalStats::default(); circuit.primary_inputs().len()];
        let victim = victim_of(&circuit);
        let configs = h
            .library
            .cell_by_name(circuit.gate(victim).cell.name().as_str())
            .expect("library cell")
            .configurations()
            .len();
        // The fixpoint loop's inner step: the optimizer accepted a
        // reordering move (a config change), and the statistics must be
        // re-validated for the edited circuit. The propagator sees the
        // touched gate's cell unchanged and drops it (§4.2: the move
        // preserves the gate's function), so this times that filter: no
        // compile, no BDD recomposition. `p7_fixpoint_cell_*` times a
        // refresh that does reach the engine.
        c.bench_function(&format!("p7_fixpoint_incremental_{name}"), |b| {
            let mut edited = circuit.clone();
            let mut prop = tr_power::IncrementalPropagator::new(
                &edited,
                &h.library,
                &pi,
                tr_power::PropagationMode::ExactBdd,
            )
            .expect("fits the node budget");
            let mut round = 0usize;
            b.iter(|| {
                round += 1;
                edited.set_config(victim, round % configs);
                std::hint::black_box(
                    prop.refresh(&edited, &h.library, &[victim])
                        .expect("fits the node budget"),
                )
            })
        });
        // What a sound implementation without dirty-cone tracking must
        // do after every accepted change: rebuild the circuit BDDs and
        // re-derive every net's statistics from scratch.
        c.bench_function(&format!("p7_fixpoint_full_{name}"), |b| {
            let mut edited = circuit.clone();
            let mut round = 0usize;
            b.iter(|| {
                round += 1;
                edited.set_config(victim, round % configs);
                std::hint::black_box(
                    tr_power::propagate_exact_bdd(&edited, &h.library, &pi)
                        .expect("fits the node budget"),
                )
            })
        });
        // The worst case: a function-changing cell substitution on a
        // mid-circuit gate. The dirty cone is real — in mult8 it covers
        // the deep output-side nets whose density pass dominates even a
        // full rebuild, so the win narrows as the cone widens.
        c.bench_function(&format!("p7_fixpoint_cell_{name}"), |b| {
            let mut edited = circuit.clone();
            let mut prop = tr_power::IncrementalPropagator::new(
                &edited,
                &h.library,
                &pi,
                tr_power::PropagationMode::ExactBdd,
            )
            .expect("fits the node budget");
            b.iter(|| {
                toggle_cell(&mut edited, victim);
                std::hint::black_box(
                    prop.refresh(&edited, &h.library, &[victim])
                        .expect("fits the node budget"),
                )
            })
        });
    }
}

fn p8_partitioned(c: &mut Criterion) {
    use tr_power::{IncrementalPropagator, PropagationMode, PropagatorOptions};

    let h = Harness::new();
    let mult8 = generators::array_multiplier(8, &h.library);
    let pi = vec![SignalStats::default(); mult8.primary_inputs().len()];
    let propagate = |circuit: &tr_netlist::Circuit,
                     pi: &[SignalStats],
                     mode: PropagationMode,
                     options: &PropagatorOptions| {
        IncrementalPropagator::new_with(circuit, &h.library, pi, mode, options)
            .expect("fits the per-region budget")
    };
    // The acceptance point: the accuracy-biased config (few, large
    // regions) that holds |ΔP| ≤ 0.05 on mult8 — compare against
    // `p6_bdd_propagate_mult8`, the monolithic run it must beat ≥2×.
    let accuracy_mode = PropagationMode::PartitionedBdd {
        max_region_nodes: 1 << 16,
        max_cut_width: 40,
    };
    let accuracy = PropagatorOptions {
        region_cost: Some(2048),
        ..PropagatorOptions::default()
    };
    c.bench_function("p8_partitioned_propagate_mult8", |b| {
        b.iter(|| std::hint::black_box(propagate(&mult8, &pi, accuracy_mode, &accuracy)))
    });
    // The speed-biased default cut (what `--prob part` runs untuned).
    let default_mode = PropagationMode::partitioned();
    let defaults = PropagatorOptions::default();
    c.bench_function("p8_partitioned_propagate_mult8_default", |b| {
        b.iter(|| std::hint::black_box(propagate(&mult8, &pi, default_mode, &defaults)))
    });
    // Past the monolithic ceiling: mult16's 2848 gates, where the
    // whole-circuit engine cannot run at all (node-budget blowup).
    let big = generators::array_multiplier(16, &h.library);
    let big_pi = vec![SignalStats::default(); big.primary_inputs().len()];
    c.bench_function("p8_partitioned_propagate_mult16", |b| {
        b.iter(|| std::hint::black_box(propagate(&big, &big_pi, default_mode, &defaults)))
    });

    // Exact per-net statistics feeding the gate-parallel reorderer.
    let net_stats = propagate(&mult8, &pi, default_mode, &defaults)
        .net_stats()
        .to_vec();
    let four = OptimizeOptions {
        threads: 4,
        ..OptimizeOptions::default()
    };
    c.bench_function("p8_partitioned_optimize_mult8_parallel4", |b| {
        b.iter(|| {
            std::hint::black_box(
                optimize_with(
                    &mult8,
                    &h.library,
                    &h.model,
                    &net_stats,
                    &four,
                    &mut tr_power::Scratch::new(),
                )
                .expect("ungoverned"),
            )
        })
    });
}

criterion_group!(
    benches,
    p1_gate_power,
    p2_enumeration,
    p3_optimize,
    p4_simulator,
    p5_batch,
    p6_bdd_propagate,
    p7_fixpoint,
    p8_partitioned
);
criterion_main!(benches);
