//! Linear-time guards for the passes every load runs: growing a
//! ripple-carry adder from 1k to 8k bits may cost `validate`,
//! `topological_order` and `logic_depth` at most ~20× the time. A linear
//! pass reads about 8×; one that scans the input list per gate or per
//! net reads about 64×.
//!
//! Wall-clock ratios only mean something for optimized code, so these
//! run under `cargo test --release` and are ignored in debug builds.

use std::time::Instant;
use tr_gatelib::Library;
use tr_netlist::{generators, Circuit};

const SMALL_BITS: usize = 1024;
const GROWTH: usize = 8;
const MAX_RATIO: f64 = 20.0;
const ROUNDS: usize = 7;

/// Best-of-`ROUNDS` wall time of `pass` on the small and the large
/// circuit, interleaved so that drift in machine load hits both sizes
/// alike; fails if the large one costs more than `MAX_RATIO` times the
/// small one.
fn assert_linear(name: &str, small: &Circuit, large: &Circuit, pass: impl Fn(&Circuit)) {
    let time = |c: &Circuit| {
        let t = Instant::now();
        pass(c);
        t.elapsed().as_secs_f64()
    };
    let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        s = s.min(time(small));
        l = l.min(time(large));
    }
    let ratio = l / s;
    eprintln!(
        "{name}: {:.3} ms -> {:.3} ms ({ratio:.1}x)",
        s * 1e3,
        l * 1e3
    );
    assert!(
        ratio <= MAX_RATIO,
        "{name}: {GROWTH}x the adder took {ratio:.1}x the time ({:.3} ms -> {:.3} ms)",
        s * 1e3,
        l * 1e3
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio guard; run with cargo test --release"
)]
fn netlist_passes_scale_linearly_on_ripple_carry_adders() {
    let lib = Library::standard();
    let small = generators::ripple_carry_adder(SMALL_BITS, &lib);
    let large = generators::ripple_carry_adder(GROWTH * SMALL_BITS, &lib);
    assert_eq!(
        large.primary_inputs().len(),
        2 * GROWTH * SMALL_BITS + 1,
        "a wide adder: the primary-input list grows with the circuit"
    );
    assert_linear("validate", &small, &large, |c| {
        c.validate(&lib).expect("valid adder")
    });
    assert_linear("topological_order", &small, &large, |c| {
        std::hint::black_box(c.topological_order().expect("acyclic"));
    });
    assert_linear("logic_depth", &small, &large, |c| {
        std::hint::black_box(c.logic_depth());
    });
}
