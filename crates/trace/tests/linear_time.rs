//! Linear-time guard for JSON decode: a `POST /optimize`-shaped body
//! whose netlist string (one `\n` escape per line) grows from 32 KB to
//! 256 KB may cost [`parse`] at most ~20× the time. A linear decoder
//! reads about 8×; one that rescans the rest of the input per character
//! reads about 64×.
//!
//! The sizes stay small on purpose: a quadratic decoder takes about a
//! second on the larger body, so a regression fails here instead of
//! hanging.
//!
//! Wall-clock ratios only mean something for optimized code, so this
//! runs under `cargo test --release` and is ignored in debug builds.

use std::time::Instant;
use tr_trace::json::{json_string, parse, Json};

const SMALL_BYTES: usize = 32 * 1024;
const GROWTH: usize = 8;
const MAX_RATIO: f64 = 20.0;
const ROUNDS: usize = 7;

/// An `/optimize` body whose escaped netlist string is about `bytes`
/// long, with the netlist itself.
fn optimize_body(bytes: usize) -> (String, String) {
    let mut netlist = String::from("INPUT(a)\nINPUT(b)\n");
    let mut gate = 0;
    // Escaped, each of the `gate + 2` lines' `\n` takes two bytes.
    while netlist.len() + gate + 2 < bytes {
        netlist.push_str(&format!("g{gate} = NAND(a, b)\n"));
        gate += 1;
    }
    let body = format!(
        "{{\"name\": \"big\", \"netlist\": {}, \"format\": \"bench\", \"prob\": \"bdd\", \
         \"scenario\": \"a:1\"}}",
        json_string(&netlist)
    );
    (body, netlist)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio guard; run with cargo test --release"
)]
fn request_decode_scales_linearly() {
    let (small, small_netlist) = optimize_body(SMALL_BYTES);
    let (large, large_netlist) = optimize_body(GROWTH * SMALL_BYTES);
    let time = |body: &str, netlist: &str| {
        let t = Instant::now();
        let doc = parse(body).expect("valid body");
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(
            doc.get("netlist").and_then(Json::as_str),
            Some(netlist),
            "decoded netlist"
        );
        elapsed
    };
    // Best of `ROUNDS`, interleaved so that drift in machine load hits
    // both sizes alike.
    let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        s = s.min(time(&small, &small_netlist));
        l = l.min(time(&large, &large_netlist));
    }
    let ratio = l / s;
    eprintln!(
        "decode: {} KB {:.3} ms -> {} KB {:.3} ms ({ratio:.1}x)",
        small.len() / 1024,
        s * 1e3,
        large.len() / 1024,
        l * 1e3
    );
    assert!(
        ratio <= MAX_RATIO,
        "decode: {GROWTH}x the body took {ratio:.1}x the time ({:.3} ms -> {:.3} ms)",
        s * 1e3,
        l * 1e3
    );
}
