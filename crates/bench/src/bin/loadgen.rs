//! `loadgen` — closed-loop load harness for the `tr-serve` daemon.
//!
//! Spawns an in-process server, then measures the two things the
//! serving layer exists for:
//!
//! 1. **Cold vs warm** — one `POST /optimize` of `mult8` with the exact
//!    BDD backend (cache miss: parse → compile → BDD build → optimize),
//!    then repeats that must hit the warm cache and skip everything up
//!    to the optimizer. The warm mean must beat the cold request by at
//!    least `--min-speedup` (default 200×) or the run fails. Both sides
//!    of that ratio are timed in the same run, so it holds on a slow
//!    host as on a fast one.
//! 2. **Concurrent storm** — `--clients` closed-loop clients (default
//!    8) sweep the small suite `--rounds` times each, every response
//!    checked for success and for silent degradation. Reports
//!    throughput and p50/p90/p99 latency.
//!
//! Results land in `--out` (default `BENCH_PR10.json`) in the same
//! `{"benchmarks": [...]}` shape the criterion shim saves.
//!
//! Exit codes: 0 success, 1 a request failed / a response degraded /
//! the warm path missed the speedup floor, 2 usage error.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tr_flow::FlowEnv;
use tr_netlist::format as trnet;
use tr_netlist::suite;
use tr_serve::{http, ServeConfig, Server};
use tr_trace::json::json_string;

struct Options {
    clients: usize,
    rounds: usize,
    warm_iters: usize,
    min_speedup: f64,
    server_threads: usize,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--clients N] [--rounds N] [--warm-iters N] \
         [--min-speedup X] [--server-threads N] [--out FILE]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        clients: 8,
        rounds: 3,
        warm_iters: 20,
        min_speedup: 200.0,
        server_threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        out: "BENCH_PR10.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<usize, ExitCode> {
            it.next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    eprintln!("loadgen: {name} needs a positive integer");
                    ExitCode::from(2)
                })
        };
        match a.as_str() {
            "--clients" => opts.clients = num("--clients")?,
            "--rounds" => opts.rounds = num("--rounds")?,
            "--warm-iters" => opts.warm_iters = num("--warm-iters")?,
            "--server-threads" => opts.server_threads = num("--server-threads")?,
            "--min-speedup" => {
                opts.min_speedup = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    eprintln!("loadgen: --min-speedup needs a number");
                    ExitCode::from(2)
                })?;
            }
            "--out" => {
                opts.out = it
                    .next()
                    .ok_or_else(|| {
                        eprintln!("loadgen: --out needs a path");
                        ExitCode::from(2)
                    })?
                    .clone();
            }
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

/// An `/optimize` body for a `.trnet` netlist with the exact backend.
fn body_for(name: &str, netlist: &str) -> String {
    format!(
        "{{\"name\": {}, \"netlist\": {}, \"format\": \"trnet\", \"prob\": \"bdd\", \"scenario\": \"a:1\"}}",
        json_string(name),
        json_string(netlist)
    )
}

/// One request; returns the latency or a description of what went
/// wrong. Degraded responses are failures here: under this load there
/// is no budget pressure, so any independent-fallback means the server
/// quietly served a worse answer.
fn timed_post(addr: &SocketAddr, body: &str) -> Result<(Duration, bool), String> {
    let t = Instant::now();
    let resp = http::request(&addr.to_string(), "POST", "/optimize", body.as_bytes())
        .map_err(|e| format!("transport: {e}"))?;
    let dt = t.elapsed();
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.text()));
    }
    let text = resp.text();
    if text.contains("\"degraded\":true") {
        return Err(format!("degraded response: {text}"));
    }
    Ok((dt, resp.header("x-cache") == Some("hit")))
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let env = FlowEnv::new();
    let server = match Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: opts.server_threads,
        queue_depth: 2 * opts.clients + 8,
        watch_signals: false,
        ..Default::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: cannot bind server: {e}");
            return ExitCode::from(1);
        }
    };
    let addr = server.addr();
    let (handle, join) = server.spawn();
    println!(
        "loadgen: in-process tr-serve on http://{addr} ({} workers)",
        opts.server_threads
    );

    // ---- Phase 1: cold vs warm on mult8, exact backend --------------
    let mult8 = suite::standard_suite(&env.library)
        .into_iter()
        .find(|c| c.name == "mult8")
        .expect("standard suite has mult8");
    let mult8_body = body_for("mult8", &trnet::write(&mult8.circuit));

    let (cold, was_hit) = match timed_post(&addr, &mult8_body) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: cold mult8 request failed: {e}");
            return ExitCode::from(1);
        }
    };
    if was_hit {
        eprintln!("loadgen: first mult8 request hit the cache of a fresh server");
        return ExitCode::from(1);
    }
    let mut warm_total = Duration::ZERO;
    for i in 0..opts.warm_iters {
        match timed_post(&addr, &mult8_body) {
            Ok((dt, true)) => warm_total += dt,
            Ok((_, false)) => {
                eprintln!("loadgen: warm iteration {i} missed the cache");
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("loadgen: warm iteration {i} failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let warm = warm_total / opts.warm_iters as u32;
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!(
        "cold mult8 {:>10.3} ms   warm mean {:>8.3} ms   speedup {speedup:>6.1}x",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3
    );

    // ---- Phase 2: concurrent storm over the small suite -------------
    let cases: Vec<(String, String)> = suite::small_suite(&env.library)
        .iter()
        .map(|c| (c.name.clone(), body_for(&c.name, &trnet::write(&c.circuit))))
        .collect();
    let total_requests = opts.clients * opts.rounds * cases.len();
    println!(
        "storm: {} clients x {} rounds x {} circuits = {} requests",
        opts.clients,
        opts.rounds,
        cases.len(),
        total_requests
    );
    let storm_start = Instant::now();
    let results: Vec<Result<(Duration, bool), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let cases = &cases;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(opts.rounds * cases.len());
                    for round in 0..opts.rounds {
                        // Offset each client's sweep so the mix stays
                        // heterogeneous instead of a 8-wide convoy.
                        for i in 0..cases.len() {
                            let (_, body) = &cases[(i + client + round) % cases.len()];
                            out.push(timed_post(&addr, body));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let storm_wall = storm_start.elapsed();

    let mut latencies = Vec::with_capacity(results.len());
    let mut hits = 0usize;
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok((dt, hit)) => {
                latencies.push(dt);
                hits += hit as usize;
            }
            Err(e) => failures.push(e),
        }
    }
    latencies.sort();
    let (p50, p90, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
    );
    let throughput = latencies.len() as f64 / storm_wall.as_secs_f64();
    println!(
        "storm: {} ok / {} failed, {hits} warm hits, {throughput:.1} req/s",
        latencies.len(),
        failures.len()
    );
    println!(
        "latency: p50 {:.3} ms   p90 {:.3} ms   p99 {:.3} ms",
        p50.as_secs_f64() * 1e3,
        p90.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3
    );

    handle.shutdown();
    let _ = join.join();

    // ---- Persist in the bench_delta / criterion-shim shape ----------
    let entry = |name: &str, d: Duration, iters: usize| {
        format!(
            "    {{\"name\": \"{name}\", \"mean_ns\": {:.1}, \"iters\": {iters}}}",
            d.as_secs_f64() * 1e9
        )
    };
    let json = format!(
        "{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        [
            entry("p10_serve_cold_optimize_mult8", cold, 1),
            entry("p10_serve_warm_optimize_mult8", warm, opts.warm_iters),
            entry("p10_loadgen_p50", p50, latencies.len()),
            entry("p10_loadgen_p90", p90, latencies.len()),
            entry("p10_loadgen_p99", p99, latencies.len()),
        ]
        .join(",\n")
    );
    if let Err(e) = std::fs::write(&opts.out, json) {
        eprintln!("loadgen: cannot write {}: {e}", opts.out);
        return ExitCode::from(1);
    }
    println!("results -> {}", opts.out);

    if !failures.is_empty() {
        eprintln!(
            "loadgen: {} requests failed; first: {}",
            failures.len(),
            failures[0]
        );
        return ExitCode::from(1);
    }
    if speedup < opts.min_speedup {
        eprintln!(
            "loadgen: warm speedup {speedup:.1}x is under the {:.1}x floor",
            opts.min_speedup
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
