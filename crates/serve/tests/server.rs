//! Integration tests against a live in-process server: cache-key
//! aliasing, warm/cold equivalence under a concurrent client storm
//! (including forced eviction), artifact rejection over HTTP, JSONL
//! batch streaming, admission control and graceful drain.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use proptest::prelude::*;
use tr_flow::ScenarioSpec;
use tr_flow::{parse_netlist, parse_prob_mode, Flow, FlowEnv, NetlistFormat, OrderHeuristic};
use tr_serve::http;
use tr_trace::json::json_string;

const TOY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = AND(a, b)\ny = NOT(n1)\n";

fn cfg() -> tr_serve::ServeConfig {
    tr_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        watch_signals: false,
        ..Default::default()
    }
}

fn spawn(
    config: tr_serve::ServeConfig,
) -> (
    tr_serve::ServerHandle,
    JoinHandle<std::io::Result<()>>,
    SocketAddr,
) {
    let server = tr_serve::Server::bind(config).expect("bind");
    let addr = server.addr();
    let (handle, join) = server.spawn();
    (handle, join, addr)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> http::Response {
    http::request(&addr.to_string(), "POST", path, body.as_bytes()).expect("request")
}

fn get(addr: SocketAddr, path: &str) -> http::Response {
    http::request(&addr.to_string(), "GET", path, b"").expect("request")
}

/// An /optimize body for `netlist` with extra fields spliced in.
fn optimize_body(name: &str, netlist: &str, extra: &str) -> String {
    format!(
        "{{\"name\": {}, \"netlist\": {}{}{}}}",
        json_string(name),
        json_string(netlist),
        if extra.is_empty() { "" } else { ", " },
        extra
    )
}

/// Drops the wall-clock `timings` block (always the report's last key):
/// it is the one part of a warm report that legitimately differs.
fn strip_timings(json: &str) -> String {
    let i = json
        .rfind(",\"timings\":")
        .expect("report has a timings block");
    format!("{}}}", &json[..i])
}

/// What a fresh, single-threaded, cache-less run of the same request
/// must produce (minus timings).
fn fresh_report(
    env: &FlowEnv,
    name: &str,
    netlist: &str,
    scenario: &str,
    prob: &str,
    order: OrderHeuristic,
) -> String {
    let spec = ScenarioSpec::parse(scenario).unwrap();
    let circuit = parse_netlist(
        name,
        netlist,
        NetlistFormat::Bench,
        &env.library,
        &Default::default(),
    )
    .unwrap();
    let flow = Flow::from_circuit(circuit)
        .scenario(spec.scenario, spec.seed)
        .prob(parse_prob_mode(prob, 1).unwrap())
        .order(order)
        .headroom(false) // the server's default: headroom is opt-in per request
        .threads(1);
    strip_timings(&flow.run(env).unwrap().to_json())
}

#[test]
fn healthz_and_metrics_respond() {
    let (handle, join, addr) = spawn(cfg());
    assert_eq!(get(addr, "/healthz").status, 200);
    let _ = post(
        addr,
        "/optimize",
        &optimize_body("toy", TOY, "\"prob\": \"bdd\""),
    );
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text().into_owned();
    for name in [
        "serve_cache_miss",
        "serve_requests_total",
        "serve_queue_wait_us",
        "serve_http_optimize_latency_us",
    ] {
        assert!(text.contains(name), "missing metric `{name}` in:\n{text}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The stage names of a `Server-Timing` header, each with a
/// non-negative duration.
fn stage_names(resp: &http::Response) -> Vec<String> {
    let header = resp.header("server-timing").expect("Server-Timing header");
    header
        .split(", ")
        .map(|stage| {
            let (name, dur) = stage.split_once(";dur=").expect("name;dur=<ms>");
            assert!(dur.parse::<f64>().unwrap() >= 0.0, "{header}");
            name.to_string()
        })
        .collect()
}

/// Each answer names the stages it ran: a miss loads and snapshots, a
/// warm hit rehydrates, a memoized replay stops at the lookup with the
/// same body; every stage lands in a `/metrics` histogram.
#[test]
fn server_timing_names_the_stages_each_request_ran() {
    let (handle, join, addr) = spawn(cfg());
    let body = optimize_body("toy", TOY, "\"prob\": \"bdd\", \"scenario\": \"a:11\"");
    let cold = post(addr, "/optimize", &body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(
        stage_names(&cold),
        ["decode", "key", "lookup", "load", "stats", "snapshot", "optimize", "render"]
    );
    let memo = post(addr, "/optimize", &body);
    assert_eq!(memo.header("x-cache"), Some("hit"));
    assert_eq!(stage_names(&memo), ["decode", "key", "lookup"]);
    assert_eq!(memo.body, cold.body, "a memoized replay is byte-identical");

    let other_objective = optimize_body(
        "toy",
        TOY,
        "\"prob\": \"bdd\", \"scenario\": \"a:11\", \"objective\": \"max\"",
    );
    let warm = post(addr, "/optimize", &other_objective);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(
        stage_names(&warm),
        ["decode", "key", "lookup", "rehydrate", "optimize", "render"]
    );
    let analyze = post(addr, "/analyze", &body);
    assert_eq!(analyze.status, 200);
    assert_eq!(
        stage_names(&analyze),
        ["decode", "key", "lookup", "rehydrate", "optimize", "render"]
    );

    let text = get(addr, "/metrics").text().into_owned();
    for stage in [
        "decode",
        "key",
        "lookup",
        "load",
        "stats",
        "snapshot",
        "rehydrate",
        "optimize",
        "render",
    ] {
        let name = format!("serve_stage_{stage}_us_count");
        assert!(text.contains(&name), "missing `{name}` in:\n{text}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The one-NAND netlist of the CI server smoke step: two nodes are too
/// few for its exact BDDs under any order.
const NAND2: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

/// A statistics stage that degraded on its node budget alone is a
/// function of the request, so the server caches it under that budget:
/// the exact repeat replays the memoized body, a renamed repeat
/// rehydrates the degraded snapshot and matches the cold answer, and
/// neither a larger budget nor `degrade: false` ever receives it. A
/// deadline trip depends on the clock and is never cached.
#[test]
fn node_budget_degradations_are_cached_under_their_budget() {
    let (handle, join, addr) = spawn(cfg());
    let knobs = "\"prob\": \"bdd\", \"node_budget\": 2, \"scenario\": \"a:5\"";
    let body = optimize_body("nand", NAND2, knobs);
    let cold = post(addr, "/optimize", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let cold_text = cold.text().into_owned();
    assert!(
        cold_text.contains(
            "\"degraded\":true,\"degrade_reason\":\"exact BDD propagation failed: BDD node limit"
        ),
        "{cold_text}"
    );

    let memo = post(addr, "/optimize", &body);
    assert_eq!(memo.header("x-cache"), Some("hit"));
    assert_eq!(stage_names(&memo), ["decode", "key", "lookup"]);
    assert_eq!(memo.body, cold.body, "a memoized replay is byte-identical");

    let renamed = post(addr, "/optimize", &optimize_body("nand-2", NAND2, knobs));
    assert_eq!(renamed.header("x-cache"), Some("hit"));
    assert_eq!(
        stage_names(&renamed),
        ["decode", "key", "lookup", "rehydrate", "optimize", "render"]
    );
    assert_eq!(
        strip_timings(&renamed.text()),
        strip_timings(&cold_text).replacen("\"circuit\":\"nand\"", "\"circuit\":\"nand-2\"", 1)
    );
    assert_eq!(handle.degraded_cache_stats(), (1, 2));

    // Degradation off: the blown budget is the request's error.
    let strict = post(
        addr,
        "/optimize",
        &optimize_body("nand", NAND2, &format!("{knobs}, \"degrade\": false")),
    );
    assert_eq!(strict.status, 500, "{}", strict.text());
    assert!(strict.text().contains("node limit"), "{}", strict.text());
    // A larger budget builds the exact statistics cold.
    let larger = post(
        addr,
        "/optimize",
        &optimize_body(
            "nand",
            NAND2,
            "\"prob\": \"bdd\", \"node_budget\": 64, \"scenario\": \"a:5\"",
        ),
    );
    assert_eq!(larger.header("x-cache"), Some("miss"));
    assert!(
        larger.text().contains("\"degraded\":false"),
        "{}",
        larger.text()
    );

    let deadline = optimize_body(
        "nand",
        NAND2,
        "\"prob\": \"bdd\", \"deadline_ms\": 0, \"scenario\": \"a:6\"",
    );
    for _ in 0..2 {
        let tripped = post(addr, "/optimize", &deadline);
        assert_eq!(tripped.status, 200, "{}", tripped.text());
        assert_eq!(tripped.header("x-cache"), Some("miss"));
        assert!(tripped.text().contains("\"degraded\":true"));
    }
    assert_eq!(handle.degraded_cache_stats(), (1, 2));

    let text = get(addr, "/metrics").text().into_owned();
    for name in ["serve_cache_degraded_insert", "serve_cache_degraded_replay"] {
        assert!(text.contains(name), "missing metric `{name}` in:\n{text}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite: requests differing only in scenario seed, scenario kind,
/// backend, backend knobs, or order heuristic must not alias in the
/// cache; a one-byte netlist edit must miss.
#[test]
fn cache_keys_do_not_alias() {
    let (handle, join, addr) = spawn(cfg());
    let base = optimize_body("toy", TOY, "\"prob\": \"bdd\", \"scenario\": \"a:1\"");
    assert_eq!(
        post(addr, "/optimize", &base).header("x-cache"),
        Some("miss")
    );
    assert_eq!(
        post(addr, "/optimize", &base).header("x-cache"),
        Some("hit")
    );

    let edited = TOY.replace("AND(a, b)", "AND(b, a)");
    let variants = [
        optimize_body("toy", TOY, "\"prob\": \"bdd\", \"scenario\": \"a:2\""),
        optimize_body("toy", TOY, "\"prob\": \"bdd\", \"scenario\": \"b:2e7\""),
        optimize_body("toy", TOY, "\"prob\": \"part\", \"scenario\": \"a:1\""),
        optimize_body(
            "toy",
            TOY,
            "\"prob\": \"part\", \"cut_width\": 3, \"scenario\": \"a:1\"",
        ),
        optimize_body(
            "toy",
            TOY,
            "\"prob\": \"bdd\", \"order\": \"info\", \"scenario\": \"a:1\"",
        ),
        optimize_body("toy", &edited, "\"prob\": \"bdd\", \"scenario\": \"a:1\""),
    ];
    for (i, body) in variants.iter().enumerate() {
        let first = post(addr, "/optimize", body);
        assert_eq!(first.status, 200, "variant {i}: {}", first.text());
        assert_eq!(
            first.header("x-cache"),
            Some("miss"),
            "variant {i} aliased an earlier cache entry"
        );
        assert_eq!(
            post(addr, "/optimize", body).header("x-cache"),
            Some("hit"),
            "variant {i} failed to hit its own entry"
        );
    }
    let (hits, misses, _) = handle.cache_stats();
    assert_eq!(misses, 1 + variants.len() as u64);
    assert_eq!(hits, 1 + variants.len() as u64);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite: the server must reject per-request file outputs with a
/// typed usage error → HTTP 400, mirroring the batch template
/// rejection.
#[test]
fn artifact_fields_are_http_400() {
    let (handle, join, addr) = spawn(cfg());
    for extra in [
        "\"out\": \"/tmp/x.trnet\"",
        "\"vcd\": \"/tmp/x.vcd\"",
        "\"trace\": \"/tmp/x.json\"",
    ] {
        let resp = post(addr, "/optimize", &optimize_body("toy", TOY, extra));
        assert_eq!(resp.status, 400, "{extra}: {}", resp.text());
        let text = resp.text().into_owned();
        assert!(text.contains("per-request artifacts"), "{extra}: {text}");
        assert!(text.contains("\"kind\": \"usage\""), "{extra}: {text}");
    }
    // Nested in a batch circuit entry, and at the batch top level.
    for body in [
        format!(
            "{{\"circuits\": [{{\"netlist\": {}, \"out\": \"x\"}}]}}",
            json_string(TOY)
        ),
        format!(
            "{{\"circuits\": [{{\"netlist\": {}}}], \"trace\": \"x\"}}",
            json_string(TOY)
        ),
    ] {
        let resp = post(addr, "/batch", &body);
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("per-request artifacts"));
    }
    // Unknown endpoint and bad JSON are also typed, not hangs.
    assert_eq!(post(addr, "/frobnicate", "{}").status, 404);
    assert_eq!(post(addr, "/optimize", "not json").status, 400);
    // A body nested deep enough to overflow a recursive decoder's stack
    // is a 400 too, and the daemon keeps serving.
    let deep = format!("{{\"netlist\": {}}}", "[".repeat(100_000));
    let resp = post(addr, "/optimize", &deep);
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("nesting deeper"), "{}", resp.text());
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A cyclic netlist and one that reads an undeclared signal are 400s on
/// both endpoints, naming the offending signal, and the single worker
/// lives on to answer /healthz.
#[test]
fn bad_netlists_are_answered_and_the_worker_lives() {
    let (handle, join, addr) = spawn(tr_serve::ServeConfig {
        threads: 1,
        ..cfg()
    });
    let cyclic = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n";
    let resp = post(addr, "/optimize", &optimize_body("cyc", cyclic, ""));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("combinational cycle"),
        "{}",
        resp.text()
    );
    let batch = |netlist: &str| {
        format!(
            "{{\"circuits\": [{{\"name\": \"ok\", \"netlist\": {}}}, \
              {{\"name\": \"bad\", \"netlist\": {}}}], \"scenarios\": \"a:1\"}}",
            json_string(TOY),
            json_string(netlist)
        )
    };
    let resp = post(addr, "/batch", &batch(cyclic));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("circuit `bad`"), "{}", resp.text());
    assert_eq!(get(addr, "/healthz").status, 200);
    // Undeclared inputs are a parse error, not a mapper panic.
    let undriven = "OUTPUT(y)\ny = NAND(a, b)\n";
    let resp = post(addr, "/optimize", &optimize_body("undriven", undriven, ""));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("signal `a`"), "{}", resp.text());
    let resp = post(addr, "/batch", &batch(undriven));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("circuit `bad`"), "{}", resp.text());
    assert!(resp.text().contains("signal `a`"), "{}", resp.text());
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn batch_streams_one_jsonl_line_per_cell() {
    let (handle, join, addr) = spawn(cfg());
    let body = format!(
        "{{\"circuits\": [{{\"name\": \"t1\", \"netlist\": {}}}, {{\"name\": \"t2\", \"netlist\": {}}}], \
          \"scenarios\": \"a:1,a:2\", \"prob\": \"bdd\", \"threads\": 2}}",
        json_string(TOY),
        json_string("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"),
    );
    let resp = post(addr, "/batch", &body);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("application/x-ndjson"),
        "batch must stream JSONL"
    );
    let text = resp.text().into_owned();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 4, "2 circuits × 2 scenarios:\n{text}");
    for line in &lines {
        let parsed = tr_trace::json::parse(line).expect("each line is standalone JSON");
        assert!(
            parsed.get("circuit").is_some(),
            "not a FlowReport line: {line}"
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Hammers one body from N threads × M rounds and checks every
/// response is 200 with the expected stripped report, counting
/// hits/misses via the X-Cache header.
fn storm(
    addr: SocketAddr,
    clients: usize,
    rounds: usize,
    body: &str,
    expected: &str,
) -> (usize, usize) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let (mut hits, mut misses) = (0usize, 0usize);
                    for _ in 0..rounds {
                        let resp = post(addr, "/optimize", body);
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        match resp.header("x-cache") {
                            Some("hit") => hits += 1,
                            Some("miss") => misses += 1,
                            other => panic!("bad X-Cache: {other:?}"),
                        }
                        let text = resp.text().into_owned();
                        assert_eq!(
                            strip_timings(&text),
                            expected,
                            "a served report diverged from the fresh single-threaded run"
                        );
                    }
                    (hits, misses)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0), |(h, m), j| {
            let (jh, jm) = j.join().unwrap();
            (h + jh, m + jm)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Satellite: N concurrent clients hammering the same circuit get
    /// bitwise-identical reports, equal to a fresh single-threaded
    /// run, whatever mix of warm and cold paths served them.
    #[test]
    fn concurrent_storm_equals_single_threaded_run(seed in 1u64..50, info_order in any::<bool>()) {
        let order = if info_order { OrderHeuristic::InfoMeasure } else { OrderHeuristic::Structural };
        let scenario = format!("a:{seed}");
        let env = FlowEnv::new();
        let expected = fresh_report(&env, "toy", TOY, &scenario, "bdd", order);
        let body = optimize_body(
            "toy",
            TOY,
            &format!(
                "\"prob\": \"bdd\", \"scenario\": \"{scenario}\", \"order\": \"{}\"",
                if info_order { "info" } else { "struct" }
            ),
        );
        let (handle, join, addr) = spawn(tr_serve::ServeConfig { threads: 4, ..cfg() });
        let (hits, misses) = storm(addr, 8, 3, &body, &expected);
        prop_assert_eq!(hits + misses, 24);
        prop_assert!(misses >= 1, "first request must build the entry");
        prop_assert!(hits >= 1, "storm never hit the warm cache");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}

/// Satellite (second half): equivalence must survive forced eviction
/// mid-storm. A 1-node cache budget means every exact-backend insert
/// evicts the other entry, so two alternating circuits keep churning
/// the cache while 8 clients hammer both.
#[test]
fn storm_under_forced_eviction_stays_equivalent() {
    let toy2 = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = OR(a, b)\ny = NOT(n1)\n";
    let env = FlowEnv::new();
    let expected_a = fresh_report(&env, "t1", TOY, "a:3", "bdd", OrderHeuristic::Structural);
    let expected_b = fresh_report(&env, "t2", toy2, "a:3", "bdd", OrderHeuristic::Structural);
    let body_a = optimize_body("t1", TOY, "\"prob\": \"bdd\", \"scenario\": \"a:3\"");
    let body_b = optimize_body("t2", toy2, "\"prob\": \"bdd\", \"scenario\": \"a:3\"");
    let (handle, join, addr) = spawn(tr_serve::ServeConfig {
        threads: 4,
        cache_nodes: 1, // every insert blows the budget → constant eviction
        ..cfg()
    });
    std::thread::scope(|scope| {
        for i in 0..8 {
            let (body, expected) = if i % 2 == 0 {
                (&body_a, &expected_a)
            } else {
                (&body_b, &expected_b)
            };
            scope.spawn(move || {
                for _ in 0..3 {
                    let resp = post(addr, "/optimize", body);
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let text = resp.text().into_owned();
                    assert_eq!(&strip_timings(&text), expected);
                }
            });
        }
    });
    let (_, _, evictions) = handle.cache_stats();
    assert!(
        evictions > 0,
        "the 1-node budget was supposed to force evictions"
    );
    assert!(handle.cache_len() <= 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Admission control: with one worker wedged and one connection
/// queued, the next connection is answered 429 without parsing.
#[test]
fn overload_is_429() {
    let (handle, join, addr) = spawn(tr_serve::ServeConfig {
        threads: 1,
        queue_depth: 1,
        ..cfg()
    });
    // Wedge the single worker: open a connection and send only half a
    // request; the worker blocks reading the rest.
    let mut wedge = TcpStream::connect(addr).unwrap();
    wedge
        .write_all(b"POST /optimize HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
        .unwrap();
    wedge.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    // Fill the queue with a second half-open connection...
    let mut parked = TcpStream::connect(addr).unwrap();
    parked.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    // ...so the third is rejected at admission.
    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 429, "{}", resp.text());
    assert!(resp.text().contains("queue full"), "{}", resp.text());
    // Unwedge so drain can finish.
    wedge.write_all(b"0123456789").unwrap();
    parked.write_all(b"\r\n").unwrap();
    drop(wedge);
    drop(parked);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Graceful drain: shutdown stops new admissions but the report for
/// anything already accepted still arrives.
#[test]
fn shutdown_drains_and_refuses_new_work() {
    let (handle, join, addr) = spawn(cfg());
    assert_eq!(
        post(addr, "/optimize", &optimize_body("toy", TOY, "")).status,
        200
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
    // The listener is gone: connecting now fails outright.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting"
    );
}
