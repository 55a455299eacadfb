//! The daemon: accept loop, bounded admission queue, worker pool,
//! endpoint routing, warm cache, graceful drain.
//!
//! Life of a request: the accept loop pushes the raw connection onto a
//! bounded queue (or answers 429 when it is full — admission control
//! happens before any parsing, so overload costs the server almost
//! nothing); a worker pops it, parses the HTTP request and the JSON
//! body, clamps the requested budgets against the server caps, then
//! either *rehydrates* a warm-cache entry (skipping parse, map,
//! compile and BDD build) or runs the cold path and snapshots the
//! staged artifacts for next time — also when the statistics degraded
//! on node budgets alone, under a key that folds the budget in (see
//! [`degraded_key`]). Each stage a request runs is timed:
//! the response names them in a `Server-Timing` header and `/metrics`
//! keeps a `serve.stage.<name>_us` histogram per stage. Shutdown —
//! [`ServerHandle::shutdown`] or SIGTERM — stops the accept loop and
//! lets the workers finish everything already queued or in flight
//! before `run` returns.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tr_flow::{parse_netlist, BatchJob, BatchRunner, Error, Flow, FlowEnv, RunBudget, StatsStage};
use tr_netlist::Circuit;
use tr_power::{circuit_power, Scratch};
use tr_timing::critical_path_delay;
use tr_trace::json::{json_f64, json_opt_f64, json_string};
use tr_trace::metrics;

use crate::cache::{content_key, WarmCache};
use crate::http::{self, HttpError, Request};
use crate::request::{parse_batch, parse_optimize, BatchRequest, Knobs, OptimizeRequest};
use crate::signal;

/// Server configuration. The caps (`max_*`) clamp what clients may
/// request; they never reject — a request asking for more than the cap
/// simply runs under the cap.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads (each serves one request at a time).
    pub threads: usize,
    /// Admission queue depth; connections beyond it are answered 429.
    pub queue_depth: usize,
    /// Cap on per-request `deadline_ms` (`None` = uncapped).
    pub max_deadline_ms: Option<u64>,
    /// Cap on per-request `node_budget` (`None` = uncapped).
    pub max_node_budget: Option<usize>,
    /// Cap on per-request optimizer `threads`.
    pub max_request_threads: usize,
    /// Warm-cache budget: live BDD nodes across all entries.
    pub cache_nodes: usize,
    /// Warm-cache budget: approximate heap bytes across all entries.
    pub cache_bytes: usize,
    /// Install a SIGTERM/SIGINT handler and drain when one arrives
    /// (the CLI turns this on; tests drive [`ServerHandle::shutdown`]).
    pub watch_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 4,
            queue_depth: 64,
            max_deadline_ms: None,
            max_node_budget: None,
            max_request_threads: 4,
            cache_nodes: 4_000_000,
            cache_bytes: 256 * 1024 * 1024,
            watch_signals: false,
        }
    }
}

struct Queue {
    conns: VecDeque<(TcpStream, Instant)>,
    /// `false` once the accept loop has stopped: workers exit when the
    /// queue runs dry instead of waiting for more.
    open: bool,
}

struct Shared {
    env: FlowEnv,
    config: ServeConfig,
    cache: WarmCache,
    /// Key part tying cached artifacts to this server's library/process.
    library_fingerprint: String,
    queue: Mutex<Queue>,
    ready: Condvar,
    draining: AtomicBool,
}

/// A bound, not-yet-running server. [`Server::run`] blocks until
/// shutdown; [`Server::spawn`] runs it on its own thread.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listener and builds the shared environment (library,
    /// process, power/timing models) the workers will run against.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let env = FlowEnv::new();
        let library_fingerprint = format!(
            "cells:{}/process:{:?}",
            env.library.cells().len(),
            env.process
        );
        let cache = WarmCache::new(config.cache_nodes, config.cache_bytes);
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                env,
                config,
                cache,
                library_fingerprint,
                queue: Mutex::new(Queue {
                    conns: VecDeque::new(),
                    open: true,
                }),
                ready: Condvar::new(),
                draining: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Runs accept loop + workers; returns after a graceful drain.
    pub fn run(self) -> io::Result<()> {
        tr_trace::set_thread_name("serve-accept");
        let workers: Vec<JoinHandle<()>> = (0..self.shared.config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker(&shared, i))
            })
            .collect();
        if self.shared.config.watch_signals {
            signal::install();
            let handle = self.handle();
            std::thread::spawn(move || loop {
                if handle.shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                if signal::pending() {
                    handle.shutdown();
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            });
        }

        for stream in self.listener.incoming() {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue, // transient accept failure
            };
            let _span = tr_trace::span!("serve.accept");
            let mut q = self.shared.queue.lock().unwrap();
            if q.conns.len() >= self.shared.config.queue_depth {
                drop(q);
                metrics::counter("serve.http.rejected").inc();
                reject_and_close(stream, 429, "admission queue full, retry later");
                continue;
            }
            q.conns.push_back((stream, Instant::now()));
            metrics::gauge("serve.queue.depth").set(q.conns.len() as f64);
            drop(q);
            self.shared.ready.notify_one();
        }

        // Drain: close the queue so workers exit once it runs dry, but
        // let them finish everything already accepted.
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.open = false;
        }
        self.shared.ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Runs the server on its own thread; the caller keeps the handle.
    pub fn spawn(self) -> (ServerHandle, JoinHandle<io::Result<()>>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This instance's warm-cache (hits, misses, evictions) — local
    /// counters, so tests don't race the process-global `/metrics`
    /// registry.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.shared.cache.stats()
    }

    /// This instance's (inserts, hits) of degraded warm-cache entries.
    pub fn degraded_cache_stats(&self) -> (u64, u64) {
        self.shared.cache.degraded_stats()
    }

    /// Resident warm-cache entries.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Starts a graceful drain: stop accepting, finish queued and
    /// in-flight requests, then let [`Server::run`] return. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.ready.notify_all();
    }
}

fn worker(shared: &Shared, idx: usize) {
    tr_trace::set_thread_name(&format!("serve-worker-{idx}"));
    let mut scratch = Scratch::new();
    loop {
        let (stream, accepted) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(conn) = q.conns.pop_front() {
                    metrics::gauge("serve.queue.depth").set(q.conns.len() as f64);
                    break conn;
                }
                if !q.open {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        let wait_us = accepted.elapsed().as_micros() as u64;
        metrics::histogram("serve.queue.wait_us").record(wait_us);
        let _span = tr_trace::span!("serve.request", wait_us = wait_us);
        handle_connection(shared, stream, &mut scratch);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, scratch: &mut Scratch) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    match http::read_request(&mut reader) {
        Ok(Some(req)) => dispatch(shared, &req, &mut out, scratch),
        Ok(None) => {} // probe or shutdown self-connect
        Err(HttpError::Malformed(m)) => {
            let _ = reject(&mut out, 400, &m);
        }
        Err(HttpError::TooLarge(m)) => {
            let _ = reject(&mut out, 413, &m);
        }
        Err(HttpError::Io(_)) => {} // peer vanished; nothing to answer
    }
}

fn dispatch(shared: &Shared, req: &Request, out: &mut TcpStream, scratch: &mut Scratch) {
    let t = Instant::now();
    metrics::counter("serve.requests.total").inc();
    let endpoint = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("POST", "/optimize") => "optimize",
        ("POST", "/analyze") => "analyze",
        ("POST", "/batch") => "batch",
        _ => "other",
    };
    let _span = tr_trace::span!("serve.handle", endpoint = endpoint);
    let result = match endpoint {
        "healthz" => http::write_response(out, 200, "text/plain", &[], b"ok\n"),
        "metrics" => http::write_response(
            out,
            200,
            "text/plain; version=0.0.4",
            &[],
            metrics::render_text().as_bytes(),
        ),
        "optimize" => handle_optimize(shared, req, out, scratch, false),
        "analyze" => handle_optimize(shared, req, out, scratch, true),
        "batch" => handle_batch(shared, req, out),
        _ => reject(
            out,
            404,
            &format!("no such endpoint: {} {}", req.method, req.path),
        ),
    };
    let _ = result; // the peer may already be gone; that's its problem
    metrics::histogram(&format!("serve.http.{endpoint}.latency_us"))
        .record(t.elapsed().as_micros() as u64);
}

/// How long the accept loop waits, in total, for a rejected client's
/// request bytes before closing the connection.
const REJECT_DRAIN: Duration = Duration::from_millis(50);

/// Answers `status` on a connection the server will not serve, then
/// closes it gracefully: half-close so the response is delivered, and
/// discard what the client sent (at most [`http::MAX_HEAD_BYTES`],
/// within [`REJECT_DRAIN`]). Closing with request bytes still unread
/// makes the kernel send a reset, which can beat the response to the
/// client.
fn reject_and_close(mut stream: TcpStream, status: u16, msg: &str) {
    let _ = reject(&mut stream, status, msg);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    while drained < http::MAX_HEAD_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// The JSON error envelope every non-200 carries.
fn reject(out: &mut impl Write, status: u16, msg: &str) -> io::Result<()> {
    let kind = match status {
        400 | 404 | 405 | 413 => "usage",
        429 | 503 => "overload",
        _ => "internal",
    };
    let body = format!(
        "{{\"error\": {}, \"kind\": {}}}\n",
        json_string(msg),
        json_string(kind)
    );
    http::write_response(out, status, "application/json", &[], body.as_bytes())
}

/// Maps a pipeline error onto a status: caller mistakes are 400,
/// cancellations 503, everything else 500.
fn error_status(e: &Error) -> u16 {
    match e {
        Error::Usage(_)
        | Error::Unsupported(_)
        | Error::UnknownFormat(_)
        | Error::StatsMismatch { .. }
        | Error::Bench(_)
        | Error::Blif(_)
        | Error::Format(_)
        | Error::Circuit(_)
        | Error::Stats(_)
        | Error::Arity(_) => 400,
        Error::Interrupted(_) => 503,
        _ => 500,
    }
}

/// Budgets and threads a request may actually use: its ask clamped by
/// the server caps (a missing ask inherits the cap itself, so a capped
/// server never runs an unbounded request).
fn clamp(knobs: &Knobs, config: &ServeConfig) -> (RunBudget, usize) {
    let mut budget = RunBudget::default();
    let deadline = match (knobs.deadline_ms, config.max_deadline_ms) {
        (Some(req), Some(cap)) => Some(req.min(cap)),
        (Some(req), None) => Some(req),
        (None, cap) => cap,
    };
    if let Some(ms) = deadline {
        budget = budget.deadline_ms(ms);
    }
    let nodes = match (knobs.node_budget, config.max_node_budget) {
        (Some(req), Some(cap)) => Some(req.min(cap)),
        (Some(req), None) => Some(req),
        (None, cap) => cap,
    };
    if let Some(n) = nodes {
        budget = budget.bdd_nodes(n);
    }
    let threads = knobs.threads.min(config.max_request_threads).max(1);
    (budget, threads)
}

/// The `Flow` template for one request's knobs (no source: the staged
/// entry points take the circuit explicitly).
fn request_flow(preq: &OptimizeRequest, budget: RunBudget, threads: usize) -> Flow {
    Flow::from_circuit(Circuit::new("template"))
        .scenario(preq.scenario.scenario, preq.scenario.seed)
        .prob(preq.knobs.prob)
        .order(preq.knobs.order)
        .objective(preq.knobs.objective)
        .delay_bound(preq.knobs.delay_bound)
        .fixpoint(preq.knobs.fixpoint)
        .threads(threads)
        .headroom(preq.headroom)
        .budget(budget)
        .degrade(preq.knobs.degrade)
}

fn handle_optimize(
    shared: &Shared,
    req: &Request,
    out: &mut TcpStream,
    scratch: &mut Scratch,
    analyze_only: bool,
) -> io::Result<()> {
    let mut stages = Stages::default();
    // Decode runs before the request's governor exists: it is linear,
    // and the body cap bounds it.
    let decoded = stages.time("decode", || match std::str::from_utf8(&req.body) {
        Ok(body) => parse_optimize(body).map_err(|e| (error_status(&e), e.to_string())),
        Err(_) => Err((400, "request body must be UTF-8 JSON".to_string())),
    });
    let preq = match decoded {
        Ok(p) => p,
        Err((status, msg)) => {
            stages.record();
            return reject(out, status, &msg);
        }
    };
    // Panic fence: one poisoned request answers 500, the worker lives
    // on (with a rebuilt scratch arena — the unwound stage may have
    // left it mid-update).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_optimize(shared, &preq, scratch, analyze_only, &mut stages)
    }));
    let timing = stages.record();
    match outcome {
        Ok(Ok((json, cache_state))) => http::write_response(
            out,
            200,
            "application/json",
            &[("X-Cache", cache_state), ("Server-Timing", &timing)],
            json.as_bytes(),
        ),
        Ok(Err(e)) => reject(out, error_status(&e), &e.to_string()),
        Err(payload) => {
            *scratch = Scratch::new();
            reject(out, 500, &panic_message(payload.as_ref()))
        }
    }
}

/// The 500 message for a request that panicked inside a fence.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "request panicked".to_string());
    format!("request panicked: {msg}")
}

/// Wall time of each stage one request ran, in order.
#[derive(Default)]
struct Stages(Vec<(&'static str, Duration)>);

impl Stages {
    /// Runs `f` as stage `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push((name, t.elapsed()));
        out
    }

    /// Records every stage in its `serve.stage.<name>_us` histogram and
    /// returns the `Server-Timing` header value (`name;dur=<ms>`, in
    /// the order the stages ran).
    fn record(&self) -> String {
        let mut header = String::new();
        for (i, (name, d)) in self.0.iter().enumerate() {
            metrics::histogram(&format!("serve.stage.{name}_us")).record(d.as_micros() as u64);
            if i > 0 {
                header.push_str(", ");
            }
            let _ = write!(header, "{name};dur={:.3}", d.as_secs_f64() * 1e3);
        }
        header
    }
}

/// The warm/cold core shared by `/optimize` and `/analyze`. Returns the
/// response JSON plus the `X-Cache` verdict. Every request runs the
/// `key` and `lookup` stages; a memoized replay stops there, a warm hit
/// adds `rehydrate`, `optimize` and `render`, and a miss adds `load`,
/// `stats`, `snapshot`, `optimize` and `render`. A request with
/// degradation on looks up its content key, then its
/// [`degraded_key`].
fn run_optimize(
    shared: &Shared,
    preq: &OptimizeRequest,
    scratch: &mut Scratch,
    analyze_only: bool,
    stages: &mut Stages,
) -> Result<(String, &'static str), Error> {
    let env = &shared.env;
    let (budget, threads) = clamp(&preq.knobs, &shared.config);
    let flow = request_flow(preq, budget, threads);
    let (key, dkey, rkey) = stages.time("key", || {
        let key = preq.cache_key(&shared.library_fingerprint);
        (
            key,
            degraded_key(key, budget.bdd_node_budget),
            result_key(preq, &shared.config, threads, analyze_only),
        )
    });
    let found = stages.time("lookup", || {
        let keys = [key, dkey];
        let tried = if preq.knobs.degrade { 2 } else { 1 };
        shared.cache.get_any(&keys[..tried]).map(|entry| {
            let memo = entry.result(rkey);
            (entry, memo)
        })
    });

    if let Some((entry, memo)) = found {
        // Warmest: the exact same request ran before and its response
        // is memoized on the entry — replay it without even touching
        // the optimizer. (Timings are the original run's; the response
        // is otherwise deterministic, so byte-replay is exact.)
        if let Some(json) = memo {
            return Ok((json.as_ref().clone(), "hit"));
        }
        // Warm: rehydrate clones the snapshot's propagator and attaches
        // this request's governor — no parse, no map, no BDD build.
        let stage = stages.time("rehydrate", || {
            flow.rehydrate(env, &entry.circuit, &entry.snapshot)
        })?;
        let (json, tripped) = finish(
            &flow,
            env,
            &entry.circuit,
            preq,
            0.0,
            stage,
            scratch,
            analyze_only,
            stages,
        )?;
        if !tripped {
            entry.memoize(rkey, &json);
        }
        return Ok((json, "hit"));
    }

    // Cold: full load + stage 2, then snapshot the staged artifacts
    // before optimization mutates the propagator's counters. The parser
    // (`.trnet`) or the mapper (`.bench`/`.blif`) has already validated
    // the circuit it returns.
    let t = Instant::now();
    let circuit = stages.time("load", || {
        let _s = tr_trace::span!("serve.load", name = preq.name.as_str());
        parse_netlist(
            &preq.name,
            &preq.netlist,
            preq.format,
            &env.library,
            &Default::default(),
        )
    })?;
    let load_s = t.elapsed().as_secs_f64();
    let stage = stages.time("stats", || flow.prepare_stats(env, &circuit))?;
    let entry = stages.time("snapshot", || {
        stage.snapshot().map(|snapshot| {
            let key = if snapshot.degraded() { dkey } else { key };
            shared.cache.insert(key, circuit.clone(), snapshot)
        })
    });
    let (json, tripped) = finish(
        &flow,
        env,
        &circuit,
        preq,
        load_s,
        stage,
        scratch,
        analyze_only,
        stages,
    )?;
    if let (Some(entry), false) = (entry, tripped) {
        entry.memoize(rkey, &json);
    }
    Ok((json, "miss"))
}

/// The key of a degraded entry: the content key with the clamped node
/// budget folded in. A node-budget degradation is a function of the
/// budget, so a degraded entry answers only requests under the same one
/// — and with `degrade: true`, since a request with degradation off
/// never looks this key up.
fn degraded_key(key: u128, node_budget: Option<usize>) -> u128 {
    content_key(&[&key.to_le_bytes(), format!("{node_budget:?}").as_bytes()])
}

/// The key for per-entry response memoization: everything that shapes
/// the *result* given the staged artifacts. The circuit name is
/// included (the report carries it), as are the clamped budgets — the
/// same ask under a reconfigured server is a different result.
fn result_key(
    preq: &OptimizeRequest,
    config: &ServeConfig,
    threads: usize,
    analyze_only: bool,
) -> u128 {
    let deadline = preq.knobs.deadline_ms.map_or_else(
        || format!("{:?}", config.max_deadline_ms),
        |v| v.to_string(),
    );
    let nodes = preq.knobs.node_budget.map_or_else(
        || format!("{:?}", config.max_node_budget),
        |v| v.to_string(),
    );
    content_key(&[
        if analyze_only { "analyze" } else { "optimize" }.as_bytes(),
        preq.name.as_bytes(),
        format!("{:?}", preq.knobs.objective).as_bytes(),
        format!("{:?}", preq.knobs.delay_bound).as_bytes(),
        format!("{:?}", preq.knobs.fixpoint).as_bytes(),
        threads.to_string().as_bytes(),
        preq.headroom.to_string().as_bytes(),
        preq.knobs.degrade.to_string().as_bytes(),
        deadline.as_bytes(),
        nodes.as_bytes(),
    ])
}

/// Stages 3–7 (optimize) or the read-only summary (analyze), timed as
/// the `optimize` stage, then the response JSON, timed as `render`.
/// Returns the JSON plus whether the run degraded after its statistics
/// stage, i.e. a deadline tripped (such responses must not be
/// memoized).
#[allow(clippy::too_many_arguments)]
fn finish(
    flow: &Flow,
    env: &FlowEnv,
    circuit: &Circuit,
    preq: &OptimizeRequest,
    load_s: f64,
    stage: StatsStage,
    scratch: &mut Scratch,
    analyze_only: bool,
    stages: &mut Stages,
) -> Result<(String, bool), Error> {
    if analyze_only {
        let (power, delay, depth) = stages.time("optimize", || {
            (
                circuit_power(circuit, &env.model, stage.net_stats()),
                critical_path_delay(circuit, &env.timing),
                circuit.logic_depth(),
            )
        });
        let json = stages.time("render", || {
            format!(
                "{{\"circuit\": {}, \"scenario\": {}, \"gates\": {}, \"inputs\": {}, \
                 \"depth\": {}, \"prob_mode\": {}, \"power_w\": {}, \"critical_path_s\": {}, \
                 \"independence_error\": {}, \"degraded\": {}}}",
                json_string(&preq.name),
                json_string(&preq.scenario.label),
                circuit.gates().len(),
                circuit.primary_inputs().len(),
                depth,
                json_string(stage.prob_mode().as_str()),
                json_f64(power.total),
                json_f64(delay),
                json_opt_f64(stage.independence_error()),
                stage.degraded()
            )
        });
        return Ok((json, false));
    }
    let stage_degraded = stage.degraded();
    let (report, _) = stages.time("optimize", || {
        flow.run_staged(env, circuit, preq.name.clone(), load_s, stage, scratch)
    })?;
    let json = stages.time("render", || report.to_json());
    Ok((json, report.degraded && !stage_degraded))
}

fn handle_batch(shared: &Shared, req: &Request, out: &mut TcpStream) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return reject(out, 400, "request body must be UTF-8 JSON");
    };
    let preq = match parse_batch(body) {
        Ok(p) => p,
        Err(e) => return reject(out, error_status(&e), &e.to_string()),
    };
    let BatchRequest {
        circuits,
        scenarios,
        knobs,
    } = preq;
    // Parse (and so validate) every netlist before the first response
    // byte: a bad input still gets a clean 400 instead of a truncated
    // stream. The /optimize panic fence keeps a netlist that trips the
    // mapper from taking the worker down with it.
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        let mut jobs = Vec::with_capacity(circuits.len());
        for (name, netlist, format) in &circuits {
            let circuit = parse_netlist(
                name,
                netlist,
                *format,
                &shared.env.library,
                &Default::default(),
            )
            .map_err(|e| (error_status(&e), format!("circuit `{name}`: {e}")))?;
            jobs.push(BatchJob::from_circuit(name.clone(), circuit));
        }
        Ok(jobs)
    }));
    let jobs = match parsed {
        Ok(Ok(jobs)) => jobs,
        Ok(Err((status, msg))) => return reject(out, status, &msg),
        Err(payload) => return reject(out, 500, &panic_message(payload.as_ref())),
    };
    let (budget, pool_threads) = clamp(&knobs, &shared.config);
    let dummy = OptimizeRequest {
        name: "template".to_string(),
        netlist: String::new(),
        format: tr_flow::NetlistFormat::Trnet,
        scenario: tr_flow::ScenarioSpec::a(1),
        headroom: false,
        knobs,
    };
    // Cells are single-threaded; the request's `threads` sizes the pool
    // (still capped by the server), exactly as `tr-opt batch` does.
    let runner = BatchRunner::new(request_flow(&dummy, budget, 1)).threads(pool_threads);

    // From here the response streams: one JSONL report per finished
    // (circuit, scenario) cell, close-delimited.
    http::write_streaming_head(out, "application/x-ndjson")?;
    let mut sink_err: Option<io::Error> = None;
    runner.run(&shared.env, &jobs, &scenarios, |res| {
        if sink_err.is_some() {
            return; // peer is gone; let the grid finish quietly
        }
        let line = match &res.outcome {
            Ok(report) => report.to_json(),
            Err(e) => format!(
                "{{\"job\": {}, \"scenario\": {}, \"error\": {}, \"kind\": \"cell\"}}",
                json_string(&res.job),
                json_string(&res.scenario),
                json_string(&e.to_string())
            ),
        };
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            sink_err = Some(e);
        }
    });
    match sink_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
