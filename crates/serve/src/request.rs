//! Typed request bodies for the JSON endpoints.
//!
//! Parsing is strict: unknown fields are usage errors (HTTP 400), and
//! the artifact-sink fields the CLI accepts (`out`, `vcd`, `trace`,
//! `write_netlist`) are rejected with a dedicated message — a daemon
//! writing per-request files on its own filesystem mirrors the
//! `BatchRunner` template rejection, where every cell would clobber
//! the same path.

use tr_flow::{
    parse_prob_mode, DelayBound, Error, NetlistFormat, OrderHeuristic, PropagationMode,
    ScenarioSpec,
};
use tr_reorder::Objective;
use tr_trace::json::{parse, Json};

use crate::cache::content_key;

/// Fields that would make the server write files for a remote caller.
const ARTIFACT_FIELDS: &[&str] = &["out", "vcd", "trace", "write_netlist"];

/// The knobs shared by `/optimize`, `/analyze` and (per grid) `/batch`.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Probability backend (with partition/Monte knobs resolved).
    pub prob: PropagationMode,
    /// `{:?}`-canonical spelling of `prob` including its knob values —
    /// the cache-key part (two partition geometries must not alias).
    pub prob_label: String,
    /// Initial BDD variable-order heuristic.
    pub order: OrderHeuristic,
    /// Optimization objective.
    pub objective: Objective,
    /// Delay constraint mode.
    pub delay_bound: DelayBound,
    /// Iterate optimize ↔ re-propagate to a fixed point.
    pub fixpoint: bool,
    /// Requested optimizer threads (clamped by the server).
    pub threads: usize,
    /// Walk the degradation ladder instead of failing on a blown budget.
    pub degrade: bool,
    /// Requested wall-clock budget (clamped by the server).
    pub deadline_ms: Option<u64>,
    /// Requested BDD live-node budget (clamped by the server).
    pub node_budget: Option<usize>,
}

/// A parsed `POST /optimize` (or `/analyze`) body.
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// Report label for the circuit.
    pub name: String,
    /// The netlist text.
    pub netlist: String,
    /// How to parse it.
    pub format: NetlistFormat,
    /// Input-statistics scenario (+ seed).
    pub scenario: ScenarioSpec,
    /// Also optimize for the opposite objective (Table 3 headroom).
    pub headroom: bool,
    /// Shared knobs.
    pub knobs: Knobs,
}

impl OptimizeRequest {
    /// The content-addressed warm-cache key: a hash of everything that
    /// shapes the staged artifacts (parsed circuit → compiled circuit →
    /// BDDs with their settled variable order). That is the netlist
    /// bytes, their format, the library/process fingerprint, the
    /// scenario label (which encodes kind *and* seed — input statistics
    /// feed the propagator, and the info-measure order is
    /// statistics-dependent), the backend with its knobs, and the order
    /// heuristic. Objective, threads, budgets and headroom are
    /// deliberately excluded: they shape the optimization pass, not the
    /// cached artifacts.
    pub fn cache_key(&self, library_fingerprint: &str) -> u128 {
        content_key(&[
            self.netlist.as_bytes(),
            format_str(self.format).as_bytes(),
            library_fingerprint.as_bytes(),
            self.scenario.label.as_bytes(),
            self.knobs.prob_label.as_bytes(),
            self.knobs.order.as_str().as_bytes(),
        ])
    }
}

/// A parsed `POST /batch` body: a grid of circuits × scenarios.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// (name, netlist text, format) per circuit.
    pub circuits: Vec<(String, String, NetlistFormat)>,
    /// The scenario matrix.
    pub scenarios: Vec<ScenarioSpec>,
    /// Shared knobs (threads here size the worker pool; cells are
    /// single-threaded, as in `BatchRunner`).
    pub knobs: Knobs,
}

/// The canonical spelling of a format (also accepted on the wire).
pub fn format_str(format: NetlistFormat) -> &'static str {
    match format {
        NetlistFormat::Bench => "bench",
        NetlistFormat::Blif => "blif",
        NetlistFormat::Trnet => "trnet",
    }
}

fn parse_format(s: &str) -> Result<NetlistFormat, Error> {
    match s {
        "bench" => Ok(NetlistFormat::Bench),
        "blif" => Ok(NetlistFormat::Blif),
        "trnet" => Ok(NetlistFormat::Trnet),
        other => Err(Error::Usage(format!(
            "bad `format` `{other}` (expected bench, blif or trnet)"
        ))),
    }
}

fn usage(msg: impl Into<String>) -> Error {
    Error::Usage(msg.into())
}

fn want_str(v: &Json, field: &str) -> Result<String, Error> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| usage(format!("`{field}` must be a string")))
}

fn want_bool(v: &Json, field: &str) -> Result<bool, Error> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(usage(format!("`{field}` must be true or false"))),
    }
}

fn want_u64(v: &Json, field: &str) -> Result<u64, Error> {
    v.as_u64()
        .ok_or_else(|| usage(format!("`{field}` must be a non-negative integer")))
}

/// Checks one object's keys against a whitelist, with the artifact
/// fields singled out for the dedicated rejection message.
fn check_keys(members: &[(String, Json)], allowed: &[&str], context: &str) -> Result<(), Error> {
    for (key, _) in members {
        if ARTIFACT_FIELDS.contains(&key.as_str()) {
            return Err(usage(format!(
                "the server cannot write per-request artifacts: remove `{key}` \
                 (run the CLI locally for --out/--vcd/--trace output)"
            )));
        }
        if !allowed.contains(&key.as_str()) {
            return Err(usage(format!("unknown {context} field `{key}`")));
        }
    }
    Ok(())
}

const KNOB_FIELDS: &[&str] = &[
    "prob",
    "seed",
    "region_nodes",
    "cut_width",
    "order",
    "objective",
    "delay_bound",
    "fixpoint",
    "threads",
    "degrade",
    "deadline_ms",
    "node_budget",
];

fn parse_knobs(obj: &Json) -> Result<Knobs, Error> {
    let seed = match obj.get("seed") {
        Some(v) => want_u64(v, "seed")?,
        None => 1,
    };
    let mut prob = match obj.get("prob") {
        Some(v) => parse_prob_mode(&want_str(v, "prob")?, seed)?,
        None => PropagationMode::Independent,
    };
    let region_nodes = match obj.get("region_nodes") {
        Some(v) => Some(want_u64(v, "region_nodes")? as usize),
        None => None,
    };
    let cut_width = match obj.get("cut_width") {
        Some(v) => Some(want_u64(v, "cut_width")? as usize),
        None => None,
    };
    if region_nodes.is_some() || cut_width.is_some() {
        match &mut prob {
            PropagationMode::PartitionedBdd {
                max_region_nodes,
                max_cut_width,
            } => {
                if let Some(n) = region_nodes {
                    *max_region_nodes = n;
                }
                if let Some(w) = cut_width {
                    *max_cut_width = w;
                }
            }
            _ => {
                return Err(usage(
                    "`region_nodes`/`cut_width` require `\"prob\": \"part\"`",
                ))
            }
        }
    }
    let order = match obj.get("order") {
        Some(v) => OrderHeuristic::parse(&want_str(v, "order")?)?,
        None => OrderHeuristic::Structural,
    };
    let objective = match obj.get("objective").map(|v| want_str(v, "objective")) {
        Some(Ok(s)) if s == "min" => Objective::MinimizePower,
        Some(Ok(s)) if s == "max" => Objective::MaximizePower,
        Some(Ok(s)) => return Err(usage(format!("bad `objective` `{s}` (want min|max)"))),
        Some(Err(e)) => return Err(e),
        None => Objective::MinimizePower,
    };
    let delay_bound = match obj.get("delay_bound") {
        Some(v) => DelayBound::parse(&want_str(v, "delay_bound")?)?,
        None => DelayBound::Unbounded,
    };
    let fixpoint = match obj.get("fixpoint") {
        Some(v) => want_bool(v, "fixpoint")?,
        None => false,
    };
    let threads = match obj.get("threads") {
        Some(v) => {
            let t = want_u64(v, "threads")? as usize;
            if t == 0 {
                return Err(usage("`threads` must be at least 1"));
            }
            t
        }
        None => 1,
    };
    let degrade = match obj.get("degrade") {
        Some(v) => want_bool(v, "degrade")?,
        None => true,
    };
    let deadline_ms = match obj.get("deadline_ms") {
        Some(v) => Some(want_u64(v, "deadline_ms")?),
        None => None,
    };
    let node_budget = match obj.get("node_budget") {
        Some(v) => {
            let n = want_u64(v, "node_budget")? as usize;
            if n == 0 {
                return Err(usage("`node_budget` must be at least 1"));
            }
            Some(n)
        }
        None => None,
    };
    Ok(Knobs {
        prob_label: format!("{prob:?}"),
        prob,
        order,
        objective,
        delay_bound,
        fixpoint,
        threads,
        degrade,
        deadline_ms,
        node_budget,
    })
}

fn parse_body(body: &str) -> Result<Json, Error> {
    let json = parse(body).map_err(|e| usage(format!("bad JSON body: {e}")))?;
    match &json {
        Json::Obj(_) => Ok(json),
        _ => Err(usage("request body must be a JSON object")),
    }
}

/// Parses a `POST /optimize` / `POST /analyze` body.
pub fn parse_optimize(body: &str) -> Result<OptimizeRequest, Error> {
    let json = parse_body(body)?;
    let Json::Obj(members) = &json else {
        unreachable!()
    };
    let mut allowed = vec!["name", "netlist", "format", "scenario", "headroom"];
    allowed.extend_from_slice(KNOB_FIELDS);
    check_keys(members, &allowed, "request")?;

    let netlist = match json.get("netlist") {
        Some(v) => want_str(v, "netlist")?,
        None => return Err(usage("missing required field `netlist`")),
    };
    let name = match json.get("name") {
        Some(v) => want_str(v, "name")?,
        None => "request".to_string(),
    };
    let format = match json.get("format") {
        Some(v) => parse_format(&want_str(v, "format")?)?,
        None => NetlistFormat::Bench,
    };
    let scenario = match json.get("scenario") {
        Some(v) => ScenarioSpec::parse(&want_str(v, "scenario")?)?,
        None => ScenarioSpec::a(1),
    };
    let headroom = match json.get("headroom") {
        Some(v) => want_bool(v, "headroom")?,
        None => false,
    };
    Ok(OptimizeRequest {
        name,
        netlist,
        format,
        scenario,
        headroom,
        knobs: parse_knobs(&json)?,
    })
}

/// Parses a `POST /batch` body.
pub fn parse_batch(body: &str) -> Result<BatchRequest, Error> {
    let json = parse_body(body)?;
    let Json::Obj(members) = &json else {
        unreachable!()
    };
    let mut allowed = vec!["circuits", "scenarios"];
    allowed.extend_from_slice(KNOB_FIELDS);
    check_keys(members, &allowed, "request")?;

    let circuits_json = json
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or_else(|| usage("missing required array field `circuits`"))?;
    if circuits_json.is_empty() {
        return Err(usage("`circuits` must not be empty"));
    }
    let mut circuits = Vec::with_capacity(circuits_json.len());
    for (i, c) in circuits_json.iter().enumerate() {
        let Json::Obj(members) = c else {
            return Err(usage(format!("`circuits[{i}]` must be an object")));
        };
        check_keys(members, &["name", "netlist", "format"], "circuit")?;
        let netlist = match c.get("netlist") {
            Some(v) => want_str(v, "netlist")?,
            None => return Err(usage(format!("`circuits[{i}]` missing `netlist`"))),
        };
        let name = match c.get("name") {
            Some(v) => want_str(v, "name")?,
            None => format!("circuit-{i}"),
        };
        let format = match c.get("format") {
            Some(v) => parse_format(&want_str(v, "format")?)?,
            None => NetlistFormat::Bench,
        };
        circuits.push((name, netlist, format));
    }
    let scenarios = match json.get("scenarios") {
        Some(v) => ScenarioSpec::parse_matrix(&want_str(v, "scenarios")?)?,
        None => ScenarioSpec::default_matrix(),
    };
    Ok(BatchRequest {
        circuits,
        scenarios,
        knobs: parse_knobs(&json)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_optimize_request_defaults() {
        let req = parse_optimize(r#"{"netlist": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}"#).unwrap();
        assert_eq!(req.name, "request");
        assert_eq!(req.format, NetlistFormat::Bench);
        assert_eq!(req.scenario.label, "A#1");
        assert_eq!(req.knobs.prob, PropagationMode::Independent);
        assert_eq!(req.knobs.threads, 1);
        assert!(req.knobs.degrade);
    }

    #[test]
    fn artifact_fields_are_rejected_with_the_dedicated_message() {
        for field in ["out", "vcd", "trace"] {
            let body = format!(r#"{{"netlist": "x", "{field}": "/tmp/file"}}"#);
            let err = parse_optimize(&body).unwrap_err();
            assert!(matches!(err, Error::Usage(_)), "{field}: {err}");
            assert!(
                err.to_string().contains("per-request artifacts"),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = parse_optimize(r#"{"netlist": "x", "probb": "bdd"}"#).unwrap_err();
        assert!(err.to_string().contains("probb"), "{err}");
    }

    #[test]
    fn partition_knobs_require_part() {
        let err = parse_optimize(r#"{"netlist": "x", "prob": "bdd", "cut_width": 8}"#).unwrap_err();
        assert!(matches!(err, Error::Usage(_)));
        let ok = parse_optimize(r#"{"netlist": "x", "prob": "part", "cut_width": 8}"#).unwrap();
        assert!(matches!(
            ok.knobs.prob,
            PropagationMode::PartitionedBdd {
                max_cut_width: 8,
                ..
            }
        ));
    }

    #[test]
    fn batch_rejects_artifacts_in_nested_circuits() {
        let body = r#"{"circuits": [{"netlist": "x", "vcd": "w.vcd"}]}"#;
        let err = parse_batch(body).unwrap_err();
        assert!(err.to_string().contains("per-request artifacts"), "{err}");
    }

    #[test]
    fn cache_key_separates_every_artifact_shaping_axis() {
        let base = parse_optimize(r#"{"netlist": "N", "prob": "bdd"}"#).unwrap();
        let variants = [
            r#"{"netlist": "M", "prob": "bdd"}"#, // netlist bytes
            r#"{"netlist": "N", "prob": "bdd", "format": "trnet"}"#, // format
            r#"{"netlist": "N", "prob": "bdd", "scenario": "a:2"}"#, // scenario seed
            r#"{"netlist": "N", "prob": "bdd", "scenario": "b:2e7"}"#, // scenario kind
            r#"{"netlist": "N", "prob": "part"}"#, // backend
            r#"{"netlist": "N", "prob": "part", "cut_width": 3}"#, // backend knob
            r#"{"netlist": "N", "prob": "bdd", "order": "info"}"#, // order heuristic
        ];
        for body in variants {
            let other = parse_optimize(body).unwrap();
            assert_ne!(
                base.cache_key("lib"),
                other.cache_key("lib"),
                "aliased: {body}"
            );
        }
        // And the axes that must NOT shape the key: objective, threads,
        // budgets, headroom only change the optimization pass.
        let same = parse_optimize(
            r#"{"netlist": "N", "prob": "bdd", "objective": "max", "threads": 4,
                "deadline_ms": 50, "node_budget": 1000, "headroom": true}"#,
        )
        .unwrap();
        assert_eq!(base.cache_key("lib"), same.cache_key("lib"));
        assert_ne!(base.cache_key("lib"), base.cache_key("other-lib"));
    }
}
