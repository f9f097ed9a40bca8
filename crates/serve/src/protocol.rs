//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Ops:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"predict","id":7,"input":[[0,3],[1],[]]}` | `{"ok":true,"op":"predict","id":7,"prediction":2,"logits":[...],"model_version":3}` |
//! | `{"op":"stats"}` | `{"ok":true,"op":"stats","model":{...},"serving":{...}}` |
//! | `{"op":"metrics"}` | `{"ok":true,"op":"metrics","format":"prometheus-text-0.0.4","exposition":"..."}` |
//! | `{"op":"swap","path":"ckpt.bin"}` | `{"ok":true,"op":"swap","model_version":4}` |
//! | `{"op":"ping"}` | `{"ok":true,"op":"pong","model_version":3}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"op":"shutdown"}` |
//! | `{"op":"health","router":"127.0.0.1:7100"}` | `{"ok":true,"op":"health","model_version":3,"role":"follower",...}` |
//! | `{"op":"delta","base_version":3}` | `{"ok":true,"op":"delta","version":4,"payload":"<hex>"}` |
//! | `{"op":"apply_delta","payload":"<hex>"}` | `{"ok":true,"op":"apply_delta","model_version":4}` |
//! | `{"op":"checkpoint"}` | `{"ok":true,"op":"checkpoint","version":4,"payload":"<hex>"}` |
//! | `{"op":"apply_checkpoint","payload":"<hex>"}` | `{"ok":true,"op":"apply_checkpoint","model_version":4}` |
//! | `{"op":"promote","epoch":2}` | `{"ok":true,"op":"promote","epoch":2,"model_version":4}` |
//! | `{"op":"demote","epoch":2}` | `{"ok":true,"op":"demote","epoch":2,"model_version":4}` |
//! | `{"op":"join","addr":"127.0.0.1:7101"}` | `{"ok":true,"op":"join","id":3}` (router only) |
//! | `{"op":"leave","id":3}` | `{"ok":true,"op":"leave","id":3}` (router only) |
//! | `{"op":"members"}` | `{"ok":true,"op":"members","members":[...]}` (router only) |
//! | `{"op":"published","version":4,"epoch":2}` | `{"ok":true,"op":"published","version":4}` (router only) |
//! | `{"op":"traces","min_duration_us":0,"limit":8}` | `{"ok":true,"op":"traces","stitched":false,"traces":[...]}` |
//!
//! Any request may carry an optional `"trace"` field —
//! `{"trace":{"id":"<32 hex>","parent":"<16 hex>"}}` — propagating a
//! distributed-trace context; peers that predate tracing ignore it.
//! The `traces` op returns recent tail-sampled traces: local fragments
//! from a replica (`"stitched":false`), fleet-stitched trees from the
//! router (`"stitched":true`).
//! `input` is the spike raster as one array per timestep listing the
//! active input-neuron indices at that step. Failures answer
//! `{"ok":false,"error":"...","id":...}` and keep the connection open;
//! only `shutdown` (or client EOF) closes it. A `delta` refused for want
//! of a retained delta also names the learner's `published_version`.
//!
//! The replication ops (`health`, `delta`, `apply_delta`, `checkpoint`,
//! `apply_checkpoint`, `promote`, `demote`) are answered only by
//! replicas started with a [`crate::sync::ReplicaSync`] handler; a
//! plain `ncl-serve` process declines them with a replication error.
//! The membership ops (`join`, `leave`, `members`) and the learner's
//! `published` nudge are answered by the router alone — a replica
//! parses them but declines, so a misdirected join fails loudly instead
//! of half-registering. The router's `health` probe names its own
//! listen address in the optional `router` field; a replica remembers
//! the last one and, once promoted, sends that router a `published`
//! nudge after every delta it publishes, so the router's sync pass runs
//! at once instead of on its next tick. The apply ops and the nudge
//! optionally carry the fleet `epoch` that stamps them (role changes
//! must); a replica or router fenced at a newer epoch refuses the stale
//! message, and an `epoch` that is present but not an unsigned integer
//! is an invalid request, never an unfenced write. Binary payloads
//! travel as lowercase hex — bulky, but dependency-free and line-safe.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ncl_obs::trace::{self, TraceContext, TraceFragment, TraceSpanRecord};
use ncl_spike::SpikeRaster;
use serde_json::Value;

use crate::error::ServeError;

/// Upper bound on request timesteps — a hostile request must not make
/// the worker allocate unbounded rasters.
const MAX_REQUEST_STEPS: usize = 4096;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run inference on one raster.
    Predict {
        /// Client-chosen id, echoed in the response.
        id: Option<u64>,
        /// The input spike raster.
        raster: SpikeRaster,
        /// Distributed-trace context propagated by the caller (the
        /// optional `"trace"` wire field; old peers never send it).
        trace: Option<TraceContext>,
    },
    /// Fetch serving statistics.
    Stats,
    /// Scrape the full metric registry as Prometheus-style text.
    Metrics,
    /// Hot-swap the serving model from a checkpoint file.
    Swap {
        /// Checkpoint path on the server's filesystem.
        path: String,
    },
    /// Liveness probe.
    Ping,
    /// Drain and stop the server.
    Shutdown,
    /// Replication probe: version, role and sync state.
    Health {
        /// The probing router's listen address — where a promoted
        /// replica sends its `published` nudges (`None` for probes from
        /// anything but a router).
        router: Option<SocketAddr>,
    },
    /// Fetch the delta advancing a replica at `base_version`.
    DeltaFetch {
        /// The requesting replica's current version.
        base_version: u64,
    },
    /// Apply an encoded checkpoint delta (learner → follower push, or
    /// router-relayed).
    DeltaApply {
        /// The `ncl_online::delta` encoding.
        payload: Vec<u8>,
        /// The fleet epoch stamping this write (`None` = unfenced).
        epoch: Option<u64>,
    },
    /// Fetch the full checkpoint (delta fallback path).
    CheckpointFetch,
    /// Apply an encoded full checkpoint.
    CheckpointApply {
        /// The `ncl_online::checkpoint` encoding.
        payload: Vec<u8>,
        /// The fleet epoch stamping this write (`None` = unfenced).
        epoch: Option<u64>,
    },
    /// Promote this replica to the fleet's learner at `epoch`.
    Promote {
        /// The new fleet epoch the promotion establishes.
        epoch: u64,
    },
    /// Demote this replica to a follower under `epoch` (split-brain
    /// fencing: a returning old learner steps down).
    Demote {
        /// The fleet epoch forcing the demotion.
        epoch: u64,
    },
    /// Register a replica with the router (router-only op).
    Join {
        /// The joining replica's serve address, e.g. `127.0.0.1:7101`.
        addr: String,
    },
    /// Deregister a replica from the router (router-only op).
    Leave {
        /// The backend id the router assigned at join.
        id: u64,
    },
    /// List the router's current backends (router-only op).
    Members,
    /// The learner published `version`: run a sync pass now instead of
    /// on the next tick (router-only op).
    Published {
        /// The version the learner just published.
        version: u64,
        /// The fleet epoch the learner holds (`None` = unfenced).
        epoch: Option<u64>,
    },
    /// Fetch recent tail-sampled traces (stitched fleet-wide when the
    /// router answers, local fragments when a replica does).
    Traces {
        /// Only traces at least this slow (µs); 0 = all.
        min_duration_us: u64,
        /// At most this many traces, newest/slowest first.
        limit: usize,
    },
}

/// Default `limit` for the `traces` op when the request omits it.
pub const DEFAULT_TRACES_LIMIT: usize = 32;

/// Renders bytes as lowercase hex (the wire form of binary payloads —
/// no base64 dependency in the tree).
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xF)]));
    }
    out
}

/// Decodes the hex produced by [`to_hex`] (case-insensitive).
///
/// # Errors
///
/// Returns [`ServeError::InvalidRequest`] for odd lengths or non-hex
/// characters.
pub fn from_hex(hex: &str) -> Result<Vec<u8>, ServeError> {
    if !hex.len().is_multiple_of(2) {
        return Err(invalid(format!("odd hex length {}", hex.len())));
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    let nibble = |c: u8| -> Result<u8, ServeError> {
        (c as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| invalid(format!("non-hex character {:?}", c as char)))
    };
    let mut digits = hex.bytes();
    while let (Some(hi), Some(lo)) = (digits.next(), digits.next()) {
        out.push((nibble(hi)? << 4) | nibble(lo)?);
    }
    Ok(out)
}

fn invalid(detail: impl Into<String>) -> ServeError {
    ServeError::InvalidRequest {
        detail: detail.into(),
    }
}

/// Parses one request line against the serving model's input width.
///
/// # Errors
///
/// Returns [`ServeError::InvalidRequest`] describing the first problem
/// (bad JSON, unknown op, missing fields, out-of-range spike indices,
/// too many timesteps).
pub fn parse_request(line: &str, input_size: usize) -> Result<Request, ServeError> {
    let value = serde_json::from_str(line).map_err(|e| invalid(format!("bad JSON: {e}")))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid("missing \"op\" field"))?;
    match op {
        "predict" => {
            let id = value.get("id").and_then(Value::as_u64);
            let steps = value
                .get("input")
                .and_then(Value::as_array)
                .ok_or_else(|| invalid("predict needs \"input\": [[neuron indices] per step]"))?;
            if steps.is_empty() {
                return Err(invalid("input must have at least one timestep"));
            }
            if steps.len() > MAX_REQUEST_STEPS {
                return Err(invalid(format!(
                    "input has {} timesteps (limit {MAX_REQUEST_STEPS})",
                    steps.len()
                )));
            }
            let mut raster = SpikeRaster::new(input_size, steps.len());
            for (t, step) in steps.iter().enumerate() {
                let active = step
                    .as_array()
                    .ok_or_else(|| invalid(format!("step {t} is not an array")))?;
                for idx in active {
                    let n = idx
                        .as_u64()
                        .ok_or_else(|| invalid(format!("step {t} holds a non-integer index")))?
                        as usize;
                    if n >= input_size {
                        return Err(invalid(format!(
                            "neuron index {n} at step {t} outside 0..{input_size}"
                        )));
                    }
                    raster.set(n, t, true);
                }
            }
            Ok(Request::Predict {
                id,
                raster,
                trace: parse_trace(&value)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "swap" => {
            let path = value
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("swap needs \"path\""))?;
            Ok(Request::Swap {
                path: path.to_owned(),
            })
        }
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "health" => {
            let router = match value.get("router") {
                None => None,
                Some(field) => Some(
                    field
                        .as_str()
                        .and_then(|addr| addr.parse::<SocketAddr>().ok())
                        .ok_or_else(|| {
                            invalid(format!("health \"router\" {field} is not a socket address"))
                        })?,
                ),
            };
            Ok(Request::Health { router })
        }
        "delta" => {
            let base_version = value
                .get("base_version")
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid("delta needs \"base_version\""))?;
            Ok(Request::DeltaFetch { base_version })
        }
        "apply_delta" => Ok(Request::DeltaApply {
            payload: payload_field(&value, "apply_delta")?,
            epoch: fence_field(&value, "apply_delta")?,
        }),
        "checkpoint" => Ok(Request::CheckpointFetch),
        "apply_checkpoint" => Ok(Request::CheckpointApply {
            payload: payload_field(&value, "apply_checkpoint")?,
            epoch: fence_field(&value, "apply_checkpoint")?,
        }),
        "promote" => Ok(Request::Promote {
            epoch: epoch_field(&value, "promote")?,
        }),
        "demote" => Ok(Request::Demote {
            epoch: epoch_field(&value, "demote")?,
        }),
        "join" => {
            let addr = value
                .get("addr")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("join needs \"addr\""))?;
            Ok(Request::Join {
                addr: addr.to_owned(),
            })
        }
        "leave" => {
            let id = value
                .get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid("leave needs \"id\""))?;
            Ok(Request::Leave { id })
        }
        "members" => Ok(Request::Members),
        "published" => {
            let (version, epoch) = parse_published(&value)?;
            Ok(Request::Published { version, epoch })
        }
        "traces" => {
            let min_duration_us = value.get("min_duration_us").and_then(Value::as_u64);
            let limit = value
                .get("limit")
                .and_then(Value::as_u64)
                .map_or(DEFAULT_TRACES_LIMIT, |l| l as usize);
            Ok(Request::Traces {
                min_duration_us: min_duration_us.unwrap_or(0),
                limit,
            })
        }
        other => Err(invalid(format!("unknown op {other:?}"))),
    }
}

/// Extracts the optional `"trace"` field of a request:
/// `{"trace":{"id":"<32 hex>","parent":"<16 hex>"}}` (`parent` itself
/// optional). A missing field is `Ok(None)`; a malformed one is an
/// error — a peer that *tries* to propagate context must not fail
/// silently into broken traces.
///
/// # Errors
///
/// Returns [`ServeError::InvalidRequest`] when the field is present but
/// not an object, or its ids do not parse as fixed-width hex.
pub fn parse_trace(value: &Value) -> Result<Option<TraceContext>, ServeError> {
    let Some(field) = value.get("trace") else {
        return Ok(None);
    };
    let id = field
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid("trace needs \"id\" (32 hex digits)"))?;
    let trace_id = trace::parse_trace_id(id)
        .ok_or_else(|| invalid(format!("bad trace id {id:?} (want 32 hex digits)")))?;
    let parent = match field.get("parent") {
        None => None,
        Some(parent) => {
            let hex = parent
                .as_str()
                .ok_or_else(|| invalid("trace \"parent\" must be a string"))?;
            Some(trace::parse_span_id(hex).ok_or_else(|| {
                invalid(format!("bad parent span id {hex:?} (want 16 hex digits)"))
            })?)
        }
    };
    Ok(Some(TraceContext { trace_id, parent }))
}

/// The wire form of a trace context (the `"trace"` field value).
#[must_use]
fn trace_value(ctx: &TraceContext) -> Value {
    let mut pairs = vec![("id", Value::from(trace::trace_id_hex(ctx.trace_id)))];
    if let Some(parent) = ctx.parent {
        pairs.push(("parent", Value::from(trace::span_id_hex(parent))));
    }
    object(pairs)
}

/// Re-stamps a request line with `ctx` as its `"trace"` field — the
/// propagation helper every hop that forwards a request downstream
/// while holding a live span must use (the `trace-propagation` lint
/// rule checks for it). Non-object lines pass through unchanged.
#[must_use]
pub fn traced_line(line: &str, ctx: &TraceContext) -> String {
    match serde_json::from_str(line) {
        Ok(Value::Object(mut map)) => {
            map.insert("trace".to_owned(), trace_value(ctx));
            Value::Object(map).to_json()
        }
        _ => line.to_owned(),
    }
}

/// Extracts and hex-decodes the `payload` field of an apply op.
fn payload_field(value: &Value, op: &str) -> Result<Vec<u8>, ServeError> {
    let hex = value
        .get("payload")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid(format!("{op} needs \"payload\" (hex)")))?;
    from_hex(hex)
}

/// Decodes the `version` and optional `epoch` stamp of a `published`
/// nudge (the router calls this on the line it has already parsed).
///
/// # Errors
///
/// Returns [`ServeError::InvalidRequest`] for a missing or non-integer
/// `version`, or an `epoch` that is present but not a u64.
pub fn parse_published(value: &Value) -> Result<(u64, Option<u64>), ServeError> {
    let version = value
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid("published needs \"version\""))?;
    Ok((version, fence_field(value, "published")?))
}

/// Extracts the optional `epoch` stamp of an apply op or nudge: absent
/// means unfenced, but a stamp that is present and not an unsigned
/// integer is refused — read as `None` it would turn a malformed stamp
/// into an unfenced write.
fn fence_field(value: &Value, op: &str) -> Result<Option<u64>, ServeError> {
    match value.get("epoch") {
        None => Ok(None),
        Some(epoch) => epoch
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("{op} \"epoch\" {epoch} is not an unsigned integer"))),
    }
}

/// Extracts the mandatory `epoch` field of a role-change op.
fn epoch_field(value: &Value, op: &str) -> Result<u64, ServeError> {
    value
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid(format!("{op} needs \"epoch\"")))
}

/// Builds a JSON object from key/value pairs (insertion into the sorted
/// map, so rendering is deterministic).
#[must_use]
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Renders a predict request line (the client side; `ncl-loadgen` and the
/// integration tests use this).
#[must_use]
pub fn predict_request_line(id: u64, raster: &SpikeRaster) -> String {
    let steps: Value = (0..raster.steps())
        .map(|t| raster.active_at(t).map(Value::from).collect::<Value>())
        .collect();
    object(vec![
        ("op", Value::from("predict")),
        ("id", Value::from(id)),
        ("input", steps),
    ])
    .to_json()
}

/// Renders a predict request line carrying a trace context (the
/// tracing-enabled client side: `ncl-loadgen --trace` and
/// [`crate::client::NclClient::predict_traced`]).
#[must_use]
pub fn predict_request_line_traced(id: u64, raster: &SpikeRaster, ctx: &TraceContext) -> String {
    traced_line(&predict_request_line(id, raster), ctx)
}

/// Renders a successful predict response line.
#[must_use]
pub fn predict_response(
    id: Option<u64>,
    prediction: usize,
    logits: &[f32],
    model_version: u64,
) -> String {
    let mut pairs = vec![
        ("ok", Value::from(true)),
        ("op", Value::from("predict")),
        ("prediction", Value::from(prediction)),
        ("logits", logits.iter().copied().collect::<Value>()),
        ("model_version", Value::from(model_version)),
    ];
    if let Some(id) = id {
        pairs.push(("id", Value::from(id)));
    }
    object(pairs).to_json()
}

/// Renders the `metrics` op response around a rendered text
/// exposition (shared by the serve and router front ends).
#[must_use]
pub fn metrics_response(exposition: &str) -> String {
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("metrics")),
        ("format", Value::from("prometheus-text-0.0.4")),
        ("exposition", Value::from(exposition)),
    ])
    .to_json()
}

/// The wire form of one recorded span.
fn span_value(span: &TraceSpanRecord) -> Value {
    let mut pairs = vec![
        ("id", Value::from(trace::span_id_hex(span.span_id))),
        ("stage", Value::from(span.stage.as_str())),
        ("start_us", Value::from(span.start_us)),
        ("duration_us", Value::from(span.duration_us)),
    ];
    if let Some(parent) = span.parent {
        pairs.push(("parent", Value::from(trace::span_id_hex(parent))));
    }
    if !span.links.is_empty() {
        pairs.push((
            "links",
            span.links
                .iter()
                .map(|l| Value::from(trace::span_id_hex(*l)))
                .collect::<Value>(),
        ));
    }
    object(pairs)
}

/// Renders the `traces` op response for one node's local fragments
/// (newest first, as [`ncl_obs::Tracer::recent`] returns them).
#[must_use]
pub fn traces_response(fragments: &[TraceFragment]) -> String {
    let traces: Value = fragments
        .iter()
        .map(|fragment| {
            object(vec![
                ("id", Value::from(trace::trace_id_hex(fragment.trace_id))),
                ("root_duration_us", Value::from(fragment.root_duration_us())),
                (
                    "spans",
                    fragment.spans.iter().map(span_value).collect::<Value>(),
                ),
            ])
        })
        .collect();
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("traces")),
        ("stitched", Value::from(false)),
        ("traces", traces),
    ])
    .to_json()
}

/// Renders the router's `traces` response: fleet-stitched trees,
/// slowest first, each span tagged with the node that recorded it.
#[must_use]
pub fn stitched_traces_response(traces: &[ncl_obs::StitchedTrace]) -> String {
    let rendered: Value = traces
        .iter()
        .map(|trace| {
            let spans: Value = trace
                .spans
                .iter()
                .map(|span| {
                    let mut pairs = vec![
                        ("id", Value::from(trace::span_id_hex(span.span_id))),
                        ("node", Value::from(span.node.as_str())),
                        ("stage", Value::from(span.stage.as_str())),
                        ("start_us", Value::from(span.start_us)),
                        ("duration_us", Value::from(span.duration_us)),
                        ("depth", Value::from(span.depth)),
                    ];
                    if let Some(parent) = span.parent {
                        pairs.push(("parent", Value::from(trace::span_id_hex(parent))));
                    }
                    if !span.links.is_empty() {
                        pairs.push((
                            "links",
                            span.links
                                .iter()
                                .map(|l| Value::from(trace::span_id_hex(*l)))
                                .collect::<Value>(),
                        ));
                    }
                    object(pairs)
                })
                .collect();
            object(vec![
                ("id", Value::from(trace::trace_id_hex(trace.trace_id))),
                ("root", Value::from(trace::span_id_hex(trace.root))),
                ("duration_us", Value::from(trace.duration_us)),
                ("orphan_spans", Value::from(trace.orphan_spans)),
                ("spans", spans),
            ])
        })
        .collect();
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("traces")),
        ("stitched", Value::from(true)),
        ("traces", rendered),
    ])
    .to_json()
}

/// Parses a node's [`traces_response`] back into fragments (the router
/// does this when assembling the fleet view). Lenient: malformed spans
/// or traces are skipped rather than failing the whole assembly — one
/// replica's bad reply must not hide every other node's fragments.
#[must_use]
pub fn parse_traces_response(value: &Value) -> Vec<TraceFragment> {
    let Some(traces) = value.get("traces").and_then(Value::as_array) else {
        return Vec::new();
    };
    traces
        .iter()
        .filter_map(|entry| {
            let trace_id = trace::parse_trace_id(entry.get("id").and_then(Value::as_str)?)?;
            let spans = entry
                .get("spans")
                .and_then(Value::as_array)?
                .iter()
                .filter_map(|span| parse_span(trace_id, span))
                .collect::<Vec<_>>();
            if spans.is_empty() {
                return None;
            }
            Some(TraceFragment { trace_id, spans })
        })
        .collect()
}

fn parse_span(trace_id: u128, span: &Value) -> Option<TraceSpanRecord> {
    let span_id = trace::parse_span_id(span.get("id").and_then(Value::as_str)?)?;
    let parent = match span.get("parent") {
        None => None,
        Some(parent) => Some(trace::parse_span_id(parent.as_str()?)?),
    };
    let links = span
        .get("links")
        .and_then(Value::as_array)
        .map(|links| {
            links
                .iter()
                .filter_map(|l| trace::parse_span_id(l.as_str()?))
                .collect()
        })
        .unwrap_or_default();
    Some(TraceSpanRecord {
        trace_id,
        span_id,
        parent,
        stage: span.get("stage").and_then(Value::as_str)?.to_owned(),
        start_us: span.get("start_us").and_then(Value::as_u64)?,
        duration_us: span.get("duration_us").and_then(Value::as_u64)?,
        links,
    })
}

/// Renders an error response line. A delta refusal also carries the
/// learner's `published_version`.
#[must_use]
pub fn error_response(id: Option<u64>, error: &ServeError) -> String {
    let mut pairs = vec![
        ("ok", Value::from(false)),
        ("error", Value::from(error.to_string())),
    ];
    if let ServeError::NoRetainedDelta { published, .. } = error {
        pairs.push(("published_version", Value::from(*published)));
    }
    if let Some(id) = id {
        pairs.push(("id", Value::from(id)));
    }
    object(pairs).to_json()
}

/// Upper bound on a buffered line, request or reply — a peer that streams
/// newline-free bytes must not grow memory without limit. Large enough
/// for a maximal predict request (4096 steps of indices).
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Bytes requested per socket read: a paper-shape predict line (~9 KB)
/// usually arrives in one read.
const READ_CHUNK: usize = 16 * 1024;

/// NDJSON framing over a byte stream: buffers what the socket returns
/// and hands out complete lines, for the server and the client alike.
///
/// Framing is done on raw bytes (split at `\n`, then validate UTF-8 per
/// line) rather than `read_line`: a read timeout mid-line keeps every
/// already-consumed byte buffered — `read_line` would discard a partial
/// multi-byte UTF-8 character at the split point and corrupt the stream.
/// Each byte is scanned for `\n` once, however many reads a line spans.
#[derive(Debug, Default)]
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// `buf[start..scanned]` is known to hold no `\n`.
    scanned: usize,
}

impl LineReader {
    /// Reads once from `source` into the buffer, first dropping the lines
    /// already returned. Returns the byte count (0 at EOF).
    ///
    /// # Errors
    ///
    /// Returns the read error (timeouts included) with the buffer intact,
    /// or `InvalidData`, without reading, once a line exceeds 64 MiB.
    pub(crate) fn fill(&mut self, source: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.scanned > MAX_LINE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "line exceeds the 64 MiB size limit",
            ));
        }
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = source.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |n| *n));
        read
    }

    /// The next complete buffered line, without its `\n`.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let (start, end) = (self.start, self.scanned + offset);
                self.start = end + 1;
                self.scanned = self.start;
                Some(&self.buf[start..end])
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }
}

/// Sends `line` and its terminating `\n` in one write, so a
/// `TCP_NODELAY` socket puts them in one segment.
///
/// # Errors
///
/// Returns the socket's write error.
pub(crate) fn write_line(sink: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    sink.write_all(&framed)?;
    sink.flush()
}

/// The accept loop `Server` and the router share: a socket on
/// 127.0.0.1 that serves each connection on its own thread.
#[derive(Debug)]
pub struct Listener {
    socket: TcpListener,
    stop: Arc<StopSignal>,
}

impl Listener {
    /// Binds 127.0.0.1:`port` (0 picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(port: u16) -> std::io::Result<Listener> {
        let socket = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = socket.local_addr()?;
        let raised = AtomicBool::new(false);
        let stop = Arc::new(StopSignal { raised, addr });
        Ok(Listener { socket, stop })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// The signal that stops this listener.
    #[must_use]
    pub fn stop_signal(&self) -> Arc<StopSignal> {
        Arc::clone(&self.stop)
    }

    /// Starts the accept loop on a `{name}-accept` thread. Each
    /// connection's `{name}-conn` thread answers every non-blank request
    /// line (trimmed) with `handle`'s response line, and closes after a
    /// response flagged `true`. Once stopped, the loop joins every
    /// connection thread and exits; join the returned handle to wait.
    ///
    /// # Errors
    ///
    /// Returns the thread-spawn error.
    pub fn serve<H>(self, name: &str, handle: H) -> std::io::Result<JoinHandle<()>>
    where
        H: Fn(&str) -> (String, bool) + Send + Sync + 'static,
    {
        let handle = Arc::new(handle);
        let conn_name = format!("{name}-conn");
        std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let mut connections: Vec<JoinHandle<()>> = Vec::new();
                for stream in self.socket.incoming() {
                    if self.stop.is_raised() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let (stop, handle) = (Arc::clone(&self.stop), Arc::clone(&handle));
                    let conn = std::thread::Builder::new().name(conn_name.clone());
                    if let Ok(conn) = conn.spawn(move || {
                        let _ = serve_connection(stream, &stop.raised, |line| handle(line));
                    }) {
                        connections.push(conn);
                    }
                    // Reap finished connections so a long-lived listener
                    // does not accumulate handles.
                    connections.retain(|c| !c.is_finished());
                }
                for conn in connections {
                    let _ = conn.join();
                }
            })
    }
}

/// Stops a [`Listener`]: its accept loop exits, and each connection
/// closes within its 100 ms read timeout even if the client is quiet.
#[derive(Debug)]
pub struct StopSignal {
    raised: AtomicBool,
    addr: SocketAddr,
}

impl StopSignal {
    /// Raises the signal. The first call wakes the accept loop, blocked
    /// in `accept`, with a throwaway connection to the listener.
    pub fn raise(&self) {
        if !self.raised.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether the signal has been raised.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }
}

/// Serves one NDJSON connection: each non-blank request line (trimmed)
/// goes to `handle`, whose response line is written back. Returns at
/// client EOF, after a response whose handler flagged a stop, or when
/// `stopping` is raised (observed within the 100 ms read timeout, even
/// if the client goes quiet without closing).
///
/// # Errors
///
/// Returns socket errors, and `InvalidData` for a request line over
/// 64 MiB.
fn serve_connection(
    stream: TcpStream,
    stopping: &AtomicBool,
    mut handle: impl FnMut(&str) -> (String, bool),
) -> std::io::Result<()> {
    // TCP_NODELAY keeps one-line responses from stalling behind Nagle +
    // delayed ACK (~40 ms per round trip otherwise).
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut read_half = stream.try_clone()?;
    let mut writer = stream;
    let mut lines = LineReader::default();
    loop {
        match lines.fill(&mut read_half) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                while let Some(line) = lines.next_line() {
                    let line = String::from_utf8_lossy(line);
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let (response, stop) = handle(trimmed);
                    write_line(&mut writer, &response)?;
                    if stop {
                        return Ok(());
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stopping.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_predict_and_round_trips_raster() {
        let mut raster = SpikeRaster::new(5, 3);
        raster.set(0, 0, true);
        raster.set(3, 0, true);
        raster.set(1, 2, true);
        let line = predict_request_line(9, &raster);
        match parse_request(&line, 5).unwrap() {
            Request::Predict {
                id,
                raster: parsed,
                trace,
            } => {
                assert_eq!(id, Some(9));
                assert_eq!(parsed, raster);
                assert_eq!(trace, None);
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn predict_trace_context_round_trips() {
        let raster = {
            let mut r = SpikeRaster::new(4, 1);
            r.set(2, 0, true);
            r
        };
        let ctx = TraceContext {
            trace_id: 0x00ff_0000_0000_0000_0000_0000_0000_00aau128,
            parent: Some(0x1234),
        };
        let line = predict_request_line_traced(3, &raster, &ctx);
        match parse_request(&line, 4).unwrap() {
            Request::Predict { trace, .. } => assert_eq!(trace, Some(ctx)),
            other => panic!("expected predict, got {other:?}"),
        }
        // Root context: no parent field on the wire.
        let root = TraceContext {
            trace_id: 7,
            parent: None,
        };
        let line = predict_request_line_traced(3, &raster, &root);
        assert!(!line.contains("parent"));
        match parse_request(&line, 4).unwrap() {
            Request::Predict { trace, .. } => assert_eq!(trace, Some(root)),
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn malformed_trace_contexts_are_rejected_not_ignored() {
        for line in [
            r#"{"op":"predict","input":[[1]],"trace":5}"#,
            r#"{"op":"predict","input":[[1]],"trace":{}}"#,
            r#"{"op":"predict","input":[[1]],"trace":{"id":"xyz"}}"#,
            r#"{"op":"predict","input":[[1]],"trace":{"id":"00000000000000000000000000000007","parent":"zz"}}"#,
        ] {
            assert!(
                matches!(
                    parse_request(line, 4),
                    Err(ServeError::InvalidRequest { .. })
                ),
                "{line} should be rejected"
            );
        }
    }

    #[test]
    fn parses_traces_op_with_defaults() {
        assert_eq!(
            parse_request(r#"{"op":"traces"}"#, 4).unwrap(),
            Request::Traces {
                min_duration_us: 0,
                limit: DEFAULT_TRACES_LIMIT
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"traces","min_duration_us":500,"limit":3}"#, 4).unwrap(),
            Request::Traces {
                min_duration_us: 500,
                limit: 3
            }
        );
    }

    #[test]
    fn traces_response_round_trips_fragments() {
        let fragment = TraceFragment {
            trace_id: 0xabcd,
            spans: vec![
                TraceSpanRecord {
                    trace_id: 0xabcd,
                    span_id: 2,
                    parent: Some(1),
                    stage: "queue_wait".to_owned(),
                    start_us: 10,
                    duration_us: 40,
                    links: vec![5, 6],
                },
                TraceSpanRecord {
                    trace_id: 0xabcd,
                    span_id: 1,
                    parent: None,
                    stage: "accept".to_owned(),
                    start_us: 5,
                    duration_us: 90,
                    links: Vec::new(),
                },
            ],
        };
        let line = traces_response(std::slice::from_ref(&fragment));
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("stitched").and_then(Value::as_bool), Some(false));
        let parsed = parse_traces_response(&value);
        assert_eq!(parsed, vec![fragment]);
    }

    #[test]
    fn traced_line_is_idempotent_and_preserves_other_fields() {
        let ctx = TraceContext {
            trace_id: 3,
            parent: Some(9),
        };
        let once = traced_line(r#"{"op":"predict","id":4,"input":[[0]]}"#, &ctx);
        let newer = TraceContext {
            trace_id: 3,
            parent: Some(10),
        };
        let twice = traced_line(&once, &newer);
        let value = serde_json::from_str(&twice).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(4));
        assert_eq!(
            value
                .get("trace")
                .and_then(|t| t.get("parent"))
                .and_then(Value::as_str),
            Some("000000000000000a"),
            "re-stamping replaces the context rather than nesting it"
        );
        assert_eq!(traced_line("not json", &ctx), "not json");
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#, 4).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#, 4).unwrap(),
            Request::Metrics
        );
        assert_eq!(parse_request(r#"{"op":"ping"}"#, 4).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#, 4).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"swap","path":"m.bin"}"#, 4).unwrap(),
            Request::Swap {
                path: "m.bin".into()
            }
        );
    }

    #[test]
    fn parses_replication_ops() {
        assert_eq!(
            parse_request(r#"{"op":"health"}"#, 4).unwrap(),
            Request::Health { router: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"health","router":"127.0.0.1:7100"}"#, 4).unwrap(),
            Request::Health {
                router: Some("127.0.0.1:7100".parse().unwrap())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"delta","base_version":3}"#, 4).unwrap(),
            Request::DeltaFetch { base_version: 3 }
        );
        assert_eq!(
            parse_request(r#"{"op":"apply_delta","payload":"00ffA5"}"#, 4).unwrap(),
            Request::DeltaApply {
                payload: vec![0x00, 0xFF, 0xA5],
                epoch: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"apply_delta","payload":"00","epoch":3}"#, 4).unwrap(),
            Request::DeltaApply {
                payload: vec![0x00],
                epoch: Some(3)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"checkpoint"}"#, 4).unwrap(),
            Request::CheckpointFetch
        );
        assert_eq!(
            parse_request(r#"{"op":"apply_checkpoint","payload":""}"#, 4).unwrap(),
            Request::CheckpointApply {
                payload: vec![],
                epoch: None
            }
        );
    }

    #[test]
    fn parses_membership_and_role_ops() {
        assert_eq!(
            parse_request(r#"{"op":"join","addr":"127.0.0.1:7101"}"#, 4).unwrap(),
            Request::Join {
                addr: "127.0.0.1:7101".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"leave","id":3}"#, 4).unwrap(),
            Request::Leave { id: 3 }
        );
        assert_eq!(
            parse_request(r#"{"op":"members"}"#, 4).unwrap(),
            Request::Members
        );
        assert_eq!(
            parse_request(r#"{"op":"promote","epoch":2}"#, 4).unwrap(),
            Request::Promote { epoch: 2 }
        );
        assert_eq!(
            parse_request(r#"{"op":"demote","epoch":5}"#, 4).unwrap(),
            Request::Demote { epoch: 5 }
        );
        assert_eq!(
            parse_request(r#"{"op":"published","version":4,"epoch":2}"#, 4).unwrap(),
            Request::Published {
                version: 4,
                epoch: Some(2)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"published","version":4}"#, 4).unwrap(),
            Request::Published {
                version: 4,
                epoch: None
            }
        );
        for line in [
            r#"{"op":"join"}"#,
            r#"{"op":"leave"}"#,
            r#"{"op":"promote"}"#,
            r#"{"op":"demote"}"#,
            r#"{"op":"published"}"#,
            r#"{"op":"published","version":"4"}"#,
        ] {
            assert!(
                matches!(
                    parse_request(line, 4),
                    Err(ServeError::InvalidRequest { .. })
                ),
                "{line} should be rejected"
            );
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&[0xDE, 0xAD]), "dead");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
        assert!(from_hex("0x").is_err(), "non-hex digit");
    }

    #[test]
    fn rejects_malformed_requests() {
        let cases = [
            "not json",
            r#"{"id":1}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"predict"}"#,
            r#"{"op":"predict","input":[]}"#,
            r#"{"op":"predict","input":[3]}"#,
            r#"{"op":"predict","input":[["x"]]}"#,
            r#"{"op":"predict","input":[[7]]}"#,
            r#"{"op":"swap"}"#,
            r#"{"op":"delta"}"#,
            r#"{"op":"apply_delta"}"#,
            r#"{"op":"apply_delta","payload":"xyz"}"#,
            r#"{"op":"apply_checkpoint","payload":5}"#,
            // A fence stamp that is present must be a u64: read as
            // absent it would let the write through unfenced.
            r#"{"op":"apply_delta","payload":"00","epoch":"3"}"#,
            r#"{"op":"apply_delta","payload":"00","epoch":-1}"#,
            r#"{"op":"apply_checkpoint","payload":"00","epoch":1.5}"#,
            r#"{"op":"apply_checkpoint","payload":"00","epoch":null}"#,
            r#"{"op":"published","version":4,"epoch":"2"}"#,
            r#"{"op":"health","router":"not-an-address"}"#,
            r#"{"op":"health","router":7100}"#,
        ];
        for line in cases {
            assert!(
                matches!(
                    parse_request(line, 4),
                    Err(ServeError::InvalidRequest { .. })
                ),
                "{line} should be rejected"
            );
        }
    }

    #[test]
    fn caps_request_steps() {
        let huge = format!(
            r#"{{"op":"predict","input":[{}]}}"#,
            vec!["[]"; MAX_REQUEST_STEPS + 1].join(",")
        );
        assert!(parse_request(&huge, 4).is_err());
    }

    #[test]
    fn responses_are_single_parseable_lines() {
        let ok = predict_response(Some(3), 1, &[0.5, -1.25], 7);
        assert!(!ok.contains('\n'));
        let parsed = serde_json::from_str(&ok).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("prediction").and_then(Value::as_u64), Some(1));
        assert_eq!(parsed.get("model_version").and_then(Value::as_u64), Some(7));
        assert_eq!(parsed.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(
            parsed.get("logits").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );

        let err = error_response(None, &ServeError::ShuttingDown);
        let parsed = serde_json::from_str(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert!(parsed
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("shutting down"));
    }

    #[test]
    fn rendered_lines_are_pinned_byte_for_byte() {
        let raster = SpikeRaster::from_fn(700, 3, |n, t| n % 233 == t || n == 699);
        assert_eq!(
            predict_request_line((1 << 53) - 1, &raster),
            "{\"id\":9007199254740991,\"input\":[[0,233,466,699],[1,234,467,699],[2,235,468,699]],\"op\":\"predict\"}"
        );
        let logits = [0.1f32, -0.0, 3.0, -2.5e-8, 1e30, f32::NAN];
        assert_eq!(
            predict_response(Some(0), 19, &logits, 12),
            "{\"id\":0,\"logits\":[0.10000000149011612,-0,3,-0.000000025000000292152436,\
             1000000015047466200000000000000,null],\"model_version\":12,\"ok\":true,\
             \"op\":\"predict\",\"prediction\":19}"
        );
    }

    /// Hands out a byte stream in fixed pieces, one per `read`.
    struct Pieces(Vec<Vec<u8>>);

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let piece = self.0.remove(0);
            out[..piece.len()].copy_from_slice(&piece);
            Ok(piece.len())
        }
    }

    #[test]
    fn line_reader_frames_across_and_within_reads() {
        let euro = "€".as_bytes();
        let mut source = Pieces(vec![
            b"{\"a\":1}\n{\"b\"".to_vec(),
            [b":\"".as_slice(), &euro[..1]].concat(),
            [&euro[1..], b"\"}\n\n[1]\n[2".as_slice()].concat(),
        ]);
        let mut reader = LineReader::default();
        let mut lines = Vec::new();
        while reader.fill(&mut source).unwrap() > 0 {
            while let Some(line) = reader.next_line() {
                lines.push(String::from_utf8(line.to_vec()).unwrap());
            }
        }
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":\"€\"}", "", "[1]"]);
        assert_eq!(
            &reader.buf[reader.start..],
            b"[2",
            "the unterminated line stays buffered"
        );
    }

    #[test]
    fn write_line_sends_line_and_newline_in_one_write() {
        /// Records the size of every `write` call.
        #[derive(Default)]
        struct Writes(Vec<usize>, Vec<u8>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Writes::default();
        write_line(&mut sink, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(sink.0, [14]);
        assert_eq!(sink.1, b"{\"op\":\"ping\"}\n");
    }
}
