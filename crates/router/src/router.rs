//! The router front end: one address, N replicas behind it.
//!
//! Clients speak the ordinary serving protocol. `predict` is relayed to
//! a replica chosen by the dispatch policy, with failover: a transport
//! failure marks the replica unhealthy and retries the remaining
//! healthy ones, so killing a replica mid-load costs zero requests
//! (predicts are stateless and idempotent). A protocol-level error from
//! a replica is *not* retried — that is the fleet's answer. `stats`
//! merges a replica's model block with router-level counters and the
//! per-replica table; `health` reports the fleet; `swap` is refused
//! (models change by replication, not by client pushes); `published`
//! is the learner's nudge that wakes the sync loop (see [`crate::sync`]).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use ncl_obs::{exposition, Counter, Gauge, NodeFragment, Registry as ObsRegistry, TraceContext};
use ncl_serve::error::ServeError;
use ncl_serve::protocol::{self, error_response, object, Listener, StopSignal};
use serde_json::Value;

use crate::backend::Backend;
use crate::faults::{FaultAction, FaultPlan};
use crate::membership::Membership;
use crate::sync::{sync_once, SyncStats};

/// How `predict` picks a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// The healthy replica with the fewest in-flight relays (ties go to
    /// the lowest id). Best latency under mixed load.
    #[default]
    LeastLoaded,
    /// Rendezvous (highest-random-weight) hash of the request `id`, so
    /// a given id sticks to a replica while the fleet is stable. Falls
    /// back to least-loaded for id-less requests.
    ConsistentHash,
}

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Predict dispatch policy.
    pub policy: DispatchPolicy,
    /// Period of the sync loop's clock tick: the health-probe and
    /// failover clock, and the fallback propagation pass when a
    /// learner's `published` nudge is lost. Propagation itself does not
    /// wait for it — each nudge runs a pass at once.
    pub sync_interval: Duration,
    /// Consecutive sync ticks without a reachable current-epoch learner
    /// before the router promotes the most caught-up healthy follower.
    pub failover_ticks: u32,
    /// Round-trip cap given to backends created by later `join` ops
    /// (the initial fleet's backends keep whatever they were built
    /// with).
    pub backend_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 0,
            policy: DispatchPolicy::LeastLoaded,
            sync_interval: Duration::from_millis(150),
            failover_ticks: 5,
            backend_timeout: Backend::DEFAULT_TIMEOUT,
        }
    }
}

pub(crate) struct RouterShared {
    pub(crate) membership: Membership,
    pub(crate) policy: DispatchPolicy,
    pub(crate) stop: Arc<StopSignal>,
    pub(crate) addr: SocketAddr,
    pub(crate) requests_ok: Arc<Counter>,
    pub(crate) requests_failed: Arc<Counter>,
    pub(crate) failovers: Arc<Counter>,
    pub(crate) promotions: Arc<Counter>,
    pub(crate) demotions: Arc<Counter>,
    /// Highest fleet epoch observed or minted; mirrored on the
    /// `router_epoch` gauge.
    pub(crate) epoch: AtomicU64,
    pub(crate) epoch_gauge: Arc<Gauge>,
    pub(crate) failover_ticks: u32,
    /// Consecutive sync ticks without a current-epoch learner.
    pub(crate) learner_down_ticks: AtomicU32,
    pub(crate) sync: SyncStats,
    pub(crate) obs: Arc<ObsRegistry>,
    /// Applied to `published` nudges on receipt (the chaos harness's
    /// way to drop or delay them).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Held for the whole of every sync pass, so passes never overlap.
    pub(crate) sync_pass: Mutex<()>,
    /// Set by a nudge (or shutdown), cleared when the sync loop wakes.
    wake: Mutex<bool>,
    wake_signal: Condvar,
}

/// A running router.
pub struct Router {
    shared: Arc<RouterShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    sync_thread: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds 127.0.0.1 and starts fronting `backends`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(backends: Vec<Arc<Backend>>, config: RouterConfig) -> std::io::Result<Router> {
        Router::start_with_faults(backends, config, None)
    }

    /// [`Router::start`] with a fault plan threaded under every backend
    /// round trip — the entry point of the deterministic chaos harness
    /// (see [`crate::faults`]). Backends added later by `join` inherit
    /// the plan.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start_with_faults(
        backends: Vec<Arc<Backend>>,
        config: RouterConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Router> {
        let listener = Listener::bind(config.port)?;
        let addr = listener.local_addr();
        let obs = Arc::new(ObsRegistry::new());
        // Same seeding rule as the replicas: port-derived, so the
        // router's span ids never collide with a replica's when
        // fragments are stitched.
        obs.tracer().set_seed(u64::from(addr.port()));
        let sync = SyncStats::default();
        sync.register_into(&obs);
        for backend in &backends {
            if let Some(plan) = &faults {
                backend.arm_faults(Arc::clone(plan));
            }
            backend.announce_router(addr);
            backend.register_into(&obs);
        }
        let membership = Membership::new(backends, config.backend_timeout, faults.clone());
        membership.register_into(&obs);
        let shared = Arc::new(RouterShared {
            membership,
            policy: config.policy,
            stop: listener.stop_signal(),
            addr,
            requests_ok: obs.counter(
                "router_requests_ok_total",
                "Client requests the router answered.",
            ),
            requests_failed: obs.counter(
                "router_requests_failed_total",
                "Client requests the router could not answer.",
            ),
            failovers: obs.counter(
                "router_failovers_total",
                "Transport failures while relaying predicts (each fails over to the next \
                 candidate while one remains).",
            ),
            promotions: obs.counter(
                "router_promotions_total",
                "Followers the router promoted to learner after a learner outage.",
            ),
            demotions: obs.counter(
                "router_demotions_total",
                "Learners the router demoted to follower (returning deposed learners and \
                 duplicate claims).",
            ),
            epoch: AtomicU64::new(0),
            epoch_gauge: obs.gauge(
                "router_epoch",
                "The fleet epoch: bumped on every promotion; writes stamped with an older \
                 epoch are fenced off by replicas.",
            ),
            failover_ticks: config.failover_ticks.max(1),
            learner_down_ticks: AtomicU32::new(0),
            sync,
            obs,
            faults,
            sync_pass: Mutex::new(()),
            wake: Mutex::new(false),
            wake_signal: Condvar::new(),
        });
        // Probe the fleet once before accepting, so the first client
        // request already sees health/role/version state.
        sync_once(&shared, true);
        let conn_shared = Arc::clone(&shared);
        let accept_thread =
            listener.serve("ncl-router", move |line| handle_line(line, &conn_shared))?;
        let sync_shared = Arc::clone(&shared);
        let interval = config.sync_interval;
        let sync_thread = std::thread::Builder::new()
            .name("ncl-router-sync".into())
            .spawn(move || loop {
                // One wait per pass: a nudge, the tick or shutdown ends
                // it, whichever comes first.
                let pending = sync_shared
                    .wake
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let (mut pending, _) = sync_shared
                    .wake_signal
                    .wait_timeout_while(pending, interval, |woken| !*woken)
                    .unwrap_or_else(PoisonError::into_inner);
                let nudged = std::mem::take(&mut *pending);
                drop(pending);
                if sync_shared.stop.is_raised() {
                    break;
                }
                sync_once(&sync_shared, !nudged);
            })?;
        Ok(Router {
            shared,
            accept_thread: Some(accept_thread),
            sync_thread: Some(sync_thread),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the live fleet, for inspection (membership can
    /// change under a running router; the snapshot cannot).
    #[must_use]
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.shared.membership.snapshot()
    }

    /// The fleet epoch the router currently enforces.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Followers promoted to learner by the failover logic so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.shared.promotions.get()
    }

    /// Learners demoted to follower by the split-brain fence so far.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.shared.demotions.get()
    }

    /// Replication-loop counters.
    #[must_use]
    pub fn sync_stats(&self) -> &SyncStats {
        &self.shared.sync
    }

    /// The router's own metric registry (dispatch, failover and
    /// sync-loop series; the `metrics` op merges replica scrapes in).
    #[must_use]
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.obs
    }

    /// Runs one health-probe + delta-propagation pass right now, as a
    /// tick (the background loop keeps running; the two take turns).
    pub fn sync_now(&self) {
        sync_once(&self.shared, true);
    }

    /// Blocks until the router stops (a client sent `shutdown`, or
    /// another thread called [`Router::shutdown`]).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sync_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting and joins every thread. Replicas stay up.
    pub fn shutdown(self) {
        request_stop(&self.shared);
        self.wait();
    }
}

fn request_stop(shared: &RouterShared) {
    shared.stop.raise();
    wake_sync(shared);
}

/// Ends the sync loop's current wait: it runs a pass (or, when
/// stopping, exits) at once.
fn wake_sync(shared: &RouterShared) {
    *shared.wake.lock().unwrap_or_else(PoisonError::into_inner) = true;
    shared.wake_signal.notify_one();
}

fn handle_line(line: &str, shared: &RouterShared) -> (String, bool) {
    let parsed: Result<Value, _> = serde_json::from_str(line);
    let Ok(request) = parsed else {
        shared.requests_failed.inc();
        let e = ServeError::InvalidRequest {
            detail: "bad JSON".into(),
        };
        return (error_response(None, &e), false);
    };
    let op = request.get("op").and_then(Value::as_str).unwrap_or("");
    let response = match op {
        "predict" => relay_predict(line, &request, shared),
        "stats" => stats_response(shared),
        "health" => health_response(shared),
        "metrics" => metrics_response(shared),
        "traces" => traces_response(&request, shared),
        "join" => join_response(&request, shared),
        "leave" => leave_response(&request, shared),
        "members" => members_response(shared),
        "published" => published_response(&request, shared),
        // Bootstrap/catch-up fetches from joining replicas: relayed to
        // the current learner, so a cold follower needs to know one
        // address (the router's), not the fleet topology.
        "checkpoint" | "delta" => relay_to_learner(op, line, shared),
        "ping" => object(vec![
            ("ok", Value::from(true)),
            ("op", Value::from("pong")),
            ("router", Value::from(true)),
        ])
        .to_json(),
        "shutdown" => {
            request_stop(shared);
            object(vec![
                ("ok", Value::from(true)),
                ("op", Value::from("shutdown")),
            ])
            .to_json()
        }
        "swap" => error_response(
            None,
            &ServeError::InvalidRequest {
                detail: "the router does not swap models; the fleet replicates the learner's \
                         increments"
                    .into(),
            },
        ),
        other => error_response(
            None,
            &ServeError::InvalidRequest {
                detail: format!("unknown router op {other:?}"),
            },
        ),
    };
    (response, shared.stop.is_raised())
}

/// FNV-1a over the request id + replica id: the rendezvous-hash weight.
fn rendezvous_weight(id: u64, backend_id: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in id
        .to_le_bytes()
        .iter()
        .chain(&(backend_id as u64).to_le_bytes())
    {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Healthy replicas in dispatch-preference order for this request.
///
/// Least-loaded dispatch prefers the highest reported model version
/// first: during a promotion or a catch-up window the fleet briefly
/// serves mixed versions, and version preference keeps the client's
/// observed `model_version` monotonic. In steady state every replica
/// reports the same version and the order degenerates to pure
/// least-loaded.
fn dispatch_order(shared: &RouterShared, request: &Value) -> Vec<Arc<Backend>> {
    let mut healthy: Vec<Arc<Backend>> = shared
        .membership
        .snapshot()
        .into_iter()
        .filter(|b| b.is_healthy())
        .collect();
    let key = request.get("id").and_then(Value::as_u64);
    match (shared.policy, key) {
        (DispatchPolicy::ConsistentHash, Some(id)) => {
            healthy.sort_by_key(|b| std::cmp::Reverse(rendezvous_weight(id, b.id)));
        }
        _ => {
            healthy.sort_by_key(|b| (std::cmp::Reverse(b.model_version()), b.inflight(), b.id));
        }
    }
    healthy
}

/// Extracts `"model_version":N` from a reply line without a full JSON
/// parse — the dispatch hot path only needs this one number.
fn version_of(line: &str) -> Option<u64> {
    const KEY: &str = "\"model_version\":";
    let rest = line[line.find(KEY)? + KEY.len()..].trim_start();
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// Relays a predict line, failing over across healthy replicas on
/// transport errors only.
///
/// A request carrying a trace context gets a `route` span covering the
/// whole relay (with the client's context as parent — for a loadgen-
/// originated trace that makes `route` the trace root) and one
/// `dispatch` child per attempt; the relayed line is re-stamped with
/// the dispatch span's context so the replica's `accept` span parents
/// under it. A failed attempt re-labels its span `failover`.
fn relay_predict(line: &str, request: &Value, shared: &RouterShared) -> String {
    let id = request.get("id").and_then(Value::as_u64);
    let trace: Option<TraceContext> = match protocol::parse_trace(request) {
        Ok(trace) => trace,
        Err(e) => {
            shared.requests_failed.inc();
            return error_response(id, &e);
        }
    };
    let route = trace
        .as_ref()
        .map(|ctx| shared.obs.tracer().start_span(ctx, "route"));
    let order = dispatch_order(shared, request);
    if order.is_empty() {
        shared.requests_failed.inc();
        return error_response(
            id,
            &ServeError::Replication {
                detail: "no healthy replica".into(),
            },
        );
    }
    for backend in &order {
        let dispatch = route
            .as_ref()
            .map(|route| shared.obs.tracer().start_span(&route.context(), "dispatch"));
        let relayed = match &dispatch {
            Some(span) => protocol::traced_line(line, &span.context()),
            None => line.to_owned(),
        };
        match backend.request(&relayed) {
            Ok(response) => {
                // Fold the reply's model_version into the backend's
                // cache *before* the client sees the reply: the
                // client's next request then dispatches against a
                // cache that already knows this version, so version-
                // preferring order keeps its observations monotonic
                // even inside the probe interval.
                if let Some(version) = version_of(&response) {
                    backend.observe_version(version);
                }
                shared.requests_ok.inc();
                return response;
            }
            Err(_) => {
                // backend.request already marked it unhealthy; try the
                // next replica — the predict never reached a model.
                if let Some(mut span) = dispatch {
                    span.set_stage("failover");
                }
                shared.failovers.inc();
            }
        }
    }
    shared.requests_failed.inc();
    error_response(
        id,
        &ServeError::Replication {
            detail: format!("all {} dispatch candidates failed", order.len()),
        },
    )
}

/// Adds `addr` to the live fleet (idempotent per address) and probes it
/// immediately so it can enter dispatch without waiting a sync tick.
fn join_response(request: &Value, shared: &RouterShared) -> String {
    let Some(addr) = request.get("addr").and_then(Value::as_str) else {
        shared.requests_failed.inc();
        return error_response(
            None,
            &ServeError::InvalidRequest {
                detail: "join needs an \"addr\" string".into(),
            },
        );
    };
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        shared.requests_failed.inc();
        return error_response(
            None,
            &ServeError::InvalidRequest {
                detail: format!("join addr {addr:?} is not a socket address"),
            },
        );
    };
    let (backend, fresh) = shared.membership.join(addr, &shared.obs);
    backend.announce_router(shared.addr);
    backend.probe_health();
    shared.requests_ok.inc();
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("join")),
        ("id", Value::from(backend.id as u64)),
        ("addr", Value::from(addr.to_string())),
        ("healthy", Value::from(backend.is_healthy())),
        ("already_member", Value::from(!fresh)),
        ("epoch", Value::from(shared.epoch.load(Ordering::Acquire))),
    ])
    .to_json()
}

/// Removes backend `id` from the live fleet.
fn leave_response(request: &Value, shared: &RouterShared) -> String {
    let Some(id) = request.get("id").and_then(Value::as_u64) else {
        shared.requests_failed.inc();
        return error_response(
            None,
            &ServeError::InvalidRequest {
                detail: "leave needs a numeric \"id\"".into(),
            },
        );
    };
    match shared.membership.leave(id as usize) {
        Some(removed) => {
            shared.requests_ok.inc();
            object(vec![
                ("ok", Value::from(true)),
                ("op", Value::from("leave")),
                ("id", Value::from(id)),
                ("addr", Value::from(removed.addr.to_string())),
            ])
            .to_json()
        }
        None => {
            shared.requests_failed.inc();
            error_response(
                None,
                &ServeError::InvalidRequest {
                    detail: format!("no backend with id {id}"),
                },
            )
        }
    }
}

/// The learner's `published` nudge: wakes the sync loop unless the
/// nudge carries an epoch the fleet has moved past (a deposed learner
/// still publishing). The fault plan applies on receipt, attributed to
/// the newest-epoch learner, so chaos tests can drop or delay nudges
/// (and a partitioned learner's nudges are lost with the rest of its
/// traffic).
fn published_response(request: &Value, shared: &RouterShared) -> String {
    let (version, epoch) = match protocol::parse_published(request) {
        Ok(fields) => fields,
        Err(e) => {
            shared.requests_failed.inc();
            return error_response(None, &e);
        }
    };
    if let Some(plan) = &shared.faults {
        let source = shared
            .membership
            .snapshot()
            .iter()
            .filter(|b| b.role() == "learner")
            .max_by_key(|b| (b.epoch(), std::cmp::Reverse(b.id)))
            .map_or(usize::MAX, |b| b.id);
        match plan.decide(source, "published") {
            None => {}
            Some(FaultAction::Delay(wait)) => std::thread::sleep(wait),
            Some(_) => {
                return error_response(
                    None,
                    &ServeError::Replication {
                        detail: "fault injection: dropped the publish nudge".into(),
                    },
                )
            }
        }
    }
    let fleet_epoch = shared.epoch.load(Ordering::Acquire);
    if let Some(stamped) = epoch.filter(|&e| e < fleet_epoch) {
        shared.sync.nudges_fenced.inc();
        return error_response(
            None,
            &ServeError::Replication {
                detail: format!(
                    "nudge fenced: stamped epoch {stamped} is behind fleet epoch {fleet_epoch}"
                ),
            },
        );
    }
    shared.sync.nudges_woke.inc();
    wake_sync(shared);
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("published")),
        ("version", Value::from(version)),
    ])
    .to_json()
}

/// The live fleet as status rows, plus the epoch clients should expect
/// on fenced ops.
fn members_response(shared: &RouterShared) -> String {
    shared.requests_ok.inc();
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("members")),
        ("epoch", Value::from(shared.epoch.load(Ordering::Acquire))),
        ("members", replicas_table(shared)),
    ])
    .to_json()
}

/// Relays a replication fetch (`checkpoint`/`delta`) to the current
/// healthy learner — the path a cold or lagging replica uses to
/// bootstrap through the router.
fn relay_to_learner(op: &str, line: &str, shared: &RouterShared) -> String {
    let backends = shared.membership.snapshot();
    let learner = backends
        .iter()
        .filter(|b| b.is_healthy() && b.role() == "learner")
        .min_by_key(|b| b.id);
    let Some(learner) = learner else {
        shared.requests_failed.inc();
        return error_response(
            None,
            &ServeError::Replication {
                detail: format!("no healthy learner to answer {op}"),
            },
        );
    };
    match learner.request(line) {
        Ok(response) => {
            shared.requests_ok.inc();
            response
        }
        Err(e) => {
            shared.requests_failed.inc();
            error_response(
                None,
                &ServeError::Replication {
                    detail: format!("the learner did not answer {op}: {e}"),
                },
            )
        }
    }
}

fn replicas_table(shared: &RouterShared) -> Value {
    shared
        .membership
        .snapshot()
        .iter()
        .map(|b| b.status())
        .collect()
}

fn stats_response(shared: &RouterShared) -> String {
    // Fan the stats probe out to every replica. The model block comes
    // from the first replica that answers (the fleet converges on the
    // learner's model, so any one is representative); a replica that
    // fails the probe still gets a row, marked unreachable with the
    // transport error — silence would read as "healthy, zero traffic".
    let mut model = Value::Null;
    let mut replicas: Vec<Value> = Vec::new();
    for backend in &shared.membership.snapshot() {
        let probe = backend.request(r#"{"op":"stats"}"#);
        let mut status = backend.status();
        match probe {
            Ok(response) => {
                if model.is_null() {
                    if let Ok(value) = serde_json::from_str(&response) {
                        if let Some(m) = value.get("model") {
                            model = m.clone();
                        }
                    }
                }
            }
            Err(e) => {
                if let Value::Object(ref mut row) = status {
                    row.insert("unreachable".to_owned(), Value::from(true));
                    row.insert("error".to_owned(), Value::from(e.to_string()));
                }
            }
        }
        replicas.push(status);
    }
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("stats")),
        ("model", model),
        (
            "serving",
            object(vec![
                ("requests_ok", Value::from(shared.requests_ok.get())),
                ("requests_failed", Value::from(shared.requests_failed.get())),
                ("failovers", Value::from(shared.failovers.get())),
                ("promotions", Value::from(shared.promotions.get())),
                ("demotions", Value::from(shared.demotions.get())),
                ("epoch", Value::from(shared.epoch.load(Ordering::Acquire))),
                ("joins", Value::from(shared.membership.joins())),
                ("leaves", Value::from(shared.membership.leaves())),
                ("routed", Value::from(true)),
            ]),
        ),
        ("replicas", Value::Array(replicas)),
        ("sync", shared.sync.snapshot()),
    ])
    .to_json()
}

/// The router's `metrics` op: its own registry (dispatch, failover,
/// sync-loop, per-backend counters) merged with every replica's
/// scraped exposition, each relabeled with `replica="<id>"`. A
/// `router_replica_up` gauge per replica records scrape reachability,
/// so an unreachable replica shows up as a 0 instead of vanishing.
fn metrics_response(shared: &RouterShared) -> String {
    let mut replica_sections: Vec<String> = Vec::new();
    for backend in &shared.membership.snapshot() {
        let scraped = backend
            .request(r#"{"op":"metrics"}"#)
            .ok()
            .and_then(|response| serde_json::from_str(&response).ok())
            .and_then(|value| {
                value
                    .get("exposition")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
            });
        let up = scraped.is_some();
        if let Some(text) = scraped {
            replica_sections.push(exposition::relabel(
                &text,
                "replica",
                &backend.id.to_string(),
            ));
        }
        shared
            .obs
            .gauge_with(
                "router_replica_up",
                &[("replica", &backend.id.to_string())],
                "Whether the replica answered the last metrics scrape.",
            )
            .set(i64::from(up));
    }
    let mut sections = vec![shared.obs.render()];
    sections.extend(replica_sections);
    ncl_serve::protocol::metrics_response(&exposition::merge(&sections))
}

/// The router's `traces` op: fleet-wide trace assembly. The router's
/// own kept fragments (`route`/`dispatch`/`sync_push` spans) are
/// combined with every replica's fetched fragments and stitched by
/// trace id into unified trees — the traces analogue of how `metrics`
/// merges per-replica expositions. Filtering by `min_duration_us`
/// happens *after* stitching, against the end-to-end root duration:
/// a replica-local fragment can be fast while the trace is slow.
fn traces_response(request: &Value, shared: &RouterShared) -> String {
    let min_duration_us = request
        .get("min_duration_us")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let limit = request
        .get("limit")
        .and_then(Value::as_u64)
        .map_or(protocol::DEFAULT_TRACES_LIMIT, |l| l as usize)
        .max(1);
    // The kept stores are span-bounded, so fetching everything is
    // bounded too; stitching needs every fragment of a trace no matter
    // how fast the local piece was.
    let mut fragments: Vec<NodeFragment> = shared
        .obs
        .tracer()
        .recent(0, usize::MAX)
        .into_iter()
        .map(|fragment| NodeFragment {
            node: "router".to_owned(),
            trace_id: fragment.trace_id,
            spans: fragment.spans,
        })
        .collect();
    for backend in &shared.membership.snapshot() {
        let fetched = backend
            .request(r#"{"op":"traces","min_duration_us":0,"limit":4096}"#)
            .ok()
            .and_then(|response| serde_json::from_str(&response).ok())
            .map(|value| protocol::parse_traces_response(&value))
            .unwrap_or_default();
        let node = format!("replica-{}", backend.id);
        fragments.extend(fetched.into_iter().map(|fragment| NodeFragment {
            node: node.clone(),
            trace_id: fragment.trace_id,
            spans: fragment.spans,
        }));
    }
    let stitched: Vec<_> = ncl_obs::stitch(&fragments)
        .into_iter()
        .filter(|t| t.duration_us >= min_duration_us)
        .take(limit)
        .collect();
    shared.requests_ok.inc();
    protocol::stitched_traces_response(&stitched)
}

fn health_response(shared: &RouterShared) -> String {
    let backends = shared.membership.snapshot();
    let healthy = backends.iter().filter(|b| b.is_healthy()).count();
    object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("health")),
        ("role", Value::from("router")),
        ("epoch", Value::from(shared.epoch.load(Ordering::Acquire))),
        ("replicas_total", Value::from(backends.len() as u64)),
        ("replicas_healthy", Value::from(healthy as u64)),
        ("replicas", replicas_table(shared)),
        ("sync", shared.sync.snapshot()),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_of_scans_replies_without_parsing() {
        assert_eq!(
            version_of(r#"{"ok":true,"prediction":2,"model_version":17}"#),
            Some(17)
        );
        assert_eq!(
            version_of(r#"{"ok":true,"model_version": 3,"x":1}"#),
            Some(3)
        );
        assert_eq!(version_of(r#"{"ok":false,"error":"nope"}"#), None);
        assert_eq!(version_of(r#"{"model_version":}"#), None);
    }

    #[test]
    fn rendezvous_weights_are_stable_and_spread() {
        // Same (id, backend) always hashes the same.
        assert_eq!(rendezvous_weight(7, 1), rendezvous_weight(7, 1));
        // Different backends get different weights for the same id.
        assert_ne!(rendezvous_weight(7, 0), rendezvous_weight(7, 1));
        // Keys spread: over many ids, both of two backends win sometimes.
        let wins_0 = (0..64u64)
            .filter(|&id| rendezvous_weight(id, 0) > rendezvous_weight(id, 1))
            .count();
        assert!(wins_0 > 8 && wins_0 < 56, "degenerate spread: {wins_0}/64");
    }
}
