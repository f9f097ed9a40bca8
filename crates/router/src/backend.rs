//! One replica, as the router sees it.
//!
//! A [`Backend`] owns a small pool of NDJSON connections to its replica
//! plus the router-side view of its state: health, role, served model
//! version and per-replica request counters. All request traffic —
//! client predicts, health probes, delta relays — goes through
//! [`Backend::request`], which checks a pooled connection out, runs one
//! line-for-line round trip, and returns the connection only if the
//! round trip succeeded (an errored connection is dropped, never
//! reused: the protocol has no way to resynchronize a half-read line).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ncl_obs::{Counter, Gauge, Registry};
use ncl_serve::protocol::{self, LineReader};
use serde_json::Value;

use crate::faults::{FaultAction, FaultPlan};

/// First wait after a probe failure opens the circuit; doubles per
/// consecutive failure up to [`BREAKER_MAX_BACKOFF`]. Tune per backend
/// with [`Backend::configure_breaker`].
const BREAKER_INITIAL_BACKOFF: Duration = Duration::from_millis(200);

/// Cap on the breaker's exponential backoff: a long-dead replica is
/// re-probed at most this often, instead of every sync tick.
const BREAKER_MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Pooled connections per backend. Predict relays hold a connection
/// only for one round trip, so a handful covers heavy concurrency.
const POOL_LIMIT: usize = 8;

/// Half-open circuit breaker gating health probes to a failing backend.
///
/// Every transport outcome feeds it: a failure opens the circuit for an
/// exponentially growing backoff window, during which
/// [`Backend::probe_health`] returns without touching the socket (a
/// dead replica stops costing a connect timeout per sync tick). When
/// the window lapses the breaker goes half-open: the next probe is the
/// trial — success closes the circuit and resets the backoff, another
/// failure re-opens it with the window doubled (capped).
///
/// Dispatch is *not* gated here: relays already skip unhealthy
/// backends, and a request that does reach a half-open backend is
/// itself a perfectly good trial.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Breaker {
    phase: BreakerPhase,
    backoff: Duration,
    retry_at: Option<Instant>,
    initial: Duration,
    max: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerPhase {
    /// The backend is failing; probes are suppressed until `retry_at`.
    Open,
    /// The backoff lapsed; the next outcome decides open vs closed.
    HalfOpen,
    /// The backend is behaving; every probe goes through.
    Closed,
}

impl Breaker {
    pub(crate) fn new(initial: Duration, max: Duration) -> Self {
        Breaker {
            phase: BreakerPhase::Closed,
            backoff: initial,
            retry_at: None,
            initial,
            max,
        }
    }

    /// Whether a probe may go out at `now` (flips open → half-open when
    /// the backoff window has lapsed).
    pub(crate) fn admits(&mut self, now: Instant) -> bool {
        match self.phase {
            BreakerPhase::Closed | BreakerPhase::HalfOpen => true,
            BreakerPhase::Open => {
                if self.retry_at.is_some_and(|at| now >= at) {
                    self.phase = BreakerPhase::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    pub(crate) fn succeed(&mut self) {
        self.phase = BreakerPhase::Closed;
        self.backoff = self.initial;
        self.retry_at = None;
    }

    pub(crate) fn fail(&mut self, now: Instant) {
        let wait = match self.phase {
            // First failure out of a working state: start at the floor.
            BreakerPhase::Closed => self.initial,
            // A failed trial (or a failure that raced the window):
            // double the wait, capped.
            BreakerPhase::HalfOpen | BreakerPhase::Open => {
                self.max.min(self.backoff.saturating_mul(2))
            }
        };
        self.backoff = wait;
        self.phase = BreakerPhase::Open;
        self.retry_at = Some(now + wait);
    }

    pub(crate) fn phase(&self) -> BreakerPhase {
        self.phase
    }
}

/// One NDJSON connection to a replica.
struct BackendConn {
    stream: TcpStream,
    /// Response framing (keeps bytes read past the last returned line).
    lines: LineReader,
}

impl BackendConn {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(BackendConn {
            stream,
            lines: LineReader::new(),
        })
    }

    /// One request line out, one response line back.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        protocol::write_line(&mut self.stream, line)?;
        loop {
            if let Some(reply) = self.lines.next_line() {
                return Ok(String::from_utf8_lossy(reply).trim().to_owned());
            }
            match self.lines.fill(&mut self.stream) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replica closed mid-response",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Maps a socket timeout (surfaced by the OS as `WouldBlock` or
/// `TimedOut` depending on platform) onto a uniform `TimedOut` error
/// naming the replica, so "replica hung" never reads as "replica
/// refused" in failover diagnostics.
fn mark_timeout(e: std::io::Error, addr: SocketAddr) -> std::io::Error {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("timed out talking to replica {addr}"),
        )
    } else {
        e
    }
}

/// Router-side state of one replica.
pub struct Backend {
    /// Stable replica id (position in the router's backend list).
    pub id: usize,
    /// The replica's listen address.
    pub addr: SocketAddr,
    timeout: Duration,
    healthy: AtomicBool,
    inflight: AtomicUsize,
    requests_ok: Arc<Counter>,
    requests_failed: Arc<Counter>,
    timeouts: Arc<Counter>,
    model_version: AtomicU64,
    epoch: AtomicU64,
    role: Mutex<String>,
    pool: Mutex<Vec<BackendConn>>,
    breaker: Mutex<Breaker>,
    state_gauge: Arc<Gauge>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// The health probe line naming the router's address, once
    /// [`Backend::announce_router`] has set it.
    health_probe: OnceLock<String>,
}

impl Backend {
    /// Default cap on one backend round trip before the connection is
    /// considered dead. Generous next to sub-ms predicts, tight enough
    /// that a hung replica cannot stall the sync loop or a failover for
    /// long. Override per backend with [`Backend::with_timeout`].
    pub(crate) const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

    /// A backend starts unknown-unhealthy; the first health probe (or
    /// successful request) marks it up.
    #[must_use]
    pub fn new(id: usize, addr: SocketAddr) -> Self {
        Backend::with_timeout(id, addr, Backend::DEFAULT_TIMEOUT)
    }

    /// A backend with an explicit round-trip cap (connect, read and
    /// write each get this bound).
    #[must_use]
    pub fn with_timeout(id: usize, addr: SocketAddr, timeout: Duration) -> Self {
        let state_gauge = Arc::new(Gauge::new());
        state_gauge.set(i64::from(gauge_value(BreakerPhase::Closed)));
        Backend {
            id,
            addr,
            timeout,
            healthy: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            requests_ok: Arc::new(Counter::new()),
            requests_failed: Arc::new(Counter::new()),
            timeouts: Arc::new(Counter::new()),
            model_version: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            role: Mutex::new("unknown".to_owned()),
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(Breaker::new(BREAKER_INITIAL_BACKOFF, BREAKER_MAX_BACKOFF)),
            state_gauge,
            faults: Mutex::new(None),
            health_probe: OnceLock::new(),
        }
    }

    /// Re-tunes the probe breaker's backoff window (tests use tight
    /// windows; production keeps the defaults).
    pub fn configure_breaker(&self, initial: Duration, max: Duration) {
        let mut breaker = self
            .breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *breaker = Breaker::new(initial, max.max(initial));
        self.state_gauge
            .set(i64::from(gauge_value(breaker.phase())));
    }

    /// Threads a fault plan under every round trip this backend runs
    /// (see [`crate::faults`]). Chaos tests arm the whole fleet's
    /// backends with one shared plan.
    pub(crate) fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *self
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    }

    /// Makes every later health probe carry `router` as the prober's
    /// address, so the replica knows where to send its `published`
    /// nudges. The first announcement sticks: a backend belongs to one
    /// router.
    pub(crate) fn announce_router(&self, router: SocketAddr) {
        let _ = self.health_probe.set(
            protocol::object(vec![
                ("op", Value::from("health")),
                ("router", Value::from(router.to_string())),
            ])
            .to_json(),
        );
    }

    /// Exposes this backend's counters in `registry` as
    /// `router_backend_*_total{replica="<id>"}` series. The handles are
    /// shared, not copied: the hot path keeps incrementing the same
    /// atomics the exposition reads.
    pub fn register_into(&self, registry: &Registry) {
        let replica = self.id.to_string();
        let labels: &[(&str, &str)] = &[("replica", &replica)];
        let _ = registry.adopt_counter(
            "router_backend_requests_ok_total",
            labels,
            "Relayed requests this replica answered.",
            Arc::clone(&self.requests_ok),
        );
        let _ = registry.adopt_counter(
            "router_backend_requests_failed_total",
            labels,
            "Relayed requests that failed on this replica at the transport level.",
            Arc::clone(&self.requests_failed),
        );
        let _ = registry.adopt_counter(
            "router_backend_timeouts_total",
            labels,
            "Transport failures that were timeouts (hung replica, not a refusal).",
            Arc::clone(&self.timeouts),
        );
        let _ = registry.adopt_gauge(
            "router_backend_state",
            labels,
            "Probe-breaker state of this backend (0 = open, 1 = half-open, 2 = closed).",
            Arc::clone(&self.state_gauge),
        );
    }

    /// Whether the last probe/request reached this replica.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Requests currently relayed to this replica.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The model version the replica reported last.
    #[must_use]
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Ordering::Acquire)
    }

    /// Folds a model version seen in a live reply into the cached one.
    ///
    /// Monotonic (`fetch_max`): a reply carrying a fresher version than
    /// the last health probe must win, but a probe racing in with the
    /// replica's current (>=) version is just as authoritative, so the
    /// cell only ever moves forward. Version-preferring dispatch reads
    /// this cache, so folding replies in keeps a client's observed
    /// `model_version` monotonic through the probe-interval window
    /// right after an increment lands on one replica.
    pub(crate) fn observe_version(&self, version: u64) {
        self.model_version.fetch_max(version, Ordering::AcqRel);
    }

    /// The fleet epoch the replica reported last (0 for replicas that
    /// predate epoch fencing).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The probe breaker's current state, for status rows.
    #[must_use]
    fn breaker_state(&self) -> &'static str {
        let phase = self
            .breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .phase();
        match phase {
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half-open",
            BreakerPhase::Closed => "closed",
        }
    }

    /// The replication role the replica reported last.
    #[must_use]
    pub fn role(&self) -> String {
        // Role/pool values stay valid whatever panicked while the
        // lock was held — recover the guard, never cascade the poison
        // through the dispatch path.
        self.role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Requests this backend answered (any valid response line).
    #[must_use]
    pub fn ok_count(&self) -> u64 {
        self.requests_ok.get()
    }

    /// Requests that failed on this backend at the transport level.
    #[must_use]
    pub fn failed_count(&self) -> u64 {
        self.requests_failed.get()
    }

    /// Transport failures that were timeouts.
    #[must_use]
    fn timeout_count(&self) -> u64 {
        self.timeouts.get()
    }

    /// Runs one round trip against this replica, tracking inflight and
    /// success counters. A transport failure marks the backend
    /// unhealthy (the sync loop's next probe can bring it back).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. A returned `Ok` line may still
    /// be a protocol-level `{"ok":false,...}` — that is the replica's
    /// answer, not a transport failure, and is relayed as such.
    pub fn request(&self, line: &str) -> std::io::Result<String> {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let result = self
            .faulted_request(line)
            .map_err(|e| mark_timeout(e, self.addr));
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        match &result {
            Ok(_) => {
                self.requests_ok.inc();
                self.healthy.store(true, Ordering::Release);
                self.breaker_observe(true);
            }
            Err(e) => {
                self.requests_failed.inc();
                if e.kind() == std::io::ErrorKind::TimedOut {
                    self.timeouts.inc();
                }
                self.healthy.store(false, Ordering::Release);
                self.breaker_observe(false);
            }
        }
        result
    }

    /// Consults the armed fault plan (if any) before running the real
    /// round trip. Injected failures surface as ordinary transport
    /// errors, so health marking, counters and the breaker all react
    /// exactly as they would to the real fault.
    fn faulted_request(&self, line: &str) -> std::io::Result<String> {
        let plan = self
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some(plan) = plan {
            match plan.decide(self.id, crate::faults::op_of(line)) {
                None => {}
                Some(FaultAction::Drop) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        format!("fault injection: dropped connection to replica {}", self.id),
                    ))
                }
                Some(FaultAction::Delay(wait)) => std::thread::sleep(wait),
                Some(FaultAction::BlackHole) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "fault injection: black-holed request to replica {}",
                            self.id
                        ),
                    ))
                }
                Some(FaultAction::CloseMidWrite) => return self.close_mid_write(line),
            }
        }
        self.request_inner(line)
    }

    /// The `CloseMidWrite` fault: a real connection, half the request
    /// line, then a hard close — the replica sees a truncated line and
    /// an EOF, the caller sees an aborted connection.
    fn close_mid_write(&self, line: &str) -> std::io::Result<String> {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => BackendConn::connect(self.addr, self.timeout)?,
        };
        let half = &line.as_bytes()[..line.len() / 2];
        let _ = conn.stream.write_all(half);
        let _ = conn.stream.flush();
        drop(conn);
        Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            format!(
                "fault injection: connection to replica {} closed mid-write",
                self.id
            ),
        ))
    }

    fn request_inner(&self, line: &str) -> std::io::Result<String> {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => BackendConn::connect(self.addr, self.timeout)?,
        };
        match conn.round_trip(line) {
            Ok(response) => {
                let mut pool = self
                    .pool
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if pool.len() < POOL_LIMIT {
                    pool.push(conn);
                }
                Ok(response)
            }
            Err(e) => Err(e), // drop the connection: its stream state is unknown
        }
    }

    /// Feeds one transport outcome into the breaker and mirrors the
    /// resulting state onto the `router_backend_state` gauge.
    fn breaker_observe(&self, success: bool) {
        let mut breaker = self
            .breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if success {
            breaker.succeed();
        } else {
            breaker.fail(Instant::now());
        }
        self.state_gauge
            .set(i64::from(gauge_value(breaker.phase())));
    }

    /// Probes `{"op":"health"}` (naming the router, once announced) and
    /// refreshes health, role, version and epoch. Returns the parsed
    /// response when the replica answered.
    ///
    /// The probe is gated by the breaker: while the circuit is open,
    /// this returns `None` without touching the socket, so a dead
    /// replica costs at most one connect attempt per backoff window
    /// instead of one per sync tick.
    pub(crate) fn probe_health(&self) -> Option<Value> {
        {
            let mut breaker = self
                .breaker
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let admitted = breaker.admits(Instant::now());
            self.state_gauge
                .set(i64::from(gauge_value(breaker.phase())));
            if !admitted {
                return None;
            }
        }
        let probe = self
            .health_probe
            .get()
            .map_or(r#"{"op":"health"}"#, String::as_str);
        let response = match self.request(probe) {
            Ok(response) => response,
            Err(_) => {
                // request() already marked us unhealthy; also drop every
                // pooled connection so recovery starts from fresh sockets.
                self.pool
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clear();
                return None;
            }
        };
        let Ok(value) = serde_json::from_str(&response) else {
            self.healthy.store(false, Ordering::Release);
            return None;
        };
        let value: Value = value;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            self.healthy.store(false, Ordering::Release);
            return None;
        }
        if let Some(version) = value.get("model_version").and_then(Value::as_u64) {
            // fetch_max, not store: a probe that was in flight while a
            // live reply observed a fresher version must not roll the
            // cached version back (a replica's registry never regresses).
            self.model_version.fetch_max(version, Ordering::AcqRel);
        }
        if let Some(epoch) = value.get("epoch").and_then(Value::as_u64) {
            self.epoch.store(epoch, Ordering::Release);
        }
        if let Some(role) = value.get("role").and_then(Value::as_str) {
            *self
                .role
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = role.to_owned();
        }
        Some(value)
    }

    /// The router's stats entry for this replica.
    #[must_use]
    pub fn status(&self) -> Value {
        protocol::object(vec![
            ("id", Value::from(self.id as u64)),
            ("addr", Value::from(self.addr.to_string())),
            ("healthy", Value::from(self.is_healthy())),
            ("role", Value::from(self.role())),
            ("model_version", Value::from(self.model_version())),
            ("epoch", Value::from(self.epoch())),
            ("breaker", Value::from(self.breaker_state())),
            ("requests_ok", Value::from(self.ok_count())),
            ("requests_failed", Value::from(self.failed_count())),
            ("timeouts", Value::from(self.timeout_count())),
            ("inflight", Value::from(self.inflight() as u64)),
        ])
    }
}

/// `router_backend_state` gauge encoding of a breaker phase.
fn gauge_value(phase: BreakerPhase) -> u8 {
    match phase {
        BreakerPhase::Open => 0,
        BreakerPhase::HalfOpen => 1,
        BreakerPhase::Closed => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_serve::registry::ModelRegistry;
    use ncl_serve::server::{Server, ServerConfig};
    use ncl_snn::{Network, NetworkConfig};
    use std::sync::Arc;

    #[test]
    fn request_pools_connections_and_tracks_health() {
        let network = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
        let registry = Arc::new(ModelRegistry::new(network, "test"));
        let server = Server::start(registry, ServerConfig::default()).unwrap();
        let backend = Backend::new(0, server.local_addr());
        assert!(!backend.is_healthy(), "unknown until the first probe");

        let health = backend.probe_health().unwrap();
        assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
        assert!(backend.is_healthy());
        assert_eq!(backend.model_version(), 1);
        assert_eq!(backend.role(), "standalone");

        // A second request reuses the pooled connection.
        let pong = backend.request(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("pong"));
        assert_eq!(backend.ok_count(), 2);
        assert_eq!(backend.failed_count(), 0);

        // Kill the replica: the next request fails and flips health.
        server.shutdown();
        assert!(backend.request(r#"{"op":"ping"}"#).is_err());
        assert!(!backend.is_healthy());
        assert!(backend.probe_health().is_none());
    }

    #[test]
    fn hung_replica_surfaces_as_timeout_and_is_counted() {
        // Accept and go silent: the request must time out, not hang,
        // and the error must be distinguishable from a refusal.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let backend = Backend::with_timeout(0, addr, Duration::from_millis(50));
        let err = backend.request(r#"{"op":"ping"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("timed out"), "{err}");
        assert_eq!(backend.timeout_count(), 1);
        assert_eq!(backend.failed_count(), 1);
        drop(hold.join());

        // A refusal (bind-then-drop port) is a failure but not a timeout.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let refused = Backend::with_timeout(1, dead, Duration::from_secs(2));
        let err = refused.request(r#"{"op":"ping"}"#).unwrap_err();
        assert_ne!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(refused.timeout_count(), 0);
        assert_eq!(refused.failed_count(), 1);
    }

    #[test]
    fn breaker_walks_open_half_open_closed_with_doubling_backoff() {
        let t0 = Instant::now();
        let mut breaker = Breaker::new(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(breaker.phase(), BreakerPhase::Closed);
        assert!(breaker.admits(t0));

        // First failure: open for the initial window.
        breaker.fail(t0);
        assert_eq!(breaker.phase(), BreakerPhase::Open);
        assert!(!breaker.admits(t0 + Duration::from_millis(5)));
        assert_eq!(breaker.phase(), BreakerPhase::Open);

        // Window lapses: half-open, one trial admitted.
        assert!(breaker.admits(t0 + Duration::from_millis(10)));
        assert_eq!(breaker.phase(), BreakerPhase::HalfOpen);

        // Failed trial: open again, backoff doubled (10 → 20ms).
        let t1 = t0 + Duration::from_millis(11);
        breaker.fail(t1);
        assert!(!breaker.admits(t1 + Duration::from_millis(19)));
        assert!(breaker.admits(t1 + Duration::from_millis(20)));

        // Another failed trial: doubled again but capped (40 → 35ms).
        let t2 = t1 + Duration::from_millis(21);
        breaker.fail(t2);
        assert!(!breaker.admits(t2 + Duration::from_millis(34)));
        assert!(breaker.admits(t2 + Duration::from_millis(35)));

        // Successful trial: closed, and the backoff resets to the
        // initial window for the next incident.
        breaker.succeed();
        assert_eq!(breaker.phase(), BreakerPhase::Closed);
        breaker.fail(t2 + Duration::from_millis(40));
        assert!(breaker.admits(t2 + Duration::from_millis(50)));
    }

    #[test]
    fn open_breaker_suppresses_probes_until_the_replica_recovers() {
        // A listener that rejects connections (accept + drop) until
        // flipped up, after which it answers health like a replica — a
        // deterministic down/up cycle on one address.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let up = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let up_flag = Arc::clone(&up);
        let responder = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                if !up_flag.load(Ordering::Acquire) {
                    drop(stream); // reset: the replica is "down"
                    continue;
                }
                let mut buf = [0u8; 1024];
                let Ok(n) = std::io::Read::read(&mut stream, &mut buf) else {
                    continue;
                };
                if n == 0 {
                    continue;
                }
                let _ = std::io::Write::write_all(
                    &mut stream,
                    b"{\"ok\":true,\"op\":\"health\",\"role\":\"follower\",\"model_version\":7,\"epoch\":3}\n",
                );
                break; // one successful probe is all the test needs
            }
        });

        let backend = Backend::with_timeout(0, addr, Duration::from_millis(500));
        backend.configure_breaker(Duration::from_millis(30), Duration::from_millis(120));
        let obs = ncl_obs::Registry::new();
        backend.register_into(&obs);

        // Down: the probe fails and opens the circuit.
        assert!(backend.probe_health().is_none());
        assert_eq!(backend.breaker_state(), "open");
        let failures_after_open = backend.failed_count();
        assert!(obs
            .render()
            .contains("router_backend_state{replica=\"0\"} 0"));

        // While open, probes are suppressed: no socket work, no new
        // transport failures.
        assert!(backend.probe_health().is_none());
        assert!(backend.probe_health().is_none());
        assert_eq!(backend.failed_count(), failures_after_open);

        // Backoff lapses while the replica is back up: the half-open
        // trial goes through, closes the circuit, refreshes state.
        up.store(true, Ordering::Release);
        std::thread::sleep(Duration::from_millis(40));
        let health = backend.probe_health().expect("half-open trial probe");
        assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(backend.breaker_state(), "closed");
        assert!(backend.is_healthy());
        assert_eq!(backend.model_version(), 7);
        assert_eq!(backend.epoch(), 3);
        assert!(obs
            .render()
            .contains("router_backend_state{replica=\"0\"} 2"));
        responder.join().unwrap();
    }

    #[test]
    fn armed_faults_surface_as_transport_errors() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule};
        let network = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
        let registry = Arc::new(ModelRegistry::new(network, "test"));
        let server = Server::start(registry, ServerConfig::default()).unwrap();
        let backend = Backend::new(4, server.local_addr());
        let plan = Arc::new(FaultPlan::with_rules(
            11,
            vec![FaultRule::every(1.0, FaultAction::BlackHole).on_op("ping")],
        ));
        backend.arm_faults(Arc::clone(&plan));

        // The faulted op fails as a timeout without a real wait...
        let err = backend.request(r#"{"op":"ping"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(backend.timeout_count(), 1);
        assert!(!backend.is_healthy());
        assert_eq!(plan.injected(), 1);

        // ...while unmatched ops still reach the replica (the injected
        // failure opened the probe breaker; reset it first).
        backend.configure_breaker(Duration::from_millis(1), Duration::from_millis(1));
        let health = backend.probe_health().expect("unmatched op goes through");
        assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));

        // Close-mid-write writes a partial line and aborts; the server
        // connection survives the torn line and later ops still work.
        let tear = Arc::new(FaultPlan::with_rules(
            12,
            vec![FaultRule {
                until_seq: 1,
                ..FaultRule::every(1.0, FaultAction::CloseMidWrite)
            }],
        ));
        backend.arm_faults(tear);
        let err = backend.request(r#"{"op":"ping"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        assert!(backend
            .request(r#"{"op":"ping"}"#)
            .unwrap()
            .contains("pong"));
        server.shutdown();
    }

    #[test]
    fn register_into_exposes_backend_counters() {
        let registry = ncl_obs::Registry::new();
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let backend = Backend::new(3, dead);
        backend.register_into(&registry);
        let _ = backend.request(r#"{"op":"ping"}"#);
        let text = registry.render();
        assert!(
            text.contains("router_backend_requests_failed_total{replica=\"3\"} 1"),
            "exposition tracks the shared counter:\n{text}"
        );
        assert!(text.contains("router_backend_requests_ok_total{replica=\"3\"} 0"));
    }
}
