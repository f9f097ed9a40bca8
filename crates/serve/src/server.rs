//! The TCP front end: accepts localhost connections, speaks the NDJSON
//! protocol, and routes predicts through the micro-batcher.
//!
//! One thread per connection reads request lines; `predict` ops are
//! submitted to the shared [`Batcher`] (so requests from *different*
//! connections batch together), control ops (`stats`, `swap`, `ping`,
//! `shutdown`) are answered inline. Hot swaps go through the
//! [`ModelRegistry`]: a `swap` op loads the checkpoint, the pointer
//! exchange is atomic, and every in-flight batch keeps the snapshot it
//! started with — zero dropped requests across a swap.

use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde_json::Value;

use crate::batcher::{BatchConfig, Batcher};
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::protocol::{self, Request};
use crate::registry::ModelRegistry;
use crate::sync::{not_replicating, ReplicaSync};

/// Server tuning knobs. The default binds an ephemeral port (0) with the
/// default [`BatchConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port; read the bound
    /// address from [`Server::local_addr`]).
    pub port: u16,
    /// Micro-batching scheduler settings.
    pub batch: BatchConfig,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    obs: Arc<ncl_obs::Registry>,
    batcher: Arc<Batcher>,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// Replication handler, if this server is part of a fleet.
    sync: Option<Arc<dyn ReplicaSync>>,
}

/// A running inference service.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds 127.0.0.1 and starts serving `registry`'s current model.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(registry: Arc<ModelRegistry>, config: ServerConfig) -> std::io::Result<Server> {
        Server::start_with_sync(registry, config, None)
    }

    /// Like [`Server::start`], but with a replication handler: the
    /// `health`/`delta`/`apply_delta`/`checkpoint`/`apply_checkpoint`
    /// ops are forwarded to it instead of being declined.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start_with_sync(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
        sync: Option<Arc<dyn ReplicaSync>>,
    ) -> std::io::Result<Server> {
        Server::start_with_obs(registry, config, sync, Arc::new(ncl_obs::Registry::new()))
    }

    /// Like [`Server::start_with_sync`], but registering the serving
    /// metrics in a caller-provided observability registry — so a
    /// daemon process can expose its serve, online and training
    /// metrics through one `metrics` scrape.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start_with_obs(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
        sync: Option<Arc<dyn ReplicaSync>>,
        obs: Arc<ncl_obs::Registry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
        let addr = listener.local_addr()?;
        // Seed trace-id minting from the bound port: deterministic for a
        // fixed fleet layout, yet distinct per member, so span ids never
        // collide when the router stitches fragments across nodes.
        obs.tracer().set_seed(u64::from(addr.port()));
        let metrics = Arc::new(Metrics::new(&obs));
        let batcher = Batcher::start_traced(
            Arc::clone(&registry),
            Arc::clone(&metrics),
            config.batch,
            Some(Arc::clone(obs.tracer())),
        )?;
        let shared = Arc::new(Shared {
            registry,
            metrics,
            obs,
            batcher,
            stopping: AtomicBool::new(false),
            addr,
            sync,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("ncl-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The registry serving this server — for in-process hot swaps.
    #[must_use]
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The serving metrics.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The observability registry backing the `metrics` op.
    #[must_use]
    pub fn obs(&self) -> &Arc<ncl_obs::Registry> {
        &self.shared.obs
    }

    /// Blocks until the server stops (a client sent `shutdown`, or
    /// another thread called [`Server::shutdown`]), then drains the
    /// batcher.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.shared.batcher.shutdown();
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    pub fn shutdown(self) {
        request_stop(&self.shared);
        self.wait();
    }
}

/// Flags the server to stop and unblocks the accept loop.
fn request_stop(shared: &Shared) {
    if shared.stopping.swap(true, Ordering::AcqRel) {
        return;
    }
    // The accept loop is blocked in accept(); a throwaway local
    // connection wakes it so it can observe the flag.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("ncl-serve-conn".into())
            .spawn(move || {
                let _ = protocol::serve_connection(stream, &conn_shared.stopping, |line| {
                    handle_line(line, &conn_shared)
                });
            })
        {
            connections.push(handle);
        }
        // Opportunistically reap finished connections so a long-lived
        // server does not accumulate handles.
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Processes one request line into one response line; the flag reports
/// whether this request asked the server to stop (closing the
/// connection after the response is flushed).
fn handle_line(line: &str, shared: &Shared) -> (String, bool) {
    let input_size = shared.registry.current().input_size();
    let request = match protocol::parse_request(line, input_size) {
        Ok(request) => request,
        Err(e) => {
            shared.metrics.record_failure();
            return (protocol::error_response(None, &e), false);
        }
    };
    let response = match request {
        Request::Predict { id, raster, trace } => {
            // The accept span covers the whole replica-side request; it
            // is the last guard of the local fragment to close, so the
            // fragment finalizes (and tail-samples) right here, before
            // the response hits the wire.
            let accept = trace
                .as_ref()
                .map(|ctx| shared.obs.tracer().start_span(ctx, "accept"));
            let batch_ctx = accept.as_ref().map(|span| span.context());
            match predict(shared, raster, batch_ctx) {
                Ok((prediction, logits, version)) => {
                    let render_start = std::time::Instant::now();
                    let response = protocol::predict_response(id, prediction, &logits, version);
                    if let Some(ctx) = &batch_ctx {
                        shared.obs.tracer().record_span(
                            ctx,
                            "reply",
                            render_start,
                            render_start.elapsed(),
                            Vec::new(),
                        );
                    }
                    response
                }
                Err(e) => {
                    // Batch-level failures are already counted by the
                    // batcher; only count pre-submit rejections here.
                    if matches!(e, ServeError::ShuttingDown) {
                        shared.metrics.record_failure();
                    }
                    protocol::error_response(id, &e)
                }
            }
        }
        Request::Traces {
            min_duration_us,
            limit,
        } => protocol::traces_response(&shared.obs.tracer().recent(min_duration_us, limit)),
        Request::Stats => stats_response(shared),
        Request::Metrics => protocol::metrics_response(&shared.obs.render()),
        Request::Swap { path } => {
            match shared.registry.swap_from_file(std::path::Path::new(&path)) {
                Ok(version) => {
                    shared.metrics.record_swap();
                    protocol::object(vec![
                        ("ok", Value::from(true)),
                        ("op", Value::from("swap")),
                        ("model_version", Value::from(version)),
                    ])
                    .to_json()
                }
                Err(e) => {
                    shared.metrics.record_failure();
                    protocol::error_response(None, &e)
                }
            }
        }
        Request::Ping => protocol::object(vec![
            ("ok", Value::from(true)),
            ("op", Value::from("pong")),
            ("model_version", Value::from(shared.registry.version())),
        ])
        .to_json(),
        Request::Shutdown => {
            request_stop(shared);
            protocol::object(vec![
                ("ok", Value::from(true)),
                ("op", Value::from("shutdown")),
            ])
            .to_json()
        }
        Request::Health { router } => {
            if let (Some(router), Some(sync)) = (router, &shared.sync) {
                sync.observe_router(router);
            }
            health_response(shared)
        }
        Request::DeltaFetch { base_version } => {
            match sync_handler(shared).and_then(|s| s.fetch_delta(base_version)) {
                Ok((version, bytes)) => protocol::object(vec![
                    ("ok", Value::from(true)),
                    ("op", Value::from("delta")),
                    ("version", Value::from(version)),
                    ("payload", Value::from(protocol::to_hex(&bytes))),
                ])
                .to_json(),
                Err(e) => protocol::error_response(None, &e),
            }
        }
        Request::DeltaApply { payload, epoch } => replication_apply(shared, "apply_delta", |s| {
            observe_epoch(s, epoch)?;
            s.apply_delta(&payload)
        }),
        Request::CheckpointFetch => match sync_handler(shared).and_then(|s| s.fetch_checkpoint()) {
            Ok(bytes) => protocol::object(vec![
                ("ok", Value::from(true)),
                ("op", Value::from("checkpoint")),
                ("payload", Value::from(protocol::to_hex(&bytes))),
            ])
            .to_json(),
            Err(e) => protocol::error_response(None, &e),
        },
        Request::CheckpointApply { payload, epoch } => {
            replication_apply(shared, "apply_checkpoint", |s| {
                observe_epoch(s, epoch)?;
                s.apply_checkpoint(&payload)
            })
        }
        Request::Promote { epoch } => role_change(shared, "promote", epoch, |s| s.promote(epoch)),
        Request::Demote { epoch } => role_change(shared, "demote", epoch, |s| s.demote(epoch)),
        Request::Join { .. }
        | Request::Leave { .. }
        | Request::Members
        | Request::Published { .. } => protocol::error_response(
            None,
            &ServeError::Replication {
                detail: "membership ops (join/leave/members) and publish nudges are answered \
                         by the router, not a replica"
                    .into(),
            },
        ),
    };
    let stop = shared.stopping.load(Ordering::Acquire);
    (response, stop)
}

fn predict(
    shared: &Shared,
    raster: ncl_spike::SpikeRaster,
    trace: Option<ncl_obs::TraceContext>,
) -> Result<(usize, Vec<f32>, u64), ServeError> {
    let rx = shared.batcher.submit_traced(raster, trace)?;
    let reply = rx.recv().map_err(|_| ServeError::ShuttingDown)??;
    Ok((reply.prediction, reply.logits, reply.model_version))
}

/// The replication handler, or the standard decline error.
fn sync_handler(shared: &Shared) -> Result<&Arc<dyn ReplicaSync>, ServeError> {
    shared.sync.as_ref().ok_or_else(not_replicating)
}

/// Fences a write stamped with a fleet epoch (unstamped writes pass —
/// pre-elastic peers keep working).
fn observe_epoch(sync: &Arc<dyn ReplicaSync>, epoch: Option<u64>) -> Result<(), ServeError> {
    match epoch {
        Some(epoch) => sync.observe_epoch(epoch),
        None => Ok(()),
    }
}

/// Runs a role-change op (`promote`/`demote`) and renders the response.
fn role_change(
    shared: &Shared,
    op: &str,
    epoch: u64,
    change: impl FnOnce(&Arc<dyn ReplicaSync>) -> Result<u64, ServeError>,
) -> String {
    match sync_handler(shared).and_then(change) {
        Ok(version) => protocol::object(vec![
            ("ok", Value::from(true)),
            ("op", Value::from(op)),
            ("epoch", Value::from(epoch)),
            ("model_version", Value::from(version)),
        ])
        .to_json(),
        Err(e) => protocol::error_response(None, &e),
    }
}

/// Runs a replication apply op (delta or checkpoint) and renders the
/// response. Applies count as swaps in the metrics.
fn replication_apply(
    shared: &Shared,
    op: &str,
    apply: impl FnOnce(&Arc<dyn ReplicaSync>) -> Result<u64, ServeError>,
) -> String {
    match sync_handler(shared).and_then(apply) {
        Ok(version) => {
            shared.metrics.record_swap();
            protocol::object(vec![
                ("ok", Value::from(true)),
                ("op", Value::from(op)),
                ("model_version", Value::from(version)),
            ])
            .to_json()
        }
        Err(e) => protocol::error_response(None, &e),
    }
}

/// The `health` response: version + role + handler-specific fields.
fn health_response(shared: &Shared) -> String {
    let mut pairs = vec![
        ("ok", Value::from(true)),
        ("op", Value::from("health")),
        ("model_version", Value::from(shared.registry.version())),
        (
            "role",
            Value::from(shared.sync.as_ref().map_or("standalone", |s| s.role())),
        ),
        ("requests_ok", Value::from(shared.metrics.ok_count())),
        (
            "requests_failed",
            Value::from(shared.metrics.failed_count()),
        ),
    ];
    if let Some(sync) = &shared.sync {
        pairs.push(("epoch", Value::from(sync.epoch())));
        pairs.extend(sync.health_extra());
    }
    protocol::object(pairs).to_json()
}

fn stats_response(shared: &Shared) -> String {
    let model = shared.registry.current();
    let model_block = protocol::object(vec![
        ("version", Value::from(model.version)),
        ("input_size", Value::from(model.input_size())),
        ("output_size", Value::from(model.output_size())),
        ("source", Value::from(model.source.clone())),
    ]);
    protocol::object(vec![
        ("ok", Value::from(true)),
        ("op", Value::from("stats")),
        ("model", model_block),
        ("serving", shared.metrics.snapshot()),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NclClient;
    use ncl_snn::{Network, NetworkConfig};
    use ncl_spike::SpikeRaster;

    fn start_server() -> Server {
        let network = Network::new(NetworkConfig::tiny(8, 3)).unwrap();
        let registry = Arc::new(ModelRegistry::new(network, "test"));
        Server::start(registry, ServerConfig::default()).unwrap()
    }

    #[test]
    fn serves_predict_stats_ping_over_tcp() {
        let server = start_server();
        let addr = server.local_addr();
        let mut client = NclClient::connect(addr).unwrap();

        let pong = client.ping().unwrap();
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));

        let raster = SpikeRaster::from_fn(8, 10, |n, t| (n + t) % 2 == 0);
        let line = protocol::predict_request_line(5, &raster);
        let reply = client.round_trip(&line).unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(5));
        let direct = server
            .registry()
            .current()
            .network
            .forward(&raster)
            .unwrap();
        let expected = ncl_tensor::ops::argmax(&direct).unwrap() as u64;
        assert_eq!(
            reply.get("prediction").and_then(Value::as_u64),
            Some(expected)
        );

        // Malformed line answers an error and keeps the connection alive.
        let err = client.round_trip(r#"{"op":"warp"}"#).unwrap();
        assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));

        let stats = client.stats().unwrap();
        assert_eq!(
            stats
                .get("serving")
                .and_then(|s| s.get("requests_ok"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            stats
                .get("model")
                .and_then(|m| m.get("input_size"))
                .and_then(Value::as_u64),
            Some(8)
        );

        server.shutdown();
    }

    #[test]
    fn metrics_op_scrapes_the_exposition() {
        let server = start_server();
        let mut client = NclClient::connect(server.local_addr()).unwrap();
        let raster = SpikeRaster::from_fn(8, 10, |n, t| (n + t) % 2 == 0);
        client.predict(1, &raster).unwrap();
        let reply = client.round_trip(r#"{"op":"metrics"}"#).unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("op").and_then(Value::as_str), Some("metrics"));
        assert_eq!(
            reply.get("format").and_then(Value::as_str),
            Some("prometheus-text-0.0.4")
        );
        let text = reply.get("exposition").and_then(Value::as_str).unwrap();
        assert!(text.contains("# TYPE serve_requests_ok_total counter"));
        assert!(text.contains("serve_requests_ok_total 1"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
        assert!(text.contains("serve_latency_us_count 1"));
        assert!(text.contains("serve_batches_total 1"));
        server.shutdown();
    }

    #[test]
    fn traced_predicts_surface_in_the_traces_op() {
        let server = start_server();
        let mut client = NclClient::connect(server.local_addr()).unwrap();
        let raster = SpikeRaster::from_fn(8, 10, |n, t| (n + t) % 2 == 0);
        let ctx = ncl_obs::TraceContext {
            trace_id: 0xabc,
            parent: None,
        };
        let reply = client.predict_traced(7, &raster, &ctx).unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

        let traces = client.traces(0, 16).unwrap();
        assert_eq!(traces.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(traces.get("stitched").and_then(Value::as_bool), Some(false));
        let list = traces.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(list.len(), 1, "first completed trace is always kept");
        assert_eq!(
            list[0].get("id").and_then(Value::as_str),
            Some("00000000000000000000000000000abc")
        );
        let spans = list[0].get("spans").and_then(Value::as_array).unwrap();
        let stages: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("stage").and_then(Value::as_str))
            .collect();
        for expected in ["accept", "queue_wait", "forward", "reply"] {
            assert!(stages.contains(&expected), "missing {expected}: {stages:?}");
        }

        // The exemplar in stats points at the captured trace.
        let stats = client.stats().unwrap();
        let exemplar = stats
            .get("serving")
            .and_then(|s| s.get("latency_us"))
            .and_then(|l| l.get("exemplar"))
            .expect("latency exemplar after traced traffic");
        assert_eq!(
            exemplar.get("trace_id").and_then(Value::as_str),
            Some("00000000000000000000000000000abc")
        );
        server.shutdown();
    }

    #[test]
    fn health_and_replication_ops_without_a_handler() {
        let server = start_server();
        let mut client = NclClient::connect(server.local_addr()).unwrap();

        // Health works on any server and reports the standalone role.
        let health = client.round_trip(r#"{"op":"health"}"#).unwrap();
        assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            health.get("role").and_then(Value::as_str),
            Some("standalone")
        );
        assert_eq!(health.get("model_version").and_then(Value::as_u64), Some(1));

        // Replication ops are declined, and the connection stays open.
        for line in [
            r#"{"op":"delta","base_version":1}"#,
            r#"{"op":"apply_delta","payload":"00"}"#,
            r#"{"op":"checkpoint"}"#,
            r#"{"op":"apply_checkpoint","payload":"00"}"#,
        ] {
            let reply = client.round_trip(line).unwrap();
            assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
            assert!(reply
                .get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("replication"));
        }
        assert!(client.ping().is_ok(), "connection survived the declines");
        server.shutdown();
    }

    /// A handler stub: serves a fixed delta and mirrors applies into the
    /// registry, exercising the full wire path without ncl_online.
    struct StubSync {
        registry: Arc<ModelRegistry>,
        router: std::sync::Mutex<Option<SocketAddr>>,
    }

    impl ReplicaSync for StubSync {
        fn role(&self) -> &'static str {
            "follower"
        }
        fn observe_router(&self, router: SocketAddr) {
            *self.router.lock().unwrap() = Some(router);
        }
        fn health_extra(&self) -> Vec<(&'static str, Value)> {
            vec![("syncs", Value::from(7u64))]
        }
        fn fetch_delta(&self, base_version: u64) -> Result<(u64, Vec<u8>), ServeError> {
            if base_version == 1 {
                Ok((2, vec![0xAB, 0xCD]))
            } else {
                Err(ServeError::Replication {
                    detail: format!("no delta from v{base_version}"),
                })
            }
        }
        fn apply_delta(&self, payload: &[u8]) -> Result<u64, ServeError> {
            if payload == [0xAB, 0xCD] {
                let network = self.registry.current().network.clone();
                self.registry.swap_network_at(network, "delta-2", 2)
            } else {
                Err(ServeError::Replication {
                    detail: "bad payload".into(),
                })
            }
        }
        fn fetch_checkpoint(&self) -> Result<Vec<u8>, ServeError> {
            Ok(vec![0x01])
        }
        fn apply_checkpoint(&self, _payload: &[u8]) -> Result<u64, ServeError> {
            Ok(self.registry.version())
        }
    }

    #[test]
    fn replication_ops_reach_the_handler() {
        let network = Network::new(NetworkConfig::tiny(8, 3)).unwrap();
        let registry = Arc::new(ModelRegistry::new(network, "test"));
        let sync = Arc::new(StubSync {
            registry: Arc::clone(&registry),
            router: std::sync::Mutex::new(None),
        });
        let server = Server::start_with_sync(
            Arc::clone(&registry),
            ServerConfig::default(),
            Some(Arc::clone(&sync) as Arc<dyn ReplicaSync>),
        )
        .unwrap();
        let mut client = NclClient::connect(server.local_addr()).unwrap();

        let health = client.round_trip(r#"{"op":"health"}"#).unwrap();
        assert_eq!(health.get("role").and_then(Value::as_str), Some("follower"));
        assert_eq!(health.get("syncs").and_then(Value::as_u64), Some(7));
        assert_eq!(*sync.router.lock().unwrap(), None);

        // A router's probe names its address; the handler learns it.
        let probed = client
            .round_trip(r#"{"op":"health","router":"127.0.0.1:7100"}"#)
            .unwrap();
        assert_eq!(probed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            *sync.router.lock().unwrap(),
            Some("127.0.0.1:7100".parse().unwrap())
        );
        // Publish nudges are for the router; a replica declines them.
        let nudge = client.published(2, 1).unwrap();
        assert_eq!(nudge.get("ok").and_then(Value::as_bool), Some(false));

        let delta = client
            .round_trip(r#"{"op":"delta","base_version":1}"#)
            .unwrap();
        assert_eq!(delta.get("version").and_then(Value::as_u64), Some(2));
        let payload = delta.get("payload").and_then(Value::as_str).unwrap();
        assert_eq!(payload, "abcd");

        let applied = client
            .round_trip(&format!(r#"{{"op":"apply_delta","payload":"{payload}"}}"#))
            .unwrap();
        assert_eq!(applied.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            applied.get("model_version").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(registry.version(), 2, "the apply really swapped");

        // A duplicate apply is refused as stale; the server keeps serving.
        let dup = client
            .round_trip(&format!(r#"{{"op":"apply_delta","payload":"{payload}"}}"#))
            .unwrap();
        assert_eq!(dup.get("ok").and_then(Value::as_bool), Some(false));
        assert!(dup
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("stale version"));

        let ckpt = client.round_trip(r#"{"op":"checkpoint"}"#).unwrap();
        assert_eq!(ckpt.get("payload").and_then(Value::as_str), Some("01"));

        server.shutdown();
    }

    #[test]
    fn client_shutdown_op_stops_the_server() {
        let server = start_server();
        let addr = server.local_addr();
        let mut client = NclClient::connect(addr).unwrap();
        let bye = client.shutdown().unwrap();
        assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
        // wait() returns because the client-triggered stop unblocked the
        // accept loop.
        server.wait();
    }
}
