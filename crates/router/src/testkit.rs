//! The fleet harness shared by the router's integration tests and its
//! bench binaries (`ncl-router-bench`, `ncl-fleet-bench`).
//!
//! Everything here builds real fleets over real TCP: [`start_node`]
//! mounts an [`ElasticReplica`] on a live server, [`SynthLearner`] is a
//! ring-limited publisher the ring tests advance by hand, [`Load`] is a
//! closed-loop client counting what it saw. Every helper reports
//! failures as errors instead of panicking, so a bench can exit with a
//! message and a test can `unwrap` with one.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncl_obs::Registry;
use ncl_online::checkpoint::Checkpoint;
use ncl_online::daemon::{IngestOutcome, OnlineConfig, OnlineLearner};
use ncl_online::publish::DeltaPublisher;
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_serve::client::NclClient;
use ncl_serve::error::ServeError;
use ncl_serve::registry::ModelRegistry;
use ncl_serve::server::{Server, ServerConfig};
use ncl_serve::sync::ReplicaSync;
use ncl_snn::{Network, NetworkConfig};
use ncl_spike::memory::Alignment;
use ncl_spike::SpikeRaster;
use replay4ncl::buffer::LatentReplayBuffer;
use serde_json::Value;

use crate::replica::ElasticReplica;

/// What every harness helper fails with.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Debug-CI-sized fleet config: bootstraps in seconds, and its stream
/// still produces a real increment (a novel class plus threshold
/// arrivals).
#[must_use]
pub fn test_config() -> (OnlineConfig, StreamConfig) {
    let mut config = OnlineConfig::smoke();
    config.scenario.pretrain_epochs = 4;
    config.scenario.cl_epochs = 3;
    config.scenario.parallelism = 2;
    config.arrival_threshold = 3;
    let stream = StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: 10,
        total_events: 26,
        novel_every: 2,
        seed: 0x0DDB,
    };
    (config, stream)
}

/// What a never-faulted learner produces over a stream: the bootstrap
/// every replica starts from, and the last checkpoint it publishes.
pub struct Reference {
    /// The shared v1 bootstrap checkpoint.
    pub bootstrap: Checkpoint,
    /// The encoding of the checkpoint at the final increment — the
    /// bytes every converged replica must hold.
    pub published: Vec<u8>,
    /// Its version.
    pub version: u64,
}

/// Bootstraps `config` and ingests all of `stream` inline. Determinism
/// makes the result the exact state a promoted replica publishes.
///
/// # Errors
///
/// Bootstrap or ingest failures.
pub fn reference_run(config: &OnlineConfig, stream: &SampleStream) -> Result<Reference, Error> {
    let mut learner = OnlineLearner::bootstrap(config.clone())?;
    let bootstrap = learner.checkpoint();
    let mut published = learner.checkpoint_bytes();
    // The live state keeps drifting after the last increment (cursor
    // and pending samples advance on every event), so the published
    // bytes are captured at each increment, not at stream end.
    for event in stream.events_from(learner.cursor()) {
        if let IngestOutcome::Increment(_) = learner.ingest(event)? {
            published = learner.checkpoint_bytes();
        }
    }
    Ok(Reference {
        bootstrap,
        published,
        version: learner.version(),
    })
}

/// One fleet member: an elastic replica and the server it is mounted
/// on (whose `obs()` registry the replica exports into).
pub struct Node {
    pub replica: Arc<ElasticReplica>,
    pub server: Server,
}

/// Boots an elastic follower from `bootstrap` and mounts it on a live
/// server. `stream` and `pace` only matter once it is promoted.
///
/// # Errors
///
/// A refused bootstrap checkpoint or a server that fails to start.
pub fn start_node(
    config: &OnlineConfig,
    bootstrap: &Checkpoint,
    stream: &SampleStream,
    pace: Duration,
) -> Result<Node, Error> {
    let obs = Arc::new(Registry::new());
    let replica = Arc::new(ElasticReplica::follower(
        config.clone(),
        bootstrap.clone(),
        stream.clone(),
        pace,
        Arc::clone(&obs),
    )?);
    replica.register_into(&obs);
    let sync: Arc<dyn ReplicaSync> = Arc::clone(&replica) as Arc<dyn ReplicaSync>;
    let server =
        Server::start_with_obs(replica.registry(), ServerConfig::default(), Some(sync), obs)?;
    Ok(Node { replica, server })
}

impl Node {
    /// A numeric field of the replica's `health` extras (0 if absent),
    /// e.g. a learner's `published_version`.
    #[must_use]
    pub fn health_count(&self, key: &str) -> u64 {
        self.replica
            .health_extra()
            .into_iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    }

    /// Deltas this replica applied.
    #[must_use]
    pub fn deltas_applied(&self) -> u64 {
        self.health_count("deltas_applied")
    }

    /// Full-checkpoint resyncs this replica applied.
    #[must_use]
    pub fn full_syncs(&self) -> u64 {
        self.health_count("full_syncs")
    }
}

/// The fleet a synthetic checkpoint chain claims to come from: the
/// config whose digest every [`synth`] checkpoint carries (so
/// [`ElasticReplica::follower`] accepts them), and a one-event stream
/// that only a promotion would ever read.
///
/// # Errors
///
/// Stream generation failures.
pub(crate) fn synth_fleet() -> Result<(OnlineConfig, SampleStream), Error> {
    let config = OnlineConfig::smoke();
    let stream = SampleStream::generate(&StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: 1,
        total_events: 1,
        novel_every: 1,
        seed: 0,
    })?;
    Ok((config, stream))
}

/// A hand-built checkpoint at `version` with distinct weights, so
/// deltas between versions are real payloads. Lets the ring tests walk
/// many versions without paying for training.
///
/// # Errors
///
/// Network construction failures.
pub fn synth(version: u64) -> Result<Checkpoint, Error> {
    let mut network = Network::new(NetworkConfig::tiny(6, 3))?;
    network.visit_trainable_mut(1, |slice| {
        for v in slice.iter_mut() {
            *v += version as f32 * 0.01;
        }
    })?;
    Ok(Checkpoint {
        version,
        cursor: version * 10,
        event_digest: version ^ 0xAB,
        config_digest: OnlineConfig::smoke().determinism_digest(),
        known_classes: vec![0, 1],
        network,
        buffer: LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 8_192),
        pending: Vec::new(),
    })
}

/// A follower holding `synth(1)`, mounted on a live server.
///
/// # Errors
///
/// As [`start_node`].
pub fn start_synth_follower() -> Result<Node, Error> {
    let (config, stream) = synth_fleet()?;
    start_node(&config, &synth(1)?, &stream, Duration::ZERO)
}

/// The ring tests' learner: serves deltas and checkpoints from a
/// publisher the test advances by hand, refuses every apply.
struct PublisherSync(Arc<DeltaPublisher>);

impl ReplicaSync for PublisherSync {
    fn role(&self) -> &'static str {
        "learner"
    }

    fn fetch_delta(&self, base_version: u64) -> Result<(u64, Vec<u8>), ServeError> {
        self.0
            .delta_from(base_version)
            .ok_or_else(|| ServeError::NoRetainedDelta {
                base_version,
                published: self.0.version(),
            })
    }

    fn apply_delta(&self, _payload: &[u8]) -> Result<u64, ServeError> {
        Err(ServeError::Replication {
            detail: "the synthetic learner accepts no deltas".into(),
        })
    }

    fn fetch_checkpoint(&self) -> Result<(u64, Vec<u8>), ServeError> {
        Ok(self.0.latest())
    }

    fn apply_checkpoint(&self, _payload: &[u8]) -> Result<u64, ServeError> {
        Err(ServeError::Replication {
            detail: "the synthetic learner accepts no checkpoints".into(),
        })
    }
}

/// A synthetic learner: a ring-limited publisher of [`synth`]
/// checkpoints fronted by a real server, whose registry is bumped with
/// every publish (what a learner's own swap does in production).
pub struct SynthLearner {
    pub publisher: Arc<DeltaPublisher>,
    registry: Arc<ModelRegistry>,
    pub server: Server,
}

impl SynthLearner {
    /// Starts at `synth(1)`, retaining `ring` deltas.
    ///
    /// # Errors
    ///
    /// As [`synth`], or a server that fails to start.
    pub fn start(ring: usize) -> Result<Self, Error> {
        let base = synth(1)?;
        let registry = Arc::new(ModelRegistry::with_initial_version(
            base.network.clone(),
            "synth",
            1,
        ));
        let publisher = Arc::new(DeltaPublisher::with_ring(base, ring));
        let sync: Arc<dyn ReplicaSync> = Arc::new(PublisherSync(Arc::clone(&publisher)));
        let server =
            Server::start_with_sync(Arc::clone(&registry), ServerConfig::default(), Some(sync))?;
        Ok(SynthLearner {
            publisher,
            registry,
            server,
        })
    }

    /// Publishes every version up to `version`, then serves it.
    ///
    /// # Errors
    ///
    /// A refused publish or swap.
    pub fn advance_to(&self, version: u64) -> Result<(), Error> {
        while self.publisher.version() < version {
            self.publisher
                .publish(synth(self.publisher.version() + 1)?)?;
        }
        self.registry
            .swap_network_at(synth(version)?.network, "synth", version)?;
        Ok(())
    }
}

/// Polls `done` every millisecond until it holds or `timeout` passes.
///
/// # Errors
///
/// `timed out waiting for {what}`.
pub fn poll_until(
    timeout: Duration,
    what: &str,
    mut done: impl FnMut() -> bool,
) -> Result<(), Error> {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}").into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// What a [`Load`] saw, summed over its connections.
#[derive(Debug, Clone, Copy)]
pub struct LoadOutcome {
    /// Predicts answered `ok`.
    pub ok: u64,
    /// Predicts refused or lost (and connections that never opened).
    pub failed: u64,
    /// Replies whose `model_version` was below an earlier reply's on
    /// the same connection.
    pub regressions: u64,
}

#[derive(Default)]
struct LoadCounters {
    ok: AtomicU64,
    failed: AtomicU64,
    regressions: AtomicU64,
}

/// Closed-loop predict load: each connection sends the next predict as
/// soon as the last one is answered, until [`Load::stop`].
pub struct Load {
    stop: Arc<AtomicBool>,
    counters: Arc<LoadCounters>,
    threads: Vec<JoinHandle<()>>,
}

impl Load {
    /// Opens `connections` clients to `addr`, each predicting `probe`.
    #[must_use]
    pub fn start(addr: SocketAddr, probe: &SpikeRaster, connections: usize) -> Load {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(LoadCounters::default());
        let threads = (0..connections)
            .map(|_| {
                let (stop, counters) = (Arc::clone(&stop), Arc::clone(&counters));
                let probe = probe.clone();
                std::thread::spawn(move || closed_loop(addr, &probe, &stop, &counters))
            })
            .collect();
        Load {
            stop,
            counters,
            threads,
        }
    }

    /// Stops every connection and returns the totals. A client thread
    /// that died counts as one failed request.
    #[must_use]
    pub fn stop(self) -> LoadOutcome {
        self.stop.store(true, Ordering::Release);
        let died = self
            .threads
            .into_iter()
            .filter_map(|t| t.join().err())
            .count();
        let c = &self.counters;
        LoadOutcome {
            ok: c.ok.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed) + died as u64,
            regressions: c.regressions.load(Ordering::Relaxed),
        }
    }
}

fn closed_loop(addr: SocketAddr, probe: &SpikeRaster, stop: &AtomicBool, c: &LoadCounters) {
    let Ok(mut client) = NclClient::connect(addr) else {
        c.failed.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let (mut id, mut last_version) = (0u64, 0u64);
    while !stop.load(Ordering::Acquire) {
        match client.predict(id, probe) {
            Ok(reply) if reply.get("ok").and_then(Value::as_bool) == Some(true) => {
                c.ok.fetch_add(1, Ordering::Relaxed);
                let version = reply
                    .get("model_version")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                if version < last_version {
                    c.regressions.fetch_add(1, Ordering::Relaxed);
                }
                last_version = version;
            }
            _ => {
                c.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        id += 1;
    }
}

/// A plain tiny-model server with no replication handler.
///
/// # Errors
///
/// Network construction or server start failures.
pub fn make_server() -> Result<Server, Error> {
    let network = Network::new(NetworkConfig::tiny(6, 3))?;
    let registry = Arc::new(ModelRegistry::new(network, "test"));
    Ok(Server::start(registry, ServerConfig::default())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::faults::{FaultAction, FaultPlan, FaultRule};
    use crate::router::{Router, RouterConfig};

    #[test]
    fn a_checkpoint_that_does_not_advance_the_follower_is_not_relayed() {
        let learner = SynthLearner::start(4).unwrap();
        let follower = start_synth_follower().unwrap();
        // The window between a learner's registry swap and its publish:
        // it serves v2, but v1 is still all it has published, so no delta
        // from the follower's v1 exists and its checkpoint is v1.
        learner
            .registry
            .swap_network_at(synth(2).unwrap().network, "synth", 2)
            .unwrap();
        // Any checkpoint relayed to the follower is dropped, and counted.
        let plan = Arc::new(FaultPlan::with_rules(
            7,
            vec![FaultRule::every(1.0, FaultAction::Drop).on_op("apply_checkpoint")],
        ));
        let follower_backend = Arc::new(Backend::new(1, follower.server.local_addr()));
        follower_backend.arm_faults(Arc::clone(&plan));
        // The delta refusal names v1 as published, so no full checkpoint
        // (which could only be v1) is even fetched: every such fetch would
        // be dropped, and counted.
        let fetches = Arc::new(FaultPlan::with_rules(
            8,
            vec![FaultRule::every(1.0, FaultAction::Drop).on_op("checkpoint")],
        ));
        let learner_backend = Arc::new(Backend::new(0, learner.server.local_addr()));
        learner_backend.arm_faults(Arc::clone(&fetches));
        let backends = vec![learner_backend, follower_backend];
        let router = Router::start(
            backends,
            RouterConfig {
                sync_interval: Duration::from_secs(3600),
                ..RouterConfig::default()
            },
        )
        .unwrap();

        router.sync_now();
        assert_eq!(plan.injected(), 0, "the stale checkpoint was relayed");
        assert_eq!(
            fetches.injected(),
            0,
            "a checkpoint that cannot advance was fetched"
        );
        let stats = router.sync_stats();
        assert_eq!((stats.full_syncs.get(), stats.failures.get()), (0, 0));
        assert_eq!(follower.replica.registry().version(), 1);

        // Once the learner publishes, the next pass ships the delta.
        learner.publisher.publish(synth(2).unwrap()).unwrap();
        router.sync_now();
        assert_eq!(stats.deltas_applied.get(), 1);
        assert_eq!(
            follower.replica.checkpoint_bytes(),
            learner.publisher.checkpoint_bytes()
        );
        assert_eq!((plan.injected(), fetches.injected()), (0, 0));

        router.shutdown();
        learner.server.shutdown();
        follower.server.shutdown();
    }
}
