//! The fleet member: [`ElasticReplica`], the one
//! [`ncl_serve::ReplicaSync`] implementation a serve instance mounts
//! (via [`ncl_serve::Server::start_with_obs`]) to join a fleet.
//!
//! A replica is a follower or the learner, and changes role over the
//! wire. As a follower it holds the fleet's full daemon state (a
//! [`Checkpoint`]): `apply_delta` decodes, applies against the held
//! base — bit-identity enforced by the delta's target CRC — and
//! hot-swaps the registry at the learner's exact version; any mismatch
//! reports an error precise enough for the router to fall back to a
//! full checkpoint. Promoted, it trains from the stream and publishes a
//! checkpoint delta after every increment, answering `delta` /
//! `checkpoint` fetches and refusing applies (nothing overwrites the
//! learner's state but its own training). After every publish it
//! nudges the router that last probed it (`published`), so the router's
//! sync pass relays the delta at once rather than on its next tick. A
//! fresh fleet's learner is simply a replica promoted at epoch 1.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ncl_obs::{Counter, Log2Histogram, Registry};
use ncl_online::checkpoint::Checkpoint;
use ncl_online::daemon::{IngestOutcome, OnlineConfig, OnlineLearner};
use ncl_online::delta::CheckpointDelta;
use ncl_online::error::OnlineError;
use ncl_online::publish::DeltaPublisher;
use ncl_online::stream::SampleStream;
use ncl_serve::client::{ClientConfig, NclClient};
use ncl_serve::error::ServeError;
use ncl_serve::registry::ModelRegistry;
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

/// Connect/read/write cap on one `published` nudge. The router answers
/// at once; a lost nudge only costs the wait for its next tick.
const NUDGE_TIMEOUT: Duration = Duration::from_millis(250);

/// Maps a replication-layer decode/apply failure onto the wire error.
fn repl(e: &OnlineError) -> ServeError {
    ServeError::Replication {
        detail: e.to_string(),
    }
}

/// Applies an encoded delta against `state`, hot-swapping `registry`.
/// `state` only advances if the swap succeeded.
fn apply_delta_to(
    registry: &ModelRegistry,
    state: &mut Checkpoint,
    payload: &[u8],
) -> Result<u64, ServeError> {
    let delta = CheckpointDelta::from_bytes(payload).map_err(|e| repl(&e))?;
    if delta.version <= state.version {
        return Err(ServeError::StaleVersion {
            current: state.version,
            proposed: delta.version,
        });
    }
    let next = delta.apply(state).map_err(|e| repl(&e))?;
    // Swap first: if the registry refuses (shape/stale), the held
    // state must not advance either.
    let version = registry.swap_network_at(
        next.network.clone(),
        &format!("delta-v{}", next.version),
        next.version,
    )?;
    *state = next;
    Ok(version)
}

/// Applies an encoded full checkpoint against `state`, hot-swapping
/// `registry` (the fallback path when no delta bridges the gap).
fn apply_checkpoint_to(
    registry: &ModelRegistry,
    state: &mut Checkpoint,
    payload: &[u8],
) -> Result<u64, ServeError> {
    let next = Checkpoint::from_bytes(payload).map_err(|e| repl(&e))?;
    if next.config_digest != state.config_digest {
        return Err(ServeError::Replication {
            detail: "checkpoint from a differently-configured fleet".into(),
        });
    }
    if next.version <= state.version {
        return Err(ServeError::StaleVersion {
            current: state.version,
            proposed: next.version,
        });
    }
    let version = registry.swap_network_at(
        next.network.clone(),
        &format!("checkpoint-v{}", next.version),
        next.version,
    )?;
    *state = next;
    Ok(version)
}

/// What an [`ElasticReplica`] currently is. The variants own exactly
/// the state that differs between the roles; everything role-agnostic
/// (registry, stream, config, counters) lives on the replica itself and
/// survives role changes.
enum RoleState {
    /// Serving + applying: the mirrored fleet checkpoint (boxed to keep
    /// the variants' footprints comparable).
    Follower { state: Box<Checkpoint> },
    /// Training + publishing: the delta ring, plus the handle and stop
    /// flag of the internal ingest thread.
    Learner {
        publisher: Arc<DeltaPublisher>,
        stop: Arc<AtomicBool>,
        ingest: Option<std::thread::JoinHandle<()>>,
    },
}

/// A replica that can change role over the wire — the member type of an
/// elastic fleet.
///
/// It starts as a follower (mirroring a bootstrap [`Checkpoint`],
/// applying deltas). On `promote` it resumes an [`OnlineLearner`] from
/// its *currently applied* checkpoint — the crash-safe resume path,
/// reached over the wire — and spawns an internal ingest thread that
/// continues the deterministic sample stream from the checkpoint's
/// cursor, publishing a delta after every increment. Because the stream
/// and training are deterministic, the promoted replica publishes
/// byte-for-byte the checkpoints the dead learner would have published,
/// so survivors converge exactly as if nothing had failed.
///
/// On `demote` (a deposed learner rejoining a fleet that moved on) the
/// ingest thread is stopped and joined, and the replica falls back to
/// mirroring its last *published* checkpoint.
///
/// Every role change and fenced write goes through the replica's
/// monotonic fleet-epoch fence: `promote` must strictly advance it,
/// `demote` and stamped applies must not regress it.
pub struct ElasticReplica {
    config: OnlineConfig,
    stream: SampleStream,
    pace: Duration,
    registry: Arc<ModelRegistry>,
    obs: Arc<Registry>,
    /// Shared with the ingest thread, which stamps its nudges with it.
    epoch: Arc<AtomicU64>,
    /// The router whose health probe arrived last: where the ingest
    /// thread sends its `published` nudges.
    router: Arc<Mutex<Option<SocketAddr>>>,
    role: Mutex<RoleState>,
    deltas_applied: Arc<Counter>,
    full_syncs: Arc<Counter>,
    apply_bytes: Arc<Log2Histogram>,
    /// Encoded size of every delta this replica published as learner.
    delta_bytes: Arc<Log2Histogram>,
    /// The error that stopped the ingest thread, if any (surfaced via
    /// `health` — the thread itself must never panic).
    ingest_error: Arc<Mutex<Option<String>>>,
}

impl ElasticReplica {
    /// Builds an elastic replica in follower role from its bootstrap
    /// checkpoint. `stream` and `pace` are dormant until a promotion:
    /// they define the event stream a promoted learner continues.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] for an invalid config or a bootstrap
    /// checkpoint from a differently-configured fleet (promotion would
    /// fail late otherwise; refuse it early).
    pub fn follower(
        config: OnlineConfig,
        initial: Checkpoint,
        stream: SampleStream,
        pace: Duration,
        obs: Arc<Registry>,
    ) -> Result<Self, ServeError> {
        config.validate().map_err(|e| repl(&e))?;
        if initial.config_digest != config.determinism_digest() {
            return Err(ServeError::Replication {
                detail: "bootstrap checkpoint from a differently-configured fleet".into(),
            });
        }
        // A replica starting past v1 (a resume or a cold join) labels
        // its model the way a full-checkpoint apply does.
        let source = match initial.version {
            1 => "bootstrap".to_owned(),
            v => format!("checkpoint-v{v}"),
        };
        let registry = Arc::new(ModelRegistry::with_initial_version(
            initial.network.clone(),
            &source,
            initial.version,
        ));
        Ok(ElasticReplica {
            config,
            stream,
            pace,
            registry,
            obs,
            epoch: Arc::new(AtomicU64::new(0)),
            router: Arc::new(Mutex::new(None)),
            role: Mutex::new(RoleState::Follower {
                state: Box::new(initial),
            }),
            deltas_applied: Arc::new(Counter::new()),
            full_syncs: Arc::new(Counter::new()),
            apply_bytes: Arc::new(Log2Histogram::new()),
            delta_bytes: Arc::new(Log2Histogram::new()),
            ingest_error: Arc::new(Mutex::new(None)),
        })
    }

    /// [`ElasticReplica::follower`] from an encoded checkpoint — the
    /// cold-join path: a new replica fetches the fleet's checkpoint
    /// through the router and starts from these bytes.
    ///
    /// # Errors
    ///
    /// As [`ElasticReplica::follower`], plus decode failures.
    pub fn from_checkpoint_bytes(
        config: OnlineConfig,
        payload: &[u8],
        stream: SampleStream,
        pace: Duration,
        obs: Arc<Registry>,
    ) -> Result<Self, ServeError> {
        let initial = Checkpoint::from_bytes(payload).map_err(|e| repl(&e))?;
        ElasticReplica::follower(config, initial, stream, pace, obs)
    }

    /// The registry this replica serves through (in both roles).
    #[must_use]
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Exposes this replica's replication series in `registry`: the
    /// `replica_*` families of what it applied as follower and the
    /// `online_delta_bytes` sizes of what it published as learner
    /// (shared handles that keep counting across role changes).
    pub fn register_into(&self, registry: &Registry) {
        let _ = registry.adopt_counter(
            "replica_deltas_applied_total",
            &[],
            "Checkpoint deltas this follower applied.",
            Arc::clone(&self.deltas_applied),
        );
        let _ = registry.adopt_counter(
            "replica_full_syncs_total",
            &[],
            "Full-checkpoint resyncs this follower applied.",
            Arc::clone(&self.full_syncs),
        );
        let _ = registry.adopt_histogram(
            "replica_apply_bytes",
            &[],
            "Payload size of applied deltas and checkpoints in bytes.",
            Arc::clone(&self.apply_bytes),
        );
        let _ = registry.adopt_histogram(
            "online_delta_bytes",
            &[],
            "Encoded size of published checkpoint deltas in bytes.",
            Arc::clone(&self.delta_bytes),
        );
    }

    /// The fleet epoch this replica is fenced at.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The error that stopped a promoted learner's ingest thread, if
    /// one occurred.
    #[must_use]
    pub(crate) fn ingest_error(&self) -> Option<String> {
        self.ingest_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// This replica's current full checkpoint encoding — the applied
    /// state as a follower, the published state as a learner
    /// (bit-identity checks in tests and benches).
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.versioned_checkpoint().1
    }

    /// The version and full encoding of the checkpoint
    /// [`ElasticReplica::checkpoint_bytes`] returns, read together.
    fn versioned_checkpoint(&self) -> (u64, Vec<u8>) {
        let role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*role {
            RoleState::Follower { state } => (state.version, state.to_bytes()),
            RoleState::Learner { publisher, .. } => publisher.latest(),
        }
    }
}

impl Drop for ElasticReplica {
    fn drop(&mut self) {
        // A promoted learner owns a live ingest thread; stop and join
        // it so a dropped replica never leaves training running.
        let mut role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let RoleState::Learner { stop, ingest, .. } = &mut *role {
            stop.store(true, Ordering::Release);
            if let Some(handle) = ingest.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Tells `router` (if any has probed this replica) that the learner at
/// `epoch` published `version`. Best effort: errors are ignored, since
/// the router's tick covers a lost nudge.
fn nudge_router(router: &Mutex<Option<SocketAddr>>, version: u64, epoch: u64) {
    let Some(router) = *router
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    else {
        return;
    };
    if let Ok(mut client) =
        NclClient::connect_with(router, ClientConfig::with_timeout(NUDGE_TIMEOUT))
    {
        let _ = client.published(version, epoch);
    }
}

/// The promoted learner's ingest loop: continue the deterministic
/// stream from the resumed checkpoint's cursor, publish after every
/// increment (timed as `online_stage_us{stage="publish"}` in the
/// learner's registry) and hand `published` the new version and the
/// delta's size, stop on demand. Runs on its own thread; must never
/// panic — failures park in `ingest_error` and end the loop.
fn run_ingest(
    mut learner: OnlineLearner,
    stream: &SampleStream,
    pace: Duration,
    publisher: &DeltaPublisher,
    published: impl Fn(u64, usize),
    stop: &AtomicBool,
    ingest_error: &Mutex<Option<String>>,
) {
    let fail = |message: String| {
        *ingest_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(message);
    };
    let publish_stage = learner.obs().stage("online_stage_us", "publish");
    let cursor = learner.cursor();
    for event in stream.events_from(cursor) {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match learner.ingest(event) {
            Ok(IngestOutcome::Increment(_)) => {
                let span = publish_stage.enter();
                let outcome = publisher.publish(learner.checkpoint());
                span.close();
                match outcome {
                    Ok(size) => published(publisher.version(), size),
                    Err(e) => {
                        fail(format!("publishing an increment failed: {e}"));
                        return;
                    }
                }
            }
            Ok(_) => {}
            Err(e) => {
                fail(format!("ingest failed: {e}"));
                return;
            }
        }
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
}

impl ReplicaSync for ElasticReplica {
    fn role(&self) -> &'static str {
        let role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*role {
            RoleState::Follower { .. } => "follower",
            RoleState::Learner { .. } => "learner",
        }
    }

    fn health_extra(&self) -> Vec<(&'static str, Value)> {
        let mut extra = vec![
            ("elastic", Value::from(true)),
            ("deltas_applied", Value::from(self.deltas_applied.get())),
            ("full_syncs", Value::from(self.full_syncs.get())),
        ];
        let role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let RoleState::Learner { publisher, .. } = &*role {
            extra.push(("published_version", Value::from(publisher.version())));
        }
        drop(role);
        if let Some(message) = self.ingest_error() {
            extra.push(("ingest_error", Value::from(message)));
        }
        extra
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn observe_router(&self, router: SocketAddr) {
        *self
            .router
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(router);
    }

    fn observe_epoch(&self, epoch: u64) -> Result<(), ServeError> {
        // fetch_max adopts a newer epoch and reports the old fence in
        // one atomic step.
        let fenced = self.epoch.fetch_max(epoch, Ordering::AcqRel);
        if epoch < fenced {
            return Err(ServeError::Replication {
                detail: format!(
                    "write fenced: stamped epoch {epoch} is behind fleet epoch {fenced}"
                ),
            });
        }
        Ok(())
    }

    fn promote(&self, epoch: u64) -> Result<u64, ServeError> {
        let mut role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Check and raise the fence in one atomic step, so a concurrent
        // observe_epoch can never be overwritten by an older epoch. The
        // fence stays raised even if the role change below fails: the
        // router has moved the fleet to `epoch` either way.
        let fenced = self.epoch.fetch_max(epoch, Ordering::AcqRel);
        if epoch <= fenced {
            return Err(ServeError::Replication {
                detail: format!("promotion epoch {epoch} does not advance the fence {fenced}"),
            });
        }
        match &mut *role {
            // Already the learner; the fence now carries the newer epoch.
            RoleState::Learner { publisher, .. } => Ok(publisher.version()),
            RoleState::Follower { state } => {
                let learner = OnlineLearner::resume_into_registry_with_obs(
                    self.config.clone(),
                    (**state).clone(),
                    Arc::clone(&self.registry),
                    Arc::clone(&self.obs),
                )
                .map_err(|e| repl(&e))?;
                let version = learner.version();
                let publisher = Arc::new(DeltaPublisher::with_ring(
                    learner.checkpoint(),
                    self.config.delta_ring,
                ));
                let stop = Arc::new(AtomicBool::new(false));
                let thread_stream = self.stream.clone();
                let thread_publisher = Arc::clone(&publisher);
                let thread_stop = Arc::clone(&stop);
                let thread_error = Arc::clone(&self.ingest_error);
                let (delta_bytes, router, epoch) = (
                    Arc::clone(&self.delta_bytes),
                    Arc::clone(&self.router),
                    Arc::clone(&self.epoch),
                );
                let published = move |version: u64, size: usize| {
                    delta_bytes.record(size as u64);
                    nudge_router(&router, version, epoch.load(Ordering::Acquire));
                };
                let pace = self.pace;
                let ingest = std::thread::Builder::new()
                    .name("ncl-elastic-ingest".into())
                    .spawn(move || {
                        run_ingest(
                            learner,
                            &thread_stream,
                            pace,
                            &thread_publisher,
                            published,
                            &thread_stop,
                            &thread_error,
                        );
                    })
                    .map_err(|e| ServeError::Replication {
                        detail: format!("could not spawn the ingest thread: {e}"),
                    })?;
                *role = RoleState::Learner {
                    publisher,
                    stop,
                    ingest: Some(ingest),
                };
                Ok(version)
            }
        }
    }

    fn demote(&self, epoch: u64) -> Result<u64, ServeError> {
        let mut role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // One atomic check-and-raise, as in promote.
        let fenced = self.epoch.fetch_max(epoch, Ordering::AcqRel);
        if epoch < fenced {
            return Err(ServeError::Replication {
                detail: format!("demotion epoch {epoch} is behind the fence {fenced}"),
            });
        }
        let version = match &mut *role {
            RoleState::Follower { state } => state.version,
            RoleState::Learner {
                publisher,
                stop,
                ingest,
            } => {
                stop.store(true, Ordering::Release);
                if let Some(handle) = ingest.take() {
                    let _ = handle.join();
                }
                // Fall back to mirroring the last *published* state:
                // that is what the fleet saw, and what deltas/full
                // syncs from the new learner will be built against.
                let state =
                    Checkpoint::from_bytes(&publisher.checkpoint_bytes()).map_err(|e| repl(&e))?;
                let version = state.version;
                *role = RoleState::Follower {
                    state: Box::new(state),
                };
                version
            }
        };
        Ok(version)
    }

    fn fetch_delta(&self, base_version: u64) -> Result<(u64, Vec<u8>), ServeError> {
        let role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*role {
            RoleState::Follower { .. } => Err(ServeError::Replication {
                detail: "followers do not publish deltas".into(),
            }),
            RoleState::Learner { publisher, .. } => {
                publisher
                    .delta_from(base_version)
                    .ok_or_else(|| ServeError::NoRetainedDelta {
                        base_version,
                        published: publisher.version(),
                    })
            }
        }
    }

    fn apply_delta(&self, payload: &[u8]) -> Result<u64, ServeError> {
        let mut role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *role {
            RoleState::Learner { .. } => Err(ServeError::Replication {
                detail: "the learner's state comes from training, not pushed deltas".into(),
            }),
            RoleState::Follower { state } => {
                let version = apply_delta_to(&self.registry, state, payload)?;
                self.deltas_applied.inc();
                self.apply_bytes.record(payload.len() as u64);
                Ok(version)
            }
        }
    }

    fn fetch_checkpoint(&self) -> Result<(u64, Vec<u8>), ServeError> {
        Ok(self.versioned_checkpoint())
    }

    fn apply_checkpoint(&self, payload: &[u8]) -> Result<u64, ServeError> {
        let mut role = self
            .role
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *role {
            RoleState::Learner { .. } => Err(ServeError::Replication {
                detail: "the learner's state comes from training, not pushed checkpoints".into(),
            }),
            RoleState::Follower { state } => {
                let version = apply_checkpoint_to(&self.registry, state, payload)?;
                self.full_syncs.inc();
                self.apply_bytes.record(payload.len() as u64);
                Ok(version)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ncl_snn::{Network, NetworkConfig};
    use ncl_spike::memory::Alignment;
    use ncl_spike::SpikeRaster;
    use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer};

    fn checkpoint(version: u64) -> Checkpoint {
        let mut network = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
        network
            .visit_trainable_mut(1, |slice| {
                for v in slice.iter_mut() {
                    *v += version as f32 * 0.5;
                }
            })
            .unwrap();
        let mut buffer = LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 8_192);
        for i in 0..version.min(4) as u16 {
            let act = SpikeRaster::from_fn(4, 8, |n, t| (n + t + i as usize).is_multiple_of(3));
            buffer.push(LatentEntry::reduced(act, 16, i));
        }
        Checkpoint {
            version,
            cursor: version * 5,
            event_digest: version ^ 0x99,
            config_digest: OnlineConfig::smoke().determinism_digest(),
            known_classes: vec![0, 1],
            network,
            buffer,
            pending: Vec::new(),
        }
    }

    /// A follower-role replica over `initial`, in the synthetic fleet.
    fn follower(initial: Checkpoint) -> ElasticReplica {
        let (config, stream) = testkit::synth_fleet().unwrap();
        let obs = Arc::new(Registry::new());
        ElasticReplica::follower(config, initial, stream, Duration::ZERO, obs).unwrap()
    }

    /// A replica promoted at epoch 1 over the test fleet's bootstrap and
    /// left to publish its whole stream, with the reference run it must
    /// match and the registry it exports into.
    fn promoted_learner() -> (ElasticReplica, testkit::Reference, Arc<Registry>) {
        let (config, stream_config) = testkit::test_config();
        let stream = SampleStream::generate(&stream_config).unwrap();
        let reference = testkit::reference_run(&config, &stream).unwrap();
        assert!(
            reference.version > 1,
            "the stream must produce an increment"
        );
        let obs = Arc::new(Registry::new());
        let learner = ElasticReplica::follower(
            config,
            reference.bootstrap.clone(),
            stream,
            Duration::ZERO,
            Arc::clone(&obs),
        )
        .unwrap();
        learner.register_into(&obs);
        assert_eq!(learner.promote(1).unwrap(), 1);
        assert_eq!(learner.role(), "learner");
        testkit::poll_until(Duration::from_secs(60), "the last increment", || {
            learner.checkpoint_bytes() == reference.published
        })
        .unwrap();
        (learner, reference, obs)
    }

    #[test]
    fn follower_applies_deltas_bit_identically_and_rejects_mismatches() {
        let base = checkpoint(1);
        let next = checkpoint(2);
        let after = checkpoint(3);
        let follower = follower(base.clone());
        assert_eq!(follower.registry().version(), 1);

        let delta = CheckpointDelta::between(&base, &next, &next.to_bytes()).unwrap();
        let version = follower.apply_delta(&delta.to_bytes()).unwrap();
        assert_eq!(version, 2);
        assert_eq!(follower.registry().version(), 2);
        assert_eq!(follower.checkpoint_bytes(), next.to_bytes());
        assert_eq!(follower.registry().current().network, next.network);
        assert_eq!(follower.deltas_applied.get(), 1);

        // The same delta again: stale, state untouched.
        assert!(matches!(
            follower.apply_delta(&delta.to_bytes()),
            Err(ServeError::StaleVersion {
                current: 2,
                proposed: 2
            })
        ));

        // A delta skipping the held base: replication error (router
        // falls back to a full checkpoint), state untouched.
        let wrong_base =
            CheckpointDelta::between(&after, &checkpoint(4), &checkpoint(4).to_bytes()).unwrap();
        assert!(matches!(
            follower.apply_delta(&wrong_base.to_bytes()),
            Err(ServeError::Replication { .. })
        ));
        // Garbage bytes too.
        assert!(follower.apply_delta(&[0xFF; 16]).is_err());
        assert_eq!(follower.checkpoint_bytes(), next.to_bytes());

        // The fallback: a full checkpoint jumps straight to v4.
        let v = follower
            .apply_checkpoint(&checkpoint(4).to_bytes())
            .unwrap();
        assert_eq!(v, 4);
        assert_eq!(follower.full_syncs.get(), 1);
        assert_eq!(follower.registry().version(), 4);
    }

    #[test]
    fn follower_rejects_foreign_and_stale_checkpoints() {
        let follower = follower(checkpoint(3));
        let mut foreign = checkpoint(5);
        foreign.config_digest ^= 1;
        assert!(matches!(
            follower.apply_checkpoint(&foreign.to_bytes()),
            Err(ServeError::Replication { .. })
        ));
        assert!(matches!(
            follower.apply_checkpoint(&checkpoint(3).to_bytes()),
            Err(ServeError::StaleVersion { .. })
        ));
        assert_eq!(follower.registry().version(), 3);
    }

    #[test]
    fn learner_serves_its_publisher_and_refuses_applies() {
        let (learner, reference, _) = promoted_learner();
        let target = reference.version;

        let (version, bytes) = learner.fetch_delta(target - 1).unwrap();
        assert_eq!(version, target);
        assert!(CheckpointDelta::from_bytes(&bytes).is_ok());
        assert!(learner.fetch_delta(target + 7).is_err());
        assert_eq!(
            learner.fetch_checkpoint().unwrap(),
            (target, reference.published)
        );
        assert!(learner.apply_delta(&bytes).is_err());
        assert!(learner.apply_checkpoint(&[]).is_err());
    }

    #[test]
    fn promoted_replica_exports_one_delta_size_per_increment() {
        let (learner, reference, obs) = promoted_learner();
        let increments = reference.version - 1;
        let published: u64 = (1..reference.version)
            .map(|base| learner.fetch_delta(base).unwrap().1.len() as u64)
            .sum();
        // The size is recorded just after the publish lands.
        let count = format!("online_delta_bytes_count {increments}\n");
        testkit::poll_until(Duration::from_secs(10), "the delta-size sample", || {
            obs.render().contains(&count)
        })
        .unwrap();
        let text = obs.render();
        assert!(
            text.contains(&format!("online_delta_bytes_sum {published}\n")),
            "one sample per published delta, of its encoded size:\n{text}"
        );
        // The publish span closes before the size is recorded.
        assert!(
            text.contains(&format!(
                "online_stage_us_count{{stage=\"publish\"}} {increments}\n"
            )),
            "one publish span per increment:\n{text}"
        );
    }

    #[test]
    fn epoch_fence_only_moves_forward_under_concurrent_observe_and_demote() {
        use std::sync::Barrier;

        const THREADS: u64 = 4;
        const ROUNDS: u64 = 5_000;
        let replica = follower(checkpoint(1));
        let start = Barrier::new(THREADS as usize + 2);
        let (done, regressed) = (AtomicBool::new(false), AtomicBool::new(false));
        // Epochs come from one counter, so they rise in the order the
        // calls start: a stale store would undo a fresher raise.
        let next_epoch = AtomicU64::new(0);
        std::thread::scope(|s| {
            // A watcher: the fence must never move backwards, not even
            // transiently.
            s.spawn(|| {
                start.wait();
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let now = replica.current_epoch();
                    if now < last {
                        regressed.store(true, Ordering::Release);
                    }
                    last = now;
                }
            });
            // Holding the role lock keeps demotions waiting on it while
            // observers raise the fence.
            s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let _ = replica.fetch_checkpoint();
                }
            });
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (replica, start, next_epoch) = (&replica, &start, &next_epoch);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..ROUNDS {
                            let epoch = next_epoch.fetch_add(1, Ordering::Relaxed) + 1;
                            if (i + t) % 2 == 0 {
                                let _ = replica.observe_epoch(epoch);
                            } else {
                                let _ = replica.demote(epoch);
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        assert!(
            !regressed.load(Ordering::Acquire),
            "the fence moved backwards"
        );
        let highest = ROUNDS * THREADS;
        assert_eq!(
            replica.current_epoch(),
            highest,
            "the fence must end at the highest epoch"
        );
        for stale in [0, 1, highest / 2, highest - 1] {
            assert!(
                replica.observe_epoch(stale).is_err(),
                "stamp {stale} accepted"
            );
            assert!(
                replica.demote(stale).is_err(),
                "demotion at {stale} accepted"
            );
            assert!(
                replica.promote(stale).is_err(),
                "promotion at {stale} accepted"
            );
        }
        assert_eq!(replica.current_epoch(), highest);
        assert_eq!(replica.role(), "follower");
    }

    #[test]
    fn a_role_change_parked_on_the_role_lock_cannot_lower_a_raised_fence() {
        for promote in [false, true] {
            let replica = follower(checkpoint(1));
            std::thread::scope(|s| {
                let held = replica.role.lock().unwrap();
                let change = s.spawn(|| {
                    if promote {
                        replica.promote(5)
                    } else {
                        replica.demote(5)
                    }
                });
                // Give the role change time to reach the lock and park
                // on it. The interleaving cannot be forced from outside;
                // the sleep only decides whether a stale store would
                // show, never whether correct code passes.
                std::thread::sleep(Duration::from_millis(50));
                replica.observe_epoch(9).unwrap();
                drop(held);
                assert!(
                    change.join().unwrap().is_err(),
                    "a role change behind the raised fence must be refused (promote: {promote})"
                );
            });
            assert_eq!(replica.current_epoch(), 9);
            assert_eq!(replica.role(), "follower");
        }
    }
}
