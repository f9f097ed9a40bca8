//! The online continual-learning daemon: stream → replay → train →
//! hot-swap, as one deterministic state machine.
//!
//! [`OnlineLearner`] owns the learning side of a deployment: the current
//! network, the budgeted latent store, the novelty tracker and the
//! persistent [`IncrementalTrainer`] arenas. Serving stays decoupled —
//! the learner publishes through an [`ModelRegistry`] `Arc` that an
//! `ncl_serve::Server` (or any other consumer) reads, so predictions
//! keep flowing while an increment trains and the swap itself is one
//! atomic pointer exchange.
//!
//! # Lifecycle
//!
//! ```text
//!             ┌────────────────────────────────────────────────┐
//!             │          ncl-replica --role learner            │
//!  stream ───▶│ ingest ─▶ novelty check ─▶ capture latent (T*) │
//!             │    │            │                │             │
//!             │    │        known class      novel class       │
//!             │    │            │                │             │
//!             │    │     refresh replay     pending pool       │
//!             │    │      (budgeted)            │ ≥ threshold  │
//!             │    │                        increment:         │
//!             │    │                 replay ∪ pending ─▶ train │
//!             │    ▼                            │              │
//!             │ checkpoint ◀── version++ ◀── hot-swap          │
//!             └─────────────────────────────────┼──────────────┘
//!                                               ▼
//!                              ModelRegistry ─▶ ncl-serve (predictions)
//! ```
//!
//! # Determinism contract
//!
//! Every state transition is a pure function of the event sequence: the
//! trainer is byte-identical at every worker count, increment RNG streams
//! are derived from the scenario seed and the version counter, and the
//! event log digests (seq, label, action) in order. Therefore a 1-worker
//! and an N-worker daemon fed the same stream produce **byte-identical
//! checkpoints** — the property `tests/online_integration.rs` pins.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ncl_obs::{Counter, Gauge, Level, Registry as ObsRegistry, Stage};
use ncl_serve::registry::ModelRegistry;
use ncl_snn::trainer::{self, IncrementalTrainer};
use ncl_snn::Network;
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer, PushOutcome};
use replay4ncl::methods::MethodSpec;
use replay4ncl::{cache, phases, ScenarioConfig};
use serde::{Deserialize, Serialize};

use crate::checkpoint::Checkpoint;
use crate::detector::{NoveltyTracker, Observation};
use crate::error::OnlineError;
use crate::stream::{SampleStream, StreamEvent};

/// Seed salt for per-increment training RNG streams.
const INCREMENT_SALT: u64 = 0x1C4;

/// Configuration of the online daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Scenario settings (dataset shape, network, batch size, worker
    /// count, CL epochs, insertion layer).
    pub scenario: ScenarioConfig,
    /// The continual-learning method (storage policy, threshold mode,
    /// learning-rate divisor). Must use replay.
    pub method: MethodSpec,
    /// Novel-class samples to accumulate before an increment fires.
    pub arrival_threshold: usize,
    /// Capture a known-class latent into the replay store every
    /// `capture_every`-th stream event (0 disables the refresh).
    pub capture_every: u64,
    /// Latent-memory budget for the replay store (`None` = unbounded;
    /// deployments should always bound it).
    pub capacity_bits: Option<u64>,
    /// Where increments checkpoint the daemon (`None` = no persistence).
    pub checkpoint_path: Option<PathBuf>,
    /// Depth of the published-delta ring when this daemon replicates
    /// (how many versions a follower can lag and still catch up via
    /// deltas rather than a full checkpoint). Not determinism-relevant:
    /// it changes how state ships, not what the state is.
    pub delta_ring: usize,
}

fn default_delta_ring() -> usize {
    crate::publish::DeltaPublisher::DEFAULT_RING
}

impl OnlineConfig {
    /// Fast deterministic configuration over the smoke scenario:
    /// Replay4NCL storage at T* = 16, a 4-sample arrival threshold and a
    /// 16 KiBit latent budget.
    #[must_use]
    pub fn smoke() -> Self {
        let scenario = ScenarioConfig::smoke();
        let t_star = (scenario.data.steps * 2 / 5).max(1);
        OnlineConfig {
            method: MethodSpec::replay4ncl(6, t_star).with_lr_divisor(2.0),
            scenario,
            arrival_threshold: 4,
            capture_every: 4,
            capacity_bits: Some(16 * 1024),
            checkpoint_path: None,
            delta_ring: default_delta_ring(),
        }
    }

    /// Digest of every field a resumed run's future behaviour depends
    /// on: dataset/network/seed, training protocol, method knobs,
    /// arrival threshold, capture period and latent budget. Deliberately
    /// excludes `parallelism` (results are byte-identical at every
    /// worker count — the checkpoint invariance the integration tests
    /// pin) and `checkpoint_path` (where state persists does not change
    /// what the state is). Stored in every checkpoint; [`OnlineLearner::resume`]
    /// rejects a drifted config instead of silently diverging.
    #[must_use]
    pub fn determinism_digest(&self) -> u64 {
        let desc = format!(
            "{:?}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{}|{:?}",
            self.scenario.data,
            self.scenario.network,
            self.scenario.insertion_layer,
            self.scenario.pretrain_epochs,
            self.scenario.cl_epochs,
            self.scenario.pretrain_lr.to_bits(),
            self.scenario.batch_size,
            self.scenario.seed,
            self.scenario.alignment,
            self.method,
            self.arrival_threshold,
            self.capture_every,
            self.capacity_bits,
        );
        fnv1a_fold_bytes(EVENT_DIGEST_SEED, desc.as_bytes())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), OnlineError> {
        self.scenario.validate()?;
        self.method.validate()?;
        if !self.method.uses_replay() {
            return Err(OnlineError::InvalidConfig {
                what: "method",
                detail: "the online daemon is a replay system; the baseline method has no latent \
                         store to learn from"
                    .into(),
            });
        }
        if self.arrival_threshold == 0 {
            return Err(OnlineError::InvalidConfig {
                what: "arrival_threshold",
                detail: "must be at least 1".into(),
            });
        }
        if self.delta_ring == 0 {
            return Err(OnlineError::InvalidConfig {
                what: "delta_ring",
                detail: "the delta ring must retain at least 1 delta".into(),
            });
        }
        Ok(())
    }
}

/// What one applied event did (the event-digest payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventAction {
    /// A known-class sample passed through without touching the store.
    Observed,
    /// A known-class latent was captured into the replay store,
    /// evicting `evicted` entries.
    Captured {
        /// Entries evicted to fit the budget.
        evicted: usize,
    },
    /// A known-class capture was rejected by the budget (entry alone
    /// exceeds the capacity).
    CaptureRejected,
    /// A novel-class latent joined the pending pool.
    Pending {
        /// Pending samples of that class so far.
        pending: usize,
    },
    /// The event completed an increment, producing `version`.
    Increment {
        /// The daemon version the increment produced.
        version: u64,
    },
}

/// One applied stream event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventRecord {
    /// Stream sequence number.
    seq: u64,
    /// Sample label.
    label: u16,
    /// What the daemon did with it.
    action: EventAction,
}

impl EventRecord {
    /// Stable numeric encoding for the rolling digest.
    fn digest_words(&self) -> [u64; 3] {
        let (tag, extra) = match self.action {
            EventAction::Observed => (0u64, 0u64),
            EventAction::Captured { evicted } => (1, evicted as u64),
            EventAction::CaptureRejected => (2, 0),
            EventAction::Pending { pending } => (3, pending as u64),
            EventAction::Increment { version } => (4, version),
        };
        [self.seq, u64::from(self.label) << 32 | tag, extra]
    }
}

/// Folds one word into an FNV-1a digest.
fn fnv1a_fold(digest: u64, word: u64) -> u64 {
    fnv1a_fold_bytes(digest, &word.to_le_bytes())
}

/// Folds a byte slice into an FNV-1a digest — the one copy of the hash
/// constants shared by the event digest and the config digest.
fn fnv1a_fold_bytes(digest: u64, bytes: &[u8]) -> u64 {
    let mut d = digest;
    for &byte in bytes {
        d ^= u64::from(byte);
        d = d.wrapping_mul(0x0000_0100_0000_01B3);
    }
    d
}

/// FNV-1a offset basis — the digest of an empty event log.
pub const EVENT_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Summary of one applied increment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementReport {
    /// The daemon version the increment produced.
    pub version: u64,
    /// The registry version the swap produced (registry versions count
    /// every swap, including a resume's initial publish).
    pub registry_version: u64,
    /// The class(es) the increment learned.
    pub classes: Vec<u16>,
    /// Samples trained on per epoch (replay ∪ pending).
    pub train_samples: usize,
    /// Mean loss per CL epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall time of the training phase.
    pub train_wall: Duration,
    /// Wall time of the registry swap (the only moment serving even
    /// *could* notice — and it is a pointer exchange).
    pub swap_latency: Duration,
    /// Wall time of the checkpoint write (zero when unconfigured).
    pub checkpoint_wall: Duration,
    /// Pending latents stored into the replay buffer by this increment.
    pub stored_entries: usize,
    /// Pending latents the budget rejected (an entry alone exceeding
    /// `capacity_bits`) — nonzero means the just-learned class has less
    /// replay representation than its arrival produced; with a budget
    /// smaller than one entry it has **none**, and will be forgotten by
    /// the next increment. The learner emits a `Warn` event for it.
    pub rejected_entries: usize,
    /// Set when the increment applied and hot-swapped but its checkpoint
    /// write failed — the daemon keeps running (availability over
    /// durability), but the last durable state now predates this
    /// increment.
    pub checkpoint_error: Option<String>,
}

/// Outcome of ingesting one event.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Known class, nothing stored.
    Observed,
    /// Known class, latent captured into the replay store.
    Captured {
        /// Entries evicted to fit the budget.
        evicted: usize,
    },
    /// Known class, capture rejected by the budget.
    CaptureRejected,
    /// Novel class, waiting for the arrival threshold.
    Pending {
        /// The novel class.
        class: u16,
        /// Pending samples of it so far.
        pending: usize,
    },
    /// The event triggered an increment.
    Increment(IncrementReport),
}

/// Summary of a [`OnlineLearner::run_stream`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Events applied by this call.
    pub events_applied: usize,
    /// Increments run, in order.
    pub increments: Vec<IncrementReport>,
}

/// Pre-registered observability handles for the daemon: one registry
/// lookup per series at construction, plain atomic ops on the hot path.
/// Held behind an `Arc` so spans never borrow the learner itself.
struct Instruments {
    registry: Arc<ObsRegistry>,
    ingest: Stage,
    capture: Stage,
    replay_mix: Stage,
    train: Stage,
    swap: Stage,
    checkpoint: Stage,
    events: Arc<Counter>,
    increments: Arc<Counter>,
    checkpoint_errors: Arc<Counter>,
    version: Arc<Gauge>,
    buffer_entries: Arc<Gauge>,
    buffer_bits: Arc<Gauge>,
    pending_samples: Arc<Gauge>,
}

impl Instruments {
    fn new(registry: Arc<ObsRegistry>) -> Self {
        let stage = |name| registry.stage("online_stage_us", name);
        Instruments {
            ingest: stage("ingest"),
            capture: stage("capture"),
            replay_mix: stage("replay_mix"),
            train: stage("train"),
            swap: stage("swap"),
            checkpoint: stage("checkpoint"),
            events: registry.counter("online_events_total", "Stream events ingested."),
            increments: registry.counter(
                "online_increments_total",
                "Continual-learning increments committed.",
            ),
            checkpoint_errors: registry.counter(
                "online_checkpoint_errors_total",
                "Checkpoint writes that failed after a committed increment.",
            ),
            version: registry.gauge("online_version", "Daemon model version."),
            buffer_entries: registry.gauge(
                "online_buffer_entries",
                "Latent entries in the replay store.",
            ),
            buffer_bits: registry.gauge(
                "online_buffer_bits",
                "Latent-memory footprint of the replay store in bits.",
            ),
            pending_samples: registry.gauge(
                "online_pending_samples",
                "Novel-class samples awaiting the arrival threshold.",
            ),
            registry,
        }
    }
}

impl std::fmt::Debug for Instruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instruments").finish_non_exhaustive()
    }
}

/// The daemon state machine. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct OnlineLearner {
    config: OnlineConfig,
    obs: Arc<Instruments>,
    registry: Arc<ModelRegistry>,
    network: Network,
    buffer: LatentReplayBuffer,
    trainer: IncrementalTrainer,
    tracker: NoveltyTracker,
    /// Captured novel-class latents awaiting the arrival threshold.
    pending: Vec<(u16, SpikeRaster)>,
    cursor: u64,
    version: u64,
    event_digest: u64,
    pretrain_acc: f64,
}

impl OnlineLearner {
    /// Boots a fresh daemon: pre-trains (or loads the cached pre-trained
    /// model), seeds the replay store from the pre-training classes under
    /// the configured budget, and publishes the model as version 1.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] for invalid configs and training/data
    /// failures.
    pub fn bootstrap(config: OnlineConfig) -> Result<Self, OnlineError> {
        Self::bootstrap_with_obs(config, Arc::new(ObsRegistry::new()))
    }

    /// [`bootstrap`](OnlineLearner::bootstrap) publishing metrics,
    /// spans and events into a shared observability registry (typically
    /// the one the serving layer also renders through its `metrics`
    /// op).
    ///
    /// # Errors
    ///
    /// As [`bootstrap`](OnlineLearner::bootstrap).
    pub fn bootstrap_with_obs(
        config: OnlineConfig,
        obs: Arc<ObsRegistry>,
    ) -> Result<Self, OnlineError> {
        config.validate()?;
        let (network, pretrain_acc) = cache::pretrained_network(&config.scenario)?;
        let data = phases::scenario_data(&config.scenario)?;
        let split = phases::scenario_split(&config.scenario)?;
        let (seeded, _ops) = phases::prepare_buffer(
            &network,
            &config.scenario,
            &config.method,
            &data.train,
            &split,
        )?;

        // Re-push through a budgeted store: the phase helper builds an
        // unbounded buffer, the daemon lives under a capacity.
        let mut buffer = match config.capacity_bits {
            Some(bits) => LatentReplayBuffer::with_capacity_bits(config.scenario.alignment, bits),
            None => LatentReplayBuffer::new(config.scenario.alignment),
        };
        for entry in &seeded {
            buffer.push(entry.clone());
        }

        let tracker = NoveltyTracker::new(
            split.pretrain_classes().iter().copied(),
            config.arrival_threshold,
        );
        let registry = Arc::new(ModelRegistry::new(network.clone(), "pretrained"));
        let instruments = Arc::new(Instruments::new(obs));
        let mut trainer = IncrementalTrainer::new();
        trainer.attach_obs(&instruments.registry);
        instruments.version.set(1);
        instruments.buffer_entries.set(buffer.len() as i64);
        instruments
            .buffer_bits
            .set(buffer.footprint().total_bits as i64);
        Ok(OnlineLearner {
            config,
            obs: instruments,
            registry,
            network,
            buffer,
            trainer,
            tracker,
            pending: Vec::new(),
            cursor: 0,
            version: 1,
            event_digest: EVENT_DIGEST_SEED,
            pretrain_acc,
        })
    }

    /// Resumes a daemon from its checkpoint: model, replay store,
    /// pending novel-class latents, stream cursor, version counter and
    /// event digest all restore bit-exactly, and the restored model is
    /// published to a fresh registry. A resumed run continues exactly
    /// where an uninterrupted one would be — same future increments,
    /// same future checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::InvalidConfig`] if no checkpoint path is
    /// configured or the config's latent-store policy (capacity,
    /// alignment) contradicts the checkpoint's — a budget change needs a
    /// fresh bootstrap, not a silent mismatch between the config and the
    /// restored store — and [`OnlineError::Io`]/
    /// [`OnlineError::Checkpoint`] for unreadable or corrupt checkpoints.
    pub fn resume(config: OnlineConfig) -> Result<Self, OnlineError> {
        let path = config
            .checkpoint_path
            .as_ref()
            .ok_or_else(|| OnlineError::InvalidConfig {
                what: "checkpoint_path",
                detail: "resume needs a checkpoint path".into(),
            })?;
        let ckpt = Checkpoint::read(path)?;
        let registry = Arc::new(ModelRegistry::with_initial_version(
            ckpt.network.clone(),
            &format!("checkpoint:{}", path.display()),
            ckpt.version,
        ));
        Self::resume_into_registry_with_obs(config, ckpt, registry, Arc::new(ObsRegistry::new()))
    }

    /// Resumes from an in-memory [`Checkpoint`], publishing into an
    /// *existing* [`ModelRegistry`] — the registry a
    /// running server is already bound to. The registry must already
    /// hold the checkpoint's version (the follower applied those exact
    /// bytes before promotion), so the learner continues publishing
    /// where the registry left off and the wire-visible `model_version`
    /// never regresses.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::InvalidConfig`] if the registry's version
    /// differs from the checkpoint's, or on a determinism-digest
    /// mismatch (see [`resume`](OnlineLearner::resume)).
    pub fn resume_into_registry_with_obs(
        config: OnlineConfig,
        ckpt: Checkpoint,
        registry: Arc<ModelRegistry>,
        obs: Arc<ObsRegistry>,
    ) -> Result<Self, OnlineError> {
        config.validate()?;
        if registry.version() != ckpt.version {
            return Err(OnlineError::InvalidConfig {
                what: "registry",
                detail: format!(
                    "the serving registry is at v{} but the checkpoint is v{}; \
                     a promoted learner must resume from the exact state the \
                     registry serves",
                    registry.version(),
                    ckpt.version
                ),
            });
        }
        if ckpt.config_digest != config.determinism_digest() {
            return Err(OnlineError::InvalidConfig {
                what: "config",
                detail: format!(
                    "the checkpoint was written under a different configuration \
                     (digest {:016x}, this config {:016x}); a resumed run would \
                     silently diverge from the recorded history — changing seed, \
                     epochs, method, thresholds or budget requires a fresh bootstrap",
                    ckpt.config_digest,
                    config.determinism_digest()
                ),
            });
        }
        let mut tracker =
            NoveltyTracker::new(ckpt.known_classes.iter().copied(), config.arrival_threshold);
        // Re-observing the persisted pending labels rebuilds the tracker's
        // counts exactly (one observation per captured sample).
        for &(label, _) in &ckpt.pending {
            tracker.observe(label);
        }
        let pending = ckpt.pending;
        let instruments = Arc::new(Instruments::new(obs));
        // The trainer's arenas restart per process; the durable
        // increment count lives in the version counter.
        let mut trainer = IncrementalTrainer::new();
        trainer.attach_obs(&instruments.registry);
        instruments.version.set(ckpt.version as i64);
        instruments.buffer_entries.set(ckpt.buffer.len() as i64);
        instruments
            .buffer_bits
            .set(ckpt.buffer.footprint().total_bits as i64);
        instruments.pending_samples.set(pending.len() as i64);
        Ok(OnlineLearner {
            config,
            obs: instruments,
            registry,
            network: ckpt.network,
            buffer: ckpt.buffer,
            trainer,
            tracker,
            pending,
            cursor: ckpt.cursor,
            version: ckpt.version,
            event_digest: ckpt.event_digest,
            pretrain_acc: f64::NAN,
        })
    }

    /// The daemon configuration.
    #[must_use]
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The registry this learner publishes to — hand it to
    /// `ncl_serve::Server::start` to serve predictions concurrently.
    #[must_use]
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// The observability registry this learner records into (stage
    /// timings, counters, structured events) — share it with a server
    /// via `Server::start_with_obs` to scrape one merged exposition.
    #[must_use]
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs.registry
    }

    /// The current network (the last published model).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The latent replay store.
    #[must_use]
    pub fn buffer(&self) -> &LatentReplayBuffer {
        &self.buffer
    }

    /// Daemon model version (1 = pretrained, +1 per increment).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Next stream sequence number the daemon expects.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Classes learned so far, sorted.
    #[must_use]
    pub fn known_classes(&self) -> &[u16] {
        self.tracker.known_classes()
    }

    /// Pending novel-class samples awaiting the arrival threshold.
    #[must_use]
    pub fn pending_samples(&self) -> usize {
        self.pending.len()
    }

    /// Rolling digest of the applied-event log.
    #[must_use]
    pub fn event_digest(&self) -> u64 {
        self.event_digest
    }

    /// Old-class test accuracy of the pre-trained model (NaN after a
    /// resume — the metric belongs to the bootstrap).
    #[must_use]
    pub fn pretrain_acc(&self) -> f64 {
        self.pretrain_acc
    }

    /// The daemon's resumable state as a checkpoint value — including
    /// the pending novel-class latents, so a checkpoint taken between an
    /// arrival and its threshold resumes to exactly the state an
    /// uninterrupted run reaches.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: self.version,
            cursor: self.cursor,
            event_digest: self.event_digest,
            config_digest: self.config.determinism_digest(),
            known_classes: self.tracker.known_classes().to_vec(),
            network: self.network.clone(),
            buffer: self.buffer.clone(),
            pending: self.pending.clone(),
        }
    }

    /// Borrowed checkpoint view — encodes the daemon state without
    /// cloning the model, the store or the pending pool (the per-increment
    /// persistence path).
    fn checkpoint_view(&self) -> crate::checkpoint::CheckpointView<'_> {
        crate::checkpoint::CheckpointView {
            version: self.version,
            cursor: self.cursor,
            event_digest: self.event_digest,
            config_digest: self.config.determinism_digest(),
            known_classes: self.tracker.known_classes(),
            network: &self.network,
            buffer: &self.buffer,
            pending: &self.pending,
        }
    }

    /// Serialized checkpoint bytes (what [`write_checkpoint`] persists).
    ///
    /// [`write_checkpoint`]: OnlineLearner::write_checkpoint
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.checkpoint_view().to_bytes()
    }

    /// Writes the checkpoint to the configured path (atomic tmp+rename).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::InvalidConfig`] if no path is configured and
    /// [`OnlineError::Io`] for write failures.
    pub fn write_checkpoint(&self) -> Result<PathBuf, OnlineError> {
        let path =
            self.config
                .checkpoint_path
                .as_ref()
                .ok_or_else(|| OnlineError::InvalidConfig {
                    what: "checkpoint_path",
                    detail: "no checkpoint path configured".into(),
                })?;
        self.checkpoint_view().write(path)?;
        Ok(path.clone())
    }

    /// Captures the latent activation of one raw input
    /// ([`phases::capture`]): decimate to the method's operating timestep,
    /// apply the method's threshold policy to the frozen stages, read the
    /// insertion-layer activation.
    fn capture_latent(&self, raster: &SpikeRaster) -> Result<SpikeRaster, OnlineError> {
        let _span = self.obs.capture.enter();
        let (latent, _ops) = phases::capture(
            &self.network,
            &self.config.scenario,
            &self.config.method,
            raster,
        )?;
        Ok(latent)
    }

    /// Ingests one stream event. Events must arrive in sequence order
    /// (`event.seq == self.cursor()`); a resumed daemon skips consumed
    /// events via [`SampleStream::events_from`].
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::OutOfOrder`] for sequence gaps and
    /// propagates capture/training/swap failures. On error no learner
    /// state changes — the cursor stays, pending/tracker mutations are
    /// rolled back — so the same event can be retried. A *checkpoint
    /// write* failure after a successful increment is deliberately not an
    /// error: the increment is applied and serving, only its durability
    /// lags; it is reported in [`IncrementReport::checkpoint_error`].
    pub fn ingest(&mut self, event: &StreamEvent) -> Result<IngestOutcome, OnlineError> {
        if event.seq != self.cursor {
            return Err(OnlineError::OutOfOrder {
                expected: self.cursor,
                got: event.seq,
            });
        }
        let obs = Arc::clone(&self.obs);
        let _span = obs.ingest.enter();
        obs.events.inc();
        let (mut outcome, action) = if self.tracker.is_known(event.label) {
            let refresh = self.config.capture_every > 0
                && event.seq.is_multiple_of(self.config.capture_every);
            if refresh {
                let latent = self.capture_latent(&event.raster)?;
                let entry =
                    LatentEntry::reduced(latent, self.config.scenario.data.steps, event.label);
                match self.buffer.push(entry) {
                    PushOutcome::Stored { evicted } => (
                        IngestOutcome::Captured { evicted },
                        EventAction::Captured { evicted },
                    ),
                    PushOutcome::Rejected => {
                        (IngestOutcome::CaptureRejected, EventAction::CaptureRejected)
                    }
                }
            } else {
                (IngestOutcome::Observed, EventAction::Observed)
            }
        } else {
            let latent = self.capture_latent(&event.raster)?;
            self.pending.push((event.label, latent));
            match self.tracker.observe(event.label) {
                Observation::Arrived { class } => match self.run_increment(class) {
                    Ok(report) => {
                        let action = EventAction::Increment {
                            version: report.version,
                        };
                        (IngestOutcome::Increment(report), action)
                    }
                    Err(e) => {
                        // Roll back this event's contribution so a retry
                        // of the same event replays cleanly.
                        self.pending.pop();
                        self.tracker.retract(event.label);
                        return Err(e);
                    }
                },
                Observation::Pending { class, pending } => (
                    IngestOutcome::Pending { class, pending },
                    EventAction::Pending { pending },
                ),
                // `is_known` returned false just above and nothing else
                // mutates the tracker in between, so this arm cannot be
                // reached — degrade to the benign outcome anyway rather
                // than panic mid-ingest.
                Observation::Known => (IngestOutcome::Observed, EventAction::Observed),
            }
        };

        self.cursor = event.seq + 1;
        let record = EventRecord {
            seq: event.seq,
            label: event.label,
            action,
        };
        for word in record.digest_words() {
            self.event_digest = fnv1a_fold(self.event_digest, word);
        }

        // An increment is the durable state change; persist it before the
        // next event so a crash resumes from *after* the increment. A
        // failed write is availability-over-durability: the increment is
        // live, the report says durable state lags.
        if let IngestOutcome::Increment(report) = &mut outcome {
            if self.config.checkpoint_path.is_some() {
                let ckpt_span = obs.checkpoint.enter();
                match self.write_checkpoint() {
                    Ok(_) => report.checkpoint_wall = ckpt_span.close(),
                    Err(e) => {
                        obs.checkpoint_errors.inc();
                        obs.registry.event(
                            Level::Error,
                            "checkpoint write failed after a committed increment",
                            &[
                                ("version", &report.version.to_string()),
                                ("error", &e.to_string()),
                            ],
                        );
                        report.checkpoint_error = Some(e.to_string());
                    }
                }
            }
        }
        obs.version.set(self.version as i64);
        obs.buffer_entries.set(self.buffer.len() as i64);
        obs.buffer_bits
            .set(self.buffer.footprint().total_bits as i64);
        obs.pending_samples.set(self.pending.len() as i64);
        Ok(outcome)
    }

    /// Runs one Replay4NCL increment: train the learning stages on
    /// replay ∪ pending, fold the pending latents into the store, promote
    /// the class, bump the version and hot-swap the result.
    ///
    /// The increment is **transactional**: training runs on a candidate
    /// copy of the network and every fallible step (training, the
    /// registry swap) happens before any learner state is touched — an
    /// error leaves the learner exactly as it was, so the triggering
    /// event can be retried.
    fn run_increment(&mut self, trigger_class: u16) -> Result<IncrementReport, OnlineError> {
        let obs = Arc::clone(&self.obs);
        let scenario = &self.config.scenario;
        let method = &self.config.method;
        let decompress = method.replay.as_ref().is_some_and(|r| r.decompress);
        // The whole increment is one trace: a root span over the
        // replay_mix/train/swap stages, so a slow increment shows its
        // phase breakdown in the daemon's `traces` data alongside the
        // per-stage histograms.
        let tracer = obs.registry.tracer();
        let increment_span = tracer.start_span(&tracer.new_trace(), "increment");
        let stage_ctx = increment_span.context();
        let mix_span = obs.replay_mix.enter_traced(tracer, &stage_ctx);
        let replay = self.buffer.replay_samples(decompress)?;

        // Class-balance the update: the pending pool (arrival_threshold
        // samples) is typically much smaller than the replay store's
        // per-class population, and training on the raw union would
        // drown the new class's gradient signal in replay. Repeat the
        // pending refs round-robin until the new class matches the
        // heaviest stored class — a deterministic function of the store,
        // so checkpoints stay worker-count invariant.
        let heaviest = self
            .buffer
            .class_counts()
            .iter()
            .map(|&(_, count)| count)
            .max()
            .unwrap_or(1);
        let repeats = heaviest.div_ceil(self.pending.len().max(1)).max(1);
        let mut train_set: Vec<(&SpikeRaster, u16)> =
            Vec::with_capacity(self.pending.len() * repeats + replay.len());
        for _ in 0..repeats {
            train_set.extend(self.pending.iter().map(|(l, r)| (r, *l)));
        }
        train_set.extend(replay.iter().map(|(r, l)| (r, *l)));
        drop(mix_span);

        // The RNG stream depends only on the scenario seed and the
        // version being produced — identical across worker counts and
        // across crash/resume boundaries.
        let mut rng = Rng::seed_from_u64(scenario.seed ^ INCREMENT_SALT ^ (self.version + 1));

        // Train a candidate, not self.network: a failed epoch may leave
        // partially-applied optimizer steps behind, and the learner must
        // stay untouched for the retry.
        let mut candidate = self.network.clone();
        let train_span = obs.train.enter_traced(tracer, &stage_ctx);
        let outcome = phases::increment(
            &mut self.trainer,
            &mut candidate,
            scenario,
            method,
            &train_set,
            &mut rng,
            |_, _| Ok(()),
        )?;
        let train_wall = train_span.close();
        drop(train_set);

        // Publish first (the last fallible step), then commit.
        let next_version = self.version + 1;
        let swap_span = obs.swap.enter_traced(tracer, &stage_ctx);
        let registry_version = self
            .registry
            .swap_network(candidate.clone(), &format!("increment-{next_version}"))?;
        let swap_latency = swap_span.close();
        obs.increments.inc();

        // --- commit (infallible from here) -------------------------------
        self.network = candidate;
        self.version = next_version;
        // Fold the pending latents into the store (they are the new
        // class's replay data for *future* increments) and promote every
        // class that contributed. A budget rejection here leaves the class
        // under-represented in replay (with none at all if every entry was
        // rejected) — surfaced in the report and as a `Warn` event.
        let mut classes: Vec<u16> = self.pending.iter().map(|(l, _)| *l).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut stored_entries = 0usize;
        let mut rejected_entries = 0usize;
        for (label, latent) in self.pending.drain(..) {
            match self
                .buffer
                .push(LatentEntry::reduced(latent, scenario.data.steps, label))
            {
                PushOutcome::Stored { .. } => stored_entries += 1,
                PushOutcome::Rejected => rejected_entries += 1,
            }
        }
        for &class in &classes {
            self.tracker.promote(class);
        }
        if rejected_entries > 0 {
            obs.registry.event(
                Level::Warn,
                "the latent budget rejected new-class entries; the class is \
                 under-represented in replay",
                &[
                    ("version", &self.version.to_string()),
                    ("rejected", &rejected_entries.to_string()),
                    ("produced", &(rejected_entries + stored_entries).to_string()),
                    ("classes", &format!("{classes:?}")),
                ],
            );
        }
        debug_assert!(classes.contains(&trigger_class));

        Ok(IncrementReport {
            version: self.version,
            registry_version,
            classes,
            train_samples: outcome.samples,
            epoch_losses: outcome.epoch_losses,
            train_wall,
            swap_latency,
            checkpoint_wall: Duration::ZERO,
            stored_entries,
            rejected_entries,
            checkpoint_error: None,
        })
    }

    /// Ingests every not-yet-consumed event of a stream.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ingest`] failure (the cursor stays at the
    /// failed event, so the call is resumable).
    ///
    /// [`ingest`]: OnlineLearner::ingest
    pub fn run_stream(&mut self, stream: &SampleStream) -> Result<RunSummary, OnlineError> {
        let mut summary = RunSummary {
            events_applied: 0,
            increments: Vec::new(),
        };
        let cursor = self.cursor;
        for event in stream.events_from(cursor) {
            let outcome = self.ingest(event)?;
            summary.events_applied += 1;
            if let IngestOutcome::Increment(report) = outcome {
                summary.increments.push(report);
            }
        }
        Ok(summary)
    }

    /// Top-1 accuracy of the *current* model over labeled raw inputs,
    /// evaluated through the method's operating pipeline (decimation +
    /// frozen stages + learning stages) — the metric an increment is
    /// supposed to move. Runs on up to `scenario.parallelism` threads
    /// ([`trainer::map_chunks`]); the count does not depend on them.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] for simulation failures: the first failing
    /// sample's, as a serial loop would.
    pub fn evaluate(&self, samples: &[(&SpikeRaster, u16)]) -> Result<f64, OnlineError> {
        let scenario = &self.config.scenario;
        let base = scenario.network.lif.v_threshold;
        let parts = trainer::map_chunks(samples, scenario.parallelism, |chunk| {
            let mut correct = 0usize;
            for &(raster, label) in chunk {
                let (input, _) = phases::method_input(raster, &self.config.method, scenario)?;
                let schedule = self
                    .config
                    .method
                    .threshold_mode
                    .schedule_for(&input, base)?;
                let logits = self.network.forward_from(0, &input, Some(&schedule))?;
                if ncl_tensor::ops::argmax(&logits) == Some(usize::from(label)) {
                    correct += 1;
                }
            }
            Ok::<_, OnlineError>(correct)
        })?;
        let correct: usize = parts.iter().sum();
        Ok(correct as f64 / samples.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;

    fn test_config(dir: &str) -> (OnlineConfig, StreamConfig) {
        let mut config = OnlineConfig::smoke();
        config.scenario.pretrain_epochs = 4;
        config.scenario.cl_epochs = 3;
        config.arrival_threshold = 3;
        let ckpt_dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&ckpt_dir).unwrap();
        config.checkpoint_path = Some(ckpt_dir.join("daemon.ckpt"));
        let mut stream = StreamConfig::smoke();
        stream.scenario = config.scenario.clone();
        stream.warmup_events = 10;
        stream.total_events = 24;
        stream.novel_every = 2;
        (config, stream)
    }

    #[test]
    fn daemon_learns_the_novel_class_and_checkpoints() {
        let (config, stream_config) = test_config("ncl-online-daemon-test");
        let ckpt_path = config.checkpoint_path.clone().unwrap();
        let stream = SampleStream::generate(&stream_config).unwrap();
        let mut learner = OnlineLearner::bootstrap(config.clone()).unwrap();
        assert_eq!(learner.version(), 1);
        assert!(!learner.buffer().is_empty(), "bootstrap seeds the store");
        assert!(learner.pretrain_acc() > 0.0);

        let summary = learner.run_stream(&stream).unwrap();
        assert_eq!(summary.events_applied, stream.len());
        assert!(
            !summary.increments.is_empty(),
            "the novel class must trigger at least one increment"
        );
        let first = &summary.increments[0];
        assert_eq!(first.version, 2);
        assert_eq!(first.classes, vec![stream.novel_class()]);
        assert!(first.train_samples > 0);
        assert_eq!(first.epoch_losses.len(), 3);
        assert!(learner.known_classes().contains(&stream.novel_class()));
        assert_eq!(learner.registry().version(), learner.version());
        assert_eq!(learner.cursor(), stream.len() as u64);
        // The store now holds the novel class too.
        assert!(learner.buffer().class_count(stream.novel_class()) > 0);
        // Budget invariant survives online capture.
        let budget = config.capacity_bits.unwrap();
        assert!(learner.buffer().footprint().total_bits <= budget);
        // The increment checkpointed; the file restores to this state.
        let restored = Checkpoint::read(&ckpt_path).unwrap();
        assert!(restored.version >= 2);

        // The run left a full observability trail: stage timings for
        // every lifecycle phase, counters and gauges matching state.
        let text = learner.obs().render();
        for stage in [
            "ingest",
            "capture",
            "replay_mix",
            "train",
            "swap",
            "checkpoint",
        ] {
            assert!(
                text.contains(&format!("online_stage_us_count{{stage=\"{stage}\"}}")),
                "missing stage {stage}:\n{text}"
            );
        }
        assert!(text.contains(&format!("online_events_total {}", summary.events_applied)));
        assert!(text.contains(&format!(
            "online_increments_total {}",
            summary.increments.len()
        )));
        assert!(text.contains(&format!("online_version {}", learner.version())));
        let ingest = learner.obs().stage("online_stage_us", "ingest");
        assert_eq!(
            ingest.histogram().count(),
            summary.events_applied as u64,
            "one ingest span per applied event"
        );

        // Every committed increment left a trace rooted at `increment`
        // with the lifecycle stages as children (the tail sampler keeps
        // the first completed trace, so at least one survives).
        let captured = learner.obs().tracer().recent(0, usize::MAX);
        let increment_trace = captured
            .iter()
            .find(|f| f.spans.iter().any(|s| s.stage == "increment"))
            .expect("an increment trace was kept");
        let root = increment_trace
            .spans
            .iter()
            .find(|s| s.stage == "increment")
            .unwrap();
        for stage in ["replay_mix", "train", "swap"] {
            let child = increment_trace
                .spans
                .iter()
                .find(|s| s.stage == stage)
                .unwrap_or_else(|| panic!("missing {stage} span in {increment_trace:?}"));
            assert_eq!(child.parent, Some(root.span_id), "{stage} parents the root");
        }
        std::fs::remove_file(&ckpt_path).ok();
    }

    #[test]
    fn budget_rejections_at_an_increment_raise_a_warning() {
        let (mut config, stream_config) = test_config("ncl-online-budget-test");
        config.checkpoint_path = None;
        // Smaller than any latent entry: every one is rejected.
        config.capacity_bits = Some(1);
        let stream = SampleStream::generate(&stream_config).unwrap();
        let mut learner = OnlineLearner::bootstrap(config).unwrap();
        learner.obs().mute_event_echo();
        let warns = "obs_events_total{level=\"warn\"}";
        assert!(
            learner.obs().render().contains(&format!("{warns} 0\n")),
            "no warning before an increment"
        );
        let summary = learner.run_stream(&stream).unwrap();
        assert!(!summary.increments.is_empty());
        assert!(summary.increments.iter().all(|r| r.rejected_entries > 0));
        let expected = format!("{warns} {}\n", summary.increments.len());
        let text = learner.obs().render();
        assert!(
            text.contains(&expected),
            "one warning per rejecting increment:\n{text}"
        );
    }

    #[test]
    fn out_of_order_events_are_rejected() {
        let (mut config, stream_config) = test_config("ncl-online-order-test");
        config.checkpoint_path = None;
        let stream = SampleStream::generate(&stream_config).unwrap();
        let mut learner = OnlineLearner::bootstrap(config).unwrap();
        let events = stream.events();
        learner.ingest(&events[0]).unwrap();
        let err = learner.ingest(&events[5]).unwrap_err();
        assert!(matches!(
            err,
            OnlineError::OutOfOrder {
                expected: 1,
                got: 5
            }
        ));
        // The cursor did not advance; the right event still applies.
        learner.ingest(&events[1]).unwrap();
    }

    #[test]
    fn validation_rejects_replay_free_methods() {
        let mut config = OnlineConfig::smoke();
        config.method = MethodSpec::baseline();
        assert!(config.validate().is_err());
        let mut config = OnlineConfig::smoke();
        config.arrival_threshold = 0;
        assert!(config.validate().is_err());
    }
}
