//! **ncl-online** — the lifelong-learning daemon that closes the
//! stream → replay → train → hot-swap loop.
//!
//! The paper's methodology exists so a deployed neuromorphic system can
//! keep learning *in the field*: new classes arrive as labeled samples,
//! latents are captured under a tight memory budget, and the system
//! updates itself without forgetting — all while it keeps answering
//! predictions. This crate is that orchestration layer:
//!
//! * [`stream`] — a deterministic labeled sample stream (warm known-class
//!   phase, then a novel class arrives interleaved);
//! * [`detector::NoveltyTracker`] — novel-class arrival detection with a
//!   configurable sample threshold;
//! * [`daemon::OnlineLearner`] — the state machine: budgeted on-the-fly
//!   latent capture into the [`replay4ncl::buffer::LatentReplayBuffer`],
//!   background Replay4NCL increments on the zero-alloc
//!   [`ncl_snn::trainer::IncrementalTrainer`], atomic hot-swap into the
//!   serving [`ncl_serve::registry::ModelRegistry`];
//! * [`checkpoint`] — crash-safe atomic checkpoints (model bytes +
//!   RLE-coded replay store + pending novel-class latents + stream
//!   cursor + version counter + event digest, CRC-32 sealed) that
//!   resume mid-stream bit-identically.
//!
//! Every state transition is a deterministic function of the event
//! sequence, and the trainer is byte-identical at every worker count —
//! so 1-worker and N-worker daemons write **byte-identical checkpoints**.
//!
//! # Quickstart
//!
//! ```no_run
//! use ncl_online::daemon::{OnlineConfig, OnlineLearner};
//! use ncl_online::stream::{SampleStream, StreamConfig};
//! use ncl_serve::server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = OnlineConfig::smoke();
//! config.checkpoint_path = Some("daemon.ckpt".into());
//! let mut learner = OnlineLearner::bootstrap(config)?;
//! // Serve predictions concurrently with learning:
//! let server = Server::start(learner.registry(), ServerConfig::default())?;
//! let stream = SampleStream::generate(&StreamConfig::smoke())?;
//! let summary = learner.run_stream(&stream)?;
//! println!(
//!     "applied {} events, ran {} increment(s), now v{}",
//!     summary.events_applied,
//!     summary.increments.len(),
//!     learner.version()
//! );
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The `ncl-learnd` binary wraps this into a process (serve + ingest +
//! checkpoint); `ncl-online-bench` measures it and emits
//! `BENCH_online.json`.

pub mod checkpoint;
pub mod daemon;
pub mod delta;
mod detector;
pub mod error;
pub mod publish;
pub mod stream;

pub use checkpoint::Checkpoint;
pub use daemon::{IncrementReport, IngestOutcome, OnlineConfig, OnlineLearner, RunSummary};
pub use delta::CheckpointDelta;
pub use detector::NoveltyTracker;
pub use error::OnlineError;
pub use publish::DeltaPublisher;
pub use stream::{SampleStream, StreamConfig, StreamEvent};
