//! **ncl-serve** — a concurrent, hot-swappable inference service for
//! Replay4NCL models.
//!
//! The paper's end goal is an embedded system that keeps *operating*
//! while it learns: latent replay exists so a deployed SNN can absorb a
//! new class without going offline (Pellegrini et al. frame latent
//! replay explicitly as a real-time serving capability). This crate is
//! that serving layer:
//!
//! * [`registry::ModelRegistry`] — the atomic hot-swap slot. A
//!   continual-learning increment produces a new network; swapping it in
//!   is a pointer exchange, versioned and shape-checked, that never
//!   disturbs an in-flight batch.
//! * [`batcher::Batcher`] — the micro-batching scheduler. Requests from
//!   all connections stream into a sharded work queue (the
//!   [`ncl_runtime::queue::ShardedQueue`] in streaming form); workers
//!   collect up to `batch_size` requests (waiting at most `max_wait`),
//!   run **one** batched forward pass, and fan results back.
//! * [`server::Server`] — the TCP front end speaking newline-delimited
//!   JSON on localhost (see [`protocol`] for the schema).
//! * [`metrics::Metrics`] — p50/p95/p99 latency histogram + throughput
//!   counters behind the `stats` op, registered in an
//!   [`ncl_obs::Registry`] and scrapeable as Prometheus text via the
//!   `metrics` op.
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use ncl_serve::registry::ModelRegistry;
//! use ncl_serve::server::{Server, ServerConfig};
//! use ncl_snn::{Network, NetworkConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let network = Network::new(NetworkConfig::tiny(48, 4))?;
//! let registry = Arc::new(ModelRegistry::new(network, "initial"));
//! let server = Server::start(Arc::clone(&registry), ServerConfig::default())?;
//! println!("serving on {}", server.local_addr());
//! // ... later, after a continual-learning increment:
//! // registry.swap_network(updated_network, "increment-1")?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The `ncl-serve` binary wraps this into a process; `ncl-loadgen`
//! drives it and records `BENCH_serve.json` (latency percentiles,
//! requests/s, hot-swap outcome) in the [`bench`](mod@bench) report format that
//! every bench emitter in the workspace shares.

pub mod batcher;
pub mod bench;
pub mod client;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod sync;

pub use batcher::{BatchConfig, Batcher, PredictReply};
pub use client::{ClientConfig, NclClient};
pub use error::ServeError;
pub use metrics::Metrics;
pub use registry::{ModelRegistry, ServingModel};
pub use server::{Server, ServerConfig};
pub use sync::ReplicaSync;
