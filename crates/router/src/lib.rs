//! **ncl-router** — a sharded serving fleet for Replay4NCL models.
//!
//! Every replica is an [`ElasticReplica`]: one, promoted to learner,
//! keeps learning from the stream; the followers serve the same model.
//! The router fronts them all on the existing NDJSON-over-TCP protocol,
//! so clients see one address and one monotonic `model_version`:
//!
//! ```text
//!              ┌────────────┐   predict    ┌──────────────────┐
//!   clients ──▶│ ncl-router │─────────────▶│ replica 0 learner │──┐
//!              │  dispatch  │─────────────▶│ replica 1 follower│  │ delta
//!              │  + sync    │─────────────▶│ replica 2 follower│◀─┘ (KB)
//!              └────────────┘   health/    └──────────────────┘
//!                               delta relay
//! ```
//!
//! * [`backend::Backend`] — one replica as the router sees it: a pooled
//!   NDJSON connection, health state, per-replica counters.
//! * [`router::Router`] — the front server: least-loaded (or
//!   consistent-hash) predict dispatch with failover, aggregate stats.
//! * [`sync`] — the replication loop: after each learner increment the
//!   learner nudges the router (`published`), which at once pulls the
//!   published [`ncl_online::CheckpointDelta`] and pushes it to every
//!   follower that is behind (a clock tick is the fallback); any
//!   mismatch falls back to a full checkpoint. Followers apply bit-identically (the
//!   delta's `target_crc` guarantees it) and hot-swap at the learner's
//!   exact version.
//! * [`replica`] — [`ElasticReplica`], the one
//!   [`ncl_serve::ReplicaSync`] implementation the `ncl-replica` binary
//!   mounts: a follower applying deltas that the router (or a fresh
//!   fleet's start, at epoch 1) can promote to the learner publishing
//!   them.
//! * [`membership`] — the live backend set behind the `join` / `leave`
//!   / `members` wire ops: replicas can enter and exit a running fleet.
//! * [`faults`] — a deterministic, seeded fault-injection plan threaded
//!   under every backend transport; the chaos suite replays the exact
//!   same failure schedule on every run.
//! * [`testkit`] — the fleet harness the integration tests and bench
//!   binaries share: nodes, synthetic checkpoint chains, closed-loop
//!   load, polling.
//!
//! The fleet is **elastic**: membership changes over the wire, a
//! sustained learner outage triggers promotion of the most caught-up
//! follower under a bumped fleet epoch (see [`sync`]), and a returning
//! deposed learner is demoted instead of split-braining.
//!
//! The `ncl-router` and `ncl-replica` binaries wrap this into
//! processes; `ncl-router-bench` measures routing overhead, delta size
//! vs full checkpoints, and propagation latency into
//! `BENCH_router.json`; `ncl-fleet-bench` measures failover and rejoin
//! catch-up into `BENCH_fleet.json`.

pub mod backend;
pub mod faults;
mod membership;
pub mod replica;
pub mod router;
pub mod sync;
pub mod testkit;

pub use backend::Backend;
pub use faults::{FaultAction, FaultPlan, FaultRule};
pub use replica::ElasticReplica;
pub use router::{DispatchPolicy, Router, RouterConfig};
pub use sync::SyncStats;
