//! Replica synchronization hooks.
//!
//! The serving layer does not know how models are trained or how
//! checkpoints are encoded — that lives above it (`ncl_online`). What it
//! *does* own is the wire: the `health` / `delta` / `apply_delta` /
//! `checkpoint` / `apply_checkpoint` ops a fleet uses to keep replicas
//! converged, and the router address a `health` probe carries (handed
//! to [`ReplicaSync::observe_router`], so a learner knows whom to nudge
//! after it publishes). [`ReplicaSync`] is the seam between the two: a server
//! started with [`crate::server::Server::start_with_sync`] forwards
//! those ops to its handler, and the handler (a learner publishing
//! deltas, or a follower applying them) does the format-aware work and
//! swaps the registry.
//!
//! A server started without a handler answers every replication op with
//! [`ServeError::Replication`] — a plain inference process is not
//! silently part of a fleet.

use std::net::SocketAddr;

use serde_json::Value;

use crate::error::ServeError;

/// What a replica contributes to the replication protocol. All methods
/// are called from connection-handler threads and must be thread-safe.
pub trait ReplicaSync: Send + Sync {
    /// This replica's role, reported by `health` (`"learner"` or
    /// `"follower"`).
    fn role(&self) -> &'static str;

    /// Extra role-specific fields merged into the `health` response
    /// (e.g. a follower's sync state).
    fn health_extra(&self) -> Vec<(&'static str, Value)> {
        Vec::new()
    }

    /// Returns `(target_version, delta_bytes)` advancing a replica at
    /// `base_version`, if this replica publishes deltas and still
    /// retains that one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] if this replica does not publish
    /// (followers), [`ServeError::NoRetainedDelta`] if it no longer holds
    /// a delta from `base_version` — the caller falls back to
    /// [`ReplicaSync::fetch_checkpoint`] when the published version is
    /// past `base_version`.
    fn fetch_delta(&self, base_version: u64) -> Result<(u64, Vec<u8>), ServeError>;

    /// Applies an encoded delta and hot-swaps the result, returning the
    /// new model version.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] for undecodable/mismatched deltas
    /// (the caller falls back to a full checkpoint) and
    /// [`ServeError::StaleVersion`] for duplicates.
    fn apply_delta(&self, payload: &[u8]) -> Result<u64, ServeError>;

    /// Returns `(version, checkpoint_bytes)`: the version and full
    /// encoding of this replica's latest checkpoint, read together so
    /// the caller can tell whether the bytes advance a follower before
    /// relaying them.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] if this replica does not publish.
    fn fetch_checkpoint(&self) -> Result<(u64, Vec<u8>), ServeError>;

    /// Applies an encoded full checkpoint and hot-swaps the result,
    /// returning the new model version.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] for undecodable/foreign checkpoints
    /// and [`ServeError::StaleVersion`] for non-advancing ones.
    fn apply_checkpoint(&self, payload: &[u8]) -> Result<u64, ServeError>;

    /// Records the listen address of the router whose `health` probe
    /// just arrived. A replica that publishes deltas nudges the last
    /// router it saw after every publish; the default ignores it.
    fn observe_router(&self, router: SocketAddr) {
        let _ = router;
    }

    /// The fleet epoch this replica last observed. Epochs fence
    /// split-brain: every promotion bumps the fleet epoch, and a
    /// replica refuses writes and role changes stamped with an older
    /// one. Replicas that predate elasticity report 0 (unfenced).
    fn epoch(&self) -> u64 {
        0
    }

    /// Observes the fleet epoch stamped on an incoming write, adopting
    /// it if newer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] if `epoch` is older than the one
    /// this replica is fenced at — the write comes from a deposed
    /// learner and must not be applied.
    fn observe_epoch(&self, epoch: u64) -> Result<(), ServeError> {
        let _ = epoch;
        Ok(())
    }

    /// Promotes this replica to the fleet's learner under a new fleet
    /// epoch, returning the model version it resumes publishing from.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] if this replica cannot change role
    /// (the default: fixed-role replicas) or `epoch` does not advance
    /// the one it is fenced at.
    fn promote(&self, epoch: u64) -> Result<u64, ServeError> {
        let _ = epoch;
        Err(fixed_role())
    }

    /// Demotes this replica to a follower under `epoch` (the
    /// split-brain path: a returning old learner steps down), returning
    /// its model version.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] if this replica cannot change role
    /// or `epoch` is older than the one it is fenced at.
    fn demote(&self, epoch: u64) -> Result<u64, ServeError> {
        let _ = epoch;
        Err(fixed_role())
    }
}

/// The error fixed-role replicas answer `promote`/`demote` with.
fn fixed_role() -> ServeError {
    ServeError::Replication {
        detail: "this replica has a fixed role and cannot be promoted or demoted".into(),
    }
}

/// The error every replication op gets on a server with no handler.
pub(crate) fn not_replicating() -> ServeError {
    ServeError::Replication {
        detail: "this server does not participate in replication".into(),
    }
}
