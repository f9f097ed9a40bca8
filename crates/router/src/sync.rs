//! The router-driven replication loop.
//!
//! A **pass** probes each replica's `health` (role, version),
//! identifies the learner (the healthy replica reporting
//! `role == "learner"`; lowest id wins if several claim it), and for
//! every healthy follower that is behind, pulls the delta covering
//! *that follower's* version from the learner and pushes it via
//! `apply_delta`. Any step failing — the learner no longer retains that
//! delta, or the follower's base mismatches — falls back to relaying
//! the learner's full checkpoint. Wrong bytes cannot be applied
//! silently: a delta carries its target checkpoint's trailing CRC-32
//! (the CRC of the target's body; a CRC over the whole encoding, trailer
//! included, is the same constant residue for every checkpoint), and the
//! follower refuses a result whose own encoding ends in a different one.
//! Followers therefore converge to the learner's exact bytes, normally
//! paying only KB-scale deltas. A fetched checkpoint whose version does
//! not advance the follower is not relayed: between the learner's
//! registry swap and its publish, the learner serves the new version
//! but its published checkpoint is still the old one, which the
//! follower already holds.
//!
//! **When a pass runs.** The learner drives it: after every delta it
//! publishes, the promoted replica sends the router a `published`
//! nudge (to the address the router's own health probes carry), and
//! the router wakes the sync thread at once — propagation costs the
//! pass itself, not the wait for a poll. The `sync_interval` tick
//! stays as the health and failover clock, and as the fallback that
//! still converges the fleet when a nudge is lost. Every pass — tick,
//! nudge or [`crate::router::Router::sync_now`] — goes through
//! [`sync_once`] under one mutex, so passes never interleave and each
//! applied delta is counted once.
//!
//! The loop runs in the router because replicas stay deliberately
//! unaware of each other: a replica only answers its own wire ops (and
//! nudges the one router that probes it), which keeps fleet topology
//! (who replicates from whom) in exactly one place.
//!
//! The loop also owns **failover**: when no healthy current-epoch
//! learner answers for [`crate::router::RouterConfig::failover_ticks`]
//! consecutive ticks, the most caught-up healthy follower is promoted
//! under a bumped fleet epoch. Only clock ticks count towards that: a
//! nudge proves a learner alive. Every apply and role change carries
//! the epoch; a deposed learner that comes back reports an older epoch
//! and is demoted instead of split-braining the fleet, and its nudges
//! are refused.

use std::sync::Arc;

use ncl_obs::{Counter, Registry};
use ncl_serve::protocol::object;
use serde_json::Value;

use crate::backend::Backend;
use crate::router::RouterShared;

/// Counters of the replication loop (reported under `"sync"` in the
/// router's `stats`/`health` responses and, via
/// [`SyncStats::register_into`], as `router_sync_*_total` series in
/// the router's metric exposition).
#[derive(Debug, Default)]
pub struct SyncStats {
    /// Deltas successfully applied to a follower.
    pub deltas_applied: Arc<Counter>,
    /// Full-checkpoint fallbacks successfully applied.
    pub full_syncs: Arc<Counter>,
    /// Propagation attempts that failed entirely (follower still
    /// behind; retried next tick).
    pub failures: Arc<Counter>,
    /// Passes of the loop (probe + propagate), successful or not.
    pub ticks: Arc<Counter>,
    /// `published` nudges that woke the loop.
    pub nudges_woke: Arc<Counter>,
    /// `published` nudges refused for a stale epoch.
    pub nudges_fenced: Arc<Counter>,
}

impl SyncStats {
    /// Exposes the loop counters in `registry`. Shared handles — the
    /// loop keeps incrementing the same atomics the exposition reads.
    pub fn register_into(&self, registry: &Registry) {
        let _ = registry.adopt_counter(
            "router_sync_deltas_applied_total",
            &[],
            "Checkpoint deltas the sync loop applied to followers.",
            Arc::clone(&self.deltas_applied),
        );
        let _ = registry.adopt_counter(
            "router_sync_full_syncs_total",
            &[],
            "Full-checkpoint fallbacks the sync loop relayed.",
            Arc::clone(&self.full_syncs),
        );
        let _ = registry.adopt_counter(
            "router_sync_failures_total",
            &[],
            "Propagation attempts that failed entirely (retried next tick).",
            Arc::clone(&self.failures),
        );
        let _ = registry.adopt_counter(
            "router_sync_ticks_total",
            &[],
            "Probe + propagate passes of the replication loop.",
            Arc::clone(&self.ticks),
        );
        for (outcome, counter) in [("woke", &self.nudges_woke), ("fenced", &self.nudges_fenced)] {
            let _ = registry.adopt_counter(
                "router_sync_nudges_total",
                &[("outcome", outcome)],
                "Learner publish nudges: woke the sync loop, or refused for a stale epoch.",
                Arc::clone(counter),
            );
        }
    }

    /// JSON snapshot for stats/health responses.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        object(vec![
            ("deltas_applied", Value::from(self.deltas_applied.get())),
            ("full_syncs", Value::from(self.full_syncs.get())),
            ("failures", Value::from(self.failures.get())),
            ("ticks", Value::from(self.ticks.get())),
            ("nudges_woke", Value::from(self.nudges_woke.get())),
            ("nudges_fenced", Value::from(self.nudges_fenced.get())),
        ])
    }
}

/// A learner's answer to a delta or checkpoint fetch.
enum Fetched {
    /// The `payload` hex string of an `{"ok":true}` response, with the
    /// version it brings a follower to.
    Payload(Option<u64>, String),
    /// A refusal, a transport error or an unreadable reply; a delta
    /// refusal names the learner's published version.
    Refused { published: Option<u64> },
}

fn fetched(response: std::io::Result<String>) -> Fetched {
    let refused = Fetched::Refused { published: None };
    let Some(value) = response.ok().and_then(|r| serde_json::from_str(&r).ok()) else {
        return refused;
    };
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Fetched::Refused {
            published: value.get("published_version").and_then(Value::as_u64),
        };
    }
    match value.get("payload").and_then(Value::as_str) {
        Some(payload) => Fetched::Payload(
            value.get("version").and_then(Value::as_u64),
            payload.to_owned(),
        ),
        None => refused,
    }
}

/// What a follower made of a pushed delta or checkpoint.
enum Apply {
    /// Applied: the follower advanced.
    Applied,
    /// Refused as stale: the follower already holds the target (another
    /// writer got there first), so nothing was applied.
    Stale,
    /// Any other refusal or an unreadable answer.
    Failed,
}

fn apply_outcome(response: &str) -> Apply {
    let Ok(value) = serde_json::from_str(response) else {
        return Apply::Failed;
    };
    let value: Value = value;
    if value.get("ok").and_then(Value::as_bool) == Some(true) {
        return Apply::Applied;
    }
    let stale = value
        .get("error")
        .and_then(Value::as_str)
        .is_some_and(|e| e.contains("stale version"));
    if stale {
        Apply::Stale
    } else {
        Apply::Failed
    }
}

/// Brings `follower` up to the learner's version: delta first, full
/// checkpoint on any failure. Applies carry the fleet `epoch`, so a
/// replica fenced at a newer epoch refuses them (split-brain safety).
/// Only an apply that advanced the follower is counted; a stale refusal
/// means it is already there. When the learner has published nothing
/// past the follower (it swapped but has not published yet), no
/// checkpoint is fetched and nothing is relayed or counted: the
/// learner's next publish nudges another pass.
fn propagate(learner: &Backend, follower: &Backend, epoch: u64, stats: &SyncStats) {
    let follower_version = follower.model_version();
    // The delta path: ask the learner for exactly this follower's gap,
    // then the fallback: relay the full checkpoint.
    let attempts = [
        (
            format!(r#"{{"op":"delta","base_version":{follower_version}}}"#),
            "apply_delta",
            &stats.deltas_applied,
        ),
        (
            r#"{"op":"checkpoint"}"#.to_owned(),
            "apply_checkpoint",
            &stats.full_syncs,
        ),
    ];
    for (fetch, apply_op, applied) in attempts {
        let (version, payload) = match fetched(learner.request(&fetch)) {
            Fetched::Payload(version, payload) => (version, payload),
            Fetched::Refused {
                published: Some(published),
            } if published <= follower_version => return,
            Fetched::Refused { .. } => continue,
        };
        if version.is_some_and(|v| v <= follower_version) {
            return;
        }
        let Ok(response) = follower.request(&format!(
            r#"{{"op":"{apply_op}","payload":"{payload}","epoch":{epoch}}}"#
        )) else {
            continue;
        };
        match apply_outcome(&response) {
            Apply::Applied => applied.inc(),
            Apply::Stale => {}
            Apply::Failed => continue,
        }
        follower.probe_health();
        return;
    }
    stats.failures.inc();
}

/// Whether a role-change response is a protocol-level success.
fn response_ok(response: &str) -> bool {
    serde_json::from_str(response)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        == Some(true)
}

/// Stores + publishes the fleet epoch.
fn set_epoch(shared: &RouterShared, epoch: u64) {
    shared
        .epoch
        .store(epoch, std::sync::atomic::Ordering::Release);
    shared.epoch_gauge.set(epoch as i64);
}

/// Steps a stale or duplicate learner down to follower under `epoch`.
fn demote(backend: &Backend, epoch: u64, shared: &RouterShared) {
    if let Ok(response) = backend.request(&format!(r#"{{"op":"demote","epoch":{epoch}}}"#)) {
        if response_ok(&response) {
            shared.demotions.inc();
            backend.probe_health();
        }
    }
}

/// One pass of the loop: probe everyone, elect/fence the learner,
/// promote on a sustained learner outage, then propagate to laggards.
/// `tick` says whether the pass is a clock tick; only ticks count
/// towards failover (a nudge-driven pass follows a learner's publish).
/// Passes are serialized: concurrent callers take turns.
pub(crate) fn sync_once(shared: &RouterShared, tick: bool) {
    use std::sync::atomic::Ordering;

    let _pass = shared
        .sync_pass
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    shared.sync.ticks.inc();
    let backends = shared.membership.snapshot();
    for backend in &backends {
        backend.probe_health();
    }

    // Adopt the highest epoch any healthy replica has observed — the
    // router may have restarted with an older view than the fleet.
    let mut fleet_epoch = shared.epoch.load(Ordering::Acquire);
    for backend in &backends {
        if backend.is_healthy() {
            fleet_epoch = fleet_epoch.max(backend.epoch());
        }
    }
    set_epoch(shared, fleet_epoch);

    // Learner election: among healthy replicas claiming the role at the
    // current epoch, the lowest id wins. A learner fenced at an older
    // epoch is a returning deposed learner — demote it instead of
    // letting it split-brain; a duplicate current-epoch claim steps
    // down too.
    let mut learner: Option<&Arc<Backend>> = None;
    for backend in &backends {
        if !backend.is_healthy() || backend.role() != "learner" {
            continue;
        }
        if backend.epoch() < fleet_epoch || learner.is_some() {
            demote(backend, fleet_epoch, shared);
        } else {
            learner = Some(backend);
        }
    }

    match learner {
        Some(learner) => {
            shared.learner_down_ticks.store(0, Ordering::Release);
            let learner_version = learner.model_version();
            let tracer = shared.obs.tracer();
            for follower in &backends {
                if follower.id == learner.id
                    || !follower.is_healthy()
                    || follower.model_version() >= learner_version
                {
                    continue;
                }
                // Each push is its own single-span router-local trace;
                // the tail sampler keeps the slow ones, so a stalling
                // propagation path shows up in the `traces` op.
                let push = tracer.new_trace();
                let _push_span = tracer.start_span(&push, "sync_push");
                propagate(learner, follower, fleet_epoch, &shared.sync);
            }
        }
        None => {
            // No reachable current-epoch learner. After enough
            // consecutive learner-less ticks, promote the most
            // caught-up healthy follower under a bumped epoch; its
            // resumed publishing is deterministic from its last applied
            // checkpoint, so survivors converge bit-identically.
            if !tick {
                return;
            }
            let down = shared.learner_down_ticks.fetch_add(1, Ordering::AcqRel) + 1;
            if down < shared.failover_ticks {
                return;
            }
            let candidate = backends
                .iter()
                .filter(|b| b.is_healthy() && b.role() == "follower")
                .max_by_key(|b| (b.model_version(), std::cmp::Reverse(b.id)));
            let Some(candidate) = candidate else { return };
            let next_epoch = fleet_epoch + 1;
            if let Ok(response) =
                candidate.request(&format!(r#"{{"op":"promote","epoch":{next_epoch}}}"#))
            {
                if response_ok(&response) {
                    shared.promotions.inc();
                    set_epoch(shared, next_epoch);
                    shared.learner_down_ticks.store(0, Ordering::Release);
                    candidate.probe_health();
                }
            }
        }
    }
}
