//! Dynamic fleet membership: the live, mutable set of backends.
//!
//! The router used to be born with a fixed `Vec<Backend>`; elasticity
//! replaces that with a [`Membership`] the wire can mutate while
//! dispatch keeps running. Two invariants hold at all times:
//!
//! * **Ids are never reused.** Every join draws from a monotonic
//!   counter, so a replica that leaves and rejoins gets a fresh id and
//!   fresh metric series — counters from its previous life are never
//!   silently resumed, and an id observed in a status row always means
//!   the same incarnation.
//! * **An address registers once.** Joining an address that is already
//!   a member returns the existing backend instead of a duplicate, so a
//!   replica retrying its `join` (after a timeout it could not
//!   distinguish from a failure) cannot double itself into dispatch.
//!
//! Dispatch, sync and stats all work on [`Membership::snapshot`] — an
//! `Arc` clone of the current set. A concurrent `leave` does not tear
//! backends out from under an in-flight request; the removed backend
//! simply stops appearing in later snapshots.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use ncl_obs::{Counter, Registry};

use crate::backend::Backend;
use crate::faults::FaultPlan;

/// The mutable backend set (see the module docs).
pub(crate) struct Membership {
    backends: RwLock<Vec<Arc<Backend>>>,
    next_id: AtomicUsize,
    timeout: Duration,
    faults: Option<Arc<FaultPlan>>,
    joins: Arc<Counter>,
    leaves: Arc<Counter>,
}

impl Membership {
    /// Wraps the fleet the router started with. `timeout` is the
    /// round-trip cap given to backends created by later joins; a fault
    /// plan, if armed, is threaded under them too.
    #[must_use]
    pub fn new(
        initial: Vec<Arc<Backend>>,
        timeout: Duration,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let next_id = initial.iter().map(|b| b.id + 1).max().unwrap_or(0);
        Membership {
            backends: RwLock::new(initial),
            next_id: AtomicUsize::new(next_id),
            timeout,
            faults,
            joins: Arc::new(Counter::new()),
            leaves: Arc::new(Counter::new()),
        }
    }

    /// Exposes the membership counters in `registry` (shared handles).
    pub fn register_into(&self, registry: &Registry) {
        let _ = registry.adopt_counter(
            "router_membership_joins_total",
            &[],
            "Backends added to the live fleet via the join op.",
            Arc::clone(&self.joins),
        );
        let _ = registry.adopt_counter(
            "router_membership_leaves_total",
            &[],
            "Backends removed from the live fleet via the leave op.",
            Arc::clone(&self.leaves),
        );
    }

    /// The current backend set (an `Arc` snapshot: stable for the
    /// caller, mutable for everyone else).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<Backend>> {
        self.backends
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Adds `addr` to the fleet under a fresh id, registering its
    /// metric series into `obs`. Idempotent: if the address is already
    /// a member, the existing backend is returned and the second
    /// element is `false`.
    pub fn join(&self, addr: SocketAddr, obs: &Registry) -> (Arc<Backend>, bool) {
        let mut backends = self
            .backends
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(existing) = backends.iter().find(|b| b.addr == addr) {
            return (Arc::clone(existing), false);
        }
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        let backend = Arc::new(Backend::with_timeout(id, addr, self.timeout));
        if let Some(plan) = &self.faults {
            backend.arm_faults(Arc::clone(plan));
        }
        backend.register_into(obs);
        backends.push(Arc::clone(&backend));
        self.joins.inc();
        (backend, true)
    }

    /// Removes the backend with `id` from the fleet, returning it (so
    /// the caller can report its final status). In-flight requests that
    /// snapshotted it earlier finish undisturbed.
    pub fn leave(&self, id: usize) -> Option<Arc<Backend>> {
        let mut backends = self
            .backends
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let position = backends.iter().position(|b| b.id == id)?;
        let removed = backends.remove(position);
        self.leaves.inc();
        Some(removed)
    }

    /// Join count since startup.
    #[must_use]
    pub(crate) fn joins(&self) -> u64 {
        self.joins.get()
    }

    /// Leave count since startup.
    #[must_use]
    pub(crate) fn leaves(&self) -> u64 {
        self.leaves.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn joins_draw_fresh_ids_and_dedupe_addresses() {
        let obs = Registry::new();
        let initial = vec![Arc::new(Backend::new(0, addr(9001)))];
        let membership = Membership::new(initial, Duration::from_secs(1), None);

        let (joined, fresh) = membership.join(addr(9002), &obs);
        assert!(fresh);
        assert_eq!(joined.id, 1);

        // Rejoining the same address is idempotent.
        let (again, fresh) = membership.join(addr(9002), &obs);
        assert!(!fresh);
        assert_eq!(again.id, 1);
        assert_eq!(membership.snapshot().len(), 2);
        assert_eq!(membership.joins(), 1);

        // Leave + rejoin: the id is never reused.
        assert!(membership.leave(1).is_some());
        assert!(membership.leave(1).is_none(), "double leave is a no-op");
        assert_eq!(membership.leaves(), 1);
        let (rejoined, fresh) = membership.join(addr(9002), &obs);
        assert!(fresh);
        assert_eq!(rejoined.id, 2, "a rejoin is a new incarnation");
        let ids: Vec<usize> = membership.snapshot().iter().map(|b| b.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn snapshots_are_stable_across_concurrent_leaves() {
        let obs = Registry::new();
        let membership = Membership::new(Vec::new(), Duration::from_secs(1), None);
        let (backend, _) = membership.join(addr(9003), &obs);
        let snapshot = membership.snapshot();
        membership.leave(backend.id);
        // The snapshot still holds the removed backend; new snapshots
        // do not.
        assert_eq!(snapshot.len(), 1);
        assert!(membership.snapshot().is_empty());
    }
}
