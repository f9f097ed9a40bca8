//! Deterministic fault injection for the fleet's wire paths.
//!
//! A [`FaultPlan`] sits under [`crate::backend::Backend::request`]: for
//! every outgoing op it decides — as a pure function of the plan seed,
//! the global op sequence number and the matching rule's index — whether
//! to inject a fault instead of (or around) the real round trip. The
//! same seed and the same op sequence therefore produce the same fault
//! schedule, which is what lets `tests/fleet_chaos.rs` assert exact
//! post-chaos state instead of "it usually survives".
//!
//! Four fault shapes cover the failure modes a TCP fleet actually has:
//!
//! * **Drop** — the connection dies before the request is written
//!   (surfaces as `ConnectionAborted`; models a crash or a RST).
//! * **Delay** — the round trip happens, late (models congestion; the
//!   caller's timeout may or may not fire).
//! * **BlackHole** — the request vanishes (surfaces as `TimedOut`
//!   without waiting out a real timeout; models a partition that
//!   swallows packets).
//! * **CloseMidWrite** — a real connection is opened, a prefix of the
//!   request line is written, then the socket is dropped (models a
//!   crash mid-send; exercises the replica's partial-line handling and
//!   the backend pool's never-reuse-after-error rule).
//!
//! Besides seeded rules, a plan carries runtime **partitions**: test
//! choreography calls [`FaultPlan::partition`] to make one replica
//! unreachable (every op drops) and [`FaultPlan::heal`] to bring it
//! back — the deterministic way to "kill" and "restart" a replica
//! without process management.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ncl_obs::Counter;

/// What an injected fault does to the op it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail immediately as if the connection died (`ConnectionAborted`).
    Drop,
    /// Sleep this long, then run the real round trip.
    Delay(Duration),
    /// Fail as a timeout without a real wait (`TimedOut`).
    BlackHole,
    /// Open a real connection, write a prefix of the line, drop it.
    CloseMidWrite,
}

/// One match-and-inject rule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Restrict to one backend id (`None` = every backend).
    pub replica: Option<usize>,
    /// Restrict to one wire op, e.g. `"predict"` (`None` = every op).
    pub op: Option<String>,
    /// First global op sequence number the rule applies to.
    pub from_seq: u64,
    /// First sequence number past the rule's window.
    pub until_seq: u64,
    /// Injection probability in `[0, 1]`, decided deterministically.
    pub probability: f64,
    /// The fault to inject on a hit.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule matching every op on every backend, forever.
    #[must_use]
    pub fn every(probability: f64, action: FaultAction) -> Self {
        FaultRule {
            replica: None,
            op: None,
            from_seq: 0,
            until_seq: u64::MAX,
            probability,
            action,
        }
    }

    /// Restricts the rule to one wire op.
    #[must_use]
    pub fn on_op(mut self, op: &str) -> Self {
        self.op = Some(op.to_owned());
        self
    }

    fn matches(&self, replica: usize, op: &str, seq: u64) -> bool {
        if seq < self.from_seq || seq >= self.until_seq {
            return false;
        }
        if self.replica.is_some_and(|r| r != replica) {
            return false;
        }
        self.op.as_deref().is_none_or(|o| o == op)
    }
}

/// A seeded, rule-based fault schedule (see the module docs).
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Global op sequence: every [`FaultPlan::decide`] call consumes
    /// one number, so the schedule is a function of call order alone.
    seq: AtomicU64,
    /// Backends currently black-holed by test choreography.
    partitioned: Mutex<HashSet<usize>>,
    injected: Arc<Counter>,
}

impl FaultPlan {
    /// A plan with no rules — faults come only from
    /// [`FaultPlan::partition`] calls.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_rules(seed, Vec::new())
    }

    /// A plan with a seeded rule schedule.
    #[must_use]
    pub fn with_rules(seed: u64, rules: Vec<FaultRule>) -> Self {
        FaultPlan {
            seed,
            rules,
            seq: AtomicU64::new(0),
            partitioned: Mutex::new(HashSet::new()),
            injected: Arc::new(Counter::new()),
        }
    }

    /// Makes every op on `replica` drop until [`FaultPlan::heal`].
    pub fn partition(&self, replica: usize) {
        self.partitioned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(replica);
    }

    /// Reverses [`FaultPlan::partition`].
    pub fn heal(&self, replica: usize) {
        self.partitioned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&replica);
    }

    /// Whether `replica` is currently partitioned.
    #[must_use]
    fn is_partitioned(&self, replica: usize) -> bool {
        self.partitioned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(&replica)
    }

    /// Faults injected so far (partitions and rule hits).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }

    /// Decides the fate of the next op sent to `replica`: `None` means
    /// run it for real. Consumes one sequence number either way.
    #[must_use]
    pub(crate) fn decide(&self, replica: usize, op: &str) -> Option<FaultAction> {
        let seq = self.seq.fetch_add(1, Ordering::AcqRel);
        if self.is_partitioned(replica) {
            self.injected.inc();
            return Some(FaultAction::Drop);
        }
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(replica, op, seq) {
                continue;
            }
            if roll(self.seed, seq, idx as u64) < rule.probability {
                self.injected.inc();
                return Some(rule.action);
            }
        }
        None
    }
}

/// The deterministic coin: FNV-1a over (seed, seq, rule index), mapped
/// to `[0, 1)`.
fn roll(seed: u64, seq: u64, rule_idx: u64) -> f64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in [seed, seq, rule_idx] {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // 53 mantissa bits keep the division exact enough for a coin.
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Extracts the `"op"` value from a request line without a full JSON
/// parse (fault decisions sit on the relay hot path; the lines the
/// router builds always render `"op":"..."` verbatim).
#[must_use]
pub(crate) fn op_of(line: &str) -> &str {
    let Some(start) = line.find("\"op\":\"").map(|p| p + 6) else {
        return "";
    };
    let rest = &line[start..];
    match rest.find('"') {
        Some(end) => &rest[..end],
        None => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let rules = vec![FaultRule::every(0.5, FaultAction::Drop)];
        let a = FaultPlan::with_rules(42, rules.clone());
        let b = FaultPlan::with_rules(42, rules.clone());
        let schedule_a: Vec<_> = (0..64).map(|_| a.decide(0, "predict")).collect();
        let schedule_b: Vec<_> = (0..64).map(|_| b.decide(0, "predict")).collect();
        assert_eq!(schedule_a, schedule_b);
        // And an actually mixed schedule, not all-or-nothing.
        let hits = schedule_a.iter().flatten().count();
        assert!(hits > 8 && hits < 56, "degenerate coin: {hits}/64");

        let c = FaultPlan::with_rules(43, rules);
        let schedule_c: Vec<_> = (0..64).map(|_| c.decide(0, "predict")).collect();
        assert_ne!(schedule_a, schedule_c, "a different seed reschedules");
    }

    #[test]
    fn rules_filter_by_replica_op_and_window() {
        let plan = FaultPlan::with_rules(
            7,
            vec![FaultRule {
                replica: Some(1),
                from_seq: 2,
                until_seq: 4,
                ..FaultRule::every(1.0, FaultAction::BlackHole).on_op("delta")
            }],
        );
        // seq 0, 1: outside the window.
        assert_eq!(plan.decide(1, "delta"), None);
        assert_eq!(plan.decide(1, "delta"), None);
        // seq 2: in the window but wrong replica / op.
        assert_eq!(plan.decide(0, "delta"), None);
        // seq 3: full match.
        assert_eq!(plan.decide(1, "delta"), Some(FaultAction::BlackHole));
        // seq 4: window closed.
        assert_eq!(plan.decide(1, "delta"), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn partitions_override_everything_until_healed() {
        let plan = FaultPlan::new(0);
        assert_eq!(plan.decide(2, "ping"), None);
        plan.partition(2);
        assert!(plan.is_partitioned(2));
        assert_eq!(plan.decide(2, "ping"), Some(FaultAction::Drop));
        assert_eq!(plan.decide(0, "ping"), None, "other replicas unaffected");
        plan.heal(2);
        assert_eq!(plan.decide(2, "ping"), None);
    }

    #[test]
    fn op_extraction_reads_router_built_lines() {
        assert_eq!(op_of(r#"{"op":"predict","id":3}"#), "predict");
        assert_eq!(
            op_of(r#"{"id":3,"op":"apply_delta","payload":"00"}"#),
            "apply_delta"
        );
        assert_eq!(op_of("not json"), "");
    }
}
