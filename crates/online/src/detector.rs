//! Novel-class arrival detection.
//!
//! The daemon learns from *labels*: a label outside the known set marks a
//! novel class, and once enough of its samples have been captured (the
//! arrival threshold) a continual-learning increment is worth its cost —
//! one latent sample is not enough signal to train on, and triggering an
//! increment per sample would thrash the learning stages. The tracker is
//! pure bookkeeping (no I/O, no clocks), so its decisions are a
//! deterministic function of the observed label sequence.

use serde::{Deserialize, Serialize};

/// What one observed label means for the learning loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Observation {
    /// The label belongs to an already-learned class.
    Known,
    /// A novel class, still below the arrival threshold.
    Pending {
        /// The novel class.
        class: u16,
        /// Samples of it observed so far (including this one).
        pending: usize,
    },
    /// This sample pushed a novel class to the arrival threshold — run an
    /// increment. The class stays pending until [`NoveltyTracker::promote`]
    /// confirms the increment landed.
    Arrived {
        /// The class that reached the threshold.
        class: u16,
    },
}

/// Tracks which classes are learned and how many samples each novel class
/// has accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoveltyTracker {
    /// Learned classes, sorted.
    known: Vec<u16>,
    /// Per novel class, samples observed so far, sorted by label.
    pending: Vec<(u16, usize)>,
    /// Samples a novel class needs before an increment fires.
    arrival_threshold: usize,
}

impl NoveltyTracker {
    /// Creates a tracker over the given known classes. A zero threshold is
    /// clamped to 1 — an increment needs at least one sample to train on.
    #[must_use]
    pub fn new(known: impl IntoIterator<Item = u16>, arrival_threshold: usize) -> Self {
        let mut known: Vec<u16> = known.into_iter().collect();
        known.sort_unstable();
        known.dedup();
        NoveltyTracker {
            known,
            pending: Vec::new(),
            arrival_threshold: arrival_threshold.max(1),
        }
    }

    /// The learned classes, sorted.
    #[must_use]
    pub fn known_classes(&self) -> &[u16] {
        &self.known
    }

    /// The configured arrival threshold.
    #[must_use]
    pub fn arrival_threshold(&self) -> usize {
        self.arrival_threshold
    }

    /// Whether `label` is a learned class.
    #[must_use]
    pub(crate) fn is_known(&self, label: u16) -> bool {
        self.known.binary_search(&label).is_ok()
    }

    /// Pending sample count of a novel class.
    #[must_use]
    pub fn pending(&self, class: u16) -> usize {
        self.pending
            .binary_search_by_key(&class, |&(c, _)| c)
            .map_or(0, |i| self.pending[i].1)
    }

    /// Observes one label, updating pending counts.
    pub(crate) fn observe(&mut self, label: u16) -> Observation {
        if self.is_known(label) {
            return Observation::Known;
        }
        let count = match self.pending.binary_search_by_key(&label, |&(c, _)| c) {
            Ok(i) => {
                self.pending[i].1 += 1;
                self.pending[i].1
            }
            Err(i) => {
                self.pending.insert(i, (label, 1));
                1
            }
        };
        if count >= self.arrival_threshold {
            Observation::Arrived { class: label }
        } else {
            Observation::Pending {
                class: label,
                pending: count,
            }
        }
    }

    /// Reverts one [`observe`] of a novel class — the rollback path when
    /// the work the observation triggered (an increment) fails and the
    /// event will be retried.
    ///
    /// [`observe`]: NoveltyTracker::observe
    pub(crate) fn retract(&mut self, class: u16) {
        if let Ok(i) = self.pending.binary_search_by_key(&class, |&(c, _)| c) {
            if self.pending[i].1 > 1 {
                self.pending[i].1 -= 1;
            } else {
                self.pending.remove(i);
            }
        }
    }

    /// Marks a class as learned (after a successful increment), clearing
    /// its pending count.
    pub fn promote(&mut self, class: u16) {
        if let Ok(i) = self.pending.binary_search_by_key(&class, |&(c, _)| c) {
            self.pending.remove(i);
        }
        if let Err(i) = self.known.binary_search(&class) {
            self.known.insert(i, class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_labels_pass_through() {
        let mut t = NoveltyTracker::new([0, 1, 2], 3);
        assert!(t.is_known(1));
        assert!(!t.is_known(9));
        assert_eq!(t.observe(2), Observation::Known);
        assert_eq!(t.pending(2), 0);
    }

    #[test]
    fn novel_class_arrives_at_the_threshold() {
        let mut t = NoveltyTracker::new([0, 1], 3);
        assert_eq!(
            t.observe(5),
            Observation::Pending {
                class: 5,
                pending: 1
            }
        );
        assert_eq!(
            t.observe(5),
            Observation::Pending {
                class: 5,
                pending: 2
            }
        );
        assert_eq!(t.observe(5), Observation::Arrived { class: 5 });
        // Until promoted, further samples keep reporting arrival.
        assert_eq!(t.observe(5), Observation::Arrived { class: 5 });
        t.promote(5);
        assert!(t.is_known(5));
        assert_eq!(t.observe(5), Observation::Known);
        assert_eq!(t.known_classes(), &[0, 1, 5]);
    }

    #[test]
    fn independent_novel_classes_accumulate_separately() {
        let mut t = NoveltyTracker::new([0], 2);
        t.observe(3);
        t.observe(7);
        assert_eq!(t.pending(3), 1);
        assert_eq!(t.pending(7), 1);
        assert_eq!(t.observe(7), Observation::Arrived { class: 7 });
        assert_eq!(t.pending(3), 1, "other classes unaffected");
    }

    #[test]
    fn retract_reverts_an_observation() {
        let mut t = NoveltyTracker::new([0], 3);
        t.observe(5);
        t.observe(5);
        t.retract(5);
        assert_eq!(t.pending(5), 1);
        t.retract(5);
        assert_eq!(t.pending(5), 0);
        // Retracting below zero or a known class is a no-op.
        t.retract(5);
        t.retract(0);
        assert_eq!(t.pending(5), 0);
    }

    #[test]
    fn zero_threshold_is_clamped() {
        let mut t = NoveltyTracker::new([], 0);
        assert_eq!(t.arrival_threshold(), 1);
        assert_eq!(t.observe(4), Observation::Arrived { class: 4 });
    }
}
