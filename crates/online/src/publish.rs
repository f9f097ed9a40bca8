//! The learner side of checkpoint replication.
//!
//! A [`DeltaPublisher`] sits next to the learner's [`OnlineLearner`]:
//! after every committed increment the learner hands it the fresh
//! checkpoint, and the publisher computes + retains the
//! [`CheckpointDelta`] from the previous one. Followers (via the
//! router's sync loop) then ask for "the delta from *my* version";
//! the publisher answers from its ring of recent deltas, or reports a
//! gap so the caller falls back to the full checkpoint bytes it also
//! keeps.
//!
//! Everything is behind one mutex — publishes are rare (once per
//! increment) and fetches copy out encoded bytes, so there is no
//! contention worth a finer scheme.
//!
//! [`OnlineLearner`]: crate::daemon::OnlineLearner

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::checkpoint::Checkpoint;
use crate::delta::CheckpointDelta;
use crate::error::OnlineError;

/// One retained delta: the version pair it bridges and its encoding.
#[derive(Debug, Clone)]
struct StoredDelta {
    base_version: u64,
    version: u64,
    bytes: Vec<u8>,
}

struct Inner {
    /// The latest published checkpoint (deltas are built against this).
    base: Checkpoint,
    /// Its full encoding, served to followers that cannot use a delta.
    full_bytes: Vec<u8>,
    /// Recent deltas, oldest first.
    ring: VecDeque<StoredDelta>,
}

/// Thread-safe publication point for checkpoint deltas (see the module
/// docs).
pub struct DeltaPublisher {
    inner: Mutex<Inner>,
    /// How many past deltas to retain.
    capacity: usize,
}

impl DeltaPublisher {
    /// Default delta-ring depth: enough for a follower to lag several
    /// increments without forcing a full-checkpoint resync.
    pub const DEFAULT_RING: usize = 8;

    /// Creates a publisher seeded with the learner's current checkpoint
    /// (typically the bootstrap state, before any increment).
    #[must_use]
    pub fn new(initial: Checkpoint) -> Self {
        Self::with_ring(initial, Self::DEFAULT_RING)
    }

    /// Like [`DeltaPublisher::new`] with an explicit ring depth
    /// (minimum 1).
    #[must_use]
    pub fn with_ring(initial: Checkpoint, capacity: usize) -> Self {
        let full_bytes = initial.to_bytes();
        DeltaPublisher {
            inner: Mutex::new(Inner {
                base: initial,
                full_bytes,
                ring: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Publishes the checkpoint produced by a committed increment:
    /// encodes it once, computes the delta from the previously published
    /// checkpoint (sealed with that encoding's trailing CRC), appends it
    /// to the ring and advances the base. The one encoding becomes the
    /// full checkpoint this publisher serves.
    ///
    /// Returns the encoded size of the new delta.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Checkpoint`] if `next` does not advance
    /// the published version (see [`CheckpointDelta::between`]); the
    /// published state is unchanged.
    pub fn publish(&self, next: Checkpoint) -> Result<usize, OnlineError> {
        // Encoded before taking the lock, so fetches are not held up.
        let full_bytes = next.to_bytes();
        // Publisher state stays valid across any unwind point (the
        // fallible work happens before the mutations), so recover a
        // poisoned guard instead of cascading the panic.
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let delta = CheckpointDelta::between(&inner.base, &next, &full_bytes)?;
        let bytes = delta.to_bytes();
        let size = bytes.len();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(StoredDelta {
            base_version: delta.base_version,
            version: delta.version,
            bytes,
        });
        inner.full_bytes = full_bytes;
        inner.base = next;
        Ok(size)
    }

    /// The delta that advances a replica holding `base_version`, if the
    /// ring still has it. `None` means the follower is too far behind
    /// (or already current) and should compare versions / fetch the
    /// full checkpoint instead.
    #[must_use]
    pub fn delta_from(&self, base_version: u64) -> Option<(u64, Vec<u8>)> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .ring
            .iter()
            .find(|d| d.base_version == base_version)
            .map(|d| (d.version, d.bytes.clone()))
    }

    /// The full encoding of the latest published checkpoint.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.latest().1
    }

    /// The latest published version and its full encoding, read under
    /// one lock (a publish cannot slip in between).
    #[must_use]
    pub fn latest(&self) -> (u64, Vec<u8>) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.base.version, inner.full_bytes.clone())
    }

    /// The latest published version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .base
            .version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::{Network, NetworkConfig};
    use ncl_spike::memory::Alignment;
    use replay4ncl::buffer::LatentReplayBuffer;

    fn checkpoint(version: u64) -> Checkpoint {
        let mut network = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
        // Make each version's weights distinct so deltas are non-empty.
        network
            .visit_trainable_mut(1, |slice| {
                for v in slice.iter_mut() {
                    *v += version as f32 * 0.01;
                }
            })
            .unwrap();
        Checkpoint {
            version,
            cursor: version * 10,
            event_digest: version ^ 0xAB,
            config_digest: 42,
            known_classes: vec![0, 1],
            network,
            buffer: LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 8_192),
            pending: Vec::new(),
        }
    }

    #[test]
    fn publish_builds_a_servable_chain() {
        let publisher = DeltaPublisher::new(checkpoint(1));
        assert_eq!(publisher.version(), 1);
        assert!(publisher.delta_from(1).is_none(), "nothing published yet");

        publisher.publish(checkpoint(2)).unwrap();
        publisher.publish(checkpoint(3)).unwrap();
        assert_eq!(publisher.version(), 3);

        // A follower at v2 gets the v2->v3 delta and lands on v3
        // bit-identically.
        let (version, bytes) = publisher.delta_from(2).unwrap();
        assert_eq!(version, 3);
        let delta = crate::delta::CheckpointDelta::from_bytes(&bytes).unwrap();
        let applied = delta.apply(&checkpoint(2)).unwrap();
        assert_eq!(applied.to_bytes(), publisher.checkpoint_bytes());

        // A follower at an unknown version gets no delta.
        assert!(publisher.delta_from(7).is_none());
    }

    #[test]
    fn ring_evicts_oldest() {
        let publisher = DeltaPublisher::with_ring(checkpoint(1), 2);
        for v in 2..=5 {
            publisher.publish(checkpoint(v)).unwrap();
        }
        assert!(publisher.delta_from(1).is_none(), "evicted");
        assert!(publisher.delta_from(2).is_none(), "evicted");
        assert!(publisher.delta_from(3).is_some());
        assert!(publisher.delta_from(4).is_some());
    }

    #[test]
    fn non_advancing_publish_leaves_state_untouched() {
        let publisher = DeltaPublisher::new(checkpoint(2));
        assert!(publisher.publish(checkpoint(2)).is_err());
        assert_eq!(publisher.version(), 2);
        assert!(publisher.delta_from(2).is_none());
    }
}
