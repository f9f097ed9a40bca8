//! The model registry: which network is serving right now, and how it is
//! replaced.
//!
//! A continual-learning increment produces a new network; the registry
//! swaps it in **atomically** — readers grab an `Arc` snapshot of the
//! current model per batch, so a swap never disturbs an in-flight
//! forward pass, and the write lock is held only for the pointer
//! exchange (never across a forward pass or checkpoint load). Versions
//! increase monotonically and are echoed in every predict response, so
//! clients can observe exactly when an increment went live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ncl_snn::{serialize, Network};
use parking_lot::RwLock;

use crate::error::ServeError;

/// An immutable snapshot of one serving model.
#[derive(Debug)]
pub struct ServingModel {
    /// The network weights + architecture.
    pub network: Network,
    /// Monotonic registry version (1 for the initial model).
    pub version: u64,
    /// Human-readable provenance ("initial", a checkpoint path, ...).
    pub source: String,
}

impl ServingModel {
    /// Input width requests must match.
    #[must_use]
    pub fn input_size(&self) -> usize {
        self.network.config().input_size
    }

    /// Output class count.
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.network.config().output_size
    }
}

/// Atomic hot-swap slot for the serving model.
#[derive(Debug)]
pub struct ModelRegistry {
    slot: RwLock<Arc<ServingModel>>,
    next_version: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry serving `network` as version 1.
    #[must_use]
    pub fn new(network: Network, source: &str) -> Self {
        ModelRegistry::with_initial_version(network, source, 1)
    }

    /// Creates a registry serving `network` at a caller-chosen initial
    /// version (clamped to at least 1). A process that restores its model
    /// from a checkpoint uses this to keep the wire-visible
    /// `model_version` monotonic across restarts — clients that observed
    /// version N before a crash must never see the same-or-newer weights
    /// re-announced as version 1.
    #[must_use]
    pub fn with_initial_version(network: Network, source: &str, version: u64) -> Self {
        let version = version.max(1);
        ModelRegistry {
            slot: RwLock::new(Arc::new(ServingModel {
                network,
                version,
                source: source.to_owned(),
            })),
            next_version: AtomicU64::new(version + 1),
        }
    }

    /// Snapshot of the current model. Cheap (`Arc` clone under a read
    /// lock); the snapshot stays valid across any number of concurrent
    /// swaps.
    #[must_use]
    pub fn current(&self) -> Arc<ServingModel> {
        self.slot.read().clone()
    }

    /// Version of the current model.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.slot.read().version
    }

    /// Atomically replaces the serving model, returning the new version.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IncompatibleModel`] if the replacement's
    /// input or output width differs from the current model — requests
    /// in flight (and clients mid-connection) were built against that
    /// contract, and a silent change would fail them.
    pub fn swap_network(&self, network: Network, source: &str) -> Result<u64, ServeError> {
        // Shape check, version allocation and pointer store all happen
        // under one write lock: two racing swaps commit in version order,
        // so an observed version can never regress.
        let mut slot = self.slot.write();
        let (cur_in, cur_out) = (slot.input_size(), slot.output_size());
        let (new_in, new_out) = (network.config().input_size, network.config().output_size);
        if (cur_in, cur_out) != (new_in, new_out) {
            return Err(ServeError::IncompatibleModel {
                detail: format!("serving {cur_in}->{cur_out}, replacement is {new_in}->{new_out}"),
            });
        }
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        *slot = Arc::new(ServingModel {
            network,
            version,
            source: source.to_owned(),
        });
        Ok(version)
    }

    /// Atomically replaces the serving model at an **exact** version —
    /// the replication path, where a follower must mirror the learner's
    /// version rather than invent its own. Future auto-allocated
    /// versions continue above `version`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StaleVersion`] if `version` does not
    /// advance the currently served one (an out-of-order or duplicate
    /// delta must not regress the wire-visible version), and
    /// [`ServeError::IncompatibleModel`] for shape changes.
    pub fn swap_network_at(
        &self,
        network: Network,
        source: &str,
        version: u64,
    ) -> Result<u64, ServeError> {
        let mut slot = self.slot.write();
        if version <= slot.version {
            return Err(ServeError::StaleVersion {
                current: slot.version,
                proposed: version,
            });
        }
        let (cur_in, cur_out) = (slot.input_size(), slot.output_size());
        let (new_in, new_out) = (network.config().input_size, network.config().output_size);
        if (cur_in, cur_out) != (new_in, new_out) {
            return Err(ServeError::IncompatibleModel {
                detail: format!("serving {cur_in}->{cur_out}, replacement is {new_in}->{new_out}"),
            });
        }
        // Keep the auto-allocation sequence ahead of the mirrored
        // version (same write lock as the store, so no swap can
        // interleave and observe the intermediate counter).
        self.next_version.fetch_max(version + 1, Ordering::Relaxed);
        *slot = Arc::new(ServingModel {
            network,
            version,
            source: source.to_owned(),
        });
        Ok(version)
    }

    /// In-memory counterpart of [`ModelRegistry::swap_from_file`], for
    /// tests.
    #[cfg(test)]
    fn swap_from_bytes(&self, bytes: &[u8], source: &str) -> Result<u64, ServeError> {
        let network = serialize::from_bytes(bytes)?;
        self.swap_network(network, source)
    }

    /// Loads a checkpoint file (the `ncl_snn::serialize` format) and swaps
    /// it in.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snn`] for unreadable/malformed checkpoints
    /// and [`ServeError::IncompatibleModel`] for shape changes. On error
    /// the current model keeps serving untouched.
    pub(crate) fn swap_from_file(&self, path: &std::path::Path) -> Result<u64, ServeError> {
        let network = serialize::from_file(path)?;
        self.swap_network(network, &path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::NetworkConfig;

    fn net(seed: u64) -> Network {
        let mut config = NetworkConfig::tiny(6, 3);
        config.seed = seed;
        Network::new(config).unwrap()
    }

    #[test]
    fn initial_version_carries_across_restores() {
        let registry = ModelRegistry::with_initial_version(net(1), "checkpoint:x", 7);
        assert_eq!(registry.version(), 7);
        assert_eq!(registry.current().source, "checkpoint:x");
        // The next swap continues the sequence, never regressing.
        assert_eq!(registry.swap_network(net(2), "increment").unwrap(), 8);
        // Zero is clamped to the floor version 1.
        assert_eq!(
            ModelRegistry::with_initial_version(net(1), "x", 0).version(),
            1
        );
    }

    #[test]
    fn swap_bumps_version_and_replaces_network() {
        let registry = ModelRegistry::new(net(1), "initial");
        assert_eq!(registry.version(), 1);
        let before = registry.current();
        let v = registry.swap_network(net(2), "increment").unwrap();
        assert_eq!(v, 2);
        assert_eq!(registry.version(), 2);
        // The old snapshot is still intact and usable.
        assert_eq!(before.version, 1);
        assert_ne!(before.network, registry.current().network);
        assert_eq!(registry.current().source, "increment");
    }

    #[test]
    fn incompatible_shape_is_rejected_and_keeps_serving() {
        let registry = ModelRegistry::new(net(1), "initial");
        let wrong = Network::new(NetworkConfig::tiny(7, 3)).unwrap();
        assert!(matches!(
            registry.swap_network(wrong, "bad"),
            Err(ServeError::IncompatibleModel { .. })
        ));
        let wrong_out = Network::new(NetworkConfig::tiny(6, 4)).unwrap();
        assert!(registry.swap_network(wrong_out, "bad").is_err());
        assert_eq!(registry.version(), 1, "failed swap leaves version alone");
    }

    #[test]
    fn swap_at_mirrors_versions_and_rejects_stale_ones() {
        let registry = ModelRegistry::new(net(1), "bootstrap");
        // A follower mirrors the learner's v2 exactly.
        assert_eq!(registry.swap_network_at(net(2), "delta-2", 2).unwrap(), 2);
        // Jumping ahead (learner ran increments we missed) is fine.
        assert_eq!(registry.swap_network_at(net(3), "delta-5", 5).unwrap(), 5);
        // A duplicate or out-of-order delta must not regress.
        for stale in [5, 4, 1] {
            assert!(matches!(
                registry.swap_network_at(net(4), "stale", stale),
                Err(ServeError::StaleVersion {
                    current: 5,
                    proposed
                }) if proposed == stale
            ));
        }
        assert_eq!(registry.version(), 5);
        // Auto-allocated versions continue above the mirrored one.
        assert_eq!(registry.swap_network(net(5), "local").unwrap(), 6);
        // Shape changes are still refused.
        let wrong = Network::new(NetworkConfig::tiny(7, 3)).unwrap();
        assert!(matches!(
            registry.swap_network_at(wrong, "bad", 9),
            Err(ServeError::IncompatibleModel { .. })
        ));
    }

    #[test]
    fn swap_from_bytes_round_trips() {
        let registry = ModelRegistry::new(net(1), "initial");
        let replacement = net(9);
        let v = registry
            .swap_from_bytes(&serialize::to_bytes(&replacement), "bytes")
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(registry.current().network, replacement);
        // Garbage bytes are rejected without disturbing the slot.
        assert!(registry.swap_from_bytes(b"nonsense", "bad").is_err());
        assert_eq!(registry.version(), 2);
    }

    /// The serving behaviour that must survive any failed swap: same
    /// version, same source, and bit-identical logits for a probe input.
    fn serving_fingerprint(registry: &ModelRegistry) -> (u64, String, Vec<f32>) {
        let model = registry.current();
        let probe = ncl_spike::SpikeRaster::from_fn(6, 8, |n, t| (n + t) % 3 == 0);
        let logits = model.network.forward(&probe).unwrap();
        (model.version, model.source.clone(), logits)
    }

    #[test]
    fn failed_byte_swaps_keep_the_old_model_serving() {
        let registry = ModelRegistry::new(net(1), "initial");
        let before = serving_fingerprint(&registry);

        // Shape mismatch: a valid checkpoint of an incompatible network.
        let wrong_in = Network::new(NetworkConfig::tiny(7, 3)).unwrap();
        assert!(matches!(
            registry.swap_from_bytes(&serialize::to_bytes(&wrong_in), "wrong-in"),
            Err(ServeError::IncompatibleModel { .. })
        ));
        let wrong_out = Network::new(NetworkConfig::tiny(6, 4)).unwrap();
        assert!(matches!(
            registry.swap_from_bytes(&serialize::to_bytes(&wrong_out), "wrong-out"),
            Err(ServeError::IncompatibleModel { .. })
        ));

        // Corrupt payloads: bad magic, truncation, trailing garbage.
        let good = serialize::to_bytes(&net(2));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            registry.swap_from_bytes(&bad_magic, "bad-magic"),
            Err(ServeError::Snn(_))
        ));
        assert!(registry
            .swap_from_bytes(&good[..good.len() - 3], "truncated")
            .is_err());
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0u8; 2]);
        assert!(registry.swap_from_bytes(&trailing, "trailing").is_err());

        assert_eq!(
            serving_fingerprint(&registry),
            before,
            "old model must keep serving unchanged after every failed swap"
        );
        // And the slot still accepts a good swap afterwards.
        assert_eq!(registry.swap_from_bytes(&good, "good").unwrap(), 2);
    }

    #[test]
    fn failed_file_swaps_keep_the_old_model_serving() {
        let dir = std::env::temp_dir().join("ncl-serve-registry-swap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let registry = ModelRegistry::new(net(1), "initial");
        let before = serving_fingerprint(&registry);

        // A checkpoint file with an incompatible shape.
        let wrong = Network::new(NetworkConfig::tiny(9, 3)).unwrap();
        let wrong_path = dir.join("wrong-shape.bin");
        serialize::to_file(&wrong, &wrong_path).unwrap();
        assert!(matches!(
            registry.swap_from_file(&wrong_path),
            Err(ServeError::IncompatibleModel { .. })
        ));

        // A corrupt checkpoint file: an implausible hidden-layer count
        // (byte 19 is the high byte of the u32 at offset 16) and a
        // truncated weight payload both fail deserialization cleanly.
        let good = serialize::to_bytes(&net(3));
        let mut corrupt = good.clone();
        corrupt[19] = 0xFF;
        let corrupt_path = dir.join("corrupt.bin");
        std::fs::write(&corrupt_path, &corrupt).unwrap();
        assert!(registry.swap_from_file(&corrupt_path).is_err());
        let truncated_path = dir.join("truncated.bin");
        std::fs::write(&truncated_path, &good[..good.len() - 5]).unwrap();
        assert!(registry.swap_from_file(&truncated_path).is_err());

        // A missing file.
        assert!(registry.swap_from_file(&dir.join("missing.bin")).is_err());

        assert_eq!(
            serving_fingerprint(&registry),
            before,
            "old model must keep serving unchanged after every failed file swap"
        );
        std::fs::remove_file(&wrong_path).ok();
        std::fs::remove_file(&corrupt_path).ok();
        std::fs::remove_file(&truncated_path).ok();
    }

    #[test]
    fn concurrent_swaps_and_reads_stay_consistent() {
        let registry = ModelRegistry::new(net(0), "initial");
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let registry = &registry;
                scope.spawn(move || {
                    registry.swap_network(net(i + 10), "swap").unwrap();
                });
                scope.spawn(move || {
                    let snapshot = registry.current();
                    // A snapshot is internally consistent at all times.
                    assert_eq!(snapshot.input_size(), 6);
                    assert_eq!(snapshot.output_size(), 3);
                    assert!(snapshot.version >= 1);
                });
            }
        });
        assert_eq!(registry.version(), 5, "four swaps landed");
    }
}
