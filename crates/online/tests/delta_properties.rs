//! Property-based tests for the checkpoint-delta format, mirroring the
//! checkpoint strictness proptests: a delta must reconstruct its target
//! bit-identically, and any corruption, wrong base, or out-of-order
//! application must `Err` — a follower may never hot-swap wrong bytes.

use ncl_online::checkpoint::Checkpoint;
use ncl_online::daemon::EVENT_DIGEST_SEED;
use ncl_online::delta::CheckpointDelta;
use ncl_online::error::OnlineError;
use ncl_snn::{Network, NetworkConfig};
use ncl_spike::codec::{self, CompressionFactor};
use ncl_spike::memory::Alignment;
use ncl_spike::SpikeRaster;
use proptest::prelude::*;
use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer};

/// Builds a structurally varied base checkpoint from scalar knobs (same
/// construction as the checkpoint proptests).
fn build_base(seed: u64, cursor: u64, entries: usize, bounded: bool) -> Checkpoint {
    let mut rng = ncl_tensor::Rng::seed_from_u64(seed);
    let mut network = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
    network.layer_mut(0).w_ff_mut().set(0, 0, rng.uniform_f32());
    let mut buffer = if bounded {
        LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 1u64 << 20)
    } else {
        LatentReplayBuffer::new(Alignment::Byte)
    };
    for i in 0..entries {
        let raster = SpikeRaster::from_fn(5, 12, |_, _| rng.bernoulli(0.25));
        if i % 2 == 0 {
            buffer.push(LatentEntry::reduced(raster, 24, (i % 4) as u16));
        } else {
            buffer.push(LatentEntry::compressed(
                codec::compress(&raster, CompressionFactor::new(2).unwrap()),
                (i % 4) as u16,
            ));
        }
    }
    Checkpoint {
        version: 2 + entries as u64,
        cursor,
        event_digest: EVENT_DIGEST_SEED ^ seed,
        config_digest: EVENT_DIGEST_SEED ^ seed.rotate_left(17),
        known_classes: vec![0, 1, 2],
        network,
        buffer,
        pending: vec![(3, SpikeRaster::from_fn(5, 8, |n, t| (n + t) % 3 == 0))],
    }
}

/// Evolves `base` the way an increment does: nudge weights in one
/// stage, append store entries, learn a class, advance the counters.
fn evolve(base: &Checkpoint, weight_salt: u64, appended: usize) -> Checkpoint {
    let mut next = base.clone();
    let nudge = (weight_salt % 255) as f32 / 255.0 - 0.5;
    next.network
        .visit_trainable_mut(1, |plane| {
            for w in plane.iter_mut() {
                *w += nudge;
            }
        })
        .unwrap();
    for i in 0..appended {
        let raster = SpikeRaster::from_fn(5, 12, |n, t| (n * 7 + t * 5 + i) % 4 == 0);
        next.buffer.push(LatentEntry::reduced(raster, 24, 3));
    }
    next.version = base.version + 1;
    next.cursor = base.cursor + 1 + appended as u64;
    next.event_digest = base.event_digest.rotate_left(9) ^ weight_salt;
    next.known_classes = vec![0, 1, 2, 3];
    next.pending.clear();
    next
}

/// Strategy producing the (base, evolution) knobs.
fn knobs() -> impl Strategy<Value = (u64, u64, usize, bool, u64, usize)> {
    (
        any::<u64>(),
        1u64..1000,
        0usize..6,
        any::<bool>(),
        any::<u64>(),
        0usize..4,
    )
}

proptest! {
    /// The reconstruction guarantee: between → encode → decode → apply
    /// reproduces the target checkpoint bit-identically.
    #[test]
    fn delta_apply_reconstructs_the_target_bit_identically(k in knobs()) {
        let base = build_base(k.0, k.1, k.2, k.3);
        let next = evolve(&base, k.4, k.5);
        let delta = CheckpointDelta::between(&base, &next, &next.to_bytes()).unwrap();
        let decoded = CheckpointDelta::from_bytes(&delta.to_bytes()).unwrap();
        let rebuilt = decoded.apply(&base).unwrap();
        prop_assert_eq!(rebuilt.to_bytes(), next.to_bytes());
    }

    /// The strictness guarantee: flipping any single byte anywhere in
    /// the delta encoding — header, versions, weight planes, the kept
    /// bitmap, tail entries or either CRC — must fail the decode. A
    /// follower can never apply corrupted bytes.
    #[test]
    fn corrupt_one_byte_never_applies(
        k in knobs(),
        position in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let base = build_base(k.0, k.1, k.2, k.3);
        let next = evolve(&base, k.4, k.5);
        let bytes = CheckpointDelta::between(&base, &next, &next.to_bytes()).unwrap().to_bytes();
        let index = (position % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[index] ^= flip;
        prop_assert!(
            CheckpointDelta::from_bytes(&corrupt).is_err(),
            "flipping byte {} with {:#04x} was accepted", index, flip
        );
    }

    /// The anchoring guarantee: a delta only applies to the exact base
    /// version it was cut against.
    #[test]
    fn apply_to_any_other_version_is_rejected(k in knobs(), skew in 1u64..5) {
        let base = build_base(k.0, k.1, k.2, k.3);
        let next = evolve(&base, k.4, k.5);
        let delta = CheckpointDelta::between(&base, &next, &next.to_bytes()).unwrap();
        let mut wrong = base.clone();
        wrong.version = base.version.wrapping_add(skew);
        match delta.apply(&wrong) {
            Err(OnlineError::DeltaMismatch { expected_base, got_base }) => {
                // `expected_base` reports what the applying replica
                // holds; `got_base` is the base the delta was cut on.
                prop_assert_eq!(expected_base, wrong.version);
                prop_assert_eq!(got_base, base.version);
            }
            other => prop_assert!(false, "expected DeltaMismatch, got {:?}", other.map(|_| ())),
        }
    }
}

/// Out-of-order application across a real chain: skipping a link must
/// be rejected; replaying the chain in order converges bit-exactly.
#[test]
fn out_of_order_chain_application_is_rejected() {
    let v1 = build_base(0xD17A, 10, 4, false);
    let v2 = evolve(&v1, 0xBEEF, 2);
    let v3 = evolve(&v2, 0xF00D, 1);
    let d12 = CheckpointDelta::between(&v1, &v2, &v2.to_bytes()).unwrap();
    let d23 = CheckpointDelta::between(&v2, &v3, &v3.to_bytes()).unwrap();

    // Skipping d12: d23 names v2 as its base, v1 is not it.
    assert!(matches!(
        d23.apply(&v1),
        Err(OnlineError::DeltaMismatch { .. })
    ));
    // Replaying d12 onto its own output is equally out of order.
    let at_v2 = d12.apply(&v1).unwrap();
    assert!(matches!(
        d12.apply(&at_v2),
        Err(OnlineError::DeltaMismatch { .. })
    ));
    // In order, the chain lands exactly on v3.
    assert_eq!(d23.apply(&at_v2).unwrap().to_bytes(), v3.to_bytes());
}
