//! Property-based tests for the spike substrate: codec round-trips, raster
//! bit operations and resampling invariants.

use ncl_spike::codec::{self, CompressionFactor};
use ncl_spike::memory::{sample_footprint, Alignment};
use ncl_spike::resample::{resample, ResampleStrategy};
use ncl_spike::SpikeRaster;
use proptest::prelude::*;

/// Strategy: a random raster with bounded dimensions and density.
fn raster_strategy(max_neurons: usize, max_steps: usize) -> impl Strategy<Value = SpikeRaster> {
    (1..=max_neurons, 1..=max_steps, any::<u64>()).prop_map(|(n, s, seed)| {
        let mut rng = ncl_tensor::Rng::seed_from_u64(seed);
        SpikeRaster::from_fn(n, s, |_, _| rng.bernoulli(0.2))
    })
}

proptest! {
    #[test]
    fn codec_shape_round_trip(r in raster_strategy(40, 60), factor in 1u32..6) {
        let c = codec::compress(&r, CompressionFactor::new(factor).unwrap());
        prop_assert_eq!(c.stored_steps(), r.steps().div_ceil(factor as usize));
        let d = c.decompress();
        prop_assert_eq!(d.steps(), r.steps());
        prop_assert_eq!(d.neurons(), r.neurons());
    }

    #[test]
    fn codec_identity_factor_lossless(r in raster_strategy(40, 60)) {
        let c = codec::compress(&r, CompressionFactor::IDENTITY);
        prop_assert_eq!(c.decompress(), r);
    }

    #[test]
    fn codec_never_invents_spikes(r in raster_strategy(30, 50), factor in 1u32..5) {
        let d = codec::compress(&r, CompressionFactor::new(factor).unwrap()).decompress();
        for t in 0..r.steps() {
            for n in 0..r.neurons() {
                if d.get(n, t) {
                    prop_assert!(r.get(n, t));
                }
            }
        }
    }

    #[test]
    fn codec_keeps_kept_frames_exact(r in raster_strategy(30, 50), factor in 1u32..5) {
        let c = factor as usize;
        let d = codec::compress(&r, CompressionFactor::new(factor).unwrap()).decompress();
        // Every kept frame (t divisible by c) survives exactly.
        for t in (0..r.steps()).step_by(c) {
            for n in 0..r.neurons() {
                prop_assert_eq!(d.get(n, t), r.get(n, t));
            }
        }
    }

    #[test]
    fn codec_payload_monotone_in_factor(r in raster_strategy(30, 60)) {
        let mut prev = u64::MAX;
        for factor in 1..=4u32 {
            let bits = codec::compress(&r, CompressionFactor::new(factor).unwrap())
                .payload_bits();
            prop_assert!(bits <= prev);
            prev = bits;
        }
    }

    #[test]
    fn resample_or_preserves_activity(r in raster_strategy(30, 60), denom in 1usize..6) {
        let target = (r.steps() / denom).max(1);
        let d = resample(&r, target, ResampleStrategy::OrBins).unwrap();
        // OR-binning keeps exactly the per-neuron "fired at all" property.
        for n in 0..r.neurons() {
            let src_any = (0..r.steps()).any(|t| r.get(n, t));
            let dst_any = (0..d.steps()).any(|t| d.get(n, t));
            prop_assert_eq!(src_any, dst_any);
        }
        // And never grows the spike count.
        prop_assert!(d.total_spikes() <= r.total_spikes());
    }

    #[test]
    fn resample_decimate_loses_at_least_as_much_as_or(
        r in raster_strategy(30, 60), denom in 1usize..6
    ) {
        let target = (r.steps() / denom).max(1);
        let dec = resample(&r, target, ResampleStrategy::Decimate).unwrap();
        let orr = resample(&r, target, ResampleStrategy::OrBins).unwrap();
        prop_assert!(dec.total_spikes() <= orr.total_spikes());
    }

    #[test]
    fn footprint_alignment_ordering(bits in 0u64..100_000) {
        let exact = sample_footprint(bits, Alignment::Bit).aligned_bits;
        let byte = sample_footprint(bits, Alignment::Byte).aligned_bits;
        let word = sample_footprint(bits, Alignment::Word32).aligned_bits;
        prop_assert!(exact <= byte);
        prop_assert!(byte <= word);
        prop_assert!(word - exact < 32);
        prop_assert_eq!(byte % 8, 0);
        prop_assert_eq!(word % 32, 0);
    }

    #[test]
    fn rle_round_trips_any_raster(r in raster_strategy(60, 60)) {
        let rle = ncl_spike::rle::RleRaster::encode(&r);
        prop_assert_eq!(rle.decode().unwrap(), r);
    }

    /// Encode → corrupt → decode never silently succeeds: if the decoder
    /// returns `Ok` at all on a tampered payload, the result must equal
    /// the original raster (i.e. the corruption was provably benign) —
    /// it must never hand back a *wrong* raster. Exercises byte flips,
    /// truncations, extensions and offset-table damage.
    #[test]
    fn rle_decode_never_silently_misdecodes(
        r in raster_strategy(30, 40),
        mode in 0u8..4,
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        use ncl_spike::rle::RleRaster;
        let clean = RleRaster::encode(&r);
        let mut payload = clean.payload().to_vec();
        let mut offsets = clean.offsets().to_vec();
        match mode {
            // Flip bits of one payload byte.
            0 if !payload.is_empty() => {
                let i = (pos % payload.len() as u64) as usize;
                payload[i] ^= xor;
            }
            // Truncate the payload.
            1 if !payload.is_empty() => {
                let keep = (pos % payload.len() as u64) as usize;
                payload.truncate(keep);
            }
            // Append garbage.
            2 => payload.push(xor),
            // Skew one offset-table entry.
            _ if !offsets.is_empty() => {
                let i = (pos % offsets.len() as u64) as usize;
                offsets[i] = offsets[i].wrapping_add(u32::from(xor));
            }
            _ => {}
        }
        let tampered = RleRaster::from_parts(r.neurons(), r.steps(), payload, offsets);
        match tampered.decode() {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(
                decoded, r,
                "corrupted payload decoded to a wrong raster instead of an error"
            ),
        }
    }

    #[test]
    fn spikes_at_sums_to_total(r in raster_strategy(60, 40)) {
        let sum: usize = (0..r.steps()).map(|t| r.spikes_at(t)).sum();
        prop_assert_eq!(sum, r.total_spikes());
    }

    #[test]
    fn active_at_agrees_with_get(r in raster_strategy(70, 20)) {
        for t in 0..r.steps() {
            let from_iter: Vec<usize> = r.active_at(t).collect();
            let from_get: Vec<usize> =
                (0..r.neurons()).filter(|&n| r.get(n, t)).collect();
            prop_assert_eq!(from_iter, from_get);
        }
    }
}
