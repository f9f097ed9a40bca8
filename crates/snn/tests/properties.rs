//! Property-based tests of the SNN simulator: determinism, stage-split
//! consistency, threshold monotonicity, gradient well-formedness and
//! serialization round-trips under randomized configurations.

use ncl_snn::adaptive::{AdaptivePolicy, ThresholdSchedule};
use ncl_snn::{bptt, serialize, LifConfig, Network, NetworkConfig, ReadoutConfig};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use proptest::prelude::*;

/// Strategy: a small random-but-valid network configuration.
fn config_strategy() -> impl Strategy<Value = NetworkConfig> {
    (
        2usize..10,
        1usize..3,
        2usize..8,
        2usize..5,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(input, depth, width, outputs, seed, recurrent)| NetworkConfig {
                input_size: input,
                hidden_sizes: vec![width; depth],
                output_size: outputs,
                recurrent,
                lif: LifConfig::default(),
                readout: ReadoutConfig::default(),
                seed,
            },
        )
}

/// Strategy: a raster matching `neurons`, with moderate density.
fn raster_for(neurons: usize, steps: usize, seed: u64) -> SpikeRaster {
    let mut rng = Rng::seed_from_u64(seed);
    SpikeRaster::from_fn(neurons, steps, |_, _| rng.bernoulli(0.35))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_is_deterministic_and_finite(config in config_strategy(), seed in any::<u64>()) {
        let net = Network::new(config.clone()).unwrap();
        let input = raster_for(config.input_size, 12, seed);
        let a = net.forward(&input).unwrap();
        let b = net.forward(&input).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), config.output_size);
        prop_assert!(a.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn stage_split_equals_full_forward(config in config_strategy(), seed in any::<u64>()) {
        let net = Network::new(config.clone()).unwrap();
        let input = raster_for(config.input_size, 10, seed);
        let full = net.forward(&input).unwrap();
        for stage in 0..=config.hidden_sizes.len() {
            let act = net.activations_at(stage, &input).unwrap();
            let split = net.forward_from(stage, &act, None).unwrap();
            for (a, b) in full.iter().zip(split.iter()) {
                prop_assert!((a - b).abs() < 1e-4,
                    "stage {stage}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gradients_are_finite(config in config_strategy(), seed in any::<u64>()) {
        let net = Network::new(config.clone()).unwrap();
        let input = raster_for(config.input_size, 10, seed);
        let history = net.record_from(0, &input, None).unwrap();
        let (loss, grads) = bptt::backward(&net, &history, 0).unwrap();
        prop_assert!(loss.is_finite() && loss >= 0.0);
        let mut all_finite = true;
        grads.visit(|s| all_finite &= s.iter().all(|v| v.is_finite()));
        prop_assert!(all_finite);
    }

    #[test]
    fn serialize_round_trips_any_config(config in config_strategy()) {
        let net = Network::new(config).unwrap();
        let restored = serialize::from_bytes(&serialize::to_bytes(&net)).unwrap();
        prop_assert_eq!(net, restored);
    }

    #[test]
    fn adaptive_schedule_is_bounded(
        steps in 1usize..80,
        density in 0.0f64..0.9,
        seed in any::<u64>()
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let raster = SpikeRaster::from_fn(8, steps, |_, _| rng.bernoulli(density));
        let policy = AdaptivePolicy::default();
        let schedule = ThresholdSchedule::adaptive(&raster, &policy).unwrap();
        prop_assert_eq!(schedule.len(), steps);
        for t in 0..steps {
            let v = schedule.value_at(t);
            // Lower bound: sigmoid decay floor (~0.5); upper bound: the
            // Alg. 1 boost formula at mean spike time 0.
            prop_assert!(v >= 0.49, "t={t}: {v}");
            prop_assert!(v <= policy.base + policy.timing_coef * steps as f32 + 1e-5);
        }
    }

    #[test]
    fn lower_threshold_never_fires_less(seed in any::<u64>()) {
        let config = NetworkConfig::tiny(10, 3);
        let net = Network::new(config).unwrap();
        let input = raster_for(10, 15, seed);
        let low = ThresholdSchedule::constant(0.4, 15);
        let high = ThresholdSchedule::constant(1.2, 15);
        let (_, a_low) = net.forward_from_traced(0, &input, Some(&low)).unwrap();
        let (_, a_high) = net.forward_from_traced(0, &input, Some(&high)).unwrap();
        // First hidden layer sees the same input spikes either way; its
        // output can only shrink with a higher threshold.
        prop_assert!(a_low.stages[0].out_spikes >= a_high.stages[0].out_spikes);
    }

    #[test]
    fn trainable_param_count_matches_visitation(config in config_strategy()) {
        let mut net = Network::new(config.clone()).unwrap();
        for stage in 0..=config.hidden_sizes.len() {
            let declared = net.trainable_params(stage).unwrap();
            let mut visited = 0usize;
            net.visit_trainable_mut(stage, |s| visited += s.len()).unwrap();
            prop_assert_eq!(declared, visited);
        }
    }

    /// The serving hot path (`forward_batch`, shared scratch buffers)
    /// must stay bit-identical to the canonical per-call forward for ANY
    /// batch — this is the guard against the two loop implementations
    /// drifting apart.
    #[test]
    fn forward_batch_equals_sequential_forward(
        seed in any::<u64>(), batch_len in 1usize..6, steps in 1usize..24
    ) {
        let net = Network::new(NetworkConfig::tiny(9, 3)).unwrap();
        let inputs: Vec<_> = (0..batch_len)
            .map(|i| raster_for(9, steps, seed.wrapping_add(i as u64)))
            .collect();
        let batched = net.forward_batch(&inputs).unwrap();
        for (input, logits) in inputs.iter().zip(batched.iter()) {
            prop_assert_eq!(logits, &net.forward(input).unwrap());
        }
    }

    /// The training hot path records into a reused `History` +
    /// `ForwardScratch` — the recording must stay bit-identical to a
    /// fresh `record_from` for ANY sequence of rasters (shapes shrink and
    /// grow across reuses), the guard against the arena path drifting.
    #[test]
    fn record_into_matches_record_from(
        config in config_strategy(), seed in any::<u64>()
    ) {
        let net = Network::new(config.clone()).unwrap();
        let mut history = ncl_snn::History::empty();
        let mut scratch = ncl_snn::ForwardScratch::new();
        // Vary steps across reuses so buffers reshape both ways.
        for (i, steps) in [12usize, 5, 9].into_iter().enumerate() {
            let input = raster_for(config.input_size, steps, seed.wrapping_add(i as u64));
            let fresh = net.record_from(0, &input, None).unwrap();
            net.record_from_into(0, &input, None, &mut history, &mut scratch).unwrap();
            prop_assert_eq!(history.from_stage, fresh.from_stage);
            prop_assert_eq!(history.steps, fresh.steps);
            prop_assert_eq!(&history.input, &fresh.input);
            prop_assert_eq!(&history.layer_spikes, &fresh.layer_spikes);
            prop_assert_eq!(&history.layer_membranes, &fresh.layer_membranes);
            prop_assert_eq!(&history.thresholds, &fresh.thresholds);
            prop_assert_eq!(&history.logits, &fresh.logits);
            prop_assert_eq!(&history.activity, &fresh.activity);
        }
    }

    /// Every entry point runs the same timestep loop, so the recording,
    /// non-recording, capture and stage-split paths must agree exactly,
    /// with and without a threshold schedule, at every stage.
    #[test]
    fn entry_points_agree_at_every_stage(
        config in config_strategy(),
        seed in any::<u64>(),
        scheduled in any::<bool>(),
        threshold in 0.3f32..1.5
    ) {
        let net = Network::new(config.clone()).unwrap();
        let input = raster_for(config.input_size, 11, seed);
        let schedule = scheduled.then(|| ThresholdSchedule::constant(threshold, 11));
        let schedule = schedule.as_ref();
        let recorded = net.record_from(0, &input, schedule).unwrap();
        let (logits, activity) = net.forward_from_traced(0, &input, schedule).unwrap();
        prop_assert_eq!(&recorded.logits, &logits);
        prop_assert_eq!(&recorded.activity, &activity);
        for k in 0..=config.hidden_sizes.len() {
            let captured = net.activations_at_scheduled(k, &input, schedule).unwrap();
            let (traced, capture_activity) =
                net.activations_at_traced(k, &input, schedule).unwrap();
            if k == 0 {
                prop_assert_eq!(&captured, &input);
            } else {
                prop_assert_eq!(&captured, &recorded.layer_spikes[k - 1]);
            }
            prop_assert_eq!(&traced, &captured);
            // The capture stops before the readout, even at the last stage.
            prop_assert_eq!(&capture_activity.stages[..], &activity.stages[..k]);
            prop_assert_eq!(capture_activity.readout_in_spikes, 0);
            prop_assert_eq!(capture_activity.steps, activity.steps);
            prop_assert_eq!(capture_activity.outputs, 0);
            let split = net.record_from(k, &captured, schedule).unwrap();
            let (split_logits, split_activity) =
                net.forward_from_traced(k, &captured, schedule).unwrap();
            prop_assert_eq!(&split.logits, &split_logits);
            prop_assert_eq!(&split.activity, &split_activity);
        }
    }

    /// `backward_into` on a zero-filled (reused, previously dirty) arena
    /// must be bit-identical to the allocating `backward` — arena reuse
    /// may not leak state between samples.
    #[test]
    fn backward_into_zeroed_arena_equals_backward(
        config in config_strategy(), seed in any::<u64>()
    ) {
        let net = Network::new(config.clone()).unwrap();
        let mut arena = bptt::Gradients::zeros(&net, 0).unwrap();
        let mut scratch = ncl_snn::BpttScratch::new();
        for i in 0..3u64 {
            let input = raster_for(config.input_size, 10, seed.wrapping_add(i));
            let history = net.record_from(0, &input, None).unwrap();
            let target = (i as usize) % config.output_size;
            let (loss, fresh) = bptt::backward(&net, &history, target).unwrap();
            // The arena is dirty from the previous iteration; zero_fill
            // must restore it to `zeros` exactly.
            arena.zero_fill();
            let loss_into =
                bptt::backward_into(&net, &history, target, &mut arena, &mut scratch).unwrap();
            prop_assert_eq!(loss_into, loss);
            let mut a = Vec::new();
            arena.visit(|s| a.extend_from_slice(s));
            let mut b = Vec::new();
            fresh.visit(|s| b.extend_from_slice(s));
            prop_assert_eq!(a, b, "arena backward must be bit-identical");
        }
    }

    /// Accumulating several samples through `backward_into` into one
    /// shared arena equals the seed-style `backward` + `accumulate` sum.
    /// The scattered path groups the float additions per timestep instead
    /// of per sample, so equality is to summation-reordering precision
    /// (exact up to tiny ulp drift), not bitwise.
    #[test]
    fn backward_into_accumulation_matches_backward_plus_accumulate(
        config in config_strategy(), seed in any::<u64>()
    ) {
        let net = Network::new(config.clone()).unwrap();
        let mut fused = bptt::Gradients::zeros(&net, 0).unwrap();
        let mut summed = bptt::Gradients::zeros(&net, 0).unwrap();
        let mut scratch = ncl_snn::BpttScratch::new();
        for i in 0..3u64 {
            let input = raster_for(config.input_size, 8, seed.wrapping_add(i));
            let history = net.record_from(0, &input, None).unwrap();
            let target = (i as usize) % config.output_size;
            bptt::backward_into(&net, &history, target, &mut fused, &mut scratch).unwrap();
            let (_, g) = bptt::backward(&net, &history, target).unwrap();
            summed.accumulate(&g).unwrap();
        }
        let mut a = Vec::new();
        fused.visit(|s| a.extend_from_slice(s));
        let mut b = Vec::new();
        summed.visit(|s| b.extend_from_slice(s));
        for (x, y) in a.iter().zip(b.iter()) {
            let tol = 1e-5f32.max(y.abs() * 1e-5);
            prop_assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }
}
