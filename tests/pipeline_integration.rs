//! Cross-crate pipeline tests: dataset → SNN → latent capture → codec →
//! buffer → training, exercising the seams between crates rather than the
//! scenario driver.

use ncl_data::generator::{self, ShdLikeConfig};
use ncl_data::split::{replay_subset, ClassIncrementalSplit};
use ncl_snn::adaptive::{AdaptivePolicy, ThresholdMode, ThresholdSchedule};
use ncl_snn::optimizer::Optimizer;
use ncl_snn::trainer::{self, TrainOptions};
use ncl_snn::{Network, NetworkConfig};
use ncl_spike::codec::{self, CompressionFactor};
use ncl_spike::memory::Alignment;
use ncl_spike::resample::{resample, ResampleStrategy};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer};

fn dataset_config() -> ShdLikeConfig {
    let mut c = ShdLikeConfig::smoke_test();
    c.seed = 1_234;
    c
}

fn network_for(c: &ShdLikeConfig) -> Network {
    let mut nc = NetworkConfig::tiny(c.channels, c.classes as usize);
    nc.hidden_sizes = vec![20, 12];
    Network::new(nc).expect("valid tiny config")
}

#[test]
fn generated_data_flows_through_the_network() {
    let dc = dataset_config();
    let data = generator::generate(&dc).unwrap();
    let net = network_for(&dc);
    for sample in data.iter().take(5) {
        let logits = net.forward(&sample.raster).unwrap();
        assert_eq!(logits.len(), dc.classes as usize);
        assert!(logits.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn latent_capture_compress_store_replay_roundtrip() {
    let dc = dataset_config();
    let data = generator::generate(&dc).unwrap();
    let net = network_for(&dc);
    let split = ClassIncrementalSplit::hold_out_last(dc.classes).unwrap();
    let mut rng = Rng::seed_from_u64(5);
    let replay_set = replay_subset(&data, &split, 2, &mut rng).unwrap();

    let mut buffer = LatentReplayBuffer::new(Alignment::Byte);
    for s in &replay_set {
        let act = net.activations_at(1, &s.raster).unwrap();
        let compressed = codec::compress(&act, CompressionFactor::new(2).unwrap());
        buffer.push(LatentEntry::compressed(compressed, s.label));
    }
    assert_eq!(buffer.len(), replay_set.len());

    // Decompressed replay rasters must feed back into the learning stages.
    let samples = buffer.replay_samples(true).unwrap();
    for (raster, label) in &samples {
        assert_eq!(raster.steps(), dc.steps);
        let logits = net.forward_from(1, raster, None).unwrap();
        assert_eq!(logits.len(), dc.classes as usize);
        assert!(*label < dc.classes - 1, "replay holds only old classes");
    }
}

#[test]
fn reduced_timestep_pipeline_preserves_labels_and_shapes() {
    let dc = dataset_config();
    let data = generator::generate(&dc).unwrap();
    let net = network_for(&dc);
    let t_star = dc.steps * 2 / 5;

    for s in data.iter().take(4) {
        // Replay4NCL path: decimate input, frozen stages at T*, adaptive
        // threshold derived from the decimated input.
        let reduced = resample(&s.raster, t_star, ResampleStrategy::Decimate).unwrap();
        assert_eq!(reduced.steps(), t_star);
        let schedule = ThresholdSchedule::adaptive(&reduced, &AdaptivePolicy::default()).unwrap();
        let act = net
            .activations_at_scheduled(1, &reduced, Some(&schedule))
            .unwrap();
        assert_eq!(act.steps(), t_star);
        let logits = net.forward_from(1, &act, Some(&schedule)).unwrap();
        assert!(logits.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn training_on_replayed_activations_reduces_loss() {
    let dc = dataset_config();
    let data = generator::generate(&dc).unwrap();
    let mut net = network_for(&dc);
    let split = ClassIncrementalSplit::hold_out_last(dc.classes).unwrap();
    let mut rng = Rng::seed_from_u64(9);
    let replay_set = replay_subset(&data, &split, 3, &mut rng).unwrap();

    // Capture stage-1 activations as the training stream.
    let acts: Vec<(SpikeRaster, u16)> = replay_set
        .iter()
        .map(|s| (net.activations_at(1, &s.raster).unwrap(), s.label))
        .collect();
    let refs: Vec<(&SpikeRaster, u16)> = acts.iter().map(|(r, l)| (r, *l)).collect();

    let mut opt = Optimizer::adam(2e-3);
    let options = TrainOptions {
        from_stage: 1,
        batch_size: 4,
        parallelism: 2,
        threshold_mode: ThresholdMode::Constant,
    };
    let mut train_rng = Rng::seed_from_u64(11);
    let mut losses = Vec::new();
    let mut scratch = trainer::TrainScratch::new();
    for _ in 0..8 {
        let report = trainer::train_epoch_with(
            &mut net,
            &refs,
            &mut opt,
            &options,
            &mut train_rng,
            &mut scratch,
        )
        .unwrap();
        losses.push(report.mean_loss);
    }
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss should decrease: {losses:?}"
    );
}

#[test]
fn serialized_network_reproduces_predictions() {
    let dc = dataset_config();
    let data = generator::generate(&dc).unwrap();
    let net = network_for(&dc);
    let bytes = ncl_snn::serialize::to_bytes(&net);
    let restored = ncl_snn::serialize::from_bytes(&bytes).unwrap();
    for s in data.iter().take(6) {
        assert_eq!(
            net.forward(&s.raster).unwrap(),
            restored.forward(&s.raster).unwrap(),
            "restored network must predict identically"
        );
    }
}

#[test]
fn codec_and_resample_compose() {
    // Storage at T* via decimation equals codec-compressing by the exact
    // ratio when the ratio is integral.
    let raster = SpikeRaster::from_fn(10, 60, |n, t| (n * 3 + t) % 7 == 0);
    let via_resample = resample(&raster, 30, ResampleStrategy::Decimate).unwrap();
    let via_codec = codec::compress(&raster, CompressionFactor::new(2).unwrap());
    assert_eq!(&via_resample, via_codec.frames());
}
