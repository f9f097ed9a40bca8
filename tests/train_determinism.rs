//! Worker-count invariance of the training pool, and of the
//! continual-learning pipeline that fans latent capture and evaluation
//! out over the same `parallelism` threads.
//!
//! The `ncl_snn` trainer promises that trained weights are a pure
//! function of (network, samples, options, rng seed) — the persistent
//! worker pool, the per-worker arenas and the recycled gradient buffers
//! must not leak scheduling or buffer-reuse effects into the results.
//! This extends the engine contract of `engine_determinism.rs` down to
//! the gradient level: the same training run at 1, 2 and 4 workers must
//! produce **byte-identical** serialized models, and all of them must be
//! byte-identical to the seed-era per-sample-allocation reference path
//! (`train_epoch_reference`), which the zero-allocation rewrite kept as
//! its oracle. Above the trainer, a whole class-incremental run
//! (`run_method`) and each of its frozen-stage phases must give equal
//! results at 1, 2 and 4 workers. An epoch times its first samples and
//! starts helpers only where they pay, so the cases span both sides of
//! that cut: µs-scale readout-only updates that stay on the calling
//! thread, and paper-width epochs whose ms-scale samples fan out.

use ncl_snn::adaptive::{AdaptivePolicy, ThresholdMode};
use ncl_snn::optimizer::Optimizer;
use ncl_snn::trainer::{self, TrainOptions, TrainScratch};
use ncl_snn::{serialize, Network, NetworkConfig};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use replay4ncl::{cache, phases, scenario, MethodSpec, ScenarioConfig};

/// A small but non-trivial training setup: recurrent net, two classes,
/// batch size that does not divide the sample count.
fn setup() -> (Network, Vec<(SpikeRaster, u16)>) {
    let config = NetworkConfig {
        input_size: 12,
        hidden_sizes: vec![14, 10],
        output_size: 3,
        recurrent: true,
        lif: ncl_snn::LifConfig::default(),
        readout: ncl_snn::ReadoutConfig::default(),
        seed: 0xD0_0DAD,
    };
    let net = Network::new(config).unwrap();
    let mut rng = Rng::seed_from_u64(77);
    let data = (0..22)
        .map(|i| {
            let label = (i % 3) as u16;
            let raster = SpikeRaster::from_fn(12, 16, |n, _| {
                (n % 3 == label as usize) && rng.bernoulli(0.5)
            });
            (raster, label)
        })
        .collect();
    (net, data)
}

/// The readout-only update at the insertion layer `net.layers()`: the
/// setup's rasters captured as latents at the last stage.
fn readout_only_setup() -> (Network, Vec<(SpikeRaster, u16)>) {
    let (net, data) = setup();
    let latents: Vec<(SpikeRaster, u16)> = data
        .iter()
        .map(|(r, l)| (net.activations_at(net.layers(), r).unwrap(), *l))
        .collect();
    assert!(
        latents.iter().any(|(r, _)| r.total_spikes() > 0),
        "the latents must carry spikes for the readout gradient to be non-trivial"
    );
    (net, latents)
}

/// Trains four epochs from stage 0, or readout-only from the last stage.
fn train(
    readout_only: bool,
    threshold_mode: ThresholdMode,
    parallelism: usize,
    reference: bool,
) -> (Vec<u8>, Vec<trainer::EpochReport>) {
    let (mut net, data) = if readout_only {
        readout_only_setup()
    } else {
        setup()
    };
    let from_stage = if readout_only { net.layers() } else { 0 };
    let refs: Vec<(&SpikeRaster, u16)> = data.iter().map(|(r, l)| (r, *l)).collect();
    let mut optimizer = Optimizer::adam(2e-3);
    let options = TrainOptions {
        from_stage,
        batch_size: 5,
        parallelism,
        threshold_mode,
    };
    let mut rng = Rng::seed_from_u64(0x5EED);
    let mut scratch = TrainScratch::new();
    let mut reports = Vec::new();
    for _ in 0..4 {
        let report = if reference {
            trainer::train_epoch_reference(&mut net, &refs, &mut optimizer, &options, &mut rng)
                .unwrap()
        } else {
            trainer::train_epoch_with(
                &mut net,
                &refs,
                &mut optimizer,
                &options,
                &mut rng,
                &mut scratch,
            )
            .unwrap()
        };
        reports.push(report);
    }
    (serialize::to_bytes(&net), reports)
}

#[test]
fn worker_count_does_not_change_trained_weights() {
    let (reference_bytes, reference_reports) = train(false, ThresholdMode::Constant, 1, true);
    for workers in [1usize, 2, 4] {
        let (bytes, reports) = train(false, ThresholdMode::Constant, workers, false);
        assert_eq!(
            bytes, reference_bytes,
            "{workers}-worker pool must serialize byte-identically to the reference path"
        );
        assert_eq!(
            reports, reference_reports,
            "{workers}-worker epoch reports must equal the reference path"
        );
    }
}

/// The same contract for the update the paper runs: insertion at the last
/// stage, so only the readout trains on captured latents. Under the
/// adaptive policy the pool skips the threshold schedule no layer reads,
/// while the reference path still builds it: equal bytes show the skip
/// changes nothing.
#[test]
fn worker_count_does_not_change_readout_only_weights() {
    for mode in [
        ThresholdMode::Constant,
        ThresholdMode::Adaptive(AdaptivePolicy::default()),
    ] {
        let (reference_bytes, reference_reports) = train(true, mode, 1, true);
        for workers in [1usize, 2, 4] {
            let (bytes, reports) = train(true, mode, workers, false);
            assert_eq!(
                bytes, reference_bytes,
                "{workers}-worker readout-only pool ({mode:?}) must serialize byte-identically to the reference path"
            );
            assert_eq!(
                reports, reference_reports,
                "{workers}-worker readout-only reports ({mode:?}) must equal the reference path"
            );
        }
    }
}

/// The scenarios of the pipeline checks, each with its starting network:
/// the smoke config with its pre-trained network, and a paper-width one
/// (700 channels, T = 100, the Fig. 6 network, untrained, few samples)
/// whose frozen passes are slow enough that capture always fans out.
fn cl_scenarios() -> Vec<(ScenarioConfig, Network, f64)> {
    let smoke = ScenarioConfig::smoke();
    let (net, acc) = cache::pretrained_network(&smoke).unwrap();
    let mut wide = ScenarioConfig::paper();
    wide.data.classes = 4;
    wide.data.train_per_class = 3;
    wide.data.test_per_class = 2;
    wide.network.output_size = 4;
    wide.cl_epochs = 2;
    let wide_net = Network::new(wide.network.clone()).unwrap();
    vec![(smoke, net, acc), (wide, wide_net, 0.0)]
}

/// SpikingLR and Replay4NCL at the scenario's timestep.
fn cl_methods(config: &ScenarioConfig) -> [MethodSpec; 2] {
    [
        MethodSpec::spiking_lr(2),
        MethodSpec::replay4ncl(2, config.data.steps * 2 / 5),
    ]
}

#[test]
fn worker_count_does_not_change_a_cl_run() {
    for (config, net, acc) in cl_scenarios() {
        for method in cl_methods(&config) {
            let at = |workers: usize| {
                let config = ScenarioConfig {
                    parallelism: workers,
                    ..config.clone()
                };
                scenario::run_method(&config, &method, &net, acc).unwrap()
            };
            let serial = at(1);
            for workers in [2usize, 4] {
                assert_eq!(
                    at(workers),
                    serial,
                    "{} at {workers} workers must equal the serial run",
                    method.name
                );
            }
        }
    }
}

#[test]
fn worker_count_does_not_change_capture_or_evaluation_inputs() {
    for (config, net, _) in cl_scenarios() {
        let data = phases::scenario_data(&config).unwrap();
        let split = phases::scenario_split(&config).unwrap();
        let cl_train = split.continual_subset(&data.train);
        let old_test = split.pretrain_subset(&data.test);
        for method in cl_methods(&config) {
            let at = |workers: usize| {
                let config = ScenarioConfig {
                    parallelism: workers,
                    ..config.clone()
                };
                (
                    phases::prepare_buffer(&net, &config, &method, &data.train, &split).unwrap(),
                    phases::new_task_activations(&net, &config, &method, &cl_train).unwrap(),
                    phases::eval_activations(&net, &config, &method, &old_test).unwrap(),
                )
            };
            let (buffer, anew, eval) = at(1);
            assert!(!buffer.0.is_empty() && !anew.0.is_empty() && !eval.is_empty());
            for workers in [2usize, 4] {
                let (b, a, e) = at(workers);
                let tag = format!("{} at {workers} workers", method.name);
                assert_eq!(b, buffer, "prepare_buffer, {tag}");
                assert_eq!(a, anew, "new_task_activations, {tag}");
                assert_eq!(e, eval, "eval_activations, {tag}");
            }
        }
    }
}

/// A µs-scale class-incremental run: the smoke scenario with the
/// insertion layer at the last stage, so only the readout trains, on
/// samples far below a helper's cut-off.
#[test]
fn worker_count_does_not_change_a_readout_only_cl_run() {
    let mut config = ScenarioConfig::smoke();
    config.insertion_layer = config.network.hidden_sizes.len();
    let (net, acc) = cache::pretrained_network(&config).unwrap();
    for method in cl_methods(&config) {
        let at = |workers: usize| {
            let config = ScenarioConfig {
                parallelism: workers,
                ..config.clone()
            };
            scenario::run_method(&config, &method, &net, acc).unwrap()
        };
        let serial = at(1);
        for workers in [2usize, 4] {
            assert_eq!(
                at(workers),
                serial,
                "readout-only {} at {workers} workers must equal the serial run",
                method.name
            );
        }
    }
}

/// A paper-width stage-0 epoch (700 channels, T = 100, the Fig. 6
/// network): each sample's full BPTT takes milliseconds, far above both
/// cut-offs, so the 2- and 4-worker epochs start helpers. Their weights
/// and reports must equal the serial epoch's and the reference path's.
#[test]
fn worker_count_does_not_change_a_paper_width_epoch() {
    let config = NetworkConfig::paper();
    let classes = config.output_size as u16;
    let base = Network::new(config.clone()).unwrap();
    let mut rng = Rng::seed_from_u64(91);
    let data: Vec<(SpikeRaster, u16)> = (0..10u16)
        .map(|i| {
            let label = i % classes;
            let raster = SpikeRaster::from_fn(config.input_size, 100, |n, _| {
                n % usize::from(classes) == usize::from(label) && rng.bernoulli(0.3)
            });
            (raster, label)
        })
        .collect();
    let refs: Vec<(&SpikeRaster, u16)> = data.iter().map(|(r, l)| (r, *l)).collect();
    let epoch = |workers: usize, reference: bool| {
        let mut net = base.clone();
        let mut optimizer = Optimizer::adam(1e-3);
        let options = TrainOptions {
            from_stage: 0,
            batch_size: 4,
            parallelism: workers,
            threshold_mode: ThresholdMode::Constant,
        };
        let mut rng = Rng::seed_from_u64(0x5EED);
        let report = if reference {
            trainer::train_epoch_reference(&mut net, &refs, &mut optimizer, &options, &mut rng)
        } else {
            trainer::train_epoch_with(
                &mut net,
                &refs,
                &mut optimizer,
                &options,
                &mut rng,
                &mut TrainScratch::new(),
            )
        };
        (serialize::to_bytes(&net), report.unwrap())
    };
    let reference = epoch(1, true);
    for workers in [1usize, 2, 4] {
        assert!(
            epoch(workers, false) == reference,
            "a {workers}-worker paper-width epoch must equal the reference path"
        );
    }
}
