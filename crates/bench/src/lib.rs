//! The experiment harness: the paper's figures and ablations as engine
//! suites ([`figures`], run with `ncl-run --figure NAME`), the harness's
//! standard method specs and the two scales they run at.
//!
//! * [`Scale::Demo`] (`--demo`, the default) — a reduced scale with the
//!   same structure as the paper setup (3 hidden layers, 10 classes,
//!   T = 60) that finishes quickly while preserving every qualitative
//!   shape.
//! * [`Scale::Paper`] (`--paper`) — full paper scale (700-channel data,
//!   20 classes, T = 100, the Fig. 6 network, 50 CL epochs). Slow on
//!   small machines.
//!
//! Pre-trained models are cached under `target/ncl-cache` (see
//! `replay4ncl::cache`), so sweeps re-use one pre-training run.

use replay4ncl::ScenarioConfig;

pub mod figures;

/// Which experiment scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced-scale demo (default): minutes, same shapes.
    Demo,
    /// Full paper scale: the exact protocol sizes of Section IV.
    Paper,
}

/// Default engine worker count: half the available cores, at least 1
/// (each job itself runs `config.parallelism` threads, so a full-core
/// pool would oversubscribe 2x).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).max(1))
}

/// The reduced-scale demo configuration: structurally identical to the
/// paper setup (3 recurrent hidden layers + readout, class-incremental
/// 9+1 split, T* at 2/5 of T) at roughly 1/20 of the compute.
#[must_use]
pub fn demo_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::paper();
    config.data.channels = 128;
    config.data.classes = 10;
    config.data.steps = 60;
    config.data.train_per_class = 12;
    config.data.test_per_class = 6;
    config.data.bump_sigma = 4.0;
    config.data.channel_jitter = 4.0;
    config.network.input_size = 128;
    config.network.hidden_sizes = vec![64, 48, 32];
    config.network.output_size = 10;
    config.pretrain_epochs = 16;
    config.cl_epochs = 50;
    config.batch_size = 4; // smaller batches = more optimizer steps at demo scale
    config
}

/// The shared training-benchmark problem: one definition used by both
/// `benches/train.rs` (criterion) and the `ncl-train-bench` binary, so
/// the criterion numbers and the `BENCH_train.json` datapoints always
/// measure the same workload.
pub mod train_demo {
    use ncl_snn::{LifConfig, Network, NetworkConfig, ReadoutConfig};
    use ncl_spike::SpikeRaster;
    use ncl_tensor::Rng;

    /// The demo batch size (the smoke/demo scenario setting).
    pub const BATCH_SIZE: usize = 4;

    /// The demo-scale network: the workspace's smoke/demo scenario
    /// dimensions (48 channels, 24-16 hidden, 4 classes) — the setting
    /// every `--demo` figure and CI smoke run trains at.
    #[must_use]
    pub fn network() -> Network {
        let config = NetworkConfig {
            input_size: 48,
            hidden_sizes: vec![24, 16],
            output_size: 4,
            recurrent: true,
            lif: LifConfig::default(),
            readout: ReadoutConfig::default(),
            seed: 11,
        };
        Network::new(config).expect("demo config is valid")
    }

    /// Deterministic labeled rasters of the given shape (four classes,
    /// class-banded channels plus common background activity).
    #[must_use]
    pub fn rasters(neurons: usize, steps: usize, samples: usize) -> Vec<(SpikeRaster, u16)> {
        let mut rng = Rng::seed_from_u64(5);
        (0..samples)
            .map(|i| {
                let label = (i % 4) as u16;
                let raster = SpikeRaster::from_fn(neurons, steps, |n, _| {
                    (n % 4 == label as usize || n % 7 == 0) && rng.bernoulli(0.4)
                });
                (raster, label)
            })
            .collect()
    }
}

/// The paper's T* (reduced replay timesteps) for a given native T:
/// 40 at T = 100, scaled proportionally elsewhere.
#[must_use]
pub(crate) fn t_star_of(native_steps: usize) -> usize {
    (native_steps * 2 / 5).max(1)
}

/// Replay samples stored per old class: half the train split per class —
/// a typical latent-replay budget, calibrated so SpikingLR reaches its
/// paper-reported old-task retention at the demo scale.
#[must_use]
pub fn replay_per_class(config: &ScenarioConfig) -> usize {
    (config.data.train_per_class / 2).max(1)
}

/// The CL learning-rate divisor used by the harness for Replay4NCL.
///
/// Alg. 1 prescribes `η_cl = η_pre / 100` for the authors' SHD-scale run
/// (~10⁴ optimizer steps). These reproductions take two to three orders of
/// magnitude fewer steps, so the divisor is rescaled to keep the *total
/// parameter displacement* of the careful-update mechanism comparable
/// (picked from the sweep `ncl-run --figure calibrate` prints).
#[must_use]
pub(crate) fn cl_lr_divisor(scale: Scale) -> f32 {
    match scale {
        Scale::Demo => 2.0,
        Scale::Paper => 5.0,
    }
}

/// The harness's standard Replay4NCL spec for a scenario.
#[must_use]
pub fn replay4ncl_spec(config: &ScenarioConfig, scale: Scale) -> replay4ncl::MethodSpec {
    replay4ncl::MethodSpec::replay4ncl(replay_per_class(config), t_star_of(config.data.steps))
        .with_lr_divisor(cl_lr_divisor(scale))
}

/// The harness's standard SpikingLR spec for a scenario.
#[must_use]
pub fn spiking_lr_spec(config: &ScenarioConfig) -> replay4ncl::MethodSpec {
    replay4ncl::MethodSpec::spiking_lr(replay_per_class(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_config_is_valid_and_structured_like_paper() {
        let c = demo_config();
        assert!(c.validate().is_ok());
        assert_eq!(
            c.network.hidden_sizes.len(),
            3,
            "needs insertion layers 0..=3"
        );
        assert!(c.data.classes >= 2);
    }

    #[test]
    fn t_star_matches_paper_ratio() {
        assert_eq!(t_star_of(100), 40);
        assert_eq!(t_star_of(60), 24);
        assert_eq!(t_star_of(1), 1);
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn replay_budget_positive() {
        assert!(replay_per_class(&demo_config()) >= 1);
        assert!(replay_per_class(&ScenarioConfig::paper()) >= 1);
    }
}
