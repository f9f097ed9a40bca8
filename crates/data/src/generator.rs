//! Synthetic SHD-like event-stream generator.
//!
//! Each class is a *channel trajectory*: a sequence of waypoint channels
//! interpolated across the sample duration, mimicking the formant sweeps
//! that distinguish spoken digits in the real SHD. At every timestep a
//! Gaussian bump of channels around the trajectory fires stochastically;
//! background Poisson noise and per-sample jitter (time warp, channel
//! shift, amplitude) provide within-class variability.
//!
//! Because all classes draw waypoints from the same channel range, the
//! time-collapsed channel histogram is only weakly discriminative — the
//! class is encoded in *when* the trajectory visits which channels. This is
//! the property that makes the paper's timestep reduction a genuine
//! accuracy/efficiency trade-off (Figs. 2(b) and 8).

use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::sample::{Dataset, LabeledSample};

/// Configuration of the synthetic SHD-like generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShdLikeConfig {
    /// Number of input channels (SHD: 700).
    pub channels: usize,
    /// Number of classes (SHD: 20).
    pub classes: u16,
    /// Timesteps per sample at the native temporal resolution (paper: 100).
    pub steps: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Number of trajectory waypoints per class.
    pub waypoints: usize,
    /// Standard deviation of the channel bump around the trajectory.
    pub bump_sigma: f32,
    /// Peak firing probability at the bump center.
    pub peak_rate: f64,
    /// Background noise rate (per channel per timestep).
    pub noise_rate: f64,
    /// Std-dev of the per-sample channel shift (jitter).
    pub channel_jitter: f32,
    /// Std-dev of the per-sample time-warp factor around 1.0.
    pub speed_jitter: f32,
    /// Master seed; train/test/class streams are forked from it.
    pub seed: u64,
}

impl ShdLikeConfig {
    /// Paper-scale configuration: 700 channels, 20 classes, 100 timesteps.
    ///
    /// Sample counts are kept moderate (CPU training); scale them up with
    /// the fields directly if needed.
    #[must_use]
    pub fn paper() -> Self {
        ShdLikeConfig {
            channels: 700,
            classes: 20,
            steps: 100,
            train_per_class: 24,
            test_per_class: 10,
            waypoints: 5,
            bump_sigma: 9.0,
            peak_rate: 0.85,
            noise_rate: 0.004,
            channel_jitter: 10.0,
            speed_jitter: 0.08,
            seed: 0x5EED_5EED,
        }
    }

    /// Tiny configuration for unit tests and doc examples: fast to
    /// generate, still structurally faithful (multiple classes, temporal
    /// trajectories, jitter).
    #[must_use]
    pub fn smoke_test() -> Self {
        ShdLikeConfig {
            channels: 48,
            classes: 4,
            steps: 40,
            train_per_class: 6,
            test_per_class: 3,
            waypoints: 4,
            bump_sigma: 2.5,
            peak_rate: 0.9,
            noise_rate: 0.005,
            channel_jitter: 1.5,
            speed_jitter: 0.05,
            seed: 7,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), DataError> {
        if self.channels == 0 {
            return Err(DataError::InvalidConfig {
                what: "channels",
                detail: "must be at least 1".into(),
            });
        }
        if self.classes == 0 {
            return Err(DataError::InvalidConfig {
                what: "classes",
                detail: "must be at least 1".into(),
            });
        }
        if self.steps < 2 {
            return Err(DataError::InvalidConfig {
                what: "steps",
                detail: "must be at least 2".into(),
            });
        }
        if self.waypoints < 2 {
            return Err(DataError::InvalidConfig {
                what: "waypoints",
                detail: "must be at least 2".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.peak_rate) {
            return Err(DataError::InvalidConfig {
                what: "peak_rate",
                detail: format!("must be in [0, 1], got {}", self.peak_rate),
            });
        }
        if !(0.0..=1.0).contains(&self.noise_rate) {
            return Err(DataError::InvalidConfig {
                what: "noise_rate",
                detail: format!("must be in [0, 1], got {}", self.noise_rate),
            });
        }
        if self.bump_sigma <= 0.0 {
            return Err(DataError::InvalidConfig {
                what: "bump_sigma",
                detail: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// The trajectory prototype of one class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassPrototype {
    waypoints: Vec<f32>,
}

impl ClassPrototype {
    /// Derives the prototype of `class` deterministically from the config
    /// seed. Waypoints are drawn from the central 80 % of the channel range
    /// so jittered bumps rarely clip at the borders.
    #[must_use]
    pub fn derive(config: &ShdLikeConfig, class: u16) -> Self {
        let mut rng = Rng::seed_from_u64(
            config.seed ^ 0xC1A5_5000u64.wrapping_add(u64::from(class).wrapping_mul(0x9E37)),
        );
        let lo = 0.1 * config.channels as f32;
        let hi = 0.9 * config.channels as f32;
        let waypoints = (0..config.waypoints)
            .map(|_| rng.uniform_range(lo, hi))
            .collect();
        ClassPrototype { waypoints }
    }

    /// Trajectory center channel at normalized time `u` in `[0, 1]`
    /// (piecewise-linear interpolation between waypoints).
    #[must_use]
    pub fn center_at(&self, u: f32) -> f32 {
        let u = u.clamp(0.0, 1.0);
        let segments = self.waypoints.len() - 1;
        let x = u * segments as f32;
        let i = (x.floor() as usize).min(segments - 1);
        let frac = x - i as f32;
        self.waypoints[i] * (1.0 - frac) + self.waypoints[i + 1] * frac
    }
}

/// Draws one sample of `class` using the caller's RNG stream.
#[must_use]
pub fn draw_sample(
    config: &ShdLikeConfig,
    prototype: &ClassPrototype,
    rng: &mut Rng,
) -> SpikeRaster {
    let mut raster = SpikeRaster::new(config.channels, config.steps);

    // Per-sample jitter: channel offset, time-warp speed, slight rate scale.
    let channel_shift = rng.normal_f32(0.0, config.channel_jitter);
    let speed = (1.0 + rng.normal_f32(0.0, config.speed_jitter)).clamp(0.7, 1.3);
    let rate_scale = (1.0 + rng.normal_f32(0.0, 0.1)).clamp(0.6, 1.4) as f64;

    let sigma = config.bump_sigma;
    let reach = (3.0 * sigma).ceil() as isize;
    let steps = config.steps as f32;

    for t in 0..config.steps {
        // Warped normalized time; clamped inside [0,1] by center_at.
        let u = (t as f32 / (steps - 1.0)) * speed;
        let center = prototype.center_at(u) + channel_shift;
        let c0 = center.round() as isize;
        for dc in -reach..=reach {
            let ch = c0 + dc;
            if ch < 0 || ch >= config.channels as isize {
                continue;
            }
            let dist = ch as f32 - center;
            let p = config.peak_rate
                * rate_scale
                * f64::from((-0.5 * (dist / sigma) * (dist / sigma)).exp());
            if p > 0.0 && rng.bernoulli(p) {
                raster.set(ch as usize, t, true);
            }
        }
    }

    // Background noise: expected count placed uniformly (fast equivalent of
    // per-cell Bernoulli at low rates).
    let cells = (config.channels * config.steps) as f64;
    let noise_spikes = rng.poisson(config.noise_rate * cells);
    for _ in 0..noise_spikes {
        let n = rng.below(config.channels as u64) as usize;
        let t = rng.below(config.steps as u64) as usize;
        raster.set(n, t, true);
    }

    raster
}

/// Generated train/test pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedData {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
}

/// Generates the training split only (see [`generate_pair`] for both).
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] if the config fails validation.
pub fn generate(config: &ShdLikeConfig) -> Result<Dataset, DataError> {
    Ok(generate_pair(config)?.train)
}

/// Generates deterministic train and test splits.
///
/// The train and test streams are forked from the master seed, so the two
/// splits are disjoint draws from the same class distributions; the same
/// config always produces bit-identical data.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] if the config fails validation.
pub fn generate_pair(config: &ShdLikeConfig) -> Result<GeneratedData, DataError> {
    config.validate()?;
    let prototypes: Vec<ClassPrototype> = (0..config.classes)
        .map(|k| ClassPrototype::derive(config, k))
        .collect();

    let mut master = Rng::seed_from_u64(config.seed);
    let mut train_rng = master.fork(1);
    let mut test_rng = master.fork(2);

    let make = |per_class: usize, rng: &mut Rng| -> Result<Dataset, DataError> {
        let mut samples = Vec::with_capacity(per_class * config.classes as usize);
        for class in 0..config.classes {
            let proto = &prototypes[class as usize];
            for _ in 0..per_class {
                samples.push(LabeledSample::new(draw_sample(config, proto, rng), class));
            }
        }
        Dataset::new(samples, config.classes, config.channels, config.steps)
    };

    Ok(GeneratedData {
        train: make(config.train_per_class, &mut train_rng)?,
        test: make(config.test_per_class, &mut test_rng)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_is_valid() {
        assert!(ShdLikeConfig::smoke_test().validate().is_ok());
        assert!(ShdLikeConfig::paper().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let base = ShdLikeConfig::smoke_test();
        for f in [
            &mut |c: &mut ShdLikeConfig| c.channels = 0,
            &mut |c: &mut ShdLikeConfig| c.classes = 0,
            &mut |c: &mut ShdLikeConfig| c.steps = 1,
            &mut |c: &mut ShdLikeConfig| c.waypoints = 1,
            &mut |c: &mut ShdLikeConfig| c.peak_rate = 1.5,
            &mut |c: &mut ShdLikeConfig| c.noise_rate = -0.1,
            &mut |c: &mut ShdLikeConfig| c.bump_sigma = 0.0,
        ] as [&mut dyn FnMut(&mut ShdLikeConfig); 7]
        {
            let mut c = base.clone();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = ShdLikeConfig::smoke_test();
        let a = generate_pair(&config).unwrap();
        let b = generate_pair(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = ShdLikeConfig::smoke_test();
        let a = generate_pair(&config).unwrap();
        config.seed += 1;
        let b = generate_pair(&config).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn shapes_and_counts() {
        let config = ShdLikeConfig::smoke_test();
        let data = generate_pair(&config).unwrap();
        assert_eq!(
            data.train.len(),
            config.train_per_class * config.classes as usize
        );
        assert_eq!(
            data.test.len(),
            config.test_per_class * config.classes as usize
        );
        assert_eq!(data.train.channels(), config.channels);
        assert_eq!(data.train.steps(), config.steps);
        for class in 0..config.classes {
            assert_eq!(
                data.train.indices_of_class(class).len(),
                config.train_per_class
            );
        }
    }

    #[test]
    fn samples_have_reasonable_density() {
        let config = ShdLikeConfig::smoke_test();
        let data = generate(&config).unwrap();
        for s in &data {
            let d = s.raster.density();
            assert!(d > 0.005, "sample too sparse: {d}");
            assert!(d < 0.6, "sample too dense: {d}");
        }
    }

    #[test]
    fn prototypes_stay_inside_channel_range() {
        let config = ShdLikeConfig::paper();
        for k in 0..config.classes {
            let p = ClassPrototype::derive(&config, k);
            for u in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
                let c = p.center_at(u);
                assert!(c >= 0.0 && c < config.channels as f32);
            }
            assert_eq!(p.waypoints.len(), config.waypoints);
        }
    }

    #[test]
    fn center_at_interpolates_between_waypoints() {
        let p = ClassPrototype {
            waypoints: vec![0.0, 10.0, 20.0],
        };
        assert_eq!(p.center_at(0.0), 0.0);
        assert!((p.center_at(0.25) - 5.0).abs() < 1e-5);
        assert!((p.center_at(0.5) - 10.0).abs() < 1e-5);
        assert_eq!(p.center_at(1.0), 20.0);
        // Clamped outside [0,1].
        assert_eq!(p.center_at(-1.0), 0.0);
        assert_eq!(p.center_at(2.0), 20.0);
    }

    #[test]
    fn classes_are_separable_by_trajectory_not_histogram() {
        // Same-class samples must be closer in raster space than
        // different-class samples on average (separability), measured by
        // per-timestep center-of-mass distance.
        let config = ShdLikeConfig::smoke_test();
        let data = generate(&config).unwrap();

        let com = |r: &SpikeRaster| -> Vec<f32> {
            (0..r.steps())
                .map(|t| {
                    let (mut sum, mut cnt) = (0.0f32, 0.0f32);
                    for n in r.active_at(t) {
                        sum += n as f32;
                        cnt += 1.0;
                    }
                    if cnt > 0.0 {
                        sum / cnt
                    } else {
                        -1.0
                    }
                })
                .collect()
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            let mut d = 0.0;
            let mut n = 0;
            for (x, y) in a.iter().zip(b) {
                if *x >= 0.0 && *y >= 0.0 {
                    d += (x - y).abs();
                    n += 1;
                }
            }
            d / n.max(1) as f32
        };

        let traces: Vec<(u16, Vec<f32>)> = data.iter().map(|s| (s.label, com(&s.raster))).collect();
        let (mut within, mut wn, mut between, mut bn) = (0.0f32, 0, 0.0f32, 0);
        for i in 0..traces.len() {
            for j in (i + 1)..traces.len() {
                let d = dist(&traces[i].1, &traces[j].1);
                if traces[i].0 == traces[j].0 {
                    within += d;
                    wn += 1;
                } else {
                    between += d;
                    bn += 1;
                }
            }
        }
        let within = within / wn as f32;
        let between = between / bn as f32;
        assert!(
            between > 1.5 * within,
            "classes not separable: within={within}, between={between}"
        );
    }
}
