//! A second synthetic workload: rate-coded analog patterns.
//!
//! Where the SHD-like generator carries class identity in *temporal*
//! trajectories (so timestep reduction hurts), this generator produces
//! classic rate-coded data — class identity lives entirely in per-channel
//! firing *rates*, encoded through [`ncl_spike::encode::poisson_encode`].
//! It serves two purposes:
//!
//! 1. end-to-end exercise of the encoder path a released SNN library needs
//!    for non-event inputs;
//! 2. a control workload for the timestep-reduction experiments: rate
//!    codes are nearly invariant to decimation (rates survive subsampling
//!    in expectation), so the accuracy cliff of Fig. 2(b)/Fig. 8 should
//!    *not* appear here — evidence that the cliff on the SHD-like data is
//!    a property of temporal coding, not an artifact.

use ncl_spike::encode;
use ncl_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::sample::{Dataset, LabeledSample};

/// Configuration of the rate-coded generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateCodedConfig {
    /// Number of input channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: u16,
    /// Timesteps per sample.
    pub steps: usize,
    /// Samples generated per class (per split).
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Peak firing probability per timestep.
    pub max_rate: f64,
    /// Std-dev of multiplicative per-sample rate jitter.
    pub rate_jitter: f32,
    /// Master seed.
    pub seed: u64,
}

impl RateCodedConfig {
    /// A small default suitable for tests and control experiments.
    #[must_use]
    pub fn small() -> Self {
        RateCodedConfig {
            channels: 48,
            classes: 4,
            steps: 40,
            train_per_class: 10,
            test_per_class: 5,
            max_rate: 0.35,
            rate_jitter: 0.15,
            seed: 99,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), DataError> {
        if self.channels == 0 || self.classes == 0 || self.steps == 0 {
            return Err(DataError::InvalidConfig {
                what: "shape",
                detail: "channels, classes and steps must all be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.max_rate) || self.max_rate == 0.0 {
            return Err(DataError::InvalidConfig {
                what: "max_rate",
                detail: format!("must be in (0, 1], got {}", self.max_rate),
            });
        }
        if self.rate_jitter < 0.0 {
            return Err(DataError::InvalidConfig {
                what: "rate_jitter",
                detail: "must be non-negative".into(),
            });
        }
        Ok(())
    }
}

const RATE_SALT: u64 = 0x7A7E_C0DE;

/// Generated train/test pair of rate-coded data.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCodedData {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
}

/// Generates deterministic rate-coded train/test splits.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] if the config fails validation.
pub fn generate(config: &RateCodedConfig) -> Result<RateCodedData, DataError> {
    config.validate()?;
    let prototypes: Vec<Vec<f32>> = (0..config.classes)
        .map(|k| prototype_of(config, k))
        .collect();
    let mut master = Rng::seed_from_u64(config.seed);
    let mut train_rng = master.fork(1);
    let mut test_rng = master.fork(2);

    let make = |per_class: usize, rng: &mut Rng| -> Result<Dataset, DataError> {
        let mut samples = Vec::with_capacity(per_class * config.classes as usize);
        for class in 0..config.classes {
            for _ in 0..per_class {
                let jitter = (1.0 + rng.normal_f32(0.0, config.rate_jitter)).clamp(0.3, 1.7);
                let values: Vec<f32> = prototypes[class as usize]
                    .iter()
                    .map(|v| (v * jitter).clamp(0.0, 1.0))
                    .collect();
                let raster = encode::poisson_encode(&values, config.steps, config.max_rate, rng)
                    .map_err(|e| DataError::InvalidConfig {
                        what: "poisson encoding",
                        detail: e.to_string(),
                    })?;
                samples.push(LabeledSample::new(raster, class));
            }
        }
        Dataset::new(samples, config.classes, config.channels, config.steps)
    };

    Ok(RateCodedData {
        train: make(config.train_per_class, &mut train_rng)?,
        test: make(config.test_per_class, &mut test_rng)?,
    })
}

/// The analog rate prototype of `class` (free function used by both the
/// config method and the generator).
fn prototype_of(config: &RateCodedConfig, class: u16) -> Vec<f32> {
    let mut rng =
        Rng::seed_from_u64(config.seed ^ RATE_SALT ^ u64::from(class).wrapping_mul(0x9E37_79B9));
    (0..config.channels).map(|_| rng.uniform_f32()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_spike::metrics::firing_rates;

    #[test]
    fn small_config_validates_and_generates() {
        let config = RateCodedConfig::small();
        assert!(config.validate().is_ok());
        let data = generate(&config).unwrap();
        assert_eq!(data.train.len(), 40);
        assert_eq!(data.test.len(), 20);
        assert_eq!(data.train.channels(), 48);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut c = RateCodedConfig::small();
        c.channels = 0;
        assert!(c.validate().is_err());
        let mut c = RateCodedConfig::small();
        c.max_rate = 0.0;
        assert!(c.validate().is_err());
        let mut c = RateCodedConfig::small();
        c.max_rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = RateCodedConfig::small();
        c.rate_jitter = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let config = RateCodedConfig::small();
        assert_eq!(generate(&config).unwrap(), generate(&config).unwrap());
    }

    #[test]
    fn firing_rates_track_class_prototypes() {
        let mut config = RateCodedConfig::small();
        config.steps = 400; // long window for stable rate estimates
        config.rate_jitter = 0.0;
        let data = generate(&config).unwrap();
        // Mean firing rate of each sample correlates with its prototype.
        for class in 0..config.classes {
            let proto = prototype_of(&config, class);
            let idx = data.train.indices_of_class(class);
            let sample = &data.train.samples()[idx[0]];
            let rates = firing_rates(&sample.raster);
            // Channels with high prototype intensity fire more.
            let hi: Vec<usize> = (0..config.channels).filter(|&c| proto[c] > 0.7).collect();
            let lo: Vec<usize> = (0..config.channels).filter(|&c| proto[c] < 0.3).collect();
            if !hi.is_empty() && !lo.is_empty() {
                let hi_mean: f32 = hi.iter().map(|&c| rates[c]).sum::<f32>() / hi.len() as f32;
                let lo_mean: f32 = lo.iter().map(|&c| rates[c]).sum::<f32>() / lo.len() as f32;
                assert!(hi_mean > lo_mean, "class {class}: {hi_mean} vs {lo_mean}");
            }
        }
    }

    #[test]
    fn rate_code_survives_decimation() {
        // The control property: OR-free decimation keeps relative rates.
        let mut config = RateCodedConfig::small();
        config.steps = 300;
        config.rate_jitter = 0.0;
        let data = generate(&config).unwrap();
        let sample = &data.train.samples()[0];
        let full_rates = firing_rates(&sample.raster);
        let reduced = ncl_spike::resample::resample(
            &sample.raster,
            60,
            ncl_spike::resample::ResampleStrategy::Decimate,
        )
        .unwrap();
        let reduced_rates = firing_rates(&reduced);
        // Rank correlation proxy: the top-rate channel stays near the top.
        let top_full = ncl_tensor::ops::argmax(&full_rates).unwrap();
        let mut sorted: Vec<usize> = (0..reduced_rates.len()).collect();
        sorted.sort_by(|&a, &b| reduced_rates[b].total_cmp(&reduced_rates[a]));
        let rank = sorted.iter().position(|&c| c == top_full).unwrap();
        assert!(
            rank < 10,
            "top channel fell to rank {rank} after decimation"
        );
    }
}
