//! Scenario configuration: dataset, network, protocol and cost-model
//! settings shared by every method under comparison.

use ncl_data::ShdLikeConfig;
use ncl_hw::HardwareProfile;
use ncl_snn::NetworkConfig;
use ncl_spike::memory::Alignment;
use serde::{Deserialize, Serialize};

use crate::error::NclError;

/// Configuration of one class-incremental experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Synthetic SHD-like dataset parameters.
    pub data: ShdLikeConfig,
    /// Network architecture.
    pub network: NetworkConfig,
    /// Latent-replay insertion layer (stage whose output is captured);
    /// `0..=network.layers()`.
    pub insertion_layer: usize,
    /// Pre-training epochs (`E_pre`).
    pub pretrain_epochs: usize,
    /// Continual-learning epochs (`E_cl`).
    pub cl_epochs: usize,
    /// Pre-training learning rate (`η_pre`, Alg. 1: 1e-3).
    pub pretrain_lr: f32,
    /// Mini-batch size for both phases.
    pub batch_size: usize,
    /// Threads of every per-sample pass, the calling thread included:
    /// gradient workers in training, and the fan-out of latent capture
    /// and evaluation (`ncl_snn::trainer::map_chunks`). Results do not
    /// depend on it.
    pub parallelism: usize,
    /// Shuffling/derived-stream seed (independent of data and weight
    /// seeds).
    pub seed: u64,
    /// Latent-store alignment policy.
    pub alignment: Alignment,
    /// Hardware profile for latency/energy reporting.
    pub profile: HardwareProfile,
}

impl ScenarioConfig {
    /// Paper-scale configuration: 700-channel SHD-like data at T = 100,
    /// the Fig. 6 network, 19+1 classes, insertion layer 3.
    #[must_use]
    pub fn paper() -> Self {
        ScenarioConfig {
            data: ShdLikeConfig::paper(),
            network: NetworkConfig::paper(),
            insertion_layer: 3,
            pretrain_epochs: 30,
            cl_epochs: 50,
            pretrain_lr: 1e-3,
            batch_size: 16,
            parallelism: 2,
            seed: 0xD15C0,
            alignment: Alignment::Byte,
            profile: HardwareProfile::embedded(),
        }
    }

    /// Reduced-scale configuration for fast smoke runs and integration
    /// tests: a small network on few samples, still exercising every code
    /// path (recurrence, replay, compression, adaptive thresholds).
    #[must_use]
    pub fn smoke() -> Self {
        let mut data = ShdLikeConfig::smoke_test();
        data.classes = 4;
        data.channels = 48;
        data.steps = 40;
        data.train_per_class = 10;
        data.test_per_class = 5;
        let mut network = NetworkConfig::tiny(48, 4);
        network.hidden_sizes = vec![24, 16];
        ScenarioConfig {
            data,
            network,
            insertion_layer: 1,
            pretrain_epochs: 10,
            cl_epochs: 6,
            pretrain_lr: 2e-3,
            batch_size: 4,
            parallelism: 2,
            seed: 7,
            alignment: Alignment::Byte,
            profile: HardwareProfile::embedded(),
        }
    }

    /// Number of pre-training classes (all but the held-out last class).
    #[must_use]
    pub fn old_classes(&self) -> u16 {
        self.data.classes.saturating_sub(1)
    }

    /// Validates the full configuration, including cross-field consistency
    /// (dataset shape vs network input, insertion layer vs depth).
    ///
    /// # Errors
    ///
    /// Returns [`NclError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), NclError> {
        self.data.validate()?;
        self.network.validate()?;
        if self.data.channels != self.network.input_size {
            return Err(NclError::InvalidConfig {
                what: "network.input_size",
                detail: format!(
                    "dataset has {} channels but the network expects {}",
                    self.data.channels, self.network.input_size
                ),
            });
        }
        if self.data.classes < 2 {
            return Err(NclError::InvalidConfig {
                what: "data.classes",
                detail: "class-incremental learning needs at least 2 classes".into(),
            });
        }
        if usize::from(self.data.classes) != self.network.output_size {
            return Err(NclError::InvalidConfig {
                what: "network.output_size",
                detail: format!(
                    "dataset has {} classes but the network has {} outputs",
                    self.data.classes, self.network.output_size
                ),
            });
        }
        if self.insertion_layer > self.network.layers() {
            return Err(NclError::InvalidConfig {
                what: "insertion_layer",
                detail: format!(
                    "must be in 0..={}, got {}",
                    self.network.layers(),
                    self.insertion_layer
                ),
            });
        }
        if self.pretrain_epochs == 0 || self.cl_epochs == 0 {
            return Err(NclError::InvalidConfig {
                what: "epochs",
                detail: "pretrain_epochs and cl_epochs must be at least 1".into(),
            });
        }
        if self.pretrain_lr <= 0.0 || !self.pretrain_lr.is_finite() {
            return Err(NclError::InvalidConfig {
                what: "pretrain_lr",
                detail: "must be positive and finite".into(),
            });
        }
        if self.batch_size == 0 || self.parallelism == 0 {
            return Err(NclError::InvalidConfig {
                what: "batch_size/parallelism",
                detail: "must be at least 1".into(),
            });
        }
        if !self.profile.is_valid() {
            return Err(NclError::InvalidConfig {
                what: "profile",
                detail: "hardware profile has non-positive parameters".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(ScenarioConfig::paper().validate().is_ok());
        assert!(ScenarioConfig::smoke().validate().is_ok());
    }

    #[test]
    fn paper_preset_matches_protocol() {
        let c = ScenarioConfig::paper();
        assert_eq!(c.data.classes, 20);
        assert_eq!(c.old_classes(), 19);
        assert_eq!(c.network.hidden_sizes, vec![200, 100, 50]);
        assert_eq!(c.insertion_layer, 3);
        assert_eq!(c.cl_epochs, 50);
        assert!((c.pretrain_lr - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn cross_field_validation() {
        let mut c = ScenarioConfig::smoke();
        c.network.input_size += 1;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.network.output_size += 1;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.insertion_layer = c.network.layers() + 1;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.cl_epochs = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.pretrain_lr = -1.0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.batch_size = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::smoke();
        c.profile.clock_hz = 0.0;
        assert!(c.validate().is_err());
    }
}
