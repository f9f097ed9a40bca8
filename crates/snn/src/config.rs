//! Configuration types for LIF neurons and networks.

use serde::{Deserialize, Serialize};

use crate::error::SnnError;
use crate::surrogate::SurrogateKind;

/// Leaky integrate-and-fire neuron parameters (discrete time).
///
/// The membrane update implemented throughout this crate is
/// `v[t] = beta * v[t-1] * (1 - s[t-1]) + I[t]` — a hard reset to 0
/// (the paper's Eq. (2) with `V_rst = 0`), with the reset term detached
/// from the gradient as is standard in surrogate-gradient training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifConfig {
    /// Membrane decay per timestep, `beta = exp(-dt/tau)`, in `(0, 1)`.
    pub beta: f32,
    /// Baseline firing threshold `V_thr` (the paper uses 1.0).
    pub v_threshold: f32,
    /// Slope parameter of the surrogate gradient.
    pub surrogate_scale: f32,
    /// Surrogate-gradient shape (the paper uses the fast sigmoid).
    pub surrogate_kind: SurrogateKind,
}

impl Default for LifConfig {
    fn default() -> Self {
        LifConfig {
            beta: 0.95,
            v_threshold: 1.0,
            surrogate_scale: 10.0,
            surrogate_kind: SurrogateKind::FastSigmoid,
        }
    }
}

impl LifConfig {
    /// Validates the neuron parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SnnError> {
        if !(0.0..1.0).contains(&self.beta) {
            return Err(SnnError::InvalidConfig {
                what: "beta",
                detail: format!("must be in (0, 1), got {}", self.beta),
            });
        }
        if self.v_threshold <= 0.0 || !self.v_threshold.is_finite() {
            return Err(SnnError::InvalidConfig {
                what: "v_threshold",
                detail: format!("must be positive and finite, got {}", self.v_threshold),
            });
        }
        if self.surrogate_scale <= 0.0 {
            return Err(SnnError::InvalidConfig {
                what: "surrogate_scale",
                detail: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Leaky-integrator readout parameters (no spiking, no reset).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadoutConfig {
    /// Membrane decay per timestep, in `[0, 1)`.
    pub beta: f32,
}

impl Default for ReadoutConfig {
    fn default() -> Self {
        ReadoutConfig { beta: 0.9 }
    }
}

impl ReadoutConfig {
    /// Validates the readout parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `beta` is outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), SnnError> {
        if !(0.0..1.0).contains(&self.beta) {
            return Err(SnnError::InvalidConfig {
                what: "readout beta",
                detail: format!("must be in [0, 1), got {}", self.beta),
            });
        }
        Ok(())
    }
}

/// Full network architecture description.
///
/// Stage indexing convention (used by the latent-replay insertion-layer
/// machinery): stage 0 is the raw input, stages `1..=hidden_sizes.len()`
/// are the recurrent hidden layers, and the readout comes last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Input channel count (stage 0 width).
    pub input_size: usize,
    /// Hidden layer widths (stages 1..).
    pub hidden_sizes: Vec<usize>,
    /// Number of output classes.
    pub output_size: usize,
    /// Whether hidden layers carry recurrent weights (the paper's
    /// architecture, Fig. 6, does).
    pub recurrent: bool,
    /// Neuron parameters shared by all hidden layers.
    pub lif: LifConfig,
    /// Readout parameters.
    pub readout: ReadoutConfig,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's architecture: 700‑200‑100‑50 recurrent hidden stages and
    /// a 20-class readout (Fig. 6, "4-layer SNN").
    #[must_use]
    pub fn paper() -> Self {
        NetworkConfig {
            input_size: 700,
            hidden_sizes: vec![200, 100, 50],
            output_size: 20,
            recurrent: true,
            lif: LifConfig::default(),
            readout: ReadoutConfig::default(),
            seed: 42,
        }
    }

    /// A small architecture for tests and examples.
    #[must_use]
    pub fn tiny(input_size: usize, output_size: usize) -> Self {
        NetworkConfig {
            input_size,
            hidden_sizes: vec![16, 12],
            output_size,
            recurrent: true,
            lif: LifConfig::default(),
            readout: ReadoutConfig::default(),
            seed: 42,
        }
    }

    /// Number of hidden layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.hidden_sizes.len()
    }

    /// Width of a stage: stage 0 is the input, stage `k >= 1` is hidden
    /// layer `k`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] if `stage > layers()`.
    pub(crate) fn stage_width(&self, stage: usize) -> Result<usize, SnnError> {
        if stage == 0 {
            Ok(self.input_size)
        } else if stage <= self.hidden_sizes.len() {
            Ok(self.hidden_sizes[stage - 1])
        } else {
            Err(SnnError::InvalidStage {
                stage,
                layers: self.hidden_sizes.len(),
            })
        }
    }

    /// Validates the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SnnError> {
        if self.input_size == 0 {
            return Err(SnnError::InvalidConfig {
                what: "input_size",
                detail: "must be at least 1".into(),
            });
        }
        if self.hidden_sizes.is_empty() {
            return Err(SnnError::InvalidConfig {
                what: "hidden_sizes",
                detail: "need at least one hidden layer".into(),
            });
        }
        if self.hidden_sizes.contains(&0) {
            return Err(SnnError::InvalidConfig {
                what: "hidden_sizes",
                detail: "hidden layer width must be at least 1".into(),
            });
        }
        if self.output_size == 0 {
            return Err(SnnError::InvalidConfig {
                what: "output_size",
                detail: "must be at least 1".into(),
            });
        }
        self.lif.validate()?;
        self.readout.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(LifConfig::default().validate().is_ok());
        assert!(ReadoutConfig::default().validate().is_ok());
        assert!(NetworkConfig::paper().validate().is_ok());
        assert!(NetworkConfig::tiny(10, 3).validate().is_ok());
    }

    #[test]
    fn paper_architecture_matches_fig6() {
        let c = NetworkConfig::paper();
        assert_eq!(c.input_size, 700);
        assert_eq!(c.hidden_sizes, vec![200, 100, 50]);
        assert_eq!(c.output_size, 20);
        assert!(c.recurrent);
        assert_eq!(c.layers(), 3);
    }

    #[test]
    fn stage_widths() {
        let c = NetworkConfig::paper();
        assert_eq!(c.stage_width(0).unwrap(), 700);
        assert_eq!(c.stage_width(1).unwrap(), 200);
        assert_eq!(c.stage_width(3).unwrap(), 50);
        assert!(matches!(
            c.stage_width(4),
            Err(SnnError::InvalidStage { .. })
        ));
    }

    #[test]
    fn lif_validation() {
        let mut c = LifConfig {
            beta: 1.0,
            ..LifConfig::default()
        };
        assert!(c.validate().is_err());
        c = LifConfig {
            v_threshold: 0.0,
            ..LifConfig::default()
        };
        assert!(c.validate().is_err());
        c = LifConfig {
            surrogate_scale: -1.0,
            ..LifConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn network_validation() {
        let mut c = NetworkConfig::tiny(10, 3);
        c.input_size = 0;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::tiny(10, 3);
        c.hidden_sizes.clear();
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::tiny(10, 3);
        c.hidden_sizes[0] = 0;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::tiny(10, 3);
        c.output_size = 0;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::tiny(10, 3);
        c.readout.beta = 1.0;
        assert!(c.validate().is_err());
    }
}
