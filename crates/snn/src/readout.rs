//! Leaky-integrator readout layer.
//!
//! The readout accumulates weighted spikes of the last hidden layer into
//! non-spiking, non-resetting membrane potentials; the class logits are the
//! mean membrane potential over time. Averaging (rather than summing) keeps
//! logits comparable across different timestep counts — essential here,
//! because Replay4NCL trains and runs the learning stages at a reduced T*.

use ncl_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::config::ReadoutConfig;
use crate::error::SnnError;

/// Leaky-integrator readout: `u[t] = beta·u[t-1] + Wᵀs[t] + b`, logits =
/// `mean_t u[t]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiReadout {
    /// Weights, `inputs x outputs` (input-major).
    w: Matrix,
    /// Bias per output.
    bias: Vec<f32>,
    config: ReadoutConfig,
}

impl LiReadout {
    /// Creates a readout with Xavier-initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for zero sizes or invalid decay.
    pub fn new(
        inputs: usize,
        outputs: usize,
        config: ReadoutConfig,
        rng: &mut Rng,
    ) -> Result<Self, SnnError> {
        if inputs == 0 || outputs == 0 {
            return Err(SnnError::InvalidConfig {
                what: "readout size",
                detail: format!("inputs={inputs}, outputs={outputs} (both must be >= 1)"),
            });
        }
        config.validate()?;
        Ok(LiReadout {
            w: Matrix::xavier_uniform(inputs, outputs, rng),
            bias: vec![0.0; outputs],
            config,
        })
    }

    /// Number of pre-synaptic inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Number of outputs (classes).
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// The readout configuration.
    #[must_use]
    pub fn config(&self) -> &ReadoutConfig {
        &self.config
    }

    /// Borrow of the weights (`inputs x outputs`).
    #[must_use]
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// Mutable borrow of the weights.
    pub(crate) fn w_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Borrow of the biases.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable borrow of the biases.
    pub(crate) fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Advances the readout one timestep: decays `u`, injects the weighted
    /// active spikes plus bias, and accumulates `u` into `logit_acc`.
    pub fn step(&self, active_in: &[usize], u: &mut [f32], logit_acc: &mut [f32]) {
        debug_assert_eq!(u.len(), self.outputs());
        debug_assert_eq!(logit_acc.len(), self.outputs());
        let beta = self.config.beta;
        for (uj, bj) in u.iter_mut().zip(self.bias.iter()) {
            *uj = beta * *uj + bj;
        }
        for &i in active_in {
            let row = self.w.row(i);
            for (uj, w) in u.iter_mut().zip(row.iter()) {
                *uj += w;
            }
        }
        for (acc, uj) in logit_acc.iter_mut().zip(u.iter()) {
            *acc += uj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readout() -> LiReadout {
        let mut rng = Rng::seed_from_u64(2);
        LiReadout::new(4, 3, ReadoutConfig::default(), &mut rng).unwrap()
    }

    #[test]
    fn construction_and_shapes() {
        let r = readout();
        assert_eq!(r.inputs(), 4);
        assert_eq!(r.outputs(), 3);
        assert_eq!(r.bias().len(), 3);
        let mut rng = Rng::seed_from_u64(2);
        assert!(LiReadout::new(0, 3, ReadoutConfig::default(), &mut rng).is_err());
        assert!(LiReadout::new(4, 0, ReadoutConfig::default(), &mut rng).is_err());
        assert!(LiReadout::new(4, 3, ReadoutConfig { beta: 1.0 }, &mut rng).is_err());
    }

    #[test]
    fn step_decays_and_injects() {
        let mut r = readout();
        r.w_mut().set(1, 0, 2.0);
        r.bias_mut()[2] = 0.5;
        let beta = r.config().beta;
        let mut u = vec![1.0, 0.0, 0.0];
        let mut acc = vec![0.0; 3];
        r.step(&[1], &mut u, &mut acc);
        // u[0] = beta*1.0 + w[1][0]
        assert!((u[0] - (beta + r.w().get(1, 0))).abs() < 1e-6);
        // u[2] got the bias.
        assert!((u[2] - (0.5 + r.w().get(1, 2))).abs() < 1e-6);
        // Accumulator mirrors u after one step.
        assert_eq!(acc, u);
    }

    #[test]
    fn silent_input_only_decays() {
        let r = readout();
        let mut u = vec![1.0, -2.0, 0.5];
        let before = u.clone();
        let mut acc = vec![0.0; 3];
        r.step(&[], &mut u, &mut acc);
        for (after, b) in u.iter().zip(before.iter()) {
            assert!((after - r.config().beta * b).abs() < 1e-6);
        }
    }
}
