//! Recurrent leaky integrate-and-fire layer.
//!
//! Weight layout convention: matrices are **input-major** (`pre x post`),
//! so row `i` holds the outgoing weights of pre-synaptic neuron `i`. This
//! makes both the event-driven forward pass (gather active rows) and the
//! event-driven weight-gradient update (scatter into active rows)
//! contiguous-memory operations.

use ncl_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::config::LifConfig;
use crate::error::SnnError;
use crate::surrogate::Surrogate;

/// A recurrent LIF layer: feed-forward weights from the previous stage,
/// optional recurrent weights from the layer's own previous spikes, a bias
/// current, and shared neuron parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecurrentLifLayer {
    /// Feed-forward weights, `inputs x neurons`.
    w_ff: Matrix,
    /// Recurrent weights, `neurons x neurons` (input-major), if enabled.
    w_rec: Option<Matrix>,
    /// Bias current per neuron.
    bias: Vec<f32>,
    lif: LifConfig,
    surrogate: Surrogate,
}

impl RecurrentLifLayer {
    /// Creates a layer with Xavier-initialized feed-forward weights and
    /// (optionally) small recurrent weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if sizes are zero or the LIF
    /// parameters are invalid.
    pub fn new(
        inputs: usize,
        neurons: usize,
        recurrent: bool,
        lif: LifConfig,
        rng: &mut Rng,
    ) -> Result<Self, SnnError> {
        if inputs == 0 || neurons == 0 {
            return Err(SnnError::InvalidConfig {
                what: "layer size",
                detail: format!("inputs={inputs}, neurons={neurons} (both must be >= 1)"),
            });
        }
        lif.validate()?;
        let w_ff = Matrix::xavier_uniform(inputs, neurons, rng);
        // Recurrent weights start an order of magnitude smaller so early
        // training is dominated by the feed-forward pathway (standard
        // practice for recurrent SNNs).
        let w_rec = recurrent.then(|| {
            let mut m = Matrix::xavier_uniform(neurons, neurons, rng);
            m.map_inplace(|v| v * 0.1);
            m
        });
        Ok(RecurrentLifLayer {
            w_ff,
            w_rec,
            bias: vec![0.0; neurons],
            lif,
            surrogate: Surrogate::new(lif.surrogate_kind, lif.surrogate_scale),
        })
    }

    /// Number of pre-synaptic inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.w_ff.rows()
    }

    /// Number of neurons.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.w_ff.cols()
    }

    /// The neuron parameters.
    #[must_use]
    pub fn lif(&self) -> &LifConfig {
        &self.lif
    }

    /// The surrogate-gradient function.
    #[must_use]
    pub fn surrogate(&self) -> &Surrogate {
        &self.surrogate
    }

    /// Borrow of the feed-forward weights (`inputs x neurons`).
    #[must_use]
    pub fn w_ff(&self) -> &Matrix {
        &self.w_ff
    }

    /// Mutable borrow of the feed-forward weights.
    pub fn w_ff_mut(&mut self) -> &mut Matrix {
        &mut self.w_ff
    }

    /// Borrow of the recurrent weights, if enabled.
    #[must_use]
    pub fn w_rec(&self) -> Option<&Matrix> {
        self.w_rec.as_ref()
    }

    /// Mutable borrow of the recurrent weights, if enabled.
    pub(crate) fn w_rec_mut(&mut self) -> Option<&mut Matrix> {
        self.w_rec.as_mut()
    }

    /// Borrow of the bias currents.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable borrow of the bias currents.
    pub(crate) fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Computes the input current for one timestep, event-driven:
    /// `current[j] = bias[j] + Σ_{i ∈ active_in} w_ff[i][j]
    ///             + Σ_{k ∈ active_rec} w_rec[k][j]`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `current.len() != neurons` or any index is
    /// out of range (callers are internal and size-checked).
    pub(crate) fn input_current(
        &self,
        active_in: &[usize],
        active_rec: &[usize],
        current: &mut [f32],
    ) {
        debug_assert_eq!(current.len(), self.neurons());
        current.copy_from_slice(&self.bias);
        for &i in active_in {
            let row = self.w_ff.row(i);
            for (c, w) in current.iter_mut().zip(row.iter()) {
                *c += w;
            }
        }
        if let Some(w_rec) = &self.w_rec {
            for &k in active_rec {
                let row = w_rec.row(k);
                for (c, w) in current.iter_mut().zip(row.iter()) {
                    *c += w;
                }
            }
        }
    }

    /// Advances the membrane one timestep in place and reports spikes.
    ///
    /// `v` holds post-reset potentials from the previous step and is
    /// updated to this step's **post-reset** potentials. `v_pre_out`, when
    /// provided, receives the **pre-reset** potentials (needed by BPTT for
    /// the surrogate derivative). Spiking neuron indices are appended to
    /// `spikes_out`.
    pub(crate) fn membrane_step(
        &self,
        current: &[f32],
        threshold: f32,
        v: &mut [f32],
        v_pre_out: Option<&mut [f32]>,
        spikes_out: &mut Vec<usize>,
    ) {
        debug_assert_eq!(current.len(), self.neurons());
        debug_assert_eq!(v.len(), self.neurons());
        let beta = self.lif.beta;
        spikes_out.clear();
        // Two zipped loops (with and without the pre-reset tap) instead of
        // one indexed loop with a per-element branch: identical per-element
        // arithmetic, no bounds checks in the hot path.
        match v_pre_out {
            Some(out) => {
                debug_assert_eq!(out.len(), self.neurons());
                for (j, ((vj, &cj), oj)) in v
                    .iter_mut()
                    .zip(current.iter())
                    .zip(out.iter_mut())
                    .enumerate()
                {
                    let v_pre = beta * *vj + cj;
                    *oj = v_pre;
                    if v_pre > threshold {
                        spikes_out.push(j);
                        *vj = 0.0; // hard reset
                    } else {
                        *vj = v_pre;
                    }
                }
            }
            None => {
                for (j, (vj, &cj)) in v.iter_mut().zip(current.iter()).enumerate() {
                    let v_pre = beta * *vj + cj;
                    if v_pre > threshold {
                        spikes_out.push(j);
                        *vj = 0.0; // hard reset
                    } else {
                        *vj = v_pre;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(inputs: usize, neurons: usize, recurrent: bool) -> RecurrentLifLayer {
        let mut rng = Rng::seed_from_u64(1);
        RecurrentLifLayer::new(inputs, neurons, recurrent, LifConfig::default(), &mut rng).unwrap()
    }

    #[test]
    fn construction_and_shapes() {
        let l = layer(10, 4, true);
        assert_eq!(l.inputs(), 10);
        assert_eq!(l.neurons(), 4);
        assert_eq!(l.w_ff().rows(), 10);
        assert_eq!(l.w_ff().cols(), 4);
        assert_eq!(l.w_rec().unwrap().rows(), 4);
        assert_eq!(l.bias().len(), 4);
        let nf = layer(10, 4, false);
        assert!(nf.w_rec().is_none());
    }

    #[test]
    fn invalid_sizes_rejected() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(RecurrentLifLayer::new(0, 4, true, LifConfig::default(), &mut rng).is_err());
        assert!(RecurrentLifLayer::new(4, 0, true, LifConfig::default(), &mut rng).is_err());
        let bad = LifConfig {
            beta: 1.5,
            ..LifConfig::default()
        };
        assert!(RecurrentLifLayer::new(4, 4, true, bad, &mut rng).is_err());
    }

    #[test]
    fn input_current_is_event_driven_sum() {
        let mut l = layer(3, 2, false);
        l.w_ff_mut().set(0, 0, 1.0);
        l.w_ff_mut().set(0, 1, 2.0);
        l.w_ff_mut().set(2, 0, -0.5);
        l.w_ff_mut().set(2, 1, 0.25);
        l.bias_mut()[1] = 0.5;
        let mut current = vec![0.0; 2];
        l.input_current(&[0, 2], &[], &mut current);
        // Only active rows 0 and 2 contribute.
        let w = l.w_ff();
        assert!((current[0] - (w.get(0, 0) + w.get(2, 0))).abs() < 1e-6);
        assert!((current[1] - (0.5 + w.get(0, 1) + w.get(2, 1))).abs() < 1e-6);
    }

    #[test]
    fn recurrent_current_contributes() {
        let mut l = layer(2, 2, true);
        l.w_rec_mut().unwrap().set(1, 0, 3.0);
        let mut with_rec = vec![0.0; 2];
        l.input_current(&[], &[1], &mut with_rec);
        let mut without = vec![0.0; 2];
        l.input_current(&[], &[], &mut without);
        assert!((with_rec[0] - without[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn membrane_integrates_decays_and_resets() {
        let l = layer(1, 1, false);
        let beta = l.lif().beta;
        let mut v = vec![0.0f32];
        let mut spikes = Vec::new();

        // Sub-threshold accumulation with decay.
        l.membrane_step(&[0.4], 1.0, &mut v, None, &mut spikes);
        assert!(spikes.is_empty());
        assert!((v[0] - 0.4).abs() < 1e-6);
        l.membrane_step(&[0.4], 1.0, &mut v, None, &mut spikes);
        assert!((v[0] - (beta * 0.4 + 0.4)).abs() < 1e-6);

        // Crossing the threshold spikes and hard-resets.
        let mut v_pre = vec![0.0f32];
        l.membrane_step(&[2.0], 1.0, &mut v, Some(&mut v_pre), &mut spikes);
        assert_eq!(spikes, vec![0]);
        assert_eq!(v[0], 0.0, "hard reset to 0");
        assert!(v_pre[0] > 1.0, "pre-reset potential recorded");
    }

    #[test]
    fn threshold_controls_firing() {
        let l = layer(1, 1, false);
        let mut v = vec![0.0f32];
        let mut spikes = Vec::new();
        // Current 0.8 fires at threshold 0.5 but not at 1.0.
        l.membrane_step(&[0.8], 1.0, &mut v, None, &mut spikes);
        assert!(spikes.is_empty());
        v[0] = 0.0;
        l.membrane_step(&[0.8], 0.5, &mut v, None, &mut spikes);
        assert_eq!(spikes, vec![0]);
    }

    #[test]
    fn deterministic_construction() {
        let a = layer(8, 4, true);
        let b = layer(8, 4, true);
        assert_eq!(a, b);
    }
}
