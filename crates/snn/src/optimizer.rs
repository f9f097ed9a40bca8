//! The Adam gradient-descent optimizer.
//!
//! Optimizer state is keyed by the fixed parameter-visitation order shared
//! between [`Network::visit_trainable_mut`] and
//! [`crate::bptt::Gradients::visit`]. One optimizer instance therefore
//! belongs to one training phase (one `from_stage`); constructing a fresh
//! optimizer when the trainable set changes is required and cheap.

use serde::{Deserialize, Serialize};

use crate::bptt::Gradients;
use crate::error::SnnError;
use crate::network::Network;

/// The Adam optimizer (Kingma & Ba) with bias correction, the one
/// first-order optimizer the SNN trainers use.
///
/// # Example
///
/// ```
/// use ncl_snn::optimizer::Optimizer;
/// use ncl_snn::{Gradients, Network, NetworkConfig};
///
/// let mut net = Network::new(NetworkConfig::tiny(6, 3))?;
/// let before = net.clone();
/// let mut opt = Optimizer::adam(1e-3);
/// // A zero gradient moves no weight.
/// let zero = Gradients::zeros(&net, 0)?;
/// opt.step(&mut net, &zero)?;
/// assert_eq!(net, before);
/// # Ok::<(), ncl_snn::SnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Optimizer {
    /// Adam with the standard hyper-parameters (β₁ = 0.9, β₂ = 0.999).
    #[must_use]
    pub fn adam(learning_rate: f32) -> Self {
        Optimizer {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step of `grads` to the trainable parameters of
    /// `net` (those from `grads.from_stage`).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the gradient shapes do not
    /// match the network (or a previously-seen parameterization).
    pub fn step(&mut self, net: &mut Network, grads: &Gradients) -> Result<(), SnnError> {
        self.step_scaled(net, grads, 1.0)
    }

    /// Applies one update step of `scale · grads` (scale-at-apply). The
    /// trainer passes the raw batch-summed gradients with
    /// `scale = 1/batch`, which removes the O(params) `Gradients::scale`
    /// sweep per batch; the result is bit-identical to scaling first
    /// (`g[j] * scale` is rounded once, then used exactly as the
    /// pre-scaled value was).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the gradient shapes do not
    /// match the network (or a previously-seen parameterization).
    pub fn step_scaled(
        &mut self,
        net: &mut Network,
        grads: &Gradients,
        scale: f32,
    ) -> Result<(), SnnError> {
        // Ordering contract: Gradients::visit and visit_trainable_mut use
        // the same documented slice order, so gradients and parameters can
        // be walked in lockstep without copying the gradients.
        let mut slices: Vec<&[f32]> = Vec::with_capacity(16);
        grads.visit(|s| slices.push(s));

        if self.m.is_empty() {
            self.m = slices.iter().map(|s| vec![0.0; s.len()]).collect();
            self.v = slices.iter().map(|s| vec![0.0; s.len()]).collect();
        }
        if self.m.len() != slices.len() {
            return Err(SnnError::ShapeMismatch {
                op: "Optimizer::step",
                expected: self.m.len(),
                actual: slices.len(),
            });
        }
        self.step_count += 1;
        let t = self.step_count;
        let bc1 = 1.0 - self.beta1.powi(t as i32);
        let bc2 = 1.0 - self.beta2.powi(t as i32);
        let mut idx = 0;
        let mut failed = None;
        net.visit_trainable_mut(grads.from_stage, |params| {
            if idx >= slices.len() || params.len() != slices[idx].len() {
                failed = Some(idx);
                idx += 1;
                return;
            }
            let g = slices[idx];
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            // Lockstep zips: no bounds checks in the O(params)
            // loop, so the (element-independent, rounding-
            // preserving) update autovectorizes.
            for (((p, &gr), mj), vj) in params
                .iter_mut()
                .zip(g.iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                let gj = gr * scale;
                *mj = self.beta1 * *mj + (1.0 - self.beta1) * gj;
                *vj = self.beta2 * *vj + (1.0 - self.beta2) * gj * gj;
                let m_hat = *mj / bc1;
                let v_hat = *vj / bc2;
                *p -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            idx += 1;
        })?;
        if let Some(i) = failed {
            return Err(SnnError::ShapeMismatch {
                op: "Optimizer::step",
                expected: slices.get(i).map_or(0, |s| s.len()),
                actual: i,
            });
        }
        if idx != slices.len() {
            return Err(SnnError::ShapeMismatch {
                op: "Optimizer::step",
                expected: slices.len(),
                actual: idx,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bptt;
    use crate::config::NetworkConfig;
    use ncl_spike::SpikeRaster;
    use ncl_tensor::Rng;

    fn setup() -> (Network, SpikeRaster) {
        let net = Network::new(NetworkConfig::tiny(6, 3)).unwrap();
        let mut rng = Rng::seed_from_u64(3);
        let input = SpikeRaster::from_fn(6, 12, |_, _| rng.bernoulli(0.4));
        (net, input)
    }

    #[test]
    fn adam_reduces_loss_over_steps() {
        let (mut net, input) = setup();
        let mut opt = Optimizer::adam(5e-3);
        let target = 2usize;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let h = net.record_from(0, &input, None).unwrap();
            let (l, g) = bptt::backward(&net, &h, target).unwrap();
            first.get_or_insert(l);
            last = l;
            opt.step(&mut net, &g).unwrap();
        }
        assert!(
            last < first.unwrap(),
            "Adam should reduce loss: {first:?} -> {last}"
        );
    }

    #[test]
    fn step_rejects_mismatched_gradients() {
        let (mut net, _) = setup();
        let other = Network::new(NetworkConfig::tiny(9, 3)).unwrap();
        let (_, input) = setup();
        let mut rng = Rng::seed_from_u64(5);
        let big_input = SpikeRaster::from_fn(9, 12, |_, _| rng.bernoulli(0.4));
        let h = other.record_from(0, &big_input, None).unwrap();
        let (_, grads) = bptt::backward(&other, &h, 0).unwrap();
        let mut opt = Optimizer::adam(0.1);
        assert!(opt.step(&mut net, &grads).is_err());
        let _ = input;
    }

    #[test]
    fn optimizer_state_is_per_phase() {
        // Stepping with from_stage=0 then from_stage=1 grads must fail
        // (different slice counts) rather than silently corrupt state.
        let (mut net, input) = setup();
        let mut opt = Optimizer::adam(1e-3);
        let h = net.record_from(0, &input, None).unwrap();
        let (_, g0) = bptt::backward(&net, &h, 0).unwrap();
        opt.step(&mut net, &g0).unwrap();
        let act = net.activations_at(1, &input).unwrap();
        let h1 = net.record_from(1, &act, None).unwrap();
        let (_, g1) = bptt::backward(&net, &h1, 0).unwrap();
        assert!(opt.step(&mut net, &g1).is_err());
    }
}
