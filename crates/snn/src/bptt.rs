//! Backpropagation through time with surrogate gradients.
//!
//! Given a recorded [`History`], [`backward`] computes exact gradients of
//! the softmax cross-entropy loss with respect to every trainable
//! parameter, under the standard surrogate-gradient conventions:
//!
//! * the spike non-linearity's derivative is replaced by the fast sigmoid
//!   (see [`crate::surrogate::SurrogateKind::FastSigmoid`]);
//! * the hard reset is *detached*: the carry factor `β(1 − s[t])` is
//!   treated as a constant with respect to `s[t]`.
//!
//! The recurrent credit assignment follows the forward equations exactly
//! (same-timestep feed-forward cascade, one-step-delayed recurrence); a
//! finite-difference check in the tests validates the implementation
//! end-to-end on the *smoothed* network surrogate.
//!
//! Only credit that a trained parameter reads is computed. A readout-only
//! backward (`from_stage == layers()`, the latent-replay update at the
//! last insertion layer) trains no hidden layer, so it builds no spike
//! credit `g_s = W · du` at all: its cost is the readout and bias
//! gradients alone.

use ncl_tensor::{ops, Matrix};

use crate::error::SnnError;
use crate::loss;
use crate::network::{History, Network};

/// Gradients of one hidden layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// Feed-forward weight gradients (`inputs x neurons`).
    pub w_ff: Matrix,
    /// Recurrent weight gradients, if the layer is recurrent.
    pub w_rec: Option<Matrix>,
    /// Bias gradients.
    pub bias: Vec<f32>,
}

/// Gradients of the trainable portion of a network (stages
/// `from_stage+1..` plus the readout).
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Stage the gradients start after.
    pub from_stage: usize,
    /// Hidden-layer gradients, ascending stage order.
    pub layers: Vec<LayerGradients>,
    /// Readout weight gradients (`inputs x outputs`).
    pub readout_w: Matrix,
    /// Readout bias gradients.
    pub readout_bias: Vec<f32>,
}

impl Gradients {
    /// Zero gradients matching the trainable portion of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] for a bad stage.
    pub fn zeros(net: &Network, from_stage: usize) -> Result<Self, SnnError> {
        net.config().stage_width(from_stage)?;
        let layers = (from_stage..net.layers())
            .map(|li| {
                let l = net.layer(li);
                LayerGradients {
                    w_ff: Matrix::zeros(l.w_ff().rows(), l.w_ff().cols()),
                    w_rec: l.w_rec().map(|w| Matrix::zeros(w.rows(), w.cols())),
                    bias: vec![0.0; l.neurons()],
                }
            })
            .collect();
        Ok(Gradients {
            from_stage,
            layers,
            readout_w: Matrix::zeros(net.readout().w().rows(), net.readout().w().cols()),
            readout_bias: vec![0.0; net.readout().outputs()],
        })
    }

    /// Accumulates another gradient set (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if shapes or stages differ.
    pub fn accumulate(&mut self, other: &Gradients) -> Result<(), SnnError> {
        if self.from_stage != other.from_stage || self.layers.len() != other.layers.len() {
            return Err(SnnError::ShapeMismatch {
                op: "Gradients::accumulate",
                expected: self.layers.len(),
                actual: other.layers.len(),
            });
        }
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            ops::axpy(1.0, b.w_ff.as_slice(), a.w_ff.as_mut_slice())?;
            match (&mut a.w_rec, &b.w_rec) {
                (Some(ar), Some(br)) => ops::axpy(1.0, br.as_slice(), ar.as_mut_slice())?,
                (None, None) => {}
                _ => {
                    return Err(SnnError::ShapeMismatch {
                        op: "Gradients::accumulate",
                        expected: 1,
                        actual: 0,
                    })
                }
            }
            ops::axpy(1.0, &b.bias, &mut a.bias)?;
        }
        ops::axpy(
            1.0,
            other.readout_w.as_slice(),
            self.readout_w.as_mut_slice(),
        )?;
        ops::axpy(1.0, &other.readout_bias, &mut self.readout_bias)?;
        Ok(())
    }

    /// Resets every gradient to zero in place, reusing the allocation —
    /// the arena counterpart of [`Gradients::zeros`] (a freshly-zeroed
    /// arena and a fresh `zeros` allocation are indistinguishable to every
    /// consumer, which is what keeps the arena path bit-identical).
    pub fn zero_fill(&mut self) {
        for l in &mut self.layers {
            l.w_ff.fill_zero();
            if let Some(w) = &mut l.w_rec {
                w.fill_zero();
            }
            l.bias.iter_mut().for_each(|v| *v = 0.0);
        }
        self.readout_w.fill_zero();
        self.readout_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Whether this gradient set matches the trainable portion of `net`
    /// from `from_stage` (shape and stage), i.e. whether it can be reused
    /// as an accumulator for that training phase.
    #[must_use]
    pub fn matches(&self, net: &Network, from_stage: usize) -> bool {
        if self.from_stage != from_stage
            || from_stage > net.layers()
            || self.layers.len() != net.layers() - from_stage
        {
            return false;
        }
        let layers_match = self.layers.iter().enumerate().all(|(i, lg)| {
            let l = net.layer(from_stage + i);
            let rec_match = match (&lg.w_rec, l.w_rec()) {
                (Some(a), Some(b)) => a.rows() == b.rows() && a.cols() == b.cols(),
                (None, None) => true,
                _ => false,
            };
            lg.w_ff.rows() == l.w_ff().rows()
                && lg.w_ff.cols() == l.w_ff().cols()
                && rec_match
                && lg.bias.len() == l.neurons()
        });
        layers_match
            && self.readout_w.rows() == net.readout().w().rows()
            && self.readout_w.cols() == net.readout().w().cols()
            && self.readout_bias.len() == net.readout().outputs()
    }

    /// Scales every gradient by `factor` (e.g. `1/batch`).
    pub fn scale(&mut self, factor: f32) {
        for l in &mut self.layers {
            l.w_ff.map_inplace(|v| v * factor);
            if let Some(w) = &mut l.w_rec {
                w.map_inplace(|v| v * factor);
            }
            l.bias.iter_mut().for_each(|v| *v *= factor);
        }
        self.readout_w.map_inplace(|v| v * factor);
        self.readout_bias.iter_mut().for_each(|v| *v *= factor);
    }

    /// Visits every gradient slice in the same fixed order as
    /// [`Network::visit_trainable_mut`]. The slices borrow from `self`, so
    /// callers may collect them (the optimizer does, to walk gradients and
    /// parameters in lockstep without copying).
    pub fn visit<'a>(&'a self, mut f: impl FnMut(&'a [f32])) {
        for l in &self.layers {
            f(l.w_ff.as_slice());
            if let Some(w) = &l.w_rec {
                f(w.as_slice());
            }
            f(&l.bias);
        }
        f(self.readout_w.as_slice());
        f(&self.readout_bias);
    }
}

/// Reusable scratch vectors of the backward pass: the time-major
/// spike-credit planes (`g_s`) and every per-timestep row buffer. One
/// scratch per training worker lives for a whole epoch, so the
/// steady-state backward path performs no heap allocation per sample —
/// at paper scale the `g_s` planes alone are several hundred kilobytes
/// per sample on the allocating path.
#[derive(Debug, Default, Clone)]
pub struct BpttScratch {
    /// Ping/pong spike-credit planes (`g_s`, time-major `[t * n + i]`).
    gs_a: Vec<f32>,
    gs_b: Vec<f32>,
    /// Loss gradient w.r.t. the logits.
    dlogits: Vec<f32>,
    /// Readout membrane credit per timestep.
    du: Vec<f32>,
    /// `W · du` row buffer.
    gs_row: Vec<f32>,
    /// Next-timestep membrane credit (`g_v[t+1]`).
    gv_next: Vec<f32>,
    /// Input-current credit (`dI[t]`).
    di: Vec<f32>,
    /// `W_rec · dI` row buffer.
    rec_row: Vec<f32>,
    /// `W_ff · dI` row buffer.
    below_row: Vec<f32>,
    /// Per-timestep reset-carry factors (`0` for fired neurons, `β`
    /// otherwise), materialized so the credit loop is branchless and
    /// autovectorizes (its divisions dominate backward at small widths).
    carry_row: Vec<f32>,
}

impl BpttScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        BpttScratch::default()
    }
}

/// Clears `buf` and resizes it to `len` zeros, reusing the allocation.
#[inline]
fn zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Runs the backward pass for one recorded sample, returning the loss and
/// the gradients of all trainable parameters.
///
/// This is a thin wrapper over [`backward_into`] with a freshly-zeroed
/// accumulator and transient scratch; the training hot path calls
/// [`backward_into`] directly with reused arenas.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if `target` is out of range or the
/// history does not match the network.
pub fn backward(
    net: &Network,
    history: &History,
    target: usize,
) -> Result<(f32, Gradients), SnnError> {
    let mut grads = Gradients::zeros(net, history.from_stage)?;
    let mut scratch = BpttScratch::new();
    let loss = backward_into(net, history, target, &mut grads, &mut scratch)?;
    Ok((loss, grads))
}

/// Runs the backward pass for one recorded sample, scattering every
/// parameter gradient **into** the caller-owned accumulator `grads`
/// (`grads += dL/dθ`) and returning the loss.
///
/// The per-sample parameter updates are sparse `rows_add`s on active rows
/// (driven directly by the raster's packed `step_words`, no index
/// gathering), so accumulating into a shared arena costs O(activity) per
/// sample instead of the O(params) `Gradients::zeros` + dense
/// `accumulate` of the allocating path. On a zeroed accumulator the
/// result is bit-identical to [`backward`] — it *is* [`backward`]'s
/// implementation.
///
/// `scratch` provides the BPTT working vectors and is reused across
/// calls; contents are overwritten.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if `target` is out of range, the
/// history does not match the network, or `grads` was built for a
/// different stage split or architecture.
pub fn backward_into(
    net: &Network,
    history: &History,
    target: usize,
    grads: &mut Gradients,
    scratch: &mut BpttScratch,
) -> Result<f32, SnnError> {
    let from_stage = history.from_stage;
    let exec_layers = net.layers() - from_stage;
    if history.layer_spikes.len() != exec_layers {
        return Err(SnnError::ShapeMismatch {
            op: "bptt::backward",
            expected: exec_layers,
            actual: history.layer_spikes.len(),
        });
    }
    if !grads.matches(net, from_stage) {
        return Err(SnnError::ShapeMismatch {
            op: "bptt::backward_into",
            expected: exec_layers,
            actual: grads.layers.len(),
        });
    }
    let input_width = net.config().stage_width(from_stage)?;
    if history.input.neurons() != input_width {
        return Err(SnnError::ShapeMismatch {
            op: "bptt::backward_into",
            expected: input_width,
            actual: history.input.neurons(),
        });
    }
    let steps = history.steps;
    let loss = loss::cross_entropy_into(&history.logits, target, &mut scratch.dlogits)?;
    let dlogits = &scratch.dlogits;

    // ---- Readout backward -------------------------------------------------
    // u[t] = beta_r * u[t-1] + W^T s[t] + b; logits = mean_t u[t].
    // du[t] = dlogits / T + beta_r * du[t+1].
    let readout = net.readout();
    let beta_r = readout.config().beta;
    let outputs = readout.outputs();
    let inv_t = 1.0 / steps as f32;
    let last_spikes: &ncl_spike::SpikeRaster = if exec_layers > 0 {
        &history.layer_spikes[exec_layers - 1]
    } else {
        &history.input
    };

    // g_s for the last hidden stage, time-major [t * n + i]. With no
    // hidden layer trained nothing reads it, so it is not computed.
    let last_n = last_spikes.neurons();
    let need_gs = exec_layers > 0;
    if need_gs {
        zeroed(&mut scratch.gs_a, last_n * steps);
        zeroed(&mut scratch.gs_row, last_n);
    }
    let mut above_is_a = true;

    zeroed(&mut scratch.du, outputs);
    for t in (0..steps).rev() {
        for (j, d) in scratch.du.iter_mut().enumerate() {
            *d = dlogits[j] * inv_t + beta_r * *d;
        }
        ops::rows_add_masked(
            &mut grads.readout_w,
            last_spikes.step_words(t),
            &scratch.du,
            1.0,
        )?;
        ops::axpy(1.0, &scratch.du, &mut grads.readout_bias)?;
        if need_gs {
            // g_s[t] += W · du  (row i of W dot du).
            ops::gemv(readout.w(), &scratch.du, &mut scratch.gs_row)?;
            for (i, g) in scratch.gs_row.iter().enumerate() {
                scratch.gs_a[t * last_n + i] += g;
            }
        }
    }

    // ---- Hidden layers, top to bottom -------------------------------------
    for li in (0..exec_layers).rev() {
        let layer = net.layer(from_stage + li);
        let n = layer.neurons();
        let pre_raster: &ncl_spike::SpikeRaster = if li == 0 {
            &history.input
        } else {
            &history.layer_spikes[li - 1]
        };
        let pre_n = pre_raster.neurons();
        let spikes = &history.layer_spikes[li];
        let membranes = &history.layer_membranes[li];
        let surrogate = layer.surrogate();
        let beta = layer.lif().beta;
        let lg = &mut grads.layers[li];

        // g_s of the current layer (filled above) and of the layer below
        // (filled while walking backward), ping-ponged between the two
        // scratch planes.
        let (gs_above, gs_below) = if above_is_a {
            (&mut scratch.gs_a, &mut scratch.gs_b)
        } else {
            (&mut scratch.gs_b, &mut scratch.gs_a)
        };
        let need_below = li > 0;
        zeroed(gs_below, if need_below { pre_n * steps } else { 0 });

        zeroed(&mut scratch.gv_next, n);
        zeroed(&mut scratch.di, n);
        zeroed(&mut scratch.rec_row, n);
        zeroed(&mut scratch.below_row, pre_n);
        let di = &mut scratch.di;

        for t in (0..steps).rev() {
            let theta = history.thresholds[t];
            let vrow = &membranes[t * n..(t + 1) * n];
            let gs_row_t = &gs_above[t * n..(t + 1) * n];
            // Materialize the reset-detach carry factors from the packed
            // spike words (sparse: fill β, zero the fired neurons), so the
            // credit loop below is pure branch-free elementwise math —
            // same per-element operations, same bits, but the divisions
            // inside the surrogate autovectorize.
            scratch.carry_row.clear();
            scratch.carry_row.resize(n, beta);
            for j in spikes.active_at(t) {
                scratch.carry_row[j] = 0.0;
            }
            for (((dij, gvj), (&vj, &gsj)), &carry) in di
                .iter_mut()
                .zip(scratch.gv_next.iter_mut())
                .zip(vrow.iter().zip(gs_row_t.iter()))
                .zip(scratch.carry_row.iter())
            {
                let surr = surrogate.grad(vj - theta);
                let gv = gsj * surr + carry * *gvj;
                *dij = gv;
                *gvj = gv;
            }
            // Parameter gradients, scattered straight into the arena.
            ops::axpy(1.0, di, &mut lg.bias)?;
            ops::rows_add_masked(&mut lg.w_ff, pre_raster.step_words(t), di, 1.0)?;
            if let (Some(w_rec_grad), Some(w_rec)) = (lg.w_rec.as_mut(), layer.w_rec()) {
                if t >= 1 {
                    ops::rows_add_masked(w_rec_grad, spikes.step_words(t - 1), di, 1.0)?;
                    // Recurrent credit: g_s[t-1] += W_rec · dI[t].
                    ops::gemv(w_rec, di, &mut scratch.rec_row)?;
                    for (k, g) in scratch.rec_row.iter().enumerate() {
                        gs_above[(t - 1) * n + k] += g;
                    }
                }
            }
            // Credit to the layer below: g_s_below[t] += W_ff · dI[t].
            if need_below {
                ops::gemv(layer.w_ff(), di, &mut scratch.below_row)?;
                for (i, g) in scratch.below_row.iter().enumerate() {
                    gs_below[t * pre_n + i] += g;
                }
            }
        }
        above_is_a = !above_is_a;
    }

    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::ThresholdSchedule;
    use crate::config::{LifConfig, NetworkConfig};
    use ncl_spike::SpikeRaster;
    use ncl_tensor::Rng;

    fn tiny_config() -> NetworkConfig {
        NetworkConfig {
            input_size: 6,
            hidden_sizes: vec![5, 4],
            output_size: 3,
            recurrent: true,
            // A soft surrogate makes the finite-difference check of the
            // *smoothed* objective meaningful.
            lif: LifConfig {
                beta: 0.9,
                surrogate_scale: 10.0,
                ..LifConfig::default()
            },
            readout: crate::config::ReadoutConfig { beta: 0.85 },
            seed: 11,
        }
    }

    fn random_input(neurons: usize, steps: usize, seed: u64, density: f64) -> SpikeRaster {
        let mut rng = Rng::seed_from_u64(seed);
        SpikeRaster::from_fn(neurons, steps, |_, _| rng.bernoulli(density))
    }

    #[test]
    fn gradients_zeros_shapes() {
        let net = Network::new(tiny_config()).unwrap();
        let g = Gradients::zeros(&net, 0).unwrap();
        assert_eq!(g.layers.len(), 2);
        assert_eq!(g.layers[0].w_ff.rows(), 6);
        assert_eq!(g.layers[0].w_ff.cols(), 5);
        assert!(g.layers[0].w_rec.is_some());
        assert_eq!(g.readout_w.rows(), 4);
        assert_eq!(g.readout_w.cols(), 3);
        let mut nonzero = false;
        g.visit(|s| nonzero |= s.iter().any(|&v| v != 0.0));
        assert!(!nonzero);
        let g2 = Gradients::zeros(&net, 2).unwrap();
        assert!(g2.layers.is_empty());
        assert!(Gradients::zeros(&net, 5).is_err());
    }

    #[test]
    fn accumulate_and_scale() {
        let net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 8, 1, 0.4);
        let h = net.record_from(0, &input, None).unwrap();
        let (_, g1) = backward(&net, &h, 0).unwrap();
        let mut sum = Gradients::zeros(&net, 0).unwrap();
        sum.accumulate(&g1).unwrap();
        sum.accumulate(&g1).unwrap();
        sum.scale(0.5);
        // sum should now equal g1.
        let mut max_diff = 0.0f32;
        let mut g1_flat = Vec::new();
        g1.visit(|s| g1_flat.extend_from_slice(s));
        let mut sum_flat = Vec::new();
        sum.visit(|s| sum_flat.extend_from_slice(s));
        for (a, b) in g1_flat.iter().zip(sum_flat.iter()) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff < 1e-6);
    }

    #[test]
    fn accumulate_rejects_mismatched_stage() {
        let net = Network::new(tiny_config()).unwrap();
        let mut a = Gradients::zeros(&net, 0).unwrap();
        let b = Gradients::zeros(&net, 1).unwrap();
        assert!(a.accumulate(&b).is_err());
    }

    #[test]
    fn backward_loss_matches_forward_loss() {
        let net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 10, 2, 0.4);
        let h = net.record_from(0, &input, None).unwrap();
        let (loss, _) = backward(&net, &h, 1).unwrap();
        let (expected, _) = loss::cross_entropy(&h.logits, 1).unwrap();
        assert!((loss - expected).abs() < 1e-6);
    }

    #[test]
    fn backward_rejects_bad_target_and_history() {
        let net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 8, 3, 0.4);
        let h = net.record_from(0, &input, None).unwrap();
        assert!(backward(&net, &h, 99).is_err());
        let mut broken = h.clone();
        broken.layer_spikes.pop();
        assert!(backward(&net, &broken, 0).is_err());
    }

    /// The readout path is exactly differentiable (no spikes), so its
    /// analytic gradients must match central finite differences of the true
    /// loss to high accuracy.
    #[test]
    fn readout_gradcheck_finite_difference() {
        let config = tiny_config();
        let net = Network::new(config).unwrap();
        let input = random_input(6, 12, 5, 0.4);
        let target = 2;

        let h = net.record_from(0, &input, None).unwrap();
        let (_, grads) = backward(&net, &h, target).unwrap();

        let eps = 1e-2f32;
        let mut worst: f32 = 0.0;
        // Probe a selection of readout weights.
        for (r, c) in [(0usize, 0usize), (1, 2), (3, 1), (2, 0)] {
            let mut plus = net.clone();
            let v = plus.readout().w().get(r, c);
            plus.readout_mut().w_mut().set(r, c, v + eps);
            let mut minus = net.clone();
            minus.readout_mut().w_mut().set(r, c, v - eps);
            let lp = loss_of(&plus, &input, target);
            let lm = loss_of(&minus, &input, target);
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.readout_w.get(r, c);
            worst = worst.max((fd - an).abs());
        }
        assert!(worst < 1e-3, "worst readout gradient error {worst}");
    }

    fn loss_of(net: &Network, input: &SpikeRaster, target: usize) -> f32 {
        let logits = net.forward(input).unwrap();
        loss::cross_entropy(&logits, target).unwrap().0
    }

    /// For hidden-layer parameters the objective is only piecewise smooth
    /// (spike flips), so instead of pointwise finite differences we verify
    /// that a small gradient-descent step on the full parameter set reduces
    /// the true loss — the property training actually relies on.
    #[test]
    fn gradient_step_descends_true_loss() {
        let net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 15, 7, 0.45);
        let target = 0;

        let h = net.record_from(0, &input, None).unwrap();
        let (loss0, grads) = backward(&net, &h, target).unwrap();

        // Try a few step sizes; at least one small step must descend.
        let mut descended = false;
        for lr in [0.02f32, 0.01, 0.005, 0.002] {
            let mut stepped = net.clone();
            let mut slices: Vec<Vec<f32>> = Vec::new();
            grads.visit(|s| slices.push(s.to_vec()));
            let mut idx = 0;
            stepped
                .visit_trainable_mut(0, |p| {
                    for (pv, gv) in p.iter_mut().zip(slices[idx].iter()) {
                        *pv -= lr * gv;
                    }
                    idx += 1;
                })
                .unwrap();
            let loss1 = loss_of(&stepped, &input, target);
            if loss1 < loss0 {
                descended = true;
                break;
            }
        }
        assert!(descended, "no gradient step reduced the loss from {loss0}");
    }

    /// Same property for the stage-split (latent replay) training path:
    /// training only the readout from stage-2 activations.
    #[test]
    fn gradient_step_descends_from_partial_stage() {
        let net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 12, 9, 0.45);
        let act = net.activations_at(2, &input).unwrap();
        let target = 1;

        let schedule = ThresholdSchedule::constant(1.0, act.steps());
        let h = net.record_from(2, &act, Some(&schedule)).unwrap();
        let (loss0, grads) = backward(&net, &h, target).unwrap();
        assert!(grads.layers.is_empty());

        let mut stepped = net.clone();
        let mut slices: Vec<Vec<f32>> = Vec::new();
        grads.visit(|s| slices.push(s.to_vec()));
        let mut idx = 0;
        stepped
            .visit_trainable_mut(2, |p| {
                for (pv, gv) in p.iter_mut().zip(slices[idx].iter()) {
                    *pv -= 0.05 * gv;
                }
                idx += 1;
            })
            .unwrap();
        let logits = stepped.forward_from(2, &act, Some(&schedule)).unwrap();
        let (loss1, _) = loss::cross_entropy(&logits, target).unwrap();
        assert!(
            loss1 < loss0,
            "readout-only step must descend ({loss0} -> {loss1})"
        );
    }

    /// Repeated gradient steps on a single sample must drive the loss to
    /// (near) zero — overfitting one sample is the canonical smoke test for
    /// a correct backward pass.
    #[test]
    fn overfits_single_sample() {
        let mut net = Network::new(tiny_config()).unwrap();
        let input = random_input(6, 15, 13, 0.5);
        let target = 2;
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let h = net.record_from(0, &input, None).unwrap();
            let (l, grads) = backward(&net, &h, target).unwrap();
            last = l;
            let mut slices: Vec<Vec<f32>> = Vec::new();
            grads.visit(|s| slices.push(s.to_vec()));
            let mut idx = 0;
            net.visit_trainable_mut(0, |p| {
                for (pv, gv) in p.iter_mut().zip(slices[idx].iter()) {
                    *pv -= 0.05 * gv;
                }
                idx += 1;
            })
            .unwrap();
        }
        assert!(last < 0.2, "single-sample loss should collapse, got {last}");
    }

    /// A readout-only history at the last stage (the paper's insertion
    /// layer), on a latent raster with plenty of spikes.
    fn readout_only_history(net: &Network) -> History {
        let latent = random_input(4, 10, 21, 0.5);
        net.record_from(net.layers(), &latent, None).unwrap()
    }

    /// Readout-only backward computes no spike credit, so nothing else in
    /// it would notice a latent raster narrower than the readout: the
    /// width check at the top of `backward_into` must reject it.
    #[test]
    fn readout_only_backward_rejects_a_latent_of_the_wrong_width() {
        let net = Network::new(tiny_config()).unwrap();
        let mut h = readout_only_history(&net);
        assert!(backward(&net, &h, 1).is_ok());
        h.input = random_input(3, 10, 21, 0.5);
        assert!(backward(&net, &h, 1).is_err());
    }

    /// Pins the exact bits of a readout-only backward pass (loss, readout
    /// weight and bias gradients), so skipping the unread spike-credit
    /// plane provably leaves the gradient arithmetic untouched.
    #[test]
    fn readout_only_gradients_are_pinned_bit_for_bit() {
        let net = Network::new(tiny_config()).unwrap();
        let h = readout_only_history(&net);
        let (loss, grads) = backward(&net, &h, 1).unwrap();
        assert!(grads.layers.is_empty());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss.to_bits(), 0x40a6_994f);
        assert_eq!(
            bits(grads.readout_w.as_slice()),
            [
                0x3d26_8d68,
                0xbf9b_fed3,
                0x3f96_ca68,
                0x3d4f_24b2,
                0xbfc2_0375,
                0x3fbb_8a4e,
                0x3d4e_bba9,
                0xbfc1_a114,
                0x3fbb_2b36,
                0x3d88_b30b,
                0xc000_08e0,
                0x3ff7_868d,
            ]
        );
        assert_eq!(
            bits(&grads.readout_bias),
            [0x3df6_dc8f, 0xc067_36d6, 0x405f_7ff0]
        );
    }
}
