//! The full recurrent SNN: stacked [`RecurrentLifLayer`]s plus an
//! [`LiReadout`], with stage-based execution for the latent-replay
//! frozen/learning split.
//!
//! **Stage convention** (fixed across the workspace, see DESIGN.md §4):
//! stage 0 is the raw input raster; stage `k` (1-based) is the spike output
//! of hidden layer `k`; the readout consumes the last hidden stage. The
//! latent-replay *insertion layer* `k` means: activations are captured at
//! stage `k`, stages `1..=k` are frozen, stages `k+1..` plus the readout
//! are the learning layers.

use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::adaptive::ThresholdSchedule;
use crate::config::NetworkConfig;
use crate::error::SnnError;
use crate::layer::RecurrentLifLayer;
use crate::readout::LiReadout;

/// Spike-activity counters of one executed stage in a forward pass; the
/// inputs to the hardware cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageActivity {
    /// Stage index of the layer that produced the spikes (1-based).
    pub stage: usize,
    /// Number of neurons in the stage.
    pub neurons: usize,
    /// Pre-synaptic spikes received (drives synaptic-op counts).
    pub in_spikes: u64,
    /// Spikes emitted by the stage.
    pub out_spikes: u64,
}

/// Activity trace of one forward pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardActivity {
    /// Per executed hidden stage, in execution order.
    pub stages: Vec<StageActivity>,
    /// Spikes received by the readout.
    pub readout_in_spikes: u64,
    /// Timesteps simulated.
    pub steps: usize,
    /// Readout outputs.
    pub outputs: usize,
}

impl ForwardActivity {
    fn empty() -> Self {
        ForwardActivity {
            stages: Vec::new(),
            readout_in_spikes: 0,
            steps: 0,
            outputs: 0,
        }
    }

    /// Accumulates another pass over the *same stage structure* into this
    /// one: spike counters and step counts add, so derived totals
    /// (`neuron_updates`, synaptic-op counts) stay exact for the combined
    /// workload.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the stage structures differ.
    pub fn merge(&mut self, other: &ForwardActivity) -> Result<(), SnnError> {
        if self.stages.len() != other.stages.len() || self.outputs != other.outputs {
            return Err(SnnError::ShapeMismatch {
                op: "ForwardActivity::merge",
                expected: self.stages.len(),
                actual: other.stages.len(),
            });
        }
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            if a.stage != b.stage || a.neurons != b.neurons {
                return Err(SnnError::ShapeMismatch {
                    op: "ForwardActivity::merge",
                    expected: a.neurons,
                    actual: b.neurons,
                });
            }
            a.in_spikes += b.in_spikes;
            a.out_spikes += b.out_spikes;
        }
        self.readout_in_spikes += other.readout_in_spikes;
        self.steps += other.steps;
        Ok(())
    }

    /// Total neuron updates performed (`Σ neurons·steps`, including the
    /// readout integrators).
    #[must_use]
    pub fn neuron_updates(&self) -> u64 {
        let hidden: u64 = self
            .stages
            .iter()
            .map(|s| (s.neurons * self.steps) as u64)
            .sum();
        hidden + (self.outputs * self.steps) as u64
    }
}

/// Recorded tensors of one forward pass, as needed by BPTT.
#[derive(Debug, Clone)]
pub struct History {
    /// Stage the recording started from (its raster is `input`).
    pub from_stage: usize,
    /// Timestep count.
    pub steps: usize,
    /// Input raster at `from_stage`.
    pub input: SpikeRaster,
    /// Spike rasters of each executed hidden layer (stages
    /// `from_stage+1 ..=L`, in order).
    pub layer_spikes: Vec<SpikeRaster>,
    /// Pre-reset membrane potentials of each executed hidden layer,
    /// time-major (`[t * neurons + j]`).
    pub layer_membranes: Vec<Vec<f32>>,
    /// Threshold applied at each timestep.
    pub thresholds: Vec<f32>,
    /// Final logits (mean readout membrane).
    pub logits: Vec<f32>,
    /// Spike-activity trace of the recorded pass (for cost modeling).
    pub activity: ForwardActivity,
}

impl History {
    /// An empty history, for use as a reusable recording buffer with
    /// [`Network::record_from_into`]. Every buffer inside is reshaped (not
    /// reallocated, once warm) on each recording.
    #[must_use]
    pub fn empty() -> Self {
        History {
            from_stage: 0,
            steps: 0,
            input: SpikeRaster::new(0, 0),
            layer_spikes: Vec::new(),
            layer_membranes: Vec::new(),
            thresholds: Vec::new(),
            logits: Vec::new(),
            activity: ForwardActivity::empty(),
        }
    }
}

/// Reusable working buffers of one recorded forward pass: membrane state,
/// active-spike index lists and readout integrators. One scratch per
/// training worker lives for a whole epoch, so the steady-state recording
/// path performs no heap allocation per sample.
#[derive(Debug, Default, Clone)]
pub struct ForwardScratch {
    /// Post-reset membrane potentials per executed layer.
    v: Vec<Vec<f32>>,
    /// Previous-step spike indices per executed layer (recurrence input).
    prev_active: Vec<Vec<usize>>,
    /// Spiking indices emitted by the current layer step.
    spikes: Vec<usize>,
    /// Input currents of the widest executed layer.
    current: Vec<f32>,
    /// Readout membrane.
    u: Vec<f32>,
    /// Readout membrane accumulated over time (mean = logits).
    logit_acc: Vec<f32>,
    /// Active-spike indices entering the current layer.
    active: Vec<usize>,
}

impl ForwardScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        ForwardScratch::default()
    }

    /// Shapes every buffer for `exec` layers and `outputs` readout units,
    /// zeroing the state the forward pass reads before writing.
    fn prepare(&mut self, exec: &[RecurrentLifLayer], outputs: usize) {
        if self.v.len() != exec.len() {
            self.v.resize_with(exec.len(), Vec::new);
            self.prev_active.resize_with(exec.len(), Vec::new);
        }
        for (buf, layer) in self.v.iter_mut().zip(exec) {
            buf.clear();
            buf.resize(layer.neurons(), 0.0);
        }
        for pa in &mut self.prev_active {
            pa.clear();
        }
        let max_width = exec.iter().map(|l| l.neurons()).max().unwrap_or(0);
        // `input_current` overwrites the full slice, so no zeroing needed.
        if self.current.len() < max_width {
            self.current.resize(max_width, 0.0);
        }
        self.u.clear();
        self.u.resize(outputs, 0.0);
        self.logit_acc.clear();
        self.logit_acc.resize(outputs, 0.0);
        self.spikes.clear();
        self.active.clear();
    }

    /// Logits of the last pass of `steps` timesteps that reached the
    /// readout: the mean readout membrane.
    fn logits(&self, steps: usize) -> impl Iterator<Item = f32> + '_ {
        let inv_t = 1.0 / steps as f32;
        self.logit_acc.iter().map(move |a| a * inv_t)
    }
}

/// What a caller of [`Network::pass`] does besides the LIF arithmetic,
/// once per timestep, layer step and readout step. Generic, so each
/// caller's pass is monomorphised and a no-op hook compiles away.
trait StepHook {
    /// Whether the pass runs on through the readout (it then executes up
    /// to the last stage) or stops at its last hidden stage.
    const READOUT: bool = true;

    /// The threshold applied at the step about to run.
    fn threshold(&mut self, _threshold: f32) {}

    /// Where executed layer `li` (of `n` neurons) writes its pre-reset
    /// membranes at step `t`, if anywhere.
    fn v_pre(&mut self, _li: usize, _t: usize, _n: usize) -> Option<&mut [f32]> {
        None
    }

    /// Executed layer `li` took `active_in` spikes at step `t` and emitted
    /// `spikes`.
    fn layer(&mut self, _li: usize, _t: usize, _active_in: &[usize], _spikes: &[usize]) {}

    /// The readout took `active_in` spikes.
    fn readout(&mut self, _active_in: &[usize]) {}
}

/// Plain inference: no side effects.
impl StepHook for () {}

/// Cost-model counters.
impl StepHook for ForwardActivity {
    fn layer(&mut self, li: usize, _t: usize, active_in: &[usize], spikes: &[usize]) {
        let stage = &mut self.stages[li];
        stage.in_spikes += active_in.len() as u64;
        stage.out_spikes += spikes.len() as u64;
    }

    fn readout(&mut self, active_in: &[usize]) {
        self.readout_in_spikes += active_in.len() as u64;
    }
}

/// BPTT recording: thresholds, pre-reset membranes, rasters and activity.
impl StepHook for History {
    fn threshold(&mut self, threshold: f32) {
        self.thresholds.push(threshold);
    }

    fn v_pre(&mut self, li: usize, t: usize, n: usize) -> Option<&mut [f32]> {
        Some(&mut self.layer_membranes[li][t * n..(t + 1) * n])
    }

    fn layer(&mut self, li: usize, t: usize, active_in: &[usize], spikes: &[usize]) {
        self.activity.layer(li, t, active_in, spikes);
        for &j in spikes {
            self.layer_spikes[li].set(j, t, true);
        }
    }

    fn readout(&mut self, active_in: &[usize]) {
        self.activity.readout(active_in);
    }
}

/// Latent-replay capture: the raster of the last executed stage, plus the
/// activity of the executed (frozen) stages.
struct Capture {
    raster: SpikeRaster,
    activity: ForwardActivity,
}

impl StepHook for Capture {
    const READOUT: bool = false;

    fn layer(&mut self, li: usize, t: usize, active_in: &[usize], spikes: &[usize]) {
        self.activity.layer(li, t, active_in, spikes);
        if li + 1 == self.activity.stages.len() {
            for &j in spikes {
                self.raster.set(j, t, true);
            }
        }
    }
}

/// The recurrent spiking network of the paper (Fig. 6).
///
/// # Example
///
/// ```
/// use ncl_snn::{Network, NetworkConfig};
/// use ncl_spike::SpikeRaster;
///
/// # fn main() -> Result<(), ncl_snn::SnnError> {
/// let net = Network::new(NetworkConfig::tiny(8, 3))?;
/// let input = SpikeRaster::from_fn(8, 10, |n, t| (n + t) % 3 == 0);
/// let logits = net.forward(&input)?;
/// assert_eq!(logits.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    config: NetworkConfig,
    layers: Vec<RecurrentLifLayer>,
    readout: LiReadout,
}

impl Network {
    /// Builds a network with seeded, deterministic initialization.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: NetworkConfig) -> Result<Self, SnnError> {
        config.validate()?;
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.hidden_sizes.len());
        let mut prev = config.input_size;
        for &width in &config.hidden_sizes {
            layers.push(RecurrentLifLayer::new(
                prev,
                width,
                config.recurrent,
                config.lif,
                &mut rng,
            )?);
            prev = width;
        }
        let readout = LiReadout::new(prev, config.output_size, config.readout, &mut rng)?;
        Ok(Network {
            config,
            layers,
            readout,
        })
    }

    /// The architecture configuration.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of hidden layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow of hidden layer `i` (0-based; stage `i + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= layers()`.
    #[must_use]
    pub fn layer(&self, i: usize) -> &RecurrentLifLayer {
        &self.layers[i]
    }

    /// Mutable borrow of hidden layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= layers()`.
    pub fn layer_mut(&mut self, i: usize) -> &mut RecurrentLifLayer {
        &mut self.layers[i]
    }

    /// Borrow of the readout.
    #[must_use]
    pub(crate) fn readout(&self) -> &LiReadout {
        &self.readout
    }

    /// Mutable borrow of the readout.
    #[cfg(test)]
    pub(crate) fn readout_mut(&mut self) -> &mut LiReadout {
        &mut self.readout
    }

    fn check_stage_input(&self, from_stage: usize, input: &SpikeRaster) -> Result<(), SnnError> {
        let width = self.config.stage_width(from_stage)?;
        if input.neurons() != width {
            return Err(SnnError::ShapeMismatch {
                op: "forward_from",
                expected: width,
                actual: input.neurons(),
            });
        }
        if input.steps() == 0 {
            return Err(SnnError::ShapeMismatch {
                op: "forward_from",
                expected: 1,
                actual: 0,
            });
        }
        Ok(())
    }

    /// Full forward pass from the raw input at constant thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the raster width differs from
    /// the input size or has zero steps.
    pub fn forward(&self, input: &SpikeRaster) -> Result<Vec<f32>, SnnError> {
        self.forward_from(0, input, None)
    }

    /// Forward pass starting at `from_stage` (the raster holds stage
    /// `from_stage` activations). `schedule`, when given, overrides the
    /// firing threshold per timestep for the executed layers; otherwise the
    /// configured constant threshold applies.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] for a bad stage or
    /// [`SnnError::ShapeMismatch`] for a raster that does not fit it.
    pub fn forward_from(
        &self,
        from_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
    ) -> Result<Vec<f32>, SnnError> {
        Ok(self.forward_from_traced(from_stage, input, schedule)?.0)
    }

    /// Like [`Network::forward_from`], returning the spike-activity trace
    /// for cost modeling alongside the logits.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward_from`].
    pub fn forward_from_traced(
        &self,
        from_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
    ) -> Result<(Vec<f32>, ForwardActivity), SnnError> {
        self.check_stage_input(from_stage, input)?;
        let to_stage = self.layers.len();
        let mut activity = ForwardActivity::empty();
        self.reset_activity(
            &mut activity,
            from_stage,
            to_stage,
            input.steps(),
            self.readout.outputs(),
        );
        let mut scratch = ForwardScratch::new();
        self.pass(
            from_stage,
            to_stage,
            input,
            schedule,
            &mut scratch,
            &mut activity,
        );
        Ok((scratch.logits(input.steps()).collect(), activity))
    }

    /// [`Network::forward_from`] on caller-owned buffers: the pass runs on
    /// `scratch` and the logits land in `logits`, so a loop over many
    /// rasters allocates nothing once both are warm. Bit-identical to
    /// [`Network::forward_from`] (same pass, reused storage).
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward_from`].
    pub(crate) fn forward_from_into(
        &self,
        from_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
        scratch: &mut ForwardScratch,
        logits: &mut Vec<f32>,
    ) -> Result<(), SnnError> {
        self.check_stage_input(from_stage, input)?;
        self.pass(
            from_stage,
            self.layers.len(),
            input,
            schedule,
            scratch,
            &mut (),
        );
        logits.clear();
        logits.extend(scratch.logits(input.steps()));
        Ok(())
    }

    /// Runs stages `1..=stage` at constant thresholds and returns the spike
    /// raster of stage `stage` — the latent-replay activation capture
    /// (`stage == 0` returns a copy of the input).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] / [`SnnError::ShapeMismatch`] as
    /// in [`Network::forward_from`].
    pub fn activations_at(
        &self,
        stage: usize,
        input: &SpikeRaster,
    ) -> Result<SpikeRaster, SnnError> {
        self.activations_at_scheduled(stage, input, None)
    }

    /// Like [`Network::activations_at`], with an optional per-timestep
    /// threshold schedule applied to the executed stages — Alg. 1 of the
    /// paper adapts `V_thr` during latent-replay *generation* (lines
    /// 8–19), not only during training.
    ///
    /// # Errors
    ///
    /// Same as [`Network::activations_at`].
    pub fn activations_at_scheduled(
        &self,
        stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
    ) -> Result<SpikeRaster, SnnError> {
        Ok(self.activations_at_traced(stage, input, schedule)?.0)
    }

    /// Runs stages `1..=stage` like [`Network::activations_at`], returning
    /// the captured raster together with the spike-activity trace of the
    /// executed (frozen) stages — the cost of latent-replay generation.
    ///
    /// # Errors
    ///
    /// Same as [`Network::activations_at`].
    pub fn activations_at_traced(
        &self,
        stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
    ) -> Result<(SpikeRaster, ForwardActivity), SnnError> {
        self.check_stage_input(0, input)?;
        let width = self.config.stage_width(stage)?;
        let steps = input.steps();
        let mut capture = Capture {
            raster: if stage == 0 {
                input.clone()
            } else {
                SpikeRaster::new(width, steps)
            },
            activity: ForwardActivity::empty(),
        };
        self.reset_activity(&mut capture.activity, 0, stage, steps, 0);
        self.pass(
            0,
            stage,
            input,
            schedule,
            &mut ForwardScratch::new(),
            &mut capture,
        );
        Ok((capture.raster, capture.activity))
    }

    /// Forward pass with full recording for BPTT.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward_from`].
    pub fn record_from(
        &self,
        from_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
    ) -> Result<History, SnnError> {
        let mut history = History::empty();
        let mut scratch = ForwardScratch::new();
        self.record_from_into(from_stage, input, schedule, &mut history, &mut scratch)?;
        Ok(history)
    }

    /// In-place variant of [`Network::record_from`]: records the pass into
    /// a caller-owned [`History`] using a caller-owned [`ForwardScratch`],
    /// reusing every buffer inside both. This is the zero-allocation
    /// training hot path — values written are bit-identical to
    /// [`Network::record_from`] (same arithmetic, reused storage), which
    /// `record_into_matches_record_from` in `tests/properties.rs` enforces.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward_from`].
    pub fn record_from_into(
        &self,
        from_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
        history: &mut History,
        scratch: &mut ForwardScratch,
    ) -> Result<(), SnnError> {
        self.check_stage_input(from_stage, input)?;
        let steps = input.steps();
        let exec = &self.layers[from_stage..];
        history.from_stage = from_stage;
        history.steps = steps;
        history.input.copy_from(input);
        history
            .layer_spikes
            .resize_with(exec.len(), || SpikeRaster::new(0, 0));
        history.layer_membranes.resize_with(exec.len(), Vec::new);
        for ((raster, membranes), layer) in history
            .layer_spikes
            .iter_mut()
            .zip(&mut history.layer_membranes)
            .zip(exec)
        {
            raster.reset(layer.neurons(), steps);
            // Fully overwritten by the pass; only resize.
            membranes.resize(layer.neurons() * steps, 0.0);
        }
        history.thresholds.clear();
        self.reset_activity(
            &mut history.activity,
            from_stage,
            self.layers.len(),
            steps,
            self.readout.outputs(),
        );
        self.pass(
            from_stage,
            self.layers.len(),
            input,
            schedule,
            scratch,
            history,
        );
        history.logits.clear();
        history.logits.extend(scratch.logits(steps));
        Ok(())
    }

    /// Batched inference entry point: full forward passes over many
    /// rasters at constant thresholds, sharing one [`ForwardScratch`]
    /// (membranes, active-spike lists, input currents, readout
    /// integrators) across the batch instead of reallocating it per
    /// call. This is the serving hot path (`ncl_serve`'s micro-batcher
    /// feeds it); results are bit-identical to calling
    /// [`Network::forward`] per raster.
    ///
    /// Rasters may have differing step counts; every raster must have the
    /// network's input width and at least one step.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] naming the first raster that
    /// does not fit the input stage. The whole batch is validated before
    /// any forward pass runs, so an error means no work was done.
    pub fn forward_batch(&self, inputs: &[SpikeRaster]) -> Result<Vec<Vec<f32>>, SnnError> {
        for input in inputs {
            self.check_stage_input(0, input)?;
        }
        let mut scratch = ForwardScratch::new();
        Ok(inputs
            .iter()
            .map(|input| {
                self.pass(0, self.layers.len(), input, None, &mut scratch, &mut ());
                scratch.logits(input.steps()).collect()
            })
            .collect())
    }

    /// Shapes `activity` for a pass over stages `from_stage+1..=to_stage`
    /// of `steps` timesteps into `outputs` readout units (0 when the pass
    /// stops before the readout), with zeroed counters.
    fn reset_activity(
        &self,
        activity: &mut ForwardActivity,
        from_stage: usize,
        to_stage: usize,
        steps: usize,
        outputs: usize,
    ) {
        activity.stages.clear();
        activity
            .stages
            .extend(
                self.layers[from_stage..to_stage]
                    .iter()
                    .enumerate()
                    .map(|(i, layer)| StageActivity {
                        stage: from_stage + 1 + i,
                        neurons: layer.neurons(),
                        in_spikes: 0,
                        out_spikes: 0,
                    }),
            );
        activity.readout_in_spikes = 0;
        activity.steps = steps;
        activity.outputs = outputs;
    }

    /// The one LIF timestep loop. Runs hidden stages
    /// `from_stage+1..=to_stage` over every timestep of `input` (the
    /// stage-`from_stage` raster) on `scratch`, then the readout if the
    /// hook asks for it (`to_stage` is then the last stage and the logits
    /// are [`ForwardScratch::logits`]). `hook` sees every step; callers
    /// validate the stages and the raster first.
    fn pass<H: StepHook>(
        &self,
        from_stage: usize,
        to_stage: usize,
        input: &SpikeRaster,
        schedule: Option<&ThresholdSchedule>,
        scratch: &mut ForwardScratch,
        hook: &mut H,
    ) {
        debug_assert!(!H::READOUT || to_stage == self.layers.len());
        let exec = &self.layers[from_stage..to_stage];
        scratch.prepare(exec, self.readout.outputs());
        for t in 0..input.steps() {
            let threshold = schedule.map_or(self.config.lif.v_threshold, |s| s.value_at(t));
            hook.threshold(threshold);
            scratch.active.clear();
            scratch.active.extend(input.active_at(t));
            for (li, layer) in exec.iter().enumerate() {
                let n = layer.neurons();
                layer.input_current(
                    &scratch.active,
                    &scratch.prev_active[li],
                    &mut scratch.current[..n],
                );
                layer.membrane_step(
                    &scratch.current[..n],
                    threshold,
                    &mut scratch.v[li],
                    hook.v_pre(li, t, n),
                    &mut scratch.spikes,
                );
                hook.layer(li, t, &scratch.active, &scratch.spikes);
                scratch.prev_active[li].clear();
                scratch.prev_active[li].extend_from_slice(&scratch.spikes);
                std::mem::swap(&mut scratch.active, &mut scratch.spikes);
            }
            if H::READOUT {
                hook.readout(&scratch.active);
                self.readout
                    .step(&scratch.active, &mut scratch.u, &mut scratch.logit_acc);
            }
        }
    }

    /// Number of trainable scalar parameters when training from
    /// `from_stage` (stages `from_stage+1..` plus readout).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] for a bad stage.
    pub fn trainable_params(&self, from_stage: usize) -> Result<usize, SnnError> {
        self.config.stage_width(from_stage)?;
        let mut n = 0;
        for layer in &self.layers[from_stage..] {
            n += layer.w_ff().len();
            if let Some(w) = layer.w_rec() {
                n += w.len();
            }
            n += layer.bias().len();
        }
        n += self.readout.w().len() + self.readout.bias().len();
        Ok(n)
    }

    /// Visits every trainable parameter slice (training from `from_stage`)
    /// in the same fixed order as [`Network::visit_trainable_mut`],
    /// without requiring mutable access — serialization and the
    /// checkpoint-delta plane diff read weights through this.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] for a bad stage.
    pub fn visit_trainable(
        &self,
        from_stage: usize,
        mut f: impl FnMut(&[f32]),
    ) -> Result<(), SnnError> {
        self.config.stage_width(from_stage)?;
        for layer in &self.layers[from_stage..] {
            f(layer.w_ff().as_slice());
            if let Some(w) = layer.w_rec() {
                f(w.as_slice());
            }
            f(layer.bias());
        }
        f(self.readout.w().as_slice());
        f(self.readout.bias());
        Ok(())
    }

    /// Visits every trainable parameter slice (training from `from_stage`)
    /// in a fixed order: per hidden layer ascending — `w_ff`, `w_rec`
    /// (if present), `bias` — then readout `w`, readout `bias`.
    ///
    /// The order matches [`crate::bptt::Gradients::visit`], which
    /// optimizers rely on.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidStage`] for a bad stage.
    pub fn visit_trainable_mut(
        &mut self,
        from_stage: usize,
        mut f: impl FnMut(&mut [f32]),
    ) -> Result<(), SnnError> {
        self.config.stage_width(from_stage)?;
        for layer in &mut self.layers[from_stage..] {
            f(layer.w_ff_mut().as_mut_slice());
            if let Some(w) = layer.w_rec_mut() {
                f(w.as_mut_slice());
            }
            f(layer.bias_mut());
        }
        f(self.readout.w_mut().as_mut_slice());
        f(self.readout.bias_mut());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn tiny_net() -> Network {
        Network::new(NetworkConfig::tiny(8, 3)).unwrap()
    }

    fn dense_input(steps: usize) -> SpikeRaster {
        SpikeRaster::from_fn(8, steps, |n, t| (n + t) % 2 == 0)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let net = tiny_net();
        let input = dense_input(12);
        let a = net.forward(&input).unwrap();
        let b = net.forward(&input).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "forward is deterministic");
        assert!(a.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn forward_rejects_bad_shapes() {
        let net = tiny_net();
        let wrong_width = SpikeRaster::new(9, 10);
        assert!(matches!(
            net.forward(&wrong_width),
            Err(SnnError::ShapeMismatch { .. })
        ));
        let zero_steps = SpikeRaster::new(8, 0);
        assert!(net.forward(&zero_steps).is_err());
        assert!(matches!(
            net.forward_from(9, &dense_input(4), None),
            Err(SnnError::InvalidStage { .. })
        ));
    }

    #[test]
    fn spikes_propagate_through_stages() {
        let net = tiny_net();
        let input = dense_input(20);
        let (_, activity) = net.forward_from_traced(0, &input, None).unwrap();
        assert_eq!(activity.stages.len(), 2);
        assert_eq!(activity.steps, 20);
        assert!(activity.stages[0].in_spikes > 0, "input spikes arrive");
        assert!(activity.stages[0].out_spikes > 0, "layer 1 fires");
        assert_eq!(
            activity.stages[0].out_spikes, activity.stages[1].in_spikes,
            "layer 1 output feeds layer 2"
        );
        assert_eq!(activity.readout_in_spikes, activity.stages[1].out_spikes);
        assert!(activity.neuron_updates() >= activity.stages[0].out_spikes);
    }

    #[test]
    fn activations_at_stage_matches_traced_forward() {
        let net = tiny_net();
        let input = dense_input(15);
        let act1 = net.activations_at(1, &input).unwrap();
        assert_eq!(act1.neurons(), 16);
        assert_eq!(act1.steps(), 15);
        let (_, activity) = net.forward_from_traced(0, &input, None).unwrap();
        assert_eq!(act1.total_spikes() as u64, activity.stages[0].out_spikes);
        // Stage 0 capture is the input itself.
        assert_eq!(net.activations_at(0, &input).unwrap(), input);
    }

    #[test]
    fn forward_from_later_stage_consumes_activations() {
        let net = tiny_net();
        let input = dense_input(10);
        let act = net.activations_at(1, &input).unwrap();
        let from1 = net.forward_from(1, &act, None).unwrap();
        let full = net.forward(&input).unwrap();
        for (a, b) in from1.iter().zip(full.iter()) {
            assert!(
                (a - b).abs() < 1e-5,
                "stage-split forward equals full forward"
            );
        }
    }

    #[test]
    fn lower_threshold_fires_more() {
        let net = tiny_net();
        let input = dense_input(20);
        let low = ThresholdSchedule::constant(0.3, 20);
        let high = ThresholdSchedule::constant(1.5, 20);
        let (_, a_low) = net.forward_from_traced(0, &input, Some(&low)).unwrap();
        let (_, a_high) = net.forward_from_traced(0, &input, Some(&high)).unwrap();
        let spikes = |a: &ForwardActivity| a.stages.iter().map(|s| s.out_spikes).sum::<u64>();
        assert!(spikes(&a_low) > spikes(&a_high));
    }

    #[test]
    fn record_from_captures_everything() {
        let net = tiny_net();
        let input = dense_input(10);
        let h = net.record_from(0, &input, None).unwrap();
        assert_eq!(h.from_stage, 0);
        assert_eq!(h.steps, 10);
        assert_eq!(h.layer_spikes.len(), 2);
        assert_eq!(h.layer_membranes.len(), 2);
        assert_eq!(h.layer_membranes[0].len(), 16 * 10);
        assert_eq!(h.thresholds.len(), 10);
        assert_eq!(h.logits.len(), 3);
        // Recorded logits equal the plain forward logits.
        let logits = net.forward(&input).unwrap();
        for (a, b) in h.logits.iter().zip(logits.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Spike rasters agree with membrane potentials crossing threshold.
        for li in 0..2 {
            let n = net.layer(li).neurons();
            for t in 0..10 {
                for j in 0..n {
                    let fired = h.layer_spikes[li].get(j, t);
                    let v = h.layer_membranes[li][t * n + j];
                    assert_eq!(fired, v > h.thresholds[t]);
                }
            }
        }
    }

    #[test]
    fn record_from_partial_stage() {
        let net = tiny_net();
        let input = dense_input(10);
        let act = net.activations_at(1, &input).unwrap();
        let h = net.record_from(1, &act, None).unwrap();
        assert_eq!(h.from_stage, 1);
        assert_eq!(h.layer_spikes.len(), 1, "only stage 2 recorded");
        assert_eq!(h.input, act);
    }

    #[test]
    fn trainable_params_counts() {
        let net = tiny_net();
        // Stage 0: everything. 8*16 + 16*16 + 16 + 16*12 + 12*12 + 12 + 12*3 + 3
        let full = net.trainable_params(0).unwrap();
        assert_eq!(
            full,
            8 * 16 + 16 * 16 + 16 + 16 * 12 + 12 * 12 + 12 + 12 * 3 + 3
        );
        // Stage 2: readout only.
        let ro = net.trainable_params(2).unwrap();
        assert_eq!(ro, 12 * 3 + 3);
        assert!(net.trainable_params(9).is_err());
    }

    #[test]
    fn visit_trainable_order_is_stable() {
        let mut net = tiny_net();
        let mut sizes = Vec::new();
        net.visit_trainable_mut(1, |s| sizes.push(s.len())).unwrap();
        // Stage 2 layer (16->12): w_ff, w_rec, bias; then readout w, bias.
        assert_eq!(sizes, vec![16 * 12, 12 * 12, 12, 12 * 3, 3]);
    }

    #[test]
    fn forward_batch_matches_sequential_forward_exactly() {
        let net = tiny_net();
        // Mixed step counts and densities, including an empty raster.
        let inputs: Vec<SpikeRaster> = vec![
            dense_input(12),
            SpikeRaster::from_fn(8, 7, |n, t| (n * 3 + t) % 5 == 0),
            SpikeRaster::new(8, 4),
            dense_input(20),
        ];
        let batched = net.forward_batch(&inputs).unwrap();
        assert_eq!(batched.len(), 4);
        for (input, logits) in inputs.iter().zip(batched.iter()) {
            let single = net.forward(input).unwrap();
            assert_eq!(
                logits, &single,
                "batched forward must be bit-identical to per-call forward"
            );
        }
    }

    #[test]
    fn forward_batch_validates_before_running() {
        let net = tiny_net();
        let inputs = vec![dense_input(10), SpikeRaster::new(9, 10)];
        assert!(matches!(
            net.forward_batch(&inputs),
            Err(SnnError::ShapeMismatch { .. })
        ));
        let zero_steps = vec![dense_input(10), SpikeRaster::new(8, 0)];
        assert!(net.forward_batch(&zero_steps).is_err());
        assert!(net.forward_batch(&[]).unwrap().is_empty());
    }

    /// Pins the exact logits bits of the reference network, with and
    /// without a threshold schedule. The path-equivalence properties
    /// cannot see a change to the arithmetic order that every entry point
    /// shares; this can.
    #[test]
    fn forward_logits_are_pinned_bit_for_bit() {
        let net = tiny_net();
        let input = dense_input(12);
        let bits = |logits: Vec<f32>| logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(net.forward(&input).unwrap()),
            [0xbf35_a3be, 0xbeea_b4d3, 0x3cc3_37b3]
        );
        let schedule = ThresholdSchedule::constant(0.7, 12);
        assert_eq!(
            bits(net.forward_from(0, &input, Some(&schedule)).unwrap()),
            [0xbfb7_3d8f, 0xbfc2_5643, 0x3ea1_ed92]
        );
    }
}
