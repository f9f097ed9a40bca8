//! Adaptive threshold schedules (Alg. 1 of the paper).
//!
//! Replay4NCL compensates for the reduced spike counts at low timesteps by
//! modulating the firing threshold `V_thr` over time (Alg. 1, lines 10–17
//! during latent-replay generation and 25–30 during NCL training):
//!
//! * at every `adjust_interval`-th timestep, if spikes occur in the
//!   interval, the threshold is *raised* based on the mean spike time:
//!   `V_thr = base + coef·(T − t̄)` — early activity (small `t̄`) means
//!   plenty of drive, so the threshold backs off firing;
//! * at all other timesteps the threshold follows a sigmoidal decay
//!   `V_thr = 1 / (1 + exp(−rate·t))`, i.e. it drops toward ~0.5 so that
//!   the sparser spike streams of the reduced-timestep latent data can
//!   still drive the membrane across it.
//!
//! The schedule is derived from the spike timing of the *input* raster to
//! the learning stages (the latent/current activation data), so it is fully
//! deterministic given the data — see DESIGN.md §4.
//!
//! Alg. 1's pseudocode is ambiguous about *when* the sigmoidal decay
//! applies; both readings are implemented as [`AdaptiveVariant`]s:
//!
//! * [`AdaptiveVariant::IntervalHold`] (default) — the threshold is
//!   piecewise-constant per adjustment interval: intervals containing
//!   spikes hold the raised timing-based value, silent intervals hold the
//!   decayed value. This matches the paper's prose ("if the spikes occur
//!   during the defined interval, V_thr is increased; otherwise ...
//!   decreased") and keeps spiking activity near the pre-trained operating
//!   point.
//! * [`AdaptiveVariant::LiteralAlg1`] — the literal pseudocode: the
//!   timing-based value applies only at interval-boundary timesteps and
//!   every other timestep takes the decayed (~0.5) value. This floods the
//!   network with extra spikes; it is kept as an ablation
//!   (`ncl-run --figure ablation-knobs`).

use ncl_spike::{metrics, SpikeRaster};
use serde::{Deserialize, Serialize};

use crate::error::SnnError;

/// Which reading of Alg. 1's threshold-update loop to use (see the module
/// docs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdaptiveVariant {
    /// Piecewise-constant threshold per adjustment interval (default).
    #[default]
    IntervalHold,
    /// Literal pseudocode: raised value only at boundary timesteps,
    /// decayed value everywhere else.
    LiteralAlg1,
}

/// Parameters of the adaptive-threshold policy (defaults follow Alg. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Interval between threshold adjustments (Alg. 1: 5).
    pub adjust_interval: usize,
    /// Baseline threshold (Alg. 1: 1.0).
    pub base: f32,
    /// Spike-timing coefficient (Alg. 1: 0.01).
    pub timing_coef: f32,
    /// Sigmoid decay rate (Alg. 1: 0.001).
    pub decay_rate: f32,
    /// Pseudocode reading (see [`AdaptiveVariant`]).
    pub variant: AdaptiveVariant,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            adjust_interval: 5,
            base: 1.0,
            timing_coef: 0.01,
            decay_rate: 0.001,
            variant: AdaptiveVariant::IntervalHold,
        }
    }
}

impl AdaptivePolicy {
    /// The literal-pseudocode variant of the default policy.
    #[must_use]
    pub fn literal() -> Self {
        AdaptivePolicy {
            variant: AdaptiveVariant::LiteralAlg1,
            ..AdaptivePolicy::default()
        }
    }
}

impl AdaptivePolicy {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SnnError> {
        if self.adjust_interval == 0 {
            return Err(SnnError::InvalidConfig {
                what: "adjust_interval",
                detail: "must be at least 1".into(),
            });
        }
        if self.base <= 0.0 {
            return Err(SnnError::InvalidConfig {
                what: "adaptive base threshold",
                detail: "must be positive".into(),
            });
        }
        if self.decay_rate < 0.0 {
            return Err(SnnError::InvalidConfig {
                what: "decay_rate",
                detail: "must be non-negative".into(),
            });
        }
        Ok(())
    }

    /// Threshold at an adjustment boundary given the interval's mean spike
    /// time, per Alg. 1 line 13 / 27.
    #[must_use]
    fn boundary_threshold(&self, total_steps: usize, mean_spike_time: f64) -> f32 {
        self.base + self.timing_coef * (total_steps as f32 - mean_spike_time as f32)
    }

    /// Sigmoidally-decayed threshold at timestep `t`, per Alg. 1 line
    /// 16 / 29.
    #[must_use]
    fn decayed_threshold(&self, t: usize) -> f32 {
        1.0 / (1.0 + (-self.decay_rate * t as f32).exp())
    }
}

/// A per-timestep threshold sequence used by one forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdSchedule {
    values: Vec<f32>,
}

impl ThresholdSchedule {
    /// An empty schedule, for use as a reusable buffer with
    /// [`ThresholdSchedule::constant_into`] /
    /// [`ThresholdSchedule::adaptive_into`].
    #[must_use]
    pub fn empty() -> Self {
        ThresholdSchedule { values: Vec::new() }
    }

    /// A constant schedule (the pre-training / SpikingLR setting).
    #[must_use]
    pub fn constant(v_threshold: f32, steps: usize) -> Self {
        let mut s = ThresholdSchedule::empty();
        s.constant_into(v_threshold, steps);
        s
    }

    /// Rebuilds `self` as a constant schedule in place, reusing the
    /// allocation (the per-sample path of the training arenas).
    fn constant_into(&mut self, v_threshold: f32, steps: usize) {
        self.values.clear();
        self.values.resize(steps, v_threshold);
    }

    /// The Alg. 1 adaptive schedule derived from the spike timing of
    /// `input` (the data entering the learning stages).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the policy is invalid.
    pub fn adaptive(input: &SpikeRaster, policy: &AdaptivePolicy) -> Result<Self, SnnError> {
        let mut s = ThresholdSchedule::empty();
        s.adaptive_into(input, policy)?;
        Ok(s)
    }

    /// Rebuilds `self` as the Alg. 1 adaptive schedule in place, reusing
    /// the allocation. Produces exactly the values of
    /// [`ThresholdSchedule::adaptive`].
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the policy is invalid.
    fn adaptive_into(
        &mut self,
        input: &SpikeRaster,
        policy: &AdaptivePolicy,
    ) -> Result<(), SnnError> {
        policy.validate()?;
        let steps = input.steps();
        let values = &mut self.values;
        values.clear();
        values.reserve(steps);
        let mut current = policy.base;
        for t in 0..steps {
            match policy.variant {
                AdaptiveVariant::IntervalHold => {
                    if t % policy.adjust_interval == 0 {
                        // New interval: pick its held value from the
                        // interval's spike timing.
                        let window_end = (t + policy.adjust_interval).min(steps);
                        current = match metrics::mean_spike_time(input, t, window_end) {
                            Some(mean_t) => policy.boundary_threshold(steps, mean_t),
                            None => policy.decayed_threshold(t),
                        };
                    }
                }
                AdaptiveVariant::LiteralAlg1 => {
                    if t % policy.adjust_interval == 0 {
                        let window_end = (t + policy.adjust_interval).min(steps);
                        current = match metrics::mean_spike_time(input, t, window_end) {
                            Some(mean_t) => policy.boundary_threshold(steps, mean_t),
                            None => policy.decayed_threshold(t),
                        };
                    } else {
                        current = policy.decayed_threshold(t);
                    }
                }
            }
            values.push(current);
        }
        Ok(())
    }

    /// Number of timesteps covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Threshold at timestep `t`; clamps to the last value if `t` runs past
    /// the schedule (robustness for mixed-length batches).
    #[must_use]
    pub fn value_at(&self, t: usize) -> f32 {
        if self.values.is_empty() {
            return 1.0;
        }
        self.values[t.min(self.values.len() - 1)]
    }

    /// Borrow of all values.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Mean threshold over the schedule (reporting/diagnostics).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f32>() / self.values.len() as f32
    }
}

/// How a forward/training pass determines its thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdMode {
    /// Fixed threshold at the layer's configured `v_threshold`.
    Constant,
    /// Alg. 1 adaptive schedule derived from each sample's input raster.
    Adaptive(AdaptivePolicy),
}

impl ThresholdMode {
    /// Builds the concrete schedule for one input raster under this mode,
    /// with `base` as the constant fallback threshold.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if an adaptive policy is
    /// invalid.
    pub fn schedule_for(
        &self,
        input: &SpikeRaster,
        base: f32,
    ) -> Result<ThresholdSchedule, SnnError> {
        let mut out = ThresholdSchedule::empty();
        self.schedule_into(input, base, &mut out)?;
        Ok(out)
    }

    /// In-place variant of [`ThresholdMode::schedule_for`]: rebuilds `out`
    /// for this raster, reusing its allocation (zero-allocation training
    /// hot path).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if an adaptive policy is
    /// invalid.
    pub fn schedule_into(
        &self,
        input: &SpikeRaster,
        base: f32,
        out: &mut ThresholdSchedule,
    ) -> Result<(), SnnError> {
        match self {
            ThresholdMode::Constant => {
                out.constant_into(base, input.steps());
                Ok(())
            }
            ThresholdMode::Adaptive(policy) => out.adaptive_into(input, policy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_alg1_constants() {
        let p = AdaptivePolicy::default();
        assert_eq!(p.adjust_interval, 5);
        assert_eq!(p.base, 1.0);
        assert_eq!(p.timing_coef, 0.01);
        assert_eq!(p.decay_rate, 0.001);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn policy_validation() {
        let p = AdaptivePolicy {
            adjust_interval: 0,
            ..AdaptivePolicy::default()
        };
        assert!(p.validate().is_err());
        let p = AdaptivePolicy {
            base: 0.0,
            ..AdaptivePolicy::default()
        };
        assert!(p.validate().is_err());
        let p = AdaptivePolicy {
            decay_rate: -0.1,
            ..AdaptivePolicy::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn boundary_formula_matches_alg1() {
        let p = AdaptivePolicy::default();
        // V_thr = 1 + 0.01 * (40 - 20) = 1.2
        assert!((p.boundary_threshold(40, 20.0) - 1.2).abs() < 1e-6);
        // Early spikes raise the threshold more than late spikes.
        assert!(p.boundary_threshold(40, 5.0) > p.boundary_threshold(40, 35.0));
    }

    #[test]
    fn decay_formula_matches_alg1() {
        let p = AdaptivePolicy::default();
        // 1 / (1 + exp(0)) = 0.5 at t = 0.
        assert!((p.decayed_threshold(0) - 0.5).abs() < 1e-6);
        // Slowly rises with t but stays near 0.5 for t <= 100.
        let v100 = p.decayed_threshold(100);
        assert!(v100 > 0.5 && v100 < 0.53);
    }

    #[test]
    fn constant_schedule() {
        let s = ThresholdSchedule::constant(1.0, 10);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.value_at(0), 1.0);
        assert_eq!(s.value_at(999), 1.0); // clamps
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn interval_hold_schedule_is_piecewise_constant() {
        // Spikes only in the first interval.
        let mut r = SpikeRaster::new(4, 20);
        r.set(0, 1, true);
        r.set(1, 2, true);
        let p = AdaptivePolicy::default();
        let s = ThresholdSchedule::adaptive(&r, &p).unwrap();
        assert_eq!(s.len(), 20);
        // Interval [0,5) has spikes (mean time 1.5): the raised value holds
        // for all five steps.
        let raised = 1.0 + 0.01 * (20.0 - 1.5);
        for t in 0..5 {
            assert!((s.value_at(t) - raised).abs() < 1e-4, "t={t}");
        }
        // Interval [5,10) is silent: the decayed value (picked at t=5)
        // holds.
        for t in 5..10 {
            assert!(
                (s.value_at(t) - p.decayed_threshold(5)).abs() < 1e-6,
                "t={t}"
            );
        }
    }

    #[test]
    fn literal_variant_decays_between_boundaries() {
        let mut r = SpikeRaster::new(4, 20);
        r.set(0, 1, true);
        r.set(1, 2, true);
        let p = AdaptivePolicy::literal();
        let s = ThresholdSchedule::adaptive(&r, &p).unwrap();
        // t=0 is a boundary with spikes in [0,5): raised threshold.
        let mean_t = 1.5;
        assert!((s.value_at(0) - (1.0 + 0.01 * (20.0 - mean_t))).abs() < 1e-4);
        // t=1..4 follow the sigmoid decay (~0.5).
        assert!((s.value_at(1) - p.decayed_threshold(1)).abs() < 1e-6);
        // t=5 is a boundary with a silent window: decayed.
        assert!((s.value_at(5) - p.decayed_threshold(5)).abs() < 1e-6);
        // The literal variant fires more (lower mean threshold) than
        // interval-hold on spiking data.
        let hold = ThresholdSchedule::adaptive(&r, &AdaptivePolicy::default()).unwrap();
        assert!(s.mean() < hold.mean());
    }

    #[test]
    fn adaptive_on_silent_raster_is_all_decay() {
        let r = SpikeRaster::new(4, 12);
        let p = AdaptivePolicy::default();
        let s = ThresholdSchedule::adaptive(&r, &p).unwrap();
        // Interval-hold: each interval holds the decayed value picked at
        // its boundary.
        for t in 0..12 {
            let boundary = (t / p.adjust_interval) * p.adjust_interval;
            assert!((s.value_at(t) - p.decayed_threshold(boundary)).abs() < 1e-6);
        }
        // Mean is ~0.5: mostly-lowered threshold, the paper's compensation.
        assert!(s.mean() < 0.6);
        // The literal variant decays pointwise.
        let s = ThresholdSchedule::adaptive(&r, &AdaptivePolicy::literal()).unwrap();
        for t in 0..12 {
            assert!((s.value_at(t) - p.decayed_threshold(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn mode_builds_matching_schedule() {
        let r = SpikeRaster::new(2, 8);
        let s = ThresholdMode::Constant.schedule_for(&r, 0.9).unwrap();
        assert_eq!(s.value_at(3), 0.9);
        let s = ThresholdMode::Adaptive(AdaptivePolicy::default())
            .schedule_for(&r, 1.0)
            .unwrap();
        assert_eq!(s.len(), 8);
        let bad = AdaptivePolicy {
            adjust_interval: 0,
            ..AdaptivePolicy::default()
        };
        assert!(ThresholdMode::Adaptive(bad).schedule_for(&r, 1.0).is_err());
    }

    #[test]
    fn empty_schedule_value_defaults() {
        let s = ThresholdSchedule::constant(1.0, 0);
        assert!(s.is_empty());
        assert_eq!(s.value_at(0), 1.0);
        assert_eq!(s.mean(), 0.0);
    }
}
