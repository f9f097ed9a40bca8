//! Continual-learning method specifications.
//!
//! All three systems the paper evaluates are expressed as settings of one
//! knob set, which makes ablations (Section III-B's individual parameter
//! adjustments) first-class:
//!
//! | method | replay | stored frames | decompress | threshold | η divisor |
//! |---|---|---|---|---|---|
//! | [`MethodSpec::baseline`] | no | — | — | constant | 1 |
//! | [`MethodSpec::spiking_lr`] | yes | `T / 2` (codec ×2) | yes | constant | 1 |
//! | [`MethodSpec::replay4ncl`] | yes | `T*` (reduced) | no | adaptive | 100 |

use ncl_snn::adaptive::AdaptivePolicy;
/// The type of [`MethodSpec::threshold_mode`], for callers that do not
/// depend on `ncl_snn`.
pub use ncl_snn::adaptive::ThresholdMode;
use ncl_spike::codec::CompressionFactor;
use serde::{Deserialize, Serialize};

use crate::error::NclError;

/// How latent-replay activations are stored (and therefore how many frames
/// the latent memory holds per sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoragePolicy {
    /// Keep every `factor`-th frame of the native-T activation (the
    /// SpikingLR codec of Fig. 7); replay decompresses back to `T`.
    Codec(CompressionFactor),
    /// Decimate to a fixed reduced frame count `T*` (Replay4NCL's timestep
    /// optimization); replay feeds the stored frames directly.
    Reduced(usize),
}

impl StoragePolicy {
    /// Frames stored per sample for a native step count of `native_steps`.
    #[must_use]
    pub fn stored_steps(&self, native_steps: usize) -> usize {
        match self {
            StoragePolicy::Codec(factor) => native_steps.div_ceil(factor.get() as usize),
            StoragePolicy::Reduced(t_star) => (*t_star).min(native_steps),
        }
    }
}

/// Replay configuration of a method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplaySpec {
    /// Latent samples stored per old class (`TS_replay` size / class).
    pub per_class: usize,
    /// Storage policy for the latent activations.
    pub storage: StoragePolicy,
    /// Whether replay re-expands stored frames to the native step count
    /// (SpikingLR) or feeds them directly at the stored length
    /// (Replay4NCL).
    pub decompress: bool,
}

/// A fully-specified continual-learning method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSpec {
    /// Display name (used in reports and figures).
    pub name: String,
    /// Replay settings; `None` is the naive fine-tuning baseline.
    pub replay: Option<ReplaySpec>,
    /// Threshold handling in the CL phase (learning stages only).
    pub threshold_mode: ThresholdMode,
    /// CL learning-rate divisor: `η_cl = η_pre / divisor` (Alg. 1: 100).
    pub lr_divisor: f32,
}

impl MethodSpec {
    /// The no-NCL baseline: fine-tune the learning stages on new-task data
    /// only (exhibits catastrophic forgetting, Fig. 1(a)).
    #[must_use]
    pub fn baseline() -> Self {
        MethodSpec {
            name: "Baseline".into(),
            replay: None,
            threshold_mode: ThresholdMode::Constant,
            lr_divisor: 1.0,
        }
    }

    /// The state-of-the-art SpikingLR (Dequino et al.): native timesteps,
    /// ×2 codec storage with decompression, constant threshold, full CL
    /// learning rate.
    #[must_use]
    pub fn spiking_lr(replay_per_class: usize) -> Self {
        MethodSpec {
            name: "SpikingLR".into(),
            replay: Some(ReplaySpec {
                per_class: replay_per_class,
                storage: StoragePolicy::Codec(
                    CompressionFactor::new(2).expect("2 is a valid factor"),
                ),
                decompress: true,
            }),
            threshold_mode: ThresholdMode::Constant,
            lr_divisor: 1.0,
        }
    }

    /// SpikingLR with naively reduced timesteps and no enhancements — the
    /// case-study configuration of Fig. 2(b) / Fig. 8.
    #[must_use]
    pub fn spiking_lr_reduced(replay_per_class: usize, t_star: usize) -> Self {
        MethodSpec {
            name: format!("SpikingLR-T{t_star}"),
            replay: Some(ReplaySpec {
                per_class: replay_per_class,
                storage: StoragePolicy::Reduced(t_star),
                decompress: false,
            }),
            threshold_mode: ThresholdMode::Constant,
            lr_divisor: 1.0,
        }
    }

    /// The proposed Replay4NCL: reduced-timestep latent storage replayed
    /// directly, adaptive threshold, `η_cl = η_pre / 100`.
    #[must_use]
    pub fn replay4ncl(replay_per_class: usize, t_star: usize) -> Self {
        MethodSpec {
            name: "Replay4NCL".into(),
            replay: Some(ReplaySpec {
                per_class: replay_per_class,
                storage: StoragePolicy::Reduced(t_star),
                decompress: false,
            }),
            threshold_mode: ThresholdMode::Adaptive(AdaptivePolicy::default()),
            lr_divisor: 100.0,
        }
    }

    /// Replay4NCL with individual enhancements toggled (for the ablation
    /// study): `adaptive_threshold` off falls back to a constant threshold,
    /// `reduced_lr` off keeps the pre-training learning rate.
    #[must_use]
    pub fn replay4ncl_ablation(
        replay_per_class: usize,
        t_star: usize,
        adaptive_threshold: bool,
        reduced_lr: bool,
    ) -> Self {
        let mut spec = MethodSpec::replay4ncl(replay_per_class, t_star);
        spec.name = format!(
            "Replay4NCL[thr={},lr={}]",
            if adaptive_threshold {
                "adaptive"
            } else {
                "const"
            },
            if reduced_lr { "low" } else { "full" }
        );
        if !adaptive_threshold {
            spec.threshold_mode = ThresholdMode::Constant;
        }
        if !reduced_lr {
            spec.lr_divisor = 1.0;
        }
        spec
    }

    /// Returns the spec with a different CL learning-rate divisor.
    ///
    /// Alg. 1 fixes `η_cl = η_pre/100` for the authors' SHD-scale training
    /// budget (~10⁴ optimizer steps). Reproductions running far fewer
    /// steps scale the divisor proportionally to keep the *mechanism*
    /// (careful updates, smoother convergence) at the same effective
    /// strength; the harness's divisors are `ncl_bench::cl_lr_divisor`.
    #[must_use]
    pub fn with_lr_divisor(mut self, divisor: f32) -> Self {
        self.lr_divisor = divisor;
        self
    }

    /// Whether this method uses memory replay.
    #[must_use]
    pub fn uses_replay(&self) -> bool {
        self.replay.is_some()
    }

    /// The timestep count at which the learning stages operate, given the
    /// native step count (`T*` for reduced storage, `T` otherwise).
    #[must_use]
    pub fn operating_steps(&self, native_steps: usize) -> usize {
        match &self.replay {
            Some(ReplaySpec {
                storage: StoragePolicy::Reduced(t_star),
                decompress: false,
                ..
            }) => (*t_star).min(native_steps),
            _ => native_steps,
        }
    }

    /// Validates the method parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NclError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), NclError> {
        if self.lr_divisor <= 0.0 || !self.lr_divisor.is_finite() {
            return Err(NclError::InvalidConfig {
                what: "lr_divisor",
                detail: format!("must be positive and finite, got {}", self.lr_divisor),
            });
        }
        if let Some(replay) = &self.replay {
            if replay.per_class == 0 {
                return Err(NclError::InvalidConfig {
                    what: "replay.per_class",
                    detail: "replay methods need at least 1 stored sample per class".into(),
                });
            }
            if let StoragePolicy::Reduced(0) = replay.storage {
                return Err(NclError::InvalidConfig {
                    what: "replay.storage",
                    detail: "reduced timestep count must be at least 1".into(),
                });
            }
            if replay.decompress && matches!(replay.storage, StoragePolicy::Reduced(_)) {
                return Err(NclError::InvalidConfig {
                    what: "replay.decompress",
                    detail: "reduced storage has no codec factor to decompress with".into(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(MethodSpec::baseline().validate().is_ok());
        assert!(MethodSpec::spiking_lr(10).validate().is_ok());
        assert!(MethodSpec::replay4ncl(10, 40).validate().is_ok());
        assert!(MethodSpec::spiking_lr_reduced(10, 20).validate().is_ok());
        for (thr, lr) in [(true, true), (true, false), (false, true), (false, false)] {
            assert!(MethodSpec::replay4ncl_ablation(10, 40, thr, lr)
                .validate()
                .is_ok());
        }
    }

    #[test]
    fn preset_knobs_match_paper_table() {
        let sota = MethodSpec::spiking_lr(10);
        assert!(sota.uses_replay());
        assert_eq!(sota.lr_divisor, 1.0);
        assert!(matches!(sota.threshold_mode, ThresholdMode::Constant));
        let r = sota.replay.unwrap();
        assert!(r.decompress);
        assert_eq!(r.storage.stored_steps(100), 50);

        let ours = MethodSpec::replay4ncl(10, 40);
        assert_eq!(ours.lr_divisor, 100.0);
        assert!(matches!(ours.threshold_mode, ThresholdMode::Adaptive(_)));
        let r = ours.replay.unwrap();
        assert!(!r.decompress);
        assert_eq!(r.storage.stored_steps(100), 40);

        assert!(!MethodSpec::baseline().uses_replay());
    }

    #[test]
    fn paper_memory_saving_from_storage_policies() {
        // 50 frames (SpikingLR) vs 40 frames (Replay4NCL) = 20 % saving.
        let sota = MethodSpec::spiking_lr(10)
            .replay
            .unwrap()
            .storage
            .stored_steps(100);
        let ours = MethodSpec::replay4ncl(10, 40)
            .replay
            .unwrap()
            .storage
            .stored_steps(100);
        assert!((1.0 - ours as f64 / sota as f64 - 0.20).abs() < 1e-12);
    }

    #[test]
    fn operating_steps() {
        assert_eq!(MethodSpec::baseline().operating_steps(100), 100);
        assert_eq!(MethodSpec::spiking_lr(5).operating_steps(100), 100);
        assert_eq!(MethodSpec::replay4ncl(5, 40).operating_steps(100), 40);
        assert_eq!(
            MethodSpec::replay4ncl(5, 400).operating_steps(100),
            100,
            "clamped"
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut m = MethodSpec::replay4ncl(10, 40);
        m.lr_divisor = 0.0;
        assert!(m.validate().is_err());
        let mut m = MethodSpec::replay4ncl(0, 40);
        m.replay.as_mut().unwrap().per_class = 0;
        assert!(m.validate().is_err());
        let mut m = MethodSpec::replay4ncl(10, 40);
        m.replay.as_mut().unwrap().storage = StoragePolicy::Reduced(0);
        assert!(m.validate().is_err());
        let mut m = MethodSpec::replay4ncl(10, 40);
        m.replay.as_mut().unwrap().decompress = true;
        assert!(m.validate().is_err(), "reduced storage cannot decompress");
    }

    #[test]
    fn ablation_toggles() {
        let m = MethodSpec::replay4ncl_ablation(5, 40, false, true);
        assert!(matches!(m.threshold_mode, ThresholdMode::Constant));
        assert_eq!(m.lr_divisor, 100.0);
        let m = MethodSpec::replay4ncl_ablation(5, 40, true, false);
        assert!(matches!(m.threshold_mode, ThresholdMode::Adaptive(_)));
        assert_eq!(m.lr_divisor, 1.0);
    }
}
