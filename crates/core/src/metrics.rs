//! Continual-learning quality metrics.

use serde::{Deserialize, Serialize};

use crate::scenario::ScenarioResult;

/// Summary metrics of one method's scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ClMetrics {
    /// Final Top-1 accuracy on old tasks.
    pub old_top1: f64,
    /// Final Top-1 accuracy on the new task.
    pub new_top1: f64,
    /// Accuracy drop on old tasks vs pre-training.
    pub forgetting: f64,
    /// Mean of old and new accuracy (the "average accuracy" CL metric).
    pub average: f64,
    /// Total-variation roughness of the new-task learning curve (the
    /// Fig. 13 "smoothness" comparison, lower = smoother).
    pub new_curve_roughness: f32,
}

impl ClMetrics {
    /// Extracts metrics from a scenario result.
    #[must_use]
    pub fn of(result: &ScenarioResult) -> Self {
        let old = result.final_old_acc();
        let new = result.final_new_acc();
        ClMetrics {
            old_top1: old,
            new_top1: new,
            forgetting: result.forgetting(),
            average: (old + new) / 2.0,
            new_curve_roughness: ncl_tensor::stats::roughness(&result.new_acc_curve()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EpochRecord;
    use ncl_hw::memory::MemoryFootprint;
    use ncl_hw::{HardwareProfile, OpCounts};

    fn fake_result(old: f64, new: f64, pre: f64) -> ScenarioResult {
        ScenarioResult {
            method: crate::MethodSpec::baseline(),
            insertion_layer: 3,
            operating_steps: 40,
            pretrain_acc: pre,
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    mean_loss: 1.0,
                    old_acc: 0.5,
                    new_acc: 0.2,
                    ops: OpCounts::default(),
                },
                EpochRecord {
                    epoch: 1,
                    mean_loss: 0.5,
                    old_acc: old,
                    new_acc: new,
                    ops: OpCounts::default(),
                },
            ],
            prep_ops: OpCounts::default(),
            memory: MemoryFootprint {
                samples: 0,
                payload_bits_per_sample: 0,
                total_bits: 0,
            },
            profile: HardwareProfile::embedded(),
        }
    }

    #[test]
    fn metrics_extraction() {
        let m = ClMetrics::of(&fake_result(0.9, 0.7, 0.95));
        assert!((m.old_top1 - 0.9).abs() < 1e-12);
        assert!((m.new_top1 - 0.7).abs() < 1e-12);
        assert!((m.forgetting - 0.05).abs() < 1e-12);
        assert!((m.average - 0.8).abs() < 1e-12);
        assert!(m.new_curve_roughness > 0.0);
    }

    #[test]
    fn no_negative_forgetting() {
        // Backward transfer (old acc improves) clamps forgetting at 0.
        let m = ClMetrics::of(&fake_result(0.97, 0.7, 0.95));
        assert_eq!(m.forgetting, 0.0);
    }
}
