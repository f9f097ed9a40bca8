//! The class-incremental scenario driver: runs one method through the
//! paper's protocol and records accuracy, loss and device cost per epoch.
//!
//! Device-cost accounting follows Alg. 1: `A_new` is regenerated by the
//! frozen stages every CL epoch (line 23 sits inside the epoch loop), and
//! stored latent data is read — and, for SpikingLR, decompressed — every
//! epoch, since an embedded device cannot afford to cache the expanded
//! stream. Reduced-timestep methods run this whole per-epoch pipeline at
//! T*, which is where their latency and energy savings come from. The
//! simulator memoizes the deterministic rasters for wall-clock speed; the
//! op counters charge the per-epoch work the device would execute.

use ncl_hw::memory::MemoryFootprint;
use ncl_hw::{CostReport, HardwareProfile, OpCounts};
use ncl_snn::trainer::{self, IncrementalTrainer};
use ncl_snn::Network;
use ncl_spike::SpikeRaster;
use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::error::NclError;
use crate::methods::MethodSpec;
use crate::phases;

/// One CL epoch's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub mean_loss: f32,
    /// Top-1 accuracy on the old-class test split.
    pub old_acc: f64,
    /// Top-1 accuracy on the new-class test split.
    pub new_acc: f64,
    /// Device work charged to this epoch.
    pub ops: OpCounts,
}

/// Full outcome of one method under one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The method that ran, with every knob it ran with.
    pub method: MethodSpec,
    /// Insertion layer used.
    pub insertion_layer: usize,
    /// Timesteps the learning stages operated at.
    pub operating_steps: usize,
    /// Pre-training test accuracy (old classes, before CL).
    pub pretrain_acc: f64,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// One-time preparation work (latent generation + writes).
    pub prep_ops: OpCounts,
    /// Latent-memory footprint.
    pub memory: MemoryFootprint,
    /// Profile used for cost evaluation.
    pub profile: HardwareProfile,
}

impl ScenarioResult {
    /// Old-task accuracy after the last epoch.
    #[must_use]
    pub fn final_old_acc(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.old_acc)
    }

    /// New-task accuracy after the last epoch.
    #[must_use]
    pub fn final_new_acc(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.new_acc)
    }

    /// Accuracy drop on old tasks relative to pre-training (the
    /// catastrophic-forgetting measure).
    #[must_use]
    pub fn forgetting(&self) -> f64 {
        (self.pretrain_acc - self.final_old_acc()).max(0.0)
    }

    /// Total device work: preparation plus all CL epochs.
    #[must_use]
    pub fn total_ops(&self) -> OpCounts {
        let mut total = self.prep_ops;
        for e in &self.epochs {
            total += e.ops;
        }
        total
    }

    /// Cost of the whole CL process under the scenario profile.
    #[must_use]
    pub fn total_cost(&self) -> CostReport {
        CostReport::of(&self.total_ops(), &self.profile)
    }

    /// Cumulative cost through epoch `e` inclusive (for the Fig. 11 epoch
    /// sweeps).
    #[must_use]
    pub fn cost_through_epoch(&self, e: usize) -> CostReport {
        let mut total = self.prep_ops;
        for rec in self.epochs.iter().take(e + 1) {
            total += rec.ops;
        }
        CostReport::of(&total, &self.profile)
    }

    /// New-task accuracy per epoch.
    #[must_use]
    pub fn new_acc_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.new_acc as f32).collect()
    }
}

/// Runs one method through the class-incremental protocol, starting from a
/// pre-trained network.
///
/// The pre-trained network is passed in (rather than trained here) so all
/// methods under comparison share the exact same starting point — and so
/// callers can cache it across figure sweeps (see [`crate::cache`]).
///
/// # Errors
///
/// Returns [`NclError`] for invalid configurations or simulation failures.
pub fn run_method(
    config: &ScenarioConfig,
    method: &MethodSpec,
    pretrained: &Network,
    pretrain_acc: f64,
) -> Result<ScenarioResult, NclError> {
    config.validate()?;
    method.validate()?;

    let data = phases::scenario_data(config)?;
    let split = phases::scenario_split(config)?;
    let mut network = pretrained.clone();

    // --- Preparation phase (Alg. 1 lines 6-20) --------------------------
    let (buffer, prep_ops) = phases::prepare_buffer(&network, config, method, &data.train, &split)?;
    let memory = buffer.footprint();

    // Latent replay samples, materialized per the method's replay policy.
    let decompress = method.replay.as_ref().is_some_and(|r| r.decompress);
    let replay_samples: Vec<(SpikeRaster, u16)> = buffer.replay_samples(decompress)?;
    let replay_epoch_ops = phases::replay_epoch_ops(&buffer, method);

    // --- New-task activations (regenerated per epoch per Alg. 1) --------
    let cl_train = split.continual_subset(&data.train);
    let (new_samples, anew_epoch_ops) =
        phases::new_task_activations(&network, config, method, &cl_train)?;

    // --- Evaluation inputs (memoized; eval cost is not charged) ---------
    let old_test = split.pretrain_subset(&data.test);
    let new_test = split.continual_subset(&data.test);
    let old_eval = phases::eval_activations(&network, config, method, &old_test)?;
    let new_eval = phases::eval_activations(&network, config, method, &new_test)?;
    let old_eval_refs: Vec<(&SpikeRaster, u16)> = old_eval.iter().map(|(r, l)| (r, *l)).collect();
    let new_eval_refs: Vec<(&SpikeRaster, u16)> = new_eval.iter().map(|(r, l)| (r, *l)).collect();

    // --- NCL training phase (Alg. 1 lines 21-33) ------------------------
    let mut train_set: Vec<(&SpikeRaster, u16)> = Vec::new();
    train_set.extend(new_samples.iter().map(|(r, l)| (r, *l)));
    train_set.extend(replay_samples.iter().map(|(r, l)| (r, *l)));

    let trained_params = network.trainable_params(config.insertion_layer)? as u64;
    let mut epochs = Vec::with_capacity(config.cl_epochs);
    phases::increment(
        &mut IncrementalTrainer::new(),
        &mut network,
        config,
        method,
        &train_set,
        &mut phases::cl_rng(config),
        |network, report| {
            let mut ops = anew_epoch_ops + replay_epoch_ops;
            if let Some(activity) = &report.activity {
                ops += OpCounts::training(activity, config.network.recurrent, trained_params);
            }
            let eval = |refs: &[(&SpikeRaster, u16)]| {
                trainer::evaluate_parallel(
                    network,
                    refs,
                    config.insertion_layer,
                    method.threshold_mode,
                    config.parallelism,
                )
            };
            epochs.push(EpochRecord {
                epoch: epochs.len(),
                mean_loss: report.mean_loss,
                old_acc: eval(&old_eval_refs)?.top1(),
                new_acc: eval(&new_eval_refs)?.top1(),
                ops,
            });
            Ok(())
        },
    )?;

    Ok(ScenarioResult {
        method: method.clone(),
        insertion_layer: config.insertion_layer,
        operating_steps: method.operating_steps(config.data.steps),
        pretrain_acc,
        epochs,
        prep_ops,
        memory,
        profile: config.profile.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache;

    fn smoke() -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 6;
        c.cl_epochs = 4;
        c
    }

    fn pretrained(config: &ScenarioConfig) -> (Network, f64) {
        cache::pretrained_network(config).unwrap()
    }

    #[test]
    fn baseline_runs_and_forgets_eventually() {
        let mut config = smoke();
        config.cl_epochs = 12;
        let (net, acc) = pretrained(&config);
        let result = run_method(&config, &MethodSpec::baseline(), &net, acc).unwrap();
        assert_eq!(result.epochs.len(), 12);
        assert_eq!(result.method, MethodSpec::baseline());
        assert!(result.memory.total_bits == 0, "baseline stores nothing");
        assert!(result.prep_ops.is_zero(), "baseline prepares nothing");
        assert!(result.total_ops().synaptic_ops > 0);
        // Training only on the new class drives its accuracy up...
        assert!(
            result.final_new_acc() >= 0.5,
            "new acc {}",
            result.final_new_acc()
        );
        // ...at the cost of the old classes (catastrophic forgetting).
        assert!(
            result.final_old_acc() < result.pretrain_acc,
            "old acc should drop: {} vs pretrain {}",
            result.final_old_acc(),
            result.pretrain_acc
        );
    }

    #[test]
    fn replay_methods_store_and_spend() {
        let config = smoke();
        let (net, acc) = pretrained(&config);
        let sota = run_method(&config, &MethodSpec::spiking_lr(3), &net, acc).unwrap();
        assert!(sota.memory.total_bits > 0);
        assert!(!sota.prep_ops.is_zero());
        // T* = 2/5 of T, the paper's 40-at-100 ratio (stores 20 % less
        // than SpikingLR's half-rate codec).
        let t_star = config.data.steps * 2 / 5;
        let ours = run_method(&config, &MethodSpec::replay4ncl(3, t_star), &net, acc).unwrap();
        // The core efficiency claims, in miniature:
        assert!(
            ours.memory.total_bits < sota.memory.total_bits,
            "latent memory saving"
        );
        let speedup = ours.total_cost().speedup_vs(&sota.total_cost());
        assert!(speedup > 1.0, "replay4ncl must be faster, got {speedup}");
        let saving = ours.total_cost().energy_saving_vs(&sota.total_cost());
        assert!(saving > 0.0, "replay4ncl must save energy, got {saving}");
        assert_eq!(ours.operating_steps, t_star);
        assert_eq!(sota.operating_steps, config.data.steps);
    }

    #[test]
    fn result_accessors_consistent() {
        let config = smoke();
        let (net, acc) = pretrained(&config);
        let r = run_method(&config, &MethodSpec::spiking_lr(2), &net, acc).unwrap();
        assert_eq!(r.new_acc_curve().len(), 4);
        assert!((r.final_old_acc() - r.epochs.last().unwrap().old_acc).abs() < 1e-6);
        assert!(r.forgetting() >= 0.0);
        // Cumulative cost through the last epoch equals the total.
        let through = r.cost_through_epoch(r.epochs.len() - 1);
        let total = r.total_cost();
        assert!((through.latency.seconds() - total.latency.seconds()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let config = smoke();
        let (net, acc) = pretrained(&config);
        let a = run_method(&config, &MethodSpec::replay4ncl(2, 20), &net, acc).unwrap();
        let b = run_method(&config, &MethodSpec::replay4ncl(2, 20), &net, acc).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_combinations() {
        let mut config = smoke();
        config.insertion_layer = 99;
        let ok_config = smoke();
        let (net, acc) = pretrained(&ok_config);
        assert!(run_method(&config, &MethodSpec::baseline(), &net, acc).is_err());
        let mut bad_method = MethodSpec::replay4ncl(2, 20);
        bad_method.lr_divisor = -1.0;
        assert!(run_method(&ok_config, &bad_method, &net, acc).is_err());
    }
}
