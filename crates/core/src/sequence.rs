//! Multi-increment continual learning — an extension beyond the paper.
//!
//! The paper evaluates a single increment (19 classes pre-trained, one
//! learned continually). Real deployments keep going: new classes arrive
//! one after another, and the latent store grows with each. This module
//! generalizes the scenario driver to a *sequence* of class increments:
//!
//! 1. pre-train on the first `C − k` classes (`phases::pretrain_on`);
//! 2. for each remaining class: generate/extend the latent-replay buffer
//!    (old classes *and* previously-learned increments), train the
//!    learning stages on replay ∪ new through [`phases::increment`] — the
//!    same CL phase [`crate::scenario::run_method`] and the online learner
//!    run — and evaluate on everything seen.
//!
//! Because the frozen stages never change, latent entries captured in
//! earlier increments remain valid — the defining property that makes
//! latent replay suitable for lifelong operation.

use ncl_data::split::ClassIncrementalSplit;
use ncl_hw::memory::MemoryFootprint;
use ncl_hw::OpCounts;
use ncl_snn::trainer::{self, IncrementalTrainer};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::error::NclError;
use crate::methods::MethodSpec;
use crate::phases;

/// Seed salt of the sequence's pre-training stream.
const SEQUENCE_PRETRAIN_SALT: u64 = 0x5E0;

/// Outcome of one class increment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncrementRecord {
    /// The class learned in this increment.
    pub class: u16,
    /// Top-1 accuracy on classes seen *before* this increment.
    pub old_acc: f64,
    /// Top-1 accuracy on the just-learned class.
    pub new_acc: f64,
    /// Top-1 accuracy over everything seen so far (old ∪ new).
    pub seen_acc: f64,
    /// Latent-memory bits after this increment.
    pub memory_bits: u64,
}

/// Outcome of a full increment sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceResult {
    /// The method that ran, with every knob it ran with.
    pub method: MethodSpec,
    /// Test accuracy on the pre-trained classes before any increment.
    pub pretrain_acc: f64,
    /// One record per increment, in order.
    pub increments: Vec<IncrementRecord>,
    /// Total device work across all increments (prep + training).
    pub total_ops: OpCounts,
    /// Final latent-store footprint.
    pub final_memory: MemoryFootprint,
}

/// Runs a sequence of `new_classes` single-class increments with `method`,
/// pre-training on the remaining classes first.
///
/// # Errors
///
/// Returns [`NclError::InvalidConfig`] if `new_classes` is 0 or leaves
/// fewer than one pre-training class, plus any simulation failure.
pub fn run_sequence(
    config: &ScenarioConfig,
    method: &MethodSpec,
    new_classes: usize,
) -> Result<SequenceResult, NclError> {
    config.validate()?;
    method.validate()?;
    let classes = config.data.classes;
    if new_classes == 0 || new_classes as u16 >= classes {
        return Err(NclError::InvalidConfig {
            what: "new_classes",
            detail: format!("must be in 1..{classes}, got {new_classes}"),
        });
    }
    let first_new = classes - new_classes as u16;

    // --- pre-train on classes 0..first_new ------------------------------
    let data = phases::scenario_data(config)?;
    let pre_split =
        ClassIncrementalSplit::new((0..first_new).collect(), (first_new..classes).collect())?;
    let rng = Rng::seed_from_u64(config.seed ^ SEQUENCE_PRETRAIN_SALT);
    let pre = phases::pretrain_on(config, &pre_split, rng)?;
    let mut network = pre.network;

    // --- increments ------------------------------------------------------
    let mut total_ops = OpCounts::default();
    let mut increments = Vec::with_capacity(new_classes);
    let mut seen: Vec<u16> = (0..first_new).collect();
    let mut final_memory = MemoryFootprint {
        samples: 0,
        payload_bits_per_sample: 0,
        total_bits: 0,
    };
    // One set of training arenas for every increment's CL phase
    // (reshaped, not reallocated, from one increment to the next).
    let mut trainer = IncrementalTrainer::new();

    for class in first_new..classes {
        let split = ClassIncrementalSplit::new(seen.clone(), vec![class])?;

        // (Re)build the latent buffer over everything seen so far. The
        // frozen stages are unchanged, so this equals extending the store
        // incrementally, and only the generation of entries no earlier
        // increment paid for is charged: all of them on the first
        // increment, one class's worth of them after it.
        let (buffer, prep_ops) =
            phases::prepare_buffer(&network, config, method, &data.train, &split)?;
        total_ops += if class == first_new {
            prep_ops
        } else {
            scale_ops(&prep_ops, 1.0 / seen.len() as f64)
        };
        final_memory = buffer.footprint();

        let decompress = method.replay.as_ref().is_some_and(|r| r.decompress);
        let replay_samples = buffer.replay_samples(decompress)?;
        let replay_ops = phases::replay_epoch_ops(&buffer, method);

        let cl_train = split.continual_subset(&data.train);
        let (new_samples, anew_ops) =
            phases::new_task_activations(&network, config, method, &cl_train)?;

        let mut train_set: Vec<(&SpikeRaster, u16)> = Vec::new();
        train_set.extend(new_samples.iter().map(|(r, l)| (r, *l)));
        train_set.extend(replay_samples.iter().map(|(r, l)| (r, *l)));

        let trained_params = network.trainable_params(config.insertion_layer)? as u64;
        phases::increment(
            &mut trainer,
            &mut network,
            config,
            method,
            &train_set,
            &mut phases::cl_rng(config).fork(u64::from(class)),
            |_, report| {
                total_ops += anew_ops + replay_ops;
                if let Some(activity) = &report.activity {
                    total_ops +=
                        OpCounts::training(activity, config.network.recurrent, trained_params);
                }
                Ok(())
            },
        )?;

        // Evaluate on old (seen-before), new, and everything.
        let old_test = split.pretrain_subset(&data.test);
        let new_test = split.continual_subset(&data.test);
        let old_eval = phases::eval_activations(&network, config, method, &old_test)?;
        let new_eval = phases::eval_activations(&network, config, method, &new_test)?;
        let eval = |samples: &[(SpikeRaster, u16)]| -> Result<f64, NclError> {
            let refs: Vec<(&SpikeRaster, u16)> = samples.iter().map(|(r, l)| (r, *l)).collect();
            Ok(trainer::evaluate_parallel(
                &network,
                &refs,
                config.insertion_layer,
                method.threshold_mode,
                config.parallelism,
            )?
            .top1())
        };
        let old_acc = eval(&old_eval)?;
        let new_acc = eval(&new_eval)?;
        let total = old_eval.len() + new_eval.len();
        let seen_acc = if total == 0 {
            0.0
        } else {
            (old_acc * old_eval.len() as f64 + new_acc * new_eval.len() as f64) / total as f64
        };

        increments.push(IncrementRecord {
            class,
            old_acc,
            new_acc,
            seen_acc,
            memory_bits: final_memory.total_bits,
        });
        seen.push(class);
    }

    Ok(SequenceResult {
        method: method.clone(),
        pretrain_acc: pre.test_acc,
        increments,
        total_ops,
        final_memory,
    })
}

/// Scales all counters of an op-count by a fraction (for incremental
/// prep-cost attribution).
fn scale_ops(ops: &OpCounts, fraction: f64) -> OpCounts {
    let s = |v: u64| (v as f64 * fraction).round() as u64;
    OpCounts {
        synaptic_ops: s(ops.synaptic_ops),
        neuron_updates: s(ops.neuron_updates),
        weight_updates: s(ops.weight_updates),
        codec_frames: s(ops.codec_frames),
        mem_read_bits: s(ops.mem_read_bits),
        mem_write_bits: s(ops.mem_write_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.seed = 31_337;
        c.pretrain_epochs = 8;
        c.cl_epochs = 10;
        c.insertion_layer = 1;
        c
    }

    #[test]
    fn rejects_degenerate_sequences() {
        let c = config();
        let m = MethodSpec::replay4ncl(2, 16).with_lr_divisor(2.0);
        assert!(run_sequence(&c, &m, 0).is_err());
        assert!(run_sequence(&c, &m, c.data.classes as usize).is_err());
    }

    #[test]
    fn two_increments_learn_both_classes() {
        let c = config();
        let m = MethodSpec::replay4ncl(4, 16).with_lr_divisor(2.0);
        let r = run_sequence(&c, &m, 2).unwrap();
        assert_eq!(r.increments.len(), 2);
        assert_eq!(r.increments[0].class, 2);
        assert_eq!(r.increments[1].class, 3);
        assert!(r.pretrain_acc > 0.5, "2-class pretrain should work");
        // The store grows with the second increment.
        assert!(r.increments[1].memory_bits > r.increments[0].memory_bits);
        assert_eq!(r.final_memory.total_bits, r.increments[1].memory_bits);
        assert!(!r.total_ops.is_zero());
        assert!((0.0..=1.0).contains(&r.increments[1].seen_acc));
    }

    #[test]
    fn replay_sequence_retains_better_than_baseline_sequence() {
        let c = config();
        let replayed =
            run_sequence(&c, &MethodSpec::replay4ncl(4, 16).with_lr_divisor(2.0), 2).unwrap();
        let naive = run_sequence(&c, &MethodSpec::baseline(), 2).unwrap();
        assert!(
            replayed.increments[1].old_acc > naive.increments[1].old_acc,
            "replay must retain more after two increments: {} vs {}",
            replayed.increments[1].old_acc,
            naive.increments[1].old_acc
        );
        // Baseline stores nothing.
        assert_eq!(naive.final_memory.total_bits, 0);
    }

    #[test]
    fn first_increment_pays_for_the_whole_pretrained_store() {
        let c = config();
        let m = MethodSpec::replay4ncl(4, 16).with_lr_divisor(2.0);
        let r = run_sequence(&c, &m, 1).unwrap();

        // The one increment, re-run by hand: its store holds every entry
        // of the pre-trained classes, none of which was generated before.
        let class = c.data.classes - 1;
        let split = ClassIncrementalSplit::new((0..class).collect(), vec![class]).unwrap();
        let rng = Rng::seed_from_u64(c.seed ^ SEQUENCE_PRETRAIN_SALT);
        let network = phases::pretrain_on(&c, &split, rng).unwrap().network;
        let data = phases::scenario_data(&c).unwrap();
        let (buffer, prep_ops) =
            phases::prepare_buffer(&network, &c, &m, &data.train, &split).unwrap();
        let cl_train = split.continual_subset(&data.train);
        let (new_samples, anew_ops) =
            phases::new_task_activations(&network, &c, &m, &cl_train).unwrap();
        let replay = buffer.replay_samples(false).unwrap();
        let replay_ops = phases::replay_epoch_ops(&buffer, &m);
        let train_set: Vec<(&SpikeRaster, u16)> = new_samples
            .iter()
            .chain(&replay)
            .map(|(r, l)| (r, *l))
            .collect();
        let trained_params = network.trainable_params(c.insertion_layer).unwrap() as u64;
        let mut epoch_ops = OpCounts::default();
        phases::increment(
            &mut IncrementalTrainer::new(),
            &mut network.clone(),
            &c,
            &m,
            &train_set,
            &mut phases::cl_rng(&c).fork(u64::from(class)),
            |_, report| {
                let activity = report.activity.as_ref().expect("a non-empty epoch");
                epoch_ops += anew_ops + replay_ops;
                epoch_ops += OpCounts::training(activity, c.network.recurrent, trained_params);
                Ok(())
            },
        )
        .unwrap();

        assert!(!prep_ops.is_zero());
        // total_ops − the summed epoch work = the full preparation.
        assert_eq!(r.total_ops, prep_ops + epoch_ops);
        // Every epoch reads the whole store once, and nothing else reads.
        assert_eq!(
            r.total_ops.mem_read_bits,
            c.cl_epochs as u64 * buffer.payload_bits()
        );
    }

    #[test]
    fn sequence_is_deterministic() {
        let c = config();
        let m = MethodSpec::spiking_lr(3);
        let a = run_sequence(&c, &m, 2).unwrap();
        let b = run_sequence(&c, &m, 2).unwrap();
        assert_eq!(a, b);
    }
}
