//! The phases of Alg. 1: pre-training, network preparation (latent
//! replay generation), new-task activation capture and the NCL training
//! phase every continual-learning caller runs ([`increment`]).

use std::sync::Arc;

use parking_lot::Mutex;

use ncl_data::generator::{self, GeneratedData, ShdLikeConfig};
use ncl_data::split::{replay_subset, ClassIncrementalSplit};
use ncl_data::{Dataset, LabeledSample};
use ncl_hw::OpCounts;
use ncl_snn::adaptive::ThresholdMode;
use ncl_snn::trainer::{self, EpochReport, IncrementOutcome, IncrementalTrainer, TrainOptions};
use ncl_snn::{Network, SnnError};
use ncl_spike::codec;
use ncl_spike::resample::{resample, ResampleStrategy};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;

use crate::buffer::{LatentEntry, LatentReplayBuffer};
use crate::config::ScenarioConfig;
use crate::error::NclError;
use crate::methods::{MethodSpec, StoragePolicy};

/// Seed salts keeping the phase streams independent.
const PRETRAIN_SALT: u64 = 0x11;
const REPLAY_SALT: u64 = 0x22;
const CL_SALT: u64 = 0x33;

/// Outcome of the pre-training phase (Alg. 1 lines 1–5).
#[derive(Debug, Clone)]
pub struct PretrainOutcome {
    /// The trained network.
    pub network: Network,
    /// Top-1 accuracy on the old-class test split.
    pub test_acc: f64,
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

/// The one memoized dataset: the generator config it was built from and
/// the shared result.
type DataSlot = Option<(ShdLikeConfig, Arc<GeneratedData>)>;

static DATA_SLOT: Mutex<DataSlot> = Mutex::new(None);

/// Returns the scenario's dataset pair, generating it only when the memo
/// holds another config's.
///
/// Generation is a pure function of `config.data` (the
/// [`ShdLikeConfig`]), so that config is the memo's key: while it stays
/// the same, every caller — pre-training, each method run, the online
/// stream and the daemon bootstrap — shares one [`Arc`] instead of
/// regenerating and holding its own copy. The memo is a single slot: a
/// request for a different config evicts the old dataset *before*
/// generating the new one, so two datasets are never resident because
/// of the memo. Generation runs outside the slot's lock; threads racing
/// on a miss may each generate, and the slot keeps one of the
/// (identical) results.
///
/// The trade: after its last user drops it, the slot keeps the most
/// recent dataset resident until the next different config — about
/// 6 MB at paper shape, tens of KB at the smoke shape.
///
/// # Errors
///
/// Returns [`NclError::Data`] for invalid dataset parameters.
pub fn scenario_data(config: &ScenarioConfig) -> Result<Arc<GeneratedData>, NclError> {
    let key = &config.data;
    let evicted = {
        let mut slot = DATA_SLOT.lock();
        match &*slot {
            Some((held, data)) if held == key => return Ok(Arc::clone(data)),
            _ => slot.take(),
        }
    };
    // Released before generating, so the old dataset is not kept alive
    // while the new one is built.
    drop(evicted);

    let data = Arc::new(generator::generate_pair(key)?);
    let mut slot = DATA_SLOT.lock();
    if let Some((held, raced)) = &*slot {
        if held == key {
            return Ok(Arc::clone(raced));
        }
    }
    *slot = Some((key.clone(), Arc::clone(&data)));
    Ok(data)
}

/// The scenario's class split (hold out the last class, per the paper).
///
/// # Errors
///
/// Returns [`NclError::Data`] if the dataset has fewer than 2 classes.
pub fn scenario_split(config: &ScenarioConfig) -> Result<ClassIncrementalSplit, NclError> {
    Ok(ClassIncrementalSplit::hold_out_last(config.data.classes)?)
}

/// Collects `(raster, label)` references of a dataset for the trainer.
#[must_use]
pub fn sample_refs(dataset: &Dataset) -> Vec<(&SpikeRaster, u16)> {
    dataset.iter().map(|s| (&s.raster, s.label)).collect()
}

/// Converts a raw input raster to a method's operating timestep: reduced
/// methods decimate the event stream at the sensor interface *before* the
/// frozen stages, so their whole CL pipeline (frozen inference, training,
/// evaluation) runs at T*. Returns the raster and the decimation work.
///
/// # Errors
///
/// Returns [`NclError::Spike`] if resampling fails.
pub fn method_input(
    raster: &SpikeRaster,
    method: &MethodSpec,
    config: &ScenarioConfig,
) -> Result<(SpikeRaster, OpCounts), NclError> {
    let operating = method.operating_steps(config.data.steps);
    if operating < raster.steps() {
        let reduced = resample(raster, operating, ResampleStrategy::Decimate)?;
        let ops = OpCounts::codec(reduced.steps() as u64, 0, false);
        Ok((reduced, ops))
    } else {
        Ok((raster.clone(), OpCounts::default()))
    }
}

/// Pre-training (Alg. 1 lines 1–5): trains a fresh network on the 19
/// pre-training classes at the native timestep and constant threshold.
///
/// # Errors
///
/// Returns [`NclError`] for invalid configs or training failures.
pub fn pretrain(config: &ScenarioConfig) -> Result<PretrainOutcome, NclError> {
    pretrain_on(
        config,
        &scenario_split(config)?,
        Rng::seed_from_u64(config.seed ^ PRETRAIN_SALT),
    )
}

/// [`pretrain`] on the pre-training classes of `split`, shuffling with
/// `rng`: a fresh network trained from stage 0 for
/// `config.pretrain_epochs` epochs, then evaluated on those classes'
/// test samples.
///
/// # Errors
///
/// Returns [`NclError`] for invalid configs or training failures.
pub(crate) fn pretrain_on(
    config: &ScenarioConfig,
    split: &ClassIncrementalSplit,
    mut rng: Rng,
) -> Result<PretrainOutcome, NclError> {
    config.validate()?;
    let data = scenario_data(config)?;
    let train = split.pretrain_subset(&data.train);
    let test = split.pretrain_subset(&data.test);

    let mut network = Network::new(config.network.clone())?;
    let options = TrainOptions {
        from_stage: 0,
        batch_size: config.batch_size,
        parallelism: config.parallelism,
        threshold_mode: ThresholdMode::Constant,
    };
    let outcome = IncrementalTrainer::new().run_increment(
        &mut network,
        &sample_refs(&train),
        config.pretrain_lr,
        config.pretrain_epochs,
        &options,
        &mut rng,
        |_, _| Ok(()),
    )?;

    let acc = trainer::evaluate_parallel(
        &network,
        &sample_refs(&test),
        0,
        ThresholdMode::Constant,
        config.parallelism,
    )?;
    Ok(PretrainOutcome {
        network,
        test_acc: acc.top1(),
        epoch_losses: outcome.epoch_losses,
    })
}

/// The NCL training phase (Alg. 1 lines 21–33), one per increment, for
/// every caller: `config.cl_epochs` epochs of the learning stages (from
/// `config.insertion_layer`) over `train_set` under the method's
/// threshold policy, with a fresh Adam at the reduced rate
/// `pretrain_lr / lr_divisor`, on `config.parallelism` threads. Which
/// samples make up `train_set` — how replay and new samples mix — stays
/// the caller's choice. `observe` sees the network and the epoch's
/// report after every epoch; its first error ends the phase.
///
/// # Errors
///
/// Returns [`NclError`] for training failures and `observe`'s errors.
pub fn increment(
    trainer: &mut IncrementalTrainer,
    network: &mut Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    train_set: &[(&SpikeRaster, u16)],
    rng: &mut Rng,
    observe: impl FnMut(&Network, &EpochReport) -> Result<(), SnnError>,
) -> Result<IncrementOutcome, NclError> {
    let options = TrainOptions {
        from_stage: config.insertion_layer,
        batch_size: config.batch_size,
        parallelism: config.parallelism,
        threshold_mode: method.threshold_mode,
    };
    Ok(trainer.run_increment(
        network,
        train_set,
        config.pretrain_lr / method.lr_divisor,
        config.cl_epochs,
        &options,
        rng,
        observe,
    )?)
}

/// Runs `raster` through a method's frozen pipeline: decimation to the
/// operating timestep (reduced methods decimate at the sensor interface,
/// so the whole pass runs at T*), then stages `1..=insertion_layer` under
/// the method's threshold policy — Alg. 1 lines 8–19 adapt `V_thr`
/// during latent generation, not only during training. Returns the
/// activation and the device work of both steps.
///
/// # Errors
///
/// Returns [`NclError`] for resampling or simulation failures.
pub fn capture(
    network: &Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    raster: &SpikeRaster,
) -> Result<(SpikeRaster, OpCounts), NclError> {
    let (input, mut ops) = method_input(raster, method, config)?;
    let schedule = method
        .threshold_mode
        .schedule_for(&input, config.network.lif.v_threshold)?;
    let (activation, activity) =
        network.activations_at_traced(config.insertion_layer, &input, Some(&schedule))?;
    ops += OpCounts::forward(&activity, config.network.recurrent);
    Ok((activation, ops))
}

/// [`capture`] of every sample, on up to `config.parallelism` threads
/// ([`trainer::map_chunks`]): one `(activation, work)` per sample, in
/// input order, whatever the thread count.
fn capture_all(
    network: &Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    samples: &[LabeledSample],
) -> Result<Vec<(SpikeRaster, OpCounts)>, NclError> {
    let parts = trainer::map_chunks(samples, config.parallelism, |chunk| {
        chunk
            .iter()
            .map(|s| capture(network, config, method, &s.raster))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Latent-replay generation (Alg. 1 lines 6–20): runs the frozen stages on
/// the replay subset, stores activations per the method's storage policy,
/// and counts the device work (frozen inference + codec + latent-memory
/// writes). The frozen passes run on up to `config.parallelism` threads;
/// the buffer is filled and the work folded serially, in sample order.
///
/// # Errors
///
/// Returns [`NclError`] for invalid specs or simulation failures.
pub fn prepare_buffer(
    network: &Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    train_data: &Dataset,
    split: &ClassIncrementalSplit,
) -> Result<(LatentReplayBuffer, OpCounts), NclError> {
    method.validate()?;
    let mut buffer = LatentReplayBuffer::new(config.alignment);
    let mut ops = OpCounts::default();
    let Some(replay) = &method.replay else {
        return Ok((buffer, ops));
    };

    let mut rng = Rng::seed_from_u64(config.seed ^ REPLAY_SALT);
    let replay_set = replay_subset(train_data, split, replay.per_class, &mut rng)?;

    let captured = capture_all(network, config, method, replay_set.samples())?;
    for (sample, (activation, capture_ops)) in replay_set.iter().zip(captured) {
        ops += capture_ops;
        let entry = match replay.storage {
            StoragePolicy::Codec(factor) => {
                let compressed = codec::compress(&activation, factor);
                ops += OpCounts::codec(
                    compressed.stored_steps() as u64,
                    activation.neurons() as u64,
                    true,
                );
                LatentEntry::compressed(compressed, sample.label)
            }
            StoragePolicy::Reduced(_) => {
                // The activation already lives at T*; store it verbatim.
                ops +=
                    OpCounts::codec(activation.steps() as u64, activation.neurons() as u64, true);
                LatentEntry::reduced(activation, config.data.steps, sample.label)
            }
        };
        let outcome = buffer.push(entry);
        debug_assert!(
            outcome.was_stored(),
            "unbounded scenario buffer accepts every entry"
        );
    }
    Ok((buffer, ops))
}

/// The replay work of one CL epoch: Alg. 1 reads the latent store every
/// epoch, so every stored payload bit is charged, and a method that
/// decompresses on replay (SpikingLR) also re-expands each entry through
/// the codec. Codec output frames go to working memory, not the latent
/// store, so only the frame operations are charged for them.
#[must_use]
pub(crate) fn replay_epoch_ops(buffer: &LatentReplayBuffer, method: &MethodSpec) -> OpCounts {
    let mut ops = OpCounts::default();
    let Some(replay) = &method.replay else {
        return ops;
    };
    ops.mem_read_bits = buffer.payload_bits();
    if replay.decompress {
        for e in buffer {
            ops += OpCounts::codec(e.original_steps() as u64, 0, false);
        }
    }
    ops
}

/// New-task activation capture (Alg. 1 line 23): decimates each CL
/// training sample to the method's operating timestep, then runs the
/// frozen stages on it, on up to `config.parallelism` threads. Returns
/// the samples and the device work of one generation pass; the scenario
/// charges that work once per CL epoch, as Alg. 1 regenerates `A_new`
/// inside the epoch loop.
///
/// # Errors
///
/// Returns [`NclError`] for simulation failures.
pub fn new_task_activations(
    network: &Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    cl_train: &Dataset,
) -> Result<(Vec<(SpikeRaster, u16)>, OpCounts), NclError> {
    let mut ops = OpCounts::default();
    let samples = capture_all(network, config, method, cl_train.samples())?
        .into_iter()
        .zip(cl_train)
        .map(|((activation, capture_ops), s)| {
            ops += capture_ops;
            (activation, s.label)
        })
        .collect();
    Ok((samples, ops))
}

/// Converts evaluation samples to the learning-path inputs of a method:
/// input decimated to the operating timestep, then frozen activations at
/// the insertion layer, on up to `config.parallelism` threads.
/// (Evaluation work is not charged to training cost.)
///
/// # Errors
///
/// Returns [`NclError`] for simulation failures.
pub fn eval_activations(
    network: &Network,
    config: &ScenarioConfig,
    method: &MethodSpec,
    eval_data: &Dataset,
) -> Result<Vec<(SpikeRaster, u16)>, NclError> {
    Ok(capture_all(network, config, method, eval_data.samples())?
        .into_iter()
        .zip(eval_data)
        .map(|((activation, _), s)| (activation, s.label))
        .collect())
}

/// The RNG stream for the CL training phase of a scenario.
#[must_use]
pub fn cl_rng(config: &ScenarioConfig) -> Rng {
    Rng::seed_from_u64(config.seed ^ CL_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodSpec;

    fn smoke() -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 2; // keep the phase tests fast
        c
    }

    #[test]
    fn pretrain_produces_working_network() {
        let config = smoke();
        let outcome = pretrain(&config).unwrap();
        assert_eq!(outcome.epoch_losses.len(), 2);
        assert!(outcome.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(outcome.test_acc >= 0.0 && outcome.test_acc <= 1.0);
    }

    #[test]
    fn pretrain_is_deterministic() {
        let config = smoke();
        let a = pretrain(&config).unwrap();
        let b = pretrain(&config).unwrap();
        assert_eq!(a.network, b.network);
        assert_eq!(a.epoch_losses, b.epoch_losses);
    }

    #[test]
    fn prepare_buffer_stores_per_policy() {
        let config = smoke();
        let data = scenario_data(&config).unwrap();
        let split = scenario_split(&config).unwrap();
        let network = Network::new(config.network.clone()).unwrap();

        // SpikingLR: codec x2 storage at native steps.
        let sota = MethodSpec::spiking_lr(2);
        let (buf, ops) = prepare_buffer(&network, &config, &sota, &data.train, &split).unwrap();
        assert_eq!(buf.len(), 2 * (config.data.classes as usize - 1));
        let native = config.data.steps;
        for e in &buf {
            assert_eq!(e.stored_steps(), native.div_ceil(2));
            assert_eq!(e.original_steps(), native);
        }
        assert!(ops.synaptic_ops > 0, "frozen stages cost synaptic work");
        assert!(ops.mem_write_bits > 0, "latent memory written");

        // Replay4NCL: reduced storage.
        let ours = MethodSpec::replay4ncl(2, native / 2);
        let (buf, _) = prepare_buffer(&network, &config, &ours, &data.train, &split).unwrap();
        for e in &buf {
            assert_eq!(e.stored_steps(), native / 2);
        }

        // Baseline: nothing stored, nothing spent.
        let (buf, ops) = prepare_buffer(
            &network,
            &config,
            &MethodSpec::baseline(),
            &data.train,
            &split,
        )
        .unwrap();
        assert!(buf.is_empty());
        assert!(ops.is_zero());
    }

    #[test]
    fn buffer_never_contains_new_class() {
        let config = smoke();
        let data = scenario_data(&config).unwrap();
        let split = scenario_split(&config).unwrap();
        let network = Network::new(config.network.clone()).unwrap();
        let (buf, _) = prepare_buffer(
            &network,
            &config,
            &MethodSpec::spiking_lr(3),
            &data.train,
            &split,
        )
        .unwrap();
        let new_class = config.data.classes - 1;
        assert!(buf.iter().all(|e| e.label() != new_class));
    }

    #[test]
    fn new_task_activations_reduce_for_replay4ncl() {
        let config = smoke();
        let data = scenario_data(&config).unwrap();
        let split = scenario_split(&config).unwrap();
        let cl_train = split.continual_subset(&data.train);
        let network = Network::new(config.network.clone()).unwrap();

        let native = config.data.steps;
        let (sota_acts, sota_ops) =
            new_task_activations(&network, &config, &MethodSpec::spiking_lr(2), &cl_train).unwrap();
        assert!(sota_acts.iter().all(|(r, _)| r.steps() == native));

        let (our_acts, our_ops) = new_task_activations(
            &network,
            &config,
            &MethodSpec::replay4ncl(2, native / 2),
            &cl_train,
        )
        .unwrap();
        assert!(our_acts.iter().all(|(r, _)| r.steps() == native / 2));
        // Both pay frozen-forward work; ours additionally decimates.
        assert!(sota_ops.synaptic_ops > 0 && our_ops.synaptic_ops > 0);
        assert!(our_ops.codec_frames > sota_ops.codec_frames);
        // All samples are the held-out class.
        assert!(our_acts.iter().all(|(_, l)| *l == config.data.classes - 1));
    }

    #[test]
    fn eval_activations_match_operating_steps() {
        let config = smoke();
        let data = scenario_data(&config).unwrap();
        let split = scenario_split(&config).unwrap();
        let old_test = split.pretrain_subset(&data.test);
        let network = Network::new(config.network.clone()).unwrap();
        let method = MethodSpec::replay4ncl(2, config.data.steps / 2);
        let acts = eval_activations(&network, &config, &method, &old_test).unwrap();
        assert_eq!(acts.len(), old_test.len());
        assert!(acts.iter().all(|(r, _)| r.steps() == config.data.steps / 2));
    }
}
