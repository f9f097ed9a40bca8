//! Mini-batch training and evaluation loops — the zero-allocation hot
//! path of the repo.
//!
//! The trainer is deliberately dataset-agnostic: it consumes slices of
//! `(&SpikeRaster, label)` pairs so the same loop trains on raw input
//! rasters (pre-training) and on captured latent activations (the CL
//! phase).
//!
//! # Architecture: arenas + a persistent pool
//!
//! A steady-state epoch performs **zero heap allocation per sample**:
//!
//! * every worker owns a [`WorkerArena`] — a reusable [`History`],
//!   [`ForwardScratch`], [`BpttScratch`] and threshold-schedule buffer —
//!   so recording and BPTT reuse the same memory across samples and
//!   batches;
//! * per-sample gradients land in recycled [`Gradients`] arenas
//!   (zero-filled in place, never reallocated) and are folded into one
//!   batch accumulator;
//! * with `parallelism > 1`, a pool of workers persists for the whole
//!   `train_epoch` call (one `thread::scope` per epoch, not per batch),
//!   fed from one shared task queue (any idle worker takes the oldest
//!   task); the network is shared behind an `RwLock` that the optimizer
//!   write-locks between batches;
//! * the `1/batch` mean reduction is folded into
//!   [`Optimizer::step_scaled`] (scale-at-apply), removing one O(params)
//!   sweep per batch.
//!
//! # Determinism contract
//!
//! Results are **byte-identical at every worker count**, and identical to
//! the seed-era per-sample-allocation path (kept as
//! [`train_epoch_reference`], the bit-identity oracle and benchmark
//! baseline): workers may finish out of order, but sample gradients are
//! merged strictly in batch order, and spike-activity counters are
//! integer sums, which are order-independent. `tests/train_determinism.rs`
//! and the unit tests below enforce this.

use std::sync::mpsc;

use crossbeam::thread;
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::adaptive::{ThresholdMode, ThresholdSchedule};
use crate::bptt::{self, BpttScratch, Gradients};
use crate::error::SnnError;
use crate::network::{ForwardActivity, ForwardScratch, History, Network};
use crate::optimizer::Optimizer;

/// Options controlling one training phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Stage the trainable layers start after (0 = train everything).
    pub from_stage: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Worker threads for per-sample gradient computation.
    pub parallelism: usize,
    /// How firing thresholds are determined during training.
    pub threshold_mode: ThresholdMode,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            from_stage: 0,
            batch_size: 16,
            parallelism: 2,
            threshold_mode: ThresholdMode::Constant,
        }
    }
}

impl TrainOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero batch size or zero
    /// parallelism.
    pub fn validate(&self) -> Result<(), SnnError> {
        if self.batch_size == 0 {
            return Err(SnnError::InvalidConfig {
                what: "batch_size",
                detail: "must be at least 1".into(),
            });
        }
        if self.parallelism == 0 {
            return Err(SnnError::InvalidConfig {
                what: "parallelism",
                detail: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Per-epoch training summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Mean loss over all samples of the epoch.
    pub mean_loss: f32,
    /// Number of samples trained on.
    pub samples: usize,
    /// Summed spike activity of all training forward passes (for cost
    /// modeling); `None` when the epoch was empty.
    pub activity: Option<ForwardActivity>,
}

/// Classification accuracy counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accuracy {
    /// Correct predictions.
    pub correct: usize,
    /// Total predictions.
    pub total: usize,
}

impl Accuracy {
    /// Top-1 accuracy in `[0, 1]`; `0.0` when empty.
    #[must_use]
    pub fn top1(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: Accuracy) {
        self.correct += other.correct;
        self.total += other.total;
    }
}

/// Per-worker compute arena: every buffer one sample's forward recording
/// and backward pass need, allocated once and reused for the lifetime of
/// the [`TrainScratch`] that owns it.
#[derive(Debug)]
struct WorkerArena {
    history: History,
    fwd: ForwardScratch,
    bptt: BpttScratch,
    schedule: ThresholdSchedule,
}

impl WorkerArena {
    fn new() -> Self {
        WorkerArena {
            history: History::empty(),
            fwd: ForwardScratch::new(),
            bptt: BpttScratch::new(),
            schedule: ThresholdSchedule::empty(),
        }
    }
}

/// Reusable training state: worker arenas, recycled gradient buffers and
/// the batch accumulator. Create one per training phase and pass it to
/// [`train_epoch_with`] across epochs — everything inside is reshaped (not
/// reallocated, once warm) on each call, so repeated epochs allocate
/// nothing.
#[derive(Debug, Default)]
pub struct TrainScratch {
    arenas: Vec<WorkerArena>,
    /// Recycled per-sample gradient buffers (free list).
    free_grads: Vec<Gradients>,
    /// Batch gradient accumulator.
    total: Option<Gradients>,
    /// Shuffled sample order of the current epoch.
    order: Vec<usize>,
    /// Reorder buffer: per in-flight batch position, the finished result
    /// waiting for its in-order merge.
    pending: Vec<Option<(f32, Gradients)>>,
}

impl TrainScratch {
    /// Fresh, empty scratch (buffers are created on first use).
    #[must_use]
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// Shapes the scratch for an epoch: `workers` arenas and
    /// `grad_buffers` recycled gradient buffers matching `net` trained
    /// from `from_stage`. Buffers from a different phase (other stage or
    /// architecture) are replaced; matching ones are kept as-is.
    fn prepare(
        &mut self,
        net: &Network,
        from_stage: usize,
        workers: usize,
        grad_buffers: usize,
    ) -> Result<(), SnnError> {
        if self.arenas.len() < workers {
            self.arenas.resize_with(workers, WorkerArena::new);
        }
        if !self
            .total
            .as_ref()
            .is_some_and(|t| t.matches(net, from_stage))
        {
            self.total = Some(Gradients::zeros(net, from_stage)?);
            self.free_grads.clear();
        }
        while self.free_grads.len() < grad_buffers {
            self.free_grads.push(Gradients::zeros(net, from_stage)?);
        }
        Ok(())
    }
}

/// Computes one sample's loss and gradients into the caller-owned arena
/// buffers: `grads` receives exactly the sample's gradients (it is
/// zero-filled here), `arena` provides all transient state, and the
/// sample's spike activity is folded into `activity` (integer counters,
/// so fold order cannot affect results).
fn sample_gradient_into(
    net: &Network,
    raster: &SpikeRaster,
    label: u16,
    options: &TrainOptions,
    arena: &mut WorkerArena,
    grads: &mut Gradients,
    activity: &mut Option<ForwardActivity>,
) -> Result<f32, SnnError> {
    let base = net.config().lif.v_threshold;
    options
        .threshold_mode
        .schedule_into(raster, base, &mut arena.schedule)?;
    net.record_from_into(
        options.from_stage,
        raster,
        Some(&arena.schedule),
        &mut arena.history,
        &mut arena.fwd,
    )?;
    grads.zero_fill();
    let loss = bptt::backward_into(net, &arena.history, label as usize, grads, &mut arena.bptt)?;
    match activity {
        None => *activity = Some(arena.history.activity.clone()),
        Some(acc) => acc.merge(&arena.history.activity)?,
    }
    Ok(loss)
}

/// One unit of work for a pool worker: compute the gradients of sample
/// `sample_idx` (position `pos` of the current batch) into the attached
/// recycled buffer.
struct Task {
    pos: usize,
    sample_idx: usize,
    grads: Gradients,
}

/// A worker's reply: the batch position, the sample loss and the filled
/// gradient buffer (returned for recycling) — or the first error, after
/// which the worker exits.
type TaskReply = Result<(usize, f32, Gradients), SnnError>;

/// [`train_epoch_with`] with a transient [`TrainScratch`], for tests.
#[cfg(test)]
pub(crate) fn train_epoch(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    rng: &mut Rng,
) -> Result<EpochReport, SnnError> {
    let mut scratch = TrainScratch::new();
    train_epoch_with(net, samples, optimizer, options, rng, &mut scratch)
}

/// Trains one epoch over `samples` (shuffled), applying one optimizer step
/// per mini-batch with mean-reduced gradients, reusing a caller-owned
/// [`TrainScratch`] so that repeated epochs perform no steady-state heap
/// allocation. Results are byte-identical to [`train_epoch_reference`]
/// at every `parallelism`.
///
/// # Errors
///
/// Returns [`SnnError`] on invalid options, shape mismatches or label
/// range violations. After an error the network may have received the
/// optimizer steps of already-completed batches (same as the seed path).
pub fn train_epoch_with(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    rng: &mut Rng,
    scratch: &mut TrainScratch,
) -> Result<EpochReport, SnnError> {
    options.validate()?;
    if samples.is_empty() {
        return Ok(EpochReport {
            mean_loss: 0.0,
            samples: 0,
            activity: None,
        });
    }
    let workers = options.parallelism.min(samples.len());
    let max_batch = options.batch_size.min(samples.len());
    let grad_buffers = if workers <= 1 {
        1
    } else {
        (2 * workers).min(max_batch)
    };
    scratch.prepare(net, options.from_stage, workers, grad_buffers)?;

    scratch.order.clear();
    scratch.order.extend(0..samples.len());
    rng.shuffle(&mut scratch.order);

    let (loss_sum, activity) = if workers <= 1 {
        epoch_serial(net, samples, optimizer, options, scratch)?
    } else {
        epoch_pooled(net, samples, optimizer, options, scratch, workers)?
    };
    Ok(EpochReport {
        mean_loss: loss_sum / samples.len() as f32,
        samples: samples.len(),
        activity,
    })
}

/// Single-threaded epoch body: one arena, one recycled sample-gradient
/// buffer, ordered accumulation.
fn epoch_serial(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    scratch: &mut TrainScratch,
) -> Result<(f32, Option<ForwardActivity>), SnnError> {
    let TrainScratch {
        arenas,
        free_grads,
        total,
        order,
        ..
    } = scratch;
    let arena = &mut arenas[0];
    let sample_grad = &mut free_grads[0];
    let total = total.as_mut().expect("prepared by train_epoch_with");

    let mut loss_sum = 0.0f32;
    let mut activity: Option<ForwardActivity> = None;
    for batch in order.chunks(options.batch_size) {
        total.zero_fill();
        let mut batch_loss = 0.0f32;
        for &i in batch {
            let (raster, label) = samples[i];
            let loss = sample_gradient_into(
                net,
                raster,
                label,
                options,
                arena,
                sample_grad,
                &mut activity,
            )?;
            batch_loss += loss;
            total.accumulate(sample_grad)?;
        }
        optimizer.step_scaled(net, total, 1.0 / batch.len() as f32)?;
        loss_sum += batch_loss;
    }
    Ok((loss_sum, activity))
}

/// Pooled epoch body: `workers` persistent threads compute sample
/// gradients into recycled buffers; the driving thread merges them
/// strictly in batch order (out-of-order completions wait in
/// `scratch.pending`), then write-locks the network for the optimizer
/// step. Byte-identical to [`epoch_serial`] by construction.
fn epoch_pooled(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    scratch: &mut TrainScratch,
    workers: usize,
) -> Result<(f32, Option<ForwardActivity>), SnnError> {
    let TrainScratch {
        arenas,
        free_grads,
        total,
        order,
        pending,
    } = scratch;
    let total = total.as_mut().expect("prepared by train_epoch_with");
    let net_lock = RwLock::new(net);
    let queue = TaskQueue::new();

    let outcome = thread::scope(
        |scope| -> Result<(f32, Option<ForwardActivity>), SnnError> {
            let (reply_tx, reply_rx) = mpsc::channel::<TaskReply>();
            let mut handles = Vec::with_capacity(workers);
            for arena in arenas[..workers].iter_mut() {
                let reply_tx = reply_tx.clone();
                let (net_lock, queue) = (&net_lock, &queue);
                handles.push(scope.spawn(move |_| {
                    worker_loop(net_lock, samples, options, arena, queue, &reply_tx)
                }));
            }
            drop(reply_tx); // the driver only receives

            let driven = drive_batches(
                &net_lock, optimizer, options, order, total, free_grads, pending, &queue, &reply_rx,
            );

            // Close the task queue so every worker drains and exits, then
            // fold their per-worker activity accumulators (integer counters:
            // fold order cannot affect the result).
            queue.close();
            let mut activity: Option<ForwardActivity> = None;
            for handle in handles {
                if let Some(worker_activity) = handle.join().expect("training worker panicked") {
                    match &mut activity {
                        None => activity = Some(worker_activity),
                        Some(acc) => acc.merge(&worker_activity)?,
                    }
                }
            }
            Ok((driven?, activity))
        },
    )
    .expect("training pool scope panicked");
    outcome
}

/// The per-batch dispatch/merge loop of the pooled epoch.
#[allow(clippy::too_many_arguments)]
fn drive_batches(
    net_lock: &RwLock<&mut Network>,
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    order: &[usize],
    total: &mut Gradients,
    free_grads: &mut Vec<Gradients>,
    pending: &mut Vec<Option<(f32, Gradients)>>,
    queue: &TaskQueue,
    reply_rx: &mpsc::Receiver<TaskReply>,
) -> Result<f32, SnnError> {
    let mut loss_sum = 0.0f32;
    for batch in order.chunks(options.batch_size) {
        total.zero_fill();
        pending.clear();
        pending.resize_with(batch.len(), || None);
        let mut dispatched = 0usize;
        let mut next_merge = 0usize;
        let mut batch_loss = 0.0f32;

        while next_merge < batch.len() {
            // Dispatch while recycled buffers are available; backpressure
            // otherwise (in-flight tasks hold the missing buffers).
            while dispatched < batch.len() {
                let Some(grads) = free_grads.pop() else {
                    break;
                };
                queue.push(Task {
                    pos: dispatched,
                    sample_idx: batch[dispatched],
                    grads,
                });
                dispatched += 1;
            }
            let reply = reply_rx.recv().map_err(|_| pool_hangup())?;
            let (pos, loss, grads) = reply?;
            pending[pos] = Some((loss, grads));
            // Merge every result that is next in batch order.
            while let Some(slot) = pending.get_mut(next_merge).and_then(Option::take) {
                let (loss, grads) = slot;
                batch_loss += loss;
                total.accumulate(&grads)?;
                free_grads.push(grads);
                next_merge += 1;
            }
        }

        let mut net = net_lock.write();
        optimizer.step_scaled(&mut net, total, 1.0 / batch.len() as f32)?;
        drop(net);
        loss_sum += batch_loss;
    }
    Ok(loss_sum)
}

/// Shared work queue the pool workers pull from: any idle worker takes
/// the oldest queued task (no per-worker pinning, so a slow worker never
/// blocks work that an idle one could do). Determinism is unaffected —
/// the driver merges replies strictly in batch order regardless of which
/// worker computed them.
struct TaskQueue {
    state: std::sync::Mutex<TaskQueueState>,
    ready: std::sync::Condvar,
}

struct TaskQueueState {
    tasks: std::collections::VecDeque<Task>,
    closed: bool,
}

impl TaskQueue {
    fn new() -> Self {
        TaskQueue {
            state: std::sync::Mutex::new(TaskQueueState {
                tasks: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, task: Task) {
        self.state
            .lock()
            .expect("task queue poisoned")
            .tasks
            .push_back(task);
        self.ready.notify_one();
    }

    /// Closes the queue and discards anything still enqueued (only the
    /// abort path leaves tasks behind); blocked workers wake and exit.
    fn close(&self) {
        let mut state = self.state.lock().expect("task queue poisoned");
        state.closed = true;
        state.tasks.clear();
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks for the next task; `None` once the queue is closed.
    fn pop(&self) -> Option<Task> {
        let mut state = self.state.lock().expect("task queue poisoned");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("task queue poisoned");
        }
    }
}

/// A pool worker: pulls tasks from the shared queue until it closes,
/// computing each sample under a read lock of the shared network (the
/// driver write-locks it only between batches, when no tasks are in
/// flight). Returns the worker's accumulated spike activity. On the
/// first error the worker reports it through the reply channel and
/// exits; its remaining queued work is picked up by the other workers.
fn worker_loop(
    net_lock: &RwLock<&mut Network>,
    samples: &[(&SpikeRaster, u16)],
    options: &TrainOptions,
    arena: &mut WorkerArena,
    queue: &TaskQueue,
    reply_tx: &mpsc::Sender<TaskReply>,
) -> Option<ForwardActivity> {
    let mut activity: Option<ForwardActivity> = None;
    while let Some(mut task) = queue.pop() {
        let guard = net_lock.read();
        let net: &Network = &guard;
        let (raster, label) = samples[task.sample_idx];
        let outcome = sample_gradient_into(
            net,
            raster,
            label,
            options,
            arena,
            &mut task.grads,
            &mut activity,
        );
        drop(guard);
        match outcome {
            Ok(loss) => {
                if reply_tx.send(Ok((task.pos, loss, task.grads))).is_err() {
                    break; // driver gone (epoch aborted)
                }
            }
            Err(e) => {
                let _ = reply_tx.send(Err(e));
                break;
            }
        }
    }
    activity
}

/// Error for the (should-be-impossible) case of every worker exiting
/// without reporting an error first.
fn pool_hangup() -> SnnError {
    SnnError::InvalidConfig {
        what: "train pool",
        detail: "all workers exited before the batch completed".into(),
    }
}

/// Seed-era per-sample gradient: a fresh threshold schedule, a fresh
/// `History` and a fresh weight-shaped `Gradients` per call.
fn reference_sample_gradient(
    net: &Network,
    raster: &SpikeRaster,
    label: u16,
    options: &TrainOptions,
) -> Result<(f32, Gradients, ForwardActivity), SnnError> {
    let base = net.config().lif.v_threshold;
    let schedule = options.threshold_mode.schedule_for(raster, base)?;
    let history = net.record_from(options.from_stage, raster, Some(&schedule))?;
    let activity = history.activity.clone();
    let (loss, grads) = bptt::backward(net, &history, label as usize)?;
    Ok((loss, grads, activity))
}

/// Seed-era batch gradient: with `parallelism > 1` the batch is chunked
/// and a **fresh crossbeam thread scope is spawned for this one batch**
/// (the per-batch spawn the persistent pool eliminates); each chunk
/// dense-accumulates per-sample `Gradients` allocations.
fn reference_batch_gradient(
    net: &Network,
    batch: &[(&SpikeRaster, u16)],
    options: &TrainOptions,
) -> Result<(f32, Gradients, Option<ForwardActivity>), SnnError> {
    type Partial = (f32, Gradients, Option<ForwardActivity>);
    let accumulate_chunk = |part: &[(&SpikeRaster, u16)]| -> Result<Partial, SnnError> {
        let mut total = Gradients::zeros(net, options.from_stage)?;
        let mut loss_sum = 0.0f32;
        let mut activity: Option<ForwardActivity> = None;
        for &(raster, label) in part {
            let (loss, grads, sample_activity) =
                reference_sample_gradient(net, raster, label, options)?;
            loss_sum += loss;
            total.accumulate(&grads)?;
            match &mut activity {
                None => activity = Some(sample_activity),
                Some(acc) => acc.merge(&sample_activity)?,
            }
        }
        Ok((loss_sum, total, activity))
    };

    let workers = options.parallelism.min(batch.len()).max(1);
    if workers == 1 {
        return accumulate_chunk(batch);
    }
    let chunk = batch.len().div_ceil(workers);
    let results = thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .map(|part| scope.spawn(move |_| accumulate_chunk(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("crossbeam scope panicked");

    let mut total = Gradients::zeros(net, options.from_stage)?;
    let mut loss_sum = 0.0f32;
    let mut activity: Option<ForwardActivity> = None;
    for result in results {
        let (loss, grads, chunk_activity) = result?;
        loss_sum += loss;
        total.accumulate(&grads)?;
        match (&mut activity, chunk_activity) {
            (None, x) => activity = x,
            (Some(acc), Some(x)) => acc.merge(&x)?,
            (Some(_), None) => {}
        }
    }
    Ok((loss_sum, total, activity))
}

/// The seed-era training loop, preserved verbatim in behavior: a fresh
/// `Gradients::zeros`, `History` and threshold schedule per sample, a
/// dense O(params) `accumulate` per sample, an O(params) `scale` sweep
/// per batch, and (with `parallelism > 1`) a crossbeam thread scope
/// **re-spawned for every batch**.
///
/// Kept for two jobs: at `parallelism = 1` it is the **bit-identity
/// oracle** the arena/pool path is tested against (byte-identical trained
/// weights at every pool worker count), and at the configured parallelism
/// it is the **pre-PR baseline** `benches/train.rs` and `ncl-train-bench`
/// measure the zero-allocation path's speedup over. (The seed's
/// `parallelism > 1` chunking groups float sums per chunk, so only its
/// serial form is bitwise comparable — that matches the seed, whose
/// parallel path was tolerance-equal, not bit-equal, to serial.)
///
/// # Errors
///
/// Returns [`SnnError`] on invalid options, shape mismatches or label
/// range violations.
pub fn train_epoch_reference(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    rng: &mut Rng,
) -> Result<EpochReport, SnnError> {
    options.validate()?;
    if samples.is_empty() {
        return Ok(EpochReport {
            mean_loss: 0.0,
            samples: 0,
            activity: None,
        });
    }
    let mut order: Vec<usize> = (0..samples.len()).collect();
    rng.shuffle(&mut order);

    let mut loss_sum = 0.0f32;
    let mut activity: Option<ForwardActivity> = None;
    for batch_idx in order.chunks(options.batch_size) {
        let batch: Vec<(&SpikeRaster, u16)> = batch_idx.iter().map(|&i| samples[i]).collect();
        let (batch_loss, mut grads, batch_activity) =
            reference_batch_gradient(net, &batch, options)?;
        grads.scale(1.0 / batch.len() as f32);
        optimizer.step(net, &grads)?;
        loss_sum += batch_loss;
        match (&mut activity, batch_activity) {
            (None, x) => activity = x,
            (Some(acc), Some(x)) => acc.merge(&x)?,
            (Some(_), None) => {}
        }
    }
    Ok(EpochReport {
        mean_loss: loss_sum / samples.len() as f32,
        samples: samples.len(),
        activity,
    })
}

/// Summary of one continual-learning increment run by
/// [`IncrementalTrainer::run_increment`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementOutcome {
    /// Mean loss of each epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Samples trained on per epoch.
    pub samples: usize,
    /// Summed spike activity of every training forward pass across all
    /// epochs (`None` for an empty increment).
    pub activity: Option<ForwardActivity>,
}

/// A trainer that persists across continual-learning increments.
///
/// An online system runs many increments over the lifetime of one
/// process; allocating fresh worker arenas for each would reintroduce the
/// per-phase allocation cost the [`TrainScratch`] rework removed. This
/// wrapper owns one scratch and reuses it for every increment (arenas are
/// reshaped, not reallocated, when the stage or architecture changes),
/// while the *optimizer* is fresh per increment — Alg. 1 starts every CL
/// phase from a clean Adam state at the reduced learning rate, and
/// carrying first/second-moment estimates across increments would leak
/// one increment's gradient history into the next.
///
/// Results are byte-identical to running the same epochs through
/// [`train_epoch_with`] with a fresh scratch (the unit tests below pin
/// this), so increments remain worker-count invariant.
#[derive(Debug, Default)]
pub struct IncrementalTrainer {
    scratch: TrainScratch,
    increments: u64,
    /// Per-epoch wall-time histogram (`snn_train_epoch_us`), when an
    /// observability registry is attached.
    epoch_us: Option<std::sync::Arc<ncl_obs::Log2Histogram>>,
    /// Total epochs counter (`snn_train_epochs_total`), when attached.
    epochs_total: Option<std::sync::Arc<ncl_obs::Counter>>,
}

impl IncrementalTrainer {
    /// Fresh trainer (arenas are created on first use).
    #[must_use]
    pub fn new() -> Self {
        IncrementalTrainer::default()
    }

    /// Registers this trainer's per-epoch timing series in `registry`.
    /// Instrumentation observes wall time only — it never touches the
    /// numeric path, so trained weights stay bit-identical with or
    /// without it.
    pub fn attach_obs(&mut self, registry: &ncl_obs::Registry) {
        self.epoch_us = Some(registry.histogram(
            "snn_train_epoch_us",
            "Wall time of one training epoch in microseconds.",
        ));
        self.epochs_total = Some(registry.counter(
            "snn_train_epochs_total",
            "Training epochs run across all increments.",
        ));
    }

    /// Number of increments run so far.
    #[must_use]
    pub fn increments(&self) -> u64 {
        self.increments
    }

    /// Runs one increment: `epochs` epochs over `samples` with a fresh
    /// Adam optimizer at `lr`, reusing this trainer's arenas.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError`] on invalid options, shape mismatches or label
    /// range violations; the increment counter only advances on success.
    pub fn run_increment(
        &mut self,
        net: &mut Network,
        samples: &[(&SpikeRaster, u16)],
        lr: f32,
        epochs: usize,
        options: &TrainOptions,
        rng: &mut Rng,
    ) -> Result<IncrementOutcome, SnnError> {
        let mut optimizer = Optimizer::adam(lr);
        let mut epoch_losses = Vec::with_capacity(epochs);
        let mut activity: Option<ForwardActivity> = None;
        for _ in 0..epochs {
            let epoch_started = std::time::Instant::now();
            let report = train_epoch_with(
                net,
                samples,
                &mut optimizer,
                options,
                rng,
                &mut self.scratch,
            )?;
            if let Some(hist) = &self.epoch_us {
                hist.record(epoch_started.elapsed().as_micros() as u64);
            }
            if let Some(total) = &self.epochs_total {
                total.inc();
            }
            epoch_losses.push(report.mean_loss);
            match (&mut activity, report.activity) {
                (acc @ None, fresh) => *acc = fresh,
                (Some(acc), Some(fresh)) => acc.merge(&fresh)?,
                (Some(_), None) => {}
            }
        }
        self.increments += 1;
        Ok(IncrementOutcome {
            epoch_losses,
            samples: samples.len(),
            activity,
        })
    }
}

/// Evaluates Top-1 accuracy of the network (executed from `from_stage`)
/// over labeled rasters.
///
/// # Errors
///
/// Returns [`SnnError`] on shape mismatches.
pub fn evaluate(
    net: &Network,
    samples: &[(&SpikeRaster, u16)],
    from_stage: usize,
    threshold_mode: ThresholdMode,
) -> Result<Accuracy, SnnError> {
    let base = net.config().lif.v_threshold;
    let mut schedule = ThresholdSchedule::empty();
    let mut acc = Accuracy::default();
    for &(raster, label) in samples {
        threshold_mode.schedule_into(raster, base, &mut schedule)?;
        let logits = net.forward_from(from_stage, raster, Some(&schedule))?;
        let pred = ncl_tensor::ops::argmax(&logits).expect("non-empty logits");
        acc.total += 1;
        if pred == label as usize {
            acc.correct += 1;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    /// Two linearly-separated "classes": spikes in the low channels vs the
    /// high channels.
    fn toy_problem(n_per_class: usize, steps: usize) -> Vec<(SpikeRaster, u16)> {
        let mut rng = Rng::seed_from_u64(31);
        let mut out = Vec::new();
        for i in 0..n_per_class * 2 {
            let label = (i % 2) as u16;
            let raster = SpikeRaster::from_fn(8, steps, |n, _| {
                let in_band = if label == 0 { n < 4 } else { n >= 4 };
                in_band && rng.bernoulli(0.5)
            });
            out.push((raster, label));
        }
        out
    }

    fn toy_refs(data: &[(SpikeRaster, u16)]) -> Vec<(&SpikeRaster, u16)> {
        data.iter().map(|(r, l)| (r, *l)).collect()
    }

    #[test]
    fn options_validation() {
        let mut o = TrainOptions::default();
        assert!(o.validate().is_ok());
        o.batch_size = 0;
        assert!(o.validate().is_err());
        let o = TrainOptions {
            parallelism: 0,
            ..TrainOptions::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn accuracy_counter() {
        let mut a = Accuracy {
            correct: 3,
            total: 4,
        };
        assert!((a.top1() - 0.75).abs() < 1e-12);
        a.merge(Accuracy {
            correct: 1,
            total: 4,
        });
        assert_eq!(a.correct, 4);
        assert_eq!(a.total, 8);
        assert_eq!(Accuracy::default().top1(), 0.0);
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut opt = Optimizer::adam(1e-3);
        let mut rng = Rng::seed_from_u64(1);
        let report =
            train_epoch(&mut net, &[], &mut opt, &TrainOptions::default(), &mut rng).unwrap();
        assert_eq!(report.samples, 0);
    }

    #[test]
    fn training_learns_toy_problem() {
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let data = toy_problem(10, 15);
        let refs = toy_refs(&data);
        let mut opt = Optimizer::adam(2e-3);
        let options = TrainOptions {
            batch_size: 4,
            ..TrainOptions::default()
        };
        let mut rng = Rng::seed_from_u64(7);

        let before = evaluate(&net, &refs, 0, ThresholdMode::Constant).unwrap();
        let mut losses = Vec::new();
        for _ in 0..15 {
            let r = train_epoch(&mut net, &refs, &mut opt, &options, &mut rng).unwrap();
            losses.push(r.mean_loss);
        }
        let after = evaluate(&net, &refs, 0, ThresholdMode::Constant).unwrap();
        assert!(
            after.top1() >= before.top1().max(0.9),
            "training should solve the toy problem: {} -> {}",
            before.top1(),
            after.top1()
        );
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    /// The central determinism contract: the arena/pool path produces
    /// byte-identical trained weights and reports to the seed-era
    /// per-sample-allocation reference, at every worker count.
    #[test]
    fn pool_is_bit_identical_to_reference_at_any_worker_count() {
        let data = toy_problem(8, 12);
        let refs = toy_refs(&data);
        let base = Network::new(NetworkConfig::tiny(8, 2)).unwrap();

        let mut reference_net = base.clone();
        let mut reference_opt = Optimizer::adam(2e-3);
        let mut reference_rng = Rng::seed_from_u64(41);
        let mut reference_reports = Vec::new();
        for _ in 0..3 {
            reference_reports.push(
                train_epoch_reference(
                    &mut reference_net,
                    &refs,
                    &mut reference_opt,
                    &TrainOptions {
                        batch_size: 5,
                        parallelism: 1,
                        ..TrainOptions::default()
                    },
                    &mut reference_rng,
                )
                .unwrap(),
            );
        }

        for workers in [1usize, 2, 4] {
            let mut net = base.clone();
            let mut opt = Optimizer::adam(2e-3);
            let mut rng = Rng::seed_from_u64(41);
            let mut scratch = TrainScratch::new();
            let options = TrainOptions {
                batch_size: 5,
                parallelism: workers,
                ..TrainOptions::default()
            };
            let mut reports = Vec::new();
            for _ in 0..3 {
                reports.push(
                    train_epoch_with(&mut net, &refs, &mut opt, &options, &mut rng, &mut scratch)
                        .unwrap(),
                );
            }
            assert_eq!(
                net, reference_net,
                "{workers}-worker weights must be byte-identical to the reference path"
            );
            assert_eq!(
                reports, reference_reports,
                "{workers}-worker reports must equal the reference path"
            );
        }
    }

    /// A scratch survives a phase switch (different `from_stage`): buffers
    /// are re-shaped, results stay correct.
    #[test]
    fn scratch_reuse_across_phases() {
        let data = toy_problem(4, 10);
        let refs = toy_refs(&data);
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut scratch = TrainScratch::new();

        let mut opt = Optimizer::adam(1e-3);
        let mut rng = Rng::seed_from_u64(3);
        let options = TrainOptions::default();
        train_epoch_with(&mut net, &refs, &mut opt, &options, &mut rng, &mut scratch).unwrap();

        // Stage-1 phase on captured activations, same scratch.
        let acts: Vec<(SpikeRaster, u16)> = data
            .iter()
            .map(|(r, l)| (net.activations_at(1, r).unwrap(), *l))
            .collect();
        let act_refs = toy_refs(&acts);
        let frozen_before = net.layer(0).w_ff().clone();
        let mut opt1 = Optimizer::adam(1e-2);
        let options1 = TrainOptions {
            from_stage: 1,
            ..TrainOptions::default()
        };
        let report = train_epoch_with(
            &mut net,
            &act_refs,
            &mut opt1,
            &options1,
            &mut rng,
            &mut scratch,
        )
        .unwrap();
        assert!(report.mean_loss.is_finite());
        assert_eq!(
            net.layer(0).w_ff(),
            &frozen_before,
            "frozen layer untouched"
        );
    }

    #[test]
    fn incremental_trainer_matches_fresh_scratch_runs_bit_exactly() {
        let data = toy_problem(4, 10);
        let refs = toy_refs(&data);
        let options = TrainOptions {
            parallelism: 2,
            batch_size: 4,
            ..TrainOptions::default()
        };

        // Two increments through one IncrementalTrainer (arenas reused)...
        let mut incremental = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut trainer = IncrementalTrainer::new();
        let mut rng = Rng::seed_from_u64(17);
        let a = trainer
            .run_increment(&mut incremental, &refs, 1e-3, 3, &options, &mut rng)
            .unwrap();
        let b = trainer
            .run_increment(&mut incremental, &refs, 5e-4, 2, &options, &mut rng)
            .unwrap();
        assert_eq!(trainer.increments(), 2);
        assert_eq!(a.epoch_losses.len(), 3);
        assert_eq!(b.epoch_losses.len(), 2);
        assert_eq!(a.samples, refs.len());
        assert!(a.activity.is_some());

        // ...must be byte-identical to fresh optimizer + fresh scratch
        // epoch loops (the increment abstraction adds no drift).
        let mut manual = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut rng = Rng::seed_from_u64(17);
        for (lr, epochs) in [(1e-3, 3), (5e-4, 2)] {
            let mut opt = Optimizer::adam(lr);
            let mut scratch = TrainScratch::new();
            for _ in 0..epochs {
                train_epoch_with(
                    &mut manual,
                    &refs,
                    &mut opt,
                    &options,
                    &mut rng,
                    &mut scratch,
                )
                .unwrap();
            }
        }
        assert_eq!(incremental, manual);
    }

    #[test]
    fn incremental_trainer_reuses_arenas_across_stage_switches() {
        // Pretrain from stage 0, then a CL increment from stage 1 on
        // captured activations — one trainer carries both.
        let data = toy_problem(4, 10);
        let refs = toy_refs(&data);
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut trainer = IncrementalTrainer::new();
        let mut rng = Rng::seed_from_u64(23);
        trainer
            .run_increment(&mut net, &refs, 1e-3, 2, &TrainOptions::default(), &mut rng)
            .unwrap();
        let acts: Vec<(SpikeRaster, u16)> = data
            .iter()
            .map(|(r, l)| (net.activations_at(1, r).unwrap(), *l))
            .collect();
        let act_refs = toy_refs(&acts);
        let frozen_before = net.layer(0).w_ff().clone();
        let stage1 = TrainOptions {
            from_stage: 1,
            ..TrainOptions::default()
        };
        let outcome = trainer
            .run_increment(&mut net, &act_refs, 1e-4, 2, &stage1, &mut rng)
            .unwrap();
        assert!(outcome.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(net.layer(0).w_ff(), &frozen_before, "frozen layer intact");
        assert_eq!(trainer.increments(), 2);
    }

    #[test]
    fn pool_surfaces_per_sample_errors() {
        // A raster with the wrong width fails inside a worker; the error
        // must propagate out of the epoch instead of hanging the pool.
        let good = toy_problem(4, 10);
        let bad = SpikeRaster::new(5, 10);
        let mut refs = toy_refs(&good);
        refs.push((&bad, 0));
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut opt = Optimizer::adam(1e-3);
        let mut rng = Rng::seed_from_u64(9);
        let options = TrainOptions {
            parallelism: 2,
            batch_size: 4,
            ..TrainOptions::default()
        };
        assert!(train_epoch(&mut net, &refs, &mut opt, &options, &mut rng).is_err());
    }

    #[test]
    fn training_from_partial_stage_only_touches_learning_layers() {
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let data = toy_problem(4, 10);
        // Capture activations at stage 1, train stages 2.. on them.
        let acts: Vec<(SpikeRaster, u16)> = data
            .iter()
            .map(|(r, l)| (net.activations_at(1, r).unwrap(), *l))
            .collect();
        let refs = toy_refs(&acts);

        let frozen_before = net.layer(0).w_ff().clone();
        let learn_before = net.layer(1).w_ff().clone();
        let mut opt = Optimizer::adam(1e-2);
        let options = TrainOptions {
            from_stage: 1,
            ..TrainOptions::default()
        };
        let mut rng = Rng::seed_from_u64(9);
        train_epoch(&mut net, &refs, &mut opt, &options, &mut rng).unwrap();

        assert_eq!(
            net.layer(0).w_ff(),
            &frozen_before,
            "frozen layer untouched"
        );
        assert_ne!(net.layer(1).w_ff(), &learn_before, "learning layer updated");
    }

    #[test]
    fn adaptive_mode_trains_without_error() {
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let data = toy_problem(4, 10);
        let refs = toy_refs(&data);
        let mut opt = Optimizer::adam(1e-3);
        let options = TrainOptions {
            threshold_mode: ThresholdMode::Adaptive(crate::adaptive::AdaptivePolicy::default()),
            ..TrainOptions::default()
        };
        let mut rng = Rng::seed_from_u64(11);
        let report = train_epoch(&mut net, &refs, &mut opt, &options, &mut rng).unwrap();
        assert!(report.mean_loss.is_finite());
        let acc = evaluate(
            &net,
            &refs,
            0,
            ThresholdMode::Adaptive(crate::adaptive::AdaptivePolicy::default()),
        )
        .unwrap();
        assert!(acc.total == refs.len());
    }
}
