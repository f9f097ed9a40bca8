//! Mini-batch training and evaluation loops — the zero-allocation hot
//! path of the repo.
//!
//! The trainer is deliberately dataset-agnostic: it consumes slices of
//! `(&SpikeRaster, label)` pairs so the same loop trains on raw input
//! rasters (pre-training) and on captured latent activations (the CL
//! phase).
//!
//! # Architecture: arenas + a pool sized by measured cost
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
//! * up to `parallelism` threads compute gradients (the fan-out rule
//!   below decides how many). At one thread the calling thread computes
//!   and merges every sample itself, with no queue. Otherwise it spawns
//!   the helpers once per `train_epoch_with` call (one `thread::scope`
//!   per epoch, not per batch), and every thread takes the oldest task
//!   from one shared queue; the calling thread does so whenever the next
//!   result to merge is missing and no finished reply is waiting, and
//!   blocks only when the queue is empty. The network is shared behind an
//!   `RwLock` that the optimizer write-locks between batches;
//! * the `1/batch` mean reduction is folded into
//!   [`Optimizer::step_scaled`] (scale-at-apply), removing one O(params)
//!   sweep per batch.
//!
//! # Fan-out: a helper starts only where it pays
//!
//! Training, latent capture and evaluation run the network once per
//! sample. Each of these loops first runs its first two items (`PROBE`)
//! on the calling thread and times them, then gives the rest to as many
//! threads as `parallelism` allows whose share is still worth its cost;
//! a µs-scale loop therefore stays on the calling thread and starts no
//! thread. A thread's spawn + join costs ~26 µs on a 2-vCPU VM, so its
//! share of the whole loop must be at least `MIN_SHARE` (100 µs). A
//! training epoch's helpers also pay a queue hand-off (~5 µs) for the
//! tasks they take, batch after batch, so their share of one batch must
//! in addition be at least `MIN_BATCH_SHARE` (20 µs).
//!
//! * [`train_epoch_with`] probes the head of the first batch, merges it
//!   in order, and sizes the epoch's pool from it.
//! * [`map_chunks`] runs a loop whose passes are pure functions of their
//!   items (capture and evaluation): it splits the rest into contiguous
//!   chunks, one per thread, the calling thread taking the first.
//!   Results come back in input order, and a failure is reported as the
//!   serial loop would report it: the first failing item's error.
//!   [`evaluate_parallel`] maps the serial [`evaluate`] over such chunks
//!   and sums the counts.
//!
//! The timing decides only which thread computes an item, never what is
//! computed or in which order it is merged.
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
use std::time::{Duration, Instant};

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
    /// Most threads computing per-sample gradients, the calling thread
    /// included: an upper bound. Each epoch times its first samples and
    /// spawns helpers only when their share of the epoch and of each
    /// batch is worth the hand-off (see the module doc), so µs-scale
    /// epochs run on the calling thread alone.
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
    /// The thread that computed each sample on this arena, in order.
    #[cfg(test)]
    threads: Vec<std::thread::ThreadId>,
}

impl WorkerArena {
    fn new() -> Self {
        WorkerArena {
            history: History::empty(),
            fwd: ForwardScratch::new(),
            bptt: BpttScratch::new(),
            schedule: ThresholdSchedule::empty(),
            #[cfg(test)]
            threads: Vec::new(),
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

/// The threshold schedule a pass from `from_stage` over `raster` reads,
/// built into `out`. A readout-only pass (`from_stage == net.layers()`)
/// executes no LIF layer and so reads no threshold: the schedule is not
/// built, but an adaptive policy is still validated, so an invalid one
/// errors on every path.
fn stage_schedule<'a>(
    net: &Network,
    from_stage: usize,
    mode: ThresholdMode,
    raster: &SpikeRaster,
    out: &'a mut ThresholdSchedule,
) -> Result<Option<&'a ThresholdSchedule>, SnnError> {
    if from_stage < net.layers() {
        mode.schedule_into(raster, net.config().lif.v_threshold, out)?;
        return Ok(Some(out));
    }
    if let ThresholdMode::Adaptive(policy) = mode {
        policy.validate()?;
    }
    Ok(None)
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
    #[cfg(test)]
    arena.threads.push(std::thread::current().id());
    let schedule = stage_schedule(
        net,
        options.from_stage,
        options.threshold_mode,
        raster,
        &mut arena.schedule,
    )?;
    net.record_from_into(
        options.from_stage,
        raster,
        schedule,
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

/// Folds `more` into `acc`. Spike-activity counters are integer sums, so
/// fold order cannot affect the result.
fn fold_activity(
    acc: &mut Option<ForwardActivity>,
    more: Option<ForwardActivity>,
) -> Result<(), SnnError> {
    match (acc, more) {
        (acc @ None, more) => *acc = more,
        (Some(acc), Some(more)) => acc.merge(&more)?,
        (Some(_), None) => {}
    }
    Ok(())
}

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
    train_epoch_with_cutoffs(
        net,
        samples,
        optimizer,
        options,
        rng,
        scratch,
        Cutoffs::default(),
    )
}

/// [`train_epoch_with`] with the least shares of a helper as a parameter.
fn train_epoch_with_cutoffs(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    rng: &mut Rng,
    scratch: &mut TrainScratch,
    cutoffs: Cutoffs,
) -> Result<EpochReport, SnnError> {
    options.validate()?;
    if samples.is_empty() {
        return Ok(EpochReport {
            mean_loss: 0.0,
            samples: 0,
            activity: None,
        });
    }
    scratch.order.clear();
    scratch.order.extend(0..samples.len());
    rng.shuffle(&mut scratch.order);

    let (loss_sum, activity) = run_epoch(net, samples, optimizer, options, scratch, cutoffs)?;
    Ok(EpochReport {
        mean_loss: loss_sum / samples.len() as f32,
        samples: samples.len(),
        activity,
    })
}

/// What every thread of an epoch's pool shares: the network behind the
/// lock the driver write-locks only between batches, the samples, the
/// options and the task queue.
struct Pool<'a, 'n> {
    net: &'a RwLock<&'n mut Network>,
    samples: &'a [(&'a SpikeRaster, u16)],
    options: &'a TrainOptions,
    queue: &'a TaskQueue,
}

impl Pool<'_, '_> {
    /// Computes `task`'s sample gradient into its buffer under a read
    /// lock of the network, folding its spike activity into `activity`.
    fn run(
        &self,
        arena: &mut WorkerArena,
        task: &mut Task,
        activity: &mut Option<ForwardActivity>,
    ) -> Result<f32, SnnError> {
        let net = self.net.read();
        let (raster, label) = self.samples[task.sample_idx];
        sample_gradient_into(
            &net,
            raster,
            label,
            self.options,
            arena,
            &mut task.grads,
            activity,
        )
    }
}

/// How far an epoch has got: the shuffled-order position of the next
/// sample to compute, the loss of the open batch's merged samples, the
/// loss of the completed batches, and the spike activity of every sample
/// the calling thread computed.
#[derive(Default)]
struct Progress {
    next: usize,
    batch_loss: f32,
    loss_sum: f32,
    activity: Option<ForwardActivity>,
}

impl TrainScratch {
    /// Computes the samples from `progress.next` up to position `until`
    /// of the shuffled order on the calling thread alone (arena 0, buffer
    /// 0), merging each in order into the batch accumulator; it zeroes
    /// the accumulator as a batch opens and steps the optimizer as one
    /// closes.
    fn advance(
        &mut self,
        net: &mut Network,
        samples: &[(&SpikeRaster, u16)],
        optimizer: &mut Optimizer,
        options: &TrainOptions,
        until: usize,
        progress: &mut Progress,
    ) -> Result<(), SnnError> {
        let total = self.total.as_mut().expect("prepared by run_epoch");
        let grads = &mut self.free_grads[0];
        while progress.next < until {
            let opened = progress.next - progress.next % options.batch_size;
            let closes = (opened + options.batch_size).min(self.order.len());
            if progress.next == opened {
                total.zero_fill();
                progress.batch_loss = 0.0;
            }
            let (raster, label) = samples[self.order[progress.next]];
            progress.batch_loss += sample_gradient_into(
                net,
                raster,
                label,
                options,
                &mut self.arenas[0],
                grads,
                &mut progress.activity,
            )?;
            total.accumulate(grads)?;
            progress.next += 1;
            if progress.next == closes {
                optimizer.step_scaled(net, total, 1.0 / (closes - opened) as f32)?;
                progress.loss_sum += progress.batch_loss;
            }
        }
        Ok(())
    }
}

/// The epoch body. The calling thread first computes the epoch's first
/// `PROBE` samples alone and times them; [`Cutoffs::workers`] turns that
/// into the epoch's thread count. At one thread it computes the rest
/// alone as well. Otherwise `workers` threads compute the remaining
/// sample gradients into recycled buffers — the calling thread on arena
/// 0 and `workers − 1` helpers on the others. The calling thread merges
/// results strictly in batch order (out-of-order completions wait in
/// `scratch.pending`), so the weights do not depend on which thread
/// computed a sample, then write-locks the network for the optimizer
/// step.
fn run_epoch(
    net: &mut Network,
    samples: &[(&SpikeRaster, u16)],
    optimizer: &mut Optimizer,
    options: &TrainOptions,
    scratch: &mut TrainScratch,
    cutoffs: Cutoffs,
) -> Result<(f32, Option<ForwardActivity>), SnnError> {
    let max_batch = options.batch_size.min(samples.len());
    let probe = PROBE.min(samples.len());
    scratch.prepare(net, options.from_stage, 1, 1)?;
    let mut progress = Progress::default();
    let started = Instant::now();
    scratch.advance(net, samples, optimizer, options, probe, &mut progress)?;
    let per_item = started.elapsed() / probe as u32;
    let workers = cutoffs.workers(
        per_item,
        samples.len() - probe,
        max_batch,
        options.parallelism,
    );
    if workers == 1 {
        scratch.advance(
            net,
            samples,
            optimizer,
            options,
            samples.len(),
            &mut progress,
        )?;
        return Ok((progress.loss_sum, progress.activity));
    }
    scratch.prepare(
        net,
        options.from_stage,
        workers,
        (2 * workers).min(max_batch),
    )?;

    let TrainScratch {
        arenas,
        free_grads,
        total,
        order,
        pending,
    } = scratch;
    let total = total.as_mut().expect("prepared above");
    let (own_arena, helper_arenas) = arenas[..workers].split_first_mut().expect("prepared above");
    let net_lock = RwLock::new(net);
    let queue = TaskQueue::new();
    let pool = Pool {
        net: &net_lock,
        samples,
        options,
        queue: &queue,
    };

    let outcome = thread::scope(
        |scope| -> Result<(f32, Option<ForwardActivity>), SnnError> {
            let (reply_tx, reply_rx) = mpsc::channel::<TaskReply>();
            let mut handles = Vec::with_capacity(helper_arenas.len());
            for arena in helper_arenas.iter_mut() {
                let reply_tx = reply_tx.clone();
                let pool = &pool;
                handles.push(scope.spawn(move |_| worker_loop(pool, arena, &reply_tx)));
            }
            drop(reply_tx); // the driver only receives

            let driven = drive_batches(
                &pool, own_arena, optimizer, order, progress, total, free_grads, pending, &reply_rx,
            );

            // Close the task queue so every helper drains and exits (the
            // scope joins them on the error path), then fold their
            // activity into the driver's.
            queue.close();
            let (loss_sum, mut activity) = driven?;
            for handle in handles {
                fold_activity(
                    &mut activity,
                    handle.join().expect("training worker panicked"),
                )?;
            }
            Ok((loss_sum, activity))
        },
    )
    .expect("training pool scope panicked");
    outcome
}

/// The per-batch dispatch/compute/merge loop of the calling thread,
/// returning the epoch's loss sum and the spike activity of the samples
/// it computed itself. It takes the epoch over from `progress`: a batch
/// left open resumes after its merged samples. Whenever the next result
/// in batch order is missing, the calling thread takes a finished reply
/// if there is one, else computes the oldest queued task on its own
/// arena, and blocks only when the queue is empty (a helper holds the
/// missing task).
#[allow(clippy::too_many_arguments)]
fn drive_batches(
    pool: &Pool<'_, '_>,
    arena: &mut WorkerArena,
    optimizer: &mut Optimizer,
    order: &[usize],
    progress: Progress,
    total: &mut Gradients,
    free_grads: &mut Vec<Gradients>,
    pending: &mut Vec<Option<(f32, Gradients)>>,
    reply_rx: &mpsc::Receiver<TaskReply>,
) -> Result<(f32, Option<ForwardActivity>), SnnError> {
    let batch_size = pool.options.batch_size;
    let Progress {
        next,
        batch_loss: open_loss,
        mut loss_sum,
        mut activity,
    } = progress;
    let batches = (0..).step_by(batch_size).zip(order.chunks(batch_size));
    for (opened, batch) in batches.skip(next / batch_size) {
        let (mut next_merge, mut batch_loss) = if opened < next {
            (next - opened, open_loss)
        } else {
            total.zero_fill();
            (0, 0.0)
        };
        pending.clear();
        pending.resize_with(batch.len(), || None);
        let mut dispatched = next_merge;

        loop {
            // Merge every result that is next in batch order.
            while let Some((loss, grads)) = pending.get_mut(next_merge).and_then(Option::take) {
                batch_loss += loss;
                total.accumulate(&grads)?;
                free_grads.push(grads);
                next_merge += 1;
            }
            if next_merge == batch.len() {
                break;
            }
            // Dispatch while recycled buffers are available; backpressure
            // otherwise (in-flight tasks hold the missing buffers).
            while dispatched < batch.len() {
                let Some(grads) = free_grads.pop() else {
                    break;
                };
                pool.queue.push(Task {
                    pos: dispatched,
                    sample_idx: batch[dispatched],
                    grads,
                });
                dispatched += 1;
            }
            let (pos, loss, grads) = match reply_rx.try_recv() {
                Ok(reply) => reply?,
                Err(_) => match pool.queue.try_pop() {
                    Some(mut task) => {
                        let loss = pool.run(arena, &mut task, &mut activity)?;
                        (task.pos, loss, task.grads)
                    }
                    None => reply_rx.recv().map_err(|_| pool_hangup())??,
                },
            };
            pending[pos] = Some((loss, grads));
        }

        let mut net = pool.net.write();
        optimizer.step_scaled(&mut net, total, 1.0 / batch.len() as f32)?;
        drop(net);
        loss_sum += batch_loss;
    }
    Ok((loss_sum, activity))
}

/// Shared work queue of the pool: any idle thread, helper or driver,
/// takes the oldest queued task (no per-worker pinning, so a slow worker
/// never blocks work that an idle one could do). Determinism is
/// unaffected — the driver merges results strictly in batch order
/// regardless of which thread computed them.
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

    /// The oldest queued task, without blocking (the driver's pop).
    fn try_pop(&self) -> Option<Task> {
        self.state
            .lock()
            .expect("task queue poisoned")
            .tasks
            .pop_front()
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

/// A pool helper: pulls tasks from the shared queue until it closes and
/// replies with each result. Returns the helper's accumulated spike
/// activity. On the first error the helper reports it through the reply
/// channel and exits; its remaining queued work is picked up by the
/// other threads.
fn worker_loop(
    pool: &Pool<'_, '_>,
    arena: &mut WorkerArena,
    reply_tx: &mpsc::Sender<TaskReply>,
) -> Option<ForwardActivity> {
    let mut activity: Option<ForwardActivity> = None;
    while let Some(mut task) = pool.queue.pop() {
        match pool.run(arena, &mut task, &mut activity) {
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
            fold_activity(&mut activity, Some(sample_activity))?;
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
        fold_activity(&mut activity, chunk_activity)?;
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
        fold_activity(&mut activity, batch_activity)?;
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
}

/// A trainer that persists across continual-learning increments: every
/// CL phase of the workspace runs through it — the offline scenario and
/// sequence drivers, the online learner and the serving example (all via
/// `replay4ncl::phases::increment`), and pre-training too.
///
/// A caller that runs many increments would otherwise allocate fresh
/// worker arenas for each, reintroducing the per-phase allocation cost
/// the [`TrainScratch`] rework removed. This wrapper owns one scratch and
/// reuses it for every increment (arenas are reshaped, not reallocated,
/// when the stage or architecture changes), while the *optimizer* is
/// fresh per increment — Alg. 1 starts every CL phase from a clean Adam
/// state at the reduced learning rate, and carrying first/second-moment
/// estimates across increments would leak one increment's gradient
/// history into the next.
///
/// Results are byte-identical to running the same epochs through
/// [`train_epoch_with`] with a fresh scratch (the unit tests below pin
/// this), so increments remain worker-count invariant.
#[derive(Debug, Default)]
pub struct IncrementalTrainer {
    scratch: TrainScratch,
    cutoffs: Cutoffs,
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

    /// Runs one increment: `epochs` epochs over `samples` with a fresh
    /// Adam optimizer at `lr`, reusing this trainer's arenas. After each
    /// epoch, `observe` sees the trained network and the epoch's report
    /// (its loss and spike activity); it runs after the epoch's wall time
    /// is recorded, so `snn_train_epoch_us` times the epoch alone.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError`] on invalid options, shape mismatches or label
    /// range violations, and the first error `observe` returns.
    #[allow(clippy::too_many_arguments)]
    pub fn run_increment(
        &mut self,
        net: &mut Network,
        samples: &[(&SpikeRaster, u16)],
        lr: f32,
        epochs: usize,
        options: &TrainOptions,
        rng: &mut Rng,
        mut observe: impl FnMut(&Network, &EpochReport) -> Result<(), SnnError>,
    ) -> Result<IncrementOutcome, SnnError> {
        let mut optimizer = Optimizer::adam(lr);
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let epoch_started = std::time::Instant::now();
            let report = train_epoch_with_cutoffs(
                net,
                samples,
                &mut optimizer,
                options,
                rng,
                &mut self.scratch,
                self.cutoffs,
            )?;
            if let Some(hist) = &self.epoch_us {
                hist.record(epoch_started.elapsed().as_micros() as u64);
            }
            if let Some(total) = &self.epochs_total {
                total.inc();
            }
            observe(net, &report)?;
            epoch_losses.push(report.mean_loss);
        }
        Ok(IncrementOutcome {
            epoch_losses,
            samples: samples.len(),
        })
    }
}

/// Evaluates Top-1 accuracy of the network (executed from `from_stage`)
/// over labeled rasters, serially: the per-chunk kernel of
/// [`evaluate_parallel`]. One forward scratch, logits buffer and
/// threshold schedule serve every sample, so the loop allocates nothing
/// per sample once they are warm.
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
    let mut buffer = ThresholdSchedule::empty();
    let mut scratch = ForwardScratch::new();
    let mut logits = Vec::new();
    let mut acc = Accuracy::default();
    for &(raster, label) in samples {
        let schedule = stage_schedule(net, from_stage, threshold_mode, raster, &mut buffer)?;
        net.forward_from_into(from_stage, raster, schedule, &mut scratch, &mut logits)?;
        let pred = ncl_tensor::ops::argmax(&logits).expect("non-empty logits");
        acc.total += 1;
        if pred == label as usize {
            acc.correct += 1;
        }
    }
    Ok(acc)
}

/// [`evaluate`] mapped over chunks of `samples` on up to `parallelism`
/// threads by [`map_chunks`]. The chunk counts are integer sums, so the
/// result equals the serial [`evaluate`] at every `parallelism`.
///
/// # Errors
///
/// The error [`evaluate`] would return over all of `samples`.
pub fn evaluate_parallel(
    net: &Network,
    samples: &[(&SpikeRaster, u16)],
    from_stage: usize,
    threshold_mode: ThresholdMode,
    parallelism: usize,
) -> Result<Accuracy, SnnError> {
    let parts = map_chunks(samples, parallelism, |chunk| {
        evaluate(net, chunk, from_stage, threshold_mode)
    })?;
    let mut acc = Accuracy::default();
    for part in parts {
        acc.merge(part);
    }
    Ok(acc)
}

/// The least work worth handing to a helper thread of [`map_chunks`] or
/// of a training epoch. Spawning and joining one scoped thread costs
/// ~26 µs (median of 2,000 on a 2-vCPU VM); a share of four times that
/// keeps the start-up under a quarter of what the helper computes, and
/// its timing noise out of µs-scale loops.
const MIN_SHARE: Duration = Duration::from_micros(100);

/// The least work per batch worth handing to each helper of a training
/// epoch. A task's queue hand-off — push, wake-up and the reply carrying
/// its gradient buffer — takes ~5 µs (median of 2,000 round trips on a
/// 2-vCPU VM, with a 1,020-float buffer: the `paper` readout's), and a
/// helper pays at least one per batch; a share of four times that keeps
/// the hand-offs under a quarter of what the helper computes.
const MIN_BATCH_SHARE: Duration = Duration::from_micros(20);

/// The least shares of a helper that make a training epoch start it.
#[derive(Debug, Clone, Copy)]
struct Cutoffs {
    /// Over the whole epoch: the helper's spawn is paid once per epoch.
    epoch: Duration,
    /// Over one batch: the hand-offs are paid in every batch.
    batch: Duration,
}

impl Default for Cutoffs {
    fn default() -> Self {
        Cutoffs {
            epoch: MIN_SHARE,
            batch: MIN_BATCH_SHARE,
        }
    }
}

impl Cutoffs {
    /// Both cut-offs at zero: any epoch with work for a helper starts it.
    #[cfg(test)]
    const NONE: Cutoffs = Cutoffs {
        epoch: Duration::ZERO,
        batch: Duration::ZERO,
    };

    /// The threads an epoch runs on when each sample costs `per_item`,
    /// `rest` samples remain after the probe and batches hold up to
    /// `max_batch`: the fewer of what [`fan_out`] grants over the epoch
    /// and over one batch.
    fn workers(
        self,
        per_item: Duration,
        rest: usize,
        max_batch: usize,
        parallelism: usize,
    ) -> usize {
        fan_out(per_item, rest, parallelism, self.epoch).min(fan_out(
            per_item,
            max_batch,
            parallelism,
            self.batch,
        ))
    }
}

/// Items [`map_chunks`] and a training epoch time on the calling thread
/// before they decide on a fan-out. Two rather than one: the first item
/// of a loop also pays for its set-up and a cold cache, and alone it
/// reads ~1.7× the steady per-item time (2.7 vs 1.6 µs in the `edge`
/// per-epoch evaluation).
const PROBE: usize = 2;

/// Maps `f` over contiguous chunks of `items` on up to `parallelism`
/// threads, the calling thread included, and returns one result per
/// chunk, in input order. `f` must be a serial loop over its chunk that
/// stops at the chunk's first failing item.
///
/// The calling thread first runs `f` on the first two items alone and
/// times them; that sizes the fan-out. The remaining items are split
/// into as many equal chunks as there are threads whose share is still
/// worth `MIN_SHARE`, 100 µs (at most `parallelism`, and never more
/// than the items): the calling thread takes the first chunk, scoped
/// threads the others.
/// When a second thread's share would not be worth it, the rest runs as
/// one chunk on the calling thread and no thread is started. The timing
/// decides only which thread computes an item, never what `f` returns
/// for it, so a caller that concatenates the chunk results, or merges
/// them order-independently, gets the same answer at every
/// `parallelism`.
///
/// # Errors
///
/// The error of the first failing item in input order: the one the
/// serial loop `f(items)` returns.
///
/// # Panics
///
/// Propagates a panic of `f` on any thread.
pub fn map_chunks<T, R, E, F>(items: &[T], parallelism: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&[T]) -> Result<R, E> + Sync,
{
    map_chunks_with(items, parallelism, MIN_SHARE, f)
}

/// [`map_chunks`] with the least share of a helper thread as a
/// parameter.
fn map_chunks_with<T, R, E, F>(
    items: &[T],
    parallelism: usize,
    min_share: Duration,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&[T]) -> Result<R, E> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    if parallelism <= 1 {
        return Ok(vec![f(items)?]);
    }
    let (probe, rest) = items.split_at(PROBE.min(items.len()));
    let started = Instant::now();
    let mut out = vec![f(probe)?];
    if rest.is_empty() {
        return Ok(out);
    }
    let per_item = started.elapsed() / probe.len() as u32;
    let workers = fan_out(per_item, rest.len(), parallelism, min_share);
    if workers == 1 {
        out.push(f(rest)?);
        return Ok(out);
    }
    let chunk = rest.len().div_ceil(workers);
    let (own, others) = rest.split_at(chunk);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = others
            .chunks(chunk)
            .map(|part| scope.spawn(move |_| f(part)))
            .collect();
        // The calling thread's chunk precedes every spawned one, so its
        // error is the earlier one; the scope joins the helpers on that
        // early return.
        out.push(f(own)?);
        for handle in handles {
            out.push(handle.join().expect("chunk worker panicked")?);
        }
        Ok(out)
    })
    .expect("chunk scope panicked")
}

/// How many threads should share `rest` items of `per_item` work each:
/// as many as `parallelism` allows whose share is still worth
/// `min_share`, never more than the items, and at least one.
fn fan_out(per_item: Duration, rest: usize, parallelism: usize, min_share: Duration) -> usize {
    let work = per_item.as_nanos().saturating_mul(rest as u128);
    let worth = work
        .checked_div(min_share.as_nanos())
        .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
    parallelism.min(rest).min(worth).max(1)
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
    /// per-sample-allocation reference, at every worker count, whether
    /// the epochs fan out or stay on the calling thread — also when the
    /// probe closes a batch (batch size 1 or 2) or leaves one open.
    #[test]
    fn pool_is_bit_identical_to_reference_at_any_worker_count() {
        let data = toy_problem(8, 12);
        let refs = toy_refs(&data);
        let base = Network::new(NetworkConfig::tiny(8, 2)).unwrap();

        for batch_size in [1usize, 2, 5] {
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
                            batch_size,
                            parallelism: 1,
                            ..TrainOptions::default()
                        },
                        &mut reference_rng,
                    )
                    .unwrap(),
                );
            }

            for (workers, cutoffs) in [1usize, 2, 4]
                .into_iter()
                .flat_map(|w| [(w, Cutoffs::NONE), (w, Cutoffs::default())])
            {
                let mut net = base.clone();
                let mut opt = Optimizer::adam(2e-3);
                let mut rng = Rng::seed_from_u64(41);
                let mut scratch = TrainScratch::new();
                let options = TrainOptions {
                    batch_size,
                    parallelism: workers,
                    ..TrainOptions::default()
                };
                let mut reports = Vec::new();
                for _ in 0..3 {
                    reports.push(
                        train_epoch_with_cutoffs(
                            &mut net,
                            &refs,
                            &mut opt,
                            &options,
                            &mut rng,
                            &mut scratch,
                            cutoffs,
                        )
                        .unwrap(),
                    );
                }
                let tag = format!("{workers} workers, batch {batch_size}, {cutoffs:?}");
                if cutoffs.epoch.is_zero() {
                    assert_eq!(scratch.arenas.len(), workers.min(batch_size), "{tag}");
                }
                assert_eq!(net, reference_net, "weights: {tag}");
                assert_eq!(reports, reference_reports, "reports: {tag}");
            }
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

    /// An increment observer that watches nothing.
    fn unobserved(_: &Network, _: &EpochReport) -> Result<(), SnnError> {
        Ok(())
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
        let mut trainer = IncrementalTrainer {
            cutoffs: Cutoffs::NONE,
            ..IncrementalTrainer::new()
        };
        let mut rng = Rng::seed_from_u64(17);
        let mut observed = Vec::new();
        let a = trainer
            .run_increment(
                &mut incremental,
                &refs,
                1e-3,
                3,
                &options,
                &mut rng,
                |_, r| {
                    assert!(r.activity.is_some(), "each epoch reports its activity");
                    observed.push(r.mean_loss);
                    Ok(())
                },
            )
            .unwrap();
        let b = trainer
            .run_increment(
                &mut incremental,
                &refs,
                5e-4,
                2,
                &options,
                &mut rng,
                unobserved,
            )
            .unwrap();
        assert_eq!(a.epoch_losses.len(), 3);
        assert_eq!(
            a.epoch_losses, observed,
            "one observation per epoch, in order"
        );
        assert_eq!(b.epoch_losses.len(), 2);
        assert_eq!(a.samples, refs.len());

        // ...must be byte-identical to fresh optimizer + fresh scratch
        // epoch loops (the increment abstraction adds no drift).
        let mut manual = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut rng = Rng::seed_from_u64(17);
        for (lr, epochs) in [(1e-3, 3), (5e-4, 2)] {
            let mut opt = Optimizer::adam(lr);
            let mut scratch = TrainScratch::new();
            for _ in 0..epochs {
                train_epoch_with_cutoffs(
                    &mut manual,
                    &refs,
                    &mut opt,
                    &options,
                    &mut rng,
                    &mut scratch,
                    Cutoffs::NONE,
                )
                .unwrap();
            }
        }
        assert_eq!(trainer.scratch.arenas.len(), 2, "the pool ran 2 threads");
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
            .run_increment(
                &mut net,
                &refs,
                1e-3,
                2,
                &TrainOptions::default(),
                &mut rng,
                unobserved,
            )
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
            .run_increment(&mut net, &act_refs, 1e-4, 2, &stage1, &mut rng, unobserved)
            .unwrap();
        assert!(outcome.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(net.layer(0).w_ff(), &frozen_before, "frozen layer intact");
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
        let mut scratch = TrainScratch::new();
        let epoch = train_epoch_with_cutoffs(
            &mut net,
            &refs,
            &mut opt,
            &options,
            &mut rng,
            &mut scratch,
            Cutoffs::NONE,
        );
        assert!(epoch.is_err());
        assert_eq!(scratch.arenas.len(), 2, "the pool ran 2 threads");
    }

    /// Trains three epochs of the toy problem at parallelism 4 with
    /// `cutoffs`, returning the thread that computed each sample.
    fn train_threads(cutoffs: Cutoffs) -> Vec<std::thread::ThreadId> {
        let data = toy_problem(8, 12);
        let refs = toy_refs(&data);
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut opt = Optimizer::adam(2e-3);
        let mut rng = Rng::seed_from_u64(43);
        let mut scratch = TrainScratch::new();
        let options = TrainOptions {
            batch_size: 5,
            parallelism: 4,
            ..TrainOptions::default()
        };
        for _ in 0..3 {
            train_epoch_with_cutoffs(
                &mut net,
                &refs,
                &mut opt,
                &options,
                &mut rng,
                &mut scratch,
                cutoffs,
            )
            .unwrap();
        }
        scratch
            .arenas
            .iter()
            .flat_map(|a| a.threads.clone())
            .collect()
    }

    #[test]
    fn training_starts_no_helper_below_either_cut_off() {
        let me = std::thread::current().id();
        for cutoffs in [
            Cutoffs {
                epoch: Duration::MAX,
                ..Cutoffs::NONE
            },
            Cutoffs {
                batch: Duration::MAX,
                ..Cutoffs::NONE
            },
        ] {
            let threads = train_threads(cutoffs);
            assert_eq!(threads.len(), 3 * 16, "every sample computed once");
            assert!(threads.iter().all(|&id| id == me), "{cutoffs:?}");
        }

        // The scoped shapes, as (per-sample time, samples after the
        // probe, batch size) at parallelism 2.
        let ns = Duration::from_nanos;
        let workers = |per_item, rest, batch| Cutoffs::default().workers(per_item, rest, batch, 2);
        // `edge` Replay4NCL epochs: ~7 µs of helper work per batch.
        assert_eq!(workers(ns(3_500), 160, 4), 1);
        // Demo SpikingLR at T = 60, ~18 µs per batch: a tie, kept serial.
        assert_eq!(workers(ns(9_000), 160, 4), 1);
        // An increment with ~55 µs of helper work per epoch (the `edge`
        // learner's) stays serial on the epoch cut alone...
        assert_eq!(workers(ns(11_000), 10, 4), 1);
        assert_eq!(fan_out(ns(11_000), 4, 2, MIN_BATCH_SHARE), 2);
        // ...while `paper` Replay4NCL at T* = 40 (~44 µs per batch) and
        // demo stage-0 pre-training (~200 µs per batch) fan out.
        assert_eq!(workers(ns(5_500), 500, 16), 2);
        assert_eq!(workers(ns(100_000), 106, 4), 2);
        // Never more threads than a batch holds.
        assert_eq!(Cutoffs::default().workers(ns(100_000), 100, 3, 8), 3);
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

    /// `evaluate` reuses one scratch across samples of differing length;
    /// each verdict must still be `forward_from`'s for that sample alone.
    #[test]
    fn evaluate_matches_forward_from_per_sample() {
        let net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let mut data = toy_problem(3, 12);
        data.extend(toy_problem(2, 5));
        let base = net.config().lif.v_threshold;
        for mode in [
            ThresholdMode::Constant,
            ThresholdMode::Adaptive(crate::adaptive::AdaptivePolicy::default()),
        ] {
            for from_stage in [0, 1] {
                let inputs: Vec<SpikeRaster> = data
                    .iter()
                    .map(|(r, _)| net.activations_at(from_stage, r).unwrap())
                    .collect();
                let preds: Vec<u16> = inputs
                    .iter()
                    .map(|r| {
                        let schedule = mode.schedule_for(r, base).unwrap();
                        let logits = net.forward_from(from_stage, r, Some(&schedule)).unwrap();
                        ncl_tensor::ops::argmax(&logits).unwrap() as u16
                    })
                    .collect();
                let labelled = |shift: u16| -> Vec<(&SpikeRaster, u16)> {
                    inputs
                        .iter()
                        .zip(&preds)
                        .map(|(r, p)| (r, (p + shift) % 2))
                        .collect()
                };
                let right = evaluate(&net, &labelled(0), from_stage, mode).unwrap();
                assert_eq!((right.correct, right.total), (inputs.len(), inputs.len()));
                let wrong = evaluate(&net, &labelled(1), from_stage, mode).unwrap();
                assert_eq!((wrong.correct, wrong.total), (0, inputs.len()));
                for workers in [1usize, 2, 4] {
                    assert_eq!(
                        evaluate_parallel(&net, &labelled(0), from_stage, mode, workers).unwrap(),
                        right
                    );
                    let mut forced = Accuracy::default();
                    let parts = map_chunks_with(&labelled(1), workers, Duration::ZERO, |c| {
                        evaluate(&net, c, from_stage, mode)
                    });
                    parts.unwrap().into_iter().for_each(|p| forced.merge(p));
                    assert_eq!(forced, wrong, "fanned out over {workers} threads");
                }
            }
        }
    }

    /// Doubles each item of `chunk`, stopping at the first one in `fail`
    /// with that item as the error: the serial loop the chunk tests
    /// compare against.
    fn double_until(chunk: &[u32], fail: &[u32]) -> Result<Vec<u32>, u32> {
        chunk
            .iter()
            .map(|&x| if fail.contains(&x) { Err(x) } else { Ok(2 * x) })
            .collect()
    }

    /// `map_chunks_with` over `double_until`, flattened, with the thread
    /// that ran each chunk.
    fn chunked(
        items: &[u32],
        parallelism: usize,
        min_share: Duration,
        fail: &[u32],
    ) -> (Result<Vec<u32>, u32>, Vec<std::thread::ThreadId>) {
        let threads = std::sync::Mutex::new(Vec::new());
        let out = map_chunks_with(items, parallelism, min_share, |chunk| {
            threads.lock().unwrap().push(std::thread::current().id());
            double_until(chunk, fail)
        });
        let threads = threads.into_inner().unwrap();
        (out.map(|parts| parts.concat()), threads)
    }

    #[test]
    fn map_chunks_preserves_input_order() {
        let items: Vec<u32> = (0..37).collect();
        for workers in [2usize, 3, 4] {
            let (out, threads) = chunked(&items, workers, Duration::ZERO, &[]);
            assert_eq!(out, double_until(&items, &[]));
            let distinct: std::collections::HashSet<_> = threads.iter().collect();
            assert_eq!(distinct.len(), workers, "{workers} threads share the work");
            assert_eq!(threads[0], std::thread::current().id());
        }
    }

    #[test]
    fn map_chunks_handles_empty_single_and_oversubscribed_inputs() {
        let me = std::thread::current().id();
        let (out, threads) = chunked(&[], 4, Duration::ZERO, &[]);
        assert_eq!(out, Ok(Vec::new()));
        assert!(threads.is_empty(), "no chunk for no items");

        let (out, threads) = chunked(&[5], 4, Duration::ZERO, &[]);
        assert_eq!(out, Ok(vec![10]));
        assert_eq!(threads, vec![me]);

        let (out, threads) = chunked(&[1, 2, 3], 8, Duration::ZERO, &[]);
        assert_eq!(out, Ok(vec![2, 4, 6]));
        assert!(threads.len() <= 3, "never more chunks than items");
    }

    #[test]
    fn map_chunks_starts_no_thread_below_the_cut_off() {
        let items: Vec<u32> = (0..50).collect();
        let me = std::thread::current().id();
        let (out, threads) = chunked(&items, 4, Duration::MAX, &[]);
        assert_eq!(out, double_until(&items, &[]));
        assert!(threads.iter().all(|&id| id == me));
        assert_eq!(
            map_chunks(&[] as &[u32], 4, |c| double_until(c, &[])),
            Ok(vec![])
        );

        let us = Duration::from_micros;
        // µs-scale work (an `edge`-shape loop) stays serial...
        assert_eq!(fan_out(us(2), 60, 2, MIN_SHARE), 1);
        assert_eq!(fan_out(us(60), 2, 2, MIN_SHARE), 1);
        // ...a paper-shape frozen pass over 200 samples fans out, and the
        // thread count never passes what the shares are worth.
        assert_eq!(fan_out(us(350), 199, 2, MIN_SHARE), 2);
        assert_eq!(fan_out(us(100), 3, 4, MIN_SHARE), 3);
        assert_eq!(fan_out(us(50), 5, 4, MIN_SHARE), 2);
    }

    #[test]
    fn map_chunks_returns_the_serial_loops_error() {
        // At 2 workers: items 0 and 1 are the probe, then chunks 2..=5
        // (the calling thread) and 6..=9 (a helper).
        let items: Vec<u32> = (0..10).collect();
        for fail in [&[7u32][..], &[8, 9], &[3, 8], &[1, 8], &[5, 6]] {
            let (out, threads) = chunked(&items, 2, Duration::ZERO, fail);
            assert_eq!(out, double_until(&items, fail), "failing {fail:?}");
            if fail[0] > 1 {
                assert_eq!(threads.len(), 3, "the fan-out ran ({fail:?})");
            }
        }
    }

    #[test]
    fn readout_only_passes_still_reject_an_invalid_policy() {
        // No LIF layer runs from the last stage, so no schedule is built
        // there; the policy must still be checked.
        let mut net = Network::new(NetworkConfig::tiny(8, 2)).unwrap();
        let last = net.layers();
        let acts: Vec<(SpikeRaster, u16)> = toy_problem(2, 10)
            .iter()
            .map(|(r, l)| (net.activations_at(last, r).unwrap(), *l))
            .collect();
        let refs = toy_refs(&acts);
        let invalid = ThresholdMode::Adaptive(crate::adaptive::AdaptivePolicy {
            adjust_interval: 0,
            ..crate::adaptive::AdaptivePolicy::default()
        });
        let options = TrainOptions {
            from_stage: last,
            threshold_mode: invalid,
            ..TrainOptions::default()
        };
        let mut opt = Optimizer::adam(1e-3);
        let mut rng = Rng::seed_from_u64(12);
        assert!(train_epoch(&mut net, &refs, &mut opt, &options, &mut rng).is_err());
        assert!(evaluate(&net, &refs, last, invalid).is_err());
        assert!(evaluate(&net, &refs, last, ThresholdMode::Constant).is_ok());
    }
}
