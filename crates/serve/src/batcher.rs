//! The micro-batching scheduler.
//!
//! Inference requests are pushed onto a [`ShardedQueue`] (the same
//! sharded work-stealing structure the experiment engine uses, in its
//! streaming form); a pool of worker threads collects them into batches
//! of up to `batch_size`, waiting at most `max_wait` after the first
//! request before running a partial batch, executes **one** batched
//! forward pass ([`ncl_snn::Network::forward_batch`]) against an `Arc`
//! snapshot of the current model, and fans the results back to the
//! per-request reply channels.
//!
//! Latency/throughput trade: a larger `batch_size` amortizes scratch
//! buffers and model-snapshot overhead across requests; `max_wait` caps
//! the queueing delay a sparse request stream can suffer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ncl_obs::{TraceContext, Tracer};
use ncl_runtime::queue::ShardedQueue;
use ncl_spike::SpikeRaster;
use ncl_tensor::ops;

use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::registry::ModelRegistry;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum requests folded into one forward pass.
    pub batch_size: usize,
    /// Longest a queued request waits for companions before a partial
    /// batch runs.
    pub max_wait: Duration,
    /// Worker threads executing batches.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_size: 8,
            max_wait: Duration::from_micros(500),
            workers: 2,
        }
    }
}

/// One answered predict request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReply {
    /// Readout logits.
    pub logits: Vec<f32>,
    /// Argmax class.
    pub prediction: usize,
    /// Version of the model that served the request.
    pub model_version: u64,
}

/// Receiver for one submitted request's reply.
pub type ReplyReceiver = mpsc::Receiver<Result<PredictReply, ServeError>>;

struct PendingRequest {
    raster: SpikeRaster,
    enqueued: Instant,
    reply: mpsc::Sender<Result<PredictReply, ServeError>>,
    /// Trace context of the request's accept span, if the request
    /// carried one — the batcher records its queue-wait and forward
    /// spans as children of that accept span.
    trace: Option<TraceContext>,
}

/// Per-request state carried from batch formation to reply fan-out.
type ReplySlot = (
    mpsc::Sender<Result<PredictReply, ServeError>>,
    Instant,
    Option<TraceContext>,
);

/// The micro-batching scheduler + its worker pool.
pub struct Batcher {
    queue: ShardedQueue<PendingRequest>,
    /// Wakeup channel: producers notify under the mutex, workers re-check
    /// the queue under the same mutex before sleeping, so no wakeup is
    /// lost.
    signal: (Mutex<()>, Condvar),
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    /// Phase 1 of shutdown: no new submissions; workers drain then exit.
    draining: AtomicBool,
    /// Phase 2 of shutdown: workers are joined — anything still queued is
    /// stranded and must be reaped (by shutdown's sweep or by the racing
    /// submitter itself).
    terminated: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Trace recorder for queue-wait/forward spans (absent in detached
    /// test setups that never trace).
    tracer: Option<Arc<Tracer>>,
}

impl Batcher {
    /// Starts the scheduler: spawns `config.workers` worker threads
    /// (clamped to at least 1) serving batches from the queue.
    ///
    /// # Errors
    ///
    /// Returns the OS error if a worker thread cannot be spawned; any
    /// workers that did start are shut down before returning.
    pub fn start(
        registry: Arc<ModelRegistry>,
        metrics: Arc<Metrics>,
        config: BatchConfig,
    ) -> std::io::Result<Arc<Self>> {
        Batcher::start_traced(registry, metrics, config, None)
    }

    /// Like [`Batcher::start`], but with a tracer: requests submitted
    /// with a trace context get `queue_wait` and `forward` child spans
    /// recorded into it.
    ///
    /// # Errors
    ///
    /// Returns the OS error if a worker thread cannot be spawned.
    pub(crate) fn start_traced(
        registry: Arc<ModelRegistry>,
        metrics: Arc<Metrics>,
        mut config: BatchConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<Arc<Self>> {
        config.workers = config.workers.max(1);
        config.batch_size = config.batch_size.max(1);
        let batcher = Arc::new(Batcher {
            queue: ShardedQueue::empty(config.workers),
            signal: (Mutex::new(()), Condvar::new()),
            registry,
            metrics,
            config,
            draining: AtomicBool::new(false),
            terminated: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            tracer,
        });
        let mut handles = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let b = Arc::clone(&batcher);
            let spawned = std::thread::Builder::new()
                .name(format!("ncl-serve-worker-{worker}"))
                .spawn(move || b.worker_loop(worker));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Wind down the workers that did start before
                    // surfacing the spawn failure.
                    *batcher.workers_guard() = handles;
                    batcher.shutdown();
                    return Err(e);
                }
            }
        }
        *batcher.workers_guard() = handles;
        Ok(batcher)
    }

    /// The signal mutex, recovering from poison: the guarded unit value
    /// has no state to corrupt, so a panicked holder is harmless.
    fn signal_guard(&self) -> MutexGuard<'_, ()> {
        self.signal.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker-handle list, recovering from poison (the list is
    /// always a valid Vec).
    fn workers_guard(&self) -> MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The scheduler configuration in effect.
    #[must_use]
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Submits one raster for inference; the reply arrives on the
    /// returned channel once its batch ran.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once draining has begun.
    pub fn submit(&self, raster: SpikeRaster) -> Result<ReplyReceiver, ServeError> {
        self.submit_traced(raster, None)
    }

    /// Like [`Batcher::submit`], but carrying the trace context of the
    /// request's accept span: the batch worker records `queue_wait`
    /// (enqueue to claim) and `forward` (the batched forward pass,
    /// linked to co-batched requests) spans as its children.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once draining has begun.
    pub(crate) fn submit_traced(
        &self,
        raster: SpikeRaster,
        trace: Option<TraceContext>,
    ) -> Result<ReplyReceiver, ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        // The push itself is uncontended (per-shard mutex) — producers
        // only share the signal mutex for the notify below, keeping the
        // request hot path scalable.
        // Count before push so the gauge bounds the true depth from
        // above (a worker can pop the item the instant it lands).
        self.metrics.queue_depth().add(1);
        self.queue.push(PendingRequest {
            raster,
            enqueued: Instant::now(),
            reply: tx,
            trace,
        });
        {
            // Notify under the lock: a worker only sleeps after
            // re-checking the queue while holding it, so the wakeup
            // cannot be lost.
            let _guard = self.signal_guard();
            self.signal.1.notify_one();
        }
        // Stranded-submission guard: if the push raced past a completed
        // shutdown (workers joined — `terminated` set), nothing will ever
        // pop it. SeqCst gives a total order: reading `terminated ==
        // false` here means the push landed before shutdown's final
        // sweep, which therefore reaps it; reading `true` means we reap
        // the leftovers ourselves (pops are atomic, so a concurrent
        // sweep and this loop each answer any item at most once).
        if self.terminated.load(Ordering::SeqCst) {
            self.reap_stranded();
        }
        Ok(rx)
    }

    /// Stops accepting work, drains every queued request, and joins the
    /// workers.
    pub fn shutdown(&self) {
        {
            let _guard = self.signal_guard();
            self.draining.store(true, Ordering::SeqCst);
            self.signal.1.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers_guard());
        for handle in handles {
            let _ = handle.join();
        }
        // Workers drained everything submitted before `draining`; the
        // sweep answers any straggler that raced into the queue since.
        // Order matters: `terminated` is set *before* the sweep so a
        // racing submitter either sees it (and reaps its own item) or
        // pushed early enough for this sweep to see the item.
        self.terminated.store(true, Ordering::SeqCst);
        self.reap_stranded();
    }

    /// Answers every queued request with [`ServeError::ShuttingDown`].
    /// Only called once workers are gone.
    fn reap_stranded(&self) {
        for leftover in self.queue.pop_batch(0, usize::MAX) {
            let _ = leftover.reply.send(Err(ServeError::ShuttingDown));
            self.metrics.queue_depth().sub(1);
            self.metrics.record_failure();
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            // Phase 1: block until at least one request is available (or
            // drain + empty queue means exit).
            let first = loop {
                if let Some(item) = self.queue.pop(worker) {
                    break item;
                }
                if self.draining.load(Ordering::Acquire) {
                    return;
                }
                let guard = self.signal_guard();
                if self.queue.is_empty() && !self.draining.load(Ordering::Acquire) {
                    // The timeout is a belt-and-braces backstop; the
                    // notify-under-lock protocol makes missed wakeups
                    // impossible in the common path.
                    let _ = self.signal.1.wait_timeout(guard, Duration::from_millis(25));
                }
            };

            // Phase 2: top the batch up until full or max_wait expires.
            let deadline = first.enqueued + self.config.max_wait;
            let mut batch = vec![first];
            while batch.len() < self.config.batch_size {
                let room = self.config.batch_size - batch.len();
                let more = self.queue.pop_batch(worker, room);
                if !more.is_empty() {
                    batch.extend(more);
                    continue;
                }
                let now = Instant::now();
                if now >= deadline || self.draining.load(Ordering::Acquire) {
                    break;
                }
                let guard = self.signal_guard();
                if self.queue.is_empty() {
                    let _ = self.signal.1.wait_timeout(guard, deadline - now);
                }
            }

            self.run_batch(batch);
        }
    }

    /// Runs one batched forward pass and fans results back.
    fn run_batch(&self, batch: Vec<PendingRequest>) {
        self.metrics.queue_depth().sub(batch.len() as i64);
        let claimed = Instant::now();
        let model = self.registry.current();
        let mut rasters = Vec::with_capacity(batch.len());
        let mut replies: Vec<ReplySlot> = Vec::with_capacity(batch.len());
        for pending in batch {
            rasters.push(pending.raster);
            replies.push((pending.reply, pending.enqueued, pending.trace));
        }
        if let Some(tracer) = &self.tracer {
            for (_, enqueued, trace) in &replies {
                if let Some(ctx) = trace {
                    tracer.record_span(
                        ctx,
                        "queue_wait",
                        *enqueued,
                        claimed.saturating_duration_since(*enqueued),
                        Vec::new(),
                    );
                }
            }
        }
        let forward_start = Instant::now();
        match model.network.forward_batch(&rasters) {
            Ok(all_logits) => {
                self.record_forward_spans(&replies, forward_start, forward_start.elapsed());
                for (logits, (reply, enqueued, trace)) in all_logits.into_iter().zip(replies) {
                    // output_size >= 1 is validated at model build, so
                    // the empty-logits fallback cannot trigger.
                    let prediction = ops::argmax(&logits).unwrap_or(0);
                    let latency = enqueued.elapsed().as_micros() as u64;
                    match trace {
                        Some(ctx) => self.metrics.record_ok_traced(latency, ctx.trace_id),
                        None => self.metrics.record_ok(latency),
                    }
                    let _ = reply.send(Ok(PredictReply {
                        logits,
                        prediction,
                        model_version: model.version,
                    }));
                }
            }
            Err(e) => {
                // Shape errors are screened at parse time, so this is a
                // genuine model-level failure; every requester learns it.
                let detail = e.to_string();
                for (reply, _, _) in replies {
                    self.metrics.record_failure();
                    let _ = reply.send(Err(ServeError::InvalidRequest {
                        detail: detail.clone(),
                    }));
                }
            }
        }
        self.metrics.record_batch(rasters.len());
    }

    /// One `forward` span per traced request in the batch, each linking
    /// the accept spans of the requests co-batched with it — the span
    /// links express the fan-in a parent/child tree cannot.
    fn record_forward_spans(&self, replies: &[ReplySlot], start: Instant, elapsed: Duration) {
        let Some(tracer) = &self.tracer else { return };
        let accepts: Vec<u64> = replies
            .iter()
            .filter_map(|(_, _, trace)| trace.and_then(|ctx| ctx.parent))
            .collect();
        for (_, _, trace) in replies {
            let Some(ctx) = trace else { continue };
            let links: Vec<u64> = accepts
                .iter()
                .copied()
                .filter(|id| Some(*id) != ctx.parent)
                .collect();
            tracer.record_span(ctx, "forward", start, elapsed, links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::{Network, NetworkConfig};

    fn registry(seed: u64) -> Arc<ModelRegistry> {
        let mut config = NetworkConfig::tiny(8, 3);
        config.seed = seed;
        Arc::new(ModelRegistry::new(Network::new(config).unwrap(), "test"))
    }

    fn input(seed: usize) -> SpikeRaster {
        SpikeRaster::from_fn(8, 12, |n, t| (n + t + seed).is_multiple_of(3))
    }

    #[test]
    fn replies_match_direct_forward() {
        let registry = registry(1);
        let net = registry.current();
        let batcher = Batcher::start(
            Arc::clone(&registry),
            Arc::new(Metrics::default()),
            BatchConfig::default(),
        )
        .unwrap();
        let rx = batcher.submit(input(0)).unwrap();
        let reply = rx.recv().unwrap().unwrap();
        let direct = net.network.forward(&input(0)).unwrap();
        assert_eq!(reply.logits, direct);
        assert_eq!(reply.prediction, ops::argmax(&direct).unwrap());
        assert_eq!(reply.model_version, 1);
        batcher.shutdown();
    }

    #[test]
    fn many_concurrent_submissions_all_answer() {
        let registry = registry(2);
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::start(
            Arc::clone(&registry),
            Arc::clone(&metrics),
            BatchConfig {
                batch_size: 4,
                max_wait: Duration::from_micros(200),
                workers: 3,
            },
        )
        .unwrap();
        let receivers: Vec<_> = (0..64)
            .map(|i| (i, batcher.submit(input(i)).unwrap()))
            .collect();
        for (i, rx) in receivers {
            let reply = rx.recv().unwrap().unwrap();
            let direct = registry.current().network.forward(&input(i)).unwrap();
            assert_eq!(reply.logits, direct, "request {i}");
        }
        assert_eq!(metrics.ok_count(), 64);
        assert!(
            metrics.latency().count() == 64,
            "every reply recorded a latency"
        );
        batcher.shutdown();
    }

    #[test]
    fn swap_during_load_answers_every_request_from_some_version() {
        let registry = registry(3);
        let batcher = Batcher::start(
            Arc::clone(&registry),
            Arc::new(Metrics::default()),
            BatchConfig {
                batch_size: 4,
                max_wait: Duration::from_micros(100),
                workers: 2,
            },
        )
        .unwrap();
        let mut receivers = Vec::new();
        for i in 0..40 {
            receivers.push(batcher.submit(input(i)).unwrap());
            if i == 20 {
                let mut config = NetworkConfig::tiny(8, 3);
                config.seed = 777;
                registry
                    .swap_network(Network::new(config).unwrap(), "mid-load")
                    .unwrap();
            }
        }
        let mut versions_seen = std::collections::BTreeSet::new();
        for rx in receivers {
            let reply = rx.recv().unwrap().expect("no request fails during swap");
            versions_seen.insert(reply.model_version);
        }
        assert!(
            versions_seen.contains(&2),
            "post-swap requests must see version 2 (saw {versions_seen:?})"
        );
        batcher.shutdown();
    }

    #[test]
    fn traced_submissions_record_queue_wait_and_forward_spans() {
        let registry = registry(5);
        let tracer = Arc::new(ncl_obs::Tracer::new(
            9,
            ncl_obs::TraceConfig::default(),
            Instant::now(),
        ));
        let batcher = Batcher::start_traced(
            Arc::clone(&registry),
            Arc::new(Metrics::default()),
            BatchConfig::default(),
            Some(Arc::clone(&tracer)),
        )
        .unwrap();
        let ctx = tracer.new_trace();
        let accept = tracer.start_span(&ctx, "accept");
        let accept_id = accept.id();
        let rx = batcher
            .submit_traced(input(0), Some(accept.context()))
            .unwrap();
        rx.recv().unwrap().unwrap();
        drop(accept);
        let kept = tracer.recent(0, 8);
        assert_eq!(kept.len(), 1, "first completed trace is always kept");
        let stages: Vec<&str> = kept[0].spans.iter().map(|s| s.stage.as_str()).collect();
        assert!(stages.contains(&"queue_wait"), "stages: {stages:?}");
        assert!(stages.contains(&"forward"), "stages: {stages:?}");
        for span in kept[0].spans.iter().filter(|s| s.stage != "accept") {
            assert_eq!(span.parent, Some(accept_id), "batch spans parent to accept");
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued() {
        let registry = registry(4);
        let batcher = Batcher::start(
            Arc::clone(&registry),
            Arc::new(Metrics::default()),
            BatchConfig {
                batch_size: 8,
                max_wait: Duration::from_millis(1),
                workers: 1,
            },
        )
        .unwrap();
        let queued: Vec<_> = (0..8).map(|i| batcher.submit(input(i)).unwrap()).collect();
        batcher.shutdown();
        for rx in queued {
            // Every queued request was answered (success) or explicitly
            // failed — never left hanging.
            assert!(rx.recv().is_ok());
        }
        assert!(matches!(
            batcher.submit(input(0)),
            Err(ServeError::ShuttingDown)
        ));
    }
}
