//! Fleet-wide distributed tracing: deterministic trace/span ids, a
//! sharded tail-sampling trace buffer, and the pure [`stitch`] assembly
//! that merges per-node fragments into one tree per request.
//!
//! Ids derive from a seeded per-process counter (SplitMix64 over
//! `seed ^ counter`), not entropy: two runs with the same seeds and the
//! same request interleaving mint the same ids, which keeps wire
//! fixtures and smoke assertions reproducible.
//!
//! Sampling is **tail-based**: spans buffer per trace until the local
//! fragment completes (every open span guard closed), and only then is
//! the keep/drop decision made — a fragment whose root latency crosses
//! [`TraceConfig::slow_threshold_us`] is always kept, everything else
//! is kept 1-in-[`TraceConfig::sample_one_in`] (the sample counter
//! starts at zero, so the first trace a process completes is always
//! captured). Dropped traces count into `obs_traces_dropped_total`; the
//! kept store is bounded to [`TraceConfig::max_spans`] spans, evicting
//! the oldest whole traces first.
//!
//! Each process only ever sees its own **fragment** of a distributed
//! trace. [`stitch`] reassembles fragments fetched from several nodes
//! (the router's `traces` op does this, mirroring how
//! `exposition::merge` unifies metric scrapes): spans are joined by
//! trace id, cross-node parent links resolved, and — because every
//! node's `start_us` offsets count from its own process epoch — remote
//! fragments are re-based inside their parent span so child intervals
//! nest within parents by construction.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::registry::{Counter, Gauge};

/// The propagated context: which trace a request belongs to and which
/// span (on the calling node) is the parent of whatever the callee
/// records. Carried as an optional `"trace"` field on wire requests;
/// peers that predate tracing ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, shared by every span of the trace fleet-wide.
    pub trace_id: u128,
    /// Span id (on the sending node) that parents the callee's spans.
    pub parent: Option<u64>,
}

/// Lower-case, zero-padded 32-hex-digit encoding of a trace id.
#[must_use]
pub fn trace_id_hex(trace_id: u128) -> String {
    format!("{trace_id:032x}")
}

/// Lower-case, zero-padded 16-hex-digit encoding of a span id.
#[must_use]
pub fn span_id_hex(span_id: u64) -> String {
    format!("{span_id:016x}")
}

/// Parses a [`trace_id_hex`] string (exactly 32 hex digits).
#[must_use]
pub fn parse_trace_id(hex: &str) -> Option<u128> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(hex, 16).ok()
}

/// Parses a [`span_id_hex`] string (exactly 16 hex digits).
#[must_use]
pub fn parse_span_id(hex: &str) -> Option<u64> {
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One recorded span: the `(trace, span, parent, stage, start, duration)`
/// tuple the tentpole asks every instrumented hop to emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (unique within the trace across the fleet).
    pub span_id: u64,
    /// Parent span id; `None` for a trace root. A parent id that is not
    /// local to this process points at a span on the *calling* node.
    pub parent: Option<u64>,
    /// Stage label (`"route"`, `"accept"`, `"queue_wait"`, ...).
    pub stage: String,
    /// Start offset in µs from this process's observability epoch.
    pub start_us: u64,
    /// Wall duration in µs.
    pub duration_us: u64,
    /// Span links (batch fan-in: a forward span links the accept spans
    /// of every request co-batched with it).
    pub links: Vec<u64>,
}

/// Tail-sampling and capacity policy for a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Completed fragments whose root duration reaches this are always
    /// kept.
    pub slow_threshold_us: u64,
    /// Below the threshold, keep 1 fragment in this many (the counter
    /// starts at zero, so the first completed trace is always kept).
    pub sample_one_in: u64,
    /// Bound on total spans held in the kept store; oldest whole
    /// traces are evicted first.
    pub max_spans: usize,
    /// Number of pending-trace shards (lock striping for the hot path).
    pub shards: usize,
    /// Bound on in-flight (not yet completed) traces per shard.
    pub max_pending: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            slow_threshold_us: 5_000,
            sample_one_in: 8,
            max_spans: 4_096,
            shards: 8,
            max_pending: 64,
        }
    }
}

/// One completed, kept local fragment of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFragment {
    /// Trace the fragment belongs to.
    pub trace_id: u128,
    /// Spans in completion order.
    pub spans: Vec<TraceSpanRecord>,
}

impl TraceFragment {
    /// Duration of the fragment's root: the longest span whose parent
    /// is not itself recorded in this fragment.
    #[must_use]
    pub fn root_duration_us(&self) -> u64 {
        let local: BTreeSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !local.contains(&p)))
            .map(|s| s.duration_us)
            .max()
            .unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct PendingTrace {
    spans: Vec<TraceSpanRecord>,
    open: u32,
    arrival: u64,
}

#[derive(Debug, Default)]
struct Shard {
    pending: BTreeMap<u128, PendingTrace>,
}

#[derive(Debug, Default)]
struct KeptStore {
    traces: VecDeque<TraceFragment>,
    total_spans: usize,
}

/// SplitMix64 — the id mixer (also used by the vendored proptest RNG
/// seeding); full-period, so distinct counters give distinct ids.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-process trace recorder: mints ids, buffers pending spans per
/// trace, and tail-samples fragments as they complete.
#[derive(Debug)]
pub struct Tracer {
    seed: AtomicU64,
    counter: AtomicU64,
    sampled: AtomicU64,
    epoch: Instant,
    config: TraceConfig,
    shards: Vec<Mutex<Shard>>,
    kept: Mutex<KeptStore>,
    traces_dropped: Arc<Counter>,
    traces_kept: Arc<Counter>,
    buffer_spans: Arc<Gauge>,
}

impl Tracer {
    /// A tracer with its process epoch at `epoch` (the registry passes
    /// its own epoch so span offsets line up with stage spans).
    #[must_use]
    pub fn new(seed: u64, config: TraceConfig, epoch: Instant) -> Tracer {
        let shard_count = config.shards.max(1);
        Tracer {
            seed: AtomicU64::new(seed),
            counter: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            epoch,
            config,
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            kept: Mutex::new(KeptStore::default()),
            traces_dropped: Arc::new(Counter::default()),
            traces_kept: Arc::new(Counter::default()),
            buffer_spans: Arc::new(Gauge::default()),
        }
    }

    /// Re-seeds the id generator (daemons call this with their port or
    /// `--seed`, so each fleet member mints from a distinct stream).
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
    }

    /// Traces dropped by tail-sampling or eviction
    /// (`obs_traces_dropped_total`).
    #[must_use]
    pub(crate) fn traces_dropped(&self) -> Arc<Counter> {
        Arc::clone(&self.traces_dropped)
    }

    /// Traces the sampler decided to keep (`obs_traces_kept_total`).
    #[must_use]
    pub(crate) fn traces_kept(&self) -> Arc<Counter> {
        Arc::clone(&self.traces_kept)
    }

    /// Occupancy of the kept store in spans (`obs_trace_buffer_spans`).
    #[must_use]
    pub(crate) fn buffer_spans(&self) -> Arc<Gauge> {
        Arc::clone(&self.buffer_spans)
    }

    fn next_id(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed.load(Ordering::Relaxed) ^ n.wrapping_mul(2).wrapping_add(1));
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Mints a fresh root context (a new 128-bit trace id, no parent).
    #[must_use]
    pub fn new_trace(&self) -> TraceContext {
        let hi = u128::from(self.next_id());
        let lo = u128::from(self.next_id());
        TraceContext {
            trace_id: (hi << 64) | lo,
            parent: None,
        }
    }

    fn shard(&self, trace_id: u128) -> Option<&Mutex<Shard>> {
        let key = ((trace_id >> 64) as u64) ^ (trace_id as u64);
        let index = (key % self.shards.len() as u64) as usize;
        self.shards.get(index)
    }

    fn with_pending<R>(
        &self,
        trace_id: u128,
        apply: impl FnOnce(&mut PendingTrace) -> R,
    ) -> Option<R> {
        let shard = self.shard(trace_id)?;
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if !guard.pending.contains_key(&trace_id) && guard.pending.len() >= self.config.max_pending
        {
            // Evict the oldest in-flight trace to stay bounded; an
            // abandoned trace (a guard leaked across a dead connection)
            // must not pin memory forever.
            let oldest = guard
                .pending
                .iter()
                .min_by_key(|(_, t)| t.arrival)
                .map(|(id, _)| *id);
            if let Some(id) = oldest {
                guard.pending.remove(&id);
                self.traces_dropped.inc();
            }
        }
        let arrival = self.counter.load(Ordering::Relaxed);
        let entry = guard
            .pending
            .entry(trace_id)
            .or_insert_with(|| PendingTrace {
                arrival,
                ..PendingTrace::default()
            });
        Some(apply(entry))
    }

    /// Opens a span guard: the span records into the trace buffer when
    /// the guard drops, and the local fragment is sampled once every
    /// open guard of its trace has closed.
    #[must_use]
    pub fn start_span(self: &Arc<Self>, ctx: &TraceContext, stage: &'static str) -> TraceSpan {
        let span_id = self.next_id();
        self.with_pending(ctx.trace_id, |pending| pending.open += 1);
        TraceSpan {
            tracer: Arc::clone(self),
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent,
            stage,
            started: Instant::now(),
            links: Vec::new(),
        }
    }

    /// Records a span retrospectively (measured with an explicit start
    /// instant, e.g. a batcher queue wait) without opening a guard.
    /// Returns the minted span id.
    pub fn record_span(
        &self,
        ctx: &TraceContext,
        stage: &'static str,
        start: Instant,
        duration: Duration,
        links: Vec<u64>,
    ) -> u64 {
        let span_id = self.next_id();
        let record = TraceSpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent,
            stage: stage.to_owned(),
            start_us: duration_us(start.saturating_duration_since(self.epoch)),
            duration_us: duration_us(duration),
            links,
        };
        self.with_pending(ctx.trace_id, |pending| pending.spans.push(record));
        span_id
    }

    fn complete(&self, record: TraceSpanRecord) {
        let trace_id = record.trace_id;
        let finished = self.with_pending(trace_id, |pending| {
            pending.spans.push(record);
            pending.open = pending.open.saturating_sub(1);
            pending.open == 0
        });
        if finished != Some(true) {
            return;
        }
        let fragment = {
            let Some(shard) = self.shard(trace_id) else {
                return;
            };
            let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.pending.remove(&trace_id) {
                Some(pending) => TraceFragment {
                    trace_id,
                    spans: pending.spans,
                },
                None => return,
            }
        };
        self.sample(fragment);
    }

    /// The tail-sampling decision for one completed local fragment.
    fn sample(&self, fragment: TraceFragment) {
        let slow = fragment.root_duration_us() >= self.config.slow_threshold_us;
        let one_in = self.config.sample_one_in.max(1);
        let lucky = self
            .sampled
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(one_in);
        if !(slow || lucky) {
            self.traces_dropped.inc();
            return;
        }
        let mut kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
        kept.total_spans += fragment.spans.len();
        kept.traces.push_back(fragment);
        while kept.total_spans > self.config.max_spans && kept.traces.len() > 1 {
            if let Some(evicted) = kept.traces.pop_front() {
                kept.total_spans = kept.total_spans.saturating_sub(evicted.spans.len());
                self.traces_dropped.inc();
            }
        }
        self.traces_kept.inc();
        let occupancy = i64::try_from(kept.total_spans).unwrap_or(i64::MAX);
        self.buffer_spans.set(occupancy);
    }

    /// The most recent kept fragments, newest first, filtered to those
    /// whose root duration reaches `min_duration_us`, capped at `limit`.
    #[must_use]
    pub fn recent(&self, min_duration_us: u64, limit: usize) -> Vec<TraceFragment> {
        let kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
        kept.traces
            .iter()
            .rev()
            .filter(|t| t.root_duration_us() >= min_duration_us)
            .take(limit)
            .cloned()
            .collect()
    }
}

fn duration_us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// An open span. Dropping it records the span; children created while
/// it is open parent themselves via [`TraceSpan::context`].
#[derive(Debug)]
pub struct TraceSpan {
    tracer: Arc<Tracer>,
    trace_id: u128,
    span_id: u64,
    parent: Option<u64>,
    stage: &'static str,
    started: Instant,
    links: Vec<u64>,
}

impl TraceSpan {
    /// This span's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Context for children of this span.
    #[must_use]
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent: Some(self.span_id),
        }
    }

    /// Re-labels the span before it records (a dispatch that failed
    /// over becomes a `"failover"` span).
    pub fn set_stage(&mut self, stage: &'static str) {
        self.stage = stage;
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let record = TraceSpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent: self.parent,
            stage: self.stage.to_owned(),
            start_us: duration_us(self.started.saturating_duration_since(self.tracer.epoch)),
            duration_us: duration_us(self.started.elapsed()),
            links: std::mem::take(&mut self.links),
        };
        self.tracer.complete(record);
    }
}

/// A fragment tagged with the node it came from — the input to
/// [`stitch`]. The router labels its own buffer `"router"` and each
/// backend's fetched fragments `"replica-<id>"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFragment {
    /// Where the fragment was recorded.
    pub node: String,
    /// Trace the fragment belongs to.
    pub trace_id: u128,
    /// The fragment's spans.
    pub spans: Vec<TraceSpanRecord>,
}

/// One span of a stitched trace, on the unified timeline (µs from the
/// trace root's start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchedSpan {
    /// Span id.
    pub span_id: u64,
    /// Parent span id (`None` only for the root).
    pub parent: Option<u64>,
    /// Node that recorded the span.
    pub node: String,
    /// Stage label.
    pub stage: String,
    /// Start on the unified timeline (root starts at 0).
    pub start_us: u64,
    /// Duration, clamped so the span nests inside its parent.
    pub duration_us: u64,
    /// Span links.
    pub links: Vec<u64>,
    /// Tree depth (root = 0).
    pub depth: usize,
}

/// A reassembled multi-node trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchedTrace {
    /// Trace id.
    pub trace_id: u128,
    /// Root span id.
    pub root: u64,
    /// Root duration (the end-to-end latency).
    pub duration_us: u64,
    /// Spans in pre-order: every parent precedes its children.
    pub spans: Vec<StitchedSpan>,
    /// Spans whose parent chain never reached the root (dropped from
    /// `spans`, surfaced so callers can alert on broken propagation).
    pub orphan_spans: usize,
}

/// Stitches per-node fragments into one tree per trace.
///
/// Fragments may arrive in any order and may cover distinct traces.
/// Within one trace, the root is the span with no parent; a trace with
/// no such span (its originating fragment was sampled away) is omitted
/// entirely. Because each node's offsets count from its own epoch,
/// spans are re-based while walking the tree: a child keeps its offset
/// relative to its same-fragment parent, while a cross-node child is
/// centered inside its parent span; either way the child interval is
/// clamped inside the parent, so containment holds by construction.
/// Results sort by root duration, slowest first.
#[must_use]
pub fn stitch(fragments: &[NodeFragment]) -> Vec<StitchedTrace> {
    let mut by_trace: BTreeMap<u128, Vec<(usize, &NodeFragment)>> = BTreeMap::new();
    for (index, fragment) in fragments.iter().enumerate() {
        by_trace
            .entry(fragment.trace_id)
            .or_default()
            .push((index, fragment));
    }
    let mut stitched: Vec<StitchedTrace> = by_trace
        .into_iter()
        .filter_map(|(trace_id, parts)| stitch_one(trace_id, &parts))
        .collect();
    stitched.sort_by(|a, b| {
        b.duration_us
            .cmp(&a.duration_us)
            .then(a.trace_id.cmp(&b.trace_id))
    });
    stitched
}

struct SpanSite<'a> {
    fragment: usize,
    record: &'a TraceSpanRecord,
}

fn stitch_one(trace_id: u128, parts: &[(usize, &NodeFragment)]) -> Option<StitchedTrace> {
    // First record wins on a duplicated span id (should not happen with
    // honest id minting; being deterministic about it beats panicking).
    let mut sites: BTreeMap<u64, SpanSite<'_>> = BTreeMap::new();
    let mut total = 0usize;
    for (fragment_index, fragment) in parts {
        for record in &fragment.spans {
            total += 1;
            sites.entry(record.span_id).or_insert(SpanSite {
                fragment: *fragment_index,
                record,
            });
        }
    }
    // The root: a parentless span. Prefer the longest if several claim it.
    let root_id = sites
        .values()
        .filter(|s| s.record.parent.is_none())
        .max_by_key(|s| (s.record.duration_us, std::cmp::Reverse(s.record.span_id)))
        .map(|s| s.record.span_id)?;
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for site in sites.values() {
        if site.record.span_id == root_id {
            continue;
        }
        if let Some(parent) = site.record.parent {
            if parent != site.record.span_id && sites.contains_key(&parent) {
                children
                    .entry(parent)
                    .or_default()
                    .push(site.record.span_id);
            }
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|id| {
            sites
                .get(id)
                .map_or((u64::MAX, *id), |s| (s.record.start_us, s.record.span_id))
        });
    }
    // Pre-order walk, re-basing each span onto the unified timeline.
    let mut spans: Vec<StitchedSpan> = Vec::new();
    let mut placed: BTreeMap<u64, (u64, u64, usize, usize)> = BTreeMap::new();
    let mut stack: Vec<u64> = vec![root_id];
    while let Some(span_id) = stack.pop() {
        let Some(site) = sites.get(&span_id) else {
            continue;
        };
        let record = site.record;
        let (start, duration, depth) = match record.parent.and_then(|p| placed.get(&p).copied()) {
            None => (0, record.duration_us, 0),
            Some((parent_start, parent_duration, parent_fragment, parent_depth)) => {
                let duration = record.duration_us.min(parent_duration);
                let latest_start = parent_start + (parent_duration - duration);
                let start = if site.fragment == parent_fragment {
                    // Same process epoch: keep the true relative offset.
                    let parent_raw = sites
                        .get(&record.parent.unwrap_or(span_id))
                        .map_or(record.start_us, |p| p.record.start_us);
                    let offset = record.start_us.saturating_sub(parent_raw);
                    (parent_start + offset).min(latest_start)
                } else {
                    // Foreign epoch: center the remote span in its parent.
                    parent_start + (parent_duration - duration) / 2
                };
                (start, duration, parent_depth + 1)
            }
        };
        placed.insert(span_id, (start, duration, site.fragment, depth));
        spans.push(StitchedSpan {
            span_id,
            parent: if span_id == root_id {
                None
            } else {
                record.parent
            },
            node: fragment_node(parts, site.fragment),
            stage: record.stage.clone(),
            start_us: start,
            duration_us: duration,
            links: record.links.clone(),
            depth,
        });
        if let Some(kids) = children.get(&span_id) {
            // Reverse so the stack pops earliest-starting child first.
            for child in kids.iter().rev() {
                stack.push(*child);
            }
        }
    }
    let duration_us = spans.first().map_or(0, |root| root.duration_us);
    let orphan_spans = total.saturating_sub(spans.len());
    Some(StitchedTrace {
        trace_id,
        root: root_id,
        duration_us,
        spans,
        orphan_spans,
    })
}

fn fragment_node(parts: &[(usize, &NodeFragment)], fragment_index: usize) -> String {
    parts
        .iter()
        .find(|(index, _)| *index == fragment_index)
        .map_or_else(String::new, |(_, f)| f.node.clone())
}

/// Self-time of a span in a stitched trace: its duration minus the
/// durations of its direct children (floored at zero — children can
/// overlap). This is what `ncl-trace` prints per hop.
#[must_use]
pub fn self_time_us(trace: &StitchedTrace, span_id: u64) -> u64 {
    let Some(span) = trace.spans.iter().find(|s| s.span_id == span_id) else {
        return 0;
    };
    let child_total: u64 = trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(span_id))
        .map(|s| s.duration_us)
        .sum();
    span.duration_us.saturating_sub(child_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(config: TraceConfig) -> Arc<Tracer> {
        Arc::new(Tracer::new(7, config, Instant::now()))
    }

    #[test]
    fn ids_are_deterministic_for_a_seed() {
        let a = Tracer::new(42, TraceConfig::default(), Instant::now());
        let b = Tracer::new(42, TraceConfig::default(), Instant::now());
        assert_eq!(a.new_trace().trace_id, b.new_trace().trace_id);
        assert_ne!(a.new_trace().trace_id, a.new_trace().trace_id);
    }

    #[test]
    fn first_completed_trace_is_always_kept() {
        let tracer = tracer(TraceConfig {
            slow_threshold_us: u64::MAX,
            sample_one_in: 1_000,
            ..TraceConfig::default()
        });
        let ctx = tracer.new_trace();
        drop(tracer.start_span(&ctx, "root"));
        assert_eq!(tracer.recent(0, 16).len(), 1, "sample counter starts at 0");
        assert_eq!(tracer.traces_kept().get(), 1);
    }

    #[test]
    fn fast_traces_drop_and_count_once_sampling_passes() {
        let tracer = tracer(TraceConfig {
            slow_threshold_us: u64::MAX,
            sample_one_in: 4,
            ..TraceConfig::default()
        });
        for _ in 0..8 {
            let ctx = tracer.new_trace();
            drop(tracer.start_span(&ctx, "root"));
        }
        assert_eq!(tracer.recent(0, 16).len(), 2, "1-in-4 of 8 fragments");
        assert_eq!(tracer.traces_dropped().get(), 6);
    }

    #[test]
    fn fragment_completes_only_when_all_guards_close() {
        let tracer = tracer(TraceConfig::default());
        let ctx = tracer.new_trace();
        let root = tracer.start_span(&ctx, "root");
        let child = tracer.start_span(&root.context(), "child");
        tracer.record_span(
            &root.context(),
            "queue_wait",
            Instant::now(),
            Duration::from_micros(5),
            Vec::new(),
        );
        assert!(tracer.recent(0, 16).is_empty(), "root still open");
        drop(child);
        assert!(tracer.recent(0, 16).is_empty(), "root still open");
        drop(root);
        let kept = tracer.recent(0, 16);
        assert_eq!(kept.len(), 1);
        let Some(fragment) = kept.first() else {
            panic!("fragment missing")
        };
        assert_eq!(fragment.spans.len(), 3);
        let root_spans: Vec<_> = fragment
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .collect();
        assert_eq!(root_spans.len(), 1);
    }

    #[test]
    fn kept_store_is_bounded_in_spans() {
        let tracer = tracer(TraceConfig {
            slow_threshold_us: 0, // keep everything: stress the bound
            sample_one_in: 1,
            max_spans: 8,
            ..TraceConfig::default()
        });
        for _ in 0..32 {
            let ctx = tracer.new_trace();
            let root = tracer.start_span(&ctx, "root");
            drop(tracer.start_span(&root.context(), "child"));
            drop(root);
        }
        let kept: usize = tracer.recent(0, 64).iter().map(|t| t.spans.len()).sum();
        assert!(kept <= 8, "kept {kept} spans, bound is 8");
        assert!(tracer.traces_dropped().get() >= 24);
        assert!(tracer.buffer_spans().get() <= 8);
    }

    #[test]
    fn pending_traces_are_bounded_per_shard() {
        let tracer = tracer(TraceConfig {
            shards: 1,
            max_pending: 4,
            ..TraceConfig::default()
        });
        // Leak guards for 16 traces: only 4 may stay pending.
        let mut guards = Vec::new();
        for _ in 0..16 {
            let ctx = tracer.new_trace();
            guards.push(tracer.start_span(&ctx, "leaked"));
        }
        assert!(tracer.traces_dropped().get() >= 12);
        guards.clear();
    }

    #[test]
    fn recent_filters_by_min_duration_and_limit() {
        let tracer = tracer(TraceConfig {
            slow_threshold_us: 0,
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        for wait in [0u64, 2_000] {
            let ctx = tracer.new_trace();
            // Hold a guard so the fragment finalizes only once the
            // synthetic root below is recorded.
            let guard = tracer.start_span(&ctx, "flush");
            tracer.record_span(
                &ctx,
                "root",
                Instant::now(),
                Duration::from_micros(wait + 10),
                Vec::new(),
            );
            drop(guard);
        }
        assert_eq!(tracer.recent(0, 16).len(), 2);
        assert_eq!(tracer.recent(1_000, 16).len(), 1);
        assert_eq!(tracer.recent(0, 1).len(), 1);
    }

    #[test]
    fn stitch_rebases_remote_fragments_inside_their_parent() {
        // Router fragment: route root (100µs) with one dispatch child.
        let route = TraceSpanRecord {
            trace_id: 9,
            span_id: 1,
            parent: None,
            stage: "route".to_owned(),
            start_us: 50,
            duration_us: 100,
            links: Vec::new(),
        };
        let dispatch = TraceSpanRecord {
            span_id: 2,
            parent: Some(1),
            stage: "dispatch".to_owned(),
            start_us: 60,
            duration_us: 80,
            ..route.clone()
        };
        // Replica fragment, recorded against a *different* epoch.
        let accept = TraceSpanRecord {
            span_id: 3,
            parent: Some(2),
            stage: "accept".to_owned(),
            start_us: 1_000_000,
            duration_us: 60,
            ..route.clone()
        };
        let forward = TraceSpanRecord {
            span_id: 4,
            parent: Some(3),
            stage: "forward".to_owned(),
            start_us: 1_000_010,
            duration_us: 40,
            ..route.clone()
        };
        // Arbitrary arrival order: replica fragment first.
        let stitched = stitch(&[
            NodeFragment {
                node: "replica-1".to_owned(),
                trace_id: 9,
                spans: vec![forward, accept],
            },
            NodeFragment {
                node: "router".to_owned(),
                trace_id: 9,
                spans: vec![dispatch, route],
            },
        ]);
        assert_eq!(stitched.len(), 1);
        let Some(trace) = stitched.first() else {
            panic!("no stitched trace")
        };
        assert_eq!(trace.root, 1);
        assert_eq!(trace.orphan_spans, 0);
        assert_eq!(trace.spans.len(), 4);
        // Pre-order: parents precede children, depths increase.
        let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["route", "dispatch", "accept", "forward"]);
        // Containment on the unified timeline.
        for span in &trace.spans {
            let Some(parent) = span.parent else { continue };
            let Some(parent_span) = trace.spans.iter().find(|s| s.span_id == parent) else {
                panic!("parent missing from stitched output")
            };
            assert!(span.start_us >= parent_span.start_us);
            assert!(
                span.start_us + span.duration_us <= parent_span.start_us + parent_span.duration_us
            );
        }
        assert_eq!(self_time_us(trace, 1), 20, "route self-time = 100 - 80");
    }

    #[test]
    fn stitch_counts_orphans_and_skips_rootless_traces() {
        let orphan = TraceSpanRecord {
            trace_id: 5,
            span_id: 10,
            parent: Some(99), // parent never recorded anywhere
            stage: "accept".to_owned(),
            start_us: 0,
            duration_us: 10,
            links: Vec::new(),
        };
        assert!(stitch(&[NodeFragment {
            node: "replica-1".to_owned(),
            trace_id: 5,
            spans: vec![orphan.clone()],
        }])
        .is_empty());
        let root = TraceSpanRecord {
            span_id: 11,
            parent: None,
            stage: "route".to_owned(),
            ..orphan.clone()
        };
        let stitched = stitch(&[NodeFragment {
            node: "router".to_owned(),
            trace_id: 5,
            spans: vec![root, orphan],
        }]);
        assert_eq!(stitched.len(), 1);
        let Some(trace) = stitched.first() else {
            panic!("no stitched trace")
        };
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.orphan_spans, 1);
    }

    #[test]
    fn hex_round_trips() {
        let trace_id = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(parse_trace_id(&trace_id_hex(trace_id)), Some(trace_id));
        assert_eq!(parse_span_id(&span_id_hex(42)), Some(42));
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_span_id("123"), None);
    }
}
