//! Serving instrumentation, backed by the shared `ncl_obs` registry:
//! request/batch/swap counters, the end-to-end latency histogram, and
//! batcher queue metrics — snapshotted into the JSON stats endpoint
//! and scrapeable via the `metrics` wire op as Prometheus text.
//!
//! The latency histogram is the general [`ncl_obs::Log2Histogram`]:
//! quantiles resolve to bucket upper bounds (an at-most-2x overestimate
//! — the right bias for tail-latency reporting). All hot-path updates
//! remain single relaxed atomic ops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ncl_obs::{Counter, Gauge, Log2Histogram, Registry};
use serde_json::Value;

/// Counters + histograms for one serving process, registered in an
/// [`ncl_obs::Registry`] under `serve_*` names.
pub struct Metrics {
    started: Instant,
    /// Successfully answered predict requests.
    ok: Arc<Counter>,
    /// Requests answered with an error.
    failed: Arc<Counter>,
    /// Batched forward passes executed.
    batches: Arc<Counter>,
    /// Completed hot swaps.
    swaps: Arc<Counter>,
    /// End-to-end (enqueue → reply) predict latency (µs).
    latency: Arc<Log2Histogram>,
    /// Predict requests per executed batch.
    batch_size: Arc<Log2Histogram>,
    /// Requests queued but not yet claimed by a batch worker.
    queue_depth: Arc<Gauge>,
    /// Nanoseconds (since `started`) of the first successful reply.
    first_reply_ns: AtomicU64,
    /// Nanoseconds (since `started`) of the latest successful reply.
    last_reply_ns: AtomicU64,
}

impl Default for Metrics {
    /// A detached instance with its own private registry — for tests
    /// and benches that never scrape an exposition.
    fn default() -> Self {
        Metrics::new(&Registry::new())
    }
}

impl Metrics {
    /// Registers the serving metrics in `obs` (idempotent: a second
    /// `Metrics` on the same registry shares the same series).
    #[must_use]
    pub fn new(obs: &Registry) -> Self {
        Metrics {
            started: Instant::now(),
            ok: obs.counter(
                "serve_requests_ok_total",
                "Successfully answered predict requests.",
            ),
            failed: obs.counter(
                "serve_requests_failed_total",
                "Requests answered with an error.",
            ),
            batches: obs.counter("serve_batches_total", "Batched forward passes executed."),
            swaps: obs.counter(
                "serve_swaps_total",
                "Completed hot swaps (swap op or replication apply).",
            ),
            latency: obs.histogram(
                "serve_latency_us",
                "End-to-end predict latency in microseconds (enqueue to reply).",
            ),
            batch_size: obs.histogram("serve_batch_size", "Predict requests per executed batch."),
            queue_depth: obs.gauge(
                "serve_queue_depth",
                "Predict requests queued but not yet claimed by a batch worker.",
            ),
            first_reply_ns: AtomicU64::new(u64::MAX),
            last_reply_ns: AtomicU64::new(0),
        }
    }

    /// Records one successful predict with its end-to-end latency.
    pub(crate) fn record_ok(&self, latency_us: u64) {
        self.latency.record(latency_us);
        self.note_ok();
    }

    /// Records one successful predict that carried a trace context; the
    /// observation feeds the latency exemplar, so the `stats` latency
    /// block can point at the slowest captured trace.
    pub(crate) fn record_ok_traced(&self, latency_us: u64, trace_id: u128) {
        self.latency.record_traced(latency_us, trace_id);
        self.note_ok();
    }

    fn note_ok(&self) {
        self.ok.inc();
        let now_ns = self.started.elapsed().as_nanos() as u64;
        self.first_reply_ns.fetch_min(now_ns, Ordering::Relaxed);
        self.last_reply_ns.fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Records one failed request.
    pub(crate) fn record_failure(&self) {
        self.failed.inc();
    }

    /// Records one executed batch of `size` requests.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batch_size.record(size as u64);
    }

    /// Records one completed hot swap.
    pub(crate) fn record_swap(&self) {
        self.swaps.inc();
    }

    /// The queue-depth gauge (incremented on submit, drained by the
    /// batch workers).
    #[must_use]
    pub fn queue_depth(&self) -> &Arc<Gauge> {
        &self.queue_depth
    }

    /// Successful predict count.
    #[must_use]
    pub fn ok_count(&self) -> u64 {
        self.ok.get()
    }

    /// Failed request count.
    #[must_use]
    pub fn failed_count(&self) -> u64 {
        self.failed.get()
    }

    /// The latency histogram.
    #[must_use]
    pub fn latency(&self) -> &Log2Histogram {
        &self.latency
    }

    /// Requests per second over the **active serving window** (first to
    /// latest successful reply) — not process uptime, which would decay
    /// toward zero while the server sits idle between bursts. The window
    /// is floored at 1 ms so a single instantaneous burst reads as a
    /// rate, not a division by ~zero.
    #[must_use]
    pub(crate) fn requests_per_sec(&self) -> f64 {
        let ok = self.ok_count();
        if ok == 0 {
            return 0.0;
        }
        let first = self.first_reply_ns.load(Ordering::Relaxed);
        let last = self.last_reply_ns.load(Ordering::Relaxed);
        let window_secs = (last.saturating_sub(first) as f64 / 1e9).max(1e-3);
        ok as f64 / window_secs
    }

    /// Serializes the counters into the stats-endpoint JSON shape.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let mut latency = BTreeMap::new();
        latency.insert("p50".to_owned(), Value::from(self.latency.quantile(0.50)));
        latency.insert("p95".to_owned(), Value::from(self.latency.quantile(0.95)));
        latency.insert("p99".to_owned(), Value::from(self.latency.quantile(0.99)));
        latency.insert("mean".to_owned(), Value::from(self.latency.mean()));
        latency.insert("max".to_owned(), Value::from(self.latency.max()));
        if let Some((value, trace_id)) = self.latency.exemplar() {
            let mut exemplar = BTreeMap::new();
            exemplar.insert("latency_us".to_owned(), Value::from(value));
            exemplar.insert(
                "trace_id".to_owned(),
                Value::from(ncl_obs::trace::trace_id_hex(trace_id)),
            );
            latency.insert("exemplar".to_owned(), Value::Object(exemplar));
        }

        let mut map = BTreeMap::new();
        map.insert("requests_ok".to_owned(), Value::from(self.ok_count()));
        map.insert(
            "requests_failed".to_owned(),
            Value::from(self.failed_count()),
        );
        map.insert("batches".to_owned(), Value::from(self.batches.get()));
        map.insert("swaps".to_owned(), Value::from(self.swaps.get()));
        map.insert(
            "uptime_ms".to_owned(),
            Value::from(self.started.elapsed().as_millis() as u64),
        );
        map.insert(
            "requests_per_sec".to_owned(),
            Value::from(self.requests_per_sec()),
        );
        let (first, last) = (
            self.first_reply_ns.load(Ordering::Relaxed),
            self.last_reply_ns.load(Ordering::Relaxed),
        );
        map.insert(
            "window_ms".to_owned(),
            Value::from(last.saturating_sub(first) / 1_000_000),
        );
        map.insert("latency_us".to_owned(), Value::Object(latency));
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Log2Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for us in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        // p50 lands in the 0..=1 bucket; upper bound 1.
        assert_eq!(h.quantile(0.50), 1);
        // p99 (rank 10) lands in the bucket holding 100 (64..128 -> 128).
        assert_eq!(h.quantile(0.99), 128);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 10.9).abs() < 1e-9);
    }

    #[test]
    fn quantile_never_underreports() {
        let h = Log2Histogram::default();
        for us in [3u64, 9, 17, 33, 1000] {
            h.record(us);
        }
        assert!(h.quantile(1.0) >= 1000);
        assert!(h.quantile(0.0) >= 3);
    }

    #[test]
    fn zero_latency_is_representable() {
        let h = Log2Histogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1, "0 µs lives in the first bucket");
    }

    #[test]
    fn metrics_snapshot_shape() {
        let m = Metrics::default();
        m.record_ok(50);
        m.record_ok(150);
        m.record_failure();
        m.record_batch(2);
        m.record_swap();
        let snap = m.snapshot();
        assert_eq!(snap.get("requests_ok").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.get("requests_failed").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("batches").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("swaps").and_then(Value::as_u64), Some(1));
        let latency = snap.get("latency_us").expect("latency block");
        for key in ["p50", "p95", "p99", "mean", "max"] {
            assert!(latency.get(key).is_some(), "missing latency key {key}");
        }
        assert!(snap.get("window_ms").is_some());
        // Round-trips through the JSON writer/parser.
        let text = snap.to_json();
        assert_eq!(serde_json::from_str(&text).unwrap(), snap);
    }

    #[test]
    fn snapshot_surfaces_the_latency_exemplar() {
        let m = Metrics::default();
        m.record_ok(10);
        let plain = m.snapshot();
        assert!(
            plain.get("latency_us").unwrap().get("exemplar").is_none(),
            "untraced traffic yields no exemplar"
        );
        m.record_ok_traced(500, 0xab);
        m.record_ok_traced(100, 0xcd);
        let snap = m.snapshot();
        let exemplar = snap
            .get("latency_us")
            .and_then(|l| l.get("exemplar"))
            .expect("exemplar after traced traffic");
        assert_eq!(
            exemplar.get("latency_us").and_then(Value::as_u64),
            Some(500)
        );
        assert_eq!(
            exemplar.get("trace_id").and_then(Value::as_str),
            Some("000000000000000000000000000000ab")
        );
    }

    #[test]
    fn metrics_render_into_the_shared_registry() {
        let obs = Registry::new();
        let m = Metrics::new(&obs);
        m.record_ok(50);
        m.record_batch(4);
        let text = obs.render();
        assert!(text.contains("serve_requests_ok_total 1"));
        assert!(text.contains("serve_batches_total 1"));
        assert!(text.contains("serve_batch_size_sum 4"));
        assert!(text.contains("serve_latency_us_count 1"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
    }

    #[test]
    fn throughput_uses_the_serving_window_not_uptime() {
        let m = Metrics::default();
        assert_eq!(m.requests_per_sec(), 0.0, "no traffic, no rate");
        m.record_ok(10);
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.record_ok(10);
        let rate = m.requests_per_sec();
        // 2 requests over a ~20 ms window: the rate reflects the window
        // (roughly 100/s), not a fraction of process uptime.
        assert!(rate > 10.0, "window-based rate, got {rate}");
        // Idling does not decay the reported rate.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after_idle = m.requests_per_sec();
        assert!(
            (after_idle - rate).abs() < 1.0,
            "idle must not decay the rate"
        );
    }
}
