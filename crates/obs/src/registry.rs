//! The metric registry: named counters, gauges and histograms with
//! deterministic Prometheus-style text exposition.
//!
//! Registration (name + label lookup) takes a mutex once, on the cold
//! path; callers hold the returned `Arc` handle and every subsequent
//! increment is a single relaxed atomic op. Rendering walks a
//! `BTreeMap` keyed by metric name and sorted label pairs, so the
//! exposition text is byte-stable for a given set of metric values.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::events::{EventLog, Level};
use crate::histogram::Log2Histogram;
use crate::span::Stage;
use crate::trace::{TraceConfig, Tracer};

/// A monotonically increasing counter (relaxed atomics throughout).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, versions, up/down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may go negative transiently under races).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a registered series points at.
#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Log2Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// All series sharing one metric name (differing only in labels).
struct Family {
    kind: &'static str,
    help: String,
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// The process-wide metric registry.
///
/// One per process (or per server in tests); shared as
/// `Arc<Registry>`. Also owns the structured event counters and the
/// distributed tracer so one handle carries the whole observability
/// surface.
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
    events: EventLog,
    tracer: Arc<Tracer>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry (plus its event-level counters and the
    /// distributed-trace buffer counters).
    #[must_use]
    pub fn new() -> Self {
        let registry = Registry {
            families: Mutex::new(BTreeMap::new()),
            events: EventLog::new(),
            tracer: Arc::new(Tracer::new(0, TraceConfig::default(), Instant::now())),
        };
        for level in Level::ALL {
            registry.adopt(
                "obs_events_total",
                &[("level", level.as_str())],
                "Structured events recorded, by level.",
                Handle::Counter(registry.events.counter(level)),
            );
        }
        let _ = registry.adopt_counter(
            "obs_traces_dropped_total",
            &[],
            "Completed trace fragments dropped by tail-sampling or buffer eviction.",
            registry.tracer.traces_dropped(),
        );
        let _ = registry.adopt_counter(
            "obs_traces_kept_total",
            &[],
            "Completed trace fragments the tail sampler kept.",
            registry.tracer.traces_kept(),
        );
        let _ = registry.adopt_gauge(
            "obs_trace_buffer_spans",
            &[],
            "Spans currently held in the kept trace buffer.",
            registry.tracer.buffer_spans(),
        );
        registry
    }

    /// The process-wide distributed tracer (id minting, span recording
    /// and the tail-sampled trace buffer).
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Get-or-register under `name` + `labels`; `existing` is adopted
    /// only if the series is new. Panics on a kind clash — that is a
    /// programming error (two call sites disagree about what a name
    /// means), not an operational condition.
    fn adopt(&self, name: &str, labels: &[(&str, &str)], help: &str, existing: Handle) -> Handle {
        // Registrations and renders keep the family map valid at every
        // point a panic could unwind from, so a poisoned lock is safe
        // to recover instead of cascading through the fleet.
        let mut families = self
            .families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            kind: existing.kind(),
            help: help.to_owned(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            existing.kind(),
            "metric {name} registered as both {} and {}",
            family.kind,
            existing.kind()
        );
        family
            .series
            .entry(sorted_labels(labels))
            .or_insert(existing)
            .clone()
    }

    /// A label-less counter (created on first call, shared after).
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// A labeled counter.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        self.adopt_counter(name, labels, help, Arc::new(Counter::new()))
    }

    /// Registers a caller-owned counter (e.g. one a backend already
    /// increments) so it shows up in this registry's exposition. If
    /// the series already exists the registry's handle wins.
    #[must_use]
    pub fn adopt_counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        counter: Arc<Counter>,
    ) -> Arc<Counter> {
        // `adopt` asserts the kinds agree, so the non-Counter arm is
        // unreachable; the caller's handle is a sound panic-free fallback.
        let fallback = Arc::clone(&counter);
        match self.adopt(name, labels, help, Handle::Counter(counter)) {
            Handle::Counter(c) => c,
            _ => fallback,
        }
    }

    /// A label-less gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// A labeled gauge.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        self.adopt_gauge(name, labels, help, Arc::new(Gauge::new()))
    }

    /// Registers a caller-owned gauge into this registry.
    #[must_use]
    pub fn adopt_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        gauge: Arc<Gauge>,
    ) -> Arc<Gauge> {
        let fallback = Arc::clone(&gauge);
        match self.adopt(name, labels, help, Handle::Gauge(gauge)) {
            Handle::Gauge(g) => g,
            _ => fallback,
        }
    }

    /// A label-less histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Log2Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// A labeled histogram.
    #[must_use]
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Log2Histogram> {
        self.adopt_histogram(name, labels, help, Arc::new(Log2Histogram::new()))
    }

    /// Registers a caller-owned histogram into this registry.
    #[must_use]
    pub fn adopt_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        histogram: Arc<Log2Histogram>,
    ) -> Arc<Log2Histogram> {
        let fallback = Arc::clone(&histogram);
        match self.adopt(name, labels, help, Handle::Histogram(histogram)) {
            Handle::Histogram(h) => h,
            _ => fallback,
        }
    }

    /// A named stage timer: spans entered on it record wall time into
    /// `metric{stage="..."}`.
    #[must_use]
    pub fn stage(&self, metric: &str, stage: &'static str) -> Stage {
        let hist = self.histogram_with(
            metric,
            &[("stage", stage)],
            "Stage wall time in microseconds.",
        );
        Stage::new(stage, hist)
    }

    /// Records a structured event (counted per level; `Warn`/`Error`
    /// echo to stderr unless muted).
    pub fn event(&self, level: Level, message: &str, fields: &[(&str, &str)]) {
        self.events.record(level, message, fields);
    }

    /// Silences the stderr echo of `Warn`/`Error` events (tests).
    pub fn mute_event_echo(&self) {
        self.events.set_echo(false);
    }

    /// Renders the registry as Prometheus text exposition (format
    /// 0.0.4). Families sort by name, series by label pairs, labels by
    /// key — the output is byte-stable for fixed metric values.
    #[must_use]
    pub fn render(&self) -> String {
        let families = self
            .families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind);
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), g.get());
                    }
                    Handle::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Log2Histogram) {
    for (le, cumulative) in h.cumulative_buckets() {
        let le_text = if le == u64::MAX {
            "+Inf".to_owned()
        } else {
            le.to_string()
        };
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            render_labels(labels, &[("le", &le_text)])
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        render_labels(labels, &[("le", "+Inf")]),
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, &[]), h.sum());
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        render_labels(labels, &[]),
        h.count()
    );
}

/// Renders `{k="v",...}` from sorted pairs plus trailing extras (the
/// histogram `le` label, appended last like Prometheus clients do).
/// Empty input renders as nothing.
fn render_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the exposition format.
pub(crate) fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("x_total", "a thing");
        let b = r.counter("x_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = r.counter_with("x_total", &[("shard", "1")], "a thing");
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _c = r.counter("dual", "first");
        let _g = r.gauge("dual", "second");
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter_with("zz_total", &[("b", "2"), ("a", "1")], "late")
            .inc();
        r.gauge("aa_depth", "early").set(-3);
        let h = r.histogram("mm_us", "mid");
        h.record(3);
        let text = r.render();
        let text2 = r.render();
        assert_eq!(text, text2, "rendering must be deterministic");
        let aa = text.find("aa_depth").unwrap();
        let mm = text.find("# TYPE mm_us").unwrap();
        let zz = text.find("zz_total").unwrap();
        assert!(aa < mm && mm < zz, "families sort by name");
        assert!(text.contains("aa_depth -3"));
        // Labels sort by key even when registered out of order.
        assert!(text.contains("zz_total{a=\"1\",b=\"2\"} 1"));
        assert!(text.contains("mm_us_bucket{le=\"4\"} 1"));
        assert!(text.contains("mm_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mm_us_sum 3"));
        assert!(text.contains("mm_us_count 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("esc_total", &[("err", "a\"b\\c\nd")], "")
            .inc();
        let text = r.render();
        assert!(text.contains("esc_total{err=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
