//! The benchmark's spans: recorded from outside the program, around the
//! calls into each layer, with an `ncl_obs` tracer configured to keep
//! every trace, and turned into a per-layer table (count, mean and
//! p50/p99 self time, coverage) when a traced run ends. A disabled
//! recorder records nothing, so the untraced runs that produce the
//! end-to-end metrics pay almost nothing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ncl_obs::trace::{
    self, NodeFragment, TraceConfig, TraceContext, TraceFragment, TraceSpan, Tracer,
};

use crate::stats;

/// Where a child span attaches: its parent's context (`None` when the
/// recorder is disabled).
pub type Parent = Option<TraceContext>;

/// The span recorder of one run.
pub struct Recorder {
    tracer: Option<Arc<Tracer>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        let keep_all = TraceConfig {
            slow_threshold_us: 0,
            sample_one_in: 1,
            max_spans: usize::MAX,
            shards: 1,
            max_pending: usize::MAX,
        };
        Recorder {
            tracer: enabled.then(|| Arc::new(Tracer::new(0, keep_all, Instant::now()))),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span now, under `parent` or as the root of a new trace;
    /// it closes when the guard drops.
    pub fn open(&self, name: &'static str, parent: Parent) -> Option<TraceSpan> {
        let tracer = self.tracer.as_ref()?;
        let ctx = parent.unwrap_or_else(|| tracer.new_trace());
        Some(tracer.start_span(&ctx, name))
    }

    /// Runs `f` inside a span named `name`; `f` receives the context for
    /// its children.
    pub fn span<T>(&self, name: &'static str, parent: Parent, f: impl FnOnce(Parent) -> T) -> T {
        let guard = self.open(name, parent);
        let out = f(guard.as_ref().map(TraceSpan::context));
        drop(guard);
        out
    }

    /// Records a finished span under `parent` after the fact.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, parent: Parent) {
        if let (Some(tracer), Some(ctx)) = (&self.tracer, parent) {
            let duration = end.saturating_duration_since(start);
            tracer.record_span(&ctx, name, start, duration, Vec::new());
        }
    }

    /// Every closed trace the recorder holds.
    pub fn fragments(&self) -> Vec<TraceFragment> {
        self.tracer
            .as_ref()
            .map_or_else(Vec::new, |t| t.recent(0, usize::MAX))
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: usize,
    /// Mean self time (µs).
    pub mean_us: f64,
    /// Median self time (µs).
    pub p50_us: f64,
    /// 99th-percentile self time (µs).
    pub p99_us: f64,
}

impl LayerRow {
    /// A row from `(self time µs, weight)` samples, each standing for
    /// `weight` spans of the population.
    pub fn new(name: &str, samples: &[(f64, f64)]) -> LayerRow {
        let weight: f64 = samples.iter().map(|s| s.1).sum();
        LayerRow {
            name: name.to_owned(),
            count: samples.len(),
            mean_us: samples.iter().map(|(v, w)| v * w).sum::<f64>()
                / weight.max(f64::MIN_POSITIVE),
            p50_us: stats::weighted_percentile(samples, 0.5).unwrap_or(0.0),
            p99_us: stats::weighted_percentile(samples, 0.99).unwrap_or(0.0),
        }
    }
}

/// The per-layer table of a set of traces, sorted by span name, and the
/// median coverage of each root name: the share of a root's duration its
/// named children account for (1 − root self time / root duration).
/// Self time is the tracer's own rule, a span's duration minus its
/// children's; the benchmark's spans never overlap their siblings.
pub fn layer_table(fragments: Vec<TraceFragment>) -> (Vec<LayerRow>, BTreeMap<String, f64>) {
    let fragments: Vec<NodeFragment> = fragments
        .into_iter()
        .map(|f| NodeFragment {
            node: "perfbench".into(),
            trace_id: f.trace_id,
            spans: f.spans,
        })
        .collect();
    let mut self_us: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut coverage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for t in trace::stitch(&fragments) {
        for s in &t.spans {
            let own = trace::self_time_us(&t, s.span_id) as f64;
            self_us.entry(s.stage.clone()).or_default().push((own, 1.0));
            if s.span_id == t.root && t.duration_us > 0 {
                let c = 1.0 - own / t.duration_us as f64;
                coverage.entry(s.stage.clone()).or_default().push(c);
            }
        }
    }
    let rows = self_us
        .iter()
        .map(|(name, samples)| LayerRow::new(name, samples))
        .collect();
    let coverage = coverage
        .into_iter()
        .filter_map(|(root, c)| Some((root, stats::median(&c)?)))
        .collect();
    (rows, coverage)
}

/// Prints the per-layer table of a traced run (to stdout, before the
/// result line).
pub fn print_table(title: &str, rows: &[LayerRow], coverage: &BTreeMap<String, f64>) {
    println!("== per-layer table: {title} (self time, µs) ==");
    println!(
        "{:<34} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "mean", "p50", "p99"
    );
    for r in rows {
        println!(
            "{:<34} {:>7} {:>12.1} {:>12.1} {:>12.1}",
            r.name, r.count, r.mean_us, r.p50_us, r.p99_us
        );
    }
    for (root, c) in coverage {
        println!("coverage of {root}: {:.2}%", c * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_obs::trace::TraceSpanRecord;

    fn span(id: u64, parent: Option<u64>, stage: &str, start: u64, dur: u64) -> TraceSpanRecord {
        TraceSpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            stage: stage.into(),
            start_us: start,
            duration_us: dur,
            links: Vec::new(),
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let parent = rec.span("root", None, |p| {
            rec.record("child", Instant::now(), Instant::now(), p);
            p
        });
        assert!(parent.is_none());
        assert!(rec.fragments().is_empty());
    }

    #[test]
    fn self_time_and_coverage_of_a_trace() {
        // root 100 µs: a 60 µs (with a 10 µs child), b 35 µs; 5 µs unnamed.
        let fragment = TraceFragment {
            trace_id: 1,
            spans: vec![
                span(1, None, "root", 0, 100),
                span(2, Some(1), "a", 0, 60),
                span(3, Some(2), "a.child", 5, 10),
                span(4, Some(1), "b", 60, 35),
            ],
        };
        let mut second = fragment.clone();
        second.trace_id = 2;
        for s in &mut second.spans {
            s.trace_id = 2;
        }
        let (rows, coverage) = layer_table(vec![fragment, second]);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "a.child", "b", "root"]);
        assert_eq!(rows[0].count, 2);
        assert_eq!((rows[0].mean_us, rows[0].p50_us), (50.0, 50.0));
        assert_eq!(rows[3].p50_us, 5.0);
        assert!((coverage["root"] - 0.95).abs() < 1e-12);
        assert!(!coverage.contains_key("a"), "a is not a root");
    }

    #[test]
    fn recorded_spans_nest_under_their_root() {
        let rec = Recorder::new(true);
        rec.span("outer", None, |outer| {
            let t = Instant::now();
            rec.span("inner", outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.record("after", t, Instant::now(), outer);
        });
        let (rows, coverage) = layer_table(rec.fragments());
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["after", "inner", "outer"]);
        assert!(rows[1].mean_us >= 2_000.0);
        assert!(coverage.contains_key("outer"));
    }

    #[test]
    fn weighted_rows_stand_for_their_population() {
        // Nine fast samples kept 1 in 8 stand for 72; one slow one for 1.
        let mut samples = vec![(10.0, 8.0); 9];
        samples.push((1_000.0, 1.0));
        let row = LayerRow::new("x", &samples);
        assert_eq!(row.count, 10);
        assert_eq!(row.p50_us, 10.0);
        assert_eq!(row.p99_us, 1_000.0);
        assert!((row.mean_us - (720.0 + 1_000.0) / 73.0).abs() < 1e-9);
    }
}
