//! Stage spans: `Instant`-pair timers that record into a histogram.
//!
//! A [`Stage`] is created once (cold path, one registry lookup) and
//! held by the instrumented loop; entering it costs two `Instant`
//! reads plus one histogram record on drop.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::Log2Histogram;
use crate::trace::{TraceContext, TraceSpan, Tracer};

/// A named, reusable stage timer bound to one histogram series.
pub struct Stage {
    name: &'static str,
    hist: Arc<Log2Histogram>,
}

impl Stage {
    pub(crate) fn new(name: &'static str, hist: Arc<Log2Histogram>) -> Self {
        Stage { name, hist }
    }

    /// The stage's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The histogram this stage records into (µs).
    #[must_use]
    pub fn histogram(&self) -> &Arc<Log2Histogram> {
        &self.hist
    }

    /// Starts a span; the guard records on drop.
    #[must_use]
    pub fn enter(&self) -> Span<'_> {
        Span {
            stage: self,
            started: Instant::now(),
            trace: None,
        }
    }

    /// Starts a span that *also* records into the distributed trace
    /// buffer, parented by `ctx` — this is how daemon stages join an
    /// increment-scoped trace without changing their histogram series.
    #[must_use]
    pub fn enter_traced(&self, tracer: &Arc<Tracer>, ctx: &TraceContext) -> Span<'_> {
        Span {
            stage: self,
            started: Instant::now(),
            trace: Some(tracer.start_span(ctx, self.name)),
        }
    }

    /// Times a closure as one span of this stage.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.enter();
        f()
    }
}

/// An in-flight span; completes (and records) when dropped.
pub struct Span<'a> {
    stage: &'a Stage,
    started: Instant,
    trace: Option<TraceSpan>,
}

impl Span<'_> {
    /// The trace context children of this span should carry, when the
    /// span was opened with [`Stage::enter_traced`].
    #[must_use]
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.trace.as_ref().map(TraceSpan::context)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.stage
            .hist
            .record(self.started.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn spans_record_into_the_stage_histogram() {
        let r = Registry::new();
        let stage = r.stage("test_stage_us", "work");
        stage.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        {
            let _guard = stage.enter();
        }
        assert_eq!(stage.name(), "work");
        assert_eq!(stage.histogram().count(), 2);
        assert!(stage.histogram().max() >= 2_000);
        // The registry hands out the same series for the same stage.
        assert_eq!(r.stage("test_stage_us", "work").histogram().count(), 2);
    }
}
