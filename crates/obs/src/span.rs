//! Stage spans: `Instant`-pair timers that record into a histogram.
//!
//! A [`Stage`] is created once (cold path, one registry lookup) and
//! held by the instrumented loop; entering it costs two `Instant`
//! reads plus one histogram record on drop (or on [`Span::close`],
//! which also hands the recorded duration back).

use std::sync::Arc;
use std::time::{Duration, Instant};

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
            started: Some(Instant::now()),
            _trace: None,
        }
    }

    /// Starts a span that *also* records into the distributed trace
    /// buffer, parented by `ctx` — this is how daemon stages join an
    /// increment-scoped trace without changing their histogram series.
    #[must_use]
    pub fn enter_traced(&self, tracer: &Arc<Tracer>, ctx: &TraceContext) -> Span<'_> {
        Span {
            stage: self,
            started: Some(Instant::now()),
            _trace: Some(tracer.start_span(ctx, self.name)),
        }
    }
}

/// An in-flight span; completes (and records) when closed or dropped.
pub struct Span<'a> {
    stage: &'a Stage,
    /// `None` once recorded.
    started: Option<Instant>,
    /// Records into the trace buffer when the span drops.
    _trace: Option<TraceSpan>,
}

impl Span<'_> {
    /// Completes the span now and returns the duration it recorded.
    pub fn close(mut self) -> Duration {
        self.record()
    }

    fn record(&mut self) -> Duration {
        let Some(started) = self.started.take() else {
            return Duration::ZERO;
        };
        let elapsed = started.elapsed();
        self.stage.hist.record(elapsed.as_micros() as u64);
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn spans_record_into_the_stage_histogram() {
        let r = Registry::new();
        let stage = r.stage("test_stage_us", "work");
        let span = stage.enter();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let recorded = span.close();
        assert!(recorded >= std::time::Duration::from_millis(2));
        {
            let _guard = stage.enter();
        }
        assert_eq!(stage.histogram().count(), 2);
        assert!(stage.histogram().max() >= 2_000);
        // The registry hands out the same series for the same stage.
        assert_eq!(r.stage("test_stage_us", "work").histogram().count(), 2);
    }
}
