//! Structured events: leveled, key/value-tagged diagnostics replacing
//! scattered `eprintln!` calls.
//!
//! Every event increments a per-level counter (exposed as
//! `obs_events_total{level=...}`), and `Warn`/`Error` events echo one
//! structured line to stderr so operator logs and CI greps keep
//! working without a log pipeline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::registry::Counter;

/// Event severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    /// All levels, lowest first.
    pub(crate) const ALL: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// The lowercase label value.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            Level::Debug => 0,
            Level::Info => 1,
            Level::Warn => 2,
            Level::Error => 3,
        }
    }
}

/// The single-line rendering used for the stderr echo:
/// `[warn] message key="value" ...`.
#[must_use]
fn render_line(level: Level, message: &str, fields: &[(&str, &str)]) -> String {
    let mut line = format!("[{}] {message}", level.as_str());
    for (k, v) in fields {
        line.push_str(&format!(" {k}={v:?}"));
    }
    line
}

/// Per-level event counters plus the stderr echo switch.
pub struct EventLog {
    counters: [Arc<Counter>; 4],
    echo: AtomicBool,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// A log with every level counter at zero and the echo on.
    #[must_use]
    pub fn new() -> Self {
        EventLog {
            counters: std::array::from_fn(|_| Arc::new(Counter::new())),
            echo: AtomicBool::new(true),
        }
    }

    /// The per-level counter (what the registry adopts for exposition).
    #[must_use]
    pub fn counter(&self, level: Level) -> Arc<Counter> {
        Arc::clone(&self.counters[level.index()])
    }

    /// Enables/disables the `Warn`/`Error` stderr echo.
    pub(crate) fn set_echo(&self, on: bool) {
        self.echo.store(on, Ordering::Relaxed);
    }

    /// Records an event.
    pub fn record(&self, level: Level, message: &str, fields: &[(&str, &str)]) {
        self.counters[level.index()].inc();
        if level >= Level::Warn && self.echo.load(Ordering::Relaxed) {
            eprintln!("{}", render_line(level, message, fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_count_per_level() {
        let log = EventLog::new();
        log.set_echo(false);
        log.record(Level::Info, "first", &[]);
        log.record(Level::Warn, "second", &[("k", "v")]);
        log.record(Level::Warn, "third", &[]);
        assert_eq!(log.counter(Level::Info).get(), 1);
        assert_eq!(log.counter(Level::Warn).get(), 2);
        assert_eq!(log.counter(Level::Error).get(), 0);
    }

    #[test]
    fn render_line_is_greppable() {
        assert_eq!(
            render_line(
                Level::Warn,
                "checkpoint write failed",
                &[("error", "disk \"full\"")]
            ),
            "[warn] checkpoint write failed error=\"disk \\\"full\\\"\""
        );
    }
}
