//! `ncl_obs` — fleet-wide observability for the Replay4NCL stack.
//!
//! One zero-dependency layer every crate in the fleet shares:
//!
//! * [`Registry`] — named counters, gauges and [`Log2Histogram`]s.
//!   Registration takes a mutex once; the returned `Arc` handles cost
//!   one relaxed atomic op per update, so instrumentation is safe on
//!   the request path and inside the training loop.
//! * [`Stage`]/[`Span`] — `Instant`-pair timers for named stages
//!   (ingest, train, checkpoint, ...) recording into a per-stage
//!   histogram.
//! * [`Level`]/[`EventLog`] — structured, leveled events with key/value
//!   fields replacing ad-hoc `eprintln!` diagnostics, counted per level
//!   (warnings still echo to stderr).
//! * [`Registry::render`] plus [`exposition::relabel`] and
//!   [`exposition::merge`] — deterministic Prometheus-style text
//!   exposition, scrapeable over the serve protocol's `metrics` op
//!   and mergeable by the router into one fleet view.
//!
//! Instrumentation never touches numeric code: it observes wall time
//! and counts around the deterministic kernels, so bit-identity
//! guarantees (checkpoints, replicated deltas) are unaffected.

pub mod events;
pub mod exposition;
pub mod histogram;
pub mod registry;
pub mod span;
pub mod trace;

pub use events::{EventLog, Level};
pub use histogram::{Log2Histogram, BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use span::{Span, Stage};
pub use trace::{
    stitch, NodeFragment, StitchedSpan, StitchedTrace, TraceConfig, TraceContext, TraceFragment,
    TraceSpan, TraceSpanRecord, Tracer,
};
