//! # qobs — zero-dependency observability for the dqct pipeline
//!
//! `qobs` provides metrics (counters, gauges, log-scale histograms),
//! hierarchical tracing with a Chrome trace-event exporter, and JSON/text
//! rendering with **no external crate dependencies**, so the workspace
//! builds fully offline.
//!
//! [`Observer`] is a cheap-to-clone handle on a [`MetricsRegistry`].
//! Library code accepts an `Observer` and instruments itself with
//! [`Observer::span`] (a `<name>_ns` timing histogram),
//! [`Observer::counter_add`] and [`Observer::gauge_set`]; when the observer
//! is disabled every one of those calls short-circuits on a boolean — no
//! timestamps, no allocation, no locking. That is the
//! zero-overhead-when-disabled guarantee the simulator hot path relies on.
//! [`Tracer`] is its timeline sibling: per-shot and phase spans merged in
//! shot order into one deterministic trace.
//!
//! ```
//! use qobs::Observer;
//!
//! let obs = Observer::metrics_only();
//! obs.counter_add("shots", 16);
//! {
//!     let _span = obs.span("transform");
//! }
//! assert_eq!(obs.metrics().counter("shots"), Some(16));
//! assert_eq!(obs.metrics().histogram("transform_ns").unwrap().count, 1);
//! ```

pub mod json;
pub mod metrics;
pub mod observer;
pub mod trace;

pub use metrics::{Histogram, Metric, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use observer::{Observer, SpanGuard};
pub use trace::{ClockMode, FieldValue, LocalTrace, TraceEvent, Tracer};
