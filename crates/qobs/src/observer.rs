//! The [`Observer`] facade: one cheap-to-clone handle on a metrics
//! registry, threaded through the transform→simulate pipeline.

use crate::metrics::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

/// A shared metrics handle.
///
/// Cloning is one `Arc` bump. A disabled observer ([`Observer::disabled`])
/// makes every instrumentation call a branch on a boolean — no timestamps,
/// no allocation, no locking — which is the zero-overhead-when-disabled
/// guarantee the executor's hot path relies on.
#[derive(Clone)]
pub struct Observer {
    metrics: Arc<MetricsRegistry>,
    enabled: bool,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Default for Observer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Observer {
    /// An observer that records nothing (empty registry).
    #[must_use]
    pub fn disabled() -> Self {
        Observer {
            metrics: Arc::new(MetricsRegistry::new()),
            enabled: false,
        }
    }

    /// An enabled observer recording counters, gauges and span histograms
    /// into a fresh registry.
    #[must_use]
    pub fn metrics_only() -> Self {
        Observer {
            metrics: Arc::new(MetricsRegistry::new()),
            enabled: true,
        }
    }

    /// Replaces the metrics registry (for sharing one registry across
    /// several observers).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Whether instrumentation should record anything.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A clonable handle to the metrics registry.
    #[must_use]
    pub fn metrics_arc(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Adds to a counter (no-op when disabled).
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.enabled {
            self.metrics.inc_counter(name, delta);
        }
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(name, value);
        }
    }

    /// Opens a timed span; the returned guard records the duration into the
    /// `<name>_ns` histogram when it closes.
    ///
    /// When disabled the guard holds no timestamp and its drop is a no-op.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            observer: self,
            name,
            start: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

/// RAII guard for a timed region; created by [`Observer::span`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    observer: &'a Observer,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        self.observer
            .metrics
            .observe_duration(&format!("{}_ns", self.name), start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Observer::disabled();
        obs.counter_add("c", 1);
        obs.gauge_set("g", 1.0);
        {
            let _span = obs.span("stage");
        }
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn enabled_observer_records_spans_and_metrics() {
        let obs = Observer::metrics_only();
        obs.counter_add("c", 2);
        {
            let _span = obs.span("stage");
        }
        assert_eq!(obs.metrics().counter("c"), Some(2));
        let h = obs.metrics().histogram("stage_ns").unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn shared_registry_aggregates_across_observers() {
        let a = Observer::metrics_only();
        let b = Observer::metrics_only().with_metrics(a.metrics_arc());
        a.counter_add("n", 1);
        b.counter_add("n", 2);
        assert_eq!(a.metrics().counter("n"), Some(3));
    }
}
