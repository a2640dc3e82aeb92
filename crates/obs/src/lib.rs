//! `sww-obs`: the observability subsystem for the SWW reproduction.
//!
//! Everything the stack records about itself flows through this crate:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) live in a global
//!   [`Registry`] keyed by `(name, labels)`. Handles wrap atomics, so
//!   updating a metric is a single atomic op; the registry lock is only
//!   taken when a series is first resolved, and callers on hot paths can
//!   cache handles.
//! * **Span timing** ([`Span`]) measures real wall-clock elapsed time and,
//!   side by side, the *virtual* (modelled) time of the same operation —
//!   e.g. the generation seconds predicted by `sww-energy::cost` — in two
//!   parallel histograms. This keeps simulated-time results separable from
//!   host performance in every exposition.
//! * **Exposition** ([`render`]) serialises the whole registry in the
//!   Prometheus text format (`name{label="v"} value`), hand-rolled with no
//!   dependencies. `GenerativeServer` serves it at `/metrics`, the `sww
//!   stats` subcommand prints it, and the `report` binary appends it as a
//!   metrics appendix on stderr.
//!
//! The contract for every series (name, type, unit, labels, emitting code
//! path) is documented in `OBSERVABILITY.md` at the repository root.
//! Instrumentation is observe-only by design: recording a metric never
//! changes negotiation, generation, or wire behaviour, so calibrated
//! experiment outputs are byte-identical with and without scraping.
//!
//! # Example
//!
//! ```
//! let c = sww_obs::counter("doc_events_total", &[("kind", "demo")]);
//! c.inc();
//! let h = sww_obs::histogram("doc_latency_seconds", &[], sww_obs::DURATION_BUCKETS);
//! h.observe(0.02);
//! let text = sww_obs::render();
//! assert!(text.contains("doc_events_total{kind=\"demo\"} 1"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod registry;
mod render;
mod span;

pub use metrics::{Counter, Gauge, Histogram, DURATION_BUCKETS, SIZE_BUCKETS};
pub use registry::Registry;
pub use span::Span;

/// Resolve (registering on first use) a counter in the global registry.
///
/// # Panics
/// Panics if the series name is already registered as a different type.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    Registry::global().counter(name, labels)
}

/// Resolve (registering on first use) a gauge in the global registry.
///
/// # Panics
/// Panics if the series name is already registered as a different type.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    Registry::global().gauge(name, labels)
}

/// Resolve (registering on first use) a histogram in the global registry.
/// `buckets` are upper bounds in ascending order; a `+Inf` bucket is
/// implicit. Bucket layout is fixed by whichever call registers first.
///
/// # Panics
/// Panics if the series name is already registered as a different type.
pub fn histogram(
    name: &'static str,
    labels: &[(&'static str, &str)],
    buckets: &[f64],
) -> Histogram {
    Registry::global().histogram(name, labels, buckets)
}

/// Serialise the global registry in the Prometheus text format.
pub fn render() -> String {
    Registry::global().render()
}

/// Drop every series in the global registry (test isolation).
pub fn reset() {
    Registry::global().reset();
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `⌈pct/100 · n⌉` (at least the first), or `T::default()` for an
/// empty sample. The one percentile every latency summary in the
/// workspace reports — bench sweeps, replay scorecards, the modelled
/// queue, and the batch scheduler's wait p99.
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_use_nearest_rank() {
        let us = [1000u64, 2000, 3000, 4000, 100_000];
        assert_eq!(percentile(&us, 50.0), 3000);
        assert_eq!(percentile(&us, 99.0), 100_000);
        assert_eq!(percentile(&us, 0.0), 1000, "rank clamps to the first");
        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 50.0), 3.0);
        assert_eq!(percentile::<f64>(&[], 99.0), 0.0);
    }
}
