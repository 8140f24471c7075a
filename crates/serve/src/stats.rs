//! Serving observability: a latency view over the shared workspace
//! histogram and the [`ServerStats`] snapshot assembled from it.
//!
//! The fixed-bucket log2 histogram that used to live here was generalised
//! into [`alf_obs::metrics::Histogram`]; [`LatencyHistogram`] remains as
//! the duration-typed serving view (`record(Duration)`, quantiles in
//! milliseconds) and can wrap a histogram registered in a
//! [`MetricsRegistry`](alf_obs::metrics::MetricsRegistry), so the server's
//! latency distribution is the *same cells* whether read through
//! [`ServerStats`] or a registry snapshot.

use std::sync::Arc;
use std::time::Duration;

use alf_obs::json::JsonWriter;
use alf_obs::metrics::{Histogram, HistogramSpec};

/// Fixed-bucket, log-scale latency histogram.
///
/// A duration-typed view over [`alf_obs::metrics::Histogram`] with the
/// [`HistogramSpec::latency_ns`] layout: bucket 0 at ≤ 1 µs, sixteenths
/// of an octave (quantile error ≤ `2^(1/16) − 1 ≈ 4.4%`), catch-all above
/// `1 µs · 2^30 ≈ 18 min`. [`record`] is a branch, a `log2` and two
/// relaxed atomic increments — no allocation, no syscalls — so it is safe
/// to call from the serving hot path, where the only clock source is
/// `Instant`.
///
/// [`record`]: LatencyHistogram::record
///
/// # Example
///
/// ```
/// use alf_serve::LatencyHistogram;
/// use std::time::Duration;
///
/// let h = LatencyHistogram::new();
/// for ms in [1u64, 2, 3, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.total(), 4);
/// assert!(h.quantile_ms(0.5) >= 2.0);
/// assert!(h.quantile_ms(1.0) >= 100.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    inner: Arc<Histogram>,
}

impl LatencyHistogram {
    /// Empty histogram. The bucket vector is the only allocation this type
    /// ever makes.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Histogram::new(HistogramSpec::latency_ns())),
        }
    }

    /// View over an existing shared histogram (typically registered as
    /// `serve.latency_ns` in a metrics registry). Samples recorded through
    /// either handle are visible through both.
    ///
    /// # Panics
    ///
    /// Panics when `inner` does not use the [`HistogramSpec::latency_ns`]
    /// layout — the millisecond quantile math depends on nanosecond
    /// samples.
    pub fn from_shared(inner: Arc<Histogram>) -> Self {
        assert_eq!(
            inner.spec(),
            HistogramSpec::latency_ns(),
            "LatencyHistogram requires the latency_ns bucket layout"
        );
        Self { inner }
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner.record(ns);
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.inner.total()
    }

    /// Upper bound of the bucket containing the `q`-quantile sample, in
    /// milliseconds (0.0 for an empty histogram). `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.inner.quantile(q) / 1e6
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time snapshot of a [`Server`](crate::Server)'s counters and
/// distributions. Counters are monotone; a snapshot taken after
/// [`shutdown`](crate::Server::shutdown) is final.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered with a prediction (or a per-batch error).
    pub completed: u64,
    /// Requests rejected because the queue was full.
    pub rejected_overloaded: u64,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Admitted requests answered with [`Expired`](crate::ServeError::Expired)
    /// because their deadline passed in the queue. After a drain,
    /// `completed + expired == submitted`.
    pub expired: u64,
    /// Successful hot swaps applied so far.
    pub swaps: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// `batch_histogram[n]` = number of batches carrying exactly `n`
    /// requests; index 0 is unused (batches are never empty).
    pub batch_histogram: Vec<u64>,
    /// Mean requests per executed batch (0.0 before the first batch).
    pub mean_batch_occupancy: f64,
    /// Median queue-to-response latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

impl ServerStats {
    /// Total typed rejections (overload + shutdown).
    pub fn rejected(&self) -> u64 {
        self.rejected_overloaded + self.rejected_shutdown
    }

    /// Writes the snapshot as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("submitted", self.submitted);
        w.field_u64("completed", self.completed);
        w.field_u64("rejected_overloaded", self.rejected_overloaded);
        w.field_u64("rejected_shutdown", self.rejected_shutdown);
        w.field_u64("expired", self.expired);
        w.field_u64("swaps", self.swaps);
        w.field_u64("batches", self.batches);
        w.field_u64s("batch_histogram", self.batch_histogram.iter().copied());
        w.field_f64("mean_batch_occupancy", self.mean_batch_occupancy);
        w.field_f64("p50_ms", self.p50_ms);
        w.field_f64("p95_ms", self.p95_ms);
        w.field_f64("p99_ms", self.p99_ms);
        w.end_object();
    }

    /// One JSON object, serialised through the shared workspace writer
    /// (`alf_obs::json`). Floats use shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.quantile_ms(0.99), 0.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_samples() {
        let h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile_ms(0.50);
        let p95 = h.quantile_ms(0.95);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The reported bound must sit within one bucket (≤ 4.4%) above
        // the exact quantile and never below it.
        assert!((50.0..=52.3).contains(&p50), "p50 {p50}");
        assert!((95.0..=99.3).contains(&p95), "p95 {p95}");
        assert!((99.0..=103.5).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.total(), 2);
        assert!(h.quantile_ms(0.0) > 0.0);
        assert!(h.quantile_ms(1.0).is_finite());
    }

    #[test]
    fn shared_histogram_is_visible_through_both_handles() {
        let shared = Arc::new(Histogram::new(HistogramSpec::latency_ns()));
        let view = LatencyHistogram::from_shared(Arc::clone(&shared));
        view.record(Duration::from_millis(2));
        shared.record(3_000_000);
        assert_eq!(view.total(), 2);
        assert_eq!(shared.total(), 2);
    }

    #[test]
    fn stats_json_contains_counters() {
        let stats = ServerStats {
            submitted: 10,
            completed: 8,
            rejected_overloaded: 1,
            rejected_shutdown: 1,
            expired: 1,
            swaps: 2,
            batches: 3,
            batch_histogram: vec![0, 1, 2],
            mean_batch_occupancy: 2.67,
            p50_ms: 1.5,
            p95_ms: 3.0,
            p99_ms: 4.0,
        };
        assert_eq!(stats.rejected(), 2);
        let json = stats.to_json();
        assert!(json.contains("\"submitted\":10"));
        assert!(json.contains("\"expired\":1"));
        assert!(json.contains("\"batch_histogram\":[0,1,2]"));
        assert!(json.contains("\"mean_batch_occupancy\":2.67"));
        assert!(json.contains("\"p99_ms\":4}"));
    }
}
