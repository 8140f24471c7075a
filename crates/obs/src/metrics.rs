//! The metrics registry: named counters, gauges and fixed-bucket log2
//! histograms, all atomic and shareable across threads.
//!
//! A [`MetricsRegistry`] is a cheap-to-clone handle (`Arc` inside) that
//! hands out lock-free instruments:
//!
//! * [`Counter`] — monotone `u64`, `fetch_add` on the hot path;
//! * [`Gauge`] — last-write-wins `f64` (stored as bits in an `AtomicU64`);
//! * [`Histogram`] — fixed-bucket log2 histogram of `u64` samples
//!   (latencies in nanoseconds, sizes in bytes, …). The bucket layout is
//!   decided at construction, so [`Histogram::record`] is a branch, a
//!   `log2` and two relaxed increments — no allocation, no locks.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a short mutex to
//! get-or-create the named instrument; hot paths hold the returned handle
//! and never touch the registry again. [`MetricsRegistry::snapshot`]
//! produces a point-in-time copy that serialises through the workspace
//! JSON writer.
//!
//! # Example
//!
//! ```
//! use alf_obs::metrics::{HistogramSpec, MetricsRegistry};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("serve.submitted");
//! requests.inc();
//! requests.add(2);
//! let depth = registry.gauge("serve.queue_depth");
//! depth.set(3.0);
//! let latency = registry.histogram("serve.latency_ns", HistogramSpec::latency_ns());
//! latency.record(12_000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("serve.submitted"), Some(3));
//! assert!(snap.to_json().contains("\"serve.queue_depth\":3"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonWriter;

/// A monotone counter. Clones share the same underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge. Clones share the same underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucket layout of a [`Histogram`]: `sub_buckets` buckets per octave
/// (power of two) starting above `first_bucket_max`, covering `octaves`
/// octaves, with a final catch-all bucket.
///
/// `sub_buckets = s` bounds the relative quantile error at `2^(1/s) − 1`
/// of the reported value: ≈ 19% for quarter octaves, ≈ 4.4% for the
/// sixteenths [`HistogramSpec::latency_ns`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSpec {
    /// Inclusive upper bound of bucket 0, in the caller's unit.
    pub first_bucket_max: u64,
    /// Buckets per octave.
    pub sub_buckets: usize,
    /// Octaves covered above bucket 0.
    pub octaves: usize,
}

impl HistogramSpec {
    /// The serving-latency layout: bucket 0 at ≤ 1 µs, sixteenths of an
    /// octave, 30 octaves (catch-all above `1 µs · 2^30 ≈ 18 min`) —
    /// samples in nanoseconds. Sixteenths because the reported p50/p99 are
    /// what an operator compares stages with: around 3 ms a bucket is
    /// ≈ 0.13 ms wide, below the queueing and wake-up delays worth seeing,
    /// where a quarter octave (≈ 0.6 ms) hid them. 480 buckets, 4 KiB.
    pub fn latency_ns() -> Self {
        Self {
            first_bucket_max: 1_000,
            sub_buckets: 16,
            octaves: 30,
        }
    }

    fn buckets(&self) -> usize {
        self.sub_buckets * self.octaves
    }
}

/// Fixed-bucket, log-scale histogram over `u64` samples with atomic
/// buckets (safe to record from any thread through a shared handle).
///
/// Generalised from the serving latency histogram: the unit is the
/// caller's (nanoseconds for latencies, bytes for sizes); quantiles come
/// back in the same unit as the upper bound of the containing bucket.
#[derive(Debug)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Histogram {
    /// Empty histogram with the given bucket layout.
    pub fn new(spec: HistogramSpec) -> Self {
        let mut counts = Vec::with_capacity(spec.buckets());
        counts.resize_with(spec.buckets(), AtomicU64::default);
        Self {
            spec,
            counts,
            total: AtomicU64::new(0),
        }
    }

    /// The bucket layout.
    pub fn spec(&self) -> HistogramSpec {
        self.spec
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[self.bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper bound (in the sample unit) of the bucket containing the
    /// `q`-quantile sample; 0.0 for an empty histogram. `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return self.upper_bound(i);
            }
        }
        self.upper_bound(self.counts.len() - 1)
    }

    fn bucket(&self, value: u64) -> usize {
        if value <= self.spec.first_bucket_max {
            return 0;
        }
        let octaves = (value as f64 / self.spec.first_bucket_max as f64).log2();
        ((octaves * self.spec.sub_buckets as f64) as usize).min(self.counts.len() - 1)
    }

    fn upper_bound(&self, bucket: usize) -> f64 {
        self.spec.first_bucket_max as f64
            * 2f64.powf((bucket + 1) as f64 / self.spec.sub_buckets as f64)
    }
}

impl Clone for Histogram {
    /// Snapshot clone: the new histogram starts from a point-in-time copy
    /// of the counts and shares nothing with the original.
    fn clone(&self) -> Self {
        let h = Histogram::new(self.spec);
        for (dst, src) in h.counts.iter().zip(&self.counts) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        h.total.store(self.total(), Ordering::Relaxed);
        h
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec && self.total() == other.total() && self.counts() == other.counts()
    }
}

impl Eq for Histogram {}

#[derive(Debug, Default)]
struct Registered {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// A shareable registry of named instruments. Cloning the registry (or an
/// instrument handle) is cheap and refers to the same underlying cells.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registered>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = reg.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        reg.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, g)) = reg.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        reg.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Gets or creates the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the name exists with a different bucket layout — two
    /// subsystems disagreeing about a histogram's meaning is a bug worth
    /// failing loudly on.
    pub fn histogram(&self, name: &str, spec: HistogramSpec) -> Arc<Histogram> {
        let mut reg = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = reg.histograms.iter().find(|(n, _)| n == name) {
            assert_eq!(
                h.spec(),
                spec,
                "histogram {name:?} re-registered with a different bucket layout"
            );
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(spec));
        reg.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Point-in-time copy of every registered instrument, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.inner.lock().expect("metrics registry poisoned");
        let mut counters: Vec<(String, u64)> = reg
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, f64)> = reg
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = reg
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    HistogramSnapshot {
                        total: h.total(),
                        counts: h.counts(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                    },
                )
            })
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of one histogram, with precomputed quantile bounds
/// (in the sample unit).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub total: u64,
    /// Per-bucket counts.
    pub counts: Vec<u64>,
    /// Median upper bound.
    pub p50: f64,
    /// 95th-percentile upper bound.
    pub p95: f64,
    /// 99th-percentile upper bound.
    pub p99: f64,
}

/// Point-in-time copy of a whole [`MetricsRegistry`], name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram copies.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialises the snapshot into an open [`JsonWriter`] as three nested
    /// objects (`counters`, `gauges`, `histograms`). Histograms skip
    /// trailing empty buckets to keep the payload proportional to the data.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, v) in &self.gauges {
            w.field_f64(name, *v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.field_u64("total", h.total);
            w.field_f64("p50", h.p50);
            w.field_f64("p95", h.p95);
            w.field_f64("p99", h.p99);
            let used = h.counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            w.field_u64s("counts", h.counts[..used].iter().copied());
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// The snapshot as one JSON object.
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
    fn counters_and_gauges_share_cells_across_clones() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("x").get(), 3);
        let g = registry.gauge("y");
        registry.gauge("y").set(1.5);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new(HistogramSpec::latency_ns());
        for ms in 1..=100u64 {
            h.record(ms * 1_000_000);
        }
        let p50 = h.quantile(0.50) / 1e6;
        let p99 = h.quantile(0.99) / 1e6;
        // Within one sixteenth-octave bucket (≤ 4.4%) above the sample.
        assert!((50.0..=52.3).contains(&p50), "p50 {p50}");
        assert!((99.0..=103.5).contains(&p99), "p99 {p99}");
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn histogram_extremes_stay_in_range() {
        let h = Histogram::new(HistogramSpec::latency_ns());
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.total(), 2);
        assert!(h.quantile(0.0) > 0.0);
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn snapshot_lookup_and_json() {
        let registry = MetricsRegistry::new();
        registry.counter("a.count").add(7);
        registry.gauge("b.gauge").set(0.5);
        registry
            .histogram("c.hist", HistogramSpec::latency_ns())
            .record(5_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a.count"), Some(7));
        assert_eq!(snap.gauge("b.gauge"), Some(0.5));
        assert_eq!(snap.histogram("c.hist").unwrap().total, 1);
        assert_eq!(snap.counter("missing"), None);
        let json = snap.to_json();
        assert!(json.contains("\"a.count\":7"));
        assert!(json.contains("\"b.gauge\":0.5"));
        assert!(json.contains("\"c.hist\":{\"total\":1"));
    }

    #[test]
    #[should_panic(expected = "different bucket layout")]
    fn histogram_relayout_is_refused() {
        let registry = MetricsRegistry::new();
        registry.histogram("h", HistogramSpec::latency_ns());
        registry.histogram(
            "h",
            HistogramSpec {
                first_bucket_max: 1,
                sub_buckets: 1,
                octaves: 8,
            },
        );
    }

    #[test]
    fn histogram_clone_is_a_snapshot() {
        let h = Histogram::new(HistogramSpec::latency_ns());
        h.record(10);
        let copy = h.clone();
        h.record(20);
        assert_eq!(copy.total(), 1);
        assert_eq!(h.total(), 2);
        assert_ne!(copy, h);
    }
}
