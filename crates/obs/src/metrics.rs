//! Thread-safe metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Shared handles are `Arc<AtomicU64>`-backed and cheap to clone; call sites
//! that sit on the sim's worker threads should instead accumulate into the
//! plain [`LocalHist`] / plain integers of their shard result and let the
//! engine [`Histogram::absorb`] the merged totals once after the join —
//! that keeps the predict path free of shared-memory traffic and makes the
//! merged values a deterministic function of the workload, not of thread
//! scheduling.
//!
//! Registry keys are `(name, label)`; labels are free-form `key=value`
//! strings (e.g. `model=PB-PPM`) or empty. Snapshots iterate a `BTreeMap`,
//! so export order is deterministic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket `i` counts values `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 holds zeros, the last bucket overflows).
pub const HIST_BUCKETS: usize = 48;

fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `index` (`u64::MAX` for the overflow
/// bucket).
pub fn bucket_bound(index: usize) -> u64 {
    if index >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// Upper bound of the bucket containing the `q`-quantile of a bucketed
/// distribution, given `count` total observations and `(upper bound,
/// bucket count)` pairs in ascending bound order.
///
/// This returns the containing bucket's **upper bound**, not an
/// interpolated quantile: with power-of-two buckets the answer is "the
/// p99 is below 4096 ns", never "the p99 is 3871 ns". That coarseness is
/// deliberate — bounds are stable across runs, interpolation inside a
/// bucket would be fiction. Returns 0 when `count` is 0, and the last
/// seen bound if the pairs sum to less than `count` (malformed input).
fn bucketed_quantile_bound(count: u64, q: f64, buckets: impl Iterator<Item = (u64, u64)>) -> u64 {
    if count == 0 {
        return 0;
    }
    // In [1, count] after the clamp/ceil, so the narrowing is lossless.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    let mut last_bound = 0u64;
    for (bound, n) in buckets {
        last_bound = bound;
        seen += n;
        if seen >= target {
            return bound;
        }
    }
    last_bound
}

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins gauge.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A shared fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistCore::new()))
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // Relaxed: independent statistic cells; a reader may see count,
        // sum, and buckets mid-update, which snapshots tolerate.
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds a shard-local accumulator in (one shared-memory touch per
    /// bucket instead of per observation).
    pub fn absorb(&self, local: &LocalHist) {
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                // Relaxed: same tearing-tolerant statistics as observe().
                self.0.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        // Relaxed: same tearing-tolerant statistics as observe().
        self.0.count.fetch_add(local.count, Ordering::Relaxed);
        self.0.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str, label: &str) -> HistogramSnapshot {
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                // Relaxed: statistic read, no ordering obligation.
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some(BucketCount {
                    le: bucket_bound(i),
                    count,
                })
            })
            .collect();
        HistogramSnapshot {
            name: name.to_owned(),
            label: label.to_owned(),
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Contention-free histogram accumulator for one worker shard: plain data,
/// mergeable in a deterministic order and absorbed into a shared
/// [`Histogram`] after the join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHist {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &LocalHist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`); 0 for an empty accumulator. See `bucketed_quantile_bound`
    /// for the exact (bucket-bound, not interpolated) semantics.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        bucketed_quantile_bound(
            self.count,
            q,
            self.buckets
                .iter()
                .enumerate()
                .map(|(i, &n)| (bucket_bound(i), n)),
        )
    }
}

/// One exported counter or gauge value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name (dotted, e.g. `sim.cache.demand_hits`).
    pub name: String,
    /// Free-form `key=value` label, or empty.
    pub label: String,
    /// The value.
    pub value: u64,
}

/// One non-empty histogram bucket: `count` observations below `le`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Exclusive upper bound of the bucket.
    pub le: u64,
    /// Observations in the bucket (non-cumulative).
    pub count: u64,
}

/// One exported histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Free-form `key=value` label, or empty.
    pub label: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile. See
    /// `bucketed_quantile_bound` for the exact (bucket-bound, not
    /// interpolated) semantics.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        bucketed_quantile_bound(self.count, q, self.buckets.iter().map(|b| (b.le, b.count)))
    }
}

/// A deterministic point-in-time export of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by `(name, label)`.
    pub counters: Vec<MetricValue>,
    /// All gauges, sorted by `(name, label)`.
    pub gauges: Vec<MetricValue>,
    /// All histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        find(&self.counters, name, label)
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str, label: &str) -> Option<u64> {
        find(&self.gauges, name, label)
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
    }
}

fn find(values: &[MetricValue], name: &str, label: &str) -> Option<u64> {
    values
        .iter()
        .find(|v| v.name == name && v.label == label)
        .map(|v| v.value)
}

type Key = (String, String);

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, Counter>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A registry of named metrics. Registration takes a lock; the returned
/// handles are lock-free, so register once per run (or cache the handle),
/// not per event.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `(name, label)`, creating it on
    /// first use.
    pub fn counter(&self, name: &str, label: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner
            .counters
            .entry((name.to_owned(), label.to_owned()))
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `(name, label)`.
    pub fn gauge(&self, name: &str, label: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner
            .gauges
            .entry((name.to_owned(), label.to_owned()))
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `(name, label)`.
    pub fn histogram(&self, name: &str, label: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry((name.to_owned(), label.to_owned()))
            .or_default()
            .clone()
    }

    /// Exports every metric, sorted by `(name, label)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|((name, label), c)| MetricValue {
                    name: name.clone(),
                    label: label.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((name, label), g)| MetricValue {
                    name: name.clone(),
                    label: label.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((name, label), h)| h.snapshot(name, label))
                .collect(),
        }
    }

    /// Drops every registered metric (test isolation; outstanding handles
    /// keep working but detach from future snapshots).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = Inner::default();
    }
}

/// The process-wide registry every instrumented layer publishes into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x.hits", "");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("x.hits", "").get(), 5, "same handle");
        let g = r.gauge("x.size", "model=PB-PPM");
        g.set(42);
        g.set(7);
        assert_eq!(r.gauge("x.size", "model=PB-PPM").get(), 7);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(1), 2);
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn local_hist_merge_is_order_independent() {
        let mut a = LocalHist::default();
        let mut b = LocalHist::default();
        for v in [0, 1, 5, 1000, 123_456] {
            a.observe(v);
        }
        for v in [7, 7, 7, 1 << 40] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 9);
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn absorb_equals_direct_observation() {
        let r = Registry::new();
        let h = r.histogram("lat", "");
        let mut local = LocalHist::default();
        for v in [3, 9, 4096] {
            local.observe(v);
        }
        h.absorb(&local);
        let direct = Registry::new();
        let d = direct.histogram("lat", "");
        for v in [3, 9, 4096] {
            d.observe(v);
        }
        assert_eq!(
            r.snapshot().histograms[0].buckets,
            direct.snapshot().histograms[0].buckets
        );
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 3 + 9 + 4096);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("z.last", "").inc();
        r.counter("a.first", "model=B").add(2);
        r.counter("a.first", "model=A").add(1);
        let snap = r.snapshot();
        let names: Vec<_> = snap
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.label.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a.first", "model=A"),
                ("a.first", "model=B"),
                ("z.last", "")
            ]
        );
        assert_eq!(snap.counter("a.first", "model=B"), Some(2));
        assert_eq!(snap.counter("missing", ""), None);
    }

    #[test]
    fn quantile_bounds() {
        let mut h = LocalHist::default();
        for _ in 0..99 {
            h.observe(3); // bucket le=4
        }
        h.observe(1 << 20); // one outlier
        assert_eq!(h.quantile_bound(0.5), 4);
        assert_eq!(h.quantile_bound(0.99), 4);
        assert_eq!(h.quantile_bound(1.0), 1 << 21);
        assert_eq!(LocalHist::default().quantile_bound(0.5), 0);
    }

    #[test]
    fn reset_clears_the_registry() {
        let r = Registry::new();
        r.counter("c", "").inc();
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }
}
