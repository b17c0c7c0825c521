//! Typed metrics: counters, gauges and histograms in a global registry.
//!
//! Instruments are `Arc`-handed out by name; hot call-sites cache the
//! handle with the [`counter!`](crate::counter)/[`gauge!`](crate::gauge)/
//! [`histogram!`](crate::histogram) macros so the registry lock is taken
//! once per site. All instruments are lock-free atomics; a relaxed
//! `fetch_add` is the entire cost of a counter increment.
//!
//! Unlike spans and events, metrics are **always live** — they do not
//! check [`crate::enabled`]. The increment is cheaper than the branch, and
//! always-on counters let library accessors (e.g. the α-cache's
//! `delta_scans`) be backed by the same types the registry exports.

use crate::json::Val;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A standalone counter (not in the registry) — for per-instance
    /// counts that still want the shared type.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A gauge holding the latest `f64` value set.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A standalone gauge (not in the registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Default bucket bounds for millisecond timings: sub-millisecond to
/// minutes, roughly ×4 per step.
pub const TIME_BOUNDS_MS: &[f64] = &[
    0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1_024.0, 4_096.0, 16_384.0, 65_536.0,
];

/// Default bucket bounds for small cardinalities (items per worker, epochs
/// per fit, …).
pub const COUNT_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1_024.0];

/// A fixed-bound histogram. Bucket `i` counts observations `v` with
/// `bounds[i-1] < v <= bounds[i]` (first bucket: `v <= bounds[0]`); one
/// overflow bucket catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A standalone histogram with the given inclusive upper bounds
    /// (must be strictly increasing and non-empty).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 adds/maxes via CAS: dependency-free and lock-free.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let cur = f64::from_bits(bits);
                if v > cur {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation (0 before any).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The counter registered under `name` (created on first use). Panics if
/// the name is already registered as a different instrument kind.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = crate::lock_unpoisoned(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = crate::lock_unpoisoned(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// The histogram registered under `name` (created with `bounds` on first
/// use; later calls ignore `bounds`).
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    let mut reg = crate::lock_unpoisoned(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// A point-in-time view of every registered histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: f64,
    /// Largest observation.
    pub max: f64,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Bucket counts (last = overflow).
    pub buckets: Vec<u64>,
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// JSON form (used by the run report and the trace's report record).
    pub fn to_val(&self) -> Val {
        Val::obj(vec![
            (
                "counters",
                Val::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Val::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Val::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Val::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Val::Obj(
                    self.histograms
                        .iter()
                        .map(|h| {
                            (
                                h.name.clone(),
                                Val::obj(vec![
                                    ("count", Val::U64(h.count)),
                                    ("sum", Val::F64(h.sum)),
                                    ("max", Val::F64(h.max)),
                                    (
                                        "bounds",
                                        Val::Arr(h.bounds.iter().map(|&b| Val::F64(b)).collect()),
                                    ),
                                    (
                                        "buckets",
                                        Val::Arr(h.buckets.iter().map(|&c| Val::U64(c)).collect()),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshots every registered instrument.
pub fn snapshot() -> MetricsSnapshot {
    let reg = crate::lock_unpoisoned(registry());
    let mut out = MetricsSnapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => out.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => out.gauges.push((name.clone(), g.get())),
            Metric::Histogram(h) => out.histograms.push(HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
            }),
        }
    }
    out
}

/// Zeroes every registered instrument (handles stay valid).
pub fn reset() {
    let reg = crate::lock_unpoisoned(registry());
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_basics() {
        let c = counter("m.test.counter");
        let before = c.get();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), before + 10);
        // Same name → same instrument.
        assert_eq!(counter("m.test.counter").get(), before + 10);
        let g = gauge("m.test.gauge");
        g.set(-2.5);
        assert_eq!(gauge("m.test.gauge").get(), -2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); //  <= 1        → bucket 0
        h.observe(1.0); //  == bound    → bucket 0 (inclusive upper)
        h.observe(1.0000001); // just above → bucket 1
        h.observe(10.0); //              → bucket 1
        h.observe(99.9); //              → bucket 2
        h.observe(100.0); //             → bucket 2
        h.observe(1e6); //  overflow     → bucket 3
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (0.5 + 1.0 + 1.0000001 + 10.0 + 99.9 + 100.0 + 1e6)).abs() < 1e-6);
        assert_eq!(h.max(), 1e6);
    }

    #[test]
    fn histogram_bucket_count_is_bounds_plus_one() {
        let h = Histogram::new(&[2.0]);
        assert_eq!(h.bucket_counts().len(), 2);
        h.observe(3.0);
        assert_eq!(h.bucket_counts(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[5.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        gauge("m.test.kind_clash");
        counter("m.test.kind_clash");
    }

    #[test]
    fn snapshot_contains_registered_instruments() {
        counter("m.test.snap_counter").add(3);
        gauge("m.test.snap_gauge").set(1.25);
        histogram("m.test.snap_hist", &[1.0, 2.0]).observe(1.5);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "m.test.snap_counter" && *v >= 3));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "m.test.snap_gauge" && *v == 1.25));
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "m.test.snap_hist")
            .expect("histogram in snapshot");
        assert!(h.count >= 1);
        assert_eq!(h.buckets.len(), h.bounds.len() + 1);
        // JSON form renders and parses.
        let val = snap.to_val();
        assert!(crate::json::Val::parse(&val.render()).is_ok());
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let h = Arc::new(Histogram::new(&[0.5]));
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe(if i % 2 == 0 { 0.25 } else { 1.0 });
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts(), vec![2000, 2000]);
        assert_eq!(c.get(), 4000);
        assert!((h.sum() - (2000.0 * 0.25 + 2000.0)).abs() < 1e-9);
    }
}
