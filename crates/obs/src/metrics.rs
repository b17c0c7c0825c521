//! Counters in a global registry.
//!
//! Counters are `Arc`-handed out by name; hot call-sites cache the handle
//! with the [`counter!`](crate::counter) macro so the registry lock is
//! taken once per site. A counter is a lock-free atomic; a relaxed
//! `fetch_add` is the entire cost of an increment.
//!
//! Unlike spans and events, counters are **always live** — they do not
//! check [`crate::enabled`]. The increment is cheaper than the branch, and
//! always-on counters let library accessors (e.g. the α-cache's
//! `delta_scans`) be backed by the same type the registry exports.

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

fn registry() -> &'static Mutex<BTreeMap<String, Arc<Counter>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<Counter>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = crate::lock_unpoisoned(registry());
    Arc::clone(reg.entry(name.to_string()).or_default())
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// JSON form (used by the run report and the trace's report record).
    pub fn to_val(&self) -> Val {
        Val::obj(vec![(
            "counters",
            Val::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Val::U64(*v)))
                    .collect(),
            ),
        )])
    }
}

/// Snapshots every registered counter.
pub fn snapshot() -> MetricsSnapshot {
    let reg = crate::lock_unpoisoned(registry());
    MetricsSnapshot {
        counters: reg
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect(),
    }
}

/// Zeroes every registered counter (handles stay valid).
pub fn reset() {
    for c in crate::lock_unpoisoned(registry()).values() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = counter("m.test.counter");
        let before = c.get();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), before + 10);
        // Same name → same instrument.
        assert_eq!(counter("m.test.counter").get(), before + 10);
    }

    #[test]
    fn snapshot_contains_registered_instruments() {
        counter("m.test.snap_counter").add(3);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "m.test.snap_counter" && *v >= 3));
        assert!(
            snap.counters.windows(2).all(|w| w[0].0 < w[1].0),
            "name-sorted"
        );
        // JSON form renders, parses and holds counters only.
        let val = crate::json::Val::parse(&snap.to_val().render()).unwrap();
        match &val {
            Val::Obj(fields) => assert_eq!(fields.len(), 1),
            other => panic!("snapshot JSON is not an object: {other:?}"),
        }
        assert!(val
            .get("counters")
            .and_then(|c| c.get("m.test.snap_counter"))
            .is_some());
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
