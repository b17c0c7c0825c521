//! Hierarchical spans with monotonic timing.
//!
//! A span is a RAII guard: [`Span::enter`] opens it, dropping it closes it
//! and records the elapsed time. Parent/child structure comes from a
//! thread-local stack — a span opened while another is live on the same
//! thread becomes its child, which the trace stream records via the
//! `parent` id. Closed spans fold into a global name-keyed [`SpanStat`]
//! aggregate (count / total / min / max), which the end-of-run report
//! reads for its per-phase timing table.
//!
//! When recording is disabled ([`crate::enabled`] is false) `enter`
//! returns an inert guard after a single relaxed atomic load; no clock is
//! read, no allocation happens, and `Drop` is a no-op.

use crate::json::Val;
use crate::trace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span ids start at 1; 0 means "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Thread ids start at 1 and are handed out in first-use order.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost live span id on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's sequential trace id (0 = not assigned yet).
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's sequential trace id, assigned on first use. Stable
/// for the thread's lifetime; recorded on every span/event record so the
/// profiler can attribute time per thread.
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let id = t.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local monotonic epoch (the first time
/// anything in this module read the clock). Timestamps in trace records
/// are relative to it.
pub fn since_epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Times a span with this name closed.
    pub count: u64,
    /// Total nanoseconds across all closes.
    pub total_ns: u64,
    /// Shortest single span.
    pub min_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl SpanStat {
    fn absorb(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
    }
}

fn stats() -> &'static Mutex<BTreeMap<&'static str, SpanStat>> {
    static STATS: OnceLock<Mutex<BTreeMap<&'static str, SpanStat>>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Snapshot of the per-name aggregates, name-sorted.
pub fn span_stats() -> Vec<(&'static str, SpanStat)> {
    crate::lock_unpoisoned(stats())
        .iter()
        .map(|(name, stat)| (*name, *stat))
        .collect()
}

/// Drops all aggregated span timings.
pub fn reset_stats() {
    crate::lock_unpoisoned(stats()).clear();
}

/// A live span. Created by the [`span!`](macro@crate::span) macro (or
/// [`Span::enter`] directly); closes on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    /// `None` when recording was disabled at entry — drop is then a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    started: Instant,
}

impl Span {
    /// Opens a span. `fields` are attached to the `span_start` trace
    /// record; pass an empty vec when there are none.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Val)>) -> Span {
        if !crate::enabled() {
            return Span { live: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|cur| cur.replace(id));
        trace::write_span_start(id, parent, name, fields);
        Span {
            live: Some(LiveSpan {
                id,
                parent,
                name,
                started: Instant::now(),
            }),
        }
    }

    /// The span's id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = live.started.elapsed().as_nanos() as u64;
        CURRENT.with(|cur| cur.set(live.parent));
        crate::lock_unpoisoned(stats())
            .entry(live.name)
            .or_insert(SpanStat {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            })
            .absorb(dur_ns);
        trace::write_span_end(live.id, live.name, dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &str) -> Option<SpanStat> {
        span_stats()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    #[test]
    fn nesting_restores_parent_and_durations_are_monotonic() {
        let _guard = crate::test_guard();
        crate::enable();
        let before_outer = stat("span_test_outer").map_or(0, |s| s.count);
        {
            let outer = Span::enter("span_test_outer", Vec::new());
            assert_eq!(CURRENT.with(|c| c.get()), outer.id());
            {
                let inner = Span::enter("span_test_inner", Vec::new());
                assert_eq!(CURRENT.with(|c| c.get()), inner.id());
                assert!(inner.id() > outer.id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // Inner closed → outer is current again.
            assert_eq!(CURRENT.with(|c| c.get()), outer.id());
        }
        let outer = stat("span_test_outer").expect("outer recorded");
        let inner = stat("span_test_inner").expect("inner recorded");
        assert_eq!(outer.count, before_outer + 1);
        // The child slept, and the parent fully contains the child.
        assert!(
            inner.max_ns >= 2_000_000,
            "inner >= sleep ({})",
            inner.max_ns
        );
        assert!(outer.max_ns >= inner.min_ns, "parent contains child");
        assert!(outer.min_ns <= outer.max_ns && outer.total_ns >= outer.max_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_guard();
        crate::disable();
        {
            let s = Span::enter("span_test_disabled", Vec::new());
            assert_eq!(s.id(), 0);
        }
        assert!(stat("span_test_disabled").is_none());
    }

    #[test]
    fn since_epoch_is_monotonic() {
        let a = since_epoch_ns();
        let b = since_epoch_ns();
        assert!(b >= a);
    }

    #[test]
    fn spans_on_threads_are_independent() {
        let _guard = crate::test_guard();
        crate::enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = Span::enter("span_test_threaded", Vec::new());
                    assert_ne!(CURRENT.with(|c| c.get()), 0);
                });
            }
        });
        assert!(stat("span_test_threaded").map_or(0, |s| s.count) >= 4);
    }
}
