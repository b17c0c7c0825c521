//! Hierarchical spans with monotonic timing.
//!
//! A span is a RAII guard: [`Span::enter`] opens it, dropping it closes it
//! and records the elapsed time. Parent/child structure comes from a
//! thread-local stack — a span opened while another is live on the same
//! thread becomes its child, which the trace stream records via the
//! `parent` id. Work handed to another thread names its parent explicitly
//! with [`Span::enter_under`]; spans opened inside it on that thread nest
//! under it as usual. A span is timed on the trace clock
//! ([`since_epoch_ns`]): its `span_start` record's `ts` is its open time
//! and its `span_end` record's `ts` is `ts + dur_ns`, so an event the span's
//! thread emits while it is live falls inside that interval. The trace
//! stream is the only record of a span; summaries are built from it
//! ([`crate::profile::Profile`]).
//!
//! When recording is disabled ([`crate::enabled`] is false) `enter`
//! returns an inert guard after a single relaxed atomic load; no clock is
//! read, no allocation happens, and `Drop` is a no-op.

use crate::json::Val;
use crate::trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
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

/// A live span. Created by the [`span!`](macro@crate::span) macro (or
/// [`Span::enter`] directly); closes on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    /// `None` when recording was disabled at entry — drop is then a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    /// The thread's innermost live span before this one, restored on drop.
    restore: u64,
    name: &'static str,
    /// Open time on the trace clock.
    start_ns: u64,
}

impl Span {
    /// Opens a span. `fields` are attached to the `span_start` trace
    /// record; pass an empty vec when there are none.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Val)>) -> Span {
        Span::open(None, name, fields)
    }

    /// Opens a span whose parent is the span `parent` (an [`id`](Self::id),
    /// 0 for a root) rather than this thread's innermost live span — for
    /// work a pool worker runs on behalf of a span opened on another
    /// thread. Spans opened on this thread while the guard lives still
    /// nest under it.
    pub fn enter_under(parent: u64, name: &'static str, fields: Vec<(&'static str, Val)>) -> Span {
        Span::open(Some(parent), name, fields)
    }

    fn open(parent: Option<u64>, name: &'static str, fields: Vec<(&'static str, Val)>) -> Span {
        if !crate::enabled() {
            return Span { live: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|cur| cur.replace(id));
        let start_ns = since_epoch_ns();
        trace::write_span_start(start_ns, id, parent.unwrap_or(restore), name, fields);
        Span {
            live: Some(LiveSpan {
                id,
                restore,
                name,
                start_ns,
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
        let end_ns = since_epoch_ns();
        CURRENT.with(|cur| cur.set(live.restore));
        trace::write_span_end(
            end_ns,
            live.id,
            live.name,
            end_ns.saturating_sub(live.start_ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profile, SpanRec};

    /// The spans named `name` in captured records.
    fn spans_named(records: &[Val], name: &str) -> Vec<SpanRec> {
        Profile::from_records(records)
            .spans
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    #[test]
    fn nesting_restores_parent_and_durations_are_monotonic() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
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
        });
        let outer = spans_named(&records, "span_test_outer");
        let inner = spans_named(&records, "span_test_inner");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        let (outer, inner) = (&outer[0], &inner[0]);
        assert!(outer.closed && inner.closed);
        assert_eq!(inner.parent, outer.id);
        // The child slept, and the parent fully contains the child.
        let inner_ns = inner.end_ns - inner.start_ns;
        assert!(inner_ns >= 2_000_000, "inner >= sleep ({inner_ns})");
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn enter_under_names_the_given_parent_and_restores_the_thread() {
        let _guard = crate::test_guard();
        crate::enable();
        let outer = Span::enter("span_test_under_outer", Vec::new());
        let stage = outer.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let local = Span::enter("span_test_under_local", Vec::new());
                {
                    let under = Span::enter_under(stage, "span_test_under", Vec::new());
                    assert_eq!(CURRENT.with(|c| c.get()), under.id());
                }
                assert_eq!(CURRENT.with(|c| c.get()), local.id());
            });
        });
        assert_eq!(CURRENT.with(|c| c.get()), stage);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_guard();
        crate::disable();
        let records = crate::capture(|| {
            let s = Span::enter("span_test_disabled", Vec::new());
            assert_eq!(s.id(), 0);
        });
        assert!(spans_named(&records, "span_test_disabled").is_empty());
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
        let records = crate::capture(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _s = Span::enter("span_test_threaded", Vec::new());
                        assert_ne!(CURRENT.with(|c| c.get()), 0);
                    });
                }
            });
        });
        let spans = spans_named(&records, "span_test_threaded");
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.closed && s.parent == 0));
    }
}
