//! Observability for the tuning pipeline: spans, metrics, and exporters.
//!
//! Like the workspace's other infrastructure crates (`gridtuner-par`, the
//! offline shims), this crate is **dependency-free** — everything is built
//! on `std` atomics, mutexes and monotonic [`std::time::Instant`]s.
//!
//! Three layers:
//!
//! * [`span`](mod@span) — lightweight hierarchical spans (`span!("tune")` →
//!   `span!("probe", side = s)`) with monotonic timing, a thread-safe
//!   global stats registry, and near-zero cost when disabled (one relaxed
//!   atomic load);
//! * [`metrics`] — typed counters, gauges and histograms in a global
//!   registry (probe counts, α cache hits, worker-pool utilization, …).
//!   Counters stay live even when tracing is off: an uncontended relaxed
//!   `fetch_add` is cheaper than the branch that would skip it;
//! * [`trace`] / [`report`] — the two exporters: a JSON-lines trace/event
//!   stream (`GRIDTUNER_TRACE=path`, one record per line) and a
//!   human-readable end-of-run [`report::RunReport`] that includes the
//!   per-`n` model/expression error decomposition (the paper's U-curve).
//!
//! Recording is **inert by construction**: nothing here feeds back into
//! any computation, so enabling tracing cannot move a tuned optimum or a
//! golden snapshot by a single bit — the testkit pins that property.
//!
//! # Quick start
//!
//! ```
//! use gridtuner_obs as obs;
//!
//! obs::enable();
//! {
//!     let _tune = obs::span!("tune", lo = 2u32, hi = 24u32);
//!     let _probe = obs::span!("probe", side = 8u32);
//!     obs::counter!("tune.probes").inc();
//!     obs::event!("probe", side = 8u32, total = 1.25f64);
//! }
//! let report = obs::report::RunReport::capture();
//! assert!(report.to_json().contains("tune.probes"));
//! # obs::disable();
//! # obs::reset();
//! ```

pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// Locks a global mutex, recovering from poisoning: recorders never leave
/// shared state half-written (a panicking user thread must not disable
/// observability for the rest of the process).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Global switch for spans, events and the trace stream. Counters ignore
/// it (they are cheaper than the branch).
static ENABLED: AtomicBool = AtomicBool::new(false);

static ENV_INIT: Once = Once::new();

/// Whether span/event recording is on. One relaxed atomic load: this is
/// the entire disabled-path cost of `span!`/`event!`.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/event recording on (in-memory stats and any installed trace
/// sink).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span/event recording off. Already-aggregated stats are kept;
/// call [`reset`] to drop them too.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One-time environment hookup, called by binaries at startup:
///
/// * `GRIDTUNER_TRACE=path` — opens (truncates) `path`, installs it as the
///   trace sink, and enables recording;
/// * `GRIDTUNER_TRACE_FORMAT=chrome|jsonl` — wire format for that sink
///   (default `jsonl`; `chrome` writes Chrome Trace Event Format for
///   Perfetto / `chrome://tracing`);
/// * `GRIDTUNER_OBS=1` — enables in-memory recording (stats + report)
///   without a trace file.
///
/// Idempotent; later calls are no-ops.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("GRIDTUNER_TRACE") {
            if !path.is_empty() {
                let format = match std::env::var("GRIDTUNER_TRACE_FORMAT").as_deref() {
                    Ok("chrome") => trace::Format::Chrome,
                    _ => trace::Format::Jsonl,
                };
                match std::fs::File::create(&path) {
                    Ok(f) => {
                        trace::set_sink_with_format(Box::new(std::io::BufWriter::new(f)), format);
                        enable();
                    }
                    Err(e) => eprintln!("[gridtuner-obs] cannot open GRIDTUNER_TRACE={path}: {e}"),
                }
                return;
            }
        }
        if std::env::var("GRIDTUNER_OBS")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            enable();
        }
    });
}

/// Clears all aggregated state: metric values, span stats and retained
/// events. The trace sink (if any) is left installed. Meant for harnesses
/// and benchmarks that measure runs back to back.
pub fn reset() {
    metrics::reset();
    span::reset_stats();
    trace::reset_events();
}

/// Opens a hierarchical span. Returns a guard; the span closes (and its
/// duration is recorded) when the guard drops. Fields are evaluated only
/// when recording is enabled.
///
/// `parent = id;` before the name opens the span under that span id
/// instead of this thread's innermost live span ([`span::Span::enter_under`]).
///
/// ```
/// # use gridtuner_obs as obs;
/// let _outer = obs::span!("tune");
/// let _inner = obs::span!("probe", side = 16u32);
/// let _task = obs::span!(parent = _outer.id(); "task", index = 0u64);
/// ```
#[macro_export]
macro_rules! span {
    (parent = $parent:expr; $name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::span::Span::enter_under(
            $parent,
            $name,
            if $crate::enabled() {
                vec![$((stringify!($k), $crate::json::Val::from($v))),*]
            } else {
                Vec::new()
            },
        )
    };
    ($name:literal) => {
        $crate::span::Span::enter($name, Vec::new())
    };
    ($name:literal, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span::Span::enter(
            $name,
            if $crate::enabled() {
                vec![$((stringify!($k), $crate::json::Val::from($v))),+]
            } else {
                Vec::new()
            },
        )
    };
}

/// Emits an info-level structured event (trace stream + retained ring
/// buffer). A no-op when recording is disabled; fields are not evaluated.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::trace::emit_event(
                $crate::trace::Level::Info,
                $name,
                vec![$((stringify!($k), $crate::json::Val::from($v))),*],
            );
        }
    };
}

/// Emits a warn-level structured event — for anomalies worth surfacing in
/// the run report (e.g. a search heuristic detecting it may have been
/// misled).
#[macro_export]
macro_rules! warn_event {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::trace::emit_event(
                $crate::trace::Level::Warn,
                $name,
                vec![$((stringify!($k), $crate::json::Val::from($v))),*],
            );
        }
    };
}

/// A named counter from the global registry, cached per call-site (the
/// registry lookup happens once; afterwards this is a static deref).
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// A named gauge from the global registry, cached per call-site.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// A named histogram from the global registry, cached per call-site. The
/// bucket bounds are fixed on first registration.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $bounds:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::metrics::histogram($name, $bounds))
    }};
}

/// Serializes unit tests that flip [`enabled`] or swap the trace sink —
/// both are process-global, so such tests cannot run interleaved.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        let _guard = test_guard();
        disable();
        let mut hits = 0u32;
        let mut bump = || {
            hits += 1;
            1u32
        };
        {
            let _s = span!("lib_test_span", x = bump());
        }
        event!("lib_test_event", x = bump());
        assert_eq!(hits, 0, "fields must not be evaluated while disabled");
    }

    #[test]
    fn counters_work_regardless_of_enabled() {
        // `disable` flips process-global state other tests enable under
        // the same guard.
        let _guard = test_guard();
        disable();
        let before = counter!("lib.test.counter").get();
        counter!("lib.test.counter").inc();
        counter!("lib.test.counter").add(4);
        assert_eq!(counter!("lib.test.counter").get(), before + 5);
    }
}
