//! Observability for the tuning pipeline: spans, metrics, and exporters.
//!
//! Like the workspace's other infrastructure crates (`gridtuner-par`, the
//! offline shims), this crate is **dependency-free** — everything is built
//! on `std` atomics, mutexes and monotonic [`std::time::Instant`]s.
//!
//! Three layers:
//!
//! * [`span`](mod@span) — lightweight hierarchical spans (`span!("tune")` →
//!   `span!("probe", side = s)`) with monotonic timing and near-zero cost
//!   when disabled (one relaxed atomic load);
//! * [`metrics`] — named counters in a global registry (probe counts, α
//!   cache hits, worker-pool utilization, …). Counters stay live even when
//!   tracing is off: an uncontended relaxed `fetch_add` is cheaper than
//!   the branch that would skip it;
//! * [`trace`] / [`profile`] — the JSON-lines trace stream
//!   (`GRIDTUNER_TRACE=path`, one record per line), the only record of a
//!   run's spans and events, and [`profile::Profile`], the only summary of
//!   it: self times, worker utilization, the critical path through the
//!   tune, the per-`n` model/expression error decomposition (the paper's
//!   U-curve), warnings and counters. [`Recording`] is the `--report` exit
//!   path that prints it.
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
//! let recording = obs::Recording::start(true); // what `--report` does
//! {
//!     let _tune = obs::span!("tune", lo = 2u32, hi = 24u32);
//!     let _probe = obs::span!("probe", side = 8u32);
//!     obs::counter!("tune.probes").inc();
//!     obs::event!(
//!         "probe",
//!         side = 8u32,
//!         expression_error = 1.0f64,
//!         model_error = 0.25f64,
//!         total = 1.25f64
//!     );
//! }
//! let profile = recording.finish().expect("report requested").unwrap();
//! assert_eq!(profile.decomposition()[0].side, 8);
//! assert!(profile.render(10).contains("tune.probes"));
//! # obs::disable();
//! ```

pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};

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

/// Turns span/event recording on. Records go to the installed trace
/// sink; with none installed, spans still read the clock but nothing is
/// kept.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span/event recording off. Counters stay live.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One-time environment hookup, called by binaries at startup:
/// `GRIDTUNER_TRACE=path` opens (truncates) `path`, installs it as the
/// JSONL trace sink, and enables recording (convert it for Perfetto with
/// `gridtuner profile --input path --chrome out.json`).
///
/// Idempotent; later calls are no-ops.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("GRIDTUNER_TRACE") {
            if !path.is_empty() {
                match trace::set_file_sink(std::path::Path::new(&path)) {
                    Ok(()) => enable(),
                    Err(e) => eprintln!("[gridtuner-obs] cannot open GRIDTUNER_TRACE={path}: {e}"),
                }
            }
        }
    });
}

/// A binary's run from setup to exit: the one exit path the `gridtuner`
/// CLI and `repro` share.
///
/// Start it after any trace sink is installed (`--trace`,
/// [`init_from_env`]); [`finish`](Recording::finish) it at exit.
#[must_use = "finish the recording at exit to close the trace"]
pub struct Recording {
    /// Whether the run asked for the end-of-run profile (`--report`).
    report: bool,
    /// The in-memory capture `--report` installs when no sink is set.
    buffer: Option<Arc<Mutex<Vec<u8>>>>,
}

impl Recording {
    /// With `report`, turns recording on and, when no trace sink is
    /// installed, captures the stream in memory so the run can still be
    /// summarised.
    pub fn start(report: bool) -> Recording {
        let buffer = if report {
            enable();
            (!trace::has_sink()).then(trace::capture_to_buffer)
        } else {
            None
        };
        Recording { report, buffer }
    }

    /// Ends the run: writes the `report` record (the counters) to the
    /// installed sink, if any, and closes it. With `report`, returns the
    /// [`profile::Profile`] of the run's records, read back from the trace
    /// file when one was set and from the in-memory capture otherwise (an
    /// error when the file cannot be read back or does not parse).
    pub fn finish(self) -> Option<Result<profile::Profile, String>> {
        let path = trace::sink_path();
        trace::write_report();
        trace::clear_sink();
        if !self.report {
            return None;
        }
        let text = match (self.buffer, path) {
            (Some(buffer), _) => String::from_utf8_lossy(&lock_unpoisoned(&buffer)).into_owned(),
            (None, Some(path)) => match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => return Some(Err(format!("{}: {e}", path.display()))),
            },
            (None, None) => return Some(Err("the trace sink is not readable".into())),
        };
        Some(profile::Profile::from_jsonl(&text))
    }
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

/// Emits an info-level structured event to the trace stream. A no-op when
/// recording is disabled; fields are not evaluated.
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
/// the profile's warnings (e.g. a search heuristic detecting it may have
/// been misled).
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

/// Serializes unit tests that flip [`enabled`] or swap the trace sink —
/// both are process-global, so such tests cannot run interleaved.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `body` with an in-memory sink installed and returns the parsed
/// records it wrote (the sink is removed afterwards). Callers hold
/// [`test_guard`].
#[cfg(test)]
pub(crate) fn capture(body: impl FnOnce()) -> Vec<json::Val> {
    let buffer = trace::capture_to_buffer();
    body();
    trace::clear_sink();
    let text = String::from_utf8(lock_unpoisoned(&buffer).clone()).expect("UTF-8 trace");
    json::parse_jsonl(&text).expect("every line parses")
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
