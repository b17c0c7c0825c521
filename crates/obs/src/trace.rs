//! The JSON-lines trace sink and the retained-event buffer.
//!
//! Every record is one line of JSON with a `t` discriminator:
//!
//! | `t`          | emitted by                | extra fields |
//! |--------------|---------------------------|--------------|
//! | `meta`       | sink installation         | `schema`     |
//! | `span_start` | [`crate::span::Span`]     | `id`, `parent`, `tid`, `name`, `f` |
//! | `span_end`   | span drop                 | `id`, `tid`, `name`, `dur_ns` |
//! | `event`      | `event!` / `warn_event!`, [`write_task_record`] (`par.task`) | `level`, `tid`, `name`, `f` |
//! | `report`     | [`crate::report::RunReport::emit`] | the report body |
//!
//! Timestamps (`ts`) are nanoseconds since the process-local monotonic
//! epoch ([`crate::span::since_epoch_ns`]); `tid` is the sequential thread
//! id from [`crate::span::current_tid`].
//!
//! This is the only wire format. A Chrome Trace Event Format file for
//! Perfetto or `chrome://tracing` is an offline conversion of a captured
//! stream ([`crate::profile::to_chrome`], `gridtuner profile --chrome`).
//!
//! `event!`/`warn_event!` events are additionally retained in a bounded
//! in-memory ring buffer (newest-wins, capacity [`EVENT_CAP`]) so the
//! end-of-run report can reconstruct the per-`n` error decomposition and
//! list warnings even when no sink is installed; `par.task` records are
//! not retained.

use crate::json::Val;
use crate::span::{current_tid, since_epoch_ns};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema identifier written in the `meta` header record.
pub const SCHEMA: &str = "gridtuner.trace/1";

/// Retained-event ring capacity.
pub const EVENT_CAP: usize = 4096;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Routine progress/diagnostic data.
    Info,
    /// An anomaly worth surfacing in the run report.
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A retained structured event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Severity.
    pub level: Level,
    /// Event name (e.g. `"probe"`, `"ternary.plateau_tie"`).
    pub name: &'static str,
    /// Structured payload.
    pub fields: Vec<(&'static str, Val)>,
    /// Nanoseconds since the monotonic epoch.
    pub ts_ns: u64,
}

impl TraceEvent {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Val> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Mirrors whether a sink is installed, so the per-span hot path can skip
/// both the record building and the sink mutex with one relaxed load when
/// recording is enabled purely in-memory (stats + report, no trace file).
static HAS_SINK: AtomicBool = AtomicBool::new(false);

#[inline]
fn has_sink() -> bool {
    HAS_SINK.load(Ordering::Relaxed)
}

fn events() -> &'static Mutex<VecDeque<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Installs `w` as the trace sink (replacing any previous one) and writes
/// the `meta` header record.
pub fn set_sink(mut w: Box<dyn Write + Send>) {
    let meta = Val::obj(vec![
        ("t", Val::from("meta")),
        ("ts", Val::U64(since_epoch_ns())),
        ("schema", Val::from(SCHEMA)),
    ]);
    let _ = writeln!(w, "{}", meta.render());
    *crate::lock_unpoisoned(sink()) = Some(w);
    HAS_SINK.store(true, Ordering::Relaxed);
}

/// Flushes and removes the sink.
pub fn clear_sink() {
    let mut guard = crate::lock_unpoisoned(sink());
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
    HAS_SINK.store(false, Ordering::Relaxed);
}

/// Installs an in-memory sink and returns the shared buffer — for tests
/// that assert on the emitted JSON-lines.
pub fn capture_to_buffer() -> Arc<Mutex<Vec<u8>>> {
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buffer = Arc::new(Mutex::new(Vec::new()));
    set_sink(Box::new(Shared(Arc::clone(&buffer))));
    buffer
}

/// Flushes the sink if one is installed.
pub fn flush() {
    if !has_sink() {
        return;
    }
    if let Some(w) = crate::lock_unpoisoned(sink()).as_mut() {
        let _ = w.flush();
    }
}

fn write_record(record: Val) {
    if let Some(w) = crate::lock_unpoisoned(sink()).as_mut() {
        let _ = writeln!(w, "{}", record.render());
    }
}

/// Writes an already-built record verbatim (used for the `report` record).
pub fn write_raw(record: Val) {
    write_record(record);
    flush();
}

fn fields_val(fields: Vec<(&'static str, Val)>) -> Val {
    Val::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Emits a `span_start` record. Called by [`crate::span::Span::enter`].
pub fn write_span_start(
    id: u64,
    parent: u64,
    name: &'static str,
    fields: Vec<(&'static str, Val)>,
) {
    if !has_sink() {
        return;
    }
    let mut rec = vec![
        ("t", Val::from("span_start")),
        ("ts", Val::U64(since_epoch_ns())),
        ("id", Val::U64(id)),
        ("tid", Val::U64(current_tid())),
    ];
    if parent != 0 {
        rec.push(("parent", Val::U64(parent)));
    }
    rec.push(("name", Val::from(name)));
    if !fields.is_empty() {
        rec.push(("f", fields_val(fields)));
    }
    write_record(Val::obj(rec));
}

/// Emits a `span_end` record. Called when a span drops.
pub fn write_span_end(id: u64, name: &'static str, dur_ns: u64) {
    if !has_sink() {
        return;
    }
    write_record(Val::obj(vec![
        ("t", Val::from("span_end")),
        ("ts", Val::U64(since_epoch_ns())),
        ("id", Val::U64(id)),
        ("tid", Val::U64(current_tid())),
        ("name", Val::from(name)),
        ("dur_ns", Val::U64(dur_ns)),
    ]));
}

/// Emits one pool-worker task record to the sink (not retained in the
/// event ring — a tune dispatches far more tasks than [`EVENT_CAP`], and
/// the retained ring must keep its `probe` events for the run report).
/// Called by `gridtuner-par`'s pool for every task it runs while
/// recording is on.
pub fn write_task_record(worker: u32, generation: u64, task: u32, claim_ns: u64, finish_ns: u64) {
    if !has_sink() {
        return;
    }
    let dur_ns = finish_ns.saturating_sub(claim_ns);
    write_record(Val::obj(vec![
        ("t", Val::from("event")),
        ("ts", Val::U64(claim_ns)),
        ("tid", Val::U64(current_tid())),
        ("level", Val::from("info")),
        ("name", Val::from("par.task")),
        (
            "f",
            Val::obj(vec![
                ("worker", Val::U64(u64::from(worker))),
                ("gen", Val::U64(generation)),
                ("task", Val::U64(u64::from(task))),
                ("claim_ns", Val::U64(claim_ns)),
                ("finish_ns", Val::U64(finish_ns)),
                ("dur_ns", Val::U64(dur_ns)),
            ]),
        ),
    ]));
}

/// Emits an `event` record to the sink and retains it in the ring buffer.
/// Called by the `event!`/`warn_event!` macros (which check
/// [`crate::enabled`] first).
pub fn emit_event(level: Level, name: &'static str, fields: Vec<(&'static str, Val)>) {
    let ev = TraceEvent {
        level,
        name,
        fields,
        ts_ns: since_epoch_ns(),
    };
    if has_sink() {
        let mut rec = vec![
            ("t", Val::from("event")),
            ("ts", Val::U64(ev.ts_ns)),
            ("tid", Val::U64(current_tid())),
            ("level", Val::from(level.as_str())),
            ("name", Val::from(name)),
        ];
        if !ev.fields.is_empty() {
            rec.push(("f", fields_val(ev.fields.clone())));
        }
        write_record(Val::obj(rec));
    }
    let mut ring = crate::lock_unpoisoned(events());
    if ring.len() == EVENT_CAP {
        ring.pop_front();
    }
    ring.push_back(ev);
}

/// Snapshot of the retained events, oldest first.
pub fn recent_events() -> Vec<TraceEvent> {
    crate::lock_unpoisoned(events()).iter().cloned().collect()
}

/// Drops all retained events.
pub fn reset_events() {
    crate::lock_unpoisoned(events()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn jsonl_stream_round_trips() {
        let _guard = crate::test_guard();
        crate::enable();
        let buffer = capture_to_buffer();
        {
            let _outer = crate::span!("trace_test_outer", lo = 2u32, hi = 24u32);
            let _inner = crate::span!("trace_test_inner");
            crate::event!("trace_test_event", side = 8u32, total = 1.25f64);
            crate::warn_event!("trace_test_warn", ties = 3u64);
        }
        flush();
        clear_sink();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let records = json::parse_jsonl(&text).expect("every line parses");
        // meta + 2 starts + 2 events + 2 ends.
        assert_eq!(records.len(), 7);
        assert_eq!(records[0].get("t").and_then(|v| v.as_str()), Some("meta"));
        assert_eq!(
            records[0].get("schema").and_then(|v| v.as_str()),
            Some(SCHEMA)
        );
        let kinds: Vec<_> = records
            .iter()
            .map(|r| r.get("t").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "meta",
                "span_start",
                "span_start",
                "event",
                "event",
                "span_end",
                "span_end"
            ]
        );
        // Inner span's start names the outer as parent.
        let inner_start = records
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("trace_test_inner"))
            .unwrap();
        let outer_start = records
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("trace_test_outer"))
            .unwrap();
        assert_eq!(
            inner_start.get("parent").and_then(|v| v.as_f64()),
            outer_start.get("id").and_then(|v| v.as_f64())
        );
        // Fields survive the round trip.
        let warn = records
            .iter()
            .find(|r| r.get("level").and_then(|v| v.as_str()) == Some("warn"))
            .unwrap();
        assert_eq!(
            warn.get("f").and_then(|f| f.get("ties")),
            Some(&json::Val::U64(3))
        );
        // Timestamps are non-decreasing down the stream.
        let ts: Vec<f64> = records
            .iter()
            .map(|r| r.get("ts").and_then(|v| v.as_f64()).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn jsonl_records_carry_thread_ids() {
        let _guard = crate::test_guard();
        crate::enable();
        let buffer = capture_to_buffer();
        {
            let _s = crate::span!("trace_test_tid");
            crate::event!("trace_test_tid_event");
        }
        clear_sink();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let records = json::parse_jsonl(&text).expect("every line parses");
        let tids: Vec<f64> = records
            .iter()
            .filter(|r| r.get("t").and_then(|v| v.as_str()) != Some("meta"))
            .map(|r| r.get("tid").and_then(|v| v.as_f64()).expect("tid present"))
            .collect();
        assert_eq!(tids.len(), 3, "start + event + end (and nothing else)");
        assert!(tids.iter().all(|&t| t >= 1.0));
        assert!(
            tids.windows(2).all(|w| w[0] == w[1]),
            "one thread → one tid"
        );
    }

    #[test]
    fn events_are_retained_and_bounded() {
        let _guard = crate::test_guard();
        crate::enable();
        reset_events();
        for _ in 0..(EVENT_CAP + 10) {
            emit_event(Level::Info, "trace_test_ring", Vec::new());
        }
        let retained = recent_events();
        assert_eq!(retained.len(), EVENT_CAP);
        reset_events();
        assert!(recent_events().is_empty());
    }
}
