//! The JSON-lines trace sink: the one record of a run's spans and events.
//!
//! Every record is one line of JSON with a `t` discriminator:
//!
//! | `t`          | emitted by                | extra fields |
//! |--------------|---------------------------|--------------|
//! | `meta`       | sink installation         | `schema`     |
//! | `span_start` | [`crate::span::Span`]     | `id`, `parent`, `tid`, `name`, `f` |
//! | `span_end`   | span drop                 | `id`, `tid`, `name`, `dur_ns` |
//! | `event`      | `event!` / `warn_event!`, [`write_task_record`] (`par.task`) | `level`, `tid`, `name`, `f` |
//! | `report`     | [`write_report`], once at the end of a run | `metrics` (`{"counters": {…}}`) |
//!
//! Timestamps (`ts`) are nanoseconds since the process-local monotonic
//! epoch ([`crate::span::since_epoch_ns`]); `tid` is the sequential thread
//! id from [`crate::span::current_tid`].
//!
//! This is the only wire format and the only store: nothing is kept in
//! memory beyond the sink, so a run that wants a summary installs a sink
//! ([`capture_to_buffer`] when it wants no file) and reads the records
//! back through [`crate::profile::Profile`]. A Chrome Trace Event Format
//! file for Perfetto or `chrome://tracing` is an offline conversion of a
//! captured stream ([`crate::profile::to_chrome`], `gridtuner profile
//! --chrome`).

use crate::json::Val;
use crate::span::{current_tid, since_epoch_ns};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema identifier written in the `meta` header record.
pub const SCHEMA: &str = "gridtuner.trace/1";

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

/// The installed trace sink.
struct Sink {
    w: Box<dyn Write + Send>,
    /// The file `w` writes to, when [`set_file_sink`] installed it.
    path: Option<PathBuf>,
}

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Mirrors whether a sink is installed, so the per-span hot path can skip
/// both the record building and the sink mutex with one relaxed load when
/// recording is enabled with nowhere to write.
static HAS_SINK: AtomicBool = AtomicBool::new(false);

/// Whether a trace sink is installed.
#[inline]
pub fn has_sink() -> bool {
    HAS_SINK.load(Ordering::Relaxed)
}

/// Installs `w` as the trace sink (replacing any previous one) and writes
/// the `meta` header record.
pub fn set_sink(w: Box<dyn Write + Send>) {
    install(w, None);
}

/// Creates (truncates) `path` and installs it, buffered, as the trace
/// sink. [`sink_path`] reports it until the sink is replaced or cleared.
pub fn set_file_sink(path: &Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    install(
        Box::new(std::io::BufWriter::new(f)),
        Some(path.to_path_buf()),
    );
    Ok(())
}

fn install(mut w: Box<dyn Write + Send>, path: Option<PathBuf>) {
    let meta = Val::obj(vec![
        ("t", Val::from("meta")),
        ("ts", Val::U64(since_epoch_ns())),
        ("schema", Val::from(SCHEMA)),
    ]);
    let _ = writeln!(w, "{}", meta.render());
    *crate::lock_unpoisoned(sink()) = Some(Sink { w, path });
    HAS_SINK.store(true, Ordering::Relaxed);
}

/// The file the installed sink writes to, if [`set_file_sink`] installed
/// it.
pub fn sink_path() -> Option<PathBuf> {
    crate::lock_unpoisoned(sink())
        .as_ref()
        .and_then(|s| s.path.clone())
}

/// Flushes and removes the sink.
pub fn clear_sink() {
    let mut guard = crate::lock_unpoisoned(sink());
    if let Some(s) = guard.as_mut() {
        let _ = s.w.flush();
    }
    *guard = None;
    HAS_SINK.store(false, Ordering::Relaxed);
}

/// Installs an in-memory sink and returns the shared buffer — for runs
/// that summarise their own records without a trace file, and for tests
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
    if let Some(s) = crate::lock_unpoisoned(sink()).as_mut() {
        let _ = s.w.flush();
    }
}

fn write_record(record: Val) {
    if let Some(s) = crate::lock_unpoisoned(sink()).as_mut() {
        let _ = writeln!(s.w, "{}", record.render());
    }
}

/// Writes the run's final `report` record — every registered counter,
/// the one fact the span and event records do not already hold — and
/// flushes. A no-op when no sink is installed.
pub fn write_report() {
    if !has_sink() {
        return;
    }
    write_record(Val::obj(vec![
        ("t", Val::from("report")),
        ("ts", Val::U64(since_epoch_ns())),
        (
            "metrics",
            Val::obj(vec![(
                "counters",
                Val::Obj(
                    crate::metrics::snapshot()
                        .into_iter()
                        .map(|(name, v)| (name, Val::U64(v)))
                        .collect(),
                ),
            )]),
        ),
    ]));
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

/// Emits a `span_start` record stamped `ts`. Called by
/// [`crate::span::Span::enter`].
pub fn write_span_start(
    ts: u64,
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
        ("ts", Val::U64(ts)),
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

/// Emits a `span_end` record stamped `ts`. Called when a span drops.
pub fn write_span_end(ts: u64, id: u64, name: &'static str, dur_ns: u64) {
    if !has_sink() {
        return;
    }
    write_record(Val::obj(vec![
        ("t", Val::from("span_end")),
        ("ts", Val::U64(ts)),
        ("id", Val::U64(id)),
        ("tid", Val::U64(current_tid())),
        ("name", Val::from(name)),
        ("dur_ns", Val::U64(dur_ns)),
    ]));
}

/// Emits one pool-worker task record to the sink. Called by
/// `gridtuner-par`'s pool for every task it runs while recording is on.
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

/// Emits an `event` record to the sink. Called by the
/// `event!`/`warn_event!` macros (which check [`crate::enabled`] first).
pub fn emit_event(level: Level, name: &'static str, fields: Vec<(&'static str, Val)>) {
    if !has_sink() {
        return;
    }
    let mut rec = vec![
        ("t", Val::from("event")),
        ("ts", Val::U64(since_epoch_ns())),
        ("tid", Val::U64(current_tid())),
        ("level", Val::from(level.as_str())),
        ("name", Val::from(name)),
    ];
    if !fields.is_empty() {
        rec.push(("f", fields_val(fields)));
    }
    write_record(Val::obj(rec));
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
}
