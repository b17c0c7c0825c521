//! Validates a captured trace file in either wire format.
//!
//! JSONL (`gridtuner.trace/1`): every line must parse, the stream must
//! open with the schema meta record, span starts/ends must balance
//! per id, every `parent` reference must point at a span that is open
//! at that moment on the same stream, and spans/events must carry a
//! numeric `tid`.
//!
//! Chrome Trace Event Format (the output of `gridtuner profile --chrome`):
//! the file must be one closed JSON array of event objects opening with a
//! `process_name` metadata record; `B`/`E` duration events must nest LIFO
//! per `(pid, tid)` lane, and `X` complete events must carry a numeric
//! `dur`.
//!
//! ```text
//! cargo run -p gridtuner-bench --bin trace_check -- trace.jsonl \
//!     [--require tune,probe,alpha.scan] [--format jsonl|chrome|auto]
//! ```
//!
//! Exit status 0 when the trace is well formed (CI smoke gate), 1 with a
//! diagnostic otherwise, 2 on a bad command line: a missing trace path, a
//! missing flag value or an unknown flag (the strict parser shared by the
//! bench binaries), so a typo such as `--requir` cannot drop the gate.

use gridtuner_bench::flags::{exit_usage, Flags};
use gridtuner_bench::{outln, write_stdout};
use gridtuner_obs::json::{parse_jsonl, Val};
use std::collections::{BTreeMap, BTreeSet};

const TRACE_SCHEMA: &str = "gridtuner.trace/1";

/// Summary of a validated trace.
#[derive(Debug, Default, PartialEq, Eq)]
struct TraceSummary {
    records: usize,
    /// Record count per discriminator (`t` in JSONL, `ph` in Chrome).
    kinds: BTreeMap<String, usize>,
    /// Distinct span and event names seen.
    names: BTreeSet<String>,
}

fn str_field<'a>(rec: &'a Val, key: &str) -> Option<&'a str> {
    rec.get(key).and_then(|v| v.as_str())
}

/// Validates a JSONL stream; returns a summary or the first problem.
fn validate(text: &str) -> Result<TraceSummary, String> {
    let records = parse_jsonl(text)?;
    if records.is_empty() {
        return Err("empty trace: no records".into());
    }
    if str_field(&records[0], "t") != Some("meta") {
        return Err("first record is not a meta record".into());
    }
    match str_field(&records[0], "schema") {
        Some(TRACE_SCHEMA) => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let mut summary = TraceSummary {
        records: records.len(),
        ..TraceSummary::default()
    };
    // Spans started (id -> name) and not yet ended.
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        let line = i + 1;
        let kind = str_field(rec, "t")
            .ok_or_else(|| format!("line {line}: record has no \"t\" discriminator"))?;
        *summary.kinds.entry(kind.to_string()).or_insert(0) += 1;
        if rec.get("ts").and_then(Val::as_f64).is_none() {
            return Err(format!("line {line}: missing numeric \"ts\""));
        }
        match kind {
            "meta" | "report" => {}
            "span_start" | "span_end" | "event" => {
                let name = str_field(rec, "name")
                    .ok_or_else(|| format!("line {line}: {kind} without a name"))?;
                summary.names.insert(name.to_string());
                if rec.get("tid").and_then(Val::as_f64).is_none() {
                    return Err(format!("line {line}: {kind} without a numeric \"tid\""));
                }
                if kind == "event" {
                    continue;
                }
                let id = rec
                    .get("id")
                    .and_then(Val::as_f64)
                    .ok_or_else(|| format!("line {line}: {kind} without an id"))?
                    as u64;
                if kind == "span_start" {
                    // A declared parent must be a span that is still open
                    // on this stream — anything else means the recorder
                    // mispaired ids or emitted records out of order.
                    if let Some(parent) = rec.get("parent").and_then(Val::as_f64) {
                        let parent = parent as u64;
                        if !open.contains_key(&parent) {
                            return Err(format!(
                                "line {line}: span id {id} ({name:?}) claims parent {parent}, \
                                 which is not an open span"
                            ));
                        }
                    }
                    if open.insert(id, name.to_string()).is_some() {
                        return Err(format!("line {line}: span id {id} started twice"));
                    }
                } else {
                    match open.remove(&id) {
                        Some(started) if started == name => {}
                        Some(started) => {
                            return Err(format!(
                                "line {line}: span id {id} started as {started:?}, ended as {name:?}"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "line {line}: span id {id} ended twice or never started"
                            ))
                        }
                    }
                }
            }
            other => return Err(format!("line {line}: unknown record type {other:?}")),
        }
    }
    // Unclosed spans are tolerated (a process may exit inside a span) but
    // more ends than starts never are — that case errored above.
    Ok(summary)
}

/// Validates a Chrome Trace Event Format file: one closed JSON array.
fn validate_chrome(text: &str) -> Result<TraceSummary, String> {
    let Val::Arr(events) = Val::parse(text.trim())? else {
        return Err("chrome trace is not a JSON array".into());
    };
    if events.is_empty() {
        return Err("empty chrome trace: no events".into());
    }
    let mut summary = TraceSummary::default();
    // Per-(pid, tid) stack of open B event names.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, rec) in events.iter().enumerate() {
        let line = i + 1;
        summary.records += 1;
        let ph = str_field(rec, "ph")
            .ok_or_else(|| format!("event {line}: record has no \"ph\" phase"))?;
        *summary.kinds.entry(ph.to_string()).or_insert(0) += 1;
        let pid = rec.get("pid").and_then(Val::as_f64).map(|v| v as u64);
        let tid = rec.get("tid").and_then(Val::as_f64).map(|v| v as u64);
        if i == 0 {
            if ph != "M" || str_field(rec, "name") != Some("process_name") {
                return Err("first event is not the process_name metadata record".into());
            }
            continue;
        }
        let name = str_field(rec, "name");
        match ph {
            "M" => {}
            "B" | "E" | "i" | "X" => {
                let (pid, tid) = match (pid, tid) {
                    (Some(p), Some(t)) => (p, t),
                    _ => return Err(format!("event {line}: {ph} without numeric pid/tid")),
                };
                if rec.get("ts").and_then(Val::as_f64).is_none() {
                    return Err(format!("event {line}: {ph} without a numeric \"ts\""));
                }
                match ph {
                    "B" => {
                        let name = name.ok_or_else(|| format!("event {line}: B without a name"))?;
                        summary.names.insert(name.to_string());
                        stacks.entry((pid, tid)).or_default().push(name.to_string());
                    }
                    "E" => {
                        // Chrome pairs E with the most recent unmatched B
                        // on the same lane; an E with no open B is broken.
                        let stack = stacks.entry((pid, tid)).or_default();
                        match stack.pop() {
                            Some(opened) => {
                                if let Some(name) = name {
                                    if name != opened {
                                        return Err(format!(
                                            "event {line}: E named {name:?} closes B named \
                                             {opened:?} on tid {tid}"
                                        ));
                                    }
                                }
                            }
                            None => {
                                return Err(format!(
                                    "event {line}: E with no open B on pid {pid} tid {tid}"
                                ))
                            }
                        }
                    }
                    "i" => {
                        if let Some(name) = name {
                            summary.names.insert(name.to_string());
                        }
                    }
                    _ => {
                        // X: a complete event must carry its duration.
                        if rec.get("dur").and_then(Val::as_f64).is_none() {
                            return Err(format!("event {line}: X without a numeric \"dur\""));
                        }
                        if let Some(name) = name {
                            summary.names.insert(name.to_string());
                        }
                    }
                }
            }
            other => return Err(format!("event {line}: unknown phase {other:?}")),
        }
    }
    // Open B events are tolerated like the unclosed JSONL spans they are
    // converted from (a process may exit inside a span).
    Ok(summary)
}

/// Parsed command line: the trace path first, then the flags.
#[derive(Debug, PartialEq)]
struct CheckArgs {
    path: String,
    required: Vec<String>,
    /// `Some(true)` for Chrome, `Some(false)` for JSONL, `None` to detect.
    chrome: Option<bool>,
}

fn parse_args(args: &[String]) -> Result<CheckArgs, String> {
    let (path, rest) = match args.split_first() {
        Some((p, rest)) if !p.starts_with("--") => (p.clone(), rest),
        _ => return Err("the trace file must come first".into()),
    };
    let mut out = CheckArgs {
        path,
        required: Vec::new(),
        chrome: None,
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--require" => {
                let names: String = flags.value(flag)?;
                out.required = names.split(',').map(str::to_string).collect();
            }
            "--format" => {
                out.chrome = match flags.value::<String>(flag)?.as_str() {
                    "jsonl" => Some(false),
                    "chrome" => Some(true),
                    "auto" => None,
                    other => return Err(format!("--format: unknown value {other:?}")),
                }
            }
            other => return Err(Flags::unknown(other)),
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let CheckArgs {
        path,
        required,
        chrome,
    } = parse_args(&argv).unwrap_or_else(|e| {
        exit_usage(
            "trace_check",
            &format!(
                "{e}\nusage: trace_check <trace-file> [--require name1,name2,...] \
                 [--format jsonl|chrome|auto]"
            ),
        )
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let chrome = chrome.unwrap_or_else(|| text.trim_start().starts_with('['));
    let result = if chrome {
        validate_chrome(&text)
    } else {
        validate(&text)
    };
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace_check: {path}: INVALID: {e}");
            std::process::exit(1);
        }
    };
    let missing: Vec<&String> = required
        .iter()
        .filter(|r| !summary.names.contains(*r))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "trace_check: {path}: missing required span/event names: {missing:?} (saw: {:?})",
            summary.names
        );
        std::process::exit(1);
    }
    let kinds: Vec<String> = summary
        .kinds
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    write_stdout("trace_check", || {
        outln!(
            "trace_check: {path}: OK [{}] — {} records ({}), {} distinct names",
            if chrome { "chrome" } else { "jsonl" },
            summary.records,
            kinds.join(" "),
            summary.names.len()
        );
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace sink is process-global; serialize the tests that install
    /// one.
    fn sink_guard() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    const GOOD: &str = concat!(
        "{\"t\":\"meta\",\"ts\":1,\"schema\":\"gridtuner.trace/1\"}\n",
        "{\"t\":\"span_start\",\"ts\":2,\"id\":1,\"tid\":1,\"name\":\"tune\"}\n",
        "{\"t\":\"span_start\",\"ts\":3,\"id\":2,\"tid\":1,\"parent\":1,\"name\":\"probe\",\"f\":{\"side\":4}}\n",
        "{\"t\":\"event\",\"ts\":4,\"tid\":1,\"level\":\"info\",\"name\":\"probe\",\"f\":{\"total\":1.5}}\n",
        "{\"t\":\"span_end\",\"ts\":5,\"id\":2,\"tid\":1,\"name\":\"probe\",\"dur_ns\":100}\n",
        "{\"t\":\"span_end\",\"ts\":6,\"id\":1,\"tid\":1,\"name\":\"tune\",\"dur_ns\":400}\n",
        "{\"t\":\"report\",\"ts\":7}\n",
    );

    #[test]
    fn arg_parsing_is_strict() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&argv("t.jsonl --require tune,probe --format chrome")),
            Ok(CheckArgs {
                path: "t.jsonl".into(),
                required: vec!["tune".into(), "probe".into()],
                chrome: Some(true),
            })
        );
        let d = parse_args(&argv("t.jsonl")).unwrap();
        assert!(d.required.is_empty());
        assert_eq!(d.chrome, None);
        assert_eq!(
            parse_args(&argv("t.jsonl --format jsonl")).unwrap().chrome,
            Some(false)
        );
        assert!(parse_args(&argv("t.jsonl --format xml")).is_err());
        // A misspelt gate flag is an error, never a dropped gate.
        let err = parse_args(&argv("t.jsonl --requir probe")).unwrap_err();
        assert!(err.contains("--requir"), "{err}");
        assert!(parse_args(&argv("t.jsonl --require")).is_err());
        assert!(parse_args(&argv("--require probe")).is_err());
        assert!(parse_args(&argv("")).is_err());
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let s = validate(GOOD).unwrap();
        assert_eq!(s.records, 7);
        assert_eq!(s.kinds["span_start"], 2);
        assert_eq!(s.kinds["span_end"], 2);
        assert!(s.names.contains("tune") && s.names.contains("probe"));
    }

    #[test]
    fn rejects_streams_without_the_meta_header() {
        let body = GOOD.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate(&body).unwrap_err().contains("meta"));
        assert!(validate("").unwrap_err().contains("empty"));
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let double_end = format!(
            "{}{}",
            GOOD,
            "{\"t\":\"span_end\",\"ts\":8,\"id\":1,\"tid\":1,\"name\":\"tune\",\"dur_ns\":1}\n"
        );
        assert!(validate(&double_end).unwrap_err().contains("ended twice"));
        let renamed = GOOD.replace(
            "{\"t\":\"span_end\",\"ts\":6,\"id\":1,\"tid\":1,\"name\":\"tune\"",
            "{\"t\":\"span_end\",\"ts\":6,\"id\":1,\"tid\":1,\"name\":\"other\"",
        );
        assert!(validate(&renamed).unwrap_err().contains("started as"));
    }

    #[test]
    fn rejects_parents_that_are_not_open() {
        // Parent 99 never started.
        let orphan = GOOD.replace("\"parent\":1", "\"parent\":99");
        assert!(validate(&orphan).unwrap_err().contains("not an open span"));
        // Parent 1 closed before the child started: move the tune end up.
        let closed = concat!(
            "{\"t\":\"meta\",\"ts\":1,\"schema\":\"gridtuner.trace/1\"}\n",
            "{\"t\":\"span_start\",\"ts\":2,\"id\":1,\"tid\":1,\"name\":\"tune\"}\n",
            "{\"t\":\"span_end\",\"ts\":3,\"id\":1,\"tid\":1,\"name\":\"tune\",\"dur_ns\":10}\n",
            "{\"t\":\"span_start\",\"ts\":4,\"id\":2,\"tid\":1,\"parent\":1,\"name\":\"probe\"}\n",
        );
        assert!(validate(closed).unwrap_err().contains("not an open span"));
    }

    #[test]
    fn rejects_spans_without_thread_ids() {
        let untagged = GOOD.replace(
            "{\"t\":\"span_start\",\"ts\":2,\"id\":1,\"tid\":1,\"name\":\"tune\"}",
            "{\"t\":\"span_start\",\"ts\":2,\"id\":1,\"name\":\"tune\"}",
        );
        assert!(validate(&untagged).unwrap_err().contains("tid"));
    }

    #[test]
    fn unclosed_spans_are_tolerated() {
        let truncated = GOOD.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(validate(&truncated).is_ok());
    }

    #[test]
    fn rejects_garbage_lines_and_bad_schema() {
        assert!(validate("not json\n").is_err());
        let bad = GOOD.replace("gridtuner.trace/1", "gridtuner.trace/99");
        assert!(validate(&bad).unwrap_err().contains("schema"));
    }

    const CHROME: &str = concat!(
        "[\n",
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"gridtuner\"}},\n",
        "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.0,\"name\":\"tune\",\"args\":{\"id\":1}},\n",
        "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":2.0,\"name\":\"probe\",\"args\":{\"id\":2,\"parent\":1}},\n",
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2.5,\"s\":\"t\",\"cat\":\"info\",\"name\":\"probe\"},\n",
        "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3.0,\"name\":\"probe\"},\n",
        "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":4.0,\"name\":\"tune\"},\n",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":10001,\"ts\":1.5,\"dur\":0.5,\"name\":\"par.task\",\"args\":{\"worker\":1}}\n",
        "]\n",
    );

    #[test]
    fn accepts_a_well_formed_chrome_trace() {
        let s = validate_chrome(CHROME).unwrap();
        assert_eq!(s.records, 7);
        assert_eq!(s.kinds["B"], 2);
        assert_eq!(s.kinds["E"], 2);
        assert_eq!(s.kinds["X"], 1);
        assert!(s.names.contains("tune") && s.names.contains("par.task"));
    }

    #[test]
    fn chrome_rejects_an_unclosed_array() {
        // No closing bracket: the converter never writes this.
        let cut: String = CHROME.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(validate_chrome(&cut).is_err());
        // A closed array with an open B (an unclosed span) is fine.
        let open_b = format!("{}]", cut.trim_end_matches(','));
        assert_eq!(validate_chrome(&open_b).unwrap().records, 3);
    }

    #[test]
    fn chrome_rejects_mispaired_lanes_and_missing_dur() {
        // E on a lane with no open B.
        let wrong_lane = CHROME.replace(
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3.0,\"name\":\"probe\"}",
            "{\"ph\":\"E\",\"pid\":1,\"tid\":7,\"ts\":3.0,\"name\":\"probe\"}",
        );
        assert!(validate_chrome(&wrong_lane)
            .unwrap_err()
            .contains("no open B"));
        // E out of LIFO order.
        let crossed = CHROME.replace(
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3.0,\"name\":\"probe\"}",
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3.0,\"name\":\"tune\"}",
        );
        assert!(validate_chrome(&crossed).unwrap_err().contains("closes B"));
        // X without dur.
        let nodur = CHROME.replace(",\"dur\":0.5", "");
        assert!(validate_chrome(&nodur).unwrap_err().contains("dur"));
        // Not an array at all.
        assert!(validate_chrome("{\"ph\":\"M\"}").is_err());
    }

    #[test]
    fn chrome_requires_the_process_name_header() {
        let headless: String = format!(
            "[\n{}\n]\n",
            CHROME.lines().nth(2).unwrap().trim_end_matches(',')
        );
        assert!(validate_chrome(&headless)
            .unwrap_err()
            .contains("process_name"));
    }

    #[test]
    fn a_real_captured_stream_validates() {
        // End-to-end: produce a trace through the real recorder and feed
        // it back through the validator.
        use gridtuner_obs as obs;
        let _g = sink_guard();
        let buf = obs::trace::capture_to_buffer();
        obs::enable();
        {
            let _t = obs::span!("tune", lo = 2u32, hi = 8u32);
            let _p = obs::span!("probe", side = 4u32);
            obs::event!("probe", side = 4u32, total = 2.5f64);
        }
        obs::disable();
        obs::trace::flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        obs::trace::clear_sink();
        let s = validate(&text).unwrap();
        assert!(s.names.contains("tune") && s.names.contains("probe"));
    }

    #[test]
    fn a_real_chrome_capture_validates() {
        // End-to-end: capture JSONL through the real recorder, convert it
        // offline and validate the Chrome array.
        use gridtuner_obs as obs;
        let _g = sink_guard();
        let buf = obs::trace::capture_to_buffer();
        obs::enable();
        {
            let _t = obs::span!("tune", lo = 2u32, hi = 8u32);
            let _p = obs::span!("probe", side = 4u32);
            obs::event!("probe", side = 4u32, total = 2.5f64);
        }
        obs::trace::write_task_record(1, 1, 0, 10, 20);
        obs::disable();
        obs::trace::clear_sink();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let chrome = obs::profile::to_chrome(&parse_jsonl(&text).unwrap());
        let s = validate_chrome(&chrome).unwrap();
        assert!(s.names.contains("tune") && s.names.contains("probe"));
        assert!(s.names.contains("par.task"));
        assert_eq!(s.kinds["B"], s.kinds["E"]);
        assert_eq!(s.kinds["X"], 1);
    }
}
