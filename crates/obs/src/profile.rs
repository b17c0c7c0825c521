//! Offline profile analyzer over a captured `gridtuner.trace/1` stream.
//!
//! [`Profile::from_records`] rebuilds the span tree (with per-thread ids),
//! the pool-worker task timeline, the structured events and the final
//! `report` record's counters from parsed JSONL records, then answers the
//! questions aggregate counters cannot:
//!
//! * [`Profile::self_times`] — per-span-name **self time**, i.e. time
//!   inside a span exclusive of its same-thread children (a cross-thread
//!   child does not consume its parent's time, so it is not subtracted);
//! * [`Profile::thread_utilization`] — per-thread busy/idle split over
//!   the trace window (busy = union of that thread's span intervals);
//! * [`Profile::worker_utilization`] — per-pool-worker busy time and task
//!   counts from the `par.task` timeline records, plus the max/min busy
//!   imbalance ratio;
//! * [`Profile::critical_path`] — the longest `tune` span decomposed by
//!   its innermost-active same-thread descendant at every instant. The
//!   elementary segments partition the span exactly, so the breakdown
//!   always sums to the `tune` wall time;
//! * [`Profile::decomposition`] — the per-`n` model/expression error
//!   decomposition (Theorem II.1) of that same tune, from the `probe`
//!   events its thread emitted while it ran;
//! * [`Profile::warnings`] — every warn-level event.
//!
//! [`Profile::render`] prints all of it, plus every non-zero counter; it
//! is what both `gridtuner profile --input` and `--report` print.
//!
//! [`to_chrome`] converts the same parsed records to a Chrome Trace Event
//! Format array for Perfetto / `chrome://tracing`.
//!
//! Everything here is pure analysis over already-captured data; nothing
//! feeds back into recording.

use crate::json::Val;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Rows of the self-time table that `gridtuner profile` and `--report`
/// print.
pub const DEFAULT_TOP: usize = 12;

/// One reconstructed span occurrence.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Trace-wide span id.
    pub id: u64,
    /// Parent span id (0 = top level).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Sequential thread id the span ran on.
    pub tid: u64,
    /// Open timestamp, ns since the trace epoch.
    pub start_ns: u64,
    /// Close timestamp (`start + dur`); the trace end for unclosed spans.
    pub end_ns: u64,
    /// Whether a `span_end` was seen.
    pub closed: bool,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One pool-worker task from the `par.task` timeline.
#[derive(Debug, Clone, Copy)]
pub struct TaskRec {
    /// Worker id (0 = the dispatching thread).
    pub worker: u64,
    /// Dispatch generation the task belonged to.
    pub generation: u64,
    /// Task index within the dispatch.
    pub task: u64,
    /// Claim timestamp, ns since the trace epoch.
    pub claim_ns: u64,
    /// Finish timestamp.
    pub finish_ns: u64,
}

/// One structured `event` record other than a `par.task`.
#[derive(Debug, Clone)]
pub struct EventRec {
    /// Event name (e.g. `"probe"`, `"ternary.plateau_tie"`).
    pub name: String,
    /// Whether the event was emitted at warn level.
    pub warn: bool,
    /// Sequential thread id that emitted it.
    pub tid: u64,
    /// Timestamp, ns since the trace epoch.
    pub ts_ns: u64,
    /// Structured payload, in emission order.
    pub fields: Vec<(String, Val)>,
}

impl EventRec {
    fn num(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }
}

/// One row of the per-`n` error decomposition (Theorem II.1: real error ≤
/// model error + expression error).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// MGrid side `s`.
    pub side: u32,
    /// Cell count `n = s²`.
    pub n: u64,
    /// Expression-error term `Σ E_e`.
    pub expression_error: f64,
    /// Model-error term `n · MAE`.
    pub model_error: f64,
    /// The upper bound `e(s)`.
    pub total: f64,
}

/// Aggregated per-name timing with self time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
    /// Total exclusive nanoseconds (children's same-thread time removed).
    pub self_ns: u64,
}

/// Per-thread busy/idle split over the trace window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadUtil {
    /// Sequential thread id.
    pub tid: u64,
    /// Spans that ran on the thread.
    pub spans: u64,
    /// Union of span intervals on the thread.
    pub busy_ns: u64,
}

/// Per-pool-worker busy time from the task timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerUtil {
    /// Worker id (0 = dispatcher).
    pub worker: u64,
    /// Tasks the worker ran.
    pub tasks: u64,
    /// Summed task durations.
    pub busy_ns: u64,
}

/// One critical-path constituent: time during the `tune` span where this
/// span name was the innermost active frame on the tune thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// Span name (the root's own name for uncovered stretches).
    pub name: String,
    /// Nanoseconds attributed.
    pub ns: u64,
}

/// The decomposed critical path through the longest `tune` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The root span's name.
    pub root: String,
    /// The root span's wall time.
    pub total_ns: u64,
    /// Per-name attribution, largest first. Sums to `total_ns` exactly.
    pub entries: Vec<PathEntry>,
}

/// A reconstructed trace, ready for analysis.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Every span occurrence, in stream order.
    pub spans: Vec<SpanRec>,
    /// Every pool-worker task record, claim-sorted.
    pub tasks: Vec<TaskRec>,
    /// Every other `event` record, in stream order.
    pub events: Vec<EventRec>,
    /// The counters of the last `report` record, name-sorted (empty when
    /// the stream has none).
    pub counters: Vec<(String, u64)>,
    /// Earliest timestamp seen.
    pub trace_start_ns: u64,
    /// Latest timestamp seen.
    pub trace_end_ns: u64,
}

fn field_u64(rec: &Val, key: &str) -> Option<u64> {
    rec.get(key).and_then(|v| v.as_f64()).map(|f| f as u64)
}

impl Profile {
    /// Parses a JSONL trace text and analyzes it.
    pub fn from_jsonl(text: &str) -> Result<Profile, String> {
        let records = crate::json::parse_jsonl(text)?;
        Ok(Profile::from_records(&records))
    }

    /// Rebuilds spans, tasks, events and counters from parsed
    /// `gridtuner.trace/1` records. Unknown record kinds are skipped; an
    /// unclosed span is kept and extended to the trace end.
    pub fn from_records(records: &[Val]) -> Profile {
        let mut spans: Vec<SpanRec> = Vec::new();
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
        let mut tasks: Vec<TaskRec> = Vec::new();
        let mut events: Vec<EventRec> = Vec::new();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut clamp = |ts: u64| {
            lo = lo.min(ts);
            hi = hi.max(ts);
        };
        for rec in records {
            let kind = rec.get("t").and_then(|v| v.as_str()).unwrap_or("");
            let ts = field_u64(rec, "ts").unwrap_or(0);
            match kind {
                "span_start" => {
                    let Some(id) = field_u64(rec, "id") else {
                        continue;
                    };
                    clamp(ts);
                    open.insert(id, spans.len());
                    spans.push(SpanRec {
                        id,
                        parent: field_u64(rec, "parent").unwrap_or(0),
                        name: rec
                            .get("name")
                            .and_then(|v| v.as_str())
                            .unwrap_or("?")
                            .to_string(),
                        tid: field_u64(rec, "tid").unwrap_or(0),
                        start_ns: ts,
                        end_ns: ts,
                        closed: false,
                    });
                }
                "span_end" => {
                    let Some(id) = field_u64(rec, "id") else {
                        continue;
                    };
                    if let Some(idx) = open.remove(&id) {
                        let span = &mut spans[idx];
                        // The span timed itself with its own clock; prefer
                        // start + dur over the close record's timestamp.
                        span.end_ns = match field_u64(rec, "dur_ns") {
                            Some(dur) => span.start_ns + dur,
                            None => ts.max(span.start_ns),
                        };
                        span.closed = true;
                        clamp(span.end_ns);
                    }
                }
                "event" => {
                    clamp(ts);
                    let name = rec.get("name").and_then(|v| v.as_str()).unwrap_or("?");
                    if name != "par.task" {
                        events.push(EventRec {
                            name: name.to_string(),
                            warn: rec.get("level").and_then(|v| v.as_str()) == Some("warn"),
                            tid: field_u64(rec, "tid").unwrap_or(0),
                            ts_ns: ts,
                            fields: match rec.get("f") {
                                Some(Val::Obj(fields)) => fields.clone(),
                                _ => Vec::new(),
                            },
                        });
                    } else if let Some(f) = rec.get("f") {
                        let (Some(worker), Some(claim_ns), Some(finish_ns)) = (
                            field_u64(f, "worker"),
                            field_u64(f, "claim_ns"),
                            field_u64(f, "finish_ns"),
                        ) else {
                            continue;
                        };
                        clamp(finish_ns);
                        tasks.push(TaskRec {
                            worker,
                            generation: field_u64(f, "gen").unwrap_or(0),
                            task: field_u64(f, "task").unwrap_or(0),
                            claim_ns,
                            finish_ns,
                        });
                    }
                }
                "report" => {
                    if let Some(Val::Obj(entries)) =
                        rec.get("metrics").and_then(|m| m.get("counters"))
                    {
                        counters = entries
                            .iter()
                            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f as u64)))
                            .collect();
                    }
                }
                _ => {}
            }
        }
        let trace_end = if hi >= lo { hi } else { 0 };
        for idx in open.into_values() {
            spans[idx].end_ns = trace_end.max(spans[idx].start_ns);
        }
        tasks.sort_by_key(|t| (t.claim_ns, t.worker, t.task));
        Profile {
            spans,
            tasks,
            events,
            counters,
            trace_start_ns: if lo == u64::MAX { 0 } else { lo },
            trace_end_ns: trace_end,
        }
    }

    /// Trace window length.
    pub fn duration_ns(&self) -> u64 {
        self.trace_end_ns.saturating_sub(self.trace_start_ns)
    }

    /// Per-name inclusive/exclusive timing, largest self time first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        // Direct children grouped by parent, same thread only.
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let tid_of: BTreeMap<u64, u64> = self.spans.iter().map(|s| (s.id, s.tid)).collect();
        for s in &self.spans {
            if s.parent != 0 && tid_of.get(&s.parent) == Some(&s.tid) {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get(&s.id)
                .map(|kids| union_len_within(kids.clone(), s.start_ns, s.end_ns))
                .unwrap_or(0);
            let entry = by_name.entry(&s.name).or_insert_with(|| SelfTime {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                max_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += s.dur_ns();
            entry.max_ns = entry.max_ns.max(s.dur_ns());
            entry.self_ns += s.dur_ns().saturating_sub(covered);
        }
        let mut out: Vec<SelfTime> = by_name.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        out
    }

    /// Per-thread busy time (union of the thread's span intervals),
    /// tid-sorted.
    pub fn thread_utilization(&self) -> Vec<ThreadUtil> {
        let mut by_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            by_tid
                .entry(s.tid)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        by_tid
            .into_iter()
            .map(|(tid, intervals)| ThreadUtil {
                tid,
                spans: intervals.len() as u64,
                busy_ns: union_len_within(intervals, 0, u64::MAX),
            })
            .collect()
    }

    /// Per-worker busy time from the task timeline, worker-sorted.
    pub fn worker_utilization(&self) -> Vec<WorkerUtil> {
        let mut by_worker: BTreeMap<u64, WorkerUtil> = BTreeMap::new();
        for t in &self.tasks {
            let w = by_worker.entry(t.worker).or_insert(WorkerUtil {
                worker: t.worker,
                tasks: 0,
                busy_ns: 0,
            });
            w.tasks += 1;
            w.busy_ns += t.finish_ns.saturating_sub(t.claim_ns);
        }
        by_worker.into_values().collect()
    }

    /// Max/min per-worker busy ratio (`None` with fewer than two workers).
    pub fn worker_imbalance(&self) -> Option<f64> {
        let workers = self.worker_utilization();
        if workers.len() < 2 {
            return None;
        }
        let max = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
        let min = workers.iter().map(|w| w.busy_ns).min().unwrap_or(0);
        Some(max as f64 / (min.max(1)) as f64)
    }

    /// The longest span named `name`.
    fn longest(&self, name: &str) -> Option<&SpanRec> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .max_by_key(|s| s.dur_ns())
    }

    /// Decomposes the longest span named `root_name` by innermost-active
    /// same-thread descendant. Returns `None` when no such span exists.
    pub fn critical_path(&self, root_name: &str) -> Option<CriticalPath> {
        let root = self.longest(root_name)?;
        // Depth below the root, same thread only (0 = not a descendant).
        let by_id: BTreeMap<u64, &SpanRec> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut frames: Vec<(&SpanRec, u64)> = self
            .spans
            .iter()
            .filter(|s| s.id != root.id)
            .filter_map(|s| {
                let d = depth_below(&by_id, root, s);
                (d > 0).then_some((s, d))
            })
            .collect();
        frames.sort_by_key(|(s, _)| s.start_ns);
        // Elementary segments between all frame boundaries partition the
        // root exactly; each goes to the deepest frame covering it.
        let mut cuts: Vec<u64> = vec![root.start_ns, root.end_ns];
        for (s, _) in &frames {
            cuts.push(s.start_ns.clamp(root.start_ns, root.end_ns));
            cuts.push(s.end_ns.clamp(root.start_ns, root.end_ns));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let winner = frames
                .iter()
                .filter(|(s, _)| s.start_ns <= a && s.end_ns >= b)
                .max_by_key(|(s, d)| (*d, s.start_ns, s.id))
                .map(|(s, _)| s.name.as_str())
                .unwrap_or(root.name.as_str());
            *by_name.entry(winner.to_string()).or_insert(0) += b - a;
        }
        let mut entries: Vec<PathEntry> = by_name
            .into_iter()
            .map(|(name, ns)| PathEntry { name, ns })
            .collect();
        entries.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.name.cmp(&b.name)));
        Some(CriticalPath {
            root: root.name.clone(),
            total_ns: root.dur_ns(),
            entries,
        })
    }

    /// The per-`n` error decomposition of the tune [`Self::critical_path`]
    /// reports (the longest `tune` span): the `probe` events its thread
    /// emitted inside its interval, one row per side (a re-probed side
    /// keeps its last event), side-sorted. Empty without a `tune` span.
    pub fn decomposition(&self) -> Vec<ProbeRow> {
        let Some(tune) = self.longest("tune") else {
            return Vec::new();
        };
        let mut rows: BTreeMap<u32, ProbeRow> = BTreeMap::new();
        for ev in &self.events {
            if ev.name != "probe"
                || ev.tid != tune.tid
                || ev.ts_ns < tune.start_ns
                || ev.ts_ns > tune.end_ns
            {
                continue;
            }
            let (Some(side), Some(expression_error), Some(model_error), Some(total)) = (
                ev.num("side"),
                ev.num("expression_error"),
                ev.num("model_error"),
                ev.num("total"),
            ) else {
                continue;
            };
            let side = side as u32;
            rows.insert(
                side,
                ProbeRow {
                    side,
                    n: u64::from(side) * u64::from(side),
                    expression_error,
                    model_error,
                    total,
                },
            );
        }
        rows.into_values().collect()
    }

    /// Every warn-level event, in stream order.
    pub fn warnings(&self) -> impl Iterator<Item = &EventRec> {
        self.events.iter().filter(|e| e.warn)
    }

    /// Renders the human-readable profile: top-`top` self-time table,
    /// per-thread and per-worker utilization, every non-zero counter, the
    /// critical path, the error decomposition and the warnings.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let wall = self.duration_ns();
        let _ = writeln!(
            out,
            "profile: {} spans, {} worker tasks, {:.1} ms trace window",
            self.spans.len(),
            self.tasks.len(),
            ms(wall)
        );

        let _ = writeln!(out, "\nself time (top {top}):");
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>12} {:>12} {:>7}",
            "span", "count", "total ms", "self ms", "self %"
        );
        let selfs = self.self_times();
        let self_sum: u64 = selfs.iter().map(|s| s.self_ns).sum();
        for s in selfs.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<28} {:>7} {:>12.2} {:>12.2} {:>6.1}%",
                s.name,
                s.count,
                ms(s.total_ns),
                ms(s.self_ns),
                pct(s.self_ns, self_sum)
            );
        }

        let _ = writeln!(out, "\nthreads:");
        for t in self.thread_utilization() {
            let _ = writeln!(
                out,
                "  tid {:<4} {:>6} spans  busy {:>10.2} ms  ({:.1}% of window)",
                t.tid,
                t.spans,
                ms(t.busy_ns),
                pct(t.busy_ns, wall)
            );
        }

        let workers = self.worker_utilization();
        if workers.is_empty() {
            let _ = writeln!(
                out,
                "\nworkers: no par.task records (single-thread run or pool never dispatched)"
            );
        } else {
            let busy_sum: u64 = workers.iter().map(|w| w.busy_ns).sum();
            let _ = writeln!(out, "\nworkers (0 = dispatching thread):");
            for w in &workers {
                let _ = writeln!(
                    out,
                    "  worker {:<3} {:>6} tasks  busy {:>10.2} ms  ({:.1}% of pool busy)",
                    w.worker,
                    w.tasks,
                    ms(w.busy_ns),
                    pct(w.busy_ns, busy_sum)
                );
            }
            if let Some(ratio) = self.worker_imbalance() {
                let _ = writeln!(out, "  busy imbalance (max/min): {ratio:.2}x");
            }
        }

        let counters: Vec<&(String, u64)> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, v) in counters {
                let _ = writeln!(out, "  {name:<40} {v:>12}");
            }
        }

        if let Some(path) = self.critical_path("tune") {
            let _ = writeln!(
                out,
                "\ncritical path through `{}` ({:.2} ms wall):",
                path.root,
                ms(path.total_ns)
            );
            for e in &path.entries {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>12.2} ms  ({:.1}%)",
                    e.name,
                    ms(e.ns),
                    pct(e.ns, path.total_ns)
                );
            }
            let sum: u64 = path.entries.iter().map(|e| e.ns).sum();
            let _ = writeln!(out, "  {:<28} {:>12.2} ms", "= total", ms(sum));
        } else {
            let _ = writeln!(out, "\ncritical path: no `tune` span in the trace");
        }

        let rows = self.decomposition();
        if !rows.is_empty() {
            let _ = writeln!(out, "\nerror decomposition through `tune` (per n):");
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>16} {:>16} {:>16}",
                "side", "n", "model_error", "expr_error", "total e(s)"
            );
            for r in &rows {
                let _ = writeln!(
                    out,
                    "{:>6} {:>8} {:>16.6} {:>16.6} {:>16.6}",
                    r.side, r.n, r.model_error, r.expression_error, r.total
                );
            }
        }

        let mut warnings = self.warnings().peekable();
        if warnings.peek().is_some() {
            let _ = writeln!(out, "\nwarnings:");
            for w in warnings {
                let _ = write!(out, "  warn {}", w.name);
                for (k, v) in &w.fields {
                    let _ = write!(out, " {k}={}", v.render());
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

/// How many parent hops below `root` the span sits, staying on the root's
/// thread the whole way (0 = not a same-thread descendant).
fn depth_below(by_id: &BTreeMap<u64, &SpanRec>, root: &SpanRec, span: &SpanRec) -> u64 {
    if span.tid != root.tid {
        return 0;
    }
    let mut depth = 0;
    let mut cur = span;
    while cur.parent != 0 {
        if cur.parent == root.id {
            return depth + 1;
        }
        match by_id.get(&cur.parent) {
            Some(p) if p.tid == root.tid => {
                cur = p;
                depth += 1;
            }
            _ => return 0,
        }
    }
    0
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Offset added to a pool worker id to form its Chrome `tid`, keeping the
/// per-worker task lanes clear of real span thread ids.
pub const CHROME_WORKER_TID_BASE: u64 = 10_000;

/// Nanoseconds → the fractional microseconds Chrome's `ts`/`dur` expect.
fn chrome_us(ns: u64) -> Val {
    Val::F64(ns as f64 / 1_000.0)
}

/// Converts parsed `gridtuner.trace/1` records to one closed Chrome Trace
/// Event Format array, one event per line, record by record:
///
/// * `meta` → the `process_name` metadata (`M`) event;
/// * `span_start` / `span_end` → `B` / `E` on the span's `tid` lane, with
///   the span `id`, its `parent` and its `f` fields in the `B`'s `args`;
/// * `event` → an instant (`i`) event with its `f` fields in `args`,
///   except `par.task`, which becomes a complete (`X`) event on lane
///   [`CHROME_WORKER_TID_BASE`]` + worker` spanning claim → finish;
/// * `report` (and any unknown kind) → nothing.
pub fn to_chrome(records: &[Val]) -> String {
    let mut events: Vec<Val> = Vec::with_capacity(records.len());
    for rec in records {
        let kind = rec.get("t").and_then(|v| v.as_str()).unwrap_or("");
        let name = rec.get("name").cloned().unwrap_or(Val::from("?"));
        let tid = Val::U64(field_u64(rec, "tid").unwrap_or(0));
        let ts = chrome_us(field_u64(rec, "ts").unwrap_or(0));
        let f = rec.get("f");
        let fields = match f {
            Some(Val::Obj(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        let event = match kind {
            "meta" => Val::obj(vec![
                ("name", Val::from("process_name")),
                ("ph", Val::from("M")),
                ("pid", Val::U64(1)),
                ("tid", Val::U64(0)),
                ("args", Val::obj(vec![("name", Val::from("gridtuner"))])),
            ]),
            "span_start" => {
                let mut args = vec![(
                    "id".to_string(),
                    Val::U64(field_u64(rec, "id").unwrap_or(0)),
                )];
                if let Some(parent) = field_u64(rec, "parent") {
                    args.push(("parent".to_string(), Val::U64(parent)));
                }
                args.extend(fields);
                Val::obj(vec![
                    ("name", name),
                    ("cat", Val::from("span")),
                    ("ph", Val::from("B")),
                    ("pid", Val::U64(1)),
                    ("tid", tid),
                    ("ts", ts),
                    ("args", Val::Obj(args)),
                ])
            }
            "span_end" => Val::obj(vec![
                ("name", name),
                ("cat", Val::from("span")),
                ("ph", Val::from("E")),
                ("pid", Val::U64(1)),
                ("tid", tid),
                ("ts", ts),
            ]),
            "event" if name.as_str() == Some("par.task") => {
                let f = f.unwrap_or(&Val::Null);
                let worker = field_u64(f, "worker").unwrap_or(0);
                let claim_ns = field_u64(f, "claim_ns").unwrap_or(0);
                let finish_ns = field_u64(f, "finish_ns").unwrap_or(claim_ns);
                Val::obj(vec![
                    ("name", name),
                    ("cat", Val::from("par")),
                    ("ph", Val::from("X")),
                    ("pid", Val::U64(1)),
                    ("tid", Val::U64(CHROME_WORKER_TID_BASE + worker)),
                    ("ts", chrome_us(claim_ns)),
                    ("dur", chrome_us(finish_ns.saturating_sub(claim_ns))),
                    (
                        "args",
                        Val::obj(vec![
                            ("worker", Val::U64(worker)),
                            ("gen", Val::U64(field_u64(f, "gen").unwrap_or(0))),
                            ("task", Val::U64(field_u64(f, "task").unwrap_or(0))),
                        ]),
                    ),
                ])
            }
            "event" => Val::obj(vec![
                ("name", name),
                (
                    "cat",
                    rec.get("level").cloned().unwrap_or(Val::from("info")),
                ),
                ("ph", Val::from("i")),
                ("s", Val::from("t")),
                ("pid", Val::U64(1)),
                ("tid", tid),
                ("ts", ts),
                ("args", Val::Obj(fields)),
            ]),
            _ => continue,
        };
        events.push(event);
    }
    let lines: Vec<String> = events.iter().map(Val::render).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Sorted-merge of possibly overlapping intervals.
fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len_within(intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    merge_intervals(intervals)
        .into_iter()
        .map(|(a, b)| b.clamp(lo, hi).saturating_sub(a.clamp(lo, hi)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a JSONL trace line-set from shorthand span/task tuples and
    /// parses it through the real stream parser.
    fn profile(
        spans: &[(u64, u64, &str, u64, u64, u64)], // (id, parent, name, tid, start, end)
        tasks: &[(u64, u64, u64, u64)],            // (worker, task, claim, finish)
    ) -> Profile {
        let mut text = format!(
            "{{\"t\":\"meta\",\"ts\":0,\"schema\":\"{}\"}}\n",
            crate::trace::SCHEMA
        );
        let mut lines: Vec<(u64, String)> = Vec::new();
        for &(id, parent, name, tid, start, end) in spans {
            let parent_part = if parent != 0 {
                format!("\"parent\":{parent},")
            } else {
                String::new()
            };
            lines.push((
                start,
                format!(
                    "{{\"t\":\"span_start\",\"ts\":{start},\"id\":{id},\"tid\":{tid},{parent_part}\"name\":\"{name}\"}}"
                ),
            ));
            lines.push((
                end,
                format!(
                    "{{\"t\":\"span_end\",\"ts\":{end},\"id\":{id},\"tid\":{tid},\"name\":\"{name}\",\"dur_ns\":{}}}",
                    end - start
                ),
            ));
        }
        for &(worker, task, claim, finish) in tasks {
            lines.push((
                claim,
                format!(
                    "{{\"t\":\"event\",\"ts\":{claim},\"tid\":9,\"level\":\"info\",\"name\":\"par.task\",\"f\":{{\"worker\":{worker},\"gen\":1,\"task\":{task},\"claim_ns\":{claim},\"finish_ns\":{finish},\"dur_ns\":{}}}}}",
                    finish - claim
                ),
            ));
        }
        lines.sort_by_key(|(ts, _)| *ts);
        for (_, line) in lines {
            text.push_str(&line);
            text.push('\n');
        }
        Profile::from_jsonl(&text).expect("synthetic trace parses")
    }

    fn self_of(profile: &Profile, name: &str) -> u64 {
        profile
            .self_times()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.self_ns)
            .unwrap_or(u64::MAX)
    }

    #[test]
    fn self_time_subtracts_nested_same_thread_children() {
        let p = profile(
            &[
                (1, 0, "parent", 1, 0, 100),
                (2, 1, "child", 1, 20, 60),
                (3, 2, "grandchild", 1, 30, 40),
            ],
            &[],
        );
        // parent loses the child's [20,60); the grandchild is not a
        // *direct* child of parent, and its time is already inside child's.
        assert_eq!(self_of(&p, "parent"), 60);
        assert_eq!(self_of(&p, "child"), 30);
        assert_eq!(self_of(&p, "grandchild"), 10);
    }

    #[test]
    fn self_time_with_overlapping_children_counts_the_union_once() {
        let p = profile(
            &[
                (1, 0, "parent", 1, 0, 100),
                (2, 1, "a", 1, 10, 50),
                (3, 1, "b", 1, 40, 80),
            ],
            &[],
        );
        // Union of children = [10, 80) → parent self = 100 - 70.
        assert_eq!(self_of(&p, "parent"), 30);
    }

    #[test]
    fn cross_thread_children_do_not_consume_parent_self_time() {
        let p = profile(
            &[
                (1, 0, "parent", 1, 0, 100),
                (2, 1, "remote_child", 2, 10, 90),
            ],
            &[],
        );
        assert_eq!(self_of(&p, "parent"), 100);
        assert_eq!(self_of(&p, "remote_child"), 80);
        let threads = p.thread_utilization();
        assert_eq!(threads.len(), 2);
        assert_eq!(
            threads[0],
            ThreadUtil {
                tid: 1,
                spans: 1,
                busy_ns: 100
            }
        );
        assert_eq!(
            threads[1],
            ThreadUtil {
                tid: 2,
                spans: 1,
                busy_ns: 80
            }
        );
    }

    #[test]
    fn critical_path_partitions_the_tune_span_exactly() {
        let p = profile(
            &[
                (1, 0, "tune", 1, 0, 1000),
                (2, 1, "probe", 1, 0, 400),
                (3, 2, "expression_error", 1, 100, 300),
                (4, 1, "probe", 1, 400, 1000),
                // Another thread: a descendant by id, but cross-thread —
                // must not appear on the tune thread's critical path.
                (5, 1, "alpha.derive", 2, 350, 700),
            ],
            &[],
        );
        let path = p.critical_path("tune").expect("tune span present");
        assert_eq!(path.total_ns, 1000);
        let sum: u64 = path.entries.iter().map(|e| e.ns).sum();
        assert_eq!(sum, path.total_ns, "entries partition the root exactly");
        let by_name: BTreeMap<&str, u64> = path
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.ns))
            .collect();
        assert_eq!(by_name.get("probe"), Some(&800));
        assert_eq!(by_name.get("expression_error"), Some(&200));
        assert!(
            !by_name.contains_key("alpha.derive"),
            "cross-thread excluded"
        );
    }

    #[test]
    fn worker_utilization_and_imbalance_come_from_task_records() {
        let p = profile(
            &[],
            &[
                (0, 0, 0, 300),
                (1, 1, 0, 100),
                (1, 2, 100, 200),
                (2, 3, 0, 50),
            ],
        );
        let workers = p.worker_utilization();
        assert_eq!(
            workers,
            vec![
                WorkerUtil {
                    worker: 0,
                    tasks: 1,
                    busy_ns: 300
                },
                WorkerUtil {
                    worker: 1,
                    tasks: 2,
                    busy_ns: 200
                },
                WorkerUtil {
                    worker: 2,
                    tasks: 1,
                    busy_ns: 50
                },
            ]
        );
        let ratio = p.worker_imbalance().expect("≥2 workers");
        assert!((ratio - 6.0).abs() < 1e-9, "300/50 = 6x, got {ratio}");
    }

    #[test]
    fn unclosed_spans_extend_to_trace_end() {
        let text = format!(
            "{{\"t\":\"meta\",\"ts\":0,\"schema\":\"{}\"}}\n\
             {{\"t\":\"span_start\",\"ts\":10,\"id\":1,\"tid\":1,\"name\":\"tune\"}}\n\
             {{\"t\":\"event\",\"ts\":500,\"tid\":1,\"level\":\"info\",\"name\":\"probe\"}}\n",
            crate::trace::SCHEMA
        );
        let p = Profile::from_jsonl(&text).unwrap();
        assert_eq!(p.spans.len(), 1);
        assert!(!p.spans[0].closed);
        assert_eq!(p.spans[0].end_ns, 500);
    }

    #[test]
    fn chrome_conversion_keeps_every_span_event_and_task() {
        let text = format!(
            "{{\"t\":\"meta\",\"ts\":0,\"schema\":\"{}\"}}\n\
             {{\"t\":\"span_start\",\"ts\":1000,\"id\":1,\"tid\":1,\"name\":\"tune\",\"f\":{{\"lo\":2}}}}\n\
             {{\"t\":\"span_start\",\"ts\":2000,\"id\":2,\"tid\":1,\"parent\":1,\"name\":\"probe\"}}\n\
             {{\"t\":\"event\",\"ts\":2500,\"tid\":1,\"level\":\"warn\",\"name\":\"tie\",\"f\":{{\"side\":8}}}}\n\
             {{\"t\":\"event\",\"ts\":3000,\"tid\":2,\"level\":\"info\",\"name\":\"par.task\",\"f\":{{\"worker\":3,\"gen\":7,\"task\":11,\"claim_ns\":3000,\"finish_ns\":253000,\"dur_ns\":250000}}}}\n\
             {{\"t\":\"span_end\",\"ts\":4000,\"id\":2,\"tid\":1,\"name\":\"probe\",\"dur_ns\":2000}}\n\
             {{\"t\":\"span_end\",\"ts\":5000,\"id\":1,\"tid\":1,\"name\":\"tune\",\"dur_ns\":4000}}\n\
             {{\"t\":\"report\",\"ts\":6000,\"metrics\":{{}}}}\n",
            crate::trace::SCHEMA
        );
        let records = crate::json::parse_jsonl(&text).unwrap();
        let chrome = to_chrome(&records);
        let Val::Arr(events) = Val::parse(&chrome).expect("one closed JSON array") else {
            panic!("chrome trace is a JSON array");
        };
        let str_of = |e: &Val, k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_string();
        let phases: Vec<String> = events.iter().map(|e| str_of(e, "ph")).collect();
        // The report record is skipped; everything else maps one to one.
        assert_eq!(phases, ["M", "B", "B", "i", "X", "E", "E"]);
        assert_eq!(str_of(&events[0], "name"), "process_name");
        assert!(events.iter().all(|e| str_of(e, "name") != "report"));
        // B/E pair per span on its thread lane, inner closing first.
        let lane_names = |ph: &str| -> Vec<(String, f64)> {
            events
                .iter()
                .filter(|e| str_of(e, "ph") == ph)
                .map(|e| {
                    (
                        str_of(e, "name"),
                        e.get("tid").and_then(|v| v.as_f64()).unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(
            lane_names("B"),
            [("tune".to_string(), 1.0), ("probe".to_string(), 1.0)]
        );
        assert_eq!(
            lane_names("E"),
            [("probe".to_string(), 1.0), ("tune".to_string(), 1.0)]
        );
        // Span id, parent and fields survive in args; timestamps in µs.
        let probe = &events[2];
        assert_eq!(probe.get("ts").and_then(|v| v.as_f64()), Some(2.0));
        let args = probe.get("args").unwrap();
        assert_eq!(args.get("id"), Some(&Val::U64(2)));
        assert_eq!(args.get("parent"), Some(&Val::U64(1)));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("lo")),
            Some(&Val::U64(2))
        );
        // The event keeps its level and fields.
        assert_eq!(str_of(&events[3], "cat"), "warn");
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("side")),
            Some(&Val::U64(8))
        );
        // The task lands on its worker lane in µs.
        let task = &events[4];
        assert_eq!(
            task.get("tid").and_then(|v| v.as_f64()),
            Some((CHROME_WORKER_TID_BASE + 3) as f64)
        );
        assert_eq!(task.get("ts").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(task.get("dur").and_then(|v| v.as_f64()), Some(250.0));
        assert_eq!(
            task.get("args").and_then(|a| a.get("gen")),
            Some(&Val::U64(7))
        );
    }

    #[test]
    fn render_mentions_every_section() {
        let mut p = profile(
            &[(1, 0, "tune", 1, 0, 1000), (2, 1, "probe", 1, 100, 900)],
            &[(0, 0, 100, 500), (1, 1, 100, 480)],
        );
        p.counters = vec![
            ("pmf_memo.lock_waits".to_string(), 7u64),
            ("tune.probes".to_string(), 73u64),
            ("zero.counter".to_string(), 0u64),
        ];
        let text = p.render(10);
        assert!(text.contains("self time"));
        assert!(text.contains("threads:"));
        assert!(text.contains("worker 0"));
        assert!(text.contains("worker 1"));
        assert!(text.contains("counters:"));
        assert!(text.contains(&format!("  {:<40} {:>12}", "pmf_memo.lock_waits", 7)));
        assert!(text.contains("tune.probes"));
        assert!(!text.contains("zero.counter"), "zero counters elided");
        assert!(text.contains("critical path through `tune`"));
    }

    /// Emits a `probe` event the way the session's probe does.
    fn probe(side: u32, expression_error: f64, model_error: f64, total: f64) {
        crate::event!(
            "probe",
            side = side,
            expression_error = expression_error,
            model_error = model_error,
            total = total
        );
    }

    #[test]
    fn decomposition_rows_come_from_probe_events_deduped() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            let _tune = crate::span!("tune");
            probe(4, 2.0, 1.0, 3.0);
            probe(2, 5.0, 0.5, 5.5);
            // Re-probe of side 4 with updated numbers: last write wins.
            probe(4, 2.5, 1.5, 4.0);
            crate::warn_event!("report_test_warn", detail = "x");
        });
        let p = Profile::from_records(&records);
        let rows = p.decomposition();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].side, 2);
        assert_eq!(rows[1].side, 4);
        assert_eq!(rows[1].n, 16);
        assert_eq!(rows[1].total, 4.0);
        assert!(p.warnings().any(|w| w.name == "report_test_warn"));
    }

    #[test]
    fn decomposition_rows_survive_thousands_of_later_events() {
        // The stream keeps every event (the sink, not a bounded ring, is
        // the store), so the tune's probes outlive any number of later
        // events.
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            let _tune = crate::span!("tune");
            probe(8, 1.0, 2.0, 3.0);
            probe(9, 1.5, 2.5, 4.0);
            for epoch in 0..5_000u32 {
                crate::event!("train.epoch", epoch = epoch, loss = 0.5f64);
            }
        });
        let p = Profile::from_records(&records);
        assert_eq!(p.events.len(), 5_002, "every event is kept");
        let sides: Vec<u32> = p.decomposition().iter().map(|r| r.side).collect();
        assert_eq!(sides, [8, 9]);
    }

    #[test]
    fn decomposition_comes_from_the_longest_tune_only() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            {
                let _short = crate::span!("tune");
                probe(2, 9.0, 9.0, 18.0);
                probe(3, 9.0, 9.0, 18.0);
            }
            {
                let _long = crate::span!("tune");
                probe(3, 1.0, 1.0, 2.0);
                probe(4, 1.0, 2.0, 3.0);
                // A probe on another thread is not this tune's row.
                std::thread::scope(|scope| {
                    scope.spawn(|| probe(6, 0.0, 0.0, 0.0));
                });
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            // Nor is a probe outside every tune.
            probe(5, 0.0, 0.0, 0.0);
        });
        let rows: Vec<(u32, u64, f64, f64, f64)> = Profile::from_records(&records)
            .decomposition()
            .iter()
            .map(|r| (r.side, r.n, r.expression_error, r.model_error, r.total))
            .collect();
        assert_eq!(rows, [(3, 9, 1.0, 1.0, 2.0), (4, 16, 1.0, 2.0, 3.0)]);
    }

    #[test]
    fn every_warning_is_listed() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            for i in 0..5_000u32 {
                crate::warn_event!("profile_test_warn", i = i);
                crate::event!("profile_test_info", i = i);
            }
        });
        let p = Profile::from_records(&records);
        assert_eq!(p.warnings().count(), 5_000);
        let text = p.render(DEFAULT_TOP);
        assert_eq!(text.matches("  warn profile_test_warn i=").count(), 5_000);
        assert!(text.contains("  warn profile_test_warn i=4999\n"));
        assert!(
            !text.contains("profile_test_info"),
            "info events are not warnings"
        );
    }

    #[test]
    fn report_record_carries_counters_and_the_render_shows_them() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            {
                let _tune = crate::span!("tune");
                let _s = crate::span!("report_test_span");
                probe(8, 1.0, 2.0, 3.0);
            }
            crate::counter!("report.test.counter").inc();
            crate::trace::write_report();
        });
        let report = records.last().expect("a report record");
        assert_eq!(report.get("t").and_then(|v| v.as_str()), Some("report"));
        let Val::Obj(keys) = report else {
            panic!("report record is an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["t", "ts", "metrics"]);
        let Some(Val::Obj(metrics)) = report.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), 1, "metrics holds counters only");
        let p = Profile::from_records(&records);
        let count = |name: &str| p.counters.iter().find(|(n, _)| n == name).map(|c| c.1);
        assert!(count("report.test.counter") >= Some(1));
        let text = p.render(DEFAULT_TOP);
        assert!(text.contains("report_test_span"));
        assert!(text.contains("report.test.counter"));
        assert!(text.contains("error decomposition through `tune`"));
        assert!(text.contains(&format!(
            "{:>6} {:>8} {:>16.6} {:>16.6} {:>16.6}",
            8, 64, 2.0, 1.0, 3.0
        )));
    }

    #[test]
    fn expression_kernel_counters_render_in_the_counters_section() {
        let _guard = crate::test_guard();
        crate::enable();
        let records = crate::capture(|| {
            crate::counter!("expr.cell_evals").add(100);
            crate::counter!("expr.dedup_hits").add(60);
            crate::counter!("expr.evals").add(40);
            crate::counter!("expr.pmf_memo_hits").add(30);
            crate::trace::write_report();
        });
        let p = Profile::from_records(&records);
        let text = p.render(DEFAULT_TOP);
        let counters = text
            .split("counters:")
            .nth(1)
            .unwrap_or_else(|| panic!("missing counters section:\n{text}"));
        for (name, at_least) in [
            ("expr.cell_evals", 100),
            ("expr.dedup_hits", 60),
            ("expr.evals", 40),
            ("expr.pmf_memo_hits", 30),
        ] {
            let value = p
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|c| c.1)
                .unwrap_or_else(|| panic!("{name} missing from the report record"));
            assert!(value >= at_least, "{name} = {value}");
            assert!(
                counters.contains(&format!("  {name:<40} {value:>12}")),
                "{name} not printed in the counters section:\n{text}"
            );
        }
    }
}
