//! Bench-side spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions (never inside the program), kept in memory,
//! and written once when the run ends. A disabled tracer records nothing
//! and reads no clock, which is how the end-to-end runs stay untraced.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u32,
}

pub struct Tracer {
    on: Cell<bool>,
    run: Cell<u32>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let t = &self.tracer;
        t.spans.borrow_mut()[self.index].end = t.epoch.elapsed().as_secs_f64();
        t.open.borrow_mut().pop();
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: Cell::new(false),
            run: Cell::new(0),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Starts a new run id; spans opened from now on carry it.
    pub fn next_run(&self) -> u32 {
        self.run.set(self.run.get() + 1);
        self.run.get()
    }

    /// Opens a span under the innermost open one; `None` when tracing is off.
    pub fn span(&self, name: &'static str) -> Option<Guard<'_>> {
        if !self.on.get() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.borrow().last().copied(),
            run: self.run.get(),
        });
        self.open.borrow_mut().push(index);
        Some(Guard {
            tracer: self,
            index,
        })
    }

    /// Summed duration of the closed spans called `name` in run `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start, s.end, s.run
            );
        }
        out
    }
}
