//! In-memory span recording for the traced pass.
//!
//! A span is a named interval of one thread with a parent. Spans are kept
//! in memory while the pass runs and written out once at the end, so
//! recording costs a clock read and a short mutex hold per span.
//!
//! Self time is wall-clock time. A span opened by a worker of a parallel
//! region carries a share of `1 / workers`: its duration counts for that
//! share of the region's wall time, and whatever the workers leave idle
//! stays with the region span itself. Estimated spans (layers that run
//! inside `Lab::run`, where no call can be wrapped) carry a duration
//! computed as unit cost × count and the share of the code that runs them.
//! Summed over every span, self time equals the root span's duration.

use crate::out::{quote, Obj};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded (or estimated) span.
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub thread: u64,
    /// Fraction of wall time one second of this span stands for.
    pub share: f64,
    /// Estimated from a unit cost, not timed.
    pub estimate: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The span recorder of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to
    /// parent its own spans on.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        share: f64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().unwrap();
            spans.push(Span {
                name: name.to_string(),
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
                thread: thread_id(),
                share,
                estimate: false,
            });
            spans.len() - 1
        };
        let r = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().unwrap()[id].end_s = end;
        r
    }

    /// Records an estimated child of `parent`: `seconds` of work at the
    /// given wall-time share.
    pub fn estimate(&self, name: &str, parent: usize, seconds: f64, share: f64) {
        let mut spans = self.spans.lock().unwrap();
        let start = spans[parent].start_s;
        let thread = spans[parent].thread;
        spans.push(Span {
            name: name.to_string(),
            start_s: start,
            end_s: start + seconds,
            parent: Some(parent),
            thread,
            share,
            estimate: true,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().unwrap()
    }
}

/// Wall-clock self time of every span: its weighted duration minus its
/// children's weighted durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.duration() * s.share).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration() * s.share;
        }
    }
    own
}

/// The layer a span name belongs to: its first dotted component, except
/// the root and the `lab.*` spans, whose self time no layer covers.
pub fn layer_of(name: &str) -> &str {
    match name.split('.').next().unwrap_or(name) {
        "timed" | "lab" => "unattributed",
        layer => layer,
    }
}

/// One JSON object per line for every span, for offline inspection.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let mut obj = Obj::new();
        obj.int("id", id as u64)
            .raw("name", quote(&s.name))
            .num("start_s", s.start_s)
            .num("end_s", s.end_s)
            .raw(
                "parent",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .int("thread", s.thread)
            .num("share", s.share)
            .bool("estimate", s.estimate);
        out.push_str(&obj.render());
        out.push('\n');
    }
    out
}
