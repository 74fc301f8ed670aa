//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions; the program under test is
//! never instrumented. A span carries its name, start and end, the span
//! that caused it, and the request (one operation: an open, a replayed
//! open, a tick) it belongs to. Spans stay in memory and are written out
//! once, when the run ends.
//!
//! Recording is switched per thread, so the traced run can alternate
//! traced and untraced operations and measure what tracing itself costs.

use qagview_common::json::Json;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// The operation this span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Switch recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.with(|e| e.set(on));
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Start a new request on the calling thread; spans recorded until the
/// next call share its id.
pub fn begin_request() -> u64 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    REQUEST.with(|r| r.set(id));
    id
}

/// Run `f`, returning its value and its wall time in milliseconds. When
/// recording is on for this thread, the same interval is kept as a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    if !enabled() {
        let t = Instant::now();
        let out = f();
        return (out, t.elapsed().as_secs_f64() * 1e3);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        name,
        start_ns: now_ns(start),
        end_ns: now_ns(end),
    };
    SPANS.lock().expect("span buffer lock").push(span);
    (out, (end - start).as_secs_f64() * 1e3)
}

static COUNTS: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());

/// Record a count made at a layer boundary (bytes written, candidates
/// built), when recording is on for this thread.
pub fn count(name: &'static str, value: f64) {
    if enabled() {
        COUNTS
            .lock()
            .expect("count buffer lock")
            .push((name, value));
    }
}

/// Every value recorded under `name` by [`count`].
pub fn counts(name: &str) -> Vec<f64> {
    COUNTS
        .lock()
        .expect("count buffer lock")
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .collect()
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer lock").clone()
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Write the spans as JSON lines to `path`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let line = Json::obj([
            ("id", Json::from(s.id)),
            ("parent", Json::from(s.parent)),
            ("request", Json::from(s.request)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        out.push_str(&line.to_text());
        out.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
