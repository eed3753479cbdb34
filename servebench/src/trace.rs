//! In-memory spans around the benchmark's calls into each crate.
//!
//! Tracing is off unless [`set_enabled`] turned it on, and then a
//! [`span`] guard costs two clock reads and one push. Spans are kept in
//! memory and written out once, when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call it wraps, as `Type::method` or `ladder.<rung>`.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span on the same thread (0 at top level).
    pub parent: u64,
    /// Start, in ns since the first span of the run.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Records a span from its creation to its drop, when tracing is on.
pub struct Guard(Option<(&'static str, u64, u64, Instant)>);

/// Open a span named `name`; it closes when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard(Some((name, id, parent, Instant::now())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((name, id, parent, start)) = self.0.take() {
            let end = Instant::now();
            OPEN.with(|open| open.borrow_mut().retain(|&x| x != id));
            let epoch = *EPOCH.get_or_init(Instant::now);
            let span = Span {
                name,
                id,
                parent,
                start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
            };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Forget the spans recorded so far (bounds memory when a workload
/// repeats a traced phase many times; the last one is kept).
pub fn clear() {
    SPANS.lock().expect("span buffer lock").clear();
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer lock").clone()
}

/// Durations (ns) of the spans whose name starts with `prefix`.
pub fn durations(spans: &[Span], prefix: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.dur_ns)
        .collect()
}

/// Write spans as CSV (`id,parent,name,start_ns,dur_ns`), with each
/// span's self time (duration minus its direct children) as a sixth
/// column.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,dur_ns,self_ns")?;
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.dur_ns,
            s.dur_ns.saturating_sub(children)
        )?;
    }
    out.flush()
}
