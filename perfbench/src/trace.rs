//! Spans recorded by the traced run around every call the harness makes
//! into a layer's public API. Nothing inside the program is instrumented:
//! a span starts just before the harness calls into a crate and ends when
//! the call returns.
//!
//! Spans stay in memory until the run ends; [`write_jsonl`] then writes
//! them out. A span's self time is its duration minus the durations of
//! its child spans, which always nest inside it on the same thread.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (1-based, allocation order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `serve.envelope_parse`.
    pub name: &'static str,
    /// Request (or repetition) the span belongs to.
    pub req: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Span {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

/// Opens a span named `name` for request `req`, nested under whatever
/// span this thread has open. A no-op when tracing is off.
pub fn span(name: &'static str, req: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, req, now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(SpanRecord {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
            });
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<SpanRecord> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Self time (ns) of every span, keyed by span name, in completion order.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.duration_ns();
        }
    }
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        by_name.entry(s.name).or_default().push(own as f64);
    }
    by_name
}

/// Writes every span as one JSON object per line.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = |id, parent, name, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            rec(2, Some(1), "child", 10, 40),
            rec(3, Some(1), "child", 50, 60),
            rec(1, None, "parent", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parent"], vec![60.0]);
        assert_eq!(t["child"], vec![30.0, 10.0]);
    }
}
