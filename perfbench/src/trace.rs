//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span holds a name, a start and an end on one monotonic clock, the
//! span that was open when it began (its parent), an optional request id
//! and the allocations counted while it was open. Spans stay in memory;
//! the per-layer metrics are computed from them when the run ends, and
//! `--spans PATH` writes them out as JSON lines.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug)]
pub struct Span {
    /// The layer call, e.g. a pass name or `serve.decode_request`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span served, for serve layers.
    pub req: Option<u64>,
    /// Allocations counted while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, req, allocs: 0 });
        self.open.push(id);
        // Start the count and the clock only now, so that the bookkeeping
        // above, which may grow `spans`, is not charged to the span.
        self.spans[id].allocs = alloc::count();
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order, a bug in the caller.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::count() - span.allocs;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{req},\"allocs\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.allocs,
                self_ns(&self.spans, i)
            );
        }
        out
    }
}

/// Span `id`'s self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
#[must_use]
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let (mut covered, mut reach) = (0, me.start_ns);
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: None, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("plan", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),
            span("a.leaf", 12, 20, Some(1)),
            span("c", 90, 120, Some(0)),
        ];
        // Children of `plan` cover 10..50 and 90..100 (clipped): 50 ns.
        assert_eq!(self_ns(&spans, 0), 50);
        // `a` loses only its own child, not its sibling's overlap.
        assert_eq!(self_ns(&spans, 1), 12);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut t = Tracer::default();
        let outer = t.enter("outer", Some(7));
        let inner = t.span("inner", Some(7), || 42);
        assert_eq!(inner, 42);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_ns(spans, 0) <= spans[0].ns());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
