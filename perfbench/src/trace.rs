//! In-memory spans around the benchmark's calls into each layer, written
//! out once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span: name, start and end (ns since the tracer was
/// created), and the span that was open when it began.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
}

/// Handle to an open span (ignored by a disabled tracer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span opened inside it and left open).
    pub fn close(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let end = span.end_ns.map_or("null".to_owned(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"parent\":{parent}}}",
                span.name, span.start_ns
            );
        }
        out
    }
}
