//! In-memory spans around the benchmark's own calls into each layer.
//! Spans are aggregated into the per-layer metrics and written out as
//! JSON lines when the run ends; nothing is written while measuring.

use std::io::Write as _;
use std::time::Instant;

/// Marks "no parent" / "no request" in a [`Span`].
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began, or [`NONE`].
    pub parent: u32,
    /// Index of the request (or event) this span served, or [`NONE`];
    /// spans of one request share it.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            open: Vec::new(),
        }
    }

    /// Opens a span; the clock is read last so bookkeeping stays outside
    /// the measured interval.
    pub fn begin(&mut self, name: &'static str, req: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(id);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Renames a span once its outcome is known (admitted or refused).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, NONE);
        let out = f();
        (out, self.end(id))
    }

    /// Count and total duration (ns) of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Mean duration (ns) of the spans called `name`; 0 when there are none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.req),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        let (v, _) = t.span("inner", || 42);
        let (_, _) = t.span("inner", || 43);
        t.end(outer);
        assert_eq!(v, 42);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total("inner").0, 2);
        assert_eq!(t.spans[1].parent, outer);
        assert_eq!(t.spans[0].parent, NONE);
        assert_eq!(t.spans[0].req, 7);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert_eq!(t.mean_ns("absent"), 0.0);
    }
}
