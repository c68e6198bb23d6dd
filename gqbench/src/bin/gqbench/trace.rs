//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `exec.run` or `replay.route`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; `0` while open.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Query the span belongs to; `0` for set-up and replays.
    pub query: u64,
}

/// A span recorder. When disabled, `begin` returns `None` and records
/// nothing, so untraced queries pay only a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer measuring from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, query: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.0,
            query,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// The root handle: no parent.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `header` and then one JSON object per span to `path`,
    /// creating the parent directory.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        out.flush()
    }
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        let id = off.begin("x", Tracer::root(), 1);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, origin);
        let root = a.begin("query", Tracer::root(), 1);
        let child = a.begin("exec.run", root, 1);
        a.end(child);
        a.end(root);
        let mut b = Tracer::new(true, origin);
        let r = b.begin("query", Tracer::root(), 2);
        let c = b.begin("exec.run", r, 2);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
    }
}
