//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (spans inside the
//! engine are a later change). One client runs one op at a time, so the
//! children of a span never overlap and a layer's self time is its span
//! minus the sum of its children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Count and summed self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index for [`Tracer::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { op, name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn child<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(op, name, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write at most `limit` spans, one JSON array per line after a header
    /// naming the columns and the number recorded.
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"columns\": [\"op\", \"name\", \"start_ns\", \"end_ns\", \"parent\"], \
             \"recorded\": {}, \"written\": {}, \"spans\": [",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            writeln!(w, "{sep}[{}, \"{}\", {}, {}, {parent}]", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time per span name: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.spans += 1;
        layer.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { op: 0, name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("frontend", 5, 25, Some(0)),
            span("exec", 30, 90, Some(0)),
            span("op", 100, 150, None),
            span("exec", 110, 150, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], LayerTime { spans: 2, self_ns: (100 - 20 - 60) + (50 - 40) });
        assert_eq!(t["frontend"], LayerTime { spans: 1, self_ns: 20 });
        assert_eq!(t["exec"], LayerTime { spans: 2, self_ns: 100 });
        let total: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 150, "self times partition the root spans");
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut tr = Tracer::default();
        let root = tr.open(7, "op", None);
        let x = tr.child(7, "exec", root, || 42);
        tr.close(root);
        assert_eq!(x, 42);
        let [op, exec] = tr.spans() else { panic!("two spans") };
        assert_eq!((op.op, exec.parent), (7, Some(0)));
        assert!(op.start_ns <= exec.start_ns && exec.end_ns <= op.end_ns);
    }
}
