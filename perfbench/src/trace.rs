//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer; nothing inside the repository's crates is instrumented. Every span
//! carries its name (the layer prefix), start, end, parent and request id,
//! and all of them are written out once the measurement has ended.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends, so children recorded in
    /// between can name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(name, start, self.now_ns(), parent, req);
        out
    }

    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (start, end) in kids {
                let (start, end) = (start.max(span.start_ns), end.min(span.end_ns));
                if end <= start {
                    continue;
                }
                run = match run {
                    Some((a, b)) if start <= b => Some((a, b.max(end))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, total nanoseconds and self nanoseconds.
#[must_use]
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += own;
    }
    out
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            span.name, span.start_ns, span.end_ns, span.req
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),  // overlaps a: union 10..40
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("d", 12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 18, 20, 30, 2]);
        let summary = summarize(&spans);
        assert_eq!(summary["bench.run"], (1, 100, 60));
        assert_eq!(summary["a"], (1, 20, 18));
    }

    #[test]
    fn self_time_ignores_children_outside_the_parent() {
        let spans = vec![span("p", 50, 60, None), span("k", 0, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![10, 40]);
    }

    #[test]
    fn open_close_and_time_nest() {
        let tracer = Tracer::new(Instant::now());
        let root = tracer.open("bench.run", None, 0);
        let value = tracer.time("child", Some(root), 7, || 42);
        tracer.close(root);
        assert_eq!(value, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
