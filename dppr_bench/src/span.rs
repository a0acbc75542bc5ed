//! In-memory spans recorded by the bench around each call into a layer.
//!
//! The traced run re-assembles a pipeline from public calls and wraps
//! each call in a span: name, start, end, the span that caused it, and
//! the slide or request number all spans of one unit of work share.
//! Spans stay in memory until the run ends and are then written as
//! NDJSON. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `core.push`.
    pub name: &'static str,
    /// Slide or request number shared by all spans of one unit of work.
    pub trace: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 until ended.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one traced repetition.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer; `capacity` spans are preallocated so recording
    /// never reallocates inside a timed section of the expected size.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (a later repetition), shifting its
    /// span ids and trace numbers so they stay unique.
    pub fn absorb(&mut self, other: Tracer, trace_offset: u64) {
        let base = self.spans.len() as SpanId;
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            trace: s.trace + trace_offset,
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Self time of every span in nanoseconds, index-aligned with
    /// [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per unit of work, the summed self time of the spans called `name`
    /// (nanoseconds), ordered by trace number.
    pub fn self_totals_by_trace(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut by_trace: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *by_trace.entry(s.trace).or_default() += self_ns;
            }
        }
        by_trace.into_values().map(|ns| ns as f64).collect()
    }

    /// Durations of the spans called `name` (nanoseconds), in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes the spans as NDJSON, one object per line; `unit` names the
    /// shared identifier (`slide` or `request`).
    pub fn write_ndjson(&self, path: &Path, unit: &str) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"{unit}\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per span: duration minus the union of the children's
/// intervals, clipped to the parent's own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns.max(cursor));
                let b = b.clamp(a, s.end_ns.max(a));
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            trace: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(None, 0, 100),    // root
            span(Some(0), 10, 30), // child a
            span(Some(0), 40, 90), // child b
            span(Some(2), 50, 60), // grandchild: only b's self shrinks
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80), // overlaps the first child by 20
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(None, 50, 100),
            span(Some(0), 0, 60),
            span(Some(0), 90, 200),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn totals_group_by_trace() {
        let mut t = Tracer::with_capacity(8);
        for trace in 0..3u64 {
            let root = t.begin("slide", trace, None);
            let a = t.begin("core.push", trace, Some(root));
            t.end(a);
            let b = t.begin("core.push", trace, Some(root));
            t.end(b);
            t.end(root);
        }
        assert_eq!(t.self_totals_by_trace("core.push").len(), 3);
        assert_eq!(t.durations("slide").len(), 3);
        assert_eq!(t.durations("core.push").len(), 6);
    }

    #[test]
    fn absorb_keeps_ids_and_traces_unique() {
        let mut a = Tracer::with_capacity(4);
        let r = a.begin("slide", 0, None);
        a.end(r);
        let mut b = Tracer::with_capacity(4);
        let r = b.begin("slide", 0, None);
        let c = b.begin("core.push", 0, Some(r));
        b.end(c);
        b.end(r);
        a.absorb(b, 1000);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[1].trace, 1000);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
