//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark itself around each call it makes
//! into a layer's public API (plan start/progress/complete, engine
//! passes, codec kernels, wire framing, oracle checks); nothing inside
//! the library is instrumented. A disabled tracer costs one branch per
//! call site and records nothing, which is how the untraced run is
//! measured.

use std::time::Instant;

/// One closed span. `parent` is the id of the enclosing span (0 = none);
/// `op` is the operation index the span belongs to; spans of one
/// operation share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub rank: u16,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Call outcome where the layer reports one: 1 = returned Pending.
    pub pending: bool,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    rank: u16,
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

/// An open span, closed by [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// Id of this span, to pass as the parent of its children.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Tracer {
    /// A tracer for `rank`; `on = false` records nothing. Ids are
    /// `rank << 24 | seq`, unique across the ranks of one run.
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Self {
        Tracer {
            on,
            rank: rank as u16,
            epoch,
            next_id: ((rank as u32) << 24) + 1,
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
        }
    }

    /// Open a span named `name` under `parent` for operation `op`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                op,
                name,
                start: None,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            op,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Close `open`; `pending` records whether the traced call returned
    /// `Poll::Pending`.
    #[inline]
    pub fn end(&mut self, open: Open, pending: bool) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            rank: self.rank,
            name: open.name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            pending,
        });
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, op);
        let r = f();
        self.end(open, false);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// Write `spans` as a JSON document: the run's stamp plus one object per
/// span, sorted by start time.
pub fn write_span_file(
    path: &std::path::Path,
    stamp: &str,
    spans: &mut [Span],
) -> std::io::Result<()> {
    use std::io::Write;
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"stamp\": {stamp},")?;
    writeln!(w, "\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"rank\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \"pending\": {}}}{sep}",
            s.id,
            s.parent,
            s.op,
            s.rank,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.pending
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let o = t.begin("x", 0, 0);
        t.end(o, false);
        assert_eq!(t.span("y", 0, 0, || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_by_parent_id() {
        let mut t = Tracer::new(true, 3, Instant::now());
        let outer = t.begin("op", 0, 5);
        t.span("inner", outer.id(), 5, || ());
        t.end(outer, true);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].rank, 3);
        assert!(spans[1].pending);
        assert_eq!(spans[1].id >> 24, 3);
    }
}
