//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a layer's
//! public functions (nothing inside the simulator is instrumented). A span
//! has a name, a start, an end and a parent; times are whole nanoseconds
//! since the recorder was created, so the self-time arithmetic is exact.
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover (the union of the children, so overlapping
//! children are not counted twice).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span identifier returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// A span recorder; a disabled recorder records nothing and never reads
/// the clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`] (spans close innermost
    /// first).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// The recorded spans (all closed once the outermost span is).
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "every span is closed");
        &self.spans
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children overlap each other and spill past their parent: only
        // the covered part of the parent's own interval is subtracted.
        let spans = [
            span("p", 10, 50, None),
            span("x", 5, 30, Some(0)),
            span("y", 20, 40, Some(0)),
            span("z", 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - (20 + 10 + 5));
    }

    #[test]
    fn layer_sum_plus_remainder_is_wall_time() {
        let spans = [
            span("run", 0, 1000, None),
            span("soc.step", 100, 400, Some(0)),
            span("snapshot.restore", 400, 450, Some(0)),
            span("soc.step", 500, 900, Some(0)),
            span("soc.build", 520, 530, Some(3)),
        ];
        let by_name = self_time_by_name(&spans);
        let layers: u64 = by_name
            .iter()
            .filter(|(n, _)| **n != "run")
            .map(|(_, t)| t)
            .sum();
        assert_eq!(by_name["soc.step"], 300 + 390);
        assert_eq!(layers + by_name["run"], 1000);
    }

    #[test]
    fn tracer_records_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.enter("run");
        t.time("leaf", || ());
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(false);
        let id = off.enter("run");
        off.time("leaf", || ());
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
