//! The benchmark's own spans: one per call it makes into a module's
//! public function, kept in memory and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover, so nested calls are not counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span covers, `module.call` style.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or job) id shared by the spans of one request; 0 = none.
    pub req: u64,
}

impl Span {
    /// Length of the span in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. When disabled every call is a no-op, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A log measuring from `epoch`; `enabled = false` records nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Trace {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// ns from the epoch to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its id (`None` when disabled).
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span given in ns since the epoch.
    pub fn add_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.add(name, now, now, parent, req)
    }

    /// Ends an opened span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f`, records it as a span, and returns its result together
    /// with its wall time (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.add(name, start, end, parent, 0);
        (out, end - start)
    }

    /// Appends another log measured from the same epoch; its root spans
    /// become children of `parent`.
    pub fn absorb(&mut self, other: Trace, parent: Option<SpanId>) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per span name: (count, summed self time in ns), sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += own;
    }
    by_name
}

/// The spans as Chrome trace-event JSON (loads in Perfetto): one
/// complete event per span, with its id, parent and request id in
/// `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(32 + spans.len() * 112);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.req
        );
    }
    out.push_str("\n]\n");
    out
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
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50]: 40 ns, not 50.
            span("a", 10, 40, Some(0)),
            span("b", 20, 50, Some(0)),
            // A disjoint child covers [70, 80].
            span("c", 70, 80, Some(0)),
            // A grandchild is charged to "a", not to the root.
            span("a1", 15, 35, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 30 - 20, 30, 10, 20]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", 100, 200, None), span("c", 50, 150, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 100]);
        let spans = vec![span("p", 100, 200, None), span("c", 250, 300, Some(0))];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn by_name_sums_self_time() {
        let spans = vec![
            span("job", 0, 100, None),
            span("step", 0, 30, Some(0)),
            span("step", 30, 60, Some(0)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["job"], (1, 40));
        assert_eq!(by["step"], (2, 60));
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut main = Trace::new(true, epoch);
        let root = main.add_ns("root", 0, 100, None, 0);
        let mut local = Trace::new(true, epoch);
        let outer = local.add_ns("outer", 10, 90, None, 7);
        local.add_ns("inner", 20, 30, outer, 7);
        main.absorb(local, root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].req, 7);

        let mut off = Trace::new(false, epoch);
        assert_eq!(off.add_ns("x", 0, 1, None, 0), None);
        let (v, _) = off.time("y", None, || 3);
        assert_eq!(v, 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let spans = vec![span("a", 0, 1500, None), span("b", 500, 1000, Some(0))];
        let json = to_chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"dur\":1.500"));
    }
}
