//! In-memory spans recorded at the benchmark's own call sites, and the
//! self-time arithmetic the traced run reports.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), an optional parent and the id of the unit (page load, request
//! or crawled page) it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `http2.to_server`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start: u64,
    /// End, ns since the log's epoch (never before `start`).
    pub end: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// The unit this span belongs to.
    pub unit: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// An append-only span log with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose epoch is `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span; an end before the start is clamped to the start.
    /// Returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        unit: u64,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start: s,
            end: e.max(s),
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// All spans in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append every span of `other`, which must share this log's epoch,
    /// re-indexing parents.
    pub fn absorb(&mut self, other: SpanLog) {
        assert_eq!(self.epoch, other.epoch, "merged span logs share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start, s.end, s.unit
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Sum of self times per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Reconcile spans against measured unit latencies: for every unit in
/// `latency_ns`, the self times of its non-root spans must sum to its
/// latency. Returns the largest relative difference and the number of
/// units checked. A root span stands for the whole unit, so its own self
/// time is time that no layer or client span accounts for: a missing
/// span makes the sum fall short by it. Children that overlap each other
/// or leave their parent make the sum exceed the latency.
pub fn reconcile(spans: &[Span], latency_ns: &BTreeMap<u64, u64>) -> (f64, usize) {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some() {
            *sums.entry(s.unit).or_insert(0) += t;
        }
    }
    let mut worst = 0.0f64;
    for (unit, &lat) in latency_ns {
        let sum = sums.get(unit).copied().unwrap_or(0);
        let diff = (sum as f64 - lat as f64).abs() / (lat.max(1) as f64);
        worst = worst.max(diff);
    }
    (worst, latency_ns.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["unit"] + by["a"] + by["b"] + by["c"], 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Union of children inside [0, 100]: [10, 60] + [90, 100] = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn reconcile_accepts_children_that_tile_the_unit() {
        let mut lat = BTreeMap::new();
        lat.insert(0u64, 100u64);
        let tiled = vec![
            span("unit", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 60, 100, Some(0)),
            span("c", 10, 20, Some(1)),
        ];
        assert_eq!(reconcile(&tiled, &lat), (0.0, 1));
    }

    #[test]
    fn reconcile_fails_on_a_missing_child() {
        let mut lat = BTreeMap::new();
        lat.insert(0u64, 100u64);
        // `b` (60..100) was never recorded: 40 ns are the root's own.
        let gap = vec![span("unit", 0, 100, None), span("a", 0, 60, Some(0))];
        assert!((reconcile(&gap, &lat).0 - 0.4).abs() < 1e-12);
        assert!(reconcile(&gap, &lat).0 > 0.01);
        // A root without children accounts for nothing.
        let bare = vec![span("unit", 0, 100, None)];
        assert_eq!(reconcile(&bare, &lat).0, 1.0);
        // A unit with no spans at all.
        assert_eq!(reconcile(&[], &lat).0, 1.0);
    }

    #[test]
    fn reconcile_fails_on_overlap_and_escape() {
        let mut lat = BTreeMap::new();
        lat.insert(0u64, 100u64);
        let overlapping = vec![
            span("unit", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 40, 100, Some(0)),
        ];
        assert!((reconcile(&overlapping, &lat).0 - 0.2).abs() < 1e-12);
        let escaping = vec![
            span("unit", 0, 100, None),
            span("a", 0, 100, Some(0)),
            span("b", 90, 130, Some(1)),
        ];
        assert!((reconcile(&escaping, &lat).0 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.record("x", epoch, epoch, None, 1);
        let mut b = SpanLog::new(epoch);
        let p = b.record("y", epoch, epoch, None, 2);
        b.record("z", epoch, epoch, Some(p), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
