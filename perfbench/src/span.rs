//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace's public functions (name, start, end, parent), kept in
//! memory, and written out once the run ends. A layer's figure is its
//! self time: the span's duration minus the part of it that child spans
//! cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `partition.order`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span. `f` gets the recorder back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Self times, in seconds, of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| {
                let s = &self.spans[id];
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start, c.end))
                    .collect();
                self_time((s.start, s.end), &children) as f64 * 1e-9
            })
            .collect()
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// One JSON object per span: `{"id", "name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// The part of `span` (start, end) not covered by any of `children`.
/// Children are clipped to the span and overlaps are counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50), (45, 50)]), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 99)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
    }

    #[test]
    fn tracer_nests_and_reports_self_time() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box((0..10_000u64).sum::<u64>()));
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let outer = t.durations("outer")[0];
        let inner: f64 = t.durations("inner").iter().sum();
        let own = t.self_times("outer")[0];
        assert!((own - (outer - inner)).abs() < 1e-12, "{own} vs {outer} - {inner}");
        assert_eq!(t.self_times("inner"), t.durations("inner"), "leaves own their whole span");
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
