//! Coarse spans around the benchmark's own calls into the simulator.
//!
//! A [`SpanLog`] records each span individually (name, start, end, parent),
//! holds them in memory and writes them out when the run ends. A layer's
//! self time is its span's duration minus the part its children cover.
//! Per-packet callbacks are far too many to store one by one; those are
//! aggregated by the meters in [`crate::wrappers`].

use crate::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.network.run_until`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory log of nested spans for one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`. Returns its duration in
    /// seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Run `f` inside a span; returns its result and the span's seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let result = f();
        (result, self.exit(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of all closed spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The log as a JSON document: one object per span with its self time,
    /// all sharing `run_id`.
    pub fn to_json(&self, run_id: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj()
                    .with("id", id)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self_ns)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
            })
            .collect::<Vec<_>>();
        Json::obj().with("run_id", run_id).with("spans", spans)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("a", 100, 300, Some(0)),
            span("b", 250, 400, Some(0)),  // overlaps `a` by 50
            span("c", 900, 1200, Some(0)), // runs 200 past its parent
            span("a.inner", 120, 180, Some(1)),
        ];
        let own = self_times_ns(&spans);
        // run: 1000 − (100..400 = 300) − (900..1000 = 100)
        assert_eq!(own, vec![600, 140, 150, 300, 60]);
    }

    #[test]
    fn log_nests_and_totals() {
        let mut log = SpanLog::new();
        let run = log.enter("run");
        for _ in 0..3 {
            log.time("step", || std::hint::black_box(1 + 1));
        }
        log.exit(run);
        assert_eq!(log.count("step"), 3);
        assert!(log.spans()[1..].iter().all(|s| s.parent == Some(run)));
        assert!(log.total_s("run") >= log.total_s("step"));
        let doc = log.to_json("r1");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        let ns = |span: &Json, key| span.get(key).and_then(Json::as_f64).unwrap();
        let steps: f64 = spans[1..]
            .iter()
            .map(|s| ns(s, "end_ns") - ns(s, "start_ns"))
            .sum();
        assert_eq!(
            ns(&spans[0], "self_ns"),
            ns(&spans[0], "end_ns") - ns(&spans[0], "start_ns") - steps
        );
    }
}
