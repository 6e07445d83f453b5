//! The benchmark's own span recorder: it times calls into the program
//! from outside. Every timed call is measured whether or not spans are
//! kept; the traced run additionally keeps one span per call (name,
//! start, end, parent) in memory and writes them out at exit.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `origin` is the process start all span times count from; `keep`
    /// turns span recording on (the traced run).
    pub fn new(origin: Instant, keep: bool) -> Recorder {
        Recorder {
            origin,
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span that stays open until the matching [`Recorder::exit`]
    /// (stages and the probe parent, whose bodies need the recorder).
    pub fn enter(&mut self, name: &'static str) {
        if !self.keep {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.keep {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` as a leaf span and returns its result with the seconds it
    /// took on the host clock.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        if self.keep {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
                end_ns,
                parent: self.open.last().copied(),
            });
        }
        (result, elapsed.as_secs_f64())
    }

    /// Host cost of recording one leaf span, in nanoseconds: the median
    /// of a few batches of empty spans on a scratch recorder.
    pub fn calibrate_span_cost_ns() -> f64 {
        const PER_BATCH: usize = 10_000;
        let mut batches = Vec::new();
        for _ in 0..5 {
            let mut kept = Recorder::new(Instant::now(), true);
            let mut bare = Recorder::new(Instant::now(), false);
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(kept.time("calibrate", || ()));
            }
            let with = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(bare.time("calibrate", || ()));
            }
            let without = t.elapsed().as_nanos() as f64;
            batches.push((with - without).max(0.0) / PER_BATCH as f64);
        }
        crate::stats::median(&batches)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: a child cannot cover time outside it.
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, in first-appearance order:
/// `(name, calls, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    rows
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, microsecond timestamps, the span's id,
/// parent id and workload in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let args = Json::obj()
                .with("id", id)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("workload", workload);
            Json::obj()
                .with("name", s.name)
                .with("cat", s.name.split('.').next().unwrap_or(s.name))
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.duration_ns() as f64 / 1e3)
                .with("pid", 1usize)
                .with("tid", 1usize)
                .with("args", args)
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", events)
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
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("stage", 0, 100, None),    // children cover 10..40 and 50..70
            span("call", 10, 40, Some(0)),  // its own child covers 15..25
            span("inner", 15, 25, Some(1)), // leaf
            span("call", 50, 70, Some(0)),  // sibling leaf
            span("other", 100, 130, None),  // second root
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),  // overlaps a on 40..60
            span("c", 90, 120, Some(0)), // overhangs the parent's end
        ];
        // covered: 10..80 (70) + 90..100 (10)
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_leaf_spans_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.enter("stage");
        let (x, secs) = rec.time("call", || 7);
        rec.time("call", || ());
        rec.exit();
        assert_eq!(x, 7);
        assert!(secs >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let rows = by_name(spans);
        assert_eq!(rows[1].0, "call");
        assert_eq!(rows[1].1, 2);
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        rec.enter("stage");
        let ((), secs) = rec.time("call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit();
        assert!(secs >= 0.002);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("setup", 0, 2_000, None),
            span("datasets.load", 500, 1_500, Some(0)),
        ];
        let trace = chrome_trace(&spans, "rdt_gat_dense");
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("datasets"));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            args.get("workload").and_then(Json::as_str),
            Some("rdt_gat_dense")
        );
    }
}
