//! Spans recorded by the benchmark around its calls into the program.
//!
//! Each thread records into its own [`Tracer`] (no locking on the hot
//! path); tracers are merged at the end of a run and written out as
//! JSON lines. A span's self time is its duration minus the time its
//! children cover; the self time of a root is the residual the child
//! spans do not explain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Records an already-timed root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent: None,
        });
    }

    /// Appends another tracer's spans, keeping parent links valid.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name call count, total time and self time. Children of one
    /// span run one after another on its thread, so their durations add.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            let d = s.end_us - s.start_us;
            t.calls += 1;
            t.total_us += d;
            t.self_us += (d - c).max(0.0);
        }
        out
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .map_or(f64::NAN, |t| t.total_us / t.calls as f64)
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: usize,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.summary();
        let root = s["root"];
        assert_eq!(root.calls, 1);
        assert!(root.self_us < root.total_us);
        let children = s["a"].total_us + s["b"].total_us;
        assert!((root.total_us - root.self_us - children).abs() < 1.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn merge_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.span("x", |_| ());
        let mut b = Tracer::new(t0);
        b.span("p", |t| t.span("c", |_| ()));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
