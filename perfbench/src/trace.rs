//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end and a parent; all spans of
//! one deploy, batch or request share an operation id. Self time is a
//! span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation (deploy, batch or request) the span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `"decode"`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Span recorder. When disabled, [`Tracer::span`] runs its closure and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new operation: later spans carry id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = self.ns(Instant::now());
        r
    }

    /// Record a finished span built from timestamps taken elsewhere;
    /// returns its index for use as a parent.
    pub fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            name,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Per-operation sums of self time, ms, for each span name: one value
    /// per operation that has a span of that name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *per.entry(s.name).or_default().entry(s.op).or_default() += ns;
        }
        per.into_iter()
            .map(|(k, ops)| (k, ops.into_values().map(|ns| ns as f64 / 1e6).collect()))
            .collect()
    }

    /// Per-operation total durations, ms, of spans named `name`.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        let mut ops: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *ops.entry(s.op).or_default() += s.end - s.start;
        }
        ops.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Append another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.push(1, "root", None, at(0), at(100));
        tr.push(1, "a", Some(root), at(10), at(40));
        tr.push(1, "b", Some(root), at(30), at(50));
        let c = tr.push(1, "c", Some(root), at(90), at(120));
        tr.push(1, "d", Some(c), at(95), at(100));
        let ms: Vec<u64> = tr.self_ns().iter().map(|ns| ns / 1_000_000).collect();
        // root: 100 - [10,50) - [90,100) = 50; c: 30 - 5 = 25.
        assert_eq!(ms, vec![50, 30, 20, 25, 5]);
        assert_eq!(tr.self_ms_by_name()["root"], vec![50.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        let v = tr.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.set_op(3);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 3);
    }
}
