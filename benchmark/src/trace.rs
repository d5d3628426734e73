//! Spans recorded from outside the program, around each call into a layer.
//!
//! Nothing under `crates/` is instrumented: the traced run drives the same
//! inputs through the benchmark's own mirror of the serve loop
//! (`mirror.rs`) and times every call into a layer's public function.
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// The arrival (or batch call) this span belongs to.
    pub arrival_id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for the one thread a traced run works on.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    arrival_id: u64,
}

/// Busy time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Self time: the spans' durations minus their children's, so self
    /// times add up to exactly the roots that contain them.
    pub self_ns: u64,
    /// The spans' own durations, children included.
    pub total_ns: u64,
    pub calls: u64,
}

impl Layer {
    pub fn secs(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            arrival_id: 0,
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans entered from now on belong to arrival `id`.
    pub fn set_arrival(&mut self, id: u64) {
        self.arrival_id = id;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            arrival_id: self.arrival_id,
        });
        self.open.push(idx);
        // Stamp last, so the recorder's own work lands in the parent.
        self.spans[idx].start_ns = self.now_ns();
    }

    /// Close the innermost open span; returns its duration.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = end;
        self.spans[idx].dur_ns()
    }

    /// Time one call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time and call count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        assert!(self.open.is_empty(), "span left open");
        // A span's children run one after another inside it.
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let own = out.entry(s.name).or_default();
            own.calls += 1;
            own.total_ns += s.dur_ns();
            own.self_ns += s.dur_ns() - covered;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            write!(
                w,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            writeln!(w, ",\"arrival_id\":{}}}", s.arrival_id)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut tr = Tracer::new();
        tr.enter("root");
        tr.enter("parent");
        tr.span("probe", || ());
        tr.span("probe", || ());
        tr.exit();
        tr.exit();
        // Rewrite the stamps so the arithmetic is exact: root 0..100,
        // parent 10..90 with two probes 20..50 and 50..80.
        for (span, (start, end)) in
            tr.spans
                .iter_mut()
                .zip([(0, 100), (10, 90), (20, 50), (50, 80)])
        {
            span.start_ns = start;
            span.end_ns = end;
        }
        let l = tr.layers();
        let layer = |self_ns, total_ns, calls| Layer {
            self_ns,
            total_ns,
            calls,
        };
        assert_eq!(l["probe"], layer(60, 60, 2));
        assert_eq!(l["parent"], layer(20, 80, 1));
        assert_eq!(l["root"], layer(20, 100, 1));
        let total: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root");

        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with(
            "{\"name\":\"root\",\"start\":0,\"end\":100,\"parent\":null,\"arrival_id\":0}"
        ));
    }
}
