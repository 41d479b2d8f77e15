//! Benchmark-side spans around the calls into each layer.
//!
//! Spans live in memory while the run measures and are written out once it
//! ends, as Chrome trace-event JSON (`chrome://tracing`, Perfetto). Every
//! span carries the id of the operation it belongs to and its parent span,
//! so a layer's self time is its duration minus the time its children cover.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub op: u64,
    pub parent: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Parent id of a root span.
pub const ROOT: usize = usize::MAX;

/// Spans written to the span file at most; every span still counts in the
/// per-layer numbers.
const MAX_WRITTEN: usize = 50_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::end`] and for children.
    pub fn begin(&mut self, op: u64, parent: usize, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Over all spans named `name`: (Σ self time, Σ duration) in ns, where
    /// self time is the part of a span its children do not cover.
    pub fn self_and_total_ns(&self, name: &str) -> (u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0), |(own, total), (i, s)| {
                let dur = s.end_ns - s.start_ns;
                (own + dur.saturating_sub(child_ns[i]), total + dur)
            })
    }

    /// Write the spans (the first [`MAX_WRITTEN`]) as Chrome trace events.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"spans_total\":{},\"spans_written\":{},\"traceEvents\":[",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN)
        )?;
        for (i, s) in self.spans.iter().take(MAX_WRITTEN).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin(1, ROOT, "op");
        let a = t.begin(1, root, "a");
        t.end(a);
        let b = t.begin(1, root, "b");
        t.end(b);
        t.end(root);
        // Rewrite the clock so the arithmetic is exact.
        let set = |t: &mut Tracer, i: usize, s: u64, e: u64| {
            t.spans[i].start_ns = s;
            t.spans[i].end_ns = e;
        };
        set(&mut t, root, 0, 100);
        set(&mut t, a, 10, 40);
        set(&mut t, b, 50, 90);
        assert_eq!(t.self_and_total_ns("op"), (30, 100));
        assert_eq!(t.self_and_total_ns("a"), (30, 30));
        assert_eq!(t.durations_us("b"), vec![0.04]);
    }

    #[test]
    fn span_file_is_chrome_trace_json() {
        let mut t = Tracer::new();
        let root = t.begin(7, ROOT, "op");
        let c = t.begin(7, root, "child");
        t.end(c);
        t.end(root);
        let path = std::env::temp_dir().join(format!("perfbench-span-{}.json", std::process::id()));
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"spans_total\":2,\"spans_written\":2,\"traceEvents\":[{"));
        assert!(text.contains("\"name\":\"child\""));
        assert!(text.contains("\"args\":{\"op\":7,\"id\":1,\"parent\":0}"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
