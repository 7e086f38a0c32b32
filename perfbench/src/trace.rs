//! In-memory spans around the calls the benchmark makes into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the request it belongs to. Spans nest per thread through a
//! stack; a disabled tracer records nothing. A layer's *self time* is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cache.probe`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (or run) this span serves.
    pub req: u64,
}

/// A span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if self.enabled {
            self.begin_at(name, req, Instant::now());
        }
    }

    /// Opens a span that started at `start`.
    pub fn begin_at(&mut self, name: &'static str, req: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = self.offset(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span now.
    pub fn end(&mut self) {
        if self.enabled {
            self.end_at(Instant::now());
        }
    }

    /// Closes the innermost open span at `end`.
    pub fn end_at(&mut self, end: Instant) {
        if !self.enabled {
            return;
        }
        let end_ns = self.offset(end);
        if let Some(idx) = self.stack.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Records a closed span `[start, end]` under the innermost open
    /// span without opening it.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.begin_at(name, req, start);
        self.end_at(end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Per-name `(calls, total ns, self ns)`, where self time is each
    /// span minus its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(children);
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out)
    }

    /// Renders the per-layer self-time table, heaviest self time first.
    pub fn self_time_table(&self) -> String {
        let rows = self.self_times();
        let total_self: u64 = rows.values().map(|r| r.2).sum::<u64>().max(1);
        let mut sorted: Vec<_> = rows.into_iter().collect();
        sorted.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "calls", "total_ms", "self_ms", "self_%"
        );
        for (name, (calls, total, own)) in sorted {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                calls,
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 * 100.0 / total_self as f64
            );
        }
        out
    }
}

/// Writes a traced run's spans and self-time table under
/// `.bench_work/trace/`; returns the two paths.
pub fn write_outputs(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    header: &str,
) -> std::io::Result<Vec<PathBuf>> {
    let dir = Path::new(".bench_work").join("trace");
    std::fs::create_dir_all(&dir)?;
    let spans = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    tracer.write_spans(&spans)?;
    let table = dir.join(format!("{workload}-seed{seed}.selftime.txt"));
    std::fs::write(&table, format!("{header}\n\n{}", tracer.self_time_table()))?;
    Ok(vec![spans, table])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(true, t0);
        t.begin_at("outer", 1, at(0));
        t.record("inner", 1, at(2), at(5));
        t.record("inner", 1, at(6), at(7));
        t.end_at(at(10));
        let rows = t.self_times();
        assert_eq!(rows["outer"], (1, 10_000_000, 6_000_000));
        assert_eq!(rows["inner"], (2, 4_000_000, 4_000_000));

        let mut off = Tracer::new(false, t0);
        off.record("x", 0, at(0), at(1));
        assert!(off.self_times().is_empty());
    }
}
