//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around calls the benchmark makes into a layer's
//! public API (the library crates are not instrumented). Each span keeps
//! its name, start and end (nanoseconds since the tracer's epoch), its
//! parent span and the id of the operation it belongs to. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them out at exit.
//!
//! A disabled tracer runs the same closures without reading the clock, so
//! the untraced replay executes exactly the code the traced replay does.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `routing.pr`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (instance / request) the span belongs to.
    pub op: u64,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Σ (span duration − time covered by its child spans), nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// The span recorder (see the [module docs](self)).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Renames the span that started last: a session operation is classed
    /// by a check made after its span has closed, outside the timing.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ durations of the spans without a parent: the traced total.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time and calls per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        layer_totals(&self.spans)
    }

    /// Writes the spans as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`, `op`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start, s.end, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Aggregates spans into per-layer self time and call counts. A span's self
/// time is its duration minus the durations of its direct children.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.self_ns += (s.end - s.start).saturating_sub(covered);
        t.calls += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 70, Some(0)),
            span("leaf", 55, 60, Some(2)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(
            t["child"],
            LayerTotal {
                self_ns: 45,
                calls: 2
            }
        );
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn nesting_and_ops_are_recorded() {
        let mut tr = Tracer::enabled();
        tr.set_op(7);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 3));
        assert_eq!(v, 3);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 7));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        assert_eq!(tr.root_ns(), s[0].end - s[0].start);
        tr.rename_last("renamed");
        assert_eq!(tr.spans()[1].name, "renamed");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert_eq!(tr.span("x", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }
}
