//! The result of one benchmark run: gate outcomes, metrics, deterministic
//! counts and provenance, printed as JSON lines.

use serde::Value;

/// One metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (instances, requests, output checks).
    pub attempted: u64,
    /// Operations that failed: `ok:false` replies, dropped trials and
    /// failed output checks.
    pub failed: u64,
    /// One message per failed gate.
    pub gate_failures: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Seed-determined counts that must repeat exactly for a given seed.
    pub counts: Vec<(String, u64)>,
    /// Provenance and diagnostic values (sample counts, tail percentiles).
    pub info: Vec<(String, Value)>,
}

impl Report {
    /// Records one output check; a failed one counts as a failed
    /// operation and fails the run.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a deterministic count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Adds a provenance / diagnostic value.
    pub fn info(&mut self, name: impl Into<String>, value: Value) {
        self.info.push((name.into(), value));
    }

    /// True when every gate passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The detail line: provenance, counts and gate failures.
    pub fn detail_json(&self) -> String {
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let failures = self
            .gate_failures
            .iter()
            .map(|f| Value::Str(f.clone()))
            .collect();
        let mut entries = self.info.clone();
        entries.push(("counts".into(), Value::Object(counts)));
        entries.push(("gate_failures".into(), Value::Array(failures)));
        serde_json::to_string(&Value::Object(vec![(
            "e2ebench".into(),
            Value::Object(entries),
        )]))
        .expect("plain JSON value")
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each `{value, unit}`).
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    Value::Float(m.value)
                } else {
                    Value::Null
                };
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), value),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        serde_json::to_string(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
        .expect("plain JSON value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_gate_fails_the_run_and_counts_as_failed() {
        let mut r = Report::default();
        r.gate(true, || unreachable!());
        r.metric("x_ms", 1.5, "ms");
        assert!(r.correct());
        r.gate(false, || "corrupted".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        let line = r.result_json();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(line.contains("\"x_ms\":{\"value\":1.5,\"unit\":\"ms\"}"));
    }

    #[test]
    fn a_non_finite_metric_is_not_correct() {
        let mut r = Report::default();
        r.metric("ratio", f64::INFINITY, "ratio");
        assert!(!r.correct());
        assert!(r.result_json().contains("\"value\":null"));
    }
}
