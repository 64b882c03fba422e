//! Pieces shared by the workloads: run context, metric emission, set-up
//! timing and memory readings.

use crate::report::Report;
use crate::stats;
use crate::trace::LayerTotal;
use pamr_routing::HeuristicKind;
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Worker threads of the pool.
    pub threads: usize,
}

/// Layers timed by spans, in the order their metrics are printed. Each
/// reports `<layer>.ms` (self time per replay), `<layer>.calls` (spans per
/// replay) and `<layer>.share` (of the traced total).
pub const TIMED_LAYERS: [&str; 17] = [
    "routing.pr",
    "routing.xyi",
    "routing.ig",
    "routing.sg",
    "routing.tb",
    "routing.xy",
    "session.bounded_op",
    "session.escalated_op",
    "session.recovered_op",
    "serve.wire",
    "multipath.fwmp",
    "frontier.budgets",
    "frontier.segments",
    "frontier.pareto",
    "power.eval",
    "stats.add",
    "workload.generate",
];

/// The span name of one heuristic's `route_with` call.
pub fn layer_name(kind: HeuristicKind) -> &'static str {
    match kind {
        HeuristicKind::Xy => "routing.xy",
        HeuristicKind::Sg => "routing.sg",
        HeuristicKind::Ig => "routing.ig",
        HeuristicKind::Tb => "routing.tb",
        HeuristicKind::Xyi => "routing.xyi",
        HeuristicKind::Pr => "routing.pr",
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` once, returning its output and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Set-up timing spread over a run: groups of `per_group` set-ups, each
/// group timed as a whole and taken between the timed operations. The
/// metric is the median over the groups of the mean seconds of one
/// set-up. Grouping keeps a short set-up's timing from resting on single
/// sub-millisecond samples; spreading the groups over the run keeps a
/// slow stretch of the shared host from moving it more than the
/// operations around it.
#[derive(Debug)]
pub struct SetupSampler {
    per_group: usize,
    secs: Vec<f64>,
}

impl SetupSampler {
    /// A sampler timing `per_group` set-ups per group.
    pub fn new(per_group: usize) -> Self {
        SetupSampler {
            per_group: per_group.max(1),
            secs: Vec::new(),
        }
    }

    /// Times one group of set-ups and returns the last one's output.
    pub fn group<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut last = f();
        for _ in 1..self.per_group {
            last = f();
        }
        self.secs
            .push(start.elapsed().as_secs_f64() / self.per_group as f64);
        last
    }

    /// Groups timed so far.
    pub fn groups(&self) -> usize {
        self.secs.len()
    }

    /// Median seconds of one set-up over the groups.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.secs)
    }
}

/// Times the same `n = first.len()` operations pass after pass, where
/// `first` is a pass already timed: `op(pass, i)` runs operation `i` of
/// pass `pass` (2, 3, …) and returns its milliseconds. Passes go on until
/// `seconds` have passed since `start` and at least `min_passes` are
/// complete; the last one stops part-way when the time is up, so a run
/// neither overshoots its budget by most of a pass nor leaves its tail
/// unmeasured. Returns every pass, `first` included, for
/// [`stats::per_op_min`].
pub fn timed_passes(
    first: Vec<f64>,
    start: Instant,
    seconds: f64,
    min_passes: usize,
    mut op: impl FnMut(usize, usize) -> f64,
) -> Vec<Vec<f64>> {
    let n = first.len();
    let mut passes = vec![first];
    let done = |complete: usize| complete >= min_passes && start.elapsed().as_secs_f64() >= seconds;
    while !done(passes.len()) {
        let pass = passes.len() + 1;
        let mut lat = Vec::with_capacity(n);
        for i in 0..n {
            if done(passes.len()) {
                break;
            }
            lat.push(op(pass, i));
        }
        if !lat.is_empty() {
            passes.push(lat);
        }
    }
    passes
}

/// Emits `op_ms_p50` and `op_ms_p90`, refusing (a failed gate) when the
/// percentile rule does not allow them, and records the tail percentile
/// and sample count as provenance.
pub fn latency_metrics(rep: &mut Report, samples_ms: Vec<f64>) {
    let sorted = stats::sorted(samples_ms);
    let n = sorted.len();
    for (name, p) in [("op_ms_p50", 50.0), ("op_ms_p90", 90.0)] {
        let v = stats::percentile(&sorted, p);
        rep.gate(v.is_some(), || {
            format!("{name}: {n} samples leave fewer than ten beyond p{p}")
        });
        rep.metric(name, v.unwrap_or(f64::NAN), "ms");
    }
    rep.info("latency_samples", Value::UInt(n as u64));
    if let Some((p, v)) = stats::tail(&sorted) {
        rep.info(
            "op_ms_tail",
            Value::Object(vec![
                ("percentile".into(), Value::Float(p)),
                ("value".into(), Value::Float(v)),
                ("samples".into(), Value::UInt(n as u64)),
            ]),
        );
    }
}

/// Emits the per-layer metrics of every timed layer: self time and calls
/// per replay, and the share of `total_ns` (the traced total of all
/// replays). Layers a workload does not reach report zeros.
pub fn emit_layers(
    rep: &mut Report,
    totals: &BTreeMap<&'static str, LayerTotal>,
    total_ns: u64,
    replays: u64,
) {
    let replays = replays.max(1) as f64;
    for layer in TIMED_LAYERS {
        let t = totals.get(layer).copied().unwrap_or_default();
        rep.metric(
            format!("{layer}.ms"),
            t.self_ns as f64 / 1e6 / replays,
            "ms",
        );
        rep.metric(format!("{layer}.calls"), t.calls as f64 / replays, "count");
        let share = if total_ns == 0 {
            0.0
        } else {
            t.self_ns as f64 / total_ns as f64
        };
        rep.metric(format!("{layer}.share"), share, "fraction");
    }
}

/// Per-layer values that are ratios or counts rather than span totals.
/// Zero where a workload does not exercise the layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Derived {
    /// Escalated session mutations ÷ mutations.
    pub escalation_share: f64,
    /// Accepted repair flips ÷ mutations.
    pub repair_moves_per_op: f64,
    /// Interner hits ÷ lookups.
    pub hit_ratio: f64,
    /// Endpoint tables built (interner misses).
    pub tables: f64,
    /// Traced single-thread busy time ÷ (threads × untraced pooled wall).
    pub pool_efficiency: f64,
    /// Untraced pooled compute − traced sequential sum, ms per instance.
    pub pool_overhead_ms: f64,
    /// Infeasible `Routing::power` evaluations ÷ evaluations.
    pub infeasible_share: f64,
    /// Traced replay wall ÷ untraced replay wall − 1, same thread count.
    pub trace_overhead: f64,
}

impl Derived {
    /// Emits every derived per-layer metric.
    pub fn emit(&self, rep: &mut Report) {
        rep.metric(
            "session.escalation_share",
            self.escalation_share,
            "fraction",
        );
        rep.metric(
            "session.repair_moves_per_op",
            self.repair_moves_per_op,
            "count",
        );
        rep.metric("precompute.hit_ratio", self.hit_ratio, "fraction");
        rep.metric("precompute.tables", self.tables, "count");
        rep.metric("campaign.pool_efficiency", self.pool_efficiency, "fraction");
        rep.metric("frontier.pool_overhead.ms", self.pool_overhead_ms, "ms");
        rep.metric("power.infeasible_share", self.infeasible_share, "fraction");
        rep.metric("trace.overhead", self.trace_overhead, "ratio");
    }
}

/// Interner hit ratio of `(hits, misses)`.
pub fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The §6.4 pooled inverse-power ratio Σ 1/P ÷ Σ 1/P_XY, where an
/// infeasible routing contributes 0 (`None` power).
#[derive(Debug, Clone, Copy, Default)]
pub struct InvPower {
    sum_inv: f64,
    sum_inv_xy: f64,
}

impl InvPower {
    /// Adds one comparison point.
    pub fn add(&mut self, power: Option<f64>, xy_power: Option<f64>) {
        self.sum_inv += power.map_or(0.0, |p| 1.0 / p);
        self.sum_inv_xy += xy_power.map_or(0.0, |p| 1.0 / p);
    }

    /// The ratio; infinite when XY never was feasible.
    pub fn ratio(&self) -> f64 {
        self.sum_inv / self.sum_inv_xy
    }
}

/// FNV-1a over bytes: a cheap digest of replies and fingerprints.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_passes_complete_the_minimum_then_stop_part_way() {
        let start = Instant::now();
        let passes = timed_passes(vec![1.0; 5], start, 0.0, 3, |_, i| i as f64);
        assert_eq!(passes.len(), 3, "the minimum, no more: the time is up");
        assert!(passes.iter().all(|p| p.len() == 5));
        assert_eq!(passes[2], vec![0.0, 1.0, 2.0, 3.0, 4.0]);

        // The third pass starts inside the 200 ms budget; its second
        // operation spends it, so the pass stops there.
        let start = Instant::now();
        let passes = timed_passes(vec![1.0; 4], start, 0.2, 2, |pass, i| {
            if (pass, i) == (3, 1) {
                std::thread::sleep(Duration::from_millis(300));
            }
            pass as f64
        });
        assert_eq!(passes.len(), 3);
        assert_eq!(passes[1], vec![2.0; 4]);
        assert_eq!(passes[2], vec![3.0; 2]);
    }

    #[test]
    fn setup_sampler_times_groups_and_returns_the_last_output() {
        let mut setup = SetupSampler::new(3);
        let mut calls = 0;
        assert_eq!(
            setup.group(|| {
                calls += 1;
                calls
            }),
            3
        );
        setup.group(|| ());
        assert_eq!(setup.groups(), 2);
        assert!(setup.median_s() >= 0.0);
    }
}
