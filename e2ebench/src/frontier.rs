//! The `frontier` workload: `FrontierReport::compute` (the `pamr frontier`
//! sweep, segments fanned out over the pool) over a seeded series of 8×8
//! instances with 80 communications of weight U[100, 800], 16 segments and
//! split 2. One operation is one instance.
//!
//! The `pamr frontier --mesh` default weights U[100, 2500] are not used:
//! at 80 communications every Pareto set is empty.

use crate::common::{self, layer_name, Ctx, Derived, InvPower};
use crate::report::Report;
use crate::trace::Tracer;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::frontier::{pareto_filter, Candidate};
use pamr_routing::{
    frontier_points, Best, CommSet, FrontierPoint, FrontierProblem, FwMp, Heuristic, HeuristicKind,
    MeshPrecompute, RouteScratch,
};
use pamr_sim::FrontierReport;
use pamr_workload::UniformWorkload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

/// Communications per instance.
const COMMS: usize = 80;
/// Weight range, Mb/s.
const W_MIN: f64 = 100.0;
const W_MAX: f64 = 800.0;
/// ε-constraint segments.
const SEGMENTS: usize = 16;
/// Path bound of the FW-MP candidate.
const SPLIT: usize = 2;
/// Instances in the series: the p90 of their per-instance latencies needs
/// 100, and instance cost varies by about a third, so a long series also
/// keeps the per-seed mean steady.
const SERIES: usize = 100;
/// Set-up timing: series generations per timed group, and one group
/// after every this many instances of the later passes.
const SETUP_PER_GROUP: usize = 40;
const SETUP_EVERY: usize = 5;
/// Fewest complete timed passes over the series (each instance's latency
/// is its minimum over them and over a last pass cut off when the time is
/// up).
const MIN_PASSES: usize = 2;

/// The seeded series of instances.
fn instances(mesh: &Mesh, seed: u64) -> Vec<CommSet> {
    let w = UniformWorkload::new(COMMS, W_MIN, W_MAX);
    (0..SERIES as u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
            w.generate(mesh, &mut rng)
        })
        .collect()
}

fn problem<'a>(cs: &'a CommSet, model: &'a PowerModel) -> FrontierProblem<'a> {
    FrontierProblem {
        cs,
        model,
        segments: SEGMENTS,
        split: SPLIT,
    }
}

/// Exact digest of a Pareto set (floats by their bits).
fn digest(points: &[FrontierPoint]) -> u64 {
    points.iter().fold(common::FNV_START, |h, p| {
        let h = common::fnv1a(h, &p.power.to_bits().to_le_bytes());
        let h = common::fnv1a(h, &p.latency.to_bits().to_le_bytes());
        common::fnv1a(h, p.label.as_bytes())
    })
}

/// Gate: the report passes its own check and its Pareto set equals the
/// sequential one.
fn gate_instance(
    rep: &mut Report,
    i: usize,
    report: &FrontierReport,
    sequential: &[FrontierPoint],
) {
    let checked = report.check();
    rep.gate(checked.is_ok(), || format!("instance {i}: {checked:?}"));
    rep.gate(report.pareto == sequential, || {
        format!("instance {i}: pooled Pareto set differs from frontier_points")
    });
}

/// The sequential frontier of one instance from benchmark code, with a
/// span around every call into a layer: each policy's `route_with`,
/// `FwMp::route_with`, `segment_budgets`, each `solve_segment` and
/// `pareto_filter`. Same steps as `frontier_points`.
fn replay_one(
    tr: &mut Tracer,
    cs: &CommSet,
    model: &PowerModel,
    scratch: &mut RouteScratch,
) -> Vec<FrontierPoint> {
    let prob = problem(cs, model);
    let mut candidates: Vec<Candidate> = HeuristicKind::ALL
        .iter()
        .map(|&kind| Candidate {
            label: kind.name().to_string(),
            routing: tr.span(layer_name(kind), |_| kind.route_with(cs, model, scratch)),
        })
        .collect();
    candidates.push(Candidate {
        label: format!("FW-MP(s={SPLIT})"),
        routing: tr.span("multipath.fwmp", |_| {
            FwMp::new(SPLIT).route_with(cs, model, scratch)
        }),
    });
    let segments = tr.span("frontier.budgets", |_| prob.segment_budgets(&candidates));
    let mut all = Vec::new();
    for seg in segments {
        all.extend(tr.span("frontier.segments", |_| {
            prob.solve_segment(&candidates, seg)
        }));
    }
    tr.span("frontier.pareto", |_| pareto_filter(all))
}

/// Replays the whole series on one thread; returns the Pareto digests and
/// the precompute the replay's scratch used.
fn replay(
    tr: &mut Tracer,
    mesh: &Mesh,
    series: &[CommSet],
    model: &PowerModel,
) -> (Vec<u64>, Arc<MeshPrecompute>) {
    let pre = Arc::new(MeshPrecompute::new(*mesh));
    let mut scratch = RouteScratch::new();
    scratch.attach_precompute(Arc::clone(&pre));
    let digests = series
        .iter()
        .enumerate()
        .map(|(i, cs)| {
            tr.set_op(i as u64);
            let pts = tr.span("frontier.instance", |tr| {
                replay_one(tr, cs, model, &mut scratch)
            });
            digest(&pts)
        })
        .collect();
    (digests, pre)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, rep: &mut Report, tracer: &mut Tracer) {
    let mesh = Mesh::new(8, 8);
    let model = pamr_sim::paper_model();
    let mut setup = common::SetupSampler::new(SETUP_PER_GROUP);
    let series = setup.group(|| instances(&mesh, ctx.seed));
    let n = series.len() as u64;

    // The first pass is timed like the others and checked before any
    // number counts: every report passes its own check and the pooled
    // Pareto set equals the sequential `frontier_points`.
    let start = Instant::now();
    let mut lat = Vec::new();
    let mut expect = Vec::with_capacity(series.len());
    let mut inv = InvPower::default();
    let (mut nonempty, mut points) = (0u64, 0u64);
    for (i, cs) in series.iter().enumerate() {
        let (report, t) = common::timed(|| FrontierReport::compute(cs, &model, SEGMENTS, SPLIT));
        lat.push(t);
        gate_instance(rep, i, &report, &frontier_points(&problem(cs, &model)));
        let min_power = report.pareto.iter().map(|p| p.power).reduce(f64::min);
        inv.add(min_power, Best::default().route(cs, &model).power);
        nonempty += u64::from(!report.pareto.is_empty());
        points += report.pareto.len() as u64;
        expect.push(digest(&report.pareto));
    }
    rep.attempted += n;
    rep.count("instances", n);
    rep.count("segments", SEGMENTS as u64);
    rep.count("nonempty_pareto_sets", nonempty);
    rep.count("pareto_points", points);
    rep.count(
        "pareto_digest",
        expect
            .iter()
            .fold(common::FNV_START, |h, d| common::fnv1a(h, &d.to_le_bytes())),
    );

    if ctx.trace {
        run_traced(ctx, rep, tracer, &mesh, &series, &model, &expect);
        return;
    }

    // Set-up groups are timed between instances, across the whole run.
    let per_pass = common::timed_passes(lat, start, ctx.seconds, MIN_PASSES, |pass, i| {
        if i % SETUP_EVERY == 0 {
            setup.group(|| instances(&mesh, ctx.seed));
        }
        let cs = &series[i];
        let (report, t) = common::timed(|| FrontierReport::compute(cs, &model, SEGMENTS, SPLIT));
        rep.gate(digest(&report.pareto) == expect[i], || {
            format!("pass {pass}, instance {i}: Pareto set differs from the checked pass")
        });
        t
    });
    rep.info("passes", Value::UInt(per_pass.len() as u64));
    rep.info("setup_groups", Value::UInt(setup.groups() as u64));
    rep.metric("setup_s", setup.median_s(), "s");
    let lat = crate::stats::per_op_min(&per_pass);
    let busy_s = lat.iter().sum::<f64>() / 1e3;
    rep.metric("ops_per_s", lat.len() as f64 / busy_s, "1/s");
    common::latency_metrics(rep, lat);
    rep.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    rep.metric("inv_power_ratio", inv.ratio(), "ratio");
    rep.metric("feasible_share", nonempty as f64 / n as f64, "fraction");
}

/// The traced pass: an untraced pooled pass, an untraced and a traced
/// sequential replay, repeated until the budget is spent.
fn run_traced(
    ctx: &Ctx,
    rep: &mut Report,
    tracer: &mut Tracer,
    mesh: &Mesh,
    series: &[CommSet],
    model: &PowerModel,
    expect: &[u64],
) {
    let n = series.len() as u64;
    let mut pooled_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut cache;
    let start = Instant::now();
    loop {
        let (digests, t) = common::timed(|| {
            series
                .iter()
                .map(|cs| digest(&FrontierReport::compute(cs, model, SEGMENTS, SPLIT).pareto))
                .collect::<Vec<_>>()
        });
        pooled_ms.push(t);
        rep.gate(digests == expect, || {
            "pooled pass differs from the checked pass".into()
        });
        let ((digests, _), t) =
            common::timed(|| replay(&mut Tracer::disabled(), mesh, series, model));
        untraced_ms.push(t);
        rep.gate(digests == expect, || {
            "untraced replay differs from the checked pass".into()
        });
        let ((digests, pre), t) = common::timed(|| replay(tracer, mesh, series, model));
        traced_ms.push(t);
        rep.gate(digests == expect, || {
            "traced replay differs from the checked pass".into()
        });
        cache = pre.cache_stats();
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let replays = traced_ms.len() as u64;
    let totals = tracer.totals();
    let total_ns = tracer.root_ns();
    common::emit_layers(rep, &totals, total_ns, replays);
    let per_instance = |ms: &[f64]| crate::stats::median(ms) / n as f64;
    Derived {
        hit_ratio: common::hit_ratio(cache),
        tables: cache.1 as f64,
        pool_overhead_ms: per_instance(&pooled_ms) - per_instance(&traced_ms),
        trace_overhead: crate::stats::median(&traced_ms) / crate::stats::median(&untraced_ms) - 1.0,
        ..Derived::default()
    }
    .emit(rep);
    rep.info("replays", Value::UInt(replays));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_mesh::Coord;
    use pamr_routing::Comm;

    #[test]
    fn instance_gate_fires_on_a_corrupted_pareto_set() {
        let cs = CommSet::new(
            Mesh::new(4, 4),
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 900.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1400.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 3), 600.0),
            ],
        );
        let model = pamr_sim::paper_model();
        let report = FrontierReport::compute(&cs, &model, 6, SPLIT);
        let sequential = frontier_points(&FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 6,
            split: SPLIT,
        });
        assert!(report.pareto.len() >= 2, "the instance has a trade-off");
        let mut rep = Report::default();
        gate_instance(&mut rep, 0, &report, &sequential);
        assert!(rep.correct(), "{:?}", rep.gate_failures);

        let mut corrupted = report.clone();
        corrupted.pareto.swap(0, 1);
        gate_instance(&mut rep, 1, &corrupted, &sequential);
        assert!(!rep.correct());
        assert_eq!(rep.failed, 2, "out of order and unequal");
    }

    #[test]
    fn replay_reproduces_the_pooled_frontier() {
        let mesh = Mesh::new(8, 8);
        let model = pamr_sim::paper_model();
        let series: Vec<CommSet> = instances(&mesh, 5).into_iter().take(2).collect();
        let (digests, _) = replay(&mut Tracer::enabled(), &mesh, &series, &model);
        for (cs, d) in series.iter().zip(digests) {
            let pooled = FrontierReport::compute(cs, &model, SEGMENTS, SPLIT);
            assert_eq!(digest(&pooled.pareto), d);
        }
    }
}
