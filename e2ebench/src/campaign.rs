//! The `campaign` workload: the §6 campaign (all nine sub-figures of
//! fig7–9, 122 sweep points on the 8×8 mesh under the Kim–Horowitz model)
//! at a fixed number of trials per point, through `Campaign::run_pooled`'s
//! public pieces on the pool.
//!
//! One operation is one sweep point (its trials fanned out over the pool);
//! `ops_per_s` counts instances routed by all six policies per second.

use crate::common::{self, layer_name, Ctx, Derived};
use crate::report::Report;
use crate::trace::Tracer;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::{EngineConfig, HeuristicKind, MeshPrecompute, RouteScratch, Routing};
use pamr_sim::experiments::{campaign_figures, Experiment, SweepPoint};
use pamr_sim::summary::Summary;
use pamr_sim::{
    experiment_seed, trial_seed, Campaign, HeurResult, InstanceOutcome, PointStats, ShardSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

/// Trials per sweep point: eight pool chunks per point, so a pool of up
/// to eight workers gets work at every point. The paper run uses 2 000
/// trials (250 chunks) per point; on more than eight cores this workload
/// leaves workers idle that the paper run would keep busy.
pub const TRIALS: usize = 64;
/// Set-up timing: precompute builds per timed group, and one group after
/// every this many sweep points of the later passes.
const SETUP_PER_GROUP: usize = 3;
const SETUP_EVERY: usize = 8;
/// Fewest complete timed passes per run (each point's latency is its
/// minimum over them and over a last pass cut off when the time is up).
const MIN_PASSES: usize = 2;
/// Items per work-pool chunk in the vendored pool: the replay folds and
/// combines in the same chunks so its float sums match bit for bit.
const POOL_CHUNK: usize = 8;
/// The trial the reference-engine gate routes, at the middle sweep point
/// of every sub-figure.
const REFERENCE_TRIAL: usize = 0;

/// Serialises every non-timing field of pooled statistics (floats by
/// their bits), so two accumulators compare exactly.
pub fn fingerprint(s: &PointStats) -> String {
    let mut out = format!(
        "{}/{}/{:x}/{:x}",
        s.trials,
        s.best_successes,
        s.sum_best_inv.to_bits(),
        s.sum_best_static_frac.to_bits()
    );
    for a in &s.per_heur {
        out.push_str(&format!(
            "|{}:{:x}:{:x}:{:x}",
            a.successes,
            a.sum_norm_inv.to_bits(),
            a.sum_inv.to_bits(),
            a.sum_static_frac.to_bits()
        ));
    }
    out
}

/// Gate: pooled statistics agree bit for bit with the first pass's
/// (`expect`, a [`fingerprint`]).
fn gate_pooled(rep: &mut Report, what: &str, stats: &PointStats, expect: &str) {
    rep.gate(fingerprint(stats) == expect, || {
        format!("{what}: pooled statistics differ from the first pass")
    });
}

/// A warm shared precompute: every ordered core pair interned.
fn warm_precompute(mesh: Mesh) -> Arc<MeshPrecompute> {
    let pre = Arc::new(MeshPrecompute::new(mesh));
    for a in mesh.cores() {
        for b in mesh.cores() {
            if a != b {
                pre.endpoint_tables(a, b);
            }
        }
    }
    pre
}

/// Every sweep point of `figures` in `Campaign::run_pooled`'s order: the
/// campaign that runs it (its experiment's seed), its index within the
/// experiment and the point.
fn sweep_points<'a, 'f>(
    figures: &'f [Vec<Experiment>],
    base: &Campaign<'a>,
) -> Vec<(Campaign<'a>, usize, &'f SweepPoint)> {
    let mut out = Vec::new();
    for (fi, fig) in figures.iter().enumerate() {
        for (ei, exp) in fig.iter().enumerate() {
            let sub = Campaign {
                seed: experiment_seed(base.seed, fi, ei),
                ..*base
            };
            out.extend(exp.points.iter().enumerate().map(|(pi, p)| (sub, pi, p)));
        }
    }
    out
}

/// One pass over every sweep point through `Campaign::run_point`, merged
/// in `Campaign::run_pooled`'s order. Pushes each point's wall time and
/// returns the pooled statistics plus each point's own.
fn pooled_pass(base: &Campaign, lat_ms: &mut Vec<f64>) -> (PointStats, Vec<PointStats>) {
    let figures = campaign_figures();
    let mut pooled = PointStats::default();
    let mut per_point = Vec::new();
    for (sub, pi, point) in sweep_points(&figures, base) {
        let (stats, t) = common::timed(|| sub.run_point(pi, point));
        lat_ms.push(t);
        pooled = pooled.merge(stats.clone());
        per_point.push(stats);
    }
    (pooled, per_point)
}

/// Counters of a traced single-thread replay.
#[derive(Debug, Default)]
struct ReplayCounts {
    power_evals: u64,
    infeasible: u64,
}

/// Routes one instance with every policy and evaluates its power, like
/// `run_instance_with`, with a span around each layer call.
fn route_all(
    tr: &mut Tracer,
    cs: &pamr_routing::CommSet,
    model: &PowerModel,
    scratch: &mut RouteScratch,
    counts: &mut ReplayCounts,
) -> InstanceOutcome {
    let mut results = Vec::with_capacity(HeuristicKind::ALL.len());
    let mut best: Option<(HeuristicKind, f64)> = None;
    for kind in HeuristicKind::ALL {
        let routing: Routing = tr.span(layer_name(kind), |_| kind.route_with(cs, model, scratch));
        let power = tr.span("power.eval", |_| routing.power(cs, model));
        counts.power_evals += 1;
        let (feasible, power, breakdown) = match power {
            Ok(b) => (true, b.total(), Some(b)),
            Err(_) => {
                counts.infeasible += 1;
                (false, f64::INFINITY, None)
            }
        };
        if feasible && best.is_none_or(|(_, bp)| power < bp) {
            best = Some((kind, power));
        }
        results.push(HeurResult {
            kind,
            feasible,
            power,
            breakdown,
            micros: 0,
        });
    }
    InstanceOutcome {
        results,
        best_power: best.map(|(_, p)| p),
        best_kind: best.map(|(k, _)| k),
    }
}

/// Merges chunk accumulators the way the pool's `reduce` does: in chunks
/// of [`POOL_CHUNK`], each folded from the identity, then the chunk
/// results folded from the identity, all in order.
fn pool_reduce(parts: Vec<PointStats>) -> PointStats {
    let mut outer = PointStats::default();
    let mut it = parts.into_iter().peekable();
    while it.peek().is_some() {
        let inner = it
            .by_ref()
            .take(POOL_CHUNK)
            .fold(PointStats::default(), PointStats::merge);
        outer = outer.merge(inner);
    }
    outer
}

/// The campaign replayed on one thread from benchmark code, with a span
/// around every call into a layer: `workload.generate`, each policy's
/// `route_with`, `power.eval` and `stats.add`, under a `campaign.trial`
/// root per instance. Reproduces `Campaign::run_pooled`'s non-timing
/// statistics bit for bit.
fn replay(
    tr: &mut Tracer,
    mesh: &Mesh,
    model: &PowerModel,
    seed: u64,
    pre: &Arc<MeshPrecompute>,
    counts: &mut ReplayCounts,
) -> PointStats {
    let mut pooled = PointStats::default();
    let mut op = 0u64;
    for (fi, fig) in campaign_figures().iter().enumerate() {
        for (ei, exp) in fig.iter().enumerate() {
            let es = experiment_seed(seed, fi, ei);
            for (pi, point) in exp.points.iter().enumerate() {
                let mut chunks = Vec::new();
                for start in (0..TRIALS).step_by(POOL_CHUNK) {
                    let mut scratch = RouteScratch::with_engine(EngineConfig::LIVE);
                    scratch.attach_precompute(Arc::clone(pre));
                    let mut stats = PointStats::default();
                    for t in start..(start + POOL_CHUNK).min(TRIALS) {
                        tr.set_op(op);
                        op += 1;
                        tr.span("campaign.trial", |tr| {
                            let cs = tr.span("workload.generate", |_| {
                                let mut rng = SmallRng::seed_from_u64(trial_seed(es, pi, t));
                                point.workload.generate(mesh, &mut rng)
                            });
                            let out = route_all(tr, &cs, model, &mut scratch, counts);
                            tr.span("stats.add", |_| stats.add(&out));
                        });
                    }
                    chunks.push(stats);
                }
                pooled = pooled.merge(pool_reduce(chunks));
            }
        }
    }
    pooled
}

/// Gate: a sample of instances routes bit-identically under the reference
/// engines.
fn reference_gate(rep: &mut Report, mesh: &Mesh, model: &PowerModel, seed: u64) -> u64 {
    let mut live = RouteScratch::with_engine(EngineConfig::LIVE);
    let mut reference = RouteScratch::with_engine(EngineConfig::REFERENCE);
    let mut sampled = 0;
    for (fi, fig) in campaign_figures().iter().enumerate() {
        for (ei, exp) in fig.iter().enumerate() {
            let pi = exp.points.len() / 2;
            let es = experiment_seed(seed, fi, ei);
            let mut rng = SmallRng::seed_from_u64(trial_seed(es, pi, REFERENCE_TRIAL));
            let cs = exp.points[pi].workload.generate(mesh, &mut rng);
            for kind in HeuristicKind::ALL {
                let a = kind.route_with(&cs, model, &mut live);
                let b = kind.route_with(&cs, model, &mut reference);
                let same_power = match (a.power(&cs, model), b.power(&cs, model)) {
                    (Ok(x), Ok(y)) => x.total().to_bits() == y.total().to_bits(),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                rep.gate(a == b && same_power, || {
                    format!("{}: {kind} differs from the reference engine", exp.id)
                });
            }
            sampled += 1;
        }
    }
    sampled
}

/// Runs the workload.
pub fn run(ctx: &Ctx, rep: &mut Report, tracer: &mut Tracer) {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let mut setup = common::SetupSampler::new(SETUP_PER_GROUP);
    let pre = setup.group(|| warm_precompute(mesh));
    let points: usize = campaign_figures()
        .iter()
        .flatten()
        .map(|e| e.points.len())
        .sum();
    let instances = (points * TRIALS) as u64;
    let base = Campaign {
        mesh: &mesh,
        model: &model,
        trials: TRIALS,
        seed: ctx.seed,
        shard: ShardSpec::FULL,
        pre: Some(&pre),
        engine: EngineConfig::LIVE,
    };

    // Gates, before any number counts: the reference-engine sample, then
    // a first pass (timed like the others) that must pool every trial.
    // Later passes must reproduce its statistics point by point, bit for
    // bit.
    let sampled = reference_gate(rep, &mesh, &model, ctx.seed);
    let start = Instant::now();
    let mut first = Vec::with_capacity(points);
    let (pooled, per_point) = pooled_pass(&base, &mut first);
    rep.attempted += instances;
    let dropped: usize = per_point
        .iter()
        .map(|p| TRIALS - p.trials.min(TRIALS))
        .sum();
    rep.failed += dropped as u64;
    rep.gate(dropped == 0 && pooled.trials as u64 == instances, || {
        format!(
            "first pass: {dropped} trials dropped, {} pooled",
            pooled.trials
        )
    });
    let expect = fingerprint(&pooled);
    let summary = Summary::from_pooled(pooled.clone());
    rep.count("instances", instances);
    rep.count("sweep_points", points as u64);
    rep.count("reference_sample", sampled);
    rep.count("best_successes", pooled.best_successes as u64);
    for (kind, agg) in HeuristicKind::ALL.iter().zip(&pooled.per_heur) {
        rep.count(format!("successes.{}", kind.name()), agg.successes as u64);
    }
    rep.count(
        "fingerprint",
        common::fnv1a(common::FNV_START, expect.as_bytes()),
    );
    // The shared precompute was warmed in set-up, so every lookup of the
    // first pass is a hit and both counts are seed-determined.
    let (hits, misses) = pre.cache_stats();
    rep.count("precompute.hits", hits);
    rep.count("precompute.tables", misses);

    if ctx.trace {
        run_traced(ctx, rep, tracer, &base, &expect);
        return;
    }

    // Each later pass times the sweep points again, each point checked
    // against its statistics in the first pass (so a pass cut off when the
    // time is up still counts); a point's latency is its minimum over the
    // passes, which keeps a burst of load from another process on the
    // shared cores out of the figures. Set-up groups are timed between
    // points, across the whole run.
    let figures = campaign_figures();
    let sweep = sweep_points(&figures, &base);
    let expect_points: Vec<String> = per_point.iter().map(fingerprint).collect();
    let per_pass = common::timed_passes(first, start, ctx.seconds, MIN_PASSES, |pass, i| {
        if i % SETUP_EVERY == 0 {
            setup.group(|| warm_precompute(mesh));
        }
        let (sub, pi, point) = sweep[i];
        let (stats, t) = common::timed(|| sub.run_point(pi, point));
        gate_pooled(
            rep,
            &format!("pass {pass}, point {i}"),
            &stats,
            &expect_points[i],
        );
        t
    });
    rep.info("passes", Value::UInt(per_pass.len() as u64));
    rep.info("setup_groups", Value::UInt(setup.groups() as u64));
    let lat = crate::stats::per_op_min(&per_pass);

    rep.metric("setup_s", setup.median_s(), "s");
    rep.metric(
        "ops_per_s",
        instances as f64 / (lat.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    common::latency_metrics(rep, lat);
    rep.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    rep.metric(
        "inv_power_ratio",
        summary.best_inv_power_ratio_vs_xy(),
        "ratio",
    );
    rep.metric("feasible_share", summary.best_success_rate(), "fraction");
}

/// The traced pass: untraced pooled pass, untraced single-thread replay
/// and traced single-thread replay, repeated until the budget is spent.
fn run_traced(ctx: &Ctx, rep: &mut Report, tracer: &mut Tracer, base: &Campaign, expect: &str) {
    let (mesh, model) = (base.mesh, base.model);
    gate_pooled(rep, "Campaign::run_pooled", &base.run_pooled(), expect);
    let mut pooled_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = ReplayCounts::default();
    let mut last_pre;
    let start = Instant::now();
    loop {
        let mut lat = Vec::new();
        let ((stats, _), t) = common::timed(|| pooled_pass(base, &mut lat));
        pooled_ms.push(t);
        gate_pooled(rep, "untraced pooled pass", &stats, expect);

        let mut off = Tracer::disabled();
        let pre = Arc::new(MeshPrecompute::new(*mesh));
        let (stats, t) = common::timed(|| {
            replay(
                &mut off,
                mesh,
                model,
                ctx.seed,
                &pre,
                &mut ReplayCounts::default(),
            )
        });
        untraced_ms.push(t);
        gate_pooled(rep, "untraced replay", &stats, expect);

        let pre = Arc::new(MeshPrecompute::new(*mesh));
        let (stats, t) = common::timed(|| replay(tracer, mesh, model, ctx.seed, &pre, &mut counts));
        traced_ms.push(t);
        gate_pooled(rep, "traced replay", &stats, expect);
        last_pre = pre;
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let replays = traced_ms.len() as u64;
    let totals = tracer.totals();
    let total_ns = tracer.root_ns();
    common::emit_layers(rep, &totals, total_ns, replays);
    let pre = last_pre;
    let busy_ms = total_ns as f64 / 1e6 / replays as f64;
    Derived {
        hit_ratio: common::hit_ratio(pre.cache_stats()),
        tables: pre.cache_stats().1 as f64,
        pool_efficiency: busy_ms / (ctx.threads as f64 * crate::stats::median(&pooled_ms)),
        infeasible_share: counts.infeasible as f64 / counts.power_evals.max(1) as f64,
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
    use pamr_routing::{Comm, CommSet};
    use rayon::prelude::*;

    fn outcome(weight: f64) -> InstanceOutcome {
        let cs = CommSet::new(
            Mesh::new(4, 4),
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), weight),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1400.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 3), 600.0),
            ],
        );
        pamr_sim::run_instance(&cs, &pamr_sim::paper_model())
    }

    #[test]
    fn pooled_gate_fires_on_corrupted_statistics() {
        let mut stats = PointStats::default();
        stats.add(&outcome(900.0));
        let expect = fingerprint(&stats);
        let mut rep = Report::default();
        gate_pooled(&mut rep, "clean", &stats, &expect);
        assert!(rep.correct());
        let mut corrupted = stats.clone();
        let sum = &mut corrupted.per_heur[5].sum_inv;
        *sum = f64::from_bits(sum.to_bits() ^ 1);
        gate_pooled(&mut rep, "corrupted", &corrupted, &expect);
        assert!(!rep.correct());
        assert_eq!((rep.attempted, rep.failed), (2, 1));
    }

    #[test]
    fn replay_combine_matches_the_pool_bit_for_bit() {
        // 37 trials: five chunks of at most eight, the last one short.
        let outcomes: Vec<InstanceOutcome> =
            (0..37).map(|t| outcome(500.0 + 97.0 * t as f64)).collect();
        let pooled = (0..outcomes.len())
            .into_par_iter()
            .fold(PointStats::default, |mut s, t| {
                s.add(&outcomes[t]);
                s
            })
            .reduce(PointStats::default, PointStats::merge);
        let chunks = outcomes
            .chunks(POOL_CHUNK)
            .map(|c| {
                let mut s = PointStats::default();
                c.iter().for_each(|o| s.add(o));
                s
            })
            .collect();
        assert_eq!(fingerprint(&pool_reduce(chunks)), fingerprint(&pooled));
    }
}
