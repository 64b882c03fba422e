//! `pamr-bench` — the campaign benchmark runner behind the CI `bench` lane.
//!
//! Measures the wall time of the §6 figure campaigns twice — once on a
//! single worker thread (the sequential baseline) and once on the full
//! work-pool — and emits a machine-readable `BENCH_summary.json` so the
//! perf trajectory is tracked from one PR to the next.
//!
//! ```text
//! pamr-bench run [--profile smoke|full] [--trials N] [--seed S] [--out FILE]
//! pamr-bench check --baseline FILE --current FILE [--max-ratio R]
//! pamr-bench shard [--shards N] [--trials T] [--seed S] [--pamr PATH] [--out FILE]
//! pamr-bench pr  [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]
//! pamr-bench xyi [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]
//! pamr-bench ig  [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]
//! pamr-bench serve [--comms N] [--repeats R] [--seed S] [--out FILE]
//! pamr-bench precompute [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]
//! pamr-bench scaling [--profile smoke|full|serve] [--seed S] [--out FILE] [--check-only]
//! pamr-bench frontier [--comms N] [--segments N] [--split S] [--repeats R] [--seed S] [--out FILE]
//! ```
//!
//! `run` executes the campaigns and writes the report; `check` compares a
//! fresh report against a committed baseline and exits non-zero when the
//! parallel wall time regressed by more than `--max-ratio` (default 2.0) —
//! lenient enough to absorb runner-to-runner noise, tight enough to catch
//! a genuine hot-path regression. `shard` times the multi-process lane:
//! one `pamr shard 0/1` process versus N concurrent `pamr shard i/N`
//! processes plus the `pamr merge` step, verifying on the way that both
//! pipelines print byte-identical §6.4 reports. `pr`, `xyi` and `ig` are
//! the engine lanes: each times a rewritten improvement loop (banded
//! Path-Remover, queue-driven XY improver, indexed Improved greedy)
//! against its full-scan oracle (`pr::reference` / `xyi::reference` /
//! `ig::reference`) on campaign-distribution instances, cross-checks that
//! both produce identical routings **before** timing, and records the
//! per-instance speedup in the matching section of `BENCH_summary.json`
//! (merging into an existing report when one is present); `run` records a
//! smaller version of every lane. `serve` is the daemon lane: per-request
//! latency of `add_comm` against a resident `RoutingSession` (bounded
//! incremental repair) versus the stateless alternative of re-routing the
//! whole live set from scratch on every request. `precompute` is the
//! two-phase lane: the campaign trial loop with the shared
//! precompute/customize split (interned per-endpoint tables) versus the
//! literal rebuild-per-trial path, cross-checked bit-identical first.
//! `scaling` is the large-mesh lane: each optimized engine timed over a
//! mesh-size × comm-count grid (8×8/80 up to 256×256/10⁵ under `--profile
//! full`) of *length-targeted* local traffic, cross-checked bit-identical
//! against the full-scan oracles on the small points first, with a log–log
//! least-squares exponent fit per engine and a large-mesh `pamr serve`
//! incremental-mutation latency probe recorded alongside. The strongly
//! superlinear engines are capped (logged, recorded as `null`) above
//! [`SCALING_PR_MAX_COMMS`] / [`SCALING_XYI_MAX_COMMS`]; the near-linear
//! IG and the serve probe cover the top of the grid; `--profile serve`
//! skips the grid entirely and records only the 256×256/10⁴ serve probe
//! (the sub-100 ms incremental re-route figure). `frontier`
//! is the bi-objective lane: the pooled ε-constraint power × latency sweep
//! behind `pamr frontier` (per-segment fan-out + dominance-filtering
//! merge) versus the sequential reference solver, cross-checked to the
//! exact same Pareto set before timing.

use pamr_routing::{
    frontier_points, EngineConfig, FrontierProblem, Heuristic as _, HeuristicKind, ImprovedGreedy,
    MeshPrecompute, PathRemover, ReferenceImprovedGreedy, ReferencePathRemover,
    ReferenceXyImprover, RouteScratch, RoutingSession, SessionConfig, SimpleGreedy, XyImprover,
};
use pamr_sim::experiments::{fig7, fig8, fig9, Experiment};
use pamr_sim::{Campaign, FrontierReport, ShardSpec};
use serde::{Deserialize, Serialize};
use std::process::Command;
use std::time::Instant;

/// Per-figure measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FigureBench {
    /// Figure id (`fig7` / `fig8` / `fig9`).
    id: String,
    /// Total instances routed per pass (sweep points × trials).
    instances: usize,
    /// Wall time of the 1-thread pass, milliseconds.
    wall_ms_seq: f64,
    /// Wall time of the N-thread pass, milliseconds.
    wall_ms_par: f64,
    /// `wall_ms_seq / wall_ms_par`.
    speedup: f64,
    /// Instances per second of the parallel pass.
    trials_per_sec: f64,
}

/// One engine lane of `BENCH_summary.json` (the `pr` / `xyi` / `ig`
/// sections): a rewritten improvement loop timed against its full-scan
/// oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineBench {
    /// Distinct campaign-distribution instances timed.
    instances: usize,
    /// Communications per instance.
    comms: usize,
    /// Timing repetitions over the instance set.
    repeats: usize,
    /// Master seed of the instance draws.
    seed: u64,
    /// Mean per-instance runtime of the rewritten engine, milliseconds
    /// (banded PR, queue-driven XYI, indexed IG).
    fast_ms: f64,
    /// Mean per-instance runtime of the full-scan oracle, milliseconds.
    reference_ms: f64,
    /// `reference_ms / fast_ms`.
    speedup: f64,
    /// Both engines produced identical routings on every instance.
    identical: bool,
}

/// The three rewritten-engine lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineLane {
    /// Banded Path-Remover vs `pr::reference`.
    Pr,
    /// Queue-driven XY improver vs `xyi::reference`.
    Xyi,
    /// Indexed Improved greedy vs `ig::reference`.
    Ig,
}

impl EngineLane {
    fn name(self) -> &'static str {
        match self {
            EngineLane::Pr => "pr",
            EngineLane::Xyi => "xyi",
            EngineLane::Ig => "ig",
        }
    }
}

/// Times one rewritten engine against its full-scan oracle on 8×8
/// campaign-distribution instances (the §6.2 mixed-weight regime), first
/// cross-checking that every routing is identical — the lane refuses to
/// time engines that disagree.
fn measure_engine(
    lane: EngineLane,
    instances: usize,
    comms: usize,
    repeats: usize,
    seed: u64,
) -> EngineBench {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mesh = pamr_bench::mesh8();
    let model = pamr_bench::model();
    let sets: Vec<_> = (0..instances)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            pamr_workload::UniformWorkload::new(comms, 100.0, 2500.0).generate(&mesh, &mut rng)
        })
        .collect();
    let mut scratch = RouteScratch::new();
    // Warm-up + differential cross-check.
    let mut identical = true;
    for cs in &sets {
        identical &= match lane {
            EngineLane::Pr => {
                PathRemover.try_route_banded_with(cs, &model, &mut scratch)
                    == ReferencePathRemover.try_route_with(cs, &model, &mut scratch)
            }
            EngineLane::Xyi => {
                XyImprover::default().route_queued_with(cs, &model, &mut scratch)
                    == ReferenceXyImprover::default().route_with(cs, &model, &mut scratch)
            }
            EngineLane::Ig => {
                ImprovedGreedy::default().route_indexed_with(cs, &model, &mut scratch)
                    == ReferenceImprovedGreedy::default().route_with(cs, &model, &mut scratch)
            }
        };
    }
    assert!(
        identical,
        "{} engine diverged from its full-scan oracle",
        lane.name()
    );
    let mut timed = |f: &dyn Fn(&pamr_routing::CommSet, &mut RouteScratch)| -> f64 {
        let start = Instant::now();
        for _ in 0..repeats {
            for cs in &sets {
                f(cs, &mut scratch);
            }
        }
        start.elapsed().as_secs_f64() * 1e3 / (repeats * sets.len()) as f64
    };
    let (fast_ms, reference_ms) = match lane {
        EngineLane::Pr => (
            timed(&|cs, scratch| {
                let _ = PathRemover.route_with(cs, &model, scratch);
            }),
            timed(&|cs, scratch| {
                let _ = ReferencePathRemover.route_with(cs, &model, scratch);
            }),
        ),
        EngineLane::Xyi => (
            timed(&|cs, scratch| {
                let _ = XyImprover::default().route_queued_with(cs, &model, scratch);
            }),
            timed(&|cs, scratch| {
                let _ = ReferenceXyImprover::default().route_with(cs, &model, scratch);
            }),
        ),
        EngineLane::Ig => (
            timed(&|cs, scratch| {
                let _ = ImprovedGreedy::default().route_indexed_with(cs, &model, scratch);
            }),
            timed(&|cs, scratch| {
                let _ = ReferenceImprovedGreedy::default().route_with(cs, &model, scratch);
            }),
        ),
    };
    EngineBench {
        instances,
        comms,
        repeats,
        seed,
        fast_ms,
        reference_ms,
        speedup: reference_ms / fast_ms,
        identical,
    }
}

/// The `precompute` lane of `BENCH_summary.json`: the shared
/// precompute/customize split versus the literal rebuild-per-trial path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PrecomputeBench {
    /// Campaign-style trials timed per pass.
    instances: usize,
    /// Communications per instance.
    comms: usize,
    /// Timing repetitions over the trial set.
    repeats: usize,
    /// Master seed of the instance draws.
    seed: u64,
    /// Mean per-trial runtime with the shared precompute (the all-`Live`
    /// [`EngineConfig`], the production default), milliseconds.
    cached_ms: f64,
    /// Mean per-trial runtime rebuilding bands, row intervals and seed
    /// paths from scratch every call (`Reference` precompute engine), ms.
    rebuild_ms: f64,
    /// `rebuild_ms / cached_ms`.
    speedup: f64,
    /// Both implementations produced identical routings on every trial.
    identical: bool,
}

/// Times the IG-heavy campaign trial — the §5.2 greedy family (SG then
/// indexed IG) over §6.2 uniform 80-communication instances — once with
/// the shared precompute/customize split and once with literal per-call
/// rebuilds, cross-checking bit-identical routings first.
///
/// The greedy family is the precompute's best customer: SG consumes the
/// cached decreasing-weight order, and IG additionally consumes the
/// interned bands (ideal sharing + min-load index) and the tabulated
/// per-level cost ladder. The rebuild pass is the literal pre-split path —
/// fresh bands, fresh sort, per-query power-fit evaluation — so the ratio
/// is the split's end-to-end campaign-level payoff on sweeps whose
/// per-trial time IG dominates.
fn measure_precompute(
    instances: usize,
    comms: usize,
    repeats: usize,
    seed: u64,
) -> PrecomputeBench {
    let mesh = pamr_bench::mesh8();
    let model = pamr_bench::model();
    let sets: Vec<_> = (0..instances)
        .map(|i| {
            pamr_bench::uniform_instance(
                &mesh,
                comms,
                100.0,
                2500.0,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect();
    // One IG-heavy campaign trial: the greedy family over one instance.
    let trial = |cs: &pamr_routing::CommSet, scratch: &mut RouteScratch| {
        let _ = SimpleGreedy::default().route_with(cs, &model, scratch);
        let _ = ImprovedGreedy::default().route_indexed_with(cs, &model, scratch);
    };
    // Differential cross-check before timing: identical routings under
    // both engine selections, per instance.
    let cached = EngineConfig::LIVE;
    let rebuild = EngineConfig::LIVE.with_precompute(pamr_routing::EngineSel::Reference);
    let outcomes = |engine: EngineConfig| {
        let mut scratch = RouteScratch::with_engine(engine);
        sets.iter()
            .map(|cs| {
                (
                    SimpleGreedy::default().route_with(cs, &model, &mut scratch),
                    ImprovedGreedy::default().route_indexed_with(cs, &model, &mut scratch),
                )
            })
            .collect::<Vec<_>>()
    };
    let identical = outcomes(cached) == outcomes(rebuild);
    assert!(
        identical,
        "cached tables changed a routing — the precompute lane refuses to time"
    );
    // One shared precompute, as `Summary::run` builds for a whole campaign:
    // on the 8×8 campaign mesh it saturates after a few trials (≤ 4096
    // distinct pairs) and then serves the sweep's remaining ~10⁵ trials, so
    // the steady state is what "campaign-level" means here.
    let shared = std::sync::Arc::new(MeshPrecompute::new(mesh));
    let timed = |engine: EngineConfig| -> f64 {
        let mut scratch = RouteScratch::with_engine(engine);
        if !engine.precompute.is_reference() {
            scratch.attach_precompute(std::sync::Arc::clone(&shared));
        }
        // Untimed warm pass for *both* engine selections: it saturates the
        // cached pass's interner (the campaign steady state) and warms
        // caches and branch predictors equally for the rebuild pass.
        for cs in &sets {
            trial(cs, &mut scratch);
        }
        let start = Instant::now();
        for _ in 0..repeats {
            for cs in &sets {
                trial(cs, &mut scratch);
            }
        }
        start.elapsed().as_secs_f64() * 1e3 / (repeats * sets.len()) as f64
    };
    let cached_ms = timed(cached);
    let rebuild_ms = timed(rebuild);
    PrecomputeBench {
        instances,
        comms,
        repeats,
        seed,
        cached_ms,
        rebuild_ms,
        speedup: rebuild_ms / cached_ms,
        identical,
    }
}

/// The `frontier` lane of `BENCH_summary.json`: the pooled bi-objective
/// power × latency sweep versus the sequential reference solver.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FrontierBench {
    /// Communications in the swept instance.
    comms: usize,
    /// ε-constraint segments (latency budgets) swept.
    segments: usize,
    /// Path bound of the FW-MP candidate (0 sweeps the 1-MP portfolio
    /// only).
    split: usize,
    /// Timing repetitions over the sweep.
    repeats: usize,
    /// Master seed of the instance draw.
    seed: u64,
    /// Mean sweep runtime of the sequential reference solver
    /// (`frontier_points`), milliseconds.
    sequential_ms: f64,
    /// Mean sweep runtime of the pooled per-segment fan-out + merge
    /// pipeline (the `pamr frontier` implementation), milliseconds.
    pooled_ms: f64,
    /// `sequential_ms / pooled_ms`.
    speedup: f64,
    /// Pareto points on the computed frontier.
    pareto_points: usize,
    /// The pooled pipeline produced the sequential solver's exact Pareto
    /// set.
    identical: bool,
}

/// Times the frontier lane: the ε-constraint sweep over an 8×8
/// campaign-feasible instance, once through the sequential reference
/// solver and once through the pooled partial/merge pipeline behind
/// `pamr frontier`, cross-checked to the exact same Pareto set first.
///
/// The 100–800 weight regime keeps the instance feasible at 80
/// communications (see [`measure_serve`]) — an infeasible instance has an
/// empty frontier and the lane would time nothing.
fn measure_frontier(
    comms: usize,
    segments: usize,
    split: usize,
    repeats: usize,
    seed: u64,
) -> FrontierBench {
    let mesh = pamr_bench::mesh8();
    let model = pamr_bench::model();
    let cs = pamr_bench::uniform_instance(&mesh, comms, 100.0, 800.0, seed);
    let problem = FrontierProblem {
        cs: &cs,
        model: &model,
        segments,
        split,
    };
    // Differential cross-check before timing: the pooled pipeline must
    // reproduce the sequential solver's Pareto set exactly.
    let reference = frontier_points(&problem);
    let report = FrontierReport::compute(&cs, &model, segments, split);
    let identical = report.pareto == reference;
    assert!(
        identical,
        "pooled frontier diverged from the sequential solver"
    );
    assert!(
        !reference.is_empty(),
        "frontier lane instance is infeasible — nothing to time"
    );
    let timed = |f: &dyn Fn()| -> f64 {
        f(); // warm-up
        let start = Instant::now();
        for _ in 0..repeats {
            f();
        }
        start.elapsed().as_secs_f64() * 1e3 / repeats as f64
    };
    let sequential_ms = timed(&|| {
        let _ = frontier_points(&problem);
    });
    let pooled_ms = timed(&|| {
        let _ = FrontierReport::compute(&cs, &model, segments, split);
    });
    FrontierBench {
        comms,
        segments,
        split,
        repeats,
        seed,
        sequential_ms,
        pooled_ms,
        speedup: sequential_ms / pooled_ms,
        pareto_points: reference.len(),
        identical,
    }
}

/// The `serve` lane of `BENCH_summary.json`: per-request `add_comm`
/// latency of the resident session versus a stateless from-scratch
/// re-route of the live set on every request.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeBench {
    /// Requests per pass (= live communications after the last one).
    requests: usize,
    /// Timing repetitions over the request script.
    repeats: usize,
    /// Master seed of the instance draw.
    seed: u64,
    /// Mean per-request latency with the resident session (bounded
    /// incremental repair), milliseconds.
    incremental_ms_per_req: f64,
    /// Mean per-request latency re-routing the whole live prefix from
    /// scratch with the same heuristic, milliseconds.
    scratch_ms_per_req: f64,
    /// `scratch_ms_per_req / incremental_ms_per_req`.
    speedup: f64,
}

/// Times the serve lane: the same `requests`-long `add_comm` script is
/// answered once by a resident [`RoutingSession`] (the `pamr serve`
/// implementation) and once by batch-re-routing the live prefix from
/// scratch on every request (what a stateless daemon would do).
///
/// The draw uses the 100–800 weight regime: at 80 communications it keeps
/// the 8×8 platform feasible (max link load ≈ 2700 of 3500), which is the
/// operating point a daemon actually serves. The §6.2 mixed regime
/// (100–2500) is hopelessly infeasible at this count, and an infeasible
/// state forces the session to escalate every request to a full re-route —
/// that measures the escalation path, not incremental repair.
fn measure_serve(requests: usize, repeats: usize, seed: u64) -> ServeBench {
    let mesh = pamr_bench::mesh8();
    let model = pamr_bench::model();
    let cs = pamr_bench::uniform_instance(&mesh, requests, 100.0, 800.0, seed);

    let start = Instant::now();
    for _ in 0..repeats {
        let mut session = RoutingSession::new(mesh, model.clone(), SessionConfig::default());
        for c in cs.comms() {
            session.add_comm(*c);
        }
        assert_eq!(session.len(), requests);
    }
    let incremental_ms_per_req = start.elapsed().as_secs_f64() * 1e3 / (repeats * requests) as f64;

    let mut scratch = RouteScratch::new();
    let start = Instant::now();
    for _ in 0..repeats {
        for i in 1..=requests {
            let prefix = pamr_routing::CommSet::new(mesh, cs.comms()[..i].to_vec());
            let _ = HeuristicKind::Xyi.route_with(&prefix, &model, &mut scratch);
        }
    }
    let scratch_ms_per_req = start.elapsed().as_secs_f64() * 1e3 / (repeats * requests) as f64;

    ServeBench {
        requests,
        repeats,
        seed,
        incremental_ms_per_req,
        scratch_ms_per_req,
        speedup: scratch_ms_per_req / incremental_ms_per_req,
    }
}

/// One grid point of the `scaling` lane: every optimized engine timed on
/// one mesh-size × comm-count instance of length-targeted local traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingPoint {
    /// Mesh rows.
    rows: usize,
    /// Mesh columns.
    cols: usize,
    /// Communications in the instance.
    comms: usize,
    /// The optimized engines were cross-checked bit-identical against the
    /// full-scan oracles at this point (skipped above the oracle cutoff,
    /// where the references' `O(p·q)` scans are prohibitively slow).
    crosschecked: bool,
    /// Timing repetitions (more on the small points to damp noise).
    repeats: usize,
    /// Mean banded-PR runtime, milliseconds. `None` above
    /// [`SCALING_PR_MAX_COMMS`] — PR is the most superlinear engine, and
    /// timing it at the top of the full grid costs hours, not minutes.
    pr_ms: Option<f64>,
    /// Mean queued-XYI runtime, milliseconds. `None` above
    /// [`SCALING_XYI_MAX_COMMS`], same reason at a milder exponent.
    xyi_ms: Option<f64>,
    /// Mean indexed-IG runtime, milliseconds (near-linear; timed at every
    /// grid point).
    ig_ms: f64,
}

/// Least-squares log–log fit of one engine's runtime over the grid: the
/// measured asymptotic exponent of runtime vs communication count (mesh
/// area scales proportionally along the grid, so one scale parameter
/// suffices).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingFit {
    /// Engine name (`pr` / `xyi` / `ig`).
    engine: String,
    /// Slope of `ln(runtime)` vs `ln(comms)` — 1.0 is linear scaling, 2.0
    /// quadratic.
    exponent: f64,
    /// Coefficient of determination of the fit.
    r2: f64,
}

/// The large-mesh `pamr serve` probe of the `scaling` lane: per-mutation
/// latency of incremental re-routing against a resident session.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingServe {
    /// Mesh rows.
    rows: usize,
    /// Mesh columns.
    cols: usize,
    /// Live communications in the resident session.
    comms: usize,
    /// Target Manhattan length of the local traffic.
    path_len: usize,
    /// Timed mutations (each a `remove_comm` + `add_comm` pair; both ops
    /// are measured individually).
    mutations: usize,
    /// Mean per-operation latency, milliseconds.
    mean_mutation_ms: f64,
    /// Worst per-operation latency, milliseconds — the interactive-budget
    /// figure (target: < 100 ms on a 256×256 mesh with 10⁴ communications).
    max_mutation_ms: f64,
    /// Bounded repairs that escalated to a full re-route during the timed
    /// window (escalations measure the batch path, not incremental repair).
    escalations: u64,
}

/// The whole `scaling` lane (`run` does not record it; the focused
/// `pamr-bench scaling` subcommand merges it into `BENCH_summary.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingBench {
    /// Grid profile (`smoke` / `full` / `serve` — the last has no grid
    /// points and no fits, only the 256×256 serve probe).
    profile: String,
    /// Master seed of the instance draws.
    seed: u64,
    /// Target Manhattan length of the grid's local traffic. Uniform
    /// endpoint draws would make every band's link count — and the crossing
    /// indices — grow quadratically with the mesh side; fixed-radius
    /// traffic is the regime where `O(band)` per-operation costs are
    /// independent of mesh size, which is exactly what the lane measures.
    path_len: usize,
    /// The grid, smallest point first.
    points: Vec<ScalingPoint>,
    /// Per-engine asymptotic fits over the grid.
    fits: Vec<ScalingFit>,
    /// The large-mesh incremental-serve probe.
    serve: ScalingServe,
}

/// The whole report (`BENCH_summary.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    /// Report format version.
    schema: u32,
    /// Profile name (`smoke` / `full` / `custom`).
    profile: String,
    /// Worker threads of the parallel pass.
    threads: usize,
    /// Hardware threads the recording machine advertises
    /// (`available_parallelism`): a committed baseline from a 1-core
    /// container is recognisable at a glance, and the CI `bench` job's
    /// baseline-refresh artifact records the capacity it was measured on.
    nproc: usize,
    /// Trials per sweep point.
    trials: usize,
    /// Master seed.
    seed: u64,
    /// Per-figure measurements.
    figures: Vec<FigureBench>,
    /// Sum of the sequential passes, milliseconds.
    total_wall_ms_seq: f64,
    /// Sum of the parallel passes, milliseconds.
    total_wall_ms_par: f64,
    /// Overall sequential/parallel speedup.
    speedup: f64,
    /// The banded-vs-reference Path-Remover lane. `run` and the `pr`
    /// subcommand fill it; it is `Option` only so a lane-less report
    /// remains representable (the vendored serde has no field defaulting,
    /// so older-schema files without the fields do not deserialize at all —
    /// `check` requires matching schemas anyway).
    pr: Option<EngineBench>,
    /// The queued-vs-reference XY-improver lane (`run` / `xyi`).
    xyi: Option<EngineBench>,
    /// The indexed-vs-reference Improved-greedy lane (`run` / `ig`).
    ig: Option<EngineBench>,
    /// The incremental-vs-stateless daemon lane (`run` / `serve`).
    serve: Option<ServeBench>,
    /// The shared-precompute-vs-rebuild lane (`run` / `precompute`).
    precompute: Option<PrecomputeBench>,
    /// The large-mesh grid lane (`scaling` subcommand only).
    scaling: Option<ScalingBench>,
    /// The pooled-vs-sequential bi-objective sweep lane (`run` /
    /// `frontier`).
    frontier: Option<FrontierBench>,
}

/// Hardware threads of this machine, as recorded in the report.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  pamr-bench run [--profile smoke|full] [--trials N] [--seed S] [--out FILE]\n  \
         pamr-bench check --baseline FILE --current FILE [--max-ratio R]\n  \
         pamr-bench shard [--shards N] [--trials T] [--seed S] [--pamr PATH] [--out FILE]\n  \
         pamr-bench pr|xyi|ig [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]\n  \
         pamr-bench serve [--comms N] [--repeats R] [--seed S] [--out FILE]\n  \
         pamr-bench precompute [--instances N] [--comms N] [--repeats R] [--seed S] [--out FILE]\n  \
         pamr-bench scaling [--profile smoke|full|serve] [--seed S] [--out FILE] [--check-only]\n  \
         pamr-bench frontier [--comms N] [--segments N] [--split S] [--repeats R] [--seed S] [--out FILE]"
    );
    std::process::exit(2);
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("pr") => cmd_engine(EngineLane::Pr, &args[1..]),
        Some("xyi") => cmd_engine(EngineLane::Xyi, &args[1..]),
        Some("ig") => cmd_engine(EngineLane::Ig, &args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("precompute") => cmd_precompute(&args[1..]),
        Some("scaling") => cmd_scaling(&args[1..]),
        Some("frontier") => cmd_frontier(&args[1..]),
        _ => usage(),
    }
}

/// Runs one figure group at a fixed thread count, returning the wall time.
fn time_group(exps: &[Experiment], trials: usize, seed: u64, threads: usize) -> f64 {
    rayon::set_num_threads(threads);
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let campaign = Campaign {
        mesh: &mesh,
        model: &model,
        trials,
        seed,
        shard: ShardSpec::FULL,
        pre: None,
        engine: EngineConfig::LIVE,
    };
    let start = Instant::now();
    for exp in exps {
        let res = campaign.run_experiment(exp);
        assert!(
            res.points.iter().all(|(_, s)| s.trials == trials),
            "campaign dropped trials"
        );
    }
    rayon::set_num_threads(0);
    start.elapsed().as_secs_f64() * 1e3
}

fn cmd_run(args: &[String]) {
    let profile = opt(args, "--profile").unwrap_or_else(|| "smoke".into());
    let mut trials = match profile.as_str() {
        "smoke" => 10,
        "full" => 200,
        other => {
            eprintln!("unknown profile {other:?} (smoke|full)");
            std::process::exit(2);
        }
    };
    if let Some(t) = opt(args, "--trials") {
        trials = t.parse().expect("--trials needs a positive integer");
        assert!(trials > 0, "--trials must be positive");
    }
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());

    let threads = rayon::current_num_threads();
    eprintln!(
        "pamr-bench: profile {profile}, {trials} trials/point, seq (1 thread) vs par ({threads} threads)"
    );

    let groups: [(&str, Vec<Experiment>); 3] =
        [("fig7", fig7()), ("fig8", fig8()), ("fig9", fig9())];
    let mut figures = Vec::new();
    for (id, exps) in &groups {
        let instances: usize = exps.iter().map(|e| e.points.len() * trials).sum();
        let wall_ms_seq = time_group(exps, trials, seed, 1);
        let wall_ms_par = time_group(exps, trials, seed, 0);
        let fig = FigureBench {
            id: (*id).to_string(),
            instances,
            wall_ms_seq,
            wall_ms_par,
            speedup: wall_ms_seq / wall_ms_par,
            trials_per_sec: instances as f64 / (wall_ms_par / 1e3),
        };
        eprintln!(
            "  {id}: seq {:.0} ms, par {:.0} ms, speedup {:.2}x, {:.0} instances/s",
            fig.wall_ms_seq, fig.wall_ms_par, fig.speedup, fig.trials_per_sec
        );
        figures.push(fig);
    }

    // The engine lanes: small here (the focused `pamr-bench pr|xyi|ig`
    // subcommands run bigger samples), but always recorded so every
    // BENCH_summary.json tracks the rewritten-vs-reference speedups.
    let mut lanes = [EngineLane::Pr, EngineLane::Xyi, EngineLane::Ig]
        .into_iter()
        .map(|lane| {
            let b = measure_engine(lane, 12, 80, 2, seed);
            eprintln!(
                "  {}: fast {:.2} ms/inst, reference {:.2} ms/inst, speedup {:.2}x",
                lane.name(),
                b.fast_ms,
                b.reference_ms,
                b.speedup
            );
            b
        });
    let (pr, xyi, ig) = (
        lanes.next().unwrap(),
        lanes.next().unwrap(),
        lanes.next().unwrap(),
    );
    let serve = measure_serve(80, 2, seed);
    eprintln!(
        "  serve: incremental {:.3} ms/req, from-scratch {:.3} ms/req, speedup {:.1}x",
        serve.incremental_ms_per_req, serve.scratch_ms_per_req, serve.speedup
    );
    let pre = measure_precompute(12, 80, 2, seed);
    eprintln!(
        "  precompute: cached {:.2} ms/trial, rebuild {:.2} ms/trial, speedup {:.2}x",
        pre.cached_ms, pre.rebuild_ms, pre.speedup
    );
    let fr = measure_frontier(80, 16, 2, 2, seed);
    eprintln!(
        "  frontier: sequential {:.2} ms/sweep, pooled {:.2} ms/sweep, speedup {:.2}x, \
         {} Pareto point(s)",
        fr.sequential_ms, fr.pooled_ms, fr.speedup, fr.pareto_points
    );

    let total_wall_ms_seq: f64 = figures.iter().map(|f| f.wall_ms_seq).sum();
    let total_wall_ms_par: f64 = figures.iter().map(|f| f.wall_ms_par).sum();
    let report = BenchReport {
        schema: 7,
        profile,
        threads,
        nproc: nproc(),
        trials,
        seed,
        figures,
        total_wall_ms_seq,
        total_wall_ms_par,
        speedup: total_wall_ms_seq / total_wall_ms_par,
        pr: Some(pr),
        xyi: Some(xyi),
        ig: Some(ig),
        serve: Some(serve),
        precompute: Some(pre),
        scaling: None,
        frontier: Some(fr),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
    eprintln!(
        "pamr-bench: total seq {total_wall_ms_seq:.0} ms, par {total_wall_ms_par:.0} ms, \
         speedup {:.2}x → {out}",
        report.speedup
    );
}

fn cmd_check(args: &[String]) {
    let baseline_path = opt(args, "--baseline").unwrap_or_else(|| usage());
    let current_path = opt(args, "--current").unwrap_or_else(|| usage());
    let max_ratio: f64 = opt(args, "--max-ratio")
        .map(|s| s.parse().expect("--max-ratio needs a number"))
        .unwrap_or(2.0);
    let load = |path: &str| -> BenchReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
    };
    let baseline = load(&baseline_path);
    let current = load(&current_path);
    assert_eq!(
        baseline.schema, current.schema,
        "baseline and current use different report schemas"
    );
    assert_eq!(
        baseline.profile, current.profile,
        "baseline and current measure different profiles"
    );
    assert_eq!(
        baseline.trials, current.trials,
        "baseline and current measure different trial budgets \
         (refresh the committed baseline after changing the profile)"
    );
    assert_eq!(
        baseline.figures.iter().map(|f| &f.id).collect::<Vec<_>>(),
        current.figures.iter().map(|f| &f.id).collect::<Vec<_>>(),
        "baseline and current measure different figure sets"
    );
    let ratio = current.total_wall_ms_par / baseline.total_wall_ms_par;
    println!(
        "bench check: baseline {:.0} ms, current {:.0} ms, ratio {ratio:.2} (limit {max_ratio:.2})",
        baseline.total_wall_ms_par, current.total_wall_ms_par
    );
    for (b, c) in baseline.figures.iter().zip(&current.figures) {
        println!(
            "  {}: {:.0} ms → {:.0} ms ({:.2}x)",
            c.id,
            b.wall_ms_par,
            c.wall_ms_par,
            c.wall_ms_par / b.wall_ms_par
        );
    }
    for (name, b, c) in [
        ("pr", &baseline.pr, &current.pr),
        ("xyi", &baseline.xyi, &current.xyi),
        ("ig", &baseline.ig, &current.ig),
    ] {
        if let (Some(b), Some(c)) = (b, c) {
            println!(
                "  {name} engine: {:.2}x → {:.2}x rewritten-vs-reference speedup",
                b.speedup, c.speedup
            );
        }
    }
    if let (Some(b), Some(c)) = (&baseline.serve, &current.serve) {
        println!(
            "  serve lane: {:.1}x → {:.1}x incremental-vs-scratch speedup",
            b.speedup, c.speedup
        );
    }
    if let (Some(b), Some(c)) = (&baseline.precompute, &current.precompute) {
        println!(
            "  precompute lane: {:.2}x → {:.2}x cached-vs-rebuild speedup",
            b.speedup, c.speedup
        );
    }
    if let (Some(b), Some(c)) = (&baseline.frontier, &current.frontier) {
        println!(
            "  frontier lane: {:.2}x → {:.2}x pooled-vs-sequential speedup \
             ({} → {} Pareto point(s))",
            b.speedup, c.speedup, b.pareto_points, c.pareto_points
        );
    }
    if let (Some(b), Some(c)) = (&baseline.scaling, &current.scaling) {
        for (bf, cf) in b.fits.iter().zip(&c.fits) {
            println!(
                "  scaling {}: exponent {:.2} → {:.2}",
                cf.engine, bf.exponent, cf.exponent
            );
        }
        println!(
            "  scaling serve: max mutation {:.2} ms → {:.2} ms",
            b.serve.max_mutation_ms, c.serve.max_mutation_ms
        );
    }
    if ratio > max_ratio {
        eprintln!(
            "REGRESSION: parallel campaign wall time grew {ratio:.2}x over the committed \
             baseline (limit {max_ratio:.2}x)"
        );
        std::process::exit(1);
    }
    println!("bench check: OK");
}

/// One focused engine lane (`pamr-bench pr|xyi|ig`): a bigger sample of
/// the rewritten-vs-reference measurement `run` records, written into (or
/// merged into) `BENCH_summary.json`.
fn cmd_engine(lane: EngineLane, args: &[String]) {
    let instances: usize = opt(args, "--instances")
        .map(|s| s.parse().expect("--instances needs a positive integer"))
        .unwrap_or(40);
    assert!(instances > 0, "--instances must be positive");
    let comms: usize = opt(args, "--comms")
        .map(|s| s.parse().expect("--comms needs a positive integer"))
        .unwrap_or(80);
    assert!(comms > 0, "--comms must be positive");
    let repeats: usize = opt(args, "--repeats")
        .map(|s| s.parse().expect("--repeats needs a positive integer"))
        .unwrap_or(3);
    assert!(repeats > 0, "--repeats must be positive");
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());
    let name = lane.name();

    eprintln!(
        "pamr-bench {name}: {instances} instances × {comms} comms × {repeats} repeat(s), \
         rewritten engine vs full-scan reference"
    );
    let bench = measure_engine(lane, instances, comms, repeats, seed);
    eprintln!(
        "pamr-bench {name}: fast {:.3} ms/inst, reference {:.3} ms/inst, speedup {:.2}x, \
         routings identical → {out}",
        bench.fast_ms, bench.reference_ms, bench.speedup
    );

    // Merge into an existing report when one is present (preserving the
    // campaign figures a prior `run` recorded); start a fresh lane-only
    // report otherwise. An existing file that does not parse (e.g. an
    // older-schema report, which lacks the lane fields) is replaced,
    // loudly.
    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "pamr-bench {name}: existing {out} does not parse as a bench report \
                     ({e}); replacing it with a {name}-only report"
                );
                None
            }
        })
        .unwrap_or_else(|| empty_report(name, seed));
    match lane {
        EngineLane::Pr => report.pr = Some(bench),
        EngineLane::Xyi => report.xyi = Some(bench),
        EngineLane::Ig => report.ig = Some(bench),
    }
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
}

/// A lane-only report skeleton for subcommands that merge into
/// `BENCH_summary.json` when no prior `run` recorded the figures.
fn empty_report(profile: &str, seed: u64) -> BenchReport {
    BenchReport {
        schema: 7,
        profile: profile.into(),
        threads: rayon::current_num_threads(),
        nproc: nproc(),
        trials: 0,
        seed,
        figures: Vec::new(),
        total_wall_ms_seq: 0.0,
        total_wall_ms_par: 0.0,
        speedup: 0.0,
        pr: None,
        xyi: None,
        ig: None,
        serve: None,
        precompute: None,
        scaling: None,
        frontier: None,
    }
}

/// The focused daemon lane (`pamr-bench serve`): a bigger sample of the
/// incremental-vs-stateless measurement `run` records, merged into
/// `BENCH_summary.json` like the engine lanes.
fn cmd_serve(args: &[String]) {
    let requests: usize = opt(args, "--comms")
        .map(|s| s.parse().expect("--comms needs a positive integer"))
        .unwrap_or(80);
    assert!(requests > 0, "--comms must be positive");
    let repeats: usize = opt(args, "--repeats")
        .map(|s| s.parse().expect("--repeats needs a positive integer"))
        .unwrap_or(5);
    assert!(repeats > 0, "--repeats must be positive");
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());

    eprintln!(
        "pamr-bench serve: {requests} add_comm requests × {repeats} repeat(s), \
         resident session vs from-scratch re-route"
    );
    let bench = measure_serve(requests, repeats, seed);
    eprintln!(
        "pamr-bench serve: incremental {:.3} ms/req, from-scratch {:.3} ms/req, \
         speedup {:.1}x → {out}",
        bench.incremental_ms_per_req, bench.scratch_ms_per_req, bench.speedup
    );

    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "pamr-bench serve: existing {out} does not parse as a bench report \
                     ({e}); replacing it with a serve-only report"
                );
                None
            }
        })
        .unwrap_or_else(|| empty_report("serve", seed));
    report.serve = Some(bench);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
}

/// The focused precompute lane (`pamr-bench precompute`): a bigger sample
/// of the cached-vs-rebuild measurement `run` records, merged into
/// `BENCH_summary.json` like the engine lanes.
fn cmd_precompute(args: &[String]) {
    let instances: usize = opt(args, "--instances")
        .map(|s| s.parse().expect("--instances needs a positive integer"))
        .unwrap_or(40);
    assert!(instances > 0, "--instances must be positive");
    let comms: usize = opt(args, "--comms")
        .map(|s| s.parse().expect("--comms needs a positive integer"))
        .unwrap_or(80);
    assert!(comms > 0, "--comms must be positive");
    let repeats: usize = opt(args, "--repeats")
        .map(|s| s.parse().expect("--repeats needs a positive integer"))
        .unwrap_or(8);
    assert!(repeats > 0, "--repeats must be positive");
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());

    eprintln!(
        "pamr-bench precompute: {instances} trials × {comms} comms × {repeats} repeat(s), \
         shared precompute vs rebuild-per-trial"
    );
    let bench = measure_precompute(instances, comms, repeats, seed);
    eprintln!(
        "pamr-bench precompute: cached {:.3} ms/trial, rebuild {:.3} ms/trial, \
         speedup {:.2}x, routings identical → {out}",
        bench.cached_ms, bench.rebuild_ms, bench.speedup
    );

    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "pamr-bench precompute: existing {out} does not parse as a bench report \
                     ({e}); replacing it with a precompute-only report"
                );
                None
            }
        })
        .unwrap_or_else(|| empty_report("precompute", seed));
    report.precompute = Some(bench);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
}

/// Target Manhattan length of the scaling lane's local traffic (see
/// [`ScalingBench::path_len`]).
const SCALING_PATH_LEN: usize = 8;

/// Oracle cutoff of the scaling lane: grid points with at most this many
/// cores are cross-checked against the full-scan references before timing.
/// Above it the references' `O(p·q)`-per-step scans dominate the whole run
/// (they are the very cost the optimized engines shed), so the big points
/// ride on the equivalence the small points — and the differential test
/// suite — establish.
const SCALING_ORACLE_CUTOFF: usize = 32 * 32;

/// Largest communication count at which the scaling lane times the banded
/// PR. Its measured exponent is ≈1.9 in the grid's joint comms×area scale,
/// so the 256×256/10⁵ point would take hours per pass; the cap keeps the
/// full profile interactive and is *logged*, never silent — capped points
/// record `None` and the fit uses the sub-grid the engine actually ran.
const SCALING_PR_MAX_COMMS: usize = 20_480;

/// Largest communication count at which the scaling lane times the queued
/// XYI (exponent ≈2.0 in the joint scale; same reasoning as
/// [`SCALING_PR_MAX_COMMS`] one notch later).
const SCALING_XYI_MAX_COMMS: usize = 20_480;

/// Measures one grid point: builds the length-targeted instance,
/// cross-checks the optimized engines against their oracles below the
/// cutoff, then times each optimized engine.
fn measure_scaling_point(
    rows: usize,
    cols: usize,
    comms: usize,
    seed: u64,
    check_only: bool,
) -> ScalingPoint {
    let mesh = pamr_mesh::Mesh::new(rows, cols);
    let model = pamr_bench::model();
    let cs = pamr_bench::length_instance(&mesh, comms, 100.0, 800.0, SCALING_PATH_LEN, seed);
    let mut scratch = RouteScratch::new();
    let crosschecked = rows * cols <= SCALING_ORACLE_CUTOFF;
    if crosschecked {
        assert!(
            PathRemover.try_route_banded_with(&cs, &model, &mut scratch)
                == ReferencePathRemover.try_route_with(&cs, &model, &mut scratch),
            "{rows}×{cols}/{comms}: banded PR diverged from its full-scan oracle"
        );
        assert!(
            XyImprover::default().route_queued_with(&cs, &model, &mut scratch)
                == ReferenceXyImprover::default().route_with(&cs, &model, &mut scratch),
            "{rows}×{cols}/{comms}: queued XYI diverged from its full-scan oracle"
        );
        assert!(
            ImprovedGreedy::default().route_indexed_with(&cs, &model, &mut scratch)
                == ReferenceImprovedGreedy::default().route_with(&cs, &model, &mut scratch),
            "{rows}×{cols}/{comms}: indexed IG diverged from its full-scan oracle"
        );
    }
    if check_only {
        return ScalingPoint {
            rows,
            cols,
            comms,
            crosschecked,
            repeats: 0,
            pr_ms: None,
            xyi_ms: None,
            ig_ms: 0.0,
        };
    }
    // More repetitions on the small points, where a single route is noise.
    let repeats = (2560 / comms).max(1);
    let mut timed = |f: &dyn Fn(&pamr_routing::CommSet, &mut RouteScratch)| -> f64 {
        f(&cs, &mut scratch); // warm-up (grows scratch buffers untimed)
        let start = Instant::now();
        for _ in 0..repeats {
            f(&cs, &mut scratch);
        }
        start.elapsed().as_secs_f64() * 1e3 / repeats as f64
    };
    let pr_ms = (comms <= SCALING_PR_MAX_COMMS).then(|| {
        timed(&|cs, scratch| {
            let _ = PathRemover.route_with(cs, &model, scratch);
        })
    });
    let xyi_ms = (comms <= SCALING_XYI_MAX_COMMS).then(|| {
        timed(&|cs, scratch| {
            let _ = XyImprover::default().route_queued_with(cs, &model, scratch);
        })
    });
    let ig_ms = timed(&|cs, scratch| {
        let _ = ImprovedGreedy::default().route_indexed_with(cs, &model, scratch);
    });
    ScalingPoint {
        rows,
        cols,
        comms,
        crosschecked,
        repeats,
        pr_ms,
        xyi_ms,
        ig_ms,
    }
}

/// Least-squares slope (and r²) of `ln(ms)` vs `ln(comms)` over the grid.
fn scaling_fit(
    engine: &str,
    points: &[ScalingPoint],
    ms_of: fn(&ScalingPoint) -> Option<f64>,
) -> ScalingFit {
    let xy: Vec<(f64, f64)> = points
        .iter()
        .filter_map(|p| ms_of(p).map(|ms| ((p.comms as f64).ln(), ms.ln())))
        .collect();
    let n = xy.len() as f64;
    let (mx, my) = (
        xy.iter().map(|(x, _)| x).sum::<f64>() / n,
        xy.iter().map(|(_, y)| y).sum::<f64>() / n,
    );
    let sxy: f64 = xy.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xy.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let syy: f64 = xy.iter().map(|(_, y)| (y - my) * (y - my)).sum();
    ScalingFit {
        engine: engine.into(),
        exponent: sxy / sxx,
        r2: if syy == 0.0 {
            1.0
        } else {
            sxy * sxy / (sxx * syy)
        },
    }
}

/// Times the large-mesh incremental-serve probe: a resident session loaded
/// with `comms` local communications, then `mutations` remove/re-add pairs
/// timed per operation.
fn measure_scaling_serve(
    rows: usize,
    cols: usize,
    comms: usize,
    mutations: usize,
    seed: u64,
) -> ScalingServe {
    let mesh = pamr_mesh::Mesh::new(rows, cols);
    let model = pamr_bench::model();
    let cs = pamr_bench::length_instance(&mesh, comms, 100.0, 800.0, SCALING_PATH_LEN, seed);
    let mut session = RoutingSession::new(mesh, model, SessionConfig::default());
    let mut handles: Vec<_> = cs.comms().iter().map(|c| session.add_comm(*c)).collect();
    let escalations_before = session.stats().escalations;
    let (mut total_ms, mut max_ms, mut ops) = (0.0f64, 0.0f64, 0u32);
    let mut timed_op = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total_ms += ms;
        max_ms = max_ms.max(ms);
        ops += 1;
    };
    for k in 0..mutations {
        // Deterministic rotation through the live set (coprime stride).
        let idx = (k * 7919) % handles.len();
        let h = handles[idx];
        let mut removed = None;
        timed_op(&mut || removed = session.remove_comm(h));
        let c = removed.expect("handle is live");
        let mut re_added = None;
        timed_op(&mut || re_added = Some(session.add_comm(c)));
        handles[idx] = re_added.expect("just set");
    }
    ScalingServe {
        rows,
        cols,
        comms,
        path_len: SCALING_PATH_LEN,
        mutations,
        mean_mutation_ms: total_ms / ops as f64,
        max_mutation_ms: max_ms,
        escalations: session.stats().escalations - escalations_before,
    }
}

/// The `scaling` lane (`pamr-bench scaling`): the mesh-size × comm-count
/// grid, per-engine asymptotic fits and the large-mesh serve probe, merged
/// into `BENCH_summary.json`. `--check-only` runs only the oracle
/// cross-checks on the sub-cutoff points and writes nothing — the CI
/// determinism job's scaling-smoke gate.
fn cmd_scaling(args: &[String]) {
    let profile = opt(args, "--profile").unwrap_or_else(|| "smoke".into());
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());
    let check_only = args.iter().any(|a| a == "--check-only");
    // Mesh area and comm count scale together (×4 per step): one scale
    // parameter for the log–log fits.
    let grid: Vec<(usize, usize, usize)> = match profile.as_str() {
        "smoke" => vec![(8, 8, 80), (16, 16, 320), (32, 32, 1280)],
        "full" => vec![
            (8, 8, 80),
            (16, 16, 320),
            (32, 32, 1280),
            (64, 64, 5120),
            (128, 128, 20480),
            (256, 256, 100_000),
        ],
        // Serve probe only — the 256×256/10⁴ incremental re-route figure
        // without the multi-minute engine grid in front of it.
        "serve" => Vec::new(),
        other => {
            eprintln!("unknown profile {other:?} (smoke|full|serve)");
            std::process::exit(2);
        }
    };
    let (srv_rows, srv_cols, srv_comms) = match profile.as_str() {
        "smoke" => (64, 64, 1_000),
        _ => (256, 256, 10_000),
    };

    eprintln!(
        "pamr-bench scaling: profile {profile}, {} grid points, len-{SCALING_PATH_LEN} local \
         traffic{}",
        grid.len(),
        if check_only { ", cross-check only" } else { "" }
    );
    let mut points = Vec::new();
    for &(rows, cols, comms) in &grid {
        let p = measure_scaling_point(rows, cols, comms, seed, check_only);
        if check_only {
            eprintln!(
                "  {rows}×{cols}/{comms}: {}",
                if p.crosschecked {
                    "bit-identical to the reference engines"
                } else {
                    "above the oracle cutoff (not checked)"
                }
            );
        } else {
            let capped = |ms: Option<f64>| match ms {
                Some(ms) => format!("{ms:.2} ms"),
                None => "capped".into(),
            };
            eprintln!(
                "  {rows}×{cols}/{comms}: {}PR {}, XYI {}, IG {:.2} ms",
                if p.crosschecked { "[checked] " } else { "" },
                capped(p.pr_ms),
                capped(p.xyi_ms),
                p.ig_ms
            );
        }
        points.push(p);
    }
    if check_only {
        println!(
            "scaling check: OK ({} points bit-identical to the reference engines)",
            points.iter().filter(|p| p.crosschecked).count()
        );
        return;
    }
    // A slope needs at least two grid points; the serve profile has none.
    let fits = if points.len() >= 2 {
        vec![
            scaling_fit("pr", &points, |p| p.pr_ms),
            scaling_fit("xyi", &points, |p| p.xyi_ms),
            scaling_fit("ig", &points, |p| Some(p.ig_ms)),
        ]
    } else {
        Vec::new()
    };
    for f in &fits {
        eprintln!(
            "  fit {}: exponent {:.2} (r² {:.3})",
            f.engine, f.exponent, f.r2
        );
    }
    let serve = measure_scaling_serve(srv_rows, srv_cols, srv_comms, 200, seed);
    eprintln!(
        "  serve {}×{}/{}: mean {:.3} ms, max {:.3} ms per mutation, {} escalations",
        serve.rows,
        serve.cols,
        serve.comms,
        serve.mean_mutation_ms,
        serve.max_mutation_ms,
        serve.escalations
    );
    let bench = ScalingBench {
        profile,
        seed,
        path_len: SCALING_PATH_LEN,
        points,
        fits,
        serve,
    };

    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "pamr-bench scaling: existing {out} does not parse as a bench report \
                     ({e}); replacing it with a scaling-only report"
                );
                None
            }
        })
        .unwrap_or_else(|| empty_report("scaling", seed));
    report.scaling = Some(bench);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
}

/// The focused bi-objective lane (`pamr-bench frontier`): a bigger sample
/// of the pooled-vs-sequential sweep measurement `run` records, merged
/// into `BENCH_summary.json` like the engine lanes.
fn cmd_frontier(args: &[String]) {
    let comms: usize = opt(args, "--comms")
        .map(|s| s.parse().expect("--comms needs a positive integer"))
        .unwrap_or(80);
    assert!(comms > 0, "--comms must be positive");
    let segments: usize = opt(args, "--segments")
        .map(|s| s.parse().expect("--segments needs a positive integer"))
        .unwrap_or(32);
    assert!(segments > 0, "--segments must be positive");
    let split: usize = opt(args, "--split")
        .map(|s| s.parse().expect("--split needs an integer"))
        .unwrap_or(2);
    let repeats: usize = opt(args, "--repeats")
        .map(|s| s.parse().expect("--repeats needs a positive integer"))
        .unwrap_or(5);
    assert!(repeats > 0, "--repeats must be positive");
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_summary.json".into());

    eprintln!(
        "pamr-bench frontier: {comms} comms × {segments} segments (split {split}) × \
         {repeats} repeat(s), pooled sweep vs sequential solver"
    );
    let bench = measure_frontier(comms, segments, split, repeats, seed);
    eprintln!(
        "pamr-bench frontier: sequential {:.3} ms/sweep, pooled {:.3} ms/sweep, \
         speedup {:.2}x, {} Pareto point(s), sets identical → {out}",
        bench.sequential_ms, bench.pooled_ms, bench.speedup, bench.pareto_points
    );

    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "pamr-bench frontier: existing {out} does not parse as a bench report \
                     ({e}); replacing it with a frontier-only report"
                );
                None
            }
        })
        .unwrap_or_else(|| empty_report("frontier", seed));
    report.frontier = Some(bench);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
}

/// The multi-process shard lane's report (`BENCH_shard.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardBenchReport {
    /// Report format version.
    schema: u32,
    /// Number of concurrent shard processes in the sharded pass.
    shards: usize,
    /// Trials per sweep point.
    trials: usize,
    /// Master seed.
    seed: u64,
    /// Wall time of one process running the whole campaign + merge, ms.
    wall_ms_single: f64,
    /// Wall time of N concurrent shard processes + merge, ms.
    wall_ms_sharded: f64,
    /// Of which, the merge step alone (sharded pass), ms.
    merge_ms: f64,
    /// `wall_ms_single / wall_ms_sharded`.
    speedup: f64,
    /// Both pipelines printed byte-identical §6.4 reports.
    reports_identical: bool,
}

/// Times the 1-process vs N-process sharded campaign by driving the `pamr`
/// binary (`shard` + `merge` subcommands) as real child processes.
fn cmd_shard(args: &[String]) {
    let shards: usize = opt(args, "--shards")
        .map(|s| s.parse().expect("--shards needs a positive integer"))
        .unwrap_or(2);
    assert!(shards > 0, "--shards must be positive");
    let trials: usize = opt(args, "--trials")
        .map(|s| s.parse().expect("--trials needs a positive integer"))
        .unwrap_or(10);
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().expect("--seed needs an integer"))
        .unwrap_or(0xC0FFEE);
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_shard.json".into());
    let pamr = opt(args, "--pamr")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            // Default: the `pamr` binary next to this one in the target dir.
            let mut p = std::env::current_exe().expect("current_exe");
            p.set_file_name("pamr");
            p
        });
    assert!(
        pamr.exists(),
        "pamr binary not found at {} (pass --pamr PATH)",
        pamr.display()
    );

    let dir = std::env::temp_dir().join(format!("pamr_bench_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard scratch dir");
    let part = |i: usize, n: usize| dir.join(format!("part_{i}_of_{n}.json"));

    let shard_args = |i: usize, n: usize| {
        vec![
            "shard".to_string(),
            "--shard".into(),
            format!("{i}/{n}"),
            "--trials".into(),
            trials.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--out".into(),
            part(i, n).display().to_string(),
        ]
    };
    let merge = |paths: &[std::path::PathBuf]| -> String {
        let out = Command::new(&pamr)
            .arg("merge")
            .args(paths)
            .output()
            .expect("spawn pamr merge");
        assert!(
            out.status.success(),
            "pamr merge failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("merge output is UTF-8")
    };

    eprintln!("pamr-bench shard: {trials} trials/point, 1 process vs {shards} processes");

    // Pass 1: the whole campaign in one process, then the (trivial) merge.
    let start = Instant::now();
    let status = Command::new(&pamr)
        .args(shard_args(0, 1))
        .status()
        .expect("spawn pamr shard 0/1");
    assert!(status.success(), "pamr shard 0/1 failed");
    let report_single = merge(&[part(0, 1)]);
    let wall_ms_single = start.elapsed().as_secs_f64() * 1e3;

    // Pass 2: N concurrent shard processes, then the real merge.
    let start = Instant::now();
    let children: Vec<_> = (0..shards)
        .map(|i| {
            Command::new(&pamr)
                .args(shard_args(i, shards))
                .spawn()
                .unwrap_or_else(|e| panic!("spawn pamr shard {i}/{shards}: {e}"))
        })
        .collect();
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait for shard process");
        assert!(status.success(), "pamr shard {i}/{shards} failed");
    }
    let merge_start = Instant::now();
    let parts: Vec<_> = (0..shards).map(|i| part(i, shards)).collect();
    let report_sharded = merge(&parts);
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3;
    let wall_ms_sharded = start.elapsed().as_secs_f64() * 1e3;

    let reports_identical = report_single == report_sharded;
    assert!(
        reports_identical,
        "sharded report diverged from the single-process report:\n--- single\n{report_single}\n--- sharded\n{report_sharded}"
    );

    let report = ShardBenchReport {
        schema: 1,
        shards,
        trials,
        seed,
        wall_ms_single,
        wall_ms_sharded,
        merge_ms,
        speedup: wall_ms_single / wall_ms_sharded,
        reports_identical,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
    eprintln!(
        "pamr-bench shard: single {wall_ms_single:.0} ms, {shards}-process {wall_ms_sharded:.0} ms \
         (merge {merge_ms:.0} ms), speedup {:.2}x, reports identical → {out}",
        report.speedup
    );
    let _ = std::fs::remove_dir_all(&dir);
}
