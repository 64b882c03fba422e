//! Bi-objective power × max-hop-latency frontier (ε-constraint
//! scalarization).
//!
//! The paper optimises power alone; every routing also has a **latency**:
//! a link running at effective bandwidth `b` forwards one unit in `1/b`
//! time, a communication's latency is the (worst-path) sum of its links'
//! latencies, and a routing's latency is the maximum over communications.
//! Under discrete frequency scaling the two objectives genuinely trade
//! off — running a link *above* its load-minimal level burns more power
//! but lowers its hop latency — so the interesting object is the Pareto
//! frontier.
//!
//! The frontier is computed by ε-constraint scalarization: a range of
//! latency budgets (the **segments**) is fixed, and each segment is solved
//! independently — for every candidate routing (the six §6 policies plus
//! the [`FwMp`] rounder), links on the critical path are greedily uplifted
//! to the next frequency level, best latency-gain-per-power-cost first,
//! until the budget is met. Segments are embarrassingly parallel (each
//! touches only its own budget), which is exactly the shape the `pamr-sim`
//! work pool fans out; the per-segment point lists are then merged and
//! [dominance-filtered](pareto_filter) into a deterministic Pareto set.
//! Everything here is pure and single-threaded so that a sharded run can
//! be byte-identical to a 1-process run.
//!
//! Under continuous scaling the load-minimal level is also the
//! latency-minimal one for a fixed routing (uplift has no discrete step to
//! buy), so the frontier degenerates to the portfolio's non-dominated
//! base points.
//!
//! ## Dense state
//!
//! Link latencies live in a table indexed by link slot (0 on idle links),
//! shared by the base point, the tightest latency and the uplift. The
//! greedy uplift (`greedy_uplift`) also keeps each link's level in a
//! slot-indexed array, flattens the candidate's `(comm, flow)` paths once
//! into a CSR link list with a link → crossing-paths index, and caches
//! every path's latency. An uplift changes one link's latency, so only the
//! paths crossing that link are re-summed; the critical path is then
//! found by rescanning the cached latencies.
//!
//! ## Bit identity
//!
//! A path latency is always the same `.sum()` over the path's link
//! latencies in path order, so a cached value has the bits a full re-walk
//! would give, and the critical path is the first one, in `(comm, flow)`
//! order, strictly above every earlier one. Per-level terms (`1/level`,
//! `(level·unit)^α`, the uplift score) are tabulated once, each the same
//! expression a per-link evaluation would compute, and the final power
//! sums the active links in ascending link order. Caching therefore
//! changes no frontier bit; `crates/sim/tests/frontier_golden.rs` pins
//! them.

use crate::comm::CommSet;
use crate::heuristic::HeuristicKind;
use crate::multipath::FwMp;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::LinkId;
use pamr_power::{FrequencyScale, PowerModel};
use serde::{Deserialize, Serialize};

/// Relative slack on latency-budget comparisons, mirroring the capacity
/// slack of the power model.
const LATENCY_EPS: f64 = 1e-9;

/// One latency budget of the ε-constraint sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Position in the sweep (`0..segments`), tightest budget first.
    pub index: usize,
    /// Maximum admissible routing latency (see the [module docs](self)).
    pub budget: f64,
}

/// One point of the power × latency plane: a routing (identified by its
/// label) with a frequency-level assignment meeting a latency budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Total power at the chosen levels (leakage + dynamic).
    pub power: f64,
    /// Routing latency at the chosen levels.
    pub latency: f64,
    /// Candidate routing that produced the point ("XY", "PR",
    /// "FW-MP(s=2)", …).
    pub label: String,
}

/// A candidate routing competing on the frontier.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Display label ("XY" … "PR", "FW-MP(s=…)").
    pub label: String,
    /// The routing (fixed across the sweep; only link levels vary).
    pub routing: Routing,
}

/// One frontier instance: the communications, the model, and the sweep
/// shape.
#[derive(Debug, Clone, Copy)]
pub struct FrontierProblem<'a> {
    /// The instance.
    pub cs: &'a CommSet,
    /// The power model (its scale decides whether uplift exists).
    pub model: &'a PowerModel,
    /// Number of ε-constraint budgets.
    pub segments: usize,
    /// Path bound of the [`FwMp`] candidate; `< 2` drops the multi-path
    /// candidate and sweeps the 1-MP portfolio only.
    pub split: usize,
}

impl FrontierProblem<'_> {
    /// The candidate routings, in deterministic order: the six §6 policies,
    /// then (for `split ≥ 2`) the Frank–Wolfe s-MP rounder.
    pub fn candidates(&self, scratch: &mut RouteScratch) -> Vec<Candidate> {
        let portfolio: Vec<Routing> = HeuristicKind::ALL
            .iter()
            .map(|kind| kind.route_with(self.cs, self.model, scratch))
            .collect();
        // FW-MP's 1-MP floor is exactly these six routings: hand them over
        // instead of routing the portfolio a second time.
        let fwmp = (self.split >= 2).then(|| Candidate {
            label: format!("FW-MP(s={})", self.split),
            routing: FwMp::new(self.split).route_over(self.cs, self.model, &portfolio),
        });
        HeuristicKind::ALL
            .iter()
            .zip(portfolio)
            .map(|(kind, routing)| Candidate {
                label: kind.name().to_string(),
                routing,
            })
            .chain(fwmp)
            .collect()
    }

    /// The sweep's budgets: `segments` values linearly spaced from the
    /// tightest achievable latency (every active link at the top level,
    /// minimized over feasible candidates) to the loosest needed one (the
    /// largest load-minimal latency). Empty when no candidate is feasible.
    pub fn segment_budgets(&self, candidates: &[Candidate]) -> Vec<Segment> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for cand in candidates {
            let Some((_, base_lat)) = base_point(self.cs, self.model, &cand.routing) else {
                continue;
            };
            hi = hi.max(base_lat);
            lo = lo.min(min_latency(self.cs, self.model, &cand.routing).unwrap_or(base_lat));
        }
        if !hi.is_finite() || self.segments == 0 {
            return Vec::new();
        }
        (0..self.segments)
            .map(|index| {
                let t = if self.segments == 1 {
                    1.0
                } else {
                    index as f64 / (self.segments - 1) as f64
                };
                Segment {
                    index,
                    budget: lo + (hi - lo) * t,
                }
            })
            .collect()
    }

    /// Solves one segment: for every candidate, the cheapest level
    /// assignment meeting the budget (greedy uplift; see the
    /// [module docs](self)). Candidates that cannot meet the budget (or
    /// are infeasible outright) contribute no point. Pure and
    /// deterministic — the fan-out unit of the `pamr frontier` pool.
    pub fn solve_segment(&self, candidates: &[Candidate], segment: Segment) -> Vec<FrontierPoint> {
        candidates
            .iter()
            .filter_map(|cand| self.point_under_budget(cand, segment.budget))
            .collect()
    }

    fn point_under_budget(&self, cand: &Candidate, budget: f64) -> Option<FrontierPoint> {
        match &self.model.scale {
            FrequencyScale::Continuous => {
                let (power, latency) = base_point(self.cs, self.model, &cand.routing)?;
                (latency <= budget * (1.0 + LATENCY_EPS) + f64::MIN_POSITIVE).then(|| {
                    FrontierPoint {
                        power,
                        latency,
                        label: cand.label.clone(),
                    }
                })
            }
            FrequencyScale::Discrete(levels) => {
                greedy_uplift(self.cs, self.model, levels, cand, budget)
            }
        }
    }
}

/// Per-slot latency table of a routing: `latency(load)` on every link
/// with positive load, 0 on idle links; `None` when `latency` rejects some
/// load.
fn latency_table(
    cs: &CommSet,
    routing: &Routing,
    latency: impl Fn(f64) -> Option<f64>,
) -> Option<Vec<f64>> {
    let loads = routing.loads(cs);
    let mut table = vec![0.0; cs.mesh().num_link_slots()];
    for (l, load) in loads.iter_active() {
        table[l.index()] = latency(load)?;
    }
    Some(table)
}

/// Power and latency of a routing at its load-minimal levels; `None` when
/// some link is overloaded.
fn base_point(cs: &CommSet, model: &PowerModel, routing: &Routing) -> Option<(f64, f64)> {
    let power = routing.power(cs, model).ok()?.total();
    let table = latency_table(cs, routing, |load| {
        Some(1.0 / model.effective_bandwidth(load)?)
    })?;
    Some((power, routing_latency(cs, routing, &table)))
}

/// Tightest latency reachable for a fixed routing: every active link at
/// the top discrete level (`None` under continuous scaling: the base point
/// is already tight).
fn min_latency(cs: &CommSet, model: &PowerModel, routing: &Routing) -> Option<f64> {
    let FrequencyScale::Discrete(levels) = &model.scale else {
        return None;
    };
    let top = *levels.last()?;
    let table = latency_table(cs, routing, |_| Some(1.0 / top))?;
    Some(routing_latency(cs, routing, &table))
}

/// Latency of one path: its links' latencies summed in path order.
fn path_latency(links: impl Iterator<Item = LinkId>, table: &[f64]) -> f64 {
    links.map(|l| table[l.index()]).sum()
}

/// The largest of `latencies` and the index of the first one achieving it
/// (the first strictly above every earlier one; `(0.0, 0)` when none is
/// positive).
fn critical(latencies: impl Iterator<Item = f64>) -> (f64, usize) {
    let mut worst = 0.0f64;
    let mut at = 0usize;
    for (k, lat) in latencies.enumerate() {
        if lat > worst {
            worst = lat;
            at = k;
        }
    }
    (worst, at)
}

/// The routing latency under a per-slot latency table: the worst path
/// latency over every `(comm, flow)` pair. Idle comms contribute zero.
fn routing_latency(cs: &CommSet, routing: &Routing, table: &[f64]) -> f64 {
    let mesh = cs.mesh();
    let paths = routing.all_flows().iter().flatten();
    critical(paths.map(|(path, _)| path_latency(path.links(mesh), table))).0
}

/// A candidate's `(comm, flow)` paths flattened in that order into one CSR
/// link list, with the inverse index link slot → crossing paths.
struct FlatPaths {
    /// Path `k`'s links are `links[off[k]..off[k + 1]]`, in path order.
    off: Vec<u32>,
    links: Vec<LinkId>,
    /// Paths crossing slot `s` are `crossing[cross_off[s]..cross_off[s + 1]]`.
    cross_off: Vec<u32>,
    crossing: Vec<u32>,
}

impl FlatPaths {
    fn new(cs: &CommSet, routing: &Routing) -> Self {
        let mesh = cs.mesh();
        let mut off = vec![0u32];
        let mut links = Vec::new();
        for (path, _) in routing.all_flows().iter().flatten() {
            links.extend(path.links(mesh));
            off.push(links.len() as u32);
        }
        // Counting sort of (link, path) pairs by link slot; paths stay in
        // ascending order within a slot. A Manhattan path crosses a link
        // at most once.
        let mut cross_off = vec![0u32; mesh.num_link_slots() + 1];
        for l in &links {
            cross_off[l.index() + 1] += 1;
        }
        for s in 1..cross_off.len() {
            cross_off[s] += cross_off[s - 1];
        }
        let mut cursor = cross_off.clone();
        let mut crossing = vec![0u32; links.len()];
        for (k, w) in off.windows(2).enumerate() {
            for l in &links[w[0] as usize..w[1] as usize] {
                let c = &mut cursor[l.index()];
                crossing[*c as usize] = k as u32;
                *c += 1;
            }
        }
        FlatPaths {
            off,
            links,
            cross_off,
            crossing,
        }
    }

    fn len(&self) -> usize {
        self.off.len() - 1
    }

    fn path(&self, k: usize) -> &[LinkId] {
        &self.links[self.off[k] as usize..self.off[k + 1] as usize]
    }

    fn crossing(&self, l: LinkId) -> &[u32] {
        &self.crossing[self.cross_off[l.index()] as usize..self.cross_off[l.index() + 1] as usize]
    }
}

/// Level index of a link carrying no load.
const IDLE: usize = usize::MAX;

/// Greedy ε-constraint solve for one candidate under a discrete scale:
/// start from the load-minimal level of every active link and repeatedly
/// uplift one link on the critical path — the one buying the most latency
/// per unit of extra power (ties to the first in path order) — until the
/// budget is met or the critical path has nothing left to uplift.
fn greedy_uplift(
    cs: &CommSet,
    model: &PowerModel,
    levels: &[f64],
    cand: &Candidate,
    budget: f64,
) -> Option<FrontierPoint> {
    let loads = cand.routing.loads(cs);
    // Per-level terms, tabulated once: each is a pure function of the level.
    let inv: Vec<f64> = levels.iter().map(|&lv| 1.0 / lv).collect();
    let level_pow: Vec<f64> = levels
        .iter()
        .map(|&lv| (lv * model.load_unit).powf(model.alpha))
        .collect();
    // Latency bought per unit of extra power by uplifting from level `i`.
    let score: Vec<f64> = (0..levels.len().saturating_sub(1))
        .map(|i| {
            let d_lat = inv[i] - inv[i + 1];
            let d_pow = model.p0 * (level_pow[i + 1] - level_pow[i]);
            d_lat / d_pow.max(f64::MIN_POSITIVE)
        })
        .collect();
    // Load-minimal level index per active link (ascending link order); an
    // unservable load makes the whole candidate infeasible.
    let slots = cs.mesh().num_link_slots();
    let mut level = vec![IDLE; slots];
    let mut latency = vec![0.0; slots];
    let slack = model.capacity * pamr_power::model::CAPACITY_EPS;
    for (l, load) in loads.iter_active() {
        let idx = levels.iter().position(|&lv| load <= lv + slack)?;
        level[l.index()] = idx;
        latency[l.index()] = inv[idx];
    }
    let paths = FlatPaths::new(cs, &cand.routing);
    let mut path_lat: Vec<f64> = (0..paths.len())
        .map(|k| path_latency(paths.path(k).iter().copied(), &latency))
        .collect();
    let allowed = budget * (1.0 + LATENCY_EPS) + f64::MIN_POSITIVE;
    loop {
        let (lat, crit) = critical(path_lat.iter().copied());
        if lat <= allowed {
            let power: f64 = level
                .iter()
                .filter(|&&i| i != IDLE)
                .map(|&i| model.p_leak + model.p0 * level_pow[i])
                .sum();
            return Some(FrontierPoint {
                power,
                latency: lat,
                label: cand.label.clone(),
            });
        }
        // Best uplift on the critical path: max Δlatency/Δpower, ties to
        // the first link in path order (replace only on a strict
        // improvement).
        let mut best: Option<(f64, LinkId)> = None;
        for &l in paths.path(crit) {
            let i = level[l.index()];
            if i == IDLE || i + 1 >= levels.len() {
                continue;
            }
            if best.is_none_or(|(s, _)| score[i] > s) {
                best = Some((score[i], l));
            }
        }
        let (_, uplift) = best?; // critical path saturated: budget unreachable
        let u = uplift.index();
        level[u] += 1;
        latency[u] = inv[level[u]];
        for &k in paths.crossing(uplift) {
            let k = k as usize;
            path_lat[k] = path_latency(paths.path(k).iter().copied(), &latency);
        }
    }
}

/// Keeps the non-dominated points, in deterministic order: ascending
/// latency ([`f64::total_cmp`]), then ascending power, then label. A point
/// is dropped iff some other point has `latency ≤` **and** `power ≤` with
/// at least one strict (exact duplicates keep the lexicographically
/// smallest label).
pub fn pareto_filter(mut points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    points.sort_by(|a, b| {
        a.latency
            .total_cmp(&b.latency)
            .then(a.power.total_cmp(&b.power))
            .then(a.label.cmp(&b.label))
    });
    let mut out: Vec<FrontierPoint> = Vec::new();
    let mut best_power = f64::INFINITY;
    for p in points {
        // Sorted by latency: every earlier point has latency ≤ p's, so p
        // survives iff it strictly beats the best power seen so far.
        if p.power < best_power {
            best_power = p.power;
            out.push(p);
        }
    }
    out
}

/// The full frontier of a problem, single-threaded: route the candidates,
/// sweep every segment, merge and dominance-filter. The parallel
/// `pamr frontier` pipeline must produce byte-identical output.
pub fn frontier_points(problem: &FrontierProblem) -> Vec<FrontierPoint> {
    let mut scratch = RouteScratch::new();
    let candidates = problem.candidates(&mut scratch);
    let segments = problem.segment_budgets(&candidates);
    let mut all = Vec::new();
    for seg in segments {
        all.extend(problem.solve_segment(&candidates, seg));
    }
    pareto_filter(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::{Coord, Mesh};

    fn kh_instance() -> CommSet {
        CommSet::new(
            Mesh::new(4, 4),
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 900.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1400.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 3), 600.0),
            ],
        )
    }

    #[test]
    fn frontier_is_dominance_free_and_sorted() {
        let cs = kh_instance();
        let model = PowerModel::kim_horowitz();
        let problem = FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 8,
            split: 2,
        };
        let pts = frontier_points(&problem);
        assert!(!pts.is_empty(), "feasible instance must yield points");
        for w in pts.windows(2) {
            assert!(w[0].latency <= w[1].latency, "latency must ascend");
            assert!(w[1].power < w[0].power, "power must strictly descend");
        }
    }

    #[test]
    fn tighter_budgets_cost_power() {
        // The tightest segment runs links above their load-minimal level,
        // so its cheapest point must cost at least as much as the loosest
        // segment's (and strictly more when an uplift actually happened).
        let cs = kh_instance();
        let model = PowerModel::kim_horowitz();
        let problem = FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 6,
            split: 0,
        };
        let mut scratch = RouteScratch::new();
        let cands = problem.candidates(&mut scratch);
        let segs = problem.segment_budgets(&cands);
        let tight = problem.solve_segment(&cands, segs[0]);
        let loose = problem.solve_segment(&cands, *segs.last().unwrap());
        let min_p =
            |pts: &[FrontierPoint]| pts.iter().map(|p| p.power).fold(f64::INFINITY, f64::min);
        assert!(!loose.is_empty());
        if !tight.is_empty() {
            assert!(min_p(&tight) >= min_p(&loose));
        }
    }

    #[test]
    fn continuous_scale_yields_portfolio_points_only() {
        let cs = kh_instance();
        let model = PowerModel::kim_horowitz_continuous();
        let problem = FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 5,
            split: 2,
        };
        let pts = frontier_points(&problem);
        assert!(!pts.is_empty());
        // No uplift exists, so every point is a candidate base point and
        // the Pareto set is at most the candidate count.
        assert!(pts.len() <= 7);
    }

    #[test]
    fn pareto_filter_drops_dominated_and_duplicate_points() {
        let p = |power: f64, latency: f64, label: &str| FrontierPoint {
            power,
            latency,
            label: label.to_string(),
        };
        let pts = pareto_filter(vec![
            p(10.0, 1.0, "a"),
            p(9.0, 2.0, "b"),
            p(11.0, 2.0, "dominated"),
            p(9.0, 2.0, "b-dup"),
            p(8.0, 3.0, "c"),
        ]);
        let labels: Vec<_> = pts.iter().map(|q| q.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"], "got {labels:?}");
    }

    #[test]
    fn infeasible_instance_has_an_empty_frontier() {
        let cs = CommSet::new(
            Mesh::new(2, 2),
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 9000.0)],
        );
        let model = PowerModel::kim_horowitz(); // top level 3500 < 9000
        let problem = FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 4,
            split: 2,
        };
        assert!(frontier_points(&problem).is_empty());
    }
}
