//! Frank–Wolfe convex multi-commodity-flow solver: an approximately
//! optimal **max-MP** routing under continuous frequency scaling.
//!
//! The paper leaves "a bound on the optimal solution" as future work
//! (§7). With `P_leak = 0` and continuous frequencies the multi-path
//! problem is a convex min-cost multi-commodity flow over per-communication
//! DAGs (the staircase bands), which Frank–Wolfe solves to arbitrary
//! precision: each iteration routes every communication entirely on its
//! cheapest path under the *marginal* link costs and moves a shrinking step
//! towards that assignment. The duality gap gives a certified lower bound
//! on the optimal dynamic power of **any** Manhattan routing (single- or
//! multi-path), which the simulation harness uses to situate the heuristics
//! in absolute terms.
//!
//! ## Dense state
//!
//! The solver runs on flat arrays, allocated once per [`frank_wolfe`]
//! call:
//!
//! * every communication's [`Band`] is built once, its flat CSR link
//!   array giving the DP a topological order of the band DAG;
//! * each iteration evaluates the marginal cost of every link once, into a
//!   table indexed by link slot, which both the cheapest-path DP and the
//!   duality-gap sum read;
//! * the cheapest-path DP (`BandDp`) keeps its distances, predecessor
//!   links and a reached-stamp in per-core arrays reused by every sweep;
//! * the iterate's loads and the all-or-nothing target are two
//!   [`LoadMap`]s updated in place.
//!
//! ## Bit identity
//!
//! The dense layout changes where values live, never which floating-point
//! operations run or in which order. The marginal cost of a link is a pure
//! function of its load, so tabulating it gives the same bits as
//! evaluating it at every visit. The DP visits band links in CSR order and
//! relaxes a core on the `unreached || cand < dist` test, so ties keep the
//! first path found; each link's target load receives the weights in
//! communication order; the load update and the gap sum run over the links
//! in mesh order. Each communication's flows are a vector of
//! `(moves, rate)` kept sorted by moves (the order of a
//! `BTreeMap<Vec<Step>, f64>`), so every rate sum, pruning pass and
//! listing visits the paths in one fixed order.
//! `crates/sim/tests/frontier_golden.rs` pins the resulting bits.

use crate::comm::CommSet;
use crate::routing::Routing;
use pamr_mesh::{Band, LinkId, LoadMap, Mesh, Path, Step};
use pamr_power::PowerModel;

/// Result of a Frank–Wolfe run.
#[derive(Debug, Clone)]
pub struct FrankWolfeResult {
    /// The fractional multi-path routing found.
    pub routing: Routing,
    /// Its per-link loads.
    pub loads: LoadMap,
    /// Its dynamic power (the objective; leakage ignored).
    pub dynamic_power: f64,
    /// Certified lower bound on the optimal dynamic power of any
    /// Manhattan routing (from the final duality gap).
    pub lower_bound: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Tabulates the marginal dynamic cost of every link slot at its current
/// load, under continuous scaling:
/// `d/dload [P_0 · (load · unit)^α] = α·P_0·unit^α·load^(α−1)`.
///
/// The constant factor is the left-to-right product `α·P_0·unit^α`
/// evaluated once; multiplying it by `load^(α−1)` is the same sequence of
/// operations as evaluating the whole product per link.
fn marginal_table(model: &PowerModel, loads: &LoadMap, out: &mut [f64]) {
    let k = model.alpha * model.p0 * model.load_unit.powf(model.alpha);
    for (slot, m) in out.iter_mut().enumerate() {
        *m = k * loads.get(LinkId(slot)).powf(model.alpha - 1.0);
    }
}

/// Dynamic power of a load map under continuous scaling (no capacity).
fn dynamic_power(model: &PowerModel, loads: &LoadMap) -> f64 {
    loads
        .iter_active()
        .map(|(_, l)| model.p0 * (l * model.load_unit).powf(model.alpha))
        .sum()
}

/// Reusable per-core state of a DP sweep over a communication's [`Band`]:
/// the best value reaching each core, the link it arrived over, and a
/// stamp marking the cores the current sweep has reached (so a sweep never
/// clears the arrays).
#[derive(Debug, Clone)]
pub(crate) struct BandDp {
    mesh: Mesh,
    value: Vec<f64>,
    pred: Vec<LinkId>,
    reached: Vec<u32>,
    stamp: u32,
}

impl BandDp {
    /// Arrays sized for `mesh`'s cores.
    pub(crate) fn new(mesh: &Mesh) -> Self {
        let n = mesh.num_cores();
        BandDp {
            mesh: *mesh,
            value: vec![0.0; n],
            pred: vec![LinkId(0); n],
            reached: vec![0; n],
            stamp: 0,
        }
    }

    /// Dense indices of a link's tail and head cores (`LinkId` encodes
    /// `tail · 4 + step`).
    #[inline]
    fn ends(&self, l: LinkId) -> (usize, usize) {
        let tail = l.index() / 4;
        let head = match self.mesh.link_step(l) {
            Step::Down => tail + self.mesh.cols(),
            Step::Up => tail - self.mesh.cols(),
            Step::Right => tail + 1,
            Step::Left => tail - 1,
        };
        (tail, head)
    }

    /// Sweeps `band`'s links in CSR (diagonal) order — a topological order
    /// of the band DAG — from `seed` at the source. A link out of a reached
    /// core offers `relax(link, tail value)` to its head (no offer when
    /// `relax` returns `None`); the offer is taken when the head is
    /// unreached or `better(offer, head value)`. Returns the sink's value,
    /// `None` when the sweep never reaches it.
    pub(crate) fn sweep(
        &mut self,
        band: &Band,
        seed: f64,
        relax: impl Fn(LinkId, f64) -> Option<f64>,
        better: impl Fn(f64, f64) -> bool,
    ) -> Option<f64> {
        if self.stamp == u32::MAX {
            self.reached.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let src = self.mesh.core_index(band.src());
        self.reached[src] = stamp;
        self.value[src] = seed;
        for l in band.links() {
            let (from, to) = self.ends(l);
            if self.reached[from] != stamp {
                continue;
            }
            let Some(cand) = relax(l, self.value[from]) else {
                continue;
            };
            if self.reached[to] != stamp || better(cand, self.value[to]) {
                self.reached[to] = stamp;
                self.value[to] = cand;
                self.pred[to] = l;
            }
        }
        let snk = self.mesh.core_index(band.snk());
        (self.reached[snk] == stamp).then(|| self.value[snk])
    }

    /// Visits the links of the last sweep's best path, sink to source. Only
    /// meaningful after a sweep of `band` that reached the sink.
    pub(crate) fn trace_back(&self, band: &Band, mut visit: impl FnMut(LinkId)) {
        let src = self.mesh.core_index(band.src());
        let mut cur = self.mesh.core_index(band.snk());
        while cur != src {
            let l = self.pred[cur];
            visit(l);
            cur = self.ends(l).0;
        }
    }

    /// The last sweep's best path, as a move sequence written into `moves`.
    pub(crate) fn moves_into(&self, band: &Band, moves: &mut Vec<Step>) {
        moves.clear();
        self.trace_back(band, |l| moves.push(self.mesh.link_step(l)));
        moves.reverse();
    }
}

/// Cheapest Manhattan path of `band`'s communication under the per-slot
/// `marginal` costs, written into `moves`; every link of the path also
/// receives `weight` in `target`.
fn cheapest_path(
    dp: &mut BandDp,
    band: &Band,
    marginal: &[f64],
    weight: f64,
    target: &mut LoadMap,
    moves: &mut Vec<Step>,
) {
    moves.clear();
    if band.is_empty() {
        return; // core-local: the empty path
    }
    dp.sweep(
        band,
        0.0,
        |l, df| Some(df + marginal[l.index()]),
        |cand, dt| cand < dt,
    );
    dp.trace_back(band, |l| {
        moves.push(dp.mesh.link_step(l));
        target.add(l, weight);
    });
    moves.reverse();
}

/// Runs Frank–Wolfe for `iterations` steps (the classic `2/(k+2)` step
/// size) and returns the fractional multi-path routing, its dynamic power
/// and a certified lower bound on the optimum.
///
/// Only meaningful under **continuous** frequency scaling with negligible
/// leakage; the solver ignores capacities and the discrete levels (it is a
/// bound/ablation tool, not one of the paper's heuristics).
pub fn frank_wolfe(cs: &CommSet, model: &PowerModel, iterations: usize) -> FrankWolfeResult {
    let bands = bands(cs);
    solve(cs, model, iterations, &bands, &mut BandDp::new(cs.mesh()))
}

/// The band of every communication of `cs`, in instance order.
pub(crate) fn bands(cs: &CommSet) -> Vec<Band> {
    cs.comms().iter().map(|c| c.band(cs.mesh())).collect()
}

/// [`frank_wolfe`] over prebuilt bands (one per communication, in instance
/// order) and DP arrays, which the caller may reuse afterwards.
pub(crate) fn solve(
    cs: &CommSet,
    model: &PowerModel,
    iterations: usize,
    bands: &[Band],
    dp: &mut BandDp,
) -> FrankWolfeResult {
    let mesh = cs.mesh();
    debug_assert_eq!(bands.len(), cs.len());
    // flows[i]: (move sequence, rate), sorted by move sequence, so that
    // rate sums, support pruning and the final flow listing follow one
    // fixed order.
    let mut flows: Vec<Vec<(Vec<Step>, f64)>> = vec![Vec::new(); cs.len()];
    let mut loads = LoadMap::new(mesh);
    // Initial all-or-nothing assignment on XY paths.
    for (i, c) in cs.comms().iter().enumerate() {
        let p = Path::xy(c.src, c.snk);
        loads.add_path(mesh, &p, c.weight);
        flows[i].push((p.moves().to_vec(), c.weight));
    }
    let mut marginal = vec![0.0; mesh.num_link_slots()];
    let mut target = LoadMap::new(mesh);
    let mut target_moves: Vec<Vec<Step>> = vec![Vec::new(); cs.len()];
    let mut lower_bound: f64 = 0.0;
    let mut iters_done = 0;
    for k in 0..iterations {
        // All-or-nothing target under current marginal costs.
        marginal_table(model, &loads, &mut marginal);
        target.clear();
        for ((c, band), moves) in cs.comms().iter().zip(bands).zip(&mut target_moves) {
            cheapest_path(dp, band, &marginal, c.weight, &mut target, moves);
        }
        // Duality-gap lower bound: f(x) + ∇f(x)·(y − x) ≤ f(x*).
        let f = dynamic_power(model, &loads);
        let mut gap = 0.0;
        for id in mesh.links() {
            gap += marginal[id.index()] * (target.get(id) - loads.get(id));
        }
        lower_bound = lower_bound.max(f + gap);
        iters_done = k + 1;
        if -gap <= 1e-12 * f.max(1.0) {
            break; // converged
        }
        let gamma = 2.0 / (k as f64 + 2.0);
        // loads ← (1−γ)·loads + γ·target, and likewise for the flows.
        for id in mesh.links() {
            let v = (1.0 - gamma) * loads.get(id) + gamma * target.get(id);
            loads.set(id, if v > 0.0 { v } else { 0.0 });
        }
        for ((fl, c), moves) in flows.iter_mut().zip(cs.comms()).zip(&target_moves) {
            for (_, rate) in fl.iter_mut() {
                *rate *= 1.0 - gamma;
            }
            // A new path starts at the step mass itself (`0.0 + x == x` for
            // the positive mass); only a new path allocates its moves.
            match fl.binary_search_by(|(m, _)| m.as_slice().cmp(moves)) {
                Ok(at) => fl[at].1 += gamma * c.weight,
                Err(at) => fl.insert(at, (moves.clone(), gamma * c.weight)),
            }
            // Drop numerically dead flows to keep the support small.
            fl.retain(|(_, r)| *r > 1e-12 * c.weight);
            // Renormalise the surviving rates to sum exactly to δ.
            let sum: f64 = fl.iter().map(|(_, r)| r).sum();
            let scale = c.weight / sum;
            for (_, rate) in fl.iter_mut() {
                *rate *= scale;
            }
        }
    }
    let routing = Routing::multi(
        flows
            .iter()
            .zip(cs.comms())
            .map(|(fl, c)| {
                let mut v: Vec<(Path, f64)> = fl
                    .iter()
                    .map(|(m, r)| (Path::from_moves(c.src, m.clone()), *r))
                    .collect();
                // total_cmp: bit-identical to partial_cmp on these finite
                // rates, with no NaN panic path; ties keep move order, so
                // the listing is reproducible.
                v.sort_by(|a, b| b.1.total_cmp(&a.1));
                v
            })
            .collect(),
    );
    let dynamic = dynamic_power(model, &loads);
    FrankWolfeResult {
        routing,
        loads,
        dynamic_power: dynamic,
        lower_bound,
        iterations: iters_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn fw_converges_to_even_split_on_fig2() {
        // One communication of weight 4 on a 2×2 mesh: the multi-path
        // optimum splits 2/2 over XY and YX, giving 4·2³ = 32 (with
        // δ = 4 = γ1 + γ2 merged, this is the Fig. 2(c) bound).
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 4.0)],
        );
        let model = PowerModel::theory(3.0);
        let res = frank_wolfe(&cs, &model, 400);
        assert!(
            (res.dynamic_power - 32.0).abs() < 0.5,
            "FW power {} far from optimum 32",
            res.dynamic_power
        );
        assert!(res.lower_bound <= res.dynamic_power + 1e-9);
        assert!(
            res.lower_bound > 31.0,
            "lower bound {} too loose",
            res.lower_bound
        );
        assert!(res.routing.is_structurally_valid(&cs, usize::MAX));
    }

    #[test]
    fn fw_lower_bound_below_single_path_heuristics() {
        use crate::heuristic::Heuristic;
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 2.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 3), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let res = frank_wolfe(&cs, &model, 200);
        let pr = crate::pr::PathRemover.route(&cs, &model);
        let p_pr = pr.power(&cs, &model).unwrap().total();
        assert!(res.lower_bound <= p_pr + 1e-9);
        assert!(
            res.dynamic_power <= p_pr + 1e-9,
            "multi-path must beat single-path"
        );
    }

    #[test]
    fn fw_flow_conservation() {
        let mesh = Mesh::new(3, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(2, 4), 7.0),
                Comm::new(Coord::new(2, 0), Coord::new(0, 4), 3.0),
            ],
        );
        let model = PowerModel::theory(2.5);
        let res = frank_wolfe(&cs, &model, 100);
        for (i, c) in cs.comms().iter().enumerate() {
            let sum: f64 = res.routing.flows(i).iter().map(|(_, r)| r).sum();
            assert!((sum - c.weight).abs() < 1e-6 * c.weight);
        }
    }

    #[test]
    fn cheapest_path_prefers_empty_links() {
        let mesh = Mesh::new(3, 3);
        let model = PowerModel::theory(3.0);
        let mut costs = LoadMap::new(&mesh);
        // Saturate the XY path; the DP must route around it.
        let (src, snk) = (Coord::new(0, 0), Coord::new(2, 2));
        let xy = Path::xy(src, snk);
        costs.add_path(&mesh, &xy, 10.0);
        let mut marginal = vec![0.0; mesh.num_link_slots()];
        marginal_table(&model, &costs, &mut marginal);
        let band = Band::new(&mesh, src, snk);
        let mut target = LoadMap::new(&mesh);
        let mut moves = Vec::new();
        let mut dp = BandDp::new(&mesh);
        cheapest_path(&mut dp, &band, &marginal, 2.0, &mut target, &mut moves);
        let p = Path::from_moves(src, moves);
        assert!(p.is_manhattan(&mesh));
        assert_eq!(p.snk(), snk);
        let crossing: Vec<_> = p.links(&mesh).filter(|l| costs.get(*l) > 0.0).collect();
        assert!(
            crossing.is_empty(),
            "cheapest path re-used loaded links {crossing:?}"
        );
        // The path's links, and only those, received the weight.
        let mut expect = LoadMap::new(&mesh);
        expect.add_path(&mesh, &p, 2.0);
        assert_eq!(target, expect);
    }

    #[test]
    fn dp_arrays_are_reusable_across_sweeps() {
        // One DP reused over different bands (and over stamp wrap-around)
        // finds the same paths as a fresh one.
        let mesh = Mesh::new(4, 5);
        let model = PowerModel::theory(3.0);
        let mut costs = LoadMap::new(&mesh);
        costs.add_path(&mesh, &Path::yx(Coord::new(3, 0), Coord::new(0, 4)), 5.0);
        let mut marginal = vec![0.0; mesh.num_link_slots()];
        marginal_table(&model, &costs, &mut marginal);
        let pairs = [
            (Coord::new(0, 0), Coord::new(3, 4)),
            (Coord::new(3, 0), Coord::new(0, 4)),
            (Coord::new(2, 3), Coord::new(2, 0)),
            (Coord::new(1, 1), Coord::new(1, 1)),
        ];
        let mut shared = BandDp::new(&mesh);
        shared.stamp = u32::MAX - 1;
        for _ in 0..2 {
            for (src, snk) in pairs {
                let band = Band::new(&mesh, src, snk);
                let mut sink = LoadMap::new(&mesh);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                cheapest_path(&mut shared, &band, &marginal, 1.0, &mut sink, &mut a);
                let mut fresh = BandDp::new(&mesh);
                cheapest_path(&mut fresh, &band, &marginal, 1.0, &mut sink, &mut b);
                assert_eq!(a, b, "{src} -> {snk}");
                assert_eq!(Path::from_moves(src, a).snk(), snk);
            }
        }
    }
}
