//! The figure definitions of §6 (the sweep runner lives in
//! [`crate::campaign`]).

use crate::campaign::{Campaign, ShardSpec};
use crate::stats::PointStats;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::CommSet;
use pamr_workload::{LengthTargetedWorkload, UniformWorkload};
use rand::rngs::SmallRng;
use serde::Serialize;

/// The workload of one sweep point.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum WorkloadSpec {
    /// Uniform random sources/sinks and weights (Figures 7 & 8).
    Uniform(UniformWorkload),
    /// Length-targeted source/sink pairs (Figure 9).
    Length(LengthTargetedWorkload),
}

impl WorkloadSpec {
    /// Draws one instance.
    pub fn generate(&self, mesh: &Mesh, rng: &mut SmallRng) -> CommSet {
        match self {
            WorkloadSpec::Uniform(w) => w.generate(mesh, rng),
            WorkloadSpec::Length(w) => w.generate(mesh, rng),
        }
    }
}

/// One x-position of a figure.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// The x-value the paper plots (number / average weight / length).
    pub x: f64,
    /// The generator at this x.
    pub workload: WorkloadSpec,
}

/// One sub-figure: an id, a description and its sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Short id, e.g. `"fig7a"`.
    pub id: &'static str,
    /// Human-readable title (the paper's caption).
    pub title: &'static str,
    /// Label of the swept parameter.
    pub xlabel: &'static str,
    /// The sweep.
    pub points: Vec<SweepPoint>,
}

/// Results of a full sweep: per point, the accumulated statistics.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// The experiment id.
    pub id: &'static str,
    /// `(x, stats)` per sweep point.
    pub points: Vec<(f64, PointStats)>,
}

/// Figure 7: sensitivity to the **number** of communications.
///
/// * (a) small weights U\[100, 1500\] Mb/s, n ∈ 10..140;
/// * (b) mixed weights U\[100, 2500\], n ∈ 5..70;
/// * (c) big weights U\[2500, 3500\], n ∈ 2..30.
pub fn fig7() -> Vec<Experiment> {
    let mk = |id, title, w_min, w_max, ns: Vec<usize>| Experiment {
        id,
        title,
        xlabel: "number of communications",
        points: ns
            .into_iter()
            .map(|n| SweepPoint {
                x: n as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, w_min, w_max)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig7a",
            "small communications (U[100,1500] Mb/s)",
            100.0,
            1500.0,
            (1..=14).map(|k| 10 * k).collect(),
        ),
        mk(
            "fig7b",
            "mixed communications (U[100,2500] Mb/s)",
            100.0,
            2500.0,
            (1..=14).map(|k| 5 * k).collect(),
        ),
        mk(
            "fig7c",
            "big communications (U[2500,3500] Mb/s)",
            2500.0,
            3500.0,
            (1..=15).map(|k| 2 * k).collect(),
        ),
    ]
}

/// Figure 8: sensitivity to the **size** (weight) of communications.
///
/// The paper's sharp performance cliff at 1750 Mb/s ("as soon as the weight
/// of every communication reaches 1751 Mb/s, two communications cannot
/// share the same link") implies a narrow weight distribution per point; we
/// draw every weight exactly at the swept average (documented in
/// DESIGN.md).
///
/// * (a) 10 communications, w̄ ∈ 100..3500;
/// * (b) 20 communications, same sweep;
/// * (c) 40 communications, w̄ ∈ 100..1800.
pub fn fig8() -> Vec<Experiment> {
    let mk = |id, title, n: usize, ws: Vec<usize>| Experiment {
        id,
        title,
        xlabel: "average weight (Mb/s)",
        points: ws
            .into_iter()
            .map(|w| SweepPoint {
                x: w as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, w as f64, w as f64)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig8a",
            "few communications (10)",
            10,
            (1..=14).map(|k| 250 * k).collect(),
        ),
        mk(
            "fig8b",
            "some communications (20)",
            20,
            (1..=14).map(|k| 250 * k).collect(),
        ),
        mk(
            "fig8c",
            "numerous communications (40)",
            40,
            (1..=12).map(|k| 150 * k).collect(),
        ),
    ]
}

/// Figure 9: sensitivity to the average **length** of communications.
///
/// * (a) 100 small communications U\[200, 800\];
/// * (b) 25 mixed communications U\[100, 3500\];
/// * (c) 12 big communications U\[2700, 3300\];
///
/// lengths swept over 2..14 (the 8×8 diameter).
pub fn fig9() -> Vec<Experiment> {
    let mk = |id, title, n: usize, w_min: f64, w_max: f64| Experiment {
        id,
        title,
        xlabel: "average length",
        points: (2..=14)
            .map(|len| SweepPoint {
                x: len as f64,
                workload: WorkloadSpec::Length(LengthTargetedWorkload::new(n, w_min, w_max, len)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig9a",
            "numerous small communications (100, U[200,800])",
            100,
            200.0,
            800.0,
        ),
        mk(
            "fig9b",
            "some mid-weighted communications (25, U[100,3500])",
            25,
            100.0,
            3500.0,
        ),
        mk(
            "fig9c",
            "few big communications (12, U[2700,3300])",
            12,
            2700.0,
            3300.0,
        ),
    ]
}

/// The canonical figure groups of the pooled §6 campaign, in pooling
/// order. Single source of truth for [`Campaign::run_pooled`] and the
/// shard merge ([`crate::shard`]): both must walk the identical
/// figure → experiment → point sequence for the byte-identity contract
/// to hold.
pub fn campaign_figures() -> [Vec<Experiment>; 3] {
    [fig7(), fig8(), fig9()]
}

/// Runs one experiment: `trials` random instances per sweep point, in
/// parallel, deterministically derived from `seed` (a thin wrapper over
/// [`Campaign::run_experiment`]).
pub fn run_experiment(
    exp: &Experiment,
    mesh: &Mesh,
    model: &PowerModel,
    trials: usize,
    seed: u64,
) -> ExperimentResult {
    let pre = std::sync::Arc::new(pamr_routing::MeshPrecompute::new(*mesh));
    Campaign {
        mesh,
        model,
        trials,
        seed,
        shard: ShardSpec::FULL,
        pre: Some(&pre),
        engine: pamr_routing::EngineConfig::LIVE,
    }
    .run_experiment(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_routing::HeuristicKind;

    #[test]
    fn figure_definitions_cover_paper_ranges() {
        let f7 = fig7();
        assert_eq!(f7.len(), 3);
        assert_eq!(f7[0].points.last().unwrap().x, 140.0);
        assert_eq!(f7[1].points.last().unwrap().x, 70.0);
        assert_eq!(f7[2].points.last().unwrap().x, 30.0);
        let f8 = fig8();
        assert_eq!(f8[0].points.last().unwrap().x, 3500.0);
        assert_eq!(f8[2].points.last().unwrap().x, 1800.0);
        let f9 = fig9();
        for e in &f9 {
            assert_eq!(e.points.first().unwrap().x, 2.0);
            assert_eq!(e.points.last().unwrap().x, 14.0);
        }
    }

    #[test]
    fn small_sweep_runs_and_is_deterministic() {
        let mesh = crate::paper_mesh();
        let model = crate::paper_model();
        let exp = Experiment {
            id: "test",
            title: "test",
            xlabel: "n",
            points: vec![SweepPoint {
                x: 10.0,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(10, 100.0, 1500.0)),
            }],
        };
        let a = run_experiment(&exp, &mesh, &model, 8, 42);
        let b = run_experiment(&exp, &mesh, &model, 8, 42);
        let (x, sa) = &a.points[0];
        let (_, sb) = &b.points[0];
        assert_eq!(*x, 10.0);
        assert_eq!(sa.trials, 8);
        for k in HeuristicKind::ALL {
            assert_eq!(sa.norm_inv(k), sb.norm_inv(k), "{k} non-deterministic");
            assert!(sa.norm_inv(k) <= 1.0 + 1e-12);
        }
        // With 10 small comms, Manhattan heuristics should essentially
        // always find a solution.
        assert!(sa.best_failure_ratio() < 0.5);
    }
}
