//! Cross-process shard-and-merge for the §6 campaign.
//!
//! One process per shard runs [`ShardPartial::run`] over the sweep points
//! it owns (`p % count == index`, see [`ShardSpec`]) and serialises the
//! per-point statistics to JSON (`pamr shard --shard i/N --out part_i.json`).
//! A merge step ([`merge_partials`], `pamr merge part_*.json`) recombines
//! the partials and renders the identical §6.4 report.
//!
//! **Byte-determinism.** Two properties make the recombination exact, the
//! same associative-merge structure Pettersson & Ozlen (arXiv:1701.08920)
//! exploit for parallel bi-objective sweeps:
//!
//! * every trial's seed depends only on `(experiment, point, trial)`
//!   indices, so a shard's per-point [`PointStats`] are bit-equal to the
//!   single-process run's;
//! * the merge replays the single-process pooling order — canonical
//!   figure → experiment → point — rather than folding whole shards, so
//!   the floating-point addition sequence is identical, not merely
//!   mathematically equivalent;
//! * the JSON round trip is exact (shortest round-trip float formatting).
//!
//! Hence `pamr shard` × N + `pamr merge` reproduces `summary`'s stdout
//! byte-for-byte, which the CI `shard-merge` job enforces with `diff`.

use crate::campaign::{experiment_seed, Campaign, ShardSpec};
use crate::experiments::{campaign_figures, ExperimentResult};
use crate::stats::PointStats;
use crate::summary::Summary;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::HeuristicKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Format version of the partial-result JSON.
pub const PARTIAL_SCHEMA: u32 = 1;

/// One sweep point's statistics, addressed by its canonical campaign
/// coordinates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialPoint {
    /// Figure group index (0 = fig7, 1 = fig8, 2 = fig9).
    pub figure: usize,
    /// Experiment index within the figure group.
    pub experiment: usize,
    /// Experiment id (`"fig7a"`, ...), for validation and readability.
    pub exp_id: String,
    /// Sweep-point index within the experiment.
    pub point_index: usize,
    /// The x-value the paper plots.
    pub x: f64,
    /// The accumulated trial statistics of this point.
    pub stats: PointStats,
}

/// The serialisable output of one shard of the pooled §6 campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPartial {
    /// Format version ([`PARTIAL_SCHEMA`]).
    pub schema: u32,
    /// This shard's index.
    pub shard_index: usize,
    /// Total number of shards in the campaign.
    pub shard_count: usize,
    /// Trials per sweep point.
    pub trials: usize,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Owned sweep points, in canonical figure → experiment → point order.
    pub points: Vec<PartialPoint>,
}

impl ShardPartial {
    /// Runs this shard's slice of the full §6 campaign (all nine
    /// sub-figures, every owned sweep point).
    pub fn run(
        mesh: &Mesh,
        model: &PowerModel,
        trials: usize,
        seed: u64,
        shard: ShardSpec,
    ) -> ShardPartial {
        let mut points = Vec::new();
        // One shared precompute across every figure/experiment this shard
        // owns — same sharing as the pooled campaign, with no effect on the
        // bit-identity of the partials (tables are pure per-endpoint data).
        let pre = std::sync::Arc::new(pamr_routing::MeshPrecompute::new(*mesh));
        for (fi, fig) in campaign_figures().into_iter().enumerate() {
            for (ei, exp) in fig.iter().enumerate() {
                let sub = Campaign {
                    mesh,
                    model,
                    trials,
                    seed: experiment_seed(seed, fi, ei),
                    shard,
                    pre: Some(&pre),
                    engine: pamr_routing::EngineConfig::LIVE,
                };
                for (pi, point) in exp.points.iter().enumerate() {
                    if shard.owns(pi) {
                        points.push(PartialPoint {
                            figure: fi,
                            experiment: ei,
                            exp_id: exp.id.to_string(),
                            point_index: pi,
                            x: point.x,
                            stats: sub.run_point(pi, point),
                        });
                    }
                }
            }
        }
        ShardPartial {
            schema: PARTIAL_SCHEMA,
            shard_index: shard.index,
            shard_count: shard.count,
            trials,
            seed,
            points,
        }
    }

    /// Serialises to the on-disk JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("partial serialises")
    }

    /// Parses the on-disk JSON form.
    pub fn from_json(text: &str) -> Result<ShardPartial, MergeError> {
        serde_json::from_str(text).map_err(|e| MergeError::Parse(e.to_string()))
    }
}

/// Why a set of shard partials cannot be recombined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No partials were given.
    Empty,
    /// A partial did not parse as JSON of the expected shape.
    Parse(String),
    /// A partial uses an unknown format version.
    Schema {
        /// Version found in the file.
        found: u32,
    },
    /// The partials disagree on trials, seed or shard count.
    Inconsistent(String),
    /// The same shard index appears twice.
    DuplicateShard(usize),
    /// Fewer partials than `shard_count` were given.
    MissingShards(Vec<usize>),
    /// A sweep point is missing, duplicated, or foreign to its shard.
    BadPoint(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard partials to merge"),
            MergeError::Parse(e) => write!(f, "cannot parse shard partial: {e}"),
            MergeError::Schema { found } => {
                write!(
                    f,
                    "unknown partial schema {found} (expected {PARTIAL_SCHEMA})"
                )
            }
            MergeError::Inconsistent(what) => {
                write!(f, "shard partials from different campaigns: {what}")
            }
            MergeError::DuplicateShard(i) => write!(f, "shard {i} appears more than once"),
            MergeError::MissingShards(missing) => {
                write!(f, "missing shard partial(s): {missing:?}")
            }
            MergeError::BadPoint(what) => write!(f, "bad sweep point: {what}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// The recombined campaign: the pooled accumulator plus its provenance.
#[derive(Debug, Clone)]
pub struct MergedCampaign {
    /// Trials per sweep point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// How many shards were recombined.
    pub shard_count: usize,
    /// Every trial of every sweep point, pooled in canonical order.
    pub pooled: PointStats,
}

impl MergedCampaign {
    /// The §6.4 summary view of the recombined campaign.
    pub fn summary(self) -> Summary {
        Summary::from_pooled(self.pooled)
    }
}

/// One sweep point of the fully-validated canonical campaign grid, in
/// figure → experiment → point order.
struct GridPoint<'a> {
    figure: usize,
    experiment: usize,
    x: f64,
    stats: &'a PointStats,
}

/// Campaign header of a validated partial set: `(trials, seed, shard
/// count)`.
type CampaignHeader = (usize, u64, usize);

/// Validates a set of shard partials (same checks as [`merge_partials`])
/// and returns every sweep point of the campaign grid in canonical
/// figure → experiment → point order, together with the campaign header.
fn validate_and_order(
    partials: &[ShardPartial],
) -> Result<(CampaignHeader, Vec<GridPoint<'_>>), MergeError> {
    let first = partials.first().ok_or(MergeError::Empty)?;
    for p in partials {
        if p.schema != PARTIAL_SCHEMA {
            return Err(MergeError::Schema { found: p.schema });
        }
        if p.trials != first.trials {
            return Err(MergeError::Inconsistent(format!(
                "trials {} vs {}",
                p.trials, first.trials
            )));
        }
        if p.seed != first.seed {
            return Err(MergeError::Inconsistent(format!(
                "seed {} vs {}",
                p.seed, first.seed
            )));
        }
        if p.shard_count != first.shard_count {
            return Err(MergeError::Inconsistent(format!(
                "shard count {} vs {}",
                p.shard_count, first.shard_count
            )));
        }
        if p.shard_index >= p.shard_count {
            return Err(MergeError::Inconsistent(format!(
                "shard index {} out of range 0..{}",
                p.shard_index, p.shard_count
            )));
        }
    }
    let count = first.shard_count;
    let mut present = vec![false; count];
    for p in partials {
        if std::mem::replace(&mut present[p.shard_index], true) {
            return Err(MergeError::DuplicateShard(p.shard_index));
        }
    }
    let missing: Vec<usize> = (0..count).filter(|&i| !present[i]).collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingShards(missing));
    }

    // Index every delivered point by its canonical coordinates. Ordered so
    // the stray-point error below always names the smallest coordinate.
    let mut by_coord: std::collections::BTreeMap<(usize, usize, usize), &PartialPoint> =
        std::collections::BTreeMap::new();
    for p in partials {
        let shard = ShardSpec::new(p.shard_index, count);
        for pt in &p.points {
            if !shard.owns(pt.point_index) {
                return Err(MergeError::BadPoint(format!(
                    "{} point {} delivered by shard {} which does not own it",
                    pt.exp_id, pt.point_index, p.shard_index
                )));
            }
            // Validate the statistics payload itself: a hand-edited or
            // version-skewed partial with the wrong policy count (or a
            // trial count disagreeing with the header) would otherwise
            // merge silently into a wrong report, because
            // `PointStats::merge` zips per-policy slots positionally.
            if pt.stats.per_heur.len() != HeuristicKind::ALL.len() {
                return Err(MergeError::BadPoint(format!(
                    "{} point {} carries {} per-policy aggregates, expected {}",
                    pt.exp_id,
                    pt.point_index,
                    pt.stats.per_heur.len(),
                    HeuristicKind::ALL.len()
                )));
            }
            if pt.stats.trials != first.trials {
                return Err(MergeError::BadPoint(format!(
                    "{} point {} accumulated {} trials, expected {}",
                    pt.exp_id, pt.point_index, pt.stats.trials, first.trials
                )));
            }
            if by_coord
                .insert((pt.figure, pt.experiment, pt.point_index), pt)
                .is_some()
            {
                return Err(MergeError::BadPoint(format!(
                    "{} point {} delivered twice",
                    pt.exp_id, pt.point_index
                )));
            }
        }
    }

    // Walk the canonical grid, consuming every delivered point.
    let mut ordered = Vec::with_capacity(by_coord.len());
    for (fi, fig) in campaign_figures().into_iter().enumerate() {
        for (ei, exp) in fig.iter().enumerate() {
            for (pi, point) in exp.points.iter().enumerate() {
                let pt = by_coord.remove(&(fi, ei, pi)).ok_or_else(|| {
                    MergeError::BadPoint(format!("{} point {pi} missing", exp.id))
                })?;
                if pt.exp_id != exp.id {
                    return Err(MergeError::BadPoint(format!(
                        "coordinate ({fi},{ei}) labelled {:?}, expected {:?}",
                        pt.exp_id, exp.id
                    )));
                }
                if pt.x.to_bits() != point.x.to_bits() {
                    return Err(MergeError::BadPoint(format!(
                        "{} point {pi} has x = {}, expected {}",
                        exp.id, pt.x, point.x
                    )));
                }
                ordered.push(GridPoint {
                    figure: fi,
                    experiment: ei,
                    x: pt.x,
                    stats: &pt.stats,
                });
            }
        }
    }
    if let Some(stray) = by_coord.keys().next() {
        return Err(MergeError::BadPoint(format!(
            "unknown sweep point at coordinate {stray:?}"
        )));
    }
    Ok(((first.trials, first.seed, count), ordered))
}

/// Recombines the partials of a sharded campaign.
///
/// Validates that the partials form one complete, consistent campaign
/// (same schema/trials/seed/shard count, every shard present exactly once,
/// every sweep point of every experiment covered exactly once by its
/// owning shard), then pools the per-point statistics in the canonical
/// figure → experiment → point order — the exact addition sequence of
/// [`Campaign::run_pooled`], so the result is bit-identical to the
/// single-process run.
pub fn merge_partials(partials: &[ShardPartial]) -> Result<MergedCampaign, MergeError> {
    let ((trials, seed, shard_count), ordered) = validate_and_order(partials)?;
    let mut pooled = PointStats::default();
    for pt in ordered {
        pooled = pooled.merge(pt.stats.clone());
    }
    Ok(MergedCampaign {
        trials,
        seed,
        shard_count,
        pooled,
    })
}

/// Recombines the partials of a sharded campaign into per-figure
/// [`ExperimentResult`] tables — the inputs of the Figure 7–9 renderers —
/// instead of the pooled §6.4 accumulator.
///
/// Returns one `Vec<ExperimentResult>` per figure group, in the canonical
/// fig7 → fig8 → fig9 order, after the same completeness and consistency
/// validation as [`merge_partials`]. Every per-point statistic is the
/// bit-exact value the unsharded campaign computes (per-point trial seeds
/// depend only on indices), so tables rendered from the recombined results
/// equal the unsharded tables byte for byte — `crates/sim/tests/
/// shard_figures.rs` gates this for 2- and 3-shard runs.
///
/// Note the pooled-campaign seeding: experiment `(fi, ei)` runs under
/// [`experiment_seed`]`(seed, fi, ei)`, exactly like `pamr shard` /
/// [`Campaign::run_pooled`] — not like `pamr fig7`, which feeds its master
/// seed to every experiment unchanged.
pub fn merge_figures(partials: &[ShardPartial]) -> Result<Vec<Vec<ExperimentResult>>, MergeError> {
    let (_, ordered) = validate_and_order(partials)?;
    let mut figures: Vec<Vec<ExperimentResult>> = campaign_figures()
        .into_iter()
        .map(|fig| {
            fig.iter()
                .map(|exp| ExperimentResult {
                    id: exp.id,
                    points: Vec::with_capacity(exp.points.len()),
                })
                .collect()
        })
        .collect();
    for pt in ordered {
        figures[pt.figure][pt.experiment]
            .points
            .push((pt.x, pt.stats.clone()));
    }
    Ok(figures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_partial() -> ShardPartial {
        ShardPartial::run(
            &crate::paper_mesh(),
            &crate::paper_model(),
            1,
            5,
            ShardSpec::FULL,
        )
    }

    #[test]
    fn full_partial_covers_the_whole_grid() {
        let p = tiny_partial();
        let expected: usize = campaign_figures()
            .iter()
            .flatten()
            .map(|e| e.points.len())
            .sum();
        assert_eq!(p.points.len(), expected);
        let merged = merge_partials(std::slice::from_ref(&p)).unwrap();
        assert_eq!(merged.pooled.trials, expected);
    }

    #[test]
    fn merge_rejects_broken_partial_sets() {
        let p = tiny_partial();
        assert!(matches!(merge_partials(&[]), Err(MergeError::Empty)));
        // Duplicate shard.
        let err = merge_partials(&[p.clone(), p.clone()]).unwrap_err();
        assert_eq!(err, MergeError::DuplicateShard(0));
        // Missing shard.
        let mut half = p.clone();
        half.shard_count = 2;
        let err = merge_partials(std::slice::from_ref(&half)).unwrap_err();
        assert_eq!(err, MergeError::MissingShards(vec![1]));
        // Inconsistent campaigns.
        let mut other_seed = p.clone();
        other_seed.seed ^= 1;
        other_seed.shard_index = 1;
        other_seed.shard_count = 2;
        let mut first = p.clone();
        first.shard_count = 2;
        assert!(matches!(
            merge_partials(&[first, other_seed]).unwrap_err(),
            MergeError::Inconsistent(_)
        ));
        // Tampered point ownership.
        let mut bad = p.clone();
        bad.points[0].point_index += 1;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&bad)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Tampered per-policy payload (wrong aggregate count).
        let mut skewed = p.clone();
        skewed.points[0].stats.per_heur.pop();
        assert!(matches!(
            merge_partials(std::slice::from_ref(&skewed)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Per-point trial count disagreeing with the header.
        let mut short = p.clone();
        short.points[0].stats.trials += 1;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&short)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Unknown schema.
        let mut vx = p;
        vx.schema = 99;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&vx)).unwrap_err(),
            MergeError::Schema { found: 99 }
        ));
    }
}
