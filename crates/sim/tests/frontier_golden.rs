//! Golden fixture for the frontier's two solver kernels.
//!
//! `tests/fixtures/frontier_golden.json` pins, bit for bit:
//!
//! * the [`FrontierReport`] of seeded 8×8 / 80-communication U[100, 800]
//!   instances under `kim_horowitz` (16 segments, split 2) — the
//!   `pamr frontier` workload — of a sparse 4-communication one, and of
//!   one small instance under `kim_horowitz_continuous`;
//! * the [`FwMp::new(2)`](FwMp::new) routing of those instances: every
//!   path's moves and rate bits, under the paper model and under
//!   `PowerModel::theory(3.0)`;
//! * [`frank_wolfe`]'s `dynamic_power` / `lower_bound` bits, `iterations`
//!   and an order-sensitive digest of its flows and loads under
//!   `PowerModel::theory(3.0)`, after 200 iterations and after 6 (where
//!   the bound still exposes the low bits of the duality-gap sum), and
//!   after 6 under the paper model.
//!
//! Every float of the Frank–Wolfe iterate, the path stripping and the
//! greedy ε-constraint uplift reaches one of these values, so reordering a
//! single floating-point operation in either kernel fails here. The
//! dominance and shard/merge contracts live in
//! `tests/frontier_differential.rs`; this file is the bit-level oracle.
//!
//! When a change *intentionally* alters the frontier, regenerate and
//! review the diff:
//!
//! ```text
//! PAMR_BLESS=1 cargo test -p pamr-sim --test frontier_golden --release
//! ```

use pamr_mesh::{Coord, Mesh};
use pamr_power::PowerModel;
use pamr_routing::{frank_wolfe, Comm, CommSet, FwMp, Heuristic, Routing};
use pamr_sim::FrontierReport;
use pamr_workload::UniformWorkload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// `(seed, communications)` of the 8×8 instances: the `frontier`
/// benchmark's shape, plus a sparse one whose many idle links give the
/// Frank–Wolfe and path-stripping DPs exact ties to break.
const INSTANCES: [(u64, usize); 4] = [(1, 80), (7, 80), (42, 80), (5, 4)];
const W_MIN: f64 = 100.0;
const W_MAX: f64 = 800.0;
const SEGMENTS: usize = 16;
const SPLIT: usize = 2;
/// Frank–Wolfe iterations of the pinned bound runs (`FwMp`'s default).
const FW_ITERATIONS: usize = 200;
/// Iterations of the short bound runs: the first count at which the bound
/// is positive on every seed, still far below the power (1–26 % of it).
const FW_SHORT: usize = 6;

/// Schema of `fixtures/frontier_golden.json`.
#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    schema: u32,
    /// One entry per instance of [`INSTANCES`], in order.
    instances: Vec<InstanceGolden>,
    /// The small continuous-scale instance.
    continuous: ReportGolden,
    /// Frank–Wolfe on a 2×2 instance long enough to stop on the gap test.
    fig2_fw: FwGolden,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct InstanceGolden {
    seed: u64,
    comms: usize,
    frontier: ReportGolden,
    /// `FwMp::new(2)` under the paper model.
    fwmp_paper: Vec<String>,
    /// `FwMp::new(2)` under `PowerModel::theory(3.0)`.
    fwmp_theory: Vec<String>,
    /// `frank_wolfe(.., theory(3.0), 200)`.
    fw_theory: FwGolden,
    /// `frank_wolfe(.., theory(3.0), 6)`: the bound `f + gap` still
    /// cancels most of `f`, so the low bits of the duality-gap sum survive
    /// into it (after 200 iterations the rounding of `f + gap` hides them).
    fw_theory_short: FwGolden,
    /// `frank_wolfe(.., paper model, 6)`: the marginal costs with
    /// `P_0 ≠ 1` and a load unit, as FW-MP sees them in the frontier.
    fw_paper_short: FwGolden,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ReportGolden {
    /// The report as `pamr frontier --json` prints it.
    report: FrontierReport,
    /// `(latency, power)` of every Pareto point as hex bit patterns, so a
    /// last-ulp change shows even if the JSON float form hid it.
    point_bits: Vec<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FwGolden {
    dynamic_power: String,
    lower_bound: String,
    iterations: usize,
    /// FNV-1a over every flow's moves and rate bits, in listing order.
    flow_digest: String,
    /// FNV-1a over `(link index, load bits)` of every link.
    load_digest: String,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

fn instance(seed: u64, comms: usize) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    UniformWorkload::new(comms, W_MIN, W_MAX).generate(&Mesh::new(8, 8), &mut rng)
}

fn continuous_instance() -> CommSet {
    let mut rng = SmallRng::seed_from_u64(3);
    UniformWorkload::new(10, W_MIN, W_MAX).generate(&Mesh::new(4, 4), &mut rng)
}

fn report_golden(cs: &CommSet, model: &PowerModel) -> ReportGolden {
    let report = FrontierReport::compute(cs, model, SEGMENTS, SPLIT);
    let point_bits = report
        .pareto
        .iter()
        .map(|p| format!("{} {} {}", bits(p.latency), bits(p.power), p.label))
        .collect();
    ReportGolden { report, point_bits }
}

/// One line per path: `comm path-index moves rate-bits`.
fn flow_lines(routing: &Routing) -> Vec<String> {
    let mut out = Vec::new();
    for (i, flows) in routing.all_flows().iter().enumerate() {
        for (j, (path, rate)) in flows.iter().enumerate() {
            let moves: String = path.moves().iter().map(|s| s.to_string()).collect();
            out.push(format!("{i} {j} {moves} {}", bits(*rate)));
        }
    }
    out
}

fn fw_golden(cs: &CommSet, model: &PowerModel, iterations: usize) -> FwGolden {
    let res = frank_wolfe(cs, model, iterations);
    let mut flow_digest = FNV_START;
    for (i, flows) in res.routing.all_flows().iter().enumerate() {
        flow_digest = fnv(flow_digest, i as u64);
        for (path, rate) in flows {
            for s in path.moves() {
                flow_digest = fnv(flow_digest, *s as u64);
            }
            flow_digest = fnv(flow_digest, rate.to_bits());
        }
    }
    let mut load_digest = FNV_START;
    for l in cs.mesh().links() {
        load_digest = fnv(load_digest, l.index() as u64);
        load_digest = fnv(load_digest, res.loads.get(l).to_bits());
    }
    FwGolden {
        dynamic_power: bits(res.dynamic_power),
        lower_bound: bits(res.lower_bound),
        iterations: res.iterations,
        flow_digest: format!("{flow_digest:016x}"),
        load_digest: format!("{load_digest:016x}"),
    }
}

fn current() -> Golden {
    let paper = pamr_sim::paper_model();
    let theory = PowerModel::theory(3.0);
    let instances = INSTANCES
        .iter()
        .map(|&(seed, comms)| {
            let cs = instance(seed, comms);
            InstanceGolden {
                seed,
                comms,
                frontier: report_golden(&cs, &paper),
                fwmp_paper: flow_lines(&FwMp::new(SPLIT).route(&cs, &paper)),
                fwmp_theory: flow_lines(&FwMp::new(SPLIT).route(&cs, &theory)),
                fw_theory: fw_golden(&cs, &theory, FW_ITERATIONS),
                fw_theory_short: fw_golden(&cs, &theory, FW_SHORT),
                fw_paper_short: fw_golden(&cs, &paper, FW_SHORT),
            }
        })
        .collect();
    let fig2 = CommSet::new(
        Mesh::new(2, 2),
        vec![
            Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
            Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
        ],
    );
    Golden {
        schema: 1,
        instances,
        continuous: report_golden(
            &continuous_instance(),
            &PowerModel::kim_horowitz_continuous(),
        ),
        fig2_fw: fw_golden(&fig2, &theory, 5000),
    }
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frontier_golden.json")
}

#[test]
fn frontier_kernels_reproduce_the_committed_fixture() {
    let current = current();
    let path = fixture_path();
    if std::env::var_os("PAMR_BLESS").is_some() {
        let json = serde_json::to_string_pretty(&current).expect("fixture serialises");
        std::fs::write(&path, json + "\n").expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with PAMR_BLESS=1 to create it",
            path.display()
        )
    });
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.schema, 1, "unknown fixture schema");
    let hint = "(if intentional: PAMR_BLESS=1 cargo test -p pamr-sim \
                --test frontier_golden --release)";
    assert_eq!(golden.instances.len(), current.instances.len());
    for (want, got) in golden.instances.iter().zip(&current.instances) {
        let seed = got.seed;
        assert_eq!(
            (want.seed, want.comms),
            (seed, got.comms),
            "fixture from different instances"
        );
        assert_eq!(
            want.frontier, got.frontier,
            "seed {seed}: frontier report diverged {hint}"
        );
        assert_eq!(
            want.fwmp_paper, got.fwmp_paper,
            "seed {seed}: FW-MP routing (paper model) diverged {hint}"
        );
        assert_eq!(
            want.fwmp_theory, got.fwmp_theory,
            "seed {seed}: FW-MP routing (theory model) diverged {hint}"
        );
        assert_eq!(
            want.fw_theory, got.fw_theory,
            "seed {seed}: Frank–Wolfe bound diverged {hint}"
        );
        assert_eq!(
            want.fw_theory_short, got.fw_theory_short,
            "seed {seed}: Frank–Wolfe bound (short run) diverged {hint}"
        );
        assert_eq!(
            want.fw_paper_short, got.fw_paper_short,
            "seed {seed}: Frank–Wolfe bound (paper model) diverged {hint}"
        );
    }
    assert_eq!(
        golden.continuous, current.continuous,
        "continuous-scale frontier diverged {hint}"
    );
    assert_eq!(
        golden.fig2_fw, current.fig2_fw,
        "Frank–Wolfe on the Fig. 2 instance diverged {hint}"
    );
}
