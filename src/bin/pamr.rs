//! `pamr` — command-line front end for power-aware Manhattan routing.
//!
//! ```text
//! pamr random --mesh 8x8 --n 20 --wmin 100 --wmax 2500 [--seed S] > inst.json
//! pamr route  --instance inst.json [--heuristic BEST|XY|SG|IG|TB|XYI|PR]
//!             [--model kim-horowitz|continuous] [--split S] [--json]
//! pamr fig2 | pamr theory
//! pamr fig7 | fig8 | fig9 [--trials T] [--seed S] [--threads K] [--csv DIR]
//! pamr summary | ablation [--trials T] [--seed S] [--threads K]
//! pamr frontier [--instance inst.json | --mesh PxQ --n N [--seed S]]
//!             [--model NAME] [--segments K] [--split S]
//!             [--shard i/N --out part_i.json] [--merge part_0.json ...]
//!             [--csv] [--json] [--check-only]
//! pamr shard  --shard i/N --out part_i.json [--trials T] [--seed S] [--threads K]
//! pamr merge  [--figures] part_0.json part_1.json ...
//! pamr serve  [--mesh PxQ] [--model NAME] [--heuristic NAME]
//!             [--repair bounded|full] [--max-moves N] [--stdin | --tcp ADDR]
//! pamr demo
//! ```
//!
//! Instances are JSON (`{"mesh": {"p":8,"q":8}, "comms": [{"src":…}]}` —
//! exactly serde's view of [`CommSet`]); `route` prints per-communication
//! paths, the power breakdown and the link heatmap, or a machine-readable
//! JSON report with `--json`.
//!
//! The paper's artefacts are subcommands: `fig2` (the Fig. 2 toy example),
//! `theory` (Lemma 1/2, Theorems 1 and 3), `fig7`–`fig9` (the §6 sweeps,
//! printed as tables and written as CSV with `--csv DIR`), `summary` (the
//! §6.4 statistics) and `ablation`. Stdout carries only seed-determined
//! text, byte-identical at any `--threads`/`RAYON_NUM_THREADS`;
//! wall-clock lines (progress, mean routing times) go to stderr. Numeric
//! flags are parsed strictly: a malformed value exits 2 naming the flag.
//!
//! `shard` runs one process's slice of the §6 campaign (sweep points `p`
//! with `p % N == i`) and writes the per-point statistics as JSON; `merge`
//! recombines the N partials and prints the §6.4 summary — byte-identical
//! to `pamr summary` with the same trials and seed. With `--figures` it
//! instead renders the recombined Figure 7–9 tables (the per-point
//! statistics are bit-equal to the unsharded campaign's, so the tables are
//! byte-identical too).
//!
//! `frontier` sweeps the bi-objective power × max-hop-latency plane of one
//! instance (ε-constraint over latency budgets) and prints the
//! dominance-filtered Pareto set. `--shard i/N --out F` solves only the
//! segments `s` with `s % N == i` and writes a partial; `--merge` recombines
//! the partials into the byte-identical single-process report.
//!
//! `serve` keeps a [`RoutingSession`] resident and answers newline-delimited
//! JSON requests (`add_comm`, `remove_comm`, `reroute`, `power_report`,
//! `snapshot`) over stdin/stdout (`--stdin`, the default) or a TCP socket
//! (`--tcp 127.0.0.1:9667`); see `pamr::sim::serve` for the wire schema.
//!
//! [`RoutingSession`]: pamr::routing::RoutingSession

use pamr::prelude::*;
use pamr::sim::experiments::{fig7, fig8, fig9, run_experiment, Experiment};
use pamr::sim::shard::{merge_figures, merge_partials, ShardPartial};
use pamr::sim::summary::Summary;
use pamr::sim::table::{failure_table, norm_inv_table, write_csv};
use pamr::sim::viz::render_heatmap;
use pamr::sim::{paper_mesh, paper_model, ShardSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashMap;
use std::process::exit;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage:\n  pamr random --mesh PxQ --n N [--wmin W] [--wmax W] [--seed S]\n  \
         pamr route --instance FILE [--heuristic NAME] [--model NAME] [--split S] [--json]\n  \
         pamr fig2 | pamr theory\n  \
         pamr fig7 | fig8 | fig9 [--trials T] [--seed S] [--threads K] [--csv DIR]\n  \
         pamr summary | ablation [--trials T] [--seed S] [--threads K]\n  \
         pamr frontier [--instance FILE | --mesh PxQ --n N [--seed S]] [--model NAME] \
         [--segments K] [--split S] [--shard i/N --out FILE] [--merge FILE...] \
         [--csv] [--json] [--check-only]\n  \
         pamr shard --shard i/N --out FILE [--trials T] [--seed S] [--threads K]\n  \
         pamr merge [--figures] FILE...\n  \
         pamr serve [--mesh PxQ] [--model NAME] [--heuristic NAME] \
         [--repair bounded|full] [--max-moves N] [--stdin | --tcp ADDR]\n  \
         pamr demo"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("random") => cmd_random(rest),
        Some("route") => cmd_route(rest),
        Some("fig2") if rest.is_empty() => cmd_fig2(),
        Some("fig7") => cmd_figure(rest, fig7()),
        Some("fig8") => cmd_figure(rest, fig8()),
        Some("fig9") => cmd_figure(rest, fig9()),
        Some("summary") => cmd_summary(rest),
        Some("ablation") => cmd_ablation(rest),
        Some("theory") if rest.is_empty() => cmd_theory(),
        Some("frontier") => cmd_frontier(rest),
        Some("shard") => cmd_shard(rest),
        Some("merge") => cmd_merge(rest),
        Some("serve") => cmd_serve(rest),
        Some("demo") => cmd_demo(),
        _ => usage(),
    }
}

/// Prints `msg` and exits 2 (bad command line).
fn fail(msg: &str) -> ! {
    eprintln!("pamr: {msg}");
    exit(2);
}

/// The value following `name`, if the flag is present; a flag given as
/// the last argument, with no value, exits 2.
fn opt(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => fail(&format!("{name} needs a value")),
    }
}

/// The value of `name` parsed as `T`, if the flag is present. A malformed
/// value exits 2 naming the flag, so a typo never falls back to the
/// default.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    opt(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|e| fail(&format!("invalid value {v:?} for {name}: {e}")))
    })
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--mesh PxQ` (default 8×8).
fn mesh_arg(args: &[String]) -> Mesh {
    let spec = opt(args, "--mesh").unwrap_or_else(|| "8x8".into());
    match spec
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
    {
        Some((p, q)) if p > 0 && q > 0 => Mesh::new(p, q),
        _ => fail(&format!(
            "invalid value {spec:?} for --mesh: expected PxQ, e.g. 8x8"
        )),
    }
}

/// Reads `path`, exiting 1 when it cannot be read.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

/// Trials per sweep point and master seed of a campaign subcommand.
struct CampaignOpts {
    trials: usize,
    seed: u64,
}

/// Parses a campaign subcommand's arguments strictly: every argument must
/// be one of `--trials`, `--seed`, `--threads` or `extra`, each followed
/// by its value. `--threads` is applied to the work-pool here; results
/// never depend on it, only wall-clock does.
fn campaign_opts(args: &[String], extra: &[&str]) -> CampaignOpts {
    for pair in args.chunks(2) {
        let name = pair[0].as_str();
        if !["--trials", "--seed", "--threads"].contains(&name) && !extra.contains(&name) {
            fail(&format!("unknown argument {name:?} (see `pamr` for usage)"));
        }
    }
    let trials = parsed(args, "--trials").unwrap_or(2000);
    if trials == 0 {
        fail("--trials must be positive");
    }
    if let Some(n) = parsed::<usize>(args, "--threads") {
        if n == 0 {
            fail("--threads must be positive");
        }
        rayon::set_num_threads(n);
    }
    CampaignOpts {
        trials,
        seed: parsed(args, "--seed").unwrap_or(0xC0FFEE),
    }
}

fn cmd_random(args: &[String]) {
    let mesh = mesh_arg(args);
    let n = parsed(args, "--n").unwrap_or(20);
    let w_min = parsed(args, "--wmin").unwrap_or(100.0);
    let w_max = parsed(args, "--wmax").unwrap_or(2500.0);
    let mut rng = SmallRng::seed_from_u64(parsed(args, "--seed").unwrap_or(1));
    let cs = UniformWorkload::new(n, w_min, w_max).generate(&mesh, &mut rng);
    println!("{}", serde_json::to_string_pretty(&cs).expect("serialise"));
}

#[derive(Serialize)]
struct RouteReport {
    heuristic: String,
    feasible: bool,
    power_mw: Option<f64>,
    leakage_mw: Option<f64>,
    dynamic_mw: Option<f64>,
    active_links: Option<usize>,
    max_link_load: f64,
    paths: Vec<Vec<String>>,
}

/// `--model NAME` (default `kim-horowitz`).
fn model_arg(args: &[String]) -> PowerModel {
    match opt(args, "--model").as_deref().unwrap_or("kim-horowitz") {
        "kim-horowitz" | "kh" => PowerModel::kim_horowitz(),
        "continuous" => PowerModel::kim_horowitz_continuous(),
        "fig2" => PowerModel::fig2(),
        "theory" => PowerModel::theory(3.0),
        other => fail(&format!(
            "unknown model {other:?} (kim-horowitz | continuous | fig2 | theory)"
        )),
    }
}

/// The instance JSON at `path`, exiting 1 when it cannot be read or
/// parsed, or names an off-mesh endpoint or a weight that is not strictly
/// positive and finite.
fn load_instance(path: &str) -> CommSet {
    let cs: CommSet = serde_json::from_str(&read_file(path)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    });
    if let Err(e) = cs.validate() {
        eprintln!("invalid instance {path}: {e}");
        exit(1);
    }
    cs
}

fn cmd_route(args: &[String]) {
    let cs = load_instance(&opt(args, "--instance").unwrap_or_else(|| usage()));
    let model = model_arg(args);
    let name = opt(args, "--heuristic").unwrap_or_else(|| "BEST".into());
    let split: usize = parsed(args, "--split").unwrap_or(1);

    let (label, routing): (String, Routing) = if name.eq_ignore_ascii_case("best") {
        let best = Best::default().route(&cs, &model);
        if best.is_feasible() {
            (format!("BEST={}", best.kind), best.routing)
        } else {
            // Report the fallback attempt so the user still sees loads.
            (format!("BEST=none({} shown)", best.kind), best.routing)
        }
    } else {
        let kind = heuristic_named(&name).unwrap_or_else(|| {
            fail(&format!(
                "unknown heuristic {name:?} (XY SG IG TB XYI PR BEST)"
            ))
        });
        if split > 1 {
            // s-MP lift of the chosen single-path heuristic.
            struct ByKind(HeuristicKind);
            impl Heuristic for ByKind {
                fn name(&self) -> &'static str {
                    self.0.name()
                }
                fn route_with(
                    &self,
                    cs: &CommSet,
                    model: &PowerModel,
                    scratch: &mut RouteScratch,
                ) -> Routing {
                    self.0.route_with(cs, model, scratch)
                }
            }
            (
                format!("{}-{}MP", kind.name(), split),
                SplitMp::new(ByKind(kind), split).route(&cs, &model),
            )
        } else {
            (kind.name().into(), kind.route(&cs, &model))
        }
    };

    let loads = routing.loads(&cs);
    let breakdown = routing.power(&cs, &model).ok();
    let report = RouteReport {
        heuristic: label.clone(),
        feasible: breakdown.is_some(),
        power_mw: breakdown.map(|b| b.total()),
        leakage_mw: breakdown.map(|b| b.leakage),
        dynamic_mw: breakdown.map(|b| b.dynamic),
        active_links: breakdown.map(|b| b.active_links),
        max_link_load: loads.max_load(),
        paths: (0..cs.len())
            .map(|i| {
                routing
                    .flows(i)
                    .iter()
                    .map(|(p, r)| format!("{p} @{r:.1}"))
                    .collect()
            })
            .collect(),
    };

    if flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialise")
        );
        return;
    }
    println!("routed {} communications with {label}", cs.len());
    match breakdown {
        Some(b) => println!(
            "power: {:.1} mW ({} active links, {:.1} leakage + {:.1} dynamic)",
            b.total(),
            b.active_links,
            b.leakage,
            b.dynamic
        ),
        None => println!(
            "INFEASIBLE: max link load {:.0} exceeds capacity",
            loads.max_load()
        ),
    }
    // Per-heuristic comparison footer.
    let mut comparison: HashMap<&str, Option<f64>> = HashMap::new();
    for kind in HeuristicKind::ALL {
        let r = kind.route(&cs, &model);
        comparison.insert(kind.name(), r.power(&cs, &model).ok().map(|b| b.total()));
    }
    println!("\nall policies:");
    for kind in HeuristicKind::ALL {
        match comparison[kind.name()] {
            Some(p) => println!("  {:<4} {p:>10.1} mW", kind.name()),
            None => println!("  {:<4} {:>10}", kind.name(), "failed"),
        }
    }
    println!("\nutilisation heatmap:");
    print!("{}", render_heatmap(cs.mesh(), &loads, model.capacity));
}

/// The single-path heuristic called `name` (case-insensitive).
fn heuristic_named(name: &str) -> Option<HeuristicKind> {
    HeuristicKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

fn cmd_frontier(args: &[String]) {
    use pamr::sim::frontier::{merge_frontier, FrontierPartial, FrontierReport};

    // Merge mode: recombine shard partials into the 1-process report.
    let merge_files: Vec<&String> = args
        .iter()
        .position(|a| a == "--merge")
        .map(|i| {
            args[i + 1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect()
        })
        .unwrap_or_default();
    if args.iter().any(|a| a == "--merge") && merge_files.is_empty() {
        usage();
    }

    let segments: usize = parsed(args, "--segments").unwrap_or(16);
    let split: usize = parsed(args, "--split").unwrap_or(2);

    let report = if !merge_files.is_empty() {
        let partials: Vec<FrontierPartial> = merge_files
            .iter()
            .map(|path| {
                FrontierPartial::from_json(&read_file(path)).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    exit(1);
                })
            })
            .collect();
        merge_frontier(&partials).unwrap_or_else(|e| {
            eprintln!("cannot merge: {e}");
            exit(1);
        })
    } else {
        // The instance: a file, or a seeded uniform draw (as `pamr random`).
        let cs = match opt(args, "--instance") {
            Some(path) => load_instance(&path),
            None => {
                let mesh = mesh_arg(args);
                let n = parsed(args, "--n").unwrap_or(20);
                let mut rng = SmallRng::seed_from_u64(parsed(args, "--seed").unwrap_or(1));
                UniformWorkload::new(n, 100.0, 2500.0).generate(&mesh, &mut rng)
            }
        };
        let model = model_arg(args);

        // Shard mode: solve the owned segments and write the partial.
        if let Some(shard) = parsed::<ShardSpec>(args, "--shard") {
            let Some(out) = opt(args, "--out") else {
                usage();
            };
            let partial = FrontierPartial::run(&cs, &model, segments, split, shard);
            std::fs::write(&out, partial.to_json()).unwrap_or_else(|e| {
                eprintln!("writing {out}: {e}");
                exit(1);
            });
            eprintln!(
                "wrote {} segment(s) to {out} (recombine with `pamr frontier --merge`)",
                partial.owned.len()
            );
            return;
        }
        FrontierReport::compute(&cs, &model, segments, split)
    };

    if let Err(e) = report.check() {
        eprintln!("frontier check failed: {e}");
        exit(1);
    }
    if flag(args, "--check-only") {
        eprintln!(
            "frontier check ok ({} Pareto point(s), {} segments)",
            report.pareto.len(),
            report.segments
        );
        return;
    }
    if flag(args, "--json") {
        println!("{}", report.to_json());
    } else if flag(args, "--csv") {
        print!("{}", report.to_csv());
    } else {
        print!("{}", report.render());
    }
}

/// `fig7`, `fig8` or `fig9`: each sub-figure's normalised power inverse
/// and failure ratio per sweep point, plus `DIR/<id>.csv` with `--csv DIR`.
fn cmd_figure(args: &[String], figure: Vec<Experiment>) {
    let opts = campaign_opts(args, &["--csv"]);
    let csv = opt(args, "--csv");
    let (mesh, model) = (paper_mesh(), paper_model());
    for exp in figure {
        println!("== {} — {} ==", exp.id, exp.title);
        let res = run_experiment(&exp, &mesh, &model, opts.trials, opts.seed);
        println!(
            "normalised power inverse (x = {}, {} trials/point)",
            exp.xlabel, opts.trials
        );
        print!("{}", norm_inv_table(&res));
        println!("failure ratio");
        print!("{}", failure_table(&res));
        println!();
        if let Some(dir) = &csv {
            write_csv(&res, dir.as_ref()).unwrap_or_else(|e| {
                eprintln!("writing CSV to {dir}: {e}");
                exit(1);
            });
        }
    }
}

/// The §6.4 summary statistics: success rates, inverse-power ratios versus
/// XY, the static-power fraction (stdout) and mean runtimes (stderr).
fn cmd_summary(args: &[String]) {
    let opts = campaign_opts(args, &[]);
    eprintln!(
        "running the full campaign ({} trials per sweep point, {} worker thread(s)) ...",
        opts.trials,
        rayon::current_num_threads()
    );
    let s = Summary::run(&paper_mesh(), &paper_model(), opts.trials, opts.seed);
    print!("{}", s.render_report());
    eprint!("{}", s.render_timings());
}

/// Ablation studies: the §6.4 leakage-ratio observation, the §7 multi-path
/// future-work item and the §5 processing-order claim.
fn cmd_ablation(args: &[String]) {
    use pamr::sim::ablation::{leak_sweep, order_sweep, smp_sweep};

    let opts = campaign_opts(args, &[]);
    let mesh = paper_mesh();

    println!("== leakage ablation: does a lower P_leak/P_0 favour PR over XYI? ==");
    println!("(30 mixed communications, {} trials per row)", opts.trials);
    println!(
        "{:>10} {:>9} {:>9} {:>14} {:>14}",
        "P_leak mW", "PR wins", "XYI wins", "both feasible", "P(PR)/P(XYI)"
    );
    for row in leak_sweep(&mesh, &[0.0, 4.0, 16.9, 40.0, 80.0], opts.trials, opts.seed) {
        println!(
            "{:>10.1} {:>9} {:>9} {:>14} {:>14.4}",
            row.p_leak, row.pr_wins, row.xyi_wins, row.both_feasible, row.mean_ratio
        );
    }

    println!("\n== s-MP ablation: SplitMp<PathRemover> on heavy traffic ==");
    println!(
        "(12 communications U[2000,3400] Mb/s, {} trials)",
        opts.trials
    );
    println!("{:>4} {:>10} {:>14}", "s", "successes", "mean power mW");
    let (rows, fw_lb) = smp_sweep(&mesh, &[1, 2, 3, 4], opts.trials, opts.seed);
    for row in &rows {
        println!(
            "{:>4} {:>10} {:>14.1}",
            row.s, row.successes, row.mean_power
        );
    }
    println!("continuous max-MP lower bound on the comparable set: {fw_lb:.1} mW");

    println!("\n== processing-order ablation: 'decreasing weights gives the best results' (§5) ==");
    println!("(TB on 30 mixed communications, {} trials)", opts.trials);
    println!(
        "{:>20} {:>10} {:>14}",
        "order", "successes", "mean power mW"
    );
    for row in order_sweep(&mesh, opts.trials, opts.seed) {
        println!(
            "{:>20} {:>10} {:>14.1}",
            format!("{:?}", row.order),
            row.successes,
            row.mean_power
        );
    }
}

/// Figure 2: the XY / 1-MP / 2-MP comparison on the paper's toy instance
/// (`P_leak = 0`, `P_0 = 1`, `α = 3`, `BW = 4`, two communications of sizes
/// 1 and 3 between opposite corners of a 2×2 mesh).
fn cmd_fig2() {
    let src = Coord::new(0, 0);
    let snk = Coord::new(1, 1);
    let cs = CommSet::new(
        Mesh::new(2, 2),
        vec![Comm::new(src, snk, 1.0), Comm::new(src, snk, 3.0)],
    );
    let model = PowerModel::fig2();

    let xy = Routing::single(&cs, vec![Path::xy(src, snk), Path::xy(src, snk)]);
    let mp1 = Routing::single(&cs, vec![Path::xy(src, snk), Path::yx(src, snk)]);
    let mp2 = Routing::multi(vec![
        vec![(Path::xy(src, snk), 1.0)],
        vec![(Path::xy(src, snk), 1.0), (Path::yx(src, snk), 2.0)],
    ]);

    println!("Figure 2 — comparison of routing rules (paper values: 128 / 56 / 32)");
    for (name, routing, paper) in [
        ("XY  ", &xy, 128.0),
        ("1-MP", &mp1, 56.0),
        ("2-MP", &mp2, 32.0),
    ] {
        let p = routing
            .power(&cs, &model)
            .expect("Fig. 2 routings are feasible")
            .total();
        println!("P_{name} = {p:7.2}   (paper: {paper})");
        assert!((p - paper).abs() < 1e-9, "mismatch vs the paper");
    }
    println!("all three match the paper exactly");
}

/// The Section 4 results, numerically: Lemma 1 (path counting), Theorem 1
/// (Fig. 4 pattern, ratio Θ(p)), Lemma 2 (YX vs XY, ratio Θ(p^{α−1})) and
/// Theorem 3 (2-PARTITION reduction).
fn cmd_theory() {
    use pamr::theory::{
        fig4_pattern, lemma2_ratio, manhattan_path_count, partition_exists, reduction_instance,
        xy_corner_power,
    };

    println!("== Lemma 1: Manhattan path counts C(p+q-2, p-1) ==");
    for (p, q) in [(2, 2), (4, 4), (8, 8), (8, 16)] {
        println!("{p:>3}×{q:<3} → {}", manhattan_path_count(p, q));
    }

    let model = PowerModel::theory(3.0);
    println!("\n== Theorem 1: P_XY / P_maxMP on the Fig. 4 pattern (α = 3) ==");
    println!("{:>5} {:>12} {:>12} {:>8}", "p", "P_XY", "P_maxMP", "ratio");
    for p_prime in [1usize, 2, 4, 8, 16, 32] {
        let pat = fig4_pattern(p_prime, 1.0);
        assert!(pat.verify_conservation(1e-9));
        let pmax = pat.power(&model);
        let pxy = xy_corner_power(2 * p_prime, 1.0, &model);
        println!(
            "{:>5} {:>12.4} {:>12.4} {:>8.2}",
            2 * p_prime,
            pxy,
            pmax,
            pxy / pmax
        );
    }
    println!("(ratio grows linearly in p — the Θ(p) of Theorem 1)");

    println!("\n== Lemma 2: single-path YX vs XY on the anti-diagonal instance ==");
    println!("{:>5} {:>14} {:>12} {:>10}", "p'", "P_XY", "P_YX", "ratio");
    for p_prime in [2usize, 4, 8, 16, 32] {
        let (pxy, pyx) = lemma2_ratio(p_prime, &model);
        println!("{p_prime:>5} {pxy:>14.1} {pyx:>12.1} {:>10.2}", pxy / pyx);
    }
    println!("(ratio grows as p^(α−1) = p² for α = 3 — Lemma 2 / Theorem 2)");

    println!("\n== Theorem 3: 2-PARTITION reduction ==");
    for a in [vec![1u64, 2, 1, 2, 1, 1], vec![2, 2, 2]] {
        let inst = reduction_instance(&a, 2);
        let part = partition_exists(&a);
        println!(
            "a = {a:?}: q = {}, BW = {}, partition {} → s-MP routing {}",
            inst.q(),
            inst.bw,
            if part.is_some() { "EXISTS" } else { "none" },
            if part.is_some() {
                "feasible"
            } else {
                "infeasible"
            },
        );
    }
}

fn cmd_shard(args: &[String]) {
    // Strict parsing: a malformed --trials/--seed must fail here, not
    // surface as a mismatch at merge time.
    let opts = campaign_opts(args, &["--shard", "--out"]);
    let shard = parsed(args, "--shard").unwrap_or(ShardSpec::FULL);
    let Some(out) = opt(args, "--out") else {
        usage()
    };
    eprintln!(
        "running shard {} of the §6 campaign ({} trials per sweep point, {} worker thread(s)) ...",
        shard,
        opts.trials,
        rayon::current_num_threads()
    );
    let partial = ShardPartial::run(&paper_mesh(), &paper_model(), opts.trials, opts.seed, shard);
    std::fs::write(&out, partial.to_json()).unwrap_or_else(|e| {
        eprintln!("writing {out}: {e}");
        exit(1);
    });
    eprintln!(
        "wrote {} sweep points to {out} (recombine with `pamr merge`)",
        partial.points.len(),
    );
}

fn cmd_merge(args: &[String]) {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        usage();
    }
    let partials: Vec<ShardPartial> = files
        .iter()
        .map(|path| {
            ShardPartial::from_json(&read_file(path)).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(1);
            })
        })
        .collect();
    if flag(args, "--figures") {
        // Recombine the per-figure tables instead of the pooled summary.
        let figures = merge_figures(&partials).unwrap_or_else(|e| {
            eprintln!("cannot merge: {e}");
            exit(1);
        });
        for res in figures.iter().flatten() {
            println!("== {} ==", res.id);
            println!("normalised power inverse");
            print!("{}", norm_inv_table(res));
            println!("failure ratio");
            print!("{}", failure_table(res));
            println!();
        }
        return;
    }
    let merged = merge_partials(&partials).unwrap_or_else(|e| {
        eprintln!("cannot merge: {e}");
        exit(1);
    });
    eprintln!(
        "merged {} shard(s), {} trials per sweep point, seed {}",
        merged.shard_count, merged.trials, merged.seed
    );
    print!("{}", merged.summary().render_report());
}

fn cmd_serve(args: &[String]) {
    let mesh = mesh_arg(args);
    let model = model_arg(args);
    let heur_name = opt(args, "--heuristic").unwrap_or_else(|| "XYI".into());
    let heuristic = heuristic_named(&heur_name).unwrap_or_else(|| {
        fail(&format!(
            "unknown heuristic {heur_name:?} (XY SG IG TB XYI PR)"
        ))
    });
    let repair = match opt(args, "--repair").as_deref().unwrap_or("bounded") {
        "full" => pamr::routing::RepairMode::Full,
        "bounded" => {
            let max_moves = parsed(args, "--max-moves").unwrap_or(10_000);
            pamr::routing::RepairMode::Bounded { max_moves }
        }
        other => fail(&format!("unknown repair mode {other:?} (bounded | full)")),
    };
    let config = pamr::routing::SessionConfig {
        heuristic,
        repair,
        ..Default::default()
    };
    let mut server = pamr::sim::serve::Server::new(mesh, model, config);
    let result = match opt(args, "--tcp") {
        Some(addr) if !flag(args, "--stdin") => pamr::sim::serve::serve_tcp(&mut server, &addr),
        _ => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            pamr::sim::serve::serve_lines(&mut server, stdin.lock(), stdout.lock())
        }
    };
    if let Err(e) = result {
        eprintln!("pamr serve: {e}");
        exit(1);
    }
}

fn cmd_demo() {
    let mesh = Mesh::new(8, 8);
    let mut rng = SmallRng::seed_from_u64(7);
    let cs = UniformWorkload::new(25, 100.0, 2500.0).generate(&mesh, &mut rng);
    let model = PowerModel::kim_horowitz();
    println!("demo: 25 random communications on an 8×8 CMP\n");
    for kind in HeuristicKind::ALL {
        let r = kind.route(&cs, &model);
        match r.power(&cs, &model) {
            Ok(b) => println!("  {:<4} {:>10.1} mW", kind.name(), b.total()),
            Err(_) => println!("  {:<4} {:>10}", kind.name(), "failed"),
        }
    }
    let best = Best::default().route(&cs, &model);
    if let Some(power) = best.power {
        println!("\nBEST = {} at {power:.1} mW", best.kind);
        println!(
            "{}",
            render_heatmap(&mesh, &best.routing.loads(&cs), model.capacity)
        );
    }
}
