//! `e2ebench` — the repository benchmark: end-to-end metrics of the §6
//! campaign, the `pamr serve` daemon and the `pamr frontier` sweep, and
//! per-layer metrics from a traced replay of the same seeded inputs.
//!
//! ```text
//! e2ebench --workload campaign|serve_churn|serve_saturated|frontier
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a detail line (provenance, deterministic counts, gate failures)
//! and then, as the last line, `{"correct","attempted","failed","metrics"}`.
//! Exits 1 when any output gate fails, 2 on bad arguments. See README.md.

mod campaign;
mod common;
mod frontier;
mod report;
mod serve;
mod stats;
mod trace;

use common::Ctx;
use report::Report;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["campaign", "serve_churn", "serve_saturated", "frontier"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} ({})",
            WORKLOADS.join(" | ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` when the checkout is not a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where this binary keeps its records: next to the executable (inside the
/// build directory of the checkout).
fn record_dir() -> Option<PathBuf> {
    Some(
        std::env::current_exe()
            .ok()?
            .parent()?
            .join("e2ebench-records"),
    )
}

/// Identity of the running build, so records of an older build are not
/// compared against.
fn build_identity() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}:{mtime}", m.len())
        })
        .unwrap_or_default()
}

/// Compares this run's deterministic counts with the record of an earlier
/// run of the same build, workload and seed (failing a gate on any
/// mismatch), then stores them as the record.
fn check_counts_across_runs(rep: &mut Report, workload: &str, seed: u64) {
    let Some(dir) = record_dir() else { return };
    let path = dir.join(format!("{workload}-{seed}.txt"));
    let mut text = format!("{}\n", build_identity());
    for (k, v) in &rep.counts {
        text.push_str(&format!("{k}={v}\n"));
    }
    if let Ok(old) = std::fs::read_to_string(&path) {
        if old.lines().next() == text.lines().next() {
            rep.gate(old == text, || {
                format!("deterministic counts differ from an earlier run with seed {seed}")
            });
        }
    }
    let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: rayon::current_num_threads(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rep = Report::default();
    rep.info("workload", Value::Str(args.workload.clone()));
    rep.info("seed", Value::UInt(args.seed));
    rep.info("trace", Value::Bool(args.trace));
    rep.info("nproc", Value::UInt(nproc as u64));
    rep.info("pool_threads", Value::UInt(ctx.threads as u64));
    rep.info("git_commit", Value::Str(git_commit()));

    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    match args.workload.as_str() {
        "campaign" => campaign::run(&ctx, &mut rep, &mut tracer),
        "serve_churn" => serve::run(&ctx, &serve::CHURN, &mut rep, &mut tracer),
        "serve_saturated" => serve::run(&ctx, &serve::SATURATED, &mut rep, &mut tracer),
        "frontier" => frontier::run(&ctx, &mut rep, &mut tracer),
        _ => unreachable!("validated by parse_args"),
    }
    check_counts_across_runs(&mut rep, &args.workload, args.seed);
    if !args.trace {
        // The complement of the failed share, which is 0 on a passing run.
        let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.metric("ok_share", ok, "fraction");
    }

    if args.trace {
        let path = PathBuf::from("e2ebench/traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => rep.info("trace_file", Value::Str(path.display().to_string())),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        rep.info("spans", Value::UInt(tracer.spans().len() as u64));
    }

    println!("{}", rep.detail_json());
    println!("{}", rep.result_json());
    for f in &rep.gate_failures {
        eprintln!("e2ebench: gate failed: {f}");
    }
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload frontier --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("frontier", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload campaign")).is_err());
        assert!(parse_args(&argv("--workload campaign --seed 1 --trace 2")).is_err());
    }
}
