//! Smoke tests for the `pamr` command-line front end: generate a random
//! instance on a tiny mesh, route it with every heuristic name the CLI
//! accepts, check the JSON report parses, run every paper-artefact
//! subcommand end to end on a tiny budget (few trials, fixed seed), and
//! check that malformed flags are rejected rather than defaulted.

use std::path::Path;
use std::process::Command;

fn pamr(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
        .args(args)
        .output()
        .expect("failed to spawn pamr");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Stdout of a `pamr` run that must succeed.
fn run(args: &[&str]) -> String {
    let (out, stderr, ok) = pamr(args);
    assert!(ok, "pamr {args:?} failed\nstderr:\n{stderr}");
    out
}

/// Stderr of a `pamr` run that must be rejected as a bad command line
/// (exit status 2, not a panic's 101 or a silent default).
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
        .args(args)
        .output()
        .expect("failed to spawn pamr");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "pamr {args:?}: {stderr}");
    stderr
}

#[test]
fn random_then_route_round_trip() {
    let dir = std::env::temp_dir().join("pamr_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");

    let (json, stderr, ok) = pamr(&[
        "random", "--mesh", "4x4", "--n", "6", "--wmin", "100", "--wmax", "900", "--seed", "11",
    ]);
    assert!(ok, "pamr random failed: {stderr}");
    std::fs::write(&inst, &json).unwrap();

    // The generated instance is valid JSON for a 4×4 CommSet.
    let cs: pamr::routing::CommSet = serde_json::from_str(&json).expect("instance parses");
    assert_eq!(cs.len(), 6);

    for heuristic in ["BEST", "XY", "SG", "IG", "TB", "XYI", "PR"] {
        let (out, stderr, ok) = pamr(&[
            "route",
            "--instance",
            inst.to_str().unwrap(),
            "--heuristic",
            heuristic,
        ]);
        assert!(ok, "pamr route --heuristic {heuristic} failed: {stderr}");
        assert!(!out.is_empty(), "route {heuristic} printed nothing");
    }

    // Machine-readable report.
    let (out, stderr, ok) = pamr(&["route", "--instance", inst.to_str().unwrap(), "--json"]);
    assert!(ok, "pamr route --json failed: {stderr}");
    assert!(
        out.trim_start().starts_with('{'),
        "--json must print a JSON object, got:\n{out}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_merge_round_trip_matches_single_process() {
    let dir = std::env::temp_dir().join("pamr_cli_shard_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let part = |i: usize| dir.join(format!("part{i}.json"));

    // Two shards of a tiny campaign...
    for i in 0..2 {
        let (_, stderr, ok) = pamr(&[
            "shard",
            "--shard",
            &format!("{i}/2"),
            "--trials",
            "1",
            "--seed",
            "9",
            "--out",
            part(i).to_str().unwrap(),
        ]);
        assert!(ok, "pamr shard {i}/2 failed: {stderr}");
    }
    // ...merge to the single-process report.
    let (merged, stderr, ok) = pamr(&[
        "merge",
        part(0).to_str().unwrap(),
        part(1).to_str().unwrap(),
    ]);
    assert!(ok, "pamr merge failed: {stderr}");
    // One shard alone must be rejected with a structured message.
    let (single, one_shard_ok) = {
        let (_, stderr, ok) = pamr(&["merge", part(0).to_str().unwrap()]);
        (stderr, ok)
    };
    assert!(!one_shard_ok, "merging an incomplete shard set must fail");
    assert!(
        single.contains("missing shard partial"),
        "unexpected merge error: {single}"
    );
    // The merged report is the §6.4 summary.
    assert!(merged.contains("§6.4 summary statistics"), "{merged}");
    assert!(merged.contains("BEST inv-power ratio"), "{merged}");
    assert!(merged.contains("pooled over"), "{merged}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_runs() {
    let (out, stderr, ok) = pamr(&["demo"]);
    assert!(ok, "pamr demo failed: {stderr}");
    assert!(
        out.contains("BEST"),
        "demo output missing BEST line:\n{out}"
    );
}

#[test]
fn fig2_matches_paper_values() {
    let out = run(&["fig2"]);
    assert!(out.contains("128.00"), "XY power missing:\n{out}");
    assert!(out.contains("32.00"), "2-MP power missing:\n{out}");
    assert!(out.contains("match the paper exactly"), "{out}");
}

#[test]
fn fig7_runs_and_writes_csv() {
    let dir = std::env::temp_dir().join("pamr_smoke_fig7");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "fig7",
        "--trials",
        "2",
        "--seed",
        "7",
        "--csv",
        dir.to_str().unwrap(),
    ]);
    assert!(out.contains("fig7"), "{out}");
    assert!(out.contains("failure ratio"), "{out}");
    let csvs: Vec<_> = std::fs::read_dir(&dir)
        .expect("--csv directory was created")
        .filter_map(|e| e.ok())
        .filter(|e| {
            Path::new(&e.file_name())
                .extension()
                .is_some_and(|x| x == "csv")
        })
        .collect();
    assert!(!csvs.is_empty(), "fig7 --csv wrote no CSV files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig8_runs() {
    let out = run(&["fig8", "--trials", "2", "--seed", "8"]);
    assert!(out.contains("fig8"), "{out}");
}

#[test]
fn fig9_runs() {
    let out = run(&["fig9", "--trials", "2", "--seed", "9"]);
    assert!(out.contains("fig9"), "{out}");
}

#[test]
fn summary_runs() {
    let out = run(&["summary", "--trials", "1", "--seed", "64"]);
    assert!(out.contains("success rate"), "{out}");
    assert!(out.contains("pooled over"), "{out}");
}

#[test]
fn summary_prints_the_library_report() {
    use pamr::sim::{paper_mesh, paper_model, summary::Summary};
    let out = run(&["summary", "--trials", "1", "--seed", "64"]);
    let report = Summary::run(&paper_mesh(), &paper_model(), 1, 64).render_report();
    assert_eq!(out, report);
}

#[test]
fn shard_writes_partial_json() {
    let dir = std::env::temp_dir().join("pamr_smoke_summary_shard");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("part0.json");
    let stdout = run(&[
        "shard",
        "--trials",
        "1",
        "--seed",
        "64",
        "--shard",
        "0/3",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    // Shard mode prints nothing deterministic to stdout; the partial
    // lands in the output file instead.
    assert!(stdout.is_empty(), "shard mode wrote to stdout: {stdout}");
    let text = std::fs::read_to_string(&out_file).expect("partial written");
    assert!(text.contains("\"shard_index\": 0"), "{text}");
    assert!(text.contains("\"shard_count\": 3"), "{text}");
    assert!(text.contains("\"exp_id\": \"fig7a\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_runs() {
    let out = run(&["ablation", "--trials", "2", "--seed", "3"]);
    assert!(out.contains("leakage ablation"), "{out}");
}

#[test]
fn theory_runs() {
    let out = run(&["theory"]);
    assert!(out.contains("Lemma 1"), "{out}");
    assert!(out.contains("Theorem 1"), "{out}");
}

#[test]
fn seeds_are_reproducible() {
    let a = run(&["fig8", "--trials", "2", "--seed", "5"]);
    let b = run(&["fig8", "--trials", "2", "--seed", "5"]);
    assert_eq!(a, b, "same seed must reproduce identical output");
}

#[test]
fn malformed_numeric_flags_are_rejected() {
    for (args, flag) in [
        (&["frontier", "--segments", "1O"][..], "--segments"),
        (&["serve", "--max-moves", "x"][..], "--max-moves"),
        (
            &["shard", "--trials", "abc", "--out", "unused.json"][..],
            "--trials",
        ),
        (&["random", "--n", "twenty"][..], "--n"),
        (&["fig7", "--seed", "-1"][..], "--seed"),
    ] {
        let stderr = rejected(args);
        assert!(stderr.contains(flag), "pamr {args:?}: {stderr}");
    }
    // Unknown arguments and a flag missing its value are rejected too.
    assert!(rejected(&["summary", "--bogus", "1"]).contains("--bogus"));
    assert!(rejected(&["fig8", "--trials"]).contains("--trials"));
}

/// Writes a one-communication 4×4 instance with the given sink and weight
/// (bypassing the library constructors, as a hand-edited file would).
fn instance_file(name: &str, snk: (usize, usize), weight: f64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pamr_cli_invalid_instance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let json = format!(
        r#"{{"mesh": {{"p": 4, "q": 4}}, "comms": [
            {{"src": {{"u": 0, "v": 0}}, "snk": {{"u": 1, "v": 1}}, "weight": 300.0}},
            {{"src": {{"u": 0, "v": 0}}, "snk": {{"u": {}, "v": {}}}, "weight": {weight:?}}}
        ]}}"#,
        snk.0, snk.1
    );
    std::fs::write(&path, json).unwrap();
    path
}

/// Stderr of a `pamr` run that must fail on its input (exit status 1,
/// not a panic's 101).
fn refused_input(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
        .args(args)
        .output()
        .expect("failed to spawn pamr");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "pamr {args:?}: {stderr}");
    stderr
}

#[test]
fn off_mesh_instances_are_refused() {
    let inst = instance_file("off_mesh.json", (9, 2), 300.0);
    let inst = inst.to_str().unwrap();
    for args in [
        &["route", "--instance", inst][..],
        &["frontier", "--instance", inst][..],
    ] {
        let stderr = refused_input(args);
        assert!(
            stderr.contains("communication 1") && stderr.contains("leaves the 4x4 mesh"),
            "pamr {args:?}: {stderr}"
        );
    }
}

#[test]
fn non_positive_weights_are_refused() {
    for (name, weight) in [("zero.json", 0.0), ("negative.json", -5.0)] {
        let inst = instance_file(name, (3, 3), weight);
        let inst = inst.to_str().unwrap();
        for args in [
            &["route", "--instance", inst][..],
            &["frontier", "--instance", inst][..],
        ] {
            let stderr = refused_input(args);
            assert!(
                stderr.contains("communication 1") && stderr.contains("strictly positive"),
                "pamr {args:?}: {stderr}"
            );
        }
    }
}
