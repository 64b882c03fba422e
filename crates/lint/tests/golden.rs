//! Golden-diagnostics gate for the lint pass itself.
//!
//! `fixtures/tree/` is a miniature workspace with one seeded violation per
//! rule (plus waiver-hygiene seeds); `fixtures/expected.json` pins the
//! byte-exact `--json` report the real walker + rule passes produce over
//! it. A rule that silently stops firing — or starts firing somewhere new —
//! changes these bytes and fails here.
//!
//! When a rule intentionally changes, regenerate and review the diff:
//!
//! ```text
//! PAMR_BLESS=1 cargo test -p pamr-lint --test golden
//! ```

use pamr_lint::config::Config;
use pamr_lint::driver;
use pamr_lint::report;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn seeded_tree_reproduces_the_committed_diagnostics() {
    let result = driver::check_workspace(&fixture_dir().join("tree"), &Config::default())
        .expect("fixture tree walks");
    let current = report::render_json(&result.diagnostics);

    let path = fixture_dir().join("expected.json");
    if std::env::var_os("PAMR_BLESS").is_some() {
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with PAMR_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, current,
        "lint diagnostics over the seeded tree diverged byte-for-byte from \
         the committed fixture (if intentional: PAMR_BLESS=1 cargo test -p \
         pamr-lint --test golden)"
    );
}

#[test]
fn every_rule_fires_on_its_seed() {
    // Independent of the pinned bytes: each registered rule must produce at
    // least one diagnostic from its seed file, so no rule can silently rot
    // even while the fixture is being re-blessed.
    let result = driver::check_workspace(&fixture_dir().join("tree"), &Config::default())
        .expect("fixture tree walks");
    for rule in [
        "D001", "D002", "D003", "P001", "U001", "V001", "W000", "W001",
    ] {
        assert!(
            result.diagnostics.iter().any(|d| d.rule == rule),
            "rule {rule} fired nowhere in the seeded tree"
        );
    }
}

#[test]
fn waivers_suppress_in_the_seeded_tree() {
    // The reason-carrying waiver in d001_seed.rs and the reasonless one in
    // waiver_seed.rs must both suppress their D001 (W000 is the enforcement
    // for the latter, not non-suppression).
    let result = driver::check_workspace(&fixture_dir().join("tree"), &Config::default())
        .expect("fixture tree walks");
    for (file, line) in [
        ("crates/sim/src/d001_seed.rs", 8),
        ("crates/sim/src/waiver_seed.rs", 6),
    ] {
        assert!(
            !result
                .diagnostics
                .iter()
                .any(|d| d.rule == "D001" && d.file == file && d.line == line),
            "waived D001 at {file}:{line} leaked into the report"
        );
    }
    assert_eq!(result.waivers.len(), 3, "seeded tree carries three waivers");
}

#[test]
fn severity_overrides_downgrade_and_disable() {
    let mut warn_cfg = Config::default();
    warn_cfg.set("P001=warn").unwrap();
    let warns = driver::check_workspace(&fixture_dir().join("tree"), &warn_cfg)
        .expect("fixture tree walks");
    let p001: Vec<_> = warns
        .diagnostics
        .iter()
        .filter(|d| d.rule == "P001")
        .collect();
    assert!(!p001.is_empty());
    assert!(p001
        .iter()
        .all(|d| d.severity == pamr_lint::report::Severity::Warn));

    let mut off_cfg = Config::default();
    off_cfg.set("P001=off").unwrap();
    let offs =
        driver::check_workspace(&fixture_dir().join("tree"), &off_cfg).expect("fixture tree walks");
    assert!(offs.diagnostics.iter().all(|d| d.rule != "P001"));
}
