//! End-to-end CLI tests over the frozen fixture tree in
//! `crates/lint/fixtures/tree`: the report must match the checked-in golden
//! byte-for-byte, `--deny` must fail, and path filters must restrict the
//! report.

use std::path::PathBuf;
use std::process::Command;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
}

fn lint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_resched-lint"))
}

#[test]
fn fixture_tree_matches_the_golden_report() {
    let out = lint_cmd()
        .args(["--deny", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run resched-lint");
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden_report.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden report");
    let got = String::from_utf8(out.stdout).expect("utf8 report");
    assert_eq!(
        got, golden,
        "fixture report drifted from the golden; if the change is intentional, regenerate with \
         `cargo run -p resched-lint -- --root crates/lint/fixtures/tree > \
         crates/lint/fixtures/golden_report.txt`"
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "--deny must exit 1 on the seeded fixture tree"
    );
}

#[test]
fn seeded_violations_are_reported_at_exact_sites() {
    let out = lint_cmd()
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run resched-lint");
    assert_eq!(out.status.code(), Some(0), "warn mode always exits 0");
    let text = String::from_utf8(out.stdout).expect("utf8 report");
    for needle in [
        "crates/core/src/cpa.rs:5: panic:",
        // The transitive positives three hops below the root, each carrying
        // the full BFS witness chain.
        "crates/core/src/hot.rs:19: det: env::var is nondeterministic on a hot path; \
         witness: core::hot::schedule_tick → core::hot::sweep → core::hot::place",
        "crates/core/src/hot.rs:20: panic: indexing `[n]` without get reachable on a hot path; \
         witness: core::hot::schedule_tick → core::hot::sweep → core::hot::place",
        "crates/core/src/hot.rs:7: dynamic-call: indirect call through fn-typed parameter `pick`",
        "crates/core/src/sched.rs:10: waiver: waiver for `det` matches no violation",
        "crates/core/src/sched.rs:16: waiver: waiver names unknown rule `nondet`",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // The justified waiver in sched.rs suppresses its expect().
    assert!(
        !text.contains("sched.rs:6"),
        "waived expect() must not be reported:\n{text}"
    );
    // The waived and unreachable cases stay silent: guarded()'s expect
    // (27), backend_kind()'s env read (34), and all of offline_report
    // (40-42).
    for clean in [":27:", ":34:", ":40:", ":41:", ":42:"] {
        let needle = format!("hot.rs{clean}");
        assert!(
            !text.contains(&needle),
            "`{needle}` must not be reported:\n{text}"
        );
    }
}

#[test]
fn why_pins_the_witness_chain_byte_exactly() {
    let out = lint_cmd()
        .args([
            "--why",
            "core::hot::schedule_tick",
            "core::hot::place",
            "--root",
        ])
        .arg(fixture_root())
        .output()
        .expect("run resched-lint --why");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8 chain");
    assert_eq!(
        text,
        "core::hot::schedule_tick\n  core::hot::sweep\n    core::hot::place\n"
    );
}

#[test]
fn why_reports_unreachable_pairs_on_stderr() {
    let out = lint_cmd()
        .args([
            "--why",
            "core::hot::schedule_tick",
            "core::hot::offline_report",
            "--root",
        ])
        .arg(fixture_root())
        .output()
        .expect("run resched-lint --why");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        err.contains("no path from `core::hot::schedule_tick` to `core::hot::offline_report`"),
        "{err}"
    );
}

#[test]
fn path_filters_restrict_the_report_without_unsounding_cross_file_rules() {
    let out = lint_cmd()
        .arg("--root")
        .arg(fixture_root())
        .arg("crates/core/src/cpa.rs")
        .output()
        .expect("run resched-lint");
    let text = String::from_utf8(out.stdout).expect("utf8 report");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "filter must keep only the cpa.rs violation:\n{text}"
    );
    assert!(lines[0].starts_with("crates/core/src/cpa.rs:5: panic:"));
}
