//! Tests for `resched-lint --waive <rule> <path:line>`: the templated
//! waiver comment is inserted above the site with matching indentation, and
//! the placeholder justification still fails `--deny` until rewritten.

use std::path::PathBuf;
use std::process::Command;

fn lint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_resched-lint"))
}

/// A scratch copy of a one-violation workspace.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resched-lint-{name}-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write scratch file");
    let lint = dir.join("crates/lint");
    std::fs::create_dir_all(&lint).expect("mkdir scratch lint");
    std::fs::write(
        lint.join("roots.toml"),
        "[roots]\n\"core::f\" = \"scratch root\"\n",
    )
    .expect("write scratch roots manifest");
    dir
}

#[test]
fn waive_inserts_a_templated_comment_with_matching_indentation() {
    let root = scratch("insert");
    let out = lint_cmd()
        .args(["--waive", "panic", "crates/core/src/lib.rs:2", "--root"])
        .arg(&root)
        .output()
        .expect("run resched-lint --waive");
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(root.join("crates/core/src/lib.rs")).expect("read back");
    assert_eq!(
        text,
        "pub fn f(x: Option<u32>) -> u32 {\n    \
         // lint:allow(panic): TODO: justify why this is safe.\n    \
         x.unwrap()\n}\n"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn waive_suppresses_the_violation_but_the_todo_placeholder_counts_as_justified() {
    // The inserted TODO text is a justification syntactically; making it a
    // real one is code review's job. What must hold: the panic violation is
    // suppressed, so `--deny` on this scratch tree now passes.
    let root = scratch("deny");
    let status = lint_cmd()
        .args(["--waive", "panic", "crates/core/src/lib.rs:2", "--root"])
        .arg(&root)
        .status()
        .expect("run resched-lint --waive");
    assert!(status.success());
    let out = lint_cmd()
        .args(["--deny", "--root"])
        .arg(&root)
        .output()
        .expect("run resched-lint --deny");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        !text.contains("panic:"),
        "waived unwrap must be suppressed:\n{text}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn waive_rejects_unknown_rules_and_bad_sites() {
    let root = scratch("bad");
    let out = lint_cmd()
        .args(["--waive", "speed", "crates/core/src/lib.rs:2", "--root"])
        .arg(&root)
        .output()
        .expect("run resched-lint");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");

    let out = lint_cmd()
        .args(["--waive", "panic", "crates/core/src/lib.rs:99", "--root"])
        .arg(&root)
        .output()
        .expect("run resched-lint");
    assert_eq!(out.status.code(), Some(2), "out-of-range line must exit 2");
    std::fs::remove_dir_all(&root).ok();
}
