//! Per-rule fixture tests: each transitive proof gets positive (violation
//! reported), negative (clean code passes), and waived (suppressed, and the
//! waiver bookkeeping is checked) cases, all over in-memory workspaces.

use resched_lint::{run, Config, Rule, Violation, Workspace};

/// The base workspace: a roots manifest with no roots, so the transitive
/// proofs have no subject. Tests that exercise them overlay their own
/// manifest via `lint_rooted`.
fn base() -> Vec<(String, String)> {
    vec![(
        "crates/lint/roots.toml".to_string(),
        "[roots]\n".to_string(),
    )]
}

/// Lint the base plus `extra` files, returning the full report.
fn lint(extra: &[(&str, &str)]) -> Vec<Violation> {
    let mut inputs = base();
    inputs.extend(extra.iter().map(|(p, t)| (p.to_string(), t.to_string())));
    let ws = Workspace::from_memory(inputs);
    run(&ws, &Config::default())
}

/// Lint with a roots-manifest overlay (replacing the base's empty one)
/// plus `extra` files.
fn lint_rooted(roots: &str, extra: &[(&str, &str)]) -> Vec<Violation> {
    let mut inputs: Vec<(String, String)> = base()
        .into_iter()
        .filter(|(p, _)| p != "crates/lint/roots.toml")
        .collect();
    inputs.push(("crates/lint/roots.toml".to_string(), roots.to_string()));
    inputs.extend(extra.iter().map(|(p, t)| (p.to_string(), t.to_string())));
    let ws = Workspace::from_memory(inputs);
    run(&ws, &Config::default())
}

/// Manifest overlay rooting the transitive proofs at `core::fix::entry`.
const FIX_ROOTS: &str = "[roots]\n\"core::fix::entry\" = \"fixture root\"\n";

/// The `(path, line)` pairs reported for `rule`.
fn sites(violations: &[Violation], rule: Rule) -> Vec<(String, usize)> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.path.clone(), v.line))
        .collect()
}

#[test]
fn base_fixture_is_clean() {
    let report = lint(&[]);
    assert!(report.is_empty(), "base fixture must be clean: {report:?}");
}

// ---------------------------------------------------------------------------
// panic (transitive reachability from roots.toml)
// ---------------------------------------------------------------------------

#[test]
fn panic_constructs_reachable_from_a_root_are_flagged() {
    // entry → helper → deep: every panic construct in the reachable cone
    // is reported at its sink line, with the BFS witness in the message.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: Option<u32>) -> u32 {\n    helper(x)\n}\nfn helper(x: Option<u32>) -> u32 {\n    deep(x)\n}\nfn deep(x: Option<u32>) -> u32 {\n    let v = [0u32, 1, 2, 3];\n    let _ = v[3usize];\n    x.expect(\"present\");\n    x.unwrap()\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![
            ("crates/core/src/fix.rs".to_string(), 9),
            ("crates/core/src/fix.rs".to_string(), 10),
            ("crates/core/src/fix.rs".to_string(), 11),
        ]
    );
    let v = report.iter().find(|v| v.rule == Rule::Panic).unwrap();
    assert!(
        v.message
            .contains("witness: core::fix::entry → core::fix::helper → core::fix::deep"),
        "message must carry the witness chain: {}",
        v.message
    );
}

#[test]
fn panic_negatives_pass() {
    // Non-panicking relatives on the hot path, unreachable library code,
    // and test code under a reachable module are all fine.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: Option<u32>) -> u32 {\n    x.unwrap_or(0).max(x.unwrap_or_else(|| 1))\n}\npub fn unrooted(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
        )],
    );
    assert_eq!(sites(&report, Rule::Panic), Vec::<(String, usize)>::new());
}

#[test]
fn panic_waiver_on_the_sink_line_suppresses() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: Option<u32>) -> u32 {\n    // lint:allow(panic): x is Some by construction at every call site.\n    x.unwrap()\n}\n",
        )],
    );
    assert!(report.is_empty(), "waived unwrap must be clean: {report:?}");
}

#[test]
fn fn_level_panic_transitive_waiver_is_a_bfs_barrier() {
    // The waiver on `mid` stops the panic proof from descending, so the
    // unwrap in `deep` is unreachable and the waiver itself is consumed.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: Option<u32>) -> u32 {\n    mid(x)\n}\n// lint:allow(panic-transitive): inputs are validated at the arena boundary; the cone below is total.\nfn mid(x: Option<u32>) -> u32 {\n    deep(x)\n}\nfn deep(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )],
    );
    assert!(
        report.is_empty(),
        "waived subtree must be clean: {report:?}"
    );
}

#[test]
fn stale_panic_transitive_waiver_is_rot() {
    // No root reaches `orphan`, so its fn-level waiver intercepts nothing
    // and must be deleted.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: u32) -> u32 {\n    x\n}\n// lint:allow(panic-transitive): stale — nothing reaches this any more.\nfn orphan(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Waiver),
        vec![("crates/core/src/fix.rs".to_string(), 4)]
    );
    assert!(
        report[0].message.contains("matches no violation"),
        "{}",
        report[0].message
    );
}

#[test]
fn type_glob_root_covers_every_method() {
    let report = lint_rooted(
        "[roots]\n\"core::fix::Gadget::*\" = \"every backend method\"\n",
        &[(
            "crates/core/src/fix.rs",
            "pub struct Gadget;\nimpl Gadget {\n    pub fn a(x: Option<u32>) -> u32 {\n        x.unwrap()\n    }\n    pub fn b() -> u32 {\n        1\n    }\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![("crates/core/src/fix.rs".to_string(), 4)]
    );
}

// ---------------------------------------------------------------------------
// retired families
// ---------------------------------------------------------------------------

#[test]
fn stale_alloc_waiver_from_the_marker_era_is_flagged() {
    // A leftover waiver for a retired family (`alloc`, and since the
    // lexical families went to clippy and the tests, `nondet`, `obs`,
    // `catalog`, `parity`) names a rule that no longer exists, and the
    // lint demands its deletion.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: u32) -> u32 {\n    x\n}\npub fn cold(n: usize) -> Vec<u32> {\n    // lint:allow(alloc): cold branch taken once per run, outside the steady-state pin.\n    let mut v = Vec::new();\n    v.extend(0..n as u32);\n    v\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Waiver),
        vec![("crates/core/src/fix.rs".to_string(), 5)]
    );
    assert!(
        report[0].message.contains("unknown rule `alloc`"),
        "{}",
        report[0].message
    );
}

// ---------------------------------------------------------------------------
// det (transitive)
// ---------------------------------------------------------------------------

#[test]
fn det_sinks_reachable_from_a_root_are_flagged() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry() -> String {\n    knob()\n}\nfn knob() -> String {\n    std::env::var(\"RESCHED_FIX\").unwrap_or_default()\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Det),
        vec![("crates/core/src/fix.rs".to_string(), 5)]
    );
    let v = report.iter().find(|v| v.rule == Rule::Det).unwrap();
    assert!(
        v.message
            .contains("witness: core::fix::entry → core::fix::knob"),
        "{}",
        v.message
    );
}

#[test]
fn det_transitive_waiver_is_a_barrier_and_is_consumed() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry() -> String {\n    mid()\n}\n// lint:allow(det-transitive): reads an override once at startup; it never changes a schedule.\nfn mid() -> String {\n    std::env::var(\"RESCHED_FIX\").unwrap_or_default()\n}\n",
        )],
    );
    assert!(
        report.is_empty(),
        "waived subtree must be clean: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// dynamic-call
// ---------------------------------------------------------------------------

#[test]
fn indirect_call_through_a_fn_typed_parameter_is_flagged() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: u32, f: impl Fn(u32) -> u32) -> u32 {\n    f(x)\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::DynamicCall),
        vec![("crates/core/src/fix.rs".to_string(), 2)]
    );
    let v = report.iter().find(|v| v.rule == Rule::DynamicCall).unwrap();
    assert!(
        v.message.contains("fn-typed parameter `f`"),
        "{}",
        v.message
    );
}

#[test]
fn waived_dynamic_call_is_suppressed() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry(x: u32, f: impl Fn(u32) -> u32) -> u32 {\n    // lint:allow(dynamic-call): every caller passes a pure arithmetic closure.\n    f(x)\n}\n",
        )],
    );
    assert!(report.is_empty(), "waived call must be clean: {report:?}");
}

#[test]
fn dynamic_call_in_an_unreachable_function_is_not_flagged() {
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "pub fn entry() -> u32 {\n    1\n}\npub fn unrooted(x: u32, f: impl Fn(u32) -> u32) -> u32 {\n    f(x)\n}\n",
        )],
    );
    assert!(report.is_empty(), "{report:?}");
}

// ---------------------------------------------------------------------------
// roots manifest
// ---------------------------------------------------------------------------

#[test]
fn missing_roots_manifest_is_flagged() {
    let inputs: Vec<(String, String)> = base()
        .into_iter()
        .filter(|(p, _)| p != "crates/lint/roots.toml")
        .collect();
    let ws = Workspace::from_memory(inputs);
    let report = run(&ws, &Config::default());
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![("crates/lint/roots.toml".to_string(), 1)]
    );
    assert!(
        report[0].message.contains("roots manifest is missing"),
        "{}",
        report[0].message
    );
}

#[test]
fn unresolvable_root_is_flagged() {
    let report = lint_rooted("[roots]\n\"core::fix::ghost\" = \"renamed away\"\n", &[]);
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![("crates/lint/roots.toml".to_string(), 2)]
    );
    assert!(
        report[0]
            .message
            .contains("root `core::fix::ghost` does not resolve"),
        "{}",
        report[0].message
    );
}

#[test]
fn malformed_manifest_entries_are_flagged() {
    let report = lint_rooted(
        "\"core::fix::entry\" = \"before any section\"\n[hot-stuff]\n[roots]\ncore::fix::entry = \"unquoted key\"\n",
        &[],
    );
    let p = sites(&report, Rule::Panic);
    assert_eq!(
        p,
        vec![
            ("crates/lint/roots.toml".to_string(), 1),
            ("crates/lint/roots.toml".to_string(), 2),
            ("crates/lint/roots.toml".to_string(), 4),
        ]
    );
    assert!(report[0].message.contains("entry outside any section"));
    assert!(report[1].message.contains("unknown section [hot-stuff]"));
    assert!(report[2].message.contains("malformed entry"));
}

// ---------------------------------------------------------------------------
// waiver bookkeeping
// ---------------------------------------------------------------------------

#[test]
fn unknown_rule_empty_justification_and_unused_waivers_are_flagged() {
    let report = lint_rooted(
        "[roots]\n\"core::fix::b\" = \"fixture root\"\n",
        &[(
            "crates/core/src/fix.rs",
            "// lint:allow(speed): not a rule.\npub fn a() {}\n// lint:allow(panic):\npub fn b(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n// lint:allow(det): nothing below is nondeterministic.\npub fn c() {}\n",
        )],
    );
    let w = sites(&report, Rule::Waiver);
    assert_eq!(
        w,
        vec![
            ("crates/core/src/fix.rs".to_string(), 1),
            ("crates/core/src/fix.rs".to_string(), 3),
            ("crates/core/src/fix.rs".to_string(), 7),
        ]
    );
    // The unwrap under the justification-less waiver is still reported.
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![("crates/core/src/fix.rs".to_string(), 5)]
    );
}

#[test]
fn waiver_must_be_adjacent_to_the_violation() {
    // A blank line between the waiver and the violation breaks coverage:
    // the violation is reported and the waiver is unused.
    let report = lint_rooted(
        FIX_ROOTS,
        &[(
            "crates/core/src/fix.rs",
            "// lint:allow(panic): too far away to count.\n\npub fn entry(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )],
    );
    assert_eq!(
        sites(&report, Rule::Panic),
        vec![("crates/core/src/fix.rs".to_string(), 4)]
    );
    assert_eq!(
        sites(&report, Rule::Waiver),
        vec![("crates/core/src/fix.rs".to_string(), 1)]
    );
}
