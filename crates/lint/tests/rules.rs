//! Per-rule fixture tests: each rule family gets positive (violation
//! reported), negative (clean code passes), and waived (suppressed, and the
//! waiver bookkeeping is checked) cases, all over in-memory workspaces.

use resched_lint::{run, Config, Rule, Violation, Workspace};

/// A minimal, fully clean base workspace satisfying the default [`Config`]:
/// manifest + names module in sync, catalog + docs + golden + harnesses in
/// sync. Tests overlay fixture files on top.
fn base() -> Vec<(String, String)> {
    let pairs: &[(&str, &str)] = &[
        (
            "crates/core/src/obs/metrics.toml",
            "[counters]\n\"fix.count\" = \"fixture counter\"\n\n[spans]\n\"fix.span\" = \"fixture span\"\n",
        ),
        (
            "crates/core/src/obs.rs",
            "pub const FIX_COUNT: &str = \"fix.count\";\npub const FIX_SPAN: &str = \"fix.span\";\n",
        ),
        ("crates/core/src/algos/catalog.txt", "ALG_A\nALG_B\n"),
        (
            "DESIGN.md",
            "# design\n\n<!-- lint:catalog:begin -->\n`ALG_A` `ALG_B`\n<!-- lint:catalog:end -->\n",
        ),
        (
            "EXPERIMENTS.md",
            "# experiments\n\n<!-- lint:catalog:begin -->\n`ALG_A` `ALG_B`\n<!-- lint:catalog:end -->\n",
        ),
        (
            "results/golden/obs_differential.json",
            "{\"runs\": [{\"algorithm\": \"ALG_A\"}, {\"algorithm\": \"ALG_B\"}]}\n",
        ),
        (
            "tests/tests/obs_differential.rs",
            "#[test]\nfn all() {\n    for a in Algorithm::catalog() {\n        let _ = a;\n    }\n}\n",
        ),
        (
            "tests/tests/prop_scheduling.rs",
            "#[test]\nfn all() {\n    for a in Algorithm::catalog() {\n        let _ = a;\n    }\n}\n",
        ),
        // No roots declared: the transitive proofs have no subject, so the
        // base stays clean. Tests that exercise them overlay their own
        // manifest via `lint_rooted`.
        ("crates/lint/roots.toml", "[roots]\n"),
    ];
    pairs
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect()
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
// nondet
// ---------------------------------------------------------------------------

#[test]
fn hashmap_order_reaching_output_is_flagged() {
    // The hazard class fixed in crates/sim (args.rs, scenario.rs) and
    // crates/core (dag.rs): map iteration order escapes into a Vec.
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "use std::collections::HashMap;\npub fn jitter(xs: &[(u32, u32)]) -> Vec<u32> {\n    let m: HashMap<u32, u32> = xs.iter().copied().collect();\n    m.values().copied().collect()\n}\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Nondet),
        vec![
            ("crates/core/src/fix.rs".to_string(), 1),
            ("crates/core/src/fix.rs".to_string(), 3),
        ]
    );
}

#[test]
fn wall_clock_and_float_eq_are_flagged() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\npub fn s() {\n    let _ = std::time::SystemTime::now();\n}\npub fn close(a: f64) -> bool {\n    a == 0.5\n}\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Nondet),
        vec![
            ("crates/core/src/fix.rs".to_string(), 2),
            ("crates/core/src/fix.rs".to_string(), 5),
            ("crates/core/src/fix.rs".to_string(), 8),
        ]
    );
}

#[test]
fn nondet_negatives_pass() {
    let report = lint(&[
        // BTree collections, float inequalities, and strings/comments that
        // merely mention the tokens are all fine.
        (
            "crates/core/src/fix.rs",
            "use std::collections::BTreeMap;\n// A HashMap would be bad here.\npub fn ok(m: &BTreeMap<u32, u32>, a: f64) -> bool {\n    let _ = \"HashMap Instant::now SystemTime\";\n    m.len() > 1 && a <= 0.5\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::collections::HashMap::<u32, u32>::new();\n    }\n}\n",
        ),
        // Files outside nondet scope may use wall clocks.
        (
            "crates/bench/src/fix.rs",
            "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        ),
    ]);
    assert_eq!(sites(&report, Rule::Nondet), Vec::<(String, usize)>::new());
}

#[test]
fn timing_allowlist_permits_instant_in_the_obs_module() {
    let report = lint(&[(
        "crates/core/src/obs.rs",
        "pub const FIX_COUNT: &str = \"fix.count\";\npub const FIX_SPAN: &str = \"fix.span\";\npub fn stopwatch() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )]);
    assert_eq!(sites(&report, Rule::Nondet), Vec::<(String, usize)>::new());
}

#[test]
fn nondet_waiver_suppresses_and_is_consumed() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "// lint:allow(nondet): the set is only probed with contains(); order never escapes.\npub fn ok(s: &std::collections::HashSet<u32>) -> bool {\n    s.contains(&3)\n}\n",
    )]);
    assert!(report.is_empty(), "waived hazard must be clean: {report:?}");
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
// obs
// ---------------------------------------------------------------------------

#[test]
fn typoed_metric_name_gets_a_suggestion() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "pub fn f() {\n    crate::obs::counter_add(\"fix.cont\", 1);\n}\n",
    )]);
    let obs: Vec<&Violation> = report.iter().filter(|v| v.rule == Rule::Obs).collect();
    assert_eq!(obs.len(), 1);
    assert_eq!(
        (obs[0].path.as_str(), obs[0].line),
        ("crates/core/src/fix.rs", 2)
    );
    assert!(
        obs[0].message.contains("did you mean \"fix.count\"?"),
        "message must carry the edit-distance suggestion: {}",
        obs[0].message
    );
}

#[test]
fn wrong_manifest_section_is_flagged() {
    // "fix.count" is declared, but under [counters], not [histograms].
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "pub fn f() {\n    crate::obs::record_value(\"fix.count\", 3);\n}\n",
    )]);
    let obs: Vec<&Violation> = report.iter().filter(|v| v.rule == Rule::Obs).collect();
    assert_eq!(obs.len(), 1);
    assert!(
        obs[0].message.contains("not under [histograms]"),
        "{}",
        obs[0].message
    );
}

#[test]
fn unused_manifest_entry_is_flagged_at_its_line() {
    let report = lint(&[(
        "crates/core/src/obs/metrics.toml",
        "[counters]\n\"fix.count\" = \"fixture counter\"\n\"fix.orphan\" = \"never used\"\n\n[spans]\n\"fix.span\" = \"fixture span\"\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Obs),
        vec![("crates/core/src/obs/metrics.toml".to_string(), 3)]
    );
}

#[test]
fn undeclared_name_constant_is_flagged() {
    let report = lint(&[(
        "crates/core/src/obs.rs",
        "pub const FIX_COUNT: &str = \"fix.count\";\npub const FIX_SPAN: &str = \"fix.span\";\npub const ROGUE: &str = \"fix.rogue\";\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Obs),
        vec![("crates/core/src/obs.rs".to_string(), 3)]
    );
}

#[test]
fn obs_negatives_pass() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        // Declared names, the span! macro form, and a call through a
        // constant (checked at the constant's definition, not here).
        "pub fn f() {\n    crate::obs::counter_add(\"fix.count\", 1);\n    crate::span!(\"fix.span\");\n    crate::obs::counter_add(super::obs::names::FIX_COUNT, 1);\n}\n",
    )]);
    assert_eq!(sites(&report, Rule::Obs), Vec::<(String, usize)>::new());
}

#[test]
fn obs_waiver_suppresses() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "pub fn f() {\n    // lint:allow(obs): experimental probe, intentionally unregistered.\n    crate::obs::counter_add(\"fix.experimental\", 1);\n}\n",
    )]);
    assert!(
        report.is_empty(),
        "waived obs name must be clean: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// catalog
// ---------------------------------------------------------------------------

#[test]
fn doc_table_drift_is_flagged_both_ways() {
    let report = lint(&[(
        "DESIGN.md",
        // `ALG_EXTRA` is not in the manifest; `ALG_B` is missing here.
        "# design\n\n<!-- lint:catalog:begin -->\n`ALG_A` `ALG_EXTRA`\n<!-- lint:catalog:end -->\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Catalog),
        vec![
            // Extra name reported in the doc (paths sort case-sensitively).
            ("DESIGN.md".to_string(), 4),
            // Missing name reported at its catalog.txt line.
            ("crates/core/src/algos/catalog.txt".to_string(), 2),
        ]
    );
}

#[test]
fn golden_missing_an_algorithm_is_flagged() {
    let report = lint(&[(
        "results/golden/obs_differential.json",
        "{\"runs\": [{\"algorithm\": \"ALG_A\"}]}\n",
    )]);
    let cat = sites(&report, Rule::Catalog);
    assert_eq!(
        cat,
        vec![("crates/core/src/algos/catalog.txt".to_string(), 2)]
    );
    assert!(report.iter().any(|v| v
        .message
        .contains("never appears in results/golden/obs_differential.json")));
}

#[test]
fn harness_without_full_catalog_coverage_is_flagged() {
    let report = lint(&[(
        "tests/tests/obs_differential.rs",
        "#[test]\nfn partial() {\n    let _ = Algorithm::by_name(\"ALG_A\");\n    let _ = Algorithm::by_name(\"ALG_GONE\");\n}\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Catalog),
        vec![
            // No Algorithm::catalog() sweep...
            ("tests/tests/obs_differential.rs".to_string(), 1),
            // ...and a by_name() of an uncataloged algorithm.
            ("tests/tests/obs_differential.rs".to_string(), 4),
        ]
    );
}

// ---------------------------------------------------------------------------
// parity
// ---------------------------------------------------------------------------

#[test]
fn unpaired_obs_gate_is_flagged() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "#[cfg(feature = \"obs\")]\npub fn only_with_obs() {}\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Parity),
        vec![("crates/core/src/fix.rs".to_string(), 1)]
    );
}

#[test]
fn orphan_negative_stub_is_flagged() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "#[cfg(not(feature = \"obs\"))]\npub fn stub_without_real_impl() {}\n",
    )]);
    assert_eq!(
        sites(&report, Rule::Parity),
        vec![("crates/core/src/fix.rs".to_string(), 1)]
    );
}

#[test]
fn paired_gates_pass_and_other_features_are_ignored() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "#[cfg(feature = \"obs\")]\npub fn real() {}\n#[cfg(not(feature = \"obs\"))]\npub fn real() {}\n#[cfg(feature = \"validate\")]\npub fn unrelated() {}\n",
    )]);
    assert_eq!(sites(&report, Rule::Parity), Vec::<(String, usize)>::new());
}

#[test]
fn parity_waiver_suppresses() {
    let report = lint(&[(
        "crates/core/src/fix.rs",
        "// lint:allow(parity): diagnostic-only helper, deliberately absent without obs.\n#[cfg(feature = \"obs\")]\npub fn diag() {}\n",
    )]);
    assert!(report.is_empty(), "waived gate must be clean: {report:?}");
}

// ---------------------------------------------------------------------------
// parity: violation kinds
// ---------------------------------------------------------------------------

/// A wired violation enum: both kinds declared, rendered, constructed in
/// the validator module, and labeled by the fuzz shrinker.
fn violation_base() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "crates/core/src/validate.rs",
            "pub enum Violation {\n    Overlap { at: usize },\n    Gap(usize),\n}\n\
             pub fn render(v: &Violation) -> usize {\n    match v {\n        \
             Violation::Overlap { at } => *at,\n        Violation::Gap(n) => *n,\n    }\n}\n\
             pub fn check(at: usize) -> Violation {\n    if at > 0 {\n        \
             Violation::Overlap { at }\n    } else {\n        Violation::Gap(at)\n    }\n}\n",
        ),
        (
            "tests/fuzz.rs",
            "pub fn violation_label(v: &Violation) -> usize {\n    match v {\n        \
             Violation::Overlap { .. } => 1,\n        Violation::Gap(_) => 2,\n    }\n}\n",
        ),
    ]
}

#[test]
fn wired_violation_kinds_are_clean() {
    let report = lint(&violation_base());
    assert_eq!(sites(&report, Rule::Parity), Vec::<(String, usize)>::new());
}

#[test]
fn declared_but_unwired_violation_kind_is_flagged() {
    let mut fx = violation_base();
    // `Ghost` is declared (line 4) but never rendered or constructed.
    fx[0].1 = "pub enum Violation {\n    Overlap { at: usize },\n    Gap(usize),\n    Ghost,\n}\n\
               pub fn render(v: &Violation) -> usize {\n    match v {\n        \
               Violation::Overlap { at } => *at,\n        Violation::Gap(n) => *n,\n        _ => 0,\n    }\n}\n\
               pub fn check(at: usize) -> Violation {\n    if at > 0 {\n        \
               Violation::Overlap { at }\n    } else {\n        Violation::Gap(at)\n    }\n}\n";
    let report = lint(&fx);
    // Under-used in the module, and absent from the shrink harness.
    assert_eq!(
        sites(&report, Rule::Parity),
        vec![
            ("crates/core/src/validate.rs".to_string(), 4),
            ("crates/core/src/validate.rs".to_string(), 4),
        ]
    );
}

#[test]
fn violation_kind_missing_from_shrink_harness_is_flagged() {
    let mut fx = violation_base();
    // The harness forgets `Gap` (declared at line 3 of the module).
    fx[1].1 = "pub fn violation_label(v: &Violation) -> usize {\n    match v {\n        \
               Violation::Overlap { .. } => 1,\n        _ => 0,\n    }\n}\n";
    let report = lint(&fx);
    assert_eq!(
        sites(&report, Rule::Parity),
        vec![("crates/core/src/validate.rs".to_string(), 3)]
    );
}

// ---------------------------------------------------------------------------
// retired families
// ---------------------------------------------------------------------------

#[test]
fn stale_alloc_waiver_from_the_marker_era_is_flagged() {
    // The `alloc` family is retired with the recycled scheduling context
    // it guarded: a leftover waiver for it names a rule that no longer
    // exists, and the lint demands its deletion.
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
            "// lint:allow(speed): not a rule.\npub fn a() {}\n// lint:allow(panic):\npub fn b(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n// lint:allow(nondet): nothing below is nondeterministic.\npub fn c() {}\n",
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
