//! `resched-lint` — the workspace's static-analysis pass.
//!
//! Deny-by-default rule families keep the reproduction's correctness
//! story enforceable at the source level (DESIGN.md §10, §18):
//!
//! * `nondet` — no `HashMap`/`HashSet`, wall-clock reads, or bare float
//!   `==`/`!=` in scheduler crates;
//! * `panic` — no `unwrap()`/`expect(`/`panic!`/`unreachable!`/unchecked
//!   indexing in any function transitively reachable from the hot-path
//!   roots declared in `crates/lint/roots.toml`;
//! * `det` — no `env::var`/`Instant::now`/`SystemTime::now`/thread spawn
//!   reachable from the same roots;
//! * `dynamic-call` — calls through fn-typed parameters on a proved path
//!   are conservatively reported, since the graph cannot resolve them;
//! * `obs` — every metric/span name used by `obs::` hooks is declared in
//!   `crates/core/src/obs/metrics.toml`, and every manifest entry is used;
//! * `catalog` — the algorithm catalog manifest, the DESIGN/EXPERIMENTS
//!   tables, the differential-test golden, and the test harnesses agree on
//!   the exact algorithm list;
//! * `parity` — every `#[cfg(feature = "obs")]` item has a
//!   `#[cfg(not(feature = "obs"))]` counterpart, and every `Violation`
//!   kind is wired through the validator oracle and the fuzz shrinker's
//!   labels.
//!
//! The transitive families run over an approximate name-resolved call
//! graph ([`symbols`], [`graph`]); diagnostics carry the witness chain
//! `root → … → sink`, and `--why root sink` reproduces it from the CLI.
//!
//! Violations are suppressed by inline waivers:
//!
//! ```text
//! // lint:allow(<rule>): <justification>
//! ```
//!
//! either trailing on the offending line or on a comment line directly
//! above it. The `*-transitive` spellings (`panic-transitive`,
//! `det-transitive`) attach to a function signature and clear every path
//! *through* that function in the graph. A waiver with no justification,
//! an unknown rule, or no matching violation is itself a violation (rule
//! `waiver`), so waivers cannot rot silently.

pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod symbols;

use lexer::Lexed;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule families. `Waiver` covers problems with waiver comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nondeterminism hazards in scheduler crates.
    Nondet,
    /// Panic sinks reachable from a hot-path root.
    Panic,
    /// Metric/span names out of sync with the manifest.
    Obs,
    /// Algorithm catalog drift.
    Catalog,
    /// `obs` feature gates without no-op stubs.
    Parity,
    /// Nondeterministic sources reachable from a hot-path root.
    Det,
    /// A call the graph cannot resolve (fn-typed parameter) on a path the
    /// transitive proofs must cover.
    DynamicCall,
    /// Waiver name for clearing every panic path *through* a function
    /// (a call-graph barrier); never reported as a violation itself.
    PanicTransitive,
    /// Barrier waiver for the det proof.
    DetTransitive,
    /// Malformed, unjustified, or unused waivers.
    Waiver,
}

impl Rule {
    /// All waivable rules (everything except `waiver` itself).
    pub const WAIVABLE: [Rule; 9] = [
        Rule::Nondet,
        Rule::Panic,
        Rule::Obs,
        Rule::Catalog,
        Rule::Parity,
        Rule::Det,
        Rule::DynamicCall,
        Rule::PanicTransitive,
        Rule::DetTransitive,
    ];

    /// The rule's name as written in reports and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Nondet => "nondet",
            Rule::Panic => "panic",
            Rule::Obs => "obs",
            Rule::Catalog => "catalog",
            Rule::Parity => "parity",
            Rule::Det => "det",
            Rule::DynamicCall => "dynamic-call",
            Rule::PanicTransitive => "panic-transitive",
            Rule::DetTransitive => "det-transitive",
            Rule::Waiver => "waiver",
        }
    }

    /// Parse a rule name as written in a waiver.
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::WAIVABLE.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule family.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// One lexed `.rs` source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Raw text (used for waiver insertion and marker scans).
    pub text: String,
    /// Lexed view.
    pub lexed: Lexed,
}

/// Everything the analyzer looks at: lexed `.rs` files plus the raw text of
/// manifests, docs, and goldens ("extras").
#[derive(Debug, Default)]
pub struct Workspace {
    /// Walked `.rs` files by workspace-relative path (sorted).
    pub files: BTreeMap<String, SourceFile>,
    /// Non-Rust inputs by workspace-relative path.
    pub extras: BTreeMap<String, String>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, text)` pairs. Paths ending
    /// in `.rs` are lexed; everything else is an extra. Used by fixture
    /// tests; [`Workspace::load`] is the filesystem front end.
    pub fn from_memory(inputs: impl IntoIterator<Item = (String, String)>) -> Workspace {
        let mut ws = Workspace::default();
        for (path, text) in inputs {
            if path.ends_with(".rs") {
                let lexed = lexer::lex(&text);
                ws.files.insert(path, SourceFile { text, lexed });
            } else {
                ws.extras.insert(path, text);
            }
        }
        ws
    }

    /// Walk the workspace rooted at `root`: every `.rs` file under
    /// `crates/*/src`, `crates/*/tests`, and `tests/`, plus the extras a
    /// [`Config`] refers to. The lint crate's own `fixtures/` tree is never
    /// walked. Returns deterministic, sorted contents.
    pub fn load(root: &Path, cfg: &Config) -> std::io::Result<Workspace> {
        let mut ws = Workspace::default();
        let mut rs_roots: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| Some(e.ok()?.path()))
                .collect();
            members.sort();
            for m in members {
                rs_roots.push(m.join("src"));
                rs_roots.push(m.join("tests"));
            }
        }
        rs_roots.push(root.join("tests"));
        for dir in rs_roots {
            walk_rs(root, &dir, &mut ws)?;
        }
        for extra in cfg.extra_paths() {
            let p = root.join(&extra);
            if let Ok(text) = std::fs::read_to_string(&p) {
                ws.extras.insert(extra, text);
            }
        }
        Ok(ws)
    }
}

/// Recursively collect `.rs` files under `dir` into `ws`, sorted.
fn walk_rs(root: &Path, dir: &Path, ws: &mut Workspace) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| Some(e.ok()?.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // `tests/repros` holds generated JSON repro cases; nothing to
            // lex there, and fixture trees must never self-lint.
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "repros" || name == "target" {
                continue;
            }
            walk_rs(root, &p, ws)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = rel_path(root, &p);
            let text = std::fs::read_to_string(&p)?;
            let lexed = lexer::lex(&text);
            ws.files.insert(rel, SourceFile { text, lexed });
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Rule scoping and manifest locations. [`Config::default`] describes the
/// real workspace; fixture tests build custom configs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes where the `nondet` family applies.
    pub nondet_paths: Vec<String>,
    /// Files allowed to read wall clocks (the designated timing module).
    pub timing_allowlist: Vec<String>,
    /// Path prefixes scanned for obs call sites and feature gates.
    pub src_paths: Vec<String>,
    /// The metric/span name manifest.
    pub metrics_manifest: String,
    /// The file whose `pub const NAME: &str = "..."` definitions are the
    /// canonical metric-name constants.
    pub names_module: String,
    /// The algorithm catalog manifest.
    pub catalog_manifest: String,
    /// Markdown docs that must carry a marker-delimited catalog table.
    pub catalog_docs: Vec<String>,
    /// Test files that must exercise the full catalog.
    pub catalog_tests: Vec<String>,
    /// Golden JSON files whose `"algorithm"` entries must match the catalog.
    pub catalog_goldens: Vec<String>,
    /// The module declaring `pub enum Violation` (the validator oracle).
    pub violation_module: String,
    /// Fuzz/shrink harnesses that must be able to label every violation
    /// kind.
    pub violation_tests: Vec<String>,
    /// The reachability-roots manifest for the transitive proofs.
    pub roots_manifest: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nondet_paths: vec![
                "crates/core/src".into(),
                "crates/resv/src".into(),
                "crates/sim/src".into(),
            ],
            timing_allowlist: vec!["crates/core/src/obs.rs".into()],
            src_paths: vec!["crates/".into()],
            metrics_manifest: "crates/core/src/obs/metrics.toml".into(),
            names_module: "crates/core/src/obs.rs".into(),
            catalog_manifest: "crates/core/src/algos/catalog.txt".into(),
            catalog_docs: vec!["DESIGN.md".into(), "EXPERIMENTS.md".into()],
            catalog_tests: vec![
                "tests/tests/obs_differential.rs".into(),
                "tests/tests/prop_scheduling.rs".into(),
            ],
            catalog_goldens: vec!["results/golden/obs_differential.json".into()],
            violation_module: "crates/core/src/validate.rs".into(),
            violation_tests: vec!["tests/fuzz.rs".into()],
            roots_manifest: "crates/lint/roots.toml".into(),
        }
    }
}

impl Config {
    /// Every non-`.rs` path the rules consult.
    pub fn extra_paths(&self) -> Vec<String> {
        let mut v = vec![
            self.metrics_manifest.clone(),
            self.catalog_manifest.clone(),
            self.roots_manifest.clone(),
        ];
        v.extend(self.catalog_docs.iter().cloned());
        v.extend(self.catalog_goldens.iter().cloned());
        v
    }
}

/// A parsed `// lint:allow(rule): justification` comment.
#[derive(Debug)]
struct Waiver {
    line: usize,
    rule: Option<Rule>,
    raw_rule: String,
    justification: String,
    used: Cell<bool>,
}

/// Violation sink with waiver suppression.
pub struct Sink {
    violations: Vec<Violation>,
    waivers: BTreeMap<String, Vec<Waiver>>,
}

/// The waiver grammar marker.
pub const WAIVER_PREFIX: &str = "lint:allow(";

/// Parse all waiver comments in `lexed`.
fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        let Some(comment) = &line.comment else {
            continue;
        };
        // The waiver must be the comment's whole content (`// lint:allow(...)`),
        // so prose *about* the grammar is never parsed as a waiver.
        let trimmed = comment.trim_start();
        let Some(rest) = trimmed.strip_prefix(WAIVER_PREFIX) else {
            continue;
        };
        let (raw_rule, just) = match rest.split_once(')') {
            Some((r, j)) => (
                r.trim().to_string(),
                j.trim_start()
                    .strip_prefix(':')
                    .unwrap_or("")
                    .trim()
                    .to_string(),
            ),
            None => (rest.trim().to_string(), String::new()),
        };
        out.push(Waiver {
            line: idx + 1,
            rule: Rule::from_name(&raw_rule),
            raw_rule,
            justification: just,
            used: Cell::new(false),
        });
    }
    out
}

impl Sink {
    fn new(ws: &Workspace) -> Sink {
        let waivers = ws
            .files
            .iter()
            .map(|(path, f)| (path.clone(), parse_waivers(&f.lexed)))
            .collect();
        Sink {
            violations: Vec::new(),
            waivers,
        }
    }

    /// Report a violation unless a waiver covers `(path, line, rule)`.
    ///
    /// A waiver covers a line when it sits on the line itself or on a
    /// comment-only line in the contiguous comment block directly above.
    pub fn emit(&mut self, ws: &Workspace, path: &str, line: usize, rule: Rule, message: String) {
        if let (Some(file), Some(waivers)) = (ws.files.get(path), self.waivers.get(path)) {
            let mut covered = vec![line];
            let mut l = line;
            while l > 1 {
                l -= 1;
                let above = file.lexed.line(l);
                if above.code.trim().is_empty() && above.comment.is_some() {
                    covered.push(l);
                } else {
                    break;
                }
            }
            for w in waivers {
                if w.rule == Some(rule) && covered.contains(&w.line) {
                    w.used.set(true);
                    return;
                }
            }
        }
        self.violations.push(Violation {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    }

    /// Mark the waiver at exactly `(path, line, rule)` as used. The
    /// transitive rules call this when a graph traversal stops at a
    /// barrier waiver, so barrier waivers that intercept no path are
    /// reported as stale by [`Sink::finish`] like any other unused waiver.
    pub fn consume(&self, path: &str, line: usize, rule: Rule) {
        if let Some(waivers) = self.waivers.get(path) {
            for w in waivers {
                if w.rule == Some(rule) && w.line == line {
                    w.used.set(true);
                }
            }
        }
    }

    /// After all rules ran: malformed or unused waivers become violations.
    fn finish(mut self) -> Vec<Violation> {
        for (path, waivers) in &self.waivers {
            for w in waivers {
                match w.rule {
                    None => self.violations.push(Violation {
                        path: path.clone(),
                        line: w.line,
                        rule: Rule::Waiver,
                        message: format!(
                            "waiver names unknown rule `{}` (known: nondet, panic, obs, \
                             catalog, parity, det, dynamic-call, panic-transitive, \
                             det-transitive)",
                            w.raw_rule
                        ),
                    }),
                    Some(rule) => {
                        if w.justification.is_empty() {
                            self.violations.push(Violation {
                                path: path.clone(),
                                line: w.line,
                                rule: Rule::Waiver,
                                message: format!(
                                    "waiver for `{rule}` has no justification (write `// lint:allow({rule}): <why this is safe>`)"
                                ),
                            });
                        } else if !w.used.get() {
                            self.violations.push(Violation {
                                path: path.clone(),
                                line: w.line,
                                rule: Rule::Waiver,
                                message: format!(
                                    "waiver for `{rule}` matches no violation; delete it"
                                ),
                            });
                        }
                    }
                }
            }
        }
        self.violations.sort();
        self.violations.dedup();
        self.violations
    }
}

/// Run every rule over the workspace and return the sorted report.
pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Violation> {
    let mut sink = Sink::new(ws);
    rules::nondet(ws, cfg, &mut sink);
    rules::obs_hygiene(ws, cfg, &mut sink);
    rules::catalog_sync(ws, cfg, &mut sink);
    rules::feature_parity(ws, cfg, &mut sink);
    rules::violation_parity(ws, cfg, &mut sink);
    graph::transitive(ws, cfg, &mut sink);
    sink.finish()
}

/// Render violations as the stable text report (one `path:line: rule:
/// message` per line, sorted).
pub fn render_text(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Render violations as a stable JSON array (2-space indent, sorted).
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\n    \"path\": \"{}\",", json_escape(&v.path)));
        out.push_str(&format!("\n    \"line\": {},", v.line));
        out.push_str(&format!("\n    \"rule\": \"{}\",", v.rule.name()));
        out.push_str(&format!(
            "\n    \"message\": \"{}\"",
            json_escape(&v.message)
        ));
        out.push_str("\n  }");
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Minimal JSON string escaping (the report never contains exotic chars,
/// but stay correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Insert a templated waiver comment above `line` (1-based) in `text`,
/// matching the target line's indentation. Returns the new text, or an
/// error message if the line is out of range.
pub fn insert_waiver(text: &str, line: usize, rule: Rule) -> Result<String, String> {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    if line == 0 || line > lines.len() {
        return Err(format!(
            "line {line} out of range (file has {} lines)",
            lines.len()
        ));
    }
    let target = lines[line - 1];
    let indent: String = target
        .chars()
        .take_while(|c| *c == ' ' || *c == '\t')
        .collect();
    let mut out = String::with_capacity(text.len() + 64);
    for (i, l) in lines.iter().enumerate() {
        if i == line - 1 {
            out.push_str(&format!(
                "{indent}// lint:allow({}): TODO: justify why this is safe.\n",
                rule.name()
            ));
        }
        out.push_str(l);
    }
    Ok(out)
}
