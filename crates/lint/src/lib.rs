//! `resched-lint` — the workspace's call-graph proofs.
//!
//! What is checked here is what no compiler pass, clippy lint or test can
//! check: properties of everything *reachable* from the entry points
//! declared in `crates/lint/roots.toml` (DESIGN.md §13, §18):
//!
//! * `panic` — no `unwrap()`/`expect(`/`panic!`/`unreachable!`/unchecked
//!   indexing in any function transitively reachable from a root;
//! * `det` — no `env::var`/`Instant::now`/`SystemTime::now`/thread spawn
//!   reachable from the same roots;
//! * `dynamic-call` — calls through fn-typed parameters on a proved path
//!   are conservatively reported, since the graph cannot resolve them.
//!
//! The proofs run over an approximate name-resolved call graph
//! ([`symbols`], [`graph`]); diagnostics carry the witness chain
//! `root → … → sink`, and `--why root sink` reproduces it from the CLI.
//! (Per-crate determinism — hash-ordered containers, clock reads, bare
//! float `==` — is clippy's job, through the `clippy.toml` of `core`,
//! `resv` and `sim`; DESIGN.md §13 lists every property and its owner.)
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
pub mod symbols;

use lexer::Lexed;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule families. `Waiver` covers problems with waiver comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic sinks reachable from a root.
    Panic,
    /// Nondeterministic sources reachable from a root.
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
    pub const WAIVABLE: [Rule; 5] = [
        Rule::Panic,
        Rule::Det,
        Rule::DynamicCall,
        Rule::PanicTransitive,
        Rule::DetTransitive,
    ];

    /// The rule's name as written in reports and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
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

/// Everything the analyzer looks at: lexed `.rs` files plus the raw text of
/// the roots manifest and the crate manifests ("extras").
#[derive(Debug, Default)]
pub struct Workspace {
    /// Walked `.rs` files by workspace-relative path (sorted).
    pub files: BTreeMap<String, Lexed>,
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
                ws.files.insert(path, lexer::lex(&text));
            } else {
                ws.extras.insert(path, text);
            }
        }
        ws
    }

    /// Walk the workspace rooted at `root`: every `.rs` file under
    /// `crates/*/src`, `crates/*/tests`, and `tests/`, plus the roots
    /// manifest and each member's `Cargo.toml` (the crate dependency
    /// direction prunes call edges, [`symbols::SymbolTable::may_call`]).
    /// The lint crate's own `fixtures/` tree is never walked. Returns
    /// deterministic, sorted contents.
    pub fn load(root: &Path, cfg: &Config) -> std::io::Result<Workspace> {
        let mut ws = Workspace::default();
        let mut members: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            members = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| Some(e.ok()?.path()))
                .collect();
            members.sort();
        }
        for m in &members {
            walk_rs(root, &m.join("src"), &mut ws)?;
            walk_rs(root, &m.join("tests"), &mut ws)?;
        }
        walk_rs(root, &root.join("tests"), &mut ws)?;
        members.push(root.join("tests"));
        let manifests = members
            .iter()
            .map(|m| rel_path(root, &m.join("Cargo.toml")));
        for extra in manifests.chain([cfg.roots_manifest.clone()]) {
            if let Ok(text) = std::fs::read_to_string(root.join(&extra)) {
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
            ws.files.insert(rel, lexer::lex(&text));
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

/// Where the reachability roots are declared. [`Config::default`] is the
/// real workspace's `crates/lint/roots.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// The reachability-roots manifest for the transitive proofs.
    pub roots_manifest: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots_manifest: "crates/lint/roots.toml".into(),
        }
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
            .map(|(path, lexed)| (path.clone(), parse_waivers(lexed)))
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
                let above = file.line(l);
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
    /// reported as stale by `Sink::finish` like any other unused waiver.
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
                            "waiver names unknown rule `{}` (known: panic, det, \
                             dynamic-call, panic-transitive, det-transitive)",
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

/// Run the transitive proofs over the workspace and return the sorted
/// report.
pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Violation> {
    let mut sink = Sink::new(ws);
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
