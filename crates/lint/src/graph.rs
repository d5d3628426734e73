//! Approximate name-resolved call graph and the transitive rule families
//! built on it (DESIGN.md §13).
//!
//! The graph over-approximates: a call site edges to *every* workspace
//! function the name could plausibly resolve to (all same-named methods
//! for `.m()` receivers, all suffix-matching free functions for
//! `mod::f()`), so reachability is sound for the proofs we run on it —
//! a sink the graph cannot reach from a root genuinely cannot be reached
//! by any resolution the graph models. Calls through fn-typed parameters
//! cannot be resolved at all and are reported as `dynamic-call`
//! violations when reachable. Test-gated and debug-gated lines
//! are invisible (compiled out of release hot paths), macros are opaque
//! except for the sink macros themselves, and `std`/vendored callees are
//! trusted leaves. No vendored crate spawns a thread, and the only
//! threads in the workspace are `resched-sim`'s sweep workers, which no
//! root reaches, so the `det` proof's "no thread spawn reachable" does
//! not lean on that trust.

use crate::lexer::strip_attributes;
use crate::symbols::SymbolTable;
use crate::{Config, Rule, Sink, Workspace};
use std::collections::{BTreeMap, VecDeque};

/// Which transitive proof a sink belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// unwrap/expect/panic!/unreachable!/todo!/unimplemented!/indexing.
    Panic,
    /// env reads, wall-clock reads, thread spawns.
    Det,
}

impl SinkKind {
    /// The violation rule this sink kind is reported under.
    pub fn rule(self) -> Rule {
        match self {
            SinkKind::Panic => Rule::Panic,
            SinkKind::Det => Rule::Det,
        }
    }
}

/// One sink occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct SinkSite {
    /// 1-based line.
    pub line: usize,
    pub kind: SinkKind,
    /// What was found (`unwrap()`, `env::var`, …).
    pub what: String,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee index into the symbol table.
    pub callee: usize,
    /// 1-based call-site line.
    pub line: usize,
}

/// An unresolvable indirect call (through an fn-typed parameter).
#[derive(Debug, Clone)]
pub struct DynSite {
    pub line: usize,
    /// The parameter name being invoked.
    pub param: String,
}

/// Per-function graph node, parallel to [`SymbolTable::fns`].
#[derive(Debug, Default)]
pub struct Node {
    pub edges: Vec<Edge>,
    pub dynamic: Vec<DynSite>,
    pub sinks: Vec<SinkSite>,
}

/// The call graph.
#[derive(Debug)]
pub struct Graph {
    pub nodes: Vec<Node>,
}

impl Graph {
    /// Build the graph: attribute every non-test, non-debug code line to
    /// its innermost enclosing function, then extract sinks and call
    /// edges per line.
    pub fn build(ws: &Workspace, table: &SymbolTable) -> Graph {
        let mut nodes: Vec<Node> = (0..table.fns.len()).map(|_| Node::default()).collect();

        // path -> line (1-based) -> innermost owning fn. Functions appear
        // in (path, sig_line) order; a nested fn is scanned after its
        // encloser and has a narrower span, so later assignment wins.
        let mut owners: BTreeMap<&str, Vec<Option<usize>>> = BTreeMap::new();
        for (path, file) in &ws.files {
            owners.insert(path.as_str(), vec![None; file.lines.len()]);
        }
        for (i, f) in table.fns.iter().enumerate() {
            let Some((_, end)) = f.body else { continue };
            if let Some(v) = owners.get_mut(f.path.as_str()) {
                for l in f.sig_line..=end.min(v.len()) {
                    v[l - 1] = Some(i);
                }
            }
        }

        for (path, file) in &ws.files {
            let owners = &owners[path.as_str()];
            for (idx, line) in file.lines.iter().enumerate() {
                let Some(fi) = owners[idx] else { continue };
                let f = &table.fns[fi];
                if f.is_test || f.is_debug || line.in_test || line.in_debug {
                    continue;
                }
                let code = strip_attributes(&line.code);
                // `debug_assert!` bodies are compiled out of release builds.
                if code.trim_start().starts_with("debug_assert") {
                    continue;
                }
                let n = idx + 1;
                scan_sinks(&code, n, &mut nodes[fi]);
                scan_calls(&code, n, fi, table, &mut nodes[fi]);
                scan_implicit(&code, n, fi, table, &mut nodes[fi]);
            }
        }

        // Deduplicate edges per node (first call line wins) so BFS work
        // and the JSON dump stay proportional to distinct callees.
        for node in &mut nodes {
            let mut seen: Vec<usize> = Vec::new();
            node.edges.retain(|e| {
                if seen.contains(&e.callee) {
                    false
                } else {
                    seen.push(e.callee);
                    true
                }
            });
        }
        Graph { nodes }
    }

    /// Multi-source BFS from `starts`. `barrier(i)` is consulted before a
    /// function is entered (including the starts themselves); barrier
    /// functions are not traversed and their sinks do not count. Returns
    /// `(visited, parent)` with parent pointers for witness chains.
    pub fn reach(
        &self,
        starts: &[usize],
        mut barrier: impl FnMut(usize) -> bool,
    ) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut visited = vec![false; self.nodes.len()];
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in starts {
            if !visited[s] && !barrier(s) {
                visited[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.nodes[u].edges {
                if !visited[e.callee] && !barrier(e.callee) {
                    visited[e.callee] = true;
                    parent[e.callee] = Some(u);
                    queue.push_back(e.callee);
                }
            }
        }
        (visited, parent)
    }
}

/// The witness chain `root → … → fn` as qualified names.
pub fn witness(table: &SymbolTable, parent: &[Option<usize>], mut i: usize) -> String {
    let mut chain = vec![table.fns[i].qname.clone()];
    while let Some(p) = parent[i] {
        chain.push(table.fns[p].qname.clone());
        i = p;
    }
    chain.reverse();
    chain.join(" → ")
}

// ---------------------------------------------------------------------------
// Sink extraction.
// ---------------------------------------------------------------------------

/// Identifier-character test shared by the scanners.
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `tok` at a word boundary followed (modulo spaces) by `suffix`.
fn token_then(code: &str, tok: &str, suffix: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let before_ok = start == 0 || !is_word(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            let rest: String = code[end..].chars().filter(|c| *c != ' ').collect();
            if rest.starts_with(suffix) {
                return true;
            }
        }
        from = start + 1;
    }
    false
}

/// Collect panic/det sinks on one stripped code line.
fn scan_sinks(code: &str, n: usize, node: &mut Node) {
    let mut push = |kind: SinkKind, what: &str| {
        node.sinks.push(SinkSite {
            line: n,
            kind,
            what: what.to_string(),
        });
    };
    if token_then(code, "unwrap", "()") {
        push(SinkKind::Panic, "unwrap()");
    }
    if token_then(code, "expect", "(") {
        push(SinkKind::Panic, "expect()");
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        if token_then(code, mac, "!") {
            push(SinkKind::Panic, &format!("{mac}!"));
        }
    }
    for what in index_sites(code) {
        push(SinkKind::Panic, &what);
    }
    if code.contains("env::var") {
        push(SinkKind::Det, "env::var");
    }
    if token_then(code, "Instant", "::now") {
        push(SinkKind::Det, "Instant::now");
    }
    if token_then(code, "SystemTime", "::now") {
        push(SinkKind::Det, "SystemTime::now");
    }
    if code.contains("thread::spawn") {
        push(SinkKind::Det, "thread::spawn");
    }
    if code.contains("thread::scope") {
        push(SinkKind::Det, "thread::scope");
    }
}

/// Indexing expressions (`expr[…]`) that can panic. Exempt:
/// * range content (`a[..n]` slicing returns a slice, and range bounds are
///   almost always paired with an explicit length check),
/// * the arena-id idiom `buf[x.idx()]` — `idx()` values are constructed by
///   the arenas themselves and bounds-checked at construction,
/// * `debug_assert` lines (handled by the caller).
fn index_sites(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' && i > 0 {
            let prev = bytes[i - 1];
            if is_word(prev) || prev == b')' || prev == b']' {
                // Balanced content.
                let mut depth = 1i32;
                let mut j = i + 1;
                while j < bytes.len() && depth > 0 {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let content = code[i + 1..j.saturating_sub(1).max(i + 1)].trim();
                let exempt = content.contains("..") || content.ends_with(".idx()");
                if !exempt && !content.is_empty() {
                    out.push(format!("indexing `[{content}]` without get"));
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Call extraction and resolution.
// ---------------------------------------------------------------------------

/// Rust keywords that look like call heads (`if (cond)`, `while (x)`, …)
/// plus binding keywords that precede parenthesized patterns.
const KEYWORDS: [&str; 22] = [
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "fn", "let",
    "mut", "ref", "break", "continue", "where", "unsafe", "dyn", "impl", "await", "box",
];

/// Method names that are overwhelmingly std container/primitive calls
/// (`v.get(i)`, `a.min(b)`, `CACHE.load(…)`). The by-NAME method fallback
/// skips these: matching them against same-named workspace methods invents
/// false edges (e.g. a slice `.get(…)` resolving to a workspace cache's
/// `get`), and the receivers the resolver CAN type — `self.m(…)` and
/// `Type::Variant.m(…)` — still resolve exactly.
const STD_RECV_METHODS: [&str; 31] = [
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "drain",
    "extend",
    "fill",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "len",
    "load",
    "max",
    "min",
    "next",
    "pop",
    "push",
    "remove",
    "replace",
    "resize",
    "retain",
    "sort",
    "sort_unstable",
    "store",
    "swap",
    "take",
];

/// One syntactic call site: `chain(…)`, `recv.chain(…)`, or `name!(…)`.
struct CallTok {
    /// `::`-separated path segments (turbofish skipped).
    chain: Vec<String>,
    /// Preceded by `.` (a method call).
    method: bool,
    /// The receiver immediately before the `.` is `self`.
    self_recv: bool,
    /// The receiver is a literal type path (`Kind::Variant.m()`): the
    /// leading uppercase segment, for exact method narrowing.
    recv_type: Option<String>,
    /// The receiver is a SCREAMING_CASE static (atomic, lock, OnceLock):
    /// its methods never resolve to workspace functions.
    recv_static: bool,
    /// A macro invocation (`name!`): opaque, skipped by resolution.
    is_macro: bool,
}

/// Extract call-shaped tokens from a stripped code line.
fn calls_on(code: &str) -> Vec<CallTok> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if !(c.is_ascii_alphabetic() || c == b'_') || (i > 0 && is_word(bytes[i - 1])) {
            i += 1;
            continue;
        }
        // Parse the leading identifier.
        let start = i;
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
        // `fn name(` is a definition, not a call.
        let before = code[..start].trim_end();
        if before.ends_with("fn")
            && !before[..before.len() - 2]
                .bytes()
                .next_back()
                .is_some_and(is_word)
        {
            continue;
        }
        let mut chain = vec![code[start..i].to_string()];
        let method = {
            let mut k = start;
            let mut prev = None;
            while k > 0 {
                k -= 1;
                if bytes[k] != b' ' {
                    prev = Some(bytes[k]);
                    break;
                }
            }
            prev == Some(b'.')
        };
        let (self_recv, recv_type, recv_static) = if method {
            let dot = code[..start].rfind('.').unwrap_or(0);
            let recv = code[..dot].trim_end();
            let is_self = recv.ends_with("self");
            // `Kind::Variant.m()`: walk the trailing `A::B::C` path back
            // to its head segment; an uppercase head names the type.
            let tail_start = recv
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                .map(|p| p + 1)
                .unwrap_or(0);
            let tail = &recv[tail_start..];
            let head = tail.split("::").next().unwrap_or("");
            let ty = (tail.contains("::") && head.chars().next().is_some_and(char::is_uppercase))
                .then(|| head.to_string());
            // A SCREAMING_CASE receiver is a static — in this workspace
            // always an atomic/lock/OnceLock, never a workspace type —
            // so by-name method matching would only invent false edges.
            let is_static = !tail.contains("::")
                && tail.chars().any(|c| c.is_ascii_uppercase())
                && tail
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
            (is_self, ty, is_static)
        } else {
            (false, None, false)
        };
        // Extend the path: `::seg`, skipping `::<…>` turbofish.
        let mut k = i;
        loop {
            let rest = &code[k..];
            let trimmed = rest.trim_start();
            let pad = rest.len() - trimmed.len();
            if let Some(after) = trimmed.strip_prefix("::") {
                let after_trim = after.trim_start();
                let pad2 = after.len() - after_trim.len();
                if after_trim.starts_with('<') {
                    // Turbofish: skip balanced angles, stay in the chain.
                    let mut depth = 0i32;
                    let mut j = 0;
                    for (bi, bc) in after_trim.char_indices() {
                        match bc {
                            '<' => depth += 1,
                            '>' => {
                                depth -= 1;
                                if depth == 0 {
                                    j = bi + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    if j == 0 {
                        break; // unbalanced; line continues elsewhere
                    }
                    k += pad + 2 + pad2 + j;
                    continue;
                }
                let seg_len = after_trim.bytes().take_while(|b| is_word(*b)).count();
                if seg_len == 0 {
                    break;
                }
                chain.push(after_trim[..seg_len].to_string());
                k += pad + 2 + pad2 + seg_len;
            } else {
                break;
            }
        }
        // What follows the path decides whether this is a call.
        let rest = code[k..].trim_start();
        if rest.starts_with('!') && rest[1..].trim_start().starts_with(['(', '[', '{']) {
            out.push(CallTok {
                chain,
                method,
                self_recv,
                recv_type,
                recv_static,
                is_macro: true,
            });
        } else if rest.starts_with('(') {
            out.push(CallTok {
                chain,
                method,
                self_recv,
                recv_type,
                recv_static,
                is_macro: false,
            });
        }
        i = k.max(i);
    }
    out
}

/// Resolve call tokens on one line into edges / dynamic sites.
fn scan_calls(code: &str, n: usize, fi: usize, table: &SymbolTable, node: &mut Node) {
    let current = &table.fns[fi];
    for call in calls_on(code) {
        if call.is_macro {
            continue; // opaque; sink macros are caught by scan_sinks
        }
        let name = call.chain.last().cloned().unwrap_or_default();
        let mut targets: Vec<usize> = Vec::new();
        let mut dynamic: Option<String> = None;
        if call.chain.len() >= 2 {
            let qual = &call.chain[call.chain.len() - 2];
            let qual = if qual == "Self" {
                current.self_type.clone().unwrap_or_else(|| qual.clone())
            } else {
                qual.clone()
            };
            if qual.chars().next().is_some_and(char::is_uppercase) {
                // `Type::method(…)` — associated call.
                if let Some(v) = table.methods_by_type.get(&(qual, name.clone())) {
                    targets.extend(v.iter().copied());
                }
            } else {
                // `module::fn(…)` — free fn whose module path ends with
                // the written qualifier (leading `crate`/`super` dropped).
                let quals: Vec<&String> = call.chain[..call.chain.len() - 1]
                    .iter()
                    .filter(|s| *s != "crate" && *s != "super")
                    .collect();
                if let Some(v) = table.free_by_name.get(&name) {
                    for &c in v {
                        let m = &table.fns[c].module;
                        let suffix = quals
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join("::");
                        if suffix.is_empty() || m == &suffix || m.ends_with(&format!("::{suffix}"))
                        {
                            targets.push(c);
                        }
                    }
                }
            }
        } else if call.method {
            // `.m(…)` — every same-named workspace method; a `self.m(…)`
            // receiver narrows to the current impl type, and a literal
            // `Kind::Variant.m(…)` receiver narrows to that type's methods.
            if call.self_recv {
                if let Some(ty) = &current.self_type {
                    if let Some(v) = table.methods_by_type.get(&(ty.clone(), name.clone())) {
                        targets.extend(v.iter().copied());
                    }
                }
            }
            if targets.is_empty() {
                if let Some(ty) = &call.recv_type {
                    if let Some(v) = table.methods_by_type.get(&(ty.clone(), name.clone())) {
                        targets.extend(v.iter().copied());
                    }
                }
            }
            if targets.is_empty() && !call.recv_static && !STD_RECV_METHODS.contains(&name.as_str())
            {
                if let Some(v) = table.methods_by_name.get(&name) {
                    targets.extend(v.iter().copied());
                }
            }
        } else {
            // Bare `f(…)`.
            if KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            if name.chars().next().is_some_and(char::is_uppercase) {
                continue; // tuple-struct / enum constructor
            }
            if current.callable_params.iter().any(|p| p == &name) {
                dynamic = Some(name.clone());
            } else if let Some(v) = table.free_by_name.get(&name) {
                let same_module: Vec<usize> = v
                    .iter()
                    .copied()
                    .filter(|&c| table.fns[c].module == current.module)
                    .collect();
                let same_crate: Vec<usize> = v
                    .iter()
                    .copied()
                    .filter(|&c| {
                        table.fns[c].module.split("::").next() == current.module.split("::").next()
                    })
                    .collect();
                targets = if !same_module.is_empty() {
                    same_module
                } else if !same_crate.is_empty() {
                    same_crate
                } else {
                    v.clone()
                };
            }
        }
        if let Some(param) = dynamic {
            node.dynamic.push(DynSite { line: n, param });
        }
        for t in targets {
            if table.may_call(fi, t) {
                node.edges.push(Edge { callee: t, line: n });
            }
        }
    }
}

/// Edges to code that runs with no call syntax: operator, `Iterator` and
/// `Drop` impls ([`SymbolTable::implicit_impls`]). A line that names a
/// workspace type with such impls — or any line of that type's own
/// methods, where `Self` names it — gets an edge to each of them: whoever
/// adds, iterates or drops a value of the type is taken to be among the
/// functions that spell the type. Over-approximate by design, and blind
/// to a function that handles the type only through inference or field
/// access (DESIGN.md §13).
fn scan_implicit(code: &str, n: usize, fi: usize, table: &SymbolTable, node: &mut Node) {
    let own = table.fns[fi].self_type.as_deref();
    let named = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(char::is_uppercase));
    for ty in named.chain(own) {
        for &t in table.implicit_impls.get(ty).into_iter().flatten() {
            if t != fi && table.may_call(fi, t) {
                node.edges.push(Edge { callee: t, line: n });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Roots manifest.
// ---------------------------------------------------------------------------

/// The `roots.toml` manifest: the reachability roots. Restricted TOML,
/// same grammar as the metrics manifest: a `[roots]` header and
/// `"qualified::name" = "description"` entries.
#[derive(Debug, Default)]
pub struct RootsManifest {
    /// `[roots]` entries in file order: (spec, line).
    pub roots: Vec<(String, usize)>,
    /// Parse errors: (line, message).
    pub errors: Vec<(usize, String)>,
}

impl RootsManifest {
    pub fn parse(src: &str) -> RootsManifest {
        let mut m = RootsManifest::default();
        let mut in_roots = false;
        for (idx, raw) in src.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                in_roots = name == "roots";
                if !in_roots {
                    m.errors
                        .push((n, format!("unknown section [{name}] (expected [roots])")));
                }
                continue;
            }
            let entry = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .filter(|(k, v)| {
                    k.len() > 2
                        && k.starts_with('"')
                        && k.ends_with('"')
                        && v.len() >= 2
                        && v.starts_with('"')
                        && v.ends_with('"')
                });
            match (in_roots, entry) {
                (true, Some((k, _))) => m.roots.push((k[1..k.len() - 1].to_string(), n)),
                (false, _) => m.errors.push((n, "entry outside any section".into())),
                (_, None) => m.errors.push((
                    n,
                    "malformed entry; expected `\"qualified::name\" = \"description\"`".into(),
                )),
            }
        }
        m
    }
}

// ---------------------------------------------------------------------------
// Function-level markers (transitive waivers).
// ---------------------------------------------------------------------------

/// Per-function marker lines, parallel to [`SymbolTable::fns`].
#[derive(Debug, Default, Clone)]
pub struct FnMarks {
    /// `lint:allow(panic-transitive)` waiver line.
    pub panic_t: Option<usize>,
    /// `lint:allow(det-transitive)` waiver line.
    pub det_t: Option<usize>,
}

/// Scan the comment block attached to each function signature (trailing
/// comment on the signature line, plus the contiguous comment/attribute
/// block directly above) for transitive waivers.
pub fn scan_marks(ws: &Workspace, table: &SymbolTable) -> Vec<FnMarks> {
    let mut out = vec![FnMarks::default(); table.fns.len()];
    for (i, f) in table.fns.iter().enumerate() {
        let Some(file) = ws.files.get(&f.path) else {
            continue;
        };
        let mut lines = vec![f.sig_line];
        let mut l = f.sig_line;
        while l > 1 {
            l -= 1;
            let above = file.line(l);
            let attr_only = above.code.trim_start().starts_with("#[")
                || above.code.trim_start().starts_with("#![");
            let comment_only = above.code.trim().is_empty() && above.comment.is_some();
            if attr_only || comment_only {
                lines.push(l);
            } else {
                break;
            }
        }
        for l in lines {
            let Some(comment) = &file.line(l).comment else {
                continue;
            };
            let c = comment.trim();
            if let Some(rest) = c.strip_prefix(crate::WAIVER_PREFIX) {
                match rest.split_once(')').map(|(r, _)| r.trim()) {
                    Some("panic-transitive") => out[i].panic_t = Some(l),
                    Some("det-transitive") => out[i].det_t = Some(l),
                    _ => {}
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The transitive rules.
// ---------------------------------------------------------------------------

/// Run the transitive panic / det proofs and the dynamic-call check from
/// the declared roots.
pub fn transitive(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    let Some(src) = ws.extras.get(&cfg.roots_manifest) else {
        sink.emit(
            ws,
            &cfg.roots_manifest,
            1,
            Rule::Panic,
            "roots manifest is missing; declare the hot-path reachability roots here".into(),
        );
        return;
    };
    let manifest = RootsManifest::parse(src);
    for (line, msg) in &manifest.errors {
        sink.emit(ws, &cfg.roots_manifest, *line, Rule::Panic, msg.clone());
    }

    let table = SymbolTable::build(ws);
    let graph = Graph::build(ws, &table);
    let marks = scan_marks(ws, &table);

    // Resolve roots; an unresolvable root is a proof with no subject.
    let mut starts: Vec<usize> = Vec::new();
    for (spec, line) in &manifest.roots {
        let resolved = table.resolve_spec(spec);
        if resolved.is_empty() {
            sink.emit(
                ws,
                &cfg.roots_manifest,
                *line,
                Rule::Panic,
                format!("root `{spec}` does not resolve to any workspace function"),
            );
        }
        for r in resolved {
            if !starts.contains(&r) {
                starts.push(r);
            }
        }
    }
    // Panic proof (and dynamic-call reporting, which undermines it).
    let (visited, parent) = graph.reach(&starts, |i| {
        if let Some(l) = marks[i].panic_t {
            sink.consume(&table.fns[i].path, l, Rule::PanicTransitive);
            true
        } else {
            false
        }
    });
    for (i, f) in table.fns.iter().enumerate() {
        if !visited[i] {
            continue;
        }
        let chain = witness(&table, &parent, i);
        for s in &graph.nodes[i].sinks {
            if s.kind == SinkKind::Panic {
                sink.emit(
                    ws,
                    &f.path,
                    s.line,
                    Rule::Panic,
                    format!(
                        "{} reachable on a hot path; witness: {chain}; restructure to a \
                         total operation or waive with the invariant that holds",
                        s.what
                    ),
                );
            }
        }
        for d in &graph.nodes[i].dynamic {
            sink.emit(
                ws,
                &f.path,
                d.line,
                Rule::DynamicCall,
                format!(
                    "indirect call through fn-typed parameter `{}` cannot be resolved; \
                     witness: {chain}; the callee escapes the transitive proofs — waive \
                     with why every caller passes a safe callable",
                    d.param
                ),
            );
        }
    }

    // Det proof.
    let (visited, parent) = graph.reach(&starts, |i| {
        if let Some(l) = marks[i].det_t {
            sink.consume(&table.fns[i].path, l, Rule::DetTransitive);
            true
        } else {
            false
        }
    });
    for (i, f) in table.fns.iter().enumerate() {
        if !visited[i] {
            continue;
        }
        let chain = witness(&table, &parent, i);
        for s in &graph.nodes[i].sinks {
            if s.kind == SinkKind::Det {
                sink.emit(
                    ws,
                    &f.path,
                    s.line,
                    Rule::Det,
                    format!(
                        "{} is nondeterministic on a hot path; witness: {chain}; pass the \
                         value in from the caller or waive",
                        s.what
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CLI support: --why.
// ---------------------------------------------------------------------------

/// The witness chain from `root_spec` to `sink_spec` over the raw graph
/// (no barriers — `--why` answers reachability questions, the rules apply
/// waivers). One qualified name per line, indented by depth.
pub fn why(ws: &Workspace, root_spec: &str, sink_spec: &str) -> Result<String, String> {
    let table = SymbolTable::build(ws);
    let graph = Graph::build(ws, &table);
    let starts = table.resolve_spec(root_spec);
    if starts.is_empty() {
        return Err(format!(
            "`{root_spec}` does not resolve to any workspace function"
        ));
    }
    let targets = table.resolve_spec(sink_spec);
    if targets.is_empty() {
        return Err(format!(
            "`{sink_spec}` does not resolve to any workspace function"
        ));
    }
    let (visited, parent) = graph.reach(&starts, |_| false);
    for &t in &targets {
        if visited[t] {
            let chain = witness(&table, &parent, t);
            let mut out = String::new();
            for (depth, qname) in chain.split(" → ").enumerate() {
                out.push_str(&"  ".repeat(depth));
                out.push_str(qname);
                out.push('\n');
            }
            return Ok(out);
        }
    }
    Err(format!(
        "no path from `{root_spec}` to `{sink_spec}` in the call graph"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_memory(
            files
                .iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    fn build(w: &Workspace) -> (SymbolTable, Graph) {
        let t = SymbolTable::build(w);
        let g = Graph::build(w, &t);
        (t, g)
    }

    /// Qualified names of the functions `name` has an edge to.
    fn callees(w: &Workspace, name: &str) -> Vec<String> {
        let (t, g) = build(w);
        let f = t.fns.iter().position(|f| f.name == name).unwrap();
        let edges = g.nodes[f].edges.iter();
        edges.map(|e| t.fns[e.callee].qname.clone()).collect()
    }

    #[test]
    fn edges_resolve_free_method_and_path_calls() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub fn root(p: &Pool) -> u32 {\n    helper(p) + p.effective(3) + other::thing()\n}\nfn helper(_p: &Pool) -> u32 {\n    1\n}\npub mod other {\n    pub fn thing() -> u32 {\n        2\n    }\n}\npub struct Pool;\nimpl Pool {\n    pub fn effective(&self, q: u32) -> u32 {\n        q\n    }\n}\n",
        )]);
        assert_eq!(
            callees(&w, "root"),
            vec![
                "core::a::helper",
                "core::a::Pool::effective",
                "core::a::other::thing"
            ]
        );
    }

    #[test]
    fn edges_against_the_crate_dependency_direction_are_pruned() {
        // `t.calendar()` matches every workspace method of that name. The
        // one in `sim` cannot be meant: `serve` does not depend on `sim`
        // (`sim` depends on `serve`, and a dev-dependency is test-only).
        // The one in `resv` can: `serve` → `core` → `resv`.
        let sources = [
            (
                "crates/serve/src/lib.rs",
                "pub fn step(t: &Txn) {\n    t.calendar();\n}\n",
            ),
            (
                "crates/resv/src/lib.rs",
                "pub struct Txn;\nimpl Txn {\n    pub fn calendar(&self) {}\n}\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "pub struct Args;\nimpl Args {\n    pub fn calendar(&self) {}\n}\n",
            ),
        ];
        let manifests = [
            (
                "crates/serve/Cargo.toml",
                "[dependencies]\nresched-core = { workspace = true }\n\n[dev-dependencies]\nresched-sim = { workspace = true }\n",
            ),
            (
                "crates/core/Cargo.toml",
                "[dependencies]\nresched-resv = { workspace = true }\n",
            ),
            ("crates/resv/Cargo.toml", "[dependencies]\n"),
            (
                "crates/sim/Cargo.toml",
                "[dependencies]\nresched-serve = { workspace = true }\n",
            ),
        ];
        let pruned = ws(&[&sources[..], &manifests[..]].concat());
        assert_eq!(callees(&pruned, "step"), vec!["resv::Txn::calendar"]);
        // A crate whose manifest the workspace does not hold is unrestricted.
        assert_eq!(
            callees(&ws(&sources), "step"),
            vec!["resv::Txn::calendar", "sim::Args::calendar"]
        );
    }

    #[test]
    fn naming_a_type_reaches_its_operator_iterator_and_drop_impls() {
        let w = ws(&[(
            "crates/resv/src/t.rs",
            "pub struct Dur(i64);\nimpl std::ops::Add for Dur {\n    type Output = Dur;\n    fn add(self, o: Dur) -> Dur {\n        Dur(self.0 + o.0)\n    }\n}\nimpl Drop for Dur {\n    fn drop(&mut self) {}\n}\nimpl Dur {\n    pub fn twice(self) -> i64 {\n        self.0 * 2\n    }\n}\npub fn sum(a: Dur, b: Dur) -> i64 {\n    (a + b).twice()\n}\npub fn plain(a: i64) -> i64 {\n    a + 1\n}\n",
        )]);
        // `sum` spells `Dur`; `twice` is a method of it; `plain` adds
        // integers and names no workspace type.
        assert_eq!(
            callees(&w, "sum"),
            vec![
                "resv::t::Dur::add",
                "resv::t::Dur::drop",
                "resv::t::Dur::twice"
            ]
        );
        assert_eq!(
            callees(&w, "twice"),
            vec!["resv::t::Dur::add", "resv::t::Dur::drop"]
        );
        assert!(callees(&w, "plain").is_empty());
    }

    #[test]
    fn sinks_and_reachability_with_witness() {
        let w = ws(&[(
            "crates/core/src/b.rs",
            "pub fn root() {\n    mid();\n}\nfn mid() {\n    leaf();\n}\nfn leaf() {\n    let v: Option<u32> = None;\n    v.unwrap();\n}\nfn unrelated() {\n    panic!(\"never reached\");\n}\n",
        )]);
        let (t, g) = build(&w);
        let root = t.fns.iter().position(|f| f.name == "root").unwrap();
        let leaf = t.fns.iter().position(|f| f.name == "leaf").unwrap();
        let unrelated = t.fns.iter().position(|f| f.name == "unrelated").unwrap();
        let (visited, parent) = g.reach(&[root], |_| false);
        assert!(visited[leaf]);
        assert!(!visited[unrelated]);
        assert_eq!(
            witness(&t, &parent, leaf),
            "core::b::root → core::b::mid → core::b::leaf"
        );
        assert!(g.nodes[leaf].sinks.iter().any(|s| s.what == "unwrap()"));
    }

    #[test]
    fn barriers_stop_traversal() {
        let w = ws(&[(
            "crates/core/src/c.rs",
            "pub fn root() {\n    blocked();\n}\nfn blocked() {\n    deep();\n}\nfn deep() {}\n",
        )]);
        let (t, g) = build(&w);
        let root = t.fns.iter().position(|f| f.name == "root").unwrap();
        let blocked = t.fns.iter().position(|f| f.name == "blocked").unwrap();
        let deep = t.fns.iter().position(|f| f.name == "deep").unwrap();
        let (visited, _) = g.reach(&[root], |i| i == blocked);
        assert!(visited[root]);
        assert!(!visited[blocked]);
        assert!(!visited[deep]);
    }

    #[test]
    fn index_sink_exemptions() {
        assert_eq!(index_sites("let x = buf[i.idx()];"), Vec::<String>::new());
        assert_eq!(index_sites("let s = &buf[..n];"), Vec::<String>::new());
        assert_eq!(
            index_sites("let x = buf[i];"),
            vec!["indexing `[i]` without get"]
        );
        assert_eq!(index_sites("let t = [0u64; 4];"), Vec::<String>::new());
    }

    #[test]
    fn dynamic_calls_through_fn_params() {
        let w = ws(&[(
            "crates/core/src/d.rs",
            "pub fn subset(include: impl Fn(u32) -> bool) -> u32 {\n    if include(3) {\n        1\n    } else {\n        0\n    }\n}\n",
        )]);
        let (t, g) = build(&w);
        let f = t.fns.iter().position(|f| f.name == "subset").unwrap();
        assert_eq!(g.nodes[f].dynamic.len(), 1);
        assert_eq!(g.nodes[f].dynamic[0].param, "include");
    }

    #[test]
    fn debug_gated_lines_are_invisible() {
        let w = ws(&[(
            "crates/core/src/e.rs",
            "pub fn root() {\n    #[cfg(debug_assertions)]\n    validate_all();\n}\nfn validate_all() {\n    let v: Vec<u32> = (0..3).collect();\n    let _ = v;\n}\n",
        )]);
        let (t, g) = build(&w);
        let root = t.fns.iter().position(|f| f.name == "root").unwrap();
        assert!(g.nodes[root].edges.is_empty());
    }

    #[test]
    fn roots_manifest_parses_and_rejects() {
        let m = RootsManifest::parse(
            "# hot paths\n[roots]\n\"core::forward::schedule_forward\" = \"fwd\"\nbogus\n[nope]\n\"core::cpa::allocate\" = \"stray\"\n",
        );
        assert_eq!(m.roots.len(), 1);
        assert_eq!(m.errors.len(), 3);
    }

    #[test]
    fn turbofish_and_macro_calls() {
        let w = ws(&[(
            "crates/core/src/f.rs",
            "pub fn root() {\n    helper::<u64>(1);\n    log!(\"x\");\n}\nfn helper<T>(_x: T) {}\n",
        )]);
        let (t, g) = build(&w);
        let root = t.fns.iter().position(|f| f.name == "root").unwrap();
        assert_eq!(g.nodes[root].edges.len(), 1);
        assert_eq!(t.fns[g.nodes[root].edges[0].callee].name, "helper");
    }
}
