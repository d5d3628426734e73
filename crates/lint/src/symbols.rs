//! Workspace symbol table: every `fn` definition with its crate/module
//! path, impl-block association, and body line span, built on the line
//! lexer — no syntax tree, same philosophy as the rest of the crate.
//!
//! The table is the foundation the call graph (`graph.rs`) resolves names
//! against. It is an *approximation* with documented limits (DESIGN.md
//! §13): items are recognized by leading tokens on comment-stripped,
//! attribute-blanked code lines; generics are skipped textually; macros
//! that *define* functions are invisible. The workspace deliberately
//! contains none of the latter.

use crate::lexer::strip_attributes;
use crate::lexer::Lexed;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Fully qualified name: `module::fn`, or `module::Type::fn` for
    /// methods (e.g. `core::forward::schedule_forward_with`,
    /// `resv::calendar::LinearRef::earliest_fit`).
    pub qname: String,
    /// The bare function name (last segment).
    pub name: String,
    /// Module path (crate alias + file modules + inline `mod`s).
    pub module: String,
    /// `impl` target type, for methods.
    pub self_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based inclusive line span of the body (`{` through `}`), or
    /// `None` for bodiless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// Parameter names with function-ish types (`impl Fn…`, `dyn Fn…`,
    /// `fn(…)`, or a generic bounded in-signature by `Fn`): calling these
    /// is dynamic dispatch the graph cannot resolve.
    pub callable_params: Vec<String>,
    /// Defined in test code (a `#[cfg(test)]` region or a tests/ file):
    /// never a resolution target for library code.
    pub is_test: bool,
    /// Defined under a `debug_assertions` gate: compiled out of release
    /// hot paths.
    pub is_debug: bool,
}

/// The resolved table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in deterministic (path, line) order.
    pub fns: Vec<FnSym>,
    /// Free functions by bare name → indices into `fns`.
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name → indices into `fns`.
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by (type, name) → indices into `fns`.
    pub methods_by_type: BTreeMap<(String, String), Vec<usize>>,
    /// Methods of hand-written operator / `Iterator` / `Drop` impls by
    /// implementing type: code the compiler calls with no call syntax
    /// (`a + b`, `for x in it`, end of scope), so no call token names it.
    pub implicit_impls: BTreeMap<String, Vec<usize>>,
    /// Crate alias → the workspace crates it may call into: itself is
    /// implied, the rest is the transitive closure of the `[dependencies]`
    /// of its `Cargo.toml`. A crate whose manifest is not in the workspace
    /// has no entry and is unrestricted.
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

/// Traits whose methods run without being named at the use site.
const IMPLICIT_TRAITS: [&str; 22] = [
    "Add",
    "AddAssign",
    "Sub",
    "SubAssign",
    "Mul",
    "MulAssign",
    "Div",
    "DivAssign",
    "Rem",
    "RemAssign",
    "Neg",
    "Not",
    "Index",
    "IndexMut",
    "Deref",
    "DerefMut",
    "PartialEq",
    "PartialOrd",
    "Ord",
    "Iterator",
    "IntoIterator",
    "Drop",
];

impl SymbolTable {
    /// Build the table over every lexed file in the workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (path, file) in &ws.files {
            scan_file(path, file, &mut table);
        }
        table.crate_deps = crate_deps(ws);
        for (i, f) in table.fns.iter().enumerate() {
            match &f.self_type {
                Some(ty) => {
                    if f.trait_name
                        .as_deref()
                        .is_some_and(|t| IMPLICIT_TRAITS.contains(&t))
                    {
                        table.implicit_impls.entry(ty.clone()).or_default().push(i);
                    }
                    table
                        .methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(i);
                    table
                        .methods_by_type
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
                None => {
                    table
                        .free_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(i);
                }
            }
        }
        table
    }

    /// May `from` call `to`? Not if `to` is test code, and not against the
    /// crate dependency direction: a name the resolver matched in a crate
    /// the caller's crate does not depend on cannot be what the caller's
    /// code refers to.
    pub fn may_call(&self, from: usize, to: usize) -> bool {
        let krate = |i: usize| self.fns[i].module.split("::").next().unwrap_or("");
        let (from, to_crate) = (krate(from), krate(to));
        !self.fns[to].is_test
            && (from == to_crate
                || self
                    .crate_deps
                    .get(from)
                    .is_none_or(|d| d.contains(to_crate)))
    }

    /// Functions whose qualified name matches `spec`. Exact match, or a
    /// `prefix::*` glob matching every function under that module/type
    /// prefix, or a bare suffix match (`forward::schedule_forward_with`
    /// matches `core::forward::schedule_forward_with`).
    pub fn resolve_spec(&self, spec: &str) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(prefix) = spec.strip_suffix("::*") {
            for (i, f) in self.fns.iter().enumerate() {
                if !f.is_test
                    && (f.qname.starts_with(&format!("{prefix}::"))
                        || qname_suffix_matches(&f.qname, &format!("{prefix}::{}", f.name)))
                {
                    out.push(i);
                }
            }
            return out;
        }
        for (i, f) in self.fns.iter().enumerate() {
            if !f.is_test && qname_suffix_matches(&f.qname, spec) {
                out.push(i);
            }
        }
        out
    }
}

/// Does `qname` equal `spec` or end with `::spec` at a segment boundary?
fn qname_suffix_matches(qname: &str, spec: &str) -> bool {
    qname == spec
        || (qname.len() > spec.len() + 2
            && qname.ends_with(spec)
            && qname[..qname.len() - spec.len()].ends_with("::"))
}

/// The crate dependency direction from the `Cargo.toml` extras: for each
/// member manifest (`crates/<alias>/Cargo.toml`, `tests/Cargo.toml`), the
/// `resched-<alias>` keys of its `[dependencies]` section, closed
/// transitively. Dev-dependencies are left out: only test code can use
/// them, and test code is never a caller or a callee in the graph.
fn crate_deps(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (path, text) in &ws.extras {
        let Some(dir) = path.strip_suffix("/Cargo.toml") else {
            continue;
        };
        let alias = dir.rsplit('/').next().unwrap_or(dir).to_string();
        let mut in_deps = false;
        let mut deps = BTreeSet::new();
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
            } else if let Some(dep) = line.strip_prefix("resched-").filter(|_| in_deps) {
                let alias = dep
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-');
                deps.insert(alias.collect());
            }
        }
        direct.insert(alias, deps);
    }
    let mut closed = direct.clone();
    for deps in closed.values_mut() {
        let mut todo: Vec<String> = deps.iter().cloned().collect();
        while let Some(d) = todo.pop() {
            for next in direct.get(&d).into_iter().flatten() {
                if deps.insert(next.clone()) {
                    todo.push(next.clone());
                }
            }
        }
    }
    closed
}

/// Module path for a workspace-relative file path:
/// `crates/core/src/forward.rs` → `core::forward`,
/// `crates/core/src/lib.rs` → `core`, `crates/core/src/obs/mod.rs` →
/// `core::obs`, `tests/tests/integration.rs` → `tests::integration`.
pub fn module_path_for(path: &str) -> String {
    let segs: Vec<&str> = path.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    let mut rest: &[&str] = &segs;
    if segs.first() == Some(&"crates") && segs.len() >= 3 {
        out.push(segs[1].to_string());
        // Skip `crates/<name>/src`; a crate's `tests/` dir keeps the
        // `tests` segment so integration-test symbols can't collide with
        // library ones.
        rest = if segs.get(2) == Some(&"src") {
            &segs[3..]
        } else {
            &segs[2..]
        };
    } else if segs.first() == Some(&"tests") {
        out.push("tests".to_string());
        rest = &segs[1..];
    }
    for (i, s) in rest.iter().enumerate() {
        let is_last = i + 1 == rest.len();
        if is_last {
            let stem = s.strip_suffix(".rs").unwrap_or(s);
            if stem != "lib" && stem != "mod" && stem != "main" && !stem.is_empty() {
                out.push(stem.to_string());
            }
        } else if *s != "tests" || out.last().map(String::as_str) != Some("tests") {
            out.push(s.to_string());
        }
    }
    if out.is_empty() {
        out.push("crate".to_string());
    }
    out.join("::")
}

/// A scope currently open during the scan.
#[derive(Debug)]
enum Scope {
    /// Inline `mod name {`.
    Mod { name: String, close_depth: i32 },
    /// `impl Type {` / `impl Trait for Type {`.
    Impl {
        self_type: String,
        trait_name: Option<String>,
        close_depth: i32,
    },
    /// `trait Name {`.
    Trait { name: String, close_depth: i32 },
    /// A function body (index into `table.fns`).
    Fn { idx: usize, close_depth: i32 },
}

/// A `fn` whose signature has been seen but whose body `{` (or `;`)
/// hasn't.
#[derive(Debug)]
struct PendingFn {
    idx: usize,
    /// Paren depth *inside* the signature (0 once the param list closed).
    paren: i32,
    /// Raw parameter text accumulated across lines.
    params: String,
    /// Still accumulating the parameter list?
    in_params: bool,
}

fn scan_file(path: &str, file: &Lexed, table: &mut SymbolTable) {
    let file_module = module_path_for(path);
    let path_is_test = path.contains("/tests/");
    let mut depth: i32 = 0;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<PendingFn> = None;

    for (idx, line) in file.lines.iter().enumerate() {
        let n = idx + 1;
        let code = strip_attributes(&line.code);

        // Finish a pending signature first: capture params, find the body
        // opener (or `;` for bodiless trait declarations).
        if let Some(p) = pending.as_mut() {
            let mut consumed = 0usize;
            let mut opened_body = false;
            let mut bodiless = false;
            for (ci, c) in code.char_indices() {
                consumed = ci + 1;
                match c {
                    '(' => {
                        if p.in_params && p.paren == 0 {
                            // First paren of the signature: params start.
                        } else if p.in_params {
                            p.params.push(c);
                        }
                        p.paren += 1;
                    }
                    ')' => {
                        p.paren -= 1;
                        if p.in_params && p.paren == 0 {
                            p.in_params = false;
                        } else if p.in_params {
                            p.params.push(c);
                        }
                    }
                    '{' if p.paren == 0 && !p.in_params => {
                        opened_body = true;
                        break;
                    }
                    ';' if p.paren == 0 && !p.in_params => {
                        bodiless = true;
                        break;
                    }
                    _ => {
                        if p.in_params && p.paren >= 1 {
                            p.params.push(c);
                        }
                    }
                }
            }
            if opened_body {
                let fidx = p.idx;
                table.fns[fidx].callable_params = callable_params(&p.params);
                table.fns[fidx].body = Some((n, n)); // end fixed at close
                scopes.push(Scope::Fn {
                    idx: fidx,
                    close_depth: depth,
                });
                depth += 1;
                pending = None;
                // Scan the rest of the line (the body may open and close
                // here; nested items are rare but handled by the loop
                // below on subsequent lines).
                track_braces(&code[consumed..], &mut depth, &mut scopes, table, n);
                continue;
            } else if bodiless {
                let fidx = p.idx;
                table.fns[fidx].callable_params = callable_params(&p.params);
                pending = None;
                track_braces(&code[consumed..], &mut depth, &mut scopes, table, n);
                continue;
            } else {
                continue; // signature still open
            }
        }

        // Item starts. Only one item can *open* per line in this
        // workspace's rustfmt'd style; `#[rustfmt::skip]` single-line fns
        // open and close on the same line, which track_braces handles.
        let trimmed = code.trim_start();
        if let Some(name) = item_name(trimmed, "mod") {
            if line_opens_brace(&code) {
                scopes.push(Scope::Mod {
                    name,
                    close_depth: depth,
                });
            }
        } else if let Some((self_type, trait_name)) = impl_target(trimmed) {
            // Multi-line impl headers (`impl Foo for\n  Bar {`) don't
            // occur under rustfmt; the `{` is on the header line.
            if line_opens_brace(&code) {
                scopes.push(Scope::Impl {
                    self_type,
                    trait_name,
                    close_depth: depth,
                });
            }
        } else if let Some(name) = item_name(trimmed, "trait") {
            if line_opens_brace(&code) {
                scopes.push(Scope::Trait {
                    name,
                    close_depth: depth,
                });
            }
        } else if let Some((fn_name, after)) = fn_name_on(&code) {
            let (self_type, trait_name, in_trait) = enclosing_impl(&scopes);
            let module = enclosing_module(&file_module, &scopes);
            // A default/declared method in `trait Tr` is addressed as
            // `module::Tr::name`, same shape as impl methods.
            let self_type = self_type.or(in_trait);
            let qname = match &self_type {
                Some(ty) => format!("{module}::{ty}::{fn_name}"),
                None => format!("{module}::{fn_name}"),
            };
            let fidx = table.fns.len();
            table.fns.push(FnSym {
                qname,
                name: fn_name,
                module,
                self_type,
                trait_name,
                path: path.to_string(),
                sig_line: n,
                body: None,
                callable_params: Vec::new(),
                is_test: path_is_test || line.in_test,
                is_debug: line.in_debug,
            });
            // Feed the signature tail through the pending machinery.
            let mut p = PendingFn {
                idx: fidx,
                paren: 0,
                params: String::new(),
                in_params: true,
            };
            let mut opened = false;
            let mut bodiless = false;
            let mut consumed = after.len();
            for (ci, c) in after.char_indices() {
                match c {
                    '(' => {
                        if p.in_params && p.paren != 0 {
                            p.params.push(c);
                        }
                        p.paren += 1;
                    }
                    ')' => {
                        p.paren -= 1;
                        if p.in_params && p.paren == 0 {
                            p.in_params = false;
                        } else if p.in_params {
                            p.params.push(c);
                        }
                    }
                    '{' if p.paren == 0 && !p.in_params => {
                        opened = true;
                        consumed = ci + 1;
                        break;
                    }
                    ';' if p.paren == 0 && !p.in_params => {
                        bodiless = true;
                        consumed = ci + 1;
                        break;
                    }
                    _ => {
                        if p.in_params && p.paren >= 1 {
                            p.params.push(c);
                        }
                    }
                }
            }
            if opened {
                table.fns[fidx].callable_params = callable_params(&p.params);
                table.fns[fidx].body = Some((n, n));
                scopes.push(Scope::Fn {
                    idx: fidx,
                    close_depth: depth,
                });
                depth += 1;
                track_braces(&after[consumed..], &mut depth, &mut scopes, table, n);
            } else if bodiless {
                table.fns[fidx].callable_params = callable_params(&p.params);
                track_braces(&after[consumed..], &mut depth, &mut scopes, table, n);
            } else {
                // Signature continues on the next line.
                pending = Some(p);
            }
            continue;
        }

        track_braces(&code, &mut depth, &mut scopes, table, n);
    }
}

/// Walk a code fragment's braces, closing scopes whose depth is reached.
fn track_braces(
    code: &str,
    depth: &mut i32,
    scopes: &mut Vec<Scope>,
    table: &mut SymbolTable,
    line: usize,
) {
    for c in code.chars() {
        match c {
            '{' => *depth += 1,
            '}' => {
                *depth -= 1;
                while let Some(top) = scopes.last() {
                    let close = match top {
                        Scope::Mod { close_depth, .. }
                        | Scope::Impl { close_depth, .. }
                        | Scope::Trait { close_depth, .. }
                        | Scope::Fn { close_depth, .. } => *close_depth,
                    };
                    if *depth == close {
                        if let Scope::Fn { idx, .. } = top {
                            if let Some((start, _)) = table.fns[*idx].body {
                                table.fns[*idx].body = Some((start, line));
                            }
                        }
                        scopes.pop();
                    } else {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

/// `mod name` / `trait Name` item openers: the keyword must lead the
/// trimmed line (after visibility).
fn item_name(trimmed: &str, keyword: &str) -> Option<String> {
    let rest = strip_visibility(trimmed);
    let rest = rest.strip_prefix(keyword)?;
    let rest = rest.strip_prefix(' ')?;
    // `unsafe trait` / `mod r#foo` are out of scope for this workspace.
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Leading `pub` / `pub(crate)` / `pub(super)` etc.
fn strip_visibility(s: &str) -> &str {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix("pub") {
        let rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('(') {
            if let Some(close) = r.find(')') {
                return r[close + 1..].trim_start();
            }
        }
        return rest;
    }
    s
}

/// `impl [<…>] [Trait for] Type` header → `(Type, Option<Trait>)`.
fn impl_target(trimmed: &str) -> Option<(String, Option<String>)> {
    let rest = strip_visibility(trimmed);
    let rest = rest.strip_prefix("impl")?;
    if rest
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        return None; // an identifier like `implements`
    }
    let rest = skip_generics(rest.trim_start());
    // Split on ` for ` outside angle brackets.
    let (first, second) = split_for(rest);
    let (trait_name, ty_text) = match second {
        Some(ty) => (Some(last_type_segment(first)?), ty),
        None => (None, first),
    };
    let ty = last_type_segment(ty_text)?;
    Some((ty, trait_name))
}

/// Skip a leading `<generics>` block (angle nesting respected).
fn skip_generics(s: &str) -> &str {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '<')) => {
            let mut depth = 1i32;
            for (i, c) in chars {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            return s[i + 1..].trim_start();
                        }
                    }
                    _ => {}
                }
            }
            ""
        }
        _ => s,
    }
}

/// Split an impl header tail on the ` for ` keyword outside `<…>`.
fn split_for(s: &str) -> (&str, Option<&str>) {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            b'f' if depth == 0
                && s[i..].starts_with("for ")
                && i > 0
                && bytes[i - 1].is_ascii_whitespace() =>
            {
                return (s[..i].trim(), Some(s[i + 4..].trim()));
            }
            _ => {}
        }
        i += 1;
    }
    (s.trim(), None)
}

/// The base type name of a (possibly generic, possibly path-qualified)
/// type text: `crate::calendar::LinearRef<'_>` → `LinearRef`.
fn last_type_segment(s: &str) -> Option<String> {
    let s = s.trim();
    let no_gen = match s.find('<') {
        Some(p) => &s[..p],
        None => s,
    };
    let seg = no_gen.rsplit("::").next()?.trim();
    let name: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && name.chars().next().is_some_and(char::is_alphabetic)).then_some(name)
}

/// Find a `fn name` token on the line; returns the name and the text after
/// it (starting at the name's end). Skips lines where `fn` appears only in
/// type position (`fn(` pointers, `impl Fn`).
fn fn_name_on(code: &str) -> Option<(String, &str)> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("fn") {
        let start = from + pos;
        let end = start + 2;
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after = &code[end..];
        if before_ok && after.starts_with(' ') {
            let name: String = after[1..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                let name_end = end + 1 + name.len();
                return Some((name, &code[name_end..]));
            }
        }
        from = end;
    }
    None
}

/// Does the line open more braces than it closes?
fn line_opens_brace(code: &str) -> bool {
    let mut depth = 0i32;
    for c in code.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

/// The innermost enclosing impl/trait context: (impl type, impl trait,
/// enclosing trait decl).
fn enclosing_impl(scopes: &[Scope]) -> (Option<String>, Option<String>, Option<String>) {
    for s in scopes.iter().rev() {
        match s {
            Scope::Impl {
                self_type,
                trait_name,
                ..
            } => return (Some(self_type.clone()), trait_name.clone(), None),
            Scope::Trait { name, .. } => return (None, None, Some(name.clone())),
            _ => {}
        }
    }
    (None, None, None)
}

/// Module path including inline `mod` scopes.
fn enclosing_module(file_module: &str, scopes: &[Scope]) -> String {
    let mut out = file_module.to_string();
    for s in scopes {
        if let Scope::Mod { name, .. } = s {
            out.push_str("::");
            out.push_str(name);
        }
    }
    out
}

/// Parameter names whose types are callable (`impl Fn…`, `dyn Fn…`,
/// `fn(…)`, `FnMut`, `FnOnce`).
fn callable_params(params: &str) -> Vec<String> {
    let mut out = Vec::new();
    for part in split_top_commas(params) {
        let Some((name, ty)) = part.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        let ty = ty.trim();
        if !name.chars().all(|c| c.is_alphanumeric() || c == '_') || name.is_empty() {
            continue;
        }
        let callable = ty.contains("impl Fn")
            || ty.contains("dyn Fn")
            || ty.contains("fn(")
            || ty.contains("FnMut")
            || ty.contains("FnOnce");
        if callable {
            out.push(name.to_string());
        }
    }
    out
}

/// Split on commas outside `<…>`, `(…)`, `[…]`.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
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

    #[test]
    fn module_paths() {
        assert_eq!(
            module_path_for("crates/core/src/forward.rs"),
            "core::forward"
        );
        assert_eq!(module_path_for("crates/core/src/lib.rs"), "core");
        assert_eq!(module_path_for("crates/core/src/obs/mod.rs"), "core::obs");
        assert_eq!(
            module_path_for("crates/core/src/exp/scaling.rs"),
            "core::exp::scaling"
        );
        assert_eq!(
            module_path_for("tests/tests/integration.rs"),
            "tests::integration"
        );
        assert_eq!(
            module_path_for("crates/resv/tests/prop_calendar.rs"),
            "resv::tests::prop_calendar"
        );
        assert_eq!(module_path_for("crates/serve/src/main.rs"), "serve");
    }

    #[test]
    fn free_fns_methods_and_traits_are_indexed() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "pub fn free_one(a: u32) -> u32 {\n    a\n}\n\npub struct T;\n\nimpl T {\n    pub fn m(&self) -> u32 {\n        free_one(1)\n    }\n}\n\npub trait Tr {\n    fn q(&self) -> u32;\n}\n\nimpl Tr for T {\n    fn q(&self) -> u32 {\n        self.m()\n    }\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        let names: Vec<&str> = t.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "core::x::free_one",
                "core::x::T::m",
                "core::x::Tr::q",
                "core::x::T::q"
            ]
        );
        assert!(t.free_by_name.contains_key("free_one"));
        assert_eq!(t.methods_by_type[&("T".into(), "q".into())].len(), 1);
        // Body spans: free_one covers lines 1..=3.
        assert_eq!(t.fns[0].body, Some((1, 3)));
        // The bodiless trait signature has no body.
        let trq = t.fns.iter().find(|f| f.qname == "core::x::Tr::q").unwrap();
        assert_eq!(trq.body, None);
    }

    #[test]
    fn impl_headers_with_generics_and_lifetimes() {
        let w = ws(&[(
            "crates/resv/src/views.rs",
            "impl QueryView for LinearRef<'_> {\n    fn name(&self) -> &'static str {\n        \"linear\"\n    }\n}\nimpl<'a> Slots<'a> {\n    fn helper(&self) -> u32 {\n        1\n    }\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        let f0 = &t.fns[0];
        assert_eq!(f0.qname, "resv::views::LinearRef::name");
        assert_eq!(f0.trait_name.as_deref(), Some("QueryView"));
        assert_eq!(t.fns[1].qname, "resv::views::Slots::helper");
    }

    #[test]
    fn multiline_signatures_and_callable_params() {
        let w = ws(&[(
            "crates/core/src/y.rs",
            "pub fn map_subset(\n    dag: &Dag,\n    start: Time,\n    include: impl Fn(TaskId) -> bool,\n    cb: &dyn FnMut(u32),\n) -> Vec<Placement> {\n    body()\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        assert_eq!(t.fns[0].name, "map_subset");
        assert_eq!(t.fns[0].callable_params, vec!["include", "cb"]);
        assert_eq!(t.fns[0].body, Some((6, 8)));
    }

    #[test]
    fn rustfmt_skip_single_line_fn_is_captured() {
        let w = ws(&[(
            "crates/core/src/z.rs",
            "#[rustfmt::skip] pub fn lut(i: usize) -> u64 { TABLE[i] }\npub fn after() {\n    lut(0)\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        assert_eq!(t.fns[0].qname, "core::z::lut");
        assert_eq!(t.fns[0].body, Some((1, 1)));
        assert_eq!(t.fns[1].qname, "core::z::after");
        assert_eq!(t.fns[1].body, Some((2, 4)));
    }

    #[test]
    fn inline_mods_and_test_marking() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            "pub mod inner {\n    pub fn deep() -> u32 {\n        1\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        assert_eq!(t.fns[0].qname, "core::m::inner::deep");
        assert!(!t.fns[0].is_test);
        let h = t.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(h.is_test);
    }

    #[test]
    fn resolve_specs_exact_glob_and_suffix() {
        let w = ws(&[(
            "crates/resv/src/views.rs",
            "impl QueryView for LinearRef<'_> {\n    fn peak(&self) -> u32 {\n        0\n    }\n    fn fit(&self) -> u32 {\n        0\n    }\n}\npub fn selected() -> u32 {\n    0\n}\n",
        )]);
        let t = SymbolTable::build(&w);
        assert_eq!(t.resolve_spec("resv::views::selected").len(), 1);
        assert_eq!(t.resolve_spec("views::selected").len(), 1);
        assert_eq!(t.resolve_spec("resv::views::LinearRef::*").len(), 2);
        assert_eq!(t.resolve_spec("nope::missing").len(), 0);
    }
}
