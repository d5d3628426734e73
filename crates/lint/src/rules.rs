//! The per-line rule families (nondet, obs, catalog, parity). Each rule
//! walks the lexed workspace and emits violations through the waiver-aware
//! [`Sink`]; the transitive families (panic, det, dynamic-call)
//! live in [`crate::graph`].

use crate::lexer::Lexed;
use crate::manifest::{Catalog, MetricKind, MetricsManifest};
use crate::{Config, Rule, Sink, Workspace};

/// Is `path` under any of the given prefixes?
fn in_scope(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// Byte offset of identifier token `tok` in `code` at a word boundary, or
/// `None`. Matches the first occurrence.
fn find_token(code: &str, tok: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let before_ok = start == 0 || !is_word(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn has_token(code: &str, tok: &str) -> bool {
    find_token(code, tok).is_some()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does identifier `tok` occur followed (modulo spaces) by `suffix`?
/// E.g. (`unwrap`, "()") matches `.unwrap()` but not `.unwrap_or(0)`.
fn token_followed_by(code: &str, tok: &str, suffix: &str) -> bool {
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

// ---------------------------------------------------------------------------
// Rule 1: nondeterminism.
// ---------------------------------------------------------------------------

/// Flag `HashMap`/`HashSet`, wall-clock reads, and bare float `==`/`!=` in
/// scheduler crates (`nondet_paths`), outside `#[cfg(test)]` items and the
/// allowlisted timing module.
pub fn nondet(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    for (path, file) in &ws.files {
        if !in_scope(path, &cfg.nondet_paths) {
            continue;
        }
        let timing_ok = cfg.timing_allowlist.iter().any(|p| p == path);
        for (idx, line) in file.lexed.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let n = idx + 1;
            for tok in ["HashMap", "HashSet"] {
                if has_token(&line.code, tok) {
                    sink.emit(
                        ws,
                        path,
                        n,
                        Rule::Nondet,
                        format!(
                            "{tok} iteration order is nondeterministic in scheduler code; \
                             use BTree{} or waive with an order-never-escapes argument",
                            &tok[4..]
                        ),
                    );
                }
            }
            if !timing_ok {
                if token_followed_by(&line.code, "Instant", "::now") {
                    sink.emit(
                        ws,
                        path,
                        n,
                        Rule::Nondet,
                        "wall-clock read (Instant::now) in scheduler code; schedules must be \
                         a pure function of their inputs"
                            .into(),
                    );
                }
                if has_token(&line.code, "SystemTime") {
                    sink.emit(
                        ws,
                        path,
                        n,
                        Rule::Nondet,
                        "wall-clock read (SystemTime) in scheduler code; schedules must be \
                         a pure function of their inputs"
                            .into(),
                    );
                }
            }
            if let Some(op) = float_eq_comparison(&line.code) {
                sink.emit(
                    ws,
                    path,
                    n,
                    Rule::Nondet,
                    format!(
                        "bare float `{op}` comparison; compare integers, use an epsilon, or \
                         total ordering"
                    ),
                );
            }
        }
    }
}

/// Minimal token for float-equality detection.
#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(String),
    Op(&'static str),
    Other,
}

/// Tokenize just enough to spot `==` / `!=` next to float literals or
/// `f64::`/`f32::` constants.
fn mini_tokens(code: &str) -> Vec<Tok> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric() || chars[i] == '.' || chars[i] == '_')
            {
                // `1..=n` range syntax: a second consecutive dot ends the
                // number.
                if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                    break;
                }
                i += 1;
            }
            out.push(Tok::Num(chars[start..i].iter().collect()));
        } else {
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            match two.as_str() {
                "==" => {
                    out.push(Tok::Op("=="));
                    i += 2;
                }
                "!=" => {
                    out.push(Tok::Op("!="));
                    i += 2;
                }
                "<=" | ">=" | "=>" | "->" | ".." => {
                    out.push(Tok::Other);
                    i += 2;
                }
                "::" => {
                    out.push(Tok::Op("::"));
                    i += 2;
                }
                _ => {
                    out.push(Tok::Other);
                    i += 1;
                }
            }
        }
    }
    out
}

fn is_floatish(t: &Tok) -> bool {
    match t {
        Tok::Num(n) => {
            let hex = n.starts_with("0x") || n.starts_with("0b") || n.starts_with("0o");
            !hex && (n.contains('.') || n.ends_with("f64") || n.ends_with("f32"))
        }
        _ => false,
    }
}

/// Is token `i` a `f64::CONST` / `f32::CONST` tail (CONST at `i`, preceded
/// by `::` and `f64`/`f32`)?
fn is_float_const(toks: &[Tok], i: usize) -> bool {
    const CONSTS: [&str; 6] = ["NAN", "INFINITY", "NEG_INFINITY", "EPSILON", "MAX", "MIN"];
    if i < 2 {
        return false;
    }
    let Tok::Ident(name) = &toks[i] else {
        return false;
    };
    if !CONSTS.contains(&name.as_str()) {
        return false;
    }
    toks[i - 1] == Tok::Op("::")
        && matches!(&toks[i - 2], Tok::Ident(t) if t == "f64" || t == "f32")
}

/// The `==`/`!=` operator if the line compares against a float literal or
/// float constant.
fn float_eq_comparison(code: &str) -> Option<&'static str> {
    let toks = mini_tokens(code);
    for (i, t) in toks.iter().enumerate() {
        let op = match t {
            Tok::Op(op @ "==") | Tok::Op(op @ "!=") => *op,
            _ => continue,
        };
        let prev_float = i > 0 && (is_floatish(&toks[i - 1]) || is_float_const(&toks, i - 1));
        let next_float = toks
            .get(i + 1)
            .is_some_and(|t| is_floatish(t) || is_float_const(&toks, i + 1))
            // `x == f64::NAN`: the const tail sits two tokens later.
            || (matches!(toks.get(i + 1), Some(Tok::Ident(t)) if t == "f64" || t == "f32")
                && toks.get(i + 2) == Some(&Tok::Op("::")));
        if prev_float || next_float {
            return Some(op);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 3: obs-hygiene.
// ---------------------------------------------------------------------------

/// Obs call tokens and the manifest section their name argument must be in.
const OBS_CALLS: [(&str, MetricKind); 4] = [
    ("counter_add", MetricKind::Counter),
    ("record_value", MetricKind::Histogram),
    ("span_enter", MetricKind::Span),
    ("span", MetricKind::Span), // the `span!` macro; matched with `!`
];

/// Check every metric/span name against the manifest, and the manifest
/// against actual use.
pub fn obs_hygiene(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    let Some(manifest_src) = ws.extras.get(&cfg.metrics_manifest) else {
        sink.emit(
            ws,
            &cfg.metrics_manifest,
            1,
            Rule::Obs,
            "metrics manifest is missing; declare every counter/histogram/span name here".into(),
        );
        return;
    };
    let manifest = MetricsManifest::parse(manifest_src);
    for (line, msg) in &manifest.errors {
        sink.emit(ws, &cfg.metrics_manifest, *line, Rule::Obs, msg.clone());
    }

    let mut used: Vec<String> = Vec::new();

    // Canonical name constants in the names module: `const X: &str = "..."`.
    if let Some(file) = ws.files.get(&cfg.names_module) {
        for (idx, line) in file.lexed.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if !(has_token(&line.code, "const") && line.code.contains("str")) {
                continue;
            }
            let n = idx + 1;
            if let Some(lit) = file.lexed.strings_on(n).next() {
                used.push(lit.value.clone());
                if !manifest.declares_any(&lit.value) {
                    sink.emit(
                        ws,
                        &cfg.names_module,
                        n,
                        Rule::Obs,
                        undeclared_msg(&manifest, &lit.value, None),
                    );
                }
            }
        }
    }

    // Literal names at obs call sites.
    for (path, file) in &ws.files {
        if !in_scope(path, &cfg.src_paths) {
            continue;
        }
        for (idx, line) in file.lexed.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let n = idx + 1;
            for (call, kind) in OBS_CALLS {
                let hit = if call == "span" {
                    token_followed_by(&line.code, "span", "!(")
                } else {
                    token_followed_by(&line.code, call, "(")
                };
                if !hit {
                    continue;
                }
                let Some(lit) = file.lexed.strings_on(n).next() else {
                    continue; // name passed via a const, checked at its definition
                };
                used.push(lit.value.clone());
                if !manifest.declares(&lit.value, kind) {
                    sink.emit(
                        ws,
                        path,
                        n,
                        Rule::Obs,
                        undeclared_msg(&manifest, &lit.value, Some(kind)),
                    );
                }
                break; // one name per line; first call token wins
            }
        }
    }

    // Unused manifest entries rot the manifest: flag them.
    for (name, entry) in &manifest.entries {
        if !used.iter().any(|u| u == name) {
            sink.emit(
                ws,
                &cfg.metrics_manifest,
                entry.line,
                Rule::Obs,
                format!(
                    "manifest entry \"{name}\" ([{}]) is never used by any obs call site or \
                     name constant; delete it or wire it up",
                    entry.kind.section()
                ),
            );
        }
    }
}

fn undeclared_msg(manifest: &MetricsManifest, name: &str, kind: Option<MetricKind>) -> String {
    let mut msg = match kind {
        Some(k) if manifest.declares_any(name) => format!(
            "name \"{name}\" is declared in the manifest but not under [{}]",
            k.section()
        ),
        Some(k) => format!(
            "name \"{name}\" is not declared under [{}] in the metrics manifest",
            k.section()
        ),
        None => format!("name \"{name}\" is not declared in the metrics manifest"),
    };
    if !manifest.declares_any(name) {
        if let Some(near) = manifest.nearest(name) {
            msg.push_str(&format!(" (did you mean \"{near}\"?)"));
        }
    }
    msg
}

// ---------------------------------------------------------------------------
// Rule 4: catalog-sync.
// ---------------------------------------------------------------------------

/// Markers delimiting the algorithm-catalog table in markdown docs.
pub const CATALOG_BEGIN: &str = "<!-- lint:catalog:begin -->";
/// Closing marker.
pub const CATALOG_END: &str = "<!-- lint:catalog:end -->";

/// Diff the catalog manifest against docs, goldens, and test harnesses.
pub fn catalog_sync(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    let Some(catalog_src) = ws.extras.get(&cfg.catalog_manifest) else {
        sink.emit(
            ws,
            &cfg.catalog_manifest,
            1,
            Rule::Catalog,
            "algorithm catalog manifest is missing; list every catalog algorithm name here".into(),
        );
        return;
    };
    let catalog = Catalog::parse(catalog_src);
    if catalog.names.is_empty() {
        sink.emit(
            ws,
            &cfg.catalog_manifest,
            1,
            Rule::Catalog,
            "algorithm catalog manifest is empty".into(),
        );
        return;
    }

    // Docs: a marker-delimited block must list exactly the catalog names
    // in backticks.
    for doc in &cfg.catalog_docs {
        let Some(text) = ws.extras.get(doc) else {
            sink.emit(
                ws,
                doc,
                1,
                Rule::Catalog,
                "file is missing but referenced by the catalog-sync rule".into(),
            );
            continue;
        };
        check_doc_block(ws, sink, doc, text, &catalog, &cfg.catalog_manifest);
    }

    // Goldens: the set of `"algorithm": "<name>"` values must equal the
    // catalog.
    for golden in &cfg.catalog_goldens {
        let Some(text) = ws.extras.get(golden) else {
            sink.emit(
                ws,
                golden,
                1,
                Rule::Catalog,
                "golden file is missing but referenced by the catalog-sync rule".into(),
            );
            continue;
        };
        check_golden(ws, sink, golden, text, &catalog, &cfg.catalog_manifest);
    }

    // Test harnesses: must run the full catalog, and any explicit
    // `by_name("...")` lookups must resolve.
    for test in &cfg.catalog_tests {
        let Some(file) = ws.files.get(test) else {
            sink.emit(
                ws,
                test,
                1,
                Rule::Catalog,
                "test file is missing but referenced by the catalog-sync rule".into(),
            );
            continue;
        };
        if !file.text.contains("Algorithm::catalog()") {
            sink.emit(
                ws,
                test,
                1,
                Rule::Catalog,
                "harness does not iterate Algorithm::catalog(); full-catalog coverage is \
                 required"
                    .into(),
            );
        }
        for (idx, line) in file.lexed.lines.iter().enumerate() {
            if !token_followed_by(&line.code, "by_name", "(") {
                continue;
            }
            let n = idx + 1;
            for lit in file.lexed.strings_on(n) {
                if !catalog.contains(&lit.value) {
                    sink.emit(
                        ws,
                        test,
                        n,
                        Rule::Catalog,
                        format!(
                            "by_name(\"{}\") names an algorithm missing from the catalog \
                             manifest",
                            lit.value
                        ),
                    );
                }
            }
        }
    }
}

/// Backtick-quoted tokens in the marker-delimited block, with line numbers.
fn doc_block_names(text: &str) -> Option<Vec<(String, usize)>> {
    let mut names = Vec::new();
    let mut inside = false;
    let mut seen = false;
    for (idx, line) in text.lines().enumerate() {
        if line.contains(CATALOG_BEGIN) {
            inside = true;
            seen = true;
            continue;
        }
        if line.contains(CATALOG_END) {
            inside = false;
            continue;
        }
        if !inside {
            continue;
        }
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let Some(len) = rest[start + 1..].find('`') else {
                break;
            };
            let tok = &rest[start + 1..start + 1 + len];
            if !tok.is_empty() {
                names.push((tok.to_string(), idx + 1));
            }
            rest = &rest[start + 1 + len + 1..];
        }
    }
    seen.then_some(names)
}

fn check_doc_block(
    ws: &Workspace,
    sink: &mut Sink,
    doc: &str,
    text: &str,
    catalog: &Catalog,
    manifest_path: &str,
) {
    let Some(found) = doc_block_names(text) else {
        sink.emit(
            ws,
            doc,
            1,
            Rule::Catalog,
            format!(
                "no catalog table markers; add `{CATALOG_BEGIN}` / `{CATALOG_END}` around the \
                 algorithm table"
            ),
        );
        return;
    };
    for (name, line) in &found {
        if !catalog.contains(name) {
            sink.emit(
                ws,
                doc,
                *line,
                Rule::Catalog,
                format!("`{name}` is not in the catalog manifest"),
            );
        }
    }
    for (name, mline) in &catalog.names {
        if !found.iter().any(|(f, _)| f == name) {
            sink.emit(
                ws,
                manifest_path,
                *mline,
                Rule::Catalog,
                format!("catalog algorithm `{name}` is missing from {doc}'s catalog table"),
            );
        }
    }
}

fn check_golden(
    ws: &Workspace,
    sink: &mut Sink,
    golden: &str,
    text: &str,
    catalog: &Catalog,
    manifest_path: &str,
) {
    let mut found: Vec<(String, usize)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("\"algorithm\"") {
            let tail = &rest[pos + "\"algorithm\"".len()..];
            let tail = tail
                .trim_start()
                .strip_prefix(':')
                .unwrap_or(tail)
                .trim_start();
            if let Some(t) = tail.strip_prefix('"') {
                if let Some(end) = t.find('"') {
                    found.push((t[..end].to_string(), idx + 1));
                }
            }
            rest = &rest[pos + 1..];
        }
    }
    for (name, line) in &found {
        if !catalog.contains(name) {
            sink.emit(
                ws,
                golden,
                *line,
                Rule::Catalog,
                format!("golden exercises algorithm \"{name}\" not in the catalog manifest"),
            );
        }
    }
    for (name, mline) in &catalog.names {
        if !found.iter().any(|(f, _)| f == name) {
            sink.emit(
                ws,
                manifest_path,
                *mline,
                Rule::Catalog,
                format!("catalog algorithm `{name}` never appears in {golden}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: feature-parity.
// ---------------------------------------------------------------------------

/// Every `#[cfg(feature = "obs")]` item needs a
/// `#[cfg(not(feature = "obs"))]` no-op twin, so the feature stays
/// zero-cost *and* compiles both ways.
pub fn feature_parity(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    for (path, file) in &ws.files {
        if !in_scope(path, &cfg.src_paths) {
            continue;
        }
        let mut positives: Vec<usize> = Vec::new();
        let mut orphan_negatives: Vec<usize> = Vec::new();
        for (idx, line) in file.lexed.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let n = idx + 1;
            let (pos_gate, neg_gate) = classify_gate(&file.lexed, n);
            if pos_gate {
                positives.push(n);
            } else if neg_gate {
                if positives.is_empty() {
                    orphan_negatives.push(n);
                } else {
                    positives.remove(0);
                }
            }
        }
        for n in positives {
            sink.emit(
                ws,
                path,
                n,
                Rule::Parity,
                "#[cfg(feature = \"obs\")] item without a #[cfg(not(feature = \"obs\"))] \
                 no-op twin; the crate must compile identically with the feature off"
                    .into(),
            );
        }
        for n in orphan_negatives {
            sink.emit(
                ws,
                path,
                n,
                Rule::Parity,
                "#[cfg(not(feature = \"obs\"))] stub without a preceding \
                 #[cfg(feature = \"obs\")] item"
                    .into(),
            );
        }
    }
}

/// Is line `n` a positive / negative obs feature gate?
fn classify_gate(lexed: &Lexed, n: usize) -> (bool, bool) {
    let code = &lexed.line(n).code;
    let gates_obs = lexed.strings_on(n).any(|s| s.value == "obs");
    if !gates_obs {
        return (false, false);
    }
    if code.contains("#[cfg(not(feature =") {
        return (false, true);
    }
    if code.contains("#[cfg(feature =") {
        return (true, false);
    }
    (false, false)
}

// ---------------------------------------------------------------------------
// Rule 8: violation-kind parity.
// ---------------------------------------------------------------------------

/// The variant names of `pub enum Violation` in `file`, with their lines.
///
/// Brace-depth scan over comment-stripped code lines: variants are the
/// capitalized identifiers opening a line at depth 1 inside the enum body,
/// so struct-variant fields (depth 2) and closing braces never match.
fn violation_variants(file: &crate::SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_enum = false;
    for (idx, line) in file.lexed.lines.iter().enumerate() {
        let code = line.code.as_str();
        if !in_enum {
            if code.trim_start().starts_with("pub enum Violation") {
                in_enum = true;
            } else {
                continue;
            }
        }
        let trimmed = code.trim();
        if depth == 1 {
            let name: String = trimmed
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push((name, idx + 1));
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Word-boundary occurrence count of `tok` across a file's code lines.
fn token_count(lexed: &Lexed, tok: &str) -> usize {
    let mut n = 0;
    for line in &lexed.lines {
        let mut code = line.code.as_str();
        while let Some(pos) = find_token(code, tok) {
            n += 1;
            code = &code[pos + tok.len()..];
        }
    }
    n
}

/// Every `Violation` kind must be wired end-to-end: declared, rendered,
/// and constructed in the validator module (≥ 3 word-boundary uses — the
/// declaration alone leaves a dead kind the oracle can never report), and
/// named in every fuzz/shrink harness of [`Config::violation_tests`] so
/// shrunk repro cases can label it. A new kind added to the enum without
/// that coverage fails the lint instead of shipping half-observable.
pub fn violation_parity(ws: &Workspace, cfg: &Config, sink: &mut Sink) {
    let Some(module) = ws.files.get(&cfg.violation_module) else {
        return;
    };
    let variants = violation_variants(module);
    if variants.is_empty() {
        sink.emit(
            ws,
            &cfg.violation_module,
            1,
            Rule::Parity,
            "no `pub enum Violation` variants found; the violation-parity rule has nothing \
             to audit"
                .into(),
        );
        return;
    }
    for (name, vline) in &variants {
        let uses = token_count(&module.lexed, name);
        if uses < 3 {
            sink.emit(
                ws,
                &cfg.violation_module,
                *vline,
                Rule::Parity,
                format!(
                    "violation kind `{name}` appears only {uses}x in the validator module; \
                     it must be declared, rendered by `Display`, and constructed by a check \
                     (≥ 3 uses)"
                ),
            );
        }
        for test in &cfg.violation_tests {
            let Some(file) = ws.files.get(test) else {
                sink.emit(
                    ws,
                    test,
                    1,
                    Rule::Parity,
                    "violation-labeling harness is missing but referenced by the \
                     violation-parity rule"
                        .into(),
                );
                continue;
            };
            if token_count(&file.lexed, name) == 0 {
                sink.emit(
                    ws,
                    &cfg.violation_module,
                    *vline,
                    Rule::Parity,
                    format!(
                        "violation kind `{name}` never appears in {test}; the shrink \
                         harness must label every kind"
                    ),
                );
            }
        }
    }
}
