//! Guards over the source tree, read as text.
//!
//! * Every `DESIGN.md §N` citation (and every `§M` continuing it after a
//!   comma or an "and") names a heading of DESIGN.md, and every row of its
//!   old → new anchor table points at one; DESIGN.md stays within 1 500
//!   lines, and the waiver and `TEST_ONLY` counts it writes are the tree's.
//! * Every `pub fn` of `core`, `resv`, `serve`, `workloads`, `daggen` and
//!   `sim` above its file's first column-0 `#[cfg(test)]` is named by the
//!   shipped text of some other `.rs` file: `crates/*/src`, `crates/bench/benches`,
//!   `examples/` and `benchmark/src`, each file cut at its first column-0
//!   `#[cfg(test)]`. A test is not a caller. This is a name-level grep: it
//!   can miss an unused function whose name is common, but it never flags
//!   one that shipped code names.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The repository root.
fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Every file under `dir` that `keep` accepts, build output skipped, in
/// path order.
fn files_under(dir: &Path, keep: &dyn Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    dirs.push(path);
                }
            } else if keep(&path) {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rs_files(dir: &Path) -> Vec<PathBuf> {
    files_under(dir, &|p| p.extension().is_some_and(|x| x == "rs"))
}

/// The `SKILL.md` notes on building and running the repository, kept
/// under its hidden directories; they cite DESIGN.md too.
fn skill_notes(root: &Path) -> Vec<PathBuf> {
    let hidden = fs::read_dir(root)
        .expect("repository root")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_dir())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.') && n != ".git")
        });
    let mut out: Vec<PathBuf> = hidden
        .flat_map(|d| files_under(&d, &|p| p.file_name().is_some_and(|n| n == "SKILL.md")))
        .collect();
    out.sort();
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn design() -> String {
    read(&repo().join("DESIGN.md"))
}

/// The section numbers of DESIGN.md's headings: `## 3. Calendar walk` is
/// `3`, `### 1.2 Algorithm catalog` is `1.2`.
fn headings(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|l| l.trim_start_matches('#').trim_start())
        .filter_map(|l| l.split_whitespace().next())
        .map(|n| n.trim_end_matches('.').to_string())
        .filter(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        .collect()
}

/// `N` or `N.M` at the start of `s`, and the rest of `s`.
fn section_number(s: &str) -> Option<(&str, &str)> {
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let major = digits(s);
    if major == 0 {
        return None;
    }
    let end = match s[major..].strip_prefix('.') {
        Some(rest) if digits(rest) > 0 => major + 1 + digits(rest),
        _ => major,
    };
    Some(s.split_at(end))
}

/// Every section a `DESIGN.md §N[, §M …]` citation in `text` names, with
/// the line it starts on. Between `DESIGN.md` and the first `§` only
/// spacing, punctuation and comment markers may stand (a citation wraps
/// across comment lines); later sections continue it after `,` or `and`.
fn citations(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let line = text[..at].matches('\n').count() + 1;
        let mut rest = text[at + "DESIGN.md".len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || "/!,(`:".contains(c));
        while let Some(cited) = rest.strip_prefix('§') {
            let Some((number, after)) = section_number(cited) else {
                break;
            };
            out.push((line, number.to_string()));
            let after = after.trim_start();
            let after = after
                .strip_prefix(',')
                .or_else(|| after.strip_prefix("and "))
                .unwrap_or(after);
            rest = after.trim_start();
        }
    }
    out
}

#[test]
fn every_design_citation_names_a_heading() {
    let root = repo();
    let heads = headings(&design());
    let mut files = rs_files(&root.join("crates"));
    files.extend(rs_files(&root.join("tests")));
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "crates/bench/README.md",
    ] {
        files.push(root.join(doc));
    }
    let notes = skill_notes(&root);
    assert!(!notes.is_empty(), "no SKILL.md notes found");
    files.extend(notes);
    let mut seen = 0;
    let mut stale = Vec::new();
    for path in &files {
        for (line, section) in citations(&read(path)) {
            seen += 1;
            if !heads.contains(&section) {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                stale.push(format!("{}:{line}: §{section}", rel.display()));
            }
        }
    }
    assert!(seen > 20, "the citation scan found only {seen} citations");
    assert!(
        stale.is_empty(),
        "DESIGN.md has no heading for these citations:\n{}",
        stale.join("\n")
    );
}

#[test]
fn citations_are_read_across_comment_lines_and_continuations() {
    let text = "see DESIGN.md\n//! §13, §2.1 and §7. Also (DESIGN.md §15).\nDESIGN.md alone.";
    let found: Vec<String> = citations(text).into_iter().map(|(_, s)| s).collect();
    assert_eq!(found, ["13", "2.1", "7", "15"]);
    assert_eq!(citations("DESIGN.md §9.")[0].1, "9");
}

#[test]
fn every_old_anchor_points_at_a_heading() {
    let design = design();
    let heads = headings(&design);
    let table = design
        .split_once("Old → new anchors")
        .expect("DESIGN.md ends with its old → new anchor table")
        .1;
    let mut rows = 0;
    for row in table.lines().filter(|l| l.starts_with("| §")) {
        rows += 1;
        let new = row.trim_end_matches('|').rsplit('|').next().unwrap_or("");
        let targets: Vec<&str> = new
            .split('§')
            .skip(1)
            .filter_map(|s| section_number(s).map(|(n, _)| n))
            .collect();
        assert!(!targets.is_empty(), "anchor row names no section: {row}");
        for t in targets {
            assert!(
                heads.iter().any(|h| h == t),
                "anchor row points at §{t}: {row}"
            );
        }
    }
    assert!(rows >= 10, "the anchor table has only {rows} rows");
}

#[test]
fn design_md_is_at_most_1500_lines() {
    let lines = design().lines().count();
    assert!(
        lines <= 1500,
        "DESIGN.md is {lines} lines; the cap is 1 500"
    );
}

/// The waivers (`// lint:allow(<rule>): …` lines, the lint's grammar)
/// outside `crates/lint`, by rule.
fn waivers(root: &Path) -> BTreeMap<String, usize> {
    let lint = root.join("crates").join("lint");
    let mut files: Vec<PathBuf> = rs_files(&root.join("crates"));
    files.retain(|p| !p.starts_with(&lint));
    for dir in ["tests", "examples", "benchmark/src"] {
        files.extend(rs_files(&root.join(dir)));
    }
    let mut by_rule = BTreeMap::new();
    for path in files {
        for line in read(&path).lines() {
            if let Some(rest) = line.trim_start().strip_prefix("// lint:allow(") {
                let rule = rest.split(')').next().unwrap_or(rest);
                *by_rule.entry(rule.to_string()).or_insert(0) += 1;
            }
        }
    }
    by_rule
}

/// The number written right after the first `phrase` in `text`.
fn number_after(text: &str, phrase: &str) -> Option<usize> {
    let rest = text[text.find(phrase)? + phrase.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// DESIGN.md §13 writes the waiver count (total, under its cap of 20, and
/// by rule) and the `TEST_ONLY` count below as digits in fixed phrases;
/// both must be the tree's.
#[test]
fn design_md_counts_the_waivers_and_test_only_names() {
    let design = design();
    let by_rule = waivers(&repo());
    let total: usize = by_rule.values().sum();
    let phrase = "Waivers outside `crates/lint`:";
    assert_eq!(
        number_after(&design, phrase),
        Some(total),
        "DESIGN.md §13 must say \"{phrase} {total}\" ({by_rule:?})"
    );
    assert!(
        total < 20,
        "{total} waivers outside crates/lint; the cap is under 20"
    );
    let (_, from) = design.split_once(phrase).expect("the phrase is there");
    let paragraph = from.split("\n\n").next().unwrap_or(from);
    for (rule, n) in &by_rule {
        assert_eq!(
            number_after(paragraph, &format!("`{rule}`")),
            Some(*n),
            "DESIGN.md §13 must give `{rule}` {n} after \"{phrase}\""
        );
    }
    let phrase = "`TEST_ONLY` names:";
    assert_eq!(
        number_after(&design, phrase),
        Some(TEST_ONLY.len()),
        "DESIGN.md §13 must say \"{phrase} {}\"",
        TEST_ONLY.len()
    );
}

/// The name of the `pub fn` a line declares, if it declares one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Whether `text` holds `name` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

/// The `pub fn`s only tests name, each kept for the tests of another
/// crate (a `#[cfg(test)]` item cannot cross a crate boundary):
/// * `fork_join`, the fork-join DAG fixture of the tests of `core`,
///   `serve` and `resched-tests`;
/// * `run_deadline_experiment`, the deadline experiment over a caller's
///   grid: Tables 6 and 7 are two grids, and the golden and thread-count
///   tests pin a third, smaller one.
const TEST_ONLY: [&str; 2] = ["fork_join", "run_deadline_experiment"];

/// The code of `text` above its first column-0 `#[cfg(test)]`: comments
/// and the contents of string and char literals blanked by the lint's
/// lexer, so a name in prose or in a message calls nothing.
fn shipped(text: &str) -> String {
    let text = text.find("\n#[cfg(test)]").map_or(text, |at| &text[..at]);
    let lexed = resched_lint::lexer::lex(text);
    let code: Vec<&str> = lexed.lines.iter().map(|l| l.code.as_str()).collect();
    code.join("\n")
}

/// `<root>/crates/*/src`, `crates/bench/benches`, `examples` and
/// `benchmark/src`: where a shipped caller can live.
fn shipped_dirs(root: &Path) -> Vec<PathBuf> {
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    let mut dirs: Vec<PathBuf> = crates
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs.extend(["crates/bench/benches", "examples", "benchmark/src"].map(|d| root.join(d)));
    dirs
}

#[test]
fn every_library_pub_fn_is_named_by_another_file() {
    let root = repo();
    let texts: Vec<(PathBuf, String)> = shipped_dirs(&root)
        .iter()
        .flat_map(|dir| rs_files(dir))
        .map(|p| {
            let text = shipped(&read(&p));
            (p, text)
        })
        .collect();
    let mut orphans = Vec::new();
    let mut checked = 0;
    for krate in ["core", "resv", "serve", "workloads", "daggen", "sim"] {
        let src = root.join("crates").join(krate).join("src");
        for (path, text) in texts.iter().filter(|(p, _)| p.starts_with(&src)) {
            for name in text.lines().filter_map(pub_fn_name) {
                checked += 1;
                if !TEST_ONLY.contains(&name)
                    && !texts
                        .iter()
                        .any(|(other, t)| other != path && names(t, name))
                {
                    let rel = path.strip_prefix(&root).unwrap_or(path);
                    orphans.push(format!("{}: {name}", rel.display()));
                }
            }
        }
    }
    assert!(checked > 100, "the scan found only {checked} pub fns");
    assert!(
        orphans.is_empty(),
        "these pub fns are named by no other file's shipped code; delete them, narrow them, \
         or call them:\n{}",
        orphans.join("\n")
    );
}
