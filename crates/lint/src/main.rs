//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! resched-lint [--deny] [--json] [--root DIR] [PATH...]
//! resched-lint --waive <rule> <path:line> [--root DIR]
//! resched-lint --graph [--root DIR]
//! resched-lint --why <root> <sink> [--root DIR]
//! ```
//!
//! * With no flags: print the sorted report, exit 0 (warn mode).
//! * `--deny`: exit 1 if any violation is reported (the CI lane).
//! * `--json`: machine-readable report (stable, sorted, 2-space indent).
//! * `PATH...`: restrict the *report* to violations whose primary file is
//!   under one of the given workspace-relative paths (the whole workspace
//!   is still analyzed, so cross-file rules stay sound).
//! * `--waive`: insert a templated waiver comment above `path:line` and
//!   exit; the justification placeholder still fails `--deny` until a real
//!   reason is written.
//! * `--graph`: dump the approximate call graph (functions, resolved
//!   edges, dynamic calls, sinks) as stable JSON.
//! * `--why`: print the witness chain from a root function to a sink
//!   function, one qualified name per line, indented by depth; exit 1 if
//!   no path exists.

use resched_lint::{graph, insert_waiver, render_json, render_text, run, Config, Rule, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut waive: Option<(String, String)> = None;
    let mut dump_graph = false;
    let mut why: Option<(String, String)> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--graph" => dump_graph = true,
            "--why" => {
                let (Some(root), Some(sink)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage("--why needs <root> <sink>");
                };
                why = Some((root.clone(), sink.clone()));
                i += 2;
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => return usage("--root needs a directory"),
                }
            }
            "--waive" => {
                let (Some(rule), Some(site)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage("--waive needs <rule> <path:line>");
                };
                waive = Some((rule.clone(), site.clone()));
                i += 2;
            }
            "--help" | "-h" => return usage(""),
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag {flag}"));
            }
            path => filters.push(path.trim_end_matches('/').to_string()),
        }
        i += 1;
    }

    let root = root.unwrap_or_else(find_workspace_root);

    if let Some((rule, site)) = waive {
        return run_waive(&root, &rule, &site);
    }

    let cfg = Config::default();
    let ws = match Workspace::load(&root, &cfg) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "resched-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    if dump_graph {
        print!("{}", graph::graph_json(&ws));
        return ExitCode::SUCCESS;
    }
    if let Some((root_spec, sink_spec)) = why {
        return match graph::why(&ws, &root_spec, &sink_spec) {
            Ok(chain) => {
                print!("{chain}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("resched-lint: {e}");
                ExitCode::from(1)
            }
        };
    }
    let mut violations = run(&ws, &cfg);
    if !filters.is_empty() {
        violations.retain(|v| {
            filters
                .iter()
                .any(|f| v.path == *f || v.path.starts_with(&format!("{f}/")))
        });
    }

    if json {
        print!("{}", render_json(&violations));
    } else {
        print!("{}", render_text(&violations));
        if violations.is_empty() {
            eprintln!("resched-lint: clean ({} files analyzed)", ws.files.len());
        } else {
            eprintln!(
                "resched-lint: {} violation(s){}",
                violations.len(),
                if deny {
                    ""
                } else {
                    " (warn mode; pass --deny to fail)"
                }
            );
        }
    }

    if deny && !violations.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Handle `--waive <rule> <path:line>`.
fn run_waive(root: &std::path::Path, rule: &str, site: &str) -> ExitCode {
    let Some(rule) = Rule::from_name(rule) else {
        return usage(&format!(
            "unknown rule `{rule}` (waivable: nondet, panic, obs, catalog, parity, det, \
             dynamic-call, panic-transitive, det-transitive)"
        ));
    };
    let Some((path, line)) = site.rsplit_once(':') else {
        return usage("--waive site must be <path:line>");
    };
    let Ok(line) = line.parse::<usize>() else {
        return usage(&format!("`{line}` is not a line number"));
    };
    let full = root.join(path);
    let text = match std::fs::read_to_string(&full) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("resched-lint: cannot read {}: {e}", full.display());
            return ExitCode::from(2);
        }
    };
    match insert_waiver(&text, line, rule) {
        Ok(new_text) => {
            if let Err(e) = std::fs::write(&full, new_text) {
                eprintln!("resched-lint: cannot write {}: {e}", full.display());
                return ExitCode::from(2);
            }
            println!(
                "inserted `// lint:allow({})` waiver above {path}:{line}; \
                 replace the TODO with a real justification",
                rule.name()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("resched-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]`; fall back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("resched-lint: {err}");
    }
    eprintln!(
        "usage: resched-lint [--deny] [--json] [--root DIR] [PATH...]\n       \
         resched-lint --waive <rule> <path:line> [--root DIR]\n       \
         resched-lint --graph [--root DIR]\n       \
         resched-lint --why <root> <sink> [--root DIR]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
