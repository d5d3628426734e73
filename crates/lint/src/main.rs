//! CLI for the workspace's call-graph proofs.
//!
//! ```text
//! resched-lint [--deny] [--root DIR] [PATH...]
//! resched-lint --why <root> <sink> [--root DIR]
//! ```
//!
//! * With no flags: print the sorted report, exit 0 (warn mode).
//! * `--deny`: exit 1 if any violation is reported (the CI lane).
//! * `PATH...`: restrict the *report* to violations whose primary file is
//!   under one of the given workspace-relative paths (the whole workspace
//!   is still analyzed, so reachability stays sound).
//! * `--why`: print the witness chain from a root function to a sink
//!   function, one qualified name per line, indented by depth; exit 1 if
//!   no path exists.

use resched_lint::{graph, render_text, run, Config, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut root: Option<PathBuf> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut why: Option<(String, String)> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => deny = true,
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
            "--help" | "-h" => return usage(""),
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag {flag}"));
            }
            path => filters.push(path.trim_end_matches('/').to_string()),
        }
        i += 1;
    }

    let root = root.unwrap_or_else(find_workspace_root);

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

    if deny && !violations.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
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
        "usage: resched-lint [--deny] [--root DIR] [PATH...]\n       \
         resched-lint --why <root> <sink> [--root DIR]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
