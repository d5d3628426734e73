//! Pins the real roots manifest to the real workspace: every declared
//! root must resolve to at least one function, so a rename in the
//! scheduling crates cannot silently turn a proof into a no-op.

use resched_lint::graph::RootsManifest;
use resched_lint::symbols::SymbolTable;
use resched_lint::{Config, Workspace};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn every_manifest_entry_resolves_against_the_workspace() {
    let cfg = Config::default();
    let root = workspace_root();
    let ws = Workspace::load(&root, &cfg).expect("load workspace");
    let src = ws
        .extras
        .get(&cfg.roots_manifest)
        .expect("crates/lint/roots.toml is part of the workspace");
    let manifest = RootsManifest::parse(src);
    assert!(
        manifest.errors.is_empty(),
        "roots.toml must parse cleanly: {:?}",
        manifest.errors
    );
    assert!(
        !manifest.roots.is_empty(),
        "the real manifest must declare at least one root"
    );

    let table = SymbolTable::build(&ws);
    for (spec, line) in &manifest.roots {
        assert!(
            !table.resolve_spec(spec).is_empty(),
            "roots.toml:{line}: `{spec}` no longer resolves to any workspace function"
        );
    }
}
