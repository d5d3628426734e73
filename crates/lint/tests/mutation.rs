//! Mutation audit of the call graph (DESIGN.md §13): for every root
//! in the real `roots.toml`, over the real workspace, inject a probe three
//! calls below the root — root → hop 1 → hop 2 → sink — whose sink function
//! holds an `unwrap()` and an `Instant::now()`, once per way hop 2 can
//! reach its sink, and require the diagnostic the proofs owe: the sink's
//! own line, with a witness chain from that root to that sink. A way the
//! graph cannot follow is a test here that fails, or an `#[ignore]`d one
//! that says which hole it is — never a silent absence.

use resched_lint::graph::{scan_marks, RootsManifest};
use resched_lint::symbols::SymbolTable;
use resched_lint::{lexer, run, Config, Rule, Violation, Workspace};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The sink body every probe ends in.
const SINKS: &str = "        let v: Option<u32> = None;\n        v.unwrap();\n        let _ = std::time::Instant::now();\n";

/// One way for hop 2 to reach its sink. In `src` and `ends_at`, `{k}` is
/// the probe's suffix (so the probes of one file share no name) and
/// `{sinks}` the sink body.
struct Probe {
    /// Suffix of every name in the probe.
    k: &'static str,
    /// Source of hop 1, hop 2 and the sink.
    src: &'static str,
    /// Qualified name of the function the witness must end at, after the
    /// probe module's path.
    ends_at: &'static str,
}

const PROBES: [Probe; 7] = [
    Probe {
        k: "method",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}();\n}\nfn zz_hop2_{k}() {\n    ZzProbe_{k}.zz_sink_{k}();\n}\nstruct ZzProbe_{k};\nimpl ZzProbe_{k} {\n    fn zz_sink_{k}(&self) {\n{sinks}    }\n}\n",
        ends_at: "ZzProbe_{k}::zz_sink_{k}",
    },
    Probe {
        k: "closure",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}();\n}\nfn zz_hop2_{k}() {\n    let call = || zz_sink_{k}();\n    call();\n}\nfn zz_sink_{k}() {\n    {\n{sinks}    }\n}\n",
        ends_at: "zz_sink_{k}",
    },
    Probe {
        k: "dyn",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}(&ZzProbe_{k});\n}\nfn zz_hop2_{k}(probe: &dyn ZzTrait_{k}) {\n    probe.zz_sink_{k}();\n}\ntrait ZzTrait_{k} {\n    fn zz_sink_{k}(&self);\n}\nstruct ZzProbe_{k};\nimpl ZzTrait_{k} for ZzProbe_{k} {\n    fn zz_sink_{k}(&self) {\n{sinks}    }\n}\n",
        ends_at: "ZzProbe_{k}::zz_sink_{k}",
    },
    // The callee of an `impl Fn` parameter is unknowable: what is owed is a
    // `dynamic-call` at the call through it, not the sinks.
    Probe {
        k: "fnparam",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}(zz_sink_{k});\n}\nfn zz_hop2_{k}(callee: impl Fn()) {\n    callee(); // dynamic\n}\nfn zz_sink_{k}() {\n    {\n{sinks}    }\n}\n",
        ends_at: "zz_hop2_{k}",
    },
    Probe {
        k: "add",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}();\n}\nfn zz_hop2_{k}() {\n    let _ = ZzNum_{k}(1) + ZzNum_{k}(2);\n}\nstruct ZzNum_{k}(u32);\nimpl std::ops::Add for ZzNum_{k} {\n    type Output = ZzNum_{k};\n    fn add(self, other: ZzNum_{k}) -> ZzNum_{k} {\n{sinks}        ZzNum_{k}(self.0 + other.0)\n    }\n}\n",
        ends_at: "ZzNum_{k}::add",
    },
    Probe {
        k: "iter",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}();\n}\nfn zz_hop2_{k}() {\n    for _ in ZzIter_{k}(3) {}\n}\nstruct ZzIter_{k}(u32);\nimpl Iterator for ZzIter_{k} {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> {\n{sinks}        self.0.checked_sub(1)\n    }\n}\n",
        ends_at: "ZzIter_{k}::next",
    },
    // The stated hole of the implicit-impl edges: an operator on a value
    // whose type no reachable function spells (here it comes from a
    // `const` and is only touched through field access).
    Probe {
        k: "unnamed",
        src: "pub fn zz_hop1_{k}() {\n    zz_hop2_{k}();\n}\nfn zz_hop2_{k}() {\n    let _ = ZZ_PAIR_{k}.0 + ZZ_PAIR_{k}.1;\n}\n#[derive(Clone, Copy)]\nstruct ZzNum_{k}(u32);\nconst ZZ_PAIR_{k}: (ZzNum_{k}, ZzNum_{k}) = (ZzNum_{k}(1), ZzNum_{k}(2));\nimpl std::ops::Add for ZzNum_{k} {\n    type Output = u32;\n    fn add(self, other: Self) -> u32 {\n{sinks}        self.0 + other.0\n    }\n}\n",
        ends_at: "ZzNum_{k}::add",
    },
];

/// What one root's mutated workspace reported about the probe file.
struct RootReport {
    /// The root's qualified name.
    root: String,
    /// Module path of the probe file (`<crate>::zz_probe`).
    module: String,
    /// Whether the root itself carries a `panic-transitive` /
    /// `det-transitive` barrier (the proof then stops at the root by the
    /// waiver's own contract).
    panic_barrier: bool,
    det_barrier: bool,
    /// Every violation reported in the probe file.
    report: Vec<Violation>,
}

/// The probe file: every probe's source, one after the other.
fn probe_text() -> String {
    let expand = |p: &Probe| p.src.replace("{sinks}", SINKS).replace("{k}", p.k);
    PROBES.iter().map(expand).collect()
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The whole sweep, once: for each root, the live workspace with the probe
/// file added to the root's crate and one call per probe injected at the
/// top of the root's body.
fn sweep() -> &'static [RootReport] {
    static SWEEP: OnceLock<Vec<RootReport>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let cfg = Config::default();
        let dir = workspace_root();
        let mut ws = Workspace::load(&dir, &cfg).expect("load workspace");
        let manifest = RootsManifest::parse(&ws.extras[&cfg.roots_manifest]);
        let table = SymbolTable::build(&ws);
        let marks = scan_marks(&ws, &table);
        assert!(
            run(&ws, &cfg).is_empty(),
            "the sweep starts from a clean workspace"
        );

        let probe_text = probe_text();
        let mut out = Vec::new();
        for (spec, _) in &manifest.roots {
            for i in table.resolve_spec(spec) {
                let root = &table.fns[i];
                let (body_start, _) = root.body.expect("a root has a body");
                let krate = root.module.split("::").next().unwrap();
                let probe_path = format!("crates/{krate}/src/zz_probe.rs");
                let calls: String = PROBES
                    .iter()
                    .map(|p| format!("    crate::zz_probe::zz_hop1_{}();\n", p.k))
                    .collect();
                let original = std::fs::read_to_string(dir.join(&root.path)).expect("root file");
                let mut mutated: Vec<&str> = original.split_inclusive('\n').collect();
                mutated.insert(body_start, &calls);

                let pristine = ws
                    .files
                    .insert(root.path.clone(), lexer::lex(&mutated.concat()));
                ws.files.insert(probe_path.clone(), lexer::lex(&probe_text));
                let report = run(&ws, &cfg)
                    .into_iter()
                    .filter(|v| v.path == probe_path)
                    .collect();
                ws.files.remove(&probe_path);
                ws.files
                    .insert(root.path.clone(), pristine.expect("root file was loaded"));

                out.push(RootReport {
                    root: root.qname.clone(),
                    module: format!("{krate}::zz_probe"),
                    panic_barrier: marks[i].panic_t.is_some(),
                    det_barrier: marks[i].det_t.is_some(),
                    report,
                });
            }
        }
        assert!(out.len() >= manifest.roots.len(), "every root was mutated");
        out
    })
}

/// 1-based line, in the probe file, of probe `k`'s first line holding
/// `needle`.
fn line_of(k: &str, needle: &str) -> usize {
    let text = probe_text();
    let lines: Vec<&str> = text.lines().collect();
    let from = lines
        .iter()
        .position(|l| l.starts_with(&format!("pub fn zz_hop1_{k}()")))
        .expect("known probe");
    let at = lines.iter().skip(from).position(|l| l.contains(needle));
    from + at.unwrap_or_else(|| panic!("probe `{k}` has no `{needle}` line")) + 1
}

/// From every root: `rule` is reported at probe `k`'s `needle` line, with a
/// witness from that root, three calls or more down, to the probe's end
/// function.
fn owed(k: &str, rule: Rule, needle: &str) {
    let p = PROBES.iter().find(|p| p.k == k).expect("known probe");
    let line = line_of(k, needle);
    for r in sweep() {
        let barrier = match rule {
            Rule::Det => r.det_barrier,
            _ => r.panic_barrier,
        };
        if barrier {
            continue;
        }
        let end = format!("{}::{}", r.module, p.ends_at.replace("{k}", k));
        let hit = r.report.iter().find(|v| v.rule == rule && v.line == line);
        let Some(hit) = hit else {
            panic!(
                "root `{}`: no `{rule}` at zz_probe.rs:{line} (probe `{k}`); the probe file reported:\n{}",
                r.root,
                resched_lint::render_text(&r.report)
            );
        };
        let witness = hit
            .message
            .split_once("witness: ")
            .and_then(|(_, rest)| rest.split_once(';'))
            .map(|(chain, _)| chain)
            .unwrap_or_else(|| panic!("no witness in: {}", hit.message));
        let hops: Vec<&str> = witness.split(" → ").collect();
        assert_eq!(hops.first(), Some(&r.root.as_str()), "{}", hit.message);
        assert_eq!(hops.last(), Some(&end.as_str()), "{}", hit.message);
        assert!(hops.len() >= 3, "three calls down: {}", hit.message);
    }
}

#[test]
fn sinks_behind_an_inherent_method_are_seen_from_every_root() {
    owed("method", Rule::Panic, "v.unwrap()");
    owed("method", Rule::Det, "Instant::now()");
}

#[test]
fn sinks_behind_a_closure_bound_to_a_local_are_seen_from_every_root() {
    owed("closure", Rule::Panic, "v.unwrap()");
    owed("closure", Rule::Det, "Instant::now()");
}

#[test]
fn sinks_behind_a_dyn_trait_call_are_seen_from_every_root() {
    owed("dyn", Rule::Panic, "v.unwrap()");
    owed("dyn", Rule::Det, "Instant::now()");
}

#[test]
fn a_call_through_an_impl_fn_parameter_surfaces_as_dynamic_call_from_every_root() {
    owed("fnparam", Rule::DynamicCall, "// dynamic");
    // The callee escaped, which is what the diagnostic says: its sinks are
    // not reported.
    let unwrap = line_of("fnparam", "v.unwrap()");
    for r in sweep() {
        assert!(r.report.iter().all(|v| v.line != unwrap), "{}", r.root);
    }
}

#[test]
fn sinks_in_an_operator_impl_are_seen_from_every_root() {
    owed("add", Rule::Panic, "v.unwrap()");
    owed("add", Rule::Det, "Instant::now()");
}

#[test]
fn sinks_in_an_iterator_impl_are_seen_from_every_root() {
    owed("iter", Rule::Panic, "v.unwrap()");
    owed("iter", Rule::Det, "Instant::now()");
}

#[test]
#[ignore = "stated hole: an operator impl of a type that no reachable function names (the value comes from a const and is touched only through field access) gets no implicit edge — DESIGN.md §13"]
fn sinks_in_an_operator_impl_of_a_type_nobody_names_are_seen() {
    owed("unnamed", Rule::Panic, "v.unwrap()");
    owed("unnamed", Rule::Det, "Instant::now()");
}
