//! Smoke runs of every workload at a small fraction of its size, checked
//! against the contract in `BENCHMARK.json`.

use crate::compare::spread;
use crate::layers::{Scale, ServeConfig};
use crate::run::{self, median, Outcome};
use crate::workloads::{self, Kind, Workload};
use serde_json::Value;
use std::collections::BTreeSet;

/// The workload with fewer, shorter replays (or fewer instances): a rep in
/// well under a second.
fn small(w: &Workload) -> Workload {
    let kind = match &w.kind {
        Kind::Serve { log_days, cfg, .. } => Kind::Serve {
            replays: 2,
            traced: 2,
            log_days: *log_days,
            cfg: ServeConfig {
                max_apps: cfg.max_apps.min(120),
                ..*cfg
            },
        },
        Kind::Batch { num_tasks, .. } => Kind::Batch {
            draws: 1,
            scale: Scale {
                dags: 2,
                starts: 2,
                tags: 1,
            },
            traced: 4,
            num_tasks: *num_tasks,
        },
    };
    Workload { name: w.name, kind }
}

fn benchmark_json() -> Value {
    let path = crate::package_dir().join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON")
}

/// The `name`s (with their `unit`s, when the entries have one) of a list in
/// `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> BTreeSet<(String, String)> {
    let field = |v: &Value, k: &str| {
        let s = v.as_object().and_then(|o| o.get(k)).and_then(Value::as_str);
        s.unwrap_or("").to_string()
    };
    let entries = spec
        .as_object()
        .and_then(|o| o.get(list))
        .and_then(Value::as_array);
    entries
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {list} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn emitted(outcome: &Outcome) -> BTreeSet<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    let m = outcome.metrics.iter().find(|m| m.name == name);
    m.unwrap_or_else(|| panic!("no metric {name}")).value
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_checks() {
    let spec = benchmark_json();
    let names: BTreeSet<String> = workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    let declared_names: BTreeSet<String> = declared(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        names, declared_names,
        "workload names differ from BENCHMARK.json"
    );

    crate::layers::force_threads(1);
    let out_dir = crate::package_dir().join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    for w in workloads::all() {
        let w = small(&w);

        let e2e = run::end_to_end(&w, 42, 0.0);
        assert!(e2e.correct(), "{}: {:?}", w.name, e2e.errors);
        assert_eq!(emitted(&e2e), declared(&spec, "end_to_end"), "{}", w.name);
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end metric {} is 0",
                w.name,
                m.name
            );
        }

        let path = out_dir.join(format!("test-trace-{}.jsonl", w.name));
        let traced = run::traced(&w, 42, 2, &path);
        assert!(traced.correct(), "{}: {:?}", w.name, traced.errors);
        assert_eq!(emitted(&traced), declared(&spec, "per_layer"), "{}", w.name);
        assert_eq!(value(&traced, "serve.parity_mismatches"), 0.0);
        for m in e2e.metrics.iter().chain(&traced.metrics) {
            let ok = m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad metric name {:?}", m.name);
        }

        // Self times partition the traced wall: the layers called from
        // inside the per-op root spans, plus the glue, add up to it.
        let outside = [
            "workloads.generate_log",
            "workloads.extract",
            "sim.instances_for",
            "core.cpa.alloc_replay",
            "core.bl.levels_replay",
        ];
        let batch = matches!(w.kind, Kind::Batch { .. });
        let inside: f64 = run::TIMED_LAYERS
            .iter()
            .filter(|l| !(outside.contains(l) || batch && **l == "core.validate.check"))
            .map(|l| value(&traced, &format!("{l}_s")))
            .sum();
        let (wall, glue) = (
            value(&traced, "trace.wall_s"),
            value(&traced, "serve.glue_s"),
        );
        assert!(
            glue >= 0.0 && inside <= wall,
            "{}: {inside} + {glue} vs {wall}",
            w.name
        );
        assert!(
            (inside + glue - wall).abs() < 1e-6,
            "{}: {inside} + {glue} vs {wall}",
            w.name
        );

        let spans = std::fs::read_to_string(&path).unwrap();
        assert!(spans.lines().count() > 10, "{}: no spans written", w.name);
        if batch {
            for layer in ["resv.txn.", "resv.quotas.", "core.validate.audit"] {
                assert!(
                    !spans.contains(layer),
                    "{layer}* span on the batch workload"
                );
            }
        }
    }
}

#[test]
fn median_and_spread_agree_with_python_statistics() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0]), 2.5);
    assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    assert_eq!(median(&[2.0, 2.0, 2.0, 9.0]), 2.0);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&ten), Some(1.0));
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(spread(&[4.0, 1.0, 2.0]), Some(1.5));
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(spread(&[1.0, 3.0]), Some(1.5));
    assert_eq!(spread(&[1.0]), None);
}

#[test]
fn compare_applies_each_bound_in_the_metrics_own_direction() {
    let dir = crate::package_dir().join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let record = |ops: f64, p50: f64| {
        format!(
            "{{\"workload\":\"w\",\"seed\":1,\"trace\":false,\"result\":{{\"correct\":true,\
             \"attempted\":1,\"failed\":0,\"metrics\":{{\"ops_per_s\":{{\"value\":{ops},\
             \"unit\":\"1/s\"}},\"op_p50_us\":{{\"value\":{p50},\"unit\":\"us\"}}}}}}}}\n"
        )
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let base = write("test-compare-a.jsonl", record(100.0, 10.0));
    // Faster and lower latency: better in both directions.
    let better = write("test-compare-b.jsonl", record(200.0, 5.0));
    assert_eq!(crate::compare::compare(&base, &better), Ok(true));
    // Half the throughput is outside any bound of at most 0.25 ...
    let slower = write("test-compare-c.jsonl", record(50.0, 10.0));
    assert_eq!(crate::compare::compare(&base, &slower), Ok(false));
    // ... and so is double the latency.
    let laggier = write("test-compare-d.jsonl", record(100.0, 20.0));
    assert_eq!(crate::compare::compare(&base, &laggier), Ok(false));
    assert!(crate::compare::compare(&base, &dir.join("missing.jsonl")).is_err());
}
