//! Shape check for the two committed bench records: `BENCH_scale.json`
//! (the live `parallel_sweep` measurement, which records the host thread
//! count beside its ratio) and the hand-kept `BENCH_history.json`, whose
//! every section says which PR measured it and why it is frozen.
//!
//! This is a schema smoke test, not a perf assertion — the medians are
//! machine-dependent and regenerated via
//! `cargo run --release -p resched-bench --bin bench_scale`.

use serde_json::Value;

fn obj(v: &Value) -> &serde_json::Map<String, Value> {
    let Value::Object(map) = v else {
        panic!("expected a JSON object, got {v:?}");
    };
    map
}

fn arr(v: &Value) -> &[Value] {
    let Value::Array(items) = v else {
        panic!("expected a JSON array, got {v:?}");
    };
    items
}

fn num(map: &serde_json::Map<String, Value>, key: &str) -> f64 {
    map.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("field {key} is missing or not a number"))
}

fn text<'a>(map: &'a serde_json::Map<String, Value>, key: &str) -> &'a str {
    map.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("field {key} is missing or not a string"))
}

fn committed(name: &str) -> Value {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{name} does not parse: {e:?}"))
}

#[test]
fn bench_scale_json_has_the_expected_shape() {
    let root = committed("BENCH_scale.json");
    let root = obj(&root);
    assert!(!text(root, "description").is_empty());

    // Parallel sweep: thread count recorded beside every ratio.
    let sweep = obj(root.get("parallel_sweep").expect("parallel_sweep section"));
    assert_eq!(num(sweep, "source_pr"), 7.0);
    let sweep_rows = arr(sweep.get("results").expect("sweep results"));
    assert!(!sweep_rows.is_empty());
    for row in sweep_rows {
        let row = obj(row);
        assert!(num(row, "threads") >= 1.0);
        assert!(num(row, "sequential_median_s") > 0.0);
        assert!(num(row, "parallel_median_s") > 0.0);
        assert!(num(row, "speedup") > 0.0);
    }

    // History: every section names its source PR and why it is frozen.
    let history = committed("BENCH_history.json");
    let history = obj(&history);
    assert!(!text(history, "description").is_empty());
    assert!(history.len() > 6, "history lost a section");
    for (key, section) in history.iter().filter(|(k, _)| *k != "description") {
        let section = obj(section);
        assert!(num(section, "source_pr") >= 1.0, "{key}");
        assert!(!text(section, "frozen").is_empty(), "{key}");
    }
}
