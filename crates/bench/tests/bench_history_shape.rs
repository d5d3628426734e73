//! Shape check for the hand-kept `BENCH_history.json`: every section says
//! which PR measured it and why it is frozen, DESIGN.md's decision table
//! names every section (so no measured result drops out of the design
//! record), and the `parallel_sweep` record (the experiment sweep at one
//! thread vs all, moved here when `bench_scale` was deleted) still records
//! the host thread count beside each ratio.
//!
//! This is a schema smoke test, not a perf assertion: no binary reads or
//! writes the file.

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

#[test]
fn bench_history_json_has_the_expected_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.json");
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let history: Value =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{path} does not parse: {e:?}"));
    let history = obj(&history);
    assert!(!text(history, "description").is_empty());

    // Every section names its source PR and why it is frozen.
    assert!(history.len() > 7, "history lost a section");
    for (key, section) in history.iter().filter(|(k, _)| *k != "description") {
        let section = obj(section);
        assert!(num(section, "source_pr") >= 1.0, "{key}");
        assert!(!text(section, "frozen").is_empty(), "{key}");
    }

    // DESIGN.md names every measured section, as a code span.
    let design_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design =
        std::fs::read_to_string(design_path).unwrap_or_else(|e| panic!("{design_path}: {e}"));
    let unnamed: Vec<&str> = history
        .keys()
        .map(String::as_str)
        .filter(|k| !["description", "migrated"].contains(k))
        .filter(|k| !design.contains(&format!("`{k}`")))
        .collect();
    assert!(
        unnamed.is_empty(),
        "DESIGN.md does not name these BENCH_history.json sections: {unnamed:?}"
    );

    // The parallel sweep: thread count recorded beside every ratio.
    let sweep = obj(history
        .get("parallel_sweep")
        .expect("parallel_sweep section"));
    assert_eq!(num(sweep, "source_pr"), 7.0);
    let rows = arr(sweep.get("results").expect("sweep results"));
    assert!(!rows.is_empty());
    for row in rows {
        let row = obj(row);
        assert!(num(row, "threads") >= 1.0);
        assert!(num(row, "sequential_median_s") > 0.0);
        assert!(num(row, "parallel_median_s") > 0.0);
        assert!(num(row, "speedup") > 0.0);
    }
}
