//! Shape check for the committed `BENCH_scale.json` trajectory file: the
//! migrated BENCH_pr4 section keeps its provenance tag, the frozen PR-7
//! engine comparison keeps every (R, p) regime with positive medians and
//! a sane winner, the parallel-sweep entry records the host thread count,
//! the frozen PR-8 arena comparison stays marked as history, and the frozen
//! PR-15 width-scan and PR-16 allocation-loop records each keep a
//! parent-vs-change row for every metric of every benchmark workload.
//!
//! This is a schema smoke test, not a perf assertion — the medians are
//! machine-dependent and regenerated via
//! `cargo run --release -p resched-bench --bin bench_scale`.

use serde_json::Value;
use std::collections::BTreeSet;

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
fn bench_scale_json_has_the_expected_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let raw = std::fs::read_to_string(path).expect("BENCH_scale.json is committed");
    let root: Value = serde_json::from_str(&raw).expect("BENCH_scale.json parses");
    let root = obj(&root);
    assert!(!text(root, "description").is_empty());

    // Migrated BENCH_pr4 rows, tagged with their source PR.
    let migrated = obj(root.get("migrated").expect("migrated section"));
    assert_eq!(num(migrated, "source_pr"), 4.0);
    let pr4_rows = arr(migrated.get("results").expect("migrated results"));
    assert!(!pr4_rows.is_empty(), "migrated section carries no rows");
    for row in pr4_rows {
        let row = obj(row);
        assert!(num(row, "reference_median_s") > 0.0);
        assert!(num(row, "incremental_median_s") > 0.0);
        assert!(num(row, "speedup") > 0.0);
    }

    // Backend regimes: frozen history (both timed engines are gone; the
    // binary carries the rows forward, it cannot re-measure them). Still
    // the full R × p grid, each row with positive medians and a winner
    // naming one of the two engines that were timed.
    let regimes = obj(root
        .get("backend_regimes")
        .expect("backend_regimes section"));
    assert_eq!(num(regimes, "source_pr"), 7.0);
    assert!(
        text(regimes, "frozen").contains("not re-measurable"),
        "the engine comparison must stay marked as frozen history"
    );
    let rows = arr(regimes.get("results").expect("regime results"));
    let mut seen = BTreeSet::new();
    for row in rows {
        let row = obj(row);
        let r = num(row, "reservations") as u64;
        let p = num(row, "capacity") as u64;
        assert!(num(row, "indexed_median_s") > 0.0);
        assert!(num(row, "slotset_median_s") > 0.0);
        assert!(num(row, "speedup_indexed_over_slotset") > 0.0);
        let winner = text(row, "winner");
        assert!(
            winner == "indexed" || winner == "slotset",
            "unexpected winner {winner:?}"
        );
        assert_eq!(text(row, "scenario"), format!("R{r}_p{p}"));
        seen.insert((r, p));
    }
    let expected: BTreeSet<(u64, u64)> = [1_000u64, 100_000, 1_000_000]
        .iter()
        .flat_map(|&r| [64u64, 4_096, 65_536].iter().map(move |&p| (r, p)))
        .collect();
    assert_eq!(seen, expected, "regime grid is incomplete or has extras");

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

    // Arena contexts: frozen history (the recycled path is deleted).
    let arena = obj(root.get("arena_ctx").expect("arena_ctx section"));
    assert_eq!(num(arena, "source_pr"), 8.0);
    assert!(
        text(arena, "frozen").contains("not re-measurable"),
        "the arena comparison must stay marked as frozen history"
    );
    for row in arr(arena.get("results").expect("arena results")) {
        let row = obj(row);
        assert!(num(row, "fresh_median_s") > 0.0);
        assert!(num(row, "reused_median_s") > 0.0);
        assert!(num(row, "speedup") > 0.0);
    }

    // Deadline width scan and CPA allocation loop: frozen history (each a
    // comparison of two commits on the repo benchmark). Every workload ×
    // end-to-end metric has a row with both medians, the pair count and
    // how many pairs the change won.
    let workloads = [
        "serve_saturated",
        "serve_admit",
        "serve_deadline",
        "batch_table9",
    ];
    let metrics = [
        "setup_s",
        "ops_per_s",
        "op_p50_us",
        "op_p95_us",
        "peak_rss_mb",
    ];
    let expected: BTreeSet<(&str, &str)> = workloads
        .iter()
        .flat_map(|&w| metrics.iter().map(move |&m| (w, m)))
        .collect();
    for (key, source_pr) in [("backward_scan", 15.0), ("cpa_trajectory", 16.0)] {
        let section = obj(root.get(key).unwrap_or_else(|| panic!("{key} section")));
        assert_eq!(num(section, "source_pr"), source_pr);
        assert!(
            text(section, "frozen").contains("not re-measurable"),
            "the {key} comparison must stay marked as frozen history"
        );
        let mut seen = BTreeSet::new();
        for row in arr(section.get("results").expect("parent-vs-change results")) {
            let row = obj(row);
            assert!(num(row, "parent_median") > 0.0);
            assert!(num(row, "change_median") > 0.0);
            assert!(num(row, "pairs") >= 10.0);
            assert!(num(row, "change_wins") <= num(row, "pairs"));
            seen.insert((text(row, "workload"), text(row, "metric")));
        }
        assert_eq!(seen, expected, "{key} grid is incomplete or has extras");
    }
}
