//! `compare <a.jsonl> <b.jsonl>`: two sets of runs (the records `--out`
//! appends), metric by metric, against the bounds in `BENCHMARK.json`.

use crate::run::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) -> (unit, one value per run)
type Runs = BTreeMap<(String, String), (String, Vec<f64>)>;

fn read_json(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn read_runs(path: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for record in read_json(path)? {
        let field = |v: &Value, key: &str| {
            v.as_object()
                .and_then(|o| o.get(key).cloned())
                .ok_or_else(|| format!("{}: a record lacks {key:?}", path.display()))
        };
        let workload = field(&record, "workload")?;
        let metrics = field(&field(&record, "result")?, "metrics")?;
        for (name, m) in metrics.as_object().into_iter().flat_map(|o| o.iter()) {
            let value = field(m, "value")?.as_f64().unwrap_or(f64::NAN);
            let unit = field(m, "unit")?.as_str().unwrap_or("").to_string();
            let key = (workload.as_str().unwrap_or("").to_string(), name.clone());
            runs.entry(key).or_insert((unit, Vec::new())).1.push(value);
        }
    }
    Ok(runs)
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn spread(values: &[f64]) -> Option<f64> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&x))
}

/// The end-to-end metrics of `BENCHMARK.json`: name -> (higher is better, bound).
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let path = crate::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let get = |k: &str| m.as_object().and_then(|o| o.get(k));
        let name = get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let higher = get("better").and_then(Value::as_str) == Some("higher");
        let bound = get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        out.insert(name.to_string(), (higher, bound));
    }
    Ok(out)
}

/// Print one row per (metric, workload) present in both sets. Returns
/// whether every end-to-end metric of `b` is within its bound of `a`, and
/// every count agrees.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let bounds = bounds()?;
    let mut all_ok = true;
    println!(
        "{:<16} {:<44} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "iqr a", "iqr b"
    );
    for ((workload, metric), (unit, va)) in &runs_a {
        let Some((_, vb)) = runs_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
        let (bound, verdict) = match bounds.get(metric) {
            Some(&(higher, bound)) => {
                // How much worse b is than a, as a share of a (the base).
                let worse = if higher {
                    (ma - mb) / ma
                } else {
                    (mb - ma) / ma
                };
                let within = worse <= bound;
                all_ok &= within;
                (
                    format!("{bound}"),
                    if within { "ok" } else { "OUTSIDE BOUND" },
                )
            }
            // Counts are deterministic: two sets on the same seeds agree exactly.
            None if unit == "count" && ma != mb => {
                all_ok = false;
                ("-".into(), "COUNT DIFFERS")
            }
            None => ("-".into(), ""),
        };
        println!(
            "{workload:<16} {metric:<44} {ma:>14.4} {mb:>14.4} {:>8.4} {bound:>6} {:>7} {:>7}  {verdict}",
            mb / ma,
            pct(spread(va)),
            pct(spread(vb)),
        );
    }
    println!("ratios are b/a: base a = {}", a.display());
    Ok(all_ok)
}
