//! PR-4 acceptance benchmark: incremental CPA allocation loop vs the
//! legacy full-rebuild reference.
//!
//! Times `cpa::allocate` (incrementally maintained levels) against
//! `cpa::allocate_reference` (full `bottom_levels` + `top_levels` rebuild
//! per growth iteration) on the headline n = 100 dense-DAG configuration
//! plus the paper-default n = 50 shape, and prints the report to stdout.
//! The historical medians live in `BENCH_scale.json` under `migrated`
//! (`source_pr: 4`); this binary re-measures for comparison, it does not
//! rewrite that record.
//!
//! Run with `cargo run --release -p resched-bench --bin bench_pr4`.

use resched_core::cpa::{self, StoppingCriterion};
use resched_daggen::{generate, DagParams};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    num_tasks: usize,
    density: f64,
    pool: u32,
    reps: usize,
    reference_median_s: f64,
    incremental_median_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    description: String,
    results: Vec<ScenarioResult>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Time two routines with interleaved (paired) samples: each rep measures
/// both back to back, so machine-wide slowdowns (shared CPU, frequency
/// scaling) hit both sides of a pair equally and cancel in the per-pair
/// ratio. Returns `(median_a, median_b, median of a/b ratios)`.
fn time_paired<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (f64, f64, f64) {
    // One untimed warm-up rep each.
    a();
    b();
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let ta = time_once(&mut a);
        let tb = time_once(&mut b);
        sa.push(ta);
        sb.push(tb);
        ratios.push(ta / tb);
    }
    (median(sa), median(sb), median(ratios))
}

fn main() {
    let reps = 41;
    let scenarios = [
        ("n100_dense_p512", 100usize, 0.9f64, 512u32),
        ("n100_dense_p64", 100, 0.9, 64),
        ("n50_default_p512", 50, 0.5, 512),
    ];
    let mut results = Vec::new();
    for (name, num_tasks, density, pool) in scenarios {
        let params = DagParams {
            num_tasks,
            density,
            ..DagParams::paper_default()
        };
        let dag = generate(&params, 42);
        // Sanity: the loops must agree before we compare their speed.
        assert_eq!(
            cpa::allocate(&dag, pool, StoppingCriterion::Stringent),
            cpa::allocate_reference(&dag, pool, StoppingCriterion::Stringent),
            "{name}: incremental loop diverged from reference"
        );
        let (reference, incremental, speedup) = time_paired(
            reps,
            || {
                std::hint::black_box(cpa::allocate_reference(
                    &dag,
                    pool,
                    StoppingCriterion::Stringent,
                ));
            },
            || {
                std::hint::black_box(cpa::allocate(&dag, pool, StoppingCriterion::Stringent));
            },
        );
        println!(
            "{name:<20} reference {:>10.3} ms   incremental {:>10.3} ms   speedup {speedup:.2}x",
            reference * 1e3,
            incremental * 1e3,
        );
        results.push(ScenarioResult {
            scenario: name.to_string(),
            num_tasks,
            density,
            pool,
            reps,
            reference_median_s: reference,
            incremental_median_s: incremental,
            speedup,
        });
    }
    let report = Report {
        description: "CPA allocation loop: full-rebuild reference vs incremental levels \
                      (paired interleaved samples, release build; speedup is the median of \
                      per-pair reference/incremental ratios)"
            .to_string(),
        results,
    };
    let out = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{out}");
}
