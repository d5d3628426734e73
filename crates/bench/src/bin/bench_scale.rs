//! The one parallel layer's measurement: `resched-sim`'s per-instance
//! experiment sweep at `force_threads(1)` vs all available threads,
//! written to `BENCH_scale.json` in the workspace root with the host's
//! thread count recorded beside the ratio.
//!
//! Each rep times both sides back to back, so machine-wide slowdowns
//! (shared CPU, frequency scaling) hit both sides of a pair equally and
//! cancel in the per-pair ratio; the recorded speedup is the median of
//! per-pair ratios.
//!
//! Records of comparisons this binary cannot re-measure (deleted engines,
//! other commits) live in the hand-kept `BENCH_history.json`.
//!
//! Run with `cargo run --release -p resched-bench --bin bench_scale`.

use resched_sim::exp::validation::run_validation;
use resched_sim::scenario::Scale;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SweepResult {
    scenario: String,
    threads: usize,
    sequential_median_s: f64,
    parallel_median_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SweepSection {
    source_pr: u32,
    description: String,
    results: Vec<SweepResult>,
}

#[derive(Serialize)]
struct Report {
    description: String,
    parallel_sweep: SweepSection,
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

/// Paired interleaved sampling after one untimed warm-up rep each:
/// returns `(median_a, median_b, median of a/b ratios)`.
fn time_paired<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (f64, f64, f64) {
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
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = Scale {
        dags: 2,
        starts: 2,
        tags: 1,
    };
    rayon::force_threads(Some(1));
    let seq_out = run_validation(scale, 7);
    rayon::force_threads(None);
    let par_out = run_validation(scale, 7);
    assert_eq!(seq_out, par_out, "sweep output depends on thread count");
    let (seq, par, sweep_speedup) = time_paired(
        11,
        || {
            rayon::force_threads(Some(1));
            std::hint::black_box(run_validation(scale, 7));
        },
        || {
            rayon::force_threads(None);
            std::hint::black_box(run_validation(scale, 7));
        },
    );
    rayon::force_threads(None);
    println!(
        "sweep ({threads} threads): sequential {:>9.3} ms   parallel {:>9.3} ms   {sweep_speedup:.2}x",
        seq * 1e3,
        par * 1e3,
    );

    let report = Report {
        description: "The experiment sweep's speedup on this host's threads, paired-interleaved \
                      (median of per-pair ratios); frozen comparisons are in BENCH_history.json"
            .to_string(),
        parallel_sweep: SweepSection {
            source_pr: 7,
            description: "validation experiment sweep, force_threads(1) vs all available \
                          threads; outputs asserted byte-identical before timing"
                .to_string(),
            results: vec![SweepResult {
                scenario: "validation_sweep_2x2x1".to_string(),
                threads,
                sequential_median_s: seq,
                parallel_median_s: par,
                speedup: sweep_speedup,
            }],
        },
    };
    let mut out = serde_json::to_string_pretty(&report).expect("report serializes");
    out.push('\n');
    std::fs::write(path, out).expect("write BENCH_scale.json");
    println!("wrote {path}");
}
