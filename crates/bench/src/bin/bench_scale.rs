//! Standing scale-trajectory benchmark: the parallel-sweep measurement,
//! plus five frozen history sections, written to `BENCH_scale.json` in
//! the workspace root.
//!
//! Methodology is the bench_pr4 paired-interleaved protocol: each rep
//! times both sides back to back so machine-wide noise cancels in the
//! per-pair ratio, and the recorded speedup is the median of per-pair
//! ratios. Six sections:
//!
//! * `migrated` — the PR-4 CPA-loop results carried forward under the
//!   same schema with a `source_pr: 4` provenance field (frozen inline
//!   below; the standalone BENCH_pr4.json root file is retired);
//! * `backend_regimes` (`source_pr: 7`, frozen) — the segment-tree index
//!   vs the stored slot list answering an identical query batch for every
//!   regime R ∈ {1k, 100k, 1M} × p ∈ {64, 4096, 65536}. Both engines are
//!   gone (the calendar walks its breakpoints directly, DESIGN.md §15), so
//!   the rows are carried forward verbatim from the committed file as the
//!   history behind that decision;
//! * `parallel_sweep` (`source_pr: 7`) — the speculative experiment sweep
//!   at `force_threads(1)` vs all available threads, with the host's
//!   thread count recorded beside the ratio;
//! * `arena_ctx` (`source_pr: 8`, frozen) — per-schedule fresh scratch vs
//!   one context recycled across schedules, on n=100 DAGs at forced 1
//!   thread. The recycled path measured ~1.0× and was deleted (DESIGN.md
//!   §16); the rows are its final measurement, carried forward verbatim;
//! * `backward_scan` (`source_pr: 15`, frozen) — the repo benchmark
//!   (`BENCHMARK.json`) run as alternating parent/change pairs on all four
//!   workloads when the deadline width scan was rebuilt (DESIGN.md §9).
//!   It compares two commits, so this binary cannot re-measure it;
//! * `cpa_trajectory` (`source_pr: 16`, frozen) — the same protocol when
//!   CPA's allocation loop was fused in position space and made to resume
//!   across the pools of one scheduling call (DESIGN.md §9).
//!
//! Run with `cargo run --release -p resched-bench --bin bench_scale`.

use resched_sim::exp::validation::run_validation;
use resched_sim::scenario::Scale;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The PR-4 CPA-loop record, frozen at its final measurement. These rows
/// are history, not something this binary can re-measure (the machine and
/// build that produced them are gone); `bench_pr4` re-runs the experiment
/// and prints a fresh report to stdout for comparison.
const PR4_FROZEN: &str = r#"{
  "description": "CPA allocation loop: full-rebuild reference vs incremental LevelTracker (paired interleaved samples, release build; speedup is the median of per-pair reference/incremental ratios)",
  "results": [
    {
      "scenario": "n100_dense_p512",
      "num_tasks": 100,
      "density": 0.9,
      "pool": 512,
      "reps": 41,
      "reference_median_s": 0.002329016,
      "incremental_median_s": 0.001092355,
      "speedup": 2.0926151373334867
    },
    {
      "scenario": "n100_dense_p64",
      "num_tasks": 100,
      "density": 0.9,
      "pool": 64,
      "reps": 41,
      "reference_median_s": 0.000124218,
      "incremental_median_s": 0.000057889,
      "speedup": 2.1701204544157107
    },
    {
      "scenario": "n50_default_p512",
      "num_tasks": 50,
      "density": 0.5,
      "pool": 512,
      "reps": 41,
      "reference_median_s": 0.001106544,
      "incremental_median_s": 0.00064739,
      "speedup": 1.7368848774937846
    }
  ]
}"#;

/// One PR-4 result row (schema unchanged; see bench_pr4.rs).
#[derive(Serialize, Deserialize)]
struct Pr4Result {
    scenario: String,
    num_tasks: usize,
    density: f64,
    pool: u32,
    reps: usize,
    reference_median_s: f64,
    incremental_median_s: f64,
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Pr4Report {
    description: String,
    results: Vec<Pr4Result>,
}

#[derive(Serialize)]
struct Migrated {
    source_pr: u32,
    description: String,
    results: Vec<Pr4Result>,
}

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
    migrated: Migrated,
    backend_regimes: serde_json::Value,
    parallel_sweep: SweepSection,
    arena_ctx: serde_json::Value,
    backward_scan: serde_json::Value,
    cpa_trajectory: serde_json::Value,
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

/// Paired interleaved sampling (see bench_pr4.rs): returns
/// `(median_a, median_b, median of a/b ratios)`.
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

/// A frozen section of the committed report, verbatim: what it timed no
/// longer exists (or was another commit), so it can only be carried
/// forward.
fn frozen_section(path: &str, key: &str) -> serde_json::Value {
    let committed = std::fs::read_to_string(path).expect("BENCH_scale.json is committed");
    match serde_json::from_str(&committed).expect("BENCH_scale.json parses") {
        serde_json::Value::Object(root) => root.get(key).cloned(),
        _ => None,
    }
    .unwrap_or_else(|| panic!("committed BENCH_scale.json carries the frozen {key} section"))
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    // Section 1: carry the PR-4 trajectory forward, tagged with its source.
    let pr4: Pr4Report = serde_json::from_str(PR4_FROZEN).expect("frozen PR-4 rows parse");

    // Sections 2 and 4 to 6: the frozen engine, arena, width-scan and
    // allocation-loop comparisons, read back before the report is
    // rewritten.
    let path = format!("{root}/BENCH_scale.json");
    let backend_regimes = frozen_section(&path, "backend_regimes");
    let arena_ctx = frozen_section(&path, "arena_ctx");
    let backward_scan = frozen_section(&path, "backward_scan");
    let cpa_trajectory = frozen_section(&path, "cpa_trajectory");

    // Section 3: the speculative experiment sweep, sequential vs parallel.
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
        description: "Standing scale trajectory: the speculative sweep speedup, \
                      paired-interleaved methodology (see bench_pr4.rs), plus the frozen PR-4 \
                      CPA-loop, PR-7 calendar-engine, PR-8 arena-context, PR-15 deadline \
                      width-scan and PR-16 CPA allocation-loop comparisons"
            .to_string(),
        migrated: Migrated {
            source_pr: 4,
            description: pr4.description,
            results: pr4.results,
        },
        backend_regimes,
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
        arena_ctx,
        backward_scan,
        cpa_trajectory,
    };
    let mut out = serde_json::to_string_pretty(&report).expect("report serializes");
    out.push('\n');
    std::fs::write(&path, out).expect("write BENCH_scale.json");
    println!("wrote {path}");
}
