//! Golden-file regression for the experiment pipeline.
//!
//! Each test drives one table's full pipeline — synthetic log generation,
//! reservation extraction, scheduling, aggregation — at a small *fixed*
//! scale (deliberately not `Scale::from_env`, so environment variables
//! cannot destabilize the diff) with the default root seed, serializes the
//! summary to pretty JSON, and compares it byte-for-byte against the
//! committed file under `results/golden/`.
//!
//! A mismatch means scheduling decisions (or the statistics over them)
//! changed. If the change is intentional, refresh the goldens with
//! `RESCHED_UPDATE_GOLDEN=1 cargo test -p resched-tests --test
//! golden_experiments` and review the diff like any other code change.

use resched_core::backward::DeadlineAlgo;
use resched_core::schedule::ScheduleStats;
use resched_daggen::Sweep;
use resched_sim::exp::deadline::run_deadline_experiment;
use resched_sim::exp::scaling::run_scaling;
use resched_sim::scenario::{
    default_sweep, derive_seed, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED,
};
use resched_workloads::prelude::*;
use resched_workloads::stats::log_stats;
use std::path::PathBuf;

/// The small fixed scale every golden runs at.
const GOLDEN_SCALE: Scale = Scale {
    dags: 1,
    starts: 1,
    tags: 1,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits inside the workspace root")
        .join("results/golden")
}

/// Compare `value` against the committed golden `name`, or rewrite it when
/// `RESCHED_UPDATE_GOLDEN` is set.
fn check_golden(name: &str, value: &impl serde::Serialize) {
    let path = golden_dir().join(name);
    let mut got = serde_json::to_string_pretty(value).expect("summary serializes");
    got.push('\n');
    if std::env::var("RESCHED_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); create it with RESCHED_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{} drifted; if intentional, refresh with RESCHED_UPDATE_GOLDEN=1 \
         and review the diff",
        path.display()
    );
}

/// Tables 2/3 pipeline: generate one synthetic batch log and pin its
/// statistics (machine size, utilization, exec/wait distributions).
#[test]
fn golden_log_stats() {
    let spec = LogSpec::sdsc_ds().with_duration(Dur::days(15));
    let mut cache = LogCache::new();
    let log = cache.get(&spec, DEFAULT_ROOT_SEED);
    let stats = log_stats(log, 20, derive_seed(DEFAULT_ROOT_SEED, &spec.name, 1));
    check_golden("log_stats_small.json", &stats);
}

/// Table 8 pipeline: pin the measured work counters (slot queries, slot
/// steps, CPA mappings) of the three instrumented algorithms as `n` grows.
#[test]
fn golden_table8_scaling() {
    let scaling = run_scaling(GOLDEN_SCALE, DEFAULT_ROOT_SEED);
    check_golden("table8_scaling_small.json", &scaling);
}

/// Deadline (Table 6 column) pipeline: pin tightest-deadline and
/// CPU-hours degradation summaries on a Grid'5000-like schedule.
#[test]
fn golden_deadline_grid5000() {
    let sweeps = vec![Sweep {
        params: resched_daggen::DagParams {
            num_tasks: 10,
            ..resched_daggen::DagParams::paper_default()
        },
        ..default_sweep()
    }];
    let algos = [DeadlineAlgo::BdCpa, DeadlineAlgo::RcCpaR];
    let result = run_deadline_experiment(
        "Grid5000",
        &sweeps,
        &[ResvSpec::grid5000()],
        &algos,
        GOLDEN_SCALE,
        DEFAULT_ROOT_SEED,
        2,
    );
    check_golden("deadline_grid5000_small.json", &result);
}

/// The deterministic part of a `ServeReport`, field by field. A local
/// struct, so that a field added to `ServeReport` later cannot move the
/// golden's bytes; wall-clock fields (`wall_ms`, `throughput_per_s`, the
/// latency percentiles and histogram) are left out.
#[derive(serde::Serialize)]
struct ServeDecisions {
    replay: &'static str,
    apps: usize,
    commits: usize,
    rollbacks: usize,
    cancels: usize,
    resizes: usize,
    quota_denied: u64,
    rejections: Vec<(String, u64)>,
    violations: usize,
    first_violation: Option<String>,
    utilization: f64,
    live_apps: usize,
    work: ScheduleStats,
}

/// Online serving: pin what `serve::run` decides on the four CI replays
/// (`ci.yml`, serve-smoke and quotas lanes) and on the three serve
/// shapes of the repo benchmark at its test size
/// (`crates/serve/tests/replays/golden.rs`).
#[test]
fn golden_serve_replays() {
    use resched_serve::{run, ServeConfig, ServeQuotaConfig};
    let replays = include!("../../crates/serve/tests/replays/golden.rs");
    let decisions: Vec<ServeDecisions> = replays
        .into_iter()
        .map(|(replay, spec, days, cfg)| {
            let log = generate_log(&spec.with_duration(Dur::days(days)), cfg.seed);
            let r = run(&log, &cfg);
            ServeDecisions {
                replay,
                apps: r.apps,
                commits: r.commits,
                rollbacks: r.rollbacks,
                cancels: r.cancels,
                resizes: r.resizes,
                quota_denied: r.quota_denied,
                rejections: r.rejections,
                violations: r.violations,
                first_violation: r.first_violation,
                utilization: r.utilization,
                live_apps: r.live_apps,
                work: r.work,
            }
        })
        .collect();
    check_golden("serve_replays.json", &decisions);
}
