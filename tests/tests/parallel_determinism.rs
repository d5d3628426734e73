//! Parallel ≡ sequential, byte for byte.
//!
//! The one parallel layer in the workspace is `resched-sim`'s
//! per-instance experiment sweeps: each takes its worker count as an
//! argument, workers map contiguous chunks of a scenario's instances with
//! pure per-item closures, and the results come back in input order, so
//! the thread count is unobservable. Every scheduler and the serve
//! admission path run on the caller's thread (DESIGN.md §2.1). These
//! tests pin that for each of the three parallel sites — the forward
//! tables' instance map, the deadline experiment's and the validation
//! audit's — by running each sweep at 1 thread and at 4 and comparing the
//! results. Nothing here is process-global, so the tests run concurrently.
//!
//! The `results/trace.jsonl` rows come from phase profiles that run on
//! the observing thread only; their check is that two runs write the same
//! stable fields (labels and metric counters; the span timings are wall
//! clocks).

use resched_core::backward::DeadlineAlgo;
use resched_daggen::Sweep;
use resched_sim::exp::deadline::run_deadline_experiment;
use resched_sim::exp::profile::{run_phase_profiles, write_trace};
use resched_sim::exp::ressched::run_bl_compare;
use resched_sim::exp::validation::run_validation;
use resched_sim::scenario::{default_sweep, ResvSpec, Scale};
use resched_workloads::prelude::*;

const TINY: Scale = Scale {
    dags: 1,
    starts: 1,
    tags: 1,
};

/// `f` at 1 thread and at 4.
fn at_1_and_4<T>(f: impl Fn(usize) -> T) -> (T, T) {
    (f(1), f(4))
}

/// A short synthetic reservation schedule, quick to generate.
fn small_specs() -> Vec<ResvSpec> {
    vec![ResvSpec {
        log: LogSpec::sdsc_ds().with_duration(resched_resv::Dur::days(15)),
        phi: 0.2,
        method: ThinMethod::Expo,
    }]
}

/// Every sweep site fans out per-instance work on the given worker count;
/// each result must be thread-count invariant. Two instances per scenario,
/// so the 4-thread run spawns workers.
#[test]
fn experiment_sweep_is_thread_count_invariant() {
    let two = Scale { starts: 2, ..TINY };
    let (seq, par) = at_1_and_4(|threads| run_validation(two, 7, threads));
    assert_eq!(seq, par, "validation sweep diverged across thread counts");
    assert!(!seq.is_empty());

    let sweeps = [default_sweep()];
    let (seq, par) = at_1_and_4(|threads| run_bl_compare(&sweeps, &small_specs(), two, 7, threads));
    assert_eq!(
        seq, par,
        "forward instance sweep diverged across thread counts"
    );
    assert_eq!(seq.cases, 3);

    let sweeps = [Sweep {
        params: resched_daggen::DagParams {
            num_tasks: 10,
            ..resched_daggen::DagParams::paper_default()
        },
        ..default_sweep()
    }];
    let algos = [DeadlineAlgo::BdCpa, DeadlineAlgo::RcCpaR];
    let (seq, par) = at_1_and_4(|threads| {
        run_deadline_experiment("t", &sweeps, &small_specs(), &algos, two, 7, threads)
    });
    assert_eq!(seq, par, "deadline sweep diverged across thread counts");
    assert_eq!(seq.scenarios, 1);
}

/// `results/trace.jsonl` rows are emitted from phase profiles collected
/// under `obs::observe`, which runs on the observing thread alone (the
/// collector is thread-local). Their stable subset — row order, labels,
/// metric counters — must be the same on every run.
#[test]
fn trace_rows_are_deterministic() {
    let dir = std::env::temp_dir().join("resched_parallel_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let paths = ["a", "b"].map(|run| dir.join(format!("trace_{pid}_{run}.jsonl")));
    for path in &paths {
        write_trace(path, &run_phase_profiles(TINY, 7)).unwrap();
    }
    let rows =
        |path: &std::path::Path| -> Vec<(Option<serde_json::Value>, Option<serde_json::Value>)> {
            let text = std::fs::read_to_string(path).unwrap();
            text.lines()
                .map(|l| {
                    let v: serde_json::Value = serde_json::from_str(l).expect("trace row parses");
                    let serde_json::Value::Object(map) = v else {
                        panic!("trace row is not a JSON object");
                    };
                    (map.get("label").cloned(), map.get("metrics").cloned())
                })
                .collect()
        };
    let (a, b) = (rows(&paths[0]), rows(&paths[1]));
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace.jsonl stable fields diverged between two runs");
}
