//! Differential proof that the observability layer is inert.
//!
//! Two angles on the same claim — instrumentation must never change a
//! scheduling decision:
//!
//! * **Golden**: a seeded scenario sweep runs the full 25-algorithm
//!   catalog and pins every schedule (task order, start/end seconds,
//!   processor counts, stats, a missed deadline's included) to a committed
//!   golden file. The file was
//!   written by a build without the collector and is checked by test
//!   builds, which all have it. That compiling the collector in changes no
//!   paper table is checked in CI, which runs `run_experiments` with and
//!   without `--features resched-core/obs` against the same committed
//!   `results/experiments.*`.
//! * **In-process differential**: each algorithm runs plain and inside an
//!   [`resched_core::obs::observe`] scope in the same process; the
//!   answers must be identical, `ScheduleStats` included, whether the
//!   deadline is met or missed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::algos::{Algorithm, RunError};
use resched_core::dag::Dag;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::obs;
use resched_core::schedule::ScheduleStats;
use resched_daggen::{generate, DagParams};
use resched_resv::{Calendar, Reservation, Time};
use serde::Serialize;
use std::path::PathBuf;

/// Arbitrary-but-valid DAG parameters (same envelope as prop_scheduling).
fn dag_params<R: Rng>(rng: &mut R) -> DagParams {
    DagParams {
        num_tasks: rng.gen_range(3usize..25),
        alpha_max: rng.gen_range(0.0..0.5f64),
        width: rng.gen_range(0.1..0.9f64),
        regularity: rng.gen_range(0.1..0.9f64),
        density: rng.gen_range(0.1..0.9f64),
        jump: rng.gen_range(1u32..4),
    }
}

/// A random feasible calendar on `p` processors.
fn calendar<R: Rng>(rng: &mut R, p: u32) -> Calendar {
    let mut cal = Calendar::new(p);
    let n = rng.gen_range(0..12usize);
    for _ in 0..n {
        let s = rng.gen_range(0i64..50_000);
        let d = rng.gen_range(60i64..20_000);
        let m = rng.gen_range(1u32..=p);
        let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
    }
    cal
}

/// How many of [`scenarios`] set their deadline at the forward completion.
const TIGHT: usize = 3;

/// The seeded scenario sweep shared by the tests. Deadlines come from a
/// reference forward run: twice its turnaround, so every deadline algorithm
/// stays on its normal (feasible) code path, except in the last [`TIGHT`]
/// scenarios, whose deadline is the forward completion itself. No valid
/// schedule completes before the instance floor, so the floor lies at or
/// below that deadline, and a deadline algorithm that misses it does so
/// after running its passes.
fn scenarios() -> Vec<(Dag, Calendar, u32, Option<Time>)> {
    let mut rng = ChaCha12Rng::seed_from_u64(0x0B5_D1FF);
    (0..6 + TIGHT)
        .map(|i| {
            let params = dag_params(&mut rng);
            let cal = calendar(&mut rng, 16);
            let q = rng.gen_range(1u32..=16);
            let dag = generate(&params, rng.gen_range(0u64..1000));
            let fwd = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
            let slack = if i < 6 { 2 } else { 1 };
            let deadline = Some(Time::ZERO + fwd.turnaround() * slack);
            (dag, cal, q, deadline)
        })
        .collect()
}

#[derive(Serialize)]
struct AlgoResult {
    algorithm: String,
    outcome: &'static str,
    /// `(task, start_s, end_s, procs)` rows in `placements_by_start` order.
    placements: Vec<(u32, i64, i64, u32)>,
    stats: ScheduleStats,
}

#[derive(Serialize)]
struct ScenarioResult {
    scenario: usize,
    results: Vec<AlgoResult>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits inside the workspace root")
        .join("results/golden")
}

/// Compare `value` against the committed golden `name`, or rewrite it when
/// `RESCHED_UPDATE_GOLDEN` is set (same contract as golden_experiments).
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
        "{} drifted; the collector must not change a schedule (refresh \
         with RESCHED_UPDATE_GOLDEN=1 only when a schedule moves on purpose)",
        path.display()
    );
}

/// Pin every catalog algorithm's schedule on the seeded sweep, with the
/// collector compiled in, against the golden a build without it wrote —
/// including the work of a deadline missed after running passes.
#[test]
fn golden_schedules_are_feature_invariant() {
    let mut missed_after_passes = 0;
    let mut all = Vec::new();
    for (i, (dag, cal, q, deadline)) in scenarios().iter().enumerate() {
        let mut results = Vec::new();
        for algo in Algorithm::catalog() {
            let r = match algo.run(dag, cal, Time::ZERO, *q, *deadline) {
                Ok(s) => AlgoResult {
                    algorithm: algo.name(),
                    outcome: "ok",
                    placements: s
                        .placements_by_start()
                        .iter()
                        .map(|(t, p)| (t.0, p.start.as_seconds(), p.end.as_seconds(), p.procs))
                        .collect(),
                    stats: s.stats,
                },
                Err(RunError::Infeasible(e)) => {
                    missed_after_passes += u32::from(e.floor.is_none() && e.stats.passes > 0);
                    AlgoResult {
                        algorithm: algo.name(),
                        outcome: "infeasible",
                        placements: Vec::new(),
                        stats: e.stats,
                    }
                }
                Err(e) => panic!("{} failed to run: {e}", algo.name()),
            };
            results.push(r);
        }
        all.push(ScenarioResult {
            scenario: i,
            results,
        });
    }
    assert!(
        missed_after_passes > 0,
        "no algorithm missed a deadline the floor clears"
    );
    check_golden("obs_differential.json", &all);
}

/// Run each algorithm plain and under observation in the same process: the
/// answers must be equal, stats included.
#[test]
fn observed_runs_match_plain_runs_exactly() {
    for (dag, cal, q, deadline) in scenarios() {
        for algo in Algorithm::catalog() {
            let plain = algo.run(&dag, &cal, Time::ZERO, q, deadline);
            let (observed, _) = obs::observe(&algo.name(), || {
                algo.run(&dag, &cal, Time::ZERO, q, deadline)
            });
            match (plain, observed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.placements_by_start(),
                        b.placements_by_start(),
                        "{}: observation changed the schedule",
                        algo.name()
                    );
                    assert_eq!(a, b, "{}: observation changed the result", algo.name());
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{}: observation changed the error", algo.name())
                }
                (a, b) => panic!(
                    "{}: feasibility diverged under observation (plain ok: {}, observed ok: {})",
                    algo.name(),
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// Observation is inert where the width scan works hardest: on deadlines
/// tight enough that the conservative rule runs out of chunks and falls
/// back, and that passes fail, the observed run returns exactly what the
/// plain run returns, a missed deadline's `Err` whole, with the stats of
/// the passes that missed.
#[test]
fn tight_deadlines_are_observed_without_changing_the_schedule() {
    use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig};
    let mut missed = 0;
    for (dag, cal, q, loose) in scenarios() {
        let loose = loose.expect("every scenario carries a deadline");
        // Half the loose deadline is the forward completion time itself.
        for deadline in [loose, Time::ZERO + (loose - Time::ZERO) / 2] {
            for algo in DeadlineAlgo::ALL {
                let run = || {
                    schedule_deadline(
                        &dag,
                        &cal,
                        Time::ZERO,
                        q,
                        deadline,
                        algo,
                        DeadlineConfig::default(),
                    )
                };
                let plain = run();
                let (observed, _) = obs::observe(algo.name(), run);
                assert_eq!(plain, observed, "{algo}: observation changed the outcome");
                if let Err(e) = observed {
                    assert!(e.floor.is_some() || e.stats.passes > 0, "{algo}: {e:?}");
                    missed += u32::from(e.floor.is_none());
                }
            }
        }
    }
    assert!(missed > 0, "no pass missed a deadline");
}
