//! Seeded fuzz driver for the schedule-validity oracle.
//!
//! Three layers of defense:
//!
//! 1. `all_algorithms_validate_on_random_scenarios` sweeps random
//!    DAG × calendar × deadline scenarios through every registered
//!    algorithm and audits each produced schedule with the independent
//!    [`ScheduleValidator`] oracle. A failure is greedily shrunk to a
//!    minimal scenario and written under `tests/repros/` before the test
//!    panics, so the repro can be committed and replayed forever.
//! 2. `committed_repros_replay_green` replays every `.json` under
//!    `tests/repros/` — once-shrunk failures (and the mutation fixture)
//!    stay fixed.
//! 3. `mutation_capacity_overflow_is_caught_and_shrinks` injects a
//!    deliberate scheduler bug (widening an allocation without consulting
//!    the calendar), asserts the oracle catches it, and pins the shrunk
//!    minimal scenario byte-for-byte against a committed fixture.
//!
//! Iteration count is controlled by `RESCHED_DIFF_ITERS` (default 60);
//! CI's fuzz-smoke lane runs 300. Seeds are fixed constants
//! below — every run explores the same scenarios.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_tests::fuzz::{shrink, Scenario};
use std::path::PathBuf;

/// Root seed for the random-scenario sweep.
const FUZZ_SEED: u64 = 0x5CED_0010;
/// Root seed for the capacity-overflow mutation search.
const MUTATION_SEED: u64 = 0x5CED_0011;
/// How many seeds the mutation search may probe before giving up.
const MUTATION_SEARCH_BUDGET: u64 = 500;

fn iterations() -> usize {
    std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("repros")
}

#[test]
fn all_algorithms_validate_on_random_scenarios() {
    let mut rng = ChaCha12Rng::seed_from_u64(FUZZ_SEED);
    for i in 0..iterations() {
        let scenario = Scenario::generate(&mut rng);
        let Err(failure) = scenario.run_all() else {
            continue;
        };
        // Shrink to a minimal scenario that still fails *somewhere* (the
        // failing algorithm may change as the scenario simplifies), and
        // leave a committable repro behind before failing the test.
        let minimal = shrink(&scenario, |s| s.run_all().is_err());
        let final_failure = minimal.run_all().unwrap_err();
        let path = repro_dir().join(format!("fuzz_failure_iter{i:04}.json"));
        std::fs::create_dir_all(repro_dir()).unwrap();
        std::fs::write(&path, minimal.to_json()).unwrap();
        panic!(
            "fuzz iteration {i} failed ({failure}); shrunk to {} \
             (now failing as: {final_failure}) — commit the repro once fixed",
            path.display()
        );
    }
}

/// All committed [`Scenario`] `.json` repros.
fn repro_paths() -> Vec<PathBuf> {
    let dir = repro_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| {
            let name = p.file_name().map(|n| n.to_string_lossy().to_string());
            let name = name.as_deref().unwrap_or("");
            // `quota_*` repros are QuotaStress cases replayed by the
            // quota_admission harness, not Scenarios.
            !name.starts_with("quota_")
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn committed_repros_replay_green() {
    let mut replayed = 0usize;
    for path in repro_paths() {
        let json = std::fs::read_to_string(&path).unwrap();
        let scenario = Scenario::from_json(&json)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        if let Err(f) = scenario.run_all() {
            panic!("committed repro {} regressed: {f}", path.display());
        }
        replayed += 1;
    }
    assert!(
        replayed > 0,
        "no repros found under {}",
        repro_dir().display()
    );
}

/// The injected bug: take the honest forward schedule and double task 0's
/// allocation — keeping the duration consistent with the Amdahl model, so
/// only the *calendar* is violated — as if the scheduler widened an
/// allocation without re-checking availability. Returns true when the
/// oracle flags a capacity overflow for the sabotaged schedule.
fn sabotage_is_caught(s: &Scenario) -> bool {
    let Some(dag) = s.dag() else { return false };
    let cal = s.calendar();
    let honest = schedule_forward(&dag, &cal, s.now(), s.q, ForwardConfig::recommended());
    let t0 = TaskId(0);
    let mut pls = honest.placements().to_vec();
    let widened = pls[0].procs * 2;
    pls[0].procs = widened;
    pls[0].end = pls[0].start + dag.cost(t0).exec_time(widened);
    let mut bad = Schedule::new(pls, honest.now());
    bad.stats = honest.stats;
    let oracle = ScheduleValidator::new(&dag, &cal, s.now());
    // The honest schedule must pass — it is specifically the mutation
    // that gets caught.
    oracle.check(&honest).is_ok()
        && oracle
            .report(&bad)
            .iter()
            .any(|v| matches!(v, Violation::CapacityExceeded { .. }))
}

#[test]
fn mutation_capacity_overflow_is_caught_and_shrinks() {
    // Probe seeds until the sabotage actually overflows the calendar
    // (task 0 may have slack to spare on wide platforms).
    let seed_scenario = (0..MUTATION_SEARCH_BUDGET)
        .find_map(|offset| {
            let mut rng = ChaCha12Rng::seed_from_u64(MUTATION_SEED + offset);
            let s = Scenario::generate(&mut rng);
            sabotage_is_caught(&s).then_some(s)
        })
        .expect("no scenario within the search budget triggers the injected overflow");

    let minimal = shrink(&seed_scenario, sabotage_is_caught);
    assert!(sabotage_is_caught(&minimal), "shrink preserves the failure");

    // Pin the shrunk scenario byte-for-byte: the whole pipeline — seed
    // search, forward scheduling, sabotage, shrinking — is deterministic.
    let path = repro_dir().join("mutation_capacity_overflow.json");
    let got = minimal.to_json();
    if std::env::var("RESCHED_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(repro_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with RESCHED_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "shrunk mutation repro drifted from {}; if the generator or \
         shrinker changed intentionally, refresh with RESCHED_UPDATE_GOLDEN=1",
        path.display()
    );
}
