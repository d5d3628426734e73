//! Differential fuzz for the mutable calendar surface.
//!
//! Every scenario's calendar is now built as *history*: admit the random
//! reservations, then replay a random sequence of cancellations and
//! resizes ([`FuzzOp`]). Three oracles check the survivor:
//!
//! 1. **Rebuild-from-scratch**: a fresh calendar holding exactly the
//!    reservations still live after the ops must equal the incrementally
//!    mutated calendar — `PartialEq` *and* serialized bytes, so no hidden
//!    residue (stale breakpoints, drifted ledgers) survives behind a lucky
//!    step-vector.
//! 2. **Calendar vs. linear**: every query the calendar answers must match
//!    `Calendar::linear()`'s brute-force scan on the mutated calendar,
//!    plus a full `audit_calendar` shape/accounting audit.
//! 3. **ScheduleValidator**: schedules produced against mutated calendars
//!    still pass the independent validity oracle (via `Scenario::run_all`,
//!    which now schedules against post-mutation calendars).
//!
//! A fourth test pins serialization as lossless: deserialize a mutated
//! calendar, mutate it *again*, and require byte-identical behavior to
//! the never-serialized original — the four serialized fields are the
//! whole calendar, so nothing can be resurrected stale.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::prelude::*;
use resched_tests::fuzz::Scenario;

const SWEEP_SEED: u64 = 0x5CED_0020;

fn iterations() -> usize {
    std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn bytes(cal: &Calendar) -> Vec<u8> {
    serde_json::to_string(cal)
        .expect("calendar serializes")
        .into_bytes()
}

/// Oracle 1: incremental mutation ≡ rebuild from the surviving set.
#[test]
fn mutated_calendar_equals_rebuild_from_scratch() {
    let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED);
    let mut mutated_scenarios = 0usize;
    for i in 0..iterations() {
        let s = Scenario::generate(&mut rng);
        let (cal, live) = s.calendar_with_live();
        if !s.ops.is_empty() {
            mutated_scenarios += 1;
        }
        let mut rebuilt = Calendar::new(cal.capacity());
        for r in &live {
            rebuilt
                .try_add(*r)
                .expect("the surviving set fits an empty calendar");
        }
        assert_eq!(cal, rebuilt, "iteration {i}: mutated != rebuilt");
        assert_eq!(
            bytes(&cal),
            bytes(&rebuilt),
            "iteration {i}: serialized residue after mutation"
        );
    }
    assert!(
        mutated_scenarios > iterations() / 4,
        "generator stopped producing ops ({mutated_scenarios} mutated scenarios)"
    );
}

/// Oracle 2: calendar queries ≡ linear scan, and the audit stays clean.
#[test]
fn mutated_calendar_queries_match_linear_reference() {
    let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED ^ 1);
    for i in 0..iterations() {
        let s = Scenario::generate(&mut rng);
        let cal = s.calendar();
        let vs = audit_calendar(&cal);
        assert!(vs.is_empty(), "iteration {i}: audit violations {vs:?}");
        let Some(h) = cal.horizon() else { continue };
        let lo = cal.breakpoints().next().unwrap();
        // Probe windows straddling breakpoints, interior slices, and the
        // full span — the calendar answers, the linear scan referees.
        let span = (h - lo).as_seconds().max(2);
        for _ in 0..16 {
            let a = lo + Dur::seconds(rng.gen_range(0..span));
            let b = lo + Dur::seconds(rng.gen_range(0..span));
            if a == b {
                continue;
            }
            let (from, to) = if a < b { (a, b) } else { (b, a) };
            assert_eq!(
                cal.peak_used(from, to),
                cal.linear().peak_used(from, to),
                "iteration {i}: peak_used diverges on [{from}, {to})"
            );
            assert_eq!(
                cal.used_integral(from, to),
                cal.linear().used_integral(from, to),
                "iteration {i}: used_integral diverges on [{from}, {to})"
            );
        }
    }
}

/// Oracle 3 rides inside `Scenario::run_all` (fuzz_validate.rs), which now
/// schedules every algorithm against post-mutation calendars. Here: the
/// forward schedule against a mutated calendar passes the independent
/// validator explicitly.
#[test]
fn schedules_against_mutated_calendars_validate() {
    use resched_core::forward::{schedule_forward, ForwardConfig};
    let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED ^ 2);
    for i in 0..iterations().min(30) {
        let s = Scenario::generate(&mut rng);
        let Some(dag) = s.dag() else { continue };
        let cal = s.calendar();
        let sched = schedule_forward(&dag, &cal, s.now(), s.q, ForwardConfig::recommended());
        let oracle = ScheduleValidator::new(&dag, &cal, s.now());
        assert!(
            oracle.check(&sched).is_ok(),
            "iteration {i}: schedule against mutated calendar fails validation"
        );
    }
}

/// A deserialized calendar must behave exactly like the never-serialized
/// twin — and stay so through *further* mutation. Anything a query
/// depended on that serialization dropped would make the twins diverge.
#[test]
fn deserialize_then_mutate_matches_unserialized_twin() {
    let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED ^ 3);
    for i in 0..iterations().min(40) {
        let s = Scenario::generate(&mut rng);
        let (mut original, live) = s.calendar_with_live();
        let mut thawed: Calendar = serde_json::from_str(&serde_json::to_string(&original).unwrap())
            .expect("calendar roundtrips");
        assert_eq!(original, thawed, "iteration {i}: roundtrip drift");

        // Mutate both twins identically: remove every other survivor, add
        // a fresh reservation, and compare through the queries.
        for (k, r) in live.iter().enumerate() {
            if k % 2 == 0 {
                original.try_remove(*r).expect("live in original");
                thawed.try_remove(*r).expect("live in thawed");
            }
        }
        let extra = Reservation::for_duration(
            Time::seconds(rng.gen_range(0..4_000)),
            Dur::seconds(rng.gen_range(60..2_000)),
            1,
        );
        let a = original.try_add(extra);
        let b = thawed.try_add(extra);
        assert_eq!(a, b, "iteration {i}: twins disagree on admissibility");
        assert_eq!(original, thawed, "iteration {i}: post-mutation drift");
        assert_eq!(bytes(&original), bytes(&thawed));
        if let Some(h) = original.horizon() {
            let lo = original.breakpoints().next().unwrap();
            if lo < h {
                assert_eq!(
                    original.peak_used(lo, h),
                    thawed.linear().peak_used(lo, h),
                    "iteration {i}: thawed calendar answers differ from linear"
                );
            }
        }
        assert!(audit_calendar(&thawed).is_empty(), "iteration {i}");
    }
}

/// Shadow transactions over fuzz calendars: probe → rollback is
/// byte-exact, probe → commit equals rebuild-from-scratch.
#[test]
fn shadow_transactions_are_exact_on_fuzz_calendars() {
    let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED ^ 4);
    for i in 0..iterations().min(40) {
        let s = Scenario::generate(&mut rng);
        let (mut cal, mut live) = s.calendar_with_live();
        let before = bytes(&cal);
        let probe = Reservation::for_duration(
            Time::seconds(rng.gen_range(0..6_000)),
            Dur::seconds(rng.gen_range(60..3_000)),
            1,
        );

        // Probe, then change our mind.
        {
            let mut txn = cal.transaction();
            let _ = txn.try_add(probe);
            if let Some(r) = live.first().copied() {
                let _ = txn.try_remove(r);
            }
            txn.rollback();
        }
        assert_eq!(bytes(&cal), before, "iteration {i}: rollback not exact");

        // Probe, then keep it.
        let added = {
            let mut txn = cal.transaction();
            let added = txn.try_add(probe).is_ok();
            let removed = live.first().copied().filter(|r| txn.try_remove(*r).is_ok());
            txn.commit();
            if removed.is_some() {
                live.remove(0);
            }
            added
        };
        if added {
            live.push(probe);
        }
        let mut rebuilt = Calendar::new(cal.capacity());
        for r in &live {
            rebuilt.try_add(*r).expect("survivors fit");
        }
        assert_eq!(cal, rebuilt, "iteration {i}: commit != rebuild");
        assert_eq!(bytes(&cal), bytes(&rebuilt));
    }
}
