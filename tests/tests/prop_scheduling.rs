//! Property tests of the scheduling algorithms over random DAGs and random
//! reservation calendars, driven by seeded `ChaCha12Rng` loops.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::algos::{Algorithm, RunError};
use resched_core::bl::BlMethod;
use resched_core::floor::Floor;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig, TieBreak};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_resv::QueryCost;

/// Arbitrary-but-valid DAG parameters.
fn dag_params<R: Rng>(rng: &mut R) -> DagParams {
    DagParams {
        num_tasks: rng.gen_range(3usize..30),
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
        // Skip conflicting candidates; the survivors are feasible.
        let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
    }
    cal
}

/// The oracle's verdict on `s`, scheduled by `algo` at time 0 (meeting
/// `deadline` when one was required).
fn assert_valid(algo: Algorithm, dag: &Dag, cal: &Calendar, s: &Schedule, deadline: Option<Time>) {
    algo.validator(dag, cal, Time::ZERO, deadline)
        .check(s)
        .unwrap_or_else(|e| panic!("{algo}: {e}"));
}

#[test]
fn random_forward_schedules_are_valid() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0001);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 16);
        let seed = rng.gen_range(0u64..1000);
        let q = rng.gen_range(1u32..=16);
        let bl_i = rng.gen_range(0usize..4);
        let bd_i = rng.gen_range(0usize..4);
        let dag = generate(&params, seed);
        let cfg = ForwardConfig::new(BlMethod::ALL[bl_i], BdMethod::ALL[bd_i]);
        let s = schedule_forward(&dag, &cal, Time::ZERO, q, cfg);
        assert_valid(Algorithm::Forward(cfg), &dag, &cal, &s, None);
    }
}

#[test]
fn tie_break_choice_never_changes_validity() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0002);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 8);
        let seed = rng.gen_range(0u64..1000);
        let dag = generate(&params, seed);
        for tie in [TieBreak::FewestProcs, TieBreak::MostProcs] {
            let cfg = ForwardConfig {
                tie,
                ..ForwardConfig::recommended()
            };
            let s = schedule_forward(&dag, &cal, Time::ZERO, 8, cfg);
            assert_valid(Algorithm::Forward(cfg), &dag, &cal, &s, None);
        }
    }
}

#[test]
fn random_deadline_schedules_are_valid_and_meet_k() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0003);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 16);
        let seed = rng.gen_range(0u64..1000);
        let algo_i = rng.gen_range(0usize..7);
        let dag = generate(&params, seed);
        let fwd = schedule_forward(&dag, &cal, Time::ZERO, 16, ForwardConfig::recommended());
        let k = Time::ZERO + fwd.turnaround() * 3;
        let algo = DeadlineAlgo::ALL[algo_i];
        if let Ok(out) = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            16,
            k,
            algo,
            DeadlineConfig::default(),
        ) {
            assert_valid(
                Algorithm::Deadline(algo),
                &dag,
                &cal,
                &out.schedule,
                Some(k),
            );
        }
    }
}

#[test]
fn forward_schedule_starts_and_bounds() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0004);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 8);
        let seed = rng.gen_range(0u64..1000);
        let now_s = rng.gen_range(0i64..100_000);
        let dag = generate(&params, seed);
        let now = Time::seconds(now_s);
        let s = schedule_forward(&dag, &cal, now, 8, ForwardConfig::recommended());
        assert!(s.first_start() >= now);
        assert_eq!(s.now(), now);
        // CPU-hours >= total work at one processor is impossible; but it
        // must be at least total work at infinite processors.
        assert!(s.proc_seconds() > 0);
    }
}

#[test]
fn cpa_allocations_bounded_and_exec_consistent() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0005);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let pool = rng.gen_range(1u32..64);
        let dag = generate(&params, seed);
        for crit in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
            let a = resched_core::cpa::allocate(&dag, pool, crit);
            for t in dag.task_ids() {
                assert!(a.alloc(t) >= 1 && a.alloc(t) <= pool);
                assert_eq!(a.exec_time(t), dag.cost(t).exec_time(a.alloc(t)));
            }
        }
    }
}

#[test]
fn cpa_dedicated_schedule_valid() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0006);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let pool = rng.gen_range(1u32..64);
        let dag = generate(&params, seed);
        let s = resched_core::cpa::schedule(&dag, pool, StoppingCriterion::default(), Time::ZERO);
        ScheduleValidator::new(&dag, &Calendar::new(pool), Time::ZERO)
            .check(&s)
            .unwrap();
    }
}

/// Every registered algorithm, audited by the *independent* oracle: 200
/// (or more) random DAG × calendar scenarios, each pushed through the full
/// catalog (16 forward variants, 7 deadline variants, iCASLB-AR, BLIND), every
/// produced schedule checked with `ScheduleValidator::check` configured
/// via `Algorithm::validator` (which also arms the deadline invariant for
/// deadline algorithms), and by the second oracle, which shares no code
/// with it: no schedule completes before the instance floor, its calendar
/// path included. Deadline-infeasible outcomes are legitimate — the derived
/// `K` is not guaranteed achievable for every variant — and every deadline
/// algorithm is asked once more one second below the floor, which it must
/// refuse from the floor, without a pass. The CI fuzz lane raises the
/// scenario count through `RESCHED_DIFF_ITERS`.
#[test]
fn every_algorithm_passes_the_oracle_on_random_scenarios() {
    let scenarios = std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(200, |n: usize| n.max(200));
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0008);
    for _ in 0..scenarios {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 16);
        let seed = rng.gen_range(0u64..1000);
        let q = rng.gen_range(1u32..=16);
        let dag = generate(&params, seed);
        let fwd = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
        let k = Time::ZERO + fwd.turnaround() * 3;
        let floor = Floor::of(&dag, &cal, Time::ZERO, 1);
        let below = floor.time() - Dur::seconds(1);
        for algo in Algorithm::catalog() {
            match algo.run(&dag, &cal, Time::ZERO, q, Some(k)) {
                Ok(s) => {
                    algo.validator(&dag, &cal, Time::ZERO, Some(k))
                        .check(&s)
                        .unwrap_or_else(|v| panic!("{} violates the oracle: {v}", algo.name()));
                    floor
                        .check(&s)
                        .unwrap_or_else(|b| panic!("{} beats the floor: {b}", algo.name()));
                }
                Err(RunError::Infeasible(_)) => {}
                Err(e) => panic!("{} failed to run: {e}", algo.name()),
            }
            if algo.needs_deadline() {
                let refused = algo.run(&dag, &cal, Time::ZERO, q, Some(below));
                assert!(
                    matches!(refused, Err(RunError::Infeasible(e)) if e.floor.is_some()),
                    "{} below the floor: {refused:?}",
                    algo.name()
                );
            }
        }
    }
}

/// Pipeline-level differential test: replay every placement a real
/// scheduling run produced as slot queries against the calendar and its
/// linear reference; the slot walk and the reference scans must agree at
/// exactly the query points the algorithms care about, and the schedule's
/// stats must surface the query work. (The "backends" of the name are
/// those two.)
#[test]
fn scheduling_queries_agree_across_backends() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0007);
    for _ in 0..48 {
        let params = dag_params(&mut rng);
        let cal = calendar(&mut rng, 16);
        let seed = rng.gen_range(0u64..1000);
        let q = rng.gen_range(1u32..=16);
        let dag = generate(&params, seed);
        let s = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
        assert!(s.stats.slot_queries > 0, "stats must count slot queries");
        assert!(s.stats.slot_steps > 0, "stats must count slot-query work");

        let lin = cal.linear();
        for t in dag.task_ids() {
            let pl = s.placement(t);
            let dur = pl.end - pl.start;
            let mut ic = QueryCost::default();
            let mut lc = QueryCost::default();
            // The competing calendar must grant the placement's slot no
            // later than the schedule chose it, identically by both routes.
            let one = [(pl.procs, dur)];
            let ei = cal.earliest_finish(&one, pl.start, false, &mut ic).start;
            let el = lin.earliest_fit_with_cost(pl.procs, dur, pl.start, &mut lc);
            assert_eq!(ei, el, "earliest_fit diverges at placement {pl:?}");
            assert_eq!(ei, pl.start, "placement must be feasible on the calendar");
            assert_eq!(ic.queries, lc.queries);

            let li = cal
                .latest_start(&one, pl.end, Time::ZERO, &mut ic)
                .map(|r| r.start);
            let ll = lin.latest_fit(pl.procs, dur, pl.end, Time::ZERO);
            assert_eq!(li, ll, "latest_fit diverges at placement {pl:?}");
            assert_eq!(
                li,
                Some(pl.start),
                "slot ending at pl.end must be grantable"
            );

            assert_eq!(
                cal.peak_used(pl.start, pl.end),
                lin.peak_used(pl.start, pl.end)
            );
            assert_eq!(
                cal.used_integral(pl.start, pl.end),
                lin.used_integral(pl.start, pl.end)
            );
        }
    }
}
