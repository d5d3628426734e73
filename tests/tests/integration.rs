//! End-to-end integration tests spanning the whole workspace: generated
//! workloads -> extracted reservation schedules -> scheduling algorithms ->
//! validated schedules.

use resched_core::algos::Algorithm;
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_workloads::prelude::*;

fn pipeline_fixture(phi: f64, seed: u64) -> (resched_core::dag::Dag, Calendar, u32) {
    let spec = LogSpec::sdsc_ds().with_duration(Dur::days(15));
    let log = generate_log(&spec, seed);
    let t = sample_start_times(&log, 1, seed ^ 1)[0];
    let rs = extract(&log, t, &ExtractSpec::new(phi, ThinMethod::Expo), seed ^ 2);
    let dag = generate(&DagParams::paper_default(), seed ^ 3);
    let q = rs.q;
    (dag, rs.calendar(), q)
}

#[test]
fn full_pipeline_all_forward_algorithms() {
    let (dag, cal, q) = pipeline_fixture(0.3, 11);
    for bl in BlMethod::ALL {
        for bd in BdMethod::ALL {
            let cfg = ForwardConfig::new(bl, bd);
            let s = schedule_forward(&dag, &cal, Time::ZERO, q, cfg);
            Algorithm::Forward(cfg)
                .validator(&dag, &cal, Time::ZERO, None)
                .check(&s)
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
            assert!(s.turnaround().is_positive());
            assert!(s.cpu_hours() > 0.0);
        }
    }
}

#[test]
fn full_pipeline_all_deadline_algorithms() {
    let (dag, cal, q) = pipeline_fixture(0.3, 13);
    // A generous deadline derived from the forward schedule.
    let fwd = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let deadline = Time::ZERO + fwd.turnaround() * 4;
    for algo in DeadlineAlgo::ALL {
        let out = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            q,
            deadline,
            algo,
            DeadlineConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{algo}: {e}"));
        Algorithm::Deadline(algo)
            .validator(&dag, &cal, Time::ZERO, Some(deadline))
            .check(&out.schedule)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn deadline_feasibility_is_monotone_in_practice() {
    // If an algorithm meets K, it should meet every looser K' we test.
    let (dag, cal, q) = pipeline_fixture(0.5, 17);
    let cfg = DeadlineConfig::default();
    let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, q, cfg);
    for algo in [DeadlineAlgo::BdCpa, DeadlineAlgo::RcCpaR] {
        let (k, _) = roster.tightest(algo, Dur::seconds(60)).expect("achievable");
        for factor in [1.0, 1.25, 1.5, 2.0, 4.0] {
            let loose = Time::seconds(((k - Time::ZERO).as_seconds() as f64 * factor) as i64);
            assert!(
                schedule_deadline(&dag, &cal, Time::ZERO, q, loose, algo, cfg).is_ok(),
                "{algo} met {k:?} but missed looser {loose:?}"
            );
        }
    }
}

#[test]
fn forward_completion_bounds_the_tightest_reasonably() {
    // The tightest deadline should be within a small factor of the forward
    // turn-around (backward scheduling cannot be wildly worse).
    let (dag, cal, q) = pipeline_fixture(0.2, 19);
    let fwd = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let (k, _) = Roster::prepare(&dag, &cal, Time::ZERO, q, DeadlineConfig::default())
        .tightest(DeadlineAlgo::BdCpa, Dur::seconds(60))
        .expect("achievable");
    let ratio = (k - Time::ZERO).as_seconds() as f64 / fwd.turnaround().as_seconds() as f64;
    assert!(
        ratio < 3.0,
        "tightest deadline {ratio}x the forward turn-around"
    );
}

#[test]
fn rc_schedules_cost_at_most_aggressive_on_loose_deadlines() {
    let cfg = DeadlineConfig::default();
    for seed in [23u64, 29, 31] {
        let (dag, cal, q) = pipeline_fixture(0.3, seed);
        let fwd = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
        let loose = Time::ZERO + fwd.turnaround() * 5;
        let agg =
            schedule_deadline(&dag, &cal, Time::ZERO, q, loose, DeadlineAlgo::BdAll, cfg).unwrap();
        let rc =
            schedule_deadline(&dag, &cal, Time::ZERO, q, loose, DeadlineAlgo::RcCpaR, cfg).unwrap();
        assert!(
            rc.schedule.cpu_hours() <= agg.schedule.cpu_hours() * 1.05,
            "seed {seed}: RC {} CPU-h vs aggressive {}",
            rc.schedule.cpu_hours(),
            agg.schedule.cpu_hours()
        );
    }
}

#[test]
fn empty_reservation_schedule_tracks_dedicated_cpa() {
    // With no competing reservations, BL_CPA_BD_CPA behaves like plain CPA
    // (paper §4.2). The slot search may deviate slightly from CPA's fixed
    // allocations (it re-optimizes each task's processor count, greedily),
    // so require the turn-arounds to be close rather than identical.
    let dag = generate(&DagParams::paper_default(), 41);
    let p = 128;
    let cal = Calendar::new(p);
    let fwd = schedule_forward(
        &dag,
        &cal,
        Time::ZERO,
        p,
        ForwardConfig::new(BlMethod::Cpa, BdMethod::Cpa),
    );
    let base = resched_core::cpa::schedule(&dag, p, StoppingCriterion::default(), Time::ZERO);
    let (a, b) = (
        fwd.turnaround().as_seconds() as f64,
        base.turnaround().as_seconds() as f64,
    );
    assert!(
        (a - b).abs() / b < 0.15,
        "forward {a}s vs dedicated CPA {b}s diverge by more than 15%"
    );
}

#[test]
fn heavier_reservation_load_does_not_speed_things_up_materially() {
    // Competing reservations restrict the slot search, so scheduling on a
    // loaded platform should not beat the empty platform by any meaningful
    // margin. (Exact instance-wise monotonicity does not hold for a greedy
    // list scheduler, so allow a small tolerance; use the same `q` on both
    // sides so the algorithm configuration is identical.)
    let dag = generate(&DagParams::paper_default(), 43);
    let spec = LogSpec::ctc_sp2().with_duration(Dur::days(15));
    let log = generate_log(&spec, 47);
    let t = sample_start_times(&log, 1, 48)[0];
    let sparse = extract(&log, t, &ExtractSpec::new(0.1, ThinMethod::Real), 49);
    let empty = Calendar::new(log.procs);
    let loaded = sparse.calendar();
    let q = sparse.q;
    let s_empty = schedule_forward(&dag, &empty, Time::ZERO, q, ForwardConfig::recommended());
    let s_loaded = schedule_forward(&dag, &loaded, Time::ZERO, q, ForwardConfig::recommended());
    let (a, b) = (
        s_empty.turnaround().as_seconds() as f64,
        s_loaded.turnaround().as_seconds() as f64,
    );
    assert!(
        a <= b * 1.05,
        "empty platform {a}s should not be beaten by loaded platform {b}s"
    );
}

#[test]
fn grid5000_like_pipeline_works_end_to_end() {
    let spec = LogSpec::grid5000().with_duration(Dur::days(20));
    let log = generate_log(&spec, 53);
    let t = sample_start_times(&log, 1, 54)[0];
    let rs = extract(&log, t, &ExtractSpec::new(1.0, ThinMethod::Real), 55);
    let cal = rs.calendar();
    let dag = generate(&DagParams::paper_default(), 56);
    let cfg = ForwardConfig::recommended();
    let s = schedule_forward(&dag, &cal, Time::ZERO, rs.q, cfg);
    Algorithm::Forward(cfg)
        .validator(&dag, &cal, Time::ZERO, None)
        .check(&s)
        .unwrap();
}
