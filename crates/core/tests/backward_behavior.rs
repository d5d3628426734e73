//! Behavioral tests of the backward (RESSCHEDDL) schedulers on hand-crafted
//! scenarios with independently computed expected outcomes.

use resched_core::algos::Algorithm;
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::prelude::*;

fn cost(seq_s: i64, alpha: f64) -> TaskCost {
    TaskCost::new(Dur::seconds(seq_s), alpha)
}

fn single_task(seq_s: i64, alpha: f64) -> resched_core::dag::Dag {
    resched_core::dag::chain(&[cost(seq_s, alpha)])
}

fn cfg() -> DeadlineConfig {
    DeadlineConfig::default()
}

/// The tightest deadline `algo` meets at `now = 0`, searched to `precision`.
fn tightest(
    dag: &resched_core::dag::Dag,
    cal: &Calendar,
    q: u32,
    algo: DeadlineAlgo,
    precision: Dur,
) -> Option<(Time, DeadlineOutcome)> {
    Roster::prepare(dag, cal, Time::ZERO, q, cfg()).tightest(algo, precision)
}

#[test]
fn aggressive_single_task_lands_on_deadline() {
    // alpha = 1 makes duration processor-independent: 600s. The aggressive
    // algorithm must reserve [K-600, K).
    let dag = single_task(600, 1.0);
    let cal = Calendar::new(8);
    let k = Time::seconds(10_000);
    let out = schedule_deadline(&dag, &cal, Time::ZERO, 8, k, DeadlineAlgo::BdAll, cfg()).unwrap();
    let p = out.schedule.placement(TaskId(0));
    assert_eq!(p.end, k);
    assert_eq!(p.start, Time::seconds(9400));
}

#[test]
fn chain_is_packed_backward_without_gaps_by_aggressive() {
    let dag = resched_core::dag::chain(&[cost(300, 1.0), cost(200, 1.0)]);
    let cal = Calendar::new(4);
    let k = Time::seconds(5000);
    let out = schedule_deadline(&dag, &cal, Time::ZERO, 4, k, DeadlineAlgo::BdAll, cfg()).unwrap();
    let p0 = out.schedule.placement(TaskId(0));
    let p1 = out.schedule.placement(TaskId(1));
    assert_eq!(p1.end, k);
    assert_eq!(p1.start, Time::seconds(4800));
    assert_eq!(p0.end, p1.start); // packed against the successor
    assert_eq!(p0.start, Time::seconds(4500));
}

#[test]
fn reservation_splits_backward_placement() {
    // The machine is fully reserved over [4000, 5000); a 600s task with
    // K = 5000 must finish by 4000.
    let dag = single_task(600, 1.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(
        Time::seconds(4000),
        Time::seconds(5000),
        4,
    ))
    .unwrap();
    let out = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        4,
        Time::seconds(5000),
        DeadlineAlgo::BdAll,
        cfg(),
    )
    .unwrap();
    let p = out.schedule.placement(TaskId(0));
    assert_eq!(p.end, Time::seconds(4000));
}

#[test]
fn infeasible_when_now_blocks() {
    // Machine fully reserved over [0, 900); a 600s task with K = 1000
    // cannot fit (only 100s remain).
    let dag = single_task(600, 1.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(900), 4))
        .unwrap();
    for algo in DeadlineAlgo::ALL {
        assert!(
            schedule_deadline(&dag, &cal, Time::ZERO, 4, Time::seconds(1000), algo, cfg()).is_err(),
            "{algo} accepted an infeasible instance"
        );
    }
    // But K = 1500 works for everyone.
    for algo in DeadlineAlgo::ALL {
        schedule_deadline(&dag, &cal, Time::ZERO, 4, Time::seconds(1500), algo, cfg())
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn rc_uses_one_processor_when_deadline_is_loose() {
    // alpha = 0, seq = 1000s, K = 100000: CPA on q=4 gives some small
    // start; the RC algorithm picks the smallest processor count whose
    // latest fit is still after the CPA start — with this much slack that
    // is 1 processor.
    let dag = single_task(1000, 0.0);
    let cal = Calendar::new(4);
    let out = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        4,
        Time::seconds(100_000),
        DeadlineAlgo::RcCpaR,
        cfg(),
    )
    .unwrap();
    assert_eq!(out.schedule.placement(TaskId(0)).procs, 1);
}

#[test]
fn aggressive_uses_bound_processors_even_when_loose() {
    // Same instance: the aggressive DL_BD_ALL picks the latest-starting
    // pair; with alpha = 0, more processors = shorter duration = later
    // start, so it reserves all 4 processors.
    let dag = single_task(1000, 0.0);
    let cal = Calendar::new(4);
    let out = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        4,
        Time::seconds(100_000),
        DeadlineAlgo::BdAll,
        cfg(),
    )
    .unwrap();
    assert_eq!(out.schedule.placement(TaskId(0)).procs, 4);
    assert_eq!(out.schedule.completion(), Time::seconds(100_000));
}

#[test]
fn rcbd_fallback_respects_cpa_bound() {
    // Force the fallback: the only slot tight enough is right at `now`,
    // earlier than any CPA-computed start. RCBD's fallback bounds the
    // allocation by CPA(q); DL_RC's fallback may use up to p.
    let dag = single_task(4000, 0.0);
    let mut cal = Calendar::new(16);
    // Everything reserved except a small prefix [0, 1100) with 4 procs
    // free, then fully busy until past the deadline.
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(1100), 12))
        .unwrap();
    cal.try_add(Reservation::new(
        Time::seconds(1100),
        Time::seconds(50_000),
        16,
    ))
    .unwrap();
    let k = Time::seconds(20_000);
    let out = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        4,
        k,
        DeadlineAlgo::RcbdCpaRLambda,
        cfg(),
    )
    .unwrap();
    let p = out.schedule.placement(TaskId(0));
    // 4000s seq on 4 procs = 1000s <= 1100 window; must start within the
    // prefix.
    assert!(p.start < Time::seconds(1100));
    assert!(p.procs <= 4, "RCBD fallback exceeded the CPA(q) bound");
}

#[test]
fn tightest_single_task_exact() {
    // alpha = 1, 600s, empty calendar: the tightest deadline is exactly
    // now + 600 (within search precision).
    let dag = single_task(600, 1.0);
    let cal = Calendar::new(4);
    let prec = Dur::seconds(10);
    let (k, out) = tightest(&dag, &cal, 4, DeadlineAlgo::BdCpa, prec).unwrap();
    assert!(k >= Time::seconds(600));
    assert!(k <= Time::seconds(600) + prec + prec);
    assert!(out.schedule.completion() <= k);
}

#[test]
fn tightest_respects_reservations() {
    // Machine fully reserved over [0, 5000): nothing can finish before
    // 5000 + 600.
    let dag = single_task(600, 1.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(5000), 4))
        .unwrap();
    let (k, _) = tightest(&dag, &cal, 4, DeadlineAlgo::BdCpa, Dur::seconds(10)).unwrap();
    assert!(k >= Time::seconds(5600));
    assert!(k <= Time::seconds(5650));
}

#[test]
fn lambda_iterates_only_when_needed() {
    let dag = resched_core::dag::chain(&[cost(600, 0.2), cost(600, 0.2)]);
    let cal = Calendar::new(8);
    // Loose: lambda stays 0, a single backward pass.
    let loose = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        8,
        Time::seconds(500_000),
        DeadlineAlgo::RcCpaRLambda,
        cfg(),
    )
    .unwrap();
    assert_eq!(loose.lambda, Some(0.0));
    assert_eq!(loose.schedule.stats.passes, 1);
    // Tight (just feasible): lambda may have to rise; passes grow with it.
    let (k, tight) = tightest(&dag, &cal, 8, DeadlineAlgo::RcCpaRLambda, Dur::seconds(10)).unwrap();
    assert!(tight.lambda.unwrap() >= 0.0);
    assert!(k < Time::seconds(500_000));
}

#[test]
fn deadline_exactly_at_completion_boundary() {
    // K exactly equal to the minimum possible completion: still feasible.
    let dag = single_task(600, 1.0);
    let cal = Calendar::new(2);
    let out = schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        2,
        Time::seconds(600),
        DeadlineAlgo::BdCpa,
        cfg(),
    )
    .unwrap();
    assert_eq!(out.schedule.placement(TaskId(0)).start, Time::ZERO);
    // One second less is infeasible.
    assert!(schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        2,
        Time::seconds(599),
        DeadlineAlgo::BdCpa,
        cfg(),
    )
    .is_err());
}

#[test]
fn diamond_respects_precedence_backward() {
    let mut b = DagBuilder::new();
    let a = b.add_task(cost(100, 1.0));
    let x = b.add_task(cost(200, 1.0));
    let y = b.add_task(cost(300, 1.0));
    let z = b.add_task(cost(100, 1.0));
    b.add_edge(a, x)
        .add_edge(a, y)
        .add_edge(x, z)
        .add_edge(y, z);
    let dag = b.build().unwrap();
    let cal = Calendar::new(4);
    let k = Time::seconds(10_000);
    for algo in DeadlineAlgo::ALL {
        let out = schedule_deadline(&dag, &cal, Time::ZERO, 4, k, algo, cfg())
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        Algorithm::Deadline(algo)
            .validator(&dag, &cal, Time::ZERO, Some(k))
            .check(&out.schedule)
            .unwrap();
        let pz = out.schedule.placement(z);
        let px = out.schedule.placement(x);
        let py = out.schedule.placement(y);
        let pa = out.schedule.placement(a);
        assert!(px.end <= pz.start && py.end <= pz.start);
        assert!(pa.end <= px.start && pa.end <= py.start);
    }
}
