//! Behavioral tests of the forward (RESSCHED) scheduler on hand-crafted
//! scenarios with independently computed expected outcomes.

use resched_core::algos::Algorithm;
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig, TieBreak};
use resched_core::prelude::*;

fn cost(seq_s: i64, alpha: f64) -> TaskCost {
    TaskCost::new(Dur::seconds(seq_s), alpha)
}

/// The oracle's verdict on `s`, scheduled by `cfg` at time 0.
fn assert_valid(cfg: ForwardConfig, dag: &Dag, cal: &Calendar, s: &Schedule) {
    Algorithm::Forward(cfg)
        .validator(dag, cal, Time::ZERO, None)
        .check(s)
        .unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
}

fn single_task(seq_s: i64, alpha: f64) -> Dag {
    resched_core::dag::chain(&[cost(seq_s, alpha)])
}

#[test]
fn waits_for_predecessor_not_just_reservations() {
    let dag = resched_core::dag::chain(&[cost(400, 0.0), cost(400, 0.0)]);
    let cal = Calendar::new(4);
    let s = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    let p0 = s.placement(TaskId(0));
    let p1 = s.placement(TaskId(1));
    assert_eq!(p0.start, Time::ZERO);
    assert_eq!(p1.start, p0.end);
}

#[test]
fn chooses_fewer_procs_now_over_more_procs_later() {
    // A 1000s (alpha=0) task on a 4-proc machine where 2 procs are reserved
    // for the next 10000s. Starting now on 2 procs completes at 500;
    // waiting for 4 procs completes at 10250. Earliest completion wins.
    let dag = single_task(1000, 0.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(10_000), 2))
        .unwrap();
    let s = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    let p = s.placement(TaskId(0));
    assert_eq!(p.start, Time::ZERO);
    assert_eq!(p.procs, 2);
    assert_eq!(p.end, Time::seconds(500));
}

#[test]
fn chooses_more_procs_later_when_it_completes_earlier() {
    // Same setup but the reservation ends at 100s: waiting for 4 procs
    // completes at 100+250 = 350 < 500. The scheduler must wait.
    let dag = single_task(1000, 0.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(100), 2))
        .unwrap();
    let s = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    let p = s.placement(TaskId(0));
    assert_eq!(p.end, Time::seconds(350));
    assert_eq!(p.procs, 4);
    assert_eq!(p.start, Time::seconds(100));
}

#[test]
fn fewest_procs_tie_break_saves_resources() {
    // alpha = 1: execution time is 600s regardless of processors, so every
    // m ties on completion. FewestProcs must pick m = 1.
    let dag = single_task(600, 1.0);
    let cal = Calendar::new(16);
    let s = schedule_forward(&dag, &cal, Time::ZERO, 16, ForwardConfig::recommended());
    assert_eq!(s.placement(TaskId(0)).procs, 1);
}

#[test]
fn most_procs_tie_break_is_wasteful_but_valid() {
    let dag = single_task(600, 1.0);
    let cal = Calendar::new(16);
    let cfg = ForwardConfig {
        tie: TieBreak::MostProcs,
        bd: BdMethod::All,
        ..ForwardConfig::recommended()
    };
    let s = schedule_forward(&dag, &cal, Time::ZERO, 16, cfg);
    // With alpha = 1 every allocation gives the same 600s duration, so the
    // tie-break drives the choice to the bound.
    assert_eq!(s.placement(TaskId(0)).procs, 16);
    assert_valid(cfg, &dag, &cal, &s);
}

#[test]
fn bd_half_bound_is_respected() {
    let dag = single_task(100_000, 0.0);
    let cal = Calendar::new(32);
    let cfg = ForwardConfig::new(BlMethod::CpaR, BdMethod::Half);
    let s = schedule_forward(&dag, &cal, Time::ZERO, 32, cfg);
    assert!(s.placement(TaskId(0)).procs <= 16);
    // And with a perfectly parallel task the bound is worth using fully.
    assert_eq!(s.placement(TaskId(0)).procs, 16);
}

#[test]
fn parallel_tasks_share_the_machine() {
    // Fork-join with two 1000s alpha=0 middle tasks on 4 procs: both middle
    // tasks should run concurrently on 2 procs each (completing at 500)
    // rather than serially on 4.
    let dag = resched_core::dag::fork_join(
        cost(1, 0.0),
        &[cost(1000, 0.0), cost(1000, 0.0)],
        cost(1, 0.0),
    );
    let cal = Calendar::new(4);
    let cfg = ForwardConfig::recommended();
    let s = schedule_forward(&dag, &cal, Time::ZERO, 4, cfg);
    assert_valid(cfg, &dag, &cal, &s);
    // Area lower bound: 2x1000 proc-seconds on 4 procs = 500s, plus the
    // entry/exit seconds. Full single-processor serialization would exceed
    // 2000s; exploiting the machine must land well under half that.
    assert!(s.turnaround() >= Dur::seconds(500));
    assert!(
        s.turnaround() <= Dur::seconds(750),
        "middle tasks were serialized: {}",
        s.turnaround()
    );
}

#[test]
fn priority_order_follows_bottom_levels() {
    // A long chain and an independent short task on one processor: the
    // chain's tasks have higher bottom levels and are placed first.
    let mut b = DagBuilder::new();
    let a1 = b.add_task(cost(1000, 1.0));
    let a2 = b.add_task(cost(1000, 1.0));
    let b1 = b.add_task(cost(10, 1.0));
    b.add_edge(a1, a2);
    let dag = b.build().unwrap();
    let cal = Calendar::new(1);
    let cfg = ForwardConfig::recommended();
    let s = schedule_forward(&dag, &cal, Time::ZERO, 1, cfg);
    assert_valid(cfg, &dag, &cal, &s);
    assert_eq!(s.placement(a1).start, Time::ZERO);
    assert!(s.placement(a2).start >= s.placement(a1).end);
    assert!(s.placement(b1).start >= s.placement(a1).end);
}

#[test]
fn now_offset_shifts_everything() {
    let dag = resched_core::dag::chain(&[cost(100, 0.0), cost(100, 0.0)]);
    let cal = Calendar::new(4);
    let a = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    let b = schedule_forward(
        &dag,
        &cal,
        Time::seconds(5000),
        4,
        ForwardConfig::recommended(),
    );
    assert_eq!(a.turnaround(), b.turnaround());
    for t in dag.task_ids() {
        assert_eq!(
            b.placement(t).start - a.placement(t).start,
            Dur::seconds(5000)
        );
    }
}

#[test]
fn q_larger_than_p_is_clamped() {
    let dag = single_task(1000, 0.0);
    let cal = Calendar::new(4);
    let a = schedule_forward(&dag, &cal, Time::ZERO, 1000, ForwardConfig::recommended());
    let b = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    assert_eq!(a, b);
}

#[test]
fn slot_search_finds_interior_holes() {
    // Reservations leave a 2-processor hole [100, 300); a 400s-sequential
    // alpha=0 task (200s on 2 procs) fits exactly into it.
    let dag = single_task(400, 0.0);
    let mut cal = Calendar::new(4);
    cal.try_add(Reservation::new(Time::ZERO, Time::seconds(100), 4))
        .unwrap();
    cal.try_add(Reservation::new(Time::seconds(100), Time::seconds(300), 2))
        .unwrap();
    cal.try_add(Reservation::new(Time::seconds(300), Time::seconds(2000), 3))
        .unwrap();
    let s = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
    let p = s.placement(TaskId(0));
    assert_eq!(
        (p.start, p.end, p.procs),
        (Time::seconds(100), Time::seconds(300), 2)
    );
}

#[test]
fn all_bl_methods_give_valid_orders_on_multi_exit_dags() {
    // Two entries and two exits: the library accepts general DAGs even
    // though the paper's generator always produces single entry/exit.
    let mut b = DagBuilder::new();
    let e1 = b.add_task(cost(500, 0.1));
    let e2 = b.add_task(cost(700, 0.1));
    let m = b.add_task(cost(900, 0.1));
    let x1 = b.add_task(cost(300, 0.1));
    let x2 = b.add_task(cost(200, 0.1));
    b.add_edge(e1, m)
        .add_edge(e2, m)
        .add_edge(m, x1)
        .add_edge(m, x2);
    let dag = b.build().unwrap();
    let mut cal = Calendar::new(8);
    cal.try_add(Reservation::new(Time::seconds(50), Time::seconds(600), 6))
        .unwrap();
    for bl in BlMethod::ALL {
        for bd in BdMethod::ALL {
            let cfg = ForwardConfig::new(bl, bd);
            let s = schedule_forward(&dag, &cal, Time::ZERO, 6, cfg);
            assert_valid(cfg, &dag, &cal, &s);
        }
    }
}
