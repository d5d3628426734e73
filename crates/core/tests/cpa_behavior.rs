//! Behavioral tests of the CPA algorithm on instances with hand-computed
//! expected outcomes.

use resched_core::cpa::{allocate, map, schedule, StoppingCriterion};
use resched_core::dag::{chain, fork_join, DagBuilder, TaskId};
use resched_core::prelude::*;

fn c(s: i64, a: f64) -> TaskCost {
    TaskCost::new(Dur::seconds(s), a)
}

#[test]
fn single_sequential_task_gets_one_processor() {
    // alpha = 1: no benefit from parallelism, allocation stays at 1.
    let dag = chain(&[c(10_000, 1.0)]);
    let alloc = allocate(&dag, 64, StoppingCriterion::Classic);
    assert_eq!(alloc.allocs, vec![1]);
}

#[test]
fn single_parallel_task_balances_cp_against_area() {
    // One alpha=0 task of T=10000s on p=100: CP = T/m, T_A = m*(T/m)/100
    // = T/100. Criterion CP <= T_A gives T/m <= T/100 => m >= 100... but
    // growth also stops when integer gains vanish. Expect a large
    // allocation (>= 50).
    let dag = chain(&[c(10_000, 0.0)]);
    let alloc = allocate(&dag, 100, StoppingCriterion::Classic);
    assert!(
        alloc.allocs[0] >= 50,
        "parallel singleton should get most of the pool, got {}",
        alloc.allocs[0]
    );
}

#[test]
fn two_equal_tasks_share_allocations_evenly() {
    // Independent twins via fork-join with negligible entry/exit: CPA must
    // not starve one of them (the CP alternates as allocations grow).
    let dag = fork_join(c(60, 1.0), &[c(7200, 0.0), c(7200, 0.0)], c(60, 1.0));
    let alloc = allocate(&dag, 32, StoppingCriterion::Classic);
    let (a, b) = (alloc.allocs[1], alloc.allocs[2]);
    assert!(
        (a as i64 - b as i64).abs() <= 1,
        "twins got uneven allocations: {a} vs {b}"
    );
}

#[test]
fn mapping_of_independent_tasks_packs_in_parallel() {
    // Four independent 1-hour tasks, each allocated a quarter of the pool:
    // mapping must overlap them.
    let dag = fork_join(c(60, 1.0), &[c(3600, 0.0); 4], c(60, 1.0));
    let alloc = allocate(&dag, 16, StoppingCriterion::Classic);
    let placements = map(&dag, &alloc, Time::ZERO);
    // All four middles start after the entry and overlap pairwise at least
    // partially; total makespan far below serial.
    let end = placements.iter().map(|p| p.end).max().unwrap();
    let serial: i64 = (1..5).map(|i| alloc.exec[i].as_seconds()).sum();
    assert!(
        (end - Time::ZERO).as_seconds() < serial,
        "mapping serialized the fork"
    );
}

#[test]
fn mapping_respects_allocation_exactly() {
    let dag = fork_join(c(300, 0.2), &[c(5000, 0.1); 3], c(300, 0.2));
    let alloc = allocate(&dag, 24, StoppingCriterion::Classic);
    let placements = map(&dag, &alloc, Time::ZERO);
    for t in dag.task_ids() {
        assert_eq!(placements[t.idx()].procs, alloc.alloc(t));
        assert_eq!(
            placements[t.idx()].end - placements[t.idx()].start,
            alloc.exec_time(t)
        );
    }
}

#[test]
fn deeper_chains_get_larger_allocations_than_wide_levels() {
    // A chain DAG concentrates the critical path, so its tasks get more
    // processors than the tasks of an equally sized wide DAG.
    let chain_dag = chain(&[c(3600, 0.05); 8]);
    let wide_dag = fork_join(c(60, 1.0), &[c(3600, 0.05); 8], c(60, 1.0));
    let pool = 64;
    let a_chain = allocate(&chain_dag, pool, StoppingCriterion::Classic);
    let a_wide = allocate(&wide_dag, pool, StoppingCriterion::Classic);
    let mean = |a: &resched_core::cpa::CpaAllocation, ids: &[usize]| {
        ids.iter().map(|&i| a.allocs[i] as f64).sum::<f64>() / ids.len() as f64
    };
    let chain_mean = mean(&a_chain, &(0..8).collect::<Vec<_>>());
    let wide_mean = mean(&a_wide, &(1..9).collect::<Vec<_>>());
    assert!(
        chain_mean > wide_mean,
        "chain tasks {chain_mean:.1} should out-allocate wide tasks {wide_mean:.1}"
    );
}

#[test]
fn schedule_on_unit_pool_is_serial_in_topological_order_of_levels() {
    let mut b = DagBuilder::new();
    let x = b.add_task(c(100, 0.0));
    let y = b.add_task(c(200, 0.0));
    let z = b.add_task(c(300, 0.0));
    b.add_edge(x, y).add_edge(x, z);
    let dag = b.build().unwrap();
    let s = schedule(&dag, 1, StoppingCriterion::Classic, Time::ZERO);
    ScheduleValidator::new(&dag, &Calendar::new(1), Time::ZERO)
        .check(&s)
        .unwrap();
    assert_eq!(s.turnaround(), Dur::seconds(600));
    // z has the larger bottom level among {y, z}, so it runs before y.
    assert!(s.placement(TaskId(2)).start < s.placement(TaskId(1)).start);
}

#[test]
fn allocation_monotone_in_pool_size_for_singleton() {
    let dag = chain(&[c(50_000, 0.02)]);
    let mut prev = 0;
    for pool in [2u32, 8, 32, 128] {
        let a = allocate(&dag, pool, StoppingCriterion::Classic).allocs[0];
        assert!(a >= prev, "allocation shrank with a larger pool");
        prev = a;
    }
}

#[test]
fn stringent_criterion_reduces_wide_dag_allocations() {
    let dag = fork_join(c(60, 1.0), &[c(7200, 0.02); 12], c(60, 1.0));
    let classic: u32 = allocate(&dag, 64, StoppingCriterion::Classic)
        .allocs
        .iter()
        .sum();
    let stringent: u32 = allocate(&dag, 64, StoppingCriterion::Stringent)
        .allocs
        .iter()
        .sum();
    assert!(
        stringent < classic,
        "stringent {stringent} should allocate less than classic {classic} on wide DAGs"
    );
}
