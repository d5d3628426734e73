//! MCPA — the Modified CPA of Bansal, Kumar & Singh (Parallel Computing
//! 2006), which the paper cites (§2.1) as the fix for CPA's over-allocation
//! drawback *on layered task graphs*.
//!
//! MCPA runs CPA's allocation loop but constrains growth per precedence
//! level: the total allocation of the tasks in any one level may not exceed
//! the processor pool, so concurrent tasks can never be starved of
//! processors by a greedy critical path. On layered DAGs (the paper's
//! `jump = 1` case) this directly encodes "concurrent tasks share the
//! machine"; on non-layered DAGs the level constraint is a heuristic
//! approximation (tasks of different levels may also overlap in time).
//!
//! Offered as an alternative allocation source for the `*_CPA(R)` bounding
//! and guideline roles; the `ext_mcpa` bench compares CPA- and
//! MCPA-derived bounds over the paper's scenario grid.

use crate::bl::{bottom_levels, critical_path_length, top_levels, LevelTracker};
use crate::cpa::CpaAllocation;
use crate::dag::Dag;
use crate::obs;
use resched_resv::Dur;

/// Count one more processor on `level`. `depth(t) < num_levels()` for every
/// task by `Dag` construction; a level outside the table counts nothing
/// (and reads as full where the loop asks for headroom).
fn grant(level_total: &mut [u32], level: u32) {
    if let Some(total) = level_total.get_mut(level as usize) {
        *total += 1;
    }
}

/// MCPA allocation: CPA's loop with a per-level total-allocation cap.
///
/// Returns the same [`CpaAllocation`] shape as [`crate::cpa::allocate`], so
/// it can be swapped in anywhere CPA allocations are used.
///
/// Levels are maintained incrementally by a [`LevelTracker`] (only one
/// task's exec time changes per iteration); [`allocate_reference`] keeps
/// the legacy full-rebuild loop as a differential oracle.
///
/// # Panics
/// Panics if `pool == 0`.
pub fn allocate(dag: &Dag, pool: u32) -> CpaAllocation {
    assert!(pool > 0, "MCPA needs a non-empty processor pool");
    let n = dag.num_tasks();
    let mut allocs = vec![1u32; n];
    let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
    let mut total_work: i64 = dag.task_ids().map(|t| dag.cost(t).work(1)).sum();

    // Per-level allocation totals (levels = longest-path depth).
    let mut level_total: Vec<u32> = vec![0; dag.num_levels() as usize];
    for t in dag.task_ids() {
        grant(&mut level_total, dag.depth(t));
    }

    crate::span!(obs::names::SPAN_MCPA_ALLOC_LOOP);
    let mut tracker = LevelTracker::new(dag, &exec);
    let mut iterations = 0u64;
    let mut incr_touched = 0u64;
    loop {
        let cp = tracker.critical_path();
        let t_a = total_work as f64 / pool as f64;
        if (cp.as_seconds() as f64) <= t_a {
            break;
        }
        let (bl, tl) = (tracker.bottom(), tracker.top());
        let mut best: Option<(crate::dag::TaskId, f64)> = None;
        for t in dag.task_ids() {
            if tl[t.idx()] + bl[t.idx()] != cp {
                continue;
            }
            let m = allocs[t.idx()];
            if m >= pool {
                continue;
            }
            // MCPA's extra constraint: the task's level must have headroom.
            let level = level_total.get(dag.depth(t) as usize);
            if level.is_none_or(|&total| total >= pool) {
                continue;
            }
            let cost = dag.cost(t);
            if cost.exec_time(m + 1) >= exec[t.idx()] {
                continue;
            }
            let gain = cost.marginal_gain(m);
            match best {
                Some((bt, bg)) if gain.total_cmp(&bg).then(bt.0.cmp(&t.0)).is_le() => {}
                _ => best = Some((t, gain)),
            }
        }
        let Some((t, _)) = best else { break };
        iterations += 1;
        let m = allocs[t.idx()] + 1;
        total_work -= dag.cost(t).work(m - 1);
        total_work += dag.cost(t).work(m);
        allocs[t.idx()] = m;
        exec[t.idx()] = dag.cost(t).exec_time(m);
        grant(&mut level_total, dag.depth(t));
        incr_touched += tracker.update(dag, &exec, t);
    }
    obs::counter_add(obs::names::MCPA_ALLOC_ITERS, iterations);
    obs::counter_add(obs::names::CPA_ALLOC_INCR_UPDATES, incr_touched);

    let out = CpaAllocation { pool, allocs, exec };
    #[cfg(debug_assertions)]
    crate::validate::assert_allocation_valid(dag, &out, "MCPA");
    out
}

/// The legacy MCPA loop, rebuilding all levels from scratch each iteration.
///
/// Kept always-compiled as the differential oracle for [`allocate`] (see
/// `incremental_matches_reference`) and as the baseline for the
/// `criterion_micro` allocation benches. Not wired to any scheduler.
pub fn allocate_reference(dag: &Dag, pool: u32) -> CpaAllocation {
    assert!(pool > 0, "MCPA needs a non-empty processor pool");
    let n = dag.num_tasks();
    let mut allocs = vec![1u32; n];
    let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
    let mut total_work: i64 = dag.task_ids().map(|t| dag.cost(t).work(1)).sum();

    let mut level_total: Vec<u32> = vec![0; dag.num_levels() as usize];
    for t in dag.task_ids() {
        level_total[dag.depth(t) as usize] += 1;
    }

    loop {
        let bl = bottom_levels(dag, &exec);
        let tl = top_levels(dag, &exec);
        let cp = critical_path_length(&bl);
        let t_a = total_work as f64 / pool as f64;
        if (cp.as_seconds() as f64) <= t_a {
            break;
        }
        let mut best: Option<(crate::dag::TaskId, f64)> = None;
        for t in dag.task_ids() {
            if tl[t.idx()] + bl[t.idx()] != cp {
                continue;
            }
            let m = allocs[t.idx()];
            if m >= pool {
                continue;
            }
            if level_total[dag.depth(t) as usize] >= pool {
                continue;
            }
            let cost = dag.cost(t);
            if cost.exec_time(m + 1) >= exec[t.idx()] {
                continue;
            }
            let gain = cost.marginal_gain(m);
            match best {
                Some((bt, bg)) if gain.total_cmp(&bg).then(bt.0.cmp(&t.0)).is_le() => {}
                _ => best = Some((t, gain)),
            }
        }
        let Some((t, _)) = best else { break };
        let m = allocs[t.idx()] + 1;
        total_work -= dag.cost(t).work(m - 1);
        total_work += dag.cost(t).work(m);
        allocs[t.idx()] = m;
        exec[t.idx()] = dag.cost(t).exec_time(m);
        level_total[dag.depth(t) as usize] += 1;
    }

    let out = CpaAllocation { pool, allocs, exec };
    #[cfg(debug_assertions)]
    crate::validate::assert_allocation_valid(dag, &out, "MCPA-reference");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa;
    use crate::dag::{chain, fork_join};
    use crate::task::TaskCost;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    #[test]
    fn level_totals_never_exceed_pool() {
        let dag = fork_join(c(600, 0.1), &[c(7200, 0.02); 10], c(600, 0.1));
        let pool = 16;
        let alloc = allocate(&dag, pool);
        let mut level_total = vec![0u32; dag.num_levels() as usize];
        for t in dag.task_ids() {
            level_total[dag.depth(t) as usize] += alloc.alloc(t);
        }
        for (l, &tot) in level_total.iter().enumerate() {
            assert!(tot <= pool, "level {l} over-allocated: {tot} > {pool}");
        }
    }

    #[test]
    fn wide_levels_stay_concurrency_friendly() {
        // 16 parallel tasks on 16 processors: MCPA must keep the middle
        // level's total at <= 16 (one processor each), unlike classic CPA.
        let dag = fork_join(c(60, 1.0), &[c(7200, 0.0); 16], c(60, 1.0));
        let mcpa = allocate(&dag, 16);
        let mids: u32 = (1..17).map(|i| mcpa.allocs[i]).sum();
        assert!(mids <= 16);
        let classic: u32 = cpa::allocate(&dag, 16, cpa::StoppingCriterion::Classic).allocs[1..17]
            .iter()
            .sum();
        assert!(
            mids <= classic,
            "MCPA middle total {mids} should not exceed CPA's {classic}"
        );
    }

    #[test]
    fn chains_behave_like_cpa() {
        // A chain has one task per level: the level constraint binds at
        // `pool`, same as CPA's per-task cap, so allocations match.
        let dag = chain(&[c(7200, 0.05); 5]);
        let mcpa = allocate(&dag, 32);
        let classic = cpa::allocate(&dag, 32, cpa::StoppingCriterion::Classic);
        assert_eq!(mcpa.allocs, classic.allocs);
    }

    #[test]
    fn incremental_matches_reference_on_forkjoin() {
        // The seeded daggen sweep lives in `tests/alloc_differential.rs`;
        // this in-module check covers the hand-built shapes.
        for width in [2usize, 6, 12] {
            let dag = fork_join(c(600, 0.1), &vec![c(7200, 0.05); width], c(600, 0.1));
            for pool in [1u32, 4, 16, 128] {
                assert_eq!(allocate(&dag, pool), allocate_reference(&dag, pool));
            }
        }
    }

    #[test]
    fn allocation_is_valid_and_deterministic() {
        let dag = fork_join(c(300, 0.1), &[c(5000, 0.1); 6], c(300, 0.1));
        let a = allocate(&dag, 24);
        let b = allocate(&dag, 24);
        assert_eq!(a, b);
        for t in dag.task_ids() {
            assert!(a.alloc(t) >= 1 && a.alloc(t) <= 24);
            assert_eq!(a.exec_time(t), dag.cost(t).exec_time(a.alloc(t)));
        }
    }
}
