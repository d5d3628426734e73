//! A one-step scheduling algorithm adapted to advance reservations —
//! the paper's first future-work direction (§7: "it would be interesting
//! to use the iCASLB algorithm instead of CPA. In fact, iCASLB could
//! perhaps be adapted directly to advance reservation scenarios").
//!
//! iCASLB (Vydyanathan et al., ICPP 2006) interleaves allocation and
//! mapping: starting from one processor per task it repeatedly grows the
//! allocation of a critical-path task, rebuilding the schedule after each
//! step, with a *look-ahead* over several candidates to avoid local minima.
//! Backfilling is inherited here from the reservation calendar's
//! earliest-fit query, which slides tasks into any hole left by competing
//! reservations or earlier placements.
//!
//! This adaptation evaluates every candidate growth step against the real
//! reservation schedule, so allocation decisions see reservation-induced
//! delays — exactly what the two-step CPA-based algorithms cannot do.
//! The `ext_icaslb` experiment compares it with `BL_CPAR_BD_CPAR`.

use crate::bl::{self, LevelTracker};
use crate::dag::{Dag, TaskId};
use crate::forward::{self, TieBreak};
use crate::obs;
use crate::schedule::{Placement, Schedule, ScheduleStats};
use resched_resv::{Calendar, Dur, Time};

/// How many critical-path candidates to evaluate per iteration (the
/// look-ahead width; the paper's iCASLB uses a small constant).
const LOOKAHEAD: usize = 3;
/// Stop after this many consecutive non-improving iterations.
const PATIENCE: usize = 4;
/// Hard cap on growth iterations (a safety net; the loop normally stops
/// via [`PATIENCE`]).
const MAX_ITERATIONS: usize = 2000;

/// Build the full reservation-aware schedule for a fixed allocation vector:
/// list scheduling by decreasing bottom level, earliest-fit per task.
///
/// `exec` and `levels` are maintained incrementally by the caller (one
/// allocation changes per growth step), so this no longer recomputes them.
/// `order`, `cal` and `slots` are working buffers the growth loop hands to
/// every build (one per look-ahead candidate); `out` receives the result.
#[allow(clippy::too_many_arguments)]
fn build_schedule(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    allocs: &[u32],
    exec: &[Dur],
    levels: &[Dur],
    stats: &mut ScheduleStats,
    order: &mut Vec<TaskId>,
    cal: &mut Calendar,
    slots: &mut Vec<Option<Placement>>,
    out: &mut Vec<Placement>,
) {
    crate::span!(obs::names::SPAN_ICASLB_BUILD);
    bl::order_by_decreasing_bl_into(dag, levels, order);
    cal.copy_from(competing);
    slots.clear();
    slots.resize(dag.num_tasks(), None);
    for &t in order.iter() {
        let ready = forward::ready_at(dag, slots, t, now);
        let m = allocs[t.idx()];
        let dur = exec[t.idx()];
        let pl = obs::probe::earliest_finish(cal, &[(m, dur)], ready, TieBreak::FewestProcs, stats);
        cal.add_unchecked(pl.reservation());
        slots[t.idx()] = Some(pl);
    }
    out.clear();
    out.extend(slots.iter().flatten().copied());
    debug_assert_eq!(out.len(), dag.num_tasks(), "all tasks placed");
}

fn makespan(placements: &[Placement]) -> Time {
    // `DagBuilder` rejects empty DAGs, so there is always a placement.
    placements.iter().map(|p| p.end).max().unwrap_or(Time::ZERO)
}

/// Critical-path candidates under the current allocation: tasks with
/// `tl + bl == CP`, ordered by decreasing marginal gain from one extra
/// processor. Levels come from the caller's [`LevelTracker`]; `gains` is
/// the growth loop's per-iteration candidate buffer.
fn cp_candidates(
    dag: &Dag,
    allocs: &[u32],
    cap: u32,
    exec: &[Dur],
    tracker: &LevelTracker,
    gains: &mut Vec<(TaskId, f64)>,
) {
    let bls = tracker.bottom();
    let tls = tracker.top();
    let cp = tracker.critical_path();
    gains.clear();
    gains.extend(
        dag.task_ids()
            .filter(|&t| tls[t.idx()] + bls[t.idx()] == cp)
            .filter(|&t| allocs[t.idx()] < cap)
            .filter(|&t| dag.cost(t).exec_time(allocs[t.idx()] + 1) < exec[t.idx()])
            .map(|t| (t, dag.cost(t).marginal_gain(allocs[t.idx()]))),
    );
    // The task-id tie-break makes the key injective, so the unstable sort
    // is deterministic.
    // Marginal gains are positive finite ratios, so `total_cmp` is their
    // numeric order.
    gains.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
}

/// Schedule `dag` with the reservation-aware one-step iCASLB adaptation.
///
/// Returns the best schedule found. Allocations are capped at `q` (the
/// historical average availability) — growing past the processors that are
/// typically free only delays start times.
pub fn schedule_icaslb(dag: &Dag, competing: &Calendar, now: Time, q: u32) -> Schedule {
    let p = competing.capacity();
    let cap = crate::pool::Pool::effective(q, p);
    let mut stats = ScheduleStats::default();
    stats.count_pass();

    let mut allocs = vec![1u32; dag.num_tasks()];
    let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
    let mut tracker = LevelTracker::new(dag, &exec);
    // The growth loop's buffers, reused across its iterations: candidate
    // gains, one build's working set (order, calendar, slots), and three
    // placement vectors (the candidate under evaluation, this iteration's
    // best, the best so far) rotated by swapping.
    let mut gains: Vec<(TaskId, f64)> = Vec::new();
    let (mut order, mut cal, mut slots) = (Vec::new(), Calendar::new(1), Vec::new());
    let (mut trial, mut step, mut best) = (Vec::new(), Vec::new(), Vec::new());
    let mut incr_touched = 0u64;
    build_schedule(
        dag,
        competing,
        now,
        &allocs,
        &exec,
        tracker.bottom(),
        &mut stats,
        &mut order,
        &mut cal,
        &mut slots,
        &mut best,
    );
    let mut best_makespan = makespan(&best);
    let mut best_cpu: i64 = best
        .iter()
        .map(|pl| pl.procs as i64 * pl.duration().as_seconds())
        .sum();
    let mut stalls = 0usize;

    crate::span!(obs::names::SPAN_ICASLB_GROW_LOOP);
    for _ in 0..MAX_ITERATIONS {
        if stalls >= PATIENCE {
            break;
        }
        cp_candidates(dag, &allocs, cap, &exec, &tracker, &mut gains);
        if gains.is_empty() {
            break;
        }
        // Look-ahead: evaluate the real makespan of each candidate growth.
        // Each trial nudges the tracked levels forward and back — an exact
        // round trip, since level maintenance is pure max-plus arithmetic.
        // The winning trial's placements are kept in `step` by swapping, so
        // the loop reuses two placement buffers instead of allocating one
        // per candidate.
        let mut best_step: Option<(TaskId, Time)> = None;
        for &(t, _) in gains.iter().take(LOOKAHEAD) {
            allocs[t.idx()] += 1;
            let old_exec = exec[t.idx()];
            exec[t.idx()] = dag.cost(t).exec_time(allocs[t.idx()]);
            incr_touched += tracker.update(dag, &exec, t);
            build_schedule(
                dag,
                competing,
                now,
                &allocs,
                &exec,
                tracker.bottom(),
                &mut stats,
                &mut order,
                &mut cal,
                &mut slots,
                &mut trial,
            );
            let m = makespan(&trial);
            allocs[t.idx()] -= 1;
            exec[t.idx()] = old_exec;
            incr_touched += tracker.update(dag, &exec, t);
            match &best_step {
                Some((_, bm)) if m >= *bm => {}
                _ => {
                    best_step = Some((t, m));
                    std::mem::swap(&mut trial, &mut step);
                }
            }
        }
        let Some((t, m)) = best_step else {
            break;
        };
        // Commit the best step even if it does not improve (escaping local
        // minima), but count the stall.
        allocs[t.idx()] += 1;
        exec[t.idx()] = dag.cost(t).exec_time(allocs[t.idx()]);
        incr_touched += tracker.update(dag, &exec, t);
        let cpu: i64 = step
            .iter()
            .map(|pl| pl.procs as i64 * pl.duration().as_seconds())
            .sum();
        if m < best_makespan || (m == best_makespan && cpu < best_cpu) {
            best_makespan = m;
            best_cpu = cpu;
            std::mem::swap(&mut step, &mut best);
            stalls = 0;
        } else {
            stalls += 1;
        }
    }

    obs::counter_add(obs::names::CPA_ALLOC_INCR_UPDATES, incr_touched);
    let mut out = Schedule::new(best, now);
    out.stats = stats;

    #[cfg(debug_assertions)]
    crate::validate::ScheduleValidator::new(dag, competing, now)
        .with_declared_bounds(vec![cap; dag.num_tasks()])
        .assert_valid(&out, "iCASLB-AR");

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::Algorithm;
    use crate::dag::{chain, fork_join};
    use crate::forward::{schedule_forward, ForwardConfig};
    use crate::task::TaskCost;
    use resched_resv::Reservation;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    #[test]
    fn produces_valid_schedules() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.1); 5], c(300, 0.1));
        let mut cal = Calendar::new(16);
        cal.try_add(Reservation::new(
            Time::seconds(100),
            Time::seconds(4000),
            10,
        ))
        .unwrap();
        let s = schedule_icaslb(&dag, &cal, Time::ZERO, 12);
        Algorithm::Icaslb
            .validator(&dag, &cal, Time::ZERO, None)
            .check(&s)
            .expect("valid");
    }

    #[test]
    fn improves_over_all_sequential() {
        // The all-1-processor starting point is strictly improvable here.
        let dag = chain(&[c(10_000, 0.0), c(10_000, 0.0)]);
        let cal = Calendar::new(8);
        let s = schedule_icaslb(&dag, &cal, Time::ZERO, 8);
        assert!(
            s.turnaround() < Dur::seconds(20_000),
            "iCASLB should beat the sequential baseline, got {}",
            s.turnaround()
        );
    }

    #[test]
    fn competitive_with_cpa_based_forward() {
        let dag = fork_join(c(600, 0.1), &[c(7200, 0.15); 6], c(600, 0.1));
        let mut cal = Calendar::new(16);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(7200), 12))
            .unwrap();
        let ic = schedule_icaslb(&dag, &cal, Time::ZERO, 10);
        let fw = schedule_forward(&dag, &cal, Time::ZERO, 10, ForwardConfig::recommended());
        Algorithm::Icaslb
            .validator(&dag, &cal, Time::ZERO, None)
            .check(&ic)
            .unwrap();
        // One-step with look-ahead should be within 50% of the two-step
        // algorithm on this simple instance (usually it is better).
        assert!(
            ic.turnaround().as_seconds() as f64 <= fw.turnaround().as_seconds() as f64 * 1.5,
            "iCASLB {} vs forward {}",
            ic.turnaround(),
            fw.turnaround()
        );
    }

    #[test]
    fn respects_capacity_cap() {
        let dag = chain(&[c(100_000, 0.0)]);
        let cal = Calendar::new(32);
        let s = schedule_icaslb(&dag, &cal, Time::ZERO, 4);
        assert!(s.placement(crate::dag::TaskId(0)).procs <= 4);
    }

    #[test]
    fn deterministic() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.1); 4], c(300, 0.1));
        let cal = Calendar::new(8);
        let a = schedule_icaslb(&dag, &cal, Time::ZERO, 8);
        let b = schedule_icaslb(&dag, &cal, Time::ZERO, 8);
        assert_eq!(a, b);
    }
}
