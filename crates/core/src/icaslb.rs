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

use crate::bl::{Marks, PosGraph};
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

fn makespan(placements: &[Placement]) -> Time {
    // `DagBuilder` rejects empty DAGs, so there is always a placement.
    placements.iter().map(|p| p.end).max().unwrap_or(Time::ZERO)
}

/// The growth loop's allocation, by topological position of one
/// [`PosGraph`]: a growth step or a trial moves one task's width, and
/// `PosGraph::propagate_bottom` re-establishes the bottom levels; the
/// candidates come from CPA's critical walk.
struct Levels {
    graph: PosGraph,
    allocs: Vec<u32>,
    exec: Vec<Dur>,
    bl: Vec<Dur>,
    marks: Marks,
    /// Positions re-swept so far (`cpa.alloc.incr_updates`).
    swept: u64,
}

impl Levels {
    fn new(dag: &Dag) -> Levels {
        let graph = PosGraph::new(dag);
        let n = graph.order().len();
        let ids = graph.order().iter();
        let exec: Vec<Dur> = ids.map(|&t| dag.cost(TaskId(t)).exec_time(1)).collect();
        let mut bl = vec![Dur::ZERO; n];
        graph.sweep_bottom(&exec, &mut bl, n);
        Levels {
            allocs: vec![1; n],
            exec,
            bl,
            marks: Marks::new(n),
            swept: 0,
            graph,
        }
    }

    /// Move the width of the task at position `u` by `by`.
    // lint:allow(panic-transitive): `u` is a position of this graph (from the critical walk), < num_tasks, and every array here is sized to the DAG in `new`.
    fn nudge(&mut self, dag: &Dag, u: usize, by: i32) {
        let t = TaskId(self.graph.order()[u]);
        self.allocs[u] = self.allocs[u].saturating_add_signed(by);
        let new = dag.cost(t).exec_time(self.allocs[u]);
        let old = std::mem::replace(&mut self.exec[u], new);
        let swept = self
            .graph
            .propagate_bottom(&self.exec, &mut self.bl, u, old);
        self.swept += swept as u64 + 1;
    }

    /// Critical-path candidates under the current allocation: critical
    /// tasks below `cap` with an integer-second improvement left, as
    /// `(position, marginal gain)`, ordered by decreasing gain, ties to
    /// the lower id. `gains` is the growth loop's per-iteration buffer.
    // lint:allow(panic-transitive): the walk yields positions < num_tasks, and every array here is sized to the DAG in `new`.
    fn cp_candidates(&mut self, dag: &Dag, cap: u32, gains: &mut Vec<(usize, f64)>) {
        let Levels {
            graph,
            allocs,
            exec,
            bl,
            marks,
            ..
        } = self;
        let ids = graph.order();
        let cp = graph.critical_length(bl);
        gains.clear();
        graph.walk_critical(exec, bl, cp, marks, |u, _| {
            let (cost, m) = (dag.cost(TaskId(ids[u])), allocs[u]);
            if m < cap && cost.exec_time(m + 1) < exec[u] {
                gains.push((u, cost.marginal_gain(m)));
            }
        });
        // The task-id tie-break makes the key injective, so the unstable sort
        // is deterministic and independent of the walk's visiting order.
        // Marginal gains are positive finite ratios, so `total_cmp` is their
        // numeric order.
        gains.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(ids[a.0].cmp(&ids[b.0])));
    }

    /// Build the full reservation-aware schedule for the current
    /// allocation: list scheduling by decreasing bottom level (positions
    /// sorted by `(Reverse(bl), task id)`, an injective key, so
    /// [`crate::bl::order_by_decreasing_bl`]'s order), earliest fit per
    /// task. `order`, `cal` and `slots` are working buffers the growth
    /// loop hands to every build (one per look-ahead candidate); `out`
    /// receives the result.
    #[allow(clippy::too_many_arguments)]
    // lint:allow(panic-transitive): positions come from this graph, built over `dag`, and are < num_tasks, and every array here is sized to the DAG in `new`.
    fn list_schedule(
        &self,
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        stats: &mut ScheduleStats,
        order: &mut Vec<usize>,
        cal: &mut Calendar,
        slots: &mut Vec<Option<Placement>>,
        out: &mut Vec<Placement>,
    ) {
        crate::span!(obs::names::SPAN_ICASLB_BUILD);
        let ids = self.graph.order();
        order.clear();
        order.extend(0..ids.len());
        order.sort_unstable_by_key(|&u| (std::cmp::Reverse(self.bl[u]), ids[u]));
        cal.copy_from(competing);
        slots.clear();
        slots.resize(dag.num_tasks(), None);
        for &u in order.iter() {
            let t = TaskId(ids[u]);
            let ready = forward::ready_at(dag, slots, t, now);
            let widths = [(self.allocs[u], self.exec[u])];
            let pl = obs::probe::earliest_finish(cal, &widths, ready, TieBreak::FewestProcs, stats);
            cal.add_unchecked(pl.reservation());
            slots[t.idx()] = Some(pl);
        }
        out.clear();
        out.extend(slots.iter().flatten().copied());
        debug_assert_eq!(out.len(), dag.num_tasks(), "all tasks placed");
    }
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

    let mut lv = Levels::new(dag);
    // The growth loop's buffers, reused across its iterations: candidate
    // gains, one build's working set (order, calendar, slots), and three
    // placement vectors (the candidate under evaluation, this iteration's
    // best, the best so far) rotated by swapping.
    let mut gains: Vec<(usize, f64)> = Vec::new();
    let (mut order, mut cal, mut slots) = (Vec::new(), Calendar::new(1), Vec::new());
    let (mut trial, mut step, mut best) = (Vec::new(), Vec::new(), Vec::new());
    let mut build = |lv: &Levels, stats: &mut ScheduleStats, out: &mut Vec<Placement>| {
        lv.list_schedule(
            dag, competing, now, stats, &mut order, &mut cal, &mut slots, out,
        );
    };
    build(&lv, &mut stats, &mut best);
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
        lv.cp_candidates(dag, cap, &mut gains);
        if gains.is_empty() {
            break;
        }
        // Look-ahead: evaluate the real makespan of each candidate growth.
        // Each trial nudges the levels forward and back — an exact round
        // trip, since level maintenance is pure max-plus arithmetic.
        // The winning trial's placements are kept in `step` by swapping, so
        // the loop reuses two placement buffers instead of allocating one
        // per candidate.
        let mut best_step: Option<(usize, Time)> = None;
        for &(u, _) in gains.iter().take(LOOKAHEAD) {
            lv.nudge(dag, u, 1);
            build(&lv, &mut stats, &mut trial);
            let span = makespan(&trial);
            lv.nudge(dag, u, -1);
            match &best_step {
                Some((_, bm)) if span >= *bm => {}
                _ => {
                    best_step = Some((u, span));
                    std::mem::swap(&mut trial, &mut step);
                }
            }
        }
        let Some((u, m)) = best_step else {
            break;
        };
        // Commit the best step even if it does not improve (escaping local
        // minima), but count the stall.
        lv.nudge(dag, u, 1);
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

    obs::counter_add(obs::names::CPA_ALLOC_INCR_UPDATES, lv.swept);
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
