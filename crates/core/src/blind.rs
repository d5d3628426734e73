//! Scheduling *without* visibility into the reservation schedule —
//! the paper's §3.2.2 relaxation ("system administrators may not be willing
//! to enable this feature. In this case, the application schedule would
//! have to be determined via (a bounded number of) trial-and-error
//! reservation requests for each application task").
//!
//! The scheduler only interacts with the batch system through
//! [`ReservationDesk`]: it may *probe* a `(procs, duration, earliest-start)`
//! request and is told the start time the system would grant (the paper's
//! model where a denied exact-time request is countered with the earliest
//! feasible alternative), and it may *commit* a reservation. The number of
//! probes per task is bounded.
//!
//! [`schedule_blind`] reproduces the `BL_CPAR / BD_CPAR` structure on top
//! of this narrow interface, probing a geometric ladder of processor counts
//! instead of exhaustively scanning `1..=bound`. The `ext_blind` experiment
//! quantifies what the lost visibility costs relative to
//! [`crate::forward::schedule_forward`].

use crate::bl::{self, BlMethod};
use crate::cpa::{CpaCache, StoppingCriterion};
use crate::dag::Dag;
use crate::forward;
use crate::obs;
use crate::pool::Pool;
use crate::schedule::{Placement, Schedule, ScheduleStats};
use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};

/// The narrow batch-system interface available to a blind scheduler.
pub struct ReservationDesk {
    cal: Calendar,
    probes: u64,
    commits: u64,
}

impl ReservationDesk {
    /// Wrap a calendar behind the trial-and-error interface.
    pub fn new(cal: Calendar) -> ReservationDesk {
        ReservationDesk {
            cal,
            probes: 0,
            commits: 0,
        }
    }

    /// Platform size (public knowledge).
    pub fn capacity(&self) -> u32 {
        self.cal.capacity()
    }

    /// Ask when a reservation of `procs × dur` starting no earlier than
    /// `not_before` could begin. Counts as one probe.
    pub fn probe(&mut self, procs: u32, dur: Dur, not_before: Time) -> Time {
        let mut cost = QueryCost::default();
        self.probe_with_cost(procs, dur, not_before, &mut cost)
    }

    /// [`Self::probe`], tallying the calendar query work into `cost`.
    fn probe_with_cost(
        &mut self,
        procs: u32,
        dur: Dur,
        not_before: Time,
        cost: &mut QueryCost,
    ) -> Time {
        self.probes += 1;
        self.cal
            .earliest_finish(&[(procs, dur)], not_before, false, cost)
            .start
    }

    /// Commit a reservation previously discovered through [`Self::probe`].
    ///
    /// # Panics
    /// Panics if the reservation no longer fits (cannot happen in this
    /// single-client simulation; the paper's dynamic-competition relaxation
    /// is exercised by the `ext_dynamic` bench instead).
    pub fn commit(&mut self, r: Reservation) {
        self.commits += 1;
        self.cal
            .try_add(r)
            // lint:allow(panic): documented contract (see doc comment) — the desk is single-client, so a slot found by probe cannot be taken before commit.
            .expect("probed reservation must still fit");
    }

    /// Number of probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Number of reservations committed.
    pub fn commits(&self) -> u64 {
        self.commits
    }
}

impl std::fmt::Debug for ReservationDesk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReservationDesk")
            .field("capacity", &self.cal.capacity())
            .field("probes", &self.probes)
            .field("commits", &self.commits)
            .finish()
    }
}

/// CPA stopping criterion of the blind scheduler's bottom levels and
/// allocation bounds.
const CRITERION: StoppingCriterion = StoppingCriterion::Classic;

/// Configuration for the blind scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlindConfig {
    /// Maximum probes per task (the paper's "bounded number").
    pub probes_per_task: usize,
}

impl Default for BlindConfig {
    fn default() -> Self {
        BlindConfig { probes_per_task: 8 }
    }
}

/// Schedule `dag` through the trial-and-error interface only.
///
/// `q_estimate` plays the role of the historical average availability —
/// which the user can estimate from their own past interactions even
/// without reservation-schedule visibility.
pub fn schedule_blind(
    dag: &Dag,
    desk: &mut ReservationDesk,
    now: Time,
    q_estimate: u32,
    cfg: BlindConfig,
) -> Schedule {
    let p = desk.capacity();
    let q = Pool::effective(q_estimate, p);
    // Snapshot the calendar before our own commits land in it, so the
    // post-pass can audit against the competing load alone.
    #[cfg(debug_assertions)]
    let competing_at_entry = desk.cal.clone();
    let mut stats = ScheduleStats::default();
    stats.passes += 1;
    stats.cpa_allocations += 1;

    // Bottom levels and bounds exactly as BL_CPAR / BD_CPAR would; the
    // per-call cache computes the CPA(q) allocation once for both roles.
    let mut cache = CpaCache::new();
    let bounds: Vec<u32> = cache
        .cpa(dag, q, CRITERION)
        .allocs
        .iter()
        .map(|&a| a.clamp(1, p))
        .collect();
    let exec = cache.exec_times(dag, p, q, BlMethod::CpaR, CRITERION);
    let levels = bl::bottom_levels(dag, &exec);
    let order = bl::order_by_decreasing_bl(dag, &levels);

    crate::span!(obs::names::SPAN_BLIND_PLACE);
    let mut slots: Vec<Option<Placement>> = vec![None; dag.num_tasks()];
    // The geometric probe ladder, rebuilt per task.
    let mut ladder: Vec<u32> = Vec::new();
    for &t in &order {
        let ready = forward::ready_at(dag, &slots, t, now);
        let cost = dag.cost(t);
        let bound = bounds[t.idx()];

        // Probe a geometric ladder of processor counts within the bound:
        // 1, 2, 4, ... bound (always including 1 and bound), spending at
        // most `probes_per_task` probes.
        ladder.clear();
        let mut m = 1u32;
        while m < bound && ladder.len() + 1 < cfg.probes_per_task {
            ladder.push(m);
            m *= 2;
        }
        ladder.push(bound);
        ladder.dedup();

        let mut best: Option<Placement> = None;
        for &m in ladder.iter() {
            let dur = cost.exec_time(m);
            let mut qc = QueryCost::default();
            let s = desk.probe_with_cost(m, dur, ready, &mut qc);
            obs::probe::record_desk_probe(qc, &mut stats);
            let end = s + dur;
            let better = match &best {
                None => true,
                Some(b) => end < b.end || (end == b.end && m < b.procs),
            };
            if better {
                best = Some(Placement {
                    start: s,
                    end,
                    procs: m,
                });
            }
        }
        // lint:allow(panic): the ladder always contains at least `bound` (pushed unconditionally), so one probe always ran.
        let chosen = best.expect("ladder is never empty");
        desk.commit(Reservation::new(chosen.start, chosen.end, chosen.procs));
        slots[t.idx()] = Some(chosen);
    }

    let mut out = Schedule::new(slots.into_iter().flatten().collect(), now);
    debug_assert_eq!(out.placements().len(), dag.num_tasks(), "all tasks placed");
    out.stats = stats;

    #[cfg(debug_assertions)]
    crate::validate::ScheduleValidator::new(dag, &competing_at_entry, now)
        .with_declared_bounds(bounds)
        .assert_valid(&out, "BLIND");

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::Algorithm;
    use crate::dag::{chain, fork_join};
    use crate::forward::{schedule_forward, ForwardConfig};
    use crate::task::TaskCost;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    fn busy_cal() -> Calendar {
        let mut cal = Calendar::new(16);
        cal.try_add(Reservation::new(Time::seconds(50), Time::seconds(4000), 12))
            .unwrap();
        cal.try_add(Reservation::new(
            Time::seconds(6000),
            Time::seconds(9000),
            8,
        ))
        .unwrap();
        cal
    }

    #[test]
    fn blind_schedule_is_valid() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.15); 5], c(300, 0.1));
        let cal = busy_cal();
        let mut desk = ReservationDesk::new(cal.clone());
        let s = schedule_blind(&dag, &mut desk, Time::ZERO, 8, BlindConfig::default());
        Algorithm::Blind
            .validator(&dag, &cal, Time::ZERO, None)
            .check(&s)
            .expect("valid blind schedule");
    }

    #[test]
    fn probe_budget_is_respected() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.15); 5], c(300, 0.1));
        let mut desk = ReservationDesk::new(busy_cal());
        let cfg = BlindConfig { probes_per_task: 3 };
        let _ = schedule_blind(&dag, &mut desk, Time::ZERO, 8, cfg);
        assert!(desk.probes() <= 3 * dag.num_tasks() as u64);
        assert_eq!(desk.commits(), dag.num_tasks() as u64);
    }

    #[test]
    fn blind_is_no_better_than_full_knowledge_modulo_tolerance() {
        let dag = fork_join(c(600, 0.1), &[c(7200, 0.1); 6], c(600, 0.1));
        let cal = busy_cal();
        let mut desk = ReservationDesk::new(cal.clone());
        let blind = schedule_blind(&dag, &mut desk, Time::ZERO, 8, BlindConfig::default());
        let full = schedule_forward(&dag, &cal, Time::ZERO, 8, ForwardConfig::recommended());
        // Blind probing is a restriction of the full search, so it should
        // not beat it by more than greedy noise.
        assert!(
            blind.turnaround().as_seconds() as f64 >= full.turnaround().as_seconds() as f64 * 0.9,
            "blind {} suspiciously beats full {}",
            blind.turnaround(),
            full.turnaround()
        );
    }

    #[test]
    fn single_probe_per_task_still_works() {
        let dag = chain(&[c(1000, 0.0), c(1000, 0.0)]);
        let mut desk = ReservationDesk::new(Calendar::new(4));
        let cfg = BlindConfig { probes_per_task: 1 };
        let s = schedule_blind(&dag, &mut desk, Time::ZERO, 4, cfg);
        assert_eq!(s.placements().len(), 2);
        // Against the base calendar: the desk's own now holds the
        // schedule's reservations.
        Algorithm::Blind
            .validator(&dag, &Calendar::new(4), Time::ZERO, None)
            .check(&s)
            .expect("valid blind schedule");
    }

    #[test]
    fn desk_counters() {
        let mut desk = ReservationDesk::new(Calendar::new(4));
        assert_eq!(desk.capacity(), 4);
        let s = desk.probe(2, Dur::seconds(100), Time::ZERO);
        desk.commit(Reservation::for_duration(s, Dur::seconds(100), 2));
        assert_eq!(desk.probes(), 1);
        assert_eq!(desk.commits(), 1);
    }
}
