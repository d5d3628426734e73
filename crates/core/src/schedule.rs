//! Application schedules: one reservation per task, plus the metrics used
//! throughout the workspace. Whether a schedule is valid is
//! [`crate::validate::ScheduleValidator`]'s to say.

use crate::dag::{Dag, TaskId};
use resched_resv::{Dur, Reservation, Time};
use serde::{Deserialize, Serialize};

/// The reservation chosen for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Start of the task's reservation.
    pub start: Time,
    /// End of the task's reservation (start + execution time on `procs`).
    pub end: Time,
    /// Number of processors reserved.
    pub procs: u32,
}

impl Placement {
    /// The reservation corresponding to this placement.
    pub fn reservation(&self) -> Reservation {
        Reservation::new(self.start, self.end, self.procs)
    }

    /// Duration of the placement.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }
}

/// Counters describing the work a scheduling algorithm performed. Used by the
/// empirical complexity experiments (paper §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Number of calendar slot queries issued: one `earliest_finish` per
    /// task for the forward family (it decides among all the task's widths
    /// in one walk); per task decision of a deadline pass one
    /// `latest_start`, after one `narrowest_start_from` per chunk of widths
    /// the conservative rule asked about; one single-candidate
    /// `earliest_finish` per placement elsewhere.
    pub slot_queries: u64,
    /// Work done answering those queries: calendar slots inspected, plus
    /// one positioning step per query (see `resched_resv::QueryCost`) —
    /// memory touches proportional to search effort.
    pub slot_steps: u64,
    /// Number of CPA allocation-phase runs.
    pub cpa_allocations: u64,
    /// Number of CPA mapping (list-scheduling) runs.
    pub cpa_mappings: u64,
    /// Number of whole-DAG backward passes (λ retries count individually).
    pub passes: u64,
}

impl ScheduleStats {
    /// Merge counters from another run into this one.
    pub fn absorb(&mut self, other: ScheduleStats) {
        self.slot_queries += other.slot_queries;
        self.slot_steps += other.slot_steps;
        self.cpa_allocations += other.cpa_allocations;
        self.cpa_mappings += other.cpa_mappings;
        self.passes += other.passes;
    }

    /// Fold a calendar query-cost tally into these stats.
    pub fn absorb_query_cost(&mut self, cost: resched_resv::QueryCost) {
        self.slot_queries += cost.queries;
        self.slot_steps += cost.steps;
    }

    /// Count one CPA allocation-phase run, mirrored into the ambient
    /// observability registry so [`crate::obs::MetricsRegistry::stats_view`]
    /// stays a faithful reconstruction of these fields.
    pub fn count_cpa_allocation(&mut self) {
        self.cpa_allocations += 1;
        crate::obs::counter_add(crate::obs::names::STATS_CPA_ALLOCATIONS, 1);
    }

    /// Count one CPA mapping (list-scheduling) run, mirrored into the
    /// ambient observability registry.
    pub fn count_cpa_mapping(&mut self) {
        self.cpa_mappings += 1;
        crate::obs::counter_add(crate::obs::names::STATS_CPA_MAPPINGS, 1);
    }

    /// Count one whole-DAG scheduling pass, mirrored into the ambient
    /// observability registry.
    pub fn count_pass(&mut self) {
        self.passes += 1;
        crate::obs::counter_add(crate::obs::names::STATS_PASSES, 1);
    }
}

/// A complete schedule: one [`Placement`] per task of the DAG, plus the
/// scheduling instant `now` against which turn-around time is measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    placements: Vec<Placement>,
    now: Time,
    /// Work counters from the algorithm that produced this schedule.
    pub stats: ScheduleStats,
}

impl Schedule {
    /// Assemble a schedule from per-task placements (indexed by task id).
    pub fn new(placements: Vec<Placement>, now: Time) -> Schedule {
        Schedule {
            placements,
            now,
            stats: ScheduleStats::default(),
        }
    }

    /// The placement of task `t`.
    #[inline]
    pub fn placement(&self, t: TaskId) -> Placement {
        self.placements[t.idx()]
    }

    /// All placements, indexed by task id.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// All placements in canonical drawing/replay order: by start time,
    /// then end time, then task id.
    ///
    /// Ties are real: zero-slack chains and width-0-cost tasks routinely
    /// start at identical instants, and iteration order would otherwise
    /// depend on incidental map/sort stability. Every consumer that walks
    /// placements chronologically (Gantt/SVG rendering, validator replays)
    /// uses this order so output is deterministic across runs.
    pub fn placements_by_start(&self) -> Vec<(TaskId, Placement)> {
        let mut out: Vec<(TaskId, Placement)> = Vec::with_capacity(self.placements.len());
        out.extend(
            self.placements
                .iter()
                .enumerate()
                .map(|(i, pl)| (TaskId(i as u32), *pl)),
        );
        // The key ends in the task id, so no two entries compare equal and
        // the unstable sort is deterministic (and skips the stable sort's
        // merge-buffer allocation).
        out.sort_unstable_by_key(|&(t, pl)| (pl.start, pl.end, t));
        out
    }

    /// The instant the application was scheduled ("now").
    pub fn now(&self) -> Time {
        self.now
    }

    /// Completion time of the whole application (latest placement end).
    pub fn completion(&self) -> Time {
        self.placements
            .iter()
            .map(|p| p.end)
            .max()
            // Schedules carry one placement per task and `DagBuilder`
            // rejects empty DAGs; nothing placed completes at once.
            .unwrap_or(self.now)
    }

    /// Start of the earliest placement.
    pub fn first_start(&self) -> Time {
        self.placements
            .iter()
            .map(|p| p.start)
            .min()
            .expect("schedule of an empty DAG")
    }

    /// Turn-around time: completion minus the scheduling instant
    /// (the paper's RESSCHED objective).
    pub fn turnaround(&self) -> Dur {
        self.completion() - self.now
    }

    /// Total CPU-hours consumed (the paper's resource-consumption metric).
    pub fn cpu_hours(&self) -> f64 {
        self.placements
            .iter()
            .map(|p| p.reservation().cpu_hours())
            .sum()
    }

    /// Total processor-seconds consumed.
    pub fn proc_seconds(&self) -> i64 {
        self.placements
            .iter()
            .map(|p| p.reservation().proc_seconds())
            .sum()
    }

    /// Mean parallel efficiency across tasks: for each task, the speedup
    /// achieved on its reserved processors divided by the processor count,
    /// averaged unweighted.
    ///
    /// 1.0 means no Amdahl loss anywhere; aggressive over-allocation pushes
    /// this toward 0 — the mechanism behind the paper's CPU-hour gaps.
    pub fn mean_parallel_efficiency(&self, dag: &Dag) -> f64 {
        let n = dag.num_tasks();
        if n == 0 {
            return 1.0;
        }
        dag.task_ids()
            .map(|t| dag.cost(t).efficiency(self.placement(t).procs))
            .sum::<f64>()
            / n as f64
    }

    /// Packing density: the application's useful work (1-processor
    /// seconds) divided by the processor-seconds it reserved.
    pub fn packing_density(&self, dag: &Dag) -> f64 {
        let reserved = self.proc_seconds();
        if reserved == 0 {
            return 0.0;
        }
        dag.total_seq_work() as f64 / reserved as f64
    }

    /// Maximum number of processors this schedule holds simultaneously.
    pub fn peak_procs(&self) -> u32 {
        // Sweep over placement boundaries.
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(self.placements.len() * 2);
        for p in &self.placements {
            events.push((p.start, p.procs as i64));
            events.push((p.end, -(p.procs as i64)));
        }
        events.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::chain;
    use crate::task::TaskCost;
    use crate::validate::{ScheduleValidator, Violation};
    use resched_resv::Calendar;

    fn two_task_dag() -> Dag {
        chain(&[
            TaskCost::new(Dur::seconds(100), 0.0),
            TaskCost::new(Dur::seconds(200), 0.0),
        ])
    }

    fn pl(s: i64, e: i64, m: u32) -> Placement {
        Placement {
            start: Time::seconds(s),
            end: Time::seconds(e),
            procs: m,
        }
    }

    #[test]
    fn canonical_order_breaks_ties_by_task_id() {
        // Tasks 3 and 1 share a start; 1 and 3 also share an end, so the
        // final tie falls through to the task id. Task 2 starts earliest.
        let sched = Schedule::new(
            vec![
                pl(50, 200, 1), // t0
                pl(10, 100, 1), // t1
                pl(0, 40, 2),   // t2
                pl(10, 100, 3), // t3
            ],
            Time::ZERO,
        );
        let order: Vec<u32> = sched
            .placements_by_start()
            .iter()
            .map(|(t, _)| t.0)
            .collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
        // The order is a pure function of the placements: recomputing it
        // (or computing it on a clone) yields the identical sequence.
        assert_eq!(
            sched.placements_by_start(),
            sched.clone().placements_by_start()
        );
    }

    #[test]
    fn metrics() {
        let sched = Schedule::new(vec![pl(0, 100, 1), pl(100, 300, 1)], Time::ZERO);
        assert_eq!(sched.turnaround(), Dur::seconds(300));
        assert_eq!(sched.completion(), Time::seconds(300));
        assert_eq!(sched.first_start(), Time::ZERO);
        assert_eq!(sched.proc_seconds(), 300);
        assert!((sched.cpu_hours() - 300.0 / 3600.0).abs() < 1e-12);
    }

    /// The oracle's first violation for `sched` of [`two_task_dag`] against
    /// `cal`, released at time 0.
    fn check(sched: &Schedule, cal: &Calendar) -> Result<(), Violation> {
        ScheduleValidator::new(&two_task_dag(), cal, Time::ZERO).check(sched)
    }

    #[test]
    fn validate_accepts_good_schedule() {
        let sched = Schedule::new(vec![pl(0, 100, 1), pl(100, 300, 1)], Time::ZERO);
        assert_eq!(check(&sched, &Calendar::new(4)), Ok(()));
    }

    #[test]
    fn validate_catches_precedence_violation() {
        let sched = Schedule::new(vec![pl(0, 100, 1), pl(50, 250, 1)], Time::ZERO);
        assert!(matches!(
            check(&sched, &Calendar::new(4)),
            Err(Violation::PrecedenceViolation { .. })
        ));
    }

    #[test]
    fn validate_catches_short_reservation() {
        let cal = Calendar::new(4);
        // Task 0 needs 100s on 1 proc but reserved 50s.
        let short = Schedule::new(vec![pl(0, 50, 1), pl(100, 300, 1)], Time::ZERO);
        assert!(matches!(
            check(&short, &cal),
            Err(Violation::DurationMismatch { .. })
        ));
        // A padded reservation is no better: the model's duration exactly.
        let padded = Schedule::new(vec![pl(0, 150, 1), pl(150, 350, 1)], Time::ZERO);
        assert!(matches!(
            check(&padded, &cal),
            Err(Violation::DurationMismatch { .. })
        ));
    }

    #[test]
    fn validate_catches_capacity_violation() {
        let mut cal = Calendar::new(2);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(500), 2))
            .unwrap();
        // Platform is fully reserved; any placement conflicts.
        let sched = Schedule::new(vec![pl(0, 100, 1), pl(100, 300, 1)], Time::ZERO);
        assert!(matches!(
            check(&sched, &cal),
            Err(Violation::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn validate_catches_start_in_past() {
        let sched = Schedule::new(vec![pl(-10, 90, 1), pl(100, 300, 1)], Time::ZERO);
        assert!(matches!(
            check(&sched, &Calendar::new(4)),
            Err(Violation::ReleaseViolation { .. })
        ));
    }

    #[test]
    fn validate_catches_wrong_count() {
        let sched = Schedule::new(vec![pl(0, 100, 1)], Time::ZERO);
        assert!(matches!(
            check(&sched, &Calendar::new(4)),
            Err(Violation::TaskCountMismatch { .. })
        ));
    }

    #[test]
    fn amdahl_speedup_makes_shorter_reservation_valid() {
        // Task 0 on 2 procs (alpha = 0) needs only 50s.
        let sched = Schedule::new(vec![pl(0, 50, 2), pl(50, 150, 2)], Time::ZERO);
        assert_eq!(check(&sched, &Calendar::new(4)), Ok(()));
    }

    #[test]
    fn efficiency_statistics() {
        let dag = two_task_dag(); // alpha = 0 everywhere
        let sched = Schedule::new(vec![pl(0, 50, 2), pl(50, 150, 2)], Time::ZERO);
        // alpha = 0 tasks at any allocation are perfectly efficient.
        assert!((sched.mean_parallel_efficiency(&dag) - 1.0).abs() < 1e-9);
        // Useful work 300s; reserved 2x50 + 2x100 = 300 proc-seconds.
        assert!((sched.packing_density(&dag) - 1.0).abs() < 1e-9);
        assert_eq!(sched.peak_procs(), 2);
        // Overlapping placements raise the peak.
        let overlap = Schedule::new(vec![pl(0, 100, 2), pl(50, 150, 3)], Time::ZERO);
        assert_eq!(overlap.peak_procs(), 5);
    }

    #[test]
    fn padding_reduces_packing_density() {
        let dag = two_task_dag();
        // Same placements but each reservation padded 2x longer.
        let padded = Schedule::new(vec![pl(0, 100, 2), pl(100, 300, 2)], Time::ZERO);
        assert!(padded.packing_density(&dag) < 0.5 + 1e-9);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ScheduleStats {
            slot_queries: 1,
            slot_steps: 5,
            cpa_allocations: 2,
            cpa_mappings: 3,
            passes: 4,
        };
        a.absorb(ScheduleStats {
            slot_queries: 10,
            slot_steps: 50,
            cpa_allocations: 20,
            cpa_mappings: 30,
            passes: 40,
        });
        assert_eq!(a.slot_queries, 11);
        assert_eq!(a.slot_steps, 55);
        assert_eq!(a.cpa_allocations, 22);
        assert_eq!(a.cpa_mappings, 33);
        assert_eq!(a.passes, 44);
    }

    #[test]
    fn stats_absorb_query_cost() {
        let mut a = ScheduleStats::default();
        a.absorb_query_cost(resched_resv::QueryCost {
            queries: 3,
            steps: 17,
        });
        assert_eq!(a.slot_queries, 3);
        assert_eq!(a.slot_steps, 17);
    }
}
