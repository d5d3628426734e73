//! The batch queue behind log generation.
//!
//! The synthetic generator needs to turn an arrival stream into a
//! *feasible* execution log; how it does so shapes the wait-time dynamics
//! the reservation extraction later samples. The discipline is
//! conservative backfilling: every job is placed at its earliest feasible
//! slot at arrival, so a job may leap ahead only if it delays nobody
//! (earlier jobs already hold their slots).

use resched_resv::{Calendar, Dur, Reservation, Time};

/// One job request: eligible instant (arrival into the queue), runtime,
/// processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// When the job enters the queue.
    pub eligible: Time,
    /// Execution duration.
    pub runtime: Dur,
    /// Processors required.
    pub procs: u32,
}

/// Assign a start time to every request under conservative backfilling.
/// Requests must be sorted by `eligible`. Returns starts in request order;
/// the resulting execution is guaranteed feasible on `machine` processors.
pub fn assign_starts(requests: &[Request], machine: u32) -> Vec<Time> {
    assert!(machine > 0);
    debug_assert!(requests.windows(2).all(|w| w[0].eligible <= w[1].eligible));
    let mut cal = Calendar::new(machine);
    requests
        .iter()
        .map(|r| {
            let s = cal.earliest_fit(r.procs, r.runtime, r.eligible);
            cal.add_unchecked(Reservation::for_duration(s, r.runtime, r.procs));
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> Time {
        Time::seconds(s)
    }
    fn req(el: i64, run: i64, procs: u32) -> Request {
        Request {
            eligible: t(el),
            runtime: Dur::seconds(run),
            procs,
        }
    }

    /// Brute-force feasibility check of an assignment.
    fn feasible(requests: &[Request], starts: &[Time], machine: u32) -> bool {
        let mut cal = Calendar::new(machine);
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| starts[i]);
        order.into_iter().all(|i| {
            cal.try_add(Reservation::for_duration(
                starts[i],
                requests[i].runtime,
                requests[i].procs,
            ))
            .is_ok()
        })
    }

    #[test]
    fn all_disciplines_produce_feasible_schedules() {
        let reqs = vec![
            req(0, 100, 3),
            req(5, 50, 2),
            req(10, 200, 4),
            req(12, 30, 1),
            req(40, 80, 2),
        ];
        let starts = assign_starts(&reqs, 4);
        assert!(feasible(&reqs, &starts, 4));
        for (r, &s) in reqs.iter().zip(&starts) {
            assert!(s >= r.eligible, "started a job early");
        }
    }

    #[test]
    fn empty_request_list_yields_empty_starts() {
        assert!(assign_starts(&[], 4).is_empty());
    }

    #[test]
    fn single_request_starts_at_its_eligible_time() {
        let reqs = vec![req(42, 100, 3)];
        assert_eq!(assign_starts(&reqs, 4), vec![t(42)]);
    }

    #[test]
    fn single_request_wider_than_free_pool_still_waits_nowhere() {
        // One job asking for the whole machine on an empty calendar starts
        // immediately.
        let reqs = vec![req(7, 500, 4)];
        assert_eq!(assign_starts(&reqs, 4), vec![t(7)]);
    }

    #[test]
    fn simultaneous_arrivals_break_ties_in_submission_order() {
        // Three identical jobs arriving at the same instant on a machine
        // that fits one at a time: earlier-submitted must start earlier.
        let reqs = vec![req(0, 100, 4), req(0, 100, 4), req(0, 100, 4)];
        let starts = assign_starts(&reqs, 4);
        assert_eq!(starts, vec![t(0), t(100), t(200)]);
        assert!(feasible(&reqs, &starts, 4));
    }

    #[test]
    fn conservative_backfills_ahead_of_a_blocked_wide_job() {
        // Job 0 holds 7 of 8 processors until 2000; job 1 needs all 8, so
        // it waits for job 0. Job 2 arrives after job 1 but needs one
        // processor for 50 s: it fits in the free one now and delays
        // nobody, so it leaps ahead of job 1.
        let reqs = vec![req(0, 2000, 7), req(5, 100, 8), req(10, 50, 1)];
        let starts = assign_starts(&reqs, 8);
        assert_eq!(starts, vec![t(0), t(2000), t(10)]);
        assert!(feasible(&reqs, &starts, 8));
    }
}
