//! The instance floor: an instant before which no valid schedule of an
//! instance `(dag, competing, now)` completes.
//!
//! These are the two standard bounds of moldable list scheduling (critical
//! path and area; Perotin, Sun & Raghavan), with the free capacity read off
//! the calendar instead of a constant `p`:
//!
//! * **critical path** — `now` plus the longest path with every task at its
//!   fastest duration over the widths it may take. A valid schedule starts
//!   every task at or after `now` and after its predecessors end, and runs
//!   it for exactly `exec_time(m)` on such a width;
//! * **area** — the first instant by which the processor-seconds the
//!   competing calendar leaves free after `now` cover `Σ seq_i`
//!   ([`Calendar::earliest_free_work`]). A valid schedule holds
//!   `m_i · t_i(m_i)` free processor-seconds for task `i` between `now` and
//!   its completion, and `m · t(m) ≥ seq` for every `m`.
//!
//! So a deadline below the floor is infeasible for every algorithm, which is
//! how [`Roster`](crate::backward::Roster) answers it without running one, and
//! a completion below it marks a schedule invalid without sharing a line
//! with [`ScheduleValidator`](crate::validate::ScheduleValidator): the
//! second oracle ([`Floor::check`]). DESIGN.md §9 has both exactness proofs.

use crate::dag::Dag;
use crate::schedule::Schedule;
use crate::task::TaskCost;
use resched_resv::{Calendar, Dur, Time};
use std::fmt;

/// The two halves of an instance's lower bound on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floor {
    /// `LB_cp`: `now` plus the longest path at the fastest durations.
    pub critical_path: Time,
    /// `LB_area`: the first instant by which the free processor-seconds
    /// after `now` cover the DAG's sequential work.
    pub area: Time,
}

impl Floor {
    /// The floor of `dag` scheduled at `now` against `competing`, on widths
    /// in whole `grain`-core units (1 for flat placement; clamped into
    /// `1..=p` as the schedulers clamp it).
    pub fn of(dag: &Dag, competing: &Calendar, now: Time, grain: u32) -> Floor {
        let p = competing.capacity();
        // Earliest finish of each task on an unbounded platform at its
        // fastest width, in topological order.
        let mut finish = vec![Dur::ZERO; dag.num_tasks()];
        let mut longest = Dur::ZERO;
        for &t in dag.topo_order() {
            let ready = dag
                .preds(t)
                .iter()
                .filter_map(|u| finish.get(u.idx()).copied())
                .max()
                .unwrap_or(Dur::ZERO);
            let end = ready + fastest(&dag.cost(t), p, grain);
            if let Some(f) = finish.get_mut(t.idx()) {
                *f = end;
            }
            longest = longest.max(end);
        }
        Floor {
            critical_path: now + longest,
            area: competing.earliest_free_work(now, dag.total_seq_work()),
        }
    }

    /// The floor itself, `max(LB_cp, LB_area)`.
    pub fn time(self) -> Time {
        self.critical_path.max(self.area)
    }

    /// The second oracle: `sched` completes no earlier than the floor, a
    /// necessary condition of validity that shares no code with
    /// [`ScheduleValidator`](crate::validate::ScheduleValidator).
    pub fn check(self, sched: &Schedule) -> Result<(), BelowFloor> {
        let completion = sched.completion();
        if completion < self.time() {
            return Err(BelowFloor {
                completion,
                floor: self,
            });
        }
        Ok(())
    }
}

/// A schedule that completes before its instance's [`Floor`]: no valid
/// schedule can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BelowFloor {
    /// When the schedule completes.
    pub completion: Time,
    /// The floor it beats.
    pub floor: Floor,
}

impl fmt::Display for BelowFloor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Floor {
            critical_path,
            area,
        } = self.floor;
        write!(
            f,
            "completion {} is before the instance floor {} (critical path {critical_path}, area {area})",
            self.completion,
            self.floor.time()
        )
    }
}

impl std::error::Error for BelowFloor {}

/// The shortest execution time over the widths a scheduler can give a task
/// of cost `c` on `p` processors in whole `grain`-core units: the multiples
/// of `grain` up to `p` (every `1..=p` for grain 1; a grain above `p` is
/// `p`, as the schedulers clamp it).
///
/// With zero overhead this is the widest width's time, exactly: the float
/// evaluation in [`TaskCost::exec_time`] is non-increasing in `m` — rounded
/// division, addition and multiplication are monotone, and so are the
/// ceiling and the clamp — so no narrower width is shorter. With an
/// overhead the curve is U-shaped: the widths are walked from the narrowest
/// until the overhead term `overhead · (m − 1)` alone reaches the shortest
/// time so far. `exec_time(m)` is never below that term (the Amdahl part is
/// a non-negative float added to it), and the term only grows with `m`.
fn fastest(c: &TaskCost, p: u32, grain: u32) -> Dur {
    let p = p.max(1);
    let g = grain.clamp(1, p);
    let widest = p / g * g;
    if !c.overhead.is_positive() {
        return c.exec_time(widest);
    }
    let mut best = c.exec_time(g);
    let mut m = g;
    while m < widest {
        m += g;
        if c.overhead.as_seconds() * i64::from(m - 1) >= best.as_seconds() {
            break;
        }
        best = best.min(c.exec_time(m));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{chain, DagBuilder};
    use crate::schedule::Placement;
    use resched_resv::Reservation;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    fn pl(start: i64, end: i64, procs: u32) -> Placement {
        Placement {
            start: Time::seconds(start),
            end: Time::seconds(end),
            procs,
        }
    }

    #[test]
    fn a_chain_floor_is_its_full_width_path() {
        // 1000 s at α = 0.5 takes 500 + 500/4 = 625 s on four processors.
        let dag = chain(&[c(1000, 0.5), c(1000, 0.5)]);
        let cal = Calendar::new(4);
        let floor = Floor::of(&dag, &cal, Time::seconds(50), 1);
        assert_eq!(floor.critical_path, Time::seconds(50 + 2 * 625));
        // 2000 processor-seconds on four free processors: 500 s.
        assert_eq!(floor.area, Time::seconds(50 + 500));
        assert_eq!(floor.time(), floor.critical_path);
        // Two-core nodes on four processors change nothing; three-core ones
        // leave one node of three: ⌈500 + 500/3⌉ = 667 s a task.
        assert_eq!(Floor::of(&dag, &cal, Time::seconds(50), 2), floor);
        let three = Floor::of(&dag, &cal, Time::seconds(50), 3);
        assert_eq!(three.critical_path, Time::seconds(50 + 2 * 667));
    }

    #[test]
    fn a_busy_calendar_pushes_the_area_floor() {
        // Four independent, perfectly parallel 100 s tasks on two
        // processors, one of them held until 300: of the 400
        // processor-seconds needed, one free processor gives 300 by then
        // and both give the rest by 350.
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_task(c(100, 0.0));
        }
        let dag = b.build().unwrap();
        let mut cal = Calendar::new(2);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(300), 1))
            .unwrap();
        let floor = Floor::of(&dag, &cal, Time::ZERO, 1);
        assert_eq!(floor.critical_path, Time::seconds(50));
        assert_eq!(floor.area, Time::seconds(350));
        assert_eq!(floor.time(), Time::seconds(350));
    }

    /// Mutation: a schedule that runs two tasks at once on a one-processor
    /// machine — over-full, which the floor sees through its area half
    /// alone — and one that runs a task shorter than `t(p)`, which it sees
    /// through its critical path.
    #[test]
    fn the_floor_check_flags_an_overfull_and_a_too_short_schedule() {
        let mut b = DagBuilder::new();
        b.add_task(c(100, 0.0));
        b.add_task(c(100, 0.0));
        let pair = b.build().unwrap();
        let one = Calendar::new(1);
        let floor = Floor::of(&pair, &one, Time::ZERO, 1);
        assert_eq!(
            (floor.critical_path, floor.area),
            (Time::seconds(100), Time::seconds(200))
        );
        let honest = Schedule::new(vec![pl(0, 100, 1), pl(100, 200, 1)], Time::ZERO);
        assert_eq!(floor.check(&honest), Ok(()));
        let overfull = Schedule::new(vec![pl(0, 100, 1), pl(0, 100, 1)], Time::ZERO);
        let err = floor.check(&overfull).unwrap_err();
        assert_eq!(err.completion, Time::seconds(100));
        assert!(err.to_string().contains("area 3m20s"), "{err}");

        let dag = chain(&[c(1000, 0.5), c(1000, 0.5)]);
        let four = Calendar::new(4);
        let floor = Floor::of(&dag, &four, Time::ZERO, 1);
        let full_width = Schedule::new(vec![pl(0, 625, 4), pl(625, 1250, 4)], Time::ZERO);
        assert_eq!(floor.check(&full_width), Ok(()));
        // The second task one second shorter than t(4).
        let short = Schedule::new(vec![pl(0, 625, 4), pl(625, 1249, 4)], Time::ZERO);
        let err = floor.check(&short).unwrap_err();
        assert_eq!(
            (err.completion, err.floor.time()),
            (Time::seconds(1249), Time::seconds(1250))
        );
        assert!(err.to_string().contains("critical path 20m50s"), "{err}");
    }

    #[test]
    fn fastest_matches_the_brute_force_minimum() {
        use rand::{Rng, SeedableRng};
        // Seeded costs with and without overhead, on platforms and grains
        // that do and do not divide each other; the CI fuzz lane raises the
        // count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        let mut interior = 0;
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xFA57_0001 ^ draw);
            let p = rng.gen_range(1u32..=300);
            let seq = Dur::seconds(rng.gen_range(1i64..200_000));
            let alpha = rng.gen_range(0.0..=1.0f64);
            for overhead in [0, rng.gen_range(1i64..60), rng.gen_range(60i64..3_000)] {
                let cost = TaskCost::with_overhead(seq, alpha, Dur::seconds(overhead));
                for grain in [1, 2, 4, rng.gen_range(1u32..=p + 3)] {
                    let g = grain.clamp(1, p);
                    let brute = (1..=p)
                        .filter(|m| m % g == 0)
                        .map(|m| (cost.exec_time(m), m))
                        .min()
                        .expect("g <= p is a width");
                    assert_eq!(
                        fastest(&cost, p, grain),
                        brute.0,
                        "{cost:?} on {p} processors, grain {grain}"
                    );
                    interior += u32::from(overhead > 0 && brute.1 > g && brute.1 < p / g * g);
                }
            }
        }
        assert!(interior > 0, "no draw put the minimum inside the U");
    }

    #[test]
    fn sequential_work_is_no_more_than_any_widths_area() {
        use rand::{Rng, SeedableRng};
        // `m · t(m) ≥ seq` for every width, the premise of the area half:
        // per task, and so summed, over Amdahl and overhead costs.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xF100_A000 ^ draw);
            let p = rng.gen_range(1u32..=200);
            for overhead in [0, rng.gen_range(1i64..40)] {
                let dag = crate::dag::random_dag(&mut rng, 400_000, overhead);
                let mut least_area = 0i64;
                for t in dag.task_ids() {
                    let cost = dag.cost(t);
                    let least = (1..=p).map(|m| cost.work(m)).min().unwrap_or(0);
                    assert!(cost.seq.as_seconds() <= least, "{cost:?} on {p}");
                    least_area += least;
                }
                assert!(dag.total_seq_work() <= least_area, "draw {draw}");
            }
        }
    }
}
