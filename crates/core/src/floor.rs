//! The instance floor: an instant before which no valid schedule of an
//! instance `(dag, competing, now)` completes.
//!
//! It is the larger of three bounds. The first two are the standard bounds
//! of moldable list scheduling (critical path and area; Perotin, Sun &
//! Raghavan), with the free capacity read off the calendar instead of a
//! constant `p`; the third is the critical path made calendar-aware:
//!
//! * **critical path** — `now` plus the longest path with every task at its
//!   fastest duration over the widths it may take. A valid schedule starts
//!   every task at or after `now` and after its predecessors end, and runs
//!   it for exactly `exec_time(m)` on such a width;
//! * **area** — the first instant by which the processor-seconds the
//!   competing calendar leaves free after `now` cover `Σ seq_i`
//!   ([`Calendar::earliest_free_work`]). A valid schedule holds
//!   `m_i · t_i(m_i)` free processor-seconds for task `i` between `now` and
//!   its completion, and `m · t(m) ≥ seq` for every `m`;
//! * **calendar path** — the chain that sets the critical path, each task
//!   at its earliest finish on the competing calendar (nothing of the
//!   application reserved) after the previous one's, over a relaxed width
//!   list: one candidate per power-of-two bucket of widths, at the bucket's
//!   narrowest width and its shortest time. A width in the bucket needs at
//!   least that many processors free for at least that long, so each
//!   relaxed finish is no later than the task's real end, and a chain is a
//!   sub-DAG whose bound bounds the DAG.
//!
//! So a deadline below the floor is infeasible for every algorithm, which is
//! how [`Roster`](crate::backward::Roster) answers it without running one
//! ([`Roster::floor_past`](crate::backward::Roster::floor_past), the one
//! floor computation the schedulers make), and a completion below it marks
//! a schedule invalid without sharing a line with
//! [`ScheduleValidator`](crate::validate::ScheduleValidator): the second
//! oracle ([`Floor::of`], then [`Floor::check`]). DESIGN.md §7 has the
//! exactness proofs.

use crate::dag::{Dag, TaskId};
use crate::obs;
use crate::schedule::Schedule;
use crate::task::TaskCost;
use resched_resv::{Calendar, Dur, QueryCost, Time};
use std::fmt;

/// The three halves of an instance's lower bound on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floor {
    /// `LB_cp`: `now` plus the longest path at the fastest durations.
    pub critical_path: Time,
    /// `LB_area`: the first instant by which the free processor-seconds
    /// after `now` cover the DAG's sequential work.
    pub area: Time,
    /// `LB_chain`: the chain that sets `LB_cp`, walked on the competing
    /// calendar; never below `critical_path`.
    pub calendar_path: Time,
}

/// Which half of a [`Floor`] sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// [`Floor::critical_path`].
    CriticalPath,
    /// [`Floor::area`].
    Area,
    /// [`Floor::calendar_path`].
    CalendarPath,
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Half::CriticalPath => "critical path",
            Half::Area => "area",
            Half::CalendarPath => "calendar path",
        })
    }
}

/// What [`Roster::floor_past`](crate::backward::Roster::floor_past) found
/// past an instant: how far one half of the floor reached, and which half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// The half's value, or, for the calendar path, where its walk stopped
    /// once past the instant: no later than the half's value. No valid
    /// schedule completes before it.
    pub at: Time,
    /// The half.
    pub half: Half,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bound)", self.at, self.half)
    }
}

impl Floor {
    /// The floor of `dag` scheduled at `now` against `competing`, on widths
    /// in whole `grain`-core units (1 for flat placement; clamped into
    /// `1..=p` as the schedulers clamp it): all three halves, the critical
    /// chain walked to its end, one [`Calendar::earliest_finish`] per chain
    /// task.
    pub fn of(dag: &Dag, competing: &Calendar, now: Time, grain: u32) -> Floor {
        let path = LongestPath::of(dag, competing.capacity(), grain);
        Floor {
            critical_path: now + path.longest,
            area: competing.earliest_free_work(now, dag.total_seq_work()),
            calendar_path: path.on_calendar(dag, competing, now, grain, Time::MAX),
        }
    }

    /// Whether the floor of [`Floor::of`] lies past `past`, found by
    /// computing as little of it as that takes: the halves in order of
    /// cost — the critical path (no calendar), the calendar path, then the
    /// area — and the first one past `past` with what it had reached, or
    /// `None`. Counted under `core.floor.questions`.
    ///
    /// The calendar-path walk stops as soon as its bound passes `past`, and
    /// so does each chain task's own slot walk. A stopped walk still bounds
    /// the DAG: the chain's unwalked tail is counted at its fastest
    /// durations.
    pub(crate) fn past(
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        grain: u32,
        past: Time,
    ) -> Option<Bound> {
        obs::counter_add(obs::names::FLOOR_QUESTIONS, 1);
        let path = LongestPath::of(dag, competing.capacity(), grain);
        let critical_path = now + path.longest;
        if critical_path > past {
            return Some(Bound {
                at: critical_path,
                half: Half::CriticalPath,
            });
        }
        let calendar_path = path.on_calendar(dag, competing, now, grain, past);
        if calendar_path > past {
            return Some(Bound {
                at: calendar_path,
                half: Half::CalendarPath,
            });
        }
        let area = competing.earliest_free_work(now, dag.total_seq_work());
        (area > past).then_some(Bound {
            at: area,
            half: Half::Area,
        })
    }

    /// The floor itself, the largest of the three halves.
    pub fn time(self) -> Time {
        self.critical_path.max(self.area).max(self.calendar_path)
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
            calendar_path,
        } = self.floor;
        write!(
            f,
            "completion {} is before the instance floor {} (critical path {critical_path}, \
             area {area}, calendar path {calendar_path})",
            self.completion,
            self.floor.time()
        )
    }
}

impl std::error::Error for BelowFloor {}

/// The longest path with every task at its fastest duration, from 0 on an
/// unbounded platform.
struct LongestPath {
    /// Per task: when it finishes, and the predecessor whose finish it
    /// waits for (`None` for an entry).
    finish: Vec<(Dur, Option<TaskId>)>,
    /// The task that finishes last, `None` for an empty DAG.
    last: Option<TaskId>,
    /// Its finish: the path's length.
    longest: Dur,
}

impl LongestPath {
    fn of(dag: &Dag, p: u32, grain: u32) -> LongestPath {
        let mut path = LongestPath {
            finish: vec![(Dur::ZERO, None); dag.num_tasks()],
            last: None,
            longest: Dur::ZERO,
        };
        for &t in dag.topo_order() {
            let (ready, via) = dag
                .preds(t)
                .iter()
                .filter_map(|&u| path.finish.get(u.idx()).map(|&(end, _)| (end, Some(u))))
                .max_by_key(|&(end, _)| end)
                .unwrap_or((Dur::ZERO, None));
            let end = ready + fastest(&dag.cost(t), p, grain);
            if let Some(f) = path.finish.get_mut(t.idx()) {
                *f = (end, via);
            }
            if path.last.is_none() || end > path.longest {
                (path.last, path.longest) = (Some(t), end);
            }
        }
        path
    }

    /// The path's tasks, first task first.
    fn chain(&self) -> Vec<TaskId> {
        let mut chain: Vec<TaskId> = std::iter::successors(self.last, |t| {
            self.finish.get(t.idx()).and_then(|&(_, via)| via)
        })
        .collect();
        chain.reverse();
        chain
    }

    /// The calendar-path bound: each chain task at its earliest relaxed
    /// finish on `competing` from the previous one's, plus the chain's
    /// rest at its fastest durations, stopping once that passes `past`.
    /// Each task's walk stops too, once its finish passes `past` less the
    /// rest ([`Calendar::earliest_finish_until`]): the instant it then
    /// returns lies past that and no later than the finish, so the bound
    /// passes `past` at the same task, by no more than the full walk's.
    ///
    /// *Exact because*, by induction along the chain, a valid schedule ends
    /// chain task `i` no earlier than its relaxed finish `EF_i`: it starts
    /// at or after its predecessor's end, hence after `EF_(i−1)`, on `m`
    /// processors the calendar leaves free for `t(m)`, and the bucket of
    /// `m` asks for no more processors for no longer; `earliest_finish` is
    /// monotone in its start. Each relaxed duration is at least the
    /// fastest, so the bound never falls below `critical_path`.
    fn on_calendar(
        &self,
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        grain: u32,
        past: Time,
    ) -> Time {
        let p = competing.capacity();
        let mut widths = Vec::new();
        let (mut finish, mut bound) = (now, now + self.longest);
        for t in self.chain() {
            let candidates = relaxed_widths(&dag.cost(t), p, grain, &mut widths);
            let fastest_end = self.finish.get(t.idx()).map_or(Dur::ZERO, |&(end, _)| end);
            let rest = self.longest - fastest_end;
            let mut cost = QueryCost::default();
            finish = competing.earliest_finish_until(candidates, finish, past - rest, &mut cost);
            bound = finish + rest;
            if bound > past {
                break;
            }
        }
        bound
    }
}

/// The relaxed width list of a task of cost `c` on `p` processors in whole
/// `grain`-core units: one candidate per power-of-two bucket `[2^k,
/// 2^(k+1))` of the widths a scheduler may give it, at the bucket's
/// narrowest width (`2^k` for grain 1) and the shortest time of any width
/// in it — about `log2 p` candidates instead of `p`. A candidate no shorter
/// than a narrower one is left out, as [`Calendar::earliest_finish`] asks:
/// it could never finish first.
fn relaxed_widths<'a>(
    c: &TaskCost,
    p: u32,
    grain: u32,
    out: &'a mut Vec<(u32, Dur)>,
) -> &'a [(u32, Dur)] {
    out.clear();
    let p = p.max(1);
    let g = grain.clamp(1, p);
    let widest = p / g * g;
    let mut lo = 1u32;
    while lo <= widest {
        let hi = lo.saturating_mul(2).saturating_sub(1).min(widest);
        let narrowest = lo.div_ceil(g).saturating_mul(g);
        if narrowest <= hi {
            let shortest = shortest(c, narrowest, hi / g * g, g);
            if out.last().is_none_or(|&(_, d)| shortest < d) {
                out.push((narrowest, shortest));
            }
        }
        let Some(next) = lo.checked_mul(2) else { break };
        lo = next;
    }
    out
}

/// The shortest execution time over the widths a scheduler can give a task
/// of cost `c` on `p` processors in whole `grain`-core units: the multiples
/// of `grain` up to `p` (every `1..=p` for grain 1; a grain above `p` is
/// `p`, as the schedulers clamp it).
fn fastest(c: &TaskCost, p: u32, grain: u32) -> Dur {
    let p = p.max(1);
    let g = grain.clamp(1, p);
    shortest(c, g, p / g * g, g)
}

/// The shortest execution time of a task of cost `c` over the widths
/// `from, from + g, …, to` (multiples of `g`, `from ≤ to`).
///
/// With zero overhead this is the widest width's time, exactly: the float
/// evaluation in [`TaskCost::exec_time`] is non-increasing in `m` — rounded
/// division, addition and multiplication are monotone, and so are the
/// ceiling and the clamp — so no narrower width is shorter. With an
/// overhead the curve is U-shaped: the widths are walked from the narrowest
/// until the overhead term `overhead · (m − 1)` alone reaches the shortest
/// time so far. `exec_time(m)` is never below that term (the Amdahl part is
/// a non-negative float added to it), and the term only grows with `m`.
fn shortest(c: &TaskCost, from: u32, to: u32, g: u32) -> Dur {
    if !c.overhead.is_positive() {
        return c.exec_time(to);
    }
    let mut best = c.exec_time(from);
    let mut m = from;
    while m < to {
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

    /// The chain walk along the same chain, exactly: every width a
    /// scheduler may give each task, one `earliest_fit` per width on the
    /// calendar's linear reference.
    fn exact_chain_walk(dag: &Dag, cal: &Calendar, now: Time, grain: u32) -> Time {
        let p = cal.capacity();
        let g = grain.clamp(1, p);
        let path = LongestPath::of(dag, p, grain);
        path.chain().into_iter().fold(now, |ready, t| {
            let cost = dag.cost(t);
            (1..=p / g)
                .map(|k| {
                    let dur = cost.exec_time(k * g);
                    cal.linear()
                        .earliest_fit(k * g, dur, ready, &mut Default::default())
                        + dur
                })
                .min()
                .expect("one grain is a width")
        })
    }

    #[test]
    fn the_relaxed_list_is_one_width_per_power_of_two_bucket() {
        // Zero overhead: each bucket's shortest time is its widest width's.
        let cost = c(100_000, 0.1);
        let mut widths = Vec::new();
        let got = relaxed_widths(&cost, 430, 1, &mut widths).to_vec();
        let buckets = [1, 2, 4, 8, 16, 32, 64, 128, 256];
        let want: Vec<(u32, Dur)> = buckets
            .iter()
            .map(|&lo| (lo, cost.exec_time((2 * lo - 1).min(430))))
            .collect();
        assert_eq!(got, want);
        // Grain 3 on 16 processors: the widths 3, 6, …, 15 fall into the
        // buckets [2, 4), [4, 8) and [8, 16) at 3, 6 and 9 cores.
        let got = relaxed_widths(&cost, 16, 3, &mut widths).to_vec();
        let want = [(3, 3), (6, 6), (9, 15)].map(|(m, at)| (m, cost.exec_time(at)));
        assert_eq!(got, want);
        // With an overhead the rising arm of the U drops out: at 1 000 s a
        // processor, 4 000 s of work take 3 000 s on two and 4 000 s on
        // four, so no bucket past the second is any faster.
        let slow = TaskCost::with_overhead(Dur::seconds(4_000), 0.0, Dur::seconds(1_000));
        let got = relaxed_widths(&slow, 64, 1, &mut widths).to_vec();
        assert_eq!(got, [(1, Dur::seconds(4_000)), (2, Dur::seconds(3_000))]);
    }

    /// Mutation: a chain schedule that ignores one competing reservation.
    /// Neither of the other two halves sees it; the calendar path does.
    #[test]
    fn the_floor_check_flags_a_chain_that_ignores_a_reservation() {
        // All four processors are held for the first 100 s. At full width a
        // task takes 625 s, so the chain cannot end before 100 + 2 · 625.
        let dag = chain(&[c(1000, 0.5), c(1000, 0.5)]);
        let mut cal = Calendar::new(4);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(100), 4))
            .unwrap();
        let floor = Floor::of(&dag, &cal, Time::ZERO, 1);
        assert_eq!(
            (floor.critical_path, floor.area, floor.calendar_path),
            (Time::seconds(1250), Time::seconds(600), Time::seconds(1350))
        );

        let ignores = Schedule::new(vec![pl(0, 625, 4), pl(625, 1250, 4)], Time::ZERO);
        let two_halves = Floor {
            calendar_path: floor.critical_path,
            ..floor
        };
        assert_eq!(two_halves.check(&ignores), Ok(()));
        let err = floor.check(&ignores).unwrap_err();
        assert!(err.to_string().contains("calendar path 22m30s"), "{err}");
        let waits = Schedule::new(vec![pl(100, 725, 4), pl(725, 1350, 4)], Time::ZERO);
        assert_eq!(floor.check(&waits), Ok(()));

        // Asked only whether it is past an instant: the critical path
        // answers below 1250 s, the calendar path up to 1350 s — its walk
        // stopped after the first task, whose finish plus the second's
        // fastest time already passes — and nothing after.
        let past = |at| Floor::past(&dag, &cal, Time::ZERO, 1, Time::seconds(at));
        let at = |at, half| {
            Some(Bound {
                at: Time::seconds(at),
                half,
            })
        };
        let answer = past(1300).expect("past 1300 s");
        assert_eq!(answer.to_string(), "22m30s (calendar path bound)");
        assert_eq!(past(0), at(1250, Half::CriticalPath));
        assert_eq!(past(1249), at(1250, Half::CriticalPath));
        assert_eq!(past(1250), at(725 + 625, Half::CalendarPath));
        assert_eq!(past(1349), at(1350, Half::CalendarPath));
        assert_eq!(past(1350), None);
    }

    /// `Floor::past` with every chain task's walk run to its answer
    /// (`Calendar::earliest_finish`): the reference the stopping walks are
    /// pinned to.
    fn past_by_full_walks(
        dag: &Dag,
        cal: &Calendar,
        now: Time,
        grain: u32,
        past: Time,
    ) -> Option<Bound> {
        let path = LongestPath::of(dag, cal.capacity(), grain);
        let bound = |at, half| Some(Bound { at, half });
        if now + path.longest > past {
            return bound(now + path.longest, Half::CriticalPath);
        }
        let (mut widths, mut finish) = (Vec::new(), now);
        for t in path.chain() {
            let cands = relaxed_widths(&dag.cost(t), cal.capacity(), grain, &mut widths);
            finish = cal
                .earliest_finish(cands, finish, false, &mut QueryCost::default())
                .end;
            let rest = path.longest - path.finish[t.idx()].0;
            if finish + rest > past {
                return bound(finish + rest, Half::CalendarPath);
            }
        }
        let area = cal.earliest_free_work(now, dag.total_seq_work());
        (area > past).then_some(Bound {
            at: area,
            half: Half::Area,
        })
    }

    #[test]
    fn past_matches_the_full_walks() {
        use rand::{Rng, SeedableRng};
        // Seeded instances on crowded calendars, each asked about instants
        // around its halves and between them; the CI fuzz lane raises the
        // count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        let (mut by_chain, mut short) = (0, 0);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xF1_0048 ^ draw);
            let p = [4, 16, 57, 430][draw as usize % 4];
            let mut cal = Calendar::new(p);
            for _ in 0..rng.gen_range(0..120usize) {
                let s = rng.gen_range(0i64..80_000);
                let d = rng.gen_range(60i64..20_000);
                let m = rng.gen_range(1u32..=p);
                let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
            }
            let now = Time::seconds(rng.gen_range(0i64..30_000));
            let overhead = [0, rng.gen_range(1i64..60)][draw as usize % 2];
            let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
            let grain = [1, 1, 4][draw as usize % 3];
            let floor = Floor::of(&dag, &cal, now, grain);
            let mut pasts = vec![now, floor.critical_path, floor.area];
            for at in [floor.calendar_path, floor.time()] {
                pasts.extend([at - Dur::seconds(1), at]);
            }
            pasts.extend((0..8).map(|_| {
                floor.critical_path
                    + Dur::seconds(
                        rng.gen_range(0i64..=(floor.time() - floor.critical_path).as_seconds()),
                    )
            }));
            for past in pasts {
                let case = format!("draw {draw}, p {p}, grain {grain}, past {past}");
                let got = Floor::past(&dag, &cal, now, grain, past);
                let want = past_by_full_walks(&dag, &cal, now, grain, past);
                match (got, want) {
                    (Some(got), Some(want)) if want.half == Half::CalendarPath => {
                        assert_eq!(got.half, want.half, "{case}");
                        assert!(
                            past < got.at && got.at <= want.at,
                            "{got:?} against {want:?}, {case}"
                        );
                        by_chain += 1;
                        short += u32::from(got.at < want.at);
                    }
                    _ => assert_eq!(got, want, "{case}"),
                }
            }
        }
        assert!(
            by_chain > 0 && short > 0,
            "{by_chain} chain answers, {short} short of the full walk's"
        );
    }

    #[test]
    fn calendar_path_lies_between_the_critical_path_and_the_exact_chain_walk() {
        use crate::algos::{Algorithm, RunError};
        use crate::forward::{schedule_forward, ForwardConfig};
        use rand::{Rng, SeedableRng};
        // `LB_cp ≤ relaxed ≤ exact ≤` every catalog algorithm's completion
        // (grain 1) and the hierarchical forward scheduler's (its grain),
        // on seeded calendars, with Amdahl and overhead costs; the CI fuzz
        // lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        let (mut above_cp, mut below_exact, mut stopped) = (0, 0, 0);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xCA1_0000 ^ draw);
            let p = if draw % 5 == 4 {
                rng.gen_range(100u32..=300)
            } else {
                rng.gen_range(1u32..=24)
            };
            let mut cal = Calendar::new(p);
            for _ in 0..rng.gen_range(0..40usize) {
                let s = rng.gen_range(0i64..80_000);
                let d = rng.gen_range(60i64..20_000);
                let m = rng.gen_range(1u32..=p);
                let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
            }
            let now = Time::seconds(rng.gen_range(0i64..30_000));
            let q = rng.gen_range(1u32..=p);
            for overhead in [0, rng.gen_range(1i64..60)] {
                let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
                for grain in [1, 4, rng.gen_range(1u32..=p + 2)] {
                    let case = format!("draw {draw}, p {p}, overhead {overhead}, grain {grain}");
                    let floor = Floor::of(&dag, &cal, now, grain);
                    let relaxed = floor.calendar_path;
                    let exact = exact_chain_walk(&dag, &cal, now, grain);
                    assert!(floor.critical_path <= relaxed, "{case}");
                    assert!(relaxed <= exact, "{case}");
                    above_cp += u32::from(floor.critical_path < relaxed);
                    below_exact += u32::from(relaxed < exact);

                    // Asked whether it is past an instant: yes exactly
                    // when the whole floor is, by a half that is, with a
                    // value no further than that half's (a stopped walk
                    // falls short of it).
                    let past = now + Dur::seconds(rng.gen_range(0i64..120_000));
                    let answer = Floor::past(&dag, &cal, now, grain, past);
                    assert_eq!(answer.is_some(), floor.time() > past, "{case}");
                    if let Some(Bound { at, half }) = answer {
                        let whole = match half {
                            Half::CriticalPath => floor.critical_path,
                            Half::Area => floor.area,
                            Half::CalendarPath => relaxed,
                        };
                        assert!(past < at && at <= whole, "{case}");
                        stopped += u32::from(at < whole);
                    }

                    if grain == 4 {
                        let cfg = ForwardConfig::recommended().hierarchical(4);
                        let s = schedule_forward(&dag, &cal, now, q, cfg);
                        assert!(s.completion() >= exact, "{case}: {}", cfg.name());
                    }
                    if grain != 1 {
                        continue;
                    }
                    let fwd = schedule_forward(&dag, &cal, now, q, ForwardConfig::recommended());
                    let k = now + fwd.turnaround() * 3;
                    for algo in Algorithm::catalog() {
                        match algo.run(&dag, &cal, now, q, Some(k)) {
                            Ok(s) => assert!(s.completion() >= exact, "{case}: {}", algo.name()),
                            Err(RunError::Infeasible(_)) => {}
                            Err(e) => panic!("{case}: {} failed to run: {e}", algo.name()),
                        }
                    }
                }
            }
        }
        assert!(above_cp > 0, "no draw put the calendar path above LB_cp");
        assert!(
            below_exact > 0,
            "no draw separated the relaxed walk from the exact one"
        );
        assert!(stopped > 0, "no walk stopped early");
    }
}
