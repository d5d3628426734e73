//! Scheduling while the reservation schedule changes — the paper's other
//! §3.2.2 relaxation ("our assumption that while the application is being
//! scheduled the reservation schedule does not change" is a prime candidate
//! for removal).
//!
//! [`schedule_forward_dynamic`] drives the forward pass of
//! [`crate::forward::schedule_forward`] itself — same phase 1, same
//! per-task placement, same schedule — but between task placements it
//! hands the working calendar to an *interference* callback that may
//! inject competing reservations (e.g. a Poisson arrival process).
//! Reservations the application has already committed are inviolable —
//! exactly the guarantee a real batch scheduler gives — but later tasks
//! see a busier platform than the one the bottom levels and allocation
//! bounds were computed for.
//!
//! The `ext_dynamic` bench measures the turn-around degradation as the
//! interference rate grows.

use crate::cpa::CpaCache;
use crate::dag::Dag;
use crate::forward::{ForwardConfig, ForwardPass};
use crate::schedule::{Placement, Schedule};
use resched_resv::{Calendar, Time};

/// Events passed to the interference callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEvent {
    /// Index (in scheduling order) of the task just placed.
    pub ordinal: usize,
    /// Total number of tasks.
    pub total: usize,
    /// The placement just committed.
    pub placement: Placement,
}

/// Forward scheduling under a mutating reservation schedule.
///
/// `interfere` is invoked after every task placement with the live calendar
/// and may add competing reservations (via [`Calendar::try_add`]); it must
/// not remove anything (the calendar API cannot anyway). With an
/// `interfere` that adds nothing, the schedule is `schedule_forward`'s.
pub fn schedule_forward_dynamic(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    q: u32,
    cfg: ForwardConfig,
    mut interfere: impl FnMut(&mut Calendar, PlacementEvent),
) -> Schedule {
    let mut pass = ForwardPass::new(&mut CpaCache::new(), dag, competing, now, q, cfg);
    let total = dag.num_tasks();
    {
        crate::span!(crate::obs::names::SPAN_FORWARD_PLACE);
        let mut ordinal = 0;
        while let Some(placement) = pass.place_next() {
            let event = PlacementEvent {
                ordinal,
                total,
                placement,
            };
            interfere(pass.calendar_mut(), event);
            ordinal += 1;
        }
    }
    pass.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bl::BlMethod;
    use crate::dag::chain;
    use crate::forward::{schedule_forward, BdMethod, TieBreak};
    use crate::task::TaskCost;
    use resched_resv::{Dur, Reservation};

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    #[test]
    fn no_interference_matches_static_scheduler() {
        use crate::algos::Algorithm;
        use crate::backward::{DeadlineConfig, Roster};
        use rand::{Rng, SeedableRng};
        // With an interference that adds nothing, the dynamic scheduler is
        // the forward pass: the same schedule (placements and stats) as
        // `schedule_forward` and a prepared instance's `Roster::forward`,
        // for every forward row of the catalog under both tie rules, and
        // one event per task, in placement order. Seeded draws; the CI
        // fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let cfgs: Vec<ForwardConfig> = Algorithm::catalog()
            .into_iter()
            .filter_map(|algo| match algo {
                Algorithm::Forward(cfg) => Some(cfg),
                _ => None,
            })
            .flat_map(|cfg| {
                [TieBreak::FewestProcs, TieBreak::MostProcs].map(|tie| ForwardConfig { tie, ..cfg })
            })
            .collect();
        assert_eq!(
            cfgs.len(),
            2 * (BlMethod::ALL.len() * BdMethod::ALL.len() + 1)
        );
        let mut ties = 0u32;
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xD1_0033 ^ draw);
            let p = [4, 16, 64][draw as usize % 3];
            let mut cal = Calendar::new(p);
            for _ in 0..rng.gen_range(0..30usize) {
                let s = rng.gen_range(0i64..60_000);
                let d = rng.gen_range(60i64..15_000);
                let m = rng.gen_range(1u32..=p);
                let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
            }
            let q = rng.gen_range(1u32..=p);
            let now = Time::seconds(rng.gen_range(0i64..30_000));
            let overhead = rng.gen_range(0i64..40);
            let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
            let mut roster = Roster::prepare(&dag, &cal, now, q, DeadlineConfig::default());
            let mut by_tie: Vec<Vec<Placement>> = Vec::new();
            for &cfg in &cfgs {
                let case = format!("{} {:?}, draw {draw}", cfg.name(), cfg.tie);
                let mut events = Vec::new();
                let dynamic =
                    schedule_forward_dynamic(&dag, &cal, now, q, cfg, |_, ev| events.push(ev));
                for other in [
                    schedule_forward(&dag, &cal, now, q, cfg),
                    roster.forward(cfg),
                ] {
                    assert_eq!(dynamic.placements(), other.placements(), "{case}");
                    assert_eq!(dynamic.stats, other.stats, "{case}");
                    assert_eq!(dynamic, other, "{case}");
                }
                let n = dag.num_tasks();
                let ordinals: Vec<(usize, usize)> =
                    events.iter().map(|ev| (ev.ordinal, ev.total)).collect();
                assert_eq!(
                    ordinals,
                    (0..n).map(|i| (i, n)).collect::<Vec<_>>(),
                    "{case}"
                );
                let mut placed: Vec<Placement> = events.iter().map(|ev| ev.placement).collect();
                let mut scheduled = dynamic.placements().to_vec();
                let key = |pl: &Placement| (pl.start, pl.end, pl.procs);
                placed.sort_by_key(key);
                scheduled.sort_by_key(key);
                assert_eq!(placed, scheduled, "{case}");
                if cfg.grain > 1 {
                    assert!(dynamic
                        .placements()
                        .iter()
                        .all(|pl| pl.procs % cfg.grain == 0));
                }
                by_tie.push(dynamic.placements().to_vec());
            }
            ties += by_tie.chunks(2).filter(|pair| pair[0] != pair[1]).count() as u32;
        }
        assert!(
            draws < 3 || ties > 0,
            "the draws must exercise the tie rule"
        );
    }

    #[test]
    fn interference_delays_but_stays_valid() {
        let dag = chain(&[c(1000, 0.0), c(1000, 0.0), c(1000, 0.0)]);
        let base = Calendar::new(4);
        // After every placement a competitor grabs the whole machine for
        // 500s at the earliest opportunity behind the current frontier.
        // All adds go through the same live calendar, so mutual
        // consistency (capacity never exceeded) holds by construction;
        // the assertions below check precedence and the delay direction.
        let sched = schedule_forward_dynamic(
            &dag,
            &base,
            Time::ZERO,
            4,
            ForwardConfig::recommended(),
            |cal, ev| {
                // Grab the whole machine right behind the task just placed.
                let s = cal.earliest_fit(4, Dur::seconds(500), ev.placement.end);
                cal.try_add(Reservation::for_duration(s, Dur::seconds(500), 4))
                    .expect("probed slot fits");
            },
        );
        for (a, b) in [(0u32, 1u32), (1, 2)] {
            assert!(
                sched.placement(crate::dag::TaskId(b)).start
                    >= sched.placement(crate::dag::TaskId(a)).end,
                "precedence violated between t{a} and t{b}"
            );
        }
        let static_ = schedule_forward(&dag, &base, Time::ZERO, 4, ForwardConfig::recommended());
        assert!(sched.turnaround() >= static_.turnaround());
        // The injected competitors must actually have delayed something.
        assert!(
            sched.turnaround() > static_.turnaround(),
            "interference had no effect: {}",
            sched.turnaround()
        );
    }

    #[test]
    fn event_fields_are_sane() {
        let dag = chain(&[c(100, 0.0), c(100, 0.0)]);
        let cal = Calendar::new(4);
        let mut seen = Vec::new();
        let _ = schedule_forward_dynamic(
            &dag,
            &cal,
            Time::ZERO,
            4,
            ForwardConfig::recommended(),
            |_, ev| seen.push(ev),
        );
        assert_eq!(seen.len(), 2);
        assert_eq!((seen[0].ordinal, seen[0].total), (0, 2));
        assert_eq!((seen[1].ordinal, seen[1].total), (1, 2));
        assert!(seen[1].placement.start >= seen[0].placement.end);
    }
}
