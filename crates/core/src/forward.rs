//! Forward scheduling: the RESSCHED (turn-around-time minimization)
//! algorithms of paper §4.
//!
//! All algorithms share the same two-phase structure:
//!
//! 1. compute a bottom level for every task (using one of the four
//!    [`BlMethod`] cost models) and sort tasks by decreasing bottom level;
//! 2. for each task in order, pick among the candidate processor counts
//!    `m ∈ 1..=bound` the `<m, start>` pair with the earliest completion
//!    time among slots that respect both the competing reservations and
//!    the task's predecessors — one calendar walk per task that carries
//!    every candidate at once (`Calendar::earliest_finish`), not one per
//!    `m`.
//!
//! The allocation bound is one of the four [`BdMethod`] policies; the
//! combination `BL_x_BD_y` names the paper's 12 (+BD_HALF) algorithms.
//!
//! Both phases are written once, in `ForwardPass`, which
//! [`schedule_forward`] runs to the end (as does
//! [`schedule_forward_bounded`], with bounds from outside [`BdMethod`])
//! and `dynamic` steps through with competitors reserving between
//! placements. A task's readiness in any
//! list pass of the crate is `ready_at`.

use crate::bl::{self, BlMethod};
use crate::cpa::{CpaCache, StoppingCriterion};
use crate::dag::{Dag, TaskId};
use crate::obs;
use crate::pool::Pool;
use crate::schedule::{Placement, Schedule, ScheduleStats};
use crate::task::{TaskCost, Widths};
use resched_resv::{Calendar, Reservation, Time};
use serde::{Deserialize, Serialize};

/// How to bound per-task allocations in the slot search (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BdMethod {
    /// `BD_ALL`: allocations bounded only by the platform size `p`.
    All,
    /// `BD_HALF`: allocations arbitrarily bounded by `p/2` (control
    /// algorithm used to show naive bounding is insufficient).
    Half,
    /// `BD_CPA`: allocations bounded by CPA allocations for pool `p`.
    Cpa,
    /// `BD_CPAR`: allocations bounded by CPA allocations for pool `q`, the
    /// historical average availability.
    CpaR,
}

impl BdMethod {
    /// The four bounding methods in the paper's presentation order.
    pub const ALL: [BdMethod; 4] = [BdMethod::All, BdMethod::Half, BdMethod::Cpa, BdMethod::CpaR];

    /// The paper's name for the method.
    pub fn name(self) -> &'static str {
        match self {
            BdMethod::All => "BD_ALL",
            BdMethod::Half => "BD_HALF",
            BdMethod::Cpa => "BD_CPA",
            BdMethod::CpaR => "BD_CPAR",
        }
    }
}

/// Tie-breaking between `<m, start>` pairs with equal completion times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// Prefer fewer processors (default; saves CPU-hours).
    #[default]
    FewestProcs,
    /// Prefer more processors (ablation alternative).
    MostProcs,
}

/// Full configuration of a forward (RESSCHED) algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForwardConfig {
    /// Bottom-level cost model.
    pub bl: BlMethod,
    /// Allocation bounding policy.
    pub bd: BdMethod,
    /// CPA stopping criterion used wherever CPA allocations are needed.
    pub criterion: StoppingCriterion,
    /// Tie-breaking among equal completion times.
    pub tie: TieBreak,
    /// Placement grain: candidate allocations are restricted to multiples
    /// of this many cores. 1 is the paper's flat core-level placement;
    /// above 1 is the hierarchical twin regime (whole nodes of `grain`
    /// cores). Grain 1 is flat placement byte-for-byte. Deserializing a
    /// config written before the field existed yields 0, which every
    /// consumer clamps up to 1 — also flat.
    #[serde(default)]
    pub grain: u32,
}

impl ForwardConfig {
    /// The paper's recommended algorithm: `BL_CPAR_BD_CPAR`.
    pub fn recommended() -> ForwardConfig {
        ForwardConfig {
            bl: BlMethod::CpaR,
            bd: BdMethod::CpaR,
            criterion: StoppingCriterion::default(),
            tie: TieBreak::default(),
            grain: 1,
        }
    }

    /// A named configuration `BL_x_BD_y`.
    pub fn new(bl: BlMethod, bd: BdMethod) -> ForwardConfig {
        ForwardConfig {
            bl,
            bd,
            criterion: StoppingCriterion::default(),
            tie: TieBreak::default(),
            grain: 1,
        }
    }

    /// The whole-node hierarchical twin of this configuration: identical
    /// policy, allocations quantized to `grain`-core nodes.
    pub fn hierarchical(self, grain: u32) -> ForwardConfig {
        ForwardConfig {
            grain: grain.max(1),
            ..self
        }
    }

    /// The paper's composite name, e.g. `BL_CPAR_BD_CPAR`; hierarchical
    /// twins carry an `H_` prefix (`H_BL_CPAR_BD_CPAR`).
    pub fn name(&self) -> String {
        let base = format!("{}_{}", self.bl.name(), self.bd.name());
        if self.grain > 1 {
            format!("H_{base}")
        } else {
            base
        }
    }
}

impl Default for ForwardConfig {
    fn default() -> Self {
        ForwardConfig::recommended()
    }
}

/// Per-task allocation bounds under a bounding method.
///
/// `p` is the platform size, `q` the historical average availability. The
/// returned vector is indexed by task id; every entry is in `1..=p`.
pub fn allocation_bounds(
    dag: &Dag,
    p: u32,
    q: u32,
    bd: BdMethod,
    criterion: StoppingCriterion,
    stats: &mut ScheduleStats,
) -> Vec<u32> {
    CpaCache::new().allocation_bounds(dag, p, q, bd, criterion, stats)
}

impl CpaCache {
    /// [`allocation_bounds`] drawing from this call's memo, so the same CPA
    /// allocation computed for `BL_CPA(R)` exec times is reused for the
    /// `BD_CPA(R)` bound instead of being recomputed.
    pub(crate) fn allocation_bounds(
        &mut self,
        dag: &Dag,
        p: u32,
        q: u32,
        bd: BdMethod,
        criterion: StoppingCriterion,
        stats: &mut ScheduleStats,
    ) -> Vec<u32> {
        match bd {
            BdMethod::All => vec![p; dag.num_tasks()],
            BdMethod::Half => vec![(p / 2).max(1); dag.num_tasks()],
            BdMethod::Cpa => {
                stats.cpa_allocations += 1;
                self.cpa(dag, p, criterion).allocs.clone()
            }
            BdMethod::CpaR => {
                stats.cpa_allocations += 1;
                self.cpa(dag, Pool::effective(q, p), criterion)
                    .allocs
                    .clone()
            }
        }
    }
}

/// Schedule `dag` for minimum turn-around time on the platform described by
/// `competing` (capacity plus existing reservations), scheduling at instant
/// `now` with historical average availability `q`.
///
/// Returns a complete, validated-by-construction schedule; every task gets
/// one reservation that respects competing reservations and precedence.
pub fn schedule_forward(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    q: u32,
    cfg: ForwardConfig,
) -> Schedule {
    schedule_forward_in(&mut CpaCache::new(), dag, competing, now, q, cfg, None)
}

/// [`schedule_forward`] with the per-task allocation bounds given, one per
/// task in task-id order, in place of the ones `cfg.bd` would compute: the
/// same pass for a bound source outside [`BdMethod`], such as an
/// `mcpa::allocate` allocation. In debug builds the schedule is audited
/// against these bounds.
pub fn schedule_forward_bounded(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    q: u32,
    cfg: ForwardConfig,
    bounds: &[u32],
) -> Schedule {
    schedule_forward_in(
        &mut CpaCache::new(),
        dag,
        competing,
        now,
        q,
        cfg,
        Some(bounds),
    )
}

/// [`schedule_forward`] drawing its CPA allocations from `cache`, which
/// serves this `dag` (a `backward::Roster` holds one per instance), and
/// taking `bounds`, when given, in place of `cfg.bd`'s.
pub(crate) fn schedule_forward_in(
    cache: &mut CpaCache,
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    q: u32,
    cfg: ForwardConfig,
    bounds: Option<&[u32]>,
) -> Schedule {
    let mut pass = ForwardPass::new(cache, dag, competing, now, q, cfg, bounds);
    {
        crate::span!(obs::names::SPAN_FORWARD_PLACE);
        while pass.place_next().is_some() {}
    }
    pass.finish()
}

/// One forward pass (paper §4.2), stepped by its caller: [`Self::new`]
/// runs phase 1 (bottom levels, order, allocation bounds), each
/// [`Self::place_next`] places the next task in order at its earliest
/// completion on the working calendar, and [`Self::finish`] assembles the
/// schedule. `schedule_forward` places every task in one go;
/// `dynamic::schedule_forward_dynamic` lets competitors reserve on
/// [`Self::calendar_mut`] between placements.
pub(crate) struct ForwardPass<'a> {
    dag: &'a Dag,
    now: Time,
    /// What the debug-gated post-pass audits against and names.
    #[cfg(debug_assertions)]
    competing: &'a Calendar,
    #[cfg(debug_assertions)]
    cfg: ForwardConfig,
    order: std::vec::IntoIter<TaskId>,
    bounds: Vec<u32>,
    cal: Calendar,
    placements: Vec<Option<Placement>>,
    search: SlotSearch,
    stats: ScheduleStats,
}

impl<'a> ForwardPass<'a> {
    /// Phase 1 for `dag` on `competing`, its CPA allocations drawn from
    /// `cache`, which serves this `dag`. `bounds`, when given, replaces the
    /// allocation bounds `cfg.bd` computes.
    pub(crate) fn new(
        cache: &mut CpaCache,
        dag: &'a Dag,
        competing: &'a Calendar,
        now: Time,
        q: u32,
        cfg: ForwardConfig,
        bounds: Option<&[u32]>,
    ) -> ForwardPass<'a> {
        let p = competing.capacity();
        let q = Pool::effective(q, p);
        let mut stats = ScheduleStats::default();
        stats.passes += 1;

        // Bottom levels and scheduling order. Through the cache, e.g.
        // BL_CPAR_BD_CPAR computes its CPA allocation once, not twice.
        let (order, bounds) = {
            crate::span!(obs::names::SPAN_FORWARD_PREP);
            if matches!(cfg.bl, BlMethod::Cpa | BlMethod::CpaR) {
                stats.cpa_allocations += 1;
            }
            let exec = cache.exec_times(dag, p, q, cfg.bl, cfg.criterion);
            let levels = bl::bottom_levels(dag, &exec);
            let order = bl::order_by_decreasing_bl(dag, &levels);
            let bounds = match bounds {
                Some(bounds) => bounds.to_vec(),
                None => cache.allocation_bounds(dag, p, q, cfg.bd, cfg.criterion, &mut stats),
            };
            (order, bounds)
        };

        ForwardPass {
            dag,
            now,
            #[cfg(debug_assertions)]
            competing,
            #[cfg(debug_assertions)]
            cfg,
            order: order.into_iter(),
            bounds,
            cal: competing.clone(),
            placements: vec![None; dag.num_tasks()],
            search: SlotSearch::new(cfg, p),
            stats,
        }
    }

    /// Place the next task in order on the working calendar, at its
    /// earliest completion (phase 2); `None` once every task is placed.
    pub(crate) fn place_next(&mut self) -> Option<Placement> {
        let t = self.order.next()?;
        let ready = ready_at(self.dag, &self.placements, t, self.now);
        let best = self.search.place(
            &self.cal,
            &self.dag.cost(t),
            self.bounds[t.idx()],
            ready,
            &mut self.stats,
        );
        self.cal
            .add_unchecked(Reservation::new(best.start, best.end, best.procs));
        self.placements[t.idx()] = Some(best);
        Some(best)
    }

    /// The working calendar: the competing reservations plus the
    /// placements so far.
    pub(crate) fn calendar_mut(&mut self) -> &mut Calendar {
        &mut self.cal
    }

    /// The schedule of the placed tasks.
    pub(crate) fn finish(self) -> Schedule {
        // The order visits every task exactly once, so once `place_next`
        // has returned `None` each slot is filled; a hole would shrink the
        // schedule, which the length assert and the gated oracle both
        // catch in debug builds.
        let mut out = Schedule::new(self.placements.into_iter().flatten().collect(), self.now);
        debug_assert_eq!(
            out.placements().len(),
            self.dag.num_tasks(),
            "every task scheduled"
        );
        out.stats = self.stats;

        // Debug-gated post-pass: replay the finished schedule through the
        // independent oracle, including the BD_* cap actually in force
        // (quantized to the placement grain) and the grain itself. The
        // working calendar only ever grows past `competing`, so a
        // placement that fit it also fits `competing`.
        #[cfg(debug_assertions)]
        self.search
            .validator(self.dag, self.competing, self.now, &self.bounds)
            .assert_valid(&out, self.cfg.name().as_str());

        out
    }
}

/// When task `t` can start in a list pass: the latest end among its
/// predecessors' `placements` (indexed by task id), or `release` if that
/// is later. The list orders place predecessors first; an unplaced one
/// means a broken order (or, for a subset mapping, a subset that is not
/// predecessor-closed), which the debug assert surfaces.
pub(crate) fn ready_at(
    dag: &Dag,
    placements: &[Option<Placement>],
    t: TaskId,
    release: Time,
) -> Time {
    let mut ready = release;
    for &pr in dag.preds(t) {
        debug_assert!(
            placements[pr.idx()].is_some(),
            "list order places predecessors first"
        );
        if let Some(pl) = placements[pr.idx()] {
            ready = ready.max(pl.end);
        }
    }
    ready
}

/// The per-task slot search of the forward family (paper §4.2): among the
/// widths `m` — multiples of the placement grain up to the task's bound —
/// the `<m, start>` pair that completes first at or after the task's ready
/// time, ties broken by the configuration's [`TieBreak`]. One calendar
/// query per task: the candidates (see [`Widths`]) go to
/// `Calendar::earliest_finish` together.
///
/// Held by one scheduling call; the candidate list is refilled per task.
struct SlotSearch {
    grain: u32,
    widths: Widths,
}

impl SlotSearch {
    /// The search `cfg` asks for on a `p`-processor platform.
    fn new(cfg: ForwardConfig, p: u32) -> SlotSearch {
        SlotSearch {
            grain: cfg.grain.clamp(1, p.max(1)),
            widths: Widths::for_tie(cfg.tie),
        }
    }

    /// Where a task of `cost`, ready at `ready` and allowed `bound`
    /// processors (quantized to the grain here), goes on `cal`.
    fn place(
        &mut self,
        cal: &Calendar,
        cost: &TaskCost,
        bound: u32,
        ready: Time,
        stats: &mut ScheduleStats,
    ) -> Placement {
        // At least one placement unit of `grain` cores is always a legal
        // candidate (`grain == 1` is the paper's flat one-processor one),
        // so the search is total.
        let bound = quantize_bound(bound, self.grain, cal.capacity());
        let tie = self.widths.tie();
        let candidates = self.widths.refill(cost, self.grain, bound);
        obs::probe::earliest_finish(cal, candidates, ready, tie, stats)
    }

    /// The oracle for schedules this search produced: the grain and the
    /// `BD_*` caps actually in force (quantized to the grain).
    #[cfg(debug_assertions)]
    fn validator<'a>(
        &self,
        dag: &'a Dag,
        competing: &'a Calendar,
        now: Time,
        bounds: &[u32],
    ) -> crate::validate::ScheduleValidator<'a> {
        let p = competing.capacity();
        crate::validate::ScheduleValidator::new(dag, competing, now)
            .with_grain(self.grain)
            .with_declared_bounds(
                bounds
                    .iter()
                    .map(|&b| quantize_bound(b, self.grain, p))
                    .collect(),
            )
    }
}

/// Clamp a per-task allocation bound into `1..=p`, then round it up to
/// whole `g`-core placement units, capped at the largest multiple of `g`
/// the platform holds. With `g == 1` this is exactly the old
/// `bound.clamp(1, p)`.
pub(crate) fn quantize_bound(bound: u32, g: u32, p: u32) -> u32 {
    let b = bound.clamp(1, p);
    if g <= 1 {
        return b;
    }
    (b.div_ceil(g) * g).min(p / g * g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::Algorithm;
    use crate::cpa;
    use crate::dag::{chain, fork_join};
    use resched_resv::Dur;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    fn all_cfgs() -> Vec<ForwardConfig> {
        let mut v = Vec::new();
        for bl in BlMethod::ALL {
            for bd in BdMethod::ALL {
                v.push(ForwardConfig::new(bl, bd));
            }
        }
        v
    }

    #[test]
    fn empty_calendar_matches_cpa_for_bl_cpa_bd_cpa() {
        // Paper §4.2: with an empty reservation schedule, BL_CPA_BD_CPA is
        // simply the CPA algorithm.
        let dag = fork_join(c(600, 0.1), &[c(7200, 0.1); 6], c(600, 0.1));
        let p = 16;
        let cal = Calendar::new(p);
        let fwd = schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            p,
            ForwardConfig::new(BlMethod::Cpa, BdMethod::Cpa),
        );
        let base = cpa::schedule(&dag, p, StoppingCriterion::default(), Time::ZERO);
        // Turn-around times agree (the slot search may pick fewer processors
        // for equal completion, so compare the objective, not placements).
        assert!(fwd.turnaround() <= base.turnaround());
    }

    #[test]
    fn all_configs_produce_valid_schedules() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.15); 5], c(300, 0.1));
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::seconds(100), Time::seconds(5000), 6))
            .unwrap();
        cal.try_add(Reservation::new(
            Time::seconds(8000),
            Time::seconds(20_000),
            4,
        ))
        .unwrap();
        for cfg in all_cfgs() {
            let sched = schedule_forward(&dag, &cal, Time::ZERO, 4, cfg);
            Algorithm::Forward(cfg)
                .validator(&dag, &cal, Time::ZERO, None)
                .check(&sched)
                .unwrap_or_else(|e| panic!("{} produced invalid schedule: {e}", cfg.name()));
        }
    }

    #[test]
    fn respects_now() {
        let dag = chain(&[c(100, 0.0)]);
        let cal = Calendar::new(4);
        let sched = schedule_forward(
            &dag,
            &cal,
            Time::seconds(12_345),
            4,
            ForwardConfig::recommended(),
        );
        assert_eq!(sched.first_start(), Time::seconds(12_345));
        assert_eq!(sched.turnaround(), Dur::seconds(25)); // 100s / 4 procs
    }

    #[test]
    fn reservations_delay_start() {
        let dag = chain(&[c(100, 0.0)]);
        let mut cal = Calendar::new(4);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(1000), 4))
            .unwrap();
        let sched = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
        assert!(sched.first_start() >= Time::seconds(1000));
    }

    #[test]
    fn task_can_slip_into_hole_before_reservation() {
        let dag = chain(&[c(100, 0.0)]);
        let mut cal = Calendar::new(4);
        // Platform fully reserved from 500s on; the 25s task (on 4 procs)
        // fits before it.
        cal.try_add(Reservation::new(
            Time::seconds(500),
            Time::seconds(10_000),
            4,
        ))
        .unwrap();
        let sched = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
        assert_eq!(sched.placement(crate::dag::TaskId(0)).start, Time::ZERO);
    }

    #[test]
    fn bd_all_uses_more_cpu_hours_on_wide_dag() {
        // Wide fork-join: BD_ALL over-allocates, wasting CPU-hours relative
        // to BD_CPAR (the paper's Table 4 headline effect).
        let dag = fork_join(c(60, 0.05), &[c(7200, 0.2); 12], c(60, 0.05));
        let cal = Calendar::new(16);
        let all = schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            16,
            ForwardConfig::new(BlMethod::CpaR, BdMethod::All),
        );
        let cpar = schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            16,
            ForwardConfig::new(BlMethod::CpaR, BdMethod::CpaR),
        );
        assert!(
            all.cpu_hours() > cpar.cpu_hours(),
            "BD_ALL {} CPU-h should exceed BD_CPAR {} CPU-h",
            all.cpu_hours(),
            cpar.cpu_hours()
        );
        // ... and BD_CPAR should not be slower overall on a wide DAG.
        assert!(cpar.turnaround() <= all.turnaround());
    }

    #[test]
    fn bd_all_wins_on_chain() {
        // A chain has no task parallelism: the largest allocations win
        // (the paper's observation that all BD_ALL wins happen at width 0.1).
        let dag = chain(&[c(7200, 0.05), c(7200, 0.05), c(7200, 0.05)]);
        let cal = Calendar::new(32);
        let all = schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            32,
            ForwardConfig::new(BlMethod::CpaR, BdMethod::All),
        );
        let half = schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            32,
            ForwardConfig::new(BlMethod::CpaR, BdMethod::Half),
        );
        assert!(all.turnaround() <= half.turnaround());
    }

    #[test]
    fn stats_are_populated() {
        let dag = chain(&[c(100, 0.0), c(100, 0.0)]);
        let cal = Calendar::new(4);
        let sched = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
        assert!(sched.stats.slot_queries > 0);
        assert!(sched.stats.cpa_allocations >= 1);
        assert_eq!(sched.stats.passes, 1);
    }

    /// `schedule_forward` as paper §4.2 states it, with nothing shared: per
    /// task, every multiple of the grain up to the bound evaluated and
    /// probed on its own through the linear reference, the earliest
    /// completion kept under the tie rule. What the one-walk search
    /// (dominance-elided candidates, `Calendar::earliest_finish`) is pinned
    /// to. Returns the placements, the non-`slot_*` stats, and the slot
    /// steps the calendar's one-candidate scans cost, width by width.
    fn brute_forward(
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        q: u32,
        cfg: ForwardConfig,
    ) -> (Vec<Placement>, ScheduleStats, u64) {
        let p = competing.capacity();
        let q = Pool::effective(q, p);
        let mut stats = ScheduleStats::default();
        stats.passes += 1;
        if matches!(cfg.bl, BlMethod::Cpa | BlMethod::CpaR) {
            stats.cpa_allocations += 1;
        }
        let exec = bl::exec_times(dag, p, q, cfg.bl, cfg.criterion);
        let order = bl::order_by_decreasing_bl(dag, &bl::bottom_levels(dag, &exec));
        let bounds = allocation_bounds(dag, p, q, cfg.bd, cfg.criterion, &mut stats);
        let g = cfg.grain.clamp(1, p);

        let mut cal = competing.clone();
        let mut placed: Vec<Option<Placement>> = vec![None; dag.num_tasks()];
        let mut walked = resched_resv::QueryCost::default();
        for &t in &order {
            let ready = dag
                .preds(t)
                .iter()
                .map(|pr| placed[pr.idx()].expect("predecessors first").end)
                .fold(now, Time::max);
            let mut best: Option<Placement> = None;
            for k in 1..=quantize_bound(bounds[t.idx()], g, p) / g {
                let m = k * g;
                let dur = dag.cost(t).exec_time(m);
                let start = cal
                    .linear()
                    .earliest_fit(m, dur, ready, &mut Default::default());
                let one = cal.earliest_finish(&[(m, dur)], ready, false, &mut walked);
                assert_eq!(one.start, start);
                let end = start + dur;
                let better = best.is_none_or(|b| {
                    end < b.end
                        || (end == b.end
                            && match cfg.tie {
                                TieBreak::FewestProcs => m < b.procs,
                                TieBreak::MostProcs => m > b.procs,
                            })
                });
                if better {
                    best = Some(Placement {
                        start,
                        end,
                        procs: m,
                    });
                }
            }
            let best = best.expect("one grain always fits");
            cal.add_unchecked(Reservation::new(best.start, best.end, best.procs));
            placed[t.idx()] = Some(best);
        }
        (placed.into_iter().flatten().collect(), stats, walked.steps)
    }

    #[test]
    fn one_walk_matches_the_brute_force_pass() {
        use rand::{Rng, SeedableRng};
        // Seeded DAG/calendar draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let (mut ties, mut saved) = (0u32, 0u64);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xF0_0019 ^ draw);
            let p = 16;
            let mut cal = Calendar::new(p);
            for _ in 0..rng.gen_range(0..30usize) {
                let s = rng.gen_range(0i64..60_000);
                let d = rng.gen_range(60i64..15_000);
                let m = rng.gen_range(1u32..=p);
                let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
            }
            let q = rng.gen_range(1u32..=p);
            let now = Time::seconds(rng.gen_range(0i64..30_000));
            let bl = BlMethod::ALL[draw as usize % BlMethod::ALL.len()];
            for overhead in [0, 3, 40] {
                let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
                for bd in BdMethod::ALL {
                    for grain in [1, 4] {
                        let cfgs =
                            [TieBreak::FewestProcs, TieBreak::MostProcs].map(|tie| ForwardConfig {
                                tie,
                                ..ForwardConfig::new(bl, bd).hierarchical(grain)
                            });
                        let runs = cfgs.map(|cfg| {
                            let case = format!(
                                "{} {:?}, draw {draw}, overhead {overhead}, grain {grain}",
                                cfg.name(),
                                cfg.tie
                            );
                            let (placements, stats, walked) =
                                brute_forward(&dag, &cal, now, q, cfg);
                            let got = schedule_forward(&dag, &cal, now, q, cfg);
                            assert_eq!(got.placements(), &placements[..], "{case}");
                            // One query per task; every other count as the
                            // per-width pass leaves it.
                            let tasks = dag.num_tasks() as u64;
                            assert_eq!(got.stats.slot_queries, tasks, "{case}");
                            assert!(
                                (tasks..=walked).contains(&got.stats.slot_steps),
                                "{} steps, the per-width walks {walked}, {case}",
                                got.stats.slot_steps
                            );
                            saved += walked - got.stats.slot_steps;
                            let rest = ScheduleStats {
                                slot_queries: 0,
                                slot_steps: 0,
                                ..got.stats
                            };
                            assert_eq!(rest, stats, "{case}");
                            placements
                        });
                        ties += u32::from(runs[0] != runs[1]);
                    }
                }
            }
        }
        assert!(
            ties > 0 && saved > 0,
            "the draws must exercise the tie rule ({ties} differ) and real walks ({saved} steps saved)"
        );
    }

    #[test]
    fn names_compose() {
        assert_eq!(
            ForwardConfig::new(BlMethod::CpaR, BdMethod::Cpa).name(),
            "BL_CPAR_BD_CPA"
        );
        assert_eq!(ForwardConfig::recommended().name(), "BL_CPAR_BD_CPAR");
    }

    #[test]
    fn deterministic() {
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.15); 5], c(300, 0.1));
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::seconds(50), Time::seconds(900), 5))
            .unwrap();
        let a = schedule_forward(&dag, &cal, Time::ZERO, 6, ForwardConfig::recommended());
        let b = schedule_forward(&dag, &cal, Time::ZERO, 6, ForwardConfig::recommended());
        assert_eq!(a, b);
    }
}
