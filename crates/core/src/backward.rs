//! Backward scheduling: the RESSCHEDDL (deadline-meeting) algorithms of
//! paper §5.
//!
//! Tasks are processed in *increasing* bottom-level order (exit tasks first)
//! and placed backward in time from the deadline `K`. When task `t_i` is
//! scheduled, all of its successors already are, so `t_i` must finish by
//! `dl_i = min(start of successors)` (or `K` for the first task).
//!
//! For each task the algorithms pick one `<m, start>` pair among the
//! per-processor-count *latest fits* before `dl_i`:
//!
//! * **Aggressive** (`DL_BD_*`): the pair with the latest start time, with
//!   `m` bounded by `p`, CPA(`p`) or CPA(`q`) — mirroring the forward
//!   bounding methods. Aggressive algorithms never try to save processors.
//! * **Resource-conservative** (`DL_RC_*`): the pair with the *fewest*
//!   processors whose start time is still no earlier than a CPA-derived
//!   guideline `S_i`, so the schedule tracks what CPA would have done on a
//!   dedicated platform (and therefore consumes few CPU-hours). `S_i` is
//!   obtained by re-mapping the not-yet-scheduled part of the DAG with
//!   CPA's list scheduler before every decision (paper §5.2.2). If no
//!   candidate starts late enough, the algorithm falls back to aggressive
//!   mode to get "back on track".
//! * **Hybrids** (`DL_RC_CPAR-λ`, `DL_RCBD_CPAR-λ`): relax the guideline to
//!   `S_i + λ·(dl_i − S_i)` and raise `λ` from 0 to 1 in steps of 0.05
//!   until the deadline is met (paper §5.4). The `RCBD` variant bounds the
//!   fallback's processor counts by the CPA(`q`) allocation instead of
//!   letting it use up to `p` processors.

use crate::bl::{self, BlMethod};
use crate::cpa::{self, CpaAllocation, CpaCache, MapScratch, StoppingCriterion};
use crate::dag::{Dag, TaskId};
use crate::floor::{Bound, Floor};
use crate::forward::{self, ForwardConfig};
use crate::obs;
use crate::pool::Pool;
use crate::schedule::{Placement, Schedule, ScheduleStats};
use crate::task::{TaskCost, Widths};
use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The deadline-scheduling algorithms of paper §5, by their paper names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeadlineAlgo {
    /// `DL_BD_ALL` — aggressive, allocations bounded by `p`.
    BdAll,
    /// `DL_BD_CPA` — aggressive, bounded by CPA(`p`) allocations.
    BdCpa,
    /// `DL_BD_CPAR` — aggressive, bounded by CPA(`q`) allocations.
    BdCpaR,
    /// `DL_RC_CPA` — resource-conservative, CPA(`p`) start-time guideline.
    RcCpa,
    /// `DL_RC_CPAR` — resource-conservative, CPA(`q`) start-time guideline.
    RcCpaR,
    /// `DL_RC_CPAR-λ` — hybrid: raise λ from 0 until the deadline is met.
    RcCpaRLambda,
    /// `DL_RCBD_CPAR-λ` — hybrid with CPA-bounded fallback allocations.
    RcbdCpaRLambda,
}

impl DeadlineAlgo {
    /// All seven algorithms in the paper's presentation order.
    pub const ALL: [DeadlineAlgo; 7] = [
        DeadlineAlgo::BdAll,
        DeadlineAlgo::BdCpa,
        DeadlineAlgo::BdCpaR,
        DeadlineAlgo::RcCpa,
        DeadlineAlgo::RcCpaR,
        DeadlineAlgo::RcCpaRLambda,
        DeadlineAlgo::RcbdCpaRLambda,
    ];

    /// The five non-hybrid algorithms compared in the paper's Table 6.
    pub const TABLE6: [DeadlineAlgo; 5] = [
        DeadlineAlgo::BdAll,
        DeadlineAlgo::BdCpa,
        DeadlineAlgo::BdCpaR,
        DeadlineAlgo::RcCpa,
        DeadlineAlgo::RcCpaR,
    ];

    /// The paper's name for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineAlgo::BdAll => "DL_BD_ALL",
            DeadlineAlgo::BdCpa => "DL_BD_CPA",
            DeadlineAlgo::BdCpaR => "DL_BD_CPAR",
            DeadlineAlgo::RcCpa => "DL_RC_CPA",
            DeadlineAlgo::RcCpaR => "DL_RC_CPAR",
            DeadlineAlgo::RcCpaRLambda => "DL_RC_CPAR-L",
            DeadlineAlgo::RcbdCpaRLambda => "DL_RCBD_CPAR-L",
        }
    }
}

impl fmt::Display for DeadlineAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The deadline cannot be met by the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineInfeasible {
    /// The deadline that could not be met.
    pub deadline: Time,
    /// The floor's first half found past the deadline, when it answered
    /// ([`Roster::floor_past`]): no algorithm meets it, and none was run.
    /// `None` when the algorithm ran and missed.
    pub floor: Option<Bound>,
}

impl fmt::Display for DeadlineInfeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline {} cannot be met", self.deadline)?;
        match self.floor {
            Some(floor) => write!(f, ": no valid schedule completes before {floor}"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for DeadlineInfeasible {}

/// Configuration shared by the deadline algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineConfig {
    /// CPA stopping criterion for all CPA allocations.
    pub criterion: StoppingCriterion,
    /// λ step size for the hybrid algorithms (paper: 0.05).
    pub lambda_step: f64,
    /// Placement grain: candidate allocations are restricted to multiples
    /// of this many cores. 1 is the paper's flat core-level placement;
    /// above 1 is the hierarchical twin regime (whole nodes of `grain`
    /// cores). Grain 1 is flat placement byte-for-byte. Deserializing a
    /// config written before the field existed yields 0, which every
    /// consumer clamps up to 1 — also flat.
    #[serde(default)]
    pub grain: u32,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            criterion: StoppingCriterion::default(),
            lambda_step: 0.05,
            grain: 1,
        }
    }
}

impl DeadlineConfig {
    /// The hierarchical twin of this configuration: placements restricted
    /// to whole `grain`-core nodes.
    pub fn hierarchical(self, grain: u32) -> DeadlineConfig {
        DeadlineConfig {
            grain: grain.max(1),
            ..self
        }
    }
}

/// Outcome of a successful deadline-scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadlineOutcome {
    /// The computed schedule.
    pub schedule: Schedule,
    /// The λ value that succeeded (hybrid algorithms only).
    pub lambda: Option<f64>,
}

/// Try to schedule `dag` so that every task completes by `deadline`.
///
/// `competing` describes the platform and its existing reservations, `now`
/// the scheduling instant, and `q` the historical average availability.
/// This is a [`Roster`] asked one question.
pub fn schedule_deadline(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    q: u32,
    deadline: Time,
    algo: DeadlineAlgo,
    cfg: DeadlineConfig,
) -> Result<DeadlineOutcome, DeadlineInfeasible> {
    Roster::prepare(dag, competing, now, q, cfg).schedule(deadline, algo)
}

/// One problem instance `(dag, competing, now, q)`, prepared once for every
/// question asked of it: any algorithm at any deadline
/// ([`schedule`](Roster::schedule)), the tightest deadline an algorithm
/// meets ([`tightest`](Roster::tightest)), and any forward configuration
/// ([`forward`](Roster::forward)).
///
/// Every RESSCHEDDL algorithm starts from the CPA(`q`) allocation and the
/// increasing-`BL_CPAR` order it gives (paper §5.2), and the forward
/// `*_CPA(R)` configurations read the same allocations: pure functions of
/// `(dag, p, q, criterion)`, computed here once, on the first question that
/// needs them. A deadline below the instance [`Floor`] needs nothing: no
/// algorithm meets it, and it is answered `Err` on the spot. Each answer is
/// exactly the independent call's — `schedule_deadline` or
/// `schedule_forward` — placements, λ, infeasibility and every
/// [`ScheduleStats`] field, which count what the question asked for, not
/// what was computed.
pub struct Roster<'a> {
    dag: &'a Dag,
    competing: &'a Calendar,
    now: Time,
    /// The effective pool `Pool::effective(q, p)`.
    q: u32,
    cfg: DeadlineConfig,
    /// The smallest instant the floor was found clear of (no floor is past `MAX`).
    clear: Time,
    /// The CPA allocations of the instance: CPA(`q`) from the order on,
    /// CPA(`p`) (a continuation of it) once something asks for it.
    cache: CpaCache,
    /// Increasing `BL_CPAR` bottom levels: exit tasks first. Empty until
    /// the first question that runs a pass (a DAG has at least one task).
    order: Vec<TaskId>,
    /// One pass-buffer set for every pass of every algorithm (a λ sweep
    /// alone runs up to 21 passes over it), made by the first pass.
    pass: Option<PassBufs>,
}

impl<'a> Roster<'a> {
    /// Prepare the instance for the deadline algorithms under `cfg`:
    /// nothing is computed until a question needs it.
    #[inline]
    pub fn prepare(
        dag: &'a Dag,
        competing: &'a Calendar,
        now: Time,
        q: u32,
        cfg: DeadlineConfig,
    ) -> Roster<'a> {
        Roster {
            dag,
            competing,
            now,
            q: Pool::effective(q, competing.capacity()),
            cfg,
            clear: Time::MAX,
            cache: CpaCache::new(),
            order: Vec::new(),
            pass: None,
        }
    }

    /// Whether the instance [`Floor`] (under the roster's grain) lies past
    /// `instant`: the first half found past it, cheapest first, and how far
    /// it reached. Only the smallest instant found clear is remembered: a
    /// question at or above it is `None` without a walk (the floor lies at
    /// or below it), any other is computed afresh, bound included.
    #[inline]
    pub fn floor_past(&mut self, instant: Time) -> Option<Bound> {
        if instant >= self.clear {
            return None;
        }
        let bound = Floor::past(self.dag, self.competing, self.now, self.cfg.grain, instant);
        if bound.is_none() {
            self.clear = instant;
        }
        bound
    }

    /// The task order, computed on first use. All algorithms order tasks
    /// with BL_CPAR bottom levels (paper §5.2: "We use the BL_CPAR method
    /// ... because it proved the best"). The CPA(q) allocation behind it is
    /// the one the BD_CPAR bounds, RC guides and hybrid guides read back
    /// from the cache.
    fn prepare_order(&mut self) {
        if !self.order.is_empty() {
            return;
        }
        crate::span!(obs::names::SPAN_DEADLINE_PREP);
        let (dag, p) = (self.dag, self.competing.capacity());
        let exec = self
            .cache
            .exec_times(dag, p, self.q, BlMethod::CpaR, self.cfg.criterion);
        let levels = bl::bottom_levels(dag, &exec);
        self.order = bl::order_by_increasing_bl(dag, &levels);
    }

    /// `schedule_deadline(.., deadline, algo, ..)` on this instance. Its
    /// stats start from the allocation request behind the order, as if the
    /// algorithm had prepared the instance. A deadline the floor lies past
    /// ([`floor_past`](Roster::floor_past)) is answered at once, with the
    /// floor's bound in the error.
    pub fn schedule(
        &mut self,
        deadline: Time,
        algo: DeadlineAlgo,
    ) -> Result<DeadlineOutcome, DeadlineInfeasible> {
        if let Some(floor) = self.floor_past(deadline) {
            obs::counter_add(obs::names::BACKWARD_FLOOR_SKIPS, 1);
            return Err(DeadlineInfeasible {
                deadline,
                floor: Some(floor),
            });
        }
        self.prepare_order();
        let Roster {
            dag,
            competing,
            now,
            q,
            cfg,
            ref mut cache,
            ref order,
            ref mut pass,
            ..
        } = *self;
        let pass = pass.get_or_insert_with(PassBufs::default);
        let p = competing.capacity();
        let grain = cfg.grain.clamp(1, p.max(1));
        let mut stats = ScheduleStats::default();
        stats.count_cpa_allocation();
        // `S_i` depends on the guide, and an algorithm counts every mapping
        // it reads; the width candidates depend on cost and grain alone and
        // stay.
        pass.guideline.clear();
        let mut placed = Vec::new();
        let mut run = |mode: Mode<'_>, stats: &mut ScheduleStats, pass: &mut PassBufs| {
            backward_pass(
                dag,
                competing,
                now,
                deadline,
                order,
                mode,
                grain,
                stats,
                pass,
                &mut placed,
            )
        };

        // `None`: the deadline cannot be met. `Some(λ)`: it is met, at that
        // λ for a hybrid, with none for the others.
        let lambda = match algo {
            DeadlineAlgo::BdAll | DeadlineAlgo::BdCpa | DeadlineAlgo::BdCpaR => {
                let flat;
                let bounds: &[u32] = match algo {
                    DeadlineAlgo::BdCpa => {
                        stats.count_cpa_allocation();
                        &cache.cpa(dag, p, cfg.criterion).allocs
                    }
                    DeadlineAlgo::BdCpaR => {
                        stats.count_cpa_allocation();
                        &cache.cpa(dag, q, cfg.criterion).allocs
                    }
                    _ => {
                        flat = vec![p; dag.num_tasks()];
                        &flat
                    }
                };
                run(Mode::Aggressive { bounds }, &mut stats, pass).then_some(None)
            }
            DeadlineAlgo::RcCpa | DeadlineAlgo::RcCpaR => {
                let pool = if algo == DeadlineAlgo::RcCpa { p } else { q };
                stats.count_cpa_allocation();
                let guide = cache.cpa(dag, pool, cfg.criterion);
                let mode = Mode::Rc {
                    guide,
                    lambda: 0.0,
                    fallback_bounds: None,
                };
                run(mode, &mut stats, pass).then_some(None)
            }
            DeadlineAlgo::RcCpaRLambda | DeadlineAlgo::RcbdCpaRLambda => {
                stats.count_cpa_allocation();
                let guide = cache.cpa(dag, q, cfg.criterion);
                let fallback_bounds =
                    (algo == DeadlineAlgo::RcbdCpaRLambda).then_some(guide.allocs.as_slice());
                // The most recent failed pass's decision log (the warm-start
                // skip reads it); kept by swapping with the pass's, not cloning.
                let mut last_failure = Vec::new();
                lambda_grid(cfg.lambda_step)
                    .find(|&lambda| {
                        if sweep_skips(&last_failure, lambda) {
                            return false;
                        }
                        let mode = Mode::Rc {
                            guide,
                            lambda,
                            fallback_bounds,
                        };
                        let ok = run(mode, &mut stats, pass);
                        if !ok {
                            std::mem::swap(&mut pass.decisions, &mut last_failure);
                        }
                        ok
                    })
                    .map(Some)
            }
        };
        let lambda = lambda.ok_or(DeadlineInfeasible {
            deadline,
            floor: None,
        })?;

        let mut schedule = Schedule::new(placed, now);
        schedule.stats = stats;
        #[cfg(debug_assertions)]
        self.validate(deadline, algo, &schedule);
        Ok(DeadlineOutcome { schedule, lambda })
    }

    /// Debug-gated post-pass: replay a successful deadline schedule
    /// through the independent oracle, with the declared allocation cap of
    /// the algorithm that produced it (the `DL_BD_*` bounds; the RC family
    /// and the λ-hybrids may fall back to scans over `1..=p`, so their cap
    /// is `p`).
    #[cfg(debug_assertions)]
    fn validate(&self, deadline: Time, algo: DeadlineAlgo, sched: &Schedule) {
        let (dag, cfg, p) = (self.dag, self.cfg, self.competing.capacity());
        let g = cfg.grain.clamp(1, p.max(1));
        let declared: Vec<u32> = match algo {
            DeadlineAlgo::BdCpa => cpa::allocate(dag, p, cfg.criterion).allocs,
            DeadlineAlgo::BdCpaR => cpa::allocate(dag, self.q, cfg.criterion).allocs,
            _ => vec![p; dag.num_tasks()],
        };
        crate::validate::ScheduleValidator::new(dag, self.competing, self.now)
            .with_grain(g)
            .with_declared_bounds(
                declared
                    .into_iter()
                    .map(|b| forward::quantize_bound(b, g, p))
                    .collect(),
            )
            .with_deadline(deadline)
            .assert_valid(sched, algo.name());
    }

    /// `schedule_forward(.., cfg)` on this instance, reading the
    /// instance's CPA allocations.
    pub fn forward(&mut self, cfg: ForwardConfig) -> Schedule {
        let (dag, competing, now, q) = (self.dag, self.competing, self.now, self.q);
        forward::schedule_forward_in(&mut self.cache, dag, competing, now, q, cfg, None)
    }

    /// The tightest deadline `algo` meets on this instance, found by
    /// exponential + binary search (paper §5.3), together with the schedule
    /// that meets it; `None` if even an astronomically loose deadline cannot
    /// be met (which only happens if the platform is too small for some
    /// task).
    ///
    /// `precision` is the search resolution. The search stops once a probe
    /// would land on either end of its interval, so a `precision` of one
    /// second or less — zero or negative included — searches to the
    /// second.
    pub fn tightest(
        &mut self,
        algo: DeadlineAlgo,
        precision: Dur,
    ) -> Option<(Time, DeadlineOutcome)> {
        let now = self.now;
        // Initial guess: the forward BD_CPAR completion time.
        let guess = self.forward(ForwardConfig::recommended()).completion();
        let mut hi = guess.max(now + Dur::seconds(1));
        let mut hi_outcome = None;
        for _ in 0..48 {
            if let Ok(out) = self.schedule(hi, algo) {
                hi_outcome = Some(out);
                break;
            }
            hi = now + (hi - now) * 2;
        }
        let mut hi_outcome = hi_outcome?;

        let mut lo = now; // trivially infeasible (tasks take time)
        while hi - lo > precision {
            let mid = lo.midpoint(hi);
            if mid == lo || mid == hi {
                break;
            }
            match self.schedule(mid, algo) {
                Ok(out) => {
                    hi = mid;
                    hi_outcome = out;
                }
                Err(_) => lo = mid,
            }
        }
        Some((hi, hi_outcome))
    }
}

/// How the backward pass picks among per-`m` latest fits.
enum Mode<'a> {
    /// Latest start wins; `m` ranges over `1..=bounds[t]`.
    Aggressive { bounds: &'a [u32] },
    /// Fewest processors with `start >= S_i + λ(dl_i − S_i)` wins; fallback
    /// to latest start over `1..=p` (or `1..=fallback_bounds[t]` for RCBD).
    Rc {
        guide: &'a CpaAllocation,
        lambda: f64,
        fallback_bounds: Option<&'a [u32]>,
    },
}

/// The finest λ grid a sweep walks: 1 001 passes at most.
pub const MIN_LAMBDA_STEP: f64 = 1e-3;

/// The hybrid λ sweep grid, lazily: every multiple of `step` strictly
/// below 1, then exactly `1.0`.
///
/// Integer-indexed (`i as f64 * step`) so repeated float accumulation
/// cannot drift, and `1.0` is always the final value — the legacy
/// `lambda += step` loop drifted and, for step sizes like `0.3`, stepped
/// from `0.899…` straight past `1.0` without ever trying the fully
/// aggressive pass.
///
/// Total in `step`, which a deserialised [`DeadlineConfig`] carries
/// unchecked: a step below [`MIN_LAMBDA_STEP`] is raised to it (the sweep
/// stays bounded), and one that is not a positive number (zero, negative,
/// NaN) gives the two endpoint passes, like any step of 1 or more. Clamped
/// rather than rejected because `schedule_deadline`'s only error is "the
/// deadline cannot be met", and the endpoints are the two passes every
/// grid shares: pure RC, then the fully aggressive fallback.
pub fn lambda_grid(step: f64) -> impl Iterator<Item = f64> {
    // NaN fails the comparison and lands on the coarsest grid; a step of 1
    // is that grid too, and keeps `0 · ∞` out of the multiples.
    let step = if step > 0.0 {
        step.clamp(MIN_LAMBDA_STEP, 1.0)
    } else {
        1.0
    };
    (0u32..)
        .map(move |i| f64::from(i) * step)
        .take_while(|&lambda| lambda < 1.0)
        .chain(std::iter::once(1.0))
}

/// The relaxed RC guideline `S_i + λ·(dl_i − S_i)` (paper §5.4).
///
/// Rounding policy: the λ fraction of the slack is taken with an explicit
/// `floor`, so the threshold never overshoots the interpolation target and
/// λ = 1.0 lands on `dl_i` exactly. (The previous `as i64` cast truncated
/// toward zero, which rounded *up* — past the target — whenever the slack
/// was negative.)
fn rc_threshold(s_i: Time, dl: Time, lambda: f64) -> Time {
    let slack = (dl.as_seconds() - s_i.as_seconds()) as f64;
    Time::seconds(s_i.as_seconds() + (lambda * slack).floor() as i64)
}

/// Warm start: a failed pass whose every decision provably replays
/// identically at `lambda` fails identically — skip it (and count the
/// saving). `last_failure` is empty until a pass has failed.
fn sweep_skips(last_failure: &[RcDecision], lambda: f64) -> bool {
    let skip = failure_repeats_at(last_failure, lambda);
    if skip {
        obs::counter_add(obs::names::HYBRID_LAMBDA_PASSES_SAVED, 1);
    }
    skip
}

/// The CPA guideline starts `S_i` of one call, each computed on first
/// read: the start of the task in the mapping of the not-yet-scheduled
/// suffix of the order (predecessor-closed, because predecessors have
/// higher bottom levels) on an empty virtual platform from `now` (paper
/// §5.2.2). `S_i` depends only on `(dag, guide, now, suffix)`, none of
/// which a pass changes, so the single-pass `DL_RC_*` algorithms and every
/// λ pass of a sweep read the same memo: a call that succeeds reads (and
/// counts in `cpa_mappings`) each of the `n` tasks' `S_i` exactly once, one
/// that fails only the tasks some pass reached.
///
/// A read maps its suffix only when the last mapping is not also that
/// suffix's (see [`GuidelineStarts::maps`]). Under a CPA(`q`) guide the
/// mapping's priority order is the order reversed, so every later suffix
/// drops a tail of it and a call maps once; under CPA(`p`) ≠ CPA(`q`) it
/// mostly re-maps per read.
#[derive(Debug, Default)]
struct GuidelineStarts {
    /// `S_i` by task, `None` until first read.
    starts: Vec<Option<Time>>,
    unscheduled: Vec<bool>,
    map: MapScratch,
    /// The last mapping.
    mapped: Vec<Option<Placement>>,
    /// The suffix `mapped` was made for; empty when there is none under
    /// the current guide.
    mapped_for: Vec<TaskId>,
    /// Each task's position in `map`'s priority order.
    rank: Vec<usize>,
}

impl GuidelineStarts {
    /// Forget every `S_i` and the last mapping, for a call under another
    /// guide.
    fn clear(&mut self) {
        self.starts.clear();
        self.mapped_for.clear();
    }

    /// Whether the last mapping is also the mapping of `suffix`: `suffix`
    /// is a tail of the suffix it was made for, and every task dropped from
    /// that comes after every kept one in the mapping's priority order.
    /// List scheduling places tasks in that order and never moves a placed
    /// one, so the kept tasks were placed before any dropped task existed
    /// on the platform, exactly as a mapping of `suffix` alone places them.
    fn maps(&self, suffix: &[TaskId]) -> bool {
        let Some(dropped) = self.mapped_for.strip_suffix(suffix) else {
            return false;
        };
        let rank = |u: &TaskId| self.rank.get(u.idx()).copied();
        let last_kept = suffix.iter().map(rank).max().flatten();
        dropped.iter().all(|u| rank(u) > last_kept)
    }

    /// `S_i` of `t`, the first task of the unscheduled `suffix`.
    fn start(
        &mut self,
        dag: &Dag,
        guide: &CpaAllocation,
        now: Time,
        t: TaskId,
        suffix: &[TaskId],
        stats: &mut ScheduleStats,
    ) -> Time {
        self.starts.resize(dag.num_tasks(), None);
        if let Some(s_i) = self.starts[t.idx()] {
            return s_i;
        }
        // Counted per read, mapped or not: `cpa_mappings` is what the
        // algorithm asks for (see [`Roster`]).
        stats.count_cpa_mapping();
        if !self.maps(suffix) {
            self.unscheduled.clear();
            self.unscheduled.resize(dag.num_tasks(), false);
            for &u in suffix {
                self.unscheduled[u.idx()] = true;
            }
            // NB: the mapping's probe cost is deliberately *not* folded into
            // `stats` (it runs on a virtual platform); the registry still
            // sees it under `cpa.map.*` via the mapping's probes.
            let mut qcost = QueryCost::default();
            cpa::map_subset_into(
                dag,
                guide,
                now,
                &self.unscheduled,
                &mut qcost,
                &mut self.map,
                &mut self.mapped,
            );
            self.mapped_for.clear();
            self.mapped_for.extend_from_slice(suffix);
            self.rank.resize(dag.num_tasks(), 0);
            for (i, &u) in self.map.order().iter().enumerate() {
                self.rank[u.idx()] = i;
            }
        }
        // `t` is in the subset by construction; if the map somehow misses
        // it, `now` is the safe guideline (earliest start ⇒ loosest
        // threshold, and the aggressive fallback still guarantees validity).
        debug_assert!(
            self.mapped[t.idx()].is_some(),
            "current task is in the unscheduled subset"
        );
        let s_i = self.mapped[t.idx()].map_or(now, |pl| pl.start);
        self.starts[t.idx()] = Some(s_i);
        s_i
    }
}

/// One RC placement decision, recorded so a failed pass can prove that a
/// later λ would replay it identically.
#[derive(Clone, Debug)]
struct RcDecision {
    s_i: Time,
    dl: Time,
    threshold: Time,
    /// Start of the conservative choice; `None` if the task fell back.
    chosen: Option<Time>,
}

/// Would a pass that recorded `decisions` make exactly the same choices at
/// `lambda`? True when, for every decision, the new threshold is no
/// earlier than the recorded one *and* any conservative choice still
/// clears it. Raising the threshold only shrinks the eligible candidate
/// set, so the first-fit `m` is unchanged while the old choice stays
/// eligible; ineligible-everywhere tasks stay ineligible and take the same
/// λ-independent fallback. By induction over the (identical) placement
/// sequence the deadlines `dl_i` replay too, so a failed pass that
/// satisfies this predicate fails identically and can be skipped.
fn failure_repeats_at(decisions: &[RcDecision], lambda: f64) -> bool {
    !decisions.is_empty()
        && decisions.iter().all(|d| {
            let th = rc_threshold(d.s_i, d.dl, lambda);
            th >= d.threshold && d.chosen.is_none_or(|s| s >= th)
        })
}

/// Scratch for [`backward_pass`], held by the [`Roster`] for the whole
/// call: a hybrid sweep runs one pass per λ over the same set. `cal` and
/// `placements` are rebuilt by every pass; `guideline` (per algorithm) and
/// `widths` (per call) are memos every pass reads and extends.
#[derive(Debug)]
struct PassBufs {
    cal: Calendar,
    placements: Vec<Option<Placement>>,
    guideline: GuidelineStarts,
    /// Per-task width candidates. They depend on the task's cost and the
    /// grain alone.
    widths: Vec<Widths>,
    /// The last RC pass's decisions, for [`failure_repeats_at`].
    decisions: Vec<RcDecision>,
}

impl Default for PassBufs {
    fn default() -> Self {
        PassBufs {
            cal: Calendar::new(1),
            placements: Vec::new(),
            guideline: GuidelineStarts::default(),
            widths: Vec::new(),
            decisions: Vec::new(),
        }
    }
}

/// One whole-DAG backward pass. Writes placements for every task into `out`
/// and returns `true`, or returns `false` if some task cannot be placed
/// between `now` and its deadline.
///
/// `bufs` is the call's scratch set (see [`PassBufs`]); an RC pass leaves
/// its decision log in `bufs.decisions`. `grain` restricts every candidate
/// allocation to whole multiples of that many cores (1 = the paper's flat
/// placement; see `DeadlineConfig::grain`).
#[allow(clippy::too_many_arguments)]
fn backward_pass(
    dag: &Dag,
    competing: &Calendar,
    now: Time,
    deadline: Time,
    order: &[TaskId],
    mode: Mode<'_>,
    grain: u32,
    stats: &mut ScheduleStats,
    bufs: &mut PassBufs,
    out: &mut Vec<Placement>,
) -> bool {
    crate::span!(obs::names::SPAN_DEADLINE_PASS);
    stats.count_pass();
    let p = competing.capacity();
    let PassBufs {
        cal,
        placements,
        guideline,
        widths,
        decisions,
    } = bufs;
    decisions.clear();
    cal.copy_from(competing);
    placements.clear();
    placements.resize(dag.num_tasks(), None);
    widths.resize_with(dag.num_tasks(), Widths::default);

    for (k, &t) in order.iter().enumerate() {
        // Successors are already scheduled (they have lower bottom levels),
        // so each contributes its start; an unplaced one would mean the
        // order is not reverse-topological.
        let mut dl = deadline;
        for &s in dag.succs(t) {
            debug_assert!(
                placements[s.idx()].is_some(),
                "increasing-bl order schedules successors first"
            );
            if let Some(pl) = placements[s.idx()] {
                dl = dl.min(pl.start);
            }
        }

        let scan = WidthScan {
            cal,
            cost: dag.cost(t),
            grain,
            dl,
            now,
        };
        let memo = &mut widths[t.idx()];
        let chosen = match &mode {
            Mode::Aggressive { bounds } => {
                let bound = forward::quantize_bound(bounds[t.idx()], grain, p);
                scan.run(memo, None, bound, stats)
            }
            Mode::Rc {
                guide,
                lambda,
                fallback_bounds,
            } => {
                // CPA guideline start time S_i (paper §5.2.2).
                let s_i = guideline.start(dag, guide, now, t, &order[k..], stats);
                let threshold = rc_threshold(s_i, dl, *lambda);

                // Fewest processors whose latest fit starts at or after the
                // threshold (grain-stepped: whole nodes only), else the
                // back-on-track fallback: the latest start among the
                // fallback's widths.
                let bound = fallback_bounds.map(|b| b[t.idx()]).unwrap_or(p);
                let bound = forward::quantize_bound(bound, grain, p);
                let chosen = scan.run(memo, Some(threshold), bound, stats);
                decisions.push(RcDecision {
                    s_i,
                    dl,
                    threshold,
                    // A fallback starts before the threshold, or the scan
                    // would have taken it as the conservative choice.
                    chosen: chosen.map(|pl| pl.start).filter(|&s| s >= threshold),
                });
                chosen
            }
        };

        let chosen = match chosen {
            Some(c) => c,
            None => return false,
        };
        cal.add_unchecked(Reservation::new(chosen.start, chosen.end, chosen.procs));
        placements[t.idx()] = Some(chosen);
    }

    // The loop above either places every task in `order` (which covers the
    // whole DAG) or returns `false` early.
    out.clear();
    out.extend(placements.iter().flatten().copied());
    debug_assert_eq!(out.len(), dag.num_tasks(), "all tasks placed");
    true
}

/// One task's width scan: which `<m, start>` pair it takes among the
/// per-width latest fits before `dl` on `cal`.
struct WidthScan<'a> {
    cal: &'a Calendar,
    cost: TaskCost,
    grain: u32,
    dl: Time,
    now: Time,
}

/// The conservative rule asks about the candidate list in chunks of 1, 4,
/// 16, … candidates, each listed only when the one before it has no answer:
/// every candidate is in exactly one chunk, so the first chunk with an
/// answer holds the narrowest, and a scan that accepts `m = 1` never
/// evaluates `exec_time(p)`. Measured (seed 77, `--seconds 6`, three
/// alternating rounds, medians; DESIGN.md §9): handing the whole list to
/// one walk costs `batch_table9` 726 → 621 ops/s and 1 346 → 1 902 µs
/// `op_p50_us` (100 tasks × 1 152 `exec_time` evaluations per RC pass);
/// growth by 2 / 4 / 8 reads 753 / 726 / 734 ops/s there and 4 650 / 4 852
/// / 5 006 on `serve_deadline`, all inside one another's spread, so the
/// middle one stays: six walks cross a 1 152-wide list.
const FIRST_CHUNK: usize = 1;
const CHUNK_GROWTH: usize = 4;

impl WidthScan<'_> {
    /// The narrowest candidate whose latest fit starts at or after
    /// `threshold` (none, for `None`); failing that, the latest-starting
    /// fit among the candidates no wider than `latest_bound` (a tie keeps
    /// the smaller `m`), or `None` if none of those fits between `now` and
    /// `dl`. Callers pre-quantize the bound to a multiple of the grain (see
    /// [`forward::quantize_bound`]). One calendar walk per chunk of
    /// candidates asked about, and one for the latest start.
    fn run(
        &self,
        widths: &mut Widths,
        threshold: Option<Time>,
        latest_bound: u32,
        stats: &mut ScheduleStats,
    ) -> Option<Placement> {
        if let Some(threshold) = threshold {
            // A fit never starts before `now`, whatever the guideline says.
            let from = threshold.max(self.now);
            let p = self.cal.capacity();
            let (mut asked, mut len) = (0, FIRST_CHUNK);
            loop {
                let chunk = widths.range(asked, len, &self.cost, self.grain, p);
                if chunk.is_empty() {
                    break;
                }
                let fit = obs::probe::narrowest_start_from(self.cal, chunk, self.dl, from, stats);
                if fit.is_some() {
                    return fit;
                }
                asked += chunk.len();
                len *= CHUNK_GROWTH;
            }
        }
        let candidates = widths.up_to(&self.cost, self.grain, latest_bound);
        obs::probe::latest_start(self.cal, candidates, self.dl, self.now, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::Algorithm;
    use crate::dag::{chain, fork_join};
    use crate::floor::Half;
    use crate::task::TaskCost;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    fn small_dag() -> Dag {
        fork_join(c(300, 0.1), &[c(3600, 0.15); 4], c(300, 0.1))
    }

    /// The `DL_RC_*` algorithms and the λ-hybrids: the ones that read `S_i`.
    fn reads_guideline(algo: DeadlineAlgo) -> bool {
        !matches!(
            algo,
            DeadlineAlgo::BdAll | DeadlineAlgo::BdCpa | DeadlineAlgo::BdCpaR
        )
    }

    /// [`Roster::tightest`] on a freshly prepared instance at `now = 0`.
    fn tightest(
        dag: &Dag,
        cal: &Calendar,
        q: u32,
        algo: DeadlineAlgo,
        cfg: DeadlineConfig,
        precision: Dur,
    ) -> Option<(Time, DeadlineOutcome)> {
        Roster::prepare(dag, cal, Time::ZERO, q, cfg).tightest(algo, precision)
    }

    fn busy_calendar() -> Calendar {
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::seconds(200), Time::seconds(4000), 5))
            .unwrap();
        cal.try_add(Reservation::new(
            Time::seconds(9000),
            Time::seconds(15_000),
            3,
        ))
        .unwrap();
        cal
    }

    #[test]
    fn all_algorithms_meet_loose_deadline_with_valid_schedules() {
        let dag = small_dag();
        let cal = busy_calendar();
        let deadline = Time::seconds(400_000);
        for algo in DeadlineAlgo::ALL {
            let out = schedule_deadline(
                &dag,
                &cal,
                Time::ZERO,
                4,
                deadline,
                algo,
                DeadlineConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{algo} failed on loose deadline: {e}"));
            Algorithm::Deadline(algo)
                .validator(&dag, &cal, Time::ZERO, Some(deadline))
                .check(&out.schedule)
                .unwrap_or_else(|e| panic!("{algo} produced invalid schedule: {e}"));
            assert!(out.schedule.completion() <= deadline);
        }
    }

    #[test]
    fn impossible_deadline_is_reported() {
        let dag = small_dag();
        let cfg = DeadlineConfig::default();
        // The exit task alone takes ~60 s at full width: 1 s is below the
        // instance floor, which answers for every algorithm before any
        // allocation, mapping or pass.
        let cal = busy_calendar();
        let k = Time::seconds(1);
        let floor = Some(Bound {
            at: Floor::of(&dag, &cal, Time::ZERO, 1).critical_path,
            half: Half::CriticalPath,
        });
        for algo in DeadlineAlgo::ALL {
            let (out, report) = obs::observe("impossible", || {
                schedule_deadline(&dag, &cal, Time::ZERO, 4, k, algo, cfg)
            });
            assert_eq!(out, Err(DeadlineInfeasible { deadline: k, floor }));
            let counter = |name| report.metrics.counter(name);
            assert_eq!(counter(obs::names::BACKWARD_FLOOR_SKIPS), 1, "{algo}");
            assert_eq!(counter(obs::names::FLOOR_QUESTIONS), 1, "{algo}");
            for name in [
                obs::names::CPA_CACHE_MISS,
                obs::names::STATS_CPA_MAPPINGS,
                obs::names::STATS_PASSES,
            ] {
                assert_eq!(counter(name), 0, "{algo}: {name}");
            }
        }

        // Above the floor, on a machine that never has more than four of
        // its eight processors free, and those 80 s at a time: each task of
        // a chain fits the floor's relaxed width list (four processors for
        // the seven-processor time, 69 s) but no width it may take (four
        // processors need 98 s). No pass gets beyond the first order
        // position, so an RC algorithm (every λ pass of a hybrid included)
        // has read one `S_i` and mapped one suffix.
        let dag = chain(&[c(300, 0.1); 2]);
        let mut gappy = Calendar::new(8);
        gappy
            .try_add(Reservation::new(Time::ZERO, Time::seconds(40_000), 4))
            .unwrap();
        for k in 0..400 {
            let start = Time::seconds(k * 100 + 80);
            gappy
                .try_add(Reservation::new(start, start + Dur::seconds(20), 4))
                .unwrap();
        }
        let k = Time::seconds(30_000);
        assert!(Floor::of(&dag, &gappy, Time::ZERO, 1).time() <= k);
        for algo in DeadlineAlgo::ALL {
            let (out, report) = obs::observe("impossible", || {
                schedule_deadline(&dag, &gappy, Time::ZERO, 4, k, algo, cfg)
            });
            let floor = None;
            assert_eq!(out, Err(DeadlineInfeasible { deadline: k, floor }));
            assert_eq!(
                report.metrics.counter(obs::names::STATS_CPA_MAPPINGS),
                u64::from(reads_guideline(algo)),
                "{algo}"
            );
        }
    }

    #[test]
    fn a_roster_asked_only_below_its_floor_allocates_nothing() {
        // Every algorithm, at the scheduling instant and one second short of
        // the floor: answered from the floor, with no CPA allocation (no
        // cache miss), no order, no pass. At the floor itself it runs.
        let (dag, cal) = (small_dag(), busy_calendar());
        let cfg = DeadlineConfig::default();
        let floor = Floor::of(&dag, &cal, Time::ZERO, 1).time();
        let below = [Time::ZERO, floor - Dur::seconds(1)]
            .map(|k| (k, Floor::past(&dag, &cal, Time::ZERO, 1, k)));
        let ((), report) = obs::observe("below the floor", || {
            let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, 4, cfg);
            for algo in DeadlineAlgo::ALL {
                for (k, floor) in below {
                    assert!(floor.is_some_and(|b| b.at > k), "{floor:?}");
                    let want = DeadlineInfeasible { deadline: k, floor };
                    assert_eq!(roster.schedule(k, algo), Err(want), "{algo}");
                }
            }
        });
        let counter = |name| report.metrics.counter(name);
        assert_eq!(counter(obs::names::BACKWARD_FLOOR_SKIPS), 14);
        // No instant was found clear, so each question walked.
        assert_eq!(counter(obs::names::FLOOR_QUESTIONS), 14);
        assert_eq!(counter(obs::names::CPA_CACHE_MISS), 0);
        assert_eq!(counter(obs::names::CPA_ALLOC_ITERS), 0);
        assert_eq!(counter(obs::names::STATS_PASSES), 0);
        assert!(report
            .profile
            .span(obs::names::SPAN_DEADLINE_PREP)
            .is_none());

        // At the floor, and then again at and above it: one walk finds the
        // floor clear of it, and the later questions are answered from
        // that.
        let ((), report) = obs::observe("at the floor", || {
            let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, 4, cfg);
            let _ = roster.schedule(floor, DeadlineAlgo::BdCpaR);
            for k in [floor, floor + Dur::hours(1)] {
                assert_eq!(roster.floor_past(k), None);
                let _ = roster.schedule(k, DeadlineAlgo::BdCpaR);
            }
        });
        let counter = |name| report.metrics.counter(name);
        assert_eq!(counter(obs::names::BACKWARD_FLOOR_SKIPS), 0);
        assert_eq!(counter(obs::names::FLOOR_QUESTIONS), 1);
        assert_eq!(counter(obs::names::CPA_CACHE_MISS), 1);
    }

    #[test]
    fn cpa_q_guide_is_mapped_once_per_call() {
        // Every suffix drops a tail of the CPA(q) mapping's priority order,
        // so one mapping answers all n reads; the stats still count n.
        let (dag, cal) = (small_dag(), busy_calendar());
        let n = dag.num_tasks() as u64;
        for algo in [
            DeadlineAlgo::RcCpaR,
            DeadlineAlgo::RcCpaRLambda,
            DeadlineAlgo::RcbdCpaRLambda,
        ] {
            let (out, report) = obs::observe("rc", || {
                let cfg = DeadlineConfig::default();
                schedule_deadline(&dag, &cal, Time::ZERO, 4, Time::seconds(400_000), algo, cfg)
            });
            let out = out.unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(out.schedule.stats.cpa_mappings, n, "{algo}");
            let maps = report.profile.span(obs::names::SPAN_CPA_MAP);
            assert_eq!(maps.map(|s| s.calls), Some(1), "{algo}");
            let mappings = report.metrics.counter(obs::names::STATS_CPA_MAPPINGS);
            assert_eq!(mappings, n, "{algo}");
        }
    }

    #[test]
    fn rc_uses_fewer_cpu_hours_than_aggressive_on_loose_deadline() {
        // The paper's headline Table 6 effect.
        let dag = small_dag();
        let cal = busy_calendar();
        let deadline = Time::seconds(500_000);
        let cfg = DeadlineConfig::default();
        let agg = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            deadline,
            DeadlineAlgo::BdAll,
            cfg,
        )
        .unwrap();
        let rc = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            deadline,
            DeadlineAlgo::RcCpaR,
            cfg,
        )
        .unwrap();
        assert!(
            rc.schedule.cpu_hours() < agg.schedule.cpu_hours(),
            "RC {} CPU-h should be below aggressive {} CPU-h",
            rc.schedule.cpu_hours(),
            agg.schedule.cpu_hours()
        );
    }

    #[test]
    fn aggressive_places_tasks_late() {
        // With a loose deadline the aggressive algorithm pushes the exit
        // task right against the deadline.
        let dag = chain(&[c(600, 0.0)]);
        let cal = Calendar::new(4);
        let deadline = Time::seconds(100_000);
        let out = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            deadline,
            DeadlineAlgo::BdAll,
            DeadlineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.schedule.completion(), deadline);
    }

    #[test]
    fn hybrid_reports_lambda() {
        let dag = small_dag();
        let cal = busy_calendar();
        let out = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            Time::seconds(400_000),
            DeadlineAlgo::RcCpaRLambda,
            DeadlineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.lambda, Some(0.0)); // loose deadline: λ = 0 suffices
        let non_hybrid = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            Time::seconds(400_000),
            DeadlineAlgo::RcCpaR,
            DeadlineConfig::default(),
        )
        .unwrap();
        assert_eq!(non_hybrid.lambda, None);
    }

    #[test]
    fn hybrid_lambda_meets_deadlines_rc_misses() {
        // Find a deadline the plain RC algorithm misses but the hybrid
        // meets (the paper's §5.4 motivation). The tightest deadline of the
        // hybrid is never looser than that of plain RC.
        let dag = small_dag();
        let cal = busy_calendar();
        let cfg = DeadlineConfig::default();
        let prec = Dur::seconds(30);
        let (k_rc, _) = tightest(&dag, &cal, 4, DeadlineAlgo::RcCpaR, cfg, prec).unwrap();
        let (k_hy, _) = tightest(&dag, &cal, 4, DeadlineAlgo::RcCpaRLambda, cfg, prec).unwrap();
        assert!(
            k_hy <= k_rc + prec,
            "hybrid tightest deadline {k_hy:?} should not exceed RC's {k_rc:?}"
        );
    }

    #[test]
    fn tightest_is_feasible_and_near_tight() {
        let dag = small_dag();
        let cal = busy_calendar();
        let cfg = DeadlineConfig::default();
        let prec = Dur::seconds(30);
        for algo in [DeadlineAlgo::BdCpa, DeadlineAlgo::RcCpaR] {
            let (k, out) = tightest(&dag, &cal, 4, algo, cfg, prec).unwrap();
            assert!(out.schedule.completion() <= k);
            Algorithm::Deadline(algo)
                .validator(&dag, &cal, Time::ZERO, Some(k))
                .check(&out.schedule)
                .unwrap();
            // The search's lower bound witnessed infeasibility within
            // `prec` of k; spot-check that a much tighter deadline (half
            // the slack) is indeed infeasible for this algorithm.
            let much_tighter = Time::ZERO + (k - Time::ZERO) / 2;
            assert!(
                schedule_deadline(&dag, &cal, Time::ZERO, 4, much_tighter, algo, cfg).is_err(),
                "{algo} met half the tightest deadline"
            );
        }
    }

    #[test]
    fn deadline_equal_to_forward_completion_is_usually_feasible() {
        let dag = small_dag();
        let cal = busy_calendar();
        let fwd = crate::forward::schedule_forward(
            &dag,
            &cal,
            Time::ZERO,
            4,
            crate::forward::ForwardConfig::recommended(),
        );
        // Give a little slack (2x) — backward scheduling is not guaranteed
        // to reproduce the forward schedule exactly.
        let k = Time::ZERO + fwd.turnaround() * 2;
        let out = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            k,
            DeadlineAlgo::BdCpa,
            DeadlineConfig::default(),
        );
        assert!(out.is_ok());
    }

    // The grid is pinned bit for bit: drift is the defect this test exists for.
    #[test]
    #[allow(clippy::float_cmp)]
    fn lambda_grid_is_drift_free_and_always_ends_at_one() {
        // Paper default step 0.05: exactly the 21 values 0.00, 0.05, …, 1.00.
        let grid = |step| lambda_grid(step).collect::<Vec<f64>>();
        let g = grid(0.05);
        assert_eq!(g.len(), 21);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 1.0);
        for (i, &l) in g.iter().enumerate().take(20) {
            assert_eq!(l, i as f64 * 0.05, "grid[{i}] drifted");
        }
        assert!(g.windows(2).all(|w| w[0] < w[1]), "grid must be increasing");

        // Step 0.3 is the regression case: the legacy accumulating loop
        // visited 0.0, 0.3, 0.6, 0.899…, then jumped past 1.0 — it never
        // ran the fully aggressive λ = 1 pass. The grid must end at 1.0.
        let g = grid(0.3);
        assert_eq!(g.len(), 5);
        assert_eq!(*g.last().unwrap(), 1.0);
        assert!((g[3] - 0.9).abs() < 1e-9);

        // A step larger than 1 degenerates to the two endpoint passes.
        assert_eq!(grid(2.0), vec![0.0, 1.0]);
    }

    #[test]
    fn lambda_grid_is_total_in_its_step() {
        // What a deserialised config can carry: none of these may panic or
        // walk (let alone allocate) a grid of a billion values.
        let endpoints = vec![0.0, 1.0];
        for step in [0.0, -0.05, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let grid: Vec<f64> = lambda_grid(step).collect();
            assert_eq!(grid, endpoints, "step {step}");
        }
        for tiny in [1e-12, f64::MIN_POSITIVE, MIN_LAMBDA_STEP / 2.0] {
            let grid: Vec<f64> = lambda_grid(tiny).collect();
            assert_eq!(grid.len(), 1001, "step {tiny}");
            assert_eq!(grid, lambda_grid(MIN_LAMBDA_STEP).collect::<Vec<_>>());
            assert_eq!(grid.last(), Some(&1.0));
        }
        // Lazy: the first value of the finest grid costs one step.
        assert_eq!(lambda_grid(f64::MIN_POSITIVE).next(), Some(0.0));

        // A sweep under such a config still answers: the deadline is loose,
        // so λ = 0 meets it on any grid.
        let (dag, cal) = (small_dag(), busy_calendar());
        for lambda_step in [f64::NAN, 0.0, -1.0, 1e-300] {
            let cfg = DeadlineConfig {
                lambda_step,
                ..DeadlineConfig::default()
            };
            let out = schedule_deadline(
                &dag,
                &cal,
                Time::ZERO,
                4,
                Time::seconds(400_000),
                DeadlineAlgo::RcCpaRLambda,
                cfg,
            );
            assert_eq!(out.map(|o| o.lambda), Ok(Some(0.0)), "step {lambda_step}");
        }
        // An impossible deadline under the finest grid fails after a
        // bounded sweep (the warm start skips all but the first pass).
        let cfg = DeadlineConfig {
            lambda_step: 1e-300,
            ..DeadlineConfig::default()
        };
        let out = schedule_deadline(
            &dag,
            &cal,
            Time::ZERO,
            4,
            Time::seconds(1),
            DeadlineAlgo::RcbdCpaRLambda,
            cfg,
        );
        assert!(out.is_err());
    }

    #[test]
    fn rc_threshold_floors_toward_the_guideline() {
        let s = Time::seconds(100);
        // λ = 0 is exactly S_i, λ = 1 exactly dl — for positive *and*
        // negative slack (the old truncating cast broke the negative case).
        for dl in [Time::seconds(1000), Time::seconds(7)] {
            assert_eq!(rc_threshold(s, dl, 0.0), s);
            assert_eq!(rc_threshold(s, dl, 1.0), dl);
        }
        // Positive slack: floor == truncation (unchanged behavior).
        assert_eq!(
            rc_threshold(s, Time::seconds(1001), 0.5),
            Time::seconds(550)
        );
        // Negative slack: slack = −3, λ·slack = −1.5 floors to −2 → 98.
        // Truncation toward zero would have produced 99, overshooting the
        // interpolation target from below-S_i thresholds.
        assert_eq!(rc_threshold(s, Time::seconds(97), 0.5), Time::seconds(98));
    }

    #[test]
    fn warm_started_sweep_matches_exhaustive_sweep() {
        // The λ-sweep's S_i cache and failed-pass early-exit must not
        // change *which* λ succeeds or the schedule it produces. Compare
        // against a brute-force sweep that runs every pass uncached, across
        // deadlines from the hybrid's tightest up to plain RC's, for both
        // hybrids (the RCBD one bounds its fallback by the CPA(q) guide).
        let dag = small_dag();
        let cal = busy_calendar();
        let cfg = DeadlineConfig::default();
        let prec = Dur::seconds(30);
        let q = 4;
        let (k_rc, _) = tightest(&dag, &cal, q, DeadlineAlgo::RcCpaR, cfg, prec).unwrap();

        // Replicate the prep phase to drive backward_pass directly.
        let p = cal.capacity();
        let bl_exec = bl::exec_times(&dag, p, q, BlMethod::CpaR, cfg.criterion);
        let levels = bl::bottom_levels(&dag, &bl_exec);
        let order = bl::order_by_increasing_bl(&dag, &levels);
        let guide = cpa::allocate(&dag, q, cfg.criterion);

        for algo in [DeadlineAlgo::RcCpaRLambda, DeadlineAlgo::RcbdCpaRLambda] {
            let (k_hy, _) = tightest(&dag, &cal, q, algo, cfg, prec).unwrap();
            let fallback_bounds =
                (algo == DeadlineAlgo::RcbdCpaRLambda).then_some(guide.allocs.as_slice());
            for deadline in [k_hy, k_hy.midpoint(k_rc), k_rc.max(k_hy)] {
                let mut brute = None;
                for lambda in lambda_grid(cfg.lambda_step) {
                    let mut stats = ScheduleStats::default();
                    let mut bufs = PassBufs::default();
                    let mut placements = Vec::new();
                    if backward_pass(
                        &dag,
                        &cal,
                        Time::ZERO,
                        deadline,
                        &order,
                        Mode::Rc {
                            guide: &guide,
                            lambda,
                            fallback_bounds,
                        },
                        1,
                        &mut stats,
                        &mut bufs,
                        &mut placements,
                    ) {
                        brute = Some((placements, lambda));
                        break;
                    }
                }
                let (brute_placements, brute_lambda) = brute.expect("deadline known feasible");
                let out = schedule_deadline(&dag, &cal, Time::ZERO, q, deadline, algo, cfg)
                    .expect("deadline known feasible");
                assert_eq!(
                    out.lambda,
                    Some(brute_lambda),
                    "{algo}: λ drifted at {deadline}"
                );
                assert_eq!(
                    out.schedule.placements(),
                    &brute_placements[..],
                    "{algo}: placements drifted at {deadline}"
                );
            }
        }
    }

    /// The per-task choice as paper §5 states it, with nothing shared or
    /// carried: every width evaluated and probed through the linear
    /// reference, the conservative scan and the back-on-track fallback as
    /// two separate loops. The reference `schedule_deadline`'s width scan
    /// (candidate memo, carried fallback, run-bound skipping, the one-walk
    /// query) is pinned to.
    fn brute_choice(
        cal: &Calendar,
        cost: &TaskCost,
        grain: u32,
        threshold: Option<Time>,
        fallback_to: u32,
        dl: Time,
        now: Time,
    ) -> Option<Placement> {
        let fits = |bound: u32| {
            let mut prev_dur = None;
            (1..=bound / grain).filter_map(move |k| {
                let m = k * grain;
                let dur = cost.exec_time(m);
                if prev_dur == Some(dur) {
                    return None; // plateau
                }
                prev_dur = Some(dur);
                let start = cal.linear().latest_fit(m, dur, dl, now)?;
                Some(Placement {
                    start,
                    end: start + dur,
                    procs: m,
                })
            })
        };
        if let Some(th) = threshold {
            if let Some(conservative) = fits(cal.capacity()).find(|pl| pl.start >= th) {
                return Some(conservative);
            }
        }
        fits(fallback_to).fold(None, |best: Option<Placement>, pl| match best {
            Some(b) if pl.start <= b.start => Some(b), // tie keeps smaller m
            _ => Some(pl),
        })
    }

    /// `schedule_deadline` rebuilt from [`brute_choice`]: placements and λ,
    /// or `None` when the deadline cannot be met. Hybrids try every λ of the
    /// grid in order (no warm start); no floor answers for a pass.
    fn brute_deadline(
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        q: u32,
        deadline: Time,
        algo: DeadlineAlgo,
        cfg: DeadlineConfig,
    ) -> Option<(Vec<Placement>, Option<f64>)> {
        let p = competing.capacity();
        let q = Pool::effective(q, p);
        let grain = cfg.grain.clamp(1, p);
        let exec = bl::exec_times(dag, p, q, BlMethod::CpaR, cfg.criterion);
        let order = bl::order_by_increasing_bl(dag, &bl::bottom_levels(dag, &exec));
        let quantize = |b: u32| crate::forward::quantize_bound(b, grain, p);
        let cpa_p = cpa::allocate(dag, p, cfg.criterion);
        let cpa_q = cpa::allocate(dag, q, cfg.criterion);

        // One pass: `guide` = None is the aggressive family over `bounds`;
        // otherwise RC at `lambda`, falling back over `bounds`.
        let pass = |bounds: &[u32], guide: Option<&CpaAllocation>, lambda: f64| {
            let mut cal = competing.clone();
            let mut placed: Vec<Option<Placement>> = vec![None; dag.num_tasks()];
            for (k, &t) in order.iter().enumerate() {
                let dl = dag
                    .succs(t)
                    .iter()
                    .map(|s| placed[s.idx()].expect("successors first").start)
                    .fold(deadline, Time::min);
                let threshold = guide.map(|guide| {
                    let mut suffix = vec![false; dag.num_tasks()];
                    for &u in &order[k..] {
                        suffix[u.idx()] = true;
                    }
                    let mut mapped = Vec::new();
                    cpa::map_subset_into(
                        dag,
                        guide,
                        now,
                        &suffix,
                        &mut QueryCost::default(),
                        &mut MapScratch::default(),
                        &mut mapped,
                    );
                    rc_threshold(mapped[t.idx()].expect("mapped").start, dl, lambda)
                });
                let cost = dag.cost(t);
                let bound = quantize(bounds[t.idx()]);
                let pl = brute_choice(&cal, &cost, grain, threshold, bound, dl, now)?;
                cal.add_unchecked(Reservation::new(pl.start, pl.end, pl.procs));
                placed[t.idx()] = Some(pl);
            }
            Some(placed.into_iter().flatten().collect::<Vec<_>>())
        };

        let all = vec![p; dag.num_tasks()];
        match algo {
            DeadlineAlgo::BdAll => pass(&all, None, 0.0).map(|pl| (pl, None)),
            DeadlineAlgo::BdCpa => pass(&cpa_p.allocs, None, 0.0).map(|pl| (pl, None)),
            DeadlineAlgo::BdCpaR => pass(&cpa_q.allocs, None, 0.0).map(|pl| (pl, None)),
            DeadlineAlgo::RcCpa => pass(&all, Some(&cpa_p), 0.0).map(|pl| (pl, None)),
            DeadlineAlgo::RcCpaR => pass(&all, Some(&cpa_q), 0.0).map(|pl| (pl, None)),
            DeadlineAlgo::RcCpaRLambda | DeadlineAlgo::RcbdCpaRLambda => {
                let bounds = if algo == DeadlineAlgo::RcbdCpaRLambda {
                    &cpa_q.allocs
                } else {
                    &all
                };
                lambda_grid(cfg.lambda_step)
                    .find_map(|l| pass(bounds, Some(&cpa_q), l).map(|pl| (pl, Some(l))))
            }
        }
    }

    /// How many of the conservative rule's chunks cover `n` candidates.
    fn chunks_covering(n: u32) -> u64 {
        let (mut covered, mut len, mut chunks) = (0, FIRST_CHUNK, 0);
        while covered < n as usize {
            covered += len;
            len *= CHUNK_GROWTH;
            chunks += 1;
        }
        chunks
    }

    /// What the draws of [`width_scan_matches_the_brute_force_pass`] reached.
    #[derive(Default)]
    struct Reached {
        /// (deadline, algorithm) cases met and missed, and of the missed
        /// ones those the floor answered.
        feasible: u32,
        infeasible: u32,
        below_floor: u32,
        /// The widest placement an RC-family schedule made.
        widest_rc: u32,
        /// Feasible `DL_RC_CPA` calls whose CPA(`p`) guide is not the
        /// CPA(`q`) one the order comes from.
        rc_cpa_own_guide: u32,
        /// Of those, the calls that mapped more than once.
        rc_cpa_remapped: u32,
    }

    /// One draw of [`width_scan_matches_the_brute_force_pass`] on a
    /// `p`-processor platform with sequential times up to `longest`.
    fn width_scan_draw(draw: u64, p: u32, longest: i64, tenths: &[i64], reached: &mut Reached) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x5CA9_0015 ^ draw);
        let (cal, q) = random_platform(&mut rng, p);
        for overhead in [0, rng.gen_range(1i64..40)] {
            let dag = crate::dag::random_dag(&mut rng, longest, overhead);
            let fwd = crate::forward::schedule_forward(
                &dag,
                &cal,
                Time::ZERO,
                q,
                crate::forward::ForwardConfig::recommended(),
            );
            let criterion = DeadlineConfig::default().criterion;
            let guides_differ = cpa::allocate(&dag, p, criterion).allocs
                != cpa::allocate(&dag, Pool::effective(q, p), criterion).allocs;
            for grain in [1, 4] {
                let cfg = DeadlineConfig::default().hierarchical(grain);
                for &tenths in tenths {
                    let deadline = Time::ZERO + fwd.turnaround() * tenths / 10;
                    for algo in DeadlineAlgo::ALL {
                        let want = brute_deadline(&dag, &cal, Time::ZERO, q, deadline, algo, cfg);
                        let (got, report) = obs::observe("width scan", || {
                            schedule_deadline(&dag, &cal, Time::ZERO, q, deadline, algo, cfg)
                        });
                        let maps = report
                            .profile
                            .span(obs::names::SPAN_CPA_MAP)
                            .map_or(0, |s| s.calls);
                        // Every guide but a CPA(p) one that differs from
                        // CPA(q) is mapped in the order's reverse priority
                        // order, so once per call.
                        if !(algo == DeadlineAlgo::RcCpa && guides_differ) {
                            let once = u64::from(reads_guideline(algo) && got.is_ok());
                            assert!(maps <= 1 && maps >= once, "{algo}: {maps} mappings");
                        }
                        if let Ok(out) = &got {
                            let stats = &out.schedule.stats;
                            // One `S_i` read per task, however many λ
                            // passes read it and however few mappings
                            // answered them.
                            let mappings = if reads_guideline(algo) {
                                dag.num_tasks() as u64
                            } else {
                                0
                            };
                            assert_eq!(stats.cpa_mappings, mappings, "{algo}");
                            // One walk per chunk of widths the conservative
                            // rule asks about, and one for the latest start.
                            let walks = chunks_covering(p / grain) + 1;
                            assert!(
                                stats.slot_queries <= dag.num_tasks() as u64 * stats.passes * walks,
                                "{algo}: {stats:?} for {} tasks, {walks} walks each",
                                dag.num_tasks()
                            );
                            if reads_guideline(algo) {
                                let widest = out.schedule.placements().iter().map(|pl| pl.procs);
                                reached.widest_rc =
                                    reached.widest_rc.max(widest.max().unwrap_or(0));
                            }
                            if algo == DeadlineAlgo::RcCpa && guides_differ {
                                reached.rc_cpa_own_guide += 1;
                                reached.rc_cpa_remapped += u32::from(maps > 1);
                            }
                        }
                        match (&want, &got) {
                            (Some(_), _) => reached.feasible += 1,
                            (None, Err(e)) => {
                                reached.infeasible += 1;
                                reached.below_floor += u32::from(e.floor.is_some());
                            }
                            (None, Ok(_)) => {}
                        }
                        let got = got
                            .ok()
                            .map(|out| (out.schedule.placements().to_vec(), out.lambda));
                        assert_eq!(
                            got, want,
                            "{algo}, draw {draw}, {p} processors, overhead {overhead}, \
                             grain {grain}, deadline {deadline}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn width_scan_matches_the_brute_force_pass() {
        let mut reached = Reached::default();
        for draw in 0..diff_iters() {
            width_scan_draw(draw, 16, 30_000, &[3, 8, 11, 16, 30], &mut reached);
            // Every sixth draw on a platform wide enough, under tasks long
            // enough (every width a candidate), that the conservative rule
            // asks about all six of its chunks: 1, 4, 16, 64, 256 and the
            // rest of 430.
            if draw % 6 == 0 {
                width_scan_draw(draw, 430, 400_000, &[8, 11, 30], &mut reached);
            }
        }
        let Reached {
            feasible,
            infeasible,
            below_floor,
            widest_rc,
            rc_cpa_own_guide,
            rc_cpa_remapped,
        } = reached;
        assert!(
            feasible > 0 && infeasible > 0,
            "deadlines must fall on both sides of feasibility ({feasible} met, {infeasible} not)"
        );
        // The floor's answers are held to the brute-force pass too.
        assert!(
            below_floor > 0 && below_floor < infeasible,
            "{below_floor} of {infeasible} misses answered by the floor"
        );
        assert!(
            widest_rc > 341,
            "no RC schedule reached the last chunk (widest placement {widest_rc})"
        );
        // `DL_RC_CPA` under a guide of its own: the suffix's mapping is
        // reused only where that is exact, and re-made elsewhere.
        assert!(rc_cpa_own_guide > 0, "CPA(p) = CPA(q) on every draw");
        assert!(
            rc_cpa_remapped > 0,
            "no DL_RC_CPA call re-mapped ({rc_cpa_own_guide} under their own guide)"
        );
    }

    /// Seeded DAG/calendar draws of the differential tests; the CI fuzz
    /// lane raises the count.
    fn diff_iters() -> u64 {
        std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6)
    }

    /// A `p`-processor calendar with up to 30 competing reservations, and a
    /// `q` on it.
    fn random_platform(rng: &mut impl rand::Rng, p: u32) -> (Calendar, u32) {
        let mut cal = Calendar::new(p);
        for _ in 0..rng.gen_range(0..30usize) {
            let s = rng.gen_range(0i64..60_000);
            let d = rng.gen_range(60i64..15_000);
            let m = rng.gen_range(1u32..=p);
            let _ = cal.try_add(Reservation::new(Time::seconds(s), Time::seconds(s + d), m));
        }
        (cal, rng.gen_range(1u32..=p))
    }

    /// `items` in a seeded random order.
    fn shuffled<T: Copy>(items: &[T], rng: &mut impl rand::Rng) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    }

    #[test]
    fn roster_matches_independent_calls() {
        use rand::{Rng, SeedableRng};
        // What one prepared instance shares between its questions — the CPA
        // cache (and the loop state it resumes), the order, the pass buffers
        // with their width and `S_i` memos, the mapping scratch, the instant
        // its floor was found clear of — must not show in any answer: one
        // `Roster` per (DAG, grain) is asked every deadline, each of them for
        // every algorithm list, and outcome by outcome it answers what the
        // independent call does, stats and floor bound included. Besides
        // tight and loose deadlines it is asked around the floor: a second
        // short of it, at it, and between the critical path and the calendar
        // path, where only the calendar path answers.
        // `serve::PROBE_ROSTER`.
        let serve_roster = [
            DeadlineAlgo::BdCpaR,
            DeadlineAlgo::RcbdCpaRLambda,
            DeadlineAlgo::RcCpaRLambda,
            DeadlineAlgo::BdAll,
        ];
        let (mut feasible, mut infeasible, mut by_calendar_path) = (0u32, 0u32, 0u32);
        for draw in 0..diff_iters() {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x0205_7E12 ^ draw);
            let (cal, q) = random_platform(&mut rng, 16);
            // Every algorithm, each in a random place, one of them asked
            // twice in a row (its `S_i` memo must not carry its count over).
            let mut all = shuffled(&DeadlineAlgo::ALL, &mut rng);
            all.insert(0, all[0]);
            let mut lists: Vec<&[DeadlineAlgo]> = (0..=serve_roster.len())
                .map(|n| &serve_roster[..n])
                .collect();
            lists.push(&DeadlineAlgo::ALL);
            lists.push(&all);

            for overhead in [0, rng.gen_range(1i64..40)] {
                let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
                let fwd = forward::schedule_forward(
                    &dag,
                    &cal,
                    Time::ZERO,
                    q,
                    ForwardConfig::recommended(),
                );
                for grain in [1, 4] {
                    let cfg = DeadlineConfig::default().hierarchical(grain);
                    let floor = Floor::of(&dag, &cal, Time::ZERO, grain);
                    // Tight, loose and around the floor, in no particular
                    // order.
                    let mut deadlines: Vec<Time> = [3, 8, 11, 16, 30]
                        .map(|tenths| Time::ZERO + fwd.turnaround() * tenths / 10)
                        .to_vec();
                    deadlines.extend([floor.time() - Dur::seconds(1), floor.time()]);
                    if floor.critical_path < floor.calendar_path {
                        deadlines.push(floor.critical_path.midpoint(floor.calendar_path));
                    }
                    let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, q, cfg);
                    for deadline in shuffled(&deadlines, &mut rng) {
                        let alone = DeadlineAlgo::ALL.map(|algo| {
                            schedule_deadline(&dag, &cal, Time::ZERO, q, deadline, algo, cfg)
                        });
                        for out in &alone {
                            match out {
                                Ok(_) => feasible += 1,
                                Err(_) => infeasible += 1,
                            }
                        }
                        for list in &lists {
                            for &algo in list.iter() {
                                let want = DeadlineAlgo::ALL
                                    .iter()
                                    .position(|&a| a == algo)
                                    .map(|i| &alone[i]);
                                let got = roster.schedule(deadline, algo);
                                let case = format!(
                                    "{algo} in {list:?}, draw {draw}, overhead {overhead}, \
                                     grain {grain}, deadline {deadline}"
                                );
                                assert_eq!(Some(&got), want, "{case}");
                                let bound = got.err().and_then(|e| e.floor);
                                assert_eq!(bound.is_some(), deadline < floor.time(), "{case}");
                                by_calendar_path +=
                                    u32::from(bound.is_some_and(|b| b.half == Half::CalendarPath));
                            }
                        }
                    }
                }
            }
        }
        assert!(
            feasible > 0 && infeasible > 0,
            "deadlines must fall on both sides of feasibility ({feasible} met, {infeasible} not)"
        );
        assert!(
            by_calendar_path > 0,
            "the calendar path answered no deadline"
        );
    }

    /// The §5.3 search with nothing shared: a fresh `schedule_deadline` per
    /// probe and a fresh `schedule_forward` for the initial guess.
    fn reference_tightest(
        dag: &Dag,
        cal: &Calendar,
        q: u32,
        algo: DeadlineAlgo,
        cfg: DeadlineConfig,
        precision: Dur,
    ) -> Option<(Time, DeadlineOutcome)> {
        let now = Time::ZERO;
        let feasible = |k: Time| schedule_deadline(dag, cal, now, q, k, algo, cfg).ok();
        let guess =
            forward::schedule_forward(dag, cal, now, q, ForwardConfig::recommended()).completion();
        let mut hi = guess.max(now + Dur::seconds(1));
        let mut hi_outcome = None;
        for _ in 0..48 {
            if let Some(out) = feasible(hi) {
                hi_outcome = Some(out);
                break;
            }
            hi = now + (hi - now) * 2;
        }
        let mut hi_outcome = hi_outcome?;
        let mut lo = now;
        while hi - lo > precision {
            let mid = lo.midpoint(hi);
            if mid == lo || mid == hi {
                break;
            }
            match feasible(mid) {
                Some(out) => {
                    hi = mid;
                    hi_outcome = out;
                }
                None => lo = mid,
            }
        }
        Some((hi, hi_outcome))
    }

    #[test]
    fn tightest_matches_the_reference_search() {
        use rand::{Rng, SeedableRng};
        // One roster runs every algorithm's search, in a random order, each
        // on the probes and the cached forward guess the earlier searches
        // left behind; each answers what the search with nothing shared
        // does — deadline, schedule, λ and stats. Some of its probes fall
        // below the floor and are answered without a pass.
        let mut floor_skips = 0;
        for draw in 0..diff_iters() {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x7167_4E57 ^ draw);
            let (cal, q) = random_platform(&mut rng, 16);
            let overhead = rng.gen_range(0i64..40);
            let dag = crate::dag::random_dag(&mut rng, 30_000, overhead);
            let precision = Dur::seconds(rng.gen_range(1i64..=120));
            for grain in [1, 4] {
                let cfg = DeadlineConfig::default().hierarchical(grain);
                let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, q, cfg);
                for algo in shuffled(&DeadlineAlgo::ALL, &mut rng) {
                    let want = reference_tightest(&dag, &cal, q, algo, cfg, precision);
                    assert!(want.is_some(), "{algo}, draw {draw}");
                    let (got, report) = obs::observe("search", || roster.tightest(algo, precision));
                    floor_skips += report.metrics.counter(obs::names::BACKWARD_FLOOR_SKIPS);
                    assert_eq!(
                        got, want,
                        "{algo}, draw {draw}, grain {grain}, precision {precision}"
                    );
                }
            }
        }
        assert!(floor_skips > 0, "no probe fell below the floor");
    }

    #[test]
    fn tightest_is_total_in_precision() {
        // Below one second the search stops where a probe would land on an
        // end of its interval: at one-second resolution, whatever it asked.
        let (dag, cal) = (small_dag(), busy_calendar());
        let cfg = DeadlineConfig::default();
        for algo in [DeadlineAlgo::BdCpaR, DeadlineAlgo::RcbdCpaRLambda] {
            let one = tightest(&dag, &cal, 4, algo, cfg, Dur::seconds(1));
            assert!(one.is_some(), "{algo}");
            for precision in [Dur::ZERO, Dur::seconds(-60)] {
                let got = tightest(&dag, &cal, 4, algo, cfg, precision);
                assert_eq!(got, one, "{algo} at precision {precision}");
            }
        }
    }

    #[test]
    fn roster_forward_matches_schedule_forward() {
        use rand::SeedableRng;
        // All sixteen BL_x_BD_y configurations in a random order, on one
        // roster between two deadline questions: each schedule, stats
        // included, is the independent call's.
        let configs: Vec<ForwardConfig> = crate::bl::BlMethod::ALL
            .into_iter()
            .flat_map(|bl| forward::BdMethod::ALL.map(|bd| ForwardConfig::new(bl, bd)))
            .collect();
        assert_eq!(configs.len(), 16);
        for draw in 0..diff_iters() {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xF0E7_0016 ^ draw);
            let (cal, q) = random_platform(&mut rng, 16);
            let dag = crate::dag::random_dag(&mut rng, 30_000, 0);
            let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, q, DeadlineConfig::default());
            let loose = Time::seconds(10_000_000);
            let before = roster.schedule(loose, DeadlineAlgo::RcCpa);
            for cfg in shuffled(&configs, &mut rng) {
                let want = forward::schedule_forward(&dag, &cal, Time::ZERO, q, cfg);
                assert_eq!(roster.forward(cfg), want, "{}, draw {draw}", cfg.name());
            }
            assert_eq!(roster.schedule(loose, DeadlineAlgo::RcCpa), before);
        }
    }

    #[test]
    fn rc_scan_that_accepts_one_processor_evaluates_one_width() {
        // A loose deadline on an empty machine: one processor keeps every
        // task on its guideline, so the first chunk answers and the memo
        // never grows past it.
        let cal = Calendar::new(64);
        let cost = c(600, 0.1);
        let scan = WidthScan {
            cal: &cal,
            cost,
            grain: 1,
            dl: Time::seconds(100_000),
            now: Time::ZERO,
        };
        let mut widths = Widths::default();
        let mut stats = ScheduleStats::default();
        let fit = scan.run(&mut widths, Some(Time::seconds(50_000)), 64, &mut stats);
        assert_eq!(fit.map(|pl| pl.procs), Some(1));
        assert_eq!((widths.evaluated(), stats.slot_queries), (1, 1));
        // A threshold only the second chunk can meet grows the memo to the
        // end of that chunk, no further; with no threshold (the aggressive
        // rule) the scan lists every width up to its bound.
        let fit = scan.run(&mut widths, Some(Time::seconds(99_750)), 64, &mut stats);
        assert_eq!(fit.map(|pl| pl.procs), Some(3));
        assert_eq!((widths.evaluated(), stats.slot_queries), (5, 3));
        let fit = scan.run(&mut widths, None, 32, &mut stats);
        assert_eq!(fit.map(|pl| pl.procs), Some(32));
        assert_eq!((widths.evaluated(), stats.slot_queries), (32, 4));
    }

    #[test]
    fn grain_one_is_byte_identical_to_default() {
        let dag = small_dag();
        let cal = busy_calendar();
        let deadline = Time::seconds(400_000);
        for algo in DeadlineAlgo::ALL {
            let base = schedule_deadline(
                &dag,
                &cal,
                Time::ZERO,
                4,
                deadline,
                algo,
                DeadlineConfig::default(),
            )
            .unwrap();
            let g1 = schedule_deadline(
                &dag,
                &cal,
                Time::ZERO,
                4,
                deadline,
                algo,
                DeadlineConfig::default().hierarchical(1),
            )
            .unwrap();
            assert_eq!(base, g1, "{algo}: grain 1 must be the identity");
        }
    }

    #[test]
    fn hierarchical_grain_places_whole_nodes() {
        // Grain 2 on the 8-core platform: every allocation must be a whole
        // number of 2-core nodes, and the schedule must stay valid.
        let dag = small_dag();
        let cal = busy_calendar();
        let deadline = Time::seconds(400_000);
        let cfg = DeadlineConfig::default().hierarchical(2);
        for algo in DeadlineAlgo::ALL {
            let out = schedule_deadline(&dag, &cal, Time::ZERO, 4, deadline, algo, cfg)
                .unwrap_or_else(|e| panic!("{algo} grain-2 failed on loose deadline: {e}"));
            for pl in out.schedule.placements() {
                assert_eq!(
                    pl.procs % 2,
                    0,
                    "{algo}: {} procs is not node-aligned",
                    pl.procs
                );
            }
            Algorithm::HierDeadline(algo)
                .validator(&dag, &cal, Time::ZERO, Some(deadline))
                .check(&out.schedule)
                .unwrap();
            assert!(out.schedule.completion() <= deadline);
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DeadlineAlgo::BdAll.name(), "DL_BD_ALL");
        assert_eq!(DeadlineAlgo::RcbdCpaRLambda.name(), "DL_RCBD_CPAR-L");
        assert_eq!(DeadlineAlgo::ALL.len(), 7);
        assert_eq!(DeadlineAlgo::TABLE6.len(), 5);
    }

    #[test]
    fn deterministic() {
        let dag = small_dag();
        let cal = busy_calendar();
        let run = || {
            schedule_deadline(
                &dag,
                &cal,
                Time::ZERO,
                4,
                Time::seconds(300_000),
                DeadlineAlgo::RcCpaR,
                DeadlineConfig::default(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
