//! The CPA algorithm (Radulescu & van Gemund, ICPP 2001), with the improved
//! stopping criterion the paper adopts from N'Takpé/Suter/Casanova (ISPDC
//! 2007).
//!
//! CPA schedules a mixed-parallel DAG on a dedicated (reservation-free)
//! homogeneous platform in two phases:
//!
//! 1. **Allocation** ([`allocate`]): start every task at one processor and
//!    repeatedly grant one extra processor to the critical-path task whose
//!    execution time shrinks the most *relatively*, until the critical-path
//!    length `T_CP` no longer exceeds the average-area bound `T_A`.
//! 2. **Mapping** ([`map`]): list-schedule tasks in decreasing bottom-level
//!    order onto the platform, each task using its allocated processor
//!    count, at the earliest instant where enough processors are free.
//!
//! In this workspace CPA plays two roles: it is the baseline scheduler the
//! reservation-aware algorithms are measured against, and its phase-1
//! allocations drive the `*_CPA` / `*_CPAR` bottom-level and
//! allocation-bounding methods of the paper's algorithms.
//!
//! ## Stopping criterion variants
//!
//! The classic criterion uses the average area
//! `T_A = (1/p) · Σ_i n_i · t_i(n_i)` and stops growing allocations once
//! the critical path no longer exceeds it. On a homogeneous platform this
//! balance is what reproduces the paper's Table 4/5 behaviour across both
//! large (1152-processor) and small (57-processor) machines, so it is the
//! default.
//!
//! A *stringent* variant — our rendition of the "more stringent stopping
//! criterion" direction of [N'Takpé et al. 2007], whose exact formula the
//! paper does not reproduce — scales the average area by the DAG's mean
//! level width, making concurrent tasks share the processor pool:
//!
//! ```text
//! T_A' = (π / p) · Σ_i n_i · t_i(n_i),   π = clamp(V / #levels, 1, p)
//! ```
//!
//! Since `T_A' ≥ T_A`, the allocation loop stops earlier and per-task
//! allocations stay smaller. Calibration against the paper's published
//! numbers (see DESIGN.md §1.3 and EXPERIMENTS.md) showed this variant is too
//! aggressive on small platforms — it starves near-linear tasks of
//! processors — so it is offered as an explicit option and quantified by
//! the `ablation_cpa_criterion` experiment rather than used by default.

use crate::bl::{
    bottom_levels, bottom_levels_into, critical_path_length, order_by_decreasing_bl_into,
    top_levels, Marks, PosGraph,
};
use crate::dag::{Dag, TaskId};
use crate::forward;
use crate::obs;
use crate::schedule::{Placement, Schedule};
use crate::task::{relative_gain, TaskCost};
use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};
use serde::{Deserialize, Serialize};

/// Which phase-1 stopping criterion to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StoppingCriterion {
    /// The balanced CPA criterion (default): `T_CP ≤ T_A`.
    #[default]
    Classic,
    /// The width-scaled criterion: `T_CP ≤ (π/p) · Σ n_i t_i(n_i)`.
    Stringent,
}

/// The result of CPA's allocation phase for a given processor pool.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CpaAllocation {
    /// Size of the processor pool the allocation was computed for.
    pub pool: u32,
    /// Processors allocated to each task (indexed by task id), each in
    /// `1..=pool`.
    pub allocs: Vec<u32>,
    /// Execution time of each task under its allocation.
    pub exec: Vec<Dur>,
}

impl CpaAllocation {
    /// The allocation for task `t`.
    #[inline]
    pub fn alloc(&self, t: TaskId) -> u32 {
        self.allocs[t.idx()]
    }

    /// The execution time of task `t` under its allocation.
    #[inline]
    pub fn exec_time(&self, t: TaskId) -> Dur {
        self.exec[t.idx()]
    }

    /// The allocation a loop kept by topological position (widths `m`,
    /// times `exec`), read out in task-id space; `order` maps positions
    /// to task ids.
    pub(crate) fn from_positions(pool: u32, order: &[u32], m: &[u32], exec: &[Dur]) -> Self {
        let mut out = CpaAllocation {
            pool,
            allocs: vec![0; order.len()],
            exec: vec![Dur::ZERO; order.len()],
        };
        for ((&t, &m), &e) in order.iter().zip(m).zip(exec) {
            (out.allocs[t as usize], out.exec[t as usize]) = (m, e);
        }
        out
    }
}

/// What each task holds, by topological position: its processors, the
/// execution time on them and on one more, and the relative gain of that
/// one more — pure functions of `(cost, m)`, so only the grown task's
/// entries change per iteration — beside the total work `Σ m·t(m)`.
#[derive(Debug)]
struct Grants {
    cost: Vec<TaskCost>,
    m: Vec<u32>,
    exec: Vec<Dur>,
    next_exec: Vec<Dur>,
    gain: Vec<f64>,
    total_work: i64,
}

impl Grants {
    /// Back to one processor per task.
    fn one_each(&mut self) {
        self.m.clear();
        self.m.resize(self.cost.len(), 1);
        self.exec.clear();
        self.exec.extend(self.cost.iter().map(|c| c.exec_time(1)));
        self.next_exec.clear();
        self.next_exec
            .extend(self.cost.iter().map(|c| c.exec_time(2)));
        self.gain.clear();
        let pairs = self.exec.iter().zip(&self.next_exec);
        self.gain
            .extend(pairs.map(|(&e, &next)| relative_gain(e, next)));
        self.total_work = self.exec.iter().map(|e| e.as_seconds()).sum();
    }

    /// Offer the critical task at `u` to an iteration's pick. A candidate
    /// needs an integer-second improvement left and room in the pool; the
    /// return value says it had the first and not the second (the pick was
    /// withheld). Gains are positive finite ratios, so `total_cmp` is their
    /// numeric order; an exact tie is real (2/4 and 1/2) and goes to the
    /// earlier task (`order` maps positions to task ids) — a total order,
    /// so the pick does not depend on the order members are offered in.
    #[inline]
    fn offer(&self, u: usize, pool: u32, order: &[u32], best: &mut Option<(usize, f64)>) -> bool {
        if self.next_exec[u] >= self.exec[u] {
            return false;
        }
        if self.m[u] >= pool {
            return true;
        }
        let gain = self.gain[u];
        let wins = best.is_none_or(|(b, best_gain)| {
            let by_gain = gain.total_cmp(&best_gain);
            by_gain.then_with(|| order[b].cmp(&order[u])).is_gt()
        });
        if wins {
            *best = Some((u, gain));
        }
        false
    }

    /// By how much one more processor shortens the task at `u`.
    #[inline]
    fn step(&self, u: usize) -> Dur {
        self.exec[u] - self.next_exec[u]
    }

    /// Grant the task at `b` one more processor; returns the execution
    /// time it had. The new gain divides the two execution times at hand
    /// (the operands `marginal_gain` would re-derive), and `work(m) = m ·
    /// exec_time(m)`.
    #[inline]
    fn grow(&mut self, b: usize) -> Dur {
        let (old, new) = (self.exec[b], self.next_exec[b]);
        self.m[b] += 1;
        let m = self.m[b];
        self.total_work += m as i64 * new.as_seconds() - (m - 1) as i64 * old.as_seconds();
        self.exec[b] = new;
        self.next_exec[b] = self.cost[b].exec_time(m + 1);
        self.gain[b] = relative_gain(new, self.next_exec[b]);
        old
    }
}

/// State of the allocation loop, every array indexed by *topological
/// position* beside the [`PosGraph`] adjacency. A [`CpaCache`] keeps one
/// for the scheduling call it serves, and a later allocation for a larger
/// pool continues from it (see [`AllocState::allocate`]).
#[derive(Debug)]
struct AllocState {
    graph: PosGraph,
    held: Grants,
    bl: Vec<Dur>,
    marks: Marks,
    /// The critical path's members, while a run grows along it.
    run: Vec<usize>,
    /// What the state is the trajectory of: the last run's pool (0 before
    /// the first) and criterion, and whether a critical task with an
    /// improvement left was ever passed over for holding the whole pool.
    pool: u32,
    criterion: StoppingCriterion,
    withheld: bool,
}

impl AllocState {
    fn new(dag: &Dag) -> AllocState {
        let graph = PosGraph::new(dag);
        let n = dag.num_tasks();
        AllocState {
            held: Grants {
                cost: graph.order().iter().map(|&t| dag.cost(TaskId(t))).collect(),
                m: Vec::new(),
                exec: Vec::new(),
                next_exec: Vec::new(),
                gain: Vec::new(),
                total_work: 0,
            },
            graph,
            bl: vec![Dur::ZERO; n],
            marks: Marks::new(n),
            run: Vec::new(),
            pool: 0,
            criterion: StoppingCriterion::default(),
            withheld: false,
        }
    }

    /// Back to one processor per task.
    fn restart(&mut self) {
        self.withheld = false;
        self.held.one_each();
        let n = self.bl.len();
        self.graph.sweep_bottom(&self.held.exec, &mut self.bl, n);
    }

    /// Run the loop for `pool` and read the allocation out in task-id
    /// space.
    ///
    /// One iteration, all in position space: the entry scan gives the
    /// critical-path length for the stop test, the critical walk
    /// ([`PosGraph::walk_critical`]) visits exactly the critical subgraph,
    /// with no top levels, and the loop picks the argmax as members are
    /// visited — under the total (gain, lowest-id) tie-break the pick is
    /// order-independent, so it is the reference's id-order pick
    /// ([`Grants::offer`]). The pick is granted its processor
    /// ([`Grants::grow`]) and its level change is propagated by
    /// [`PosGraph::propagate_bottom`].
    ///
    /// Runs. The walk reads every entry's level and every out-edge of
    /// every critical task, and its [`Tightness`](crate::bl::Tightness)
    /// reports say whether the critical subgraph is a single path (one
    /// critical entry, at most one tight out-edge per member) and give
    /// `slack`, a lower bound on how much shorter than it any other path
    /// is: a path that leaves it does so at a non-critical entry `e`, and
    /// is at most `bl(e) = cp − (cp − bl(e))` long, or along a non-tight
    /// edge `u → s` of a member, and is at most
    /// `tl(u) + exec(u) + bl(s) = cp − (bl(u) − exec(u) − bl(s))`. While
    /// the path is single and the pick shortens it by `d < slack`, every
    /// longest path (there is one) contains every member and shrinks by
    /// exactly `d`, and every other path stays at most `cp − slack <
    /// cp − d`: the next iteration's walk would find the same members over
    /// the same tight edges, `slack − d` clear of the rest. So the loop
    /// skips it: it carries `cp` and `slack`, re-picks among the same
    /// members by the same rule, repeats the same stop test, and re-sweeps
    /// the levels once, below the highest position grown, when the run
    /// ends. Run steps are iterations like any other; the reference loop
    /// takes exactly as many.
    ///
    /// The pool enters an iteration in two places only: the stop test,
    /// whose threshold `π(pool)·W/pool` is non-increasing in `pool` under
    /// both criteria, and the `m < pool` eligibility. So until a pick is
    /// withheld because its task already holds the whole pool, the state
    /// a pool-`q` run stops in is one the run for any `p ≥ q` passes
    /// through, and that run continues from it instead of starting over.
    // lint:allow(panic-transitive): every array is sized to the DAG in `new`/`restart` and indexed by positions < num_tasks taken from the `PosGraph` built over the same DAG.
    fn allocate(&mut self, dag: &Dag, pool: u32, criterion: StoppingCriterion) -> CpaAllocation {
        assert!(pool > 0, "CPA needs a non-empty processor pool");
        crate::span!(obs::names::SPAN_CPA_ALLOC_LOOP);
        if self.pool == 0 || self.withheld || pool < self.pool || criterion != self.criterion {
            self.restart();
        }
        (self.pool, self.criterion) = (pool, criterion);
        let parallelism = match criterion {
            StoppingCriterion::Classic => 1.0,
            StoppingCriterion::Stringent => dag.mean_width().clamp(1.0, pool as f64),
        };
        let AllocState {
            graph,
            held,
            bl,
            marks,
            run,
            withheld,
            ..
        } = self;
        let order = graph.order();
        let stop = |cp: Dur, total_work: i64| {
            let t_a = parallelism * total_work as f64 / pool as f64;
            (cp.as_seconds() as f64) <= t_a
        };
        let (mut iterations, mut run_steps, mut swept) = (0u64, 0u64, 0u64);
        loop {
            let cp = graph.critical_length(bl);
            if stop(cp, held.total_work) {
                break;
            }

            let mut best = None;
            let mut single = true;
            let mut slack = Dur::MAX;
            let entries = graph.walk_critical(&held.exec, bl, cp, marks, |u, out| {
                *withheld |= held.offer(u, pool, order, &mut best);
                single &= out.tight <= 1;
                slack = slack.min(out.gap);
            });
            single &= entries.tight <= 1;
            slack = slack.min(entries.gap);
            let Some((mut b, _)) = best else {
                break; // critical path saturated; cannot improve further
            };

            let mut d = held.step(b);
            if single && d < slack {
                // A run along the members the walk reached. A pick too
                // large for the slack left ends it and is applied below as
                // an ordinary step; the stop test and saturation end it as
                // they end the loop, which the next iteration finds.
                run.clear();
                run.extend((0..order.len()).filter(|&u| marks.reached(u)));
                let (mut cp, mut touched) = (cp, 0);
                let unfit = loop {
                    run_steps += 1;
                    held.grow(b);
                    touched = touched.max(b + 1);
                    cp -= d;
                    slack -= d;
                    if stop(cp, held.total_work) {
                        break None;
                    }
                    let mut best = None;
                    for &u in run.iter() {
                        *withheld |= held.offer(u, pool, order, &mut best);
                    }
                    let Some((next, _)) = best else { break None };
                    d = held.step(next);
                    if d >= slack {
                        break best;
                    }
                    b = next;
                };
                graph.sweep_bottom(&held.exec, bl, touched);
                swept += touched as u64;
                debug_assert_eq!(
                    graph.critical_length(bl),
                    cp,
                    "a run keeps its path critical"
                );
                match unfit {
                    Some((next, _)) => b = next,
                    None => continue,
                }
            }
            iterations += 1;
            let old = held.grow(b);
            swept += graph.propagate_bottom(&held.exec, bl, b, old) as u64 + 1;
        }
        iterations += run_steps;
        obs::counter_add(obs::names::CPA_ALLOC_ITERS, iterations);
        obs::record_value(obs::names::CPA_ALLOC_ITERS_PER_RUN, iterations);
        obs::counter_add(obs::names::CPA_ALLOC_RUN_STEPS, run_steps);
        obs::counter_add(obs::names::CPA_ALLOC_INCR_UPDATES, swept);

        let out = CpaAllocation::from_positions(pool, order, &held.m, &held.exec);
        #[cfg(debug_assertions)]
        crate::validate::assert_allocation_valid(dag, &out, "CPA");
        out
    }
}

/// CPA phase 1: compute per-task allocations for a pool of `pool`
/// processors.
///
/// Each iteration grows one task by one processor, which can only change
/// the bottom levels of that task and its ancestors, so the loop keeps
/// its state in topological-position space and updates it in place
/// instead of rebuilding every level per iteration. The legacy
/// full-rebuild loop survives as [`allocate_reference`], and differential
/// tests pin the two to identical output on every input.
///
/// # Panics
/// Panics if `pool == 0`.
pub fn allocate(dag: &Dag, pool: u32, criterion: StoppingCriterion) -> CpaAllocation {
    AllocState::new(dag).allocate(dag, pool, criterion)
}

/// The legacy CPA allocation loop: rebuilds every bottom/top level from
/// scratch on each iteration.
///
/// Kept (always compiled) as the **differential oracle** for
/// [`allocate`]'s incremental rewrite — unit tests assert byte-identical
/// [`CpaAllocation`]s across a seeded DAG sweep — and as the *before*
/// baseline of the `criterion_micro` `cpa_alloc` group and the
/// exec-time record in `BENCH_history.json`'s `migrated` section.
/// Schedulers never call this.
///
/// # Panics
/// Panics if `pool == 0`.
pub fn allocate_reference(dag: &Dag, pool: u32, criterion: StoppingCriterion) -> CpaAllocation {
    assert!(pool > 0, "CPA needs a non-empty processor pool");
    let n = dag.num_tasks();
    let mut allocs = vec![1u32; n];
    let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
    let mut total_work: i64 = dag
        .task_ids()
        .map(|t| dag.cost(t).work(allocs[t.idx()]))
        .sum();

    let parallelism = match criterion {
        StoppingCriterion::Classic => 1.0,
        StoppingCriterion::Stringent => dag.mean_width().clamp(1.0, pool as f64),
    };

    loop {
        let bl = bottom_levels(dag, &exec);
        let tl = top_levels(dag, &exec);
        let cp = critical_path_length(&bl);
        let t_a = parallelism * total_work as f64 / pool as f64;
        if (cp.as_seconds() as f64) <= t_a {
            break;
        }
        let mut best: Option<(TaskId, f64)> = None;
        for t in dag.task_ids() {
            if tl[t.idx()] + bl[t.idx()] != cp {
                continue; // not on the critical path
            }
            let m = allocs[t.idx()];
            if m >= pool {
                continue;
            }
            let cost = dag.cost(t);
            if cost.exec_time(m + 1) >= exec[t.idx()] {
                continue; // no integer improvement left
            }
            let gain = cost.marginal_gain(m);
            match best {
                Some((bt, bg)) if gain.total_cmp(&bg).then(bt.0.cmp(&t.0)).is_le() => {}
                _ => best = Some((t, gain)),
            }
        }
        let Some((t, _)) = best else {
            break; // critical path saturated; cannot improve further
        };
        let m = allocs[t.idx()] + 1;
        total_work -= dag.cost(t).work(m - 1);
        total_work += dag.cost(t).work(m);
        allocs[t.idx()] = m;
        exec[t.idx()] = dag.cost(t).exec_time(m);
    }

    let out = CpaAllocation { pool, allocs, exec };
    #[cfg(debug_assertions)]
    crate::validate::assert_allocation_valid(dag, &out, "CPA-reference");
    out
}

// ---------------------------------------------------------------------------
// Per-call allocation memo
// ---------------------------------------------------------------------------

/// The memo of CPA phase-1 allocations one scheduling call (or one
/// `backward::Roster`, across its questions) keeps, keyed by `(pool, criterion)`.
///
/// Every algorithm in the catalog derives several artifacts from the *same*
/// allocation — `BL_CPAR` execution times, `BD_CPAR` bounds, RC guides —
/// so each scheduler builds one `CpaCache` at the top of the call, reads
/// exec times (`CpaCache::exec_times`), bounds
/// (`CpaCache::allocation_bounds`) and guides ([`CpaCache::cpa`]) through
/// it, and drops it on return: each distinct allocation is computed
/// exactly once per call (per instance, through a `Roster`). Hits and
/// misses are reported through the `cpa.cache.{hit,miss}` counters.
///
/// A cache serves one DAG — keys carry no DAG identity — and is always on
/// (DESIGN.md §14 has what computing the shared allocation once is worth
/// end to end). Lookup is a plain probed `Vec`; a call touches at most a
/// handful of distinct pools. A miss leaves the allocation loop's state
/// behind, and a later miss for a larger pool under the same criterion
/// (`BL_CPAR` then `BD_CPA`: `q` then `p`) continues from it rather than
/// from one processor per task.
#[derive(Debug, Default)]
pub struct CpaCache {
    entries: Vec<((u32, StoppingCriterion), CpaAllocation)>,
    state: Option<AllocState>,
}

impl CpaCache {
    /// An empty memo for one scheduling call.
    pub fn new() -> CpaCache {
        CpaCache::default()
    }

    /// The CPA allocation for `(pool, criterion)`, computed on first use.
    pub fn cpa(&mut self, dag: &Dag, pool: u32, criterion: StoppingCriterion) -> &CpaAllocation {
        let key = (pool, criterion);
        let slot = match self.entries.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                obs::counter_add(obs::names::CPA_CACHE_HIT, 1);
                i
            }
            None => {
                obs::counter_add(obs::names::CPA_CACHE_MISS, 1);
                let value = self
                    .state
                    .get_or_insert_with(|| AllocState::new(dag))
                    .allocate(dag, pool, criterion);
                self.entries.push((key, value));
                self.entries.len() - 1
            }
        };
        // lint:allow(panic): slot is either a position() hit or len() - 1 right after a push.
        &self.entries[slot].1
    }
}

/// CPA phase 2: list-schedule all tasks with the given allocation onto an
/// empty `alloc.pool`-processor platform, starting no earlier than
/// `start_at`. Returns one placement per task.
pub fn map(dag: &Dag, alloc: &CpaAllocation, start_at: Time) -> Vec<Placement> {
    map_all(dag, alloc, start_at, &mut QueryCost::default())
}

/// [`map`], tallying the calendar slot-query work into `cost`.
fn map_all(
    dag: &Dag,
    alloc: &CpaAllocation,
    start_at: Time,
    cost: &mut QueryCost,
) -> Vec<Placement> {
    let mut slots = Vec::new();
    map_subset_into(
        dag,
        alloc,
        start_at,
        &vec![true; dag.num_tasks()],
        cost,
        &mut MapScratch::default(),
        &mut slots,
    );
    // An all-true mask puts every task in the subset, so every slot is
    // `Some`; a hole would shorten the result, which the assert catches.
    let placed: Vec<Placement> = slots.into_iter().flatten().collect();
    debug_assert_eq!(placed.len(), dag.num_tasks(), "map includes every task");
    placed
}

/// Working buffers of [`map_subset_into`]: the priority order with the
/// execution times it was built from, and the empty mapping platform.
/// Like a [`CpaCache`], a scratch serves one DAG.
#[derive(Debug)]
pub(crate) struct MapScratch {
    bl: Vec<Dur>,
    order: Vec<TaskId>,
    /// `alloc.exec` of the guide `order` is sorted for (empty before the
    /// first mapping).
    ordered_for: Vec<Dur>,
    platform: Calendar,
}

impl MapScratch {
    /// The priority order of the last mapping: decreasing bottom level
    /// under its guide, ties to the lower id.
    pub(crate) fn order(&self) -> &[TaskId] {
        &self.order
    }
}

impl Default for MapScratch {
    fn default() -> Self {
        MapScratch {
            bl: Vec::new(),
            order: Vec::new(),
            ordered_for: Vec::new(),
            platform: Calendar::new(1),
        }
    }
}

/// List-schedule a predecessor-closed subset of tasks (those whose entry
/// of the membership mask `include`, indexed by task id, is true) with the
/// given allocation onto an empty platform, into caller-held buffers.
/// Tasks outside the subset get `None`.
///
/// Buffer-taking because the resource-conservative deadline algorithms
/// (paper §5.2.2) re-map the not-yet-scheduled "upper" part of the DAG
/// before every task decision — `backward::GuidelineStarts` calls this
/// up to `n` times per scheduling call over one `scratch`/`out` pair, and
/// the scratch keeps the guide's priority order from one call to the next.
///
/// # Panics
/// Panics (in debug builds) if the subset is not predecessor-closed.
pub(crate) fn map_subset_into(
    dag: &Dag,
    alloc: &CpaAllocation,
    start_at: Time,
    include: &[bool],
    cost: &mut QueryCost,
    scratch: &mut MapScratch,
    out: &mut Vec<Option<Placement>>,
) {
    crate::span!(obs::names::SPAN_CPA_MAP);
    // The priority order is a function of the guide's execution times
    // alone, and an RC pass re-maps under one guide per task decision.
    if scratch.ordered_for != alloc.exec {
        bottom_levels_into(dag, &alloc.exec, &mut scratch.bl);
        order_by_decreasing_bl_into(dag, &scratch.bl, &mut scratch.order);
        scratch.ordered_for.clone_from(&alloc.exec);
    }
    scratch.platform.reset(alloc.pool);
    out.clear();
    out.resize(dag.num_tasks(), None);
    for &t in &scratch.order {
        if include.get(t.idx()) != Some(&true) {
            continue;
        }
        // A predecessor outside the subset has no slot, which `ready_at`'s
        // debug assert reports.
        let ready = forward::ready_at(dag, out, t, start_at);
        let m = alloc.alloc(t).min(alloc.pool);
        let dur = alloc.exec_time(t);
        let s = obs::probe::map_earliest_fit(&scratch.platform, m, dur, ready, cost);
        scratch
            .platform
            .add_unchecked(Reservation::for_duration(s, dur, m));
        out[t.idx()] = Some(Placement {
            start: s,
            end: s + dur,
            procs: m,
        });
    }
}

/// Full CPA: allocate then map on a dedicated `pool`-processor platform.
///
/// This is the paper's no-reservation baseline; `BL_CPA_BD_CPA` degenerates
/// to exactly this schedule when the reservation calendar is empty.
pub fn schedule(dag: &Dag, pool: u32, criterion: StoppingCriterion, now: Time) -> Schedule {
    let alloc = allocate(dag, pool, criterion);
    let mut cost = QueryCost::default();
    let placements = map_all(dag, &alloc, now, &mut cost);
    let mut s = Schedule::new(placements, now);
    s.stats.count_cpa_allocation();
    s.stats.count_cpa_mapping();
    s.stats.absorb_query_cost(cost);

    // CPA runs on a dedicated platform: audit against an empty calendar,
    // with phase 1's own allocations as the declared caps.
    #[cfg(debug_assertions)]
    crate::validate::ScheduleValidator::new(dag, &Calendar::new(pool), now)
        .with_declared_bounds(alloc.allocs.clone())
        .assert_valid(&s, "CPA");

    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{chain, fork_join, DagBuilder};
    use crate::task::TaskCost;
    use crate::validate::ScheduleValidator;

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    #[test]
    fn chain_gets_wide_allocations() {
        // A chain has no task parallelism: CPA should parallelize each task
        // substantially (mean width 1 makes both criteria equivalent).
        let dag = chain(&[c(10_000, 0.0), c(10_000, 0.0), c(10_000, 0.0)]);
        let alloc = allocate(&dag, 16, StoppingCriterion::Stringent);
        for t in dag.task_ids() {
            assert!(
                alloc.alloc(t) > 4,
                "chain task {t} got only {} procs",
                alloc.alloc(t)
            );
        }
    }

    #[test]
    fn wide_fork_join_keeps_allocations_small() {
        // 16 parallel tasks on 16 processors: allocating more than a few
        // processors per task would destroy task parallelism.
        let dag = fork_join(c(60, 0.0), &[c(10_000, 0.0); 16], c(60, 0.0));
        let alloc = allocate(&dag, 16, StoppingCriterion::Stringent);
        let mid_allocs: Vec<u32> = (1..17).map(|i| alloc.allocs[i]).collect();
        let max_mid = *mid_allocs.iter().max().unwrap();
        assert!(
            max_mid <= 4,
            "stringent CPA should keep wide-level allocations small, got {max_mid}"
        );
    }

    #[test]
    fn stringent_allocates_no_more_than_classic() {
        let dag = fork_join(c(60, 0.0), &[c(10_000, 0.05); 8], c(60, 0.0));
        let classic = allocate(&dag, 32, StoppingCriterion::Classic);
        let stringent = allocate(&dag, 32, StoppingCriterion::Stringent);
        let sum = |a: &CpaAllocation| a.allocs.iter().sum::<u32>();
        assert!(sum(&stringent) <= sum(&classic));
    }

    #[test]
    fn allocations_respect_pool() {
        let dag = chain(&[c(100_000, 0.0)]);
        for pool in [1u32, 2, 7, 64] {
            let alloc = allocate(&dag, pool, StoppingCriterion::Classic);
            assert!(alloc.allocs.iter().all(|&m| m >= 1 && m <= pool));
        }
    }

    #[test]
    fn pool_of_one_means_sequential() {
        let dag = fork_join(c(100, 0.0), &[c(1000, 0.0); 3], c(100, 0.0));
        let alloc = allocate(&dag, 1, StoppingCriterion::Stringent);
        assert!(alloc.allocs.iter().all(|&m| m == 1));
        let placements = map(&dag, &alloc, Time::ZERO);
        // Serial execution: total time = sum of all exec times.
        let end = placements.iter().map(|p| p.end).max().unwrap();
        assert_eq!(end, Time::seconds(100 + 3 * 1000 + 100));
    }

    #[test]
    fn map_respects_precedence_and_capacity() {
        let dag = fork_join(c(100, 0.0), &[c(1000, 0.2); 5], c(100, 0.0));
        let sched = schedule(&dag, 8, StoppingCriterion::Stringent, Time::ZERO);
        ScheduleValidator::new(&dag, &Calendar::new(8), Time::ZERO)
            .check(&sched)
            .expect("CPA schedule must be valid");
    }

    #[test]
    fn map_starts_no_earlier_than_start_at() {
        let dag = chain(&[c(100, 0.0), c(100, 0.0)]);
        let alloc = allocate(&dag, 4, StoppingCriterion::Stringent);
        let placements = map(&dag, &alloc, Time::seconds(500));
        assert!(placements.iter().all(|p| p.start >= Time::seconds(500)));
    }

    #[test]
    fn map_subset_upper_half() {
        // Diamond a -> {x, y} -> z; subset {a, x, y} is predecessor-closed.
        let mut b = DagBuilder::new();
        let a = b.add_task(c(100, 0.0));
        let x = b.add_task(c(200, 0.0));
        let y = b.add_task(c(300, 0.0));
        let z = b.add_task(c(400, 0.0));
        b.add_edge(a, x)
            .add_edge(a, y)
            .add_edge(x, z)
            .add_edge(y, z);
        let dag = b.build().unwrap();
        let alloc = allocate(&dag, 4, StoppingCriterion::Stringent);
        let mut out = Vec::new();
        let mut include = vec![true; dag.num_tasks()];
        include[z.idx()] = false;
        map_subset_into(
            &dag,
            &alloc,
            Time::ZERO,
            &include,
            &mut QueryCost::default(),
            &mut MapScratch::default(),
            &mut out,
        );
        assert!(out[z.idx()].is_none());
        assert!(out[a.idx()].is_some());
        let pa = out[a.idx()].unwrap();
        let px = out[x.idx()].unwrap();
        let py = out[y.idx()].unwrap();
        assert!(px.start >= pa.end && py.start >= pa.end);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "predecessors first")]
    fn map_subset_rejects_a_mask_that_is_not_predecessor_closed() {
        // a -> b with only b in the subset: b's predecessor has no slot.
        let dag = chain(&[c(100, 0.0), c(100, 0.0)]);
        let alloc = allocate(&dag, 4, StoppingCriterion::Stringent);
        map_subset_into(
            &dag,
            &alloc,
            Time::ZERO,
            &[false, true],
            &mut QueryCost::default(),
            &mut MapScratch::default(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn map_scratch_follows_the_guide_it_is_handed() {
        // One scratch across guides, as an RC pass holds it. Both middle
        // tasks take the whole platform, so the memoized priority order
        // decides which runs first and must be rebuilt with the guide.
        let dag = fork_join(c(60, 0.0), &[c(10_000, 0.0), c(10_000, 0.0)], c(60, 0.0));
        let guide = |x: i64, y: i64| CpaAllocation {
            pool: 4,
            allocs: vec![1, 4, 4, 1],
            exec: [60, x, y, 60].map(Dur::seconds).to_vec(),
        };
        let (x_first, y_first) = (guide(5_500, 2_500), guide(2_500, 5_500));
        let mut shared = MapScratch::default();
        for guide in [&x_first, &y_first, &y_first, &x_first] {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (scratch, out) in [
                (&mut shared, &mut got),
                (&mut MapScratch::default(), &mut want),
            ] {
                let mut cost = QueryCost::default();
                map_subset_into(&dag, guide, Time::ZERO, &[true; 4], &mut cost, scratch, out);
            }
            assert_eq!(got, want);
            let leads = if guide.exec[1] > guide.exec[2] { 1 } else { 2 };
            assert_eq!(got[leads].unwrap().start, Time::seconds(60));
        }
    }

    #[test]
    fn cpa_makespan_beats_sequential_for_parallel_dag() {
        let dag = fork_join(c(10, 0.0), &[c(3600, 0.05); 8], c(10, 0.0));
        let sched = schedule(&dag, 32, StoppingCriterion::Stringent, Time::ZERO);
        let seq: i64 = dag.total_seq_work();
        assert!(
            sched.turnaround().as_seconds() * 3 < seq,
            "CPA should be at least 3x faster than fully sequential here: {} vs {}",
            sched.turnaround(),
            seq
        );
    }

    #[test]
    fn allocation_is_deterministic() {
        let dag = fork_join(c(500, 0.1), &[c(5000, 0.1); 6], c(500, 0.1));
        let a1 = allocate(&dag, 16, StoppingCriterion::Stringent);
        let a2 = allocate(&dag, 16, StoppingCriterion::Stringent);
        assert_eq!(a1, a2);
    }

    #[test]
    fn exec_matches_alloc() {
        let dag = fork_join(c(500, 0.1), &[c(5000, 0.1); 6], c(500, 0.1));
        let alloc = allocate(&dag, 16, StoppingCriterion::Stringent);
        for t in dag.task_ids() {
            assert_eq!(alloc.exec_time(t), dag.cost(t).exec_time(alloc.alloc(t)));
        }
    }

    // NB: the seeded daggen sweeps comparing `allocate` against
    // `allocate_reference`, and `CpaCache` lookups against both, live in
    // `tests/alloc_differential.rs` — the dev-dependency cycle with
    // resched-daggen means unit tests here would see a second copy of this
    // crate's types.

    #[test]
    fn saturated_critical_path_exits_via_best_none() {
        // Fully sequential tasks (alpha = 1): no extra processor ever
        // improves exec time, so the loop must exit through the
        // `best == None` branch with every allocation still at 1, even
        // though T_CP stays far above T_A.
        let dag = chain(&[c(10_000, 1.0), c(10_000, 1.0), c(10_000, 1.0)]);
        for alloc in [
            allocate(&dag, 16, StoppingCriterion::Classic),
            allocate_reference(&dag, 16, StoppingCriterion::Classic),
        ] {
            assert!(alloc.allocs.iter().all(|&m| m == 1));
            assert_eq!(alloc.exec, vec![Dur::seconds(10_000); 3]);
        }
    }

    #[test]
    fn equal_gain_ties_grow_lowest_task_id_first() {
        // Three identical tasks: ids 0, 1 are parallel children of id 2
        // (built first so the tie is genuinely decided by id, not by
        // structure). All three sit on the critical path with equal
        // marginal gain; with pool = 2 the loop runs exactly twice, and
        // the documented lowest-id tie-break means ids 0 then 1 grow while
        // id 2 never does. A highest-id break would instead grow only id 2.
        let mut b = DagBuilder::new();
        let a = b.add_task(c(100, 0.0));
        let x = b.add_task(c(100, 0.0));
        let e = b.add_task(c(100, 0.0));
        b.add_edge(e, a).add_edge(e, x);
        let dag = b.build().unwrap();
        for alloc in [
            allocate(&dag, 2, StoppingCriterion::Classic),
            allocate_reference(&dag, 2, StoppingCriterion::Classic),
        ] {
            assert_eq!(alloc.allocs, vec![2, 2, 1], "tie-break drifted");
        }
    }
}
