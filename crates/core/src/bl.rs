//! Bottom levels, top levels, and the list-scheduling orders derived from
//! them.
//!
//! The *bottom level* of a task is the maximum sum of task execution times
//! along any path from the task (inclusive) to the DAG's exit. Computing it
//! requires an execution time per task, which in turn requires a processor
//! count per task — the paper's four options (§4.2):
//!
//! * [`BlMethod::One`] (`BL_1`) — every task on one processor;
//! * [`BlMethod::All`] (`BL_ALL`) — every task on all `p` processors;
//! * [`BlMethod::Cpa`] (`BL_CPA`) — CPA-phase-1 allocations with pool `p`;
//! * [`BlMethod::CpaR`] (`BL_CPAR`) — CPA-phase-1 allocations with pool `q`,
//!   the historical average number of available processors.

use crate::cpa::{CpaCache, StoppingCriterion};
use crate::dag::{Dag, TaskId};
use crate::pool::Pool;
use resched_resv::Dur;
use serde::{Deserialize, Serialize};

/// How to derive the per-task execution times used for bottom levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlMethod {
    /// `BL_1`: single-processor execution times.
    One,
    /// `BL_ALL`: all-`p`-processor execution times.
    All,
    /// `BL_CPA`: CPA allocations computed with pool `p`.
    Cpa,
    /// `BL_CPAR`: CPA allocations computed with pool `q`.
    CpaR,
}

impl BlMethod {
    /// All four methods, in the paper's order.
    pub const ALL: [BlMethod; 4] = [BlMethod::One, BlMethod::All, BlMethod::Cpa, BlMethod::CpaR];

    /// The paper's name for the method.
    pub fn name(self) -> &'static str {
        match self {
            BlMethod::One => "BL_1",
            BlMethod::All => "BL_ALL",
            BlMethod::Cpa => "BL_CPA",
            BlMethod::CpaR => "BL_CPAR",
        }
    }
}

/// Per-task execution times under a bottom-level method.
///
/// `p` is the platform size, `q` the historical average availability.
/// Returns the execution time vector (indexed by task id).
pub fn exec_times(
    dag: &Dag,
    p: u32,
    q: u32,
    method: BlMethod,
    criterion: StoppingCriterion,
) -> Vec<Dur> {
    CpaCache::new().exec_times(dag, p, q, method, criterion)
}

impl CpaCache {
    /// [`exec_times`] drawing CPA allocations from this call's memo, so a
    /// scheduler that also needs the same allocation for bounds or guides
    /// computes it once. The `CpaR` pool is sized by [`Pool::effective`] —
    /// the historical `q` can exceed the platform (or be zero) and must be
    /// clamped to `1..=p` here, not just in the schedulers' entry points.
    pub(crate) fn exec_times(
        &mut self,
        dag: &Dag,
        p: u32,
        q: u32,
        method: BlMethod,
        criterion: StoppingCriterion,
    ) -> Vec<Dur> {
        match method {
            BlMethod::One => dag.costs().iter().map(|c| c.exec_time(1)).collect(),
            BlMethod::All => dag.costs().iter().map(|c| c.exec_time(p)).collect(),
            BlMethod::Cpa => self.cpa(dag, p, criterion).exec.clone(),
            BlMethod::CpaR => self.cpa(dag, Pool::effective(q, p), criterion).exec.clone(),
        }
    }
}

/// Bottom levels (including the task's own execution time), given per-task
/// execution times.
pub fn bottom_levels(dag: &Dag, exec: &[Dur]) -> Vec<Dur> {
    let mut bl = Vec::new();
    bottom_levels_into(dag, exec, &mut bl);
    bl
}

/// [`bottom_levels`] into a caller-held buffer (cleared first): the CPA
/// mapping phase recomputes them per guide of an RC deadline pass
/// (`cpa::map_subset_into`).
pub(crate) fn bottom_levels_into(dag: &Dag, exec: &[Dur], out: &mut Vec<Dur>) {
    assert_eq!(exec.len(), dag.num_tasks());
    out.clear();
    out.resize(dag.num_tasks(), Dur::ZERO);
    for &t in dag.topo_order().iter().rev() {
        let succ_max = dag
            .succs(t)
            .iter()
            .map(|&s| out[s.idx()])
            .max()
            .unwrap_or(Dur::ZERO);
        out[t.idx()] = exec[t.idx()] + succ_max;
    }
}

/// Top levels (excluding the task's own execution time), given per-task
/// execution times.
pub fn top_levels(dag: &Dag, exec: &[Dur]) -> Vec<Dur> {
    assert_eq!(exec.len(), dag.num_tasks());
    let mut tl = vec![Dur::ZERO; dag.num_tasks()];
    for &t in dag.topo_order() {
        let pred_levels = dag.preds(t).iter().map(|&p| tl[p.idx()] + exec[p.idx()]);
        tl[t.idx()] = pred_levels.max().unwrap_or(Dur::ZERO);
    }
    tl
}

/// The critical-path length: the maximum bottom level over entry tasks
/// (equivalently over all tasks).
pub fn critical_path_length(bl: &[Dur]) -> Dur {
    bl.iter().copied().max().unwrap_or(Dur::ZERO)
}

/// Task ids sorted by *decreasing* bottom level (the forward list-scheduling
/// order). Ties are broken by task id for determinism.
///
/// Because every task's execution time is positive, a predecessor always has
/// a strictly larger bottom level than its successors, so this order is also
/// a topological order.
pub fn order_by_decreasing_bl(dag: &Dag, bl: &[Dur]) -> Vec<TaskId> {
    let mut order = Vec::new();
    order_by_decreasing_bl_into(dag, bl, &mut order);
    order
}

/// [`order_by_decreasing_bl`] into a caller-held buffer: iCASLB re-sorts
/// per candidate build of its growth loop, the CPA mapping phase per
/// guide of an RC deadline pass.
///
/// The sort key `(Reverse(bl), id)` is injective (ids are unique), so the
/// unstable sort is deterministic and byte-identical to a stable one.
pub(crate) fn order_by_decreasing_bl_into(dag: &Dag, bl: &[Dur], out: &mut Vec<TaskId>) {
    out.clear();
    out.extend(dag.task_ids());
    out.sort_unstable_by_key(|t| (std::cmp::Reverse(bl[t.idx()]), t.0));
}

/// Task ids sorted by *increasing* bottom level (the backward, deadline
/// scheduling order: exit tasks first).
pub fn order_by_increasing_bl(dag: &Dag, bl: &[Dur]) -> Vec<TaskId> {
    let mut order = order_by_decreasing_bl(dag, bl);
    order.reverse();
    order
}

/// A DAG's adjacency in *topological-position* space, as flat CSR: the
/// layout the allocation loops walk. `Dag` stores one `Vec` per task and
/// the loops re-scan neighborhoods thousands of times per call; here a
/// predecessor always sits at a smaller position than its successors, so
/// level propagation is a linear positional sweep instead of a worklist.
#[derive(Debug, Clone)]
pub(crate) struct PosGraph {
    /// Task index at each topological position, and its inverse.
    order: Vec<u32>,
    topo_pos: Vec<u32>,
    succ_start: Vec<u32>,
    succ_list: Vec<u32>,
    pred_start: Vec<u32>,
    pred_list: Vec<u32>,
    /// Positions of entry tasks; the critical-path length is their max
    /// bottom level (an entry always dominates its descendants).
    entry_pos: Vec<u32>,
}

impl PosGraph {
    // lint:allow(panic-transitive): positions and task ids are dense indices < num_tasks over arrays sized to the DAG here, so every index is in range by construction.
    pub(crate) fn new(dag: &Dag) -> PosGraph {
        let n = dag.num_tasks();
        let mut topo_pos = vec![0u32; n];
        for (i, &t) in dag.topo_order().iter().enumerate() {
            topo_pos[t.idx()] = i as u32;
        }
        let mut g = PosGraph {
            order: dag.topo_order().iter().map(|t| t.0).collect(),
            succ_start: Vec::with_capacity(n + 1),
            succ_list: Vec::with_capacity(dag.num_edges()),
            pred_start: Vec::with_capacity(n + 1),
            pred_list: Vec::with_capacity(dag.num_edges()),
            entry_pos: dag.entries().iter().map(|t| topo_pos[t.idx()]).collect(),
            topo_pos,
        };
        g.succ_start.push(0);
        g.pred_start.push(0);
        for &t in dag.topo_order() {
            let topo_pos = &g.topo_pos;
            g.succ_list
                .extend(dag.succs(t).iter().map(|s| topo_pos[s.idx()]));
            g.succ_start.push(g.succ_list.len() as u32);
            g.pred_list
                .extend(dag.preds(t).iter().map(|p| topo_pos[p.idx()]));
            g.pred_start.push(g.pred_list.len() as u32);
        }
        g
    }

    /// Task index at each topological position.
    #[inline]
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Positions of the entry tasks.
    #[inline]
    pub(crate) fn entry_positions(&self) -> &[u32] {
        &self.entry_pos
    }

    /// Successor positions of the task at `pos`.
    #[inline]
    pub(crate) fn succs_at(&self, pos: usize) -> &[u32] {
        &self.succ_list[self.succ_start[pos] as usize..self.succ_start[pos + 1] as usize]
    }

    /// Predecessor positions of the task at `pos`.
    #[inline]
    fn preds_at(&self, pos: usize) -> &[u32] {
        &self.pred_list[self.pred_start[pos] as usize..self.pred_start[pos + 1] as usize]
    }

    /// Recompute the bottom levels of positions `0..end` by the
    /// full-rebuild formula, highest position first; positions `end..`
    /// must already be exact. `end = len` is the full build.
    pub(crate) fn sweep_bottom(&self, exec: &[Dur], bl: &mut [Dur], end: usize) {
        for pos in (0..end).rev() {
            let mut succ_max = Dur::ZERO;
            for &s in self.succs_at(pos) {
                succ_max = succ_max.max(bl[s as usize]);
            }
            bl[pos] = exec[pos] + succ_max;
        }
    }

    /// Re-establish `bl` after the execution time at `pos` changed from
    /// `old` to `exec[pos]` (and nothing else): the one bottom-level
    /// propagation routine. Returns the end of the re-swept prefix.
    ///
    /// The task's successors are untouched, so its own level moves by
    /// exactly the exec-time difference. Only its ancestors can move
    /// with it, and they all sit at or below its highest predecessor, so
    /// that prefix is re-swept; positions above depend on later positions
    /// only.
    pub(crate) fn propagate_bottom(
        &self,
        exec: &[Dur],
        bl: &mut [Dur],
        pos: usize,
        old: Dur,
    ) -> usize {
        bl[pos] = bl[pos] - old + exec[pos];
        let end = self
            .preds_at(pos)
            .iter()
            .max()
            .map_or(0, |&hp| hp as usize + 1);
        self.sweep_bottom(exec, bl, end);
        end
    }

    /// The critical-path length under bottom levels `bl`.
    pub(crate) fn critical_length(&self, bl: &[Dur]) -> Dur {
        let entry_levels = self.entry_pos.iter().map(|&e| bl[e as usize]);
        entry_levels.max().unwrap_or(Dur::ZERO)
    }
}

/// Incrementally maintained bottom/top levels under single-task execution
/// time updates.
///
/// The MCPA and iCASLB allocation loops change one task's execution time
/// per iteration. That can only affect the bottom levels of the task and
/// its *ancestors* and the top levels of its *descendants*, so
/// [`LevelTracker::update`] re-sweeps the positions below the task's
/// highest predecessor (`PosGraph::propagate_bottom`, the routine CPA's
/// own loop runs) and propagates top levels along the descendant cone —
/// instead of the O(V+E) rebuild per iteration the legacy loops paid.
///
/// Levels are kept in *topological position* space, with id-indexed
/// views in sync by write-through so [`LevelTracker::bottom`] /
/// [`LevelTracker::top`] stay cheap borrows.
///
/// Exactness: levels are integer-second [`Dur`] max-plus values, and the
/// update recomputes each touched node with the same formula as the full
/// rebuild, so the tracker's state is always *identical* (not merely
/// approximately equal) to [`bottom_levels`]/[`top_levels`] on the current
/// execution times. `tests/alloc_differential.rs` pins this.
#[derive(Debug, Clone)]
pub struct LevelTracker {
    graph: PosGraph,
    /// Bottom / top levels indexed by task id (write-through copies of
    /// `blp` / `tlp`).
    bl: Vec<Dur>,
    tl: Vec<Dur>,
    /// Bottom levels, top levels and execution times by position.
    blp: Vec<Dur>,
    tlp: Vec<Dur>,
    execp: Vec<Dur>,
    /// Dirty flags of the top-level sweep, indexed by position; every
    /// flag it sets is cleared before it returns.
    dirty: Vec<bool>,
}

impl LevelTracker {
    /// Full build from the given per-task execution times.
    // lint:allow(panic-transitive): `order` holds every task id < num_tasks once, and the level vectors are built over the same DAG, so every index is in range.
    pub fn new(dag: &Dag, exec: &[Dur]) -> LevelTracker {
        let graph = PosGraph::new(dag);
        let (bl, tl) = (bottom_levels(dag, exec), top_levels(dag, exec));
        let by_pos = |v: &[Dur]| graph.order().iter().map(|&t| v[t as usize]).collect();
        LevelTracker {
            blp: by_pos(&bl),
            tlp: by_pos(&tl),
            execp: by_pos(exec),
            dirty: vec![false; dag.num_tasks()],
            bl,
            tl,
            graph,
        }
    }

    /// Current bottom levels (always equal to `bottom_levels(dag, exec)`).
    #[inline]
    pub fn bottom(&self) -> &[Dur] {
        &self.bl
    }

    /// Current top levels (always equal to `top_levels(dag, exec)`).
    #[inline]
    pub fn top(&self) -> &[Dur] {
        &self.tl
    }

    /// Current critical-path length (max bottom level over entry tasks;
    /// every other task's bottom level is dominated by an entry ancestor's).
    // lint:allow(panic-transitive): entry positions are < num_tasks and `blp` is sized to the DAG, so every index is in range by construction.
    pub fn critical_path(&self) -> Dur {
        self.graph.critical_length(&self.blp)
    }

    /// Re-establish both level vectors after `exec[t]` changed (and nothing
    /// else). Returns the number of positions whose level was recomputed —
    /// the work a full rebuild would have spent on *every* node.
    ///
    /// Top levels flow from predecessors to successors: `tl[t]` does not
    /// depend on `exec[t]`, but every direct successor reads it, so the
    /// sweep is seeded with them and walks increasing positions with a
    /// dirty bitmap and a pending counter instead of a priority queue: a
    /// predecessor always sits at a smaller position than its successors,
    /// so the linear scan pops nodes in exactly the order a heap would,
    /// and it stops as soon as no dirty node remains.
    // lint:allow(panic-transitive): task ids are dense indices < num_tasks and the level arrays are sized to the DAG, so every index is in range by construction.
    pub fn update(&mut self, dag: &Dag, exec: &[Dur], t: TaskId) -> u64 {
        debug_assert_eq!(exec.len(), self.bl.len());
        debug_assert_eq!(dag.num_tasks(), self.bl.len());
        let LevelTracker {
            graph,
            bl,
            tl,
            blp,
            tlp,
            execp,
            dirty,
        } = self;
        let tp = graph.topo_pos[t.idx()] as usize;
        let old = std::mem::replace(&mut execp[tp], exec[t.idx()]);
        let swept = graph.propagate_bottom(execp, blp, tp, old);
        bl[t.idx()] = blp[tp];
        for (&u, &level) in graph.order[..swept].iter().zip(&blp[..swept]) {
            bl[u as usize] = level;
        }
        let mut touched = swept as u64 + 1;

        let mut pending = 0u32;
        for &sp in graph.succs_at(tp) {
            if !std::mem::replace(&mut dirty[sp as usize], true) {
                pending += 1;
            }
        }
        let lo = graph.succs_at(tp).iter().min().map_or(0, |&sp| sp as usize);
        for pos in lo..graph.order.len() {
            if pending == 0 {
                break;
            }
            if !std::mem::replace(&mut dirty[pos], false) {
                continue;
            }
            pending -= 1;
            touched += 1;
            let mut pred_max = Dur::ZERO;
            for &pp in graph.preds_at(pos) {
                pred_max = pred_max.max(tlp[pp as usize] + execp[pp as usize]);
            }
            if pred_max != tlp[pos] {
                tlp[pos] = pred_max;
                tl[graph.order[pos] as usize] = pred_max;
                for &sp in graph.succs_at(pos) {
                    if !std::mem::replace(&mut dirty[sp as usize], true) {
                        pending += 1;
                    }
                }
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{chain, DagBuilder};
    use crate::task::TaskCost;

    fn c(s: i64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), 0.0)
    }

    fn diamond() -> Dag {
        // a -> {x, y} -> z with costs 10, 20, 30, 40
        let mut b = DagBuilder::new();
        let a = b.add_task(c(10));
        let x = b.add_task(c(20));
        let y = b.add_task(c(30));
        let z = b.add_task(c(40));
        b.add_edge(a, x)
            .add_edge(a, y)
            .add_edge(x, z)
            .add_edge(y, z);
        b.build().unwrap()
    }

    #[test]
    fn bottom_levels_on_diamond() {
        let dag = diamond();
        let exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let bl = bottom_levels(&dag, &exec);
        assert_eq!(bl[3], Dur::seconds(40)); // z
        assert_eq!(bl[1], Dur::seconds(60)); // x: 20 + 40
        assert_eq!(bl[2], Dur::seconds(70)); // y: 30 + 40
        assert_eq!(bl[0], Dur::seconds(80)); // a: 10 + max(60, 70)
        assert_eq!(critical_path_length(&bl), Dur::seconds(80));
    }

    #[test]
    fn top_levels_on_diamond() {
        let dag = diamond();
        let exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let tl = top_levels(&dag, &exec);
        assert_eq!(tl[0], Dur::ZERO);
        assert_eq!(tl[1], Dur::seconds(10));
        assert_eq!(tl[2], Dur::seconds(10));
        assert_eq!(tl[3], Dur::seconds(40)); // 10 + 30 via y
    }

    #[test]
    fn tl_plus_bl_identifies_critical_path() {
        let dag = diamond();
        let exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let bl = bottom_levels(&dag, &exec);
        let tl = top_levels(&dag, &exec);
        let cp = critical_path_length(&bl);
        let on_cp: Vec<bool> = dag
            .task_ids()
            .map(|t| tl[t.idx()] + bl[t.idx()] == cp)
            .collect();
        // Critical path is a -> y -> z.
        assert_eq!(on_cp, vec![true, false, true, true]);
    }

    #[test]
    fn decreasing_bl_is_topological() {
        let dag = diamond();
        let exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let bl = bottom_levels(&dag, &exec);
        let order = order_by_decreasing_bl(&dag, &bl);
        let pos: Vec<usize> = dag
            .task_ids()
            .map(|t| order.iter().position(|&u| u == t).unwrap())
            .collect();
        for t in dag.task_ids() {
            for &s in dag.succs(t) {
                assert!(pos[t.idx()] < pos[s.idx()]);
            }
        }
        let rev = order_by_increasing_bl(&dag, &bl);
        assert_eq!(rev.first(), order.last());
    }

    #[test]
    fn exec_times_methods_differ_as_expected() {
        let dag = chain(&[
            TaskCost::new(Dur::seconds(1000), 0.0),
            TaskCost::new(Dur::seconds(1000), 0.0),
        ]);
        let one = exec_times(&dag, 8, 4, BlMethod::One, StoppingCriterion::Stringent);
        let all = exec_times(&dag, 8, 4, BlMethod::All, StoppingCriterion::Stringent);
        assert_eq!(one[0], Dur::seconds(1000));
        assert_eq!(all[0], Dur::seconds(125));
        // CPA-based methods land between the two extremes.
        let cpa = exec_times(&dag, 8, 4, BlMethod::Cpa, StoppingCriterion::Stringent);
        assert!(cpa[0] <= one[0] && cpa[0] >= all[0]);
        let cpar = exec_times(&dag, 8, 4, BlMethod::CpaR, StoppingCriterion::Stringent);
        assert!(cpar[0] >= all[0]);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(BlMethod::One.name(), "BL_1");
        assert_eq!(BlMethod::All.name(), "BL_ALL");
        assert_eq!(BlMethod::Cpa.name(), "BL_CPA");
        assert_eq!(BlMethod::CpaR.name(), "BL_CPAR");
    }

    #[test]
    fn exec_times_clamps_oversized_q() {
        // A log-derived q larger than the platform must behave exactly like
        // q == p (the Pool::effective rule); a zero q like q == 1.
        let dag = chain(&[
            TaskCost::new(Dur::seconds(1000), 0.1),
            TaskCost::new(Dur::seconds(2000), 0.2),
        ]);
        for criterion in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
            assert_eq!(
                exec_times(&dag, 8, 32, BlMethod::CpaR, criterion),
                exec_times(&dag, 8, 8, BlMethod::CpaR, criterion),
            );
            assert_eq!(
                exec_times(&dag, 8, 0, BlMethod::CpaR, criterion),
                exec_times(&dag, 8, 1, BlMethod::CpaR, criterion),
            );
        }
    }

    /// A deterministic multi-level DAG with cross edges, denser than the
    /// diamond, for exercising the tracker's propagation.
    fn lattice() -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (1..=9i64).map(|i| b.add_task(c(i * 7))).collect();
        // Three levels of three, fully bipartite between adjacent levels,
        // plus a long skip edge.
        for i in 0..3 {
            for j in 3..6 {
                b.add_edge(ids[i], ids[j]);
            }
        }
        for j in 3..6 {
            for k in 6..9 {
                b.add_edge(ids[j], ids[k]);
            }
        }
        b.add_edge(ids[0], ids[8]);
        b.build().unwrap()
    }

    #[test]
    fn tracker_matches_full_rebuild_under_updates() {
        let dag = lattice();
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut tracker = LevelTracker::new(&dag, &exec);
        // Deterministic pseudo-random walk of single-task changes.
        let mut state = 0x9E37_79B9u64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = TaskId((state >> 33) as u32 % dag.num_tasks() as u32);
            let delta = 1 + (state >> 11) as i64 % 40;
            exec[t.idx()] = Dur::seconds(delta);
            tracker.update(&dag, &exec, t);
            assert_eq!(
                tracker.bottom(),
                &bottom_levels(&dag, &exec)[..],
                "bl diverged at step {step}"
            );
            assert_eq!(
                tracker.top(),
                &top_levels(&dag, &exec)[..],
                "tl diverged at step {step}"
            );
            assert_eq!(
                tracker.critical_path(),
                critical_path_length(tracker.bottom())
            );
        }
    }

    #[test]
    fn tracker_matches_full_rebuild_on_dense_dag() {
        // The same random walk on a dense DAG (average degree >= 4), where
        // nearly every update moves most of the swept prefix, and `update`
        // must keep the id-indexed views in sync with it.
        // Fully-bipartite adjacent layers: 3 layers of 8 give 128 edges
        // >= 4 * 24 tasks.
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (1..=24i64).map(|i| b.add_task(c(i * 5))).collect();
        for layer in 0..2 {
            for i in 0..8 {
                for j in 0..8 {
                    b.add_edge(ids[layer * 8 + i], ids[(layer + 1) * 8 + j]);
                }
            }
        }
        let dag = b.build().unwrap();
        assert!(
            dag.num_edges() >= 4 * dag.num_tasks(),
            "test DAG not dense enough ({} edges)",
            dag.num_edges()
        );
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut tracker = LevelTracker::new(&dag, &exec);
        let mut state = 0xDEAD_BEEFu64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = TaskId((state >> 33) as u32 % dag.num_tasks() as u32);
            let delta = 1 + (state >> 11) as i64 % 40;
            exec[t.idx()] = Dur::seconds(delta);
            tracker.update(&dag, &exec, t);
            assert_eq!(
                tracker.bottom(),
                &bottom_levels(&dag, &exec)[..],
                "bl diverged at step {step}"
            );
            assert_eq!(
                tracker.top(),
                &top_levels(&dag, &exec)[..],
                "tl diverged at step {step}"
            );
            assert_eq!(
                tracker.critical_path(),
                critical_path_length(tracker.bottom())
            );
        }
    }

    #[test]
    fn tracker_prunes_untouched_cones() {
        // Changing an exit-level task must not recompute the whole DAG:
        // only the task and its ancestors (bl side) are touched.
        let dag = lattice();
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut tracker = LevelTracker::new(&dag, &exec);
        let exit_task = TaskId(7); // level-3 task with no successors
        assert!(dag.succs(exit_task).is_empty());
        exec[exit_task.idx()] = Dur::seconds(1);
        let touched = tracker.update(&dag, &exec, exit_task);
        // bl cone: itself + up to 6 ancestors (the middle level + entries);
        // tl cone: no successors, nothing. A full rebuild touches 18.
        assert!(
            touched <= 7,
            "exit-task update touched {touched} nodes, expected <= 7"
        );
        assert_eq!(tracker.bottom(), &bottom_levels(&dag, &exec)[..]);
    }
}
