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
/// mapping phase recomputes them per task decision of an RC deadline pass
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
    let mut tl = Vec::new();
    top_levels_into(dag, exec, &mut tl);
    tl
}

/// [`top_levels`] into a caller-held buffer (cleared first), for
/// [`LevelTracker::rebuild`] — once per cache key of a scheduling call.
fn top_levels_into(dag: &Dag, exec: &[Dur], out: &mut Vec<Dur>) {
    assert_eq!(exec.len(), dag.num_tasks());
    out.clear();
    out.resize(dag.num_tasks(), Dur::ZERO);
    for &t in dag.topo_order() {
        let pred_max = dag
            .preds(t)
            .iter()
            .map(|&p| out[p.idx()] + exec[p.idx()])
            .max()
            .unwrap_or(Dur::ZERO);
        out[t.idx()] = pred_max;
    }
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
/// per candidate build of its growth loop, the CPA mapping phase per task
/// decision of an RC deadline pass.
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
    /// Task index at each topological position.
    order: Vec<u32>,
    succ_start: Vec<u32>,
    succ_list: Vec<u32>,
    /// One past the highest predecessor position of each position (0 for
    /// an entry): every ancestor sits below it.
    sweep_end: Vec<u32>,
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
            sweep_end: Vec::with_capacity(n),
            entry_pos: dag.entries().iter().map(|t| topo_pos[t.idx()]).collect(),
        };
        g.succ_start.push(0);
        for &t in dag.topo_order() {
            g.succ_list
                .extend(dag.succs(t).iter().map(|s| topo_pos[s.idx()]));
            g.succ_start.push(g.succ_list.len() as u32);
            let preds = dag.preds(t).iter().map(|p| topo_pos[p.idx()] + 1);
            g.sweep_end.push(preds.max().unwrap_or(0));
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
    /// `old` to `exec[pos]` (and nothing else); returns the number of
    /// positions recomputed.
    ///
    /// The task's successors are untouched, so its own level moves by
    /// exactly the exec-time difference. Only its ancestors can move
    /// with it, and they all sit below its highest predecessor, so that
    /// prefix is re-swept; positions above depend on later positions only.
    pub(crate) fn propagate_bottom(
        &self,
        exec: &[Dur],
        bl: &mut [Dur],
        pos: usize,
        old: Dur,
    ) -> u64 {
        bl[pos] = bl[pos] - old + exec[pos];
        let end = self.sweep_end[pos] as usize;
        self.sweep_bottom(exec, bl, end);
        end as u64 + 1
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
/// The CPA/MCPA/iCASLB allocation loops change one task's execution time
/// per iteration, yet used to rebuild every level from scratch — an
/// O(iters·(V+E)) recompute. A single-task change can only affect the
/// bottom levels of the task and its *ancestors* and the top levels of its
/// *descendants*, so [`LevelTracker::update`] propagates along exactly
/// those cones, pruning as soon as a node's value is unchanged.
///
/// Internally everything is laid out in *topological position* space with
/// flat CSR adjacency: the propagation sweeps walk dirty flags in
/// positional order instead of popping a priority queue, and classifying a
/// predecessor costs one load of its cached successor max (`sb`) rather
/// than a neighborhood scan. Id-indexed level vectors are kept in sync by
/// write-through so [`LevelTracker::bottom`]/[`LevelTracker::top`] stay
/// cheap borrows.
///
/// Exactness: levels are integer-second [`Dur`] max-plus values, and the
/// update recomputes each touched node with the same formula as the full
/// rebuild, so the tracker's state is always *identical* (not merely
/// approximately equal) to [`bottom_levels`]/[`top_levels`] on the current
/// execution times. The differential tests in [`crate::cpa`] pin this.
#[derive(Debug, Clone)]
pub struct LevelTracker {
    /// Bottom levels indexed by task id (write-through copy of `blp`).
    bl: Vec<Dur>,
    /// Top levels indexed by task id (write-through copy of `tlp`).
    tl: Vec<Dur>,
    /// Position of each task in the DAG's topological order; propagating
    /// in (decreasing for bl, increasing for tl) positional order
    /// guarantees a node is recomputed only after every affected neighbor
    /// it depends on.
    topo_pos: Vec<u32>,
    /// Inverse of `topo_pos`: task index at each topological position.
    order: Vec<u32>,
    /// Bottom levels indexed by topological position.
    blp: Vec<Dur>,
    /// Top levels indexed by topological position.
    tlp: Vec<Dur>,
    /// Execution times indexed by topological position. Only the updated
    /// task's entry changes per [`LevelTracker::update`] call, so this
    /// mirror costs one write per update and saves a random id-space load
    /// per touched node and per classified edge.
    execp: Vec<Dur>,
    /// Cached successor max per position: `blp = exec + sbp`. Lets the
    /// sparse incremental sweep classify a predecessor in O(1). Maintained
    /// (and read) only on that path — dense mode derives a node's
    /// successor max as `blp - execp` where needed.
    sbp: Vec<Dur>,
    /// Positions of entry tasks; the critical path length is their max
    /// bottom level (an entry always dominates its descendants).
    entry_pos: Vec<u32>,
    /// Dirty flags for both propagation sweeps, indexed by position.
    /// Each sweep clears every flag it sets before returning, so the two
    /// directions can share the array.
    dirty: Vec<bool>,
    /// Dense-DAG strategy switch, fixed at construction (average degree of
    /// at least 4). On dense graphs a single changed task dirties most of its
    /// ancestor cone anyway, and the data-dependent classification
    /// branches cost more than they prune; a straight branch-free
    /// positional sweep over the affected prefix is faster. Sparse graphs
    /// keep the pruned incremental walk.
    dense: bool,
    /// Per-position scratch for the bottom-level sweep: largest *increased*
    /// child level seen while a node is dirty (valid only then).
    cand: Vec<Dur>,
    /// Per-position scratch: a max-contributing child decreased, so the
    /// successor max must be rescanned rather than patched.
    rescan: Vec<bool>,
    /// Epoch stamps for [`LevelTracker::refresh_critical`]: the task at
    /// position `p` is on a critical path iff `cp_stamp[p] == cp_epoch`,
    /// so membership resets by bumping the epoch instead of clearing.
    cp_stamp: Vec<u32>,
    cp_epoch: u32,
    /// Worklist scratch for the critical-path walk.
    cp_stack: Vec<u32>,
    /// Tasks marked critical by the last walk, in discovery order. Lets
    /// selection loops iterate just the members instead of filtering the
    /// whole task set through [`LevelTracker::is_critical`].
    cp_members: Vec<TaskId>,
    // Flat CSR adjacency in position space. `Dag` stores one `Vec` per
    // task; the allocation loops re-scan neighborhoods hundreds of times
    // per run, and chasing a pointer per task dominates the update cost.
    succ_start: Vec<u32>,
    succ_list: Vec<u32>,
    pred_start: Vec<u32>,
    pred_list: Vec<u32>,
}

impl LevelTracker {
    /// Full build from the given per-task execution times.
    pub fn new(dag: &Dag, exec: &[Dur]) -> LevelTracker {
        let mut tracker = LevelTracker {
            bl: Vec::new(),
            tl: Vec::new(),
            topo_pos: Vec::new(),
            order: Vec::new(),
            blp: Vec::new(),
            tlp: Vec::new(),
            execp: Vec::new(),
            sbp: Vec::new(),
            entry_pos: Vec::new(),
            dirty: Vec::new(),
            dense: false,
            cand: Vec::new(),
            rescan: Vec::new(),
            cp_stamp: Vec::new(),
            cp_epoch: 0,
            cp_stack: Vec::new(),
            cp_members: Vec::new(),
            succ_start: Vec::new(),
            succ_list: Vec::new(),
            pred_start: Vec::new(),
            pred_list: Vec::new(),
        };
        tracker.rebuild(dag, exec);
        tracker
    }

    /// Rebuild the tracker for new execution times in place, reusing every
    /// internal buffer: a [`CpaCache`] rebuilds its one tracker per cache
    /// key of the scheduling call it serves.
    // lint:allow(panic-transitive): rebuild walks tasks in stored topological order over arrays it just resized to the DAG, so every index is in range.
    pub fn rebuild(&mut self, dag: &Dag, exec: &[Dur]) {
        let n = dag.num_tasks();
        self.topo_pos.clear();
        self.topo_pos.resize(n, 0);
        self.order.clear();
        self.order.resize(n, 0);
        for (i, &t) in dag.topo_order().iter().enumerate() {
            self.topo_pos[t.idx()] = i as u32;
            self.order[i] = t.0;
        }
        self.succ_start.clear();
        self.succ_list.clear();
        self.pred_start.clear();
        self.pred_list.clear();
        self.succ_start.push(0);
        self.pred_start.push(0);
        for i in 0..n {
            let t = TaskId(self.order[i]);
            let topo_pos = &self.topo_pos;
            self.succ_list
                .extend(dag.succs(t).iter().map(|s| topo_pos[s.idx()]));
            self.succ_start.push(self.succ_list.len() as u32);
            self.pred_list
                .extend(dag.preds(t).iter().map(|p| topo_pos[p.idx()]));
            self.pred_start.push(self.pred_list.len() as u32);
        }
        bottom_levels_into(dag, exec, &mut self.bl);
        top_levels_into(dag, exec, &mut self.tl);
        self.blp.clear();
        self.blp
            .extend(self.order.iter().map(|&t| self.bl[t as usize]));
        self.tlp.clear();
        self.tlp
            .extend(self.order.iter().map(|&t| self.tl[t as usize]));
        self.execp.clear();
        self.execp
            .extend(self.order.iter().map(|&t| exec[t as usize]));
        self.sbp.clear();
        self.sbp
            .extend((0..n).map(|pos| self.blp[pos] - exec[self.order[pos] as usize]));
        self.entry_pos.clear();
        self.entry_pos
            .extend(dag.entries().iter().map(|t| self.topo_pos[t.idx()]));
        self.dirty.clear();
        self.dirty.resize(n, false);
        self.dense = dag.num_edges() >= 4 * n;
        self.cand.clear();
        self.cand.resize(n, Dur::ZERO);
        self.rescan.clear();
        self.rescan.resize(n, false);
        self.cp_stamp.clear();
        self.cp_stamp.resize(n, 0);
        self.cp_epoch = 0;
        self.cp_stack.clear();
        self.cp_members.clear();
    }

    /// Current bottom levels (always equal to `bottom_levels(dag, exec)`).
    #[inline]
    pub fn bottom(&self) -> &[Dur] {
        &self.bl
    }

    /// Current top levels (always equal to `top_levels(dag, exec)`) —
    /// provided every refresh went through the full [`LevelTracker::update`],
    /// not the bottom-only variant.
    #[inline]
    pub fn top(&self) -> &[Dur] {
        &self.tl
    }

    /// Current critical-path length (max bottom level over entry tasks;
    /// every other task's bottom level is dominated by an entry ancestor's).
    // lint:allow(panic-transitive): task ids are dense indices < num_tasks and the level arrays are sized to the DAG, so every index is in range by construction.
    pub fn critical_path(&self) -> Dur {
        self.entry_pos
            .iter()
            .map(|&e| self.blp[e as usize])
            .max()
            .unwrap_or(Dur::ZERO)
    }

    /// Re-establish both level vectors after `exec[t]` changed (and nothing
    /// else). Returns the number of nodes whose level was recomputed — the
    /// work a full rebuild would have spent on *every* node.
    ///
    /// Both sweeps walk topological *positions* with a dirty bitmap and a
    /// pending counter instead of a priority queue: a predecessor always
    /// sits at a smaller position than its successors, so a linear scan in
    /// the right direction pops nodes in exactly the order a heap would,
    /// without the per-node `O(log V)` cost, and stops as soon as no dirty
    /// node remains.
    // lint:allow(panic-transitive): task ids are dense indices < num_tasks and the level arrays are sized to the DAG, so every index is in range by construction.
    pub fn update(&mut self, dag: &Dag, exec: &[Dur], t: TaskId) -> u64 {
        let mut touched = self.update_bottom(dag, exec, t);
        if self.dense {
            // The dense sweep only writes the positional `blp`; sync the
            // id-indexed view over the swept prefix for `bottom()` readers.
            let start = self.topo_pos[t.idx()] as usize;
            for pos in 0..=start {
                self.bl[self.order[pos] as usize] = self.blp[pos];
            }
        }

        // Top levels flow from predecessors to successors: tl[t] does not
        // depend on exec[t], but every direct successor reads it, so seed
        // with them and propagate in increasing topological position.
        let tp = self.topo_pos[t.idx()] as usize;
        let mut pending = 0u32;
        let mut lo = usize::MAX;
        for &sp in &self.succ_list[self.succ_start[tp] as usize..self.succ_start[tp + 1] as usize] {
            let sp = sp as usize;
            if !self.dirty[sp] {
                self.dirty[sp] = true;
                pending += 1;
            }
            lo = lo.min(sp);
        }
        if pending > 0 {
            for pos in lo..self.order.len() {
                if !self.dirty[pos] {
                    continue;
                }
                self.dirty[pos] = false;
                pending -= 1;
                touched += 1;
                let mut pred_max = Dur::ZERO;
                for &pp in &self.pred_list
                    [self.pred_start[pos] as usize..self.pred_start[pos + 1] as usize]
                {
                    let pp = pp as usize;
                    pred_max = pred_max.max(self.tlp[pp] + self.execp[pp]);
                }
                if pred_max != self.tlp[pos] {
                    self.tlp[pos] = pred_max;
                    self.tl[self.order[pos] as usize] = pred_max;
                    for &sp in &self.succ_list
                        [self.succ_start[pos] as usize..self.succ_start[pos + 1] as usize]
                    {
                        let sp = sp as usize;
                        if !self.dirty[sp] {
                            self.dirty[sp] = true;
                            pending += 1;
                        }
                    }
                }
                if pending == 0 {
                    break;
                }
            }
        }

        touched
    }

    /// The bottom-level half of [`LevelTracker::update`], for loops that
    /// never read top levels (CPA's selection uses
    /// [`LevelTracker::refresh_critical`] instead, which derives
    /// critical-path membership from bottom levels alone).
    ///
    /// After calling this, [`LevelTracker::top`] is **stale** until a full
    /// [`LevelTracker::update`] or rebuild — and on dense graphs so is
    /// [`LevelTracker::bottom`]: the sweep maintains only the positional
    /// state read by [`LevelTracker::critical_path`],
    /// [`LevelTracker::refresh_critical`] and
    /// [`LevelTracker::critical_tasks`]. Callers that need the id-indexed
    /// views go through [`LevelTracker::update`]; allocation loops that
    /// select via critical-path membership never read them.
    pub fn update_bottom(&mut self, dag: &Dag, exec: &[Dur], t: TaskId) -> u64 {
        debug_assert_eq!(exec.len(), self.bl.len());
        debug_assert_eq!(dag.num_tasks(), self.bl.len());
        let start = self.topo_pos[t.idx()] as usize;
        self.execp[start] = exec[t.idx()];
        if self.dense {
            // Dense graphs: recompute the whole affected prefix with a
            // branch-free sweep. Positions above `start` only depend on
            // *later* positions (successors) and are untouched. Disjoint
            // field borrows make the arrays provably non-aliasing so the
            // pointer loads hoist out of the loop. Only `blp` is written:
            // the id-indexed `bl` view is synced by [`LevelTracker::update`]
            // (the positional-only allocation loops never read it), and
            // `sbp` is a sparse-path structure — dense mode derives
            // successor maxima as `blp - execp` where needed.
            let LevelTracker {
                blp,
                execp,
                succ_start,
                succ_list,
                pred_start,
                pred_list,
                ..
            } = self;
            // Seed: recompute the changed task from its (untouched)
            // successors. If its level is unchanged, nothing can move.
            let mut succ_max = Dur::ZERO;
            for &sp in &succ_list[succ_start[start] as usize..succ_start[start + 1] as usize] {
                succ_max = succ_max.max(blp[sp as usize]);
            }
            let fresh = execp[start] + succ_max;
            if blp[start] == fresh {
                return 1;
            }
            blp[start] = fresh;
            // Only the seed has changed so far, so positions strictly
            // between its highest predecessor and `start` cannot move —
            // on layered graphs that skips a layer-width of scans. Resume
            // the full sweep there; below it, any position may be reached.
            let preds = &pred_list[pred_start[start] as usize..pred_start[start + 1] as usize];
            let Some(&hp) = preds.iter().max() else {
                return 1;
            };
            let hp = hp as usize;
            for pos in (0..=hp).rev() {
                let mut succ_max = Dur::ZERO;
                for &sp in &succ_list[succ_start[pos] as usize..succ_start[pos + 1] as usize] {
                    succ_max = succ_max.max(blp[sp as usize]);
                }
                blp[pos] = execp[pos] + succ_max;
            }
            return (hp + 2) as u64;
        }
        let mut touched = 0u64;

        // Bottom levels flow from successors to predecessors: bl[t] itself
        // changes with exec[t], then ancestors in decreasing topological
        // position. A changed child classifies each of its predecessors
        // against the predecessor's cached successor max:
        //   - child rose above the max        -> patch via `cand`, no scan
        //   - a max-contributing child fell   -> full rescan
        //   - anything else                   -> the max is unchanged and
        //     the predecessor is skipped entirely.
        // The seed itself needs no rescan: its successors are untouched,
        // so its cached max is still exact under the new exec time.
        //
        // The worklist is a dirty-flag scan over decreasing topological
        // positions with a pending counter: a mark always lands on a
        // predecessor (strictly below the current position), so a single
        // downward pass visits every dirty node in dependency order.
        self.dirty[start] = true;
        let mut pending = 1u32;
        for pos in (0..=start).rev() {
            if !self.dirty[pos] {
                continue;
            }
            self.dirty[pos] = false;
            pending -= 1;
            touched += 1;
            let fresh_sb = if self.rescan[pos] {
                self.rescan[pos] = false;
                let mut succ_max = Dur::ZERO;
                for &sp in &self.succ_list
                    [self.succ_start[pos] as usize..self.succ_start[pos + 1] as usize]
                {
                    succ_max = succ_max.max(self.blp[sp as usize]);
                }
                succ_max
            } else {
                self.sbp[pos].max(self.cand[pos])
            };
            self.cand[pos] = Dur::ZERO;
            self.sbp[pos] = fresh_sb;
            let fresh = self.execp[pos] + fresh_sb;
            let old = self.blp[pos];
            if fresh != old {
                self.blp[pos] = fresh;
                self.bl[self.order[pos] as usize] = fresh;
                for &pp in &self.pred_list
                    [self.pred_start[pos] as usize..self.pred_start[pos + 1] as usize]
                {
                    let pp = pp as usize;
                    if fresh > self.sbp[pp] {
                        // Child rose past the cached max: patch later.
                        if self.cand[pp] < fresh {
                            self.cand[pp] = fresh;
                        }
                    } else if old == self.sbp[pp] && fresh < old {
                        // A max contributor fell: the new max is unknown.
                        self.rescan[pp] = true;
                    } else {
                        // Some other child still holds the max; skip.
                        continue;
                    }
                    if !self.dirty[pp] {
                        self.dirty[pp] = true;
                        pending += 1;
                    }
                }
            }
            if pending == 0 {
                break;
            }
        }
        touched
    }

    /// Recompute critical-path membership from the current bottom levels,
    /// to be queried with [`LevelTracker::is_critical`].
    ///
    /// A task is on a critical path (`tl(t) + bl(t) == cp`) iff it is
    /// reachable from an entry with `bl == cp` along *tight* edges
    /// (`bl(u) == exec(u) + bl(s)`, i.e. `bl(s)` equals `u`'s successor
    /// max):
    ///
    /// - If a predecessor `pr` is critical and the edge is tight, then
    ///   `tl(t) >= tl(pr) + exec(pr) = cp - bl(pr) + exec(pr) = cp - bl(t)`,
    ///   and `tl + bl <= cp` always, so `t` is critical.
    /// - Conversely if `t` is critical and not an entry, its `tl`-argmax
    ///   predecessor `pr` satisfies `tl(pr) + bl(pr) >= tl(t) - exec(pr) +
    ///   exec(pr) + bl(t) = cp`, so `pr` is critical with a tight edge.
    ///
    /// The walk therefore touches only critical tasks and their out-edges —
    /// no top levels needed, and far less work per allocation iteration
    /// than maintaining `tl` across the whole DAG.
    ///
    /// Returns the critical path length (same value as
    /// [`LevelTracker::critical_path`]), so callers that need both don't
    /// scan the entries twice.
    pub fn refresh_critical(&mut self) -> Dur {
        let cp = self.critical_path();
        self.cp_epoch = self.cp_epoch.wrapping_add(1);
        let epoch = self.cp_epoch;
        self.cp_stack.clear();
        self.cp_members.clear();
        for i in 0..self.entry_pos.len() {
            let e = self.entry_pos[i] as usize;
            if self.blp[e] == cp {
                self.cp_stamp[e] = epoch;
                self.cp_stack.push(e as u32);
                self.cp_members.push(TaskId(self.order[e]));
            }
        }
        while let Some(u) = self.cp_stack.pop() {
            let u = u as usize;
            // A successor edge is tight iff the child's bl equals this
            // node's successor max, i.e. `bl - exec`. Derived rather than
            // read from `sbp`, which dense mode does not maintain.
            let tight = self.blp[u] - self.execp[u];
            for &sp in &self.succ_list[self.succ_start[u] as usize..self.succ_start[u + 1] as usize]
            {
                let sp = sp as usize;
                if self.cp_stamp[sp] != epoch && self.blp[sp] == tight {
                    self.cp_stamp[sp] = epoch;
                    self.cp_stack.push(sp as u32);
                    self.cp_members.push(TaskId(self.order[sp]));
                }
            }
        }
        cp
    }

    /// Whether `t` was on a critical path at the last
    /// [`LevelTracker::refresh_critical`] call.
    #[inline]
    pub fn is_critical(&self, t: TaskId) -> bool {
        self.cp_stamp[self.topo_pos[t.idx()] as usize] == self.cp_epoch
    }

    /// The tasks on a critical path as of the last
    /// [`LevelTracker::refresh_critical`] call, in walk discovery order
    /// (*not* id or topological order). Selection by an order-independent
    /// criterion — e.g. argmax with a total tie-break — can iterate this
    /// instead of filtering every task through
    /// [`LevelTracker::is_critical`].
    #[inline]
    pub fn critical_tasks(&self) -> &[TaskId] {
        &self.cp_members
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
    /// diamond, for exercising the tracker's pruned propagation.
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
        // Average degree >= 4 flips the tracker onto the dense sweep
        // strategy; the same random walk must stay exact there too, and
        // `update` must re-sync the id-indexed views the sweep defers.
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
            "test DAG not dense enough to exercise the sweep path ({} edges)",
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
