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

/// [`order_by_decreasing_bl`] into a caller-held buffer: the CPA mapping
/// phase re-sorts per guide of an RC deadline pass.
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
        };
        g.succ_start.push(0);
        g.pred_start.push(0);
        for &t in dag.topo_order() {
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
    // lint:allow(panic-transitive): every caller sizes `exec` and `bl` to this graph's DAG, and `end` and the successor positions of the CSR are ≤ num_tasks, so every index is in range.
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

    /// Visit every task on a critical path (`tl + bl == cp`, `cp` the
    /// critical length of `bl`) once, in no particular order: the one way
    /// the allocation loops find their candidates. A task is critical iff
    /// it is reachable from a `bl == cp` entry along *tight* edges
    /// (`bl(u) == exec(u) + bl(s)`), so the walk needs no top levels.
    ///
    /// Why tight edges: if `u` is critical and `u → s` is tight, then
    /// `tl(s) ≥ tl(u) + exec(u) = cp − bl(u) + exec(u) = cp − bl(s)`, and
    /// `tl + bl ≤ cp` always, so `s` is critical. Conversely the
    /// `tl`-argmax predecessor `u` of a critical non-entry `s` has
    /// `tl(u) + bl(u) ≥ tl(s) − exec(u) + exec(u) + bl(s) = cp`, so it is
    /// critical and its edge to `s` is tight.
    ///
    /// `visit` gets each member's position and the [`Tightness`] of its
    /// out-edges; the return value is the entries' (the out-edges of a
    /// virtual source at `cp` above them). CPA's runs read both (see
    /// `cpa::AllocState::allocate`); a loop that only picks ignores them.
    /// `marks` records who was reached until the next walk.
    #[inline]
    pub(crate) fn walk_critical(
        &self,
        exec: &[Dur],
        bl: &[Dur],
        cp: Dur,
        marks: &mut Marks,
        mut visit: impl FnMut(usize, Tightness),
    ) -> Tightness {
        let Marks {
            stamp,
            epoch,
            stack,
        } = marks;
        *epoch = epoch.wrapping_add(1);
        stack.clear();
        let mut entries = Tightness::NONE;
        for &e in &self.entry_pos {
            if bl[e as usize] == cp {
                entries.tight += 1;
                stamp[e as usize] = *epoch;
                stack.push(e);
            } else {
                entries.gap = entries.gap.min(cp - bl[e as usize]);
            }
        }
        while let Some(u) = stack.pop() {
            let u = u as usize;
            let tight = bl[u] - exec[u];
            let mut out = Tightness::NONE;
            for &s in self.succs_at(u) {
                if bl[s as usize] != tight {
                    out.gap = out.gap.min(tight - bl[s as usize]);
                    continue;
                }
                out.tight += 1;
                if stamp[s as usize] != *epoch {
                    stamp[s as usize] = *epoch;
                    stack.push(s);
                }
            }
            visit(u, out);
        }
        entries
    }
}

/// What [`PosGraph::walk_critical`] reports about a set of out-edges: how
/// many are tight, and the smallest amount by which a non-tight one falls
/// short of tight (`Dur::MAX` if none does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tightness {
    pub(crate) tight: u32,
    pub(crate) gap: Dur,
}

impl Tightness {
    const NONE: Tightness = Tightness {
        tight: 0,
        gap: Dur::MAX,
    };
}

/// Scratch of [`PosGraph::walk_critical`], sized to one DAG: position `p`
/// was reached by the latest walk iff `stamp[p] == epoch`.
#[derive(Debug, Clone)]
pub(crate) struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Marks {
    pub(crate) fn new(num_tasks: usize) -> Marks {
        Marks {
            stamp: vec![0; num_tasks],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Whether the latest walk reached position `pos`.
    #[inline]
    pub(crate) fn reached(&self, pos: usize) -> bool {
        self.stamp.get(pos) == Some(&self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{chain, fork_join, DagBuilder};
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
    /// diamond, for exercising level propagation.
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

    /// `layers` fully bipartite layers of `width` tasks, plus a skip edge
    /// from each layer's first task two layers down.
    fn layered(layers: usize, width: usize) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<TaskId> = (0..layers * width)
            .map(|i| b.add_task(c(7 * i as i64 + 5)))
            .collect();
        for l in 1..layers {
            for i in 0..width {
                for j in 0..width {
                    b.add_edge(ids[(l - 1) * width + i], ids[l * width + j]);
                }
            }
            if l >= 2 {
                b.add_edge(ids[(l - 2) * width], ids[l * width + width - 1]);
            }
        }
        b.build().unwrap()
    }

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// A random DAG of 1–40 tasks whose ids are not in topological order:
    /// edges run along a shuffled task order, each present with a drawn
    /// density.
    fn random_dag(rng: &mut Lcg) -> Dag {
        let n = 1 + rng.next() as usize % 40;
        let mut b = DagBuilder::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|_| b.add_task(c(1 + (rng.next() % 500) as i64)))
            .collect();
        let mut order = ids.clone();
        for i in (1..n).rev() {
            order.swap(i, rng.next() as usize % (i + 1));
        }
        let density = rng.next() % 100;
        for i in 0..n {
            for j in i + 1..n {
                if rng.next() % 100 < density / 3 + 1 {
                    b.add_edge(order[i], order[j]);
                }
            }
        }
        b.build().unwrap()
    }

    /// Check every `PosGraph` level routine against the full rebuild on
    /// `dag` under a seeded walk of single-task execution-time changes
    /// (rises, falls and no-ops): `propagate_bottom` against
    /// [`bottom_levels`], and the critical walk's members, out-edge reports
    /// and entry report against `{tl + bl == cp}` from [`top_levels`].
    fn walk_and_propagate_match_rebuild(name: &str, dag: &Dag, seed: u64, steps: usize) {
        let graph = PosGraph::new(dag);
        let order = graph.order().to_vec();
        let n = dag.num_tasks();
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut execp: Vec<Dur> = order.iter().map(|&t| exec[t as usize]).collect();
        let mut blp = vec![Dur::ZERO; n];
        graph.sweep_bottom(&execp, &mut blp, n);
        let mut marks = Marks::new(n);
        let mut rng = Lcg(seed ^ n as u64);
        for step in 0..=steps {
            let at = format!("{name}, step {step}");
            if step > 0 {
                let u = rng.next() as usize % n;
                let t = order[u] as usize;
                exec[t] = Dur::seconds(1 + (rng.next() % 40) as i64);
                let old = std::mem::replace(&mut execp[u], exec[t]);
                graph.propagate_bottom(&execp, &mut blp, u, old);
            }
            let (bl, tl) = (bottom_levels(dag, &exec), top_levels(dag, &exec));
            let by_pos: Vec<Dur> = order.iter().map(|&t| bl[t as usize]).collect();
            assert_eq!(blp, by_pos, "bl: {at}");
            let cp = critical_path_length(&bl);
            assert_eq!(graph.critical_length(&blp), cp, "cp: {at}");

            let mut seen = vec![0u32; n];
            let entries = graph.walk_critical(&execp, &blp, cp, &mut marks, |u, out| {
                seen[u] += 1;
                let t = TaskId(order[u]);
                let tight = bl[t.idx()] - exec[t.idx()];
                let succs = dag.succs(t).iter().map(|s| bl[s.idx()]);
                let n_tight = succs.clone().filter(|&b| b == tight).count() as u32;
                let gap = succs.filter(|&b| b != tight).map(|b| tight - b).min();
                assert_eq!(out.tight, n_tight, "tight out-edges of {t}: {at}");
                assert_eq!(out.gap, gap.unwrap_or(Dur::MAX), "gap of {t}: {at}");
            });
            for (u, &t) in order.iter().enumerate() {
                let critical = tl[t as usize] + bl[t as usize] == cp;
                assert_eq!(seen[u], u32::from(critical), "member {t}: {at}");
                assert_eq!(marks.reached(u), critical, "marks of {t}: {at}");
            }
            let entry_levels = dag.entries().iter().map(|e| bl[e.idx()]);
            let n_tight = entry_levels.clone().filter(|&b| b == cp).count() as u32;
            let gap = entry_levels.filter(|&b| b != cp).map(|b| cp - b).min();
            assert_eq!(entries.tight, n_tight, "critical entries: {at}");
            assert_eq!(entries.gap, gap.unwrap_or(Dur::MAX), "entry gap: {at}");
        }
    }

    #[test]
    fn walk_and_propagate_match_a_full_rebuild_under_updates() {
        walk_and_propagate_match_rebuild("lattice", &lattice(), 0x9E37_79B9, 300);
    }

    #[test]
    fn walk_and_propagate_match_a_full_rebuild_on_dense_dag() {
        // Fully bipartite adjacent layers, where nearly every change moves
        // most of the swept prefix: 3 layers of 8 give >= 4 edges a task.
        let dag = layered(3, 8);
        assert!(
            dag.num_edges() >= 4 * dag.num_tasks(),
            "test DAG not dense enough ({} edges)",
            dag.num_edges()
        );
        walk_and_propagate_match_rebuild("dense lattice", &dag, 0xDEAD_BEEF, 300);
    }

    #[test]
    fn walk_and_propagate_match_a_full_rebuild() {
        let shapes = [
            ("chain", chain(&[c(10), c(400), c(3), c(77), c(1), c(90)])),
            ("single task", chain(&[c(10)])),
            ("fork-join", fork_join(c(60), &[c(500); 40], c(60))),
            ("skip lattice", layered(4, 8)),
            ("sparse lattice", layered(6, 2)),
        ];
        for (i, (name, dag)) in shapes.iter().enumerate() {
            walk_and_propagate_match_rebuild(name, dag, 0x9E37_79B9 + i as u64, 300);
        }
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20);
        let mut rng = Lcg(0xDEAD_BEEF);
        for draw in 0..draws {
            let dag = random_dag(&mut rng);
            walk_and_propagate_match_rebuild(&format!("random {draw}"), &dag, draw, 60);
        }
    }

    #[test]
    fn propagate_bottom_resweeps_only_below_the_highest_predecessor() {
        // Changing an exit-level task must not recompute the whole DAG:
        // only the prefix below its highest predecessor, its ancestors'
        // positions (the middle level and the entries), is re-swept.
        let dag = lattice();
        let graph = PosGraph::new(&dag);
        let n = dag.num_tasks();
        let exit_task = TaskId(7); // level-3 task with no successors
        assert!(dag.succs(exit_task).is_empty());
        let u = graph
            .order()
            .iter()
            .position(|&t| t == exit_task.0)
            .unwrap();
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut execp: Vec<Dur> = graph.order().iter().map(|&t| exec[t as usize]).collect();
        let mut blp = vec![Dur::ZERO; n];
        graph.sweep_bottom(&execp, &mut blp, n);
        exec[exit_task.idx()] = Dur::seconds(1);
        let old = std::mem::replace(&mut execp[u], exec[exit_task.idx()]);
        let swept = graph.propagate_bottom(&execp, &mut blp, u, old);
        // bl cone: the 6 ancestors sit at positions 0..6; a full rebuild
        // sweeps all 9.
        assert_eq!(swept, 6, "exit-task update re-swept {swept} positions");
        let bl = bottom_levels(&dag, &exec);
        let by_pos: Vec<Dur> = graph.order().iter().map(|&t| bl[t as usize]).collect();
        assert_eq!(blp, by_pos);
    }
}
