//! The application DAG: moldable tasks plus precedence edges.
//!
//! The representation is a compact adjacency-list graph specialized for the
//! scheduling algorithms in this workspace: every task carries its Amdahl
//! cost model ([`TaskCost`]), and the graph caches a topological order, the
//! single entry / exit vertices, and per-task depth levels.

use crate::task::TaskCost;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a task within its [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The index as a `usize`, for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Errors detected while assembling a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a task index that does not exist.
    BadEdge {
        /// Source index.
        from: u32,
        /// Destination index.
        to: u32,
    },
    /// A self-loop or duplicate edge was supplied.
    DuplicateOrSelfEdge {
        /// Source index.
        from: u32,
        /// Destination index.
        to: u32,
    },
    /// The edges contain a cycle.
    Cycle,
    /// The DAG must contain at least one task.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::BadEdge { from, to } => write!(f, "edge ({from} -> {to}) out of range"),
            DagError::DuplicateOrSelfEdge { from, to } => {
                write!(f, "duplicate or self edge ({from} -> {to})")
            }
            DagError::Cycle => write!(f, "precedence edges contain a cycle"),
            DagError::Empty => write!(f, "a DAG needs at least one task"),
        }
    }
}

impl std::error::Error for DagError {}

/// An immutable application DAG of moldable tasks.
///
/// Built through [`DagBuilder`] or deserialized (which checks the stored
/// fields against what the builder computes). Guaranteed acyclic;
/// `topo_order` is a valid topological ordering; `entries`/`exits` list
/// source and sink vertices.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dag {
    costs: Vec<TaskCost>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    topo: Vec<TaskId>,
    /// Longest-path depth of each task (entry tasks have depth 0).
    depth: Vec<u32>,
    entries: Vec<TaskId>,
    exits: Vec<TaskId>,
    num_edges: usize,
}

impl Dag {
    /// Number of tasks (the paper's `V`).
    pub fn num_tasks(&self) -> usize {
        self.costs.len()
    }

    /// Number of precedence edges (the paper's `E`).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterate over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.costs.len() as u32).map(TaskId)
    }

    /// The cost model of task `t`.
    #[inline]
    pub fn cost(&self, t: TaskId) -> TaskCost {
        self.costs[t.idx()]
    }

    /// All task costs, indexed by task id.
    pub fn costs(&self) -> &[TaskCost] {
        &self.costs
    }

    /// Direct predecessors of `t`.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t.idx()]
    }

    /// Direct successors of `t`.
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succs[t.idx()]
    }

    /// A topological ordering of the tasks.
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors.
    pub fn entries(&self) -> &[TaskId] {
        &self.entries
    }

    /// Tasks with no successors.
    pub fn exits(&self) -> &[TaskId] {
        &self.exits
    }

    /// Longest-path depth of `t` from any entry (entries have depth 0).
    pub fn depth(&self, t: TaskId) -> u32 {
        self.depth[t.idx()]
    }

    /// Number of depth levels (max depth + 1).
    pub fn num_levels(&self) -> u32 {
        self.depth.iter().copied().max().map_or(0, |d| d + 1)
    }

    /// Number of tasks per depth level.
    fn level_widths(&self) -> Vec<u32> {
        let mut w = vec![0u32; self.num_levels() as usize];
        for &d in &self.depth {
            w[d as usize] += 1;
        }
        w
    }

    /// The maximum number of tasks in any level (the realized DAG width).
    pub fn max_width(&self) -> u32 {
        self.level_widths().into_iter().max().unwrap_or(0)
    }

    /// Mean number of tasks per level.
    pub fn mean_width(&self) -> f64 {
        let levels = self.num_levels();
        if levels == 0 {
            return 0.0;
        }
        self.num_tasks() as f64 / levels as f64
    }

    /// Total sequential work across all tasks, in seconds.
    pub fn total_seq_work(&self) -> i64 {
        self.costs.iter().map(|c| c.seq.as_seconds()).sum()
    }

    /// A copy of this DAG with every sequential execution time multiplied
    /// by `factor` (rounded up to whole seconds).
    ///
    /// Used to study *pessimistic runtime estimates* (paper §3.1: users
    /// typically over-estimate job runtimes when reserving; scheduling is
    /// then done against inflated costs). `factor >= 1.0`.
    pub fn scale_costs(&self, factor: f64) -> Dag {
        assert!(factor >= 1.0, "estimate factor must be >= 1, got {factor}");
        let mut scaled = self.clone();
        for c in &mut scaled.costs {
            c.seq = c.seq.mul_f64_ceil(factor);
        }
        scaled
    }

    /// Render the DAG in Graphviz DOT format (for debugging / examples).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph dag {\n  rankdir=TB;\n");
        for t in self.task_ids() {
            let c = self.cost(t);
            let _ = writeln!(
                s,
                "  {} [label=\"{}\\nT={} a={:.2}\"];",
                t.0, t, c.seq, c.alpha
            );
        }
        for t in self.task_ids() {
            for &u in self.succs(t) {
                let _ = writeln!(s, "  {} -> {};", t.0, u.0);
            }
        }
        s.push_str("}\n");
        s
    }
}

/// A `Dag` is read field by field in its serialized shape and kept only if
/// it is the DAG [`DagBuilder`] builds from its `costs` and `succs`: ids in
/// range, no self-edge or repeat, no cycle, `preds` the transpose of `succs`,
/// `topo` a topological permutation of the tasks, and `depth`, `entries`,
/// `exits` and `num_edges` their recomputed values. The stored order of each
/// predecessor list and of `topo` is kept, since schedulers break ties by
/// them.
impl Deserialize for Dag {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("an object for struct `Dag`"))?;
        let field = |name: &str| {
            map.get(name)
                .ok_or_else(|| serde::Error::missing_field("Dag", name))
        };
        let stored = Dag {
            costs: Deserialize::deserialize_value(field("costs")?)?,
            preds: Deserialize::deserialize_value(field("preds")?)?,
            succs: Deserialize::deserialize_value(field("succs")?)?,
            topo: Deserialize::deserialize_value(field("topo")?)?,
            depth: Deserialize::deserialize_value(field("depth")?)?,
            entries: Deserialize::deserialize_value(field("entries")?)?,
            exits: Deserialize::deserialize_value(field("exits")?)?,
            num_edges: Deserialize::deserialize_value(field("num_edges")?)?,
        };
        stored
            .checked()
            .map_err(|e| serde::Error::custom(format!("invalid Dag: {e}")))
    }
}

impl Dag {
    /// `self` if each cost is one [`TaskCost::try_new`] accepts and the
    /// rest is what [`DagBuilder`] builds from the costs and successor
    /// lists, up to the order of each predecessor list and of the
    /// topological order; otherwise what differs.
    fn checked(self) -> Result<Dag, String> {
        for (i, c) in self.costs.iter().enumerate() {
            TaskCost::try_new(c.seq, c.alpha, c.overhead).map_err(|e| format!("task {i}: {e}"))?;
        }
        let n = self.costs.len();
        for (name, len) in [
            ("preds", self.preds.len()),
            ("succs", self.succs.len()),
            ("topo", self.topo.len()),
            ("depth", self.depth.len()),
        ] {
            if len != n {
                return Err(format!("{name} has {len} entries for {n} tasks"));
            }
        }
        let mut b = DagBuilder::new();
        for &c in &self.costs {
            b.add_task(c);
        }
        for (f, out) in (0u32..).zip(&self.succs) {
            for &t in out {
                b.add_edge(TaskId(f), t);
            }
        }
        let built = b.build().map_err(|e| e.to_string())?;
        // The builder lists each task's predecessors by ascending id.
        for (t, (stored, transposed)) in self.preds.iter().zip(&built.preds).enumerate() {
            let mut sorted = stored.clone();
            sorted.sort_unstable();
            if sorted != *transposed {
                return Err(format!("preds of t{t} are not the transpose of succs"));
            }
        }
        let mut pos = vec![usize::MAX; n];
        for (i, t) in self.topo.iter().enumerate() {
            match pos.get_mut(t.idx()) {
                Some(p) if *p == usize::MAX => *p = i,
                _ => return Err(format!("topo lists {t} out of range or twice")),
            }
        }
        for (f, out) in built.succs.iter().enumerate() {
            if let Some(t) = out.iter().find(|t| pos[t.idx()] < pos[f]) {
                return Err(format!("topo puts t{f} after its successor {t}"));
            }
        }
        for (name, same) in [
            ("depth", self.depth == built.depth),
            ("entries", self.entries == built.entries),
            ("exits", self.exits == built.exits),
            ("num_edges", self.num_edges == built.num_edges),
        ] {
            if !same {
                return Err(format!(
                    "{name} differs from its value recomputed from succs"
                ));
            }
        }
        Ok(Dag {
            preds: self.preds,
            topo: self.topo,
            ..built
        })
    }
}

/// Incremental builder for [`Dag`].
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    costs: Vec<TaskCost>,
    edges: Vec<(u32, u32)>,
}

impl DagBuilder {
    /// An empty builder.
    pub fn new() -> DagBuilder {
        DagBuilder::default()
    }

    /// An empty builder with room for `tasks` tasks and `edges` edges
    /// before it grows.
    pub fn with_capacity(tasks: usize, edges: usize) -> DagBuilder {
        DagBuilder {
            costs: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a task with the given cost model; returns its id.
    pub fn add_task(&mut self, cost: TaskCost) -> TaskId {
        self.costs.push(cost);
        TaskId(self.costs.len() as u32 - 1)
    }

    /// Add a precedence edge `from -> to`.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.edges.push((from.0, to.0));
        self
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.costs.len()
    }

    /// Validate and freeze into a [`Dag`].
    ///
    /// O(V + E) on valid input: one pass counts degrees, so every adjacency
    /// list is allocated at its final size, and one stamp per target finds
    /// a repeated edge. Only invalid input pays for the ordered scan that
    /// names its first offending edge in insertion order (out of range,
    /// self-edge or repeat); [`DagError::Cycle`] is reported only for an
    /// edge list with none.
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.costs.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut out_deg = vec![0u32; n];
        let mut indeg = vec![0u32; n];
        for &(f, t) in &self.edges {
            match (out_deg.get_mut(f as usize), indeg.get_mut(t as usize)) {
                (Some(out), Some(into)) if f != t => {
                    *out += 1;
                    *into += 1;
                }
                _ => return Err(self.first_offending_edge()),
            }
        }
        let sized = |deg: &[u32]| -> Vec<Vec<TaskId>> {
            deg.iter()
                .map(|&d| Vec::with_capacity(d as usize))
                .collect()
        };
        let mut succs = sized(&out_deg);
        let mut preds = sized(&indeg);
        for &(f, t) in &self.edges {
            succs[f as usize].push(TaskId(t));
            preds[t as usize].push(TaskId(f));
        }
        // `stamp[t]` is the last source seen with an edge into `t`.
        let mut stamp = vec![usize::MAX; n];
        for (f, out) in succs.iter().enumerate() {
            for t in out {
                if std::mem::replace(&mut stamp[t.idx()], f) == f {
                    return Err(self.first_offending_edge());
                }
            }
        }

        // Kahn's algorithm for topological order + cycle detection; a
        // task's depth is final once it is dequeued.
        let mut topo: Vec<TaskId> = Vec::with_capacity(n);
        topo.extend((0..n as u32).map(TaskId).filter(|t| indeg[t.idx()] == 0));
        let entries = topo.clone();
        let mut depth = vec![0u32; n];
        let mut head = 0;
        while let Some(&t) = topo.get(head) {
            head += 1;
            for &u in &succs[t.idx()] {
                depth[u.idx()] = depth[u.idx()].max(depth[t.idx()] + 1);
                indeg[u.idx()] -= 1;
                if indeg[u.idx()] == 0 {
                    topo.push(u);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }

        let exits: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| succs[t.idx()].is_empty())
            .collect();
        let num_edges = self.edges.len();

        Ok(Dag {
            costs: self.costs,
            preds,
            succs,
            topo,
            depth,
            entries,
            exits,
            num_edges,
        })
    }

    /// The first edge, in insertion order, that is out of range, a
    /// self-edge or a repeat. Called only once `build` has found one.
    fn first_offending_edge(&self) -> DagError {
        let n = self.costs.len();
        let mut seen = std::collections::BTreeSet::new();
        self.edges
            .iter()
            .find_map(|&(from, to)| {
                if from as usize >= n || to as usize >= n {
                    Some(DagError::BadEdge { from, to })
                } else if from == to || !seen.insert((from, to)) {
                    Some(DagError::DuplicateOrSelfEdge { from, to })
                } else {
                    None
                }
            })
            .expect("build found an offending edge")
    }
}

/// Build a linear chain of tasks (helper used across tests and examples).
pub fn chain(costs: &[TaskCost]) -> Dag {
    let mut b = DagBuilder::new();
    let ids: Vec<TaskId> = costs.iter().map(|&c| b.add_task(c)).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build().expect("a chain is always a valid DAG")
}

/// Build a fork-join DAG: one entry, `width` parallel middle tasks, one exit.
pub fn fork_join(entry: TaskCost, middle: &[TaskCost], exit: TaskCost) -> Dag {
    let mut b = DagBuilder::new();
    let e = b.add_task(entry);
    let mids: Vec<TaskId> = middle.iter().map(|&c| b.add_task(c)).collect();
    let x = b.add_task(exit);
    for &m in &mids {
        b.add_edge(e, m);
        b.add_edge(m, x);
    }
    if mids.is_empty() {
        b.add_edge(e, x);
    }
    b.build().expect("fork-join is always a valid DAG")
}

/// A seeded random DAG for the schedulers' differential tests: each task
/// draws up to three predecessors among the five tasks before it; costs are
/// Amdahl, sequential times up to `longest` seconds, with the given
/// per-processor overhead (> 0 makes execution time U-shaped in `m`).
#[cfg(test)]
pub(crate) fn random_dag<R: rand::Rng>(rng: &mut R, longest: i64, overhead: i64) -> Dag {
    use resched_resv::Dur;
    let mut b = DagBuilder::new();
    let n = rng.gen_range(4usize..16);
    for j in 0..n {
        let t = b.add_task(TaskCost::with_overhead(
            Dur::seconds(rng.gen_range(300i64..longest)),
            rng.gen_range(0.0..0.5f64),
            Dur::seconds(overhead),
        ));
        let mut preds = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize.min(j)) {
            let pred = TaskId(rng.gen_range(j.saturating_sub(5)..j) as u32);
            if !preds.contains(&pred) {
                preds.push(pred);
                b.add_edge(pred, t);
            }
        }
    }
    b.build().expect("edges only point forward")
}

#[cfg(test)]
mod tests {
    use super::*;
    use resched_resv::Dur;

    fn cost(s: i64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), 0.1)
    }

    #[test]
    fn builds_diamond() {
        let mut b = DagBuilder::new();
        let a = b.add_task(cost(10));
        let x = b.add_task(cost(20));
        let y = b.add_task(cost(30));
        let z = b.add_task(cost(40));
        b.add_edge(a, x)
            .add_edge(a, y)
            .add_edge(x, z)
            .add_edge(y, z);
        let dag = b.build().unwrap();
        assert_eq!(dag.num_tasks(), 4);
        assert_eq!(dag.num_edges(), 4);
        assert_eq!(dag.entries(), &[a]);
        assert_eq!(dag.exits(), &[z]);
        assert_eq!(dag.depth(a), 0);
        assert_eq!(dag.depth(x), 1);
        assert_eq!(dag.depth(y), 1);
        assert_eq!(dag.depth(z), 2);
        assert_eq!(dag.num_levels(), 3);
        assert_eq!(dag.level_widths(), vec![1, 2, 1]);
        assert_eq!(dag.max_width(), 2);
        assert_eq!(dag.preds(z), &[x, y]);
        assert_eq!(dag.succs(a), &[x, y]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DagBuilder::new();
        let ids: Vec<TaskId> = (0..6).map(|_| b.add_task(cost(5))).collect();
        b.add_edge(ids[3], ids[1]);
        b.add_edge(ids[1], ids[0]);
        b.add_edge(ids[5], ids[4]);
        b.add_edge(ids[0], ids[4]);
        let dag = b.build().unwrap();
        let pos: Vec<usize> = (0..6)
            .map(|i| dag.topo_order().iter().position(|t| t.0 == i).unwrap())
            .collect();
        assert!(pos[3] < pos[1] && pos[1] < pos[0]);
        assert!(pos[5] < pos[4] && pos[0] < pos[4]);
    }

    #[test]
    fn detects_cycle() {
        let mut b = DagBuilder::new();
        let x = b.add_task(cost(1));
        let y = b.add_task(cost(1));
        b.add_edge(x, y).add_edge(y, x);
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = DagBuilder::new();
        let x = b.add_task(cost(1));
        b.add_edge(x, TaskId(7));
        assert!(matches!(b.build(), Err(DagError::BadEdge { .. })));

        let mut b = DagBuilder::new();
        let x = b.add_task(cost(1));
        b.add_edge(x, x);
        assert!(matches!(
            b.build(),
            Err(DagError::DuplicateOrSelfEdge { .. })
        ));

        let mut b = DagBuilder::new();
        let x = b.add_task(cost(1));
        let y = b.add_task(cost(1));
        b.add_edge(x, y).add_edge(x, y);
        assert!(matches!(
            b.build(),
            Err(DagError::DuplicateOrSelfEdge { .. })
        ));

        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    /// `build` names the first offending edge in insertion order, whether
    /// it is out of range, a self-edge or a repeat, and reports a cycle
    /// only for an edge list with no offending edge.
    #[test]
    fn build_names_the_first_offending_edge_in_insertion_order() {
        let built = |edges: &[(u32, u32)]| {
            let mut b = DagBuilder::new();
            for _ in 0..3 {
                b.add_task(cost(1));
            }
            for &(f, t) in edges {
                b.add_edge(TaskId(f), TaskId(t));
            }
            b.build().map(|_| ())
        };
        let bad = |from, to| Err(DagError::BadEdge { from, to });
        let dup = |from, to| Err(DagError::DuplicateOrSelfEdge { from, to });
        // Each kind before each other kind.
        assert_eq!(built(&[(0, 1), (0, 1), (0, 9)]), dup(0, 1));
        assert_eq!(built(&[(0, 1), (5, 1), (0, 1)]), bad(5, 1));
        assert_eq!(built(&[(2, 2), (0, 7)]), dup(2, 2));
        assert_eq!(built(&[(0, 7), (2, 2)]), bad(0, 7));
        assert_eq!(built(&[(1, 2), (1, 2), (0, 0)]), dup(1, 2));
        assert_eq!(built(&[(1, 1), (0, 2), (0, 2)]), dup(1, 1));
        assert_eq!(built(&[(u32::MAX, 0), (1, 1)]), bad(u32::MAX, 0));
        assert_eq!(built(&[(0, 3), (3, 0)]), bad(0, 3));
        // Insertion order, not source order: the repeat of (2, 0) comes
        // before the repeat of (0, 1).
        assert_eq!(built(&[(2, 0), (0, 1), (2, 0), (0, 1)]), dup(2, 0));
        assert_eq!(built(&[(0, 1), (2, 1), (0, 1), (2, 1)]), dup(0, 1));
        // A cycle loses to any offending edge, wherever it sits.
        assert_eq!(built(&[(0, 1), (1, 0), (1, 3)]), bad(1, 3));
        assert_eq!(built(&[(0, 1), (1, 0), (0, 1)]), dup(0, 1));
        assert_eq!(built(&[(0, 1), (1, 0), (2, 2)]), dup(2, 2));
        assert_eq!(built(&[(0, 1), (1, 2), (2, 0)]), Err(DagError::Cycle));
        assert_eq!(built(&[(0, 1), (1, 2), (0, 2)]), Ok(()));
        // No task at all outranks every edge.
        let mut b = DagBuilder::new();
        b.add_edge(TaskId(0), TaskId(0));
        assert_eq!(b.build().unwrap_err(), DagError::Empty);
    }

    /// The builder before its O(V + E) rewrite: an ordered edge set, lists
    /// grown by push, entries read off the predecessor lists and depths in
    /// a second pass over the topological order.
    fn reference_build(b: DagBuilder) -> Result<Dag, DagError> {
        let n = b.costs.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut seen = std::collections::BTreeSet::new();
        for &(f, t) in &b.edges {
            if f as usize >= n || t as usize >= n {
                return Err(DagError::BadEdge { from: f, to: t });
            }
            if f == t || !seen.insert((f, t)) {
                return Err(DagError::DuplicateOrSelfEdge { from: f, to: t });
            }
            succs[f as usize].push(TaskId(t));
            preds[t as usize].push(TaskId(f));
        }
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.idx()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for &u in &succs[t.idx()] {
                indeg[u.idx()] -= 1;
                if indeg[u.idx()] == 0 {
                    queue.push(u);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        let mut depth = vec![0u32; n];
        for &t in &topo {
            for &u in &succs[t.idx()] {
                depth[u.idx()] = depth[u.idx()].max(depth[t.idx()] + 1);
            }
        }
        let ids = || (0..n as u32).map(TaskId);
        let entries = ids().filter(|t| preds[t.idx()].is_empty()).collect();
        let exits = ids().filter(|t| succs[t.idx()].is_empty()).collect();
        Ok(Dag {
            costs: b.costs,
            preds,
            succs,
            topo,
            depth,
            entries,
            exits,
            num_edges: b.edges.len(),
        })
    }

    /// `build` equals the reference builder, result or error, on seeded
    /// edge lists: distinct forward edges (a valid DAG) with one fault
    /// spliced in by the draw's index — none, an out-of-range id, a
    /// self-edge, a repeat, or the reverse of an edge (a cycle) — and,
    /// from the sixth draw on, a second random fault in one draw of four,
    /// so that which fault comes first is compared too.
    #[test]
    fn build_matches_the_reference_builder() {
        use rand::{Rng, SeedableRng};
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(400);
        let mut seen = [0u64; 5];
        for seed in 0..draws {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2u32..12);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for _ in 0..rng.gen_range(1..3 * n) {
                let (f, t) = (rng.gen_range(0..n - 1), rng.gen_range(1..n));
                let e = (f.min(t), f.max(t).max(f + 1));
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
            let second = seed >= 5 && rng.gen_range(0..4) == 0;
            for fault in [seed % 5, if second { rng.gen_range(1..5) } else { 0 }] {
                let (f, t) = edges[rng.gen_range(0..edges.len())];
                let spliced = match fault {
                    1 => (f, rng.gen_range(n..n + 3)),
                    2 => (t, t),
                    3 => (f, t),
                    4 => (t, f),
                    _ => continue,
                };
                let at = rng.gen_range(0..=edges.len());
                edges.insert(at, spliced);
            }
            let mut b = DagBuilder::new();
            for _ in 0..n {
                b.add_task(cost(rng.gen_range(1..100)));
            }
            for &(f, t) in &edges {
                b.add_edge(TaskId(f), TaskId(t));
            }
            let got = b.clone().build();
            let outcome = match &got {
                Ok(_) => 0,
                Err(DagError::BadEdge { .. }) => 1,
                Err(DagError::DuplicateOrSelfEdge { .. }) => 2,
                Err(DagError::Cycle) => 3,
                Err(DagError::Empty) => 4,
            };
            seen[outcome] += 1;
            assert_eq!(got, reference_build(b), "seed {seed}: {edges:?}");
        }
        if draws >= 5 {
            assert!(seen[..4].iter().all(|&k| k > 0), "outcomes {seen:?}");
        }
    }

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<TaskId> = (1..=4).map(|s| b.add_task(cost(s * 10))).collect();
        b.add_edge(ids[0], ids[1])
            .add_edge(ids[0], ids[2])
            .add_edge(ids[1], ids[3])
            .add_edge(ids[2], ids[3]);
        b.build().unwrap()
    }

    /// The diamond's JSON with `field` replaced by `json`, deserialized.
    fn diamond_with(field: &str, json: &str) -> Result<Dag, String> {
        let mut v = serde_json::to_value(diamond()).unwrap();
        if let serde::Value::Object(map) = &mut v {
            map.insert(field.to_string(), serde_json::from_str(json).unwrap());
        }
        serde_json::from_value::<Dag>(v).map_err(|e| e.to_string())
    }

    #[test]
    fn deserialize_round_trips_built_dags() {
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(5);
        for _ in 0..50 {
            let dag = random_dag(&mut rng, 36_000, 0);
            let text = serde_json::to_string(&dag).unwrap();
            let back: Dag = serde_json::from_str(&text).unwrap();
            assert_eq!(back, dag);
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
    }

    #[test]
    fn deserialize_keeps_the_stored_order() {
        let dag = diamond_with("preds", "[[],[0],[0],[2,1]]").unwrap();
        assert_eq!(dag.preds(TaskId(3)), &[TaskId(2), TaskId(1)]);
        let dag = diamond_with("topo", "[0,2,1,3]").unwrap();
        assert_eq!(
            dag.topo_order(),
            &[TaskId(0), TaskId(2), TaskId(1), TaskId(3)]
        );
        assert_eq!(diamond_with("num_edges", "4"), Ok(diamond()));
    }

    #[test]
    fn deserialize_refuses_what_the_builder_would_not_build() {
        let cases = [
            (
                "succs",
                "[[1,2],[3],[3],[0]]",
                "precedence edges contain a cycle",
            ),
            ("succs", "[[1,7],[3],[3],[]]", "edge (0 -> 7) out of range"),
            (
                "succs",
                "[[1,1],[3],[3],[]]",
                "duplicate or self edge (0 -> 1)",
            ),
            (
                "succs",
                "[[0,1,2],[3],[3],[]]",
                "duplicate or self edge (0 -> 0)",
            ),
            (
                "succs",
                "[[1,2],[3],[3]]",
                "succs has 3 entries for 4 tasks",
            ),
            (
                "preds",
                "[[],[0],[0],[1]]",
                "preds of t3 are not the transpose",
            ),
            (
                "preds",
                "[[],[0],[0],[1,2,2]]",
                "preds of t3 are not the transpose",
            ),
            (
                "preds",
                "[[],[0],[0],[1,9]]",
                "preds of t3 are not the transpose",
            ),
            (
                "preds",
                "[[],[0],[3],[1,2]]",
                "preds of t2 are not the transpose",
            ),
            ("topo", "[0,3,1,2]", "topo puts t1 after its successor t3"),
            ("topo", "[0,1,1,3]", "topo lists t1 out of range or twice"),
            ("topo", "[0,1,2,9]", "topo lists t9 out of range or twice"),
            ("topo", "[0,1,2]", "topo has 3 entries for 4 tasks"),
            ("depth", "[0,1,1,3]", "depth differs"),
            ("entries", "[0,1]", "entries differs"),
            ("exits", "[]", "exits differs"),
            ("num_edges", "5", "num_edges differs"),
            (
                "costs",
                r#"[{"seq":-5,"alpha":0,"overhead":0},{"seq":1,"alpha":0,"overhead":0},{"seq":1,"alpha":0,"overhead":0},{"seq":1,"alpha":0,"overhead":0}]"#,
                "task 0: seq (sequential time) must be positive",
            ),
            (
                "costs",
                r#"[{"seq":1,"alpha":0,"overhead":0},{"seq":1,"alpha":3.5,"overhead":0},{"seq":1,"alpha":0,"overhead":0},{"seq":1,"alpha":0,"overhead":0}]"#,
                "task 1: alpha must be within [0, 1]: 3.5",
            ),
        ];
        for (field, json, why) in cases {
            let err = diamond_with(field, json).unwrap_err();
            assert!(err.contains(why), "{field} = {json}: {err}");
            assert!(err.starts_with("invalid Dag: "), "{err}");
        }
        let empty = r#"{"costs":[],"preds":[],"succs":[],"topo":[],"depth":[],"entries":[],"exits":[],"num_edges":0}"#;
        let err = serde_json::from_str::<Dag>(empty).unwrap_err().to_string();
        assert!(err.contains("a DAG needs at least one task"), "{err}");
        let err = serde_json::from_str::<Dag>(r#"{"costs":[]}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("missing field `preds` for struct `Dag`"),
            "{err}"
        );
    }

    #[test]
    fn chain_helper() {
        let dag = chain(&[cost(1), cost(2), cost(3)]);
        assert_eq!(dag.num_edges(), 2);
        assert_eq!(dag.entries().len(), 1);
        assert_eq!(dag.exits().len(), 1);
        assert_eq!(dag.num_levels(), 3);
        assert_eq!(dag.max_width(), 1);
    }

    #[test]
    fn fork_join_helper() {
        let dag = fork_join(cost(1), &[cost(2); 5], cost(3));
        assert_eq!(dag.num_tasks(), 7);
        assert_eq!(dag.max_width(), 5);
        assert_eq!(dag.num_levels(), 3);
        assert_eq!(dag.entries().len(), 1);
        assert_eq!(dag.exits().len(), 1);
        // Degenerate: no middle tasks.
        let d2 = fork_join(cost(1), &[], cost(3));
        assert_eq!(d2.num_tasks(), 2);
        assert_eq!(d2.num_edges(), 1);
    }

    #[test]
    fn singleton_dag() {
        let mut b = DagBuilder::new();
        b.add_task(cost(5));
        let dag = b.build().unwrap();
        assert_eq!(dag.num_tasks(), 1);
        assert_eq!(dag.entries(), dag.exits());
        assert_eq!(dag.num_levels(), 1);
        assert!((dag.mean_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_output_mentions_every_task() {
        let dag = chain(&[cost(1), cost(2)]);
        let dot = dag.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("0 -> 1"));
    }

    #[test]
    fn scale_costs_inflates() {
        let dag = chain(&[cost(100), cost(200)]);
        let scaled = dag.scale_costs(1.5);
        assert_eq!(scaled.costs()[0].seq, Dur::seconds(150));
        assert_eq!(scaled.costs()[1].seq, Dur::seconds(300));
        // Structure untouched.
        assert_eq!(scaled.num_edges(), dag.num_edges());
        assert_eq!(scaled.topo_order(), dag.topo_order());
    }

    #[test]
    #[should_panic(expected = "estimate factor")]
    fn scale_costs_rejects_shrinking() {
        let dag = chain(&[cost(100)]);
        let _ = dag.scale_costs(0.5);
    }

    #[test]
    fn total_seq_work_sums() {
        let dag = chain(&[cost(10), cost(20), cost(30)]);
        assert_eq!(dag.total_seq_work(), 60);
    }
}
