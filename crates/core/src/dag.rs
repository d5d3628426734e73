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
/// Built through [`DagBuilder`]. Guaranteed acyclic; `topo_order` is a valid
/// topological ordering; `entries`/`exits` list source and sink vertices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub fn level_widths(&self) -> Vec<u32> {
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

    /// Whether the edge already exists.
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        self.edges.contains(&(from.0, to.0))
    }

    /// Validate and freeze into a [`Dag`].
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.costs.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut seen = std::collections::BTreeSet::new();
        for &(f, t) in &self.edges {
            if f as usize >= n || t as usize >= n {
                return Err(DagError::BadEdge { from: f, to: t });
            }
            if f == t || !seen.insert((f, t)) {
                return Err(DagError::DuplicateOrSelfEdge { from: f, to: t });
            }
            succs[f as usize].push(TaskId(t));
            preds[t as usize].push(TaskId(f));
        }

        // Kahn's algorithm for topological order + cycle detection.
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

        // Longest-path depths in topological order.
        let mut depth = vec![0u32; n];
        for &t in &topo {
            for &u in &succs[t.idx()] {
                depth[u.idx()] = depth[u.idx()].max(depth[t.idx()] + 1);
            }
        }

        let entries: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| preds[t.idx()].is_empty())
            .collect();
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
        for _ in 0..rng.gen_range(0..=3usize.min(j)) {
            let pred = TaskId(rng.gen_range(j.saturating_sub(5)..j) as u32);
            if !b.has_edge(pred, t) {
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
