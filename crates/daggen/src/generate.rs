//! Random DAG generation following the structure of Suter's `daggen`
//! program, as used by the paper (§3.1).
//!
//! Generation proceeds in four steps:
//!
//! 1. **Levels** — distribute the inner tasks (all but the single entry and
//!    exit) over levels. The mean level width is `n^width`; each level's
//!    size is perturbed around the mean by up to `±(1 − regularity)·100%`.
//! 2. **Edges** — for every task, add an edge from each task in the
//!    previous level with probability `density`. For `jump > 1`, also add
//!    edges from tasks up to `jump` levels back, with probability
//!    `density · 0.2` per candidate pair (jump edges are "random" extras in
//!    the paper; the damping factor keeps them a minority — documented as a
//!    modeling choice in DESIGN.md).
//! 3. **Connectivity** — every inner task is attached to at least one task
//!    of the immediately previous level (keeping generated levels equal to
//!    realized longest-path depths, so `jump` cleanly bounds edge spans);
//!    the single entry feeds every level-1 task and the single exit drains
//!    all sinks.
//! 4. **Costs** — each task draws a sequential time `T_i ~ U(1 min, 10 h)`
//!    and an Amdahl fraction `alpha_i ~ U(0, alpha_max)`.

use crate::params::DagParams;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_core::dag::{Dag, DagBuilder, TaskId};
use resched_core::task::TaskCost;
use resched_resv::Dur;

/// Probability damping applied to jump-edge candidate pairs relative to
/// consecutive-level pairs.
const JUMP_EDGE_DAMPING: f64 = 0.2;

/// Sequential-time range of Table 1's cost model: 1 minute to 10 hours.
pub const SEQ_TIME_RANGE_SECS: (i64, i64) = (60, 36_000);

/// Generate a random application DAG from `params`, deterministically
/// derived from `seed`.
///
/// The result always has a single entry task and a single exit task and is
/// guaranteed acyclic and weakly connected.
pub fn generate(params: &DagParams, seed: u64) -> Dag {
    params.validate().expect("invalid DAG parameters");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    generate_with(params, &mut rng)
}

/// Like [`generate`], but drawing from a caller-supplied RNG.
///
/// O(V + E), with no edge set. Tasks are created level by level, so a
/// level is a range of ids. No pair `(u, v)` is ever offered twice:
/// step 2 draws each candidate pair once, step 3a links only a task with
/// no parent in the previous level, and step 3b links into level 1 and
/// the exit, which nothing before it does. Two flags per task answer the
/// only questions an edge set would be asked (DESIGN.md §2.3).
pub fn generate_with<R: Rng>(params: &DagParams, rng: &mut R) -> Dag {
    let n = params.num_tasks;
    // Room for two edges per task: a paper-default DAG has ~1.4 at n = 10
    // and ~3 at n = 50, so a serve arrival's builder seldom grows.
    let mut b = DagBuilder::with_capacity(n, 2 * n);

    // Degenerate sizes: fall back to a chain.
    if n <= 2 {
        for i in 0..n as u32 {
            b.add_task(random_cost(params, rng));
            if i > 0 {
                b.add_edge(TaskId(i - 1), TaskId(i));
            }
        }
        return b.build().expect("chain is valid");
    }

    // Step 1: levels for the n-2 inner tasks. Level `l` holds the ids
    // `bounds[l]..bounds[l + 1]`; level 0 is the entry, task 0, and the
    // exit is task `n - 1`, after the last level.
    let inner = n - 2;
    let mean_width = (inner as f64).powf(params.width).clamp(1.0, inner as f64);
    let mut bounds: Vec<usize> = vec![0, 1];
    let mut remaining = inner;
    while remaining > 0 {
        let jitter: f64 = 1.0 + (rng.gen_range(-1.0..=1.0)) * (1.0 - params.regularity);
        let size = (mean_width * jitter).round().max(1.0) as usize;
        let size = size.min(remaining);
        bounds.push(n - 1 - remaining + size);
        remaining -= size;
    }
    let level = |l: usize| bounds[l]..bounds[l + 1];
    let levels = bounds.len() - 1;
    let exit = n - 1;
    for _ in 0..n {
        b.add_task(random_cost(params, rng));
    }
    let id = |t: usize| TaskId(t as u32);
    // `has_prev_parent[v]`: an edge into `v` from the level before it;
    // `has_succ[u]`: an edge out of `u`.
    let mut has_prev_parent = vec![false; n];
    let mut has_succ = vec![false; n];

    // Step 2: edges with density / jump. Level 0 is the entry; inner levels
    // start at index 1.
    let jump_p = (params.density * JUMP_EDGE_DAMPING).clamp(0.0, 1.0);
    for l in 2..levels {
        for v in level(l) {
            // Consecutive level: probability `density` per candidate parent.
            for u in level(l - 1) {
                if rng.gen_bool(params.density) {
                    b.add_edge(id(u), id(v));
                    has_succ[u] = true;
                    has_prev_parent[v] = true;
                }
            }
            // Jump edges from levels l-jump .. l-2.
            for d in 2..=params.jump as usize {
                if d >= l {
                    break;
                }
                for u in level(l - d) {
                    if jump_p > 0.0 && rng.gen_bool(jump_p) {
                        b.add_edge(id(u), id(v));
                        has_succ[u] = true;
                    }
                }
            }
        }
    }

    // Step 3a: connectivity — every inner task gets at least one parent in
    // the *immediately previous* level. This keeps the generated level of a
    // task equal to its realized longest-path depth, so the `jump`
    // parameter cleanly bounds edge spans (jump = 1 yields a layered DAG,
    // as the paper defines it).
    for l in 2..levels {
        let prev = level(l - 1);
        for v in level(l) {
            if !has_prev_parent[v] {
                let u = prev.start + rng.gen_range(0..prev.len());
                b.add_edge(id(u), id(v));
                has_succ[u] = true;
            }
        }
    }
    // Step 3b: entry feeds every level-1 task (there is one, since n > 2);
    // exit drains every sink.
    for v in level(1) {
        b.add_edge(id(0), id(v));
    }
    has_succ[0] = true;
    for u in (0..exit).filter(|&u| !has_succ[u]) {
        b.add_edge(id(u), id(exit));
    }

    b.build().expect("generated graph is a DAG by construction")
}

fn random_cost<R: Rng>(params: &DagParams, rng: &mut R) -> TaskCost {
    let (lo, hi) = SEQ_TIME_RANGE_SECS;
    let seq = Dur::seconds(rng.gen_range(lo..=hi));
    let alpha = if params.alpha_max == 0.0 {
        0.0
    } else {
        rng.gen_range(0.0..=params.alpha_max)
    };
    TaskCost::new(seq, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator before its O(V + E) rewrite, kept as the oracle of
    /// `generate_with`: an edge set consulted on every link, a task list
    /// per level, and predecessor / successor counts.
    fn reference_generate<R: Rng>(params: &DagParams, rng: &mut R) -> Dag {
        let n = params.num_tasks;
        let mut b = DagBuilder::new();

        // Degenerate sizes: fall back to a chain.
        if n <= 2 {
            let ids: Vec<TaskId> = (0..n)
                .map(|_| b.add_task(random_cost(params, rng)))
                .collect();
            for w in ids.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            return b.build().expect("chain is valid");
        }

        // Step 1: levels for the n-2 inner tasks.
        let inner = n - 2;
        let mean_width = (inner as f64).powf(params.width).clamp(1.0, inner as f64);
        let mut level_sizes: Vec<usize> = Vec::new();
        let mut remaining = inner;
        while remaining > 0 {
            let jitter: f64 = 1.0 + (rng.gen_range(-1.0..=1.0)) * (1.0 - params.regularity);
            let size = (mean_width * jitter).round().max(1.0) as usize;
            let size = size.min(remaining);
            level_sizes.push(size);
            remaining -= size;
        }

        // Create tasks level by level.
        let entry = b.add_task(random_cost(params, rng));
        let mut levels: Vec<Vec<TaskId>> = vec![vec![entry]];
        for &size in &level_sizes {
            let level: Vec<TaskId> = (0..size)
                .map(|_| b.add_task(random_cost(params, rng)))
                .collect();
            levels.push(level);
        }
        let exit = b.add_task(random_cost(params, rng));

        // Local adjacency mirrors so edge-existence checks stay O(1); the
        // builder itself only validates at build() time.
        let total = b.num_tasks() + 1; // +1 for the exit, added above
        let mut pred_count = vec![0usize; total];
        let mut succ_count = vec![0usize; total];
        let mut edge_set: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let link = |b: &mut DagBuilder,
                    edge_set: &mut std::collections::HashSet<(u32, u32)>,
                    pred_count: &mut Vec<usize>,
                    succ_count: &mut Vec<usize>,
                    u: TaskId,
                    v: TaskId|
         -> bool {
            if edge_set.insert((u.0, v.0)) {
                b.add_edge(u, v);
                succ_count[u.idx()] += 1;
                pred_count[v.idx()] += 1;
                true
            } else {
                false
            }
        };

        // Step 2: edges with density / jump. Level 0 is the entry; inner levels
        // start at index 1.
        for l in 2..levels.len() {
            let (before, current) = levels.split_at(l);
            for &v in &current[0] {
                // Consecutive level: probability `density` per candidate parent.
                for &u in &before[l - 1] {
                    if rng.gen_bool(params.density) {
                        link(
                            &mut b,
                            &mut edge_set,
                            &mut pred_count,
                            &mut succ_count,
                            u,
                            v,
                        );
                    }
                }
                // Jump edges from levels l-jump .. l-2.
                for d in 2..=params.jump as usize {
                    if d >= l {
                        break;
                    }
                    let p = (params.density * JUMP_EDGE_DAMPING).clamp(0.0, 1.0);
                    for &u in &before[l - d] {
                        if p > 0.0 && rng.gen_bool(p) {
                            link(
                                &mut b,
                                &mut edge_set,
                                &mut pred_count,
                                &mut succ_count,
                                u,
                                v,
                            );
                        }
                    }
                }
            }
        }

        // Step 3a: connectivity — every inner task gets at least one parent in
        // the *immediately previous* level. This keeps the generated level of a
        // task equal to its realized longest-path depth, so the `jump`
        // parameter cleanly bounds edge spans (jump = 1 yields a layered DAG,
        // as the paper defines it).
        for l in 2..levels.len() {
            let (before, current) = levels.split_at(l);
            for &v in &current[0] {
                let has_prev_parent = before[l - 1]
                    .iter()
                    .any(|&u| edge_set.contains(&(u.0, v.0)));
                if !has_prev_parent {
                    let prev = &before[l - 1];
                    let u = prev[rng.gen_range(0..prev.len())];
                    link(
                        &mut b,
                        &mut edge_set,
                        &mut pred_count,
                        &mut succ_count,
                        u,
                        v,
                    );
                }
            }
        }
        // Step 3b: entry feeds every level-1 task; exit drains every sink.
        if levels.len() > 1 {
            for &v in &levels[1].clone() {
                link(
                    &mut b,
                    &mut edge_set,
                    &mut pred_count,
                    &mut succ_count,
                    entry,
                    v,
                );
            }
        } else {
            link(
                &mut b,
                &mut edge_set,
                &mut pred_count,
                &mut succ_count,
                entry,
                exit,
            );
        }
        // Sinks: inner tasks (and the entry, if isolated) with no successors.
        let all_inner: Vec<TaskId> = levels.iter().flatten().copied().collect();
        for &u in &all_inner {
            if succ_count[u.idx()] == 0 {
                link(
                    &mut b,
                    &mut edge_set,
                    &mut pred_count,
                    &mut succ_count,
                    u,
                    exit,
                );
            }
        }

        b.build().expect("generated graph is a DAG by construction")
    }

    /// `generate_with` builds the reference generator's DAG, field for
    /// field and byte for byte, and leaves the caller's RNG in the same
    /// state: over every Table 1 sweep, the degenerate and larger sizes and
    /// the extreme shapes, `RESCHED_DIFF_ITERS` seeds each (default 8).
    #[test]
    fn generate_matches_the_reference_generator() {
        let seeds: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        let d = DagParams::paper_default();
        let mut shapes: Vec<DagParams> = DagParams::paper_sweeps()
            .into_iter()
            .map(|s| s.params)
            .collect();
        for num_tasks in [1, 2, 3, 100] {
            shapes.push(DagParams { num_tasks, ..d });
        }
        for num_tasks in [3, 10, 50] {
            shapes.extend(
                [
                    DagParams { density: 0.0, ..d },
                    DagParams { density: 1.0, ..d },
                    DagParams {
                        density: 1.0,
                        jump: 4,
                        ..d
                    },
                    DagParams {
                        density: 0.0,
                        jump: 4,
                        ..d
                    },
                    DagParams {
                        regularity: 1.0,
                        ..d
                    },
                    DagParams {
                        regularity: 0.0,
                        jump: 4,
                        ..d
                    },
                    DagParams {
                        width: 0.0,
                        jump: 4,
                        ..d
                    },
                    DagParams { width: 1.0, ..d },
                    DagParams {
                        width: 1.0,
                        density: 1.0,
                        jump: 4,
                        ..d
                    },
                    DagParams {
                        alpha_max: 0.0,
                        ..d
                    },
                ]
                .map(|p| DagParams { num_tasks, ..p }),
            );
        }
        for p in &shapes {
            for seed in 0..seeds {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let mut reference_rng = rng.clone();
                let dag = generate_with(p, &mut rng);
                let reference = reference_generate(p, &mut reference_rng);
                assert_eq!(dag, reference, "{p:?} seed {seed}");
                assert_eq!(
                    serde_json::to_string(&dag).unwrap(),
                    serde_json::to_string(&reference).unwrap(),
                    "{p:?} seed {seed}"
                );
                assert_eq!(
                    rng.gen::<u64>(),
                    reference_rng.gen::<u64>(),
                    "{p:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn generates_requested_task_count() {
        for n in [1usize, 2, 3, 10, 50, 100] {
            let dag = generate(
                &DagParams {
                    num_tasks: n,
                    ..DagParams::paper_default()
                },
                42,
            );
            assert_eq!(dag.num_tasks(), n, "n={n}");
        }
    }

    #[test]
    fn single_entry_and_exit() {
        for seed in 0..20 {
            let dag = generate(&DagParams::paper_default(), seed);
            assert_eq!(dag.entries().len(), 1, "seed {seed}");
            assert_eq!(dag.exits().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let p = DagParams::paper_default();
        assert_eq!(generate(&p, 7), generate(&p, 7));
        assert_ne!(generate(&p, 7), generate(&p, 8));
    }

    #[test]
    fn width_controls_realized_width() {
        let narrow = DagParams {
            width: 0.1,
            ..DagParams::paper_default()
        };
        let wide = DagParams {
            width: 0.9,
            ..DagParams::paper_default()
        };
        let avg = |p: &DagParams| -> f64 {
            (0..10)
                .map(|s| generate(p, s).max_width() as f64)
                .sum::<f64>()
                / 10.0
        };
        let (wn, ww) = (avg(&narrow), avg(&wide));
        assert!(
            wn * 2.0 < ww,
            "width=0.1 avg max width {wn} should be far below width=0.9's {ww}"
        );
        assert!(wn < 4.0, "width=0.1 should be near-chain, got {wn}");
    }

    #[test]
    fn density_controls_edge_count() {
        let sparse = DagParams {
            density: 0.1,
            ..DagParams::paper_default()
        };
        let dense = DagParams {
            density: 0.9,
            ..DagParams::paper_default()
        };
        let avg = |p: &DagParams| -> f64 {
            (0..10)
                .map(|s| generate(p, s).num_edges() as f64)
                .sum::<f64>()
                / 10.0
        };
        assert!(avg(&sparse) < avg(&dense));
    }

    #[test]
    fn jump_one_is_layered() {
        // With jump = 1 every edge spans exactly one depth level... except
        // the exit edges, which may drain sinks from any level. Check inner
        // edges only.
        let dag = generate(
            &DagParams {
                jump: 1,
                ..DagParams::paper_default()
            },
            3,
        );
        let exit = dag.exits()[0];
        for t in dag.task_ids() {
            for &s in dag.succs(t) {
                if s != exit {
                    assert_eq!(
                        dag.depth(s),
                        dag.depth(t) + 1,
                        "edge {t}->{s} spans more than one level"
                    );
                }
            }
        }
    }

    #[test]
    fn jump_four_produces_longer_spans() {
        let p = DagParams {
            jump: 4,
            density: 0.9,
            ..DagParams::paper_default()
        };
        let mut max_span = 0;
        for seed in 0..10 {
            let dag = generate(&p, seed);
            let exit = dag.exits()[0];
            for t in dag.task_ids() {
                for &s in dag.succs(t) {
                    if s != exit {
                        max_span = max_span.max(dag.depth(s) - dag.depth(t));
                    }
                }
            }
        }
        assert!(max_span >= 2, "jump=4 should produce some jump edges");
    }

    #[test]
    fn regularity_one_gives_uniform_levels() {
        let p = DagParams {
            regularity: 1.0,
            width: 0.5,
            num_tasks: 52,
            ..DagParams::paper_default()
        };
        let dag = generate(&p, 11);
        // All inner levels (excluding entry level and possibly a short last
        // level) have the same size.
        let mut widths = vec![0u32; dag.num_levels() as usize];
        for t in dag.task_ids() {
            widths[dag.depth(t) as usize] += 1;
        }
        let inner = &widths[1..widths.len().saturating_sub(2)];
        if inner.len() > 1 {
            assert!(
                inner.windows(2).all(|w| w[0] == w[1]),
                "levels not uniform: {widths:?}"
            );
        }
    }

    #[test]
    fn costs_within_table1_ranges() {
        let p = DagParams {
            alpha_max: 0.15,
            ..DagParams::paper_default()
        };
        let dag = generate(&p, 9);
        for c in dag.costs() {
            assert!(c.seq >= Dur::minutes(1) && c.seq <= Dur::hours(10));
            assert!((0.0..=0.15).contains(&c.alpha));
        }
    }

    #[test]
    fn alpha_zero_edge_case() {
        let p = DagParams {
            alpha_max: 0.0,
            ..DagParams::paper_default()
        };
        let dag = generate(&p, 5);
        assert!(dag.costs().iter().all(|c| c.alpha == 0.0));
    }
}
