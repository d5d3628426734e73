//! Differential oracle for the incremental allocation loops.
//!
//! `cpa::allocate` keeps its loop state in topological-position space and
//! `mcpa::allocate` maintains bottom/top levels with a `LevelTracker`;
//! `*_reference` keep the legacy full-rebuild loops. Both must be
//! *byte-identical* — same allocs, same exec, same pool — across a seeded
//! sweep of generated DAG shapes, pools, and stopping criteria. The
//! per-call [`CpaCache`] memo is held to the same standard over the same
//! sweep: a lookup is the direct allocation, field for field, whether it
//! was a miss or a hit. The `LevelTracker` itself is pinned to the
//! full-rebuild level functions under a seeded walk of updates.

use resched_core::bl::{bottom_levels, critical_path_length, top_levels, LevelTracker};
use resched_core::cpa::{self, CpaCache, StoppingCriterion};
use resched_core::dag::{chain, fork_join, Dag, DagBuilder, TaskId};
use resched_core::mcpa;
use resched_core::obs;
use resched_core::task::TaskCost;
use resched_daggen::{generate, DagParams};
use resched_resv::Dur;

fn shapes() -> Vec<DagParams> {
    let base = DagParams::paper_default();
    vec![
        DagParams {
            num_tasks: 12,
            width: 0.2,
            ..base
        },
        DagParams {
            num_tasks: 30,
            density: 0.9,
            ..base
        },
        DagParams {
            num_tasks: 30,
            width: 0.8,
            jump: 3,
            ..base
        },
        DagParams {
            num_tasks: 50,
            ..base
        },
    ]
}

#[test]
fn cpa_incremental_matches_reference_on_seeded_sweep() {
    for (i, params) in shapes().iter().enumerate() {
        for seed in 0..4u64 {
            let dag = generate(params, 1000 * i as u64 + seed);
            for pool in [1u32, 2, 7, 32, 512] {
                for criterion in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
                    assert_eq!(
                        cpa::allocate(&dag, pool, criterion),
                        cpa::allocate_reference(&dag, pool, criterion),
                        "divergence: shape {i}, seed {seed}, pool {pool}, {criterion:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn mcpa_incremental_matches_reference_on_seeded_sweep() {
    for (i, params) in shapes().iter().enumerate() {
        for seed in 0..4u64 {
            let dag = generate(params, 7000 * i as u64 + seed);
            for pool in [1u32, 4, 16, 128] {
                assert_eq!(
                    mcpa::allocate(&dag, pool),
                    mcpa::allocate_reference(&dag, pool),
                    "divergence: shape {i}, seed {seed}, pool {pool}"
                );
            }
        }
    }
}

#[test]
fn cache_lookups_equal_direct_allocations_on_seeded_sweep() {
    let pools = [1u32, 7, 32];
    let criteria = [StoppingCriterion::Classic, StoppingCriterion::Stringent];
    // The aliasing check below only bites where MCPA and CPA disagree.
    let mut mcpa_differs = false;
    for (i, params) in shapes().iter().enumerate() {
        for seed in 0..2u64 {
            let dag = generate(params, 3000 * i as u64 + seed);
            // One cache per DAG, as one scheduling call would hold it;
            // every key below is looked up twice through it.
            let mut cache = CpaCache::new();
            let ((), report) = obs::observe("cache-sweep", || {
                for pool in pools {
                    for criterion in criteria {
                        let at = format!("shape {i}, seed {seed}, pool {pool}, {criterion:?}");
                        let direct = cpa::allocate(&dag, pool, criterion);
                        assert_eq!(*cache.cpa(&dag, pool, criterion), direct, "miss: {at}");
                        assert_eq!(*cache.cpa(&dag, pool, criterion), direct, "hit: {at}");
                    }
                    // Same pool as the CPA keys just memoized: the MCPA key
                    // must compute its own allocation, not alias theirs.
                    let direct = mcpa::allocate(&dag, pool);
                    mcpa_differs |= direct != *cache.cpa(&dag, pool, criteria[0]);
                    assert_eq!(*cache.mcpa(&dag, pool), direct, "mcpa miss: pool {pool}");
                    assert_eq!(*cache.mcpa(&dag, pool), direct, "mcpa hit: pool {pool}");
                }
                // Earlier keys survive every later insertion.
                assert_eq!(
                    *cache.cpa(&dag, pools[0], criteria[0]),
                    cpa::allocate(&dag, pools[0], criteria[0]),
                );
            });
            if obs::COMPILED {
                // Each distinct key computed once; every repeat is a hit.
                let keys = (pools.len() * (criteria.len() + 1)) as u64;
                assert_eq!(report.metrics.counter(obs::names::CPA_CACHE_MISS), keys);
                let hits = keys + pools.len() as u64 + 1;
                assert_eq!(report.metrics.counter(obs::names::CPA_CACHE_HIT), hits);
            }
        }
    }
    assert!(mcpa_differs, "sweep never separates MCPA from CPA");
}

/// `layers` layers of `width` tasks, fully bipartite between adjacent
/// layers, plus a skip edge from each layer's first task two layers down.
fn lattice(layers: usize, width: usize) -> Dag {
    let mut b = DagBuilder::new();
    let ids: Vec<TaskId> = (0..layers * width)
        .map(|i| b.add_task(TaskCost::new(Dur::seconds(7 * i as i64 + 5), 0.0)))
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

#[test]
fn tracker_update_matches_full_rebuild_on_chains_forkjoins_and_lattices() {
    let c = |s: i64| TaskCost::new(Dur::seconds(s), 0.0);
    let shapes = [
        ("chain", chain(&[c(10), c(400), c(3), c(77), c(1), c(90)])),
        ("single task", chain(&[c(10)])),
        ("wide fork-join", fork_join(c(60), &[c(500); 40], c(60))),
        ("dense lattice", lattice(4, 8)),
        ("sparse lattice", lattice(6, 2)),
    ];
    for (name, dag) in &shapes {
        let mut exec: Vec<Dur> = dag.costs().iter().map(|c| c.exec_time(1)).collect();
        let mut tracker = LevelTracker::new(dag, &exec);
        let mut state = 0x9E37_79B9u64 ^ dag.num_tasks() as u64;
        for step in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = TaskId((state >> 33) as u32 % dag.num_tasks() as u32);
            // Rises, falls and no-ops (a repeated value) all occur.
            exec[t.idx()] = Dur::seconds(1 + (state >> 11) as i64 % 40);
            tracker.update(dag, &exec, t);
            let at = format!("{name}, step {step}");
            assert_eq!(tracker.bottom(), &bottom_levels(dag, &exec)[..], "bl: {at}");
            assert_eq!(tracker.top(), &top_levels(dag, &exec)[..], "tl: {at}");
            let cp = critical_path_length(tracker.bottom());
            assert_eq!(tracker.critical_path(), cp, "cp: {at}");
        }
    }
}
