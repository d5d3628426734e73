//! Differential oracle for the incremental allocation loops.
//!
//! `cpa::allocate` and `mcpa::allocate` keep their loop state in
//! topological-position space and find critical tasks by one tight-edge
//! walk; `*_reference` keep the legacy full-rebuild loops. Both must be
//! *byte-identical* — same allocs, same exec, same pool — across a seeded
//! sweep of generated DAG shapes, pools, and stopping criteria. The
//! per-call [`CpaCache`] memo is held to the same standard over the same
//! sweep: a lookup is the direct allocation, field for field, whether it
//! was a miss or a hit. The walk and the level propagation themselves are
//! pinned to the full-rebuild level functions by `bl`'s unit tests.

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

/// Seeded draws per shape of the Table-1 sweep; the CI fuzz lane raises it.
fn draws() -> u64 {
    std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Loop iterations behind an allocation: every task starts at one
/// processor and each iteration grants one more.
fn iterations(alloc: &cpa::CpaAllocation) -> u64 {
    alloc.allocs.iter().map(|&m| u64::from(m - 1)).sum()
}

#[test]
fn cpa_matches_reference_on_the_table1_shapes() {
    // The paper's 40 application specifications (n up to 100) at the
    // pools the workloads ask for: degenerate, the 57-processor machine,
    // serve's q, Table 9's p. Each DAG also goes through one cache in
    // ascending pool order, the order every scheduler asks in, so the
    // larger pools are continuations wherever no pick was withheld.
    let pools = [1u32, 2, 7, 57, 430, 1152];
    let mut resumed = 0u32;
    for (i, sweep) in DagParams::paper_sweeps().iter().enumerate() {
        for draw in 0..draws() {
            let dag = generate(&sweep.params, 0xA110C ^ (1000 * i as u64 + draw));
            for criterion in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
                let mut cache = CpaCache::new();
                // Iterations of every pool's whole trajectory, and of the
                // prefixes a continuation is certain to skip: a run in
                // which no task reached the pool withheld nothing.
                let (mut walked, mut skippable) = (0u64, 0u64);
                let mut before: Option<cpa::CpaAllocation> = None;
                let ((), report) = obs::observe("table1-sweep", || {
                    for pool in pools {
                        let at = format!(
                            "{}={}, draw {draw}, pool {pool}, {criterion:?}",
                            sweep.varied, sweep.value
                        );
                        let reference = cpa::allocate_reference(&dag, pool, criterion);
                        assert_eq!(cpa::allocate(&dag, pool, criterion), reference, "{at}");
                        assert_eq!(*cache.cpa(&dag, pool, criterion), reference, "cache: {at}");
                        walked += iterations(&reference);
                        if let Some(b) = before.take() {
                            if b.allocs.iter().all(|&m| m < b.pool) {
                                skippable += iterations(&b);
                            }
                        }
                        before = Some(reference);
                    }
                });
                // `allocate` walks each trajectory whole; the cache walks
                // at most that, less the skipped prefixes.
                let ran = report.metrics.counter(obs::names::CPA_ALLOC_ITERS);
                assert!(
                    ran <= 2 * walked - skippable,
                    "{ran} > 2 x {walked} - {skippable}"
                );
                resumed += u32::from(skippable > 0);
            }
        }
    }
    assert!(resumed > 0, "no pool was ever a continuation");
}

#[test]
fn cpa_matches_reference_when_tasks_retire_early() {
    // U-shaped execution times (a per-processor overhead) retire a task
    // from selection as soon as one more processor stops helping, long
    // before the pool runs out; alpha = 1 retires it at one processor.
    let u = |s: i64, a: f64, o: i64| TaskCost::with_overhead(Dur::seconds(s), a, Dur::seconds(o));
    let mut b = DagBuilder::new();
    let ids: Vec<TaskId> = [
        u(9_000, 0.0, 40),
        u(20_000, 0.1, 15),
        u(500, 1.0, 0),
        u(12_000, 0.0, 0),
        u(7_000, 1.0, 5),
        u(15_000, 0.05, 90),
    ]
    .into_iter()
    .map(|c| b.add_task(c))
    .collect();
    for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)] {
        b.add_edge(ids[from], ids[to]);
    }
    let shapes = [
        ("overhead dag", b.build().unwrap()),
        ("overhead chain", chain(&[u(10_000, 0.0, 25); 4])),
        ("sequential chain", chain(&[u(10_000, 1.0, 0); 3])),
        (
            "sequential fork-join",
            fork_join(u(100, 1.0, 0), &[u(5_000, 1.0, 0); 6], u(100, 1.0, 0)),
        ),
        (
            "mixed fork-join",
            fork_join(
                u(600, 1.0, 0),
                &[u(8_000, 0.0, 30), u(8_000, 1.0, 0), u(3_000, 0.2, 0)],
                u(600, 0.0, 10),
            ),
        ),
    ];
    for (name, dag) in &shapes {
        for criterion in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
            let mut cache = CpaCache::new();
            for pool in [1u32, 2, 3, 16, 64, 1024] {
                let reference = cpa::allocate_reference(dag, pool, criterion);
                let at = format!("{name}, pool {pool}, {criterion:?}");
                assert_eq!(cpa::allocate(dag, pool, criterion), reference, "{at}");
                assert_eq!(*cache.cpa(dag, pool, criterion), reference, "cache: {at}");
            }
        }
    }
}

/// A chain whose first task takes the whole pool of 2 on the first step of
/// a run that then grows the second (a tenth the gain) and stops there.
fn capped_inside_a_run() -> Dag {
    let c = |s: i64, a: f64| TaskCost::new(Dur::seconds(s), a);
    chain(&[c(10_000, 0.0), c(10_000, 0.8)])
}

/// `cpa::allocate` under observation: the allocation, its loop iterations
/// and how many of them were steps of a run.
fn observed(dag: &Dag, pool: u32, criterion: StoppingCriterion) -> (cpa::CpaAllocation, u64, u64) {
    let (alloc, report) = obs::observe("allocate", || cpa::allocate(dag, pool, criterion));
    let count = |name| report.metrics.counter(name);
    (
        alloc,
        count(obs::names::CPA_ALLOC_ITERS),
        count(obs::names::CPA_ALLOC_RUN_STEPS),
    )
}

#[test]
fn cpa_matches_reference_where_runs_are_long() {
    // Chains are one critical path from the first iteration to the last,
    // and `width = 0.1` DAGs nearly so: most iterations are run steps. A
    // run step is an iteration like any other, so the loop still takes
    // exactly as many as the reference.
    let mut shapes: Vec<(String, Dag)> = Vec::new();
    let mut state = 0x5EED_C4A1u64;
    let mut draw = |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % below
    };
    for len in [1usize, 2, 3, 5, 8] {
        for variant in 0..draws().max(2) {
            let costs: Vec<TaskCost> = (0..len)
                .map(|_| {
                    let seq = Dur::seconds(60 + draw(40_000) as i64);
                    let alpha = draw(5) as f64 * 0.05;
                    match draw(3) {
                        // U-shaped: retires from selection mid-run.
                        0 => TaskCost::with_overhead(seq, alpha, Dur::seconds(1 + draw(30) as i64)),
                        _ => TaskCost::new(seq, alpha),
                    }
                })
                .collect();
            shapes.push((format!("chain of {len}, variant {variant}"), chain(&costs)));
        }
    }
    for num_tasks in [10usize, 25, 50] {
        for seed in 0..draws().max(2) {
            let params = DagParams {
                num_tasks,
                width: 0.1,
                ..DagParams::paper_default()
            };
            let name = format!("width 0.1, n = {num_tasks}, seed {seed}");
            shapes.push((
                name,
                generate(&params, 0x0A44 ^ (100 * num_tasks as u64 + seed)),
            ));
        }
    }
    let (mut all_iterations, mut all_run_steps) = (0u64, 0u64);
    for (name, dag) in &shapes {
        for criterion in [StoppingCriterion::Classic, StoppingCriterion::Stringent] {
            let mut cache = CpaCache::new();
            for pool in [1u32, 2, 7, 57, 430, 1152] {
                let at = format!("{name}, pool {pool}, {criterion:?}");
                let reference = cpa::allocate_reference(dag, pool, criterion);
                let (fresh, ran, run_steps) = observed(dag, pool, criterion);
                assert_eq!(fresh, reference, "{at}");
                assert_eq!(*cache.cpa(dag, pool, criterion), reference, "cache: {at}");
                assert_eq!(ran, iterations(&reference), "iterations: {at}");
                assert!(run_steps <= ran, "{at}");
                all_iterations += ran;
                all_run_steps += run_steps;
            }
        }
    }
    assert!(
        2 * all_run_steps > all_iterations,
        "only {all_run_steps} of {all_iterations} iterations were run steps"
    );
}

#[test]
fn cpa_matches_reference_however_a_run_ends() {
    let classic = StoppingCriterion::Classic;
    let c = |s: i64, a: f64| TaskCost::new(Dur::seconds(s), a);
    // Two independent tasks: `t(m) = ⌈1200 / m⌉` (1200, 600, 400, 300,
    // 240, 200, …) beside a rigid one. The long task is the critical path
    // and the rigid one the only other path, `slack = t(m) − rigid` below
    // it: the run takes the steps of 600, 200, 100 and 60 seconds, and the
    // next pick (40, to 200) is applied as an ordinary step.
    let beside = |rigid: i64| {
        let mut b = DagBuilder::new();
        b.add_task(c(1200, 0.0));
        b.add_task(c(rigid, 1.0));
        b.build().unwrap()
    };
    // (shape, dag, pool, steps taken inside runs)
    let cases: Vec<(&str, Dag, u32, u64)> = vec![
        // 40 == slack: the pick would tie the two paths.
        ("pick == slack", beside(200), 1024, 4),
        // 40 == slack + 1: the pick would hand the critical path over; the
        // rigid task then saturates it.
        ("pick == slack + 1", beside(201), 1024, 4),
        // slack + 1 < 60: the run is over a step earlier.
        ("pick > slack + 1", beside(250), 1024, 3),
        // One task, two processors: `T_CP = 600 <= T_A = 2 * 600 / 2` stops
        // the loop on the run's first step.
        ("stop test", chain(&[c(1200, 0.0)]), 2, 1),
        // `t(m) = 10000 / m + 25 (m − 1)` bottoms out at 20 processors: the
        // run ends with nothing left to pick.
        (
            "saturation",
            chain(&[TaskCost::with_overhead(
                Dur::seconds(10_000),
                0.0,
                Dur::seconds(25),
            )]),
            1024,
            19,
        ),
        // The first task holds the whole pool after one step, inside the
        // run, with the path still above `T_A`: the pick is withheld there.
        (
            "pool reached",
            chain(&[c(10_000, 0.0), c(10_000, 1.0)]),
            2,
            1,
        ),
        // The same, but the second task can still grow: the run goes on
        // past the withheld pick and the stop test ends it (`T_CP = T_A =
        // 14 000`), so no walk ever sees the capped task.
        ("pool reached, run goes on", capped_inside_a_run(), 2, 2),
    ];
    for (name, dag, pool, want_run_steps) in &cases {
        for criterion in [classic, StoppingCriterion::Stringent] {
            let reference = cpa::allocate_reference(dag, *pool, criterion);
            let (got, ran, run_steps) = observed(dag, *pool, criterion);
            assert_eq!(got, reference, "{name}, {criterion:?}");
            assert_eq!(ran, iterations(&reference), "{name}, {criterion:?}");
            // Mean width 1 (a chain) or 2 (clamped to the pool of 2 at most):
            // both criteria walk the same trajectory here except where `T_A`
            // doubles.
            if criterion == classic {
                assert_eq!(run_steps, *want_run_steps, "{name}: run steps");
            }
        }
    }
}

#[test]
fn one_cache_in_any_pool_order_equals_the_reference() {
    let classic = StoppingCriterion::Classic;
    // A pool of 2 is smaller than the first task's unconstrained
    // allocation and the second task cannot shrink the path, so the loop
    // ends with its only useful pick withheld by the cap.
    let c = |s: i64, a: f64| TaskCost::new(Dur::seconds(s), a);
    let capped = chain(&[c(10_000, 0.0), c(10_000, 1.0)]);
    let generated = generate(
        &DagParams {
            num_tasks: 30,
            ..DagParams::paper_default()
        },
        77,
    );
    // (dag, pools in asking order, whether each miss after the first
    // continues the one before it). On `generated` no task reaches a pool
    // of 8, 16 or 24, and some task holds all of a pool of 64.
    // One task: every iteration is a run step, each pool's stop test cuts
    // the run short, and the next pool takes it up where it stopped.
    let lone = chain(&[c(1200, 0.0)]);
    // A pick withheld inside a run that the stop test then ends must still
    // send the next pool back to the start.
    let capped_in_run = capped_inside_a_run();
    let cases: [(&str, &Dag, &[u32], &[bool]); 9] = [
        ("capped inside a run", &capped_in_run, &[2, 8], &[false]),
        ("across a run", &lone, &[2, 8, 64], &[true, true]),
        ("q then p", &lone, &[7, 57], &[true]),
        ("ascending", &generated, &[8, 16, 16, 24], &[true, true]),
        ("descending", &generated, &[24, 16, 8], &[false, false]),
        ("down then up", &generated, &[16, 8, 24, 8], &[false, true]),
        ("capped", &generated, &[16, 64, 512], &[true, false]),
        ("capped chain", &capped, &[2, 8, 32], &[false, false]),
        ("repeated", &generated, &[64, 64, 64], &[]),
    ];
    for (name, dag, pools, continues) in cases {
        let mut cache = CpaCache::new();
        let (mut expected, mut misses, mut seen) = (0u64, 0usize, Vec::new());
        let ((), report) = obs::observe("cache-orders", || {
            for &pool in pools {
                let reference = cpa::allocate_reference(dag, pool, classic);
                assert_eq!(
                    *cache.cpa(dag, pool, classic),
                    reference,
                    "{name}, pool {pool}"
                );
                if seen.contains(&pool) {
                    continue; // a hit runs no loop
                }
                // A continuation runs only the iterations its predecessor
                // had not; a fresh start runs them all.
                expected += iterations(&reference);
                if misses > 0 && continues[misses - 1] {
                    let before = *seen.last().unwrap();
                    expected -= iterations(&cpa::allocate_reference(dag, before, classic));
                }
                misses += 1;
                seen.push(pool);
            }
        });
        assert_eq!(misses, continues.len() + 1, "{name}: case table");
        let ran = report.metrics.counter(obs::names::CPA_ALLOC_ITERS);
        assert_eq!(ran, expected, "{name}: resumed-vs-fresh decisions");
    }
    // The withheld case really is one: the capped run stopped short of
    // what the larger pool gives the same task.
    let (small, large) = (
        cpa::allocate(&capped, 2, classic),
        cpa::allocate(&capped, 8, classic),
    );
    assert_eq!(small.allocs, vec![2, 1]);
    assert!(large.allocs[0] > 2);
    // A different criterion never continues another's trajectory.
    let mut cache = CpaCache::new();
    for (pool, criterion) in [
        (16, classic),
        (64, StoppingCriterion::Stringent),
        (512, classic),
    ] {
        let reference = cpa::allocate_reference(&generated, pool, criterion);
        assert_eq!(*cache.cpa(&generated, pool, criterion), reference);
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
                }
                // Earlier keys survive every later insertion.
                assert_eq!(
                    *cache.cpa(&dag, pools[0], criteria[0]),
                    cpa::allocate(&dag, pools[0], criteria[0]),
                );
            });
            // Each distinct key computed once; every repeat is a hit.
            let keys = (pools.len() * criteria.len()) as u64;
            assert_eq!(report.metrics.counter(obs::names::CPA_CACHE_MISS), keys);
            assert_eq!(report.metrics.counter(obs::names::CPA_CACHE_HIT), keys + 1);
        }
    }
}
