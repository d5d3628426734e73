//! Extension — U-shaped cost model: per-processor coordination overhead
//! makes over-allocation actively harmful (execution time grows again past
//! the optimum), sharpening the contrast between BD_ALL and the CPA-bounded
//! algorithms relative to the paper's pure-Amdahl model.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::algos::Algorithm;
use resched_core::bl::BlMethod;
use resched_core::dag::DagBuilder;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::*;
use resched_sim::scenario::DEFAULT_ROOT_SEED;
use resched_sim::table::{fnum, Table};

/// A paper-like DAG whose tasks carry a coordination overhead.
fn overhead_dag(seed: u64, overhead: Dur) -> resched_core::dag::Dag {
    // Reuse daggen's structure but swap the costs for overhead-bearing
    // ones (daggen generates pure-Amdahl costs).
    let base = resched_daggen::generate(&resched_daggen::DagParams::paper_default(), seed);
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xabcd);
    let mut b = DagBuilder::new();
    for c in base.costs() {
        let jitter = rng.gen_range(0.5..1.5);
        b.add_task(TaskCost::with_overhead(
            c.seq,
            c.alpha,
            Dur::seconds((overhead.as_seconds() as f64 * jitter) as i64),
        ));
    }
    for t in base.task_ids() {
        for &s in base.succs(t) {
            b.add_edge(t, s);
        }
    }
    b.build().expect("same structure is still a DAG")
}

fn main() {
    let p = 256u32;
    let mut t = Table::new(
        "Extension - per-processor overhead model (p = 256, empty calendar)",
        &[
            "Overhead [s/proc]",
            "BD_ALL TAT [h]",
            "BD_CPAR TAT [h]",
            "BD_ALL CPU-h",
            "BD_CPAR CPU-h",
        ],
    );
    for &ov in &[0i64, 5, 20, 60] {
        let mut ta = [0.0f64; 2];
        let mut cpu = [0.0f64; 2];
        let runs = 6u64;
        for seed in 0..runs {
            let dag = overhead_dag(DEFAULT_ROOT_SEED ^ seed, Dur::seconds(ov));
            let cal = Calendar::new(p);
            for (i, bd) in [BdMethod::All, BdMethod::CpaR].into_iter().enumerate() {
                let cfg = ForwardConfig::new(BlMethod::CpaR, bd);
                let s = schedule_forward(&dag, &cal, Time::ZERO, p, cfg);
                Algorithm::Forward(cfg)
                    .validator(&dag, &cal, Time::ZERO, None)
                    .check(&s)
                    .expect("valid");
                ta[i] += s.turnaround().as_hours() / runs as f64;
                cpu[i] += s.cpu_hours() / runs as f64;
            }
        }
        t.row(vec![
            ov.to_string(),
            fnum(ta[0], 2),
            fnum(ta[1], 2),
            fnum(cpu[0], 1),
            fnum(cpu[1], 1),
        ]);
    }
    println!("{}", t.render());
    println!("reading: with rising overhead the earliest-completion search self-limits");
    println!("allocations, so even BD_ALL converges toward the bounded algorithms.");
}
