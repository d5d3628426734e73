//! Ablation — classic vs. stringent CPA stopping criterion (DESIGN.md §3).
//!
//! The stringent criterion is our rendition of the improved criterion of
//! N'Takpé et al. (2007) that the paper adopts. This ablation quantifies
//! what it buys: smaller allocations, lower CPU-hours, and usually equal or
//! better turn-around on wide DAGs.

use resched_core::cpa::StoppingCriterion;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::Time;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let specs = [ResvSpec::grid5000()];
    let mut cache = LogCache::new();

    let mut t = Table::new(
        "Ablation - CPA stopping criterion (BL_CPAR_BD_CPAR)",
        &["Criterion", "Avg turn-around [h]", "Avg CPU-hours"],
    );
    for (name, criterion) in [
        ("classic", StoppingCriterion::Classic),
        ("stringent", StoppingCriterion::Stringent),
    ] {
        let mut ta = 0.0;
        let mut cpu = 0.0;
        let mut count = 0usize;
        for spec in &specs {
            let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();
            for sweep in &sweeps {
                for inst in instances_for(sweep, spec, &log, scale, DEFAULT_ROOT_SEED) {
                    let cal = inst.resv.calendar();
                    let cfg = ForwardConfig {
                        criterion,
                        ..ForwardConfig::recommended()
                    };
                    let s = schedule_forward(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
                    ta += s.turnaround().as_hours();
                    cpu += s.cpu_hours();
                    count += 1;
                }
            }
        }
        let n = count.max(1) as f64;
        t.row(vec![name.into(), fnum(ta / n, 2), fnum(cpu / n, 1)]);
    }
    println!("{}", t.render());
}
