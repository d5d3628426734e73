//! Ablation — tie-breaking among equal-completion-time slots: fewest vs.
//! most processors. Fewest (the default) should save CPU-hours at no
//! turn-around cost.

use resched_core::forward::{schedule_forward, ForwardConfig, TieBreak};
use resched_core::prelude::Time;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let mut t = Table::new(
        "Ablation - slot tie-breaking (BL_CPAR_BD_CPAR)",
        &["Tie-break", "Avg turn-around [h]", "Avg CPU-hours"],
    );
    for (name, tie) in [
        ("fewest procs", TieBreak::FewestProcs),
        ("most procs", TieBreak::MostProcs),
    ] {
        let mut ta = 0.0;
        let mut cpu = 0.0;
        let mut count = 0usize;
        for sweep in &sweeps {
            for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
                let cal = inst.resv.calendar();
                let cfg = ForwardConfig {
                    tie,
                    ..ForwardConfig::recommended()
                };
                let s = schedule_forward(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
                ta += s.turnaround().as_hours();
                cpu += s.cpu_hours();
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        t.row(vec![name.into(), fnum(ta / n, 2), fnum(cpu / n, 1)]);
    }
    println!("{}", t.render());
}
