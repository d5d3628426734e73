//! Extension — impact of pessimistic runtime estimates (paper §3.1 leaves
//! this out of scope and conjectures all algorithms degrade similarly).
//!
//! Scheduling uses costs inflated by an estimate factor f >= 1 (reservations
//! are sized to the estimate, as batch users do); the turn-around time is
//! measured on the resulting reservations. We report the degradation of
//! each bounding method as f grows — confirming (or refuting) the paper's
//! conjecture that the algorithm ranking is insensitive to f.

use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::Time;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(10).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let factors = [1.0, 1.25, 1.5, 2.0, 3.0];
    let bds = [BdMethod::All, BdMethod::Cpa, BdMethod::CpaR];

    let mut header: Vec<String> = vec!["Algorithm".into()];
    header.extend(factors.iter().map(|f| format!("TAT[h] f={f}")));
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Extension - pessimistic runtime estimates (turn-around vs estimate factor)",
        &refs,
    );

    for bd in bds {
        let mut row = vec![bd.name().to_string()];
        for &f in &factors {
            let mut ta = 0.0;
            let mut count = 0usize;
            for sweep in &sweeps {
                for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
                    let est = inst.dag.scale_costs(f);
                    let cal = inst.resv.calendar();
                    let s = schedule_forward(
                        &est,
                        &cal,
                        Time::ZERO,
                        inst.resv.q,
                        ForwardConfig::new(BlMethod::CpaR, bd),
                    );
                    // Reservations are sized to the estimate; the
                    // application occupies them until their end (files are
                    // staged at reservation boundaries), so turn-around is
                    // measured on the estimated schedule.
                    ta += s.turnaround().as_hours();
                    count += 1;
                }
            }
            row.push(fnum(ta / count.max(1) as f64, 2));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("reading: pessimism delays every algorithm; the ranking among bounding");
    println!("methods should be preserved (the paper's Sec 3.1 conjecture).");
}
