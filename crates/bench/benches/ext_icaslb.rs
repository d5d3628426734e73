//! Extension — the paper's future-work direction (§7): adapt the one-step
//! iCASLB algorithm directly to advance reservations and compare it with
//! the best two-step algorithm, BL_CPAR_BD_CPAR.

use resched_core::algos::Algorithm;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::icaslb::schedule_icaslb;
use resched_core::prelude::Time;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};
use std::time::Instant;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let mut rows: Vec<(f64, f64, f64, f64, f64, f64)> = Vec::new();
    for sweep in &sweeps {
        for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
            let cal = inst.resv.calendar();
            let t0 = Instant::now();
            let fw = schedule_forward(
                &inst.dag,
                &cal,
                Time::ZERO,
                inst.resv.q,
                ForwardConfig::recommended(),
            );
            let fw_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let ic = schedule_icaslb(&inst.dag, &cal, Time::ZERO, inst.resv.q);
            let ic_ms = t0.elapsed().as_secs_f64() * 1e3;
            Algorithm::Icaslb
                .validator(&inst.dag, &cal, Time::ZERO, None)
                .check(&ic)
                .expect("valid iCASLB schedule");
            rows.push((
                fw.turnaround().as_hours(),
                ic.turnaround().as_hours(),
                fw.cpu_hours(),
                ic.cpu_hours(),
                fw_ms,
                ic_ms,
            ));
        }
    }
    let n = rows.len().max(1) as f64;
    type Row = (f64, f64, f64, f64, f64, f64);
    let sum = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let ic_wins = rows.iter().filter(|r| r.1 < r.0).count();

    let mut t = Table::new(
        "Extension - reservation-aware iCASLB vs BL_CPAR_BD_CPAR",
        &["Metric", "BL_CPAR_BD_CPAR", "iCASLB-AR"],
    );
    t.row(vec![
        "Avg turn-around [h]".into(),
        fnum(sum(|r| r.0), 2),
        fnum(sum(|r| r.1), 2),
    ]);
    t.row(vec![
        "Avg CPU-hours".into(),
        fnum(sum(|r| r.2), 1),
        fnum(sum(|r| r.3), 1),
    ]);
    t.row(vec![
        "Avg runtime [ms]".into(),
        fnum(sum(|r| r.4), 2),
        fnum(sum(|r| r.5), 2),
    ]);
    t.row(vec![
        "iCASLB strictly-better TAT".into(),
        "-".into(),
        format!("{}/{}", ic_wins, rows.len()),
    ]);
    println!("{}", t.render());
}
