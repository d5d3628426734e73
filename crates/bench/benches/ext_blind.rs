//! Extension — trial-and-error scheduling without reservation-schedule
//! visibility (paper §3.2.2: administrators may hide the schedule; the
//! user then probes with a bounded number of reservation requests per
//! task). How much does the lost visibility cost?

use resched_core::blind::{schedule_blind, BlindConfig, ReservationDesk};
use resched_core::forward::{schedule_forward, ForwardConfig};
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
        "Extension - blind (trial-and-error) scheduling vs full visibility",
        &[
            "Probes/task",
            "Avg turn-around [h]",
            "TAT deg vs full [%]",
            "Avg CPU-hours",
            "Avg probes used",
        ],
    );

    // Full-visibility reference.
    let mut full_ta = 0.0;
    let mut count = 0usize;
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &budget in &[1usize, 2, 4, 8, 16] {
        let mut ta = 0.0;
        let mut cpu = 0.0;
        let mut probes = 0.0;
        let mut n = 0usize;
        for sweep in &sweeps {
            for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
                let cal = inst.resv.calendar();
                if budget == 1 {
                    // accumulate the reference once
                    let f = schedule_forward(
                        &inst.dag,
                        &cal,
                        Time::ZERO,
                        inst.resv.q,
                        ForwardConfig::recommended(),
                    );
                    full_ta += f.turnaround().as_hours();
                    count += 1;
                }
                let mut desk = ReservationDesk::new(cal.clone());
                let cfg = BlindConfig {
                    probes_per_task: budget,
                    ..BlindConfig::default()
                };
                let s = schedule_blind(&inst.dag, &mut desk, Time::ZERO, inst.resv.q, cfg);
                ta += s.turnaround().as_hours();
                cpu += s.cpu_hours();
                probes += desk.probes() as f64 / inst.dag.num_tasks() as f64;
                n += 1;
            }
        }
        let nf = n.max(1) as f64;
        rows.push((budget, ta / nf, cpu / nf, probes / nf));
    }
    let full = full_ta / count.max(1) as f64;
    for (budget, ta, cpu, probes) in rows {
        t.row(vec![
            budget.to_string(),
            fnum(ta, 2),
            fnum((ta - full) / full * 100.0, 2),
            fnum(cpu, 1),
            fnum(probes, 1),
        ]);
    }
    println!("{}", t.render());
    println!("full-visibility BL_CPAR_BD_CPAR reference: {:.2} h", full);
}
