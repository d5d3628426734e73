//! Ablation — the past window used to estimate `q`, the historical average
//! availability (paper: coarse 7-day approximation). Shorter windows track
//! recent load; longer windows smooth it.

use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::{Dur, Time};
use resched_sim::scenario::{derive_seed, LogCache, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};
use resched_workloads::prelude::*;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let spec = LogSpec::sdsc_blue();
    let mut cache = LogCache::new();
    let log = cache.get(&spec, DEFAULT_ROOT_SEED).clone();
    let starts = sample_start_times(
        &log,
        scale.starts.max(3),
        derive_seed(DEFAULT_ROOT_SEED, "qw", 0),
    );

    let mut t = Table::new(
        "Ablation - q estimation window (BL_CPAR_BD_CPAR, SDSC_BLUE-like, phi=0.5)",
        &[
            "Window [days]",
            "Avg q",
            "Avg turn-around [h]",
            "Avg CPU-hours",
        ],
    );
    for days in [1i64, 7, 14] {
        let mut qsum = 0.0;
        let mut ta = 0.0;
        let mut cpu = 0.0;
        let mut count = 0usize;
        for (i, &st) in starts.iter().enumerate() {
            let ex = ExtractSpec {
                phi: 0.5,
                method: ThinMethod::Expo,
                horizon: Dur::days(days),
            };
            let rs = extract(
                &log,
                st,
                &ex,
                derive_seed(DEFAULT_ROOT_SEED, "qx", i as u64),
            );
            let cal = rs.calendar();
            for d in 0..scale.dags {
                let dag = resched_daggen::generate(
                    &resched_daggen::DagParams::paper_default(),
                    derive_seed(DEFAULT_ROOT_SEED, "qd", d as u64),
                );
                let s =
                    schedule_forward(&dag, &cal, Time::ZERO, rs.q, ForwardConfig::recommended());
                qsum += rs.q as f64;
                ta += s.turnaround().as_hours();
                cpu += s.cpu_hours();
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        t.row(vec![
            days.to_string(),
            fnum(qsum / n, 0),
            fnum(ta / n, 2),
            fnum(cpu / n, 1),
        ]);
    }
    println!("{}", t.render());
}
