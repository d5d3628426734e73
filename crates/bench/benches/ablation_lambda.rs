//! Ablation — λ step size of the hybrid deadline algorithm (paper: 0.05).
//! Coarser steps trade CPU-hour savings for fewer retry passes.

use resched_core::backward::{DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::prelude::{Dur, Time};
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(10).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let mut t = Table::new(
        "Ablation - lambda step size (DL_RC_CPAR-lambda)",
        &[
            "Step",
            "Avg tightest K [h]",
            "Avg CPU-h at 1.5x K",
            "Avg passes",
        ],
    );
    for step in [0.05, 0.10, 0.25] {
        let cfg = DeadlineConfig {
            lambda_step: step,
            ..DeadlineConfig::default()
        };
        let mut kh = 0.0;
        let mut cpu = 0.0;
        let mut passes = 0.0;
        let mut count = 0usize;
        for sweep in &sweeps {
            for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
                let cal = inst.resv.calendar();
                let mut roster = Roster::prepare(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
                let Some((k, out)) = roster.tightest(DeadlineAlgo::RcCpaRLambda, Dur::seconds(60))
                else {
                    continue;
                };
                kh += (k - Time::ZERO).as_hours();
                passes += out.schedule.stats.passes as f64;
                let loose = Time::seconds(((k - Time::ZERO).as_seconds() as f64 * 1.5) as i64);
                if let Ok(o2) = roster.schedule(loose, DeadlineAlgo::RcCpaRLambda) {
                    cpu += o2.schedule.cpu_hours();
                }
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        t.row(vec![
            fnum(step, 2),
            fnum(kh / n, 2),
            fnum(cpu / n, 1),
            fnum(passes / n, 1),
        ]);
    }
    println!("{}", t.render());
}
