//! Extension — how much reliability does pessimism buy? Reservations are
//! sized from estimates inflated by factor `f`; actual runtimes are noisy
//! (lognormal around the true cost). The execution simulator then reports
//! completion rates, makespans, and CPU-hours paid under batch
//! kill/requeue semantics — quantifying the trade the paper's §3.1 leaves
//! open.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::exec::{execute, OverrunPolicy};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::Time;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(10).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();
    let noise_sigma = 0.25; // lognormal sigma of actual/estimated ratio

    let mut t = Table::new(
        &format!(
            "Extension - estimate pessimism vs execution reliability (noise sigma = {noise_sigma})"
        ),
        &[
            "Estimate factor",
            "Completion rate (Kill) [%]",
            "Avg makespan (Requeue) [h]",
            "Avg CPU-h paid (Requeue)",
            "Avg overruns/app",
        ],
    );

    for &f in &[1.0f64, 1.1, 1.25, 1.5, 2.0] {
        let mut completions = 0usize;
        let mut runs = 0usize;
        let mut makespan_h = 0.0;
        let mut cpu = 0.0;
        let mut overruns = 0.0;
        for sweep in &sweeps {
            for (k, inst) in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED)
                .into_iter()
                .enumerate()
            {
                let est = inst.dag.scale_costs(f);
                let cal = inst.resv.calendar();
                let sched = schedule_forward(
                    &est,
                    &cal,
                    Time::ZERO,
                    inst.resv.q,
                    ForwardConfig::recommended(),
                );
                // The schedule's placements were validated against the
                // *estimated* DAG; execution replays against the true one.
                let mut rng = ChaCha12Rng::seed_from_u64(k as u64 * 31 + 5);
                let factors: Vec<f64> = inst
                    .dag
                    .task_ids()
                    .map(|_t| {
                        // Actual duration relative to the *reserved* (inflated)
                        // estimate: true/f x lognormal noise.
                        let z: f64 = {
                            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                            let u2: f64 = rng.gen_range(0.0..1.0);
                            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                        };
                        (noise_sigma * z - noise_sigma * noise_sigma / 2.0).exp() / f
                    })
                    .collect();
                let kill = execute(&est, &sched, &cal, &factors, OverrunPolicy::Kill);
                let requeue = execute(&est, &sched, &cal, &factors, OverrunPolicy::Requeue);
                runs += 1;
                if kill.completed {
                    completions += 1;
                }
                if let Some(ta) = requeue.turnaround(Time::ZERO) {
                    makespan_h += ta.as_hours();
                }
                cpu += requeue.cpu_hours_paid;
                overruns += requeue.overruns.len() as f64;
            }
        }
        let n = runs.max(1) as f64;
        t.row(vec![
            fnum(f, 2),
            fnum(completions as f64 / n * 100.0, 1),
            fnum(makespan_h / n, 2),
            fnum(cpu / n, 1),
            fnum(overruns / n, 2),
        ]);
    }
    println!("{}", t.render());
    println!("reading: at f = 1 roughly half the tasks overrun (noise is symmetric in");
    println!("log space), killing most applications; modest pessimism buys reliability");
    println!("at the price of longer reservations and more CPU-hours held.");
}
