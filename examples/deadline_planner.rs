//! Deadline planning on a cluster with competing reservations: find the
//! tightest deadline each RESSCHEDDL algorithm can promise, then show what
//! each algorithm spends when the deadline is loose.
//!
//! Run with: `cargo run --release -p resched-sim --example deadline_planner`

use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_sim::scenario::{derive_seed, DEFAULT_ROOT_SEED};
use resched_workloads::prelude::*;

fn main() {
    // A mid-size cluster whose users reserve nodes ahead of time.
    let spec = LogSpec::sdsc_ds().with_duration(Dur::days(30));
    let log = generate_log(&spec, DEFAULT_ROOT_SEED);
    let t = sample_start_times(&log, 1, derive_seed(DEFAULT_ROOT_SEED, "plan", 0))[0];
    let rs = extract(
        &log,
        t,
        &ExtractSpec::new(0.3, ThinMethod::Expo),
        derive_seed(DEFAULT_ROOT_SEED, "plan", 1),
    );
    let cal = rs.calendar();
    println!(
        "platform: {} processors, {} competing reservations, historical availability q = {}",
        cal.capacity(),
        cal.num_reservations(),
        rs.q
    );

    // The application: a 50-task mixed-parallel workflow.
    let dag = generate(&DagParams::paper_default(), 7);
    println!(
        "application: {} tasks, {} edges, total sequential work {:.1} h\n",
        dag.num_tasks(),
        dag.num_edges(),
        dag.total_seq_work() as f64 / 3600.0
    );

    // One prepared instance answers every search and every loose pass.
    let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, rs.q, DeadlineConfig::default());
    println!(
        "{:<16} {:>14} {:>16} {:>18}",
        "algorithm", "tightest K", "CPU-h at K", "CPU-h at 2x K"
    );
    for algo in DeadlineAlgo::ALL {
        let Some((k, out)) = roster.tightest(algo, Dur::seconds(60)) else {
            println!("{:<16} {:>14}", algo.name(), "unachievable");
            continue;
        };
        let loose = Time::seconds((k - Time::ZERO).as_seconds() * 2);
        let loose_cpu = roster
            .schedule(loose, algo)
            .map(|o| o.schedule.cpu_hours())
            .unwrap_or(f64::NAN);
        println!(
            "{:<16} {:>14} {:>16.1} {:>18.1}",
            algo.name(),
            (k - Time::ZERO).to_string(),
            out.schedule.cpu_hours(),
            loose_cpu
        );
    }
    println!("\nreading: aggressive (DL_BD_*) algorithms promise tight deadlines but burn");
    println!("CPU-hours when the deadline is loose; resource-conservative (DL_RC_*) ones");
    println!("track the CPA schedule and stay cheap; the lambda-hybrids give both.");
}
