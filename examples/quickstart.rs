//! Quickstart: schedule a small mixed-parallel workflow on a cluster with
//! competing advance reservations.
//!
//! Run with: `cargo run --release -p resched-sim --example quickstart`

use resched_core::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Describe the application: a diamond-shaped workflow of moldable
    //    tasks. Each task has a sequential execution time and an Amdahl
    //    sequential fraction.
    // ------------------------------------------------------------------
    let mut b = DagBuilder::new();
    let ingest = b.add_task(TaskCost::new(Dur::minutes(20), 0.05));
    let analyze_a = b.add_task(TaskCost::new(Dur::hours(3), 0.10));
    let analyze_b = b.add_task(TaskCost::new(Dur::hours(2), 0.15));
    let report = b.add_task(TaskCost::new(Dur::minutes(30), 0.30));
    b.add_edge(ingest, analyze_a);
    b.add_edge(ingest, analyze_b);
    b.add_edge(analyze_a, report);
    b.add_edge(analyze_b, report);
    let dag = b.build().expect("valid DAG");

    // ------------------------------------------------------------------
    // 2. Describe the platform: a 64-processor cluster where competing
    //    users already hold reservations.
    // ------------------------------------------------------------------
    let mut cal = Calendar::new(64);
    cal.try_add(Reservation::new(
        Time::seconds(0),
        Time::seconds(2 * 3600),
        48,
    ))
    .unwrap();
    cal.try_add(Reservation::new(
        Time::seconds(4 * 3600),
        Time::seconds(8 * 3600),
        32,
    ))
    .unwrap();

    // Historical average availability (normally estimated from the past
    // reservation schedule; see resched-workloads).
    let q = 40;

    // ------------------------------------------------------------------
    // 3. Schedule for minimum turn-around time with the paper's best
    //    algorithm, BL_CPAR_BD_CPAR.
    // ------------------------------------------------------------------
    let sched = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    ScheduleValidator::new(&dag, &cal, Time::ZERO)
        .check(&sched)
        .expect("schedule is valid");

    println!("RESSCHED schedule (turn-around {}):", sched.turnaround());
    for t in dag.task_ids() {
        let p = sched.placement(t);
        println!(
            "  task {t}: start {:>9} end {:>9} on {:>2} procs",
            p.start.to_string(),
            p.end.to_string(),
            p.procs
        );
    }
    println!("  CPU-hours: {:.2}\n", sched.cpu_hours());
    println!(
        "{}",
        resched_sim::gantt::render(
            &sched,
            &dag,
            &cal,
            resched_sim::gantt::GanttOptions::default()
        )
    );

    // ------------------------------------------------------------------
    // 4. Or meet a deadline as cheaply as possible with the hybrid
    //    resource-conservative algorithm DL_RCBD_CPAR-lambda.
    // ------------------------------------------------------------------
    let deadline = Time::seconds(24 * 3600);
    match schedule_deadline(
        &dag,
        &cal,
        Time::ZERO,
        q,
        deadline,
        DeadlineAlgo::RcbdCpaRLambda,
        DeadlineConfig::default(),
    ) {
        Ok(out) => {
            println!(
                "RESSCHEDDL schedule meeting deadline {} (lambda = {:?}):",
                deadline, out.lambda
            );
            println!(
                "  completion {} with {:.2} CPU-hours (vs {:.2} for RESSCHED)",
                out.schedule.completion(),
                out.schedule.cpu_hours(),
                sched.cpu_hours()
            );
        }
        Err(e) => println!("deadline cannot be met: {e}"),
    }
}
