//! An image-processing workflow — the kind of mixed-parallel application
//! the paper's introduction motivates (a DAG of image filters, each filter
//! itself data-parallel).
//!
//! A telescope survey produces 8 image tiles. Each tile passes through
//! denoise -> registration; registered tiles are mosaicked pairwise, then a
//! final photometric calibration runs over the mosaic. Denoise and
//! registration are highly parallel (per-pixel), mosaicking less so,
//! calibration mostly sequential.
//!
//! Run with: `cargo run --release -p resched-sim --example image_pipeline`

use resched_core::prelude::*;

fn main() {
    let tiles = 8;
    let mut b = DagBuilder::new();

    let ingest = b.add_task(TaskCost::new(Dur::minutes(10), 0.4));
    let mut registered = Vec::new();
    for _ in 0..tiles {
        let denoise = b.add_task(TaskCost::new(Dur::hours(2), 0.02));
        let register = b.add_task(TaskCost::new(Dur::hours(1), 0.08));
        b.add_edge(ingest, denoise);
        b.add_edge(denoise, register);
        registered.push(register);
    }
    // Pairwise mosaicking tree.
    let mut layer = registered;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            let mosaic = b.add_task(TaskCost::new(Dur::minutes(45), 0.25));
            for &t in pair {
                b.add_edge(t, mosaic);
            }
            next.push(mosaic);
        }
        layer = next;
    }
    let calibrate = b.add_task(TaskCost::new(Dur::minutes(30), 0.7));
    b.add_edge(layer[0], calibrate);
    let dag = b.build().expect("valid pipeline DAG");

    println!(
        "pipeline: {} tasks, {} edges, {} levels, max width {}",
        dag.num_tasks(),
        dag.num_edges(),
        dag.num_levels(),
        dag.max_width()
    );

    // The shared cluster: 128 processors, a nightly maintenance reservation
    // and two competing allocations.
    let mut cal = Calendar::new(128);
    cal.try_add(Reservation::new(
        Time::seconds(6 * 3600),
        Time::seconds(8 * 3600),
        128,
    ))
    .unwrap(); // maintenance: machine fully reserved
    cal.try_add(Reservation::new(
        Time::seconds(0),
        Time::seconds(3 * 3600),
        64,
    ))
    .unwrap();
    cal.try_add(Reservation::new(
        Time::seconds(9 * 3600),
        Time::seconds(15 * 3600),
        96,
    ))
    .unwrap();
    let q = 64;

    // Compare the paper's four bounding policies.
    println!(
        "\n{:<10} {:>14} {:>12}",
        "algorithm", "turn-around", "CPU-hours"
    );
    for bd in BdMethod::ALL {
        let cfg = ForwardConfig::new(BlMethod::CpaR, bd);
        let s = schedule_forward(&dag, &cal, Time::ZERO, q, cfg);
        ScheduleValidator::new(&dag, &cal, Time::ZERO)
            .check(&s)
            .expect("valid");
        println!(
            "{:<10} {:>14} {:>12.2}",
            bd.name(),
            s.turnaround().to_string(),
            s.cpu_hours()
        );
    }

    // Show the recommended schedule as a simple per-hour occupancy strip.
    let s = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let horizon_h = ((s.completion() - Time::ZERO).as_seconds() / 3600 + 1) as i64;
    println!("\nper-hour processors used by the application (BD_CPAR):");
    print!("  ");
    for h in 0..horizon_h {
        let t0 = Time::seconds(h * 3600);
        let t1 = Time::seconds((h + 1) * 3600);
        let used: i64 = dag
            .task_ids()
            .map(|t| {
                let p = s.placement(t);
                let lo = p.start.max(t0);
                let hi = p.end.min(t1);
                if hi > lo {
                    p.procs as i64 * (hi - lo).as_seconds() / 3600
                } else {
                    0
                }
            })
            .sum();
        print!("{:>4}", used);
    }
    println!("\n  (hours 0..{horizon_h})");
}
