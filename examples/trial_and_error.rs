//! Scheduling without reservation-schedule visibility: the batch system
//! only answers probe requests ("when could 8 procs x 2 h start?"), as in
//! the paper's §3.2.2 relaxation. Compare the blind scheduler against full
//! visibility at different probe budgets.
//!
//! Run with: `cargo run --release -p resched-sim --example trial_and_error`

use resched_core::blind::{schedule_blind, BlindConfig, ReservationDesk};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_sim::scenario::{derive_seed, DEFAULT_ROOT_SEED};
use resched_workloads::prelude::*;

fn main() {
    let spec = LogSpec::ctc_sp2().with_duration(Dur::days(30));
    let log = generate_log(&spec, DEFAULT_ROOT_SEED);
    let t = sample_start_times(&log, 1, derive_seed(DEFAULT_ROOT_SEED, "tae", 0))[0];
    let rs = extract(
        &log,
        t,
        &ExtractSpec::new(0.4, ThinMethod::Expo),
        derive_seed(DEFAULT_ROOT_SEED, "tae", 1),
    );
    let cal = rs.calendar();
    let dag = generate(&DagParams::paper_default(), 21);

    println!(
        "platform: {} procs, {} competing reservations (q = {})",
        cal.capacity(),
        cal.num_reservations(),
        rs.q
    );

    let full = schedule_forward(&dag, &cal, Time::ZERO, rs.q, ForwardConfig::recommended());
    println!(
        "\nfull visibility : turn-around {:>10}  {:>8.1} CPU-h  ({} slot queries)",
        full.turnaround().to_string(),
        full.cpu_hours(),
        full.stats.slot_queries
    );

    for budget in [1usize, 2, 4, 8] {
        let mut desk = ReservationDesk::new(cal.clone());
        let cfg = BlindConfig {
            probes_per_task: budget,
        };
        let s = schedule_blind(&dag, &mut desk, Time::ZERO, rs.q, cfg);
        ScheduleValidator::new(&dag, &cal, Time::ZERO)
            .check(&s)
            .expect("valid");
        println!(
            "blind, {budget:>2} probe(s): turn-around {:>10}  {:>8.1} CPU-h  ({} probes total)",
            s.turnaround().to_string(),
            s.cpu_hours(),
            desk.probes()
        );
    }
    println!("\nreading: a handful of trial-and-error probes per task recovers almost");
    println!("all of the full-visibility schedule quality (paper Sec 3.2.2).");
}
