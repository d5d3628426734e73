//! Table 10 — average algorithm execution times as edge density varies
//! (0.1 .. 0.9) at n = 50, Grid'5000-like schedules.

use resched_sim::exp::exec_time::{run_table10, timing_table};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let cols = run_table10(scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        timing_table("Table 10 - average execution time vs edge density", &cols).render()
    );
}
