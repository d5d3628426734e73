//! Table 9 — average algorithm execution times as the number of tasks
//! varies (10, 25, 50, 75, 100), Grid'5000-like schedules, default DAG
//! parameters.
//!
//! Paper shape: runtimes grow superlinearly with n; the resource-
//! conservative algorithms are ~10–90× more expensive than the aggressive
//! ones.

use resched_sim::exp::exec_time::{run_table9, timing_table};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let cols = run_table9(scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        timing_table("Table 9 - average execution time vs number of tasks", &cols).render()
    );
}
