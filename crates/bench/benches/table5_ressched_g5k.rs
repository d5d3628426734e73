//! Table 5 — turn-around-time minimization on Grid'5000-like reservation
//! schedules (same algorithms as Table 4).

use resched_sim::exp::ressched::{ressched_table, run_table5};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let r = run_table5(scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        ressched_table(
            &format!(
                "Table 5 - RESSCHED, Grid'5000-like schedules ({} scenarios)",
                r.scenarios
            ),
            &r
        )
        .render()
    );
}
