//! Table 4 — turn-around-time minimization on synthetic reservation
//! schedules: average degradation from best and wins, for BD_ALL / BD_HALF
//! / BD_CPA / BD_CPAR (all with BL_CPAR bottom levels).
//!
//! Paper shape: BD_CPA and BD_CPAR within a fraction of a percent on
//! turn-around; BD_ALL/BD_HALF ~30% worse; BD_CPAR dominates CPU-hours.

use resched_sim::exp::ressched::{ressched_table, run_table4};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    eprintln!("table4: {} instances/scenario", scale.instances());
    let r = run_table4(scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        ressched_table(
            &format!(
                "Table 4 - RESSCHED, synthetic schedules ({} scenarios)",
                r.scenarios
            ),
            &r
        )
        .render()
    );
}
