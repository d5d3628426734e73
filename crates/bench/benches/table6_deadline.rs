//! Table 6 — deadline algorithms: tightest achievable deadline and
//! CPU-hours at a loose (1.5×) deadline, on SDSC_BLUE-like synthetic
//! schedules (φ ∈ {0.1, 0.2, 0.5}) and Grid'5000-like schedules.
//!
//! Paper shape: DL_BD_ALL far worse on both metrics; RC algorithms orders
//! of magnitude cheaper at loose deadlines; DL_RC_CPAR best or competitive
//! on tightness at low φ, weaker at φ = 0.5.

use resched_sim::exp::deadline::{deadline_table, run_table6};
use resched_sim::scenario::{sweeps_with_stride, Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    eprintln!(
        "table6: {} sweeps, {} instances/scenario",
        sweeps.len(),
        scale.instances()
    );
    let results = run_table6(&sweeps, scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        deadline_table(
            "Table 6 - RESSCHEDDL tightest deadline / loose-deadline CPU-hours",
            &results
        )
        .render()
    );
}
