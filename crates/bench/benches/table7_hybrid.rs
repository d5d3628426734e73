//! Table 7 — the λ-hybrid algorithms vs. their parents on Grid'5000-like
//! schedules.
//!
//! Paper shape: DL_RC_CPAR-λ beats DL_BD_CPA on tightest deadline while
//! using far fewer CPU-hours; DL_RCBD_CPAR-λ marginally better still.

use resched_sim::exp::deadline::{deadline_table, run_table7};
use resched_sim::scenario::{sweeps_with_stride, Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let r = run_table7(&sweeps, scale, DEFAULT_ROOT_SEED);
    println!(
        "{}",
        deadline_table(
            "Table 7 - hybrid deadline algorithms, Grid'5000-like schedules",
            &[r]
        )
        .render()
    );
}
