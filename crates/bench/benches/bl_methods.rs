//! §4.3.1 — comparison of the four bottom-level computation methods over
//! the paper's scenario grid. Paper result: BL_CPA/BL_CPAR together best in
//! 78.4% of cases; improvements over BL_1 within −3.46% .. +5.69%.

use resched_daggen::DagParams;
use resched_sim::exp::ressched::{bl_compare_table, run_bl_compare};
use resched_sim::scenario::{ResvSpec, Scale, DEFAULT_ROOT_SEED};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(2).unwrap_or_else(|e| e.exit());
    let specs = ResvSpec::paper_grid();
    eprintln!(
        "bl_methods: {} sweeps x {} specs x {} instances",
        sweeps.len(),
        specs.len(),
        scale.instances()
    );
    let _ = DagParams::paper_default();
    let r = run_bl_compare(&sweeps, &specs, scale, DEFAULT_ROOT_SEED);
    println!("{}", bl_compare_table(&r).render());
}
