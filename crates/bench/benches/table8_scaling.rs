//! Table 8 — worst-case asymptotic complexities (symbolic) plus measured
//! work-counter growth confirming the analysis empirically.

use resched_sim::exp::scaling::{run_scaling, scaling_table, symbolic_table8};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    println!("{}", symbolic_table8().render());
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let results = run_scaling(scale, DEFAULT_ROOT_SEED);
    println!("{}", scaling_table(&results).render());
}
