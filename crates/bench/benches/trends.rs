//! §4.3 textual trend claims as a checkable experiment (see
//! `resched_sim::exp::trends`).

use resched_sim::exp::trends::{run_trends, trends_table};
use resched_sim::scenario::{Scale, DEFAULT_ROOT_SEED};

fn main() {
    let points = run_trends(
        Scale::from_env().unwrap_or_else(|e| e.exit()),
        DEFAULT_ROOT_SEED,
    );
    println!("{}", trends_table(&points).render());
}
