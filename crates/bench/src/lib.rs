//! # resched-bench — benchmark harness
//!
//! This crate carries no library code. Every paper table from 2 to 10 (and
//! the shape checks over Tables 4–7) is computed by one program,
//! `cargo run --release -p resched-sim --bin run_experiments`. The
//! `benches/` directory holds the experiments that program does not run,
//! each target the only driver of its experiment: Table 1
//! (`table1_appmodel`), the design-choice ablations (`ablation_*`), the
//! future-work extensions (`ext_*`) and the §4.3 trends (`trends`). It also
//! holds the criterion micro-benchmarks (`criterion_micro`). Run one with
//! e.g. `cargo bench -p resched-bench --bench ext_icaslb`.
