//! # resched-bench — criterion micro-benchmarks
//!
//! This crate carries no library code. Its one target, `criterion_micro`,
//! times the hot operations: calendar slot queries and their scaling, the
//! schedulers' per-task walks, CPA, the deadline roster, the calendar
//! audit, the quota gate, DAG generation and the obs primitives. Run it
//! with `cargo bench -p resched-bench` (`-- --test` runs each group once).
//! Every experiment — the paper's tables, the ablations and the extensions
//! — is computed by `cargo run --release -p resched-sim --bin run_experiments`.
