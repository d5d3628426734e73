//! Cross-crate integration tests live in `tests/tests/`.
//!
//! The library part of this crate hosts the fuzzing machinery shared by
//! those tests: random scheduling scenarios, a runner that pushes every
//! registered algorithm through the independent schedule-validity oracle,
//! greedy shrinking of failures, and `.json` repro (de)serialization (see
//! `tests/repros/`).

pub mod fuzz;
