//! # resched-sim — experiment harness for the HPDC 2008 reproduction
//!
//! Everything needed to regenerate the paper's tables:
//!
//! * [`scenario`] — the 40 application sweeps × 36 reservation specs grid,
//!   instance materialization, deterministic seeding, log caching;
//! * [`metrics`] — degradation-from-best and win-count aggregation;
//! * [`exp`] — one module per experiment (Tables 2–10 plus the §3.2.1 and
//!   §4.3.1 text results), and the result-shape checks over Tables 4–7;
//! * [`table`] — ASCII/Markdown table rendering;
//! * [`gantt`] / [`svg`] — text and SVG Gantt charts of schedules vs.
//!   reservation load.
//!
//! Scale knobs: the `RESCHED_SCALE` environment variable multiplies the
//! default per-scenario instance counts (see [`scenario::Scale`]); the
//! paper's full scale is `Scale::paper()`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod exp;
pub mod gantt;
pub mod metrics;
pub mod scenario;
pub mod svg;
pub mod table;
