//! # resched-core — mixed-parallel scheduling with advance reservations
//!
//! A faithful reimplementation of the scheduling algorithms of *Aida &
//! Casanova, "Scheduling Mixed-Parallel Applications with Advance
//! Reservations" (HPDC 2008)*.
//!
//! ## The problem
//!
//! A *mixed-parallel* application is a DAG whose vertices are data-parallel
//! (moldable) tasks obeying Amdahl's law. It must run on a homogeneous
//! cluster of `p` processors whose availability is already constrained by
//! *advance reservations* from competing users; each application task gets
//! its own reservation. Two problems are solved:
//!
//! * **RESSCHED** ([`forward::schedule_forward`]) — minimize turn-around
//!   time;
//! * **RESSCHEDDL** ([`backward::schedule_deadline`]) — meet a deadline `K`
//!   (and, via [`backward::Roster::tightest`], find the tightest one).
//!
//! ## Quick start
//!
//! ```
//! use resched_core::prelude::*;
//!
//! // A 3-task chain of moldable tasks, each 1 CPU-hour sequential with a
//! // 10% sequential fraction.
//! let cost = TaskCost::new(Dur::hours(1), 0.1);
//! let dag = resched_core::dag::chain(&[cost, cost, cost]);
//!
//! // A 32-processor cluster with one big competing reservation.
//! let mut cal = Calendar::new(32);
//! cal.try_add(Reservation::new(
//!     Time::seconds(3600),
//!     Time::seconds(5 * 3600),
//!     24,
//! )).unwrap();
//!
//! // Schedule for minimum turn-around time with the paper's best algorithm.
//! let sched = schedule_forward(&dag, &cal, Time::ZERO, 16, ForwardConfig::recommended());
//! ScheduleValidator::new(&dag, &cal, Time::ZERO).check(&sched).unwrap();
//! println!("turn-around: {}, CPU-hours: {:.2}", sched.turnaround(), sched.cpu_hours());
//! ```
//!
//! ## Crate map
//!
//! * [`task`] — Amdahl moldable-task cost model;
//! * [`dag`] — application DAG and builder;
//! * [`bl`] — bottom levels and the four `BL_*` cost models;
//! * [`algos`] — a unified registry over every algorithm;
//! * [`cpa`] / [`mcpa`] — the CPA baseline (allocation + mapping) and the
//!   level-constrained MCPA variant;
//! * [`forward`] — RESSCHED algorithms (`BL_x_BD_y`);
//! * [`icaslb`] — reservation-aware one-step iCASLB adaptation (the
//!   paper's future-work direction);
//! * [`blind`] — trial-and-error scheduling without reservation-schedule
//!   visibility (paper §3.2.2 relaxation);
//! * [`dynamic`] — forward scheduling while competitors keep reserving
//!   (the paper's other §3.2.2 relaxation);
//! * [`exec`] — execution replay with noisy actual runtimes and batch
//!   kill/requeue semantics (completing the paper's §3.1 estimate story);
//! * [`backward`] — RESSCHEDDL algorithms (`DL_*`, λ-hybrids, tightest
//!   deadline);
//! * [`floor`] — the instance floor: the critical-path and area bounds no
//!   valid schedule beats, which answers deadlines below it and is the
//!   second oracle;
//! * [`pool`] — the single `q`-clamping rule sizing every CPA pool;
//! * [`obs`] — observability: metrics registry, span timers, per-run phase
//!   profiles, and JSONL trace reports, collected only where the `obs`
//!   feature compiles the collector in (every test build, no shipped one);
//! * [`schedule`] — schedules and their metrics;
//! * [`validate`] — the schedule-validity oracle: the one definition of a
//!   valid schedule, which every scheduler replays its output through in
//!   debug builds;
//! * [`complexity`] — the paper's Table 8 complexity inventory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algos;
pub mod backward;
pub mod bl;
pub mod blind;
pub mod complexity;
pub mod cpa;
pub mod dag;
pub mod dynamic;
pub mod exec;
pub mod floor;
pub mod forward;
pub mod icaslb;
pub mod mcpa;
pub mod obs;
pub mod pool;
pub mod schedule;
pub mod task;
pub mod validate;

pub use resched_resv as resv;

/// One-stop imports for library users.
pub mod prelude {
    pub use crate::backward::{
        schedule_deadline, DeadlineAlgo, DeadlineConfig, DeadlineOutcome, Roster,
    };
    pub use crate::bl::BlMethod;
    pub use crate::cpa::StoppingCriterion;
    pub use crate::dag::{Dag, DagBuilder, TaskId};
    pub use crate::forward::{schedule_forward, BdMethod, ForwardConfig, TieBreak};
    pub use crate::pool::Pool;
    pub use crate::schedule::{Placement, Schedule};
    pub use crate::task::TaskCost;
    pub use crate::validate::{audit_calendar, ScheduleValidator, Violation};
    pub use resched_resv::{Calendar, Dur, Reservation, ShadowTxn, Time};
}
