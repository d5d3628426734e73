//! # resched-resv — advance-reservation calendar substrate
//!
//! This crate is the bottom layer of the `resched` workspace, a reproduction
//! of *Aida & Casanova, "Scheduling Mixed-Parallel Applications with Advance
//! Reservations" (HPDC 2008)*. It provides:
//!
//! * [`Time`] / [`Dur`] — integer-second time primitives;
//! * [`Reservation`] — `procs` processors over a half-open interval;
//! * [`Calendar`] — the platform's usage profile over time, answering the
//!   earliest-fit / latest-fit / historical-availability queries that every
//!   scheduling algorithm in the paper is built on, and supporting full
//!   mutation (add / remove / resize);
//! * [`ShadowTxn`] — probe → commit/rollback transactions over a calendar
//!   for online scheduling, with exact (byte-identical) rollback.
//!
//! ## Example
//!
//! ```
//! use resched_resv::{Calendar, Reservation, Time, Dur};
//!
//! // An 8-processor cluster with one competing reservation.
//! let mut cal = Calendar::new(8);
//! cal.try_add(Reservation::new(Time::seconds(0), Time::seconds(3600), 6)).unwrap();
//!
//! // Earliest slot for a 4-processor, 10-minute task: after the reservation.
//! let s = cal.earliest_fit(4, Dur::minutes(10), Time::ZERO);
//! assert_eq!(s, Time::seconds(3600));
//!
//! // A 2-processor task still fits right away.
//! assert_eq!(cal.earliest_fit(2, Dur::minutes(10), Time::ZERO), Time::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
mod calendar;
pub mod quotas;
mod reservation;
mod slotset;
pub mod time;
mod txn;

pub use calendar::{Calendar, LinearRef, QueryCost};
pub use quotas::{AdmissionGate, Owner, QuotaDenial, QuotaRule, QuotaSet, QuotaSubject};
pub use reservation::{Reservation, ReservationError};
pub use time::{Dur, Time, DAY, HOUR, MINUTE, SECOND};
pub use txn::ShadowTxn;
