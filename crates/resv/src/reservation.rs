//! A single advance reservation: `procs` processors held over `[start, end)`.

use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open reservation of `procs` processors over `[start, end)`.
///
/// Half-open semantics mean a reservation ending at `t` and another starting
/// at `t` do not conflict — exactly how batch schedulers hand over nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reservation {
    /// Inclusive start instant.
    pub start: Time,
    /// Exclusive end instant.
    pub end: Time,
    /// Number of processors held.
    pub procs: u32,
}

impl Reservation {
    /// Build a reservation, validating its shape.
    ///
    /// # Panics
    /// Panics if `end <= start` or `procs == 0`; use [`Reservation::checked`]
    /// for a fallible constructor.
    pub fn new(start: Time, end: Time, procs: u32) -> Reservation {
        Reservation::checked(start, end, procs)
            // lint:allow(panic): documented panicking constructor (see doc comment); `Reservation::checked` is the fallible path.
            .unwrap_or_else(|e| panic!("invalid reservation: {e}"))
    }

    /// Fallible constructor.
    pub fn checked(start: Time, end: Time, procs: u32) -> Result<Reservation, ReservationError> {
        if end <= start {
            return Err(ReservationError::EmptyInterval { start, end });
        }
        if procs == 0 {
            return Err(ReservationError::ZeroProcs);
        }
        Ok(Reservation { start, end, procs })
    }

    /// Convenience: reservation starting at `start` lasting `dur`.
    pub fn for_duration(start: Time, dur: Dur, procs: u32) -> Reservation {
        Reservation::new(start, start + dur, procs)
    }

    /// Length of the reservation.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }

    /// Resource area in processor-seconds.
    pub fn proc_seconds(&self) -> i64 {
        self.procs as i64 * self.duration().as_seconds()
    }

    /// Resource area in CPU-hours (the paper's consumption metric unit).
    pub fn cpu_hours(&self) -> f64 {
        self.proc_seconds() as f64 / 3600.0
    }
}

impl fmt::Debug for Reservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Resv[{}..{} x{}]",
            self.start.as_seconds(),
            self.end.as_seconds(),
            self.procs
        )
    }
}

/// Errors for reservation construction and calendar insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationError {
    /// `end <= start`.
    EmptyInterval {
        /// Requested start.
        start: Time,
        /// Requested end.
        end: Time,
    },
    /// A reservation must hold at least one processor.
    ZeroProcs,
    /// Requested more processors than the platform has.
    ExceedsCapacity {
        /// Processors requested.
        requested: u32,
        /// Platform capacity.
        capacity: u32,
    },
    /// The platform lacks free processors somewhere in the interval.
    Conflict {
        /// First instant at which the conflict occurs.
        at: Time,
        /// Processors free at that instant.
        free: u32,
        /// Processors requested.
        requested: u32,
    },
    /// A removal (or resize) names processors that are not reserved
    /// somewhere in its interval: subtracting would underflow usage.
    NotReserved {
        /// First instant at which too few processors are reserved.
        at: Time,
        /// Processors actually in use at that instant.
        used: u32,
        /// Processors the removal tried to release.
        requested: u32,
    },
}

impl fmt::Display for ReservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationError::EmptyInterval { start, end } => {
                write!(f, "empty interval [{start}, {end})")
            }
            ReservationError::ZeroProcs => write!(f, "reservation for zero processors"),
            ReservationError::ExceedsCapacity {
                requested,
                capacity,
            } => write!(f, "requested {requested} procs > capacity {capacity}"),
            ReservationError::Conflict {
                at,
                free,
                requested,
            } => write!(
                f,
                "conflict at {at}: {free} procs free, {requested} requested"
            ),
            ReservationError::NotReserved {
                at,
                used,
                requested,
            } => write!(
                f,
                "removal underflow at {at}: {used} procs in use, {requested} to release"
            ),
        }
    }
}

impl std::error::Error for ReservationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: i64, e: i64, p: u32) -> Reservation {
        Reservation::new(Time::seconds(s), Time::seconds(e), p)
    }

    #[test]
    fn construction_and_accessors() {
        let x = r(10, 70, 4);
        assert_eq!(x.duration(), Dur::seconds(60));
        assert_eq!(x.proc_seconds(), 240);
        assert!((x.cpu_hours() - 240.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn checked_rejects_bad_shapes() {
        assert_eq!(
            Reservation::checked(Time::seconds(5), Time::seconds(5), 1),
            Err(ReservationError::EmptyInterval {
                start: Time::seconds(5),
                end: Time::seconds(5)
            })
        );
        assert_eq!(
            Reservation::checked(Time::seconds(0), Time::seconds(1), 0),
            Err(ReservationError::ZeroProcs)
        );
    }

    #[test]
    fn half_open_activity() {
        let cal = crate::Calendar::with_reservations(1, [r(10, 20, 1)]).unwrap();
        let used = |t| cal.used_at(Time::seconds(t));
        assert_eq!([used(9), used(10), used(19), used(20)], [0, 1, 1, 0]);
    }

    #[test]
    fn overlap_is_half_open() {
        // On one processor, two reservations conflict exactly when their
        // intervals overlap.
        let cal = crate::Calendar::with_reservations(1, [r(0, 10, 1)]).unwrap();
        assert!(!cal.fits(&r(9, 12, 1)));
        assert!(cal.fits(&r(10, 12, 1))); // abutting is not overlapping
        assert!(!cal.fits(&r(0, 1, 1)));
        assert!(cal.fits(&r(-5, 0, 1)));
    }

    #[test]
    fn for_duration_matches_new() {
        assert_eq!(
            Reservation::for_duration(Time::seconds(3), Dur::seconds(7), 2),
            r(3, 10, 2)
        );
    }
}
