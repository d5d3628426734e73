//! Reservation-schedule extraction (paper §3.2.1).
//!
//! Given a job log, a fraction `phi` of the jobs is tagged as advance
//! reservations; all other jobs are discarded. A scheduling instant `T` is
//! then sampled, and the *reservation schedule at `T`* — the ongoing and
//! future reservations — is derived, thinned by one of three decay methods
//! so the number of reservations per day falls off into the future:
//!
//! * [`ThinMethod::Linear`] — keep a future reservation starting `t` after
//!   `T` with probability `1 − t/H` (none survive past the horizon
//!   `H = 7 days`);
//! * [`ThinMethod::Expo`] — keep with probability `exp(−3t/H)` (≈5% at the
//!   horizon);
//! * [`ThinMethod::Real`] — keep exactly the reservations whose jobs were
//!   *submitted* by `T`.
//!
//! The paper's methods "add and remove" to shape the density; this
//! implementation only removes, which matches the thinning direction in
//! every log dense enough to be interesting (documented in DESIGN.md).
//!
//! All reported times are shifted so that `T` becomes `Time::ZERO` ("now").
//! The extraction also computes `q`, the historical average number of
//! available processors, from the tagged reservations in the 7-day window
//! before `T` — the quantity the paper's `*_CPAR` algorithms rely on.

use crate::job::JobLog;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_resv::{Calendar, Dur, Reservation, Time};
use serde::{Deserialize, Serialize};

/// Future-density decay method (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThinMethod {
    /// Linear decay to zero at the horizon.
    Linear,
    /// Exponential decay (≈5% survive at the horizon).
    Expo,
    /// Keep reservations submitted before `T` only.
    Real,
}

impl ThinMethod {
    /// The three methods in the paper's order.
    pub const ALL: [ThinMethod; 3] = [ThinMethod::Linear, ThinMethod::Expo, ThinMethod::Real];

    /// Lower-case name as used in the paper ("linear", "expo", "real").
    pub fn name(self) -> &'static str {
        match self {
            ThinMethod::Linear => "linear",
            ThinMethod::Expo => "expo",
            ThinMethod::Real => "real",
        }
    }
}

/// Parameters of an extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtractSpec {
    /// Fraction of jobs tagged as reservations (paper: 0.1, 0.2, 0.5).
    pub phi: f64,
    /// Future-density decay method.
    pub method: ThinMethod,
    /// Future horizon (paper: 7 days) and past window for `q`.
    pub horizon: Dur,
}

impl ExtractSpec {
    /// An extraction spec with the paper's 7-day horizon.
    pub fn new(phi: f64, method: ThinMethod) -> ExtractSpec {
        ExtractSpec {
            phi,
            method,
            horizon: Dur::days(7),
        }
    }

    /// The paper's φ values.
    pub const PHIS: [f64; 3] = [0.1, 0.2, 0.5];
}

/// A reservation schedule as seen at the scheduling instant, with all times
/// relative to `now = Time::ZERO`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservationSchedule {
    /// Platform size.
    pub procs: u32,
    /// Ongoing and future reservations (relative times; starts may be
    /// negative for ongoing reservations, ends are positive).
    pub reservations: Vec<Reservation>,
    /// Historical average number of available processors over the past
    /// window (the paper's `q`).
    pub q: u32,
}

impl ReservationSchedule {
    /// Build the competing-reservations calendar for the scheduling
    /// algorithms.
    ///
    /// # Panics
    /// Panics if the reservations conflict, which cannot happen for
    /// schedules extracted from a feasible log.
    pub fn calendar(&self) -> Calendar {
        Calendar::with_reservations(self.procs, self.reservations.iter().copied())
            // lint:allow(panic): documented panicking constructor (see doc comment). No root calls it: the proof arrives by name, from `txn.calendar()` in `Server::decide`, which is `ShadowTxn::calendar`.
            .expect("extracted reservations come from a feasible log")
    }
}

/// Extract the reservation schedule at instant `t` from `log`.
pub fn extract(log: &JobLog, t: Time, spec: &ExtractSpec, seed: u64) -> ReservationSchedule {
    assert!((0.0..=1.0).contains(&spec.phi), "phi out of range");
    assert!(spec.horizon.is_positive());
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let horizon = spec.horizon.as_seconds() as f64;

    let mut future = Vec::new();
    let mut past = Vec::new();
    let window_start = t - spec.horizon;

    for job in &log.jobs {
        // Tag a stable φ-fraction of jobs as reservations. Drawing per job
        // keeps the tagging independent of T.
        if !rng.gen_bool(spec.phi) {
            continue;
        }
        let r = job.reservation();
        if r.end > t {
            // Ongoing or future reservation.
            let keep = if r.start <= t {
                true // ongoing reservations are always part of the schedule
            } else {
                let offset = (r.start - t).as_seconds() as f64;
                match spec.method {
                    ThinMethod::Linear => {
                        offset < horizon && rng.gen_bool((1.0 - offset / horizon).clamp(0.0, 1.0))
                    }
                    ThinMethod::Expo => rng.gen_bool((-3.0 * offset / horizon).exp()),
                    ThinMethod::Real => job.submit <= t,
                }
            };
            if keep {
                future.push(Reservation::new(
                    Time::seconds((r.start - t).as_seconds()),
                    Time::seconds((r.end - t).as_seconds()),
                    r.procs,
                ));
            }
        }
        if r.start < t && r.end > window_start {
            // Contributes to the past window (clamped).
            let s = r.start.max(window_start);
            let e = r.end.min(t);
            if e > s {
                past.push(Reservation::new(s, e, r.procs));
            }
        }
    }

    // Historical average availability over the past window.
    let past_cal = Calendar::with_reservations(log.procs, past)
        .expect("clamped past reservations come from a feasible log");
    let q = past_cal.average_available(window_start, t);

    future.sort_by_key(|r| (r.start, r.end, r.procs));
    ReservationSchedule {
        procs: log.procs,
        reservations: future,
        q,
    }
}

/// Sample `k` scheduling instants in the middle of the log's span (between
/// 25% and 75%), so both the past window and the future horizon are well
/// inside the trace.
pub fn sample_start_times(log: &JobLog, k: usize, seed: u64) -> Vec<Time> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let (lo, hi) = log.span();
    let span = (hi - lo).as_seconds();
    (0..k)
        .map(|_| {
            let frac = rng.gen_range(0.25..0.75);
            Time::seconds(lo.as_seconds() + (span as f64 * frac) as i64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_log, LogSpec};

    fn test_log() -> JobLog {
        generate_log(&LogSpec::sdsc_ds().with_duration(Dur::days(20)), 42)
    }

    #[test]
    fn extraction_is_feasible_and_relative() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        for method in ThinMethod::ALL {
            let spec = ExtractSpec::new(0.5, method);
            let rs = extract(&log, t, &spec, 1);
            let cal = rs.calendar(); // must not panic
            assert_eq!(cal.capacity(), log.procs);
            // All reservations end in the future (relative to now = 0).
            assert!(rs.reservations.iter().all(|r| r.end > Time::ZERO));
            assert!(rs.q >= 1 && rs.q <= log.procs);
        }
    }

    #[test]
    fn phi_scales_reservation_count() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let count = |phi: f64| {
            extract(&log, t, &ExtractSpec::new(phi, ThinMethod::Real), 3)
                .reservations
                .len()
        };
        let (c1, c5) = (count(0.1), count(0.5));
        assert!(
            c5 > c1 * 2,
            "phi=0.5 should yield far more reservations ({c5}) than phi=0.1 ({c1})"
        );
    }

    #[test]
    fn linear_leaves_nothing_beyond_horizon() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let spec = ExtractSpec::new(0.5, ThinMethod::Linear);
        let rs = extract(&log, t, &spec, 4);
        for r in &rs.reservations {
            // Ongoing reservations excepted.
            if r.start > Time::ZERO {
                assert!(r.start < Time::ZERO + spec.horizon);
            }
        }
    }

    #[test]
    fn expo_density_decreases() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let rs = extract(&log, t, &ExtractSpec::new(0.5, ThinMethod::Expo), 5);
        let day = |d: i64| {
            rs.reservations
                .iter()
                .filter(|r| {
                    r.start >= Time::seconds(d * 86_400)
                        && r.start < Time::seconds((d + 1) * 86_400)
                })
                .count()
        };
        // First day should carry more future starts than the fourth.
        assert!(day(0) >= day(3));
    }

    #[test]
    fn real_method_respects_submission() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let rs = extract(&log, t, &ExtractSpec::new(1.0, ThinMethod::Real), 6);
        // With phi = 1 every kept reservation maps to a job submitted by t.
        for r in &rs.reservations {
            let abs_start = Time::seconds(r.start.as_seconds() + t.as_seconds());
            let found = log
                .jobs
                .iter()
                .any(|j| j.start == abs_start && j.procs == r.procs && j.submit <= t);
            assert!(found, "reservation {r:?} has no submitted-by-t source job");
        }
    }

    #[test]
    fn phi_zero_gives_empty_schedule_full_q() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let rs = extract(&log, t, &ExtractSpec::new(0.0, ThinMethod::Linear), 7);
        assert!(rs.reservations.is_empty());
        assert_eq!(rs.q, log.procs);
    }

    #[test]
    fn q_decreases_with_phi() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let q = |phi: f64| extract(&log, t, &ExtractSpec::new(phi, ThinMethod::Real), 8).q;
        assert!(q(0.9) <= q(0.1));
    }

    #[test]
    fn sample_start_times_in_middle() {
        let log = test_log();
        let times = sample_start_times(&log, 10, 9);
        let (lo, hi) = log.span();
        let span = (hi - lo).as_seconds();
        for t in times {
            let frac = (t - lo).as_seconds() as f64 / span as f64;
            assert!((0.2..0.8).contains(&frac), "start time fraction {frac}");
        }
    }

    #[test]
    fn empty_schedule_helper() {
        let rs = ReservationSchedule {
            procs: 64,
            reservations: Vec::new(),
            q: 64,
        };
        assert_eq!(rs.q, 64);
        assert_eq!(rs.calendar().num_reservations(), 0);
    }

    #[test]
    fn deterministic() {
        let log = test_log();
        let t = Time::seconds(Dur::days(10).as_seconds());
        let spec = ExtractSpec::new(0.2, ThinMethod::Expo);
        assert_eq!(extract(&log, t, &spec, 11), extract(&log, t, &spec, 11));
    }
}
