//! Integer-second time primitives.
//!
//! All scheduling in this workspace happens on an integer-second timeline.
//! Batch logs (SWF format) carry second granularity, and using integers keeps
//! the reservation calendar's breakpoints exact: two reservations that should
//! abut really do abut, with no floating-point drift deciding whether a task
//! "fits" in a hole.
//!
//! [`Time`] is an absolute instant (seconds since the simulation epoch, which
//! experiments usually place at the moment the application is being
//! scheduled, a.k.a. "now"). [`Dur`] is a signed span of seconds. Mixing the
//! two is only possible through the arithmetic impls below, so a `Time`
//! cannot accidentally be added to a `Time`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute instant, in whole seconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(
    /// Seconds since the simulation epoch.
    pub i64,
);

/// A signed span of time, in whole seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Dur(
    /// Signed span in seconds.
    pub i64,
);

/// One second.
pub const SECOND: Dur = Dur(1);
/// One minute.
pub const MINUTE: Dur = Dur(60);
/// One hour.
pub const HOUR: Dur = Dur(3600);
/// One day.
pub const DAY: Dur = Dur(86_400);

impl Time {
    /// The simulation epoch (usually "now", the moment scheduling happens).
    pub const ZERO: Time = Time(0);
    /// A sentinel far in the past.
    pub const MIN: Time = Time(i64::MIN / 4);
    /// A sentinel far in the future ("never"). Divided by 4 so that modest
    /// arithmetic on sentinels cannot overflow.
    pub const MAX: Time = Time(i64::MAX / 4);

    /// Construct an instant from whole seconds since the epoch.
    pub const fn seconds(s: i64) -> Time {
        Time(s)
    }

    /// The raw second count.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// The instant in fractional hours since the epoch.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Elapsed time since `earlier` (may be negative).
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0 - earlier.0)
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Midpoint of two instants, rounding toward `self`.
    pub fn midpoint(self, other: Time) -> Time {
        Time(self.0 + (other.0 - self.0) / 2)
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// A sentinel span long enough to mean "unbounded" without overflowing.
    pub const MAX: Dur = Dur(i64::MAX / 4);

    /// A span of whole seconds.
    pub const fn seconds(s: i64) -> Dur {
        Dur(s)
    }

    /// A span of whole minutes.
    pub const fn minutes(m: i64) -> Dur {
        Dur(m * 60)
    }

    /// A span of whole hours.
    pub const fn hours(h: i64) -> Dur {
        Dur(h * 3600)
    }

    /// A span of whole days.
    pub const fn days(d: i64) -> Dur {
        Dur(d * 86_400)
    }

    /// The raw second count.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// The span in fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// The span in fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Build a duration from a fractional number of seconds, rounding up.
    ///
    /// Execution-time models (Amdahl's law) produce fractional seconds; the
    /// calendar needs integers. Rounding *up* keeps every reservation long
    /// enough to contain the modeled execution.
    ///
    /// Truncate, then bump by one if that dropped a fraction, rather than
    /// `s.ceil() as i64`: baseline x86-64 has no `roundsd`, so `f64::ceil`
    /// is a libm call, and every Amdahl evaluation
    /// (`TaskCost::exec_time`) pays for it. The two agree on every input
    /// the asserts admit. Below 2^53 the truncation `w` is exact in `f64`,
    /// so `(w as f64) < s` holds exactly when `s` has a fraction, and then
    /// `ceil(s) = w + 1`; `−0.0` truncates to 0 with nothing to bump. From
    /// 2^53 on every `f64` is an integer, so `w = s` until `s as i64`
    /// saturates at 2^63, where both forms read `i64::MAX` (the bump
    /// saturates too).
    #[inline]
    pub fn from_secs_f64_ceil(s: f64) -> Dur {
        assert!(s.is_finite(), "duration must be finite, got {s}");
        assert!(s >= 0.0, "duration must be non-negative, got {s}");
        let w = s as i64;
        Dur(if (w as f64) < s {
            w.saturating_add(1)
        } else {
            w
        })
    }

    /// Whether the span is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Whether the span is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// The shorter of two spans.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// Multiply by a float, rounding up to a whole second.
    pub fn mul_f64_ceil(self, f: f64) -> Dur {
        Dur::from_secs_f64_ceil(self.0 as f64 * f)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Neg for Dur {
    type Output = Dur;
    fn neg(self) -> Dur {
        Dur(-self.0)
    }
}

impl Mul<i64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: i64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<i64> for Dur {
    type Output = Dur;
    fn div(self, rhs: i64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", fmt_secs(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_secs(self.0))
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_secs(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_secs(self.0))
    }
}

fn fmt_secs(s: i64) -> String {
    let sign = if s < 0 { "-" } else { "" };
    let s = s.unsigned_abs();
    let (h, rem) = (s / 3600, s % 3600);
    let (m, sec) = (rem / 60, rem % 60);
    if h > 0 {
        format!("{sign}{h}h{m:02}m{sec:02}s")
    } else if m > 0 {
        format!("{sign}{m}m{sec:02}s")
    } else {
        format!("{sign}{sec}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::seconds(100);
        let d = Dur::minutes(2);
        assert_eq!(t + d, Time::seconds(220));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(Time::ZERO), Dur::seconds(100));
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Dur::hours(2), Dur::minutes(120));
        assert_eq!(Dur::days(1), Dur::hours(24));
        assert_eq!(HOUR * 24, DAY);
        assert_eq!(MINUTE * 60, HOUR);
    }

    #[test]
    fn ceil_rounding_never_shrinks() {
        assert_eq!(Dur::from_secs_f64_ceil(0.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64_ceil(0.1), Dur::seconds(1));
        assert_eq!(Dur::from_secs_f64_ceil(59.999), Dur::seconds(60));
        assert_eq!(Dur::from_secs_f64_ceil(60.0), Dur::seconds(60));
    }

    // The reference is `f64::ceil` itself, so the comparison is exact.
    #[test]
    fn ceil_matches_f64_ceil_exactly() {
        use rand::{Rng, SeedableRng};
        let reference = |s: f64| Dur(s.ceil() as i64);
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            0.0,
            -0.0,
            1.0 - f64::EPSILON,
            two(52) + 0.5,
            two(53),
            two(53) + 2.0,
            two(63),
            1e19,
            f64::MAX,
        ];
        for s in edges {
            assert_eq!(Dur::from_secs_f64_ceil(s), reference(s), "{s:e}");
        }
        // Non-negative finite bit patterns: sign bit clear, exponent below
        // the all-ones (infinity / NaN) one.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xCE11);
        for _ in 0..5_000_000 {
            let s = f64::from_bits(rng.gen_range(0..0x7FF0_0000_0000_0000u64));
            assert_eq!(Dur::from_secs_f64_ceil(s), reference(s), "{s:e}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ceil_rejects_negative() {
        let _ = Dur::from_secs_f64_ceil(-1.0);
    }

    #[test]
    fn midpoint_is_between() {
        let a = Time::seconds(10);
        let b = Time::seconds(21);
        let m = a.midpoint(b);
        assert!(a <= m && m <= b);
        assert_eq!(m, Time::seconds(15));
        // Degenerate case.
        assert_eq!(a.midpoint(a), a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dur::seconds(5).to_string(), "5s");
        assert_eq!(Dur::seconds(65).to_string(), "1m05s");
        assert_eq!(Dur::hours(25).to_string(), "25h00m00s");
        assert_eq!((-Dur::seconds(61)).to_string(), "-1m01s");
    }

    #[test]
    fn sentinels_survive_modest_arithmetic() {
        // Adding a week to MAX must not overflow i64.
        let _ = Time::MAX + Dur::days(7);
        let _ = Time::MIN - Dur::days(7);
    }

    #[test]
    fn unit_conversions() {
        assert!((Dur::hours(1).as_hours() - 1.0).abs() < 1e-12);
        assert!((Dur::days(2).as_days() - 2.0).abs() < 1e-12);
        assert!((Time::seconds(7200).as_hours() - 2.0).abs() < 1e-12);
    }
}
