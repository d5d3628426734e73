//! The moldable (data-parallel) task model.
//!
//! Following the paper (§3.1), each DAG vertex is a data-parallel task that
//! can run on any number of processors `1..=p`, with execution time given by
//! Amdahl's law: a fraction `alpha` of the work is sequential, the rest
//! scales perfectly:
//!
//! ```text
//! t(m) = T * (alpha + (1 - alpha) / m)
//! ```
//!
//! where `T` is the sequential execution time. Communication between tasks is
//! not modeled separately — each task runs in its own reservation and data is
//! staged through files, an overhead folded into `alpha` (paper §3.1).

use crate::forward::TieBreak;
use resched_resv::Dur;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cost model of a single moldable task: sequential time plus Amdahl
/// sequential fraction, optionally with a per-processor coordination
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskCost {
    /// Sequential (1-processor) execution time.
    pub seq: Dur,
    /// Non-parallelizable fraction, in `[0, 1]`.
    pub alpha: f64,
    /// Coordination overhead added per extra processor (`(m-1) ×
    /// overhead`). The paper folds all communication into `alpha`
    /// (overhead 0, the default); a positive overhead yields the richer
    /// model of the mixed-parallel literature where execution time
    /// eventually *grows* again with `m`.
    #[serde(default)]
    pub overhead: Dur,
}

impl TaskCost {
    /// Build a task cost with the paper's pure-Amdahl model.
    ///
    /// # Panics
    /// Panics if `seq` is not positive or `alpha` is outside `[0, 1]`.
    pub fn new(seq: Dur, alpha: f64) -> TaskCost {
        TaskCost::with_overhead(seq, alpha, Dur::ZERO)
    }

    /// Build a task cost with a per-processor coordination overhead.
    ///
    /// # Panics
    /// Panics where [`TaskCost::try_new`] returns an error.
    pub fn with_overhead(seq: Dur, alpha: f64, overhead: Dur) -> TaskCost {
        TaskCost::try_new(seq, alpha, overhead).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one statement of what a task cost may hold: `seq` positive,
    /// `alpha` within `[0, 1]` (never NaN) and `overhead` non-negative.
    /// Anything else makes [`TaskCost::exec_time`] meaningless, or negative.
    pub fn try_new(seq: Dur, alpha: f64, overhead: Dur) -> Result<TaskCost, TaskCostError> {
        if !seq.is_positive() {
            return Err(TaskCostError::Seq(seq));
        }
        if !(0.0..=1.0).contains(&alpha) {
            return Err(TaskCostError::Alpha(alpha));
        }
        if overhead.is_negative() {
            return Err(TaskCostError::Overhead(overhead));
        }
        Ok(TaskCost {
            seq,
            alpha,
            overhead,
        })
    }

    /// Execution time on `m` processors, rounded up to a whole second.
    ///
    /// Rounding up guarantees a reservation sized with this value always
    /// contains the modeled execution. With zero overhead (the paper's
    /// model) the result is monotonically non-increasing in `m`; with a
    /// positive overhead it is U-shaped, and the schedulers' `m`-scans
    /// handle that correctly (their shared candidate list elides only the
    /// widths that a narrower, no longer one dominates).
    ///
    /// ## Rounding policy
    ///
    /// This is the **single** place the continuous Amdahl model meets the
    /// integer-second calendar, and every layer agrees on its output:
    ///
    /// * the real-valued `t = T·(α + (1-α)/m) + o·(m-1)` is rounded **up**
    ///   (`ceil`), never to-nearest: an exact half-step like `t = 500.5`
    ///   becomes 501 s, and already-integral values stay put;
    /// * the result is clamped to at least one second, so degenerate
    ///   widths never produce empty (zero-length) reservations;
    /// * schedulers size placements as exactly `end = start + exec_time(m)`
    ///   — no scheduler re-rounds, pads, or truncates — and the
    ///   [`validate`](crate::validate) oracle enforces *equality* between
    ///   the placed duration and this function, not merely "long enough".
    ///
    /// The ceil happens once, on the final sum: summing pre-rounded terms
    /// (e.g. rounding the overhead separately) would over-reserve by up to
    /// one second per term and break the oracle's equality check.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[inline]
    pub fn exec_time(&self, m: u32) -> Dur {
        assert!(m > 0, "a task needs at least one processor");
        let t = self.seq.as_seconds() as f64 * (self.alpha + (1.0 - self.alpha) / m as f64)
            + self.overhead.as_seconds() as f64 * (m - 1) as f64;
        // Clamp to at least one second: a zero-length reservation is
        // meaningless to a batch scheduler.
        Dur::from_secs_f64_ceil(t).max(Dur::seconds(1))
    }

    /// Work area `m * t(m)` on `m` processors, in processor-seconds.
    ///
    /// By Amdahl's law this is non-decreasing in `m`: parallelism never
    /// reduces total resource consumption.
    pub fn work(&self, m: u32) -> i64 {
        m as i64 * self.exec_time(m).as_seconds()
    }

    /// The relative execution-time reduction from granting one more
    /// processor: `(t(m) - t(m+1)) / t(m)`.
    ///
    /// This is the gain CPA's allocation phase maximizes over critical-path
    /// tasks (paper §4.2: "the task on the critical path whose execution
    /// time would be reduced the most (relatively) when given an extra
    /// processor").
    pub fn marginal_gain(&self, m: u32) -> f64 {
        relative_gain(self.exec_time(m), self.exec_time(m + 1))
    }
}

/// The field of a [`TaskCost`] that breaks the rule of
/// [`TaskCost::try_new`], with the value it held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskCostError {
    /// `seq` is zero or negative.
    Seq(Dur),
    /// `alpha` is outside `[0, 1]`, or NaN.
    Alpha(f64),
    /// `overhead` is negative.
    Overhead(Dur),
}

impl fmt::Display for TaskCostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskCostError::Seq(seq) => write!(f, "seq (sequential time) must be positive: {seq}"),
            TaskCostError::Alpha(alpha) => write!(f, "alpha must be within [0, 1]: {alpha}"),
            TaskCostError::Overhead(o) => write!(f, "overhead must be non-negative: {o}"),
        }
    }
}

impl std::error::Error for TaskCostError {}

/// One task's width candidates, in scan order: `(m, exec_time(m))` over the
/// multiples of the grain, minus the *dominated* widths — those no shorter
/// than some narrower candidate (than the running minimum of the duration).
/// Where ties go to the widest ([`TieBreak::MostProcs`]) a width exactly as
/// short as the running minimum stays. Under the paper's zero-overhead model
/// `exec_time` never rises with `m`, so this is plain plateau elision; with
/// a per-processor overhead it also drops the rising arm of the U.
///
/// Both directions scan this one list, and for both leaving a dominated
/// width out is exact:
///
/// * *forward* (earliest completion): every instant with `m′ > m`
///   processors free has `m` free, so the dominated width starts no
///   earlier than the narrower one that dominates it, runs at least as
///   long, and so completes no earlier — and loses the tie;
/// * *backward* (first latest fit past a threshold, else the latest start,
///   ties to the narrower): for the same reason it never starts later than
///   the narrower one, so it is never the first past the threshold and
///   never the strictly latest start.
///
/// Grown only as far as some scan reads, so a task whose scans stop at
/// `m = 1` never evaluates `m = p`.
#[derive(Debug, Default)]
pub(crate) struct Widths {
    candidates: Vec<(u32, Dur)>,
    /// How many multiples of the grain have been evaluated.
    evaluated: u32,
    tie: TieBreak,
}

impl Widths {
    /// An empty list for a scan that breaks ties by `tie`.
    pub(crate) fn for_tie(tie: TieBreak) -> Widths {
        Widths {
            tie,
            ..Widths::default()
        }
    }

    /// The tie rule the list is grown for.
    pub(crate) fn tie(&self) -> TieBreak {
        self.tie
    }

    /// Evaluate the next multiple of the grain, if it is no wider than
    /// `bound`.
    #[inline]
    fn grow(&mut self, cost: &TaskCost, grain: u32, bound: u32) -> bool {
        let m = (self.evaluated + 1) * grain;
        if m > bound {
            return false;
        }
        self.evaluated += 1;
        let dur = cost.exec_time(m);
        let kept = self.candidates.last().is_none_or(|&(_, shortest)| {
            dur < shortest || (dur == shortest && self.tie == TieBreak::MostProcs)
        });
        if kept {
            self.candidates.push((m, dur));
        }
        true
    }

    /// Candidates `from..from + len` of the list over the widths up to
    /// `bound` — fewer, or none, where the list ends first — evaluating
    /// widths only as far as that takes.
    pub(crate) fn range(
        &mut self,
        from: usize,
        len: usize,
        cost: &TaskCost,
        grain: u32,
        bound: u32,
    ) -> &[(u32, Dur)] {
        while self.candidates.len() < from + len && self.grow(cost, grain, bound) {}
        let until = self.candidates.len().min(from + len);
        self.candidates.get(from..until).unwrap_or_default()
    }

    /// Every candidate no wider than `bound`, narrowest first.
    pub(crate) fn up_to(&mut self, cost: &TaskCost, grain: u32, bound: u32) -> &[(u32, Dur)] {
        while self.grow(cost, grain, bound) {}
        let n = self.candidates.partition_point(|&(m, _)| m <= bound);
        self.candidates.get(..n).unwrap_or_default()
    }

    /// Start over for another task: every candidate of `cost` no wider
    /// than `bound`, narrowest first.
    pub(crate) fn refill(&mut self, cost: &TaskCost, grain: u32, bound: u32) -> &[(u32, Dur)] {
        self.candidates.clear();
        self.evaluated = 0;
        self.up_to(cost, grain, bound)
    }

    /// How many widths have been evaluated so far.
    #[cfg(test)]
    pub(crate) fn evaluated(&self) -> u32 {
        self.evaluated
    }
}

/// [`TaskCost::marginal_gain`] from the two execution times it divides,
/// for a loop that already holds them.
#[inline]
pub(crate) fn relative_gain(t_m: Dur, t_m1: Dur) -> f64 {
    let t_m = t_m.as_seconds() as f64;
    (t_m - t_m1.as_seconds() as f64) / t_m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(seq_s: i64, alpha: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(seq_s), alpha)
    }

    #[test]
    fn fully_parallel_task_scales_linearly() {
        let t = c(1000, 0.0);
        assert_eq!(t.exec_time(1), Dur::seconds(1000));
        assert_eq!(t.exec_time(2), Dur::seconds(500));
        assert_eq!(t.exec_time(10), Dur::seconds(100));
        assert_eq!(t.exec_time(1000), Dur::seconds(1));
    }

    #[test]
    fn fully_sequential_task_never_scales() {
        let t = c(1000, 1.0);
        for m in [1u32, 2, 7, 100] {
            assert_eq!(t.exec_time(m), Dur::seconds(1000));
        }
    }

    #[test]
    fn amdahl_formula_matches() {
        let t = c(3600, 0.2);
        // 3600 * (0.2 + 0.8/4) = 3600 * 0.4 = 1440
        assert_eq!(t.exec_time(4), Dur::seconds(1440));
        // Asymptote: 3600 * 0.2 = 720 (plus ceil)
        assert_eq!(t.exec_time(100_000), Dur::seconds(721));
    }

    #[test]
    fn rounding_policy_pins_half_steps() {
        // Exact half-steps round up, never to-nearest-even.
        let t = c(1001, 0.0);
        assert_eq!(t.exec_time(2), Dur::seconds(501)); // 500.5 -> 501
        let t = c(999, 0.0);
        assert_eq!(t.exec_time(2), Dur::seconds(500)); // 499.5 -> 500
                                                       // Already-integral values stay put (no +1 drift from ceil).
        let t = c(1000, 0.0);
        assert_eq!(t.exec_time(2), Dur::seconds(500));
        assert_eq!(t.exec_time(4), Dur::seconds(250));
        // Fractional alpha: 100 * (0.33 + 0.67/3) = 55.333... -> 56.
        let t = c(100, 0.33);
        assert_eq!(t.exec_time(3), Dur::seconds(56));
        // One ceil on the final sum, not one per term:
        // 101 * (0.5 + 0.5/2) = 50.5 + 25.25 = 75.75 -> 76, whereas
        // rounding the sequential and parallel parts separately would
        // give ceil(50.5) + ceil(25.25) = 77.
        let t = c(101, 0.5);
        assert_eq!(t.exec_time(2), Dur::seconds(76));
    }

    #[test]
    fn exec_time_monotone_nonincreasing() {
        let t = c(7231, 0.13);
        let mut prev = t.exec_time(1);
        for m in 2..=512 {
            let cur = t.exec_time(m);
            assert!(cur <= prev, "exec time increased at m={m}");
            prev = cur;
        }
    }

    #[test]
    fn work_monotone_nondecreasing() {
        let t = c(7231, 0.13);
        let mut prev = t.work(1);
        for m in 2..=512 {
            let cur = t.work(m);
            assert!(cur >= prev, "work decreased at m={m}");
            prev = cur;
        }
    }

    #[test]
    fn exec_time_never_below_one_second() {
        let t = c(1, 0.0);
        assert_eq!(t.exec_time(64), Dur::seconds(1));
    }

    #[test]
    fn marginal_gain_diminishes() {
        let t = c(100_000, 0.05);
        assert!(t.marginal_gain(1) > t.marginal_gain(4));
        assert!(t.marginal_gain(4) > t.marginal_gain(32));
        assert!(t.marginal_gain(1) > 0.0);
    }

    #[test]
    fn overhead_makes_exec_time_u_shaped() {
        let t = TaskCost::with_overhead(Dur::seconds(10_000), 0.0, Dur::seconds(20));
        // Small m: parallelism wins. Large m: overhead dominates.
        assert!(t.exec_time(4) < t.exec_time(1));
        assert!(t.exec_time(64) > t.exec_time(16));
        let best = fastest_width(&t, 128);
        assert!(
            best > 1 && best < 128,
            "U-shape minimum interior, got {best}"
        );
        // The minimum of T/m + o(m-1) is near sqrt(T/o) ~ 22.
        assert!((10..=40).contains(&best), "minimum at {best}");
    }

    /// The narrowest width in `1..=cap` with the shortest `exec_time`.
    fn fastest_width(t: &TaskCost, cap: u32) -> u32 {
        (1..=cap).min_by_key(|&m| (t.exec_time(m), m)).unwrap_or(1)
    }

    #[test]
    fn zero_overhead_best_procs_is_cap_for_parallel_tasks() {
        let t = c(100_000, 0.0);
        assert_eq!(fastest_width(&t, 32), 32);
        let seq = c(100_000, 1.0);
        assert_eq!(fastest_width(&seq, 32), 1); // ties resolve to fewest
    }

    #[test]
    #[should_panic(expected = "overhead")]
    fn rejects_negative_overhead() {
        let _ = TaskCost::with_overhead(Dur::seconds(10), 0.1, Dur::seconds(-1));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = c(100, 1.5);
    }

    #[test]
    fn try_new_names_the_field_it_refuses() {
        let (s, o) = (Dur::seconds(100), Dur::ZERO);
        assert_eq!(
            TaskCost::try_new(Dur::seconds(-5), 0.1, o),
            Err(TaskCostError::Seq(Dur::seconds(-5)))
        );
        assert_eq!(
            TaskCost::try_new(Dur::ZERO, 0.1, o),
            Err(TaskCostError::Seq(Dur::ZERO))
        );
        assert_eq!(TaskCost::try_new(s, 3.5, o), Err(TaskCostError::Alpha(3.5)));
        assert!(matches!(
            TaskCost::try_new(s, f64::NAN, o),
            Err(TaskCostError::Alpha(a)) if a.is_nan()
        ));
        let negative = Dur::seconds(-1);
        assert_eq!(
            TaskCost::try_new(s, 0.1, negative),
            Err(TaskCostError::Overhead(negative))
        );
        assert_eq!(TaskCost::try_new(s, 1.0, o), Ok(c(100, 1.0)));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_zero_procs() {
        let _ = c(100, 0.5).exec_time(0);
    }
}
