//! The slot walk: the calendar's one query engine.
//!
//! Production batch schedulers (OAR and its Rust rewrite among them) keep
//! availability as a sorted list of time intervals ("slots"), and a query
//! walks the slots that intersect its window: earliest-fit and latest-fit
//! run in `O(log S + k)` where `k` is the number of slots actually
//! inspected. The calendar's canonical breakpoint vector (see
//! [`crate::calendar`]) already *is* that list — slot `i` is the half-open
//! interval between breakpoints `i` and `i + 1`, carrying
//! `steps[i].used` — so the walk reads the breakpoints directly through
//! the borrowed [`Slots`] view. Nothing is derived, cached or repaired:
//! a mutation edits the breakpoints and the next query sees them.
//!
//! What the canonical form of the breakpoints guarantees about the slots:
//!
//! * slots are contiguous and adjacent slots differ in `used`;
//! * the first and last slots are never idle (the first breakpoint has
//!   `used != 0`, and so does the segment before the last one);
//! * interior idle slots are legal — they are the holes between busy
//!   periods;
//! * outside the covered span every processor is free (implicitly).

use crate::calendar::{NoFit, Step};
use crate::time::{Dur, Time};

/// One slot: `used` processors busy throughout `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Start of the slot (inclusive).
    start: Time,
    /// End of the slot (exclusive).
    end: Time,
    /// Processors in use throughout the slot.
    used: u32,
}

/// The slot list of a `capacity`-processor calendar, read straight off its
/// breakpoint vector. See the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slots<'a> {
    pub(crate) capacity: u32,
    pub(crate) steps: &'a [Step],
}

impl<'a> Slots<'a> {
    /// Slot `i`, or `None` past the covered span.
    fn get(self, i: usize) -> Option<Slot> {
        let (a, b) = (self.steps.get(i)?, self.steps.get(i + 1)?);
        Some(Slot {
            start: a.time,
            end: b.time,
            used: a.used,
        })
    }

    /// Index of the first slot ending after `t` — the `O(log S)`
    /// positioning search every walk starts from. Past the covered span it
    /// names no slot.
    fn first_ending_after(self, t: Time) -> usize {
        self.steps
            .partition_point(|s| s.time <= t)
            .saturating_sub(1)
    }

    /// The slots intersecting `[from, to)`, in order.
    fn intersecting(self, from: Time, to: Time) -> impl Iterator<Item = Slot> + 'a {
        (self.first_ending_after(from)..)
            .map_while(move |i| self.get(i))
            .take_while(move |s| s.start < to)
    }

    /// Earliest start `s >= not_before` with `procs` processors free
    /// throughout `[s, s + dur)`. Positions on the first slot ending after
    /// the candidate start, then walks forward restarting past each
    /// blocking slot; `visited` counts slots inspected.
    pub(crate) fn earliest_fit(
        self,
        procs: u32,
        dur: Dur,
        not_before: Time,
        visited: &mut u64,
    ) -> Time {
        assert!(procs > 0 && procs <= self.capacity, "bad procs {procs}");
        assert!(dur.is_positive(), "bad duration {dur}");
        let max_used = self.capacity - procs;
        // The positioning search is real work: count it as one step so a
        // query that inspects no slot still reports nonzero cost
        // (ScheduleStats promises `slot_queries > 0 ⇒ slot_steps > 0`).
        *visited += 1;
        let mut c = not_before;
        let mut i = self.first_ending_after(c);
        // Past the covered span everything from `c` on is free; so is a
        // window that completes before the next covered slot.
        while let Some(s) = self.get(i).filter(|s| s.start < c + dur) {
            *visited += 1;
            if s.used > max_used {
                // Blocked: the window cannot start before this slot drains.
                c = s.end;
            }
            i += 1;
        }
        c
    }

    /// Latest start `s` with `s + dur <= end_by`, `s >= not_before`, and
    /// `procs` processors free throughout. Positions once on the last slot
    /// starting before `end_by`, then walks backward; a blocking slot moves
    /// the window to end where it starts and the walk carries on from the
    /// slot before it. `visited` counts slots inspected.
    ///
    /// A failed probe has seen every run of `procs` free processors inside
    /// `[not_before, end_by)`: the gaps between the blockers it restarted
    /// at, and the remainder below the last one (too short to hold `dur`,
    /// so never entered). The longest of them is what [`NoFit`] carries.
    pub(crate) fn latest_fit(
        self,
        procs: u32,
        dur: Dur,
        end_by: Time,
        not_before: Time,
        visited: &mut u64,
    ) -> Result<Time, NoFit> {
        assert!(procs > 0 && procs <= self.capacity, "bad procs {procs}");
        assert!(dur.is_positive(), "bad duration {dur}");
        let max_used = self.capacity - procs;
        // Positioning step, as in `earliest_fit`.
        *visited += 1;
        // The window under test is `[e - dur, e)`.
        let mut e = end_by;
        let mut longest_run = Dur::ZERO;
        let no_fit = |e: Time, longest_run: Dur| NoFit {
            longest_run: longest_run.max(e - not_before),
        };
        if e - dur < not_before {
            return Err(no_fit(e, longest_run));
        }
        // Slot `k` starts at breakpoint `k` (the last breakpoint starts no
        // slot), so `k` counts the slots starting before `end_by`.
        let mut k = self
            .steps
            .partition_point(|b| b.time < end_by)
            .min(self.steps.len().saturating_sub(1));
        while let Some(slot) = k.checked_sub(1).and_then(|last| self.get(last)) {
            *visited += 1;
            if slot.end <= e - dur {
                break; // everything earlier lies before the window
            }
            if slot.used > max_used {
                // Blocked: the free run `[slot.end, e)` is too short, and
                // the window must end where this slot starts.
                longest_run = longest_run.max(e - slot.end);
                e = slot.start;
                if e - dur < not_before {
                    return Err(no_fit(e, longest_run));
                }
            }
            k -= 1;
        }
        Ok(e - dur)
    }

    /// Peak processors in use over `[from, to)`. Implicitly-free time
    /// outside the covered span contributes 0.
    pub(crate) fn peak_used(self, from: Time, to: Time) -> u32 {
        assert!(from < to, "empty window");
        self.intersecting(from, to)
            .map(|s| s.used)
            .max()
            .unwrap_or(0)
    }

    /// Integral of processors-in-use over `[from, to)`, in
    /// processor-seconds.
    pub(crate) fn used_integral(self, from: Time, to: Time) -> i64 {
        assert!(from <= to);
        self.intersecting(from, to)
            .map(|s| i64::from(s.used) * (s.end.min(to) - s.start.max(from)).as_seconds())
            .sum()
    }

    /// First instant in `[from, to)` where fewer than `procs` processors
    /// are free, with the free count there — the conflict probe behind
    /// `try_add` / `fits`. The conflict instant is the later of the
    /// blocking slot's start and `from`. Saturating: an over-capacity slot
    /// (only a hand-built calendar under audit has one) has nothing free.
    pub(crate) fn first_conflict(self, from: Time, to: Time, procs: u32) -> Option<(Time, u32)> {
        self.intersecting(from, to)
            .map(|s| (s.start.max(from), self.capacity.saturating_sub(s.used)))
            .find(|&(_, free)| free < procs)
    }

    /// First instant in `[from, to)` where fewer than `procs` processors
    /// are in use, with the usage there — the removal-validity scan behind
    /// `try_remove` / `try_resize`. One forward pass: the slots over the
    /// window are contiguous, so wherever the next slot does not pick up at
    /// the cursor the calendar is idle.
    pub(crate) fn first_under(self, from: Time, to: Time, procs: u32) -> Option<(Time, u32)> {
        let mut t = from;
        let mut i = self.first_ending_after(from);
        while t < to {
            let covering = self.get(i).filter(|s| s.start <= t);
            let used = covering.map_or(0, |s| s.used);
            if used < procs {
                return Some((t, used));
            }
            t = covering?.end;
            i += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Calendar;
    use crate::reservation::Reservation;

    fn t(s: i64) -> Time {
        Time::seconds(s)
    }
    fn d(s: i64) -> Dur {
        Dur::seconds(s)
    }
    fn step(s: i64, used: u32) -> Step {
        Step { time: t(s), used }
    }
    fn slot(start: i64, end: i64, used: u32) -> Slot {
        Slot {
            start: t(start),
            end: t(end),
            used,
        }
    }
    fn slots(capacity: u32, steps: &[Step]) -> Slots<'_> {
        Slots { capacity, steps }
    }
    fn all(ss: Slots<'_>) -> Vec<Slot> {
        (0..).map_while(|i| ss.get(i)).collect()
    }
    /// The breakpoint vector of a calendar, read back through its public
    /// surface: what the walk sees after a mutation.
    fn steps_of(cal: &Calendar) -> Vec<Step> {
        cal.breakpoints()
            .map(|time| Step {
                time,
                used: cal.used_at(time),
            })
            .collect()
    }
    fn bump(cal: &mut Calendar, start: i64, end: i64, delta_used: i64) {
        let r = Reservation::new(t(start), t(end), delta_used.unsigned_abs() as u32);
        if delta_used > 0 {
            cal.try_add(r).unwrap();
        } else {
            cal.try_remove(r).unwrap();
        }
    }

    #[test]
    fn build_is_the_segment_dual() {
        let steps = [step(10, 3), step(20, 0), step(30, 8), step(40, 0)];
        assert_eq!(
            all(slots(8, &steps)),
            vec![
                slot(10, 20, 3),
                slot(20, 30, 0), // interior hole
                slot(30, 40, 8),
            ]
        );
        // The last breakpoint starts no slot; neither does a lone one.
        assert_eq!(all(slots(8, &steps[3..])), vec![]);
        assert_eq!(all(slots(8, &[])), vec![]);
    }

    #[test]
    fn bump_splits_merges_and_trims() {
        // Start empty, add [10,20)x3 on an 8-proc platform.
        let mut cal = Calendar::new(8);
        bump(&mut cal, 10, 20, 3);
        assert_eq!(steps_of(&cal), [step(10, 3), step(20, 0)]);
        // Overlapping add splits interior.
        bump(&mut cal, 15, 30, 2);
        assert_eq!(
            steps_of(&cal),
            [step(10, 3), step(15, 5), step(20, 2), step(30, 0)]
        );
        // Removing the first restores a pure [15,30) picture, with the
        // leading slot trimmed.
        bump(&mut cal, 10, 20, -3);
        assert_eq!(steps_of(&cal), [step(15, 2), step(30, 0)]);
        // And removing the second empties the calendar entirely.
        bump(&mut cal, 15, 30, -2);
        assert_eq!(steps_of(&cal), []);
    }

    #[test]
    fn bump_merges_equal_seams() {
        let mut cal = Calendar::new(4);
        bump(&mut cal, 0, 10, 2);
        bump(&mut cal, 10, 20, 2); // abutting, equal level: one slot
        assert_eq!(steps_of(&cal), [step(0, 2), step(20, 0)]);
        // A disjoint later add leaves an interior idle hole.
        bump(&mut cal, 30, 40, 4);
        assert_eq!(
            steps_of(&cal),
            [step(0, 2), step(20, 0), step(30, 4), step(40, 0)]
        );
        assert_eq!(all(slots(4, &steps_of(&cal))).len(), 3);
    }

    #[test]
    fn earliest_fit_walks_and_restarts() {
        let steps = [step(0, 4), step(10, 0), step(20, 4), step(30, 0)];
        let ss = slots(4, &steps);
        // The hole [10,20) takes a 10s window exactly: one positioning
        // step, the blocker, the hole.
        let mut v = 0;
        assert_eq!(ss.earliest_fit(4, d(10), t(0), &mut v), t(10));
        assert_eq!(v, 3);
        // An 11s window must wait for the drain: all three slots.
        let mut v = 0;
        assert_eq!(ss.earliest_fit(4, d(11), t(0), &mut v), t(30));
        assert_eq!(v, 4);
        // Past the span everything is free: the positioning step alone.
        let mut v = 0;
        assert_eq!(ss.earliest_fit(1, d(5), t(100), &mut v), t(100));
        assert_eq!(v, 1);
    }

    #[test]
    fn latest_fit_walks_backward() {
        let steps = [step(0, 2), step(10, 0), step(20, 2), step(30, 0)];
        let ss = slots(2, &steps);
        // Blocked by [20,30), then the hole and the slot before it (which
        // ends at the window start and stops the walk).
        let mut v = 0;
        assert_eq!(ss.latest_fit(2, d(10), t(30), t(0), &mut v), Ok(t(10)));
        assert_eq!(v, 4);
        let mut v = 0;
        // No fit: the hole [10, 20) is the longest free run it saw.
        assert_eq!(
            ss.latest_fit(2, d(11), t(30), t(0), &mut v),
            Err(NoFit { longest_run: d(10) })
        );
        assert!(v > 0);
        // Past the span: the last slot ends before the window.
        let mut v = 0;
        assert_eq!(ss.latest_fit(1, d(5), t(100), t(0), &mut v), Ok(t(95)));
        assert_eq!(v, 2);
    }

    /// The backward walk as it was before it positioned once: a fresh
    /// `partition_point` for the window end after every blocker. Kept here
    /// as the reference the one-walk answers and `visited` counts are
    /// pinned to.
    fn latest_fit_by_repeated_search(
        ss: Slots<'_>,
        procs: u32,
        dur: Dur,
        end_by: Time,
        not_before: Time,
        visited: &mut u64,
    ) -> Option<Time> {
        let max_used = ss.capacity - procs;
        *visited += 1;
        let mut e = end_by;
        loop {
            let s = e - dur;
            if s < not_before {
                return None;
            }
            let mut k = ss
                .steps
                .partition_point(|b| b.time < e)
                .min(ss.steps.len().saturating_sub(1));
            let blocker = loop {
                let Some(slot) = k.checked_sub(1).and_then(|last| ss.get(last)) else {
                    break None;
                };
                *visited += 1;
                if slot.end <= s {
                    break None;
                }
                if slot.used > max_used {
                    break Some(slot);
                }
                k -= 1;
            };
            match blocker {
                None => return Some(s),
                Some(b) => e = b.start,
            }
        }
    }

    /// A seeded 8-processor calendar of `n` accepted-or-dropped random
    /// reservations over `[0, 400)`, with interior holes.
    fn seeded_calendar(seed: u64, n: usize) -> Calendar {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut cal = Calendar::new(8);
        for _ in 0..n {
            let start = rng.gen_range(0..380i64);
            let len = rng.gen_range(1..40i64);
            let procs = rng.gen_range(1..=8u32);
            let _ = cal.try_add(Reservation::new(t(start), t(start + len), procs));
        }
        cal
    }

    #[test]
    fn latest_fit_one_walk_matches_the_per_restart_search_and_bounds_its_failures() {
        for seed in 0..40u64 {
            let cal = seeded_calendar(seed, 4 + (seed as usize % 5) * 8);
            let steps = steps_of(&cal);
            let ss = slots(8, &steps);
            let horizon = steps.last().map_or(0, |b| b.time.as_seconds());
            // Window ends mid-slot, on every breakpoint, and past the span;
            // `not_before` before the span, inside it, and beyond the last
            // blocker.
            let mut ends: Vec<i64> = steps.iter().map(|b| b.time.as_seconds()).collect();
            ends.extend([3, 57, 111, 203, 333, horizon + 1, horizon + 50]);
            for &end_by in &ends {
                for not_before in [-20, 0, 41, 150, horizon - 1, horizon + 10] {
                    for procs in [1, 3, 5, 8] {
                        for dur in [1, 4, 9, 25, 70] {
                            let (mut v1, mut v2) = (0, 0);
                            let probe =
                                ss.latest_fit(procs, d(dur), t(end_by), t(not_before), &mut v1);
                            let got = probe.ok();
                            let want = latest_fit_by_repeated_search(
                                ss,
                                procs,
                                d(dur),
                                t(end_by),
                                t(not_before),
                                &mut v2,
                            );
                            let case = format!(
                                "seed {seed}: {procs} procs x {dur}s in [{not_before}, {end_by})"
                            );
                            assert_eq!(got, want, "{case}");
                            assert_eq!(v1, v2, "visited differs, {case}");
                            let lin = cal.linear();
                            assert_eq!(
                                got,
                                lin.latest_fit(procs, d(dur), t(end_by), t(not_before)),
                                "{case}"
                            );
                            // A failure's bound is below the probed duration
                            // and nothing one second longer fits the window.
                            if let Err(NoFit { longest_run }) = probe {
                                assert!(
                                    !longest_run.is_negative() && longest_run < d(dur),
                                    "bound {longest_run}, {case}"
                                );
                                assert_eq!(
                                    lin.latest_fit(
                                        procs,
                                        longest_run + d(1),
                                        t(end_by),
                                        t(not_before)
                                    ),
                                    None,
                                    "a run longer than the bound {longest_run} exists, {case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // the 1-proc plateau terms keep the area sums legible
    fn aggregates_and_conflicts() {
        let steps = [step(10, 3), step(20, 1), step(30, 0)];
        let ss = slots(4, &steps);
        assert_eq!(ss.peak_used(t(0), t(50)), 3);
        assert_eq!(ss.peak_used(t(25), t(50)), 1);
        assert_eq!(ss.peak_used(t(40), t(50)), 0);
        assert_eq!(ss.used_integral(t(0), t(50)), 3 * 10 + 1 * 10);
        assert_eq!(ss.used_integral(t(15), t(25)), 3 * 5 + 1 * 5);
        assert_eq!(ss.first_conflict(t(0), t(50), 2), Some((t(10), 1)));
        assert_eq!(ss.first_conflict(t(15), t(50), 2), Some((t(15), 1)));
        assert_eq!(ss.first_conflict(t(20), t(50), 2), None);
        assert_eq!(ss.first_conflict(t(0), t(10), 4), None);
    }

    #[test]
    fn over_capacity_slot_has_nothing_free() {
        // Only a hand-built (deserialized) calendar can be overbooked; the
        // audit reads it through the same walk. Usage is reported as
        // stored, the free count saturates at zero.
        let steps = [step(0, 9), step(10, 0)];
        let ss = slots(8, &steps);
        assert_eq!(ss.peak_used(t(0), t(10)), 9);
        assert_eq!(ss.used_integral(t(0), t(10)), 90);
        assert_eq!(ss.first_conflict(t(0), t(10), 1), Some((t(0), 0)));
        let mut v = 0;
        assert_eq!(ss.earliest_fit(1, d(5), t(0), &mut v), t(10));
    }

    #[test]
    fn capacity_edge_split_bump_merge_round_trip() {
        // Drive split/bump/merge through reservations that pin slots at
        // both arithmetic edges (nothing free and fully free) on a 4-proc
        // platform, checking the breakpoints after every mutation.
        let mut cal = Calendar::new(4);

        // Fill [100, 200) to capacity.
        bump(&mut cal, 100, 200, 4);
        assert_eq!(steps_of(&cal), [step(100, 4), step(200, 0)]);

        // Carve the middle back out: splits at both seams, interior slot
        // returns to fully free, while the flanks stay full.
        bump(&mut cal, 125, 175, -4);
        assert_eq!(
            steps_of(&cal),
            [step(100, 4), step(125, 0), step(175, 4), step(200, 0)]
        );

        // Refill exactly the hole: both seams must merge back into one
        // saturated slot.
        bump(&mut cal, 125, 175, 4);
        assert_eq!(steps_of(&cal), [step(100, 4), step(200, 0)]);

        // Stack a disjoint saturated reservation after a gap, then release
        // the first: the leading slot trims away, the gap with it.
        bump(&mut cal, 300, 400, 4);
        assert_eq!(
            steps_of(&cal),
            [step(100, 4), step(200, 0), step(300, 4), step(400, 0)]
        );
        bump(&mut cal, 100, 200, -4);
        assert_eq!(steps_of(&cal), [step(300, 4), step(400, 0)]);

        // Narrow down the edge ladder: 4 → 1 → 0 used.
        let wide = Reservation::new(t(300), t(400), 4);
        let narrow = Reservation::new(t(300), t(400), 1);
        cal.try_resize(wide, narrow).unwrap();
        assert_eq!(steps_of(&cal), [step(300, 1), step(400, 0)]);
        cal.try_remove(narrow).unwrap();
        assert_eq!(steps_of(&cal), []);
        assert_eq!(cal, Calendar::new(4));
    }

    #[test]
    fn empty_calendar_answers_at_the_query_bounds() {
        let ss = slots(8, &[]);
        let mut v = 0;
        assert_eq!(ss.earliest_fit(8, d(100), t(7), &mut v), t(7));
        // A query that inspects no slot still reports its positioning step
        // (`slot_queries > 0 ⇒ slot_steps > 0`).
        assert_eq!(v, 1);
        let mut v = 0;
        assert_eq!(ss.latest_fit(8, d(10), t(100), t(0), &mut v), Ok(t(90)));
        assert_eq!(v, 1);
        assert_eq!(
            ss.latest_fit(8, d(10), t(100), t(91), &mut v),
            Err(NoFit { longest_run: d(9) })
        );
        assert_eq!(ss.peak_used(t(0), t(100)), 0);
        assert_eq!(ss.used_integral(t(0), t(100)), 0);
        assert_eq!(ss.first_conflict(t(0), t(100), 8), None);
        assert_eq!(ss.first_under(t(0), t(100), 1), Some((t(0), 0)));
    }

    #[test]
    fn two_breakpoint_calendar_is_one_slot() {
        let steps = [step(10, 3), step(20, 0)];
        let ss = slots(4, &steps);
        assert_eq!(all(ss), vec![slot(10, 20, 3)]);
        let mut v = 0;
        assert_eq!(ss.earliest_fit(2, d(5), t(0), &mut v), t(0)); // ends before it
        assert_eq!(ss.earliest_fit(2, d(11), t(0), &mut v), t(20)); // must clear it
        assert_eq!(ss.earliest_fit(1, d(50), t(0), &mut v), t(0)); // fits beside it
        assert_eq!(ss.latest_fit(2, d(5), t(18), t(0), &mut v), Ok(t(5)));
        assert_eq!(ss.latest_fit(1, d(5), t(18), t(0), &mut v), Ok(t(13)));
        assert_eq!(ss.latest_fit(2, d(5), t(25), t(0), &mut v), Ok(t(20)));
        assert_eq!(ss.peak_used(t(0), t(30)), 3);
        assert_eq!(ss.used_integral(t(12), t(30)), 24);
        assert_eq!(ss.first_conflict(t(0), t(30), 2), Some((t(10), 1)));
        assert_eq!(ss.first_under(t(10), t(20), 3), None);
        assert_eq!(ss.first_under(t(10), t(20), 4), Some((t(10), 3)));
    }

    #[test]
    fn windows_outside_the_covered_span_see_an_idle_platform() {
        let steps = [step(100, 4), step(200, 2), step(300, 0)];
        let ss = slots(4, &steps);
        for (from, to) in [(0, 100), (0, 50), (300, 400), (350, 400)] {
            let (from, to) = (t(from), t(to));
            assert_eq!(ss.peak_used(from, to), 0);
            assert_eq!(ss.used_integral(from, to), 0);
            assert_eq!(ss.first_conflict(from, to, 4), None);
            assert_eq!(ss.first_under(from, to, 1), Some((from, 0)));
            let mut v = 0;
            assert_eq!(ss.earliest_fit(4, to - from, from, &mut v), from);
            assert_eq!(ss.latest_fit(4, to - from, to, from, &mut v), Ok(from));
        }
    }

    #[test]
    fn windows_abutting_a_busy_slot_do_not_touch_it() {
        let steps = [step(100, 4), step(200, 0)];
        let ss = slots(4, &steps);
        // Ending exactly where the busy slot starts, starting exactly
        // where it ends: both fit, and neither counts it as a conflict.
        let mut v = 0;
        assert_eq!(ss.earliest_fit(4, d(50), t(50), &mut v), t(50));
        assert_eq!(ss.earliest_fit(4, d(50), t(200), &mut v), t(200));
        assert_eq!(ss.latest_fit(4, d(50), t(100), t(0), &mut v), Ok(t(50)));
        assert_eq!(ss.latest_fit(4, d(50), t(250), t(200), &mut v), Ok(t(200)));
        assert_eq!(ss.first_conflict(t(50), t(100), 1), None);
        assert_eq!(ss.first_conflict(t(200), t(250), 1), None);
        assert_eq!(ss.peak_used(t(50), t(100)), 0);
        assert_eq!(ss.peak_used(t(200), t(250)), 0);
        // One second of overlap on either side is a conflict at the
        // overlap's first instant.
        assert_eq!(ss.first_conflict(t(50), t(101), 1), Some((t(100), 0)));
        assert_eq!(ss.first_conflict(t(199), t(250), 1), Some((t(199), 0)));
        // Starting on the busy breakpoint itself skips past the slot.
        assert_eq!(ss.earliest_fit(1, d(10), t(100), &mut v), t(200));
    }
}
