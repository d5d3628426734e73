//! The reservation calendar: a step function of processors-in-use over time,
//! with the slot queries every scheduling algorithm in the paper relies on.
//!
//! The calendar answers three questions:
//!
//! 1. *Earliest finish* — over a task's `<m, d>` candidates, the one whose
//!    earliest start `s >= not_before` with `m` processors free throughout
//!    `[s, s + d)` completes first (forward / RESSCHED scheduling, paper
//!    §4.2). [`Calendar::earliest_fit`] asks it of one candidate.
//! 2. *Latest start* — over a task's candidates, the one whose latest start
//!    `s` with `s + d <= end_by` and `m` processors free throughout starts
//!    latest, or the narrowest one that starts past a threshold (backward /
//!    RESSCHEDDL scheduling, §5.2).
//! 3. *Historical average availability* — the time-average number of free
//!    processors over a past window, the paper's estimate `q` used by the
//!    `*_CPAR` algorithm variants (§4.2).
//!
//! Representation: a sorted vector of breakpoints `(time, used)`; `used`
//! holds from that breakpoint until the next one. Usage before the first
//! breakpoint is 0, and the structural invariant that every reservation is
//! finite guarantees the last breakpoint's `used` is 0 as well.
//!
//! Queries walk the breakpoints directly (see [`crate::slotset`]): a binary
//! search to the window, then one pass over the slots that intersect it,
//! instead of the `O(R)` scan from the start of the calendar the paper's
//! cost model charges per placement attempt. There is no derived state —
//! the four fields of [`Calendar`] are all there is — so a mutation is
//! just an edit of the breakpoint vector. The original linear scans are
//! kept, publicly reachable through [`Calendar::linear`], as the
//! independently written reference that the validator, the calendar audit
//! and the differential tests compare against.

use crate::reservation::{Reservation, ReservationError};
use crate::slotset::Slots;
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// One breakpoint of the usage step function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Step {
    /// Instant at which `used` takes effect.
    pub(crate) time: Time,
    /// Processors in use over `[time, next.time)`.
    pub(crate) used: u32,
}

/// `from` plus how many of `steps[from..]` lie before `t`: the
/// `partition_point` of `time < t` over the breakpoints from `from` on,
/// found by galloping from `from` (probes at `from`, `from + 1`,
/// `from + 3`, `from + 7`, …, then a binary search within the last
/// doubling). A window over `k` breakpoints costs `O(log k)` probes however
/// long the calendar is, so the window queries the validator asks per
/// interval, which hold no breakpoint inside, pay one or two; a whole-span
/// query pays about twice a binary search. Every breakpoint before `from`
/// must lie before `t` for the answer to be the `partition_point` over
/// all of `steps`.
pub(crate) fn before_from(steps: &[Step], from: usize, t: Time) -> usize {
    let tail = steps.get(from..).unwrap_or_default();
    let mut reach = 1;
    while tail.get(reach - 1).is_some_and(|s| s.time < t) {
        reach *= 2;
    }
    // Everything below `reach / 2` lies before `t`; `tail[reach - 1]`, if
    // any, does not.
    let lower = reach / 2;
    let last = tail.get(lower..reach.min(tail.len())).unwrap_or_default();
    from + lower + last.partition_point(|s| s.time < t)
}

/// Work performed by calendar slot queries, for scheduler statistics.
///
/// `steps` counts the slots a query inspected plus one for the binary
/// search that positioned it (breakpoints visited, for the
/// [`Calendar::linear`] reference): "memory touches proportional to search
/// effort". A query is one positioned walk, however much it answers:
/// [`Calendar::earliest_finish`], [`Calendar::latest_start`] and
/// [`Calendar::narrowest_start_from`] each decide among all the widths
/// they are handed in one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryCost {
    /// Number of slot queries issued.
    pub queries: u64,
    /// Slots inspected, plus one positioning step per query.
    pub steps: u64,
}

impl QueryCost {
    /// Fold another cost tally into this one.
    pub fn absorb(&mut self, other: QueryCost) {
        self.queries += other.queries;
        self.steps += other.steps;
    }
}

/// A homogeneous platform of `capacity` processors plus the step function of
/// processors already promised to reservations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calendar {
    capacity: u32,
    steps: Vec<Step>,
    /// Total processor-seconds across all accepted reservations.
    reserved_proc_seconds: i64,
    /// Number of accepted reservations (the paper's `R`).
    num_reservations: usize,
}

impl Calendar {
    /// An empty calendar for a platform with `capacity` processors.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Calendar {
        assert!(capacity > 0, "a platform needs at least one processor");
        Calendar {
            capacity,
            steps: Vec::new(),
            reserved_proc_seconds: 0,
            num_reservations: 0,
        }
    }

    /// The linear-scan reference: identical results to the calendar's own
    /// queries from independently written `O(B)` scans. The validator, the
    /// calendar audit, the differential tests and the calendar-vs-linear
    /// benchmarks compare against it; no query on [`Calendar`] goes
    /// through it.
    pub fn linear(&self) -> LinearRef<'_> {
        LinearRef { cal: self }
    }

    /// The slot list the queries walk: a borrowed view of the breakpoints.
    fn slots(&self) -> Slots<'_> {
        Slots {
            capacity: self.capacity,
            steps: &self.steps,
        }
    }

    /// Build a calendar from a list of reservations in one sweep —
    /// `O(R log R)` total, versus the `O(R · B)` of adding one at a time
    /// (each [`Calendar::try_add`] pays `Vec::insert` on the breakpoint
    /// vector), which is what makes million-reservation calendars
    /// loadable. The result is byte-identical to adding the same
    /// reservations to [`Calendar::new`] one by one.
    ///
    /// Capacity is checked over the aggregate: the first instant where the
    /// running usage exceeds the platform reports a conflict against the
    /// usage level already accumulated there.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_reservations<I>(capacity: u32, resvs: I) -> Result<Calendar, ReservationError>
    where
        I: IntoIterator<Item = Reservation>,
    {
        let mut cal = Calendar::new(capacity);
        let resvs = resvs.into_iter();
        // Two deltas per reservation; `size_hint` is exact for the slice
        // and Vec iterators the loaders use, making this one allocation.
        let mut deltas: Vec<(Time, i64)> = Vec::with_capacity(resvs.size_hint().0 * 2);
        for r in resvs {
            // The fields are public (and deserialized): an empty or
            // inverted interval would drive the running usage negative.
            Reservation::checked(r.start, r.end, r.procs)?;
            if r.procs > capacity {
                return Err(ReservationError::ExceedsCapacity {
                    requested: r.procs,
                    capacity,
                });
            }
            deltas.push((r.start, r.procs as i64));
            deltas.push((r.end, -(r.procs as i64)));
            cal.reserved_proc_seconds += r.proc_seconds();
            cal.num_reservations += 1;
        }
        deltas.sort_unstable_by_key(|&(t, _)| t);
        // One breakpoint at most per distinct delta instant (zero-sum
        // instants coalesce away), so the sweep allocates once.
        let same_instant = |a: &(Time, i64), b: &(Time, i64)| a.0 == b.0;
        cal.steps
            .reserve_exact(deltas.chunk_by(same_instant).count());
        let mut used = 0i64;
        for run in deltas.chunk_by(same_instant) {
            let Some(&(t, _)) = run.first() else { continue };
            let before = used;
            used += run.iter().map(|&(_, d)| d).sum::<i64>();
            if used > capacity as i64 {
                return Err(ReservationError::Conflict {
                    at: t,
                    free: (capacity as i64 - before).max(0) as u32,
                    requested: (used - before).max(0) as u32,
                });
            }
            if used != before {
                cal.steps.push(Step {
                    time: t,
                    used: used as u32,
                });
            }
        }
        debug_assert!(cal.check_invariants());
        Ok(cal)
    }

    /// Make `self` identical to `src`, reusing the breakpoint buffer this
    /// calendar already owns instead of allocating a fresh one: the twin
    /// of `clone()` for a working calendar refilled many times inside one
    /// scheduling call (once per λ pass of the deadline sweep, once per
    /// candidate build of iCASLB's growth loop).
    pub fn copy_from(&mut self, src: &Calendar) {
        self.capacity = src.capacity;
        self.steps.clone_from(&src.steps);
        self.reserved_proc_seconds = src.reserved_proc_seconds;
        self.num_reservations = src.num_reservations;
    }

    /// Clear to an empty calendar of `capacity` processors, keeping the
    /// breakpoint buffer — the twin of [`Calendar::new`] for the CPA
    /// mapping phase's virtual platform, which the resource-conservative
    /// deadline algorithms empty and refill before every task decision.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn reset(&mut self, capacity: u32) {
        assert!(capacity > 0, "a platform needs at least one processor");
        self.capacity = capacity;
        self.steps.clear();
        self.reserved_proc_seconds = 0;
        self.num_reservations = 0;
    }

    /// Total number of processors on the platform (the paper's `p`).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of reservations accepted so far (the paper's `R`).
    pub fn num_reservations(&self) -> usize {
        self.num_reservations
    }

    /// Number of breakpoints in the step function.
    pub fn num_breakpoints(&self) -> usize {
        self.steps.len()
    }

    /// Total processor-seconds promised to reservations.
    pub fn reserved_proc_seconds(&self) -> i64 {
        self.reserved_proc_seconds
    }

    /// Processors in use at instant `t`.
    pub fn used_at(&self, t: Time) -> u32 {
        let after = self.steps.partition_point(|s| s.time <= t);
        after
            .checked_sub(1)
            .and_then(|i| self.steps.get(i))
            .map_or(0, |s| s.used)
    }

    /// Peak usage over `[from, to)`.
    pub fn peak_used(&self, from: Time, to: Time) -> u32 {
        self.slots().peak_used(from, to)
    }

    /// Insert a reservation, checking capacity throughout its interval.
    pub fn try_add(&mut self, r: Reservation) -> Result<(), ReservationError> {
        if r.procs > self.capacity {
            return Err(ReservationError::ExceedsCapacity {
                requested: r.procs,
                capacity: self.capacity,
            });
        }
        if let Some((at, free)) = self.slots().first_conflict(r.start, r.end, r.procs) {
            return Err(ReservationError::Conflict {
                at,
                free,
                requested: r.procs,
            });
        }
        self.add_unchecked(r);
        Ok(())
    }

    /// Insert a reservation that is already known to fit.
    ///
    /// # Panics
    /// Panics — in **all** build profiles — if the reservation overbooks
    /// the platform. Silent wrap-around would corrupt the step function in
    /// release builds; the panic keeps the invariant observable. Use
    /// [`Calendar::try_add`] for the fallible path.
    pub fn add_unchecked(&mut self, r: Reservation) {
        assert!(
            r.procs <= self.capacity,
            "reservation for {} procs on a {}-proc platform",
            r.procs,
            self.capacity
        );
        // Ensure breakpoints exist at r.start and r.end, then bump `used`
        // on every step in [start_idx, end_idx).
        let start_idx = self.ensure_breakpoint(r.start);
        let end_idx = self.ensure_breakpoint(r.end);
        for s in &mut self.steps[start_idx..end_idx] {
            s.used = s
                .used
                .checked_add(r.procs)
                .filter(|&u| u <= self.capacity)
                .unwrap_or_else(|| {
                    // lint:allow(panic): the caller promised the reservation fits; proceeding would silently overbook the platform in release builds.
                    panic!(
                        "overbooked: {} + {} used > {} capacity at {}",
                        s.used, r.procs, self.capacity, s.time
                    )
                });
        }
        self.coalesce_around(start_idx, end_idx);
        self.reserved_proc_seconds += r.proc_seconds();
        self.num_reservations += 1;
    }

    /// Whether `r` fits the calendar as-is (capacity respected throughout
    /// its interval): the read-only twin of [`Calendar::try_add`], which
    /// this crate's tests probe with.
    #[cfg(test)]
    pub(crate) fn fits(&self, r: &Reservation) -> bool {
        if r.procs > self.capacity {
            return false;
        }
        self.slots()
            .first_conflict(r.start, r.end, r.procs)
            .is_none()
    }

    /// Cancel a previously accepted reservation, checking that `r.procs`
    /// processors are actually in use throughout `[r.start, r.end)` first.
    ///
    /// The calendar does not track reservation identity — a removal is
    /// valid whenever the step function can absorb it, exactly as in the
    /// paper's model where the platform only sees aggregate usage. On
    /// error the calendar is untouched.
    pub fn try_remove(&mut self, r: Reservation) -> Result<(), ReservationError> {
        if let Some((at, used)) = self.slots().first_under(r.start, r.end, r.procs) {
            return Err(ReservationError::NotReserved {
                at,
                used,
                requested: r.procs,
            });
        }
        // Cannot fail after the scan above; if it did, nothing changed.
        self.release(r)
            .map_err(|(at, used)| ReservationError::NotReserved {
                at,
                used,
                requested: r.procs,
            })
    }

    /// The removal itself: checks every step of `[r.start, r.end)` before
    /// it changes any, so on `Err((instant, used there))` the calendar is
    /// as it was (the two breakpoints it may have inserted coalesce away).
    pub(crate) fn release(&mut self, r: Reservation) -> Result<(), (Time, u32)> {
        let start_idx = self.ensure_breakpoint(r.start);
        let end_idx = self.ensure_breakpoint(r.end);
        let range = self.steps.get_mut(start_idx..end_idx).unwrap_or_default();
        let short = range
            .iter()
            .find(|s| s.used < r.procs)
            .map(|s| (s.time, s.used));
        if short.is_none() {
            for s in range {
                s.used -= r.procs;
            }
            self.reserved_proc_seconds -= r.proc_seconds();
            self.num_reservations = self.num_reservations.saturating_sub(1);
        }
        self.coalesce_around(start_idx, end_idx);
        short.map_or(Ok(()), Err)
    }

    /// Replace reservation `old` with `new` atomically: on any error the
    /// calendar is restored to its exact pre-call state (canonical minimal
    /// representation makes the restore byte-identical) and nothing
    /// changes. Grows, shrinks, moves, and width changes are all just
    /// remove-then-add; the two intervals need not overlap.
    pub fn try_resize(
        &mut self,
        old: Reservation,
        new: Reservation,
    ) -> Result<(), ReservationError> {
        self.try_remove(old)?;
        match self.try_add(new) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Removal succeeded, so re-adding `old` cannot fail.
                self.add_unchecked(old);
                Err(e)
            }
        }
    }

    /// Earliest start `s >= not_before` such that `procs` processors are free
    /// throughout `[s, s + dur)`: [`Calendar::earliest_finish`] over the one
    /// candidate `(procs, dur)`, its cost dropped.
    ///
    /// Always succeeds (the calendar eventually drains), provided
    /// `procs <= capacity`.
    ///
    /// # Panics
    /// Panics if `procs == 0`, `procs > capacity`, or `dur <= 0`.
    pub fn earliest_fit(&self, procs: u32, dur: Dur, not_before: Time) -> Time {
        let mut cost = QueryCost::default();
        self.earliest_finish(&[(procs, dur)], not_before, false, &mut cost)
            .start
    }

    /// Earliest *finish* over a task's width candidates: the reservation of
    /// the one whose earliest fit at or after `not_before` completes first.
    /// A tie in completion time goes to the widest candidate if
    /// `widest_on_tie`, to the narrowest otherwise.
    ///
    /// `candidates` is `(procs, dur)` in increasing `procs` with `dur`
    /// decreasing (non-increasing if `widest_on_tie`); a wider candidate
    /// that is no shorter could never be the answer, so the caller leaves
    /// it out. The answer is the argmin of
    /// `earliest_fit(procs, dur, not_before) + dur` over them, found in one
    /// walk that carries every candidate's start at once — a slot too full
    /// for one width is too full for every wider one, so the starts move
    /// together: `cost` is charged **one** query and the slots
    /// that walk inspected, never more than the cheapest per-candidate
    /// `earliest_fit` would have inspected alone.
    ///
    /// ```
    /// use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};
    ///
    /// // 6 of 8 processors are taken for the first hour.
    /// let mut cal = Calendar::new(8);
    /// cal.try_add(Reservation::new(Time::ZERO, Time::seconds(3600), 6)).unwrap();
    ///
    /// // 100 minutes on 2 processors, 50 on 4, 25 on all 8. Two fit at once
    /// // (done at 100 min); four wait out the hour (110 min); so do eight,
    /// // and still finish first.
    /// let widths = [(2, Dur::minutes(100)), (4, Dur::minutes(50)), (8, Dur::minutes(25))];
    /// let mut cost = QueryCost::default();
    /// let first = cal.earliest_finish(&widths, Time::ZERO, false, &mut cost);
    /// assert_eq!(first, Reservation::for_duration(Time::seconds(3600), Dur::minutes(25), 8));
    /// assert_eq!(cost.queries, 1);
    /// ```
    ///
    /// # Panics
    /// Panics if `candidates` is empty, a width is 0 or above the capacity,
    /// or a duration is not positive.
    pub fn earliest_finish(
        &self,
        candidates: &[(u32, Dur)],
        not_before: Time,
        widest_on_tie: bool,
        cost: &mut QueryCost,
    ) -> Reservation {
        cost.queries += 1;
        self.slots()
            .earliest_finish(candidates, not_before, widest_on_tie, &mut cost.steps)
    }

    /// Latest *start* over a task's width candidates: the reservation of the
    /// one whose latest fit inside `[not_before, end_by)` starts latest, a
    /// tie going to the narrower candidate; `None` if none of them fits.
    /// The backward mirror of [`Calendar::earliest_finish`], and what the
    /// aggressive deadline algorithms (and the conservative ones' fallback)
    /// place a task by. One candidate asks the latest start `s` with
    /// `s + dur <= end_by`, `s >= not_before` and `procs` processors free
    /// throughout `[s, s + dur)`.
    ///
    /// `candidates` is `(procs, dur)` in increasing `procs` with `dur`
    /// decreasing. The answer is the argmax of that one-candidate latest
    /// fit over them, found in one backward walk that carries every
    /// candidate's window end at once — a slot too full for one width is
    /// too full for every wider one, so the ends move together: `cost` is
    /// charged **one** query and the slots that walk inspected, no more
    /// than a walk for the answer alone would have inspected.
    ///
    /// ```
    /// use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};
    ///
    /// // 6 of 8 processors are taken for the last hour before the deadline.
    /// let mut cal = Calendar::new(8);
    /// let deadline = Time::seconds(4 * 3600);
    /// cal.try_add(Reservation::new(Time::seconds(3 * 3600), deadline, 6)).unwrap();
    ///
    /// // 100 minutes on 2 processors, 50 on 4, 25 on all 8. Two fit beside
    /// // the reservation and start 100 min before the deadline; four and
    /// // eight must end where it starts, and eight start latest of all.
    /// let widths = [(2, Dur::minutes(100)), (4, Dur::minutes(50)), (8, Dur::minutes(25))];
    /// let mut cost = QueryCost::default();
    /// let last = cal.latest_start(&widths, deadline, Time::ZERO, &mut cost);
    /// let start = Time::seconds(3 * 3600) - Dur::minutes(25);
    /// assert_eq!(last, Some(Reservation::for_duration(start, Dur::minutes(25), 8)));
    /// assert_eq!(cost.queries, 1);
    /// ```
    ///
    /// # Panics
    /// Panics if `candidates` is empty, a width is 0 or above the capacity,
    /// or a duration is not positive.
    pub fn latest_start(
        &self,
        candidates: &[(u32, Dur)],
        end_by: Time,
        not_before: Time,
        cost: &mut QueryCost,
    ) -> Option<Reservation> {
        cost.queries += 1;
        self.slots()
            .latest_start(candidates, end_by, not_before, &mut cost.steps)
    }

    /// The *narrowest* of a task's width candidates that can still start at
    /// or after `threshold` and end by `end_by`, with its latest such fit;
    /// `None` if none can. This is the resource-conservative deadline rule
    /// (paper §5.2.2): the fewest processors that keep the task on its
    /// guideline.
    ///
    /// `candidates` as for [`Calendar::latest_start`]. The answer is the
    /// first of them with a latest fit inside `[threshold, end_by)`, found in
    /// one backward walk (one query in `cost`, plus the slots it inspected).
    /// Asking about consecutive chunks of a candidate list in turn finds the
    /// same answer as asking about the whole list — the first chunk that has
    /// one holds the narrowest — so a caller whose candidates are costly to
    /// list can list them as it goes.
    ///
    /// ```
    /// use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};
    ///
    /// let mut cal = Calendar::new(8);
    /// let deadline = Time::seconds(4 * 3600);
    /// cal.try_add(Reservation::new(Time::seconds(3 * 3600), deadline, 6)).unwrap();
    /// let widths = [(2, Dur::minutes(100)), (4, Dur::minutes(50)), (8, Dur::minutes(25))];
    ///
    /// // Two processors start 100 min before the deadline; four must end
    /// // where the reservation starts, so they start 50 min before it, and
    /// // eight 25 min before it. Asked to start in the last two hours, two
    /// // processors are enough; in the last hour and a half, it takes eight.
    /// let mut cost = QueryCost::default();
    /// let two = cal.narrowest_start_from(&widths, deadline, deadline - Dur::minutes(120), &mut cost);
    /// assert_eq!(two.map(|r| r.procs), Some(2));
    /// let eight = cal.narrowest_start_from(&widths, deadline, deadline - Dur::minutes(90), &mut cost);
    /// assert_eq!(eight.map(|r| (r.procs, r.end)), Some((8, Time::seconds(3 * 3600))));
    /// assert_eq!(cost.queries, 2);
    /// ```
    ///
    /// # Panics
    /// As [`Calendar::latest_start`].
    pub fn narrowest_start_from(
        &self,
        candidates: &[(u32, Dur)],
        end_by: Time,
        threshold: Time,
        cost: &mut QueryCost,
    ) -> Option<Reservation> {
        cost.queries += 1;
        self.slots()
            .narrowest_start_from(candidates, end_by, threshold, &mut cost.steps)
    }

    /// Time-average number of *free* processors over `[from, to)` — the
    /// paper's historical average availability `q` used to pick target
    /// widths in the `*_CPAR` algorithm variants (§4.2).
    ///
    /// # Rounding policy
    ///
    /// The real-valued average `capacity - used_integral / span` is rounded
    /// to the **nearest** integer, with exact halves rounding **away from
    /// zero** (`f64::round`: 2.5 → 3, 3.5 → 4), and the result is then
    /// clamped to `[1, capacity]`. Consequences worth knowing:
    ///
    /// * `q` is never 0 — a task always has at least one processor to
    ///   target, even over a fully booked window.
    /// * At half-integer averages the estimate is optimistic by half a
    ///   processor, which matters when comparing against an exact
    ///   per-second recomputation of the paper's `q`.
    pub fn average_available(&self, from: Time, to: Time) -> u32 {
        assert!(from < to, "empty window");
        let span = (to - from).as_seconds();
        let used_integral = self.used_integral(from, to);
        let avail = self.capacity as f64 - used_integral as f64 / span as f64;
        (avail.round() as i64).clamp(1, self.capacity as i64) as u32
    }

    /// Integral of processors-in-use over `[from, to)`, in
    /// processor-seconds.
    pub fn used_integral(&self, from: Time, to: Time) -> i64 {
        self.slots().used_integral(from, to)
    }

    /// The earliest instant `t >= from` at which the *free*
    /// processor-seconds over `[from, t)` — `capacity · (t − from)` minus
    /// [`Calendar::used_integral`] — reach `work`; `from` when `work` is not
    /// positive. The free area only grows with `t`, and every processor is
    /// free past the last breakpoint, so the answer always exists. One
    /// forward walk from the slot holding `from`.
    ///
    /// This is the area half of an instance's lower bound: no set of
    /// reservations holding `work` processor-seconds between them fits
    /// after `from` and ends before this instant.
    ///
    /// ```
    /// use resched_resv::{Calendar, Reservation, Time};
    ///
    /// let mut cal = Calendar::new(4);
    /// cal.try_add(Reservation::new(Time::seconds(10), Time::seconds(20), 3)).unwrap();
    /// // 40 free processor-seconds by t = 10, then one processor until 20.
    /// assert_eq!(cal.earliest_free_work(Time::ZERO, 40), Time::seconds(10));
    /// assert_eq!(cal.earliest_free_work(Time::ZERO, 45), Time::seconds(15));
    /// assert_eq!(cal.earliest_free_work(Time::ZERO, 51), Time::seconds(21));
    /// ```
    pub fn earliest_free_work(&self, from: Time, work: i64) -> Time {
        self.slots().earliest_free_work(from, work)
    }

    /// Average *utilization* (fraction of capacity in use) over `[from, to)`.
    pub fn average_utilization(&self, from: Time, to: Time) -> f64 {
        assert!(from < to);
        let span = (to - from).as_seconds() as f64;
        self.used_integral(from, to) as f64 / (span * self.capacity as f64)
    }

    /// Iterate the usage segments as `(start, end, used)` triples.
    /// The implicit zero-usage segments before the first and after the last
    /// breakpoint are not yielded.
    pub fn segments(&self) -> impl Iterator<Item = (Time, Time, u32)> + '_ {
        let ends = self.steps.iter().skip(1);
        self.steps
            .iter()
            .zip(ends)
            .map(|(a, b)| (a.time, b.time, a.used))
    }

    /// The breakpoints as stored, each with the usage level it starts:
    /// `(time, used)` in vector order, the last one's `used` being the level
    /// the calendar drains to. What an auditor reads to re-check the
    /// canonical form (ordered, minimal, leading level nonzero, trailing
    /// level zero) without trusting it.
    pub fn levels(
        &self,
    ) -> impl DoubleEndedIterator<Item = (Time, u32)> + ExactSizeIterator + Clone + '_ {
        self.steps.iter().map(|s| (s.time, s.used))
    }

    /// Iterate the breakpoint instants of the usage step function, in
    /// strictly increasing order. Usage is constant on every half-open
    /// interval between consecutive breakpoints (and zero before the first
    /// and from the last one on), which makes this the exact set of probe
    /// points an external auditor needs to re-check capacity independently
    /// of the slot-query machinery.
    pub fn breakpoints(&self) -> impl Iterator<Item = Time> + '_ {
        self.steps.iter().map(|s| s.time)
    }

    /// The breakpoints strictly inside `(lo, hi)`, in increasing order: the
    /// [`Calendar::breakpoints`] filtered to the open interval, positioned
    /// by binary search instead of a scan from the first.
    pub fn breakpoints_within(&self, lo: Time, hi: Time) -> impl Iterator<Item = Time> + '_ {
        let from = self.steps.partition_point(|s| s.time <= lo);
        let until = self.steps.partition_point(|s| s.time < hi).max(from);
        self.steps
            .get(from..until)
            .unwrap_or_default()
            .iter()
            .map(|s| s.time)
    }

    /// The time of the last breakpoint (when the calendar drains), if any.
    pub fn horizon(&self) -> Option<Time> {
        self.steps.last().map(|s| s.time)
    }

    // ----- internals ---------------------------------------------------

    fn next_time_after_idx(&self, idx: usize) -> Time {
        self.steps.get(idx + 1).map(|s| s.time).unwrap_or(Time::MAX)
    }

    /// Usage just before breakpoint `i`: the previous step's, 0 before the
    /// first.
    fn used_before(&self, i: usize) -> u32 {
        i.checked_sub(1)
            .and_then(|prev| self.steps.get(prev))
            .map_or(0, |s| s.used)
    }

    /// Ensure a breakpoint exists exactly at `t`; return its index.
    fn ensure_breakpoint(&mut self, t: Time) -> usize {
        match self.steps.binary_search_by_key(&t, |s| s.time) {
            Ok(i) => i,
            Err(i) => {
                let used = self.used_before(i);
                self.steps.insert(i, Step { time: t, used });
                i
            }
        }
    }

    /// Remove redundant breakpoints (equal `used` to their predecessor)
    /// around a mutated range.
    fn coalesce_around(&mut self, start_idx: usize, end_idx: usize) {
        // Only the two boundary breakpoints can have become redundant. The
        // higher index goes first, so removing it does not move the other
        // (nor what the other is compared with).
        for i in [end_idx, start_idx] {
            let prev_used = self.used_before(i);
            if self.steps.get(i).is_some_and(|s| s.used == prev_used) {
                self.steps.remove(i);
            }
        }
        debug_assert!(self.check_invariants());
    }

    #[allow(dead_code)]
    fn check_invariants(&self) -> bool {
        for w in self.steps.windows(2) {
            if w[0].time >= w[1].time {
                return false;
            }
            if w[0].used == w[1].used {
                return false;
            }
        }
        if let Some(first) = self.steps.first() {
            if first.used == 0 {
                return false;
            }
        }
        if let Some(last) = self.steps.last() {
            if last.used != 0 {
                return false;
            }
        }
        true
    }
}

/// Read-only view of a [`Calendar`] answering the slot queries with the
/// original `O(B)`-per-query linear scans.
///
/// Results are identical to the queries on [`Calendar`]; only the work
/// performed differs. The validator, the calendar audit, the differential
/// property tests and the calendar-vs-linear benchmarks use this as the
/// reference implementation.
#[derive(Debug, Clone, Copy)]
pub struct LinearRef<'a> {
    cal: &'a Calendar,
}

impl LinearRef<'_> {
    /// Linear-scan [`Calendar::earliest_fit`], tallying the work into
    /// `cost`; `cost.steps` counts breakpoints visited.
    pub fn earliest_fit(
        &self,
        procs: u32,
        dur: Dur,
        not_before: Time,
        cost: &mut QueryCost,
    ) -> Time {
        let cal = self.cal;
        assert!(procs > 0 && procs <= cal.capacity, "bad procs {procs}");
        assert!(dur.is_positive(), "bad duration {dur}");
        cost.queries += 1;
        let max_used = cal.capacity - procs;
        let mut s = not_before;
        loop {
            match self.first_blocker(s, s + dur, max_used, &mut cost.steps) {
                None => return s,
                Some(block_idx) => {
                    // Restart at the first later breakpoint where usage
                    // drops low enough. The final breakpoint always has
                    // used == 0 <= max_used, so a restart point must exist;
                    // its absence means the calendar invariants are broken
                    // and any answer would silently overbook the platform.
                    let mut i = block_idx + 1;
                    while i < cal.steps.len() && cal.steps[i].used > max_used {
                        cost.steps += 1;
                        i += 1;
                    }
                    assert!(
                        i < cal.steps.len(),
                        "calendar invariant violated: usage never drops to \
                         {max_used} after the blocker at {}; the final \
                         breakpoint must have used == 0",
                        cal.steps[block_idx].time
                    );
                    s = cal.steps[i].time;
                }
            }
        }
    }

    /// Latest start `s` with `s + dur <= end_by`, `s >= not_before` and
    /// `procs` processors free throughout `[s, s + dur)`, by linear scan:
    /// [`Calendar::latest_start`] over the one candidate `(procs, dur)`,
    /// tallying the work into `cost`; `cost.steps` counts breakpoints
    /// visited.
    pub fn latest_fit(
        &self,
        procs: u32,
        dur: Dur,
        end_by: Time,
        not_before: Time,
        cost: &mut QueryCost,
    ) -> Option<Time> {
        let cal = self.cal;
        assert!(procs > 0 && procs <= cal.capacity, "bad procs {procs}");
        assert!(dur.is_positive(), "bad duration {dur}");
        cost.queries += 1;
        let max_used = cal.capacity - procs;
        let mut e = end_by;
        loop {
            let s = e - dur;
            if s < not_before {
                return None;
            }
            match self.last_blocker(s, e, max_used, &mut cost.steps) {
                None => return Some(s),
                Some(block_idx) => {
                    let blocker_start = cal.steps[block_idx].time;
                    assert!(
                        blocker_start < e,
                        "latest_fit stalled: blocker at {blocker_start} does not \
                         precede the window end {e}"
                    );
                    e = blocker_start;
                }
            }
        }
    }

    /// The stored breakpoints strictly inside `(from, to)`: the instants
    /// where the usage level changes within the window, a binary search to
    /// the first and a gallop from it to the end.
    fn inside(&self, from: Time, to: Time) -> &[Step] {
        let steps = &self.cal.steps;
        let lo = steps.partition_point(|s| s.time <= from);
        steps
            .get(lo..before_from(steps, lo, to))
            .unwrap_or_default()
    }

    /// Linear-scan [`Calendar::peak_used`]: the level at `from`, and every
    /// level a breakpoint inside the window starts.
    pub fn peak_used(&self, from: Time, to: Time) -> u32 {
        assert!(from < to, "empty window");
        let at_from = self.cal.used_at(from);
        self.inside(from, to)
            .iter()
            .fold(at_from, |peak, s| peak.max(s.used))
    }

    /// Linear-scan [`Calendar::used_integral`]: the level at `from` until
    /// the first breakpoint inside the window, each one's level until the
    /// next or `to`, every segment clamped to the window.
    pub fn used_integral(&self, from: Time, to: Time) -> i64 {
        assert!(from <= to);
        let (mut total, mut since, mut level) = (0i64, from, self.cal.used_at(from));
        for s in self.inside(from, to) {
            total += i64::from(level) * (s.time - since).as_seconds();
            (since, level) = (s.time, s.used);
        }
        total + i64::from(level) * (to - since).as_seconds()
    }

    fn first_blocker(
        &self,
        from: Time,
        to: Time,
        max_used: u32,
        visited: &mut u64,
    ) -> Option<usize> {
        let cal = self.cal;
        if cal.steps.is_empty() {
            return None;
        }
        let mut idx = match cal.steps.binary_search_by_key(&from, |s| s.time) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        // Skip the segment entirely before `from` if it doesn't cover it.
        if cal.steps[idx].time < from && cal.next_time_after_idx(idx) <= from {
            idx += 1;
        }
        while idx < cal.steps.len() && cal.steps[idx].time < to {
            *visited += 1;
            let seg_end = cal.next_time_after_idx(idx);
            if seg_end > from && cal.steps[idx].used > max_used {
                return Some(idx);
            }
            idx += 1;
        }
        None
    }

    fn last_blocker(
        &self,
        from: Time,
        to: Time,
        max_used: u32,
        visited: &mut u64,
    ) -> Option<usize> {
        let cal = self.cal;
        if cal.steps.is_empty() {
            return None;
        }
        // Find the last segment that starts before `to`.
        let mut idx = match cal.steps.binary_search_by_key(&to, |s| s.time) {
            Ok(i) | Err(i) => i,
        };
        // steps[idx-1] is the last segment with time < to.
        while idx > 0 {
            *visited += 1;
            let i = idx - 1;
            let seg_start = cal.steps[i].time;
            let seg_end = cal.next_time_after_idx(i);
            if seg_end <= from {
                break;
            }
            if seg_start < to && seg_end > from && cal.steps[i].used > max_used {
                return Some(i);
            }
            idx -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> Time {
        Time::seconds(s)
    }
    fn d(s: i64) -> Dur {
        Dur::seconds(s)
    }
    fn r(s: i64, e: i64, p: u32) -> Reservation {
        Reservation::new(t(s), t(e), p)
    }
    /// The latest start of one width: a one-candidate `latest_start`.
    fn latest_of_one(
        cal: &Calendar,
        procs: u32,
        dur: Dur,
        end_by: Time,
        not_before: Time,
    ) -> Option<Time> {
        let mut cost = QueryCost::default();
        cal.latest_start(&[(procs, dur)], end_by, not_before, &mut cost)
            .map(|r| r.start)
    }

    #[test]
    fn empty_calendar_everything_fits_now() {
        let cal = Calendar::new(8);
        assert_eq!(cal.earliest_fit(8, d(100), t(0)), t(0));
        assert_eq!(cal.used_at(t(12345)), 0);
        assert_eq!(latest_of_one(&cal, 8, d(10), t(100), t(0)), Some(t(90)));
    }

    #[test]
    fn breakpoints_cover_the_step_function() {
        let cal =
            Calendar::with_reservations(8, [r(10, 20, 3), r(15, 30, 2), r(50, 60, 8)]).unwrap();
        let bps: Vec<Time> = cal.breakpoints().collect();
        // Strictly increasing, and usage is constant between consecutive
        // breakpoints: probing at each breakpoint (and one implicit point
        // before the first) reconstructs used_at everywhere.
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bps.first().copied(), Some(t(10)));
        assert_eq!(bps.last().copied(), cal.horizon());
        for w in bps.windows(2) {
            let mid = w[0].midpoint(w[1]);
            assert_eq!(cal.used_at(mid), cal.used_at(w[0]));
        }
        assert_eq!(cal.used_at(t(9)), 0);
        assert_eq!(Calendar::new(4).breakpoints().count(), 0);

        // The positioned range is the filtered scan, for bounds on, between,
        // before and after the breakpoints, and for empty and reversed
        // intervals.
        for lo in [0, 9, 10, 14, 15, 20, 31, 50, 60, 99] {
            for hi in [0, 10, 11, 15, 30, 50, 60, 61, 100] {
                let (lo, hi) = (t(lo), t(hi));
                let scan: Vec<Time> = bps.iter().copied().filter(|&b| lo < b && b < hi).collect();
                let within: Vec<Time> = cal.breakpoints_within(lo, hi).collect();
                assert_eq!(within, scan, "({lo}, {hi})");
            }
        }
        assert_eq!(Calendar::new(4).breakpoints_within(t(0), t(9)).count(), 0);
    }

    #[test]
    fn add_and_query_usage() {
        let mut cal = Calendar::new(10);
        cal.try_add(r(10, 20, 4)).unwrap();
        cal.try_add(r(15, 30, 3)).unwrap();
        assert_eq!(cal.used_at(t(9)), 0);
        assert_eq!(cal.used_at(t(10)), 4);
        assert_eq!(cal.used_at(t(15)), 7);
        assert_eq!(cal.used_at(t(20)), 3);
        assert_eq!(cal.used_at(t(30)), 0);
        assert_eq!(cal.num_reservations(), 2);
        assert_eq!(cal.reserved_proc_seconds(), 4 * 10 + 3 * 15);
    }

    #[test]
    fn conflict_detection() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 100, 3)).unwrap();
        assert!(cal.try_add(r(50, 60, 2)).is_err());
        assert!(cal.try_add(r(50, 60, 1)).is_ok());
        // Now full over [50,60).
        assert!(cal.try_add(r(59, 61, 1)).is_err());
        assert!(cal.try_add(r(100, 101, 4)).is_ok()); // abuts, fine
        assert!(matches!(
            cal.try_add(r(0, 1, 5)),
            Err(ReservationError::ExceedsCapacity { .. })
        ));
    }

    #[test]
    fn earliest_fit_skips_busy_regions() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 100, 3)).unwrap();
        // Only 1 free until 100.
        assert_eq!(cal.earliest_fit(1, d(10), t(0)), t(0));
        assert_eq!(cal.earliest_fit(2, d(10), t(0)), t(100));
        // A window that must straddle the busy region.
        assert_eq!(cal.earliest_fit(2, d(10), t(95)), t(100));
        // not_before respected.
        assert_eq!(cal.earliest_fit(1, d(10), t(42)), t(42));
    }

    #[test]
    fn earliest_fit_finds_holes() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 4)).unwrap();
        cal.try_add(r(20, 30, 4)).unwrap();
        // Hole [10,20) fits a 10s window exactly.
        assert_eq!(cal.earliest_fit(4, d(10), t(0)), t(10));
        // 11s window does not fit in the hole.
        assert_eq!(cal.earliest_fit(4, d(11), t(0)), t(30));
        // 2-processor job never fits before 30 either (reservations take all 4).
        assert_eq!(cal.earliest_fit(1, d(25), t(0)), t(30));
    }

    #[test]
    fn latest_fit_basics() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(50, 100, 4)).unwrap();
        // Latest 10s window for 1 proc ending by 200 is [190, 200).
        assert_eq!(latest_of_one(&cal, 1, d(10), t(200), t(0)), Some(t(190)));
        // Ending by 100 must finish before the busy region: [40, 50).
        assert_eq!(latest_of_one(&cal, 1, d(10), t(100), t(0)), Some(t(40)));
        // Window longer than the pre-busy region: impossible before 50.
        assert_eq!(latest_of_one(&cal, 1, d(60), t(100), t(0)), None);
        // not_before binds.
        assert_eq!(latest_of_one(&cal, 1, d(10), t(100), t(45)), None);
        assert_eq!(latest_of_one(&cal, 1, d(10), t(100), t(40)), Some(t(40)));
    }

    #[test]
    fn latest_fit_lands_in_hole() {
        let mut cal = Calendar::new(2);
        cal.try_add(r(0, 10, 2)).unwrap();
        cal.try_add(r(20, 30, 2)).unwrap();
        cal.try_add(r(40, 50, 1)).unwrap();
        // 2-proc 5s window ending by 45: [40,50) has only 1 free, hole
        // [30,40) works -> latest start 35.
        assert_eq!(latest_of_one(&cal, 2, d(5), t(45), t(0)), Some(t(35)));
        // 1-proc can end at 45.
        assert_eq!(latest_of_one(&cal, 1, d(5), t(45), t(0)), Some(t(40)));
    }

    #[test]
    fn average_available_integrates() {
        let mut cal = Calendar::new(10);
        cal.try_add(r(0, 50, 10)).unwrap();
        // Over [0, 100): used integral = 500 of 1000 -> avg avail 5.
        assert_eq!(cal.used_integral(t(0), t(100)), 500);
        assert_eq!(cal.average_available(t(0), t(100)), 5);
        assert!((cal.average_utilization(t(0), t(100)) - 0.5).abs() < 1e-12);
        // Window fully inside the busy region.
        assert_eq!(cal.average_available(t(0), t(50)), 1); // clamped to >= 1
                                                           // Window fully outside.
        assert_eq!(cal.average_available(t(50), t(100)), 10);
    }

    #[test]
    fn used_integral_partial_segments() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(10, 20, 4)).unwrap();
        assert_eq!(cal.used_integral(t(0), t(10)), 0);
        assert_eq!(cal.used_integral(t(12), t(18)), 24);
        assert_eq!(cal.used_integral(t(15), t(25)), 20);
        assert_eq!(cal.used_integral(t(20), t(30)), 0);
        assert_eq!(cal.used_integral(t(0), t(30)), 40);
    }

    #[test]
    fn segments_iterate_in_order() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(10, 20, 4)).unwrap();
        cal.try_add(r(20, 25, 2)).unwrap();
        let segs: Vec<_> = cal.segments().collect();
        assert_eq!(segs, vec![(t(10), t(20), 4), (t(20), t(25), 2)]);
        assert_eq!(cal.horizon(), Some(t(25)));
    }

    #[test]
    fn coalescing_keeps_breakpoints_minimal() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 10, 2)).unwrap();
        cal.try_add(r(10, 20, 2)).unwrap(); // same usage level, should merge
        assert_eq!(cal.num_breakpoints(), 2); // one at 0, one at 20
        assert_eq!(cal.used_at(t(5)), 2);
        assert_eq!(cal.used_at(t(15)), 2);
        assert_eq!(cal.used_at(t(20)), 0);
    }

    #[test]
    fn earliest_fit_full_capacity_after_everything() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 1)).unwrap();
        cal.try_add(r(5, 25, 2)).unwrap();
        cal.try_add(r(30, 35, 4)).unwrap();
        assert_eq!(cal.earliest_fit(4, d(10), t(0)), t(35));
    }

    #[test]
    fn with_reservations_builder() {
        let cal = Calendar::with_reservations(4, vec![r(0, 10, 2), r(5, 15, 2)]).expect("fits");
        assert_eq!(cal.used_at(t(7)), 4);
        assert!(Calendar::with_reservations(4, vec![r(0, 10, 3), r(5, 15, 2)]).is_err());
    }

    #[test]
    fn peak_used_over_windows() {
        let mut cal = Calendar::new(10);
        cal.try_add(r(0, 10, 3)).unwrap();
        cal.try_add(r(5, 15, 4)).unwrap();
        assert_eq!(cal.peak_used(t(0), t(20)), 7);
        assert_eq!(cal.peak_used(t(10), t(20)), 4);
        assert_eq!(cal.peak_used(t(15), t(20)), 0);
    }

    #[test]
    fn earliest_fit_when_last_segment_blocks_through_horizon() {
        // The final busy segment runs right up to the horizon; the only
        // fit starts exactly there. Exercises the restart-past-the-last-
        // blocker path in the walk and in the linear reference.
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 50, 4)).unwrap();
        assert_eq!(cal.earliest_fit(4, d(10), t(0)), t(50));
        assert_eq!(cal.earliest_fit(1, d(1), t(49)), t(50));
        assert_eq!(
            cal.linear()
                .earliest_fit(4, d(10), t(0), &mut Default::default()),
            t(50)
        );
        assert_eq!(
            cal.linear()
                .earliest_fit(1, d(1), t(49), &mut Default::default()),
            t(50)
        );
    }

    #[test]
    fn earliest_fit_window_abutting_busy_region() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(10, 20, 4)).unwrap();
        // A window ending exactly where the busy region starts fits.
        assert_eq!(cal.earliest_fit(4, d(10), t(0)), t(0));
        // Starting exactly where the busy region ends also fits.
        assert_eq!(cal.earliest_fit(4, d(10), t(20)), t(20));
        // not_before exactly on the blocked breakpoint skips past it.
        assert_eq!(cal.earliest_fit(4, d(10), t(10)), t(20));
        assert_eq!(
            cal.linear()
                .earliest_fit(4, d(10), t(10), &mut Default::default()),
            t(20)
        );
    }

    #[test]
    fn latest_fit_exact_size_hole() {
        let mut cal = Calendar::new(2);
        cal.try_add(r(0, 10, 2)).unwrap();
        cal.try_add(r(20, 30, 2)).unwrap();
        // The hole [10, 20) exactly fits a 10s window.
        assert_eq!(latest_of_one(&cal, 2, d(10), t(30), t(0)), Some(t(10)));
        assert_eq!(
            cal.linear()
                .latest_fit(2, d(10), t(30), t(0), &mut Default::default()),
            Some(t(10))
        );
        // One second longer cannot fit anywhere ending by 30.
        assert_eq!(latest_of_one(&cal, 2, d(11), t(30), t(0)), None);
        assert_eq!(
            cal.linear()
                .latest_fit(2, d(11), t(30), t(0), &mut Default::default()),
            None
        );
        // A window whose start abuts not_before exactly still counts.
        assert_eq!(latest_of_one(&cal, 2, d(10), t(30), t(10)), Some(t(10)));
    }

    #[test]
    fn latest_fit_terminates_on_dense_calendar() {
        // Alternating full/free pattern forces one restart per busy block.
        let mut cal = Calendar::new(2);
        for i in 0..50 {
            cal.try_add(r(20 * i, 20 * i + 10, 2)).unwrap();
        }
        assert_eq!(latest_of_one(&cal, 2, d(5), t(1000), t(0)), Some(t(995)));
        assert_eq!(latest_of_one(&cal, 2, d(10), t(1000), t(0)), Some(t(990)));
        // end_by inside the last busy region walks back one hole.
        assert_eq!(latest_of_one(&cal, 2, d(10), t(985), t(0)), Some(t(970)));
        assert_eq!(
            cal.linear()
                .latest_fit(2, d(10), t(985), t(0), &mut Default::default()),
            Some(t(970))
        );
        // Impossible request walks all the way back and gives up.
        assert_eq!(latest_of_one(&cal, 2, d(15), t(990), t(0)), None);
    }

    #[test]
    fn average_available_half_integer_rounding() {
        // Average free = 7.5 -> rounds away from zero -> 8.
        let mut cal = Calendar::new(10);
        cal.try_add(r(0, 50, 5)).unwrap();
        assert_eq!(cal.used_integral(t(0), t(100)), 250);
        assert_eq!(cal.average_available(t(0), t(100)), 8);
        // Average free = 2.5 -> 3.
        let mut cal = Calendar::new(10);
        cal.try_add(r(0, 50, 10)).unwrap();
        cal.try_add(r(50, 100, 5)).unwrap();
        assert_eq!(cal.used_integral(t(0), t(100)), 750);
        assert_eq!(cal.average_available(t(0), t(100)), 3);
        // Average free = 0.5 -> 1; coincides with the >= 1 clamp.
        let mut cal = Calendar::new(1);
        cal.try_add(r(0, 50, 1)).unwrap();
        assert_eq!(cal.average_available(t(0), t(100)), 1);
    }

    #[test]
    fn index_survives_incremental_updates() {
        // (The name predates the single engine: queries interleaved with
        // mutations must always see the current breakpoints.)
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 100, 2)).unwrap();
        cal.try_add(r(50, 80, 2)).unwrap();
        // Query, then add a reservation whose endpoints already exist as
        // breakpoints (pure usage bump, no breakpoint moves).
        assert_eq!(cal.peak_used(t(0), t(100)), 4);
        cal.try_add(r(50, 80, 3)).unwrap();
        assert_eq!(cal.peak_used(t(0), t(100)), 7);
        assert_eq!(cal.earliest_fit(8, d(5), t(0)), t(100));
        assert_eq!(cal.earliest_fit(2, d(60), t(0)), t(80));
        // And one that inserts breakpoints.
        cal.try_add(r(10, 20, 1)).unwrap();
        assert_eq!(cal.peak_used(t(10), t(20)), 3);
        assert_eq!(
            cal.used_integral(t(0), t(100)),
            cal.linear().used_integral(t(0), t(100))
        );
    }

    #[test]
    fn query_costs_are_tallied_for_both_backends() {
        let mut cal = Calendar::new(4);
        for i in 0..20 {
            cal.try_add(r(10 * i, 10 * i + 5, 4)).unwrap();
        }
        let mut walked = QueryCost::default();
        let mut linear = QueryCost::default();
        let a = cal
            .earliest_finish(&[(4, d(10))], t(0), false, &mut walked)
            .start;
        let b = cal.linear().earliest_fit(4, d(10), t(0), &mut linear);
        assert_eq!(a, b);
        assert_eq!(walked.queries, 1);
        assert_eq!(linear.queries, 1);
        assert!(walked.steps > 0);
        assert!(linear.steps > 0);

        let mut cost = QueryCost::default();
        let lf = cal.latest_start(&[(4, d(5))], t(500), t(0), &mut cost);
        assert!(lf.is_some());
        assert_eq!(cost.queries, 1);
        assert!(cost.steps > 0);

        let mut total = QueryCost::default();
        total.absorb(walked);
        total.absorb(cost);
        assert_eq!(total.queries, 2);
        assert_eq!(total.steps, walked.steps + cost.steps);
    }

    #[test]
    fn add_then_remove_equals_never_added() {
        // The PartialEq-under-cancellation pin: removing a reservation
        // restores *all* logical state — steps, reserved_proc_seconds,
        // num_reservations — so an add-then-remove calendar equals (and
        // serializes identically to) the never-added one.
        let mut base = Calendar::new(8);
        base.try_add(r(0, 100, 3)).unwrap();
        base.try_add(r(20, 60, 2)).unwrap();
        let mut cal = base.clone();
        cal.try_add(r(10, 30, 3)).unwrap();
        assert_ne!(cal, base);
        cal.try_remove(r(10, 30, 3)).unwrap();
        assert_eq!(cal, base);
        assert_eq!(cal.num_reservations(), base.num_reservations());
        assert_eq!(cal.reserved_proc_seconds(), base.reserved_proc_seconds());
        assert_eq!(
            serde_json::to_string(&cal).unwrap(),
            serde_json::to_string(&base).unwrap()
        );
        // All the way down to empty.
        cal.try_remove(r(20, 60, 2)).unwrap();
        cal.try_remove(r(0, 100, 3)).unwrap();
        assert_eq!(cal, Calendar::new(8));
        assert_eq!(cal.num_breakpoints(), 0);
        assert_eq!(cal.reserved_proc_seconds(), 0);
    }

    #[test]
    fn remove_validates_usage() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(10, 20, 4)).unwrap();
        // More procs than reserved.
        assert_eq!(
            cal.try_remove(r(10, 20, 5)),
            Err(ReservationError::NotReserved {
                at: t(10),
                used: 4,
                requested: 5
            })
        );
        // Interval extends past the reservation.
        assert_eq!(
            cal.try_remove(r(10, 25, 4)),
            Err(ReservationError::NotReserved {
                at: t(20),
                used: 0,
                requested: 4
            })
        );
        // Interval starts before it.
        assert_eq!(
            cal.try_remove(r(5, 20, 4)),
            Err(ReservationError::NotReserved {
                at: t(5),
                used: 0,
                requested: 4
            })
        );
        // Empty calendar region.
        assert!(matches!(
            cal.try_remove(r(100, 110, 1)),
            Err(ReservationError::NotReserved { .. })
        ));
        // Failed removals left the calendar intact.
        assert_eq!(cal.used_at(t(15)), 4);
        assert_eq!(cal.num_reservations(), 1);
        // A partial removal (fewer procs over a sub-interval) is legal:
        // the platform only sees aggregate usage.
        cal.try_remove(r(12, 18, 2)).unwrap();
        assert_eq!(cal.used_at(t(15)), 2);
        assert_eq!(cal.used_at(t(11)), 4);
    }

    #[test]
    fn remove_recoalesces_merged_breakpoints() {
        // Abutting equal-usage reservations coalesce on add; removal must
        // re-split and still land in canonical minimal form.
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 10, 2)).unwrap();
        cal.try_add(r(10, 20, 2)).unwrap();
        assert_eq!(cal.num_breakpoints(), 2);
        cal.try_remove(r(0, 10, 2)).unwrap();
        assert_eq!(cal.used_at(t(5)), 0);
        assert_eq!(cal.used_at(t(15)), 2);
        assert_eq!(cal.num_breakpoints(), 2); // (10, 2), (20, 0)
        cal.try_remove(r(10, 20, 2)).unwrap();
        assert_eq!(cal.num_breakpoints(), 0);
    }

    #[test]
    fn remove_repairs_index_incrementally() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 100, 2)).unwrap();
        cal.try_add(r(50, 80, 3)).unwrap();
        // (The name predates the single engine.) Query, then remove along
        // existing breakpoints (pure usage bump) and check queries against
        // the linear oracle.
        assert_eq!(cal.peak_used(t(0), t(100)), 5);
        cal.try_remove(r(50, 80, 3)).unwrap();
        assert_eq!(cal.peak_used(t(0), t(100)), 2);
        assert_eq!(cal.earliest_fit(7, d(10), t(0)), t(100));
        assert_eq!(
            cal.used_integral(t(0), t(100)),
            cal.linear().used_integral(t(0), t(100))
        );
        // Structural removal: breakpoints vanish.
        cal.try_remove(r(0, 100, 2)).unwrap();
        assert_eq!(cal.peak_used(t(0), t(100)), 0);
        assert_eq!(cal.earliest_fit(8, d(10), t(0)), t(0));
    }

    #[test]
    fn resize_is_atomic() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 2)).unwrap();
        cal.try_add(r(20, 30, 4)).unwrap();
        let before = cal.clone();

        // Shrink succeeds.
        cal.try_resize(r(0, 10, 2), r(0, 5, 2)).unwrap();
        assert_eq!(cal.used_at(t(7)), 0);
        // Grow back.
        cal.try_resize(r(0, 5, 2), r(0, 10, 2)).unwrap();
        assert_eq!(cal, before);

        // New placement conflicts: calendar restored exactly.
        let err = cal.try_resize(r(0, 10, 2), r(15, 25, 1));
        assert!(matches!(err, Err(ReservationError::Conflict { .. })));
        assert_eq!(cal, before);

        // Old reservation absent: nothing touched.
        let err = cal.try_resize(r(50, 60, 1), r(70, 80, 1));
        assert!(matches!(err, Err(ReservationError::NotReserved { .. })));
        assert_eq!(cal, before);

        // A resize may overlap its own old interval (shrink in place
        // releases capacity the new interval then reuses).
        cal.try_resize(r(20, 30, 4), r(25, 35, 4)).unwrap();
        assert_eq!(cal.used_at(t(22)), 0);
        assert_eq!(cal.used_at(t(32)), 4);
    }

    #[test]
    fn fits_mirrors_try_add() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 3)).unwrap();
        assert!(cal.fits(&r(5, 15, 1)));
        assert!(!cal.fits(&r(5, 15, 2)));
        assert!(!cal.fits(&r(0, 1, 5)));
        assert!(cal.fits(&r(10, 20, 4)));
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        // The sweep against the reference it replaces: one `try_add` at a
        // time onto an empty calendar.
        let incremental = |capacity: u32, resvs: &[Reservation]| {
            let mut cal = Calendar::new(capacity);
            for &r in resvs {
                cal.try_add(r).unwrap();
            }
            cal
        };
        let resvs = vec![r(10, 20, 3), r(15, 30, 2), r(50, 60, 8)];
        let bulk = Calendar::with_reservations(8, resvs.clone()).unwrap();
        let incr = incremental(8, &resvs);
        assert_eq!(bulk, incr);
        assert_eq!(
            serde_json::to_string(&bulk).unwrap(),
            serde_json::to_string(&incr).unwrap()
        );
        // Abutting equal-usage reservations coalesce identically.
        let resvs = vec![r(0, 10, 2), r(10, 20, 2)];
        let bulk = Calendar::with_reservations(8, resvs.clone()).unwrap();
        assert_eq!(bulk, incremental(8, &resvs));
        assert_eq!(bulk.num_breakpoints(), 2);
        // Overbooking is caught at the first offending instant.
        let err = Calendar::with_reservations(4, vec![r(0, 10, 3), r(5, 15, 2)]);
        assert!(matches!(err, Err(ReservationError::Conflict { at, .. }) if at == t(5)));
        let err = Calendar::with_reservations(4, vec![r(0, 10, 5)]);
        assert!(matches!(err, Err(ReservationError::ExceedsCapacity { .. })));
        // A reservation built field by field is checked for its shape.
        let inverted = Reservation {
            start: t(10),
            end: t(5),
            procs: 1,
        };
        let err = Calendar::with_reservations(4, vec![r(0, 10, 1), inverted]);
        assert!(matches!(err, Err(ReservationError::EmptyInterval { .. })));
        // Empty load is the empty calendar.
        assert_eq!(
            Calendar::with_reservations(8, []).unwrap(),
            Calendar::new(8)
        );
    }

    #[test]
    fn backends_agree_on_queries_and_mutation() {
        // Production walk vs the linear reference: same answers, same
        // query counts, before and after mutation.
        fn check(cal: &Calendar, fits: [(u32, Dur, Time, Time); 2], peak: u32, area: i64) {
            let lin = cal.linear();
            let (mut cw, mut cl) = (QueryCost::default(), QueryCost::default());
            let (procs, dur, from, want) = fits[0];
            let walked = cal.earliest_finish(&[(procs, dur)], from, false, &mut cw);
            assert_eq!(walked.start, want);
            assert_eq!(lin.earliest_fit(procs, dur, from, &mut cl), want);
            let (procs, dur, end_by, want) = fits[1];
            let walked = cal.latest_start(&[(procs, dur)], end_by, t(0), &mut cw);
            assert_eq!(walked.map(|r| r.start), Some(want));
            assert_eq!(
                lin.latest_fit(procs, dur, end_by, t(0), &mut cl),
                Some(want)
            );
            assert_eq!((cw.queries, cl.queries), (2, 2));
            assert_eq!(cal.peak_used(t(0), t(200)), peak);
            assert_eq!(lin.peak_used(t(0), t(200)), peak);
            assert_eq!(cal.used_integral(t(0), t(200)), area);
            assert_eq!(lin.used_integral(t(0), t(200)), area);
        }
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 100, 2)).unwrap();
        cal.try_add(r(50, 80, 5)).unwrap();
        cal.try_add(r(120, 140, 8)).unwrap();
        let fits = [(7, d(10), t(0), t(100)), (4, d(10), t(130), t(110))];
        check(&cal, fits, 8, 2 * 100 + 5 * 30 + 8 * 20);
        cal.try_remove(r(50, 80, 5)).unwrap();
        check(&cal, fits, 8, 2 * 100 + 8 * 20);
        cal.try_remove(r(120, 140, 8)).unwrap();
        let fits = [(7, d(10), t(0), t(100)), (4, d(10), t(130), t(120))];
        check(&cal, fits, 2, 2 * 100);
    }

    /// The removal-validity scan as it was before it became one forward
    /// pass: a `used_at` search plus a `partition_point` per breakpoint.
    /// Kept here as the reference the walk's reports are pinned to.
    fn first_under_by_repeated_search(
        cal: &Calendar,
        from: Time,
        to: Time,
        procs: u32,
    ) -> Option<(Time, u32)> {
        let mut at = from;
        while at < to {
            let used = cal.used_at(at);
            if used < procs {
                return Some((at, used));
            }
            let idx = cal.steps.partition_point(|s| s.time <= at);
            at = cal.steps.get(idx)?.time;
        }
        None
    }

    #[test]
    fn removal_scan_reports_are_unchanged_by_the_single_pass() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(10, 20, 4)).unwrap();
        cal.try_add(r(15, 40, 2)).unwrap();
        cal.try_add(r(60, 80, 3)).unwrap(); // idle hole [40, 60)
        let expect = |rm: Reservation, at: i64, used: u32| {
            assert_eq!(
                cal.clone().try_remove(rm),
                Err(ReservationError::NotReserved {
                    at: t(at),
                    used,
                    requested: rm.procs
                }),
                "{rm:?}"
            );
        };
        // Partial overlap: runs off the end of the level it matches.
        expect(r(10, 25, 4), 20, 2);
        expect(r(12, 30, 5), 12, 4);
        expect(r(15, 45, 2), 40, 0);
        // Starts before the first breakpoint.
        expect(r(5, 20, 4), 5, 0);
        expect(r(0, 5, 1), 0, 0);
        // Runs past (or lies entirely past) the horizon.
        expect(r(60, 90, 3), 80, 0);
        expect(r(80, 90, 1), 80, 0);
        expect(r(100, 110, 1), 100, 0);
        // Straddles the interior hole.
        expect(r(30, 70, 2), 40, 0);
        // And exhaustively against the old two-search scan.
        for from in (0..95).step_by(5) {
            for to in ((from + 5)..100).step_by(5) {
                for procs in 1..=7 {
                    assert_eq!(
                        cal.slots().first_under(t(from), t(to), procs),
                        first_under_by_repeated_search(&cal, t(from), t(to), procs),
                        "[{from}, {to}) x {procs}"
                    );
                }
            }
        }
        assert_eq!(
            Calendar::new(4).slots().first_under(t(0), t(9), 1),
            Some((t(0), 0))
        );
    }

    #[test]
    fn serde_round_trip_ignores_index_cache() {
        // (The name predates the single engine: there is no cache left to
        // ignore, and the four serialized fields are the whole calendar.)
        let mut cal = Calendar::new(8);
        cal.try_add(r(10, 20, 4)).unwrap();
        cal.try_add(r(15, 30, 3)).unwrap();
        let json = serde_json::to_string(&cal).unwrap();
        let back: Calendar = serde_json::from_str(&json).unwrap();
        assert_eq!(cal, back);
        assert_eq!(
            back.earliest_fit(8, d(5), t(0)),
            cal.earliest_fit(8, d(5), t(0))
        );
    }
}
