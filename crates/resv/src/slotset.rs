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
//! Three width-scan walks answer every slot question: forward, the width
//! that completes first ([`Slots::earliest_finish`]); backward, the width
//! that starts latest ([`Slots::latest_start`]) and the narrowest width
//! past a threshold ([`Slots::narrowest_start_from`]). A question about
//! one width is a scan over one candidate.
//!
//! What the canonical form of the breakpoints guarantees about the slots:
//!
//! * slots are contiguous and adjacent slots differ in `used`;
//! * the first and last slots are never idle (the first breakpoint has
//!   `used != 0`, and so does the segment before the last one);
//! * interior idle slots are legal — they are the holes between busy
//!   periods;
//! * outside the covered span every processor is free (implicitly).

use crate::calendar::{before_from, Step};
use crate::reservation::Reservation;
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

/// A run of consecutive width candidates that a one-walk width scan
/// carries at one window edge: from candidate `first` up to the next
/// segment's (the last segment runs to the widest candidate).
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Index of the narrowest candidate in the run.
    first: usize,
    /// The window edge every candidate in the run currently shares: where
    /// it starts in the forward walk ([`Slots::earliest_finish`]), where it
    /// ends in the backward ones ([`Slots::latest_start`],
    /// [`Slots::narrowest_start_from`]).
    edge: Time,
    /// The widest, hence shortest, candidate in the run as `(m, dur)`: the
    /// only one that can be the first to complete, or the last to start.
    top: (u32, Dur),
}

/// Take every candidate from `at` on off the stack: pop the segments that
/// start there or above, and cut the one `at` falls inside — its widest
/// candidate is now the one just below `at`.
fn cut_at(segs: &mut Vec<Segment>, cands: &[(u32, Dur)], at: usize) {
    while segs.last().is_some_and(|seg| seg.first >= at) {
        segs.pop();
    }
    let below = cands.get(..at).and_then(<[_]>::last);
    if let (Some(cut), Some(&below)) = (segs.last_mut(), below) {
        cut.top = below;
    }
}

/// A slot too full for candidate `blocked` is too full for every wider one:
/// send them all to `edge`, which no candidate's window edge has passed yet,
/// as one segment on top of what is left of the narrower ones'.
fn block_from(segs: &mut Vec<Segment>, cands: &[(u32, Dur)], blocked: usize, edge: Time) {
    cut_at(segs, cands, blocked);
    if let Some(&top) = cands.last() {
        segs.push(Segment {
            first: blocked,
            edge,
            top,
        });
    }
}

/// The longest width list [`unblocked`] counts through; a longer one is
/// binary-searched. Per forward walk of ~70 partly blocking slots on a
/// 1 152-processor calendar of 3 000 reservations (2-core x86-64 host,
/// best of three alternated runs), the count took ×0.93–0.96 of the
/// search's time at 8–11 candidates, ×1.1 at 24–32, ×1.4 at 64 and ×3.6 at
/// 227 (a `BD_ALL` list); the backward walk alike.
const COUNT_MAX: usize = 16;

/// How many of `cands` are no wider than `free`, widths increasing: the
/// index of the first candidate a slot with `free` processors free blocks.
/// Every slot that blocks part of the list asks it, and which widths a slot
/// frees is data the branch predictor cannot learn: over a short list (the
/// floor's ~`log2 p` relaxed widths) a count with no data-dependent branch
/// beats the binary search's mispredicted probes.
fn unblocked(cands: &[(u32, Dur)], free: u32) -> usize {
    if cands.len() > COUNT_MAX {
        return cands.partition_point(|&(m, _)| m <= free);
    }
    cands.iter().map(|&(m, _)| usize::from(m <= free)).sum()
}

/// Candidate `(m, dur)` in the window ending at `edge`.
fn ending_at(edge: Time, (procs, dur): (u32, Dur)) -> Reservation {
    Reservation {
        start: edge - dur,
        end: edge,
        procs,
    }
}

/// The narrowest of `cands[from..until]` no longer than `room`, if any:
/// durations fall with the width, so everything wider is no longer either.
fn narrowest_within(
    cands: &[(u32, Dur)],
    from: usize,
    until: usize,
    room: Dur,
) -> Option<(usize, (u32, Dur))> {
    let run = cands.get(from..until)?;
    let at = run.partition_point(|&(_, dur)| dur > room);
    run.get(at).map(|&cand| (from + at, cand))
}

/// The narrowest candidate that can still start at or after `threshold`
/// where its segment has it, as the reservation it would get — after
/// dropping every narrower one from the bottom of the stack: tentative
/// starts only fall, so those are out for good. Leaves that candidate first
/// in the bottom segment.
fn narrowest_from(
    segs: &mut Vec<Segment>,
    cands: &[(u32, Dur)],
    threshold: Time,
) -> Option<Reservation> {
    while let Some(&Segment { first, edge, top }) = segs.first() {
        // A segment's widest candidate starts last: if it is too early, all
        // of the segment is.
        if edge - top.1 >= threshold {
            let until = segs.get(1).map_or(cands.len(), |next| next.first);
            let (lead, cand) = narrowest_within(cands, first, until, edge - threshold)?;
            segs.first_mut()?.first = lead;
            return Some(ending_at(edge, cand));
        }
        segs.remove(0);
    }
    None
}

/// The narrowest candidate from `blocked` on whose whole window lies at or
/// after `slot_end` — the walk is past it, so its tentative fit is final —
/// as its index and that fit.
fn narrowest_settled(
    segs: &[Segment],
    cands: &[(u32, Dur)],
    blocked: usize,
    slot_end: Time,
) -> Option<(usize, Reservation)> {
    segs.iter().enumerate().find_map(|(n, seg)| {
        // Most slots settle nothing: a segment's widest candidate starts
        // last, so if the walk is not past its start it is past none.
        if seg.edge - seg.top.1 < slot_end {
            return None;
        }
        let until = segs.get(n + 1).map_or(cands.len(), |next| next.first);
        let from = seg.first.max(blocked);
        let (i, cand) = narrowest_within(cands, from, until, seg.edge - slot_end)?;
        Some((i, ending_at(seg.edge, cand)))
    })
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

    /// How many slots start before `t`: the backward walks position on the
    /// last of them. Slot `k` starts at breakpoint `k`, and the last
    /// breakpoint starts no slot.
    fn starting_before(self, t: Time) -> usize {
        self.steps
            .partition_point(|b| b.time < t)
            .min(self.steps.len().saturating_sub(1))
    }

    /// The slot before slot `k`, while the backward walk has any left.
    fn before(self, k: usize) -> Option<Slot> {
        k.checked_sub(1).and_then(|last| self.get(last))
    }

    /// The widest (last) of a task's width candidates `(m, dur)`, after
    /// checking what every one-walk scan asks of the list: not empty, widths
    /// within `1..=capacity` and increasing, durations positive and
    /// decreasing (non-increasing if `plateaus`).
    fn widest_of(self, cands: &[(u32, Dur)], plateaus: bool) -> (u32, Dur) {
        assert!(!cands.is_empty(), "no width candidate");
        let narrowest = cands.first().map_or(0, |&(m, _)| m);
        let (widest, shortest) = cands.last().copied().unwrap_or_default();
        assert!(
            narrowest > 0 && widest <= self.capacity,
            "bad procs {narrowest}..={widest}"
        );
        assert!(shortest.is_positive(), "bad duration {shortest}");
        debug_assert!(
            cands.windows(2).all(|w| matches!(w, &[(m0, d0), (m1, d1)]
                if m0 < m1 && (d1 < d0 || (plateaus && d1 == d0)))),
            "candidates must widen and shorten: {cands:?}"
        );
        (widest, shortest)
    }

    /// The slots intersecting `[from, to)`, in order.
    fn intersecting(self, from: Time, to: Time) -> impl Iterator<Item = Slot> + 'a {
        (self.first_ending_after(from)..)
            .map_while(move |i| self.get(i))
            .take_while(move |s| s.start < to)
    }

    /// The reservation of the width candidate that completes first: the
    /// argmin over `cands` of `fit + dur`, where `fit` is the candidate's
    /// earliest start `s >= not_before` with `m` processors free throughout
    /// `[s, s + dur)`, a tie going to the widest candidate if
    /// `widest_on_tie` and to the narrowest otherwise — from one forward
    /// walk instead of one per candidate. `cands` is `(m, dur)` in
    /// increasing `m` with `dur` decreasing (non-increasing if
    /// `widest_on_tie`): a wider candidate that is no shorter can never
    /// complete first. A one-width question is this walk over one
    /// candidate.
    ///
    /// A slot with `free` processors free blocks exactly the candidates
    /// wider than `free`, a suffix of `cands`, and sends all of them to the
    /// slot's end, which no candidate start has passed yet. So candidate
    /// starts never decrease with `m`, and the walk keeps them as a stack of
    /// [`Segment`]s, starts increasing up the stack: a blocking slot pops
    /// the segments it blocks whole, cuts the one it blocks in part, and
    /// pushes the blocked suffix as one segment. Each candidate's start
    /// thereby follows the trajectory a walk of its own would, restarting
    /// past every slot too full for it. Within a segment
    /// the widest candidate is the shortest, so it alone can complete
    /// first; the walk stops at the first slot starting at or after the
    /// earliest such completion (every candidate still waiting then ends
    /// later than that slot starts) or past the covered span, and the
    /// answer is the best of the segments' widest candidates.
    ///
    /// The lead, the best completion among the segments' widest candidates,
    /// is the least of all the candidates' tentative completions; those
    /// only rise, so the lead's end never decreases and never passes the
    /// answer's. Once it ends after `stop` the walk returns it: the answer
    /// whenever that ends at or before `stop`, and otherwise a tentative
    /// reservation — not a fit — ending after `stop` and no later than the
    /// answer. `Time::MAX` walks to the answer.
    ///
    /// `visited` counts the positioning step and the slots inspected — no
    /// more than any single candidate's own walk inspects, and exactly that
    /// when there is one candidate and the walk runs to the answer.
    pub(crate) fn earliest_finish(
        self,
        cands: &[(u32, Dur)],
        not_before: Time,
        widest_on_tie: bool,
        stop: Time,
        visited: &mut u64,
    ) -> Reservation {
        let top = self.widest_of(cands, widest_on_tie);
        let (widest, _) = top;
        // Best completion among the segments' widest candidates. Segments
        // come narrowest first, so a tie is always with a narrower one.
        let lead_of = |segs: &[Segment]| {
            let mut lead = Reservation {
                start: not_before,
                end: Time::MAX,
                procs: widest,
            };
            for seg in segs {
                let (procs, dur) = seg.top;
                let end = seg.edge + dur;
                if end < lead.end || (end == lead.end && widest_on_tie) {
                    lead = Reservation {
                        start: seg.edge,
                        end,
                        procs,
                    };
                }
            }
            lead
        };
        // Every candidate starting at `edge`: the widest, the shortest,
        // completes first.
        let together = |edge: Time| Reservation {
            start: edge,
            end: edge + top.1,
            procs: widest,
        };
        let narrowest = cands.first().map_or(widest, |&(m, _)| m);
        *visited += 1;
        // The stack stays empty while every candidate shares the lead's
        // start, so a slot too full for all of them, the only kind a single
        // candidate meets, moves the lead and nothing else.
        let mut segs = Vec::new();
        let mut lead = together(not_before);
        let mut i = self.first_ending_after(not_before);
        while let Some(s) = self
            .get(i)
            .filter(|s| s.start < lead.end && lead.end <= stop)
        {
            *visited += 1;
            let free = self.capacity.saturating_sub(s.used);
            if free < narrowest {
                segs.clear();
                lead = together(s.end);
            } else if free < widest {
                if segs.is_empty() {
                    segs.push(Segment {
                        first: 0,
                        edge: lead.start,
                        top,
                    });
                }
                block_from(&mut segs, cands, unblocked(cands, free), s.end);
                lead = lead_of(&segs);
            }
            i += 1;
        }
        lead
    }

    /// The reservation of the width candidate whose latest fit inside
    /// `[not_before, end_by)` starts latest — a candidate's latest fit being
    /// its latest start `s >= not_before` with `s + dur <= end_by` and `m`
    /// processors free throughout — a tie going to the narrower candidate,
    /// or `None` if no candidate fits: from one backward walk instead of one
    /// per candidate. `cands` is `(m, dur)` in increasing `m` with `dur`
    /// decreasing.
    ///
    /// The mirror of [`earliest_finish`](Slots::earliest_finish). A slot with
    /// `free` processors free blocks exactly the candidates wider than
    /// `free`, a suffix of `cands`, and sends all of their windows to end
    /// where the slot starts, before every window end so far. So window ends
    /// never increase with `m`, and the walk keeps them as a stack of
    /// [`Segment`]s, ends decreasing up the stack. Within a segment the
    /// widest candidate is the shortest, so it alone can start latest; the
    /// lead is the latest-starting of the segments' widest candidates. No
    /// candidate starts after the lead, so every slot ending after the lead's
    /// start still lies in every candidate's window, and each candidate's
    /// window end follows the trajectory a walk of its own would give it,
    /// restarting before every slot too full for it. The walk stops at the
    /// first slot ending at or before the lead's start (the lead's window is
    /// clear, and nothing can start later), before the covered span, or when
    /// the lead itself — hence every candidate — would start before
    /// `not_before`.
    ///
    /// `visited` counts the positioning step and the slots inspected — no
    /// more than the answer's own walk inspects (than the longest of the
    /// candidates' walks, when nothing fits). With one candidate that is
    /// its own walk's count, less the slot lying wholly before the window
    /// that ends it: the stop test reads that slot's end without counting
    /// it.
    pub(crate) fn latest_start(
        self,
        cands: &[(u32, Dur)],
        end_by: Time,
        not_before: Time,
        visited: &mut u64,
    ) -> Option<Reservation> {
        let top = self.widest_of(cands, false);
        let (widest, _) = top;
        // Segments come narrowest first, so the strict comparison leaves a
        // tie with the narrower candidate.
        let lead_of = |segs: &[Segment]| {
            let mut lead: Option<Reservation> = None;
            for seg in segs {
                let fit = ending_at(seg.edge, seg.top);
                if lead.is_none_or(|l| fit.start > l.start) {
                    lead = Some(fit);
                }
            }
            lead.filter(|l| l.start >= not_before)
        };
        *visited += 1;
        let mut segs = vec![Segment {
            first: 0,
            edge: end_by,
            top,
        }];
        let mut lead = lead_of(&segs)?;
        let mut k = self.starting_before(end_by);
        while let Some(s) = self.before(k).filter(|s| s.end > lead.start) {
            *visited += 1;
            let free = self.capacity.saturating_sub(s.used);
            if free < widest {
                block_from(&mut segs, cands, unblocked(cands, free), s.start);
                lead = lead_of(&segs)?;
            }
            k -= 1;
        }
        Some(lead)
    }

    /// The reservation of the *narrowest* width candidate whose latest fit
    /// ending by `end_by` starts at or after `threshold`: the first of
    /// `cands` with a latest fit inside `[threshold, end_by)`, with that
    /// fit, or `None` — from one backward walk. `cands` as for
    /// [`latest_start`](Slots::latest_start), whose segment stack this walk
    /// shares.
    ///
    /// Tentative starts only fall, so a candidate whose tentative start is
    /// below `threshold` is out for good and leaves the stack; the lead is
    /// the narrowest one left. It wins when a slot ends at or before its
    /// start (or the covered span does): its window is clear and everything
    /// narrower is out. Unlike in `latest_start`, wider candidates may start
    /// after the lead, so the walk can be past a candidate's whole window —
    /// its fit is then *settled* — and still meet a slot too full for it.
    /// Such a slot must not move it. The narrowest settled candidate among
    /// those a slot blocks is a known answer unless something narrower
    /// fits: the walk records it, drops it and everything wider, and
    /// carries on with the narrower ones; it is the answer when the last of
    /// them is out.
    ///
    /// A caller may split `cands` into consecutive chunks and ask about each
    /// in turn: the first chunk with an answer holds the narrowest one.
    ///
    /// `visited` counts the positioning step and the slots inspected — no
    /// more than the longest per-width walk among the answer's and the
    /// narrower candidates'.
    pub(crate) fn narrowest_start_from(
        self,
        mut cands: &[(u32, Dur)],
        end_by: Time,
        threshold: Time,
        visited: &mut u64,
    ) -> Option<Reservation> {
        let top = self.widest_of(cands, false);
        *visited += 1;
        let mut segs = vec![Segment {
            first: 0,
            edge: end_by,
            top,
        }];
        let mut settled = None;
        let mut lead = narrowest_from(&mut segs, cands, threshold)?;
        let mut k = self.starting_before(end_by);
        while let Some(s) = self.before(k).filter(|s| s.end > lead.start) {
            *visited += 1;
            k -= 1;
            let free = self.capacity.saturating_sub(s.used);
            if cands.last().is_none_or(|&(widest, _)| widest <= free) {
                continue;
            }
            // The lead is the first candidate of the bottom segment.
            let lead_at = segs.first().map_or(0, |seg| seg.first);
            let blocked = unblocked(cands, free).max(lead_at);
            if let Some((i, fit)) = narrowest_settled(&segs, cands, blocked, s.end) {
                settled = Some(fit);
                cut_at(&mut segs, cands, i);
                cands = cands.get(..i).unwrap_or_default();
            }
            if blocked < cands.len() {
                block_from(&mut segs, cands, blocked, s.start);
                if blocked == lead_at {
                    match narrowest_from(&mut segs, cands, threshold) {
                        Some(next) => lead = next,
                        None => return settled,
                    }
                }
            }
        }
        Some(lead)
    }

    /// The breakpoints that bound the slots intersecting `[from, to)`:
    /// slot `k` of the run is `(run[k], run[k + 1])`, so the run holds one
    /// more breakpoint than there are slots (none when it is empty). The
    /// positioning search, then a gallop to the first slot starting at or
    /// after `to`: a short window pays a probe or two past the search, and
    /// no slot is walked.
    fn bounding(self, from: Time, to: Time) -> &'a [Step] {
        let lo = self.first_ending_after(from);
        let hi = before_from(self.steps, lo, to).min(self.steps.len().saturating_sub(1));
        self.steps.get(lo..=hi).unwrap_or_default()
    }

    /// Peak processors in use over `[from, to)`. Implicitly-free time
    /// outside the covered span contributes 0. A window that holds no
    /// breakpoint, what the validator's capacity sweep asks of each
    /// interval it samples, sees one level: the one the positioning search
    /// lands on. Any other window folds the levels of its slots.
    pub(crate) fn peak_used(self, from: Time, to: Time) -> u32 {
        assert!(from < to, "empty window");
        let after = self.steps.partition_point(|s| s.time <= from);
        if self.steps.get(after).is_none_or(|next| next.time >= to) {
            let at_from = after.checked_sub(1).and_then(|at| self.steps.get(at));
            return at_from.map_or(0, |s| s.used);
        }
        let run = self.bounding(from, to);
        // Every breakpoint but the last starts a slot of the window.
        let starts = run.split_last().map_or(run, |(_, starts)| starts);
        starts.iter().fold(0, |peak, s| peak.max(s.used))
    }

    /// Integral of processors-in-use over `[from, to)`, in
    /// processor-seconds: every slot of the window whole, in one loop with
    /// no early exit, less the parts of the two end slots that lie outside
    /// it.
    ///
    /// The arithmetic wraps. A whole end slot can hold more
    /// processor-seconds than an `i64` while the window's share of it does
    /// not; every operation here is a ring operation, exact modulo 2^64, so
    /// whenever the integral itself fits in an `i64` the wrapped result is
    /// that integral exactly.
    pub(crate) fn used_integral(self, from: Time, to: Time) -> i64 {
        assert!(from <= to);
        let run = self.bounding(from, to);
        let area = |used: u32, from: Time, to: Time| {
            i64::from(used).wrapping_mul(to.as_seconds().wrapping_sub(from.as_seconds()))
        };
        let whole = run
            .iter()
            .zip(run.iter().skip(1))
            .fold(0i64, |sum, (a, b)| {
                sum.wrapping_add(area(a.used, a.time, b.time))
            });
        let head = match run {
            [a, _, ..] if a.time < from => area(a.used, a.time, from),
            _ => 0,
        };
        let tail = match run {
            [.., a, b] if b.time > to => area(a.used, to, b.time),
            _ => 0,
        };
        whole.wrapping_sub(head).wrapping_sub(tail)
    }

    /// The first instant `t >= from` at which the free processor-seconds
    /// over `[from, t)` reach `work` (`from` itself when `work` is not
    /// positive). One forward pass from the slot holding `from`: the slots
    /// are contiguous, so the cursor only leaves them before the first one
    /// and past the last, where every processor is free and the answer is
    /// one division away. A full slot adds nothing and is stepped over.
    pub(crate) fn earliest_free_work(self, from: Time, work: i64) -> Time {
        let mut t = from;
        let mut left = work;
        let mut i = self.first_ending_after(from);
        while left > 0 {
            let next = self.get(i);
            let covering = next.filter(|s| s.start <= t);
            let used = covering.map_or(0, |s| s.used);
            let free = i64::from(self.capacity.saturating_sub(used));
            // Where this stretch of constant usage ends: the covering
            // slot's end, the first slot's start, or never.
            let end = next.map(|s| if s.start <= t { s.end } else { s.start });
            match end {
                Some(end) if free * (end - t).as_seconds() < left => {
                    left -= free * (end - t).as_seconds();
                    t = end;
                    i += usize::from(covering.is_some());
                }
                // `free > 0` here: a stretch that covers a positive `left`
                // frees something, and past the slots all `capacity` are.
                _ => return t + Dur::seconds((left + free - 1) / free.max(1)),
            }
        }
        t
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

    /// The earliest start of one width: a one-candidate forward scan.
    fn earliest_of_one(ss: Slots<'_>, procs: u32, dur: Dur, not_before: Time, v: &mut u64) -> Time {
        ss.earliest_finish(&[(procs, dur)], not_before, false, Time::MAX, v)
            .start
    }
    /// The latest start of one width: a one-candidate backward scan.
    fn latest_of_one(
        ss: Slots<'_>,
        procs: u32,
        dur: Dur,
        end_by: Time,
        not_before: Time,
        v: &mut u64,
    ) -> Option<Time> {
        ss.latest_start(&[(procs, dur)], end_by, not_before, v)
            .map(|r| r.start)
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
        assert_eq!(earliest_of_one(ss, 4, d(10), t(0), &mut v), t(10));
        assert_eq!(v, 3);
        // An 11s window must wait for the drain: all three slots.
        let mut v = 0;
        assert_eq!(earliest_of_one(ss, 4, d(11), t(0), &mut v), t(30));
        assert_eq!(v, 4);
        // Past the span everything is free: the positioning step alone.
        let mut v = 0;
        assert_eq!(earliest_of_one(ss, 1, d(5), t(100), &mut v), t(100));
        assert_eq!(v, 1);
    }

    #[test]
    fn latest_fit_walks_backward() {
        let steps = [step(0, 2), step(10, 0), step(20, 2), step(30, 0)];
        let ss = slots(2, &steps);
        // Blocked by [20,30), then the hole; the slot before it ends at the
        // window start and stops the walk uninspected.
        let mut v = 0;
        assert_eq!(
            latest_of_one(ss, 2, d(10), t(30), t(0), &mut v),
            Some(t(10))
        );
        assert_eq!(v, 3);
        let mut v = 0;
        // No fit: the hole [10, 20) is one second short.
        assert_eq!(latest_of_one(ss, 2, d(11), t(30), t(0), &mut v), None);
        assert!(v > 0);
        // Past the span: the last slot ends before the window, and the
        // positioning step is all the walk does.
        let mut v = 0;
        assert_eq!(
            latest_of_one(ss, 1, d(5), t(100), t(0), &mut v),
            Some(t(95))
        );
        assert_eq!(v, 1);
    }

    /// One width's forward walk with a fresh `partition_point` for the
    /// window start after every blocker: the reference the one-width scan's
    /// answers and `visited` counts are pinned to.
    fn earliest_fit_by_repeated_search(
        ss: Slots<'_>,
        procs: u32,
        dur: Dur,
        not_before: Time,
        visited: &mut u64,
    ) -> Time {
        let max_used = ss.capacity - procs;
        *visited += 1;
        let mut c = not_before;
        loop {
            let mut i = ss.steps.partition_point(|b| b.time <= c).saturating_sub(1);
            let blocker = loop {
                let Some(slot) = ss.get(i).filter(|slot| slot.start < c + dur) else {
                    break None;
                };
                *visited += 1;
                if slot.used > max_used {
                    break Some(slot);
                }
                i += 1;
            };
            match blocker {
                None => return c,
                Some(b) => c = b.end,
            }
        }
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

    /// A seeded `capacity`-processor calendar of `n` accepted-or-dropped
    /// random reservations over `[0, 400)`, with interior holes.
    fn seeded_calendar(capacity: u32, seed: u64, n: usize) -> Calendar {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut cal = Calendar::new(capacity);
        for _ in 0..n {
            let start = rng.gen_range(0..380i64);
            let len = rng.gen_range(1..40i64);
            let procs = rng.gen_range(1..=capacity);
            let _ = cal.try_add(Reservation::new(t(start), t(start + len), procs));
        }
        cal
    }

    /// The one-width differentials' calendars: one per draw, with window
    /// edges mid-slot, on every breakpoint and past the span, and lower
    /// bounds before the span, inside it and beyond the last blocker.
    fn one_width_draws() -> impl Iterator<Item = (u64, Calendar, Vec<i64>, Vec<i64>)> {
        // Seeded calendar draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        (0..draws).map(|seed| {
            let cal = seeded_calendar(8, seed, 4 + (seed as usize % 5) * 8);
            let horizon = cal.horizon().map_or(0, Time::as_seconds);
            let mut edges: Vec<i64> = cal.breakpoints().map(Time::as_seconds).collect();
            edges.extend([3, 57, 111, 203, 333, horizon + 1, horizon + 50]);
            let lows = vec![-20, 0, 41, 150, horizon - 1, horizon + 10];
            (seed, cal, edges, lows)
        })
    }

    #[test]
    fn one_width_earliest_finish_matches_the_repeated_search() {
        for (seed, cal, edges, lows) in one_width_draws() {
            let steps = steps_of(&cal);
            let ss = slots(8, &steps);
            let lin = cal.linear();
            for &not_before in edges.iter().chain(&lows) {
                for procs in [1, 3, 5, 8] {
                    for dur in [1, 4, 9, 25, 70] {
                        let (mut v1, mut v2) = (0, 0);
                        let got = earliest_of_one(ss, procs, d(dur), t(not_before), &mut v1);
                        let want = earliest_fit_by_repeated_search(
                            ss,
                            procs,
                            d(dur),
                            t(not_before),
                            &mut v2,
                        );
                        let case = format!("seed {seed}: {procs} procs x {dur}s from {not_before}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(
                            got,
                            lin.earliest_fit(procs, d(dur), t(not_before), &mut Default::default()),
                            "{case}"
                        );
                        assert_eq!(v1, v2, "visited differs, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_width_backward_walks_match_the_repeated_search() {
        for (seed, cal, edges, lows) in one_width_draws() {
            let steps = steps_of(&cal);
            let ss = slots(8, &steps);
            let lin = cal.linear();
            // The first slot's end: a fit starting there or later has a slot
            // lying wholly before its window, which ends the reference walk
            // as its last inspected slot and the one-width scan uninspected.
            let first_end = ss.get(0).map(|first| first.end);
            for &end_by in &edges {
                for &not_before in &lows {
                    for procs in [1, 3, 5, 8] {
                        for dur in [1, 4, 9, 25, 70] {
                            let (mut v1, mut v2) = (0, 0);
                            let (dur, end_by, not_before) = (d(dur), t(end_by), t(not_before));
                            let got = latest_of_one(ss, procs, dur, end_by, not_before, &mut v1);
                            let want = latest_fit_by_repeated_search(
                                ss, procs, dur, end_by, not_before, &mut v2,
                            );
                            let case = format!(
                                "seed {seed}: {procs} procs x {dur} in [{not_before}, {end_by})"
                            );
                            assert_eq!(got, want, "{case}");
                            assert_eq!(
                                got,
                                lin.latest_fit(
                                    procs,
                                    dur,
                                    end_by,
                                    not_before,
                                    &mut Default::default()
                                ),
                                "{case}"
                            );
                            let stopped_before =
                                got.is_some_and(|s| first_end.is_some_and(|e| e <= s));
                            assert_eq!(
                                v1 + u64::from(stopped_before),
                                v2,
                                "visited differs, {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `earliest_finish` against the loop it replaces: one earliest fit per
    /// candidate (the `linear()` reference for the answer, the repeated
    /// search for the step count), best completion kept under the same tie
    /// rule.
    fn assert_finish_matches_per_width_fits(
        cal: &Calendar,
        cands: &[(u32, Dur)],
        not_before: Time,
        case: &str,
    ) {
        let steps = steps_of(cal);
        let ss = slots(cal.capacity(), &steps);
        // Equal durations are legal input only when ties go to the widest.
        let strict = cands.windows(2).all(|w| w[1].1 < w[0].1);
        for widest_on_tie in [true, false] {
            if !widest_on_tie && !strict {
                continue;
            }
            let mut want: Option<Reservation> = None;
            let (mut summed, mut cheapest) = (0u64, u64::MAX);
            for &(m, dur) in cands {
                let start = cal
                    .linear()
                    .earliest_fit(m, dur, not_before, &mut Default::default());
                let mut v = 0;
                let searched = earliest_fit_by_repeated_search(ss, m, dur, not_before, &mut v);
                assert_eq!(searched, start, "{case}");
                summed += v;
                cheapest = cheapest.min(v);
                let fit = Reservation::for_duration(start, dur, m);
                if want.is_none_or(|b| fit.end < b.end || (fit.end == b.end && widest_on_tie)) {
                    want = Some(fit);
                }
            }
            let mut v = 0;
            let got = ss.earliest_finish(cands, not_before, widest_on_tie, Time::MAX, &mut v);
            let case =
                format!("{case}, widest_on_tie {widest_on_tie}, {cands:?} from {not_before}");
            assert_eq!(Some(got), want, "{case}");
            assert!(
                (1..=cheapest).contains(&v) && v <= summed,
                "{v} steps against {cheapest} for the cheapest per-width walk, {case}"
            );
        }
    }

    /// A calendar whose slots are exactly `used` processors busy over
    /// consecutive `len`-second intervals from `start`.
    fn staircase(capacity: u32, start: i64, len: i64, used: &[u32]) -> Calendar {
        let mut cal = Calendar::new(capacity);
        for (k, &u) in used.iter().enumerate().filter(|&(_, &u)| u > 0) {
            let from = start + k as i64 * len;
            bump(&mut cal, from, from + len, i64::from(u));
        }
        cal
    }

    #[test]
    fn earliest_finish_fixed_shapes() {
        // 1..=8 processors, each width 10 s shorter than the one before.
        let ladder: Vec<(u32, Dur)> = (1..=8).map(|m| (m, d(90 - 10 * i64::from(m)))).collect();
        let plateau = [(1, d(40)), (2, d(25)), (4, d(25)), (8, d(25))];
        let shapes = [
            ("empty", Calendar::new(8)),
            // Nothing fits beside any slot: every candidate restarts at
            // every slot, one segment throughout.
            (
                "all-blocking",
                staircase(8, 100, 15, &[8, 7, 8, 7, 8, 7, 8]),
            ),
            // Each slot frees one more processor than the one before, so
            // each splits one more segment off: 8 live at the end.
            (
                "ascending free",
                staircase(8, 100, 15, &[8, 7, 6, 5, 4, 3, 2, 1]),
            ),
            // The reverse merges everything back into one segment each slot.
            (
                "descending free",
                staircase(8, 100, 15, &[1, 2, 3, 4, 5, 6, 7, 8]),
            ),
            ("holes", staircase(8, 100, 30, &[8, 0, 5, 0, 8, 2, 0, 7])),
        ];
        for (name, cal) in &shapes {
            // Before the span (windows straddling the first slot), on its
            // first breakpoint, inside it, on its last breakpoint, past it.
            for not_before in [0, 30, 95, 100, 101, 160, 219, 220, 340, 1000] {
                let case = format!("{name} calendar");
                assert_finish_matches_per_width_fits(cal, &ladder, t(not_before), &case);
                assert_finish_matches_per_width_fits(cal, &plateau, t(not_before), &case);
                // A single candidate, and the whole machine alone.
                for one in [ladder[2], ladder[7], (8, d(200))] {
                    assert_finish_matches_per_width_fits(cal, &[one], t(not_before), &case);
                }
            }
        }
        // The ascending staircase seen from its foot: all eight widths wait
        // for different slots, and the walk still inspects each slot once.
        let (_, cal) = &shapes[2];
        let steps = steps_of(cal);
        let mut v = 0;
        let long: Vec<(u32, Dur)> = (1..=8).map(|m| (m, d(500 - i64::from(m)))).collect();
        let got = slots(8, &steps).earliest_finish(&long, t(100), false, Time::MAX, &mut v);
        // One processor frees first and is never caught up.
        assert_eq!(got, Reservation::new(t(115), t(115 + 499), 1));
        assert_eq!(v, 1 + 8);
    }

    #[test]
    fn earliest_finish_one_walk_matches_the_per_width_fits() {
        use rand::{Rng, SeedableRng};
        // Seeded calendar/candidate draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xF1_0019 ^ draw);
            let capacity = [1, 3, 8, 32][draw as usize % 4];
            let cal = seeded_calendar(capacity, draw, rng.gen_range(0..60usize));
            for _ in 0..8 {
                // A random subset of the widths; durations fall by a random
                // amount per kept width, with plateaus half of the time.
                let plateaus = rng.gen_bool(0.5);
                let mut dur = rng.gen_range(1..150i64);
                let mut cands = Vec::new();
                for m in 1..=capacity {
                    if rng.gen_bool(0.6) {
                        cands.push((m, d(dur)));
                        let fall = rng.gen_range(i64::from(!plateaus)..=1 + dur / 4);
                        dur -= fall;
                        if dur < 1 {
                            break;
                        }
                    }
                }
                if cands.is_empty() {
                    cands.push((capacity, d(dur.max(1))));
                }
                for not_before in [-50, 0, 17, 120, 233, 390, 450] {
                    let case = format!("draw {draw} on {capacity} processors");
                    assert_finish_matches_per_width_fits(&cal, &cands, t(not_before), &case);
                }
            }
        }
    }

    #[test]
    fn unblocked_counts_what_partition_point_finds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xC0_0417);
        // Every length up to 64 with seeded gaps between the widths, the
        // long `BD_ALL` list of `batch_table9` and a whole 1 152-processor
        // machine; every `free` from nothing to past the widest.
        for len in (0..=64).chain([227, 1152]) {
            let mut m = 0u32;
            let cands: Vec<(u32, Dur)> = (0..len)
                .map(|k| {
                    m += if len == 1152 { 1 } else { rng.gen_range(1..6) };
                    (m, d(2 * len - k))
                })
                .collect();
            for free in 0..=m + 1 {
                assert_eq!(
                    unblocked(&cands, free),
                    cands.partition_point(|&(w, _)| w <= free),
                    "{len} candidates, {free} free"
                );
            }
        }
    }

    /// A walk told to stop at `stop` against the same walk run to its
    /// answer: the answer itself whenever that ends by `stop`, at the same
    /// step count; otherwise a tentative reservation that ends after `stop`
    /// and no later than the answer, for no more steps.
    fn assert_stopped_walk_brackets_the_answer(
        ss: Slots<'_>,
        cands: &[(u32, Dur)],
        not_before: Time,
        case: &str,
    ) -> (u32, u32) {
        let strict = cands.windows(2).all(|w| w[1].1 < w[0].1);
        let shortest = cands.last().map_or(Dur::ZERO, |&(_, dur)| dur);
        let (mut exact, mut short) = (0, 0);
        for widest_on_tie in [true, false].into_iter().filter(|&w| w || strict) {
            let mut full_steps = 0;
            let full =
                ss.earliest_finish(cands, not_before, widest_on_tie, Time::MAX, &mut full_steps);
            // Every lead the walk can hold ends a candidate's duration past
            // `not_before` or past a slot's end: the widest's from each of
            // those, the first one above all, and the answer's neighbours.
            let mut stops: Vec<Time> = ss.steps.iter().map(|b| b.time + shortest).collect();
            stops.extend(cands.iter().map(|&(_, dur)| not_before + dur));
            stops.extend([full.end - d(1), full.end, full.end + d(1), Time::MAX]);
            for stop in stops {
                let mut steps = 0;
                let got = ss.earliest_finish(cands, not_before, widest_on_tie, stop, &mut steps);
                let case = format!(
                    "{case}, widest_on_tie {widest_on_tie}, {cands:?} from {not_before}, stop {stop}"
                );
                if full.end <= stop {
                    assert_eq!((got, steps), (full, full_steps), "{case}");
                    exact += 1;
                } else {
                    assert!(
                        stop < got.end && got.end <= full.end,
                        "{got:?} against {full:?}, {case}"
                    );
                    assert!((1..=full_steps).contains(&steps), "{steps} steps, {case}");
                    short += u32::from(got.end < full.end);
                }
            }
        }
        (exact, short)
    }

    #[test]
    fn a_stopped_earliest_finish_brackets_the_full_walk() {
        use rand::{Rng, SeedableRng};
        // Seeded calendar/candidate draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        let (mut exact, mut short) = (0, 0);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x5709_0048 ^ draw);
            let capacity = [1, 3, 8, 32, 430][draw as usize % 5];
            let cal = seeded_calendar(capacity, draw, rng.gen_range(0..60usize));
            let steps = steps_of(&cal);
            let ss = slots(capacity, &steps);
            let lists = [
                amdahl(
                    capacity,
                    rng.gen_range(1..600i64),
                    rng.gen_range(0.0..0.6),
                    0,
                ),
                amdahl(
                    capacity,
                    rng.gen_range(1..600i64),
                    0.0,
                    rng.gen_range(1..4i64),
                ),
                vec![(rng.gen_range(1..=capacity), d(rng.gen_range(1..90i64)))],
            ];
            for cands in &lists {
                for not_before in [-50, 0, rng.gen_range(0..400i64), 450] {
                    let case = format!("draw {draw} on {capacity} processors");
                    let (e, s) =
                        assert_stopped_walk_brackets_the_answer(ss, cands, t(not_before), &case);
                    (exact, short) = (exact + e, short + s);
                }
            }
        }
        assert!(
            exact > 0 && short > 0,
            "{exact} exact, {short} short of the answer"
        );
    }

    /// The conservative query asked chunk by chunk (1, 4, 16, … candidates),
    /// as the deadline scheduler asks it: the first chunk with an answer.
    fn narrowest_start_from_in_chunks(
        ss: Slots<'_>,
        cands: &[(u32, Dur)],
        end_by: Time,
        threshold: Time,
    ) -> Option<Reservation> {
        let (mut from, mut len) = (0, 1);
        while from < cands.len() {
            let chunk = &cands[from..(from + len).min(cands.len())];
            let hit = ss.narrowest_start_from(chunk, end_by, threshold, &mut 0);
            if hit.is_some() {
                return hit;
            }
            from += len;
            len *= 4;
        }
        None
    }

    /// `latest_start` and `narrowest_start_from` against the loops they
    /// replace: one latest fit per candidate inside `[not_before, end_by)`
    /// (the `linear()` reference for the answers, the repeated search for
    /// the step counts), then the latest start with ties to the narrower, and — for
    /// a threshold on either side of every candidate's start, below
    /// `not_before` and past `end_by` — the first start at or after it.
    fn assert_backward_walks_match_per_width_fits(
        cal: &Calendar,
        cands: &[(u32, Dur)],
        end_by: Time,
        not_before: Time,
        case: &str,
    ) {
        let steps = steps_of(cal);
        let ss = slots(cal.capacity(), &steps);
        let case = format!("{case}, {cands:?} in [{not_before}, {end_by})");
        let (mut fits, mut walks) = (Vec::new(), Vec::new());
        for &(m, dur) in cands {
            let fit = cal
                .linear()
                .latest_fit(m, dur, end_by, not_before, &mut Default::default());
            let mut v = 0;
            let walked = latest_fit_by_repeated_search(ss, m, dur, end_by, not_before, &mut v);
            assert_eq!(walked, fit, "{case}");
            fits.push(fit.map(|start| Reservation::for_duration(start, dur, m)));
            walks.push(v);
        }
        // No walk inspects more than the longest of the per-width walks it
        // stands for (so never their sum), nor more than its answer's own.
        let longest = |upto: usize| walks[..=upto].iter().copied().max().unwrap_or(0);

        let mut want: Option<(usize, Reservation)> = None;
        for (i, fit) in fits.iter().enumerate() {
            if let Some(fit) = fit {
                if want.is_none_or(|(_, best)| fit.start > best.start) {
                    want = Some((i, *fit));
                }
            }
        }
        let mut v = 0;
        let got = ss.latest_start(cands, end_by, not_before, &mut v);
        assert_eq!(got, want.map(|(_, fit)| fit), "latest start, {case}");
        let bound = want.map_or(longest(cands.len() - 1), |(i, _)| walks[i]);
        assert!(
            (1..=bound).contains(&v),
            "latest start: {v} steps against {bound} per width, {case}"
        );

        let mut thresholds = vec![not_before - d(7), not_before, end_by, end_by + d(1)];
        for fit in fits.iter().flatten() {
            thresholds.extend([fit.start, fit.start + d(1)]);
        }
        thresholds.sort();
        thresholds.dedup();
        for th in thresholds {
            let want = fits
                .iter()
                .enumerate()
                .find_map(|(i, fit)| fit.filter(|fit| fit.start >= th).map(|fit| (i, fit)));
            let from = th.max(not_before);
            let mut v = 0;
            let got = ss.narrowest_start_from(cands, end_by, from, &mut v);
            assert_eq!(got, want.map(|(_, fit)| fit), "from {th}, {case}");
            let bound = longest(want.map_or(cands.len() - 1, |(i, _)| i));
            assert!(
                (1..=bound).contains(&v),
                "from {th}: {v} steps against {bound} per width, {case}"
            );
            assert_eq!(
                narrowest_start_from_in_chunks(ss, cands, end_by, from),
                got,
                "chunked, from {th}, {case}"
            );
        }
    }

    /// A task's width candidates under Amdahl's law with a per-processor
    /// overhead, rounded up to whole seconds, dominated widths elided — the
    /// list `resched-core` hands these queries.
    fn amdahl(capacity: u32, seq: i64, alpha: f64, overhead: i64) -> Vec<(u32, Dur)> {
        let mut cands: Vec<(u32, Dur)> = Vec::new();
        for m in 1..=capacity {
            let t = seq as f64 * (alpha + (1.0 - alpha) / f64::from(m))
                + (overhead * i64::from(m - 1)) as f64;
            let dur = d((t.ceil() as i64).max(1));
            if cands.last().is_none_or(|&(_, shortest)| dur < shortest) {
                cands.push((m, dur));
            }
        }
        cands
    }

    #[test]
    fn backward_walks_fixed_shapes() {
        // 1..=8 processors, each width 10 s shorter than the one before.
        let ladder: Vec<(u32, Dur)> = (1..=8).map(|m| (m, d(90 - 10 * i64::from(m)))).collect();
        let sparse = [(1, d(60)), (3, d(25)), (8, d(7))];
        let shapes = [
            ("empty", Calendar::new(8)),
            (
                "all-blocking",
                staircase(8, 100, 15, &[8, 7, 8, 7, 8, 7, 8]),
            ),
            // Walked backward, each slot frees one more processor than the
            // one after it: one more segment splits off per slot.
            (
                "descending free",
                staircase(8, 100, 15, &[1, 2, 3, 4, 5, 6, 7, 8]),
            ),
            // The reverse merges everything back into one segment each slot.
            (
                "ascending free",
                staircase(8, 100, 15, &[8, 7, 6, 5, 4, 3, 2, 1]),
            ),
            ("holes", staircase(8, 100, 30, &[8, 0, 5, 0, 8, 2, 0, 7])),
        ];
        for (name, cal) in &shapes {
            // Past the span, on its last breakpoint, inside it, on its first
            // breakpoint and before it; windows opening before, inside and
            // after the span.
            for end_by in [1000, 341, 340, 220, 219, 161, 160, 101, 100, 60] {
                for not_before in [-50, 0, 100, 130, 205, 400] {
                    let case = format!("{name} calendar");
                    for cands in [&ladder[..], &sparse[..]] {
                        assert_backward_walks_match_per_width_fits(
                            cal,
                            cands,
                            t(end_by),
                            t(not_before),
                            &case,
                        );
                    }
                    // A single candidate, and the whole machine alone.
                    for one in [ladder[2], ladder[7], (8, d(200))] {
                        assert_backward_walks_match_per_width_fits(
                            cal,
                            &[one],
                            t(end_by),
                            t(not_before),
                            &case,
                        );
                    }
                }
            }
        }

        // Equal latest starts go to the narrower candidate: one processor
        // runs [60, 100) beside the last slot, two must end where it starts.
        let cal = staircase(2, 90, 10, &[1]);
        let steps = steps_of(&cal);
        let pair = [(1, d(40)), (2, d(30))];
        let got = slots(2, &steps).latest_start(&pair, t(100), t(0), &mut 0);
        assert_eq!(got, Some(Reservation::new(t(60), t(100), 1)));

        // A wider candidate settles before the lead is blocked. Four
        // processors run [90, 100), clear of the full slot [60, 80); one
        // processor would start at 50, inside the threshold, until that slot
        // sends it to start at 10. The slot is too full for four as well,
        // but the walk is past their window: they are the answer where they
        // are, not moved to end at 60 (and start at 50, past the threshold).
        let cal = staircase(4, 60, 20, &[4]);
        let steps = steps_of(&cal);
        let ss = slots(4, &steps);
        let pair = [(1, d(50)), (4, d(10))];
        let mut v = 0;
        let got = ss.narrowest_start_from(&pair, t(100), t(40), &mut v);
        assert_eq!(got, Some(Reservation::new(t(90), t(100), 4)));
        assert_eq!(v, 1 + 1);
        // With the lead still inside the threshold after the slot, it wins.
        let got = ss.narrowest_start_from(&pair, t(100), t(10), &mut 0);
        assert_eq!(got, Some(Reservation::new(t(10), t(60), 1)));
        // A window that starts where a full slot ends is clear of it: neither
        // walk inspects that slot.
        let cal = staircase(4, 30, 20, &[4]);
        let steps = steps_of(&cal);
        let ss = slots(4, &steps);
        let abutting = Some(Reservation::new(t(50), t(100), 1));
        let (mut v1, mut v2) = (0, 0);
        assert_eq!(ss.latest_start(&pair[..1], t(100), t(0), &mut v1), abutting);
        assert_eq!(
            ss.narrowest_start_from(&pair[..1], t(100), t(0), &mut v2),
            abutting
        );
        assert_eq!((v1, v2), (1, 1));

        // A staircase that blocks one width fewer per slot walked: seven
        // widths end at seven different slots, one processor is never
        // blocked and never caught up, and each slot is inspected once.
        let cal = staircase(8, 115, 15, &[7, 6, 5, 4, 3, 2, 1]);
        let steps = steps_of(&cal);
        let long: Vec<(u32, Dur)> = (1..=8).map(|m| (m, d(500 - i64::from(m)))).collect();
        let mut v = 0;
        let got = slots(8, &steps).latest_start(&long, t(220), t(-1000), &mut v);
        assert_eq!(got, Some(Reservation::new(t(220 - 499), t(220), 1)));
        assert_eq!(v, 1 + 7);
    }

    #[test]
    fn backward_walks_match_the_per_width_fits() {
        use rand::{Rng, SeedableRng};
        // Seeded calendar/candidate draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xBAC_0022 ^ draw);
            let capacity = [8, 57, 430][draw as usize % 3];
            let cal = seeded_calendar(capacity, draw, rng.gen_range(0..60usize));
            let horizon = cal.horizon().map_or(0, |h| h.as_seconds());
            // Amdahl lists without and with overhead (the second loses the
            // rising arm of the U), a random strictly shortening subset of
            // the widths, one candidate alone, and the whole machine alone.
            let seq = rng.gen_range(1..600i64);
            let alpha = rng.gen_range(0.0..0.6);
            let mut subset = Vec::new();
            let mut dur = rng.gen_range(1..150i64);
            for m in 1..=capacity {
                if dur >= 1 && rng.gen_bool(0.3) {
                    subset.push((m, d(dur)));
                    dur -= rng.gen_range(1..=1 + dur / 4);
                }
            }
            let lists = [
                amdahl(capacity, seq, alpha, 0),
                amdahl(capacity, seq, alpha, rng.gen_range(1..4i64)),
                subset,
                vec![(rng.gen_range(1..=capacity), d(rng.gen_range(1..90i64)))],
                vec![(capacity, d(rng.gen_range(1..90i64)))],
            ];
            // Window ends on breakpoints, mid-slot and past the span.
            let mut ends: Vec<i64> = cal.breakpoints().map(Time::as_seconds).collect();
            ends.retain(|_| rng.gen_bool(0.15));
            ends.extend([rng.gen_range(1..400i64), horizon, horizon + 1, horizon + 70]);
            for cands in lists.iter().filter(|l| !l.is_empty()) {
                for &end_by in &ends {
                    for not_before in [-40, rng.gen_range(0..400i64), horizon - 1, horizon + 10] {
                        let case = format!("draw {draw} on {capacity} processors");
                        assert_backward_walks_match_per_width_fits(
                            &cal,
                            cands,
                            t(end_by),
                            t(not_before),
                            &case,
                        );
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
    fn earliest_free_work_fixed_shapes() {
        // Idle until 10, three of four busy until 20, full until 30, idle.
        let steps = [step(10, 3), step(20, 4), step(30, 0)];
        let ss = slots(4, &steps);
        for (from, work, want) in [
            (0, 0, 0),
            (0, -5, 0),
            (0, 1, 1),    // one processor-second: four free, a second
            (0, 40, 10),  // exactly the idle lead-in
            (0, 41, 11),  // into the slot with one free
            (0, 50, 20),  // all of it
            (0, 51, 31),  // the full slot adds nothing
            (15, 5, 20),  // positioned mid-slot
            (20, 1, 31),  // starting on the full slot
            (25, 8, 32),  // mid full slot, two seconds past it
            (40, 9, 43),  // past the span: four per second
            (-10, 44, 1), // before the span, idle throughout
        ] {
            assert_eq!(
                ss.earliest_free_work(t(from), work),
                t(want),
                "from {from}, work {work}"
            );
        }
        assert_eq!(slots(2, &[]).earliest_free_work(t(7), 5), t(10));
        // An overbooked slot (only a hand-built calendar has one) frees
        // nothing, like a full one.
        let steps = [step(0, 9), step(10, 0)];
        assert_eq!(slots(8, &steps).earliest_free_work(t(0), 8), t(11));
    }

    #[test]
    fn earliest_free_work_matches_a_bisection_over_the_usage_integral() {
        use rand::{Rng, SeedableRng};
        // Seeded calendar/window draws; the CI fuzz lane raises the count.
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        for draw in 0..draws {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0xA12E_A000 ^ draw);
            let capacity = [1, 8, 57][draw as usize % 3];
            let cal = seeded_calendar(capacity, draw, rng.gen_range(0..60usize));
            let horizon = cal.horizon().map_or(0, |h| h.as_seconds());
            let lin = cal.linear();
            let cap = i64::from(capacity);
            // Free processor-seconds over `[from, to)`, by the reference.
            let free = |from: i64, to: i64| cap * (to - from) - lin.used_integral(t(from), t(to));
            for _ in 0..20 {
                let from = rng.gen_range(-50..horizon + 50);
                let work = rng.gen_range(-5..cap * (horizon - from + 100).max(1));
                // The first `to` whose free area reaches `work`, by
                // bisection: it is no later than the span's end plus one
                // second per unit of work.
                let (mut lo, mut hi) = (from - 1, from.max(horizon) + work.max(0));
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if mid >= from && free(from, mid) >= work {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                assert_eq!(
                    cal.earliest_free_work(t(from), work),
                    t(hi),
                    "draw {draw}, {capacity} processors, from {from}, work {work}"
                );
            }
        }
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
        assert_eq!(earliest_of_one(ss, 1, d(5), t(0), &mut 0), t(10));
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
        assert_eq!(earliest_of_one(ss, 8, d(100), t(7), &mut v), t(7));
        // A query that inspects no slot still reports its positioning step
        // (`slot_queries > 0 ⇒ slot_steps > 0`).
        assert_eq!(v, 1);
        let mut v = 0;
        assert_eq!(
            latest_of_one(ss, 8, d(10), t(100), t(0), &mut v),
            Some(t(90))
        );
        assert_eq!(v, 1);
        assert_eq!(latest_of_one(ss, 8, d(10), t(100), t(91), &mut v), None);
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
        assert_eq!(earliest_of_one(ss, 2, d(5), t(0), &mut v), t(0)); // ends before it
        assert_eq!(earliest_of_one(ss, 2, d(11), t(0), &mut v), t(20)); // must clear it
        assert_eq!(earliest_of_one(ss, 1, d(50), t(0), &mut v), t(0)); // fits beside it
        assert_eq!(latest_of_one(ss, 2, d(5), t(18), t(0), &mut v), Some(t(5)));
        assert_eq!(latest_of_one(ss, 1, d(5), t(18), t(0), &mut v), Some(t(13)));
        assert_eq!(latest_of_one(ss, 2, d(5), t(25), t(0), &mut v), Some(t(20)));
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
            assert_eq!(earliest_of_one(ss, 4, to - from, from, &mut v), from);
            assert_eq!(
                latest_of_one(ss, 4, to - from, to, from, &mut v),
                Some(from)
            );
        }
    }

    #[test]
    fn windows_abutting_a_busy_slot_do_not_touch_it() {
        let steps = [step(100, 4), step(200, 0)];
        let ss = slots(4, &steps);
        // Ending exactly where the busy slot starts, starting exactly
        // where it ends: both fit, and neither counts it as a conflict.
        let mut v = 0;
        assert_eq!(earliest_of_one(ss, 4, d(50), t(50), &mut v), t(50));
        assert_eq!(earliest_of_one(ss, 4, d(50), t(200), &mut v), t(200));
        assert_eq!(
            latest_of_one(ss, 4, d(50), t(100), t(0), &mut v),
            Some(t(50))
        );
        assert_eq!(
            latest_of_one(ss, 4, d(50), t(250), t(200), &mut v),
            Some(t(200))
        );
        assert_eq!(ss.first_conflict(t(50), t(100), 1), None);
        assert_eq!(ss.first_conflict(t(200), t(250), 1), None);
        assert_eq!(ss.peak_used(t(50), t(100)), 0);
        assert_eq!(ss.peak_used(t(200), t(250)), 0);
        // One second of overlap on either side is a conflict at the
        // overlap's first instant.
        assert_eq!(ss.first_conflict(t(50), t(101), 1), Some((t(100), 0)));
        assert_eq!(ss.first_conflict(t(199), t(250), 1), Some((t(199), 0)));
        // Starting on the busy breakpoint itself skips past the slot.
        assert_eq!(earliest_of_one(ss, 1, d(10), t(100), &mut v), t(200));
    }
}
