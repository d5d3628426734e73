//! Independent schedule-validity oracle.
//!
//! [`ScheduleValidator`] replays a finished [`Schedule`] against its DAG and
//! the competing reservation [`Calendar`] and checks every invariant the
//! paper's model (§2–§4) imposes on a feasible schedule. It deliberately
//! shares **no placement logic** with the schedulers it audits: capacity is
//! re-derived from a from-scratch event sweep over placement endpoints and
//! calendar breakpoints, never from `earliest_fit`/`try_add`, so a bug in
//! the slot-query machinery cannot hide a bug in a scheduler (and vice
//! versa). The competing calendar's usage is additionally cross-checked
//! against the independently written [`Calendar::linear`] reference scans,
//! so the oracle also acts as a differential test of the calendar's own
//! queries at exactly the instants a schedule cares about.
//!
//! The checked invariants:
//!
//! 1. one placement per task (task-count match, no malformed placements);
//! 2. allocation within `[1, p]` for platform capacity `p`;
//! 3. allocation within the algorithm's declared per-task bound
//!    (the `BD_*` / `DL_*` caps), when the algorithm declares one;
//! 4. scheduled duration equals the Amdahl model exactly:
//!    `end - start == cost.exec_time(procs)`;
//! 5. every task starts at or after the release instant `now`;
//! 6. precedence: a child starts no earlier than every parent's finish;
//! 7. calendar capacity is never exceeded at any breakpoint: at every
//!    instant, application usage plus competing usage stays within `p`
//!    (this is the "never runs inside a competing reservation" guarantee —
//!    processors held by competing reservations are simply not there);
//! 8. the calendar's queries and its linear reference agree on competing
//!    usage over every audited interval (divergence is reported
//!    separately);
//! 9. the turn-around / deadline bookkeeping is consistent with the exit
//!    tasks' finish times (`completion()` equals the latest exit finish,
//!    and meets the deadline when one was required);
//! 10. [`ScheduleStats`] are internally consistent (slot-step work implies
//!     slot queries; slot queries imply at least one recorded pass or CPA
//!     mapping);
//! 11. hierarchical placement grain: when the algorithm placed on whole
//!     nodes ([`with_grain`]), every allocation is a multiple of the
//!     node size;
//! 12. admission quotas: when the schedule belongs to a quota-constrained
//!     owner ([`with_quotas`]), its reservations replayed through a clone
//!     of the owner's [`AdmissionGate`], beside every reservation it
//!     already holds, admit cleanly.
//!
//! [`with_grain`]: ScheduleValidator::with_grain
//! [`with_quotas`]: ScheduleValidator::with_quotas
//!
//! Schedulers invoke the oracle through a `debug_assertions`-gated
//! post-pass, and the seeded fuzz driver in `tests/` runs
//! every registered algorithm through it on random scenarios, shrinking
//! failures to minimal committed repros (see DESIGN.md §8).

use crate::dag::{Dag, TaskId};
use crate::schedule::{Schedule, ScheduleStats};
use resched_resv::{AdmissionGate, Calendar, Dur, Owner, Time};
use std::fmt;

/// Cap on capacity-sweep intervals that get the full calendar-vs-linear
/// cross-check; beyond this the cross-check samples evenly (the capacity
/// *check* itself still covers every interval).
const DUAL_CHECK_CAP: usize = 128;

/// One violated schedule invariant, as found by [`ScheduleValidator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The schedule does not hold exactly one placement per DAG task.
    TaskCountMismatch {
        /// Number of tasks in the DAG.
        expected: usize,
        /// Number of placements in the schedule.
        actual: usize,
    },
    /// A placement has a non-positive duration or zero processors.
    MalformedPlacement {
        /// The offending task.
        task: TaskId,
    },
    /// A task is allocated more processors than the platform has.
    AllocationOutOfRange {
        /// The offending task.
        task: TaskId,
        /// Processors the placement claims.
        procs: u32,
        /// Platform capacity `p`.
        capacity: u32,
    },
    /// A task exceeds the allocation bound its algorithm declared for it.
    AllocationExceedsDeclaredBound {
        /// The offending task.
        task: TaskId,
        /// Processors the placement claims.
        procs: u32,
        /// The declared per-task cap.
        bound: u32,
    },
    /// A task's scheduled duration differs from the Amdahl model at its
    /// allocation.
    DurationMismatch {
        /// The offending task.
        task: TaskId,
        /// Duration the schedule reserved.
        scheduled: Dur,
        /// Duration the task model requires at this allocation.
        model: Dur,
    },
    /// A task starts before the application's release instant.
    ReleaseViolation {
        /// The offending task.
        task: TaskId,
        /// Its scheduled start.
        start: Time,
        /// The release instant (`now`).
        release: Time,
    },
    /// A task starts before one of its predecessors finishes.
    PrecedenceViolation {
        /// The predecessor task.
        pred: TaskId,
        /// The successor task.
        succ: TaskId,
        /// When the predecessor finishes.
        pred_end: Time,
        /// When the successor starts.
        succ_start: Time,
    },
    /// Application plus competing usage exceeds platform capacity.
    CapacityExceeded {
        /// First instant at which the overflow holds.
        at: Time,
        /// Processors used by the application's own placements there.
        app: u32,
        /// Processors held by competing reservations there.
        competing: u32,
        /// Platform capacity `p`.
        capacity: u32,
    },
    /// The calendar's queries and its linear reference scans disagree about
    /// competing usage over an audited interval.
    BackendDivergence {
        /// Interval start.
        from: Time,
        /// Interval end.
        to: Time,
        /// Peak usage per the calendar's own query.
        calendar: u32,
        /// Peak usage per the linear reference scan.
        linear: u32,
    },
    /// The schedule finishes after the deadline it was built for.
    DeadlineMissed {
        /// When the schedule actually completes.
        completion: Time,
        /// The deadline `K` it had to meet.
        deadline: Time,
    },
    /// `Schedule::completion()` is not the latest exit-task finish.
    ExitFinishMismatch {
        /// What `completion()` reports.
        completion: Time,
        /// The latest finish over the DAG's exit tasks.
        exit_finish: Time,
    },
    /// The schedule's [`ScheduleStats`] are internally inconsistent.
    StatsInconsistent {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A mutated calendar's step function lost its structural invariants
    /// (ordering, minimality, zero tails). Found by [`audit_calendar`].
    CalendarCorrupt {
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// A mutated calendar records more usage than the platform has.
    /// Found by [`audit_calendar`].
    CalendarOverbooked {
        /// First breakpoint at which the overflow holds.
        at: Time,
        /// Processors the calendar says are in use there.
        used: u32,
        /// Platform capacity `p`.
        capacity: u32,
    },
    /// A calendar's `reserved_proc_seconds` ledger disagrees with the
    /// recomputed integral of its own step function — an add/remove/resize
    /// cycle leaked accounting. Found by [`audit_calendar`].
    CalendarAccountingDrift {
        /// Processor-seconds the ledger records.
        recorded: i64,
        /// Processor-seconds recomputed from the step function.
        recomputed: i64,
    },
    /// A calendar with zero live reservations still carries usage or
    /// accounting residue — cancellation failed to restore the pristine
    /// state. Found by [`audit_calendar`].
    CancelledResidue {
        /// Breakpoints left behind.
        breakpoints: usize,
        /// Processor-seconds left on the ledger.
        proc_seconds: i64,
    },
    /// A processor count is not a whole number of hierarchy placement
    /// units (`grain`-core nodes): a placement under
    /// [`ScheduleValidator::with_grain`], or a calendar usage level under
    /// [`audit_calendar_with`] when every reservation is node-aligned.
    HierarchyViolation {
        /// Where the misaligned count was seen (a task id, or a calendar
        /// breakpoint instant).
        at: String,
        /// The misaligned processor count.
        procs: u32,
        /// The placement grain it must be a multiple of.
        grain: u32,
    },
    /// An admission quota rule is broken: a schedule's reservations do not
    /// replay cleanly through a fresh [`AdmissionGate`]
    /// ([`ScheduleValidator::with_quotas`]), or a gate's own ledger already
    /// exceeds a limit ([`audit_calendar_with`]).
    QuotaViolation {
        /// Label of the violated rule's subject (`user:u1`, `project:p0`).
        subject: String,
        /// Stable machine-readable reason code
        /// (`quota.concurrent_cores` / `quota.core_seconds`).
        reason: String,
        /// Human-readable description of the breach.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TaskCountMismatch { expected, actual } => {
                write!(f, "schedule has {actual} placements for {expected} tasks")
            }
            Violation::MalformedPlacement { task } => {
                write!(f, "task {task} has a malformed placement")
            }
            Violation::AllocationOutOfRange {
                task,
                procs,
                capacity,
            } => write!(
                f,
                "task {task} allocated {procs} procs on a {capacity}-proc platform"
            ),
            Violation::AllocationExceedsDeclaredBound { task, procs, bound } => write!(
                f,
                "task {task} allocated {procs} procs above its declared bound {bound}"
            ),
            Violation::DurationMismatch {
                task,
                scheduled,
                model,
            } => write!(
                f,
                "task {task} scheduled for {scheduled} but the model needs {model}"
            ),
            Violation::ReleaseViolation {
                task,
                start,
                release,
            } => write!(f, "task {task} starts at {start}, before release {release}"),
            Violation::PrecedenceViolation {
                pred,
                succ,
                pred_end,
                succ_start,
            } => write!(
                f,
                "task {succ} starts at {succ_start}, before predecessor {pred} ends at {pred_end}"
            ),
            Violation::CapacityExceeded {
                at,
                app,
                competing,
                capacity,
            } => write!(
                f,
                "capacity exceeded at {at}: app {app} + competing {competing} > {capacity}"
            ),
            Violation::BackendDivergence {
                from,
                to,
                calendar,
                linear,
            } => write!(
                f,
                "calendar diverges from its linear reference over [{from}, {to}): \
                 calendar {calendar} vs linear {linear}"
            ),
            Violation::DeadlineMissed {
                completion,
                deadline,
            } => write!(f, "completes at {completion}, after deadline {deadline}"),
            Violation::ExitFinishMismatch {
                completion,
                exit_finish,
            } => write!(
                f,
                "completion() reports {completion} but the last exit finishes at {exit_finish}"
            ),
            Violation::StatsInconsistent { detail } => {
                write!(f, "schedule stats inconsistent: {detail}")
            }
            Violation::CalendarCorrupt { detail } => {
                write!(f, "calendar corrupt: {detail}")
            }
            Violation::CalendarOverbooked { at, used, capacity } => {
                write!(f, "calendar overbooked at {at}: {used} used > {capacity} capacity")
            }
            Violation::CalendarAccountingDrift {
                recorded,
                recomputed,
            } => write!(
                f,
                "calendar accounting drift: ledger {recorded} vs recomputed {recomputed} proc-seconds"
            ),
            Violation::CancelledResidue {
                breakpoints,
                proc_seconds,
            } => write!(
                f,
                "cancelled calendar left residue: {breakpoints} breakpoints, {proc_seconds} proc-seconds"
            ),
            Violation::HierarchyViolation { at, procs, grain } => write!(
                f,
                "{at}: {procs} procs is not a whole number of {grain}-core placement units"
            ),
            Violation::QuotaViolation {
                subject,
                reason,
                detail,
            } => write!(f, "quota violated for {subject} ({reason}): {detail}"),
        }
    }
}

impl std::error::Error for Violation {}

/// The schedule-validity oracle. See the [module docs](self) for the
/// invariant list.
///
/// Construct with [`ScheduleValidator::new`], optionally declare the
/// algorithm's allocation caps ([`with_declared_bounds`]) and deadline
/// ([`with_deadline`]), then [`check`] (first violation) or [`report`]
/// (all violations) a schedule.
///
/// [`with_declared_bounds`]: ScheduleValidator::with_declared_bounds
/// [`with_deadline`]: ScheduleValidator::with_deadline
/// [`check`]: ScheduleValidator::check
/// [`report`]: ScheduleValidator::report
#[derive(Debug, Clone)]
pub struct ScheduleValidator<'a> {
    dag: &'a Dag,
    competing: &'a Calendar,
    now: Time,
    declared_bounds: Option<Vec<u32>>,
    deadline: Option<Time>,
    grain: u32,
    quotas: Option<(&'a AdmissionGate, Owner)>,
}

impl<'a> ScheduleValidator<'a> {
    /// A validator for schedules of `dag` released at `now` against the
    /// competing calendar.
    pub fn new(dag: &'a Dag, competing: &'a Calendar, now: Time) -> Self {
        ScheduleValidator {
            dag,
            competing,
            now,
            declared_bounds: None,
            deadline: None,
            grain: 1,
            quotas: None,
        }
    }

    /// Declare the hierarchical placement grain: every allocation must be
    /// a whole number of `grain`-core nodes. 1 (the default) is flat
    /// core-level placement and checks nothing new.
    pub fn with_grain(mut self, grain: u32) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Declare the admission gate and owner the schedule is billed to:
    /// its reservations must replay cleanly through a clone of `gate`, on
    /// top of the ledger the gate already holds.
    pub fn with_quotas(mut self, gate: &'a AdmissionGate, owner: Owner) -> Self {
        self.quotas = Some((gate, owner));
        self
    }

    /// Declare the algorithm's per-task allocation caps (one per task, in
    /// task-id order, each already clamped to `[1, p]` by the caller).
    ///
    /// # Panics
    /// Panics if `bounds` does not hold exactly one entry per DAG task.
    pub fn with_declared_bounds(mut self, bounds: Vec<u32>) -> Self {
        assert_eq!(
            bounds.len(),
            self.dag.num_tasks(),
            "declared bounds must cover every task"
        );
        self.declared_bounds = Some(bounds);
        self
    }

    /// Declare the deadline `K` the schedule was required to meet.
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Check all invariants, returning the first violation found.
    pub fn check(&self, sched: &Schedule) -> Result<(), Violation> {
        match self.report(sched).into_iter().next() {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Check all invariants, collecting every violation found.
    ///
    /// Structural violations (wrong task count, malformed placements) end
    /// the audit early: the remaining checks would index out of bounds or
    /// divide by zero on garbage.
    pub fn report(&self, sched: &Schedule) -> Vec<Violation> {
        let mut out = Vec::new();

        let placements = sched.placements();
        if placements.len() != self.dag.num_tasks() {
            out.push(Violation::TaskCountMismatch {
                expected: self.dag.num_tasks(),
                actual: placements.len(),
            });
            return out;
        }
        let mut malformed = false;
        for t in self.dag.task_ids() {
            let pl = sched.placement(t);
            if pl.end <= pl.start || pl.procs == 0 {
                out.push(Violation::MalformedPlacement { task: t });
                malformed = true;
            }
        }
        if malformed {
            return out;
        }

        let p = self.competing.capacity();
        for t in self.dag.task_ids() {
            let pl = sched.placement(t);
            if pl.procs > p {
                out.push(Violation::AllocationOutOfRange {
                    task: t,
                    procs: pl.procs,
                    capacity: p,
                });
            }
            if let Some(bounds) = &self.declared_bounds {
                if pl.procs > bounds[t.idx()] {
                    out.push(Violation::AllocationExceedsDeclaredBound {
                        task: t,
                        procs: pl.procs,
                        bound: bounds[t.idx()],
                    });
                }
            }
            let model = self.dag.cost(t).exec_time(pl.procs);
            if pl.duration() != model {
                out.push(Violation::DurationMismatch {
                    task: t,
                    scheduled: pl.duration(),
                    model,
                });
            }
            if pl.start < self.now {
                out.push(Violation::ReleaseViolation {
                    task: t,
                    start: pl.start,
                    release: self.now,
                });
            }
            if self.grain > 1 && !pl.procs.is_multiple_of(self.grain) {
                out.push(Violation::HierarchyViolation {
                    at: format!("task {t}"),
                    procs: pl.procs,
                    grain: self.grain,
                });
            }
        }

        if let Some((gate, owner)) = &self.quotas {
            let mut gate = (*gate).clone();
            for t in self.dag.task_ids() {
                if let Err(d) = gate.admit(owner, sched.placement(t).reservation()) {
                    out.push(Violation::QuotaViolation {
                        subject: d.subject.clone(),
                        reason: d.reason_code().to_string(),
                        detail: d.to_string(),
                    });
                    // One quota report per audit: every later admission
                    // would repeat the same exhausted limit.
                    break;
                }
            }
        }

        for t in self.dag.task_ids() {
            let pl = sched.placement(t);
            for &pred in self.dag.preds(t) {
                let pp = sched.placement(pred);
                if pl.start < pp.end {
                    out.push(Violation::PrecedenceViolation {
                        pred,
                        succ: t,
                        pred_end: pp.end,
                        succ_start: pl.start,
                    });
                }
            }
        }

        self.sweep_capacity(sched, &mut out);

        let exits = self.dag.exits().iter();
        if let Some(exit_finish) = exits.map(|&t| sched.placement(t).end).max() {
            if sched.completion() != exit_finish {
                out.push(Violation::ExitFinishMismatch {
                    completion: sched.completion(),
                    exit_finish,
                });
            }
        }
        if let Some(k) = self.deadline {
            if sched.completion() > k {
                out.push(Violation::DeadlineMissed {
                    completion: sched.completion(),
                    deadline: k,
                });
            }
        }

        if let Some(detail) = stats_inconsistency(&sched.stats) {
            out.push(Violation::StatsInconsistent { detail });
        }

        out
    }

    /// Panic with a descriptive message if `sched` violates any invariant.
    ///
    /// This is the post-pass the schedulers call behind
    /// `cfg(debug_assertions)`.
    pub fn assert_valid(&self, sched: &Schedule, context: &str) {
        if let Err(v) = self.check(sched) {
            panic!("{context}: schedule validation failed: {v}");
        }
    }

    /// The independent capacity sweep (invariants 8 and 9).
    ///
    /// Splits the schedule's span at every placement endpoint and every
    /// competing-calendar breakpoint; over each resulting interval both
    /// application and competing usage are constant, so probing the
    /// interval start suffices. Application usage comes from a from-scratch
    /// endpoint sweep (no calendar machinery); competing usage is read via
    /// `used_at` and cross-checked against `peak_used` on the calendar and
    /// on its linear reference.
    fn sweep_capacity(&self, sched: &Schedule, out: &mut Vec<Violation>) {
        let placements = sched.placements();
        let (Some(lo), Some(hi)) = (
            placements.iter().map(|pl| pl.start).min(),
            placements.iter().map(|pl| pl.end).max(),
        ) else {
            return; // no placements, nothing to sweep
        };

        let mut bounds: Vec<Time> = Vec::with_capacity(2 * placements.len());
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(2 * placements.len());
        for pl in placements {
            bounds.push(pl.start);
            bounds.push(pl.end);
            events.push((pl.start, i64::from(pl.procs)));
            events.push((pl.end, -i64::from(pl.procs)));
        }
        bounds.extend(self.competing.breakpoints_within(lo, hi));
        bounds.sort();
        bounds.dedup();
        events.sort();

        let p = self.competing.capacity();
        let linear = self.competing.linear();
        let n_intervals = bounds.len() - 1;
        let stride = n_intervals.div_ceil(DUAL_CHECK_CAP).max(1);

        let mut acc: i64 = 0;
        let mut next_event = 0;
        let mut overflow_reported = false;
        for (i, w) in bounds.windows(2).enumerate() {
            let &[a, b] = w else { continue };
            while let Some(&(_, delta)) = events.get(next_event).filter(|e| e.0 <= a) {
                acc += delta;
                next_event += 1;
            }
            // Every placement here starts before it ends (`report` returned
            // early otherwise), so the running sum never dips below zero;
            // clamped either way, a validator reports, it does not panic.
            let app = u32::try_from(acc.max(0)).unwrap_or(u32::MAX);
            let competing = self.competing.used_at(a);

            // Calendar-vs-linear cross-check on a bounded sample of
            // intervals (every interval when there are few). No competing
            // breakpoint lies strictly inside (a, b), so peak over [a, b)
            // must equal the usage at `a` by both routes.
            if i % stride == 0 {
                let calendar_peak = self.competing.peak_used(a, b);
                let linear_peak = linear.peak_used(a, b);
                if calendar_peak != linear_peak || calendar_peak != competing {
                    out.push(Violation::BackendDivergence {
                        from: a,
                        to: b,
                        calendar: calendar_peak,
                        linear: linear_peak.max(competing),
                    });
                }
            }

            if !overflow_reported && app.saturating_add(competing) > p {
                out.push(Violation::CapacityExceeded {
                    at: a,
                    app,
                    competing,
                    capacity: p,
                });
                // One capacity report per audit: a single oversized
                // placement would otherwise flood the report with one
                // violation per interval it covers.
                overflow_reported = true;
            }
        }
    }
}

/// Audit a mutated [`Calendar`] independently of the slot-query machinery:
/// the cancellation-aware oracle the online mutation layer (remove /
/// resize / shadow-transaction rollback) is checked against.
///
/// Probes only the public surface, re-deriving every invariant from
/// scratch:
///
/// 1. **shape** — breakpoints strictly increasing, no redundant
///    breakpoints (adjacent usage levels differ), usage nonzero at the
///    first breakpoint and zero at the last ([`Violation::CalendarCorrupt`]);
/// 2. **capacity** — usage within platform capacity at every breakpoint
///    ([`Violation::CalendarOverbooked`]);
/// 3. **accounting** — the `reserved_proc_seconds` ledger equals the
///    recomputed integral of the step function, so add/remove/resize
///    cycles cannot leak ([`Violation::CalendarAccountingDrift`]);
/// 4. **cancellation** — zero live reservations implies a pristine
///    calendar ([`Violation::CancelledResidue`]);
/// 5. **reference** — the calendar's queries and the linear reference scans
///    agree on peak usage and usage integral over the whole span
///    ([`Violation::BackendDivergence`]).
pub fn audit_calendar(cal: &Calendar) -> Vec<Violation> {
    audit_calendar_with(cal, None, None)
}

/// [`audit_calendar`], with the hierarchical/quota layers switched on:
///
/// * `grain` — when every reservation in the calendar is node-aligned
///   (a multiple of `grain` cores), every usage level is too; a
///   misaligned breakpoint means some admission bypassed the hierarchy
///   ([`Violation::HierarchyViolation`]);
/// * `gate` — the admission gate whose ledger mirrors this calendar;
///   [`AdmissionGate::audit`] re-checks every held reservation against
///   the quota rules ([`Violation::QuotaViolation`]).
///
/// The audit runs after every serve event, so each check is a straight
/// loop over the breakpoints: the shape, capacity and grain checks are
/// one branch-free fold that only decides whether anything is wrong, and
/// only a calendar with a finding is scanned again, in order, to write
/// the findings; the four whole-span queries are single loops over
/// slices that a search and a gallop bound.
pub fn audit_calendar_with(
    cal: &Calendar,
    grain: Option<u32>,
    gate: Option<&AdmissionGate>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let grain = grain.filter(|&g| g > 1);
    let clean = match grain {
        Some(g) => shape_is_clean::<true>(cal, g),
        None => shape_is_clean::<false>(cal, 1),
    };
    let shape = if clean {
        ShapeFindings::default()
    } else {
        ordered_scan(cal, grain)
    };

    if let (Some((t, procs)), Some(grain)) = (shape.misaligned, grain) {
        out.push(Violation::HierarchyViolation {
            at: format!("breakpoint {t}"),
            procs,
            grain,
        });
    }
    if let Some(gate) = gate {
        for d in gate.audit() {
            out.push(Violation::QuotaViolation {
                subject: d.subject.clone(),
                reason: d.reason_code().to_string(),
                detail: d.to_string(),
            });
        }
    }

    out.extend(shape.corrupt);
    if let Some(first) = shape.leading_zero {
        out.push(Violation::CalendarCorrupt {
            detail: format!("leading breakpoint at {first} carries zero usage"),
        });
    }
    if let Some((last, used)) = shape.trailing {
        out.push(Violation::CalendarCorrupt {
            detail: format!(
                "trailing breakpoint at {last} carries usage {used} (calendar never drains)"
            ),
        });
    }
    if let Some((at, used)) = shape.overbooked {
        out.push(Violation::CalendarOverbooked {
            at,
            used,
            capacity: cal.capacity(),
        });
    }

    // The production integral over the whole span, computed once: the
    // ledger is checked against it, and so is the reference scan below.
    let span = cal
        .breakpoints()
        .next()
        .zip(cal.horizon())
        .filter(|(a, b)| a < b);
    let recomputed = span.map_or(0, |(a, b)| cal.used_integral(a, b));
    if recomputed != cal.reserved_proc_seconds() {
        out.push(Violation::CalendarAccountingDrift {
            recorded: cal.reserved_proc_seconds(),
            recomputed,
        });
    }

    let breakpoints = cal.num_breakpoints();
    if cal.num_reservations() == 0 && (breakpoints != 0 || cal.reserved_proc_seconds() != 0) {
        out.push(Violation::CancelledResidue {
            breakpoints,
            proc_seconds: cal.reserved_proc_seconds(),
        });
    }

    if let Some((a, b)) = span {
        let linear = cal.linear();
        let (cp, lp) = (cal.peak_used(a, b), linear.peak_used(a, b));
        if cp != lp {
            out.push(Violation::BackendDivergence {
                from: a,
                to: b,
                calendar: cp,
                linear: lp,
            });
        }
        let li = linear.used_integral(a, b);
        if recomputed != li {
            out.push(Violation::CalendarCorrupt {
                detail: format!(
                    "usage integral diverges over [{a}, {b}): calendar {recomputed} vs linear {li}"
                ),
            });
        }
    }

    out
}

/// Whether [`ordered_scan`] would find nothing: breakpoints strictly
/// increasing, adjacent levels different, every level within capacity
/// (and a multiple of `grain` when `GRAINED`), the leading level nonzero
/// and the trailing one zero. One pass over the stored breakpoints that
/// folds every condition without a branch, so a clean calendar, the one
/// every audit expects, costs a straight loop; it writes nothing, and what
/// it saw is not kept. Without a grain the alignment test is compiled out
/// rather than asked of a grain of 1: a division per breakpoint would
/// cost more than the rest of the fold.
fn shape_is_clean<const GRAINED: bool>(cal: &Calendar, grain: u32) -> bool {
    let aligned = |used: u32| !GRAINED || used.is_multiple_of(grain);
    let levels = cal.levels();
    let (Some((_, lead)), Some((_, trail))) = (levels.clone().next(), levels.clone().next_back())
    else {
        return true;
    };
    let (mut ordered, mut minimal, mut all_aligned, mut peak) = (true, true, aligned(lead), lead);
    for ((t0, u0), (t1, u1)) in levels.clone().zip(levels.skip(1)) {
        ordered &= t0 < t1;
        minimal &= u0 != u1;
        all_aligned &= aligned(u1);
        peak = peak.max(u1);
    }
    ordered & minimal & all_aligned & (peak <= cal.capacity()) & (lead != 0) & (trail == 0)
}

/// What [`ordered_scan`] found wrong with a calendar's shape; nothing, for
/// a calendar [`shape_is_clean`] accepts.
#[derive(Default)]
struct ShapeFindings {
    /// The first level off the grain, with its breakpoint.
    misaligned: Option<(Time, u32)>,
    /// The first level above capacity, with its breakpoint.
    overbooked: Option<(Time, u32)>,
    /// Out-of-order and redundant breakpoints, in breakpoint order.
    corrupt: Vec<Violation>,
    /// The first breakpoint, when its level is zero.
    leading_zero: Option<Time>,
    /// The last breakpoint and its level, when the calendar never drains.
    trailing: Option<(Time, u32)>,
}

/// The shape checks breakpoint by breakpoint, in order, writing each
/// finding: run only on a calendar [`shape_is_clean`] refused. It reads
/// the step function as segments plus the level at the horizon, so a
/// calendar whose breakpoints are out of order is described as the
/// public surface shows it.
fn ordered_scan(cal: &Calendar, grain: Option<u32>) -> ShapeFindings {
    // The step function as stored, read once: every segment's start with
    // its level, then the last breakpoint with the trailing level.
    let levels = cal
        .segments()
        .map(|(start, _, used)| (start, used))
        .chain(cal.horizon().map(|last| (last, cal.used_at(last))));
    // The first misaligned and the first overbooked level: one report
    // each, since every later breakpoint would repeat it.
    let mut found = ShapeFindings::default();
    let mut first = None;
    let mut prev: Option<(Time, u32)> = None;
    for (t, used) in levels {
        if found.misaligned.is_none() && grain.is_some_and(|g| !used.is_multiple_of(g)) {
            found.misaligned = Some((t, used));
        }
        if found.overbooked.is_none() && used > cal.capacity() {
            found.overbooked = Some((t, used));
        }
        if let Some((before, level)) = prev {
            if before >= t {
                found.corrupt.push(Violation::CalendarCorrupt {
                    detail: format!("breakpoints out of order: {before} then {t}"),
                });
            }
            if level == used {
                found.corrupt.push(Violation::CalendarCorrupt {
                    detail: format!(
                        "redundant breakpoint at {t}: usage {used} unchanged from {before}"
                    ),
                });
            }
        } else {
            first = Some((t, used));
        }
        prev = Some((t, used));
    }
    found.leading_zero = first.filter(|&(_, used)| used == 0).map(|(t, _)| t);
    found.trailing = prev.filter(|&(_, used)| used != 0);
    found
}

/// Audit a CPA/MCPA phase-1 allocation for the allocators' debug-gated
/// post-passes: one entry per task, every allocation within `1..=pool`,
/// and every cached execution time equal to the Amdahl model at the
/// chosen allocation. Panics naming `context` and the first inconsistency.
#[cfg(debug_assertions)]
pub(crate) fn assert_allocation_valid(dag: &Dag, alloc: &crate::cpa::CpaAllocation, context: &str) {
    let n = dag.num_tasks();
    assert!(
        alloc.allocs.len() == n && alloc.exec.len() == n,
        "{context}: allocation validation failed: allocation covers {} tasks (exec {}) for a {n}-task DAG",
        alloc.allocs.len(),
        alloc.exec.len(),
    );
    for t in dag.task_ids() {
        let m = alloc.alloc(t);
        assert!(
            (1..=alloc.pool).contains(&m),
            "{context}: allocation validation failed: task {t} allocated {m} procs for a pool of {}",
            alloc.pool
        );
        let model = dag.cost(t).exec_time(m);
        assert!(
            alloc.exec_time(t) == model,
            "{context}: allocation validation failed: task {t} caches exec {} but the model gives {model} at m={m}",
            alloc.exec_time(t)
        );
    }
}

/// Internal-consistency check of [`ScheduleStats`]; `None` when consistent.
fn stats_inconsistency(stats: &ScheduleStats) -> Option<String> {
    if stats.slot_steps > 0 && stats.slot_queries == 0 {
        return Some(format!(
            "{} slot steps recorded without any slot query",
            stats.slot_steps
        ));
    }
    if stats.slot_queries > 0 && stats.passes == 0 && stats.cpa_mappings == 0 {
        return Some(format!(
            "{} slot queries recorded without any pass or CPA mapping",
            stats.slot_queries
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{chain, fork_join, DagBuilder};
    use crate::forward::{schedule_forward, ForwardConfig};
    use crate::schedule::Placement;
    use crate::task::TaskCost;
    use resched_resv::{QuotaSet, Reservation};

    fn c(s: i64, a: f64) -> TaskCost {
        TaskCost::new(Dur::seconds(s), a)
    }

    fn fixture() -> (Dag, Calendar, Schedule) {
        let dag = fork_join(c(300, 0.0), &[c(2_000, 0.1); 4], c(300, 0.0));
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(
            Time::seconds(100),
            Time::seconds(2_000),
            5,
        ))
        .unwrap();
        cal.try_add(Reservation::new(
            Time::seconds(4_000),
            Time::seconds(5_000),
            3,
        ))
        .unwrap();
        let s = schedule_forward(&dag, &cal, Time::ZERO, 8, ForwardConfig::recommended());
        (dag, cal, s)
    }

    /// Rebuild a schedule with one placement swapped out, keeping stats.
    fn tamper(sched: &Schedule, idx: usize, f: impl FnOnce(&mut Placement)) -> Schedule {
        let mut pls = sched.placements().to_vec();
        f(&mut pls[idx]);
        let mut s = Schedule::new(pls, sched.now());
        s.stats = sched.stats;
        s
    }

    #[test]
    fn valid_forward_schedule_passes() {
        let (dag, cal, s) = fixture();
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert_eq!(v.report(&s), Vec::new());
        v.check(&s).unwrap();
    }

    #[test]
    fn task_count_mismatch_is_caught() {
        let (dag, cal, s) = fixture();
        let mut pls = s.placements().to_vec();
        pls.pop();
        let short = Schedule::new(pls, s.now());
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert!(matches!(
            v.check(&short),
            Err(Violation::TaskCountMismatch { .. })
        ));
    }

    #[test]
    fn malformed_placement_is_caught_and_stops_the_audit() {
        let (dag, cal, s) = fixture();
        let bad = tamper(&s, 0, |pl| pl.end = pl.start);
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        let report = v.report(&bad);
        assert_eq!(
            report,
            vec![Violation::MalformedPlacement {
                task: crate::dag::TaskId(0)
            }]
        );
    }

    #[test]
    fn allocation_out_of_range_is_caught() {
        let (dag, cal, s) = fixture();
        // Keep the duration consistent so only the range check fires.
        let bad = tamper(&s, 1, |pl| pl.procs = 9);
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        let report = v.report(&bad);
        assert!(report
            .iter()
            .any(|v| matches!(v, Violation::AllocationOutOfRange { procs: 9, .. })));
    }

    #[test]
    fn declared_bound_is_enforced() {
        let (dag, cal, s) = fixture();
        let tight = vec![1u32; dag.num_tasks()];
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_declared_bounds(tight);
        // The forward schedule parallelizes at least one task beyond one
        // processor, so an all-ones declared bound must trip.
        assert!(v
            .report(&s)
            .iter()
            .any(|v| matches!(v, Violation::AllocationExceedsDeclaredBound { .. })));
    }

    #[test]
    fn grain_misalignment_is_caught() {
        let (dag, cal, s) = fixture();
        // Force an odd allocation with a model-consistent duration so only
        // the grain check can object.
        let bad = tamper(&s, 1, |pl| {
            pl.procs = 3;
            pl.end = pl.start + dag.cost(crate::dag::TaskId(1)).exec_time(3);
        });
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_grain(2);
        assert!(v.report(&bad).iter().any(|v| matches!(
            v,
            Violation::HierarchyViolation {
                procs: 3,
                grain: 2,
                ..
            }
        )));
        // Grain 1 (the flat default) checks nothing new.
        let flat = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_grain(1);
        assert!(!flat
            .report(&bad)
            .iter()
            .any(|v| matches!(v, Violation::HierarchyViolation { .. })));
    }

    #[test]
    fn quota_breach_is_caught_by_replay() {
        use resched_resv::{QuotaRule, QuotaSubject};
        let (dag, cal, s) = fixture();
        let owner = Owner::new("u", "p");
        // The fork-join runs four tasks side by side, so a 1-core user cap
        // cannot replay cleanly.
        let tight = AdmissionGate::new(
            QuotaSet::unlimited()
                .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 1)),
        );
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_quotas(&tight, owner.clone());
        let report = v.report(&s);
        assert!(
            report.iter().any(|v| matches!(
                v,
                Violation::QuotaViolation { reason, .. } if reason == "quota.concurrent_cores"
            )),
            "got {report:?}"
        );
        // A cap at platform capacity can never trip on a valid schedule.
        let loose = AdmissionGate::new(
            QuotaSet::unlimited()
                .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 8)),
        );
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_quotas(&loose, owner);
        assert_eq!(v.report(&s), Vec::new());
    }

    #[test]
    fn quota_replay_starts_from_the_held_ledger() {
        use resched_resv::{QuotaRule, QuotaSubject};
        let (dag, cal, s) = fixture();
        let owner = Owner::new("u", "p");
        let area: i64 = s
            .placements()
            .iter()
            .map(|pl| pl.reservation().proc_seconds())
            .sum();
        // Room for the schedule and ten core-seconds more.
        let mut gate = AdmissionGate::new(QuotaSet::unlimited().with_rule(
            QuotaRule::core_seconds(QuotaSubject::User("u".into()), area + 10),
        ));
        let report = |gate: &AdmissionGate| {
            ScheduleValidator::new(&dag, &cal, Time::ZERO)
                .with_quotas(gate, owner.clone())
                .report(&s)
        };
        assert_eq!(report(&gate), Vec::new());
        // Eleven core-seconds long after the schedule: another user's
        // leave the budget alone, the owner's own do not.
        let later = Reservation::new(Time::seconds(1_000_000), Time::seconds(1_000_011), 1);
        gate.admit(&Owner::new("v", "p"), later).unwrap();
        assert_eq!(report(&gate), Vec::new());
        gate.admit(&owner, later).unwrap();
        let found = report(&gate);
        assert!(
            matches!(
                found.as_slice(),
                [Violation::QuotaViolation { reason, .. }] if reason == "quota.core_seconds"
            ),
            "got {found:?}"
        );
        assert_eq!(gate.held(), 2, "the replay leaves the gate's ledger alone");
    }

    #[test]
    fn audit_calendar_with_checks_grain_and_gate() {
        use resched_resv::{QuotaRule, QuotaSubject};
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(10), 4))
            .unwrap();
        assert_eq!(audit_calendar_with(&cal, Some(2), None), Vec::new());
        // A 3-core reservation breaks 2-core node alignment.
        cal.try_add(Reservation::new(Time::seconds(2), Time::seconds(6), 3))
            .unwrap();
        assert!(audit_calendar_with(&cal, Some(2), None)
            .iter()
            .any(|v| matches!(
                v,
                Violation::HierarchyViolation {
                    procs: 7,
                    grain: 2,
                    ..
                }
            )));

        // A gate whose limit was tampered below its held usage (simulating
        // a ledger that bypassed admission) is caught by the quota audit.
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 2));
        let mut gate = AdmissionGate::new(quotas);
        gate.admit(
            &Owner::new("u", "p"),
            Reservation::new(Time::ZERO, Time::seconds(10), 2),
        )
        .unwrap();
        assert_eq!(audit_calendar_with(&cal, None, Some(&gate)), Vec::new());
        let json = serde_json::to_string(&gate).unwrap();
        let tampered = json.replace("\"max_concurrent_cores\":2", "\"max_concurrent_cores\":1");
        assert_ne!(json, tampered, "fixture must actually tamper the limit");
        let bad: AdmissionGate = serde_json::from_str(&tampered).unwrap();
        let report = audit_calendar_with(&cal, None, Some(&bad));
        assert!(
            report
                .iter()
                .any(|v| matches!(v, Violation::QuotaViolation { .. })),
            "got {report:?}"
        );
    }

    #[test]
    fn duration_mismatch_is_caught() {
        let (dag, cal, s) = fixture();
        let bad = tamper(&s, 2, |pl| pl.end += Dur::seconds(1));
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert!(v
            .report(&bad)
            .iter()
            .any(|v| matches!(v, Violation::DurationMismatch { .. })));
    }

    #[test]
    fn release_violation_is_caught() {
        let (dag, cal, s) = fixture();
        let v = ScheduleValidator::new(&dag, &cal, Time::seconds(10_000));
        assert!(v
            .report(&s)
            .iter()
            .any(|v| matches!(v, Violation::ReleaseViolation { .. })));
    }

    #[test]
    fn precedence_violation_is_caught() {
        let dag = chain(&[c(600, 0.0), c(600, 0.0)]);
        let cal = Calendar::new(4);
        let s = schedule_forward(&dag, &cal, Time::ZERO, 4, ForwardConfig::recommended());
        // Pull the second task back on top of the first.
        let shift = s.placement(crate::dag::TaskId(1)).start - Time::ZERO;
        let bad = tamper(&s, 1, |pl| {
            pl.start -= shift;
            pl.end -= shift;
        });
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert!(v
            .report(&bad)
            .iter()
            .any(|v| matches!(v, Violation::PrecedenceViolation { .. })));
    }

    #[test]
    fn deadline_miss_is_caught() {
        let (dag, cal, s) = fixture();
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO).with_deadline(Time::seconds(1));
        assert!(v
            .report(&s)
            .iter()
            .any(|v| matches!(v, Violation::DeadlineMissed { .. })));
    }

    #[test]
    fn stats_inconsistency_is_caught() {
        let (dag, cal, s) = fixture();
        let mut bad = Schedule::new(s.placements().to_vec(), s.now());
        bad.stats.slot_steps = 7; // steps without queries
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert!(matches!(
            v.check(&bad),
            Err(Violation::StatsInconsistent { .. })
        ));
        // All-zero stats (a hand-built schedule) are fine.
        let plain = Schedule::new(s.placements().to_vec(), s.now());
        assert!(!v
            .report(&plain)
            .iter()
            .any(|v| matches!(v, Violation::StatsInconsistent { .. })));
    }

    /// The acceptance-criteria mutation: widen one placement so that it
    /// collides with a competing reservation. The independent sweep must
    /// catch the overflow even though every per-task check still passes.
    #[test]
    fn mutation_capacity_overflow_is_caught() {
        let dag = chain(&[c(1_000, 0.0)]);
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(10_000), 5))
            .unwrap();
        let s = schedule_forward(&dag, &cal, Time::ZERO, 8, ForwardConfig::recommended());
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        v.check(&s).unwrap();
        // Sabotage: grow the allocation past the 3 free processors, fixing
        // up the duration so only the capacity invariant can object.
        let bad = tamper(&s, 0, |pl| {
            pl.procs = 6;
            pl.end = pl.start + dag.cost(crate::dag::TaskId(0)).exec_time(6);
        });
        let report = v.report(&bad);
        assert!(
            report.iter().any(|v| matches!(
                v,
                Violation::CapacityExceeded {
                    app: 6,
                    competing: 5,
                    capacity: 8,
                    ..
                }
            )),
            "expected a capacity overflow, got {report:?}"
        );
        // Exactly one overflow is reported even though the oversized
        // placement spans many audit intervals.
        assert_eq!(
            report
                .iter()
                .filter(|v| matches!(v, Violation::CapacityExceeded { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn overlapping_tampered_tasks_overflow_without_competing_load() {
        // Two independent tasks forced onto the same instant with combined
        // width above capacity: the sweep must add app usage correctly.
        let mut b = DagBuilder::new();
        let a = b.add_task(c(1_000, 0.0));
        let x = b.add_task(c(1_000, 0.0));
        let _ = (a, x);
        let dag = b.build().unwrap();
        let cal = Calendar::new(4);
        let pls = vec![
            Placement {
                start: Time::ZERO,
                end: Time::seconds(334),
                procs: 3,
            },
            Placement {
                start: Time::ZERO,
                end: Time::seconds(334),
                procs: 3,
            },
        ];
        let bad = Schedule::new(pls, Time::ZERO);
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        assert!(v
            .report(&bad)
            .iter()
            .any(|v| matches!(v, Violation::CapacityExceeded { app: 6, .. })));
    }

    #[test]
    fn exit_finish_matches_completion_on_real_schedules() {
        let (dag, cal, s) = fixture();
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        // completion() is defined as the max over all placements; with
        // precedence intact that is always an exit finish, so a valid
        // schedule can never trip this — tamper an exit to prove the
        // check is wired: shrink the exit's duration so completion (still
        // computed over all tasks) matches, then the duration check and
        // not the exit check fires.
        assert!(!v
            .report(&s)
            .iter()
            .any(|v| matches!(v, Violation::ExitFinishMismatch { .. })));
    }

    #[test]
    fn audit_calendar_accepts_mutation_cycles() {
        let mut cal = Calendar::new(8);
        assert_eq!(audit_calendar(&cal), Vec::new());
        let a = Reservation::new(Time::seconds(0), Time::seconds(100), 3);
        let b = Reservation::new(Time::seconds(20), Time::seconds(60), 2);
        cal.try_add(a).unwrap();
        cal.try_add(b).unwrap();
        assert_eq!(audit_calendar(&cal), Vec::new());
        cal.try_remove(b).unwrap();
        assert_eq!(audit_calendar(&cal), Vec::new());
        cal.try_resize(a, Reservation::new(Time::seconds(10), Time::seconds(50), 4))
            .unwrap();
        assert_eq!(audit_calendar(&cal), Vec::new());
        cal.try_remove(Reservation::new(Time::seconds(10), Time::seconds(50), 4))
            .unwrap();
        // Fully cancelled: must be pristine, no residue.
        assert_eq!(audit_calendar(&cal), Vec::new());
        assert_eq!(cal.num_reservations(), 0);
        assert_eq!(cal, Calendar::new(8));
    }

    #[test]
    fn audit_calendar_spots_accounting_drift() {
        // Build a calendar whose ledger was maintained, then serialize,
        // corrupt the ledger field in the JSON, and deserialize: the
        // step function is intact but the accounting drifted.
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::seconds(0), Time::seconds(10), 2))
            .unwrap();
        let json = serde_json::to_string(&cal).unwrap();
        let tampered = json.replace(
            "\"reserved_proc_seconds\":20",
            "\"reserved_proc_seconds\":21",
        );
        assert_ne!(json, tampered, "fixture must actually tamper the ledger");
        let bad: Calendar = serde_json::from_str(&tampered).unwrap();
        assert!(audit_calendar(&bad).iter().any(|v| matches!(
            v,
            Violation::CalendarAccountingDrift {
                recorded: 21,
                recomputed: 20
            }
        )));
    }

    #[test]
    fn audit_calendar_spots_cancelled_residue() {
        let mut cal = Calendar::new(8);
        cal.try_add(Reservation::new(Time::seconds(0), Time::seconds(10), 2))
            .unwrap();
        let json = serde_json::to_string(&cal).unwrap();
        let tampered = json.replace("\"num_reservations\":1", "\"num_reservations\":0");
        assert_ne!(json, tampered);
        let bad: Calendar = serde_json::from_str(&tampered).unwrap();
        assert!(audit_calendar(&bad)
            .iter()
            .any(|v| matches!(v, Violation::CancelledResidue { breakpoints: 2, .. })));
    }

    #[test]
    fn audit_calendar_spots_shape_corruption() {
        // A trailing breakpoint with nonzero usage (calendar never
        // drains), injected through serde.
        let json = r#"{"capacity":4,"steps":[{"time":0,"used":2}],"reserved_proc_seconds":0,"num_reservations":1}"#;
        let bad: Calendar = serde_json::from_str(json).unwrap();
        let report = audit_calendar(&bad);
        assert!(
            report
                .iter()
                .any(|v| matches!(v, Violation::CalendarCorrupt { .. })),
            "got {report:?}"
        );
        // Overbooked: usage above capacity.
        let json = r#"{"capacity":4,"steps":[{"time":0,"used":9},{"time":10,"used":0}],"reserved_proc_seconds":90,"num_reservations":1}"#;
        let bad: Calendar = serde_json::from_str(json).unwrap();
        assert!(audit_calendar(&bad).iter().any(|v| matches!(
            v,
            Violation::CalendarOverbooked {
                used: 9,
                capacity: 4,
                ..
            }
        )));
        // Redundant breakpoint (non-minimal form).
        let json = r#"{"capacity":4,"steps":[{"time":0,"used":2},{"time":5,"used":2},{"time":10,"used":0}],"reserved_proc_seconds":20,"num_reservations":1}"#;
        let bad: Calendar = serde_json::from_str(json).unwrap();
        assert!(audit_calendar(&bad)
            .iter()
            .any(|v| matches!(v, Violation::CalendarCorrupt { .. })));
    }

    /// The body `audit_calendar_with` had before its shape checks became a
    /// fold, kept only here: every check breakpoint by breakpoint, in
    /// order, whether or not the calendar is clean. Its queries are the
    /// production ones, which `backend_differential` checks three ways.
    fn reference_audit(
        cal: &Calendar,
        grain: Option<u32>,
        gate: Option<&AdmissionGate>,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        // The step function as stored, read once: every segment's start with
        // its level, then the last breakpoint with the trailing level.
        let levels = cal
            .segments()
            .map(|(start, _, used)| (start, used))
            .chain(cal.horizon().map(|last| (last, cal.used_at(last))));
        let grain = grain.filter(|&g| g > 1);
        // The first misaligned and the first overbooked level: one report
        // each, since every later breakpoint would repeat it.
        let mut misaligned = None;
        let mut overbooked = None;
        let mut shape = Vec::new();
        let mut breakpoints = 0usize;
        let mut first = None;
        let mut prev: Option<(Time, u32)> = None;
        for (t, used) in levels {
            breakpoints += 1;
            if misaligned.is_none() && grain.is_some_and(|g| !used.is_multiple_of(g)) {
                misaligned = Some((t, used));
            }
            if overbooked.is_none() && used > cal.capacity() {
                overbooked = Some((t, used));
            }
            if let Some((before, level)) = prev {
                if before >= t {
                    shape.push(Violation::CalendarCorrupt {
                        detail: format!("breakpoints out of order: {before} then {t}"),
                    });
                }
                if level == used {
                    shape.push(Violation::CalendarCorrupt {
                        detail: format!(
                            "redundant breakpoint at {t}: usage {used} unchanged from {before}"
                        ),
                    });
                }
            } else {
                first = Some((t, used));
            }
            prev = Some((t, used));
        }
        let last = prev;

        if let (Some((t, procs)), Some(grain)) = (misaligned, grain) {
            out.push(Violation::HierarchyViolation {
                at: format!("breakpoint {t}"),
                procs,
                grain,
            });
        }
        if let Some(gate) = gate {
            for d in gate.audit() {
                out.push(Violation::QuotaViolation {
                    subject: d.subject.clone(),
                    reason: d.reason_code().to_string(),
                    detail: d.to_string(),
                });
            }
        }

        out.extend(shape);
        if let Some((first, 0)) = first {
            out.push(Violation::CalendarCorrupt {
                detail: format!("leading breakpoint at {first} carries zero usage"),
            });
        }
        if let Some((last, used)) = last.filter(|&(_, used)| used != 0) {
            out.push(Violation::CalendarCorrupt {
                detail: format!(
                    "trailing breakpoint at {last} carries usage {used} (calendar never drains)"
                ),
            });
        }
        if let Some((at, used)) = overbooked {
            out.push(Violation::CalendarOverbooked {
                at,
                used,
                capacity: cal.capacity(),
            });
        }

        // The production integral over the whole span, computed once: the
        // ledger is checked against it, and so is the reference scan below.
        let span = first
            .zip(last)
            .map(|((a, _), (b, _))| (a, b))
            .filter(|(a, b)| a < b);
        let recomputed = span.map_or(0, |(a, b)| cal.used_integral(a, b));
        if recomputed != cal.reserved_proc_seconds() {
            out.push(Violation::CalendarAccountingDrift {
                recorded: cal.reserved_proc_seconds(),
                recomputed,
            });
        }

        if cal.num_reservations() == 0 && (breakpoints != 0 || cal.reserved_proc_seconds() != 0) {
            out.push(Violation::CancelledResidue {
                breakpoints,
                proc_seconds: cal.reserved_proc_seconds(),
            });
        }

        if let Some((a, b)) = span {
            let linear = cal.linear();
            let (cp, lp) = (cal.peak_used(a, b), linear.peak_used(a, b));
            if cp != lp {
                out.push(Violation::BackendDivergence {
                    from: a,
                    to: b,
                    calendar: cp,
                    linear: lp,
                });
            }
            let li = linear.used_integral(a, b);
            if recomputed != li {
                out.push(Violation::CalendarCorrupt {
                    detail: format!(
                        "usage integral diverges over [{a}, {b}): calendar {recomputed} vs linear {li}"
                    ),
                });
            }
        }

        out
    }

    /// The kinds of finding a calendar audit writes, for the tally below.
    const AUDIT_KINDS: [&str; 7] = [
        "hierarchy",
        "quota",
        "corrupt",
        "overbooked",
        "drift",
        "residue",
        "divergence",
    ];

    fn audit_kind(v: &Violation) -> usize {
        match v {
            Violation::HierarchyViolation { .. } => 0,
            Violation::QuotaViolation { .. } => 1,
            Violation::CalendarCorrupt { .. } => 2,
            Violation::CalendarOverbooked { .. } => 3,
            Violation::CalendarAccountingDrift { .. } => 4,
            Violation::CancelledResidue { .. } => 5,
            Violation::BackendDivergence { .. } => 6,
            other => panic!("not an audit finding: {other:?}"),
        }
    }

    /// The findings an audit reads off the breakpoints one by one (shape,
    /// grain, capacity, residue) and the quota gate's: what must agree on a
    /// calendar whose breakpoints are out of order, where the slot queries'
    /// binary searches read an unsorted vector.
    fn shape_findings(report: Vec<Violation>) -> Vec<Violation> {
        report
            .into_iter()
            .filter(|v| match v {
                Violation::CalendarAccountingDrift { .. } | Violation::BackendDivergence { .. } => {
                    false
                }
                Violation::CalendarCorrupt { detail } => !detail.starts_with("usage integral"),
                _ => true,
            })
            .collect()
    }

    /// A calendar of `n` seeded reservations, built in one sweep and then
    /// put through a cycle of removals, shrinks and additions. Widths are
    /// multiples of `grain`; at most nine reservations overlap and each
    /// takes at most a sixteenth of the machine, so every one fits.
    fn mutated_calendar(
        rng: &mut rand_chacha::ChaCha8Rng,
        n: usize,
        grain: u32,
    ) -> (Calendar, Vec<Reservation>) {
        use rand::Rng;
        let capacity = 16 * grain * rng.gen_range(1..=8u32);
        let base = rng.gen_range(-1_000_000i64..1_000_000);
        let mut live: Vec<Reservation> = (0..n as i64)
            .map(|i| {
                let start = base + 100 * i + rng.gen_range(0..100i64);
                let procs = grain * rng.gen_range(1..=capacity / grain / 16);
                Reservation::new(
                    Time::seconds(start),
                    Time::seconds(start + rng.gen_range(1..=800i64)),
                    procs,
                )
            })
            .collect();
        let mut cal = Calendar::with_reservations(capacity, live.iter().copied()).unwrap();
        for _ in 0..rng.gen_range(0..=40.min(n)) {
            let k = rng.gen_range(0..live.len());
            match rng.gen_range(0..3) {
                0 => {
                    cal.try_remove(live.swap_remove(k)).unwrap();
                }
                1 => {
                    let old = live[k];
                    let new = Reservation::new(old.start, old.start + Dur::seconds(1), old.procs);
                    if new != old {
                        cal.try_resize(old, new).unwrap();
                        live[k] = new;
                    }
                }
                _ => {
                    let old = live[k];
                    let new = Reservation::new(old.end, old.end + Dur::seconds(50), grain);
                    if cal.try_add(new).is_ok() {
                        live.push(new);
                    }
                }
            }
        }
        (cal, live)
    }

    /// A calendar's four serialized fields, as plain values to edit.
    #[derive(Clone)]
    struct Fields {
        capacity: u32,
        steps: Vec<(i64, u32)>,
        reserved_proc_seconds: i64,
        num_reservations: usize,
    }

    impl Fields {
        fn of(cal: &Calendar) -> Fields {
            Fields {
                capacity: cal.capacity(),
                steps: cal
                    .levels()
                    .map(|(t, used)| (t.as_seconds(), used))
                    .collect(),
                reserved_proc_seconds: cal.reserved_proc_seconds(),
                num_reservations: cal.num_reservations(),
            }
        }

        /// The calendar these fields describe, read back through its JSON
        /// form: serde trusts every field.
        fn calendar(&self) -> Calendar {
            use serde_json::{Number, Value};
            let (int, uint) = (
                |n| Value::Number(Number::I64(n)),
                |n| Value::Number(Number::U64(n)),
            );
            let steps = self.steps.iter().map(|&(time, used)| {
                let fields = [("time", int(time)), ("used", uint(u64::from(used)))];
                Value::Object(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            });
            let fields = [
                ("capacity", uint(u64::from(self.capacity))),
                ("steps", Value::Array(steps.collect())),
                ("reserved_proc_seconds", int(self.reserved_proc_seconds)),
                ("num_reservations", uint(self.num_reservations as u64)),
            ];
            let json = Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            serde_json::from_value(json).unwrap()
        }

        /// One seeded way to break the fields: `kind` 1 drifts the ledger,
        /// 2 clears the reservation count, 3 overbooks a level, 4 splits a
        /// segment with a redundant breakpoint, 5 zeroes the leading level,
        /// 6 lifts the trailing one, 7 puts a level off a grain of 2, 8 swaps
        /// two breakpoints' times.
        fn tamper(&mut self, rng: &mut rand_chacha::ChaCha8Rng, kind: u64) {
            use rand::Rng;
            let n = self.steps.len();
            let i = rng.gen_range(0..n.max(1));
            match kind {
                1 => self.reserved_proc_seconds += rng.gen_range(1..100i64),
                2 => self.num_reservations = 0,
                3 if n > 0 => self.steps[i].1 = self.capacity + rng.gen_range(1..4u32),
                4 if n > 1 => {
                    let i = i.min(n - 2);
                    let ((t0, used), (t1, _)) = (self.steps[i], self.steps[i + 1]);
                    if t1 - t0 > 1 {
                        self.steps.insert(i + 1, (t0 + (t1 - t0) / 2, used));
                    }
                }
                5 if n > 0 => self.steps[0].1 = 0,
                6 if n > 0 => self.steps[n - 1].1 = rng.gen_range(1..=self.capacity),
                7 if n > 0 => self.steps[i].1 |= 1,
                8 if n > 1 => {
                    let j = rng.gen_range(0..n);
                    let (ti, tj) = (self.steps[i].0, self.steps[j].0);
                    (self.steps[i].0, self.steps[j].0) = (tj, ti);
                }
                _ => {}
            }
        }
    }

    /// The production audit against [`reference_audit`]: well-formed
    /// calendars from seeded mutation cycles of up to ~20 000 breakpoints,
    /// with and without a grain and a quota gate, each also tampered
    /// through its JSON form one way or two (the gate's limit too). The
    /// reports must be equal whenever the breakpoints are in order, and
    /// their shape findings equal when they are not. Every kind of finding
    /// the shape, capacity, grain, ledger and quota checks write shows up
    /// at least once, so the ordered scan behind a finding runs.
    /// `RESCHED_DIFF_ITERS` draws (default 8).
    #[test]
    fn audit_matches_the_reference_audit() {
        use rand::{Rng, SeedableRng};
        use resched_resv::{QuotaRule, QuotaSubject};
        let draws: u64 = std::env::var("RESCHED_DIFF_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        const SIZES: [usize; 8] = [0, 1, 2, 7, 60, 400, 1_000, 10_000];
        let mut seen = [0u64; 7];
        let (mut ordered_cases, mut unordered_cases) = (0u64, 0u64);
        for seed in 0..draws {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = SIZES[seed as usize % SIZES.len()];
            let grain = [1u32, 2, 4][rng.gen_range(0..3usize)];
            let (cal, live) = mutated_calendar(&mut rng, n, grain);
            // The gate admits one reservation at a time against what it
            // holds: quadratic, so only up to a thousand.
            let gate = (rng.gen_bool(0.5) && n <= 1_000).then(|| {
                let users = ["u0", "u1", "u2"];
                let mut quotas = QuotaSet::unlimited();
                for user in users {
                    let limit = cal.capacity() / 2;
                    quotas = quotas.with_rule(QuotaRule::concurrent(
                        QuotaSubject::User(user.into()),
                        limit,
                    ));
                }
                let mut gate = AdmissionGate::new(quotas);
                for (k, &r) in live.iter().enumerate() {
                    let _ = gate.admit(&Owner::new(users[k % users.len()], "p"), r);
                }
                gate
            });
            let audit_grain = (grain > 1)
                .then_some(grain)
                .or(rng.gen_bool(0.3).then_some(2));
            let clean = audit_calendar_with(&cal, audit_grain, gate.as_ref());
            assert_eq!(
                clean,
                reference_audit(&cal, audit_grain, gate.as_ref()),
                "draw {seed}: {n} reservations"
            );
            for v in &clean {
                seen[audit_kind(v)] += 1;
            }
            ordered_cases += 1;

            let fields = Fields::of(&cal);
            for kind in 1..=9u64 {
                let mut bad = fields.clone();
                bad.tamper(&mut rng, kind);
                if rng.gen_bool(0.3) {
                    let second = rng.gen_range(1..=8);
                    bad.tamper(&mut rng, second);
                }
                let bad = bad.calendar();
                // Kind 9 tampers the gate: a limit below what it holds.
                let tampered = kind == 9;
                let bad_gate: Option<AdmissionGate> = gate.as_ref().filter(|_| tampered).map(|g| {
                    let text = serde_json::to_string(g).unwrap();
                    let limit = format!("\"max_concurrent_cores\":{}", cal.capacity() / 2);
                    serde_json::from_str(&text.replace(&limit, "\"max_concurrent_cores\":1"))
                        .unwrap()
                });
                let gate = bad_gate.as_ref().or(gate.as_ref());
                let grain = if kind == 7 { Some(2) } else { audit_grain };
                let (got, want) = (
                    audit_calendar_with(&bad, grain, gate),
                    reference_audit(&bad, grain, gate),
                );
                for v in &got {
                    seen[audit_kind(v)] += 1;
                }
                let in_order = bad
                    .levels()
                    .zip(bad.levels().skip(1))
                    .all(|((a, _), (b, _))| a < b);
                if in_order {
                    ordered_cases += 1;
                    assert_eq!(got, want, "draw {seed}, tamper {kind}: {n} reservations");
                } else {
                    unordered_cases += 1;
                    assert_eq!(
                        shape_findings(got),
                        shape_findings(want),
                        "draw {seed}, tamper {kind}: {n} reservations, out of order"
                    );
                }
            }
        }
        eprintln!(
            "audit differential: {ordered_cases} calendars in order, {unordered_cases} out of order; findings {:?}",
            AUDIT_KINDS.iter().zip(seen).collect::<Vec<_>>()
        );
        if draws >= 8 {
            for (kind, count) in AUDIT_KINDS.iter().zip(seen).take(6) {
                assert!(count > 0, "no {kind} finding in {draws} draws");
            }
            assert!(
                unordered_cases > 0,
                "no out-of-order calendar in {draws} draws"
            );
        }
    }

    #[test]
    fn report_collects_multiple_violations() {
        let (dag, cal, s) = fixture();
        let bad = tamper(&s, 3, |pl| {
            pl.procs = 11; // out of range
            pl.end += Dur::seconds(5); // and duration mismatch
        });
        let v = ScheduleValidator::new(&dag, &cal, Time::ZERO);
        let report = v.report(&bad);
        assert!(report.len() >= 2, "got {report:?}");
    }
}
