//! The admission state machine.
//!
//! A [`Server`] owns the three things that must never drift apart — the
//! [`Calendar`], the quota ledger ([`AdmissionGate`]) and the set of live
//! applications — as private fields, so the only code that can change any
//! of them is [`Server::apply`], one [`Step`] at a time, and
//! [`Server::audit`]. A step answers with a [`Record`] of typed values
//! ([`Outcome`], [`Reason`], [`Fault`]); the server keeps no tally, and a
//! run's [`ServeReport`] is the fold of its records ([`Tally`]).

use crate::{percentile, ServeConfig, ServeQuotaConfig, ServeReport};
use resched_core::algos::Algorithm;
use resched_core::backward::{DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::floor::Bound;
use resched_core::forward::ForwardConfig;
use resched_core::obs::{self, names};
use resched_core::prelude::*;
use resched_core::schedule::ScheduleStats;
use resched_core::validate::audit_calendar_with;
use resched_resv::{
    AdmissionGate, Owner, QuotaDenial, QuotaRule, QuotaSet, QuotaSubject, ReservationError,
};
use resched_workloads::swf::MAX_SECONDS;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// One request to a [`Server`]. Steps as JSON lines are a journal: replayed
/// through a fresh server of the same configuration, the same [`Outcome`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Decide the arrival of application `app_id` at `now`.
    Submit {
        /// The arrival instant.
        now: Time,
        /// Picks the owner: user `app_id % users`, project `app_id % 2`.
        app_id: u32,
        /// The application.
        dag: Dag,
    },
    /// Cancel live application `k`: its reservations leave calendar and
    /// ledger, and the last live application takes its place (`swap_remove`).
    Cancel {
        /// Index into [`Server::live`].
        k: usize,
    },
    /// Shrink reservation `i` of live application `k` to `new`: a valid
    /// reservation inside the old one (no earlier, later or wider), not it.
    Resize {
        /// Index into [`Server::live`].
        k: usize,
        /// Index into the application's reservations.
        i: usize,
        /// What the reservation becomes.
        new: Reservation,
    },
}

impl Step {
    /// The first instant of the step outside ±`swf::MAX_SECONDS`, if any:
    /// a `Submit`'s `now`, a `Resize`'s `new` start and end.
    fn out_of_domain(&self) -> Option<Time> {
        let (a, b) = match self {
            Step::Submit { now, .. } => (*now, *now),
            Step::Cancel { .. } => return None,
            Step::Resize { new, .. } => (new.start, new.end),
        };
        let within = |t: &Time| (-MAX_SECONDS..=MAX_SECONDS).contains(&t.as_seconds());
        [a, b].into_iter().find(|t| !within(t))
    }
}

/// What [`Server::apply`] did to the books on one [`Step`]. What went
/// wrong on the way is the [`Record`]'s `findings`.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Committed: the reservations are in calendar and ledger, the app live.
    Admitted {
        /// The algorithm whose schedule was taken: the forward scheduler,
        /// or the winner of the deadline roster.
        algo: Algorithm,
        /// When the application's last task ends.
        completion: Time,
        /// Processor-seconds reserved for it.
        proc_seconds: i64,
        /// The scheduler work of the arrival: the forward schedule's, or
        /// every probed roster algorithm's, met or missed.
        work: ScheduleStats,
    },
    /// Rolled back: calendar and ledger are byte-identical to before.
    Rejected {
        /// Why.
        reason: Reason,
        /// The scheduler work of the arrival, as for `Admitted`; zero when
        /// the instance floor answered.
        work: ScheduleStats,
    },
    /// The application's reservations left the calendar.
    Cancelled,
    /// The reservation is shrunk in the calendar.
    Resized,
    /// A step refused, or a cancel or resize the calendar did not take.
    Failed(Fault),
}

/// What [`Server::apply`] answers for one [`Step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What happened to the books.
    pub outcome: Outcome,
    /// For a `Submit` that went through, its numbers; else `None`.
    pub arrival: Option<Arrival>,
    /// Every fault the step and any audit on its cadence counted: each is
    /// one of `ServeReport::violations`.
    pub findings: Vec<Fault>,
}

/// A decided arrival's numbers besides its [`Outcome`]. The latency is
/// wall-clock, so it stays outside what a replayed journal compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The availability estimate the arrival was scheduled with.
    pub q: u32,
    /// Nanoseconds from after the `q` estimate to after the commit or
    /// rollback.
    pub latency_ns: u64,
}

/// What lies past the admission horizon of a forward arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overrun {
    /// The forward schedule's completion.
    Completion(Time),
    /// The instance floor as far as it was computed: the first of its
    /// halves found past the horizon ([`Roster::floor_past`]). No valid
    /// schedule completes before it, so no scheduler was run.
    Floor(Bound),
}

/// Why an arrival was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The forward schedule ends after the admission horizon, or the
    /// instance floor already lies past it.
    HorizonExceeded {
        /// The latest admissible completion (arrival + `admit_horizon`).
        horizon: Time,
        /// What answered: the schedule's completion, or the floor.
        by: Overrun,
    },
    /// No probed roster algorithm finds a schedule that meets the deadline.
    DeadlineInfeasible {
        /// The deadline (arrival + `admit_horizon`).
        deadline: Time,
        /// The instance floor as far as it was computed, when it lies past
        /// the deadline: the first of its halves found past it
        /// ([`Roster::floor_past`]). No valid schedule completes before it,
        /// so no algorithm was run. `None` when every probed algorithm ran
        /// and missed.
        floor: Option<Bound>,
    },
    /// The quota gate vetoed a schedule that fits.
    Quota(QuotaDenial),
    /// The independent oracle refused the scheduler's candidate: a
    /// scheduler bug, counted as a violation as well.
    Validator(Violation),
    /// A validated placement did not fit the transaction's calendar: a
    /// validator or calendar bug, counted as a violation as well.
    ApplyFailed(ReservationError),
}

impl Reason {
    /// Stable machine-readable code, the key of `ServeReport::rejections`.
    pub fn code(&self) -> &'static str {
        match self {
            Reason::HorizonExceeded { .. } => "horizon_exceeded",
            Reason::DeadlineInfeasible { .. } => "deadline_infeasible",
            Reason::Quota(d) => d.reason_code(),
            Reason::Validator(_) => "validator",
            Reason::ApplyFailed(_) => "apply_failed",
        }
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reason::HorizonExceeded {
                horizon,
                by: Overrun::Completion(completion),
            } => write!(
                f,
                "completion {completion} is past the admission horizon {horizon}"
            ),
            Reason::HorizonExceeded {
                horizon,
                by: Overrun::Floor(floor),
            } => write!(
                f,
                "the instance floor {floor} is past the admission horizon {horizon}: \
                 no valid schedule completes by it"
            ),
            Reason::DeadlineInfeasible {
                deadline,
                floor: None,
            } => write!(f, "no probed algorithm meets the deadline {deadline}"),
            Reason::DeadlineInfeasible {
                deadline,
                floor: Some(floor),
            } => write!(
                f,
                "the deadline {deadline} is below the instance floor {floor}: \
                 no valid schedule completes before it"
            ),
            Reason::Quota(d) => write!(f, "{d}"),
            Reason::Validator(v) => write!(f, "{v}"),
            Reason::ApplyFailed(e) => write!(f, "validated placement does not fit: {e}"),
        }
    }
}

/// Why a step did not go through, or what went wrong in one. The first
/// three are the caller's: the step is refused before anything is touched.
/// The rest are the server's own books disagreeing with each other, each a
/// [`Record`] finding and so one of `ServeReport::violations`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// An instant of the step lies outside ±`swf::MAX_SECONDS` (a
    /// `Submit`'s `now`, a `Resize`'s `new` start or end): the bound that
    /// keeps every sum a replay forms from it, `now + admit_horizon` and
    /// a schedule's length among them, far inside `i64`.
    OutOfDomain(Time),
    /// No live application (or no reservation of it) at that index.
    OutOfRange {
        /// The index asked for.
        index: usize,
        /// How many there are.
        len: usize,
    },
    /// `new` is not `old` made smaller, or is no valid reservation at all.
    /// Only a shrink is accepted, because the ledger swaps the entry without
    /// re-checking quotas.
    NotAShrink {
        /// The live reservation.
        old: Reservation,
        /// What it was to become.
        new: Reservation,
    },
    /// An arrival was rejected for a reason no caller can cause
    /// ([`Reason::Validator`], [`Reason::ApplyFailed`]).
    Rejected(Reason),
    /// The calendar refused to give back a reservation the live set tracks.
    CancelFailed(ReservationError),
    /// The calendar refused a shrink, which only releases capacity.
    ShrinkFailed(ReservationError),
    /// The quota ledger has no entry for a reservation the live set tracks.
    LedgerMiss(Reservation),
    /// A finding of the calendar (and ledger) audit.
    Audit(Violation),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::OutOfDomain(t) => write!(f, "instant {t} lies past ±{MAX_SECONDS} s"),
            Fault::OutOfRange { index, len } => write!(f, "index {index} out of range ({len})"),
            Fault::NotAShrink { old, new } => write!(f, "{new:?} is not a shrink of {old:?}"),
            Fault::Rejected(reason) => write!(f, "{reason}"),
            Fault::CancelFailed(e) => {
                write!(f, "cancel of a tracked live reservation failed: {e}")
            }
            Fault::ShrinkFailed(e) => write!(f, "shrink of a live reservation failed: {e}"),
            Fault::LedgerMiss(r) => write!(f, "quota ledger missing tracked reservation {r:?}"),
            Fault::Audit(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for Fault {}

/// One admitted application: the reservations it still holds, so later
/// cancels and resizes operate on reservations that exist, and the owner
/// they are accounted to, so the quota ledger stays in step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveApp {
    /// Who the reservations are accounted to.
    pub owner: Owner,
    /// The reservations, in task order.
    pub resvs: Vec<Reservation>,
}

/// The fixed candidate roster for admission-probe fan-out, strongest
/// single candidate first: the default `DL_BD_CPAR` probe, then the two λ
/// hybrids (resource-conservative, so they tend to admit schedules that
/// leave more room for later arrivals), then the fully aggressive bound.
/// `ServeConfig::probe_fanout` takes a prefix of this list.
pub const PROBE_ROSTER: [DeadlineAlgo; 4] = [
    DeadlineAlgo::BdCpaR,
    DeadlineAlgo::RcbdCpaRLambda,
    DeadlineAlgo::RcCpaRLambda,
    DeadlineAlgo::BdAll,
];

/// Probe the first `fanout` roster algorithms on the arrival's roster, which
/// computes the CPA(`q`) allocation and order they start from once, and keep
/// the feasible candidate with the earliest completion (lowest roster index
/// wins ties, which is what `min_by_key` does). Every probe's work, met or
/// missed, goes into `work`.
fn probe_deadline(
    roster: &mut Roster<'_>,
    deadline: Time,
    fanout: usize,
    work: &mut ScheduleStats,
) -> Option<(DeadlineAlgo, Schedule)> {
    let probed = &PROBE_ROSTER[..fanout.clamp(1, PROBE_ROSTER.len())];
    probed
        .iter()
        .filter_map(|&algo| {
            let answer = roster.schedule(deadline, algo);
            work.absorb(
                answer
                    .as_ref()
                    .map_or_else(|e| e.stats, |out| out.schedule.stats),
            );
            Some((algo, answer.ok()?.schedule))
        })
        .min_by_key(|(_, s)| s.completion())
}

/// The validated candidate schedule for one arrival, or why there is none,
/// from one [`Roster`] on the transaction's calendar view: first its floor
/// question at `horizon` ([`Roster::floor_past`]) — a floor past it answers
/// for every scheduler, with nothing allocated or placed, and the grain-1
/// floor bounds every grain — then, for a deadline arrival (`fanout` is
/// `Some`), the probes against `horizon` (their floor questions answered by
/// this one), or else the forward schedule, held to the same bound so the
/// turn-around of what is admitted stays bounded. The schedulers' work
/// goes into `work`, whatever the answer.
fn candidate(
    dag: &Dag,
    cal: &Calendar,
    now: Time,
    q: u32,
    horizon: Time,
    fanout: Option<usize>,
    work: &mut ScheduleStats,
) -> Result<(Algorithm, Schedule), Reason> {
    let mut roster = Roster::prepare(dag, cal, now, q, DeadlineConfig::default());
    if let Some(floor) = roster.floor_past(horizon) {
        return Err(match fanout {
            Some(_) => Reason::DeadlineInfeasible {
                deadline: horizon,
                floor: Some(floor),
            },
            None => Reason::HorizonExceeded {
                horizon,
                by: Overrun::Floor(floor),
            },
        });
    }
    let (algo, sched) = match fanout {
        Some(fanout) => {
            let (algo, sched) = probe_deadline(&mut roster, horizon, fanout, work).ok_or(
                Reason::DeadlineInfeasible {
                    deadline: horizon,
                    floor: None,
                },
            )?;
            (Algorithm::Deadline(algo), sched)
        }
        None => {
            let forward = ForwardConfig::recommended();
            let sched = roster.forward(forward);
            work.absorb(sched.stats);
            let completion = sched.completion();
            if completion > horizon {
                return Err(Reason::HorizonExceeded {
                    horizon,
                    by: Overrun::Completion(completion),
                });
            }
            (Algorithm::Forward(forward), sched)
        }
    };
    algo.validator(dag, cal, now, Some(horizon))
        .check(&sched)
        .map_err(Reason::Validator)?;
    Ok((algo, sched))
}

/// Capacity said yes; the quota gate gets its veto, then the reservations
/// go into the transaction. The all-or-nothing batch admit leaves the
/// ledger untouched on denial, mirroring the rollback the caller owes the
/// calendar on any `Err`. The schedule was validated against this exact
/// transaction view, so every add fits; one that does not is a fault in
/// the validator or the calendar, handed back for the caller to count —
/// not a panic that ends the replay.
pub(crate) fn reserve(
    txn: &mut ShadowTxn<'_>,
    gate: Option<&mut AdmissionGate>,
    owner: &Owner,
    resvs: &[Reservation],
) -> Result<(), Reason> {
    let mut apply_all = || resvs.iter().try_for_each(|r| txn.try_add(*r));
    let Some(gate) = gate else {
        return apply_all().map_err(Reason::ApplyFailed);
    };
    gate.admit_all(owner, resvs).map_err(Reason::Quota)?;
    apply_all().map_err(|e| {
        // The gate admitted the batch: the caller's rollback undoes the
        // calendar, this undoes the ledger.
        for r in resvs {
            gate.release(owner, r);
        }
        Reason::ApplyFailed(e)
    })
}

/// One identical rule set per synthetic user; a `0` cap installs no rule.
fn quota_gate(q: &ServeQuotaConfig, users: usize) -> AdmissionGate {
    let mut set = QuotaSet::unlimited();
    for u in 0..users {
        let subject = QuotaSubject::User(format!("u{u}"));
        if q.max_concurrent_cores > 0 {
            set = set.with_rule(QuotaRule::concurrent(
                subject.clone(),
                q.max_concurrent_cores,
            ));
        }
        if q.max_core_seconds > 0 {
            set = set.with_rule(QuotaRule::core_seconds(subject, q.max_core_seconds));
        }
    }
    AdmissionGate::new(set)
}

/// The clocks of the server's cadences: steps that went through (the
/// audit's) and the arrivals among them (the deadline roster's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Events {
    steps: usize,
    arrivals: usize,
}

/// The online admission server: see the module documentation.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cal: Calendar,
    gate: Option<AdmissionGate>,
    live: Vec<LiveApp>,
    /// Every owner an arrival can be attributed to, `[project p0, p1]` per
    /// user — user 0's pair, then the other users', so there is always
    /// one: arrivals are attributed by id (user `id % users`, project
    /// `id % 2`), so admission is as deterministic as the rest of a replay.
    owners: ([Owner; 2], Vec<[Owner; 2]>),
    events: Events,
}

impl Server {
    /// An empty `procs`-processor machine serving under `cfg`.
    ///
    /// # Panics
    /// As [`Calendar::new`]: a platform needs at least one processor.
    pub fn new(procs: u32, cfg: &ServeConfig) -> Server {
        let users = cfg.quota.map_or(1, |q| q.users.max(1));
        let projects = |u| ["p0", "p1"].map(|project| Owner::new(&format!("u{u}"), project));
        Server {
            cfg: *cfg,
            cal: Calendar::new(procs),
            gate: cfg.quota.map(|q| quota_gate(&q, users)),
            live: Vec::new(),
            owners: (projects(0), (1..users).map(projects).collect()),
            events: Events::default(),
        }
    }

    /// The calendar as it stands.
    pub fn calendar(&self) -> &Calendar {
        &self.cal
    }

    /// The live applications; [`Step::Cancel`] and [`Step::Resize`] index
    /// into this.
    pub fn live(&self) -> &[LiveApp] {
        &self.live
    }

    /// The quota ledger as it stands (empty without a quota config).
    pub fn ledger(&self) -> impl Iterator<Item = (&Owner, &Reservation)> {
        self.gate.iter().flat_map(AdmissionGate::ledger)
    }

    /// Take one step. A step the caller got wrong (an instant outside
    /// ±`swf::MAX_SECONDS`, an index out of range, a `new` that is not a
    /// shrink) is refused before anything is touched, with no findings;
    /// every other step counts one event, and every `audit_every`-th event
    /// re-audits the calendar, its findings added to the step's.
    pub fn apply(&mut self, step: &Step) -> Record {
        let taken = match (step.out_of_domain(), step) {
            (Some(t), _) => Err(Fault::OutOfDomain(t)),
            (None, Step::Submit { now, app_id, dag }) => Ok(self.submit(*now, *app_id, dag)),
            (None, Step::Cancel { k }) => self.cancel(*k),
            (None, Step::Resize { k, i, new }) => self.resize(*k, *i, *new),
        };
        let mut record = match taken {
            Ok(record) => record,
            Err(fault) => return Record::of(Outcome::Failed(fault), Vec::new()),
        };
        self.events.steps += 1;
        if self.cfg.audit_every > 0 && self.events.steps.is_multiple_of(self.cfg.audit_every) {
            record.findings.extend(self.audit());
        }
        record
    }

    /// Estimate `q` from the recent past and decide one arrival; its
    /// latency runs from after the estimate to after the commit or rollback.
    fn submit(&mut self, now: Time, app_id: u32, dag: &Dag) -> Record {
        self.events.arrivals += 1;
        // A window that is not positive holds no history (and
        // `average_available` asserts a non-empty one).
        let q = if self.cal.num_breakpoints() > 0 && self.cfg.q_window.is_positive() {
            self.cal.average_available(now - self.cfg.q_window, now)
        } else {
            self.cal.capacity()
        };

        // lint:allow(det): the latency sample is reported beside the decisions and never read by them (`golden_serve_replays` pins every decision with this clock running).
        let t0 = Instant::now();
        let outcome = self.decide(now, q, app_id, dag);
        let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let findings = match &outcome {
            Outcome::Rejected {
                reason: reason @ (Reason::Validator(_) | Reason::ApplyFailed(_)),
                ..
            } => vec![Fault::Rejected(reason.clone())],
            _ => Vec::new(),
        };
        Record {
            arrival: Some(Arrival { q, latency_ns }),
            ..Record::of(outcome, findings)
        }
    }

    /// The transaction of one arrival: find a candidate (none when the
    /// instance floor is past the horizon; else forward, or the deadline
    /// roster for every `deadline_every`-th arrival), hold it to the
    /// horizon, the validator and the quota gate, apply it, and commit — or
    /// roll back byte-exactly on the first `Reason` not to.
    fn decide(&mut self, now: Time, q: u32, app_id: u32, dag: &Dag) -> Outcome {
        resched_core::span!(names::SPAN_SERVE_SCHEDULE);
        let horizon = now + self.cfg.admit_horizon;
        let by_deadline = self.cfg.deadline_every > 0
            && self.events.arrivals.is_multiple_of(self.cfg.deadline_every);
        let fanout = by_deadline.then_some(self.cfg.probe_fanout);
        let (first, rest) = &self.owners;
        let user = app_id as usize % (rest.len() + 1);
        let [p0, p1] = user
            .checked_sub(1)
            .and_then(|u| rest.get(u))
            .unwrap_or(first);
        let owner = if app_id.is_multiple_of(2) { p0 } else { p1 };

        let mut work = ScheduleStats::default();
        let mut txn = self.cal.transaction();
        let placed = candidate(dag, txn.calendar(), now, q, horizon, fanout, &mut work).and_then(
            |(algo, sched)| {
                let resvs: Vec<Reservation> = dag
                    .task_ids()
                    .map(|t| sched.placement(t).reservation())
                    .collect();
                // The quota oracle, asked before the gate answers (the
                // transaction's view is the candidate's competing calendar
                // only until the reservations go in, and the gate's ledger
                // the owner's holdings without them) and held to what the
                // gate admits: a schedule the gate lets through must replay
                // cleanly through a clone of the gate, beside what it holds.
                #[cfg(debug_assertions)]
                let oracle = self.gate.as_ref().map(|gate| {
                    algo.validator(dag, txn.calendar(), now, Some(horizon))
                        .with_quotas(gate, owner.clone())
                        .check(&sched)
                });
                reserve(&mut txn, self.gate.as_mut(), owner, &resvs)?;
                #[cfg(debug_assertions)]
                if let Some(Err(v)) = oracle {
                    panic!("serve: the quota gate admitted a schedule its oracle refuses: {v}");
                }
                Ok((algo, sched.completion(), resvs))
            },
        );
        match placed {
            Ok((algo, completion, resvs)) => {
                txn.commit();
                let proc_seconds = resvs.iter().map(Reservation::proc_seconds).sum();
                self.live.push(LiveApp {
                    owner: owner.clone(),
                    resvs,
                });
                Outcome::Admitted {
                    algo,
                    completion,
                    proc_seconds,
                    work,
                }
            }
            Err(reason) => {
                txn.rollback();
                Outcome::Rejected { reason, work }
            }
        }
    }

    /// [`Step::Cancel`], or why it was refused.
    fn cancel(&mut self, k: usize) -> Result<Record, Fault> {
        let len = self.live.len();
        let app = self
            .live
            .get(k)
            .ok_or(Fault::OutOfRange { index: k, len })?;
        let removed = {
            resched_core::span!(names::SPAN_SERVE_CANCEL);
            let mut txn = self.cal.transaction();
            let removed = app.resvs.iter().try_for_each(|r| txn.try_remove(*r));
            match removed {
                Ok(()) => txn.commit(),
                Err(_) => txn.rollback(),
            };
            removed
        };
        Ok(match removed {
            // A tracked live reservation must always be removable; if one
            // is not, the application stays live, its reservations still
            // held and accounted.
            Err(e) => {
                let fault = Fault::CancelFailed(e);
                Record::of(Outcome::Failed(fault.clone()), vec![fault])
            }
            Ok(()) => {
                let app = self.live.swap_remove(k);
                // The ledger mirrors commits exactly; a miss here is a
                // bookkeeping bug, not a policy call.
                let missed = match &mut self.gate {
                    None => Vec::new(),
                    Some(gate) => {
                        let missed = app.resvs.iter().filter(|r| !gate.release(&app.owner, r));
                        missed.map(|r| Fault::LedgerMiss(*r)).collect()
                    }
                };
                Record::of(Outcome::Cancelled, missed)
            }
        })
    }

    /// [`Step::Resize`], or why it was refused.
    fn resize(&mut self, k: usize, i: usize, new: Reservation) -> Result<Record, Fault> {
        let len = self.live.len();
        let app = self
            .live
            .get_mut(k)
            .ok_or(Fault::OutOfRange { index: k, len })?;
        let len = app.resvs.len();
        let held = app
            .resvs
            .get_mut(i)
            .ok_or(Fault::OutOfRange { index: i, len })?;
        let old = *held;
        // A journal is outside data: `new` need not be a valid reservation.
        let valid = Reservation::checked(new.start, new.end, new.procs).is_ok();
        let inside = new.start >= old.start && new.end <= old.end && new.procs <= old.procs;
        if !valid || !inside || new == old {
            return Err(Fault::NotAShrink { old, new });
        }
        let mut txn = self.cal.transaction();
        Ok(match txn.try_resize(old, new) {
            Ok(()) => {
                txn.commit();
                *held = new;
                let in_ledger = self
                    .gate
                    .as_mut()
                    .is_none_or(|gate| gate.replace(&app.owner, &old, new));
                let missed = (!in_ledger).then_some(Fault::LedgerMiss(old));
                Record::of(Outcome::Resized, missed.into_iter().collect())
            }
            // Shrinking a live reservation releases capacity only; it can
            // never conflict.
            Err(e) => {
                txn.rollback();
                let fault = Fault::ShrinkFailed(e);
                Record::of(Outcome::Failed(fault.clone()), vec![fault])
            }
        })
    }

    /// Audit the calendar (shape, capacity, accounting, reference scans)
    /// and the ledger against its rules, now: the findings.
    pub fn audit(&self) -> Vec<Fault> {
        let found = audit_calendar_with(&self.cal, None, self.gate.as_ref());
        found.into_iter().map(Fault::Audit).collect()
    }
}

impl Record {
    /// The record of a step that was no arrival.
    fn of(outcome: Outcome, findings: Vec<Fault>) -> Record {
        Record {
            outcome,
            arrival: None,
            findings,
        }
    }
}

/// The fold of a run's records into its [`ServeReport`]: [`Tally::add`]
/// every step with the record [`Server::apply`] answered, in order, then
/// [`Tally::finish`]. It keeps counts, not records; latencies also go to
/// the `serve.schedule.latency_ns` histogram, the report's and ambient.
#[derive(Debug, Default)]
pub struct Tally {
    /// The counts so far, in the fields of the report they end in.
    report: ServeReport,
    first_arrival: Option<Time>,
    latencies_ns: Vec<u64>,
}

impl Tally {
    /// Count one step and the record it was answered with.
    pub fn add(&mut self, step: &Step, record: &Record) {
        let r = &mut self.report;
        if let (Step::Submit { now, .. }, Some(arrival)) = (step, &record.arrival) {
            r.apps += 1;
            self.first_arrival.get_or_insert(*now);
            self.latencies_ns.push(arrival.latency_ns);
            r.metrics.record(names::SERVE_LATENCY, arrival.latency_ns);
            obs::record_value(names::SERVE_LATENCY, arrival.latency_ns);
        }
        match &record.outcome {
            Outcome::Admitted { work, .. } => {
                r.commits += 1;
                r.work.absorb(*work);
            }
            Outcome::Rejected { reason, work } => {
                r.rollbacks += 1;
                r.quota_denied += u64::from(matches!(reason, Reason::Quota(_)));
                let code = reason.code();
                match r.rejections.binary_search_by(|(c, _)| c.as_str().cmp(code)) {
                    Ok(at) => r.rejections[at].1 += 1,
                    Err(at) => r.rejections.insert(at, (code.to_string(), 1)),
                }
                r.work.absorb(*work);
            }
            Outcome::Cancelled => r.cancels += 1,
            Outcome::Resized => r.resizes += 1,
            Outcome::Failed(_) => {}
        }
        self.found(&record.findings);
    }

    fn found(&mut self, findings: &[Fault]) {
        let r = &mut self.report;
        r.violations += findings.len();
        if r.first_violation.is_none() {
            r.first_violation = findings.first().map(Fault::to_string);
        }
    }

    /// Close the books: a final audit of `server` (it covers
    /// `audit_every == 0` and any tail the cadence skipped), then the
    /// report. `wall` is the caller's stopwatch over the steps.
    pub fn finish(mut self, server: &Server, wall: Duration) -> ServeReport {
        self.found(&server.audit());
        self.latencies_ns.sort_unstable();
        let secs = wall.as_secs_f64();
        let (apps, cal) = (self.report.apps, server.calendar());
        ServeReport {
            wall_ms: secs * 1e3,
            throughput_per_s: if secs > 0.0 { apps as f64 / secs } else { 0.0 },
            p50_us: percentile(&self.latencies_ns, 0.50) / 1e3,
            p95_us: percentile(&self.latencies_ns, 0.95) / 1e3,
            p99_us: percentile(&self.latencies_ns, 0.99) / 1e3,
            utilization: match (self.first_arrival, cal.horizon()) {
                (Some(first), Some(h)) if h > first => cal.average_utilization(first, h),
                _ => 0.0,
            },
            live_apps: server.live().len(),
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resched_core::backward::schedule_deadline;
    use resched_core::dag::{chain, fork_join};

    #[test]
    fn a_step_with_an_instant_outside_the_domain_is_refused_untouched() {
        // A quota'd server with one admitted application, audited on every
        // event: a refused step must leave calendar, ledger, live set and
        // the event clock as they were, and count nothing.
        let cfg = ServeConfig {
            audit_every: 1,
            quota: Some(ServeQuotaConfig {
                users: 2,
                max_concurrent_cores: 300,
                max_core_seconds: 0,
            }),
            ..ServeConfig::default()
        };
        let mut server = Server::new(4, &cfg);
        let dag = chain(&[TaskCost::new(Dur::hours(2), 0.0)]);
        let now = Time::seconds(100);
        let admitted = server.apply(&Step::Submit {
            now,
            app_id: 0,
            dag: dag.clone(),
        });
        assert!(
            matches!(admitted.outcome, Outcome::Admitted { .. }),
            "{admitted:?}"
        );
        let old = server.live()[0].resvs[0];
        let books = |s: &Server| {
            let ledger: Vec<_> = s.ledger().map(|(o, r)| (o.clone(), *r)).collect();
            (s.cal.clone(), ledger, s.live.clone(), s.events)
        };
        let before = books(&server);
        let (past, edge) = (MAX_SECONDS + 1, MAX_SECONDS);
        for far in [Time::seconds(past), Time::seconds(-past)] {
            let submit = Step::Submit {
                now: far,
                app_id: 1,
                dag: dag.clone(),
            };
            let shrunk = |start, end| Step::Resize {
                k: 0,
                i: 0,
                new: Reservation { start, end, ..old },
            };
            for step in [submit, shrunk(far, old.end), shrunk(old.start, far)] {
                let fault = Fault::OutOfDomain(far);
                let refused = server.apply(&step);
                assert_eq!(refused.outcome, Outcome::Failed(fault.clone()), "{step:?}");
                assert_eq!((refused.arrival, refused.findings), (None, vec![]));
                assert!(fault.to_string().contains("lies past"), "{fault}");
                assert!(books(&server) == before, "{step:?} touched the books");
            }
        }
        // The edge itself is inside: a resize reaching it is judged as a
        // shrink (and refused as none), an arrival at it is decided.
        let at_edge = Step::Resize {
            k: 0,
            i: 0,
            new: Reservation {
                end: Time::seconds(edge),
                ..old
            },
        };
        let refused = server.apply(&at_edge).outcome;
        assert!(matches!(refused, Outcome::Failed(Fault::NotAShrink { .. })));
        let decided = server.apply(&Step::Submit {
            now: Time::seconds(-edge),
            app_id: 1,
            dag,
        });
        assert!(decided.arrival.is_some(), "{decided:?}");
        assert!(decided.findings.is_empty(), "{decided:?}");
        let clock = Events {
            steps: before.3.steps + 1,
            arrivals: 2,
        };
        assert_eq!(server.events, clock);
        assert_eq!(server.audit(), []);
    }

    #[test]
    fn a_cancel_the_calendar_refuses_leaves_the_application_live() {
        // A live reservation the calendar does not hold is the only way to
        // a refused cancel short of a calendar bug: plant one behind an
        // admitted application's own, so the transaction removes those
        // first and must roll them back.
        let cfg = ServeConfig {
            quota: Some(ServeQuotaConfig {
                users: 2,
                max_concurrent_cores: 300,
                max_core_seconds: 0,
            }),
            ..ServeConfig::default()
        };
        let mut server = Server::new(4, &cfg);
        let dag = chain(&[TaskCost::new(Dur::hours(2), 0.0); 2]);
        let admitted = server.apply(&Step::Submit {
            now: Time::seconds(100),
            app_id: 0,
            dag,
        });
        assert!(
            matches!(admitted.outcome, Outcome::Admitted { .. }),
            "{admitted:?}"
        );
        let planted = Reservation::for_duration(Time::ZERO + Dur::days(30), Dur::days(1), 1);
        server.live[0].resvs.push(planted);
        let books = |s: &Server| {
            let ledger: Vec<_> = s.ledger().map(|(o, r)| (o.clone(), *r)).collect();
            (s.cal.clone(), ledger, s.live.clone())
        };
        let before = books(&server);
        assert_eq!(before.1.len(), 2, "the premise: both tasks accounted");

        let refused = server.apply(&Step::Cancel { k: 0 });
        let [fault @ Fault::CancelFailed(_)] = &refused.findings[..] else {
            panic!("{refused:?}");
        };
        assert_eq!(refused.outcome, Outcome::Failed(fault.clone()));
        assert!(
            books(&server) == before,
            "the refused cancel touched the books"
        );
        assert_eq!(server.audit(), []);
    }

    #[test]
    fn roster_candidates_that_tie_resolve_to_the_lower_roster_index() {
        // Every roster algorithm places the exit task's latest fit, so on
        // an empty machine all four complete at the deadline itself: the
        // common case is a tie, and the first entry asked must keep it.
        let c = |s: i64| TaskCost::new(Dur::seconds(s), 0.1);
        let dag = fork_join(c(300), &[c(3600); 4], c(300));
        let cal = Calendar::new(16);
        let (now, q, deadline) = (Time::ZERO, 8, Time::seconds(400_000));
        for algo in PROBE_ROSTER {
            let out = schedule_deadline(
                &dag,
                &cal,
                now,
                q,
                deadline,
                algo,
                DeadlineConfig::default(),
            );
            let completion = out.map(|out| out.schedule.completion());
            assert_eq!(completion, Ok(deadline), "the premise: {algo} ties");
        }
        let winner = |fanout| {
            let mut roster = Roster::prepare(&dag, &cal, now, q, DeadlineConfig::default());
            let mut work = ScheduleStats::default();
            probe_deadline(&mut roster, deadline, fanout, &mut work).map(|w| w.0)
        };
        for fanout in 1..=PROBE_ROSTER.len() {
            assert_eq!(winner(fanout), Some(PROBE_ROSTER[0]), "fan-out {fanout}");
        }
        // Out-of-range fan-outs clamp into the roster.
        assert_eq!(winner(0), winner(1));
        assert_eq!(winner(9), winner(4));
    }
}
