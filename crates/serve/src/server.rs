//! The admission state machine.
//!
//! A [`Server`] owns the three things that must never drift apart — the
//! [`Calendar`], the quota ledger ([`AdmissionGate`]) and the set of live
//! applications — as private fields, so the only code that can change any
//! of them is [`Server::apply`], one [`Step`] at a time, and
//! [`Server::audit`]. Each step that goes through counts one event and
//! re-audits the calendar on the configured cadence; every outcome is a
//! typed value ([`Outcome`], [`Reason`], [`Fault`]) and turns into text
//! only in [`Server::into_report`].

use crate::{percentile, ServeConfig, ServeQuotaConfig, ServeReport};
use resched_core::algos::Algorithm;
use resched_core::backward::{DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::floor::Bound;
use resched_core::forward::ForwardConfig;
use resched_core::obs::{self, names, MetricsRegistry};
use resched_core::prelude::*;
use resched_core::validate::audit_calendar_with;
use resched_resv::{
    AdmissionGate, Owner, QuotaDenial, QuotaRule, QuotaSet, QuotaSubject, ReservationError,
};
use resched_workloads::swf::MAX_SECONDS;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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

/// What [`Server::apply`] made of one [`Step`].
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
    },
    /// Rolled back: calendar and ledger are byte-identical to before.
    Rejected(Reason),
    /// The application is cancelled.
    Cancelled,
    /// The reservation is shrunk.
    Resized,
    /// A step refused, or a cancel or resize done with the books
    /// disagreeing.
    Failed(Fault),
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

/// Why a step did not go through, or what an audit found.
///
/// The first three are the caller's: the step is refused before anything
/// is touched and nothing is counted. The rest are the server's own books
/// disagreeing with each other — each is counted in
/// `ServeReport::violations`, and the first one is the report's
/// `first_violation`, rendered by this type's `Display`.
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
/// wins ties, which is what `min_by_key` does).
fn probe_deadline(
    roster: &mut Roster<'_>,
    deadline: Time,
    fanout: usize,
) -> Option<(DeadlineAlgo, Schedule)> {
    let probed = &PROBE_ROSTER[..fanout.clamp(1, PROBE_ROSTER.len())];
    probed
        .iter()
        .filter_map(|&algo| Some((algo, roster.schedule(deadline, algo).ok()?.schedule)))
        .min_by_key(|(_, s)| s.completion())
}

/// The validated candidate schedule for one arrival, or why there is none,
/// from one [`Roster`] on the transaction's calendar view: first its floor
/// question at `horizon` ([`Roster::floor_past`]) — a floor past it answers
/// for every scheduler, with nothing allocated or placed, and the grain-1
/// floor bounds every grain — then, for a deadline arrival (`fanout` is
/// `Some`), the probes against `horizon` (their floor questions answered by
/// this one), or else the forward schedule, held to the same bound so the
/// turn-around of what is admitted stays bounded.
fn candidate(
    dag: &Dag,
    cal: &Calendar,
    now: Time,
    q: u32,
    horizon: Time,
    fanout: Option<usize>,
) -> Result<(Algorithm, Schedule), Reason> {
    let mut roster = Roster::prepare(dag, cal, now, q, DeadlineConfig::default());
    if let Some(floor) = roster.floor_past(horizon) {
        obs::counter_add(names::SERVE_FLOOR_ANSWERED, 1);
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
            let (algo, sched) =
                probe_deadline(&mut roster, horizon, fanout).ok_or(Reason::DeadlineInfeasible {
                    deadline: horizon,
                    floor: None,
                })?;
            (Algorithm::Deadline(algo), sched)
        }
        None => {
            let forward = ForwardConfig::recommended();
            let sched = roster.forward(forward);
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

/// Apply a validated schedule's reservations inside the transaction.
///
/// The schedule was validated against this exact transaction view, so
/// every add fits; one that does not is a fault in the validator or the
/// calendar, handed back for the caller to count — not a panic that ends
/// the replay.
pub(crate) fn apply_all(
    txn: &mut ShadowTxn<'_>,
    resvs: &[Reservation],
) -> Result<(), ReservationError> {
    resvs.iter().try_for_each(|r| txn.try_add(*r))
}

/// Capacity said yes; the quota gate gets its veto, then the reservations
/// go into the transaction. The all-or-nothing batch admit leaves the
/// ledger untouched on denial, mirroring the rollback the caller owes the
/// calendar on any `Err`.
fn reserve(
    txn: &mut ShadowTxn<'_>,
    gate: Option<&mut AdmissionGate>,
    owner: &Owner,
    resvs: &[Reservation],
) -> Result<(), Reason> {
    let Some(gate) = gate else {
        return apply_all(txn, resvs).map_err(Reason::ApplyFailed);
    };
    gate.admit_all(owner, resvs).map_err(Reason::Quota)?;
    apply_all(txn, resvs).map_err(|e| {
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
    /// Mutating steps so far, the audit cadence's clock.
    events: usize,
    apps: usize,
    commits: usize,
    cancels: usize,
    resizes: usize,
    /// Rejections by [`Reason::code`]; their sum is the rollback count.
    rejections: BTreeMap<&'static str, u64>,
    violations: usize,
    first_fault: Option<Fault>,
    first_arrival: Option<Time>,
    latencies_ns: Vec<u64>,
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
            events: 0,
            apps: 0,
            commits: 0,
            cancels: 0,
            resizes: 0,
            rejections: BTreeMap::new(),
            violations: 0,
            first_fault: None,
            first_arrival: None,
            latencies_ns: Vec::new(),
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
    /// shrink) is refused before anything is touched or counted; every
    /// other step counts one event, its faults go on the tally, and every
    /// `audit_every`-th event re-audits the calendar.
    pub fn apply(&mut self, step: &Step) -> Outcome {
        if let Some(t) = step.out_of_domain() {
            return Outcome::Failed(Fault::OutOfDomain(t));
        }
        let taken = match step {
            Step::Submit { now, app_id, dag } => Ok(self.submit(*now, *app_id, dag)),
            Step::Cancel { k } => self.cancel(*k),
            Step::Resize { k, i, new } => self.resize(*k, *i, *new),
        };
        taken.map_or_else(Outcome::Failed, |outcome| {
            self.end_step();
            outcome
        })
    }

    /// Decide one arrival: estimate `q` from the recent past, open a
    /// transaction, find a candidate (none when the instance floor is past
    /// the horizon; else forward, or the deadline roster for every
    /// `deadline_every`-th arrival), hold it to the horizon, the
    /// validator and the quota gate, apply it, and commit — or roll back
    /// byte-exactly on the first `Reason` not to. The arrival's latency is
    /// the time from after the `q` estimate to after the commit or
    /// rollback.
    fn submit(&mut self, now: Time, app_id: u32, dag: &Dag) -> Outcome {
        self.apps += 1;
        self.first_arrival.get_or_insert(now);
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
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latencies_ns.push(ns);

        match &outcome {
            Outcome::Rejected(reason) => {
                *self.rejections.entry(reason.code()).or_insert(0) += 1;
                if matches!(reason, Reason::Validator(_) | Reason::ApplyFailed(_)) {
                    self.record([Fault::Rejected(reason.clone())]);
                }
            }
            _ => self.commits += 1,
        }
        outcome
    }

    /// The transaction of one arrival, from open to commit or rollback.
    fn decide(&mut self, now: Time, q: u32, app_id: u32, dag: &Dag) -> Outcome {
        resched_core::span!(names::SPAN_SERVE_SCHEDULE);
        let horizon = now + self.cfg.admit_horizon;
        let by_deadline =
            self.cfg.deadline_every > 0 && self.apps.is_multiple_of(self.cfg.deadline_every);
        let fanout = by_deadline.then_some(self.cfg.probe_fanout);
        let (first, rest) = &self.owners;
        let user = app_id as usize % (rest.len() + 1);
        let [p0, p1] = user
            .checked_sub(1)
            .and_then(|u| rest.get(u))
            .unwrap_or(first);
        let owner = if app_id.is_multiple_of(2) { p0 } else { p1 };

        let mut txn = self.cal.transaction();
        let placed =
            candidate(dag, txn.calendar(), now, q, horizon, fanout).and_then(|(algo, sched)| {
                let resvs: Vec<Reservation> = dag
                    .task_ids()
                    .map(|t| sched.placement(t).reservation())
                    .collect();
                // The quota oracle, asked before the gate answers (the
                // transaction's view is the candidate's competing calendar
                // only until the reservations go in) and held to what the
                // gate admits: a schedule the gate lets through must replay
                // cleanly through a fresh gate on its own.
                #[cfg(debug_assertions)]
                let oracle = self.gate.as_ref().map(|gate| {
                    algo.validator(dag, txn.calendar(), now, Some(horizon))
                        .with_quotas(gate.quotas(), owner.clone())
                        .check(&sched)
                });
                reserve(&mut txn, self.gate.as_mut(), owner, &resvs)?;
                #[cfg(debug_assertions)]
                if let Some(Err(v)) = oracle {
                    panic!("serve: the quota gate admitted a schedule its oracle refuses: {v}");
                }
                Ok((algo, sched.completion(), resvs))
            });
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
                }
            }
            Err(reason) => {
                txn.rollback();
                Outcome::Rejected(reason)
            }
        }
    }

    /// [`Step::Cancel`], or why it was refused.
    fn cancel(&mut self, k: usize) -> Result<Outcome, Fault> {
        if k >= self.live.len() {
            return Err(Fault::OutOfRange {
                index: k,
                len: self.live.len(),
            });
        }
        let app = self.live.swap_remove(k);
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
        let faults: Vec<Fault> = match removed {
            // A tracked live reservation must always be removable.
            Err(e) => vec![Fault::CancelFailed(e)],
            Ok(()) => {
                self.cancels += 1;
                // The ledger mirrors commits exactly; a miss here is a
                // bookkeeping bug, not a policy call.
                match &mut self.gate {
                    None => Vec::new(),
                    Some(gate) => {
                        let missed = app.resvs.iter().filter(|r| !gate.release(&app.owner, r));
                        missed.map(|r| Fault::LedgerMiss(*r)).collect()
                    }
                }
            }
        };
        let first = faults.first().cloned();
        self.record(faults);
        Ok(first.map_or(Outcome::Cancelled, Outcome::Failed))
    }

    /// [`Step::Resize`], or why it was refused.
    fn resize(&mut self, k: usize, i: usize, new: Reservation) -> Result<Outcome, Fault> {
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
        let fault = match txn.try_resize(old, new) {
            Ok(()) => {
                txn.commit();
                *held = new;
                self.resizes += 1;
                let in_ledger = self
                    .gate
                    .as_mut()
                    .is_none_or(|gate| gate.replace(&app.owner, &old, new));
                (!in_ledger).then_some(Fault::LedgerMiss(old))
            }
            // Shrinking a live reservation releases capacity only; it can
            // never conflict.
            Err(e) => {
                txn.rollback();
                Some(Fault::ShrinkFailed(e))
            }
        };
        self.record(fault.clone());
        Ok(fault.map_or(Outcome::Resized, Outcome::Failed))
    }

    /// Audit the calendar (shape, capacity, accounting, reference scans)
    /// and the ledger against its rules, now; the findings go on the
    /// tally, their number is returned.
    pub fn audit(&mut self) -> usize {
        let found = audit_calendar_with(&self.cal, None, self.gate.as_ref());
        let n = found.len();
        self.record(found.into_iter().map(Fault::Audit));
        n
    }

    /// The one place a violation is counted.
    fn record(&mut self, faults: impl IntoIterator<Item = Fault>) {
        for fault in faults {
            self.violations += 1;
            self.first_fault.get_or_insert(fault);
        }
    }

    /// Close a step that went through (its faults are on the tally): it
    /// counts as one event, and every `audit_every`-th event re-audits the
    /// calendar.
    fn end_step(&mut self) {
        self.events += 1;
        if self.cfg.audit_every > 0 && self.events.is_multiple_of(self.cfg.audit_every) {
            self.audit();
        }
    }

    /// Close the books: a final audit (it covers `audit_every == 0` and
    /// any tail the cadence skipped), then the tallies as a report. `wall`
    /// is the caller's stopwatch over the steps; the `serve.*` counters
    /// and the latency histogram are written here, once, to the report's
    /// registry and to the ambient obs collector.
    pub fn into_report(mut self, wall: Duration) -> ServeReport {
        self.audit();

        let rejections: Vec<(String, u64)> = self
            .rejections
            .iter()
            .map(|(code, n)| (code.to_string(), *n))
            .collect();
        let rollbacks: u64 = rejections.iter().map(|(_, n)| n).sum();
        // The quota denials are the `quota.*` slice of the same tally.
        let quota_reasons: Vec<(String, u64)> = rejections
            .iter()
            .filter(|(code, _)| code.starts_with("quota."))
            .cloned()
            .collect();
        let quota_denied: u64 = quota_reasons.iter().map(|(_, n)| n).sum();

        let mut metrics = MetricsRegistry::new();
        for (name, n) in [
            (names::SERVE_APPS, self.apps as u64),
            (names::SERVE_COMMITS, self.commits as u64),
            (names::SERVE_ROLLBACKS, rollbacks),
            (names::SERVE_QUOTA_DENIED, quota_denied),
            (names::SERVE_CANCELS, self.cancels as u64),
            (names::SERVE_RESIZES, self.resizes as u64),
        ] {
            // A counter exists from its first tick on, not before.
            if n > 0 {
                metrics.inc(name, n);
                obs::counter_add(name, n);
            }
        }
        for &ns in &self.latencies_ns {
            metrics.record(names::SERVE_LATENCY, ns);
            obs::record_value(names::SERVE_LATENCY, ns);
        }

        self.latencies_ns.sort_unstable();
        let secs = wall.as_secs_f64();
        ServeReport {
            apps: self.apps,
            commits: self.commits,
            rollbacks: rollbacks as usize,
            cancels: self.cancels,
            resizes: self.resizes,
            quota_denied,
            quota_reasons,
            rejections,
            violations: self.violations,
            first_violation: self.first_fault.map(|f| f.to_string()),
            wall_ms: secs * 1e3,
            throughput_per_s: if secs > 0.0 {
                self.apps as f64 / secs
            } else {
                0.0
            },
            p50_us: percentile(&self.latencies_ns, 0.50) / 1e3,
            p95_us: percentile(&self.latencies_ns, 0.95) / 1e3,
            p99_us: percentile(&self.latencies_ns, 0.99) / 1e3,
            utilization: match (self.first_arrival, self.cal.horizon()) {
                (Some(first), Some(h)) if h > first => self.cal.average_utilization(first, h),
                _ => 0.0,
            },
            live_apps: self.live.len(),
            metrics,
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
        assert!(matches!(admitted, Outcome::Admitted { .. }), "{admitted:?}");
        let old = server.live()[0].resvs[0];
        let books = |s: &Server| {
            let ledger: Vec<_> = s.ledger().map(|(o, r)| (o.clone(), *r)).collect();
            (s.cal.clone(), ledger, s.live.clone(), s.events, s.apps)
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
                assert_eq!(
                    server.apply(&step),
                    Outcome::Failed(fault.clone()),
                    "{step:?}"
                );
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
        let refused = server.apply(&at_edge);
        assert!(matches!(refused, Outcome::Failed(Fault::NotAShrink { .. })));
        let decided = server.apply(&Step::Submit {
            now: Time::seconds(-edge),
            app_id: 1,
            dag,
        });
        assert!(!matches!(decided, Outcome::Failed(_)), "{decided:?}");
        assert_eq!(server.events, before.3 + 1);
        let report = server.into_report(Duration::ZERO);
        assert_eq!((report.apps, report.violations), (2, 0));
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
            probe_deadline(&mut roster, deadline, fanout).map(|w| w.0)
        };
        for fanout in 1..=PROBE_ROSTER.len() {
            assert_eq!(winner(fanout), Some(PROBE_ROSTER[0]), "fan-out {fanout}");
        }
        // Out-of-range fan-outs clamp into the roster.
        assert_eq!(winner(0), winner(1));
        assert_eq!(winner(9), winner(4));
    }
}
