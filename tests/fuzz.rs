//! Random scheduling scenarios, the all-algorithms validation runner, and
//! greedy shrinking — the engine behind `tests/tests/fuzz_validate.rs`.
//!
//! A [`Scenario`] is a self-contained, serializable description of one
//! scheduling problem: moldable tasks, precedence edges, a competing
//! reservation calendar, and a deadline slack factor. Scenarios are small
//! on purpose (at most a handful of tasks and reservations) so that a
//! shrunk failure is human-readable, and every field is plain data so a
//! failure can be committed under `tests/repros/` and replayed forever.

use rand::Rng;
use resched_core::algos::Algorithm;
use resched_core::dag::{Dag, DagBuilder};
use resched_core::floor::Floor;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_core::validate::{audit_calendar_with, Violation};
use resched_resv::quotas::QuotaAxis;
use resched_resv::{AdmissionGate, Owner, QuotaDenial, QuotaRule, QuotaSet, QuotaSubject};
use serde::{Deserialize, Serialize};

/// Stable snake_case label for a [`Violation`] kind, used to name and
/// bucket shrunk repro files. The `match` has no wildcard arm, so a new
/// kind in `resched-core::validate` does not compile here until it has a
/// label.
pub fn violation_label(v: &Violation) -> &'static str {
    match v {
        Violation::TaskCountMismatch { .. } => "task_count_mismatch",
        Violation::MalformedPlacement { .. } => "malformed_placement",
        Violation::AllocationOutOfRange { .. } => "allocation_out_of_range",
        Violation::AllocationExceedsDeclaredBound { .. } => "allocation_exceeds_declared_bound",
        Violation::DurationMismatch { .. } => "duration_mismatch",
        Violation::ReleaseViolation { .. } => "release_violation",
        Violation::PrecedenceViolation { .. } => "precedence_violation",
        Violation::CapacityExceeded { .. } => "capacity_exceeded",
        Violation::BackendDivergence { .. } => "backend_divergence",
        Violation::DeadlineMissed { .. } => "deadline_missed",
        Violation::ExitFinishMismatch { .. } => "exit_finish_mismatch",
        Violation::StatsInconsistent { .. } => "stats_inconsistent",
        Violation::CalendarCorrupt { .. } => "calendar_corrupt",
        Violation::CalendarOverbooked { .. } => "calendar_overbooked",
        Violation::CalendarAccountingDrift { .. } => "calendar_accounting_drift",
        Violation::CancelledResidue { .. } => "cancelled_residue",
        Violation::HierarchyViolation { .. } => "hierarchy_violation",
        Violation::QuotaViolation { .. } => "quota_violation",
    }
}

/// Who decides capacity feasibility while a test calendar is built and
/// mutated. The differential harnesses replay every scenario under both
/// judges and demand identical decisions and byte-identical calendars:
/// the production checks (`try_add` / `try_resize`, i.e. the slot walk)
/// against the independently written [`Calendar::linear`] scans deciding
/// and the unchecked mutators applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judge {
    /// The calendar's own fallible mutators.
    Production,
    /// `Calendar::linear()` decides, `add_unchecked` applies (and
    /// `try_remove` gives the old reservation back).
    LinearOracle,
}

impl Judge {
    /// Both judges, production first.
    pub const BOTH: [Judge; 2] = [Judge::Production, Judge::LinearOracle];

    /// Label for divergence reports.
    pub fn name(self) -> &'static str {
        match self {
            Judge::Production => "production",
            Judge::LinearOracle => "linear-oracle",
        }
    }

    /// Admit `r` if it fits; whether it was admitted.
    pub fn try_add(self, cal: &mut Calendar, r: Reservation) -> bool {
        match self {
            Judge::Production => cal.try_add(r).is_ok(),
            Judge::LinearOracle => {
                let fits = linear_fits(cal, &r);
                if fits {
                    cal.add_unchecked(r);
                }
                fits
            }
        }
    }

    /// Replace the live reservation `old` by `new` if `new` fits once
    /// `old` is gone; on refusal the calendar must be exactly as before.
    pub fn try_resize(self, cal: &mut Calendar, old: Reservation, new: Reservation) -> bool {
        match self {
            Judge::Production => cal.try_resize(old, new).is_ok(),
            Judge::LinearOracle => {
                cal.try_remove(old)
                    .expect("a live reservation is removable");
                let fits = linear_fits(cal, &new);
                cal.add_unchecked(if fits { new } else { old });
                fits
            }
        }
    }
}

/// Capacity feasibility of `r` by the linear reference scan alone.
fn linear_fits(cal: &Calendar, r: &Reservation) -> bool {
    r.procs <= cal.capacity() && cal.linear().peak_used(r.start, r.end) <= cal.capacity() - r.procs
}

/// One moldable task of a fuzz scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzTask {
    /// Sequential execution time, seconds.
    pub seq_secs: i64,
    /// Amdahl sequential fraction, `[0, 1]`.
    pub alpha: f64,
}

/// One competing advance reservation of a fuzz scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzResv {
    /// Start instant, seconds.
    pub start_secs: i64,
    /// Duration, seconds.
    pub dur_secs: i64,
    /// Processors held.
    pub procs: u32,
}

/// Remove one live reservation (`Remove` payload of [`FuzzOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzRemove {
    /// Which live reservation to remove (reduced modulo the live count).
    pub index: u32,
}

/// Resize one live reservation (`Resize` payload of [`FuzzOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzResize {
    /// Which live reservation to resize (reduced modulo the live count).
    pub index: u32,
    /// New processor count (clamped into `[1, capacity]`).
    pub procs: u32,
    /// New duration in seconds (floored at 1), keeping the old start.
    pub dur_secs: i64,
}

/// One calendar mutation, applied after the initial reservations are
/// admitted. Payloads live in newtype structs because the vendored serde
/// derive supports only unit and newtype enum variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FuzzOp {
    /// Remove a live reservation through `Calendar::try_remove`.
    Remove(FuzzRemove),
    /// Resize a live reservation through `Calendar::try_resize`; a
    /// conflicting grow must leave the calendar untouched (atomicity).
    Resize(FuzzResize),
}

/// A self-contained random scheduling problem: DAG × calendar × deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Platform capacity `p`.
    pub capacity: u32,
    /// Historical average availability `q` handed to the algorithms.
    pub q: u32,
    /// Scheduling instant (release), seconds.
    pub now_secs: i64,
    /// The moldable tasks, indexed by task id.
    pub tasks: Vec<FuzzTask>,
    /// Precedence edges as `(pred, succ)` task indices; always `pred <
    /// succ`, so the graph is acyclic by construction (and stays so under
    /// shrinking).
    pub edges: Vec<(u32, u32)>,
    /// Competing reservations; candidates that conflict are skipped when
    /// the calendar is built, mirroring how real extraction thins logs.
    pub reservations: Vec<FuzzResv>,
    /// Deadline slack: `K = now + deadline_factor × forward turn-around`.
    pub deadline_factor: u32,
    /// Calendar mutations (cancellations and resizes) applied after the
    /// reservations are admitted; defaults to empty so pre-mutation repro
    /// files keep parsing.
    #[serde(default)]
    pub ops: Vec<FuzzOp>,
}

/// A validation failure found by [`Scenario::run_all`].
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Canonical name of the algorithm whose schedule failed.
    pub algo: String,
    /// Human-readable description (oracle violation or panic payload).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.algo, self.detail)
    }
}

impl Scenario {
    /// Draw a random scenario. Sizes are deliberately small: the goal is
    /// coverage of edge cases (tiny DAGs, tight calendars, capacity-1
    /// platforms), not load.
    pub fn generate<R: Rng>(rng: &mut R) -> Scenario {
        let capacity = rng.gen_range(1u32..=16);
        let q = rng.gen_range(1u32..=capacity);
        let n = rng.gen_range(1usize..=8);
        let tasks = (0..n)
            .map(|_| FuzzTask {
                seq_secs: rng.gen_range(30i64..3600),
                alpha: rng.gen_range(0.0..0.5f64),
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen_range(0.0..1.0f64) < 0.3 {
                    edges.push((i, j));
                }
            }
        }
        let n_resv = rng.gen_range(0usize..=6);
        let reservations = (0..n_resv)
            .map(|_| FuzzResv {
                start_secs: rng.gen_range(0i64..8_000),
                dur_secs: rng.gen_range(60i64..4_000),
                procs: rng.gen_range(1u32..=capacity),
            })
            .collect();
        let n_ops = rng.gen_range(0usize..=4);
        let ops = (0..n_ops)
            .map(|_| {
                if rng.gen_range(0.0..1.0f64) < 0.5 {
                    FuzzOp::Remove(FuzzRemove {
                        index: rng.gen_range(0u32..8),
                    })
                } else {
                    FuzzOp::Resize(FuzzResize {
                        index: rng.gen_range(0u32..8),
                        procs: rng.gen_range(1u32..=capacity),
                        dur_secs: rng.gen_range(60i64..4_000),
                    })
                }
            })
            .collect();
        Scenario {
            capacity,
            q,
            now_secs: rng.gen_range(0i64..2_000),
            tasks,
            edges,
            reservations,
            deadline_factor: rng.gen_range(2u32..=4),
            ops,
        }
    }

    /// Build the DAG, or `None` for a degenerate scenario (no tasks —
    /// possible only transiently while shrinking).
    pub fn dag(&self) -> Option<Dag> {
        if self.tasks.is_empty() {
            return None;
        }
        let mut b = DagBuilder::new();
        for t in &self.tasks {
            b.add_task(TaskCost::new(
                Dur::seconds(t.seq_secs.max(1)),
                t.alpha.clamp(0.0, 1.0),
            ));
        }
        let n = self.tasks.len() as u32;
        let mut seen = std::collections::HashSet::new();
        for &(a, z) in &self.edges {
            if a < z && z < n && seen.insert((a, z)) {
                b.add_edge(TaskId(a), TaskId(z));
            }
        }
        b.build().ok()
    }

    /// Build the competing calendar, skipping conflicting candidates and
    /// then applying the mutation ops.
    pub fn calendar(&self) -> Calendar {
        self.calendar_with_live().0
    }

    /// Build the calendar — admit reservations, then replay the mutation
    /// ops — and return it together with the reservations still live
    /// afterwards. Rebuilding a fresh calendar from the live set is the
    /// mutation oracle: it must equal the incrementally mutated calendar
    /// exactly (`PartialEq` *and* serialized bytes).
    pub fn calendar_with_live(&self) -> (Calendar, Vec<Reservation>) {
        self.calendar_with_live_judged(Judge::Production)
    }

    /// [`Scenario::calendar_with_live`] with every feasibility decision
    /// made by `judge`.
    pub fn calendar_with_live_judged(&self, judge: Judge) -> (Calendar, Vec<Reservation>) {
        let cap = self.capacity.max(1);
        let mut cal = Calendar::new(cap);
        let mut live = Vec::new();
        for r in &self.reservations {
            let start = Time::seconds(r.start_secs);
            let dur = Dur::seconds(r.dur_secs.max(1));
            let procs = r.procs.clamp(1, cap);
            let res = Reservation::for_duration(start, dur, procs);
            if judge.try_add(&mut cal, res) {
                live.push(res);
            }
        }
        for op in &self.ops {
            match *op {
                FuzzOp::Remove(FuzzRemove { index }) => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = index as usize % live.len();
                    let r = live.swap_remove(i);
                    cal.try_remove(r).expect("tracked live reservation removes");
                }
                FuzzOp::Resize(FuzzResize {
                    index,
                    procs,
                    dur_secs,
                }) => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = index as usize % live.len();
                    let old = live[i];
                    let new = Reservation::for_duration(
                        old.start,
                        Dur::seconds(dur_secs.max(1)),
                        procs.clamp(1, cap),
                    );
                    if judge.try_resize(&mut cal, old, new) {
                        live[i] = new;
                    }
                    // A rejected resize (conflicting grow) must have
                    // restored the calendar; the oracle equality below
                    // catches any residue.
                }
            }
        }
        (cal, live)
    }

    /// The scheduling instant.
    pub fn now(&self) -> Time {
        Time::seconds(self.now_secs)
    }

    /// The deadline handed to deadline algorithms: a slack multiple of the
    /// recommended forward schedule's turn-around.
    pub fn deadline(&self, dag: &Dag, cal: &Calendar) -> Time {
        let fwd = schedule_forward(dag, cal, self.now(), self.q, ForwardConfig::recommended());
        self.now() + fwd.turnaround() * i64::from(self.deadline_factor.max(1))
    }

    /// Run every registered algorithm on this scenario and audit each
    /// produced schedule through the oracle (`Algorithm::validator`) and
    /// the second oracle, the instance floor with its calendar path
    /// (`Floor::check`).
    ///
    /// Deadline-infeasible outcomes are not failures (the deadline is
    /// derived, not guaranteed achievable for every algorithm); scheduler
    /// panics — including the debug post-pass tripping inside the
    /// scheduler — are reported as failures.
    pub fn run_all(&self) -> Result<(), Failure> {
        let Some(dag) = self.dag() else { return Ok(()) };
        let cal = self.calendar();
        let now = self.now();
        let deadline = Some(self.deadline(&dag, &cal));
        let floor = Floor::of(&dag, &cal, now, 1);
        for algo in Algorithm::catalog() {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                algo.run(&dag, &cal, now, self.q, deadline)
            }));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => {
                    return Err(Failure {
                        algo: algo.name(),
                        detail: panic_message(payload),
                    })
                }
            };
            match result {
                Ok(sched) => {
                    let checked = algo.validator(&dag, &cal, now, deadline).check(&sched);
                    let detail = match checked {
                        Err(v) => Some(v.to_string()),
                        Ok(()) => floor.check(&sched).err().map(|b| b.to_string()),
                    };
                    if let Some(detail) = detail {
                        return Err(Failure {
                            algo: algo.name(),
                            detail,
                        });
                    }
                }
                Err(resched_core::algos::RunError::Infeasible(_)) => {}
                Err(e) => {
                    return Err(Failure {
                        algo: algo.name(),
                        detail: e.to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// All one-step simplifications of this scenario, most aggressive
    /// first: drop a task (and its incident edges), drop a reservation,
    /// drop an edge, halve a reservation's width or length, halve a
    /// task's cost, zero the release, floor the deadline factor.
    pub fn shrink_candidates(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for i in (0..self.tasks.len()).rev() {
            out.push(self.without_task(i));
        }
        for i in (0..self.ops.len()).rev() {
            let mut s = self.clone();
            s.ops.remove(i);
            out.push(s);
        }
        for i in (0..self.reservations.len()).rev() {
            let mut s = self.clone();
            s.reservations.remove(i);
            out.push(s);
        }
        for i in (0..self.edges.len()).rev() {
            let mut s = self.clone();
            s.edges.remove(i);
            out.push(s);
        }
        for i in 0..self.reservations.len() {
            if self.reservations[i].procs > 1 {
                let mut s = self.clone();
                s.reservations[i].procs /= 2;
                out.push(s);
            }
            if self.reservations[i].dur_secs > 60 {
                let mut s = self.clone();
                s.reservations[i].dur_secs /= 2;
                out.push(s);
            }
        }
        for i in 0..self.tasks.len() {
            if self.tasks[i].seq_secs > 30 {
                let mut s = self.clone();
                s.tasks[i].seq_secs /= 2;
                out.push(s);
            }
            if self.tasks[i].alpha > 0.0 {
                let mut s = self.clone();
                s.tasks[i].alpha = 0.0;
                out.push(s);
            }
        }
        if self.now_secs > 0 {
            let mut s = self.clone();
            s.now_secs = 0;
            out.push(s);
        }
        if self.deadline_factor > 2 {
            let mut s = self.clone();
            s.deadline_factor = 2;
            out.push(s);
        }
        out
    }

    fn without_task(&self, i: usize) -> Scenario {
        let mut s = self.clone();
        s.tasks.remove(i);
        let i = i as u32;
        s.edges = s
            .edges
            .iter()
            .filter(|&&(a, z)| a != i && z != i)
            .map(|&(a, z)| (if a > i { a - 1 } else { a }, if z > i { z - 1 } else { z }))
            .collect();
        s
    }

    /// Pretty JSON for committing under `tests/repros/`.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("scenario serializes");
        s.push('\n');
        s
    }

    /// Parse a committed repro.
    pub fn from_json(json: &str) -> Result<Scenario, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One admission request of a [`QuotaStress`] case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuotaRequest {
    /// Requesting user index (reduced modulo 4 → `u0`..`u3`).
    pub user: u32,
    /// Project index (reduced modulo 2 → `p0` / `p1`).
    pub project: u32,
    /// Reservation start, seconds (floored at 0).
    pub start_secs: i64,
    /// Reservation length, seconds (floored at 1).
    pub dur_secs: i64,
    /// Processors requested (clamped into `[1, capacity]`).
    pub procs: u32,
    /// Release this many of the most recently admitted reservations
    /// *before* this request, exercising `AdmissionGate::release` against
    /// live calendar removals.
    #[serde(default)]
    pub release: u32,
    /// Reservations in this request (0, a repro written before the field
    /// existed, means 1). Reservation `k` starts `k` half-lengths after the
    /// first, with the same length and width; a batch of more than one is
    /// admitted through `admit_all`, as serve admits an application.
    #[serde(default)]
    pub batch: u32,
}

impl QuotaRequest {
    /// The request's reservations on a `cap`-processor platform.
    pub fn reservations(&self, cap: u32) -> Vec<Reservation> {
        let (start, dur) = (self.start_secs.max(0), self.dur_secs.max(1));
        (0..i64::from(self.batch.max(1)))
            .map(|k| {
                Reservation::for_duration(
                    Time::seconds(start + k * (dur / 2)),
                    Dur::seconds(dur),
                    self.procs.clamp(1, cap),
                )
            })
            .collect()
    }
}

/// A quota-admission stress case: a request sequence driven through an
/// [`AdmissionGate`] and a live [`Calendar`] together. The observable is
/// the per-request decision log (`admit` / `conflict` / the full
/// [`QuotaDenial`]), which must be identical under both capacity
/// [`Judge`]s — quota admissibility and capacity feasibility are
/// independent judgments, and neither may depend on how the calendar
/// answers — and under the [`ReferenceGate`], asked every question beside
/// the production gate. Serializable for committing shrunk failures under
/// `tests/repros/quota_*.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuotaStress {
    /// Platform capacity `p`.
    pub capacity: u32,
    /// Per-user concurrent-core cap, same for `u0`..`u3` (0 = no rule).
    pub user_cores: u32,
    /// Per-user core-seconds cap (0 = no rule).
    pub user_core_seconds: i64,
    /// Per-project concurrent-core cap for `p0` / `p1` (0 = no rule).
    pub project_cores: u32,
    /// The admission requests, in order.
    pub requests: Vec<QuotaRequest>,
}

impl QuotaStress {
    /// Draw a random case: small capacity, tight-ish caps (so denials
    /// actually happen), a handful of overlapping requests.
    pub fn generate<R: Rng>(rng: &mut R) -> QuotaStress {
        let capacity = rng.gen_range(2u32..=16);
        let n = rng.gen_range(1usize..=10);
        let requests = (0..n)
            .map(|_| QuotaRequest {
                user: rng.gen_range(0u32..8),
                project: rng.gen_range(0u32..4),
                start_secs: rng.gen_range(0i64..4_000),
                dur_secs: rng.gen_range(60i64..4_000),
                procs: rng.gen_range(1u32..=capacity),
                release: if rng.gen_range(0.0..1.0f64) < 0.25 {
                    rng.gen_range(1u32..=2)
                } else {
                    0
                },
                batch: 1,
            })
            .collect();
        QuotaStress {
            capacity,
            user_cores: rng.gen_range(0u32..=capacity),
            user_core_seconds: if rng.gen_range(0.0..1.0f64) < 0.5 {
                rng.gen_range(1_000i64..2_000_000)
            } else {
                0
            },
            project_cores: rng.gen_range(0u32..=capacity),
            requests,
        }
    }

    /// The rules this case's caps describe: one identical rule set per
    /// synthetic user and project. Zero caps install no rule.
    pub fn quotas(&self) -> QuotaSet {
        let mut set = QuotaSet::unlimited();
        for u in 0..4 {
            let subject = QuotaSubject::User(format!("u{u}"));
            if self.user_cores > 0 {
                set = set.with_rule(QuotaRule::concurrent(subject.clone(), self.user_cores));
            }
            if self.user_core_seconds > 0 {
                set = set.with_rule(QuotaRule::core_seconds(subject, self.user_core_seconds));
            }
        }
        for p in 0..2 {
            if self.project_cores > 0 {
                set = set.with_rule(QuotaRule::concurrent(
                    QuotaSubject::Project(format!("p{p}")),
                    self.project_cores,
                ));
            }
        }
        set
    }

    /// Replay the request sequence against a fresh calendar and gate.
    /// Returns the decision log, one line per request, or `Err` on any
    /// internal inconsistency: a check/admit disagreement, a ledger miss on
    /// release, a failed audit (`AdmissionGate::audit` plus
    /// `audit_calendar_with`), or ledger/live-set accounting drift. A
    /// [`ReferenceGate`] over the same rules follows every step: each
    /// check and batch admission must return the production gate's result
    /// (the whole [`QuotaDenial`], not only its reason code), the two
    /// ledgers must be equal after every request, and the final audits
    /// must be equal, or the replay is `Err`.
    pub fn replay(&self) -> Result<Vec<String>, String> {
        self.replay_judged(Judge::Production)
    }

    /// [`QuotaStress::replay`] with every capacity decision made by
    /// `judge`.
    pub fn replay_judged(&self, judge: Judge) -> Result<Vec<String>, String> {
        let cap = self.capacity.max(1);
        let mut cal = Calendar::new(cap);
        let quotas = self.quotas();
        let mut gate = AdmissionGate::new(quotas.clone());
        let mut reference = ReferenceGate::new(quotas);
        let mut live: Vec<(Owner, Reservation)> = Vec::new();
        let mut log = Vec::new();
        for req in &self.requests {
            for _ in 0..req.release {
                let Some((o, r)) = live.pop() else { break };
                if cal.try_remove(r).is_err() {
                    return Err("calendar lost a tracked live reservation".into());
                }
                if !gate.release(&o, &r) || !reference.release(&o, &r) {
                    return Err(format!("gate ledger missing a released entry for {o}"));
                }
            }
            let owner = Owner::new(
                &format!("u{}", req.user % 4),
                &format!("p{}", req.project % 2),
            );
            let batch = req.reservations(cap);
            log.push(match batch.as_slice() {
                [r] => admit_one(judge, &mut cal, &mut gate, &mut reference, &owner, *r)?,
                _ => admit_batch(judge, &mut cal, &mut gate, &mut reference, &owner, &batch)?,
            });
            if log.last().is_some_and(|line| line == "admit") {
                live.extend(batch.iter().map(|r| (owner.clone(), *r)));
            }
            let ledger: Vec<(Owner, Reservation)> =
                gate.ledger().map(|(o, r)| (o.clone(), *r)).collect();
            if ledger != reference.ledger() {
                return Err(format!(
                    "production ledger {ledger:?} but reference ledger {:?}",
                    reference.ledger()
                ));
            }
        }
        let audit = gate.audit();
        if audit != reference.audit() {
            return Err(format!(
                "production audit {audit:?} but reference audit {:?}",
                reference.audit()
            ));
        }
        if let Some(denial) = audit.first() {
            return Err(format!("gate ledger breaks its own rules: {denial}"));
        }
        if let Some(v) = audit_calendar_with(&cal, None, Some(&gate)).first() {
            return Err(format!("{}: {v}", violation_label(v)));
        }
        let area: i64 = live.iter().map(|(_, r)| r.proc_seconds()).sum();
        let held: i64 = gate.ledger().map(|(_, r)| r.proc_seconds()).sum();
        if area != held {
            return Err(format!("ledger area drifted: live {area} vs gate {held}"));
        }
        Ok(log)
    }

    /// One-step simplifications, most aggressive first: drop a request,
    /// stop releasing, lift each cap, then halve request sizes.
    pub fn shrink_candidates(&self) -> Vec<QuotaStress> {
        let mut out = Vec::new();
        for i in (0..self.requests.len()).rev() {
            let mut s = self.clone();
            s.requests.remove(i);
            out.push(s);
        }
        for i in 0..self.requests.len() {
            if self.requests[i].release > 0 {
                let mut s = self.clone();
                s.requests[i].release = 0;
                out.push(s);
            }
            if self.requests[i].procs > 1 {
                let mut s = self.clone();
                s.requests[i].procs /= 2;
                out.push(s);
            }
            if self.requests[i].dur_secs > 60 {
                let mut s = self.clone();
                s.requests[i].dur_secs /= 2;
                out.push(s);
            }
            if self.requests[i].batch > 1 {
                let mut s = self.clone();
                s.requests[i].batch /= 2;
                out.push(s);
            }
        }
        for (cores, core_secs, proj) in [
            (0, self.user_core_seconds, self.project_cores),
            (self.user_cores, 0, self.project_cores),
            (self.user_cores, self.user_core_seconds, 0),
        ] {
            if (cores, core_secs, proj)
                != (self.user_cores, self.user_core_seconds, self.project_cores)
            {
                let mut s = self.clone();
                s.user_cores = cores;
                s.user_core_seconds = core_secs;
                s.project_cores = proj;
                out.push(s);
            }
        }
        out
    }

    /// Pretty JSON for committing under `tests/repros/quota_*.json`.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("quota case serializes");
        s.push('\n');
        s
    }

    /// Parse a committed quota repro.
    pub fn from_json(json: &str) -> Result<QuotaStress, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One reservation, as a single admission asks the gate: `check` (the
/// reference's answer must be the same), then capacity, then `admit`.
/// The decision's log line.
fn admit_one(
    judge: Judge,
    cal: &mut Calendar,
    gate: &mut AdmissionGate,
    reference: &mut ReferenceGate,
    owner: &Owner,
    r: Reservation,
) -> Result<String, String> {
    let decision = gate.check(owner, &r);
    let oracle = reference.check(owner, &r);
    if decision != oracle {
        return Err(format!(
            "production gate {decision:?} but reference gate {oracle:?} for {owner}"
        ));
    }
    Ok(match decision {
        Err(denial) => denial.to_string(),
        Ok(()) if judge.try_add(cal, r) => {
            if let Err(denial) = gate.admit(owner, r) {
                return Err(format!("gate flipped after a clean check: {denial}"));
            }
            reference.admit(owner, r);
            "admit".to_string()
        }
        Ok(()) => "conflict".to_string(),
    })
}

/// A batch, as serve admits an application: capacity for the whole batch
/// (or none of it), then `admit_all` (the reference's answer must be the
/// same), the calendar rolled back on a denial. A denial's log line names
/// the reservation of the batch it fell on.
fn admit_batch(
    judge: Judge,
    cal: &mut Calendar,
    gate: &mut AdmissionGate,
    reference: &mut ReferenceGate,
    owner: &Owner,
    batch: &[Reservation],
) -> Result<String, String> {
    let placed = batch.iter().take_while(|r| judge.try_add(cal, **r)).count();
    let line = if placed < batch.len() {
        "conflict".to_string()
    } else {
        let decision = gate.admit_all(owner, batch);
        let oracle = reference.admit_all(owner, batch);
        if decision != oracle.clone().map_err(|(_, d)| d) {
            return Err(format!(
                "production gate {decision:?} but reference gate {oracle:?} for {owner}"
            ));
        }
        match oracle {
            Ok(()) => return Ok("admit".to_string()),
            Err((k, denial)) => format!("{denial} (reservation {k} of {})", batch.len()),
        }
    };
    for r in batch.iter().take(placed) {
        if cal.try_remove(*r).is_err() {
            return Err("calendar lost a batch reservation it had just placed".into());
        }
    }
    Ok(line)
}

/// The admission gate's reference: the rules and `≤`-inclusive checks of
/// [`AdmissionGate`], over its own ledger, with the peak found the slow,
/// obvious way — probe every start of the subject's reservations (and the
/// candidate's) and rescan the whole ledger at each, O(H_s·H) per
/// question, and a batch checked one reservation after another.
/// [`QuotaStress::replay`] asks it every question beside the production
/// gate's subject profiles.
#[derive(Debug, Clone)]
pub struct ReferenceGate {
    quotas: QuotaSet,
    held: Vec<(Owner, Reservation)>,
}

impl ReferenceGate {
    /// A reference gate enforcing `quotas` over an empty ledger.
    pub fn new(quotas: QuotaSet) -> ReferenceGate {
        ReferenceGate {
            quotas,
            held: Vec::new(),
        }
    }

    /// `AdmissionGate::check`: the first denial of the first matching
    /// rule, the concurrent axis before the core-second one.
    pub fn check(&self, owner: &Owner, r: &Reservation) -> Result<(), QuotaDenial> {
        let mut denials = self
            .quotas
            .rules
            .iter()
            .filter(|rule| rule.subject.matches(owner))
            .flat_map(|rule| self.denials(rule, Some(r)));
        denials.next().map_or(Ok(()), Err)
    }

    /// Record `r` for `owner` unchecked: the replay admits only what
    /// [`ReferenceGate::check`] has just passed.
    pub fn admit(&mut self, owner: &Owner, r: Reservation) {
        self.held.push((owner.clone(), r));
    }

    /// `AdmissionGate::admit_all`: each reservation checked against the
    /// ledger plus the batch entries before it and pushed; on the first
    /// denial the batch is truncated away, and the denial is returned with
    /// the index of the reservation it fell on.
    pub fn admit_all(
        &mut self,
        owner: &Owner,
        resvs: &[Reservation],
    ) -> Result<(), (usize, QuotaDenial)> {
        let mark = self.held.len();
        for (k, r) in resvs.iter().enumerate() {
            if let Err(denial) = self.check(owner, r) {
                self.held.truncate(mark);
                return Err((k, denial));
            }
            self.admit(owner, *r);
        }
        Ok(())
    }

    /// The ledger, admission order.
    pub fn ledger(&self) -> &[(Owner, Reservation)] {
        &self.held
    }

    /// `AdmissionGate::release`.
    pub fn release(&mut self, owner: &Owner, r: &Reservation) -> bool {
        match self.held.iter().position(|(o, h)| o == owner && h == r) {
            Some(i) => {
                self.held.remove(i);
                true
            }
            None => false,
        }
    }

    /// `AdmissionGate::audit`: every rule the held ledger alone breaks.
    pub fn audit(&self) -> Vec<QuotaDenial> {
        self.quotas
            .rules
            .iter()
            .flat_map(|rule| self.denials(rule, None))
            .collect()
    }

    /// The axes of `rule` the ledger plus `extra` breaks, concurrent first.
    fn denials(&self, rule: &QuotaRule, extra: Option<&Reservation>) -> Vec<QuotaDenial> {
        let mut out = Vec::new();
        if let Some(limit) = rule.max_concurrent_cores {
            let peak = self.peak_concurrent(&rule.subject, extra);
            if peak > limit {
                out.push(QuotaDenial {
                    subject: rule.subject.label(),
                    axis: QuotaAxis::ConcurrentCores,
                    requested: i64::from(peak),
                    limit: i64::from(limit),
                });
            }
        }
        if let Some(limit) = rule.max_core_seconds {
            let area: i64 = self
                .held
                .iter()
                .filter(|(o, _)| rule.subject.matches(o))
                .map(|(_, r)| r.proc_seconds())
                .sum::<i64>()
                + extra.map_or(0, Reservation::proc_seconds);
            if area > limit {
                out.push(QuotaDenial {
                    subject: rule.subject.label(),
                    axis: QuotaAxis::CoreSeconds,
                    requested: area,
                    limit,
                });
            }
        }
        out
    }

    /// Probe at every start: every local maximum of a union of intervals
    /// is at some interval's start.
    fn peak_concurrent(&self, subject: &QuotaSubject, extra: Option<&Reservation>) -> u32 {
        let mut peak = 0u32;
        let candidates = self
            .held
            .iter()
            .filter(|(o, _)| subject.matches(o))
            .map(|(_, r)| r)
            .chain(extra);
        for probe in candidates {
            let t = probe.start;
            let mut used = 0u32;
            for (o, r) in &self.held {
                if subject.matches(o) && r.start <= t && t < r.end {
                    used = used.saturating_add(r.procs);
                }
            }
            if let Some(r) = extra {
                if r.start <= t && t < r.end {
                    used = used.saturating_add(r.procs);
                }
            }
            peak = peak.max(used);
        }
        peak
    }
}

/// [`shrink`], for quota-stress cases: same greedy loop and budget over
/// [`QuotaStress::shrink_candidates`].
pub fn shrink_quota(case: &QuotaStress, fails: impl Fn(&QuotaStress) -> bool) -> QuotaStress {
    greedy_shrink(case, QuotaStress::shrink_candidates, fails)
}

/// Greedily shrink `scenario` while `fails` keeps returning true: take the
/// first one-step simplification that still fails and restart from it,
/// until no simplification fails (a local minimum) or the step budget runs
/// out. Deterministic: same scenario and predicate, same minimum.
pub fn shrink(scenario: &Scenario, fails: impl Fn(&Scenario) -> bool) -> Scenario {
    greedy_shrink(scenario, Scenario::shrink_candidates, fails)
}

fn greedy_shrink<T: Clone>(
    start: &T,
    candidates: impl Fn(&T) -> Vec<T>,
    fails: impl Fn(&T) -> bool,
) -> T {
    debug_assert!(fails(start), "shrink needs a failing starting point");
    let mut current = start.clone();
    let mut budget = 2_000usize;
    'outer: while budget > 0 {
        for cand in candidates(&current) {
            budget = budget.saturating_sub(1);
            if fails(&cand) {
                current = cand;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    current
}

/// Best-effort string from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn generated_scenarios_build_and_roundtrip() {
        let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_00F0);
        for _ in 0..32 {
            let s = Scenario::generate(&mut rng);
            assert!(s.dag().is_some(), "generated scenarios are never empty");
            let _ = s.calendar();
            let back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn shrinking_reaches_a_failing_local_minimum() {
        let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_00F1);
        let s = Scenario::generate(&mut rng);
        // A predicate any non-empty scenario satisfies: shrinking must
        // drive the scenario down to a single task and nothing else.
        let fails = |c: &Scenario| !c.tasks.is_empty();
        let min = shrink(&s, fails);
        assert_eq!(min.tasks.len(), 1);
        assert!(min.reservations.is_empty());
        assert!(min.edges.is_empty());
        assert!(min.ops.is_empty());
        assert!(min.tasks[0].seq_secs <= 30, "cost fully halved down");
        assert_eq!(min.now_secs, 0);
    }

    #[test]
    fn quota_cases_roundtrip_and_shrink() {
        let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_00F3);
        for _ in 0..16 {
            let case = QuotaStress::generate(&mut rng);
            let back = QuotaStress::from_json(&case.to_json()).unwrap();
            assert_eq!(back, case);
            // A consistent gate/calendar pair: replay never errors, only
            // decides.
            let log = case.replay().unwrap();
            assert_eq!(log.len(), case.requests.len());
        }
        // Shrinking against "still has a request" strips caps and extras.
        let case = QuotaStress::generate(&mut rng);
        let min = shrink_quota(&case, |c| !c.requests.is_empty());
        assert_eq!(min.requests.len(), 1);
        assert_eq!(
            (min.user_cores, min.user_core_seconds, min.project_cores),
            (0, 0, 0)
        );
        assert_eq!(min.requests[0].release, 0);
    }

    #[test]
    fn dropping_a_task_remaps_edges() {
        let mut s = Scenario {
            capacity: 4,
            q: 4,
            now_secs: 0,
            tasks: vec![
                FuzzTask {
                    seq_secs: 100,
                    alpha: 0.0
                };
                3
            ],
            edges: vec![(0, 1), (0, 2), (1, 2)],
            reservations: vec![],
            deadline_factor: 2,
            ops: vec![],
        };
        s = s.without_task(1);
        assert_eq!(s.tasks.len(), 2);
        assert_eq!(s.edges, vec![(0, 1)]);
        assert!(s.dag().is_some());
    }
}
