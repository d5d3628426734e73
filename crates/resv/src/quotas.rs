//! Per-user / per-project admission quotas over the reservation calendar.
//!
//! Production reservation systems gate admission on *who* is asking, not
//! just on free capacity. This module adds that layer without touching
//! [`crate::Reservation`] (whose serialized shape is pinned by goldens):
//! ownership lives in an external ledger, the [`AdmissionGate`].
//!
//! * an [`Owner`] names the requesting user and their project;
//! * a [`QuotaRule`] caps one [`QuotaSubject`] (a user or a project) on
//!   two axes: **concurrent cores** (peak cores held at any instant) and
//!   **core-seconds** (total area of held reservations);
//! * a [`QuotaSet`] is the rule list — *every* rule matching the owner is
//!   enforced, so a user cap and a project cap compose;
//! * the [`AdmissionGate`] holds the accepted-reservation ledger and
//!   answers admit/deny with a structured [`QuotaDenial`] carrying a
//!   stable machine-readable reason code.
//!
//! Checks are `≤`-inclusive: a request that lands *exactly* on the limit
//! is admitted; the first core past it is denied. A zero limit denies
//! everything for that subject.

use crate::reservation::Reservation;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Who a reservation is accounted to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Owner {
    /// Requesting user.
    pub user: String,
    /// Project the request is billed to.
    pub project: String,
}

impl Owner {
    /// Convenience constructor.
    pub fn new(user: &str, project: &str) -> Owner {
        Owner {
            user: user.to_string(),
            project: project.to_string(),
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.user, self.project)
    }
}

/// The subject a quota rule constrains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuotaSubject {
    /// All reservations held by one user.
    User(String),
    /// All reservations held by one project (across its users).
    Project(String),
}

impl QuotaSubject {
    /// Does this subject cover `owner`?
    pub fn matches(&self, owner: &Owner) -> bool {
        match self {
            QuotaSubject::User(u) => *u == owner.user,
            QuotaSubject::Project(p) => *p == owner.project,
        }
    }

    /// Diagnostic label, e.g. `user:alice` / `project:astro`.
    pub fn label(&self) -> String {
        match self {
            QuotaSubject::User(u) => format!("user:{u}"),
            QuotaSubject::Project(p) => format!("project:{p}"),
        }
    }
}

/// One admission rule: caps for a single subject. `None` axes are
/// unlimited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuotaRule {
    /// Who the rule constrains.
    pub subject: QuotaSubject,
    /// Peak cores the subject may hold at any instant.
    #[serde(default)]
    pub max_concurrent_cores: Option<u32>,
    /// Total core-seconds (reservation area) the subject may hold.
    #[serde(default)]
    pub max_core_seconds: Option<i64>,
}

impl QuotaRule {
    /// Cap `subject` at `cores` concurrent cores.
    pub fn concurrent(subject: QuotaSubject, cores: u32) -> QuotaRule {
        QuotaRule {
            subject,
            max_concurrent_cores: Some(cores),
            max_core_seconds: None,
        }
    }

    /// Cap `subject` at `core_seconds` total reservation area.
    pub fn core_seconds(subject: QuotaSubject, core_seconds: i64) -> QuotaRule {
        QuotaRule {
            subject,
            max_concurrent_cores: None,
            max_core_seconds: Some(core_seconds),
        }
    }
}

/// The admission policy: a list of rules, all of which must hold.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QuotaSet {
    /// Every rule; all rules matching an owner are enforced.
    pub rules: Vec<QuotaRule>,
}

impl QuotaSet {
    /// The empty (admit-everything) policy.
    pub fn unlimited() -> QuotaSet {
        QuotaSet::default()
    }

    /// Builder: add a rule.
    pub fn with_rule(mut self, rule: QuotaRule) -> QuotaSet {
        self.rules.push(rule);
        self
    }

    /// No rules at all?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Which quota axis a denial came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuotaAxis {
    /// Peak concurrent cores.
    ConcurrentCores,
    /// Total core-seconds.
    CoreSeconds,
}

impl QuotaAxis {
    /// Stable machine-readable reason code, surfaced by rejection paths
    /// (e.g. the serving loop's `serve.quota.denied` accounting).
    pub fn reason_code(self) -> &'static str {
        match self {
            QuotaAxis::ConcurrentCores => "quota.concurrent_cores",
            QuotaAxis::CoreSeconds => "quota.core_seconds",
        }
    }
}

/// A structured admission rejection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuotaDenial {
    /// Label of the violated rule's subject (`user:u1`, `project:p0`).
    pub subject: String,
    /// Which axis was exceeded.
    pub axis: QuotaAxis,
    /// Usage the request would have reached (peak cores or core-seconds,
    /// depending on `axis`).
    pub requested: i64,
    /// The rule's limit on that axis.
    pub limit: i64,
}

impl QuotaDenial {
    /// Stable machine-readable reason code for this denial.
    pub fn reason_code(&self) -> &'static str {
        self.axis.reason_code()
    }
}

impl fmt::Display for QuotaDenial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} denied for {}: {} would reach {} (limit {})",
            self.reason_code(),
            self.subject,
            match self.axis {
                QuotaAxis::ConcurrentCores => "peak concurrent cores",
                QuotaAxis::CoreSeconds => "total core-seconds",
            },
            self.requested,
            self.limit
        )
    }
}

/// Admission-time quota enforcement with a held-reservation ledger.
///
/// The gate is the single place ownership is recorded: `admit` checks a
/// candidate against every matching rule (counting both the ledger and
/// the candidate itself) and records it on success; `release` / `replace`
/// keep the ledger in step with calendar removals and resizes. The gate
/// never talks to the [`crate::Calendar`] — capacity feasibility and
/// quota admissibility are deliberately independent judgments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdmissionGate {
    quotas: QuotaSet,
    held: Vec<(Owner, Reservation)>,
}

impl AdmissionGate {
    /// A gate enforcing `quotas` over an empty ledger.
    pub fn new(quotas: QuotaSet) -> AdmissionGate {
        AdmissionGate {
            quotas,
            held: Vec::new(),
        }
    }

    /// The policy being enforced.
    pub fn quotas(&self) -> &QuotaSet {
        &self.quotas
    }

    /// Number of reservations currently held in the ledger.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Ledger iterator (owner, reservation), admission order.
    pub fn ledger(&self) -> impl Iterator<Item = (&Owner, &Reservation)> {
        self.held.iter().map(|(o, r)| (o, r))
    }

    /// Total core-seconds across the ledger (accounting cross-checks).
    pub fn held_core_seconds(&self) -> i64 {
        self.held.iter().map(|(_, r)| r.proc_seconds()).sum()
    }

    /// Would admitting `r` for `owner` violate any matching rule?
    /// Non-mutating; `Ok` means the request passes every rule with the
    /// current ledger.
    pub fn check(&self, owner: &Owner, r: &Reservation) -> Result<(), QuotaDenial> {
        for rule in &self.quotas.rules {
            if !rule.subject.matches(owner) {
                continue;
            }
            if let Some(limit) = rule.max_concurrent_cores {
                let peak = self.peak_concurrent(&rule.subject, Some(r));
                if peak > limit {
                    return Err(QuotaDenial {
                        subject: rule.subject.label(),
                        axis: QuotaAxis::ConcurrentCores,
                        requested: i64::from(peak),
                        limit: i64::from(limit),
                    });
                }
            }
            if let Some(limit) = rule.max_core_seconds {
                let area = self.subject_core_seconds(&rule.subject) + r.proc_seconds();
                if area > limit {
                    return Err(QuotaDenial {
                        subject: rule.subject.label(),
                        axis: QuotaAxis::CoreSeconds,
                        requested: area,
                        limit,
                    });
                }
            }
        }
        Ok(())
    }

    /// [`AdmissionGate::check`], and record `r` in the ledger on success.
    pub fn admit(&mut self, owner: &Owner, r: Reservation) -> Result<(), QuotaDenial> {
        self.check(owner, &r)?;
        self.held.push((owner.clone(), r));
        Ok(())
    }

    /// Admit a batch all-or-nothing: either every reservation is checked
    /// and recorded (in order, each seeing its predecessors in the
    /// ledger), or none is and the first denial is returned. This is the
    /// shape application admission takes — one DAG schedule is many
    /// reservations that stand or fall together.
    pub fn admit_all(&mut self, owner: &Owner, resvs: &[Reservation]) -> Result<(), QuotaDenial> {
        let mark = self.held.len();
        for r in resvs {
            if let Err(denial) = self.admit(owner, *r) {
                self.held.truncate(mark);
                return Err(denial);
            }
        }
        Ok(())
    }

    /// Drop one ledger entry matching (`owner`, `r`) exactly; `true` if an
    /// entry was found. Mirrors a calendar removal.
    pub fn release(&mut self, owner: &Owner, r: &Reservation) -> bool {
        match self
            .held
            .iter()
            .position(|(o, held)| o == owner && held == r)
        {
            Some(i) => {
                self.held.remove(i);
                true
            }
            None => false,
        }
    }

    /// Swap a held reservation for a resized one **without re-checking**
    /// (shrinking is always admissible; the serving loop only resizes
    /// downward). `true` if the `from` entry was found.
    pub fn replace(&mut self, owner: &Owner, from: &Reservation, to: Reservation) -> bool {
        match self
            .held
            .iter()
            .position(|(o, held)| o == owner && held == from)
        {
            Some(i) => {
                self.held[i].1 = to;
                true
            }
            None => false,
        }
    }

    /// Audit the ledger itself against the rules: denials for any subject
    /// whose *held* usage already breaks a limit. Empty on a consistent
    /// gate — admission should have prevented every entry here.
    pub fn audit(&self) -> Vec<QuotaDenial> {
        let mut out = Vec::new();
        for rule in &self.quotas.rules {
            if let Some(limit) = rule.max_concurrent_cores {
                let peak = self.peak_concurrent(&rule.subject, None);
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
                let area = self.subject_core_seconds(&rule.subject);
                if area > limit {
                    out.push(QuotaDenial {
                        subject: rule.subject.label(),
                        axis: QuotaAxis::CoreSeconds,
                        requested: area,
                        limit,
                    });
                }
            }
        }
        out
    }

    /// Peak concurrent cores held by `subject`, optionally counting a
    /// candidate, clamped to `u32::MAX`: the maximum over instants `t` of
    /// the procs of every reservation active at `t` (`start <= t < end`).
    ///
    /// One event sweep, O(H + H_s log H_s) for a ledger of H entries of
    /// which H_s are the subject's: each reservation is a `+procs` delta at
    /// its start and a `-procs` delta at its end, sorted by instant. At one
    /// instant the `-procs` deltas sort first, so every level read is at
    /// most the level some half-open interval `[t, next)` really holds, and
    /// the last read of each instant is exactly that level: touching
    /// intervals (`end == start`) never add up. An entry with `end <=
    /// start` (a deserialized ledger can hold one) is active at no instant
    /// and adds no delta. The `i64` level cannot overflow (fewer than 2³²
    /// terms of at most `u32::MAX`).
    fn peak_concurrent(&self, subject: &QuotaSubject, extra: Option<&Reservation>) -> u32 {
        let mut deltas: Vec<(Time, i64)> = self
            .held
            .iter()
            .filter(|(o, _)| subject.matches(o))
            .map(|(_, r)| r)
            .chain(extra)
            .filter(|r| r.start < r.end)
            .flat_map(|r| [(r.start, i64::from(r.procs)), (r.end, -i64::from(r.procs))])
            .collect();
        deltas.sort_unstable();
        let (mut level, mut peak) = (0i64, 0i64);
        for (_, delta) in deltas {
            level += delta;
            peak = peak.max(level);
        }
        u32::try_from(peak).unwrap_or(u32::MAX)
    }

    /// Total core-seconds held by `subject`.
    fn subject_core_seconds(&self, subject: &QuotaSubject) -> i64 {
        self.held
            .iter()
            .filter(|(o, _)| subject.matches(o))
            .map(|(_, r)| r.proc_seconds())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn r(s: i64, e: i64, procs: u32) -> Reservation {
        Reservation::new(Time::seconds(s), Time::seconds(e), procs)
    }

    #[test]
    fn zero_quota_user_is_denied_everything() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u0".into()), 0));
        let mut gate = AdmissionGate::new(quotas);
        let u0 = Owner::new("u0", "p0");
        let err = gate.admit(&u0, r(0, 100, 1)).unwrap_err();
        assert_eq!(err.reason_code(), "quota.concurrent_cores");
        assert_eq!(err.limit, 0);
        // Another user is untouched by u0's rule.
        let u1 = Owner::new("u1", "p0");
        assert!(gate.admit(&u1, r(0, 100, 8)).is_ok());
    }

    #[test]
    fn exactly_at_the_limit_is_admitted() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 4));
        let mut gate = AdmissionGate::new(quotas);
        let u = Owner::new("u", "p");
        assert!(gate.admit(&u, r(0, 50, 4)).is_ok()); // == limit: in
        let err = gate.admit(&u, r(10, 20, 1)).unwrap_err(); // overlaps: 5 > 4
        assert_eq!(err.requested, 5);
        assert!(gate.admit(&u, r(50, 60, 4)).is_ok()); // disjoint: peak still 4
    }

    #[test]
    fn project_rules_pool_users() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::Project("p".into()), 6));
        let mut gate = AdmissionGate::new(quotas);
        let a = Owner::new("alice", "p");
        let b = Owner::new("bob", "p");
        assert!(gate.admit(&a, r(0, 100, 4)).is_ok());
        let err = gate.admit(&b, r(50, 150, 3)).unwrap_err(); // 7 > 6, shared project
        assert_eq!(err.subject, "project:p");
        assert!(gate.admit(&b, r(100, 150, 3)).is_ok()); // after alice's end
    }

    #[test]
    fn core_second_budget_depletes_and_refills() {
        let quotas = QuotaSet::unlimited().with_rule(QuotaRule::core_seconds(
            QuotaSubject::User("u".into()),
            1000,
        ));
        let mut gate = AdmissionGate::new(quotas);
        let u = Owner::new("u", "p");
        assert!(gate.admit(&u, r(0, 100, 8)).is_ok()); // 800
        let err = gate.admit(&u, r(200, 300, 3)).unwrap_err(); // 800+300 > 1000
        assert_eq!(err.reason_code(), "quota.core_seconds");
        assert!(gate.admit(&u, r(200, 300, 2)).is_ok()); // exactly 1000
        assert!(gate.release(&u, &r(0, 100, 8)));
        assert!(gate.admit(&u, r(400, 500, 8)).is_ok()); // freed budget
    }

    #[test]
    fn admit_all_is_all_or_nothing() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 4));
        let mut gate = AdmissionGate::new(quotas);
        let u = Owner::new("u", "p");
        let batch = [r(0, 10, 2), r(0, 10, 2), r(5, 15, 1)]; // peak 5 > 4
        assert!(gate.admit_all(&u, &batch).is_err());
        assert_eq!(gate.held(), 0, "partial batch must be rolled back");
        assert!(gate.admit_all(&u, &batch[..2]).is_ok());
        assert_eq!(gate.held(), 2);
    }

    #[test]
    fn replace_tracks_resizes_and_audit_stays_clean() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 8))
            .with_rule(QuotaRule::core_seconds(
                QuotaSubject::Project("p".into()),
                10_000,
            ));
        let mut gate = AdmissionGate::new(quotas);
        let u = Owner::new("u", "p");
        assert!(gate.admit(&u, r(0, 1000, 8)).is_ok());
        assert!(gate.replace(&u, &r(0, 1000, 8), r(0, 500, 8)));
        assert_eq!(gate.held_core_seconds(), 4000);
        assert!(gate.audit().is_empty());
        assert!(!gate.release(&u, &r(0, 1000, 8)), "old shape is gone");
        assert!(gate.release(&u, &r(0, 500, 8)));
    }

    #[test]
    fn denials_render_with_reason_codes() {
        let d = QuotaDenial {
            subject: "user:u1".to_string(),
            axis: QuotaAxis::ConcurrentCores,
            requested: 9,
            limit: 8,
        };
        let text = d.to_string();
        assert!(text.contains("quota.concurrent_cores"), "{text}");
        assert!(text.contains("user:u1"), "{text}");
    }

    #[test]
    fn gate_serde_round_trips() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 4));
        let mut gate = AdmissionGate::new(quotas);
        gate.admit(&Owner::new("u", "p"), r(0, 10, 2)).unwrap();
        let json = serde_json::to_string(&gate).unwrap();
        let back: AdmissionGate = serde_json::from_str(&json).unwrap();
        assert_eq!(back.held(), 1);
        assert_eq!(back.quotas(), gate.quotas());
    }

    /// A gate for user `u` capped at `cores`, holding `held` as `u@p`,
    /// read from JSON so no admission check (and no `Reservation::checked`)
    /// filters the ledger.
    fn gate_from_json(cores: u32, held: &[(i64, i64, u32)]) -> AdmissionGate {
        let held: Vec<String> = held
            .iter()
            .map(|&(s, e, procs)| {
                format!(
                    r#"[{{"user":"u","project":"p"}},{{"start":{s},"end":{e},"procs":{procs}}}]"#
                )
            })
            .collect();
        serde_json::from_str(&format!(
            r#"{{"quotas":{{"rules":[{{"subject":{{"User":"u"}},"max_concurrent_cores":{cores}}}]}},"held":[{}]}}"#,
            held.join(",")
        ))
        .unwrap()
    }

    fn user_u() -> QuotaSubject {
        QuotaSubject::User("u".into())
    }

    #[test]
    fn touching_intervals_peak_at_the_max_not_the_sum() {
        let gate = gate_from_json(8, &[(0, 10, 4), (10, 20, 6), (20, 30, 3)]);
        assert_eq!(gate.peak_concurrent(&user_u(), None), 6);
        // A candidate ending where the ledger starts, and one starting
        // where it ends, touch without overlapping.
        assert_eq!(gate.peak_concurrent(&user_u(), Some(&r(-5, 0, 8))), 8);
        assert_eq!(gate.peak_concurrent(&user_u(), Some(&r(30, 40, 7))), 7);
        assert!(gate.check(&Owner::new("u", "p"), &r(10, 20, 2)).is_ok());
        let err = gate.check(&Owner::new("u", "p"), &r(5, 15, 3)).unwrap_err();
        assert_eq!((err.requested, err.limit), (9, 8));
    }

    #[test]
    fn shared_starts_and_nested_intervals_add_up() {
        // Three starts at 0; the 5-wide entry nests inside the 3-wide one.
        let gate = gate_from_json(100, &[(0, 100, 2), (0, 50, 3), (0, 10, 1), (20, 30, 5)]);
        assert_eq!(gate.peak_concurrent(&user_u(), None), 10);
        assert_eq!(gate.peak_concurrent(&user_u(), Some(&r(25, 26, 1))), 11);
        // Nested inside the ledger's quiet stretch: 2 held from 50 on.
        assert_eq!(gate.peak_concurrent(&user_u(), Some(&r(60, 70, 9))), 11);
        assert_eq!(gate.peak_concurrent(&user_u(), Some(&r(0, 100, 1))), 11);
        let other = QuotaSubject::User("v".into());
        assert_eq!(gate.peak_concurrent(&other, None), 0);
        assert_eq!(gate.peak_concurrent(&other, Some(&r(0, 1, 4))), 4);
    }

    #[test]
    fn requested_saturates_at_u32_max() {
        let gate = gate_from_json(u32::MAX - 1, &[(0, 10, u32::MAX), (5, 15, u32::MAX)]);
        assert_eq!(gate.peak_concurrent(&user_u(), None), u32::MAX);
        let u = Owner::new("u", "p");
        let err = gate.check(&u, &r(7, 8, 1)).unwrap_err();
        assert_eq!(err.requested, i64::from(u32::MAX));
        assert_eq!(gate.audit().len(), 1);
        assert_eq!(gate.audit()[0].requested, i64::from(u32::MAX));
        // A limit of u32::MAX admits any saturated peak, exactly on it.
        let mut open = gate_from_json(u32::MAX, &[(0, 10, u32::MAX - 1)]);
        assert!(open.admit(&u, r(0, 10, 2)).is_ok());
        assert!(open.admit(&u, r(0, 10, u32::MAX)).is_ok());
        assert!(open.audit().is_empty());
    }

    #[test]
    fn an_empty_or_inverted_ledger_entry_counts_nowhere() {
        // Serde bypasses `Reservation::checked`: (10, 0) is inverted and
        // (5, 5) is empty; neither is active at any instant.
        let gate = gate_from_json(4, &[(10, 0, 9), (5, 5, 9), (0, 20, 3)]);
        assert_eq!(gate.held(), 3);
        assert_eq!(gate.peak_concurrent(&user_u(), None), 3);
        assert!(gate.audit().is_empty());
        let u = Owner::new("u", "p");
        assert!(gate.check(&u, &r(5, 6, 1)).is_ok());
        let err = gate.check(&u, &r(2, 8, 2)).unwrap_err();
        assert_eq!(err.requested, 5);
        let only_inverted = gate_from_json(0, &[(10, 0, 9), (5, 5, 9)]);
        assert_eq!(only_inverted.peak_concurrent(&user_u(), None), 0);
        assert!(only_inverted.audit().is_empty());
    }
}
