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
///
/// Each distinct [`Owner`] is stored once, with the indices of the rules
/// that match it, computed when the owner first holds a reservation (the
/// rules cannot change after [`AdmissionGate::new`]); a ledger entry names
/// its owner by index. Serialized, the gate is `{quotas, held: [[owner,
/// reservation], …]}` in admission order, and deserializing rebuilds the
/// owner table.
#[derive(Debug, Clone, Default)]
pub struct AdmissionGate {
    quotas: QuotaSet,
    /// Every owner that has held a reservation, in first-seen order.
    owners: Vec<Interned>,
    /// The ledger in admission order: (index into `owners`, reservation).
    held: Vec<(usize, Reservation)>,
}

/// An owner-table entry.
#[derive(Debug, Clone)]
struct Interned {
    owner: Owner,
    /// Indices of the rules whose subject covers `owner`, ascending.
    rules: Vec<usize>,
}

impl AdmissionGate {
    /// A gate enforcing `quotas` over an empty ledger.
    pub fn new(quotas: QuotaSet) -> AdmissionGate {
        AdmissionGate {
            quotas,
            ..AdmissionGate::default()
        }
    }

    /// Number of reservations currently held in the ledger.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Ledger iterator (owner, reservation), admission order.
    pub fn ledger(&self) -> impl Iterator<Item = (&Owner, &Reservation)> {
        self.held
            .iter()
            .filter_map(|(o, r)| Some((&self.owners.get(*o)?.owner, r)))
    }

    /// Would admitting `r` for `owner` violate any matching rule?
    /// Non-mutating; `Ok` means the request passes every rule with the
    /// current ledger.
    pub fn check(&self, owner: &Owner, r: &Reservation) -> Result<(), QuotaDenial> {
        let r = std::slice::from_ref(r);
        match self.lookup(owner) {
            Some(o) => self.first_denial(self.rules_of(o), r),
            None => self.first_denial(&self.matching(owner), r),
        }
    }

    /// [`AdmissionGate::check`], and record `r` in the ledger on success.
    pub fn admit(&mut self, owner: &Owner, r: Reservation) -> Result<(), QuotaDenial> {
        self.admit_all(owner, std::slice::from_ref(&r))
    }

    /// Admit a batch all-or-nothing: either every reservation is checked
    /// and recorded (in order, each seeing its predecessors in the
    /// ledger), or none is and the first denial is returned. This is the
    /// shape application admission takes — one DAG schedule is many
    /// reservations that stand or fall together.
    pub fn admit_all(&mut self, owner: &Owner, resvs: &[Reservation]) -> Result<(), QuotaDenial> {
        let o = match self.lookup(owner) {
            Some(o) => {
                self.first_denial(self.rules_of(o), resvs)?;
                o
            }
            None => {
                let rules = self.matching(owner);
                self.first_denial(&rules, resvs)?;
                self.insert_owner(owner, rules)
            }
        };
        self.held.extend(resvs.iter().map(|r| (o, *r)));
        Ok(())
    }

    /// Drop one ledger entry matching (`owner`, `r`) exactly; `true` if an
    /// entry was found. Mirrors a calendar removal.
    pub fn release(&mut self, owner: &Owner, r: &Reservation) -> bool {
        match self.position(owner, r) {
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
            .position(owner, from)
            .and_then(|i| self.held.get_mut(i))
        {
            Some(entry) => {
                entry.1 = to;
                true
            }
            None => false,
        }
    }

    /// Audit the ledger itself against the rules: denials for any subject
    /// whose *held* usage already breaks a limit. Empty on a consistent
    /// gate — admission should have prevented every entry here.
    pub fn audit(&self) -> Vec<QuotaDenial> {
        let every: Vec<usize> = (0..self.quotas.rules.len()).collect();
        let mut out = Vec::new();
        for p in self.profiles(&every) {
            out.extend(p.denials(None));
        }
        out
    }

    /// The first denial of admitting `resvs` one after another for an
    /// owner matching `rules`: each reservation in order, against the
    /// ledger plus the reservations before it; per reservation the rules
    /// in order, the concurrent axis before the core-second one. One
    /// profile per rule serves the whole batch.
    fn first_denial(&self, rules: &[usize], resvs: &[Reservation]) -> Result<(), QuotaDenial> {
        let mut profiles = self.profiles(rules);
        for (k, r) in resvs.iter().enumerate() {
            for p in &profiles {
                if let Some(denial) = p.denials(Some(r)).next() {
                    return Err(denial);
                }
            }
            if k + 1 < resvs.len() {
                profiles.iter_mut().for_each(|p| p.grow(r));
            }
        }
        Ok(())
    }

    /// The subject profiles of `rules` (ascending rule indices), in that
    /// order: each sized once from its owners' entry counts, filled in one
    /// pass over the ledger, then sorted once.
    fn profiles(&self, rules: &[usize]) -> Vec<Profile<'_>> {
        let slot = |j: &usize| rules.binary_search(j).ok();
        let mut entries = vec![0usize; self.owners.len()];
        for (o, _) in &self.held {
            if let Some(n) = entries.get_mut(*o) {
                *n += 1;
            }
        }
        let mut sizes = vec![0usize; rules.len()];
        for (o, n) in entries.iter().enumerate() {
            for k in self.rules_of(o).iter().filter_map(slot) {
                if let Some(size) = sizes.get_mut(k) {
                    *size += 2 * n;
                }
            }
        }
        let mut out: Vec<Profile<'_>> = rules
            .iter()
            .zip(sizes)
            .filter_map(|(&j, size)| Some(Profile::new(self.quotas.rules.get(j)?, size)))
            .collect();
        for (o, r) in &self.held {
            for k in self.rules_of(*o).iter().filter_map(slot) {
                if let Some(p) = out.get_mut(k) {
                    p.push(r);
                }
            }
        }
        out.into_iter().map(Profile::seal).collect()
    }

    /// The indices of the rules matching interned owner `o`.
    fn rules_of(&self, o: usize) -> &[usize] {
        self.owners.get(o).map_or(&[], |e| &e.rules)
    }

    /// The indices of the rules matching `owner`, by comparing names.
    fn matching(&self, owner: &Owner) -> Vec<usize> {
        let rules = self.quotas.rules.iter().enumerate();
        rules
            .filter(|(_, rule)| rule.subject.matches(owner))
            .map(|(j, _)| j)
            .collect()
    }

    /// `owner`'s index in the owner table. A scan: every caller goes on to
    /// read every owner (`profiles`) or the whole ledger anyway.
    fn lookup(&self, owner: &Owner) -> Option<usize> {
        self.owners.iter().position(|e| e.owner == *owner)
    }

    /// Add `owner`, matched by `rules`, to the owner table.
    fn insert_owner(&mut self, owner: &Owner, rules: Vec<usize>) -> usize {
        self.owners.push(Interned {
            owner: owner.clone(),
            rules,
        });
        self.owners.len() - 1
    }

    /// The ledger index of the first entry equal to (`owner`, `r`).
    fn position(&self, owner: &Owner, r: &Reservation) -> Option<usize> {
        let o = self.lookup(owner)?;
        self.held.iter().position(|(h, held)| *h == o && held == r)
    }
}

impl Serialize for AdmissionGate {
    fn serialize_value(&self) -> serde::Value {
        let mut root = serde::Map::new();
        root.insert("quotas".to_string(), self.quotas.serialize_value());
        let held = self.ledger().map(|entry| entry.serialize_value());
        root.insert("held".to_string(), serde::Value::Array(held.collect()));
        serde::Value::Object(root)
    }
}

impl Deserialize for AdmissionGate {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("an object for struct `AdmissionGate`"))?;
        let field = |name: &str| {
            map.get(name)
                .ok_or_else(|| serde::Error::missing_field("AdmissionGate", name))
        };
        let mut gate = AdmissionGate::new(Deserialize::deserialize_value(field("quotas")?)?);
        let held: Vec<(Owner, Reservation)> = Deserialize::deserialize_value(field("held")?)?;
        for (owner, r) in held {
            let o = match gate.lookup(&owner) {
                Some(o) => o,
                None => {
                    let rules = gate.matching(&owner);
                    gate.insert_owner(&owner, rules)
                }
            };
            gate.held.push((o, r));
        }
        Ok(gate)
    }
}

/// One subject's held usage as one rule reads it. With a concurrent-core
/// cap: each reservation with `start < end` as a `+procs` delta at its
/// start and a `-procs` delta at its end, sorted by instant (at one instant
/// the `-procs` deltas first), and `peak`, the largest running level of
/// that list (0 when empty). With a core-second cap: the total area.
///
/// The usage is a step function of half-open intervals `[start, end)`.
/// After the last delta of an instant the level is exactly the usage on
/// `[t, next)`, and every read before it is at most that level or the
/// previous one, so the peak is the usage's maximum and touching intervals
/// (`end == start`) never add up. An entry with `end <= start` (a
/// deserialized ledger can hold one) is active at no instant and adds no
/// delta. The `i64` level cannot overflow (fewer than 2³² terms of at most
/// `u32::MAX`); a denial reports the peak clamped to `u32::MAX`.
struct Profile<'a> {
    rule: &'a QuotaRule,
    deltas: Vec<(Time, i64)>,
    peak: i64,
    area: i64,
}

impl<'a> Profile<'a> {
    /// An empty profile with room for `deltas` deltas: `push` the
    /// subject's reservations, then `seal`.
    fn new(rule: &'a QuotaRule, deltas: usize) -> Profile<'a> {
        Profile {
            rule,
            deltas: Vec::with_capacity(deltas),
            peak: 0,
            area: 0,
        }
    }

    /// Count `r` as held (unsorted until `seal`).
    fn push(&mut self, r: &Reservation) {
        if self.rule.max_concurrent_cores.is_some() && r.start < r.end {
            let procs = i64::from(r.procs);
            self.deltas.extend([(r.start, procs), (r.end, -procs)]);
        }
        if self.rule.max_core_seconds.is_some() {
            self.area += r.proc_seconds();
        }
    }

    /// Sort the deltas and read their peak.
    fn seal(mut self) -> Profile<'a> {
        self.deltas.sort_unstable();
        let mut level = 0;
        for (_, delta) in &self.deltas {
            level += delta;
            self.peak = self.peak.max(level);
        }
        self
    }

    /// Where `r`'s two deltas sort into `deltas`: the index of its start
    /// and of its end, each before any equal delta (an equal delta in
    /// either order gives the same levels).
    fn slots(&self, r: &Reservation) -> (usize, usize) {
        let procs = i64::from(r.procs);
        let at = |d: (Time, i64)| self.deltas.partition_point(|x| *x < d);
        (at((r.start, procs)), at((r.end, -procs)))
    }

    /// The peak with `r` added. Inserting its two deltas at their slots
    /// raises the levels between them by `procs` and leaves the rest as
    /// they were, so the new peak is the old one or `procs` above the
    /// highest level read from just before the start slot up to the end
    /// slot.
    fn peak_with(&self, r: &Reservation) -> i64 {
        if r.start >= r.end {
            return self.peak;
        }
        let (start, end) = self.slots(r);
        let deltas = self.deltas.iter().map(|&(_, d)| d);
        let below: i64 = deltas.clone().take(start).sum();
        let inside = deltas.take(end).skip(start).scan(below, |level, d| {
            *level += d;
            Some(*level)
        });
        self.peak
            .max(inside.fold(below, i64::max) + i64::from(r.procs))
    }

    /// Record `r` as held by the subject, keeping the deltas sorted.
    ///
    /// `peak` stays the ledger's. Only a reservation that passed every
    /// rule grows a profile, so each one raised the subject's true peak
    /// to at most the cap, while a ledger already past the cap denies the
    /// batch's first reservation. A later candidate is therefore denied
    /// exactly when its own raised level passes the cap, and that level
    /// is then its `requested` under either peak.
    fn grow(&mut self, r: &Reservation) {
        if self.rule.max_concurrent_cores.is_some() && r.start < r.end {
            let procs = i64::from(r.procs);
            let (start, end) = self.slots(r);
            self.deltas.insert(end, (r.end, -procs));
            self.deltas.insert(start, (r.start, procs));
        }
        if self.rule.max_core_seconds.is_some() {
            self.area += r.proc_seconds();
        }
    }

    /// The rule's denials with `extra` added, the concurrent axis first.
    fn denials<'s>(
        &'s self,
        extra: Option<&'s Reservation>,
    ) -> impl Iterator<Item = QuotaDenial> + 's {
        [QuotaAxis::ConcurrentCores, QuotaAxis::CoreSeconds]
            .into_iter()
            .filter_map(move |axis| self.denial(axis, extra))
    }

    /// The denial on `axis`, if the rule caps it and the usage with `extra`
    /// added exceeds the cap.
    fn denial(&self, axis: QuotaAxis, extra: Option<&Reservation>) -> Option<QuotaDenial> {
        let (requested, limit) = match axis {
            QuotaAxis::ConcurrentCores => {
                let limit = self.rule.max_concurrent_cores?;
                let peak = extra.map_or(self.peak, |r| self.peak_with(r));
                let peak = u32::try_from(peak).unwrap_or(u32::MAX);
                (i64::from(peak), i64::from(limit))
            }
            QuotaAxis::CoreSeconds => {
                let limit = self.rule.max_core_seconds?;
                (
                    self.area + extra.map_or(0, Reservation::proc_seconds),
                    limit,
                )
            }
        };
        (requested > limit).then(|| QuotaDenial {
            subject: self.rule.subject.label(),
            axis,
            requested,
            limit,
        })
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
        let err = gate.admit_all(&u, &batch).unwrap_err();
        assert_eq!((err.requested, err.limit), (5, 4));
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
        let held: i64 = gate.ledger().map(|(_, r)| r.proc_seconds()).sum();
        assert_eq!(held, 4000);
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
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// A gate capping users `u` and `v` at `cores` each, holding `held`
    /// as `u@p`, read from JSON so no admission check (and no
    /// `Reservation::checked`) filters the ledger.
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
            r#"{{"quotas":{{"rules":[{{"subject":{{"User":"u"}},"max_concurrent_cores":{cores}}},{{"subject":{{"User":"v"}},"max_concurrent_cores":{cores}}}]}},"held":[{}]}}"#,
            held.join(",")
        ))
        .unwrap()
    }

    /// The peak concurrent cores `user` holds over `held` (all of it
    /// `u`'s), plus `extra`: the `requested` of the denial under a zero
    /// cap, read from `audit` without a candidate and from `check` with
    /// one; 0 when nothing is denied.
    fn peak(held: &[(i64, i64, u32)], user: &str, extra: Option<Reservation>) -> i64 {
        let gate = gate_from_json(0, held);
        let denial = match extra {
            None => gate
                .audit()
                .into_iter()
                .find(|d| d.subject == format!("user:{user}")),
            Some(r) => gate.check(&Owner::new(user, "p"), &r).err(),
        };
        denial.map_or(0, |d| d.requested)
    }

    #[test]
    fn touching_intervals_peak_at_the_max_not_the_sum() {
        let held = [(0, 10, 4), (10, 20, 6), (20, 30, 3)];
        assert_eq!(peak(&held, "u", None), 6);
        // A candidate ending where the ledger starts, and one starting
        // where it ends, touch without overlapping.
        assert_eq!(peak(&held, "u", Some(r(-5, 0, 8))), 8);
        assert_eq!(peak(&held, "u", Some(r(30, 40, 7))), 7);
        let gate = gate_from_json(8, &held);
        assert!(gate.audit().is_empty());
        assert!(gate.check(&Owner::new("u", "p"), &r(10, 20, 2)).is_ok());
        let err = gate.check(&Owner::new("u", "p"), &r(5, 15, 3)).unwrap_err();
        assert_eq!((err.requested, err.limit), (9, 8));
    }

    #[test]
    fn shared_starts_and_nested_intervals_add_up() {
        // Three starts at 0; the 5-wide entry nests inside the 3-wide one.
        let held = [(0, 100, 2), (0, 50, 3), (0, 10, 1), (20, 30, 5)];
        assert_eq!(peak(&held, "u", None), 10);
        assert_eq!(peak(&held, "u", Some(r(25, 26, 1))), 11);
        // Nested inside the ledger's quiet stretch: 2 held from 50 on.
        assert_eq!(peak(&held, "u", Some(r(60, 70, 9))), 11);
        assert_eq!(peak(&held, "u", Some(r(0, 100, 1))), 11);
        // `v` holds nothing: only its own candidate counts.
        assert_eq!(peak(&held, "v", None), 0);
        assert_eq!(peak(&held, "v", Some(r(0, 1, 4))), 4);
    }

    #[test]
    fn requested_saturates_at_u32_max() {
        let held = [(0, 10, u32::MAX), (5, 15, u32::MAX)];
        assert_eq!(peak(&held, "u", None), i64::from(u32::MAX));
        let gate = gate_from_json(u32::MAX - 1, &held);
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
        let held = [(10, 0, 9), (5, 5, 9), (0, 20, 3)];
        let gate = gate_from_json(4, &held);
        assert_eq!(gate.held(), 3);
        assert_eq!(peak(&held, "u", None), 3);
        assert!(gate.audit().is_empty());
        let u = Owner::new("u", "p");
        assert!(gate.check(&u, &r(5, 6, 1)).is_ok());
        let err = gate.check(&u, &r(2, 8, 2)).unwrap_err();
        assert_eq!(err.requested, 5);
        // An inverted candidate adds nothing either.
        let inverted = serde_json::from_str(r#"{"start":10,"end":0,"procs":9}"#).unwrap();
        assert_eq!(peak(&held, "u", Some(inverted)), 3);
        let only_inverted = [(10, 0, 9), (5, 5, 9)];
        assert_eq!(peak(&only_inverted, "u", None), 0);
        assert!(gate_from_json(0, &only_inverted).audit().is_empty());
    }

    #[test]
    fn admit_all_answers_like_one_admit_after_another() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 6))
            .with_rule(QuotaRule::core_seconds(
                QuotaSubject::User("u".into()),
                5_000,
            ))
            .with_rule(QuotaRule::concurrent(QuotaSubject::Project("p".into()), 8));
        let mut held = AdmissionGate::new(quotas);
        held.admit(&Owner::new("w", "p"), r(40, 80, 3)).unwrap();
        held.admit(&Owner::new("u", "q"), r(0, 50, 2)).unwrap();
        let u = Owner::new("u", "p");
        for batch in [
            vec![r(0, 100, 2), r(50, 150, 2), r(90, 95, 1)],
            vec![r(0, 10, 4), r(10, 20, 4), r(20, 30, 4), r(25, 35, 1)],
            vec![r(45, 60, 3), r(0, 10, 1)],
            vec![r(200, 300, 5), r(250, 260, 1), r(300, 400, 20)],
            vec![r(60, 70, 5), r(60, 70, 1), r(60, 70, 1)],
        ] {
            let mut batched = held.clone();
            let got = batched.admit_all(&u, &batch);
            let mut one_by_one = held.clone();
            let want = batch.iter().try_for_each(|x| one_by_one.admit(&u, *x));
            assert_eq!(got, want, "{batch:?}");
            if want.is_err() {
                one_by_one = held.clone();
            }
            assert_eq!(
                serde_json::to_string(&batched).unwrap(),
                serde_json::to_string(&one_by_one).unwrap()
            );
        }
    }

    #[test]
    fn an_unseen_owner_releases_and_replaces_nothing() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("u".into()), 8));
        let mut gate = AdmissionGate::new(quotas);
        gate.admit(&Owner::new("u", "p"), r(0, 10, 2)).unwrap();
        let before = serde_json::to_string(&gate).unwrap();
        // Same reservation, same user, another project: never admitted.
        let stranger = Owner::new("u", "q");
        assert!(!gate.release(&stranger, &r(0, 10, 2)));
        assert!(!gate.replace(&stranger, &r(0, 10, 2), r(0, 5, 2)));
        assert!(!gate.release(&Owner::new("x", "p"), &r(0, 10, 2)));
        assert_eq!(serde_json::to_string(&gate).unwrap(), before);
        assert_eq!(gate.held(), 1);
    }

    #[test]
    fn an_unseen_owner_is_denied_by_its_project_rule_alone() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("w".into()), 100))
            .with_rule(QuotaRule::concurrent(QuotaSubject::Project("p".into()), 6));
        let mut gate = AdmissionGate::new(quotas);
        gate.admit(&Owner::new("u", "p"), r(0, 100, 4)).unwrap();
        let before = serde_json::to_string(&gate).unwrap();
        let w = Owner::new("w", "p");
        let err = gate.check(&w, &r(50, 60, 3)).unwrap_err();
        assert_eq!(err.subject, "project:p");
        assert_eq!((err.requested, err.limit), (7, 6));
        assert!(gate.check(&w, &r(50, 60, 2)).is_ok());
        assert!(gate.check(&Owner::new("w", "q"), &r(50, 60, 99)).is_ok());
        assert_eq!(serde_json::to_string(&gate).unwrap(), before);
        // A denied admission leaves the ledger as it was.
        assert_eq!(gate.admit(&w, r(50, 60, 3)), Err(err));
        assert_eq!(serde_json::to_string(&gate).unwrap(), before);
    }

    #[test]
    fn a_deserialized_gate_keeps_its_ledger_order() {
        let quotas = QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::Project("p".into()), 6))
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("a".into()), 9));
        // Owners first seen b, a, c: not in name order.
        let entries = [
            (Owner::new("b", "p"), r(0, 10, 3)),
            (Owner::new("a", "q"), r(0, 10, 4)),
            (Owner::new("b", "p"), r(20, 30, 1)),
            (Owner::new("c", "p"), r(5, 15, 3)),
            (Owner::new("a", "q"), r(5, 15, 5)),
        ];
        let mut gate = AdmissionGate::new(quotas);
        for (owner, x) in &entries {
            gate.admit(owner, *x).unwrap();
        }
        let json = serde_json::to_string(&gate).unwrap();
        // Tighten the project cap below what `p` holds.
        let tampered = json.replace("\"max_concurrent_cores\":6", "\"max_concurrent_cores\":5");
        assert_ne!(json, tampered, "fixture must actually tamper the cap");
        for (text, denied) in [(&json, 0), (&tampered, 1)] {
            let mut back: AdmissionGate = serde_json::from_str(text).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), *text);
            let ledger: Vec<(Owner, Reservation)> =
                back.ledger().map(|(o, x)| (o.clone(), *x)).collect();
            assert_eq!(ledger, entries);
            let audit = back.audit();
            assert_eq!(audit.len(), denied);
            if let Some(d) = audit.first() {
                assert_eq!(
                    (d.subject.as_str(), d.requested, d.limit),
                    ("project:p", 6, 5)
                );
            }
            for (owner, x) in entries.iter().rev() {
                assert!(back.release(owner, x));
            }
            assert_eq!(back.held(), 0);
        }
    }
}
