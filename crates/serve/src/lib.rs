//! # resched-serve — online scheduling frontend
//!
//! The dynamic-arrival setting the paper's §4.2 RESSCHED algorithms
//! assume but the batch harness never exercises: an event-driven
//! submission loop replays an SWF workload at accelerated speed, and every
//! arriving application is scheduled **against the live calendar** through
//! a shadow-schedule transaction ([`resched_resv::ShadowTxn`]):
//!
//! 1. open a transaction over the shared calendar;
//! 2. run the forward scheduler (or, for a configurable fraction of
//!    arrivals, the backward deadline scheduler) against the transaction's
//!    view;
//! 3. audit the candidate schedule with the independent
//!    [`ScheduleValidator`] oracle;
//! 4. apply its reservations inside the transaction and **commit** if the
//!    application is admitted (deadline met, turn-around within the
//!    admission horizon), or **rollback** — byte-exact — if not.
//!
//! Committed applications stay live: a seeded fraction is later
//! *cancelled* (all reservations removed) or *resized* (one reservation
//! trimmed to half its length), exercising the calendar's mutable surface
//! under sustained load. After every event the whole calendar is re-audited
//! by [`resched_core::validate::audit_calendar`]; any violation is counted
//! in the report.
//!
//! Scheduling latency is measured per arrival (wall clock) and reported as
//! p50/p95/p99 percentiles, both exactly (sorted samples) and through the
//! obs [`MetricsRegistry`] histogram under `serve.schedule.latency_ns`;
//! commits, rollbacks, cancels, and resizes are counted under the
//! `serve.*` counters of `crates/core/src/obs/metrics.toml`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::obs::{names, MetricsRegistry};
use resched_core::prelude::*;
use resched_core::validate::audit_calendar_with;
use resched_daggen::DagParams;
use resched_resv::{AdmissionGate, Owner, QuotaDenial, QuotaRule, QuotaSet, QuotaSubject};
use resched_workloads::job::JobLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-user admission quotas for the serving loop.
///
/// Arrivals are attributed round-robin to `users` synthetic users
/// (`u0`, `u1`, …) split across two projects (`p0` / `p1`, by job-id
/// parity); every user gets the same caps. A `0` cap means *unlimited on
/// that axis* — no rule is installed for it — so a config with both caps
/// zero admits exactly like no quota config at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeQuotaConfig {
    /// Synthetic users arrivals are attributed to (clamped up to 1).
    pub users: usize,
    /// Peak concurrent cores each user may hold (0 = unlimited).
    #[serde(default)]
    pub max_concurrent_cores: u32,
    /// Total core-seconds each user may hold (0 = unlimited).
    #[serde(default)]
    pub max_core_seconds: i64,
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Arrival-process acceleration: inter-submission gaps in the replayed
    /// log are divided by this factor (see `JobLog::accelerated`).
    pub accel: f64,
    /// Stop after this many arrivals (0 = replay the whole log).
    pub max_apps: usize,
    /// Tasks per arriving application DAG.
    pub tasks_per_app: usize,
    /// Every `cancel_every`-th commit triggers a cancellation of a random
    /// live application (0 = never cancel).
    pub cancel_every: usize,
    /// Every `resize_every`-th commit trims one reservation of a random
    /// live application to half its length (0 = never resize).
    pub resize_every: usize,
    /// Every `deadline_every`-th arrival is scheduled with the backward
    /// deadline scheduler, deadline = arrival + `admit_horizon`
    /// (0 = always forward).
    pub deadline_every: usize,
    /// Admission horizon: an application whose turn-around would exceed
    /// this is rejected (its transaction rolled back).
    pub admit_horizon: Dur,
    /// Window for the historical availability estimate `q`: the average
    /// over the `q_window` before each arrival. A window that is not
    /// positive holds no history, so `q` is then the machine size, as it is
    /// while the calendar is still empty.
    pub q_window: Dur,
    /// Admission-probe fan-out: deadline arrivals probe the first
    /// `probe_fanout` algorithms of [`PROBE_ROSTER`] in turn and admit the
    /// candidate with the earliest completion, lowest roster index winning
    /// ties. Clamped into `1..=PROBE_ROSTER.len()`: `0` and `1` both mean
    /// the single-probe behavior.
    #[serde(default)]
    pub probe_fanout: usize,
    /// Per-user admission quotas, enforced through an
    /// [`AdmissionGate`] before any transaction commits (`None` =
    /// admit on capacity alone, the pre-quota behavior).
    #[serde(default)]
    pub quota: Option<ServeQuotaConfig>,
    /// Master seed for DAG generation and cancel/resize picks.
    pub seed: u64,
    /// Re-audit the calendar every `audit_every` events (0 = only once at
    /// the end). 1 audits after every event.
    pub audit_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            accel: 400.0,
            max_apps: 120,
            tasks_per_app: 10,
            cancel_every: 5,
            resize_every: 7,
            deadline_every: 4,
            admit_horizon: Dur::hours(12),
            q_window: Dur::days(1),
            probe_fanout: 1,
            quota: None,
            seed: 42,
            audit_every: 1,
        }
    }
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Arrivals processed.
    pub apps: usize,
    /// Transactions committed (applications admitted).
    pub commits: usize,
    /// Transactions rolled back (applications rejected).
    pub rollbacks: usize,
    /// Live applications later cancelled.
    pub cancels: usize,
    /// Live reservations trimmed in place.
    pub resizes: usize,
    /// Applications denied admission by a quota rule (a subset of
    /// `rollbacks`).
    #[serde(default)]
    pub quota_denied: u64,
    /// Denial tallies by stable reason code (`quota.concurrent_cores`,
    /// `quota.core_seconds`), sorted by code; their sum is `quota_denied`.
    #[serde(default)]
    pub quota_reasons: Vec<(String, u64)>,
    /// Calendar-audit violations observed (must be 0 on a healthy run).
    pub violations: usize,
    /// First violation, for diagnostics.
    pub first_violation: Option<String>,
    /// Wall-clock duration of the replay loop, in milliseconds.
    pub wall_ms: f64,
    /// Arrivals processed per wall-clock second.
    pub throughput_per_s: f64,
    /// Median scheduling latency, microseconds (exact over all arrivals).
    pub p50_us: f64,
    /// 95th-percentile scheduling latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile scheduling latency, microseconds.
    pub p99_us: f64,
    /// Calendar utilization over the replayed span.
    pub utilization: f64,
    /// Live applications still holding reservations at the end.
    pub live_apps: usize,
    /// The obs metrics recorded during the run (`serve.*` counters and the
    /// `serve.schedule.latency_ns` histogram).
    pub metrics: MetricsRegistry,
}

/// One admitted application's live reservations, tracked so later cancels
/// and resizes operate on reservations that actually exist — and the owner
/// they are accounted to, so the quota ledger stays in step.
#[derive(Debug, Clone)]
struct LiveApp {
    owner: Owner,
    resvs: Vec<Reservation>,
}

/// Deterministic per-application seed derivation (splitmix64 over the
/// master seed and the job id).
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact `q`-quantile of a sorted sample set, or 0.0 when empty.
///
/// Nearest-rank method: the `⌈n·q⌉`-th smallest sample (1-based), clamped
/// into range — so `q = 0.5` over two samples is the *lower* one, and any
/// `q > (n-1)/n` is the maximum. No interpolation: the result is always an
/// actual sample.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank] as f64
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

/// Probe the first `fanout` roster algorithms, one after the other, against
/// the transaction's calendar view and keep the feasible candidate with the
/// earliest completion (lowest roster index wins ties, which is what
/// `min_by_key` does).
fn probe_deadline(
    dag: &resched_core::dag::Dag,
    cal: &Calendar,
    now: Time,
    q: u32,
    deadline: Time,
    dl_cfg: DeadlineConfig,
    fanout: usize,
) -> Option<resched_core::schedule::Schedule> {
    PROBE_ROSTER[..fanout.clamp(1, PROBE_ROSTER.len())]
        .iter()
        .filter_map(|&algo| schedule_deadline(dag, cal, now, q, deadline, algo, dl_cfg).ok())
        .map(|o| o.schedule)
        .min_by_key(|s| s.completion())
}

/// Replay `log` through the online serving loop.
///
/// The log's submission process (compressed by `cfg.accel`) drives
/// arrivals; each arrival's DAG is generated from the job id under
/// `cfg.seed`, so the run is fully deterministic in everything except the
/// wall-clock latency measurements.
pub fn run(log: &JobLog, cfg: &ServeConfig) -> ServeReport {
    let log = log.accelerated(cfg.accel);
    let mut jobs = log.jobs.clone();
    jobs.sort_by_key(|j| (j.submit, j.id));
    if cfg.max_apps > 0 {
        jobs.truncate(cfg.max_apps);
    }

    let mut cal = Calendar::new(log.procs);
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(cfg.seed, u64::MAX));
    let params = DagParams {
        num_tasks: cfg.tasks_per_app.max(1),
        ..DagParams::paper_default()
    };
    let dl_cfg = DeadlineConfig::default();

    // Quota gate: one identical rule set per synthetic user. Arrivals are
    // attributed by job id, so admission decisions are as deterministic as
    // the rest of the replay.
    let users = cfg.quota.map_or(1, |q| q.users.max(1));
    let mut gate = cfg.quota.map(|q| {
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
    });
    let owner_of = |id: u32| {
        Owner::new(
            &format!("u{}", id as usize % users),
            &format!("p{}", id % 2),
        )
    };
    let mut quota_reasons: BTreeMap<String, u64> = BTreeMap::new();

    let mut registry = MetricsRegistry::new();
    let mut live: Vec<LiveApp> = Vec::new();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(jobs.len());
    let mut report = ServeReport {
        apps: 0,
        commits: 0,
        rollbacks: 0,
        cancels: 0,
        resizes: 0,
        quota_denied: 0,
        quota_reasons: Vec::new(),
        violations: 0,
        first_violation: None,
        wall_ms: 0.0,
        throughput_per_s: 0.0,
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        utilization: 0.0,
        live_apps: 0,
        metrics: MetricsRegistry::new(),
    };

    let audit =
        |cal: &Calendar, gate: Option<&AdmissionGate>, report: &mut ServeReport, events: usize| {
            if cfg.audit_every > 0 && events.is_multiple_of(cfg.audit_every) {
                let vs = audit_calendar_with(cal, None, gate);
                if let Some(v) = vs.first() {
                    report.first_violation.get_or_insert_with(|| v.to_string());
                }
                report.violations += vs.len();
            }
        };

    let wall_start = Instant::now();
    let mut events = 0usize;
    for job in &jobs {
        let now = job.submit;
        report.apps += 1;
        events += 1;
        registry.inc(names::SERVE_APPS, 1);
        resched_core::obs::counter_add(names::SERVE_APPS, 1);

        let dag = resched_daggen::generate(&params, derive_seed(cfg.seed, u64::from(job.id)));
        let q = if cal.num_breakpoints() > 0 && cfg.q_window.is_positive() {
            cal.average_available(now - cfg.q_window, now)
        } else {
            cal.capacity()
        };

        let t0 = Instant::now();
        let use_deadline = cfg.deadline_every > 0 && report.apps.is_multiple_of(cfg.deadline_every);
        let deadline = now + cfg.admit_horizon;
        let owner = owner_of(job.id);
        let mut denial: Option<QuotaDenial> = None;
        let committed = {
            resched_core::span!("serve.schedule");
            let mut txn = cal.transaction();
            let sched = if use_deadline {
                // Infeasible everywhere ⇒ None ⇒ reject.
                probe_deadline(
                    &dag,
                    txn.calendar(),
                    now,
                    q,
                    deadline,
                    dl_cfg,
                    cfg.probe_fanout,
                )
            } else {
                let s =
                    schedule_forward(&dag, txn.calendar(), now, q, ForwardConfig::recommended());
                // Forward admission control: keep the turn-around bounded.
                (s.completion() <= deadline).then_some(s)
            };
            let admitted = sched.and_then(|sched| {
                let mut validator = ScheduleValidator::new(&dag, txn.calendar(), now);
                if use_deadline {
                    validator = validator.with_deadline(deadline);
                }
                if let Err(v) = validator.check(&sched) {
                    report.violations += 1;
                    report.first_violation.get_or_insert_with(|| v.to_string());
                    return None;
                }
                let resvs: Vec<Reservation> = dag
                    .task_ids()
                    .map(|t| sched.placement(t).reservation())
                    .collect();
                // Capacity said yes; now the quota gate gets its veto. An
                // all-or-nothing batch admit keeps the ledger untouched on
                // denial, mirroring the transaction rollback below.
                if let Some(g) = gate.as_mut() {
                    if let Err(d) = g.admit_all(&owner, &resvs) {
                        denial = Some(d);
                        return None;
                    }
                }
                if let Err(v) = apply_all(&mut txn, &resvs) {
                    report.violations += 1;
                    report.first_violation.get_or_insert(v);
                    // The gate admitted the batch; the rollback below
                    // undoes the calendar, this undoes the ledger.
                    if let Some(g) = gate.as_mut() {
                        for r in &resvs {
                            g.release(&owner, r);
                        }
                    }
                    return None;
                }
                Some(resvs)
            });
            match admitted {
                Some(resvs) => {
                    txn.commit();
                    live.push(LiveApp {
                        owner: owner.clone(),
                        resvs,
                    });
                    true
                }
                None => {
                    txn.rollback();
                    false
                }
            }
        };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        latencies_ns.push(ns);
        registry.record(names::SERVE_LATENCY, ns);
        resched_core::obs::record_value(names::SERVE_LATENCY, ns);

        if committed {
            report.commits += 1;
            registry.inc(names::SERVE_COMMITS, 1);
            resched_core::obs::counter_add(names::SERVE_COMMITS, 1);
        } else {
            report.rollbacks += 1;
            registry.inc(names::SERVE_ROLLBACKS, 1);
            resched_core::obs::counter_add(names::SERVE_ROLLBACKS, 1);
            if let Some(d) = &denial {
                report.quota_denied += 1;
                registry.inc(names::SERVE_QUOTA_DENIED, 1);
                resched_core::obs::counter_add(names::SERVE_QUOTA_DENIED, 1);
                *quota_reasons
                    .entry(d.reason_code().to_string())
                    .or_insert(0) += 1;
            }
        }
        audit(&cal, gate.as_ref(), &mut report, events);

        // Seeded churn on the committed population.
        if committed
            && cfg.cancel_every > 0
            && report.commits.is_multiple_of(cfg.cancel_every)
            && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            let app = live.swap_remove(k);
            events += 1;
            let ok = {
                resched_core::span!("serve.cancel");
                let mut txn = cal.transaction();
                let mut ok = true;
                for r in &app.resvs {
                    if txn.try_remove(*r).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    txn.commit();
                } else {
                    txn.rollback();
                }
                ok
            };
            if ok {
                report.cancels += 1;
                registry.inc(names::SERVE_CANCELS, 1);
                resched_core::obs::counter_add(names::SERVE_CANCELS, 1);
                if let Some(g) = gate.as_mut() {
                    for r in &app.resvs {
                        if !g.release(&app.owner, r) {
                            // The ledger mirrors commits exactly; a miss
                            // here is a bookkeeping bug, not a policy call.
                            report.violations += 1;
                            report.first_violation.get_or_insert_with(|| {
                                "quota ledger missing a cancelled reservation".into()
                            });
                        }
                    }
                }
            } else {
                // A tracked live reservation must always be removable.
                report.violations += 1;
                report
                    .first_violation
                    .get_or_insert_with(|| "cancel of a tracked live reservation failed".into());
            }
            audit(&cal, gate.as_ref(), &mut report, events);
        }

        if committed
            && cfg.resize_every > 0
            && report.commits.is_multiple_of(cfg.resize_every)
            && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            // Trim the app's longest reservation to half its length.
            let longest =
                (0..live[k].resvs.len()).max_by_key(|&i| live[k].resvs[i].duration().as_seconds());
            if let Some(i) = longest {
                let old = live[k].resvs[i];
                let mid = old.start.midpoint(old.end);
                if mid > old.start {
                    events += 1;
                    let new = Reservation::new(old.start, mid, old.procs);
                    let mut txn = cal.transaction();
                    if txn.try_resize(old, new).is_ok() {
                        txn.commit();
                        live[k].resvs[i] = new;
                        report.resizes += 1;
                        registry.inc(names::SERVE_RESIZES, 1);
                        resched_core::obs::counter_add(names::SERVE_RESIZES, 1);
                        if let Some(g) = gate.as_mut() {
                            if !g.replace(&live[k].owner, &old, new) {
                                report.violations += 1;
                                report.first_violation.get_or_insert_with(|| {
                                    "quota ledger missing a resized reservation".into()
                                });
                            }
                        }
                    } else {
                        // Shrinking a live reservation releases capacity
                        // only; it can never conflict.
                        txn.rollback();
                        report.violations += 1;
                        report
                            .first_violation
                            .get_or_insert_with(|| "shrink of a live reservation failed".into());
                    }
                    audit(&cal, gate.as_ref(), &mut report, events);
                }
            }
        }
    }
    let wall = wall_start.elapsed();

    // Final audit (covers audit_every == 0 and any tail skipped by stride);
    // with a quota gate this also audits the ledger itself.
    let vs = audit_calendar_with(&cal, None, gate.as_ref());
    if let Some(v) = vs.first() {
        report.first_violation.get_or_insert_with(|| v.to_string());
    }
    report.violations += vs.len();

    latencies_ns.sort_unstable();
    report.wall_ms = wall.as_secs_f64() * 1e3;
    report.throughput_per_s = if wall.as_secs_f64() > 0.0 {
        report.apps as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    report.p50_us = percentile(&latencies_ns, 0.50) / 1e3;
    report.p95_us = percentile(&latencies_ns, 0.95) / 1e3;
    report.p99_us = percentile(&latencies_ns, 0.99) / 1e3;
    report.utilization = match (jobs.first(), cal.horizon()) {
        (Some(first), Some(h)) if h > first.submit => cal.average_utilization(first.submit, h),
        _ => 0.0,
    };
    report.live_apps = live.len();
    report.quota_reasons = quota_reasons.into_iter().collect();
    report.metrics = registry;
    report
}

/// Render a human-readable summary of a report.
pub fn summarize(r: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "apps {}  commits {}  rollbacks {}  cancels {}  resizes {}\n",
        r.apps, r.commits, r.rollbacks, r.cancels, r.resizes
    ));
    out.push_str(&format!(
        "latency p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  ({:.0} apps/s, {:.0} ms total)\n",
        r.p50_us, r.p95_us, r.p99_us, r.throughput_per_s, r.wall_ms
    ));
    out.push_str(&format!(
        "utilization {:.1}%  live apps {}  violations {}",
        r.utilization * 100.0,
        r.live_apps,
        r.violations
    ));
    if r.quota_denied > 0 {
        out.push_str(&format!("\nquota denied {}", r.quota_denied));
        for (code, n) in &r.quota_reasons {
            out.push_str(&format!("  {code} {n}"));
        }
    }
    if let Some(v) = &r.first_violation {
        out.push_str(&format!("\nfirst violation: {v}"));
    }
    out
}

/// Apply a validated schedule's reservations inside the transaction.
///
/// The schedule was validated against this exact transaction view, so
/// every add fits; one that does not is a fault in the validator or the
/// calendar, handed back as a violation for the caller to count — not a
/// panic that ends the replay.
fn apply_all(txn: &mut ShadowTxn<'_>, resvs: &[Reservation]) -> Result<(), String> {
    resvs.iter().try_for_each(|r| {
        txn.try_add(*r)
            .map_err(|e| format!("validated placement {r:?} does not fit: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resched_workloads::prelude::*;

    fn small_log() -> JobLog {
        generate_log(&LogSpec::ctc_sp2().with_duration(Dur::days(2)), 7)
    }

    #[test]
    fn a_validated_placement_that_does_not_fit_is_a_violation_not_a_panic() {
        let mut cal = Calendar::new(4);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(100), 3))
            .unwrap();
        let before = cal.clone();
        let mut txn = cal.transaction();
        let fits = Reservation::new(Time::ZERO, Time::seconds(50), 1);
        let overlaps = Reservation::new(Time::seconds(10), Time::seconds(60), 2);
        let violation = apply_all(&mut txn, &[fits, overlaps]).unwrap_err();
        assert!(violation.contains("does not fit"), "{violation}");
        // The caller rolls back: the add that did fit goes with the rest.
        txn.rollback();
        assert_eq!(cal, before);
    }

    #[test]
    fn replay_is_clean_and_exercises_every_path() {
        let log = small_log();
        let cfg = ServeConfig {
            max_apps: 60,
            ..ServeConfig::default()
        };
        let r = run(&log, &cfg);
        assert_eq!(r.apps, 60);
        assert_eq!(
            r.violations, 0,
            "calendar audit violations: {:?}",
            r.first_violation
        );
        assert!(r.commits > 0, "no application admitted");
        assert!(r.rollbacks > 0, "no application rejected: {r:?}");
        assert!(r.cancels > 0, "no cancellation exercised: {r:?}");
        assert!(r.resizes > 0, "no resize exercised: {r:?}");
        assert_eq!(r.apps, r.commits + r.rollbacks);
        assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
        assert!(r.p99_us > 0.0);
        // The obs registry carries the same tallies.
        assert_eq!(r.metrics.counter(names::SERVE_APPS), r.apps as u64);
        assert_eq!(r.metrics.counter(names::SERVE_COMMITS), r.commits as u64);
        assert_eq!(
            r.metrics.counter(names::SERVE_ROLLBACKS),
            r.rollbacks as u64
        );
        let h = r
            .metrics
            .histogram(names::SERVE_LATENCY)
            .expect("latency histogram");
        assert_eq!(h.count(), r.apps as u64);
    }

    #[test]
    fn run_is_deterministic_modulo_wall_clock() {
        let log = small_log();
        let cfg = ServeConfig {
            max_apps: 40,
            ..ServeConfig::default()
        };
        let a = run(&log, &cfg);
        let b = run(&log, &cfg);
        assert_eq!(
            (
                a.apps,
                a.commits,
                a.rollbacks,
                a.cancels,
                a.resizes,
                a.violations
            ),
            (
                b.apps,
                b.commits,
                b.rollbacks,
                b.cancels,
                b.resizes,
                b.violations
            )
        );
        assert_eq!(a.utilization, b.utilization);
    }

    #[test]
    fn a_window_without_history_estimates_the_whole_machine() {
        // `average_available` asserts a non-empty window, so a `q_window`
        // of zero (or below — the struct deserializes) must not reach it
        // once the calendar has a breakpoint.
        let log = small_log();
        for q_window in [Dur::ZERO, -Dur::hours(1)] {
            let cfg = ServeConfig {
                accel: 1.0,
                max_apps: 30,
                q_window,
                ..ServeConfig::default()
            };
            let r = run(&log, &cfg);
            assert_eq!((r.apps, r.violations), (30, 0), "{:?}", r.first_violation);
            assert!(r.commits > 0, "the calendar never got a breakpoint");
        }
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        // Empty: defined as 0.
        assert_eq!(percentile(&[], 0.5), 0.0);
        // n = 1: every quantile is the sample.
        assert_eq!(percentile(&[7], 0.50), 7.0);
        assert_eq!(percentile(&[7], 0.95), 7.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        // n = 2: ⌈2·0.5⌉ = 1st sample, ⌈2·0.95⌉ = ⌈2·0.99⌉ = 2nd.
        assert_eq!(percentile(&[1, 9], 0.50), 1.0);
        assert_eq!(percentile(&[1, 9], 0.95), 9.0);
        assert_eq!(percentile(&[1, 9], 0.99), 9.0);
        // Ties: ranks 2 and 3 of [5,5,5,9] are both 5; rank ⌈4·0.99⌉ = 4.
        assert_eq!(percentile(&[5, 5, 5, 9], 0.50), 5.0);
        assert_eq!(percentile(&[5, 5, 5, 9], 0.75), 5.0);
        assert_eq!(percentile(&[5, 5, 5, 9], 0.99), 9.0);
        // All-equal: every quantile collapses to the common value.
        let flat = [4u64; 10];
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&flat, q), 4.0);
        }
    }

    #[test]
    fn probe_fanout_is_clean_and_deterministic() {
        let log = small_log();
        let cfg = ServeConfig {
            max_apps: 40,
            deadline_every: 2, // exercise the fan-out path often
            probe_fanout: PROBE_ROSTER.len(),
            ..ServeConfig::default()
        };
        let a = run(&log, &cfg);
        assert_eq!(
            a.violations, 0,
            "fan-out admission violated the calendar audit: {:?}",
            a.first_violation
        );
        assert!(a.commits > 0, "fan-out admitted nothing: {a:?}");
        let b = run(&log, &cfg);
        assert_eq!(
            (a.apps, a.commits, a.rollbacks, a.cancels, a.resizes),
            (b.apps, b.commits, b.rollbacks, b.cancels, b.resizes)
        );
        assert_eq!(a.utilization, b.utilization);
    }

    /// The ISSUE acceptance criterion: the quota-denied path must be
    /// observable end-to-end — structured reason codes in the report AND
    /// the `serve.quota.denied` counter in the obs registry, with zero
    /// audit violations (the ledger stays consistent with the calendar
    /// under cancels and resizes).
    #[test]
    fn quota_denials_are_counted_and_observable() {
        let log = small_log();
        let cfg = ServeConfig {
            max_apps: 60,
            quota: Some(ServeQuotaConfig {
                users: 2,
                max_concurrent_cores: 300,
                max_core_seconds: 0,
            }),
            ..ServeConfig::default()
        };
        let r = run(&log, &cfg);
        assert_eq!(
            r.violations, 0,
            "quota run violated an audit: {:?}",
            r.first_violation
        );
        assert!(r.quota_denied > 0, "tight quota denied nothing: {r:?}");
        assert!(r.commits > 0, "tight quota denied everything: {r:?}");
        assert_eq!(
            r.metrics.counter(names::SERVE_QUOTA_DENIED),
            r.quota_denied,
            "obs counter and report disagree"
        );
        assert!(
            r.quota_reasons
                .iter()
                .any(|(code, _)| code == "quota.concurrent_cores"),
            "expected a concurrent-cores reason code: {:?}",
            r.quota_reasons
        );
        let tallied: u64 = r.quota_reasons.iter().map(|(_, n)| n).sum();
        assert_eq!(tallied, r.quota_denied);
        // Every quota denial is also a rollback, never a commit.
        assert!(r.quota_denied <= r.rollbacks as u64);

        // Deterministic, like the rest of the replay.
        let b = run(&log, &cfg);
        assert_eq!(
            (r.quota_denied, &r.quota_reasons),
            (b.quota_denied, &b.quota_reasons)
        );
        assert_eq!((r.commits, r.rollbacks), (b.commits, b.rollbacks));

        // The core-seconds axis reports its own reason code.
        let cs = run(
            &log,
            &ServeConfig {
                max_apps: 40,
                quota: Some(ServeQuotaConfig {
                    users: 2,
                    max_concurrent_cores: 0,
                    max_core_seconds: 5_000_000,
                }),
                ..ServeConfig::default()
            },
        );
        assert_eq!(cs.violations, 0, "{:?}", cs.first_violation);
        assert!(cs.quota_denied > 0, "tight core-seconds cap denied nothing");
        assert!(
            cs.quota_reasons
                .iter()
                .all(|(code, _)| code == "quota.core_seconds"),
            "only the core-seconds axis was capped: {:?}",
            cs.quota_reasons
        );

        // No quota config ⇒ the path is dormant and nothing is denied.
        let free = run(
            &log,
            &ServeConfig {
                max_apps: 60,
                ..ServeConfig::default()
            },
        );
        assert_eq!(free.quota_denied, 0);
        assert_eq!(free.metrics.counter(names::SERVE_QUOTA_DENIED), 0);
        assert!(free.quota_reasons.is_empty());
        assert!(
            free.commits >= r.commits,
            "quotas may only shrink the admitted set"
        );
    }

    #[test]
    fn summary_renders() {
        let log = small_log();
        let r = run(
            &log,
            &ServeConfig {
                max_apps: 10,
                ..ServeConfig::default()
            },
        );
        let s = summarize(&r);
        assert!(s.contains("commits"));
        assert!(s.contains("latency p50"));
    }
}
