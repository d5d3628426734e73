//! # resched-serve — online scheduling frontend
//!
//! The dynamic-arrival setting the paper's §4.2 RESSCHED algorithms
//! assume but the batch harness never exercises: every arriving
//! application is scheduled **against the calendar as it stands now**.
//!
//! The unit is one [`Step`] applied to a [`Server`], which owns the
//! calendar, the quota ledger and the live applications:
//!
//! ```
//! use resched_serve::{Outcome, ServeConfig, Server, Step};
//! # use resched_core::prelude::*;
//! # use resched_daggen::DagParams;
//! # let params = DagParams { num_tasks: 10, ..DagParams::paper_default() };
//! # let (now, app_id, dag) = (Time::ZERO, 1, resched_daggen::generate(&params, 1));
//! let mut server = Server::new(128, &ServeConfig::default());
//! match server.apply(&Step::Submit { now, app_id, dag }).outcome {
//!     Outcome::Admitted { completion, .. } => println!("runs until {completion}"),
//!     Outcome::Rejected { reason, .. } => println!("{}: {reason}", reason.code()),
//!     other => unreachable!("an arrival is admitted or rejected: {other:?}"),
//! }
//! assert_eq!(server.apply(&Step::Cancel { k: 0 }).outcome, Outcome::Cancelled);
//! ```
//!
//! A [`Step::Submit`] is decided by the admission policy, in one place: a
//! shadow-schedule transaction ([`resched_resv::ShadowTxn`]) over the
//! calendar, one [`Roster`] on its view (the instance floor first, then the
//! forward schedule or, for a configurable fraction of arrivals, the
//! backward deadline probes), the independent [`ScheduleValidator`] oracle
//! and the quota gate's veto, then **commit** — or **roll back**,
//! byte-exactly, with a typed [`Reason`]. Committed applications stay live
//! and can be [cancelled](Step::Cancel) or [shrunk](Step::Resize); every
//! `audit_every`-th step re-audits the calendar
//! ([`resched_core::validate::audit_calendar`]).
//!
//! Every step answers with a [`Record`]: the outcome, an arrival's `q` and
//! wall-clock latency, and the faults found. [`replay`], the one producer
//! of steps, replays an SWF workload's compressed arrival process (one DAG
//! per job, and a seeded cancel or shrink after commits) and hands each
//! step and record on; [`run`] folds them into a [`ServeReport`]
//! ([`Tally`]), latency percentiles exact and as the obs histogram
//! `serve.schedule.latency_ns`. The steps as JSON lines are a journal that
//! a fresh `Server` replays to the same outcomes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod replay;
mod server;

pub use replay::{replay, run};
pub use server::{
    Arrival, Fault, LiveApp, Outcome, Overrun, Reason, Record, Server, Step, Tally, PROBE_ROSTER,
};

use resched_core::obs::MetricsRegistry;
use resched_core::prelude::*;
use resched_core::schedule::ScheduleStats;
use serde::{Deserialize, Serialize};

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
    /// [`AdmissionGate`](resched_resv::AdmissionGate) before any
    /// transaction commits (`None` = admit on capacity alone, the
    /// pre-quota behavior).
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

/// Aggregate outcome of one serving run: its records folded ([`Tally`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Arrivals processed.
    pub apps: usize,
    /// Transactions committed (applications admitted).
    pub commits: usize,
    /// Transactions rolled back (applications rejected); `rejections` says
    /// why.
    pub rollbacks: usize,
    /// Live applications later cancelled.
    pub cancels: usize,
    /// Live reservations trimmed in place.
    pub resizes: usize,
    /// Applications denied admission by a quota rule (a subset of
    /// `rollbacks`).
    #[serde(default)]
    pub quota_denied: u64,
    /// Rejection tallies by [`Reason::code`], sorted by code; their sum is
    /// `rollbacks`, and the `quota.*` ones sum to `quota_denied`.
    #[serde(default)]
    pub rejections: Vec<(String, u64)>,
    /// The scheduler work of every arrival, admitted or rejected.
    #[serde(default)]
    pub work: ScheduleStats,
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
    /// The obs metrics recorded during the run: the
    /// `serve.schedule.latency_ns` histogram.
    pub metrics: MetricsRegistry,
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

/// Render a human-readable summary of a report.
pub fn summarize(r: &ServeReport) -> String {
    let mut out = format!(
        "apps {}  commits {}  rollbacks {}  cancels {}  resizes {}\n",
        r.apps, r.commits, r.rollbacks, r.cancels, r.resizes
    );
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
    if !r.rejections.is_empty() {
        out.push_str("\nrejections");
        for (code, n) in &r.rejections {
            out.push_str(&format!("  {code} {n}"));
        }
    }
    if let Some(v) = &r.first_violation {
        out.push_str(&format!("\nfirst violation: {v}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay::derive_seed;
    use resched_core::obs::{self, names};
    use resched_daggen::DagParams;
    use resched_workloads::prelude::*;
    use std::time::Duration;

    fn small_log() -> JobLog {
        generate_log(&LogSpec::ctc_sp2().with_duration(Dur::days(2)), 7)
    }

    /// Everything a report holds but the stopwatch: the wall-clock fields
    /// zeroed, and the registry (whose latency histogram is one) emptied.
    fn decided(r: &ServeReport) -> ServeReport {
        ServeReport {
            wall_ms: 0.0,
            throughput_per_s: 0.0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            metrics: MetricsRegistry::new(),
            ..r.clone()
        }
    }

    #[test]
    fn a_validated_placement_that_does_not_fit_is_a_violation_not_a_panic() {
        use resched_resv::{AdmissionGate, Owner, QuotaSet, ReservationError};
        let mut cal = Calendar::new(4);
        cal.try_add(Reservation::new(Time::ZERO, Time::seconds(100), 3))
            .unwrap();
        let before = cal.clone();
        let fits = Reservation::new(Time::ZERO, Time::seconds(50), 1);
        let overlaps = Reservation::new(Time::seconds(10), Time::seconds(60), 2);
        let owner = Owner::new("u0", "p0");
        let mut gate = AdmissionGate::new(QuotaSet::unlimited());
        for gate in [None, Some(&mut gate)] {
            let mut txn = cal.transaction();
            let refused = server::reserve(&mut txn, gate, &owner, &[fits, overlaps]);
            let Err(Reason::ApplyFailed(violation)) = refused else {
                panic!("{refused:?}");
            };
            assert!(
                matches!(violation, ReservationError::Conflict { requested: 2, .. }),
                "{violation}"
            );
            // The caller rolls back: the add that did fit goes with the rest.
            txn.rollback();
            assert_eq!(cal, before);
        }
        // And the gate gave back what it admitted.
        assert_eq!(gate.ledger().count(), 0);
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
        assert!(
            r.work.slot_queries > 0 && r.work.cpa_allocations > 0,
            "{r:?}"
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

    /// The `quota.*` slice of a report's rejections.
    fn quota_reasons(r: &ServeReport) -> Vec<(String, u64)> {
        let quota = r.rejections.iter().filter(|(c, _)| c.starts_with("quota."));
        quota.cloned().collect()
    }

    /// The quota-denied path is observable end-to-end — structured reason
    /// codes in the report that sum to `quota_denied`, with zero audit
    /// violations (the ledger stays consistent with the calendar under
    /// cancels and resizes).
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
        assert!(
            quota_reasons(&r)
                .iter()
                .any(|(code, _)| code == "quota.concurrent_cores"),
            "expected a concurrent-cores reason code: {:?}",
            r.rejections
        );
        let tallied: u64 = quota_reasons(&r).iter().map(|(_, n)| n).sum();
        assert_eq!(tallied, r.quota_denied);
        // Every quota denial is also a rollback, never a commit.
        assert!(r.quota_denied <= r.rollbacks as u64);

        // Deterministic, like the rest of the replay.
        let b = run(&log, &cfg);
        assert_eq!(
            (r.quota_denied, &r.rejections),
            (b.quota_denied, &b.rejections)
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
        let cs_reasons = quota_reasons(&cs);
        assert!(
            !cs_reasons.is_empty()
                && cs_reasons
                    .iter()
                    .all(|(code, _)| code == "quota.core_seconds"),
            "only the core-seconds axis was capped: {cs_reasons:?}"
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
        assert!(quota_reasons(&free).is_empty());
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

    /// Calendar bytes and ledger: what a rejection must leave untouched.
    fn books(server: &Server) -> (String, Vec<(resched_resv::Owner, Reservation)>) {
        (
            serde_json::to_string(server.calendar()).unwrap(),
            server.ledger().map(|(o, r)| (o.clone(), *r)).collect(),
        )
    }

    /// Submit ten-task applications at one instant to a `procs`-processor
    /// server until one is rejected for a reason `wanted` accepts with the
    /// books non-empty, and hand that reason back. Every rejection on the
    /// way — whatever its reason — must leave calendar and ledger
    /// byte-identical.
    fn first_rejection(
        procs: u32,
        cfg: &ServeConfig,
        wanted: impl Fn(&Reason) -> bool,
    ) -> (Time, Reason) {
        let params = DagParams {
            num_tasks: 10,
            ..DagParams::paper_default()
        };
        let now = Time::seconds(5_000);
        let mut server = Server::new(procs, cfg);
        for id in 0..200u32 {
            let before = books(&server);
            let dag = resched_daggen::generate(&params, derive_seed(cfg.seed, u64::from(id)));
            let step = Step::Submit {
                now,
                app_id: id,
                dag,
            };
            match server.apply(&step).outcome {
                Outcome::Admitted { .. } => assert_ne!(books(&server), before),
                Outcome::Rejected { reason, .. } => {
                    assert_eq!(books(&server), before, "{reason} changed the books");
                    assert_eq!(server.audit(), []);
                    if wanted(&reason) && !server.live().is_empty() {
                        return (now, reason);
                    }
                }
                other => panic!("an arrival is admitted or rejected: {other:?}"),
            }
        }
        panic!("no wanted rejection in 200 arrivals");
    }

    /// A resize to `new_of(old)` of an admitted application's one
    /// reservation is refused as not a shrink, with nothing touched or
    /// counted.
    fn refused_resize(new_of: impl Fn(Reservation) -> Reservation) {
        let cfg = ServeConfig {
            audit_every: 1,
            ..ServeConfig::default()
        };
        let mut server = Server::new(4, &cfg);
        let now = Time::seconds(100);
        let dag = resched_core::dag::chain(&[TaskCost::new(Dur::hours(2), 0.0)]);
        let admitted = server.apply(&Step::Submit {
            now,
            app_id: 0,
            dag,
        });
        assert!(
            matches!(admitted.outcome, Outcome::Admitted { .. }),
            "{admitted:?}"
        );
        let before = (books(&server), server.live().to_vec());
        let old = server.live()[0].resvs[0];
        let new = new_of(old);
        let refused = server.apply(&Step::Resize { k: 0, i: 0, new });
        let not_a_shrink = Outcome::Failed(Fault::NotAShrink { old, new });
        assert_eq!((refused.outcome, refused.findings), (not_a_shrink, vec![]));
        assert_eq!((books(&server), server.live().to_vec()), before);
        assert_eq!(server.audit(), []);
    }

    #[test]
    fn a_resize_to_an_empty_reservation_is_not_a_shrink() {
        refused_resize(|old| {
            let mid = old.start.midpoint(old.end);
            Reservation {
                start: mid,
                end: mid,
                ..old
            }
        });
    }

    #[test]
    fn a_resize_to_an_inverted_reservation_is_not_a_shrink() {
        refused_resize(|old| Reservation {
            start: old.start.midpoint(old.end),
            end: old.start,
            ..old
        });
    }

    #[test]
    fn a_turnaround_past_the_horizon_is_rejected_with_both_instants() {
        let cfg = ServeConfig {
            deadline_every: 0,
            ..ServeConfig::default()
        };
        // Answered by the forward schedule's completion, and by the floor.
        for by_floor in [false, true] {
            let (now, reason) = first_rejection(64, &cfg, |r| {
                matches!(r, Reason::HorizonExceeded { by, .. }
                    if matches!(by, Overrun::Floor(_)) == by_floor)
            });
            let Reason::HorizonExceeded { horizon, by } = reason else {
                panic!("{reason}");
            };
            assert_eq!(reason.code(), "horizon_exceeded");
            assert_eq!(horizon, now + cfg.admit_horizon);
            let past = match by {
                Overrun::Completion(completion) => completion,
                Overrun::Floor(floor) => {
                    assert!(reason.to_string().contains(&floor.to_string()), "{reason}");
                    floor.at
                }
            };
            assert!(past > horizon, "{reason}");
        }
    }

    #[test]
    fn a_forward_arrival_past_its_floor_allocates_nothing() {
        // One 40 h perfectly parallel task holds all four processors for
        // 10 h. A chain of two sequential 90 min tasks behind it ends at
        // 13 h at the earliest: past the 12 h horizon, which only the
        // calendar path sees (critical path 3 h, area 10 h 45 min).
        let cfg = ServeConfig {
            deadline_every: 0,
            ..ServeConfig::default()
        };
        let mut server = Server::new(4, &cfg);
        let now = Time::seconds(100);
        let dag = resched_core::dag::chain(&[TaskCost::new(Dur::hours(40), 0.0)]);
        let admitted = server.apply(&Step::Submit {
            now,
            app_id: 0,
            dag,
        });
        assert!(
            matches!(admitted.outcome, Outcome::Admitted { completion, .. } if completion == now + Dur::hours(10)),
            "{admitted:?}"
        );
        let sequential = TaskCost::new(Dur::minutes(90), 1.0);
        let dag = resched_core::dag::chain(&[sequential; 2]);
        let floor = resched_core::floor::Floor::of(&dag, server.calendar(), now, 1);
        assert_eq!(
            (floor.critical_path, floor.area, floor.calendar_path),
            (
                now + Dur::hours(3),
                now + Dur::minutes(645),
                now + Dur::hours(13)
            )
        );
        let step = Step::Submit {
            now,
            app_id: 1,
            dag,
        };
        let (decision, report) = obs::observe("past the floor", || server.apply(&step).outcome);
        let horizon = now + cfg.admit_horizon;
        let bound = resched_core::floor::Bound {
            at: now + Dur::hours(13),
            half: resched_core::floor::Half::CalendarPath,
        };
        let reason = Reason::HorizonExceeded {
            horizon,
            by: Overrun::Floor(bound),
        };
        // Answered by the floor: no scheduler work.
        let work = ScheduleStats::default();
        let rejected = Outcome::Rejected {
            reason: reason.clone(),
            work,
        };
        assert_eq!(decision, rejected);
        assert_eq!(
            reason.to_string(),
            format!(
                "the instance floor {} (calendar path bound) is past the admission horizon \
                 {horizon}: no valid schedule completes by it",
                now + Dur::hours(13)
            )
        );
        // One floor question, and nothing allocated or placed.
        let counter = |name| report.metrics.counter(name);
        assert_eq!(counter(names::FLOOR_QUESTIONS), 1);
        assert_eq!(counter(names::CPA_CACHE_MISS), 0);
        assert!(report.metrics.histogram(names::FIT_STEPS).is_none());
        assert!(report.profile.span(names::SPAN_FORWARD_PREP).is_none());
    }

    #[test]
    fn a_deadline_no_roster_algorithm_meets_is_rejected_with_the_deadline() {
        let cfg = ServeConfig {
            deadline_every: 1,
            probe_fanout: 2,
            ..ServeConfig::default()
        };
        let (now, reason) = first_rejection(64, &cfg, |r| r.code() == "deadline_infeasible");
        let Reason::DeadlineInfeasible { deadline, floor } = reason else {
            panic!("{reason}");
        };
        assert_eq!(deadline, now + cfg.admit_horizon);
        // A floor that answered lies past the deadline.
        assert!(floor.is_none_or(|floor| floor.at > deadline), "{floor:?}");
    }

    #[test]
    fn a_deadline_below_the_instance_floor_is_rejected_with_the_floor() {
        // Each of three two-hour tasks in a chain takes over an hour at
        // α = 0.5 on 64 processors: a one-hour horizon is below the floor,
        // whatever the roster, and the rejection carries it.
        let cost = TaskCost::new(Dur::hours(2), 0.5);
        let dag = resched_core::dag::chain(&[cost; 3]);
        let cfg = ServeConfig {
            deadline_every: 1,
            probe_fanout: 4,
            admit_horizon: Dur::hours(1),
            ..ServeConfig::default()
        };
        let mut server = Server::new(64, &cfg);
        let now = Time::seconds(100);
        let floor = resched_core::floor::Floor::of(&dag, server.calendar(), now, 1).time();
        let step = Step::Submit {
            now,
            app_id: 0,
            dag,
        };
        let (decision, report) = obs::observe("below the floor", || server.apply(&step).outcome);
        // On an empty calendar the critical path sets it.
        let bound = resched_core::floor::Bound {
            at: floor,
            half: resched_core::floor::Half::CriticalPath,
        };
        let reason = Reason::DeadlineInfeasible {
            deadline: now + cfg.admit_horizon,
            floor: Some(bound),
        };
        let work = ScheduleStats::default();
        let rejected = Outcome::Rejected {
            reason: reason.clone(),
            work,
        };
        assert_eq!(decision, rejected);
        assert_eq!(reason.code(), "deadline_infeasible");
        assert!(
            reason
                .to_string()
                .contains(&format!("{floor} (critical path bound)")),
            "{reason}"
        );
        // The arrival was answered by the roster's one floor question:
        // nothing allocated, and no probe asked.
        let counter = |name| report.metrics.counter(name);
        assert_eq!(counter(names::FLOOR_QUESTIONS), 1);
        assert_eq!(counter(names::BACKWARD_FLOOR_SKIPS), 0);
        assert_eq!(counter(names::CPA_CACHE_MISS), 0);
    }

    #[test]
    fn each_quota_axis_is_rejected_with_its_denial() {
        use resched_resv::quotas::QuotaAxis;
        for (quota, axis, code) in [
            (
                ServeQuotaConfig {
                    users: 1,
                    max_concurrent_cores: 300,
                    max_core_seconds: 0,
                },
                QuotaAxis::ConcurrentCores,
                "quota.concurrent_cores",
            ),
            (
                ServeQuotaConfig {
                    users: 1,
                    max_concurrent_cores: 0,
                    max_core_seconds: 5_000_000,
                },
                QuotaAxis::CoreSeconds,
                "quota.core_seconds",
            ),
        ] {
            let cfg = ServeConfig {
                quota: Some(quota),
                admit_horizon: Dur::days(30),
                ..ServeConfig::default()
            };
            let (_, reason) = first_rejection(430, &cfg, |r| r.code() == code);
            let Reason::Quota(denial) = &reason else {
                panic!("{reason}");
            };
            assert_eq!((denial.axis, denial.subject.as_str()), (axis, "user:u0"));
            assert!(denial.requested > denial.limit, "{denial}");
            assert_eq!(reason.to_string(), denial.to_string());
        }
    }

    /// `Validator` and `ApplyFailed` take a scheduler or calendar bug to
    /// occur (the apply step itself is covered above), so only their
    /// wording and codes are pinned here.
    #[test]
    fn the_two_bug_reasons_have_codes_and_read_as_their_cause() {
        let v = Violation::TaskCountMismatch {
            expected: 3,
            actual: 2,
        };
        let validator = Reason::Validator(v.clone());
        assert_eq!(validator.code(), "validator");
        assert_eq!(validator.to_string(), v.to_string());

        let e = resched_resv::ReservationError::ZeroProcs;
        let apply = Reason::ApplyFailed(e);
        assert_eq!(apply.code(), "apply_failed");
        assert_eq!(
            apply.to_string(),
            format!("validated placement does not fit: {e}")
        );
        // As a fault on the report they read the same.
        assert_eq!(
            Fault::Rejected(apply.clone()).to_string(),
            apply.to_string()
        );
    }

    #[test]
    fn rejections_carry_their_reason_to_the_report() {
        let log = small_log();
        let saturated = |deadline_every| {
            run(
                &log,
                &ServeConfig {
                    max_apps: 60,
                    deadline_every,
                    ..ServeConfig::default()
                },
            )
        };
        for (deadline_every, only) in [(0, "horizon_exceeded"), (1, "deadline_infeasible")] {
            let r = saturated(deadline_every);
            assert!(r.rollbacks > 0, "{r:?}");
            assert_eq!(r.rejections, vec![(only.to_string(), r.rollbacks as u64)]);
            assert!(summarize(&r).contains(&format!("rejections  {only} {}", r.rollbacks)));
        }
        // Mixed: the codes are sorted and sum to the rollbacks, and the
        // `quota.*` ones to the quota denials.
        let r = run(
            &log,
            &ServeConfig {
                max_apps: 60,
                quota: Some(ServeQuotaConfig {
                    users: 2,
                    max_concurrent_cores: 300,
                    max_core_seconds: 0,
                }),
                ..ServeConfig::default()
            },
        );
        let codes: Vec<&str> = r.rejections.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(
            codes,
            [
                "deadline_infeasible",
                "horizon_exceeded",
                "quota.concurrent_cores"
            ]
        );
        let total: u64 = r.rejections.iter().map(|(_, n)| n).sum();
        assert_eq!(total, r.rollbacks as u64);
        let quota: u64 = quota_reasons(&r).iter().map(|(_, n)| n).sum();
        assert_eq!(quota, r.quota_denied);
    }

    /// The journal [`replay`] realizes, written as JSONL and read back,
    /// replays through a fresh `Server` to the same outcomes, and its
    /// records fold ([`Tally`]) to `run`'s report, wall-clock fields aside:
    /// on the seven replays `golden_serve_replays` pins (the four CI
    /// replays and the three benchmark serve shapes at test size, one
    /// table: `tests/replays/golden.rs`), and on one with heavy churn, a
    /// 3-way roster and a sparser audit cadence.
    #[test]
    fn a_replayed_journal_reproduces_every_outcome() {
        let churn = ServeConfig {
            accel: 20.0,
            max_apps: 80,
            deadline_every: 2,
            probe_fanout: 3,
            cancel_every: 2,
            resize_every: 3,
            audit_every: 3,
            quota: Some(ServeQuotaConfig {
                users: 3,
                max_concurrent_cores: 300,
                max_core_seconds: 0,
            }),
            seed: 11,
            ..ServeConfig::default()
        };
        let golden = include!("../tests/replays/golden.rs");
        let replays = golden
            .into_iter()
            .map(|(_, spec, days, cfg)| (spec, days, cfg))
            .chain([(LogSpec::sdsc_blue(), 2, churn)]);
        for (spec, days, cfg) in replays {
            let log = generate_log(&spec.with_duration(Dur::days(days)), cfg.seed);
            let (mut steps, mut outcomes) = (Vec::new(), Vec::new());
            replay(&log, &cfg, |step, record| {
                steps.push(step.clone());
                outcomes.push(record.outcome.clone());
            });
            let recorded = run(&log, &cfg);
            assert!(
                recorded.commits > 0 && recorded.cancels > 0 && recorded.resizes > 0,
                "{recorded:?}"
            );
            assert!(recorded.work.slot_queries > 0, "{recorded:?}");

            let journal: String = steps
                .iter()
                .map(|step| serde_json::to_string(step).unwrap() + "\n")
                .collect();
            let read: Vec<Step> = journal
                .lines()
                .map(|line| serde_json::from_str(line).unwrap())
                .collect();
            assert_eq!(read, steps);

            let mut server = Server::new(log.procs, &cfg);
            let mut tally = Tally::default();
            let mut replayed = Vec::new();
            for step in &read {
                let record = server.apply(step);
                tally.add(step, &record);
                replayed.push(record.outcome);
            }
            assert_eq!(replayed, outcomes);
            let report = tally.finish(&server, Duration::from_millis(1));
            assert_eq!(decided(&report), decided(&recorded));
        }
    }

    /// A replay under the collector decides exactly as a plain one, and
    /// what the collector saw is what the report says: one `serve.schedule`
    /// span per arrival, one `serve.cancel` per cancellation, and one
    /// latency sample per arrival.
    #[test]
    fn an_observed_replay_decides_and_counts_as_the_report_says() {
        let quota = ServeQuotaConfig {
            users: 2,
            max_concurrent_cores: 300,
            max_core_seconds: 0,
        };
        for (log, cfg) in [
            (
                small_log(),
                ServeConfig {
                    max_apps: 60,
                    ..ServeConfig::default()
                },
            ),
            (
                generate_log(&LogSpec::sdsc_blue().with_duration(Dur::days(2)), 11),
                ServeConfig {
                    accel: 20.0,
                    max_apps: 60,
                    deadline_every: 1,
                    cancel_every: 2,
                    quota: Some(quota),
                    seed: 11,
                    ..ServeConfig::default()
                },
            ),
        ] {
            let plain = run(&log, &cfg);
            let (observed, ambient) = obs::observe("serve", || run(&log, &cfg));
            assert!(observed.commits > 0 && observed.cancels > 0, "{observed:?}");
            assert!(
                cfg.quota.is_none() || observed.quota_denied > 0,
                "{observed:?}"
            );
            assert_eq!(decided(&observed), decided(&plain));

            let spans = |name| ambient.profile.span(name).map_or(0, |s| s.calls);
            assert_eq!(spans(names::SPAN_SERVE_SCHEDULE), observed.apps as u64);
            assert_eq!(spans(names::SPAN_SERVE_CANCEL), observed.cancels as u64);
            let latencies = ambient.metrics.histogram(names::SERVE_LATENCY);
            assert_eq!(
                latencies.map(obs::Histogram::count),
                Some(observed.apps as u64)
            );
        }
    }
}
