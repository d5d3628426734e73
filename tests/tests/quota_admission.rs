//! Quota-constrained admission, end to end: edge-case policies through the
//! [`AdmissionGate`] and the independent [`ScheduleValidator`] oracle, a
//! capacity-judge invariance check (admission decisions and reason codes
//! must be the same whether the calendar's own checks or its linear
//! reference decide capacity), a seeded
//! [`QuotaStress`] mutation sweep with greedy shrinking to
//! `tests/repros/quota_*.json`, and the same sweep on a coarse grid as the
//! reference-gate differential (the production gate against the
//! probe-at-starts `ReferenceGate`), once more with every request a batch
//! through `admit_all`. Committed quota repros replay here forever.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_core::dag::DagBuilder;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_core::validate::Violation;
use resched_resv::{AdmissionGate, Owner, QuotaRule, QuotaSet, QuotaSubject};
use resched_tests::fuzz::{shrink_quota, violation_label, Judge, QuotaStress};
use std::path::PathBuf;

/// Root seed for the quota-stress sweep.
const QUOTA_SEED: u64 = 0x5CED_0090;

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("repros")
}

/// A two-level fork-join DAG whose forward schedule has a handful of
/// reservations — enough structure for quota replay to bite.
fn fork_join() -> resched_core::dag::Dag {
    let mut b = DagBuilder::new();
    let src = b.add_task(TaskCost::new(Dur::seconds(600), 0.1));
    let l = b.add_task(TaskCost::new(Dur::seconds(1_200), 0.2));
    let r = b.add_task(TaskCost::new(Dur::seconds(900), 0.3));
    let sink = b.add_task(TaskCost::new(Dur::seconds(300), 0.0));
    b.add_edge(src, l);
    b.add_edge(src, r);
    b.add_edge(l, sink);
    b.add_edge(r, sink);
    b.build().expect("fork-join builds")
}

/// A user with a zero concurrent-core quota can hold nothing at all: the
/// gate denies their very first reservation, and the validator's quota
/// replay flags any schedule billed to them.
#[test]
fn zero_quota_user_is_always_denied() {
    let alice = Owner::new("alice", "astro");
    let quotas = QuotaSet::unlimited()
        .with_rule(QuotaRule::concurrent(QuotaSubject::User("alice".into()), 0));

    let mut gate = AdmissionGate::new(quotas.clone());
    let r = Reservation::for_duration(Time::seconds(0), Dur::seconds(60), 1);
    let denial = gate
        .admit(&alice, r)
        .expect_err("zero quota admits nothing");
    assert_eq!(denial.reason_code(), "quota.concurrent_cores");
    assert_eq!(denial.subject, "user:alice");
    assert_eq!(denial.limit, 0);
    assert_eq!(gate.held(), 0, "denied requests leave no ledger residue");

    // The independent oracle agrees: any schedule for alice violates.
    let dag = fork_join();
    let cal = Calendar::new(8);
    let now = Time::ZERO;
    let sched = schedule_forward(&dag, &cal, now, 8, ForwardConfig::recommended());
    let report = ScheduleValidator::new(&dag, &cal, now)
        .with_quotas(&AdmissionGate::new(quotas.clone()), alice)
        .report(&sched);
    assert!(
        report
            .iter()
            .any(|v| matches!(v, Violation::QuotaViolation { .. })),
        "expected a QuotaViolation, got {report:?}"
    );
    assert!(report
        .iter()
        .any(|v| violation_label(v) == "quota_violation"));

    // An unrelated user sails through the same policy.
    let clean = ScheduleValidator::new(&dag, &cal, now)
        .with_quotas(&AdmissionGate::new(quotas), Owner::new("bob", "astro"))
        .report(&sched);
    assert!(clean.is_empty(), "bob is unconstrained: {clean:?}");
}

/// Quota checks are `≤`-inclusive: a request landing exactly on the limit
/// is admitted on both axes; one unit past it is denied.
#[test]
fn quota_exactly_equal_to_request_admits() {
    let o = Owner::new("carol", "chem");
    let r = Reservation::for_duration(Time::seconds(0), Dur::seconds(100), 4);

    // Concurrent cores: limit == request admits, limit - 1 denies.
    let mut exact = AdmissionGate::new(
        QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("carol".into()), 4)),
    );
    exact.admit(&o, r).expect("exact concurrent fit admits");
    let mut tight = AdmissionGate::new(
        QuotaSet::unlimited()
            .with_rule(QuotaRule::concurrent(QuotaSubject::User("carol".into()), 3)),
    );
    let d = tight.admit(&o, r).expect_err("one core over denies");
    assert_eq!((d.requested, d.limit), (4, 3));

    // Core-seconds: the reservation's area is 4 × 100 = 400.
    let mut exact_area = AdmissionGate::new(QuotaSet::unlimited().with_rule(
        QuotaRule::core_seconds(QuotaSubject::User("carol".into()), 400),
    ));
    exact_area.admit(&o, r).expect("exact area fit admits");
    let mut tight_area = AdmissionGate::new(QuotaSet::unlimited().with_rule(
        QuotaRule::core_seconds(QuotaSubject::User("carol".into()), 399),
    ));
    let d = tight_area
        .admit(&o, r)
        .expect_err("one core-second over denies");
    assert_eq!(d.reason_code(), "quota.core_seconds");
    assert_eq!((d.requested, d.limit), (400, 399));

    // The validator oracle sees the same boundary on a real schedule.
    let dag = fork_join();
    let cal = Calendar::new(8);
    let now = Time::ZERO;
    let sched = schedule_forward(&dag, &cal, now, 8, ForwardConfig::recommended());
    let area: i64 = dag
        .task_ids()
        .map(|t| sched.placement(t).reservation().proc_seconds())
        .sum();
    let at_limit = QuotaSet::unlimited().with_rule(QuotaRule::core_seconds(
        QuotaSubject::User("carol".into()),
        area,
    ));
    let clean = ScheduleValidator::new(&dag, &cal, now)
        .with_quotas(&AdmissionGate::new(at_limit), o.clone())
        .report(&sched);
    assert!(clean.is_empty(), "exact-area schedule is clean: {clean:?}");
    let under = QuotaSet::unlimited().with_rule(QuotaRule::core_seconds(
        QuotaSubject::User("carol".into()),
        area - 1,
    ));
    let report = ScheduleValidator::new(&dag, &cal, now)
        .with_quotas(&AdmissionGate::new(under), o)
        .report(&sched);
    assert!(
        report
            .iter()
            .any(|v| matches!(v, Violation::QuotaViolation { .. })),
        "one core-second under the schedule's area must violate: {report:?}"
    );
}

/// Two users of one project, overlapping reservations, a project-level
/// concurrent cap: the second overlapping request is denied against the
/// *project* subject even though each user is individually fine — and the
/// whole decision sequence is identical whether the calendar's own checks
/// or its linear reference judge capacity (the two "backends" of the name).
#[test]
fn overlapping_same_project_reservations_across_two_backends() {
    let decisions = |judge: Judge| {
        let mut cal = Calendar::new(16);
        let mut gate = AdmissionGate::new(QuotaSet::unlimited().with_rule(QuotaRule::concurrent(
            QuotaSubject::Project("astro".into()),
            8,
        )));
        let dana = Owner::new("dana", "astro");
        let evan = Owner::new("evan", "astro");
        let mut log = Vec::new();
        // Overlapping in time: [0, 1000) × 6 for dana, [500, 1500) × 6 for
        // evan (project peak would be 12 > 8), then a disjoint retry.
        let a = Reservation::for_duration(Time::seconds(0), Dur::seconds(1_000), 6);
        let b = Reservation::for_duration(Time::seconds(500), Dur::seconds(1_000), 6);
        let c = Reservation::for_duration(Time::seconds(2_000), Dur::seconds(1_000), 6);
        for (owner, r) in [(&dana, a), (&evan, b), (&evan, c)] {
            match gate.check(owner, &r) {
                Err(d) => log.push(format!("{}:{}", d.subject, d.reason_code())),
                Ok(()) => {
                    assert!(judge.try_add(&mut cal, r), "capacity 16 fits any single 6");
                    gate.admit(owner, r).expect("checked admit");
                    log.push("admit".to_string());
                }
            }
        }
        (log, gate.held())
    };
    let (log, held) = decisions(Judge::Production);
    let (log_oracle, held_oracle) = decisions(Judge::LinearOracle);
    assert_eq!(
        log,
        vec![
            "admit".to_string(),
            "project:astro:quota.concurrent_cores".to_string(),
            "admit".to_string(),
        ],
        "overlap must trip the project cap; the disjoint retry must pass"
    );
    assert_eq!(log, log_oracle, "decisions depend on the capacity judge");
    assert_eq!(held, held_oracle);
}

/// Full decision-log differential for one case across both capacity judges.
fn divergence(c: &QuotaStress) -> Option<String> {
    let mut logs = Vec::new();
    for judge in Judge::BOTH {
        match c.replay_judged(judge) {
            Ok(log) => logs.push(log),
            Err(e) => return Some(format!("{}: {e}", judge.name())),
        }
    }
    (logs[0] != logs[1]).then(|| "decision logs diverge: production vs linear-oracle".into())
}

/// Replay `n` cases drawn from `seed`, each passed through `shape` (with
/// the sweep's generator) first, under both capacity judges (and so beside
/// the reference gate). A failure is greedily shrunk and committed under
/// `tests/repros/` as `quota_{tag}{i}.json` before the test panics. Returns
/// every case's quota-denial log lines.
fn sweep(seed: u64, tag: &str, shape: impl Fn(&mut QuotaStress, &mut ChaCha12Rng)) -> Vec<String> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let n: usize = std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    let mut denials = Vec::new();
    for i in 0..n {
        let mut case = QuotaStress::generate(&mut rng);
        shape(&mut case, &mut rng);
        if let Some(detail) = divergence(&case) {
            let minimal = shrink_quota(&case, |c| divergence(c).is_some());
            let final_detail = divergence(&minimal).unwrap_or_else(|| detail.clone());
            let path = repro_dir().join(format!("quota_{tag}{i:04}.json"));
            std::fs::create_dir_all(repro_dir()).unwrap();
            std::fs::write(&path, minimal.to_json()).unwrap();
            panic!(
                "iteration {i}: quota replay diverged ({detail}); shrunk repro at {} \
                 (now failing as: {final_detail}) — commit the repro once fixed",
                path.display()
            );
        }
        denials.extend(
            case.replay()
                .expect("divergence-free case replays")
                .into_iter()
                .filter(|d| d.starts_with("quota.")),
        );
    }
    assert!(
        denials.len() > n / 4,
        "generator stopped producing quota denials ({} over {n} cases)",
        denials.len()
    );
    denials
}

/// Seeded sweep: every generated case must replay consistently (gate audit
/// clean, ledger accounting exact) with judge-invariant decisions.
#[test]
fn quota_stress_sweep_is_consistent_and_backend_invariant() {
    sweep(QUOTA_SEED, "iter", |_, _| {});
}

/// The reference-gate differential on the shapes a random draw rarely
/// hits: every start and length snapped to a 500 s grid, so touching
/// intervals (`end == start`), shared starts and nested intervals are
/// common. Each replay asks the production gate's event sweep and the
/// test-local [`resched_tests::fuzz::ReferenceGate`]'s probe-at-starts
/// loop every question; any difference in a denial (subject, axis,
/// requested, limit) or in the final audit fails the case.
#[test]
fn production_gate_matches_the_reference_gate() {
    const GRID: i64 = 500;
    let snap = |case: &mut QuotaStress, _: &mut ChaCha12Rng| {
        for q in &mut case.requests {
            q.start_secs -= q.start_secs % GRID;
            q.dur_secs = (q.dur_secs / GRID).max(1) * GRID;
        }
    };
    let mut rng = ChaCha12Rng::seed_from_u64(QUOTA_SEED ^ 0x0000_5EEF);
    let touching = (0..50)
        .map(|_| {
            let mut case = QuotaStress::generate(&mut rng);
            snap(&mut case, &mut rng);
            let reqs = &case.requests;
            reqs.iter()
                .filter(|a| {
                    reqs.iter()
                        .any(|b| a.start_secs + a.dur_secs == b.start_secs)
                })
                .count()
        })
        .sum::<usize>();
    assert!(touching > 0, "the grid produced no touching intervals");
    sweep(QUOTA_SEED ^ 0x0000_5EEF, "grid", snap);
}

/// The reference-gate differential on batches, as serve admits them:
/// every request is a batch of 2 to 10 reservations (each starting half a
/// length after the one before) through `admit_all`, on a platform four
/// times wider than the draw so capacity rarely refuses one. Every owner
/// matches a user rule and a project rule at once: a concurrent-core cap
/// per user in half the cases, a core-second cap of 10 000 to 500 000 per
/// user (a batch reaches up to 640 000) and no user core cap in the
/// others, and a concurrent-core cap per project in all. The caps sit below
/// what a batch reaches, so batches are denied part-way through. Each
/// replay compares the whole `QuotaDenial` and the ledger after every
/// request with the reference's reservation-by-reservation admission.
#[test]
fn batched_admissions_match_the_reference_gate() {
    use rand::Rng;
    let denials = sweep(QUOTA_SEED ^ 0x0000_BA7C, "batch", |case, rng| {
        case.capacity *= 4;
        if rng.gen_bool(0.5) {
            case.user_cores = case.user_cores.max(1);
        } else {
            case.user_cores = 0;
            case.user_core_seconds = rng.gen_range(10_000i64..500_000);
        }
        case.project_cores = case.project_cores.max(1);
        for q in &mut case.requests {
            q.batch = rng.gen_range(2u32..=10);
        }
    });
    let mid_batch = |prefix: &str| {
        denials
            .iter()
            .filter(|d| d.contains(prefix) && !d.contains("(reservation 0 of"))
            .count()
    };
    for subject in ["for user:", "for project:"] {
        assert!(
            mid_batch(subject) > 0,
            "no mid-batch denial {subject} in {} denials",
            denials.len()
        );
    }
    assert!(
        denials
            .iter()
            .any(|d| d.starts_with("quota.core_seconds") && !d.contains("(reservation 0 of")),
        "no mid-batch core-second denial"
    );
}

/// Committed quota repros (the seed case plus any shrunk failures) stay
/// fixed forever.
#[test]
fn committed_quota_repros_replay_green() {
    let dir = repro_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut replayed = 0usize;
    for entry in entries {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.starts_with("quota_") || path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let case = QuotaStress::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        assert!(
            divergence(&case).is_none(),
            "committed repro {name} regressed"
        );
        replayed += 1;
    }
    assert!(replayed > 0, "the seed quota repro must exist and replay");
}
