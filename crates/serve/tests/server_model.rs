//! Model-based test of the [`Server`] steps.
//!
//! Seeded random sequences of [`Step`]s — submits, cancels and resizes,
//! good and bad arguments alike — run against a naive model: a `Vec` of
//! `(owner, reservations)`, one entry per live application, changed only
//! by what a step reports. After every step the server's calendar must
//! equal a calendar rebuilt from the model (the calendar's form is
//! canonical, so `==` is byte equality), its ledger must equal the model
//! as a multiset, its live set must equal the model in order, and an
//! audit must find nothing. A refused step (bad index, not a shrink) and a
//! rejected arrival must change none of them.
//!
//! Each sequence is also a journal: written as JSONL and read back, it
//! replays through a fresh server to the same outcomes and the same books.
//!
//! `RESCHED_DIFF_ITERS` sets the number of sequences (default 60; CI's
//! serve-smoke lane runs 300).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::algos::Algorithm;
use resched_core::dag::{chain, fork_join, Dag};
use resched_core::forward::ForwardConfig;
use resched_core::prelude::*;
use resched_core::task::TaskCost;
use resched_daggen::DagParams;
use resched_resv::Owner;
use resched_serve::{
    Fault, LiveApp, Outcome, ServeConfig, ServeQuotaConfig, Server, Step, Tally, PROBE_ROSTER,
};
use std::collections::BTreeMap;
use std::time::Duration;

const SWEEP_SEED: u64 = 0x5E21_E000;
const STEPS: usize = 40;
/// The reasons a caller can cause.
const POLICY: [&str; 4] = [
    "deadline_infeasible",
    "horizon_exceeded",
    "quota.concurrent_cores",
    "quota.core_seconds",
];

fn iterations() -> u64 {
    std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn pick<T: Copy>(rng: &mut ChaCha12Rng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// A small application: hand-built chains and fork-joins, or a `daggen`
/// draw of the paper's shape.
fn small_dag(rng: &mut ChaCha12Rng) -> Dag {
    let cost = |rng: &mut ChaCha12Rng| {
        TaskCost::new(
            Dur::seconds(rng.gen_range(60..7200)),
            rng.gen_range(0.0..0.5),
        )
    };
    match rng.gen_range(0..3) {
        0 => {
            let costs: Vec<TaskCost> = (0..rng.gen_range(1..5)).map(|_| cost(rng)).collect();
            chain(&costs)
        }
        1 => {
            let middle: Vec<TaskCost> = (0..rng.gen_range(1..5)).map(|_| cost(rng)).collect();
            fork_join(cost(rng), &middle, cost(rng))
        }
        _ => resched_daggen::generate(
            &DagParams {
                num_tasks: rng.gen_range(2..9),
                ..DagParams::paper_default()
            },
            rng.gen(),
        ),
    }
}

/// One sequence's configuration: machine, horizon, deadline share, roster
/// prefix, quotas on odd iterations, audit cadence by iteration mod 3.
fn config(it: u64, rng: &mut ChaCha12Rng) -> (u32, ServeConfig) {
    let procs = pick(rng, &[4u32, 8, 16, 64]);
    let quota = (it % 2 == 1).then(|| ServeQuotaConfig {
        users: rng.gen_range(1..4),
        max_concurrent_cores: pick(rng, &[0, procs / 2, procs]),
        max_core_seconds: pick(rng, &[0, 400_000]),
    });
    let cfg = ServeConfig {
        deadline_every: rng.gen_range(0..4),
        probe_fanout: rng.gen_range(1..=PROBE_ROSTER.len()),
        admit_horizon: Dur::hours(pick(rng, &[2, 8, 24])),
        q_window: Dur::hours(pick(rng, &[0, 1, 24])),
        audit_every: [0, 1, 3][it as usize % 3],
        quota,
        ..ServeConfig::default()
    };
    (procs, cfg)
}

/// A replacement for `old`: a real shrink on even draws (later start,
/// earlier end or fewer processors, whichever the reservation has room
/// for), something that is not one on odd draws — a larger reservation,
/// or none at all (empty, inverted, or of no processors).
fn replacement(old: Reservation, rng: &mut ChaCha12Rng) -> (Reservation, bool) {
    let mid = old.start.midpoint(old.end);
    let shrinks = [
        (mid > old.start).then(|| Reservation::new(old.start, mid, old.procs)),
        (mid > old.start).then(|| Reservation::new(mid, old.end, old.procs)),
        (old.procs > 1).then(|| Reservation::new(old.start, old.end, old.procs - 1)),
    ];
    let grows = [
        old,
        Reservation::new(old.start, old.end + Dur::seconds(1), old.procs),
        Reservation::new(old.start - Dur::seconds(1), old.end, old.procs),
        Reservation::new(old.start, old.end, old.procs + 1),
        Reservation::new(old.end, old.end + Dur::seconds(5), old.procs),
        Reservation {
            start: mid,
            end: mid,
            procs: old.procs,
        },
        Reservation {
            start: old.end,
            end: old.start,
            procs: old.procs,
        },
        Reservation { procs: 0, ..old },
    ];
    if rng.gen_bool(0.5) {
        if let Some(new) = pick(rng, &shrinks) {
            return (new, true);
        }
    }
    (pick(rng, &grows), false)
}

/// What the server holds: the calendar's JSON, the ledger and the live set.
fn books(server: &Server) -> (String, Vec<(Owner, Reservation)>, Vec<LiveApp>) {
    (
        serde_json::to_string(server.calendar()).expect("a calendar serializes"),
        server.ledger().map(|(o, r)| (o.clone(), *r)).collect(),
        server.live().to_vec(),
    )
}

/// The journal `steps`, written as JSONL and read back, replayed through a
/// fresh server: the same outcomes and the same books as the original's.
fn replay_journal(
    procs: u32,
    cfg: &ServeConfig,
    steps: &[Step],
    outcomes: &[Outcome],
    original: &Server,
    ctx: &str,
) {
    let journal: String = steps
        .iter()
        .map(|step| serde_json::to_string(step).expect("a step serializes") + "\n")
        .collect();
    let read: Vec<Step> = journal
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{ctx}: {e}: {line}")))
        .collect();
    assert_eq!(read, steps, "{ctx}: the journal reads back changed");
    let mut fresh = Server::new(procs, cfg);
    let replayed: Vec<Outcome> = read.iter().map(|step| fresh.apply(step).outcome).collect();
    assert_eq!(replayed, outcomes, "{ctx}: the replay decided otherwise");
    assert_eq!(books(&fresh), books(original), "{ctx}: the replay's books");
}

/// The server's books against the model, after a step.
fn check(server: &mut Server, model: &[LiveApp], procs: u32, quotas: bool, ctx: &str) {
    let held = || {
        model
            .iter()
            .flat_map(|app| app.resvs.iter().map(|r| (app.owner.clone(), *r)))
    };
    let rebuilt = Calendar::with_reservations(procs, held().map(|(_, r)| r))
        .unwrap_or_else(|e| panic!("{ctx}: the model overbooks the machine: {e}"));
    assert_eq!(server.calendar(), &rebuilt, "{ctx}: calendar != model");
    assert_eq!(server.live(), model, "{ctx}: live set != model");

    let key = |(o, r): &(Owner, Reservation)| {
        (o.user.clone(), o.project.clone(), r.start, r.end, r.procs)
    };
    let mut ledger: Vec<(Owner, Reservation)> =
        server.ledger().map(|(o, r)| (o.clone(), *r)).collect();
    let mut expected: Vec<(Owner, Reservation)> = if quotas { held().collect() } else { vec![] };
    ledger.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(ledger, expected, "{ctx}: ledger != model");

    assert_eq!(server.audit(), [], "{ctx}: audit");
}

#[test]
fn random_steps_agree_with_a_naive_model() {
    let (mut admitted, mut cancelled, mut shrunk, mut refused) = (0, 0, 0, 0);
    let mut rejected: BTreeMap<&str, usize> = BTreeMap::new();
    for it in 0..iterations() {
        let mut rng = ChaCha12Rng::seed_from_u64(SWEEP_SEED ^ it);
        let (procs, cfg) = config(it, &mut rng);
        let users = cfg.quota.map_or(1, |q| q.users.max(1));
        let mut server = Server::new(procs, &cfg);
        let mut model: Vec<LiveApp> = Vec::new();
        let mut now = Time::seconds(1_000);
        let (mut arrivals, mut commits, mut cancels, mut resizes) = (0usize, 0, 0, 0);
        let (mut steps, mut outcomes) = (Vec::new(), Vec::new());
        let mut tally = Tally::default();
        let mut take = |server: &mut Server, step: Step| {
            let record = server.apply(&step);
            assert_eq!(record.findings, [], "sequence {it}: {step:?}");
            tally.add(&step, &record);
            steps.push(step);
            outcomes.push(record.outcome.clone());
            record.outcome
        };

        for step in 0..STEPS {
            let ctx = format!("sequence {it} step {step} ({cfg:?})");
            match rng.gen_range(0..10) {
                0..=5 => {
                    now += Dur::seconds(rng.gen_range(0..3600));
                    let id: u32 = rng.gen_range(0..1000);
                    let dag = small_dag(&mut rng);
                    let tasks = dag.num_tasks();
                    arrivals += 1;
                    let by_deadline =
                        cfg.deadline_every > 0 && arrivals.is_multiple_of(cfg.deadline_every);
                    let submit = Step::Submit {
                        now,
                        app_id: id,
                        dag,
                    };
                    match take(&mut server, submit) {
                        Outcome::Admitted {
                            algo,
                            completion,
                            proc_seconds,
                            ..
                        } => {
                            commits += 1;
                            let app = server.live().last().expect("an admitted app is live");
                            assert_eq!(app.resvs.len(), tasks, "{ctx}");
                            assert_eq!(
                                app.owner,
                                Owner::new(
                                    &format!("u{}", id as usize % users),
                                    &format!("p{}", id % 2)
                                ),
                                "{ctx}"
                            );
                            let area: i64 = app.resvs.iter().map(|r| r.proc_seconds()).sum();
                            assert_eq!(proc_seconds, area, "{ctx}");
                            assert_eq!(
                                Some(completion),
                                app.resvs.iter().map(|r| r.end).max(),
                                "{ctx}"
                            );
                            assert!(completion <= now + cfg.admit_horizon, "{ctx}");
                            let roster = &PROBE_ROSTER[..cfg.probe_fanout];
                            let expected = match algo {
                                Algorithm::Deadline(a) => by_deadline && roster.contains(&a),
                                other => {
                                    !by_deadline
                                        && other == Algorithm::Forward(ForwardConfig::recommended())
                                }
                            };
                            assert!(expected, "{ctx}: {algo} admitted");
                            model.push(app.clone());
                        }
                        Outcome::Rejected { reason, .. } => {
                            // Anything else would be a scheduler or
                            // calendar bug.
                            assert!(POLICY.contains(&reason.code()), "{ctx}: {reason}");
                            *rejected.entry(reason.code()).or_insert(0) += 1;
                        }
                        other => panic!("{ctx}: an arrival is admitted or rejected: {other:?}"),
                    }
                }
                6 | 7 => {
                    // One past the end about as often as a small live set
                    // has entries.
                    let k = rng.gen_range(0..model.len() + 2);
                    let outcome = take(&mut server, Step::Cancel { k });
                    if k < model.len() {
                        assert_eq!(outcome, Outcome::Cancelled, "{ctx}");
                        model.swap_remove(k);
                        cancels += 1;
                    } else {
                        let len = model.len();
                        let refusal = Fault::OutOfRange { index: k, len };
                        assert_eq!(outcome, Outcome::Failed(refusal), "{ctx}");
                        refused += 1;
                    }
                }
                _ => {
                    let k = rng.gen_range(0..model.len() + 1);
                    let Some(app) = model.get_mut(k) else {
                        let new = Reservation::new(now, now + Dur::seconds(1), 1);
                        let len = model.len();
                        assert_eq!(
                            take(&mut server, Step::Resize { k, i: 0, new }),
                            Outcome::Failed(Fault::OutOfRange { index: k, len }),
                            "{ctx}"
                        );
                        refused += 1;
                        continue;
                    };
                    let i = rng.gen_range(0..app.resvs.len() + 1);
                    let Some(held) = app.resvs.get_mut(i) else {
                        let len = app.resvs.len();
                        let new = app.resvs[0];
                        assert_eq!(
                            take(&mut server, Step::Resize { k, i, new }),
                            Outcome::Failed(Fault::OutOfRange { index: i, len }),
                            "{ctx}"
                        );
                        refused += 1;
                        continue;
                    };
                    let old = *held;
                    let (new, is_shrink) = replacement(old, &mut rng);
                    let outcome = take(&mut server, Step::Resize { k, i, new });
                    if is_shrink {
                        assert_eq!(outcome, Outcome::Resized, "{ctx}");
                        *held = new;
                        resizes += 1;
                    } else {
                        let refusal = Fault::NotAShrink { old, new };
                        assert_eq!(outcome, Outcome::Failed(refusal), "{ctx}");
                        refused += 1;
                    }
                }
            }
            check(&mut server, &model, procs, cfg.quota.is_some(), &ctx);
        }
        let ctx = format!("sequence {it} ({cfg:?})");
        replay_journal(procs, &cfg, &steps, &outcomes, &server, &ctx);

        admitted += commits;
        cancelled += cancels;
        shrunk += resizes;
        let r = tally.finish(&server, Duration::ZERO);
        assert_eq!(
            (r.apps, r.commits, r.rollbacks, r.cancels, r.resizes),
            (arrivals, commits, arrivals - commits, cancels, resizes),
            "sequence {it}"
        );
        assert_eq!((r.violations, r.live_apps), (0, model.len()), "{r:?}");
    }
    println!(
        "{admitted} admitted, {cancelled} cancelled, {shrunk} shrunk, {refused} refused, \
         rejected {rejected:?}"
    );
    // At the default draw count and above, the generator must keep reaching
    // every kind of step and every reason a caller can cause.
    let n = iterations() as usize;
    if n >= 60 {
        assert!(admitted > n && cancelled > n && shrunk > n && refused > n);
        assert!(POLICY.iter().all(|code| rejected.contains_key(code)));
    }
}
