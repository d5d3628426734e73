//! The traced run: the same inputs, driven layer by layer.
//!
//! [`serve_replay`] is a step-for-step mirror of `resched_serve::run` that
//! wraps every call into a layer in a span. It must make exactly the
//! decisions `serve::run` makes; [`ServeCounts`] is compared between the
//! two on every traced run (the parity guard), so a change to `serve::run`
//! that this file does not follow fails the benchmark instead of quietly
//! detaching the per-layer numbers from the end-to-end ones.

use crate::layers::{
    self, Algorithm, DagParams, Owner, Reservation, RunError, Schedule, ScheduleStats, ServeReport,
    Time, PROBE_ROSTER,
};
use crate::trace::Tracer;
use crate::workloads::{Case, Replay};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The deterministic outcome of one serve replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeCounts {
    pub apps: usize,
    pub commits: usize,
    pub rollbacks: usize,
    pub cancels: usize,
    pub resizes: usize,
    pub quota_denied: u64,
    pub live_apps: usize,
    pub utilization: f64,
    pub violations: usize,
}

impl ServeCounts {
    pub fn of(r: &ServeReport) -> ServeCounts {
        ServeCounts {
            apps: r.apps,
            commits: r.commits,
            rollbacks: r.rollbacks,
            cancels: r.cancels,
            resizes: r.resizes,
            quota_denied: r.quota_denied,
            live_apps: r.live_apps,
            utilization: r.utilization,
            violations: r.violations,
        }
    }
}

/// Work counts gathered at the span boundaries of a traced rep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Summed `Schedule::stats` of every schedule a layer returned. A
    /// failed deadline probe returns no schedule, hence no stats: see
    /// `infeasible`.
    pub stats: ScheduleStats,
    pub probes: u64,
    pub infeasible: u64,
    pub validate_rejected: u64,
    pub quota_denied: u64,
    /// Reservations in the calendar, summed over every audit.
    pub audited_reservations: u64,
    pub reservations_final: u64,
    pub breakpoints_final: u64,
}

/// `serve::run`'s private per-application seed derivation.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct LiveApp {
    owner: Owner,
    resvs: Vec<Reservation>,
}

/// Mirror of serve's `probe_deadline`: one `core.backward.schedule` span
/// parenting one `core.backward.probe` child per roster algorithm, one
/// after another as serve runs them on the single thread of a timed run.
#[allow(clippy::too_many_arguments)]
fn probe_deadline(
    tr: &mut Tracer,
    tally: &mut Tally,
    dag: &layers::Dag,
    cal: &layers::Calendar,
    now: Time,
    q: u32,
    deadline: Time,
    fanout: usize,
) -> Option<Schedule> {
    let roster = &PROBE_ROSTER[..fanout.clamp(1, PROBE_ROSTER.len())];
    tr.enter("core.backward.schedule");
    let mut best: Option<Schedule> = None;
    for algo in roster {
        let s = tr.span("core.backward.probe", || {
            layers::schedule_deadline(dag, cal, now, q, deadline, *algo)
        });
        tally.probes += 1;
        match s {
            Some(s) => {
                tally.stats.absorb(s.stats);
                // Earliest completion, lowest roster index on ties.
                if best
                    .as_ref()
                    .is_none_or(|b| s.completion() < b.completion())
                {
                    best = Some(s);
                }
            }
            None => tally.infeasible += 1,
        }
    }
    tr.exit();
    best
}

/// Replay one log through the mirrored serve loop. Every iteration is one
/// `serve.arrival` root span; `next_arrival` numbers them across replays.
pub fn serve_replay(
    tr: &mut Tracer,
    tally: &mut Tally,
    replay: &Replay,
    next_arrival: &mut u64,
) -> ServeCounts {
    let cfg = &replay.cfg;
    let (procs, jobs) = layers::replay_jobs(&replay.log, cfg);

    let mut cal = layers::Calendar::new(procs);
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(cfg.seed, u64::MAX));
    let params = DagParams {
        num_tasks: cfg.tasks_per_app.max(1),
        ..DagParams::paper_default()
    };
    let users = cfg.quota.map_or(1, |q| q.users.max(1));
    let mut gate = cfg.quota.as_ref().map(layers::quota_gate);
    let owner_of = |id: u32| {
        Owner::new(
            &format!("u{}", id as usize % users),
            &format!("p{}", id % 2),
        )
    };

    let mut live: Vec<LiveApp> = Vec::new();
    let mut c = ServeCounts::default();
    let mut events = 0usize;

    macro_rules! audit {
        () => {
            if cfg.audit_every > 0 && events.is_multiple_of(cfg.audit_every) {
                tally.audited_reservations += cal.num_reservations() as u64;
                c.violations +=
                    tr.span("core.validate.audit", || layers::audit(&cal, gate.as_ref()));
            }
        };
    }

    for job in &jobs {
        tr.set_arrival(*next_arrival);
        *next_arrival += 1;
        tr.enter("serve.arrival");
        let now = job.submit;
        c.apps += 1;
        events += 1;

        let dag = tr.span("daggen.generate", || {
            layers::generate_dag(&params, derive_seed(cfg.seed, u64::from(job.id)))
        });
        let q = if cal.num_breakpoints() > 0 {
            tr.span("resv.calendar.average_available", || {
                layers::average_available(&cal, now - cfg.q_window, now)
            })
        } else {
            cal.capacity()
        };

        let use_deadline = cfg.deadline_every > 0 && c.apps.is_multiple_of(cfg.deadline_every);
        let deadline = now + cfg.admit_horizon;
        let owner = owner_of(job.id);
        let mut denied = false;
        let committed = {
            let mut txn = cal.transaction();
            let sched = if use_deadline {
                probe_deadline(
                    tr,
                    tally,
                    &dag,
                    txn.calendar(),
                    now,
                    q,
                    deadline,
                    cfg.probe_fanout,
                )
            } else {
                let s = tr.span("core.forward.schedule", || {
                    layers::schedule_forward(&dag, txn.calendar(), now, q)
                });
                tally.stats.absorb(s.stats);
                (s.completion() <= deadline).then_some(s)
            };
            let admitted: Option<Vec<Reservation>> = 'admit: {
                let Some(sched) = sched else {
                    break 'admit None;
                };
                let checked = tr.span("core.validate.check", || {
                    let k = use_deadline.then_some(deadline);
                    layers::validate(&dag, txn.calendar(), now, k, &sched)
                });
                if checked.is_err() {
                    tally.validate_rejected += 1;
                    c.violations += 1;
                    break 'admit None;
                }
                let resvs: Vec<Reservation> = dag
                    .task_ids()
                    .map(|t| sched.placement(t).reservation())
                    .collect();
                if let Some(g) = gate.as_mut() {
                    let ok = tr.span("resv.quotas.admit_all", || {
                        layers::gate_admit_all(g, &owner, &resvs)
                    });
                    if !ok {
                        denied = true;
                        break 'admit None;
                    }
                }
                for r in &resvs {
                    let ok = tr.span("resv.txn.try_add", || layers::txn_try_add(&mut txn, *r));
                    assert!(ok, "validated placement must fit");
                }
                Some(resvs)
            };
            match admitted {
                Some(resvs) => {
                    tr.span("resv.txn.commit", || layers::txn_commit(txn));
                    live.push(LiveApp { owner, resvs });
                    true
                }
                None => {
                    tr.span("resv.txn.rollback", || layers::txn_rollback(txn));
                    false
                }
            }
        };

        if committed {
            c.commits += 1;
        } else {
            c.rollbacks += 1;
            if denied {
                c.quota_denied += 1;
                tally.quota_denied += 1;
            }
        }
        audit!();

        if committed
            && cfg.cancel_every > 0
            && c.commits.is_multiple_of(cfg.cancel_every)
            && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            let app = live.swap_remove(k);
            events += 1;
            let ok = tr.span("resv.txn.cancel", || {
                let mut txn = cal.transaction();
                let ok = app
                    .resvs
                    .iter()
                    .all(|r| layers::txn_try_remove(&mut txn, *r));
                if ok {
                    layers::txn_commit(txn);
                } else {
                    layers::txn_rollback(txn);
                }
                ok
            });
            if ok {
                c.cancels += 1;
                if let Some(g) = gate.as_mut() {
                    c.violations += tr.span("resv.quotas.release_replace", || {
                        app.resvs
                            .iter()
                            .filter(|r| !layers::gate_release(g, &app.owner, r))
                            .count()
                    });
                }
            } else {
                c.violations += 1;
            }
            audit!();
        }

        if committed
            && cfg.resize_every > 0
            && c.commits.is_multiple_of(cfg.resize_every)
            && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            let longest =
                (0..live[k].resvs.len()).max_by_key(|&i| live[k].resvs[i].duration().as_seconds());
            if let Some(i) = longest {
                let old = live[k].resvs[i];
                let mid = old.start.midpoint(old.end);
                if mid > old.start {
                    events += 1;
                    let new = Reservation::new(old.start, mid, old.procs);
                    let ok = tr.span("resv.txn.resize", || {
                        let mut txn = cal.transaction();
                        let ok = layers::txn_try_resize(&mut txn, old, new);
                        if ok {
                            layers::txn_commit(txn);
                        } else {
                            layers::txn_rollback(txn);
                        }
                        ok
                    });
                    if ok {
                        live[k].resvs[i] = new;
                        c.resizes += 1;
                        if let Some(g) = gate.as_mut() {
                            let ok = tr.span("resv.quotas.release_replace", || {
                                layers::gate_replace(g, &live[k].owner, &old, new)
                            });
                            c.violations += usize::from(!ok);
                        }
                    } else {
                        c.violations += 1;
                    }
                    audit!();
                }
            }
        }
        tr.exit();
        replay_cpa(tr, &dag, procs, q);
    }

    // serve's final audit runs after its wall clock stops: untimed here too.
    c.violations += layers::audit(&cal, gate.as_ref());
    c.utilization = match (jobs.first(), cal.horizon()) {
        (Some(first), Some(h)) if h > first.submit => cal.average_utilization(first.submit, h),
        _ => 0.0,
    };
    c.live_apps = live.len();
    tally.reservations_final += cal.num_reservations() as u64;
    tally.breakpoints_final += cal.num_breakpoints() as u64;
    c
}

/// One `Algorithm::run` call of a batch rep.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// The stopwatch around the call.
    pub ns: u64,
    /// The schedule's work counters; `None` when the deadline was
    /// infeasible (an outcome, not a failure).
    pub stats: Option<ScheduleStats>,
}

/// One batch rep: every call in instance-major, Table-9-row-minor order,
/// and how many operations failed a check.
pub struct BatchRep {
    pub calls: Vec<Call>,
    pub failed: u64,
}

/// Time `f`: as a `name` span under a fresh `root` span when tracing, with a
/// bare stopwatch when not.
fn timed<T>(
    tr: &mut Option<&mut Tracer>,
    root: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tr {
        Some(tr) => {
            tr.enter(root);
            tr.enter(name);
            let out = f();
            let ns = tr.exit();
            tr.exit();
            (out, ns)
        }
        None => {
            let t0 = std::time::Instant::now();
            let out = f();
            (out, t0.elapsed().as_nanos() as u64)
        }
    }
}

/// Schedule every instance with every Table-9 row through the program's
/// `Algorithm::run`, and check every `Ok` schedule with the algorithm's
/// oracle (outside the stopwatch). With a tracer each call is a
/// `batch.call` root and each check a `replay` root; each instance's CPA
/// allocation and bottom levels are then re-computed under a `replay` root
/// of their own.
pub fn batch_rep(cases: &[Case], mut tr: Option<&mut Tracer>) -> BatchRep {
    let algos = layers::table9_algorithms();
    let mut rep = BatchRep {
        calls: Vec::with_capacity(cases.len() * algos.len()),
        failed: 0,
    };
    for (i, case) in cases.iter().enumerate() {
        for (a, algo) in algos.iter().enumerate() {
            if let Some(tr) = tr.as_mut() {
                tr.set_arrival((i * algos.len() + a) as u64);
            }
            let layer = match algo {
                Algorithm::Forward(_) => "core.forward.schedule",
                _ => "core.backward.schedule",
            };
            let (result, ns) = timed(&mut tr, "batch.call", layer, || {
                layers::algorithm_run(algo, &case.dag, &case.cal, case.q, case.deadline)
            });
            let stats = match result {
                Ok(s) => {
                    let (checked, _) = timed(&mut tr, "replay", "core.validate.check", || {
                        layers::algorithm_check(algo, &case.dag, &case.cal, case.deadline, &s)
                    });
                    rep.failed += u64::from(checked.is_err());
                    Some(s.stats)
                }
                Err(RunError::Infeasible(_)) => None,
                Err(RunError::DeadlineRequired) => {
                    rep.failed += 1;
                    None
                }
            };
            rep.calls.push(Call { ns, stats });
        }
        if let Some(tr) = tr.as_mut() {
            replay_cpa(tr, &case.dag, case.cal.capacity(), case.q);
        }
    }
    rep
}

/// Re-compute, on their own, the CPA allocation bound and the bottom levels
/// the recommended schedulers derive for (`dag`, `q`): the two are private
/// steps of `core.forward` / `core.backward`, so a replay under its own
/// root (not part of the traced wall) is how they are timed from outside.
fn replay_cpa(tr: &mut Tracer, dag: &layers::Dag, p: u32, q: u32) {
    tr.enter("replay");
    tr.span("core.cpa.alloc_replay", || {
        std::hint::black_box(layers::allocation_bounds(dag, p, q));
    });
    tr.span("core.bl.levels_replay", || {
        std::hint::black_box(layers::bottom_levels(dag, p, q));
    });
    tr.exit();
}
