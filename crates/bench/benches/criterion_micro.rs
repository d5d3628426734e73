//! Criterion micro-benchmarks of the hot operations: calendar slot queries,
//! CPA allocation, arrival DAG generation, and whole-schedule computations
//! at the paper's default problem size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::cpa;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_resv::QueryCost;
use resched_sim::scenario::{derive_seed, LogCache, DEFAULT_ROOT_SEED};
use resched_workloads::prelude::*;
use std::hint::black_box;

fn setup() -> (resched_core::dag::Dag, Calendar, u32) {
    let mut cache = LogCache::new();
    let spec = LogSpec::grid5000();
    let log = cache.get(&spec, DEFAULT_ROOT_SEED).clone();
    let t = sample_start_times(&log, 1, derive_seed(DEFAULT_ROOT_SEED, "cb", 0))[0];
    let rs = extract(
        &log,
        t,
        &ExtractSpec::new(1.0, ThinMethod::Real),
        derive_seed(DEFAULT_ROOT_SEED, "cb", 1),
    );
    let dag = generate(&DagParams::paper_default(), 42);
    let q = rs.q;
    (dag, rs.calendar(), q)
}

fn bench_calendar(c: &mut Criterion) {
    let (_, cal, _) = setup();
    c.bench_function("calendar/earliest_fit", |b| {
        b.iter(|| black_box(cal.earliest_fit(black_box(16), Dur::hours(2), Time::ZERO)))
    });
    // The one-width backward question: `latest_start` over one candidate.
    c.bench_function("calendar/latest_fit", |b| {
        b.iter(|| {
            let mut cost = QueryCost::default();
            black_box(cal.latest_start(
                &[(black_box(16), Dur::hours(2))],
                Time::seconds(5 * 86_400),
                Time::ZERO,
                &mut cost,
            ))
        })
    });
    c.bench_function("calendar/average_available", |b| {
        b.iter(|| black_box(cal.average_available(Time::ZERO, Time::seconds(7 * 86_400))))
    });
}

/// A calendar whose usage stays above `capacity - procs` across `r`
/// staircase reservations: the first feasible slot sits past the final
/// breakpoint, so both the calendar's slot walk and the linear reference
/// scan inspect all ~`r` breakpoints — the walk's worst case, and the
/// regime where the two should cost about the same.
fn staircase_calendar(r: usize) -> Calendar {
    let mut cal = Calendar::new(64);
    for i in 0..r {
        let procs = if i % 2 == 0 { 33 } else { 34 };
        let s = Time::seconds(i as i64 * 10);
        cal.try_add(Reservation::for_duration(s, Dur::seconds(10), procs))
            .expect("staircase reservations never overlap");
    }
    cal
}

fn bench_earliest_fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("earliest_fit");
    for &r in &[100usize, 1_000, 10_000] {
        let cal = staircase_calendar(r);
        group.bench_function(format!("calendar/{r}"), |b| {
            b.iter(|| black_box(cal.earliest_fit(black_box(33), Dur::seconds(100), Time::ZERO)))
        });
        let lin = cal.linear();
        group.bench_function(format!("linear/{r}"), |b| {
            b.iter(|| {
                black_box(lin.earliest_fit(
                    black_box(33),
                    Dur::seconds(100),
                    Time::ZERO,
                    &mut Default::default(),
                ))
            })
        });
    }
    group.finish();
}

/// The mirror image of [`bench_earliest_fit_scaling`]: a window that must
/// end by the staircase's last breakpoint, so every slot blocks and the
/// backward walk restarts `r` times before it finds room ahead of the
/// first one. A walk that re-positions after each restart pays
/// `O(r log r)` here instead of `O(r)`. The calendar side is
/// `latest_start` over one candidate.
fn bench_latest_fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("latest_fit");
    for &r in &[100usize, 1_000, 10_000] {
        let cal = staircase_calendar(r);
        let end_by = Time::seconds(r as i64 * 10);
        let not_before = Time::seconds(-1_000);
        group.bench_function(format!("calendar/{r}"), |b| {
            b.iter(|| {
                let one = [(black_box(33), Dur::seconds(100))];
                let mut cost = QueryCost::default();
                black_box(cal.latest_start(&one, end_by, not_before, &mut cost))
            })
        });
        let lin = cal.linear();
        group.bench_function(format!("linear/{r}"), |b| {
            b.iter(|| {
                black_box(lin.latest_fit(
                    black_box(33),
                    Dur::seconds(100),
                    end_by,
                    not_before,
                    &mut Default::default(),
                ))
            })
        });
    }
    group.finish();
}

/// The calendar audit `resched-serve` runs after every event, on
/// [`staircase_calendar`]s of 100, 2 000 and 20 000 breakpoints (100 is
/// what `serve_saturated` audits, thousands what `serve_admit` grows to),
/// and the four whole-span queries it asks: `peak_used` and
/// `used_integral` through the calendar and through its linear reference.
fn bench_audit(c: &mut Criterion) {
    use resched_core::validate::audit_calendar;
    for breakpoints in [100usize, 2_000, 20_000] {
        let cal = staircase_calendar(breakpoints - 1);
        assert_eq!(cal.num_breakpoints(), breakpoints);
        let (from, to) = (Time::ZERO, cal.horizon().expect("a busy calendar"));
        c.bench_function(&format!("audit/{breakpoints}"), |b| {
            b.iter(|| black_box(audit_calendar(black_box(&cal))))
        });
        c.bench_function(&format!("calendar/peak_used/{breakpoints}"), |b| {
            b.iter(|| black_box(black_box(&cal).peak_used(from, to)))
        });
        c.bench_function(&format!("calendar/used_integral/{breakpoints}"), |b| {
            b.iter(|| black_box(black_box(&cal).used_integral(from, to)))
        });
        let lin = cal.linear();
        c.bench_function(&format!("linear/peak_used/{breakpoints}"), |b| {
            b.iter(|| black_box(black_box(&lin).peak_used(from, to)))
        });
        c.bench_function(&format!("linear/used_integral/{breakpoints}"), |b| {
            b.iter(|| black_box(black_box(&lin).used_integral(from, to)))
        });
    }
}

/// The machine the width-scan groups search: 430 processors holding 300
/// seeded reservations over a month.
fn month_of_reservations() -> Calendar {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(19);
    let mut cal = Calendar::new(430);
    while cal.num_reservations() < 300 {
        let start = Time::seconds(rng.gen_range(0..30 * 86_400i64));
        let dur = Dur::seconds(rng.gen_range(3_600..2 * 86_400i64));
        let _ = cal.try_add(Reservation::for_duration(
            start,
            dur,
            rng.gen_range(1..=300),
        ));
    }
    cal
}

/// The forward scheduler's per-task slot search, two ways: the calendar's
/// one-walk `earliest_finish` over all width candidates, and the loop it
/// replaced — one `earliest_fit` per candidate, best completion kept —
/// which lives on here (and as the schedulers' test oracle), not in `core`.
/// On [`month_of_reservations`]; the candidates are the first 8 / 64 / 430 widths of one long Amdahl task
/// (strictly shorter with every processor), searched from four ready times.
fn bench_forward_scan(c: &mut Criterion) {
    let cal = month_of_reservations();
    let cost = TaskCost::new(Dur::seconds(2_000_000), 0.02);
    let readies = [0, 5, 12, 20].map(|day| Time::seconds(day * 86_400));

    let per_width = |cands: &[(u32, Dur)], ready: Time| {
        let mut best: Option<Reservation> = None;
        for &(m, dur) in cands {
            let fit = Reservation::for_duration(cal.earliest_fit(m, dur, ready), dur, m);
            if best.is_none_or(|b| fit.end < b.end) {
                best = Some(fit);
            }
        }
        best.expect("at least one candidate")
    };

    let mut group = c.benchmark_group("forward_scan");
    for k in [8u32, 64, 430] {
        let cands: Vec<(u32, Dur)> = (1..=k).map(|m| (m, cost.exec_time(m))).collect();
        let mut walk_cost = QueryCost::default();
        for &ready in &readies {
            let one = cal.earliest_finish(&cands, ready, false, &mut walk_cost);
            assert_eq!(one, per_width(&cands, ready), "{k} candidates from {ready}");
        }
        group.bench_function(format!("one_walk/{k}"), |b| {
            b.iter(|| {
                let mut cost = QueryCost::default();
                for &ready in &readies {
                    black_box(cal.earliest_finish(black_box(&cands), ready, false, &mut cost));
                }
            })
        });
        group.bench_function(format!("per_width/{k}"), |b| {
            b.iter(|| {
                for &ready in &readies {
                    black_box(per_width(black_box(&cands), ready));
                }
            })
        });
    }
    group.finish();
}

/// RESSCHEDDL's per-task slot search, one walk against the loop it replaced
/// — one single-candidate `latest_start` per width, then the latest start
/// (the aggressive rule) or the first start at or after a threshold (the
/// conservative one) — which lives on here (and as the schedulers' test
/// oracle), not in `core`. On [`month_of_reservations`], the first 8 / 64 /
/// 430 widths of a shorter Amdahl task (one that fits between the
/// reservations), searched backward from four deadlines; the conservative
/// legs ask for a start in the last twelve hours before the deadline, which
/// takes five processors on an empty machine and more where reservations
/// are in the way — so their per-width loop stops early when the answer is
/// narrow.
fn bench_backward_scan(c: &mut Criterion) {
    let cal = month_of_reservations();
    let cost = TaskCost::new(Dur::seconds(200_000), 0.02);
    let deadlines = [8, 15, 24, 33].map(|day| Time::seconds(day * 86_400));
    let slack = Dur::hours(12);

    let per_width = |cands: &[(u32, Dur)], dl: Time, threshold: Option<Time>| {
        let mut latest: Option<Reservation> = None;
        for &(m, dur) in cands {
            let mut cost = QueryCost::default();
            let Some(fit) = cal.latest_start(&[(m, dur)], dl, Time::ZERO, &mut cost) else {
                continue;
            };
            let start = fit.start;
            if threshold.is_some_and(|th| start >= th) {
                return Some(fit);
            }
            if threshold.is_none() && latest.is_none_or(|b| start > b.start) {
                latest = Some(fit);
            }
        }
        latest
    };

    let mut group = c.benchmark_group("backward_scan");
    for k in [8u32, 64, 430] {
        let cands: Vec<(u32, Dur)> = (1..=k).map(|m| (m, cost.exec_time(m))).collect();
        let mut walk_cost = QueryCost::default();
        for &dl in &deadlines {
            let one = cal.latest_start(&cands, dl, Time::ZERO, &mut walk_cost);
            assert_eq!(one, per_width(&cands, dl, None), "{k} candidates by {dl}");
            let one = cal.narrowest_start_from(&cands, dl, dl - slack, &mut walk_cost);
            assert_eq!(
                one,
                per_width(&cands, dl, Some(dl - slack)),
                "{k} candidates in the twelve hours before {dl}"
            );
        }
        group.bench_function(format!("one_walk/{k}"), |b| {
            b.iter(|| {
                let mut cost = QueryCost::default();
                for &dl in &deadlines {
                    black_box(cal.latest_start(black_box(&cands), dl, Time::ZERO, &mut cost));
                }
            })
        });
        group.bench_function(format!("per_width/{k}"), |b| {
            b.iter(|| {
                for &dl in &deadlines {
                    black_box(per_width(black_box(&cands), dl, None));
                }
            })
        });
        group.bench_function(format!("one_walk_conservative/{k}"), |b| {
            b.iter(|| {
                let mut cost = QueryCost::default();
                for &dl in &deadlines {
                    let th = dl - slack;
                    black_box(cal.narrowest_start_from(black_box(&cands), dl, th, &mut cost));
                }
            })
        });
        group.bench_function(format!("per_width_conservative/{k}"), |b| {
            b.iter(|| {
                for &dl in &deadlines {
                    black_box(per_width(black_box(&cands), dl, Some(dl - slack)));
                }
            })
        });
    }
    group.finish();
}

/// Calendar mutation cost, split by path. A reservation whose endpoints
/// coincide with existing breakpoints is a *pure bump* of the usage levels
/// it covers. Unaligned endpoints insert/erase breakpoints and are O(B) by
/// necessity (the step vector shifts). Each iteration does an
/// add followed by its exact-inverse remove, so the calendar is restored
/// in place and no per-iteration clone pollutes the measurement.
fn bench_calendar_mutate(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar_mutate");
    for &r in &[1_000usize, 10_000] {
        let span = r as i64 * 10;
        // Both endpoints are existing staircase breakpoints: pure bump
        // across ~all B steps.
        let aligned = Reservation::new(Time::ZERO, Time::seconds(span), 10);
        let mut cal = staircase_calendar(r);
        group.bench_function(format!("aligned_add_remove/{r}"), |b| {
            b.iter(|| {
                cal.try_add(black_box(aligned)).unwrap();
                cal.try_remove(black_box(aligned)).unwrap();
            })
        });
        // Endpoints fall mid-step: breakpoint insertion + erasure dominate.
        let unaligned = Reservation::new(Time::seconds(5), Time::seconds(span - 5), 10);
        let mut cal = staircase_calendar(r);
        group.bench_function(format!("unaligned_add_remove/{r}"), |b| {
            b.iter(|| {
                cal.try_add(black_box(unaligned)).unwrap();
                cal.try_remove(black_box(unaligned)).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_cpa(c: &mut Criterion) {
    let dag = generate(&DagParams::paper_default(), 42);
    c.bench_function("cpa/allocate_n50_p512", |b| {
        b.iter(|| black_box(cpa::allocate(&dag, 512, StoppingCriterion::Stringent)))
    });
    let alloc = cpa::allocate(&dag, 512, StoppingCriterion::Stringent);
    c.bench_function("cpa/map_n50", |b| {
        b.iter(|| black_box(cpa::map(&dag, &alloc, Time::ZERO)))
    });
}

/// Building an arrival's DAG, which `resched-serve` does once per arrival:
/// `daggen/generate/N` is `generate` of a paper-default N-task DAG over
/// seeds 0..64 in turn, `dag/build/N` only the `DagBuilder::build` of one
/// such DAG's tasks and edges (the builder cloned outside the timing).
fn bench_arrival_dag(c: &mut Criterion) {
    use resched_core::dag::DagBuilder;
    let params = |num_tasks| DagParams {
        num_tasks,
        ..DagParams::paper_default()
    };
    let mut group = c.benchmark_group("daggen");
    for n in [10, 100] {
        let p = params(n);
        let mut seed = 0u64;
        group.bench_function(format!("generate/{n}"), |b| {
            b.iter(|| {
                seed = (seed + 1) % 64;
                black_box(generate(&p, black_box(seed)))
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("dag");
    for n in [10, 100] {
        let dag = generate(&params(n), 42);
        let mut builder = DagBuilder::new();
        for t in dag.task_ids() {
            builder.add_task(dag.cost(t));
        }
        for t in dag.task_ids() {
            for &u in dag.succs(t) {
                builder.add_edge(t, u);
            }
        }
        assert_eq!(
            builder.clone().build().map(|d| d.num_edges()),
            Ok(dag.num_edges())
        );
        group.bench_function(format!("build/{n}"), |b| {
            b.iter_batched(
                || builder.clone(),
                |builder| black_box(builder.build()),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The Amdahl evaluation every scheduler layer calls: `exec_time` over
/// the widths of the Table-9 platform, and one width-candidate refill per
/// task of a paper-default 100-task DAG at p = 1152 — the loop of the
/// crate-private `task::Widths` under the default tie rule (drop a width
/// no shorter than a narrower one), over the public `exec_time`. Called
/// from this crate, so a `resv` or `core` function on that path losing
/// its inlining shows up here as a slower row.
fn bench_amdahl(c: &mut Criterion) {
    const P: u32 = 1152;
    let mut group = c.benchmark_group("amdahl");
    let cost = TaskCost::new(Dur::seconds(7_231), 0.13);
    group.bench_function("exec_time/1..=1152", |b| {
        b.iter(|| {
            (1..=P)
                .map(|m| black_box(&cost).exec_time(m).as_seconds())
                .sum::<i64>()
        })
    });
    let dag = generate(
        &DagParams {
            num_tasks: 100,
            ..DagParams::paper_default()
        },
        42,
    );
    let mut candidates: Vec<(u32, Dur)> = Vec::new();
    group.bench_function("widths_refill/n100_p1152", |b| {
        b.iter(|| {
            let mut kept = 0;
            for cost in dag.costs() {
                candidates.clear();
                for m in 1..=P {
                    let dur = cost.exec_time(m);
                    if candidates
                        .last()
                        .is_none_or(|&(_, shortest)| dur < shortest)
                    {
                        candidates.push((m, dur));
                    }
                }
                kept += black_box(&candidates).len();
            }
            kept
        })
    });
    group.finish();
}

/// The allocation loop vs the legacy full-rebuild oracle: on the PR-4
/// headline shape (n = 100 dense, `Stringent`), where each growth
/// iteration used to rebuild all bottom/top levels from scratch, and on
/// the shapes the repo benchmark's workloads allocate — serve's 10-task
/// DAGs under `Classic` at q ≈ 430, Table 9's 100-task paper-default DAGs
/// under `Classic` at p = 1152. The last row asks one `CpaCache` for
/// Table 9's q then p, so the second pool is a continuation of the first.
fn bench_cpa_alloc(c: &mut Criterion) {
    let sized = |num_tasks| DagParams {
        num_tasks,
        ..DagParams::paper_default()
    };
    let dense = DagParams {
        density: 0.9,
        ..sized(100)
    };
    let (dense, n10, n100) = (
        generate(&dense, 42),
        generate(&sized(10), 42),
        generate(&sized(100), 42),
    );
    let classic = StoppingCriterion::Classic;
    let mut group = c.benchmark_group("cpa_alloc");
    for (id, dag, pool, criterion) in [
        ("n100_dense_p512", &dense, 512, StoppingCriterion::Stringent),
        ("n10_p430_classic", &n10, 430, classic),
        ("n100_default_p1152_classic", &n100, 1152, classic),
    ] {
        group.bench_function(format!("allocate/{id}"), |b| {
            b.iter(|| black_box(cpa::allocate(dag, pool, criterion)))
        });
        group.bench_function(format!("reference/{id}"), |b| {
            b.iter(|| black_box(cpa::allocate_reference(dag, pool, criterion)))
        });
    }
    group.bench_function("cache_q_then_p/n100_default_q576_p1152_classic", |b| {
        b.iter(|| {
            let mut cache = cpa::CpaCache::new();
            black_box(cache.cpa(&n100, 576, classic));
            black_box(cache.cpa(&n100, 1152, classic).allocs.len())
        })
    });
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let (dag, cal, q) = setup();
    c.bench_function("forward/bl_cpar_bd_cpar_n50", |b| {
        b.iter_batched(
            || cal.clone(),
            |cal| {
                black_box(schedule_forward(
                    &dag,
                    &cal,
                    Time::ZERO,
                    q,
                    ForwardConfig::recommended(),
                ))
            },
            BatchSize::SmallInput,
        )
    });
    let reference = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let deadline = Time::ZERO + reference.turnaround() * 2;
    c.bench_function("deadline/dl_rc_cpar_n50", |b| {
        b.iter(|| {
            black_box(
                schedule_deadline(
                    &dag,
                    &cal,
                    Time::ZERO,
                    q,
                    deadline,
                    DeadlineAlgo::RcCpaR,
                    DeadlineConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    // An infeasible deadline is the hybrids' worst case: the whole λ sweep
    // runs (minus the passes the warm start proves redundant) and every
    // pass ends in failed probes.
    let small = generate(
        &DagParams {
            num_tasks: 10,
            ..DagParams::paper_default()
        },
        42,
    );
    let reference = schedule_forward(&small, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let too_tight = Time::ZERO + reference.turnaround() / 2;
    let infeasible = |deadline| {
        schedule_deadline(
            &small,
            &cal,
            Time::ZERO,
            q,
            deadline,
            DeadlineAlgo::RcbdCpaRLambda,
            DeadlineConfig::default(),
        )
        .is_err()
    };
    assert!(infeasible(too_tight), "half the forward turnaround is met");
    c.bench_function("deadline/dl_rcbd_cpar_l_n10", |b| {
        b.iter(|| black_box(infeasible(black_box(too_tight))))
    });
}

/// What serve's probe roster costs per deadline arrival, two ways: one
/// prepared `Roster` asked for the first 1 / 2 / 4 roster entries (the
/// CPA(`q`) allocation and the `BL_CPAR` order computed once), and that
/// many `schedule_deadline` calls (each computing both), which is what
/// serve issued before. A 10-task paper-default DAG — serve's arrival
/// — on [`month_of_reservations`], deadline twice the forward turn-around.
fn bench_deadline_roster(c: &mut Criterion) {
    // `serve::PROBE_ROSTER` (this crate does not depend on `serve`).
    const ROSTER: [DeadlineAlgo; 4] = [
        DeadlineAlgo::BdCpaR,
        DeadlineAlgo::RcbdCpaRLambda,
        DeadlineAlgo::RcCpaRLambda,
        DeadlineAlgo::BdAll,
    ];
    let cal = month_of_reservations();
    let dag = generate(
        &DagParams {
            num_tasks: 10,
            ..DagParams::paper_default()
        },
        42,
    );
    let (q, cfg) = (215, DeadlineConfig::default());
    let reference = schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
    let deadline = Time::ZERO + reference.turnaround() * 2;
    let per_algorithm = |probed: &[DeadlineAlgo]| -> Vec<_> {
        let alone = |&algo| schedule_deadline(&dag, &cal, Time::ZERO, q, deadline, algo, cfg);
        probed.iter().map(alone).collect()
    };
    let one_call = |probed: &[DeadlineAlgo]| -> Vec<_> {
        let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, q, cfg);
        probed
            .iter()
            .map(|&algo| roster.schedule(deadline, algo))
            .collect()
    };
    assert_eq!(one_call(&ROSTER), per_algorithm(&ROSTER));
    assert!(one_call(&ROSTER).iter().any(|out| out.is_ok()));

    let mut group = c.benchmark_group("deadline_roster");
    for fanout in [1, 2, 4] {
        let probed = &ROSTER[..fanout];
        group.bench_function(format!("one_call/{fanout}"), |b| {
            b.iter(|| black_box(one_call(black_box(probed))))
        });
        group.bench_function(format!("per_algorithm/{fanout}"), |b| {
            b.iter(|| black_box(per_algorithm(black_box(probed))))
        });
    }
    group.finish();
}

/// The admission gate on a serve-shaped ledger: `held` reservations
/// (10 min – 4 h, 1–64 cores, over 30 days) spread round-robin over 8
/// users in two projects, one concurrent-core rule per user. `admit_all`
/// asks a 10-reservation batch for `u0`; its tenth reservation breaks the
/// cap, so every reservation is checked, the batch rolls back and the
/// ledger is the same on every iteration. `audit` asks all 8 rules.
fn bench_quota(c: &mut Criterion) {
    use resched_resv::{AdmissionGate, Owner, QuotaRule, QuotaSet, QuotaSubject};
    const USERS: u64 = 8;
    const CAP: u32 = 1 << 20;
    let owner = |u: u64| Owner::new(&format!("u{u}"), &format!("p{}", u % 2));
    let mut group = c.benchmark_group("quota");
    for held in [200u64, 2_000] {
        let rules = (0..USERS).fold(QuotaSet::unlimited(), |set, u| {
            set.with_rule(QuotaRule::concurrent(
                QuotaSubject::User(format!("u{u}")),
                CAP,
            ))
        });
        let mut gate = AdmissionGate::new(rules);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        for i in 0..held {
            let start = Time::seconds(next(30 * 86_400) as i64);
            let dur = Dur::seconds(600 + next(4 * 3_600 - 600) as i64);
            let r = Reservation::for_duration(start, dur, 1 + next(64) as u32);
            gate.admit(&owner(i % USERS), r).unwrap();
        }
        let mut batch: Vec<Reservation> = (0..9)
            .map(|k| Reservation::for_duration(Time::seconds(k * 3_600), Dur::seconds(7_200), 8))
            .collect();
        batch.push(Reservation::for_duration(Time::ZERO, Dur::seconds(60), CAP));
        let u0 = owner(0);
        assert!(gate.admit_all(&u0, &batch).is_err());
        assert_eq!(gate.held() as u64, held);
        assert!(gate.audit().is_empty());
        group.bench_function(format!("admit_all/{held}"), |b| {
            b.iter(|| black_box(gate.admit_all(&u0, black_box(&batch))))
        });
        group.bench_function(format!("audit/{held}"), |b| {
            b.iter(|| black_box(gate.audit()))
        });
    }
    group.finish();
}

/// Overhead of the observability layer. `cargo bench -p resched-bench`
/// builds without the collector, as every shipped binary is built: every
/// primitive is then a no-op and must measure at ~zero (the optimizer
/// deletes the calls). Under `--features resched-core/obs`,
/// `span_enter`/`counter_add` outside an observe scope cost one
/// thread-local check, and a fully observed forward run must stay within a
/// few percent of the plain one.
fn bench_obs(c: &mut Criterion) {
    use resched_core::obs;
    let mut group = c.benchmark_group("obs");
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| {
            let g = obs::span_enter("bench.span");
            black_box(&g);
        })
    });
    group.bench_function("counter_add", |b| {
        b.iter(|| obs::counter_add("bench.counter", black_box(1)))
    });
    let (dag, cal, q) = setup();
    group.bench_function("forward_plain", |b| {
        b.iter_batched(
            || cal.clone(),
            |cal| {
                black_box(schedule_forward(
                    &dag,
                    &cal,
                    Time::ZERO,
                    q,
                    ForwardConfig::recommended(),
                ))
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("forward_observed", |b| {
        b.iter_batched(
            || cal.clone(),
            |cal| {
                black_box(obs::observe("bench.forward", || {
                    schedule_forward(&dag, &cal, Time::ZERO, q, ForwardConfig::recommended())
                }))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_calendar, bench_audit, bench_earliest_fit_scaling, bench_latest_fit_scaling, bench_forward_scan, bench_backward_scan, bench_calendar_mutate, bench_cpa, bench_arrival_dag, bench_amdahl, bench_cpa_alloc, bench_schedulers, bench_deadline_roster, bench_quota, bench_obs
}
criterion_main!(benches);
