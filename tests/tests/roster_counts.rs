//! One prepared instance per problem: pinned by counts, not by time.
//!
//! Every algorithm of `serve::PROBE_ROSTER` starts from the CPA(`q`)
//! allocation. A deadline arrival therefore computes it once whatever the
//! probe fan-out — one `cpa.cache.miss`, one allocation's worth of
//! `cpa.alloc.iterations` — where one `schedule_deadline` call per roster
//! entry computed it `fanout` times; an arrival whose deadline is below the
//! instance floor computes it not at all. Either way the arrival asks the
//! floor one question (`core.floor.questions`). What the arrival's probes
//! count — allocation requests, passes — is read from the work its outcome
//! carries, and cross-checked against the answers of a second `Roster` on
//! the calendar the arrival saw. Table 6's instance,
//! asked for five tightest-deadline searches and a loose pass, computes each
//! pool it asks about once, where a fresh preparation per probe computed
//! CPA(`q`) per probe.

use resched_core::backward::DeadlineInfeasible;
use resched_core::obs::{self, names};
use resched_core::prelude::*;
use resched_core::schedule::ScheduleStats;
use resched_daggen::{generate, DagParams};
use resched_serve::{Outcome, Reason, ServeConfig, Server, Step, PROBE_ROSTER};
use resched_sim::exp::deadline::{LOOSE_FACTOR, SEARCH_PRECISION};
use resched_sim::scenario::{default_sweep, instances_for, LogCache, ResvSpec, Scale};
use resched_workloads::prelude::*;

#[test]
fn table6_searches_and_loose_pass_allocate_each_pool_once() {
    let (scale, seed) = (
        Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        },
        resched_sim::scenario::DEFAULT_ROOT_SEED,
    );
    let specs = [
        ResvSpec {
            log: LogSpec::sdsc_blue(),
            phi: 0.1,
            method: ThinMethod::Expo,
        },
        ResvSpec::grid5000(),
    ];
    let mut logs = LogCache::new();
    for spec in specs {
        let log = logs.get(&spec.log, seed).clone();
        for inst in instances_for(&default_sweep(), &spec, &log, scale, seed) {
            let cal = inst.resv.calendar();
            let (p, q) = (cal.capacity(), inst.resv.q);
            // What `sim::exp::deadline` asks of one instance.
            let ((), report) = obs::observe("instance", || {
                let mut roster =
                    Roster::prepare(&inst.dag, &cal, Time::ZERO, q, DeadlineConfig::default());
                let mut latest = Time::ZERO;
                for algo in DeadlineAlgo::TABLE6 {
                    let (k, _) = roster.tightest(algo, SEARCH_PRECISION).expect("achievable");
                    latest = latest.max(k);
                }
                let loose = (latest - Time::ZERO).as_seconds() as f64 * LOOSE_FACTOR;
                for algo in DeadlineAlgo::TABLE6 {
                    let _ = roster.schedule(Time::seconds(loose as i64), algo);
                }
            });
            let at = format!("{}, q = {q} of {p}", spec.log.name);
            // CPA(q) for the order; CPA(p) for the `*_CPA` algorithms,
            // unless the two pools are one.
            let pools = if Pool::effective(q, p) == p { 1 } else { 2 };
            let counter = |name| report.metrics.counter(name);
            assert_eq!(counter(names::CPA_CACHE_MISS), pools, "{at}");
            let prep = report.profile.span(names::SPAN_DEADLINE_PREP);
            assert_eq!(prep.map(|s| s.calls), Some(1), "{at}");
            // Every probe the floor does not answer, and every forward
            // guess, reads the same allocations; the searches' lowest
            // probes fall below the floor and read nothing.
            let skips = counter(names::BACKWARD_FLOOR_SKIPS);
            assert!(skips > 0, "{at}");
            assert!(counter(names::CPA_CACHE_HIT) + skips > 50, "{at}");
        }
    }
}

#[test]
fn a_deadline_arrival_allocates_once_at_every_fanout() {
    let log = generate_log(&LogSpec::ctc_sp2().with_duration(Dur::days(2)), 7).accelerated(400.0);
    let mut jobs = log.jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    jobs.truncate(60);
    let params = DagParams {
        num_tasks: 10,
        ..DagParams::paper_default()
    };
    // Besides the scheduler's own run, debug builds replay CPA(q) once
    // more, outside the cache, to check a feasible `DL_BD_CPAR` schedule
    // against its declared bounds.
    let replays = u64::from(cfg!(debug_assertions));

    // A horizon that some of the DAGs' critical paths exceed, and a
    // calendar that fills up: those arrivals are answered from the floor,
    // before any probe. At 12 h others clear the floor and still miss on
    // every probed algorithm: those run the roster. Every arrival asks the
    // floor once, whatever the fan-out: the probes' own questions are
    // answered by the instant the arrival's question found clear.
    for (fanout, horizon) in [(1, 12), (2, 12), (PROBE_ROSTER.len(), 12), (2, 3)] {
        let cfg = ServeConfig {
            deadline_every: 1,
            probe_fanout: fanout,
            admit_horizon: Dur::hours(horizon),
            ..ServeConfig::default()
        };
        let mut server = Server::new(log.procs, &cfg);
        let (mut admitted, mut missed, mut below_floor) = (0, 0, 0);
        for job in &jobs {
            let (now, dag) = (job.submit, generate(&params, u64::from(job.id) ^ 0x0A11));
            // The arrival's probes, asked of a roster on the calendar it
            // sees, with the `q` and deadline serve gives it: their answers,
            // met or not, carry what each probe counted.
            let cal = server.calendar().clone();
            let q = if cal.num_breakpoints() > 0 {
                cal.average_available(now - cfg.q_window, now)
            } else {
                cal.capacity()
            };
            let deadline = now + cfg.admit_horizon;
            let mut roster = Roster::prepare(&dag, &cal, now, q, DeadlineConfig::default());
            let answers: Vec<_> = PROBE_ROSTER[..fanout]
                .iter()
                .map(|&algo| roster.schedule(deadline, algo))
                .collect();
            let mut asked = ScheduleStats::default();
            for answer in &answers {
                asked.absorb(match answer {
                    Ok(out) => out.schedule.stats,
                    Err(e) => e.stats,
                });
            }

            let submit = Step::Submit {
                now,
                app_id: job.id,
                dag,
            };
            let (record, report) = obs::observe("arrival", || server.apply(&submit));
            let at = format!("fan-out {fanout}, {horizon} h, job {}", job.id);
            let counter = |name| report.metrics.counter(name);
            assert_eq!(counter(names::FLOOR_QUESTIONS), 1, "{at}");
            // The outcome carries the work the second roster counted, floor
            // answers (both zero) included.
            let work = match &record.outcome {
                Outcome::Admitted { work, .. } | Outcome::Rejected { work, .. } => *work,
                other => panic!("{at}: an arrival is admitted or rejected: {other:?}"),
            };
            assert_eq!(work, asked, "{at}");
            match record.outcome {
                Outcome::Admitted { .. } => {
                    admitted += 1;
                    assert!(answers.iter().any(Result::is_ok), "{at}");
                }
                Outcome::Rejected {
                    reason: Reason::DeadlineInfeasible { floor: Some(_), .. },
                    ..
                } => {
                    // Answered from the floor before any roster question:
                    // nothing allocated, mapped or run.
                    below_floor += 1;
                    for name in [
                        names::BACKWARD_FLOOR_SKIPS,
                        names::CPA_CACHE_MISS,
                        names::CPA_ALLOC_ITERS,
                    ] {
                        assert_eq!(counter(name), 0, "{at}: {name}");
                    }
                    let by_floor = |a: &Result<_, DeadlineInfeasible>| {
                        a.as_ref().is_err_and(|e| e.floor.is_some())
                    };
                    assert!(answers.iter().all(by_floor), "{at}");
                    assert_eq!(asked, ScheduleStats::default(), "{at}");
                    continue;
                }
                Outcome::Rejected {
                    reason: Reason::DeadlineInfeasible { floor: None, .. },
                    ..
                } => {
                    missed += 1;
                    let ran_and_missed = |a: &Result<_, DeadlineInfeasible>| {
                        a.as_ref().is_err_and(|e| e.floor.is_none())
                    };
                    assert!(answers.iter().all(ran_and_missed), "{at}");
                }
                _ => {}
            }
            assert_eq!(counter(names::BACKWARD_FLOOR_SKIPS), 0, "{at}");
            assert_eq!(counter(names::CPA_CACHE_MISS), 1, "{at}");
            // Each further request for the allocation is a hit: the
            // `DL_BD_CPAR` bounds and the two hybrids' guides.
            assert_eq!(counter(names::CPA_CACHE_HIT), fanout.min(3) as u64, "{at}");
            // The logical requests stay what independent calls count: the
            // order's, once per algorithm, plus each algorithm's own.
            let requests = [2, 4, 6, 7][fanout - 1];
            assert_eq!(asked.cpa_allocations, requests, "{at}");
            assert!(asked.passes >= fanout as u64, "{at}: {asked:?}");

            // Every loop run of the arrival is CPA(q) on this DAG, so each
            // took the same number of iterations: the total is one
            // allocation's times the number of runs, and there is one run.
            let per_run = report.metrics.histogram(names::CPA_ALLOC_ITERS_PER_RUN);
            let per_run = per_run.expect("the arrival allocated");
            assert_eq!(per_run.min(), per_run.max(), "{at}");
            assert!(
                per_run.count() <= 1 + replays,
                "{at}: {} runs",
                per_run.count()
            );
            let one_allocation = per_run.max().unwrap_or(0);
            assert_eq!(
                counter(names::CPA_ALLOC_ITERS),
                one_allocation * per_run.count(),
                "{at}"
            );
        }
        assert_eq!(server.audit(), [], "fan-out {fanout}");
        let tally = format!(
            "fan-out {fanout}, {horizon} h: {admitted} admitted, {missed} missed, \
             {below_floor} below the floor"
        );
        assert!(admitted > 0, "{tally}");
        // At 12 h the calendar path answers, at 3 h the critical path too.
        assert!(below_floor > 0, "{tally}");
        // A miss after a roster pass, with its counts checked above; at
        // 3 h the floor answers every rejection.
        assert_eq!(missed > 0, horizon == 12, "{tally}");
    }
}
