//! The probe roster prepares an arrival once: pinned by counts, not by time.
//!
//! Every algorithm of `serve::PROBE_ROSTER` starts from the CPA(`q`)
//! allocation. A deadline arrival therefore computes it once whatever the
//! probe fan-out — one `cpa.cache.miss`, one allocation's worth of
//! `cpa.alloc.iterations` — where one `schedule_deadline` call per roster
//! entry computed it `fanout` times. Needs `--features obs` to see the
//! counters; without it the test only checks that the replay stays clean.

use resched_core::obs::{self, names};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_serve::{Decision, ServeConfig, Server, PROBE_ROSTER};
use resched_workloads::prelude::*;

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
    // Besides the scheduler's own run, debug builds (and `validate` ones)
    // replay CPA(q) once more, outside the cache, to check a feasible
    // `DL_BD_CPAR` schedule against its declared bounds.
    let replays = u64::from(cfg!(debug_assertions));

    for fanout in [1, 2, PROBE_ROSTER.len()] {
        let cfg = ServeConfig {
            deadline_every: 1,
            probe_fanout: fanout,
            ..ServeConfig::default()
        };
        let mut server = Server::new(log.procs, &cfg);
        let (mut admitted, mut rejected) = (0, 0);
        for job in &jobs {
            let dag = generate(&params, u64::from(job.id) ^ 0x0A11);
            let (decision, report) =
                obs::observe("arrival", || server.submit(job.submit, job.id, &dag));
            match decision {
                Decision::Admitted { .. } => admitted += 1,
                Decision::Rejected(_) => rejected += 1,
            }
            if !obs::COMPILED {
                continue;
            }
            let at = format!("fan-out {fanout}, job {}", job.id);
            let counter = |name| report.metrics.counter(name);
            assert_eq!(counter(names::CPA_CACHE_MISS), 1, "{at}");
            // Each further request for the allocation is a hit: the
            // `DL_BD_CPAR` bounds and the two hybrids' guides.
            assert_eq!(counter(names::CPA_CACHE_HIT), fanout.min(3) as u64, "{at}");
            // The logical requests stay what independent calls count: the
            // order's, once per algorithm, plus each algorithm's own.
            let requests = [2, 4, 6, 7][fanout - 1];
            assert_eq!(counter(names::STATS_CPA_ALLOCATIONS), requests, "{at}");

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
        assert_eq!(server.audit(), 0, "fan-out {fanout}");
        assert!(
            admitted > 0 && rejected > 0,
            "fan-out {fanout}: {admitted} / {rejected}"
        );
    }
}
