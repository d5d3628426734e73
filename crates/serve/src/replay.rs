//! The one producer of steps: an SWF workload's arrivals, submitted to a
//! [`Server`], and the seeded churn on what it admits.

use crate::{Outcome, Record, ServeConfig, ServeReport, Server, Step, Tally};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::prelude::*;
use resched_daggen::DagParams;
use resched_workloads::job::JobLog;
use std::time::{Duration, Instant};

/// Deterministic per-application seed derivation (splitmix64 over the
/// master seed and the job id).
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replay `log` through the online serving loop: the fold ([`Tally`]) of
/// [`replay`]'s records, deterministic in all but the wall-clock fields.
/// The report's `wall_ms` covers the steps, not the log preparation before
/// them or the final audit after.
pub fn run(log: &JobLog, cfg: &ServeConfig) -> ServeReport {
    let mut tally = Tally::default();
    let (server, wall) = replay(log, cfg, |step, record| tally.add(step, record));
    tally.finish(&server, wall)
}

/// The record stream of [`run`]: the steps `log` realizes, applied to a
/// fresh [`Server`] and handed to `seen` with their records as they are
/// taken. The log's submission process (compressed by `cfg.accel`) drives
/// arrivals, each a DAG generated from the job id under `cfg.seed`, and
/// every commit is followed by the seeded churn. Returns the server as the
/// steps left it and the wall-clock time they took.
pub fn replay(
    log: &JobLog,
    cfg: &ServeConfig,
    mut seen: impl FnMut(&Step, &Record),
) -> (Server, Duration) {
    let log = log.accelerated(cfg.accel);
    let mut jobs = log.jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    if cfg.max_apps > 0 {
        jobs.truncate(cfg.max_apps);
    }
    let params = DagParams {
        num_tasks: cfg.tasks_per_app.max(1),
        ..DagParams::paper_default()
    };
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(cfg.seed, u64::MAX));
    let mut server = Server::new(log.procs, cfg);
    let mut apply = |server: &mut Server, step: Step| {
        let record = server.apply(&step);
        seen(&step, &record);
        record.outcome
    };
    let mut commits = 0usize;

    let wall_start = Instant::now();
    for job in &jobs {
        let dag = resched_daggen::generate(&params, derive_seed(cfg.seed, u64::from(job.id)));
        let (now, app_id) = (job.submit, job.id);
        let outcome = apply(&mut server, Step::Submit { now, app_id, dag });
        if !matches!(outcome, Outcome::Admitted { .. }) {
            continue;
        }
        // The seeded churn on the committed population: every
        // `cancel_every`-th commit cancels a random live application, every
        // `resize_every`-th halves the longest reservation of one (the last
        // of equals). The indices are drawn in range and the trim is a
        // shrink, so a step can only go wrong on a bookkeeping fault — which
        // is in its record's findings.
        commits += 1;
        let due = |every: usize| every > 0 && commits.is_multiple_of(every);
        if due(cfg.cancel_every) && !server.live().is_empty() {
            let k = rng.gen_range(0..server.live().len());
            apply(&mut server, Step::Cancel { k });
        }
        if due(cfg.resize_every) && !server.live().is_empty() {
            let k = rng.gen_range(0..server.live().len());
            let resvs = &server.live()[k].resvs;
            let longest = (0..resvs.len()).max_by_key(|&i| resvs[i].duration().as_seconds());
            if let Some(i) = longest {
                let old = resvs[i];
                let mid = old.start.midpoint(old.end);
                if mid > old.start {
                    let new = Reservation::new(old.start, mid, old.procs);
                    apply(&mut server, Step::Resize { k, i, new });
                }
            }
        }
    }
    (server, wall_start.elapsed())
}
