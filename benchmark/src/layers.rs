//! Every call the benchmark makes into the program, in one file.
//!
//! The rest of the benchmark names program types and functions only
//! through this module, so an API change under `crates/` (ROADMAP item 3's
//! diet, for one) costs the benchmark this file and nothing else. Each
//! function is a plain forward to one public entry point; the span a
//! layer is timed under is named in its doc line.

pub use resched_core::algos::{Algorithm, RunError};
pub use resched_core::backward::DeadlineAlgo;
pub use resched_core::dag::Dag;
pub use resched_core::schedule::{Schedule, ScheduleStats};
pub use resched_daggen::DagParams;
pub use resched_resv::{AdmissionGate, Calendar, Dur, Owner, Reservation, ShadowTxn, Time};
pub use resched_serve::{ServeConfig, ServeQuotaConfig, ServeReport, PROBE_ROSTER};
pub use resched_sim::exp::exec_time::TimedAlgo;
pub use resched_sim::scenario::{Instance, ResvSpec, Scale};
pub use resched_workloads::job::{Job, JobLog};
pub use resched_workloads::prelude::{LogSpec, ThinMethod};

use resched_core::backward::DeadlineConfig;
use resched_core::bl::{self, BlMethod};
use resched_core::cpa::StoppingCriterion;
use resched_core::forward::{self, BdMethod, ForwardConfig};
use resched_core::validate::{audit_calendar_with, ScheduleValidator};
use resched_daggen::Sweep;
use resched_resv::{QuotaRule, QuotaSet, QuotaSubject};
use resched_workloads::extract::{ExtractSpec, ReservationSchedule};

/// `workloads.generate_log`
pub fn generate_log(spec: &LogSpec, seed: u64) -> JobLog {
    resched_workloads::synth::generate_log(spec, seed)
}

/// `sim.instances_for`: the batch scenario's DAG × reservation-schedule
/// instances, exactly as the experiment harness draws them.
pub fn instances_for(
    params: &DagParams,
    spec: &ResvSpec,
    log: &JobLog,
    scale: Scale,
    seed: u64,
) -> Vec<Instance> {
    let sweep = Sweep {
        varied: "benchmark".into(),
        value: 0.0,
        params: *params,
    };
    resched_sim::scenario::instances_for(&sweep, spec, log, scale, seed)
}

/// The scheduling instants `instances_for` would sample (for the
/// `workloads.extract` replay).
pub fn sample_start_times(log: &JobLog, k: usize, seed: u64) -> Vec<Time> {
    resched_workloads::extract::sample_start_times(log, k, seed)
}

/// `workloads.extract`
pub fn extract(log: &JobLog, t: Time, spec: &ResvSpec, seed: u64) -> ReservationSchedule {
    resched_workloads::extract::extract(log, t, &ExtractSpec::new(spec.phi, spec.method), seed)
}

/// `daggen.generate`
pub fn generate_dag(params: &DagParams, seed: u64) -> Dag {
    resched_daggen::generate(params, seed)
}

/// `resv.calendar.average_available` (the `q` estimate).
pub fn average_available(cal: &Calendar, from: Time, to: Time) -> u32 {
    cal.average_available(from, to)
}

/// `core.forward.schedule`, with the recommended configuration serve uses.
pub fn schedule_forward(dag: &Dag, cal: &Calendar, now: Time, q: u32) -> Schedule {
    forward::schedule_forward(dag, cal, now, q, ForwardConfig::recommended())
}

/// One probe of `core.backward.schedule`; `None` when the deadline is
/// infeasible for `algo`.
pub fn schedule_deadline(
    dag: &Dag,
    cal: &Calendar,
    now: Time,
    q: u32,
    deadline: Time,
    algo: DeadlineAlgo,
) -> Option<Schedule> {
    resched_core::backward::schedule_deadline(
        dag,
        cal,
        now,
        q,
        deadline,
        algo,
        DeadlineConfig::default(),
    )
    .ok()
    .map(|o| o.schedule)
}

/// `core.validate.check` as serve configures it; `Err` carries the
/// violation's text.
pub fn validate(
    dag: &Dag,
    cal: &Calendar,
    now: Time,
    deadline: Option<Time>,
    sched: &Schedule,
) -> Result<(), String> {
    let mut v = ScheduleValidator::new(dag, cal, now);
    if let Some(k) = deadline {
        v = v.with_deadline(k);
    }
    v.check(sched).map_err(|v| v.to_string())
}

/// The quota gate `serve::run` builds from a [`ServeQuotaConfig`].
pub fn quota_gate(q: &ServeQuotaConfig) -> AdmissionGate {
    let mut set = QuotaSet::unlimited();
    for u in 0..q.users.max(1) {
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
}

/// `resv.quotas.admit_all`; `false` is a denial.
pub fn gate_admit_all(gate: &mut AdmissionGate, owner: &Owner, resvs: &[Reservation]) -> bool {
    gate.admit_all(owner, resvs).is_ok()
}

/// `resv.quotas.release_replace` (cancel side).
pub fn gate_release(gate: &mut AdmissionGate, owner: &Owner, r: &Reservation) -> bool {
    gate.release(owner, r)
}

/// `resv.quotas.release_replace` (resize side).
pub fn gate_replace(
    gate: &mut AdmissionGate,
    owner: &Owner,
    from: &Reservation,
    to: Reservation,
) -> bool {
    gate.replace(owner, from, to)
}

/// `resv.txn.try_add`
pub fn txn_try_add(txn: &mut ShadowTxn<'_>, r: Reservation) -> bool {
    txn.try_add(r).is_ok()
}

/// Part of `resv.txn.cancel`.
pub fn txn_try_remove(txn: &mut ShadowTxn<'_>, r: Reservation) -> bool {
    txn.try_remove(r).is_ok()
}

/// Part of `resv.txn.resize`.
pub fn txn_try_resize(txn: &mut ShadowTxn<'_>, old: Reservation, new: Reservation) -> bool {
    txn.try_resize(old, new).is_ok()
}

/// `resv.txn.commit`
pub fn txn_commit(txn: ShadowTxn<'_>) {
    txn.commit();
}

/// `resv.txn.rollback`
pub fn txn_rollback(txn: ShadowTxn<'_>) {
    txn.rollback();
}

/// `core.validate.audit`: the number of violations found.
pub fn audit(cal: &Calendar, gate: Option<&AdmissionGate>) -> usize {
    audit_calendar_with(cal, None, gate).len()
}

/// `core.cpa.alloc_replay`: the `BD_CPAR` allocation bound the recommended
/// schedulers compute, on its own.
pub fn allocation_bounds(dag: &Dag, p: u32, q: u32) -> Vec<u32> {
    forward::allocation_bounds(
        dag,
        p,
        q,
        BdMethod::CpaR,
        StoppingCriterion::default(),
        &mut ScheduleStats::default(),
    )
}

/// `core.bl.levels_replay`: `BL_CPAR` execution times and bottom levels.
pub fn bottom_levels(dag: &Dag, p: u32, q: u32) -> Vec<Dur> {
    let exec = bl::exec_times(dag, p, q, BlMethod::CpaR, StoppingCriterion::default());
    bl::bottom_levels(dag, &exec)
}

/// The ten Table-9 rows as catalog algorithms, in the paper's order.
pub fn table9_algorithms() -> Vec<Algorithm> {
    TimedAlgo::table9_rows()
        .into_iter()
        .map(|row| match row {
            TimedAlgo::Forward(bd) => Algorithm::Forward(ForwardConfig::new(BlMethod::CpaR, bd)),
            TimedAlgo::Deadline(a) => Algorithm::Deadline(a),
        })
        .collect()
}

/// The program's batch entry point (`core.forward.schedule` or
/// `core.backward.schedule`, by the algorithm's family).
pub fn algorithm_run(
    algo: &Algorithm,
    dag: &Dag,
    cal: &Calendar,
    q: u32,
    deadline: Time,
) -> Result<Schedule, RunError> {
    algo.run(dag, cal, Time::ZERO, q, Some(deadline))
}

/// `core.validate.check` as [`Algorithm::validator`] configures it.
pub fn algorithm_check(
    algo: &Algorithm,
    dag: &Dag,
    cal: &Calendar,
    deadline: Time,
    sched: &Schedule,
) -> Result<(), String> {
    algo.validator(dag, cal, Time::ZERO, Some(deadline))
        .check(sched)
        .map_err(|v| v.to_string())
}

/// The program's serve entry point.
pub fn serve_run(log: &JobLog, cfg: &ServeConfig) -> ServeReport {
    resched_serve::run(log, cfg)
}

/// The program's own nearest-rank percentile over sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    resched_serve::percentile(sorted, q)
}

/// Pin the worker count of every parallel section in the program.
pub fn force_threads(n: usize) {
    rayon::force_threads(Some(n));
}

/// The calendar backend answering slot queries (`RESCHED_BACKEND`).
pub fn backend_name() -> &'static str {
    resched_resv::backend::selected().name()
}

/// The arrivals `serve::run` would process for `cfg`, in order, and the
/// machine size: the log compressed by `cfg.accel`, sorted by submission
/// and cut to `cfg.max_apps`.
pub fn replay_jobs(log: &JobLog, cfg: &ServeConfig) -> (u32, Vec<Job>) {
    let log = log.accelerated(cfg.accel);
    let mut jobs = log.jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    if cfg.max_apps > 0 {
        jobs.truncate(cfg.max_apps);
    }
    (log.procs, jobs)
}
