//! The four workloads: what each feeds the program, and how its inputs
//! are made from `--seed`.
//!
//! A workload is a list of independent *units*, each with inputs of its
//! own derived from `--seed`: a serve unit is one generated log replayed
//! through `serve::run`, a batch unit one Table-9 instance scheduled by the
//! ten Table-9 algorithms. The cost of a single unit depends strongly on
//! its inputs (which few applications a saturated replay admits, how wide
//! an instance's DAG is, how dense its calendar), so a run measures many
//! units and reports medians over them: that is what keeps its values
//! steady from seed to seed.

use crate::layers::{
    self, Calendar, Dag, DagParams, Dur, JobLog, LogSpec, ResvSpec, Scale, ServeConfig,
    ServeQuotaConfig, ThinMethod, Time,
};
use crate::trace::Tracer;

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The two shapes of workload.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `replays` independent `serve::run` replays of `cfg.max_apps`
    /// arrivals each, over `CTC_SP2` logs of `log_days` days; the traced
    /// run mirrors the first `traced`.
    Serve {
        replays: usize,
        traced: usize,
        log_days: i64,
        cfg: ServeConfig,
    },
    /// `draws` independent draws of `scale.instances()` Table-9 instances
    /// of `num_tasks`-task DAGs (a draw crosses `scale.dags` DAGs with
    /// `scale.starts` scheduling instants), each scheduled by the ten
    /// Table-9 algorithms; the traced run takes the first `traced`.
    Batch {
        draws: usize,
        scale: Scale,
        traced: usize,
        num_tasks: usize,
    },
}

/// The benchmark's workloads, in `BENCHMARK.json` order. Sizes are set so
/// that the end-to-end run's 30 s make three to five passes over the units
/// on the 2-core dev host, and the traced units take about 4 s.
pub fn all() -> Vec<Workload> {
    let serve = |name, replays, traced, log_days, cfg| Workload {
        name,
        kind: Kind::Serve {
            replays,
            traced,
            log_days,
            cfg,
        },
    };
    vec![
        // The shipped default: offered load far above capacity. The few
        // applications a replay admits fix the cost of every later arrival,
        // so the replays are many and short (the calendar is saturated
        // after some twenty arrivals).
        serve(
            "serve_saturated",
            60,
            20,
            5,
            ServeConfig {
                max_apps: 300,
                ..ServeConfig::default()
            },
        ),
        // Light load: most arrivals admitted, the calendar keeps growing.
        // Long replays, because the writes and the audit only weigh in on a
        // calendar of thousands of reservations.
        serve(
            "serve_admit",
            6,
            4,
            11,
            ServeConfig {
                accel: 1.0,
                max_apps: 1000,
                ..ServeConfig::default()
            },
        ),
        // Every arrival through the backward scheduler, probe fan-out and
        // quota gate. The deadline is 3 h after arrival, not the default
        // 12 h: under 12 h an arrival costs ~1 ms until some twenty
        // applications are live and 30-100 ms after, so that a replay's
        // median sits on the edge between the two regimes and a run holds
        // too few arrivals; under 3 h every arrival costs 1-20 ms from the
        // first one on.
        serve(
            "serve_deadline",
            24,
            8,
            2,
            ServeConfig {
                accel: 1.0,
                max_apps: 100,
                deadline_every: 1,
                admit_horizon: Dur::hours(3),
                probe_fanout: 2,
                quota: Some(ServeQuotaConfig {
                    users: 8,
                    max_concurrent_cores: 300,
                    max_core_seconds: 0,
                }),
                ..ServeConfig::default()
            },
        ),
        // The paper's own setting (Table 9): one application against a
        // static read-only calendar. Many small draws, because an
        // instance's cost depends on its DAG's shape and on its calendar
        // about equally, and a draw of `instances_for` shares both among
        // its instances.
        Workload {
            name: "batch_table9",
            kind: Kind::Batch {
                draws: 24,
                scale: Scale {
                    dags: 2,
                    starts: 2,
                    tags: 1,
                },
                traced: 48,
                num_tasks: 100,
            },
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One serve replay: a generated log and the configuration it runs under.
pub struct Replay {
    pub log: JobLog,
    pub cfg: ServeConfig,
}

/// One batch instance, ready to schedule: everything `exp::exec_time`
/// prepares outside its stopwatch.
pub struct Case {
    pub dag: Dag,
    pub cal: Calendar,
    pub q: u32,
    /// Twice the `BL_CPAR_BD_CPAR` turn-around, which keeps every `DL_*`
    /// row on its normal code path.
    pub deadline: Time,
}

/// A workload's generated inputs; the program receives only these.
pub enum Inputs {
    Serve(Vec<Replay>),
    /// The instances, and the log they were extracted from (kept for the
    /// traced run's `workloads.extract` replay).
    Batch {
        cases: Vec<Case>,
        log: JobLog,
    },
}

/// The Table-9 reservation-schedule specification: `SDSC_BLUE`, half the
/// jobs tagged as reservations, no thinning. Thirty days of log leave the
/// 7-day reservation horizon inside the trace for every sampled instant
/// (they fall in the middle half) at a quarter of the default 60 days'
/// generation time.
pub fn batch_spec() -> ResvSpec {
    ResvSpec {
        log: LogSpec::sdsc_blue().with_duration(Dur::days(30)),
        phi: 0.5,
        method: ThinMethod::Real,
    }
}

impl Inputs {
    /// How many independent units the inputs hold.
    pub fn units(&self) -> usize {
        match self {
            Inputs::Serve(replays) => replays.len(),
            Inputs::Batch { cases, .. } => cases.len(),
        }
    }
}

/// SplitMix64 over `(seed, k)`: the seed of the `k`-th derived input.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ (k.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// How many leading units the traced run takes.
    pub fn traced_units(&self) -> usize {
        match &self.kind {
            Kind::Serve { traced, .. } | Kind::Batch { traced, .. } => *traced,
        }
    }

    /// Generate the inputs from `seed`, recording one `setup` root span
    /// with a child per program layer called.
    pub fn setup(&self, seed: u64, tr: &mut Tracer) -> Inputs {
        tr.enter("setup");
        let inputs = match &self.kind {
            Kind::Serve {
                replays,
                log_days,
                cfg,
                ..
            } => {
                let spec = LogSpec::ctc_sp2().with_duration(Dur::days(*log_days));
                Inputs::Serve(
                    (0..*replays as u64)
                        .map(|k| {
                            let s = sub_seed(seed, k);
                            let log = tr
                                .span("workloads.generate_log", || layers::generate_log(&spec, s));
                            assert!(
                                log.jobs.len() >= cfg.max_apps,
                                "{}: a {log_days}-day log holds {} jobs, fewer than max_apps {}",
                                self.name,
                                log.jobs.len(),
                                cfg.max_apps
                            );
                            Replay {
                                log,
                                cfg: ServeConfig { seed: s, ..*cfg },
                            }
                        })
                        .collect(),
                )
            }
            Kind::Batch {
                draws,
                scale,
                num_tasks,
                ..
            } => {
                let spec = batch_spec();
                let params = DagParams {
                    num_tasks: *num_tasks,
                    ..DagParams::paper_default()
                };
                let log = tr.span("workloads.generate_log", || {
                    layers::generate_log(&spec.log, sub_seed(seed, 0))
                });
                let cases = (1..=*draws as u64)
                    .flat_map(|k| {
                        tr.span("sim.instances_for", || {
                            layers::instances_for(&params, &spec, &log, *scale, sub_seed(seed, k))
                        })
                    })
                    .map(|inst| {
                        let cal = inst.resv.calendar();
                        let q = inst.resv.q;
                        let reference = layers::schedule_forward(&inst.dag, &cal, Time::ZERO, q);
                        Case {
                            deadline: Time::ZERO + reference.turnaround() * 2,
                            dag: inst.dag,
                            cal,
                            q,
                        }
                    })
                    .collect();
                Inputs::Batch { cases, log }
            }
        };
        tr.exit();
        inputs
    }
}
