//! Everything `run_experiments` reports beyond Tables 2–10: Table 1 with
//! the DAG shapes its generator realizes, the design-choice ablations
//! (DESIGN.md §3) and the extensions past the paper — iCASLB adapted to
//! reservations (§7), pessimistic and noisy runtime estimates (§3.1),
//! trial-and-error scheduling and competition during scheduling (§3.2.2),
//! the per-processor overhead model, MCPA bounds, the closed-loop stream
//! and §4.3's trends.
//!
//! [`Beyond::run`] computes them all and [`Beyond::tables`] renders each
//! under its results-file key; `exp::shapes::check_beyond` judges the
//! directions EXPERIMENTS.md states about them. Every number is
//! deterministic in the seed except iCASLB's and BL_CPAR_BD_CPAR's runtime,
//! which [`Beyond::runtime_table`] reports apart. The experiments on
//! Grid'5000-like schedules share one draw of instances per sweep list.

use crate::exp::stream::stream_sweep;
use crate::exp::trends::run_trends;
use crate::exp::{stopwatch, timed};
use crate::scenario::{derive_seed, instances_for, Instance, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Measured, Table};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::algos::Algorithm;
use resched_core::blind::{schedule_blind, BlindConfig, ReservationDesk};
use resched_core::dynamic::schedule_forward_dynamic;
use resched_core::exec::{execute, OverrunPolicy};
use resched_core::forward::schedule_forward_bounded;
use resched_core::icaslb::schedule_icaslb;
use resched_core::mcpa;
use resched_core::prelude::*;
use resched_daggen::{DagParams, Sweep};
use resched_workloads::prelude::*;
use serde::Serialize;
use serde_json::Value;

/// Table 1 as the paper prints it: each parameter and its values.
const TABLE1: [(&str, &str); 6] = [
    ("Number of tasks", "10, 25, [50], 75, 100"),
    ("alpha", ".05, .10, .15, [.20]"),
    ("width", ".1 .. [.5] .. .9"),
    ("density", ".1 .. [.5] .. .9"),
    ("regularity", ".1 .. [.5] .. .9"),
    ("jump", "[1], 2, 3, 4"),
];

/// The two columns most experiments report, each a mean over instances.
pub(crate) const TAT: &str = "Avg turn-around [h]";
pub(crate) const CPU: &str = "Avg CPU-hours";

/// iCASLB adapted to reservations against BL_CPAR_BD_CPAR.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct Icaslb {
    /// Mean turn-around and mean CPU-hours of each.
    pub(crate) forward: [f64; 2],
    pub(crate) icaslb: [f64; 2],
    /// Instances on which iCASLB's turn-around is strictly shorter.
    pub(crate) icaslb_better: usize,
    pub(crate) instances: usize,
}

/// Every experiment beyond Tables 2–10, computed by [`Beyond::run`].
pub struct Beyond {
    pub(crate) table1: Measured,
    pub(crate) cpa_criterion: Measured,
    pub(crate) tiebreak: Measured,
    pub(crate) qwindow: Measured,
    pub(crate) icaslb: Icaslb,
    /// Mean milliseconds per call, `[BL_CPAR_BD_CPAR, iCASLB]`.
    pub(crate) icaslb_ms: [f64; 2],
    pub(crate) pessimistic: Measured,
    pub(crate) blind: Measured,
    pub(crate) dynamic: Measured,
    pub(crate) robustness: Measured,
    pub(crate) overhead: Measured,
    pub(crate) mcpa: Measured,
    pub(crate) stream: Measured,
    pub(crate) trends: Measured,
}

/// A result as `results/experiments.json` holds it.
fn json(value: impl Serialize) -> Value {
    serde_json::to_value(value).unwrap()
}

/// Grid'5000-like instances of each sweep, each with its calendar built.
type Drawn = Vec<Vec<(Instance, Calendar)>>;

fn grid5000(sweeps: &[Sweep], log: &JobLog, scale: Scale, seed: u64) -> Drawn {
    let spec = ResvSpec::grid5000();
    let with_calendar = |inst: Instance| {
        let cal = inst.resv.calendar();
        (inst, cal)
    };
    let draw = |sweep| instances_for(sweep, &spec, log, scale, seed).into_iter();
    sweeps
        .iter()
        .map(|s| draw(s).map(with_calendar).collect())
        .collect()
}

fn forward((inst, cal): &(Instance, Calendar), cfg: ForwardConfig) -> Schedule {
    schedule_forward(&inst.dag, cal, Time::ZERO, inst.resv.q, cfg)
}

/// [`means`] of BL_CPAR_BD_CPAR, as the paper recommends it, over `g`.
fn recommended(g: &Drawn) -> [f64; 2] {
    means(
        g.iter()
            .flatten()
            .map(|d| forward(d, ForwardConfig::recommended())),
    )
}

/// `[mean turn-around, mean CPU-hours]` of `schedules`, summed in order.
fn means(schedules: impl IntoIterator<Item = Schedule>) -> [f64; 2] {
    let (mut ta, mut cpu, mut n) = (0.0, 0.0, 0usize);
    for s in schedules {
        ta += s.turnaround().as_hours();
        cpu += s.cpu_hours();
        n += 1;
    }
    let n = n.max(1) as f64;
    [ta / n, cpu / n]
}

/// Turn-around and CPU-hours of each named forward configuration.
fn variants<const N: usize>(
    title: &str,
    first: &str,
    g: &Drawn,
    configs: [(&str, ForwardConfig); N],
) -> Measured {
    let mean = |cfg| means(g.iter().flatten().map(|d| forward(d, cfg))).to_vec();
    let row = |(name, cfg)| (name, mean(cfg));
    Measured::new(title, &[first, TAT, CPU], &[2, 1], configs.map(row))
}

impl Beyond {
    /// Run every experiment: those on Grid'5000-like schedules over
    /// `sweeps`, the three with a costlier inner loop (pessimistic
    /// estimates, dynamic competition, robustness) over `sparse_sweeps`.
    /// Each experiment's wall-clock seconds are appended to `walls`.
    pub fn run(
        sweeps: &[Sweep],
        sparse_sweeps: &[Sweep],
        scale: Scale,
        seed: u64,
        walls: &mut Vec<(&'static str, f64)>,
    ) -> Beyond {
        let mut cache = LogCache::new();
        let log = cache.get(&ResvSpec::grid5000().log, seed).clone();
        let (g5, g10) = timed(walls, "draw_grid5000", || {
            let draw = |sweeps| grid5000(sweeps, &log, scale, seed);
            (draw(sweeps), draw(sparse_sweeps))
        });
        let fwd = ForwardConfig::recommended();
        let (icaslb, icaslb_ms) = timed(walls, "ext_icaslb", || icaslb(&g5));
        Beyond {
            table1: timed(walls, "table1", table1_shapes),
            cpa_criterion: timed(walls, "ablation_cpa_criterion", || {
                let criterion = |criterion| ForwardConfig { criterion, ..fwd };
                variants(
                    "Ablation - CPA stopping criterion (BL_CPAR_BD_CPAR)",
                    "Criterion",
                    &g5,
                    [
                        ("classic", criterion(StoppingCriterion::Classic)),
                        ("stringent", criterion(StoppingCriterion::Stringent)),
                    ],
                )
            }),
            tiebreak: timed(walls, "ablation_tiebreak", || {
                let tie = |tie| ForwardConfig { tie, ..fwd };
                variants(
                    "Ablation - slot tie-breaking (BL_CPAR_BD_CPAR)",
                    "Tie-break",
                    &g5,
                    [
                        ("fewest procs", tie(TieBreak::FewestProcs)),
                        ("most procs", tie(TieBreak::MostProcs)),
                    ],
                )
            }),
            qwindow: timed(walls, "ablation_qwindow", || {
                qwindow(cache.get(&LogSpec::sdsc_blue(), seed), scale, seed)
            }),
            icaslb,
            icaslb_ms,
            pessimistic: timed(walls, "ext_pessimistic", || pessimistic(&g10)),
            blind: timed(walls, "ext_blind", || blind(&g5)),
            dynamic: timed(walls, "ext_dynamic", || dynamic(&g10)),
            robustness: timed(walls, "ext_robustness", || robustness(&g10)),
            overhead: timed(walls, "ext_overhead", || overhead(seed)),
            mcpa: timed(walls, "ext_mcpa", || mcpa_bounds(sweeps, &g5)),
            stream: timed(walls, "ext_stream", || {
                stream_sweep(&Default::default(), &[8.0, 4.0, 2.0, 1.0, 0.5], seed)
            }),
            trends: timed(walls, "trends", || run_trends(&mut cache, scale, seed)),
        }
    }

    /// Each deterministic result as `(results key, table, JSON)`, in the
    /// order `run_experiments` writes them.
    pub fn tables(&self) -> Vec<(&'static str, Table, Value)> {
        let mut grid = Table::new(
            "Table 1 - application model parameter values",
            &["Parameter", "Values (default in [])"],
        );
        for (param, values) in TABLE1 {
            grid.row(vec![param.into(), values.into()]);
        }
        let ic = &self.icaslb;
        let mut icaslb = Table::new(
            "Extension - reservation-aware iCASLB vs BL_CPAR_BD_CPAR",
            &["Metric", "BL_CPAR_BD_CPAR", "iCASLB-AR"],
        );
        for (metric, at, decimals) in [(TAT, 0, 2), (CPU, 1, 1)] {
            let cells = [ic.forward[at], ic.icaslb[at]].map(|x| fnum(x, decimals));
            icaslb.row([metric.to_string()].into_iter().chain(cells).collect());
        }
        let better = format!("{}/{}", ic.icaslb_better, ic.instances);
        icaslb.row(vec![
            "iCASLB strictly-better TAT".into(),
            "-".into(),
            better,
        ]);

        let mut out = vec![("table1", grid, json(TABLE1))];
        let measured = [
            ("table1_shapes", &self.table1),
            ("ablation_cpa_criterion", &self.cpa_criterion),
            ("ablation_tiebreak", &self.tiebreak),
            ("ablation_qwindow", &self.qwindow),
        ];
        out.extend(measured.map(|(key, m)| (key, m.table(), json(m))));
        out.push(("ext_icaslb", icaslb, json(ic)));
        let measured = [
            ("ext_pessimistic", &self.pessimistic),
            ("ext_blind", &self.blind),
            ("ext_dynamic", &self.dynamic),
            ("ext_robustness", &self.robustness),
            ("ext_overhead", &self.overhead),
            ("ext_mcpa", &self.mcpa),
            ("ext_stream", &self.stream),
            ("trends", &self.trends),
        ];
        out.extend(measured.map(|(key, m)| (key, m.table(), json(m))));
        out
    }

    /// What the stopwatch read in the iCASLB extension, for
    /// `results/timing.*`: the table and its JSON.
    pub fn runtime_table(&self) -> (Table, Value) {
        let [forward_ms, icaslb_ms] = self.icaslb_ms;
        let mut t = Table::new(
            "Extension - reservation-aware iCASLB vs BL_CPAR_BD_CPAR, runtime",
            &["Metric", "BL_CPAR_BD_CPAR", "iCASLB-AR"],
        );
        t.row(vec![
            "Avg runtime [ms]".into(),
            fnum(forward_ms, 2),
            fnum(icaslb_ms, 2),
        ]);
        let value = [("BL_CPAR_BD_CPAR_ms", forward_ms), ("iCASLB_ms", icaslb_ms)]
            .map(|(key, ms)| (key.to_string(), json(ms)));
        (t, Value::Object(value.into_iter().collect()))
    }
}

/// Table 1's sanity check: ten DAGs per width value (n = 50, the other
/// parameters at their defaults), averaged.
fn table1_shapes() -> Measured {
    let shape = |width| {
        let params = DagParams {
            width,
            ..DagParams::paper_default()
        };
        let mut sums = [0.0; 3];
        for seed in 0..10u64 {
            let dag = resched_daggen::generate(&params, seed);
            let shape = [dag.num_levels(), dag.max_width(), dag.num_edges() as u32];
            for (sum, x) in sums.iter_mut().zip(shape) {
                *sum += x as f64 / 10.0;
            }
        }
        (fnum(width, 1), sums.to_vec())
    };
    Measured::new(
        "Realized DAG shapes (10 samples per width value, n = 50)",
        &["width", "avg levels", "avg max level width", "avg edges"],
        &[1, 1, 1],
        DagParams::table1_values().width.into_iter().map(shape),
    )
}

/// The `q` estimation window ablation: BL_CPAR_BD_CPAR on SDSC_BLUE-like
/// schedules at φ = 0.5, extracted over a 1-, 7- and 14-day horizon.
fn qwindow(log: &JobLog, scale: Scale, seed: u64) -> Measured {
    let starts = sample_start_times(log, scale.starts.max(3), derive_seed(seed, "qw", 0));
    let dags: Vec<Dag> = (0..scale.dags)
        .map(|d| {
            let dag_seed = derive_seed(seed, "qd", d as u64);
            resched_daggen::generate(&DagParams::paper_default(), dag_seed)
        })
        .collect();
    let window = |days: i64| {
        let (mut qsum, mut schedules) = (0.0, Vec::new());
        for (i, &st) in starts.iter().enumerate() {
            let ex = ExtractSpec {
                phi: 0.5,
                method: ThinMethod::Expo,
                horizon: Dur::days(days),
            };
            let rs = extract(log, st, &ex, derive_seed(seed, "qx", i as u64));
            let cal = rs.calendar();
            for dag in &dags {
                qsum += rs.q as f64;
                let cfg = ForwardConfig::recommended();
                schedules.push(schedule_forward(dag, &cal, Time::ZERO, rs.q, cfg));
            }
        }
        let avg_q = qsum / schedules.len().max(1) as f64;
        let [ta, cpu] = means(schedules);
        (days, vec![avg_q, ta, cpu])
    };
    Measured::new(
        "Ablation - q estimation window (BL_CPAR_BD_CPAR, SDSC_BLUE-like, phi=0.5)",
        &["Window [days]", "Avg q", TAT, CPU],
        &[0, 2, 1],
        [1, 7, 14].map(window),
    )
}

/// iCASLB against BL_CPAR_BD_CPAR, every iCASLB schedule validated; the
/// second value is each one's mean runtime in milliseconds.
fn icaslb(g: &Drawn) -> (Icaslb, [f64; 2]) {
    let (mut fw, mut ic, mut ms) = (Vec::new(), Vec::new(), [0.0; 2]);
    for drawn in g.iter().flatten() {
        let (inst, cal) = drawn;
        let (f, f_s) = stopwatch(|| forward(drawn, ForwardConfig::recommended()));
        let (i, i_s) = stopwatch(|| schedule_icaslb(&inst.dag, cal, Time::ZERO, inst.resv.q));
        Algorithm::Icaslb
            .validator(&inst.dag, cal, Time::ZERO, None)
            .check(&i)
            .expect("valid iCASLB schedule");
        ms[0] += f_s * 1e3;
        ms[1] += i_s * 1e3;
        fw.push(f);
        ic.push(i);
    }
    let n = fw.len();
    let pairs = fw.iter().zip(&ic);
    let result = Icaslb {
        icaslb_better: pairs
            .filter(|(f, i)| i.turnaround() < f.turnaround())
            .count(),
        forward: means(fw),
        icaslb: means(ic),
        instances: n,
    };
    (result, ms.map(|t| t / n.max(1) as f64))
}

/// Each bounding method scheduled on costs inflated by each estimate
/// factor; the turn-around is that of the inflated reservations, which the
/// application holds to their end.
fn pessimistic(g: &Drawn) -> Measured {
    let factors = [1.0, 1.25, 1.5, 2.0, 3.0];
    let row = |bd: BdMethod| {
        let cfg = ForwardConfig::new(BlMethod::CpaR, bd);
        let at = |f: f64| {
            means(g.iter().flatten().map(|(inst, cal)| {
                schedule_forward(&inst.dag.scale_costs(f), cal, Time::ZERO, inst.resv.q, cfg)
            }))[0]
        };
        (bd.name(), factors.map(at).to_vec())
    };
    let header: Vec<String> = factors.iter().map(|f| format!("TAT[h] f={f}")).collect();
    let mut header: Vec<&str> = header.iter().map(String::as_str).collect();
    header.insert(0, "Algorithm");
    Measured::new(
        "Extension - pessimistic runtime estimates (turn-around vs estimate factor)",
        &header,
        &[2; 5],
        [BdMethod::All, BdMethod::Cpa, BdMethod::CpaR].map(row),
    )
}

/// Trial-and-error scheduling (§3.2.2): the schedule hidden, a bounded
/// number of reservation probes per task, against full visibility.
fn blind(g: &Drawn) -> Measured {
    let n = g.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let full = recommended(g)[0];
    let budget = |probes_per_task: usize| {
        let mut probes = 0.0;
        let cfg = BlindConfig {
            probes_per_task,
            ..BlindConfig::default()
        };
        let [ta, cpu] = means(g.iter().flatten().map(|(inst, cal)| {
            let mut desk = ReservationDesk::new(cal.clone());
            let s = schedule_blind(&inst.dag, &mut desk, Time::ZERO, inst.resv.q, cfg);
            probes += desk.probes() as f64 / inst.dag.num_tasks() as f64;
            s
        }));
        let deg = (ta - full) / full * 100.0;
        (probes_per_task, vec![ta, deg, cpu, probes / n])
    };
    Measured::new(
        &format!(
            "Extension - blind (trial-and-error) scheduling vs full visibility \
             (BL_CPAR_BD_CPAR reference: {full:.2} h)"
        ),
        &[
            "Probes/task",
            TAT,
            "TAT deg vs full [%]",
            CPU,
            "Avg probes used",
        ],
        &[2, 2, 1, 1],
        [1, 2, 4, 8, 16].map(budget),
    )
}

/// Competing reservations arriving between task placements (§3.2.2), a
/// seeded stream per instance, against the static schedule.
fn dynamic(g: &Drawn) -> Measured {
    let fixed = recommended(g)[0];
    let rate = |per_placement: f64| {
        let schedules = g.iter().flatten().enumerate().map(|(n, (inst, cal))| {
            let mut rng = ChaCha12Rng::seed_from_u64(n as u64 + 9);
            let cfg = ForwardConfig::recommended();
            schedule_forward_dynamic(&inst.dag, cal, Time::ZERO, inst.resv.q, cfg, |cal, _| {
                // Poisson-ish: `per_placement` arrivals expected.
                let jitter: f64 = rng.gen_range(-0.5..0.5);
                let arrivals = (per_placement + jitter).round().max(0.0) as usize;
                for _ in 0..arrivals {
                    let start = Time::seconds(rng.gen_range(0..36_000));
                    let dur = Dur::seconds(rng.gen_range(600..14_400));
                    let procs = rng.gen_range(1..=cal.capacity() / 4).max(1);
                    let s = cal.earliest_fit(procs, dur, start);
                    let _ = cal.try_add(Reservation::for_duration(s, dur, procs));
                }
            })
        });
        let ta = means(schedules)[0];
        let deg = (ta - fixed) / fixed * 100.0;
        (fnum(per_placement, 1), vec![ta, deg])
    };
    Measured::new(
        "Extension - dynamic competition during scheduling",
        &["Arrivals per placement", TAT, "Deg vs static [%]"],
        &[2, 2],
        [0.0, 0.5, 1.0, 2.0].map(rate),
    )
}

/// Reservations sized from estimates inflated by a factor, then executed
/// with lognormal runtime noise (σ = 0.25) under kill and requeue.
fn robustness(g: &Drawn) -> Measured {
    let sigma = 0.25;
    let factor = |f: f64| {
        // Completions, makespans, CPU-hours paid and overruns, summed.
        let (mut runs, mut sums) = (0usize, [0.0; 4]);
        for sweep in g {
            for (k, (inst, cal)) in sweep.iter().enumerate() {
                let est = inst.dag.scale_costs(f);
                let cfg = ForwardConfig::recommended();
                let sched = schedule_forward(&est, cal, Time::ZERO, inst.resv.q, cfg);
                // Actual over reserved duration: true / f times the noise.
                let mut rng = ChaCha12Rng::seed_from_u64(k as u64 * 31 + 5);
                let factors: Vec<f64> = inst
                    .dag
                    .task_ids()
                    .map(|_| {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        (sigma * z - sigma * sigma / 2.0).exp() / f
                    })
                    .collect();
                let kill = execute(&est, &sched, cal, &factors, OverrunPolicy::Kill);
                let requeue = execute(&est, &sched, cal, &factors, OverrunPolicy::Requeue);
                let makespan = requeue
                    .turnaround(Time::ZERO)
                    .map_or(0.0, |ta| ta.as_hours());
                runs += 1;
                sums[0] += f64::from(u8::from(kill.completed));
                sums[1] += makespan;
                sums[2] += requeue.cpu_hours_paid;
                sums[3] += requeue.overruns.len() as f64;
            }
        }
        let n = runs.max(1) as f64;
        let [completed, makespan, cpu, overruns] = sums.map(|s| s / n);
        (fnum(f, 2), vec![completed * 100.0, makespan, cpu, overruns])
    };
    Measured::new(
        "Extension - estimate pessimism vs execution reliability (noise sigma = 0.25)",
        &[
            "Estimate factor",
            "Completion rate (Kill) [%]",
            "Avg makespan (Requeue) [h]",
            "Avg CPU-h paid (Requeue)",
            "Avg overruns/app",
        ],
        &[1, 2, 1, 2],
        [1.0, 1.1, 1.25, 1.5, 2.0].map(factor),
    )
}

/// A paper-default DAG's structure with costs that carry a per-processor
/// coordination overhead, jittered ×0.5–1.5 per task.
fn overhead_dag(seed: u64, overhead: Dur) -> Dag {
    let base = resched_daggen::generate(&DagParams::paper_default(), seed);
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xabcd);
    let mut b = DagBuilder::new();
    for c in base.costs() {
        let jitter = rng.gen_range(0.5..1.5);
        let ov = Dur::seconds((overhead.as_seconds() as f64 * jitter) as i64);
        b.add_task(TaskCost::with_overhead(c.seq, c.alpha, ov));
    }
    for t in base.task_ids() {
        for &s in base.succs(t) {
            b.add_edge(t, s);
        }
    }
    b.build().expect("same structure is still a DAG")
}

/// BD_ALL against BD_CPAR under the U-shaped overhead cost model: six
/// DAGs per overhead on an empty 256-processor calendar, every schedule
/// validated.
fn overhead(seed: u64) -> Measured {
    let (p, runs) = (256u32, 6u64);
    let level = |overhead_s: i64| {
        // Turn-around of BD_ALL and BD_CPAR, then their CPU-hours.
        let mut sums = [0.0f64; 4];
        for i in 0..runs {
            let dag = overhead_dag(seed ^ i, Dur::seconds(overhead_s));
            let cal = Calendar::new(p);
            for (k, bd) in [BdMethod::All, BdMethod::CpaR].into_iter().enumerate() {
                let cfg = ForwardConfig::new(BlMethod::CpaR, bd);
                let s = schedule_forward(&dag, &cal, Time::ZERO, p, cfg);
                Algorithm::Forward(cfg)
                    .validator(&dag, &cal, Time::ZERO, None)
                    .check(&s)
                    .expect("valid");
                sums[k] += s.turnaround().as_hours() / runs as f64;
                sums[k + 2] += s.cpu_hours() / runs as f64;
            }
        }
        (overhead_s, sums.to_vec())
    };
    Measured::new(
        "Extension - per-processor overhead model (p = 256, empty calendar)",
        &[
            "Overhead [s/proc]",
            "BD_ALL TAT [h]",
            "BD_CPAR TAT [h]",
            "BD_ALL CPU-h",
            "BD_CPAR CPU-h",
        ],
        &[2, 2, 1, 1],
        [0, 5, 20, 60].map(level),
    )
}

/// CPA(q) against MCPA(q) allocation bounds on the layered (jump = 1)
/// sweeps of `sweeps`, drawn as `g`.
fn mcpa_bounds(sweeps: &[Sweep], g: &Drawn) -> Measured {
    let (mut by_cpa, mut by_mcpa) = (Vec::new(), Vec::new());
    let layered = sweeps.iter().zip(g).filter(|(s, _)| s.params.jump == 1);
    for d @ (inst, cal) in layered.flat_map(|(_, drawn)| drawn) {
        let (dag, q, cfg) = (&inst.dag, inst.resv.q, ForwardConfig::recommended());
        by_cpa.push(forward(d, cfg));
        let bounds = mcpa::allocate(dag, q).allocs;
        let s = schedule_forward_bounded(dag, cal, Time::ZERO, q, cfg, &bounds);
        by_mcpa.push(s);
    }
    Measured::new(
        "Extension - MCPA vs CPA allocation bounds (layered DAGs, Grid'5000-like)",
        &["Bound source", TAT, CPU],
        &[2, 1],
        [("CPA(q)", by_cpa), ("MCPA(q)", by_mcpa)].map(|(l, s)| (l, means(s).to_vec())),
    )
}
