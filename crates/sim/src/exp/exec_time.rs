//! Execution-time measurements: the paper's Tables 9 (runtime vs. number of
//! tasks) and 10 (runtime vs. edge density), §6.2.
//!
//! The paper measures its C implementation on a 2.4 GHz Opteron; absolute
//! milliseconds differ here, but the *relationships* must hold: runtimes
//! grow with `n` and `d`, and the resource-conservative algorithms are
//! roughly 10–90× more expensive than the aggressive ones because they
//! recompute a CPA mapping per task decision.
//!
//! The stopwatch times plain scheduling calls, never observed ones; the
//! per-phase decomposition of an algorithm's time is `exp::profile`'s.

use crate::exp::stopwatch;
use crate::scenario::{derive_seed, instances_for, Instance, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig};
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::{Calendar, Time};
use resched_daggen::{DagParams, Sweep};
use serde::{Deserialize, Serialize};

/// All rows of Tables 9/10: forward algorithms by bounding method, then the
/// deadline algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimedAlgo {
    /// A forward (RESSCHED) algorithm with BL_CPAR bottom levels.
    Forward(BdMethod),
    /// A deadline (RESSCHEDDL) algorithm.
    Deadline(DeadlineAlgo),
}

impl TimedAlgo {
    /// The ten rows of the paper's Tables 9/10, in order (BD_HALF is not in
    /// those tables).
    pub fn table9_rows() -> Vec<TimedAlgo> {
        vec![
            TimedAlgo::Forward(BdMethod::All),
            TimedAlgo::Forward(BdMethod::Cpa),
            TimedAlgo::Forward(BdMethod::CpaR),
            TimedAlgo::Deadline(DeadlineAlgo::BdAll),
            TimedAlgo::Deadline(DeadlineAlgo::BdCpa),
            TimedAlgo::Deadline(DeadlineAlgo::BdCpaR),
            TimedAlgo::Deadline(DeadlineAlgo::RcCpa),
            TimedAlgo::Deadline(DeadlineAlgo::RcCpaR),
            TimedAlgo::Deadline(DeadlineAlgo::RcCpaRLambda),
            TimedAlgo::Deadline(DeadlineAlgo::RcbdCpaRLambda),
        ]
    }

    /// The paper's row name.
    pub fn name(&self) -> &'static str {
        match self {
            TimedAlgo::Forward(bd) => bd.name(),
            TimedAlgo::Deadline(a) => a.name(),
        }
    }
}

/// Measured average execution times (milliseconds) for one parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingColumn {
    /// Column label (e.g. "n=50" or "d=0.5").
    pub label: String,
    /// Average milliseconds per algorithm, in `TimedAlgo::table9_rows`
    /// order.
    pub avg_ms: Vec<f64>,
}

/// Time all algorithms on Grid'5000-like schedules for one application
/// parameter set. The deadline algorithms are given a deadline of twice the
/// forward BD_CPAR turn-around, which keeps every algorithm on its normal
/// code path (feasible, non-trivial).
fn time_algorithms(params: &DagParams, label: &str, scale: Scale, seed: u64) -> TimingColumn {
    let algos = TimedAlgo::table9_rows();
    let mut totals = vec![0.0f64; algos.len()];
    let mut count = 0usize;
    for inst in &timing_instances(params, label, scale, seed) {
        let cal = inst.resv.calendar();
        let deadline = reference_deadline(inst, &cal);
        for (i, algo) in algos.iter().enumerate() {
            // Tables 9/10 report measured wall-clock scheduling time, not
            // schedule content.
            totals[i] += stopwatch(|| run_algo(*algo, inst, &cal, deadline)).1 * 1e3;
        }
        count += 1;
    }
    let n = count.max(1) as f64;
    TimingColumn {
        label: label.to_string(),
        avg_ms: totals.into_iter().map(|t| t / n).collect(),
    }
}

/// The Grid'5000-like instances one timing column is measured on.
fn timing_instances(params: &DagParams, label: &str, scale: Scale, seed: u64) -> Vec<Instance> {
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, seed).clone();
    let sweep = Sweep {
        varied: "timing".into(),
        value: 0.0,
        params: *params,
    };
    instances_for(&sweep, &spec, &log, scale, derive_seed(seed, label, 0))
}

/// Deadline for the DL_* rows: twice the recommended forward turn-around.
fn reference_deadline(inst: &Instance, cal: &Calendar) -> Time {
    let reference = schedule_forward(
        &inst.dag,
        cal,
        Time::ZERO,
        inst.resv.q,
        ForwardConfig::recommended(),
    );
    Time::ZERO + reference.turnaround() * 2
}

/// One scheduling call of the kind a Table 9/10 row times.
fn run_algo(algo: TimedAlgo, inst: &Instance, cal: &Calendar, deadline: Time) {
    let q = inst.resv.q;
    match algo {
        TimedAlgo::Forward(bd) => {
            let cfg = ForwardConfig::new(BlMethod::CpaR, bd);
            let s = schedule_forward(&inst.dag, cal, Time::ZERO, q, cfg);
            std::hint::black_box(s.turnaround());
        }
        TimedAlgo::Deadline(a) => {
            let out = schedule_deadline(
                &inst.dag,
                cal,
                Time::ZERO,
                q,
                deadline,
                a,
                DeadlineConfig::default(),
            );
            std::hint::black_box(out.is_ok());
        }
    }
}

/// Table 9: execution times as `n` varies over Table 1's values.
pub fn run_table9(scale: Scale, seed: u64) -> Vec<TimingColumn> {
    [10usize, 25, 50, 75, 100]
        .iter()
        .map(|&n| {
            let params = DagParams {
                num_tasks: n,
                ..DagParams::paper_default()
            };
            time_algorithms(&params, &format!("n={n}"), scale, seed)
        })
        .collect()
}

/// Table 10: execution times as density varies over Table 1's values.
pub fn run_table10(scale: Scale, seed: u64) -> Vec<TimingColumn> {
    (1..=9)
        .map(|i| {
            let d = i as f64 / 10.0;
            let params = DagParams {
                density: d,
                ..DagParams::paper_default()
            };
            time_algorithms(&params, &format!("d={d:.1}"), scale, seed)
        })
        .collect()
}

/// Render timing columns as a table (rows = algorithms).
pub fn timing_table(title: &str, cols: &[TimingColumn]) -> Table {
    assert!(!cols.is_empty());
    let mut header: Vec<String> = vec!["Algorithm".into()];
    header.extend(cols.iter().map(|c| format!("{} [ms]", c.label)));
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &refs);
    for (i, algo) in TimedAlgo::table9_rows().iter().enumerate() {
        let mut row = vec![algo.name().to_string()];
        row.extend(cols.iter().map(|c| fnum(c.avg_ms[i], 3)));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_produces_positive_times() {
        let scale = Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        };
        let params = DagParams {
            num_tasks: 10,
            ..DagParams::paper_default()
        };
        let col = time_algorithms(&params, "n=10", scale, 3);
        assert_eq!(col.avg_ms.len(), 10);
        assert!(col.avg_ms.iter().all(|&ms| ms > 0.0));
        let t = timing_table("t", &[col]);
        assert!(t.render().contains("DL_RC_CPAR"));
    }

    #[test]
    fn phase_self_times_never_exceed_the_observed_total() {
        let scale = Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        };
        let params = DagParams {
            num_tasks: 10,
            ..DagParams::paper_default()
        };
        let instances = timing_instances(&params, "n=10", scale, 3);
        assert!(!instances.is_empty());
        for inst in &instances {
            let cal = inst.resv.calendar();
            let deadline = reference_deadline(inst, &cal);
            for algo in TimedAlgo::table9_rows() {
                let ((), report) = resched_core::obs::observe(algo.name(), || {
                    run_algo(algo, inst, &cal, deadline)
                });
                let prof = &report.profile;
                // Self-times partition the observed wall clock, so their
                // sum can never exceed it.
                let self_ns: u64 = prof.spans.iter().map(|s| s.self_ns).sum();
                assert!(
                    self_ns <= prof.wall_ns,
                    "{}: phase sum {} ns exceeds wall {} ns",
                    algo.name(),
                    self_ns,
                    prof.wall_ns
                );
                assert!(!prof.spans.is_empty(), "{}: no spans", algo.name());
            }
        }
    }

    #[test]
    fn rows_match_paper_order() {
        let rows = TimedAlgo::table9_rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].name(), "BD_ALL");
        assert_eq!(rows[9].name(), "DL_RCBD_CPAR-L");
    }
}
