//! Execution-time measurements: the paper's Tables 9 (runtime vs. number of
//! tasks) and 10 (runtime vs. edge density), §6.2.
//!
//! The paper measures its C implementation on a 2.4 GHz Opteron; absolute
//! milliseconds differ here, but the *relationships* must hold: runtimes
//! grow with `n` and `d`, and the resource-conservative algorithms are
//! roughly 10–90× more expensive than the aggressive ones because they
//! recompute a CPA mapping per task decision.
//!
//! Besides the lump per-algorithm stopwatch (always measured, so Tables
//! 9/10 work in every build), each run is wrapped in an
//! [`resched_core::obs::observe`] scope: with the `obs` feature the
//! [`TimingColumn`] also carries a folded per-phase [`PhaseProfile`]
//! (prep vs. placement vs. backward passes), so the lump numbers can be
//! decomposed. Without the feature the profiles are empty.

use crate::scenario::{derive_seed, instances_for, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig};
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::obs::{self, PhaseProfile};
use resched_core::prelude::Time;
use resched_daggen::{DagParams, Sweep};
use serde::{Deserialize, Serialize};
use std::time::Instant;

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
    /// Folded span profile per algorithm, same order (empty spans without
    /// the `obs` feature).
    pub phases: Vec<PhaseProfile>,
}

/// Time all algorithms on Grid'5000-like schedules for one application
/// parameter set. The deadline algorithms are given a deadline of twice the
/// forward BD_CPAR turn-around, which keeps every algorithm on its normal
/// code path (feasible, non-trivial).
pub fn time_algorithms(params: &DagParams, label: &str, scale: Scale, seed: u64) -> TimingColumn {
    let algos = TimedAlgo::table9_rows();
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, seed).clone();
    let sweep = Sweep {
        varied: "timing".into(),
        value: 0.0,
        params: *params,
    };
    let instances = instances_for(&sweep, &spec, &log, scale, derive_seed(seed, label, 0));

    let mut totals = vec![0.0f64; algos.len()];
    let mut phases = vec![PhaseProfile::default(); algos.len()];
    let mut count = 0usize;
    for inst in &instances {
        let cal = inst.resv.calendar();
        let q = inst.resv.q;
        // Reference deadline for the DL_* rows (outside any observe scope).
        let reference =
            schedule_forward(&inst.dag, &cal, Time::ZERO, q, ForwardConfig::recommended());
        let deadline = Time::ZERO + reference.turnaround() * 2;
        for (i, algo) in algos.iter().enumerate() {
            // The lump stopwatch stays on `Instant` so Tables 9/10 are
            // measured identically in every build; the observe scope only
            // adds the per-phase decomposition when `obs` is compiled in.
            // A deliberate stopwatch: Tables 9/10 report measured wall-clock
            // scheduling time, not schedule content.
            #[allow(clippy::disallowed_methods)]
            let t0 = Instant::now();
            let ((), report) = obs::observe(algo.name(), || match algo {
                TimedAlgo::Forward(bd) => {
                    let cfg = ForwardConfig::new(BlMethod::CpaR, *bd);
                    let s = schedule_forward(&inst.dag, &cal, Time::ZERO, q, cfg);
                    std::hint::black_box(s.turnaround());
                }
                TimedAlgo::Deadline(a) => {
                    let out = schedule_deadline(
                        &inst.dag,
                        &cal,
                        Time::ZERO,
                        q,
                        deadline,
                        *a,
                        DeadlineConfig::default(),
                    );
                    std::hint::black_box(out.is_ok());
                }
            });
            totals[i] += t0.elapsed().as_secs_f64() * 1e3;
            phases[i].absorb(&report.profile);
        }
        count += 1;
    }
    let n = count.max(1) as f64;
    TimingColumn {
        label: label.to_string(),
        avg_ms: totals.into_iter().map(|t| t / n).collect(),
        phases,
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
        let col = time_algorithms(&params, "n=10", scale, 3);
        assert_eq!(col.phases.len(), col.avg_ms.len());
        for (algo, prof) in TimedAlgo::table9_rows().iter().zip(&col.phases) {
            // Self-times partition the observed wall clock, so their sum
            // can never exceed it.
            assert!(
                prof.total_self_ns() <= prof.wall_ns,
                "{}: phase sum {} ns exceeds wall {} ns",
                algo.name(),
                prof.total_self_ns(),
                prof.wall_ns
            );
            if resched_core::obs::COMPILED {
                assert!(
                    !prof.spans.is_empty(),
                    "{}: no spans despite obs being compiled in",
                    algo.name()
                );
            } else {
                assert!(prof.spans.is_empty(), "spans recorded without obs");
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
