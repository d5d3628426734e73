//! Table 8 — worst-case asymptotic complexities, verified empirically.
//!
//! The symbolic complexities live in [`resched_core::complexity`]. This
//! experiment checks the two growth claims that matter in practice using
//! the `ScheduleStats` work counters:
//!
//! 1. slot queries grow roughly linearly in `V` for the aggressive
//!    algorithms;
//! 2. the resource-conservative algorithms perform `Θ(V)` CPA mappings per
//!    schedule (one per task decision), which the aggressive ones never do.

use crate::scenario::{derive_seed, instances_for, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig};
use resched_core::complexity::complexity_of;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::Time;
use resched_core::schedule::ScheduleStats;
use resched_daggen::{DagParams, Sweep};
use serde::{Deserialize, Serialize};

/// Work counters for one algorithm at one problem size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of tasks.
    pub n: usize,
    /// Average slot queries per schedule.
    pub slot_queries: f64,
    /// Average slot-query work per schedule (segment-tree nodes visited).
    pub slot_steps: f64,
    /// Average CPA mappings per schedule.
    pub cpa_mappings: f64,
}

/// Counter growth for one algorithm across problem sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingResult {
    /// Algorithm name.
    pub name: String,
    /// Symbolic worst-case complexity (paper's Table 8).
    pub complexity: String,
    /// Measured points.
    pub points: Vec<ScalingPoint>,
}

/// The deadline algorithms measured beside the two forward ones: the
/// resource-conservative scan, the aggressive scan, and the hybrid whose
/// fallback is bounded by the CPA(`q`) allocation.
const DEADLINE_ROWS: [DeadlineAlgo; 3] = [
    DeadlineAlgo::RcCpaR,
    DeadlineAlgo::BdCpaR,
    DeadlineAlgo::RcbdCpaRLambda,
];

/// Measure counter growth for the forward algorithms (`BD_ALL`, the
/// recommended `BD_CPAR`) and the `DEADLINE_ROWS` as `n` grows.
pub fn run_scaling(scale: Scale, seed: u64) -> Vec<ScalingResult> {
    let sizes = [10usize, 25, 50, 100];
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, seed).clone();

    let mut results: Vec<ScalingResult> = ["BD_ALL", "BD_CPAR"]
        .into_iter()
        .chain(DEADLINE_ROWS.iter().map(|a| a.name()))
        .map(|name| ScalingResult {
            name: name.into(),
            complexity: complexity_of(name).into(),
            points: Vec::new(),
        })
        .collect();

    for &n in &sizes {
        let sweep = Sweep {
            varied: "scaling".into(),
            value: n as f64,
            params: DagParams {
                num_tasks: n,
                ..DagParams::paper_default()
            },
        };
        let instances = instances_for(
            &sweep,
            &spec,
            &log,
            scale,
            derive_seed(seed, "scal", n as u64),
        );
        // One counter total per result row, in row order.
        let mut totals = vec![ScheduleStats::default(); results.len()];
        for inst in &instances {
            let cal = inst.resv.calendar();
            let forward = |cfg| schedule_forward(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
            totals[0].absorb(
                forward(ForwardConfig::new(
                    resched_core::bl::BlMethod::CpaR,
                    resched_core::forward::BdMethod::All,
                ))
                .stats,
            );
            let s = forward(ForwardConfig::recommended());
            totals[1].absorb(s.stats);
            let deadline = Time::ZERO + s.turnaround() * 2;
            for (total, algo) in totals[2..].iter_mut().zip(DEADLINE_ROWS) {
                if let Ok(out) = schedule_deadline(
                    &inst.dag,
                    &cal,
                    Time::ZERO,
                    inst.resv.q,
                    deadline,
                    algo,
                    DeadlineConfig::default(),
                ) {
                    total.absorb(out.schedule.stats);
                }
            }
        }
        let c = instances.len().max(1) as f64;
        for (r, total) in results.iter_mut().zip(totals) {
            r.points.push(ScalingPoint {
                n,
                slot_queries: total.slot_queries as f64 / c,
                slot_steps: total.slot_steps as f64 / c,
                cpa_mappings: total.cpa_mappings as f64 / c,
            });
        }
    }
    results
}

/// Render the symbolic Table 8 plus the measured counters.
pub fn scaling_table(results: &[ScalingResult]) -> Table {
    let mut t = Table::new(
        "Table 8 - complexities (symbolic) with measured work counters",
        &[
            "Algorithm",
            "Complexity",
            "n",
            "slot queries/run",
            "slot steps/run",
            "CPA mappings/run",
        ],
    );
    for r in results {
        for p in &r.points {
            t.row(vec![
                r.name.clone(),
                r.complexity.clone(),
                p.n.to_string(),
                fnum(p.slot_queries, 1),
                fnum(p.slot_steps, 1),
                fnum(p.cpa_mappings, 1),
            ]);
        }
    }
    t
}

/// Render the paper's full symbolic Table 8.
pub fn symbolic_table8() -> Table {
    let mut t = Table::new(
        "Table 8 - worst-case asymptotic complexities",
        &["Algorithm", "Complexity"],
    );
    for name in [
        "BD_ALL",
        "BD_CPA",
        "BD_CPAR",
        "DL_BD_ALL",
        "DL_BD_CPA",
        "DL_BD_CPAR",
        "DL_RC_CPA",
        "DL_RC_CPAR",
        "DL_RC_CPAR-L",
        "DL_RCBD_CPAR-L",
    ] {
        t.row(vec![name.into(), complexity_of(name).into()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_counters_grow_with_n() {
        let scale = Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        };
        let results = run_scaling(scale, 5);
        assert_eq!(results.len(), 5);
        // BD_ALL scans 1..=p per task, so its query count must grow ~V.
        let fwd_all = &results[0];
        let first = &fwd_all.points[0];
        let last = &fwd_all.points[fwd_all.points.len() - 1];
        assert!(
            last.slot_queries > first.slot_queries * 2.0,
            "BD_ALL queries should grow with n: {} -> {}",
            first.slot_queries,
            last.slot_queries
        );
        // The work tally must accompany every query on every algorithm.
        for r in &results {
            for p in &r.points {
                assert!(
                    p.slot_queries == 0.0 || p.slot_steps > 0.0,
                    "{}: queries without recorded work at n={}",
                    r.name,
                    p.n
                );
            }
        }
        // RC performs ~one mapping per task; the forward algorithms none.
        let fwd = &results[1];
        let rc = &results[2];
        assert!(fwd.points.iter().all(|p| p.cpa_mappings == 0.0));
        assert!(fwd_all.points.iter().all(|p| p.cpa_mappings == 0.0));
        for p in &rc.points {
            assert!(
                p.cpa_mappings >= p.n as f64 * 0.9,
                "RC mappings {} should be ~n={}",
                p.cpa_mappings,
                p.n
            );
        }
        let t = scaling_table(&results);
        assert!(t.render().contains("BD_CPAR"));
        assert!(symbolic_table8().render().contains("DL_RCBD_CPAR-L"));
    }
}
