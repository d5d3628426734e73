//! Validation tallies: every registered algorithm audited by the
//! independent schedule-validity oracle over a shared scenario batch.
//!
//! The schedulers already self-check in debug builds (their post-pass
//! asserts the oracle), but the experiment binaries run in release where
//! those hooks compile out. This experiment re-runs the oracle explicitly
//! and surfaces the tallies in `results/experiments.*`, so a validity
//! regression shows up in the report next to the numbers it would taint.
//! The expected violation count is zero for every algorithm.

use crate::par_map;
use crate::scenario::{default_sweep, derive_seed, instances_for, LogCache, ResvSpec, Scale};
use crate::table::Table;
use resched_core::algos::{Algorithm, RunError};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::Time;
use serde::{Deserialize, Serialize};

/// Oracle tallies for one algorithm across the scenario batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationSummary {
    /// Canonical algorithm name.
    pub algorithm: String,
    /// Schedules produced and audited.
    pub audited: usize,
    /// Deadline-infeasible outcomes (legitimate, not audited).
    pub infeasible: usize,
    /// Oracle violations — any non-zero value is a bug.
    pub violations: usize,
    /// The first violation message, for the report.
    pub first_violation: Option<String>,
}

/// Per-instance outcome per algorithm, reduced into the summaries.
enum Outcome {
    Valid,
    Infeasible,
    Violation(String),
}

/// Run every registered algorithm over the default application sweep on
/// Grid'5000-like reservation schedules and audit each produced schedule
/// with the oracle configured via [`Algorithm::validator`], the instances
/// on `threads` workers.
pub fn run_validation(scale: Scale, seed: u64, threads: usize) -> Vec<ValidationSummary> {
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, seed).clone();
    let instances = instances_for(
        &default_sweep(),
        &spec,
        &log,
        scale,
        derive_seed(seed, "validation", 0),
    );
    let catalog = Algorithm::catalog();

    let per_instance: Vec<Vec<Outcome>> = par_map(&instances, threads, |inst| {
        let cal = inst.resv.calendar();
        let fwd = schedule_forward(
            &inst.dag,
            &cal,
            Time::ZERO,
            inst.resv.q,
            ForwardConfig::recommended(),
        );
        let deadline = Some(Time::ZERO + fwd.turnaround() * 2);
        catalog
            .iter()
            .map(
                |algo| match algo.run(&inst.dag, &cal, Time::ZERO, inst.resv.q, deadline) {
                    Ok(s) => match algo
                        .validator(&inst.dag, &cal, Time::ZERO, deadline)
                        .check(&s)
                    {
                        Ok(()) => Outcome::Valid,
                        Err(v) => Outcome::Violation(v.to_string()),
                    },
                    Err(RunError::Infeasible(_)) => Outcome::Infeasible,
                    Err(e) => Outcome::Violation(format!("failed to run: {e}")),
                },
            )
            .collect()
    });

    let mut out: Vec<ValidationSummary> = catalog
        .iter()
        .map(|a| ValidationSummary {
            algorithm: a.name(),
            audited: 0,
            infeasible: 0,
            violations: 0,
            first_violation: None,
        })
        .collect();
    for outcomes in &per_instance {
        for (summary, outcome) in out.iter_mut().zip(outcomes) {
            match outcome {
                Outcome::Valid => summary.audited += 1,
                Outcome::Infeasible => summary.infeasible += 1,
                Outcome::Violation(msg) => {
                    summary.audited += 1;
                    summary.violations += 1;
                    if summary.first_violation.is_none() {
                        summary.first_violation = Some(msg.clone());
                    }
                }
            }
        }
    }
    out
}

/// Render the validation tallies.
pub fn validation_table(results: &[ValidationSummary]) -> Table {
    let mut t = Table::new(
        "Schedule-validity oracle - audits per algorithm (violations must be 0)",
        &[
            "Algorithm",
            "audited",
            "infeasible",
            "violations",
            "first violation",
        ],
    );
    for r in results {
        t.row(vec![
            r.algorithm.clone(),
            r.audited.to_string(),
            r.infeasible.to_string(),
            r.violations.to_string(),
            r.first_violation.clone().unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_audit_clean() {
        let scale = Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        };
        let results = run_validation(scale, 5, 2);
        assert_eq!(results.len(), Algorithm::catalog().len());
        let mut audited_total = 0usize;
        for r in &results {
            assert_eq!(
                r.violations, 0,
                "{} violated the oracle: {:?}",
                r.algorithm, r.first_violation
            );
            assert!(r.audited + r.infeasible > 0, "{} never ran", r.algorithm);
            audited_total += r.audited;
        }
        assert!(audited_total > 0, "nothing was audited");
        let rendered = validation_table(&results).render();
        assert!(rendered.contains("violations"));
    }
}
