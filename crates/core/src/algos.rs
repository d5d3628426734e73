//! A unified registry over every scheduling algorithm in the workspace, so
//! harnesses, CLIs, and comparisons can treat them uniformly.

use crate::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig, DeadlineInfeasible};
use crate::bl::BlMethod;
use crate::blind::{schedule_blind, BlindConfig, ReservationDesk};
use crate::dag::Dag;
use crate::forward::{schedule_forward, BdMethod, ForwardConfig};
use crate::icaslb::schedule_icaslb;
use crate::schedule::Schedule;
use resched_resv::{Calendar, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Node size used by the catalog's hierarchical twins (`H_*`): placements
/// are restricted to whole 2-core nodes (the smallest hierarchy that is
/// not flat, so the twins exercise every quantization path while staying
/// directly comparable to their flat originals).
pub const TWIN_GRAIN: u32 = 2;

/// Any algorithm in the workspace, by family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Algorithm {
    /// A RESSCHED (turn-around minimization) algorithm.
    Forward(ForwardConfig),
    /// A RESSCHEDDL (deadline) algorithm; needs a deadline at run time.
    Deadline(DeadlineAlgo),
    /// The reservation-aware one-step iCASLB extension.
    Icaslb,
    /// The trial-and-error (no-visibility) extension.
    Blind,
    /// A RESSCHEDDL algorithm placing on whole [`TWIN_GRAIN`]-core nodes
    /// (the hierarchical twin regime; `H_DL_*` names).
    HierDeadline(DeadlineAlgo),
}

impl Algorithm {
    /// Every concrete algorithm the paper evaluates, plus the extensions
    /// and the two hierarchical twins.
    pub fn catalog() -> Vec<Algorithm> {
        let mut v = Vec::new();
        for bl in BlMethod::ALL {
            for bd in BdMethod::ALL {
                v.push(Algorithm::Forward(ForwardConfig::new(bl, bd)));
            }
        }
        for a in DeadlineAlgo::ALL {
            v.push(Algorithm::Deadline(a));
        }
        v.push(Algorithm::Icaslb);
        v.push(Algorithm::Blind);
        // Hierarchical twins: the recommended forward algorithm and the
        // best hybrid deadline algorithm, placing on whole nodes.
        v.push(Algorithm::Forward(
            ForwardConfig::recommended().hierarchical(TWIN_GRAIN),
        ));
        v.push(Algorithm::HierDeadline(DeadlineAlgo::RcbdCpaRLambda));
        v
    }

    /// Canonical display name.
    pub fn name(&self) -> String {
        match self {
            Algorithm::Forward(cfg) => cfg.name(),
            Algorithm::Deadline(a) => a.name().to_string(),
            Algorithm::Icaslb => "iCASLB-AR".to_string(),
            Algorithm::Blind => "BLIND".to_string(),
            Algorithm::HierDeadline(a) => format!("H_{}", a.name()),
        }
    }

    /// Find an algorithm by its canonical name.
    pub fn by_name(name: &str) -> Option<Algorithm> {
        Algorithm::catalog().into_iter().find(|a| a.name() == name)
    }

    /// The independent validity oracle configured for this algorithm on
    /// one problem instance: deadline algorithms get their deadline wired
    /// in, everything else is checked against the base invariants.
    ///
    /// Harnesses (the sim experiment tables, the fuzz driver in `tests/`)
    /// use this to audit [`Algorithm::run`] output uniformly; the per-task
    /// `BD_*`/`DL_*` allocation caps are additionally enforced by each
    /// scheduler's own gated post-pass, which knows the bounds it computed.
    pub fn validator<'a>(
        &self,
        dag: &'a Dag,
        competing: &'a Calendar,
        now: Time,
        deadline: Option<Time>,
    ) -> crate::validate::ScheduleValidator<'a> {
        let v = crate::validate::ScheduleValidator::new(dag, competing, now);
        // The schedulers degrade the grain to the machine size (a 2-core
        // node does not exist on a 1-core machine); the oracle must judge
        // against the same effective grain or it rejects valid schedules.
        let cap = competing.capacity().max(1);
        let v = match self {
            Algorithm::Forward(cfg) if cfg.grain > 1 => v.with_grain(cfg.grain.min(cap)),
            Algorithm::HierDeadline(_) => v.with_grain(TWIN_GRAIN.min(cap)),
            _ => v,
        };
        match (self, deadline) {
            (Algorithm::Deadline(_) | Algorithm::HierDeadline(_), Some(k)) => v.with_deadline(k),
            _ => v,
        }
    }

    /// Run the algorithm on one problem instance. Deadline algorithms need
    /// `deadline: Some(k)`; the others ignore it.
    pub fn run(
        &self,
        dag: &Dag,
        competing: &Calendar,
        now: Time,
        q: u32,
        deadline: Option<Time>,
    ) -> Result<Schedule, RunError> {
        let deadline_run = |a: DeadlineAlgo, cfg: DeadlineConfig| {
            let k = deadline.ok_or(RunError::DeadlineRequired)?;
            schedule_deadline(dag, competing, now, q, k, a, cfg)
                .map(|outcome| outcome.schedule)
                .map_err(RunError::Infeasible)
        };
        match self {
            Algorithm::Forward(cfg) => Ok(schedule_forward(dag, competing, now, q, *cfg)),
            Algorithm::Deadline(a) => deadline_run(*a, DeadlineConfig::default()),
            Algorithm::Icaslb => Ok(schedule_icaslb(dag, competing, now, q)),
            Algorithm::Blind => Ok(schedule_blind(
                dag,
                &mut ReservationDesk::new(competing.clone()),
                now,
                q,
                BlindConfig::default(),
            )),
            Algorithm::HierDeadline(a) => {
                deadline_run(*a, DeadlineConfig::default().hierarchical(TWIN_GRAIN))
            }
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Errors from [`Algorithm::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A deadline algorithm was run without a deadline.
    DeadlineRequired,
    /// The deadline cannot be met.
    Infeasible(DeadlineInfeasible),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::DeadlineRequired => write!(f, "this algorithm requires a deadline"),
            RunError::Infeasible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::fork_join;
    use crate::task::TaskCost;
    use resched_resv::Dur;

    fn instance() -> (Dag, Calendar) {
        let c = |s, a| TaskCost::new(Dur::seconds(s), a);
        let dag = fork_join(c(300, 0.1), &[c(3600, 0.15); 4], c(300, 0.1));
        let mut cal = Calendar::new(8);
        cal.try_add(resched_resv::Reservation::new(
            Time::seconds(100),
            Time::seconds(4000),
            5,
        ))
        .unwrap();
        (dag, cal)
    }

    #[test]
    fn catalog_covers_everything_with_unique_names() {
        let cat = Algorithm::catalog();
        // 16 forward + 7 deadline + 2 extensions + 2 hierarchical twins.
        assert_eq!(cat.len(), 27);
        let mut names: Vec<String> = cat.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 27, "duplicate algorithm names");
    }

    #[test]
    fn catalog_matches_the_doc_tables() {
        // The catalog tables of DESIGN.md §1.2 and EXPERIMENTS.md — the
        // backticked names between the `lint:catalog` markers — list
        // exactly `Algorithm::catalog()`, in its order. (The goldens are
        // held to the catalog by `obs_differential`, which runs all of it.)
        let runtime: Vec<String> = Algorithm::catalog().iter().map(|a| a.name()).collect();
        for (doc, text) in [
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ] {
            let table = text
                .split_once("<!-- lint:catalog:begin -->")
                .and_then(|(_, rest)| rest.split_once("<!-- lint:catalog:end -->"))
                .unwrap_or_else(|| panic!("{doc} has no lint:catalog marker pair"))
                .0;
            let listed: Vec<&str> = table.split('`').skip(1).step_by(2).collect();
            assert_eq!(
                listed, runtime,
                "{doc}'s catalog table is out of sync with Algorithm::catalog()"
            );
        }
    }

    #[test]
    fn by_name_roundtrips() {
        for a in Algorithm::catalog() {
            assert_eq!(Algorithm::by_name(&a.name()), Some(a));
        }
        assert_eq!(Algorithm::by_name("nope"), None);
    }

    #[test]
    fn every_algorithm_runs_and_validates() {
        let (dag, cal) = instance();
        let deadline = Some(Time::seconds(500_000));
        for a in Algorithm::catalog() {
            let s = a
                .run(&dag, &cal, Time::ZERO, 4, deadline)
                .unwrap_or_else(|e| panic!("{a}: {e}"));
            // Through the oracle, with the deadline wired in where the
            // algorithm had to honor one.
            a.validator(&dag, &cal, Time::ZERO, deadline)
                .check(&s)
                .unwrap_or_else(|e| panic!("{a}: oracle rejects schedule: {e}"));
        }
    }

    #[test]
    fn deadline_algorithms_demand_a_deadline() {
        let (dag, cal) = instance();
        for a in Algorithm::catalog() {
            let needs = matches!(a, Algorithm::Deadline(_) | Algorithm::HierDeadline(_));
            let run = a.run(&dag, &cal, Time::ZERO, 4, None);
            assert_eq!(
                run.err() == Some(RunError::DeadlineRequired),
                needs,
                "{}",
                a.name()
            );
        }
    }
}
