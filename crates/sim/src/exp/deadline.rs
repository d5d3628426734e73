//! RESSCHEDDL experiments: the paper's Table 6 (five deadline algorithms on
//! SDSC_BLUE-like synthetic schedules plus Grid'5000-like ones) and Table 7
//! (the λ-hybrids on Grid'5000-like schedules).

use crate::metrics::{AlgoSummary, DegradationTracker};
use crate::par_map;
use crate::scenario::{instances_for, Instance, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::backward::{DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::prelude::{Dur, Time};
use resched_daggen::Sweep;
use resched_workloads::prelude::LogSpec;
use serde::{Deserialize, Serialize};

/// Tightest-deadline search resolution. One minute is far below the hours-
/// scale deadlines at stake.
pub const SEARCH_PRECISION: Dur = Dur::seconds(60);

/// Looseness factor for the CPU-hours metric: the paper evaluates
/// consumption at a deadline "50% as large as the latest tightest deadline
/// across all the algorithms", i.e. 1.5× that deadline.
pub const LOOSE_FACTOR: f64 = 1.5;

/// Summary of one deadline experiment (one column group of Table 6/7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadlineResult {
    /// Label of the column (e.g. "phi=0.1" or "Grid5000").
    pub label: String,
    /// Tightest-deadline degradation-from-best summaries.
    pub tightest: Vec<AlgoSummary>,
    /// CPU-hours-at-loose-deadline degradation-from-best summaries.
    pub cpu_hours: Vec<AlgoSummary>,
    /// Scenarios evaluated.
    pub scenarios: usize,
}

/// Per-instance evaluation: tightest deadlines (as hours from now) and
/// CPU-hours at the shared loose deadline, for each algorithm. Every
/// search and the loose pass ask one prepared instance.
fn eval_instance(inst: &Instance, algos: &[DeadlineAlgo]) -> Option<(Vec<f64>, Vec<f64>)> {
    let cal = inst.resv.calendar();
    let cfg = DeadlineConfig::default();
    let mut roster = Roster::prepare(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
    let tightest = algos
        .iter()
        .map(|&algo| Some(roster.tightest(algo, SEARCH_PRECISION)?.0))
        .collect::<Option<Vec<Time>>>()?;
    // Loose deadline: LOOSE_FACTOR x the latest tightest deadline.
    let latest = tightest.iter().copied().max()?;
    let loose = Time::seconds(((latest - Time::ZERO).as_seconds() as f64 * LOOSE_FACTOR) as i64);
    let cpu = algos
        .iter()
        .map(|&algo| Some(roster.schedule(loose, algo).ok()?.schedule.cpu_hours()))
        .collect::<Option<_>>()?;
    let hours = tightest.iter().map(|&k| (k - Time::ZERO).as_hours());
    Some((hours.collect(), cpu))
}

/// Run one deadline experiment over a scenario grid, each scenario's
/// instances on `threads` workers.
pub fn run_deadline_experiment(
    label: &str,
    sweeps: &[Sweep],
    specs: &[ResvSpec],
    algos: &[DeadlineAlgo],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> DeadlineResult {
    let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
    let mut k_tracker = DegradationTracker::new(&names);
    let mut cpu_tracker = DegradationTracker::new(&names);
    let mut cache = LogCache::new();

    for spec in specs {
        let log = cache.get(&spec.log, seed).clone();
        for sweep in sweeps {
            let instances = instances_for(sweep, spec, &log, scale, seed);
            let evals = par_map(&instances, threads, |inst| eval_instance(inst, algos));
            let (ks, cpus): (Vec<Vec<f64>>, Vec<Vec<f64>>) = evals.into_iter().flatten().unzip();
            k_tracker.absorb_scenario(&ks);
            cpu_tracker.absorb_scenario(&cpus);
        }
    }

    DeadlineResult {
        label: label.to_string(),
        tightest: k_tracker.summaries(),
        cpu_hours: cpu_tracker.summaries(),
        scenarios: k_tracker.scenarios(),
    }
}

/// Run the paper's Table 6: five algorithms, SDSC_BLUE-like synthetic
/// schedules at φ ∈ {0.1, 0.2, 0.5} (averaged over the three thinning
/// methods, like the paper's per-φ columns) plus Grid'5000-like schedules,
/// on `threads` workers.
pub fn run_table6(
    sweeps: &[Sweep],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> Vec<DeadlineResult> {
    let algos = DeadlineAlgo::TABLE6;
    let mut out = Vec::new();
    for &phi in &resched_workloads::extract::ExtractSpec::PHIS {
        let specs: Vec<ResvSpec> = resched_workloads::extract::ThinMethod::ALL
            .iter()
            .map(|&method| ResvSpec {
                log: LogSpec::sdsc_blue(),
                phi,
                method,
            })
            .collect();
        out.push(run_deadline_experiment(
            &format!("phi={phi}"),
            sweeps,
            &specs,
            &algos,
            scale,
            seed,
            threads,
        ));
    }
    out.push(run_deadline_experiment(
        "Grid5000",
        sweeps,
        &[ResvSpec::grid5000()],
        &algos,
        scale,
        seed,
        threads,
    ));
    out
}

/// The four algorithms of Table 7.
fn table7_algorithms() -> [DeadlineAlgo; 4] {
    [
        DeadlineAlgo::BdCpa,
        DeadlineAlgo::RcCpaR,
        DeadlineAlgo::RcCpaRLambda,
        DeadlineAlgo::RcbdCpaRLambda,
    ]
}

/// Run the paper's Table 7: hybrids vs. their parents on Grid'5000-like
/// schedules, on `threads` workers.
pub fn run_table7(sweeps: &[Sweep], scale: Scale, seed: u64, threads: usize) -> DeadlineResult {
    run_deadline_experiment(
        "Grid5000",
        sweeps,
        &[ResvSpec::grid5000()],
        &table7_algorithms(),
        scale,
        seed,
        threads,
    )
}

/// Render Table 6-style results: one row per algorithm, one column pair per
/// result group.
pub fn deadline_table(title: &str, results: &[DeadlineResult]) -> Table {
    assert!(!results.is_empty());
    let mut header: Vec<String> = vec!["Algorithm".into()];
    for r in results {
        header.push(format!("K deg [{}] %", r.label));
    }
    for r in results {
        header.push(format!("CPUh deg [{}] %", r.label));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    let n_algos = results[0].tightest.len();
    for a in 0..n_algos {
        let mut row = vec![results[0].tightest[a].name.clone()];
        for r in results {
            row.push(fnum(r.tightest[a].avg_degradation_pct, 2));
        }
        for r in results {
            row.push(fnum(r.cpu_hours[a].avg_degradation_pct, 2));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_sweep;
    use resched_workloads::prelude::*;

    #[test]
    fn deadline_experiment_small_run() {
        let specs = vec![ResvSpec {
            log: LogSpec::sdsc_ds().with_duration(Dur::days(15)),
            phi: 0.2,
            method: ThinMethod::Expo,
        }];
        let sweeps = vec![Sweep {
            params: resched_daggen::DagParams {
                num_tasks: 10,
                ..resched_daggen::DagParams::paper_default()
            },
            ..default_sweep()
        }];
        let scale = Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        };
        let algos = [DeadlineAlgo::BdCpa, DeadlineAlgo::RcCpaR];
        let r = run_deadline_experiment("test", &sweeps, &specs, &algos, scale, 3, 2);
        assert_eq!(r.scenarios, 1);
        assert_eq!(r.tightest.len(), 2);
        assert!(r.tightest.iter().any(|s| s.wins > 0));
        assert!(r.cpu_hours.iter().any(|s| s.wins > 0));
        let table = deadline_table("t", &[r]);
        assert!(table.render().contains("DL_RC_CPAR"));
    }
}
