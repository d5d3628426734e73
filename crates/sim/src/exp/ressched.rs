//! RESSCHED experiments: the paper's Table 4 (synthetic reservation
//! schedules), Table 5 (Grid'5000 schedules) and the §4.3.1 bottom-level
//! method comparison.

use crate::metrics::{AlgoSummary, DegradationTracker};
use crate::par_map;
use crate::scenario::{instances_for, Instance, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::backward::{DeadlineConfig, Roster};
use resched_core::bl::BlMethod;
use resched_core::forward::{BdMethod, ForwardConfig};
use resched_core::prelude::Time;
use resched_daggen::{DagParams, Sweep};
use serde::{Deserialize, Serialize};

/// Result of a RESSCHED experiment: the two metric summaries of the paper's
/// Tables 4/5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResschedResult {
    /// Turn-around-time summary per algorithm.
    pub turnaround: Vec<AlgoSummary>,
    /// CPU-hours summary per algorithm.
    pub cpu_hours: Vec<AlgoSummary>,
    /// Number of scenarios evaluated.
    pub scenarios: usize,
}

/// The four bounding algorithms of Tables 4/5, all using BL_CPAR bottom
/// levels (§4.3.2).
fn table4_algorithms() -> Vec<ForwardConfig> {
    BdMethod::ALL
        .iter()
        .map(|&bd| ForwardConfig::new(BlMethod::CpaR, bd))
        .collect()
}

/// Turn-around hours and CPU-hours of each configuration, per instance,
/// on `threads` workers: every configuration asks one prepared instance.
fn run_instances(
    instances: &[Instance],
    cfgs: &[ForwardConfig],
    threads: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let rows = par_map(instances, threads, |inst| {
        let (cal, cfg) = (inst.resv.calendar(), DeadlineConfig::default());
        let mut roster = Roster::prepare(&inst.dag, &cal, Time::ZERO, inst.resv.q, cfg);
        cfgs.iter()
            .map(|&cfg| {
                let s = roster.forward(cfg);
                (s.turnaround().as_hours(), s.cpu_hours())
            })
            .unzip()
    });
    rows.into_iter().unzip()
}

/// Run the Table 4 experiment over the paper's full scenario grid
/// (40 application sweeps × 36 synthetic reservation specs), each
/// scenario's instances on `threads` workers.
pub fn run_table4(scale: Scale, seed: u64, threads: usize) -> ResschedResult {
    run_forward_experiment(
        &DagParams::paper_sweeps(),
        &ResvSpec::paper_grid(),
        &table4_algorithms(),
        scale,
        seed,
        threads,
    )
}

/// Run the Table 5 experiment: same algorithms, Grid'5000-like reservation
/// schedules, the 40 application sweeps, on `threads` workers.
pub fn run_table5(scale: Scale, seed: u64, threads: usize) -> ResschedResult {
    run_forward_experiment(
        &DagParams::paper_sweeps(),
        &[ResvSpec::grid5000()],
        &table4_algorithms(),
        scale,
        seed,
        threads,
    )
}

/// Generic forward-experiment runner.
fn run_forward_experiment(
    sweeps: &[Sweep],
    specs: &[ResvSpec],
    cfgs: &[ForwardConfig],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> ResschedResult {
    let names: Vec<String> = cfgs.iter().map(|c| c.bd.name().to_string()).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut ta_tracker = DegradationTracker::new(&name_refs);
    let mut cpu_tracker = DegradationTracker::new(&name_refs);
    let mut cache = LogCache::new();

    for spec in specs {
        let log = cache.get(&spec.log, seed).clone();
        for sweep in sweeps {
            let instances = instances_for(sweep, spec, &log, scale, seed);
            let (ta, cpu) = run_instances(&instances, cfgs, threads);
            ta_tracker.absorb_scenario(&ta);
            cpu_tracker.absorb_scenario(&cpu);
        }
    }

    ResschedResult {
        turnaround: ta_tracker.summaries(),
        cpu_hours: cpu_tracker.summaries(),
        scenarios: ta_tracker.scenarios(),
    }
}

/// Render a [`ResschedResult`] in the layout of the paper's Tables 4/5.
pub fn ressched_table(title: &str, r: &ResschedResult) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Algorithm",
            "TAT avg deg from best [%]",
            "TAT wins",
            "CPU-h avg deg from best [%]",
            "CPU-h wins",
        ],
    );
    for (ta, cpu) in r.turnaround.iter().zip(&r.cpu_hours) {
        t.row(vec![
            ta.name.clone(),
            fnum(ta.avg_degradation_pct, 2),
            ta.wins.to_string(),
            fnum(cpu.avg_degradation_pct, 2),
            cpu.wins.to_string(),
        ]);
    }
    t
}

/// §4.3.1 bottom-level comparison result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlCompareResult {
    /// Extremes of the relative turn-around improvement over BL_1 across
    /// all cases, in percent (the paper reports −3.46% .. +5.69%).
    pub improvement_min_pct: f64,
    /// See [`BlCompareResult::improvement_min_pct`].
    pub improvement_max_pct: f64,
    /// Fraction of cases (scenario × bounding method) in which each BL
    /// method is (tied-)best, keyed in `BlMethod::ALL` order.
    pub best_fraction: [f64; 4],
    /// Fraction of cases in which BL_CPA or BL_CPAR is best (the paper
    /// reports 78.4%).
    pub cpa_family_best_fraction: f64,
    /// Cases evaluated.
    pub cases: usize,
}

/// Run the §4.3.1 experiment: all 4 BL methods × 3 bounding methods
/// (BD_ALL, BD_CPA, BD_CPAR — BD_HALF is not part of the 12 algorithms),
/// each scenario's instances on `threads` workers.
pub fn run_bl_compare(
    sweeps: &[Sweep],
    specs: &[ResvSpec],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> BlCompareResult {
    let bds = [BdMethod::All, BdMethod::Cpa, BdMethod::CpaR];
    let mut cache = LogCache::new();
    let mut imp_min = f64::INFINITY;
    let mut imp_max = f64::NEG_INFINITY;
    let mut best_counts = [0usize; 4];
    let mut cases = 0usize;

    for spec in specs {
        let log = cache.get(&spec.log, seed).clone();
        for sweep in sweeps {
            let instances = instances_for(sweep, spec, &log, scale, seed);
            for &bd in &bds {
                let cfgs: Vec<ForwardConfig> = BlMethod::ALL
                    .iter()
                    .map(|&bl| ForwardConfig::new(bl, bd))
                    .collect();
                let (ta_rows, _) = run_instances(&instances, &cfgs, threads);
                // Scenario-average turn-around per BL method.
                let n = ta_rows.len().max(1) as f64;
                let mut avg = [0.0f64; 4];
                for row in &ta_rows {
                    for (i, v) in row.iter().enumerate() {
                        avg[i] += v / n;
                    }
                }
                // Improvement of each non-BL_1 method relative to BL_1.
                let bl1 = avg[0];
                if bl1 > 0.0 {
                    for &v in &avg[1..] {
                        let imp = (bl1 - v) / bl1 * 100.0;
                        imp_min = imp_min.min(imp);
                        imp_max = imp_max.max(imp);
                    }
                }
                let best = avg.iter().copied().fold(f64::INFINITY, f64::min);
                for (i, &v) in avg.iter().enumerate() {
                    if v <= best * (1.0 + 1e-12) {
                        best_counts[i] += 1;
                    }
                }
                cases += 1;
            }
        }
    }

    let denom = cases.max(1) as f64;
    let best_fraction = [
        best_counts[0] as f64 / denom,
        best_counts[1] as f64 / denom,
        best_counts[2] as f64 / denom,
        best_counts[3] as f64 / denom,
    ];
    BlCompareResult {
        improvement_min_pct: imp_min.min(0.0),
        improvement_max_pct: imp_max.max(0.0),
        best_fraction,
        cpa_family_best_fraction: (best_fraction[2] + best_fraction[3]).min(1.0),
        cases,
    }
}

/// Render the BL comparison as a table.
pub fn bl_compare_table(r: &BlCompareResult) -> Table {
    let mut t = Table::new(
        "Sec 4.3.1 - bottom-level computation methods (relative to BL_1)",
        &["Quantity", "Value"],
    );
    t.row(vec![
        "Improvement over BL_1, min [%]".into(),
        fnum(r.improvement_min_pct, 2),
    ]);
    t.row(vec![
        "Improvement over BL_1, max [%]".into(),
        fnum(r.improvement_max_pct, 2),
    ]);
    for (i, m) in BlMethod::ALL.iter().enumerate() {
        t.row(vec![
            format!("{} best fraction", m.name()),
            fnum(r.best_fraction[i] * 100.0, 1) + " %",
        ]);
    }
    t.row(vec![
        "BL_CPA or BL_CPAR best".into(),
        fnum(r.cpa_family_best_fraction * 100.0, 1) + " %",
    ]);
    t.row(vec!["Cases".into(), r.cases.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_sweep;
    use resched_resv::Dur;
    use resched_workloads::prelude::*;

    /// A small sweep set for quick runs (default spec only).
    fn quick_sweeps() -> Vec<Sweep> {
        vec![default_sweep()]
    }

    fn tiny_specs() -> Vec<ResvSpec> {
        vec![ResvSpec {
            log: LogSpec::sdsc_ds().with_duration(Dur::days(15)),
            phi: 0.2,
            method: ThinMethod::Expo,
        }]
    }

    fn tiny_scale() -> Scale {
        Scale {
            dags: 1,
            starts: 2,
            tags: 1,
        }
    }

    #[test]
    fn forward_experiment_produces_summaries() {
        let r = run_forward_experiment(
            &quick_sweeps(),
            &tiny_specs(),
            &table4_algorithms(),
            tiny_scale(),
            42,
            2,
        );
        assert_eq!(r.scenarios, 1);
        assert_eq!(r.turnaround.len(), 4);
        assert_eq!(r.cpu_hours.len(), 4);
        // Someone must win each metric.
        assert!(r.turnaround.iter().any(|s| s.wins > 0));
        assert!(r.cpu_hours.iter().any(|s| s.wins > 0));
        // Degradations are non-negative.
        assert!(r.turnaround.iter().all(|s| s.avg_degradation_pct >= 0.0));
        let table = ressched_table("t", &r);
        assert!(table.render().contains("BD_CPAR"));
    }

    #[test]
    fn bl_compare_produces_sane_fractions() {
        let r = run_bl_compare(&quick_sweeps(), &tiny_specs(), tiny_scale(), 42, 2);
        assert_eq!(r.cases, 3); // 1 scenario x 3 bounding methods
        let total: f64 = r.best_fraction.iter().sum();
        assert!(total >= 1.0 - 1e-9); // ties can push above 1
        assert!(r.improvement_max_pct >= r.improvement_min_pct);
        let table = bl_compare_table(&r);
        assert!(table.render().contains("BL_CPAR"));
    }
}
