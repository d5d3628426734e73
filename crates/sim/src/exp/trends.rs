//! The paper's *textual* trend claims, turned into checkable experiments:
//!
//! * §4.3.1 — "the gap between the BL_1 method and the other three methods
//!   decreases when the total number of processors in the platform
//!   decreases or when the number of reservations increases";
//! * §4.3.2 — "as the number of competing reservations in the reservation
//!   schedule increases the gap between the BD_ALL algorithm and the other
//!   algorithms decreases (but their ranking is preserved)".

use crate::metrics::mean;
use crate::scenario::{default_sweep, instances_for, LogCache, ResvSpec, Scale};
use crate::table::Measured;
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::Time;
use resched_workloads::prelude::*;

/// Measure the trend grid: two machine sizes × two reservation loads, one
/// row per (log, φ) with the mean turn-around gaps of BL_1 over BL_CPAR
/// and of BD_ALL over BD_CPAR, percent (positive = BL_CPAR_BD_CPAR better).
pub(crate) fn run_trends(cache: &mut LogCache, scale: Scale, seed: u64) -> Measured {
    let sweep = default_sweep();
    let mut rows = Vec::new();
    for log_spec in [LogSpec::sdsc_blue(), LogSpec::osc_cluster()] {
        let log = cache.get(&log_spec, seed).clone();
        for phi in [0.1, 0.5] {
            let spec = ResvSpec {
                log: log_spec.clone(),
                phi,
                method: ThinMethod::Expo,
            };
            let instances = instances_for(&sweep, &spec, &log, scale, seed);
            let mut bl_gaps = Vec::new();
            let mut bd_gaps = Vec::new();
            for inst in &instances {
                let cal = inst.resv.calendar();
                let run = |bl, bd| {
                    schedule_forward(
                        &inst.dag,
                        &cal,
                        Time::ZERO,
                        inst.resv.q,
                        ForwardConfig::new(bl, bd),
                    )
                    .turnaround()
                    .as_seconds() as f64
                };
                let bl1 = run(BlMethod::One, BdMethod::CpaR);
                let blc = run(BlMethod::CpaR, BdMethod::CpaR);
                bl_gaps.push((bl1 - blc) / blc * 100.0);
                let bdall = run(BlMethod::CpaR, BdMethod::All);
                bd_gaps.push((bdall - blc) / blc * 100.0);
            }
            rows.push((
                log_spec.name.clone(),
                vec![phi, mean(&bl_gaps), mean(&bd_gaps)],
            ));
        }
    }
    Measured::new(
        "Sec 4.3 trends - method gaps vs machine size and reservation load",
        &[
            "Log (machine)",
            "phi",
            "BL_1 vs BL_CPAR TAT gap [%]",
            "BD_ALL vs BD_CPAR TAT gap [%]",
        ],
        &[1, 2, 2],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_measure_all_grid_points() {
        let scale = Scale {
            dags: 2,
            starts: 2,
            tags: 1,
        };
        let points = run_trends(&mut LogCache::new(), scale, 11);
        assert_eq!(points.rows.len(), 4);
        for (log, p) in &points.rows {
            let [_, bl_gap_pct, bd_all_gap_pct] = p[..] else {
                panic!("{log}: {p:?}")
            };
            assert!(bl_gap_pct.is_finite());
            assert!(bd_all_gap_pct.is_finite());
            // BD_ALL never beats BD_CPAR on average in any cell of the
            // grid (the paper's ranking claim, which is scale-robust).
            assert!(
                bd_all_gap_pct > -5.0,
                "BD_ALL implausibly beats BD_CPAR: {log} {p:?}"
            );
        }
        let t = points.table();
        assert!(t.render().contains("OSC_Cluster"));
        assert!(t.render().contains("SDSC_BLUE"));
    }
}
