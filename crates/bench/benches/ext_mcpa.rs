//! Extension — MCPA-derived allocation bounds vs CPA-derived ones (the
//! paper cites MCPA as the layered-graph fix for CPA's over-allocation;
//! here both serve as the bounding source for the forward slot search on
//! layered DAGs, jump = 1).

use resched_core::bl;
use resched_core::mcpa;
use resched_core::prelude::*;
use resched_core::schedule::Placement;
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

/// Forward schedule with externally supplied allocation bounds (replicates
/// the BL_CPAR slot search so both bounding sources are treated equally).
fn schedule_with_bounds(
    dag: &resched_core::dag::Dag,
    cal: &Calendar,
    q: u32,
    bounds: &[u32],
) -> Schedule {
    let exec = bl::exec_times(
        dag,
        cal.capacity(),
        q,
        resched_core::bl::BlMethod::CpaR,
        StoppingCriterion::default(),
    );
    let levels = bl::bottom_levels(dag, &exec);
    let order = bl::order_by_decreasing_bl(dag, &levels);
    let mut live = cal.clone();
    let mut placements: Vec<Option<Placement>> = vec![None; dag.num_tasks()];
    for t in order {
        let ready = dag
            .preds(t)
            .iter()
            .map(|&p| placements[p.idx()].unwrap().end)
            .max()
            .unwrap_or(Time::ZERO);
        let cost = dag.cost(t);
        let mut best: Option<Placement> = None;
        let mut prev = None;
        for m in 1..=bounds[t.idx()].clamp(1, cal.capacity()) {
            let dur = cost.exec_time(m);
            if prev == Some(dur) {
                continue;
            }
            prev = Some(dur);
            let s = live.earliest_fit(m, dur, ready);
            let end = s + dur;
            if best.is_none_or(|b: Placement| end < b.end) {
                best = Some(Placement {
                    start: s,
                    end,
                    procs: m,
                });
            }
        }
        let chosen = best.unwrap();
        live.add_unchecked(Reservation::new(chosen.start, chosen.end, chosen.procs));
        placements[t.idx()] = Some(chosen);
    }
    Schedule::new(
        placements.into_iter().map(Option::unwrap).collect(),
        Time::ZERO,
    )
}

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    // Layered DAGs only (jump = 1 sweeps are the defaults).
    let sweeps = resched_sim::scenario::sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let mut rows = [[0.0f64; 2]; 2]; // [cpa|mcpa][tat|cpu]
    let mut count = 0usize;
    for sweep in &sweeps {
        if sweep.params.jump != 1 {
            continue;
        }
        for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
            let cal = inst.resv.calendar();
            let q = inst.resv.q;
            let cpa_b =
                resched_core::cpa::allocate(&inst.dag, q, StoppingCriterion::default()).allocs;
            let mcpa_b = mcpa::allocate(&inst.dag, q).allocs;
            for (i, bounds) in [&cpa_b, &mcpa_b].into_iter().enumerate() {
                let s = schedule_with_bounds(&inst.dag, &cal, q, bounds);
                debug_assert!(ScheduleValidator::new(&inst.dag, &cal, Time::ZERO)
                    .check(&s)
                    .is_ok());
                rows[i][0] += s.turnaround().as_hours();
                rows[i][1] += s.cpu_hours();
            }
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    let mut t = Table::new(
        "Extension - MCPA vs CPA allocation bounds (layered DAGs, Grid'5000-like)",
        &["Bound source", "Avg turn-around [h]", "Avg CPU-hours"],
    );
    t.row(vec![
        "CPA(q)".into(),
        fnum(rows[0][0] / n, 2),
        fnum(rows[0][1] / n, 1),
    ]);
    t.row(vec![
        "MCPA(q)".into(),
        fnum(rows[1][0] / n, 2),
        fnum(rows[1][1] / n, 1),
    ]);
    println!("{}", t.render());
}
