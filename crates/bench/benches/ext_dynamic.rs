//! Extension — scheduling while competitors keep reserving (paper §3.2.2:
//! the static-schedule assumption is a prime candidate for removal). A
//! Poisson stream of competing reservations arrives between task
//! placements; we measure the turn-around degradation vs. the static
//! assumption as the arrival intensity grows.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::dynamic::schedule_forward_dynamic;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::{Dur, Reservation, Time};
use resched_sim::scenario::{instances_for, LogCache, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = resched_sim::scenario::sweeps_with_stride(10).unwrap_or_else(|e| e.exit());
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, DEFAULT_ROOT_SEED).clone();

    let mut t = Table::new(
        "Extension - dynamic competition during scheduling",
        &[
            "Arrivals per placement",
            "Avg turn-around [h]",
            "Deg vs static [%]",
        ],
    );

    for &per_placement in &[0.0f64, 0.5, 1.0, 2.0] {
        let mut ta = 0.0;
        let mut ta_static = 0.0;
        let mut n = 0usize;
        for sweep in &sweeps {
            for inst in instances_for(sweep, &spec, &log, scale, DEFAULT_ROOT_SEED) {
                let cal = inst.resv.calendar();
                let mut rng = ChaCha12Rng::seed_from_u64(n as u64 + 9);
                let s = schedule_forward_dynamic(
                    &inst.dag,
                    &cal,
                    Time::ZERO,
                    inst.resv.q,
                    ForwardConfig::recommended(),
                    |cal, _ev| {
                        // Poisson-ish: expected `per_placement` arrivals.
                        let jitter: f64 = rng.gen_range(-0.5..0.5);
                        let arrivals = (per_placement + jitter).round().max(0.0) as usize;
                        for _ in 0..arrivals {
                            let start = Time::seconds(rng.gen_range(0..36_000));
                            let dur = Dur::seconds(rng.gen_range(600..14_400));
                            let procs = rng.gen_range(1..=cal.capacity() / 4).max(1);
                            let s = cal.earliest_fit(procs, dur, start);
                            let _ = cal.try_add(Reservation::for_duration(s, dur, procs));
                        }
                    },
                );
                let st = schedule_forward(
                    &inst.dag,
                    &cal,
                    Time::ZERO,
                    inst.resv.q,
                    ForwardConfig::recommended(),
                );
                ta += s.turnaround().as_hours();
                ta_static += st.turnaround().as_hours();
                n += 1;
            }
        }
        let nf = n.max(1) as f64;
        let (a, b) = (ta / nf, ta_static / nf);
        t.row(vec![
            fnum(per_placement, 1),
            fnum(a, 2),
            fnum((a - b) / b * 100.0, 2),
        ]);
    }
    println!("{}", t.render());
}
