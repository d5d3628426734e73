//! Seeded scale fuzz: a 100k-reservation calendar under mutation-heavy
//! load. `#[ignore]` by default — the nightly CI lane runs it with
//! `cargo test --release -- --ignored`.
//!
//! Construction: `Calendar::with_reservations` over a lane-structured reservation
//! set (deterministically conflict-free by construction), then thousands
//! of incremental mutations — removals, duration shrinks, and re-adds
//! whose feasibility checks go through the calendar's own `try_add` /
//! `try_resize`. Oracles:
//!
//! * the mutated calendar is byte-identical to one rebuilt from the
//!   surviving live set (a full replay under the linear-oracle judge is
//!   exempt at this size — `O(B)` per decision over 100k breakpoints is
//!   the cost profile the walk exists to avoid — but `linear()` referees
//!   the sampled queries below);
//! * `audit_calendar` stays clean on the survivor (which includes its
//!   whole-span calendar-vs-linear cross-check);
//! * a sampled query battery agrees between the calendar and `linear()`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::prelude::*;
use resched_core::validate::audit_calendar;
use resched_resv::QueryCost;

const SCALE_SEED: u64 = 0x5CED_0050;
/// Reservations in the bulk-loaded base set.
const R: usize = 100_000;
/// Incremental mutation ops replayed on top.
const OPS: usize = 20_000;
/// Platform capacity; reservations occupy one of `LANES` disjoint bands.
const CAPACITY: u32 = 4096;
const LANES: u32 = 64;

/// A deterministic, conflict-free base set: `LANES` disjoint processor
/// bands, each packed with non-overlapping reservations laid end to end
/// with random gaps. Conflict-free by construction, so `with_reservations` admits
/// all of it.
fn base_set(rng: &mut ChaCha12Rng) -> Vec<Reservation> {
    let width = CAPACITY / LANES;
    let mut out = Vec::with_capacity(R);
    let per_lane = R / LANES as usize;
    for lane in 0..LANES {
        let procs = rng.gen_range(1..=width);
        let mut t = 0i64;
        for _ in 0..per_lane {
            t += rng.gen_range(0i64..120); // gap
            let dur = rng.gen_range(60i64..3_600);
            out.push(Reservation::new(
                Time::seconds(t),
                Time::seconds(t + dur),
                procs,
            ));
            t += dur;
        }
        let _ = lane;
    }
    out
}

/// Replay the same mutation script against `cal`, tracking the live set.
fn mutate(cal: &mut Calendar, live: &mut Vec<Reservation>, rng: &mut ChaCha12Rng) {
    for _ in 0..OPS {
        match rng.gen_range(0u32..3) {
            0 => {
                // Remove a random live reservation.
                if live.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..live.len());
                let r = live.swap_remove(i);
                cal.try_remove(r).expect("tracked live reservation removes");
            }
            1 => {
                // Shrink a random live reservation to half its length
                // (always feasible).
                if live.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..live.len());
                let old = live[i];
                let mid = old.start.midpoint(old.end);
                if mid <= old.start {
                    continue;
                }
                let new = Reservation::new(old.start, mid, old.procs);
                cal.try_resize(old, new).expect("shrink releases capacity");
                live[i] = new;
            }
            _ => {
                // Try to admit a fresh random reservation; rejection is a
                // legitimate outcome.
                let s = rng.gen_range(0i64..8_000_000);
                let d = rng.gen_range(60i64..7_200);
                let p = rng.gen_range(1u32..=CAPACITY / 4);
                let r = Reservation::new(Time::seconds(s), Time::seconds(s + d), p);
                if cal.try_add(r).is_ok() {
                    live.push(r);
                }
            }
        }
    }
}

#[test]
#[ignore = "scale smoke: ~100k reservations; run via the nightly lane or --ignored"]
fn scale_100k_mutation_heavy_backends_agree() {
    let mut rng = ChaCha12Rng::seed_from_u64(SCALE_SEED);
    let base = base_set(&mut rng);
    assert!(
        base.len() >= R - LANES as usize,
        "base set near target size"
    );

    let mut cal = Calendar::with_reservations(CAPACITY, base.iter().copied())
        .expect("lane set is conflict-free");
    let mut live = base;
    let mut op_rng = ChaCha12Rng::seed_from_u64(SCALE_SEED ^ 0xA5);
    mutate(&mut cal, &mut live, &mut op_rng);

    let rebuilt =
        Calendar::with_reservations(CAPACITY, live.iter().copied()).expect("the live set fits");
    assert_eq!(cal, rebuilt, "mutated calendar differs from its live set");
    assert_eq!(
        serde_json::to_string(&cal).unwrap(),
        serde_json::to_string(&rebuilt).unwrap(),
        "mutation left serialized residue a fresh load does not have"
    );
    let vs = audit_calendar(&cal);
    assert!(vs.is_empty(), "audit violations at scale: {:?}", vs.first());

    // Sampled queries: the linear reference referees.
    let lin = cal.linear();
    let hi = cal.horizon().expect("non-empty at scale");
    let span = (hi - Time::ZERO).as_seconds().max(2);
    let mut q_rng = ChaCha12Rng::seed_from_u64(SCALE_SEED ^ 0x5A);
    for _ in 0..200 {
        let a = Time::seconds(q_rng.gen_range(0..span));
        let d = Dur::seconds(q_rng.gen_range(1..span / 4 + 2));
        let procs = q_rng.gen_range(1u32..=CAPACITY);
        let (mut c, mut lc) = (QueryCost::default(), QueryCost::default());
        assert_eq!(
            (
                cal.earliest_finish(&[(procs, d)], a, false, &mut c).start,
                cal.latest_start(&[(procs, d)], a + d + d, a, &mut c)
                    .map(|r| r.start),
                cal.peak_used(a, a + d),
                cal.used_integral(a, a + d),
                c.queries,
            ),
            (
                lin.earliest_fit(procs, d, a, &mut lc),
                lin.latest_fit(procs, d, a + d + d, a, &mut lc),
                lin.peak_used(a, a + d),
                lin.used_integral(a, a + d),
                lc.queries,
            ),
            "calendar vs linear query diverged"
        );
    }
}
