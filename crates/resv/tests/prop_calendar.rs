//! Property tests for the reservation calendar against a brute-force
//! per-second reference model, plus differential tests pitting the
//! calendar's queries against the linear-scan reference (`linear()`).
//!
//! Randomness is driven by seeded `ChaCha12Rng` loops so every run explores
//! the same cases; bump the iteration counts locally when hunting bugs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};

const HORIZON: i64 = 400;

/// The latest start of one width: `latest_start` over one candidate.
fn latest_of_one(
    cal: &Calendar,
    procs: u32,
    dur: Dur,
    end_by: Time,
    not_before: Time,
    cost: &mut QueryCost,
) -> Option<Time> {
    cal.latest_start(&[(procs, dur)], end_by, not_before, cost)
        .map(|r| r.start)
}

/// Brute-force model: an array of used-processor counts, one per second.
#[derive(Clone)]
struct Brute {
    capacity: u32,
    used: Vec<u32>, // index = second in [0, HORIZON)
}

impl Brute {
    fn new(capacity: u32) -> Brute {
        Brute {
            capacity,
            used: vec![0; HORIZON as usize],
        }
    }

    fn can_add(&self, start: i64, end: i64, procs: u32) -> bool {
        if procs > self.capacity {
            return false;
        }
        (start..end).all(|s| self.used[s as usize] + procs <= self.capacity)
    }

    fn add(&mut self, start: i64, end: i64, procs: u32) {
        for s in start..end {
            self.used[s as usize] += procs;
        }
    }

    fn fits(&self, start: i64, dur: i64, procs: u32) -> bool {
        (start..start + dur).all(|s| {
            let u = if (0..HORIZON).contains(&s) {
                self.used[s as usize]
            } else {
                0
            };
            u + procs <= self.capacity
        })
    }

    fn earliest_fit(&self, procs: u32, dur: i64, not_before: i64) -> i64 {
        let mut s = not_before;
        loop {
            if self.fits(s, dur, procs) {
                return s;
            }
            s += 1;
            assert!(s < 2 * HORIZON, "brute-force search ran away");
        }
    }

    fn latest_fit(&self, procs: u32, dur: i64, end_by: i64, not_before: i64) -> Option<i64> {
        let mut s = end_by - dur;
        while s >= not_before {
            if self.fits(s, dur, procs) {
                return Some(s);
            }
            s -= 1;
        }
        None
    }

    fn used_integral(&self, from: i64, to: i64) -> i64 {
        (from..to)
            .map(|s| {
                if (0..HORIZON).contains(&s) {
                    self.used[s as usize] as i64
                } else {
                    0
                }
            })
            .sum()
    }
}

/// A random batch of candidate reservations within the horizon.
fn resv_batch<R: Rng>(rng: &mut R, capacity: u32) -> Vec<(i64, i64, u32)> {
    let n = rng.gen_range(0..25usize);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..HORIZON - 1);
            let d = rng.gen_range(1..80i64);
            let p = rng.gen_range(1..=capacity);
            (s, (s + d).min(HORIZON), p)
        })
        .collect()
}

/// Build the calendar and brute model together, skipping conflicting adds.
fn build_pair(capacity: u32, batch: &[(i64, i64, u32)]) -> (Calendar, Brute) {
    let mut cal = Calendar::new(capacity);
    let mut brute = Brute::new(capacity);
    for &(s, e, p) in batch {
        let r = Reservation::new(Time::seconds(s), Time::seconds(e), p);
        let fits_brute = brute.can_add(s, e, p);
        let added = cal.try_add(r).is_ok();
        assert_eq!(
            added, fits_brute,
            "try_add admission disagrees with brute force for {r:?}"
        );
        if added {
            brute.add(s, e, p);
        }
    }
    (cal, brute)
}

#[test]
fn usage_matches_brute_force() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0001);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (cal, brute) = build_pair(8, &batch);
        for s in 0..HORIZON {
            assert_eq!(
                cal.used_at(Time::seconds(s)),
                brute.used[s as usize],
                "usage differs at second {s}"
            );
        }
        // Outside the horizon usage is zero.
        assert_eq!(cal.used_at(Time::seconds(HORIZON + 5)), 0);
        assert_eq!(cal.used_at(Time::seconds(-5)), 0);
    }
}

#[test]
fn earliest_fit_matches_brute_force() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0002);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (cal, brute) = build_pair(8, &batch);
        let procs = rng.gen_range(1u32..=8);
        let dur = rng.gen_range(1i64..60);
        let not_before = rng.gen_range(0i64..HORIZON);
        let got = cal.earliest_fit(procs, Dur::seconds(dur), Time::seconds(not_before));
        let want = brute.earliest_fit(procs, dur, not_before);
        assert_eq!(got, Time::seconds(want));
    }
}

#[test]
fn latest_fit_matches_brute_force() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0003);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (cal, brute) = build_pair(8, &batch);
        let procs = rng.gen_range(1u32..=8);
        let dur = rng.gen_range(1i64..60);
        let end_by = rng.gen_range(1i64..HORIZON + 50);
        let not_before = rng.gen_range(0i64..50);
        let got = latest_of_one(
            &cal,
            procs,
            Dur::seconds(dur),
            Time::seconds(end_by),
            Time::seconds(not_before),
            &mut QueryCost::default(),
        );
        let want = brute.latest_fit(procs, dur, end_by, not_before);
        assert_eq!(got, want.map(Time::seconds));
    }
}

#[test]
fn used_integral_matches_brute_force() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0004);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (cal, brute) = build_pair(8, &batch);
        let a = rng.gen_range(-10i64..HORIZON);
        let span = rng.gen_range(0i64..HORIZON);
        let b = a + span;
        assert_eq!(
            cal.used_integral(Time::seconds(a), Time::seconds(b)),
            brute.used_integral(a, b)
        );
    }
}

#[test]
fn earliest_fit_is_actually_feasible_and_tight() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0005);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 16);
        let (cal, brute) = build_pair(16, &batch);
        let procs = rng.gen_range(1u32..=16);
        let dur = rng.gen_range(1i64..60);
        let not_before = rng.gen_range(0i64..HORIZON);
        let s = cal.earliest_fit(procs, Dur::seconds(dur), Time::seconds(not_before));
        // Feasible.
        assert!(brute.fits(s.as_seconds(), dur, procs));
        // Not before the bound.
        assert!(s >= Time::seconds(not_before));
        // Tight: one second earlier must be infeasible (unless at the bound).
        if s > Time::seconds(not_before) {
            assert!(!brute.fits(s.as_seconds() - 1, dur, procs));
        }
    }
}

#[test]
fn latest_fit_is_feasible_and_tight() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0006);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 16);
        let (cal, brute) = build_pair(16, &batch);
        let procs = rng.gen_range(1u32..=16);
        let dur = rng.gen_range(1i64..60);
        let end_by = rng.gen_range(1i64..HORIZON);
        let (dur_s, end_by_t) = (Dur::seconds(dur), Time::seconds(end_by));
        let mut cost = QueryCost::default();
        if let Some(s) = latest_of_one(&cal, procs, dur_s, end_by_t, Time::MIN, &mut cost) {
            assert!(brute.fits(s.as_seconds(), dur, procs));
            assert!(s + Dur::seconds(dur) <= Time::seconds(end_by));
            // Tight: one second later must violate feasibility or the bound.
            let later = s.as_seconds() + 1;
            assert!(later + dur > end_by || !brute.fits(later, dur, procs));
        }
    }
}

#[test]
fn reserving_the_earliest_fit_always_succeeds() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0007);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (mut cal, _) = build_pair(8, &batch);
        let procs = rng.gen_range(1u32..=8);
        let dur = rng.gen_range(1i64..60);
        // Repeatedly placing at the earliest fit must never conflict.
        let mut cursor = Time::ZERO;
        for _ in 0..5 {
            let s = cal.earliest_fit(procs, Dur::seconds(dur), cursor);
            cal.try_add(Reservation::for_duration(s, Dur::seconds(dur), procs))
                .expect("earliest_fit slot must be reservable");
            cursor = s;
        }
    }
}

#[test]
fn average_available_bounds() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xCA1_0008);
    for _ in 0..128 {
        let batch = resv_batch(&mut rng, 8);
        let (cal, _) = build_pair(8, &batch);
        let q = cal.average_available(Time::ZERO, Time::seconds(HORIZON));
        assert!((1..=8).contains(&q));
    }
}

/// Differential test: on >= 1000 random calendars, the calendar's queries
/// and the linear-scan reference must agree on every slot query — the
/// earliest and latest fit of one width (a one-candidate `earliest_finish`
/// and `latest_start`), `peak_used`, and `used_integral` — at the same
/// query count. (The test name predates the single engine: "indexed
/// backend" was the calendar's then-default query path.)
#[test]
fn indexed_backend_matches_linear_reference() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xD1FF_0001);
    let mut total_walked = QueryCost::default();
    let mut total_linear = QueryCost::default();
    for case in 0..1000 {
        let capacity = rng.gen_range(1u32..=16);
        let batch = resv_batch(&mut rng, capacity);
        let (cal, _) = build_pair(capacity, &batch);
        let lin = cal.linear();

        for _ in 0..4 {
            let procs = rng.gen_range(1u32..=capacity);
            let dur = Dur::seconds(rng.gen_range(1i64..60));
            let not_before = Time::seconds(rng.gen_range(-10i64..HORIZON));
            let mut ci = QueryCost::default();
            let mut cl = QueryCost::default();
            assert_eq!(
                cal.earliest_finish(&[(procs, dur)], not_before, false, &mut ci)
                    .start,
                lin.earliest_fit(procs, dur, not_before, &mut cl),
                "earliest_fit disagrees (case {case}, procs {procs}, dur {dur}, \
                 not_before {not_before})"
            );
            total_walked.absorb(ci);
            total_linear.absorb(cl);

            let end_by = Time::seconds(rng.gen_range(1i64..HORIZON + 50));
            let nb = Time::seconds(rng.gen_range(0i64..50));
            let mut ci = QueryCost::default();
            let mut cl = QueryCost::default();
            assert_eq!(
                latest_of_one(&cal, procs, dur, end_by, nb, &mut ci),
                lin.latest_fit(procs, dur, end_by, nb, &mut cl),
                "latest_fit disagrees (case {case}, procs {procs}, dur {dur}, \
                 end_by {end_by}, not_before {nb})"
            );
            total_walked.absorb(ci);
            total_linear.absorb(cl);

            let a = rng.gen_range(-10i64..HORIZON);
            let b = a + rng.gen_range(1i64..HORIZON);
            assert_eq!(
                cal.peak_used(Time::seconds(a), Time::seconds(b)),
                lin.peak_used(Time::seconds(a), Time::seconds(b)),
                "peak_used disagrees (case {case}, window [{a}, {b}))"
            );
            assert_eq!(
                cal.used_integral(Time::seconds(a), Time::seconds(b)),
                lin.used_integral(Time::seconds(a), Time::seconds(b)),
                "used_integral disagrees (case {case}, window [{a}, {b}))"
            );
        }
    }
    assert_eq!(total_walked.queries, total_linear.queries);
    assert!(total_walked.steps > 0 && total_linear.steps > 0);
}

/// The admission decision itself (`try_add`) goes through the same slot
/// walk as the queries; cross-check a long add/query interleaving against
/// a twin thawed from the serialized bytes (never incrementally updated).
#[test]
fn incremental_index_matches_fresh_rebuild() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xD1FF_0002);
    for _ in 0..200 {
        let capacity = rng.gen_range(2u32..=16);
        let mut cal = Calendar::new(capacity);
        for _ in 0..30 {
            let s = rng.gen_range(0..HORIZON - 1);
            let d = rng.gen_range(1..80i64);
            let p = rng.gen_range(1..=capacity);
            let r = Reservation::new(Time::seconds(s), Time::seconds((s + d).min(HORIZON)), p);
            let _ = cal.try_add(r);
            // Interleave queries with the mutations, then compare with a
            // twin rebuilt from the serialized bytes: the four serialized
            // fields are all the state a query may depend on.
            let procs = rng.gen_range(1..=capacity);
            let dur = Dur::seconds(rng.gen_range(1i64..40));
            let nb = Time::seconds(rng.gen_range(0i64..HORIZON));
            let fresh: Calendar =
                serde_json::from_str(&serde_json::to_string(&cal).unwrap()).unwrap();
            let mut cost = QueryCost::default();
            assert_eq!(cal, fresh);
            assert_eq!(
                cal.earliest_fit(procs, dur, nb),
                fresh.earliest_fit(procs, dur, nb)
            );
            assert_eq!(
                latest_of_one(&cal, procs, dur, nb + dur + dur, Time::ZERO, &mut cost),
                latest_of_one(&fresh, procs, dur, nb + dur + dur, Time::ZERO, &mut cost),
            );
        }
    }
}
