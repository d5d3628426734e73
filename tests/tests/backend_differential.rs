//! Production-vs-reference differential harness: the calendar's one query
//! engine (the slot walk over its breakpoints) against `Calendar::linear()`,
//! the independently written brute-force scans. The two must be
//! observationally identical.
//!
//! Every seeded fuzz [`Scenario`] drives the **full op set** (admissions
//! with conflict rejection, cancellations, resizes) through a calendar
//! once per [`Judge`] — the production `try_add` / `try_resize` checks,
//! then the linear reference deciding feasibility with the unchecked
//! mutators applying — and asserts:
//!
//! * the resulting calendars are equal — `PartialEq` *and* serialized
//!   bytes, so neither path leaves residue the other would not;
//! * the surviving live sets are identical (same admissions, same
//!   rejections);
//! * a deterministic query battery (earliest/latest fits, peaks,
//!   integrals over structured windows) answers identically through the
//!   calendar and through `linear()`, including the fit-query *count*
//!   (`QueryCost::queries`) — only `QueryCost::steps`, the work each
//!   performs, may differ.
//!
//! A divergence is greedily shrunk and written under `tests/repros/` as
//! `backend_divergence_*.json` before the test panics, mirroring the
//! fuzz_validate contract; committed repros replay here forever. (File and
//! test names keep the "backend" wording of the three-engine harness this
//! replaced, so committed repro names and CI history stay valid.)

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_core::prelude::*;
use resched_resv::QueryCost;
use resched_tests::fuzz::{shrink, Judge, Scenario};
use std::path::PathBuf;

/// Root seed for the differential sweep.
const DIFF_SEED: u64 = 0x5CED_0040;

/// Scenario count; the ISSUE acceptance floor is 200.
fn iterations() -> usize {
    std::env::var("RESCHED_DIFF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("repros")
}

fn bytes(cal: &Calendar) -> Vec<u8> {
    serde_json::to_string(cal)
        .expect("calendar serializes")
        .into_bytes()
}

/// The deterministic query battery for one calendar: structured windows
/// (full span, halves, breakpoint-straddling slices) and fit probes at
/// several processor counts and durations. Everything derives from the
/// calendar itself, so shrinking a diverging scenario keeps the predicate
/// meaningful.
fn battery(cal: &Calendar) -> Vec<(u32, Dur, Time, Time)> {
    let cap = cal.capacity();
    let (lo, hi) = match (cal.breakpoints().next(), cal.horizon()) {
        (Some(lo), Some(hi)) if hi > lo => (lo, hi),
        _ => (Time::ZERO, Time::seconds(1_000)),
    };
    let span = (hi - lo).as_seconds().max(2);
    let mid = lo + Dur::seconds(span / 2);
    let mut probes = Vec::new();
    for procs in [1, cap / 2 + 1, cap] {
        for dur in [
            Dur::seconds(1),
            Dur::seconds(span / 3 + 1),
            Dur::seconds(span),
        ] {
            probes.push((procs, dur, lo, hi));
            probes.push((procs, dur, mid, hi + dur));
            probes.push((procs, dur, lo, mid)); // ends inside the span
        }
    }
    probes
}

/// One fit/peak/integral answer row, as comparable plain data.
/// `QueryCost::steps` is deliberately *not* captured — it is the one
/// observable allowed to differ between the walk and the reference scans.
type Answers = Vec<(Time, u64, Option<Time>, u64, u32, i64)>;

/// The battery's answers through the calendar, each fit a one-candidate
/// width scan.
fn walked_answers(cal: &Calendar) -> Answers {
    battery(cal)
        .into_iter()
        .map(|(procs, dur, a, b)| {
            let (mut c1, mut c2) = (QueryCost::default(), QueryCost::default());
            let earliest = cal.earliest_finish(&[(procs, dur)], a, false, &mut c1);
            let latest = cal.latest_start(&[(procs, dur)], b, a, &mut c2);
            (
                earliest.start,
                c1.queries,
                latest.map(|r| r.start),
                c2.queries,
                cal.peak_used(a, b),
                cal.used_integral(a, b),
            )
        })
        .collect()
}

/// The battery's answers through the calendar's `linear()` reference.
fn linear_answers(cal: &Calendar) -> Answers {
    let lin = cal.linear();
    battery(cal)
        .into_iter()
        .map(|(procs, dur, a, b)| {
            let (mut c1, mut c2) = (QueryCost::default(), QueryCost::default());
            (
                lin.earliest_fit(procs, dur, a, &mut c1),
                c1.queries,
                lin.latest_fit(procs, dur, b, a, &mut c2),
                c2.queries,
                lin.peak_used(a, b),
                lin.used_integral(a, b),
            )
        })
        .collect()
}

/// Full differential for one scenario: build + mutate the calendar under
/// each judge, then run the query battery through the calendar and through
/// its linear reference. `Some(detail)` on the first divergence.
fn divergence(s: &Scenario) -> Option<String> {
    let (cal, live) = s.calendar_with_live_judged(Judge::Production);
    let (ref_cal, ref_live) = s.calendar_with_live_judged(Judge::LinearOracle);
    if bytes(&cal) != bytes(&ref_cal) || cal != ref_cal {
        return Some("calendar bytes diverge: production vs linear-oracle".into());
    }
    if live != ref_live {
        return Some("live sets diverge: production vs linear-oracle".into());
    }
    if walked_answers(&cal) != linear_answers(&cal) {
        return Some("query answers diverge: production vs linear".into());
    }
    None
}

#[test]
fn backends_agree_on_seeded_scenario_sweep() {
    let mut rng = ChaCha12Rng::seed_from_u64(DIFF_SEED);
    let n = iterations();
    let mut mutated = 0usize;
    for i in 0..n {
        let s = Scenario::generate(&mut rng);
        if !s.ops.is_empty() {
            mutated += 1;
        }
        if let Some(detail) = divergence(&s) {
            let minimal = shrink(&s, |c| divergence(c).is_some());
            let final_detail = divergence(&minimal).unwrap_or_else(|| detail.clone());
            let path = repro_dir().join(format!("backend_divergence_iter{i:04}.json"));
            std::fs::create_dir_all(repro_dir()).unwrap();
            std::fs::write(&path, minimal.to_json()).unwrap();
            panic!(
                "iteration {i}: backends diverged ({detail}); shrunk repro at {} \
                 (now failing as: {final_detail}) — commit the repro once fixed",
                path.display()
            );
        }
    }
    assert!(
        mutated > n / 4,
        "generator stopped producing mutation ops ({mutated}/{n} scenarios)"
    );
}

/// The calendar's query methods are pure functions of its four fields:
/// whether it was built incrementally, bulk-loaded from the surviving live
/// set, cloned, or thawed from its serialized bytes, the answers *and the
/// step counts* are the same. (With no derived state there is nothing a
/// construction path could leave behind; this pins that it stays so.)
#[test]
fn dispatched_queries_are_backend_invariant() {
    let mut rng = ChaCha12Rng::seed_from_u64(DIFF_SEED ^ 1);
    for i in 0..iterations().min(60) {
        let s = Scenario::generate(&mut rng);
        let (cal, live) = s.calendar_with_live();
        let costed = |c: &Calendar| -> Vec<_> {
            battery(c)
                .into_iter()
                .map(|(procs, dur, a, b)| {
                    let mut cost = QueryCost::default();
                    (
                        c.earliest_finish(&[(procs, dur)], a, false, &mut cost),
                        c.latest_start(&[(procs, dur)], b, a, &mut cost),
                        c.peak_used(a, b),
                        c.used_integral(a, b),
                        cost,
                    )
                })
                .collect()
        };
        let base = costed(&cal);
        let bulk = Calendar::with_reservations(cal.capacity(), live).expect("live set fits");
        let thawed: Calendar = serde_json::from_str(&serde_json::to_string(&cal).unwrap())
            .expect("serialized calendar parses");
        for (how, other) in [
            ("bulk-loaded", &bulk),
            ("thawed", &thawed),
            ("cloned", &cal.clone()),
        ] {
            assert_eq!(*other, cal, "iteration {i}: {how} calendar differs");
            assert_eq!(
                costed(other),
                base,
                "iteration {i}: {how} calendar answers or step counts differ"
            );
        }
    }
}

/// Peak usage and usage integral over `[from, to)` by a sum over the
/// calendar's segments, each clipped to the window, in `i128`: the third
/// opinion beside the calendar's slot loop and the linear reference.
fn per_segment(cal: &Calendar, from: Time, to: Time) -> (u32, i128) {
    let (mut peak, mut area) = (0, 0i128);
    for (start, end, used) in cal.segments() {
        let (a, b) = (start.max(from), end.min(to));
        if a < b {
            peak = peak.max(used);
            area += i128::from(used) * i128::from((b - a).as_seconds());
        }
    }
    (peak, area)
}

/// Windows around a calendar's breakpoints: before, after, straddling and
/// inside its span, between breakpoints and across them, and seeded ones
/// reaching past either end.
fn aggregate_windows(cal: &Calendar, rng: &mut ChaCha12Rng) -> Vec<(Time, Time)> {
    use rand::Rng;
    let points: Vec<Time> = cal.breakpoints().collect();
    let (lo, hi) = match (points.first(), points.last()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => (Time::ZERO, Time::seconds(100)),
    };
    let span = (hi - lo).as_seconds().max(2);
    let mid = lo + Dur::seconds(span / 2);
    let s = Dur::seconds;
    let mut windows = vec![
        (lo - s(100), lo - s(1)),
        (lo - s(100), lo),
        (hi, hi + s(100)),
        (hi + s(1), hi + s(50)),
        (lo - s(50), mid),
        (mid, hi + s(50)),
        (lo - s(10), hi + s(10)),
        (lo, hi),
        (lo, mid),
        (mid, mid + s(1)),
    ];
    for pair in points.windows(2).take(6) {
        if let &[a, b] = pair {
            windows.push((a, b));
            windows.push((a + s(1), b + s(1)));
        }
    }
    for _ in 0..12 {
        let a = lo + s(rng.gen_range(-span..2 * span));
        let b = a + s(rng.gen_range(1..=2 * span));
        windows.push((a, b));
    }
    windows.retain(|(a, b)| a < b);
    windows
}

/// `peak_used` and `used_integral` three ways: the calendar's (one loop
/// over the slots two binary searches bound, the end slots clipped), its
/// `linear()` reference's (the level at `from` and the breakpoints inside,
/// segments clamped to the window) and [`per_segment`]'s. On the empty
/// calendar, a single reservation, seeded scenario calendars and two
/// calendars spanning `±swf::MAX_SECONDS`: one built by `try_add`, and one
/// deserialized with levels of 2^31 processors, whose whole slots hold
/// more processor-seconds than an `i64` while the windows near zero and
/// near either end do not. The calendar's wrapping arithmetic must still
/// give those exactly. A window whose integral does not fit in an `i64` is
/// asked only for its peak.
#[test]
fn aggregates_agree_three_ways() {
    use resched_workloads::swf::MAX_SECONDS;
    let mut rng = ChaCha12Rng::seed_from_u64(DIFF_SEED ^ 2);
    let (low, high) = (Time::seconds(-MAX_SECONDS), Time::seconds(MAX_SECONDS));
    let mut wide = Calendar::new(1 << 20);
    for (start, end, procs) in [
        (-MAX_SECONDS, MAX_SECONDS, 1 << 19),
        (-MAX_SECONDS, -MAX_SECONDS + 7, 1 << 18),
        (MAX_SECONDS - 10, MAX_SECONDS, 5),
        (-3, 4, 1 << 10),
    ] {
        wide.try_add(Reservation::new(
            Time::seconds(start),
            Time::seconds(end),
            procs,
        ))
        .expect("fits the machine");
    }
    // No calendar built by `try_add` holds a slot past an `i64` (its
    // ledger would overflow first); a deserialized one can.
    let json = format!(
        r#"{{"capacity":{},"steps":[{{"time":{},"used":{}}},{{"time":-3,"used":{}}},{{"time":4,"used":{}}},{{"time":{},"used":0}}],"reserved_proc_seconds":0,"num_reservations":2}}"#,
        u32::MAX,
        -MAX_SECONDS,
        1u32 << 31,
        (1u32 << 31) + 7,
        1u32 << 31,
        MAX_SECONDS
    );
    let huge: Calendar = serde_json::from_str(&json).expect("calendar parses");
    let mut single = Calendar::new(8);
    single
        .try_add(Reservation::new(Time::seconds(10), Time::seconds(20), 3))
        .unwrap();
    let mut calendars = vec![("empty", Calendar::new(8)), ("single", single)];
    for _ in 0..iterations() {
        let (cal, _) = Scenario::generate(&mut rng).calendar_with_live();
        calendars.push(("scenario", cal));
    }
    calendars.extend([("wide", wide), ("huge", huge)]);
    let mut checked = (0usize, 0usize);
    for (name, cal) in &calendars {
        let mut windows = aggregate_windows(cal, &mut rng);
        if matches!(*name, "wide" | "huge") {
            let s = Dur::seconds;
            windows.extend([
                (Time::seconds(-1), Time::seconds(1)),
                (low - s(5), low + s(5)),
                (low, low + s(3)),
                (low + s(6), low + s(8)),
                (high - s(3), high),
                (high - s(11), high + s(5)),
                (Time::seconds(-5), Time::seconds(5)),
            ]);
        }
        let lin = cal.linear();
        for (a, b) in windows {
            let (peak, area) = per_segment(cal, a, b);
            let at = format!("{name} calendar over [{a}, {b})");
            assert_eq!(cal.peak_used(a, b), peak, "{at}: calendar peak");
            assert_eq!(lin.peak_used(a, b), peak, "{at}: linear peak");
            checked.0 += 1;
            let Ok(area) = i64::try_from(area) else {
                continue;
            };
            assert_eq!(cal.used_integral(a, b), area, "{at}: calendar integral");
            assert_eq!(lin.used_integral(a, b), area, "{at}: linear integral");
            assert_eq!(cal.used_integral(a, a), 0, "{at}: empty window");
            checked.1 += 1;
        }
    }
    assert!(checked.1 > 100, "too few integrals compared: {checked:?}");
}

/// Committed backend-divergence repros (if any) stay fixed forever.
#[test]
fn committed_backend_repros_replay_green() {
    let dir = repro_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.starts_with("backend_") || path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let s = Scenario::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("unparseable repro {}: {e}", path.display()));
        if let Some(detail) = divergence(&s) {
            panic!("committed repro {} regressed: {detail}", path.display());
        }
    }
}
