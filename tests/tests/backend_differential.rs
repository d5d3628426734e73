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

/// The battery's answers through `$view` — the calendar itself or its
/// `linear()` reference, which share method names but no trait.
macro_rules! answers {
    ($cal:expr, $view:expr) => {{
        let view = $view;
        battery($cal)
            .into_iter()
            .map(|(procs, dur, a, b)| {
                let mut c1 = QueryCost::default();
                let earliest = view.earliest_fit_with_cost(procs, dur, a, &mut c1);
                let mut c2 = QueryCost::default();
                let latest = view.latest_fit_with_cost(procs, dur, b, a, &mut c2);
                (
                    earliest,
                    c1.queries,
                    latest,
                    c2.queries,
                    view.peak_used(a, b),
                    view.used_integral(a, b),
                )
            })
            .collect::<Answers>()
    }};
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
    if answers!(&cal, &cal) != answers!(&cal, cal.linear()) {
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
                        c.earliest_fit_with_cost(procs, dur, a, &mut cost),
                        c.latest_fit_with_cost(procs, dur, b, a, &mut cost),
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
