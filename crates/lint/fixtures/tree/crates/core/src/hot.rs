//! Seeded fixture: the call cone under `schedule_tick`, the root declared
//! in crates/lint/roots.toml — one positive, one negative, and one waived
//! case per transitive rule family, with witness chains three deep.

/// Root: the steady-state scheduling entry.
pub fn schedule_tick(xs: &[u32], n: usize, pick: impl Fn(u32) -> u32) -> u32 {
    let picked = pick(backend_kind());
    sweep(xs, picked as usize + n) + guarded(xs)
}

/// Mid link: every deeper witness passes through here.
fn sweep(xs: &[u32], n: usize) -> u32 {
    place(xs, n)
}

/// Deep end (schedule_tick → sweep → place): the det and panic positives
/// the proofs must reach three hops down.
fn place(xs: &[u32], n: usize) -> u32 {
    let seed = std::env::var("FIXTURE_SEED").ok().map(|s| s.len() as u32);
    xs[n] + seed.unwrap_or(0)
}

/// Waived cone: the fn-level waiver is a BFS barrier, so the expect()
/// below is never reached by the panic proof.
// lint:allow(panic-transitive): fixture barrier — callers pass non-empty slices by construction.
fn guarded(xs: &[u32]) -> u32 {
    *xs.first().expect("non-empty")
}

/// Waived det cone: the env read below sits behind a fn-level barrier, so
/// the det proof stops at the boundary.
// lint:allow(det-transitive): fixture barrier — the value is read once and never changes a schedule.
pub fn backend_kind() -> u32 {
    std::env::var("FIXTURE_BACKEND").map(|s| s.len() as u32).unwrap_or(0)
}

/// Unreachable from any root: every sink below is a negative for the
/// transitive families.
pub fn offline_report(xs: &[u32]) -> String {
    let mut out = Vec::new();
    out.push(std::env::var("HOME").unwrap());
    format!("{:?} {:?}", xs[0], out)
}
