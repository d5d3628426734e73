//! The experiment suite: one module per paper table (or text result), and
//! [`beyond`] for Table 1, the ablations and the extensions.

pub mod beyond;
pub mod deadline;
pub mod exec_time;
pub mod logs;
pub mod profile;
pub mod ressched;
pub mod scaling;
pub mod shapes;
pub mod stream;
pub mod trends;
pub mod validation;

/// `f()` and its wall-clock seconds: a deliberate stopwatch, whose reading
/// goes to `results/timing.*` only, never into a schedule or into
/// `results/experiments.*`.
pub(crate) fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `f()`, its wall-clock seconds appended to `walls` under `key`.
pub fn timed<T>(
    walls: &mut Vec<(&'static str, f64)>,
    key: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (out, secs) = stopwatch(f);
    walls.push((key, secs));
    out
}
