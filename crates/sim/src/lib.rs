//! # resched-sim — experiment harness for the HPDC 2008 reproduction
//!
//! Everything needed to regenerate the paper's tables:
//!
//! * [`scenario`] — the 40 application sweeps × 36 reservation specs grid,
//!   instance materialization, deterministic seeding, log caching;
//! * [`metrics`] — degradation-from-best and win-count aggregation;
//! * [`exp`] — one module per experiment (Tables 2–10 plus the §3.2.1 and
//!   §4.3.1 text results), and the result-shape checks over Tables 4–7;
//! * [`table`] — ASCII/Markdown table rendering;
//! * [`gantt`] / [`svg`] — text and SVG Gantt charts of schedules vs.
//!   reservation load.
//!
//! Scale knobs: the `RESCHED_SCALE` environment variable multiplies the
//! default per-scenario instance counts (see [`scenario::Scale`]); the
//! paper's full scale is 20 × 10 × 5 instances. The experiment sweeps take
//! their worker count as an argument; `run_experiments` reads it from
//! `RESCHED_PAR` once, with [`threads_from_env`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod exp;
pub mod gantt;
pub mod metrics;
pub mod scenario;
pub mod svg;
pub mod table;

use scenario::{EnvError, Lookup};

/// The sweep worker count `RESCHED_PAR` asks for: `off`, `seq`, `0` and
/// `1` mean one thread, any other whole number is a count clamped to
/// `1..=1024`, and unset means `std::thread::available_parallelism`. Any
/// other value is an error naming the variable, so a typo stops the run
/// instead of quietly running on the hardware default.
pub fn threads_from_env() -> Result<usize, EnvError> {
    threads_from_vars(&|k| std::env::var(k).ok())
}

/// [`threads_from_env`] over an explicit variable lookup.
fn threads_from_vars(get: Lookup<'_>) -> Result<usize, EnvError> {
    let Some(value) = get("RESCHED_PAR") else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    match value.as_str() {
        "off" | "seq" => Ok(1),
        n => n
            .parse::<usize>()
            .map(|n| n.clamp(1, 1024))
            .map_err(|_| EnvError {
                var: "RESCHED_PAR",
                value,
                expected: "`off`, `seq`, `0`, `1` or a worker count",
            }),
    }
}

/// `f` over every item of `items`, on at most `min(threads, items.len())`
/// scoped workers each mapping one contiguous chunk, the results in input
/// order, so the output does not depend on `threads`. With one worker (or
/// at most one item) nothing is spawned and `f` runs on the caller's
/// thread. A worker's panic is re-raised on the caller's thread.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_collect_preserves_input_order() {
        let items: Vec<usize> = (0..23).collect();
        let squares: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3] {
            assert_eq!(par_map(&items, threads, |&x| x * x), squares, "{threads}");
        }
        // More workers than items: one item each, still in order.
        assert_eq!(par_map(&[5u32, 6, 7], 4, |&x| x + 1), vec![6, 7, 8]);
        // A zero count is one worker.
        assert_eq!(par_map(&[1u8, 2], 0, |&x| x), vec![1, 2]);
    }

    #[test]
    fn empty_input_is_fine() {
        let caller = std::thread::current().id();
        let out: Vec<u32> = par_map(&[], 4, |&x: &u32| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert!(out.is_empty());
        // One item: mapped on the caller's thread, nothing spawned.
        let on_caller = par_map(&[1u32], 4, |_| std::thread::current().id() == caller);
        assert_eq!(on_caller, vec![true]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(
                    &items,
                    threads,
                    |&x| if x == 33 { panic!("boom") } else { x },
                )
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{threads}");
        }
    }

    #[test]
    fn resched_par_accepts_counts_and_rejects_everything_else() {
        let read = |value: Option<&str>| {
            let value = value.map(str::to_string);
            threads_from_vars(&|k| {
                assert_eq!(k, "RESCHED_PAR");
                value.clone()
            })
        };
        assert!(read(None).unwrap() >= 1);
        for (value, threads) in [
            ("off", 1),
            ("seq", 1),
            ("0", 1),
            ("1", 1),
            ("2", 2),
            ("16", 16),
            ("99999", 1024),
        ] {
            assert_eq!(read(Some(value)), Ok(threads), "RESCHED_PAR={value}");
        }
        for value in ["", "on", "OFF", "two", "2.0", "-1", "4 ", " 4", "0x4"] {
            let err = read(Some(value)).expect_err(value);
            assert_eq!((err.var, err.value.as_str()), ("RESCHED_PAR", value));
            let msg = err.to_string();
            assert!(msg.contains(&format!("RESCHED_PAR={value:?}")), "{msg}");
            assert!(msg.contains("`off`, `seq`, `0`, `1`"), "{msg}");
        }
    }
}
