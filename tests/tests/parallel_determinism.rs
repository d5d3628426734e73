//! Parallel ≡ sequential, byte for byte.
//!
//! The one parallel layer in the workspace is `resched-sim`'s
//! per-instance experiment sweeps: workers execute pure per-item closures
//! and an index-ordered reassembly makes the thread count unobservable.
//! Every scheduler and the serve admission path run on the caller's
//! thread (DESIGN.md §15.3), so nothing below the sweeps can see
//! `force_threads`. These tests pin that: the same computation under
//! `rayon::force_threads(1)` and `force_threads(4)` must produce
//! identical results, including `ScheduleStats` work counters and the
//! stable subset of the serialized `results/trace.jsonl` rows — labels and
//! metric counters; the span timings are wall clocks.

use resched_sim::exp::profile::{run_phase_profiles, write_trace};
use resched_sim::exp::validation::run_validation;
use resched_sim::scenario::Scale;
use std::sync::{Mutex, MutexGuard};

/// `force_threads` is process-global; serialize the toggling tests.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` once at 1 thread and once at 4, restoring the default after.
fn at_1_and_4<T>(mut f: impl FnMut() -> T) -> (T, T) {
    rayon::force_threads(Some(1));
    let seq = f();
    rayon::force_threads(Some(4));
    let par = f();
    rayon::force_threads(None);
    (seq, par)
}

/// The validation experiment fans out per-instance work through
/// `par_iter`; its summaries must be thread-count invariant.
#[test]
fn experiment_sweep_is_thread_count_invariant() {
    let _g = lock();
    let scale = Scale {
        dags: 1,
        starts: 1,
        tags: 1,
    };
    let (seq, par) = at_1_and_4(|| run_validation(scale, 7));
    assert_eq!(seq, par, "validation sweep diverged across thread counts");
    assert!(!seq.is_empty());
}

/// `results/trace.jsonl` rows are emitted from phase profiles collected
/// under `obs::observe`. Their stable subset (row order, labels, metric
/// counters) must match across thread counts — collection is thread-local
/// and every observed section runs on the observing thread, so no counter
/// may be lost or reordered.
#[test]
fn trace_rows_are_thread_count_invariant() {
    let _g = lock();
    let scale = Scale {
        dags: 1,
        starts: 1,
        tags: 1,
    };
    let dir = std::env::temp_dir().join("resched_parallel_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let (seq_path, par_path) = (dir.join("trace_seq.jsonl"), dir.join("trace_par.jsonl"));
    rayon::force_threads(Some(1));
    write_trace(&seq_path, &run_phase_profiles(scale, 7)).unwrap();
    rayon::force_threads(Some(4));
    write_trace(&par_path, &run_phase_profiles(scale, 7)).unwrap();
    rayon::force_threads(None);
    let (seq, par) = (
        std::fs::read_to_string(&seq_path).unwrap(),
        std::fs::read_to_string(&par_path).unwrap(),
    );
    let rows = |text: &str| -> Vec<(Option<serde_json::Value>, Option<serde_json::Value>)> {
        text.lines()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).expect("trace row parses");
                let serde_json::Value::Object(map) = v else {
                    panic!("trace row is not a JSON object");
                };
                (map.get("label").cloned(), map.get("metrics").cloned())
            })
            .collect()
    };
    assert_eq!(
        rows(&seq),
        rows(&par),
        "trace.jsonl stable fields diverged across thread counts"
    );
}
