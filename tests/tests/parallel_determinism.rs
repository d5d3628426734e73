//! Parallel ≡ sequential, byte for byte.
//!
//! Every parallel layer in the workspace — the hybrid λ-grid sweep in
//! `schedule_deadline`, the serve admission-probe fan-out, the experiment
//! sweeps in `resched-sim` — is speculative: workers execute pure
//! per-item closures and a deterministic fold (index-ordered reassembly,
//! λ-ordered replay, lowest-roster-index tie break) makes the thread
//! count unobservable. These tests pin that: the same computation under
//! `rayon::force_threads(1)` and `force_threads(4)` must produce
//! identical results, including `ScheduleStats` work counters and the
//! serialized `results/trace.jsonl` rows (full bytes without the obs
//! feature; the stable subset — labels and metric counters — when obs
//! timing is compiled in, since wall clocks are not deterministic).

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_core::backward::{tightest_deadline, DeadlineAlgo, DeadlineConfig};
use resched_core::prelude::*;
use resched_serve::{run as serve_run, ServeConfig, PROBE_ROSTER};
use resched_sim::exp::profile::{run_phase_profiles, write_trace};
use resched_sim::exp::validation::run_validation;
use resched_sim::scenario::Scale;
use resched_tests::fuzz::Scenario;
use resched_workloads::prelude::*;
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

/// The hybrid λ sweep at the *tightest* feasible deadline — the regime
/// where the sweep executes many passes, skips provably repeating
/// failures, and stops mid-grid — is where speculative parallelism could
/// diverge. The whole search (feasible and infeasible probes alike) must
/// be thread-count invariant, stats included.
#[test]
fn hybrid_lambda_sweep_is_thread_count_invariant() {
    let _g = lock();
    let mut rng = ChaCha12Rng::seed_from_u64(0x5CED_0060);
    let cfg = DeadlineConfig::default();
    let mut swept = 0usize;
    for i in 0..25 {
        let s = Scenario::generate(&mut rng);
        let Some(dag) = s.dag() else { continue };
        let cal = s.calendar();
        for algo in [DeadlineAlgo::RcCpaRLambda, DeadlineAlgo::RcbdCpaRLambda] {
            let (seq, par) = at_1_and_4(|| {
                tightest_deadline(&dag, &cal, s.now(), s.q, algo, cfg, Dur::seconds(60))
            });
            assert_eq!(
                seq,
                par,
                "iteration {i}: {} tightest-deadline search diverged across thread counts",
                algo.name()
            );
            if let Some((_, outcome)) = seq {
                swept += 1;
                assert!(outcome.lambda.is_some(), "hybrids always report λ");
            }
        }
    }
    assert!(swept > 10, "too few feasible sweeps exercised ({swept})");
}

/// The serve admission fan-out probes its roster speculatively; the
/// admitted schedules (and so every downstream counter) must not depend
/// on the thread count.
#[test]
fn serve_probe_fanout_is_thread_count_invariant() {
    let _g = lock();
    let log = generate_log(&LogSpec::ctc_sp2().with_duration(Dur::days(2)), 7);
    let cfg = ServeConfig {
        max_apps: 30,
        deadline_every: 2,
        probe_fanout: PROBE_ROSTER.len(),
        ..ServeConfig::default()
    };
    let (a, b) = at_1_and_4(|| serve_run(&log, &cfg));
    assert_eq!(
        (
            a.apps,
            a.commits,
            a.rollbacks,
            a.cancels,
            a.resizes,
            a.violations
        ),
        (
            b.apps,
            b.commits,
            b.rollbacks,
            b.cancels,
            b.resizes,
            b.violations
        ),
        "serve outcomes diverged across thread counts"
    );
    assert_eq!(a.utilization, b.utilization);
    assert_eq!(a.live_apps, b.live_apps);
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
/// under `obs::observe`. Without the obs feature the rows carry no wall
/// clocks and must be byte-identical across thread counts; with obs
/// compiled, the stable subset (row order, labels, metric counters) must
/// match — thread-local collection forces observed sections sequential,
/// so no counter may be lost or reordered.
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
    if !resched_core::obs::COMPILED {
        assert_eq!(seq, par, "trace.jsonl bytes diverged across thread counts");
        return;
    }
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
