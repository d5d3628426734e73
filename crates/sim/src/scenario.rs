//! Experimental scenarios: the paper's grid of 40 application
//! specifications × 36 reservation-schedule specifications (§4.3.1), with
//! configurable instance counts.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_daggen::{DagParams, Sweep};
use resched_workloads::prelude::*;
use serde::{Deserialize, Serialize};

/// A reservation-schedule specification: which log, which tagged fraction,
/// which future-decay method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResvSpec {
    /// The synthetic log preset.
    pub log: LogSpec,
    /// Fraction of jobs tagged as reservations.
    pub phi: f64,
    /// Future-density decay method.
    pub method: ThinMethod,
}

impl ResvSpec {
    /// The paper's 36 synthetic specifications: 4 logs × 3 φ × 3 methods.
    pub fn paper_grid() -> Vec<ResvSpec> {
        let mut out = Vec::with_capacity(36);
        for log in LogSpec::paper_logs() {
            for &phi in &ExtractSpec::PHIS {
                for method in ThinMethod::ALL {
                    out.push(ResvSpec {
                        log: log.clone(),
                        phi,
                        method,
                    });
                }
            }
        }
        out
    }

    /// The Grid'5000-like specifications used by Tables 5 and 7 (reservation
    /// logs are used wholesale: every job *is* a reservation, φ = 1).
    pub fn grid5000() -> ResvSpec {
        ResvSpec {
            log: LogSpec::grid5000(),
            phi: 1.0,
            method: ThinMethod::Real,
        }
    }

    /// A short human-readable label.
    fn label(&self) -> String {
        format!(
            "{}/phi{:.1}/{}",
            self.log.name,
            self.phi,
            self.method.name()
        )
    }
}

/// A `RESCHED_*` environment variable set to a value that does not parse.
/// A typo must stop the run, not quietly run the default experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub var: &'static str,
    /// The offending value, as read.
    pub value: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

impl EnvError {
    /// Report the error on stderr and exit with status 2 (bad invocation).
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// A variable lookup: `std::env::var` in the binaries, a table in tests.
pub(crate) type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// A count knob under `get`: `None` when unset, an error naming the
/// variable and the value when set but not a whole number.
fn env_count(var: &'static str, get: Lookup<'_>) -> Result<Option<usize>, EnvError> {
    get(var)
        .map(|value| {
            value.parse().map_err(|_| EnvError {
                var,
                value,
                expected: "a non-negative integer",
            })
        })
        .transpose()
}

/// The `RESCHED_SCALE` multiplier under `get`: finite and positive.
fn env_scale(get: Lookup<'_>) -> Result<Option<f64>, EnvError> {
    let var = "RESCHED_SCALE";
    get(var)
        .map(|value| match value.parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => Ok(f),
            _ => Err(EnvError {
                var,
                value,
                expected: "a positive number",
            }),
        })
        .transpose()
}

/// How many random instances to draw per scenario.
///
/// The paper uses 20 DAG instances × 50 reservation-schedule instances
/// (10 start times × 5 taggings) per scenario. The defaults here are scaled
/// down so `cargo bench` completes on a laptop; set the `RESCHED_SCALE`
/// environment variable (a positive float) to scale all counts, or override
/// individual counts with `RESCHED_DAGS`, `RESCHED_STARTS`, `RESCHED_TAGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Random DAG instances per application spec (paper: 20).
    pub dags: usize,
    /// Start times sampled per reservation spec (paper: 10).
    pub starts: usize,
    /// Random taggings per start time (paper: 5).
    pub tags: usize,
}

impl Scale {
    /// Laptop-friendly default: 2 × 2 × 1 = 4 instances per scenario.
    fn quick() -> Scale {
        Scale {
            dags: 2,
            starts: 2,
            tags: 1,
        }
    }

    /// Read the scale from the environment (see type docs), starting from
    /// the default 2 × 2 × 1. A variable that is set but does not parse is an
    /// error, not the default.
    pub fn from_env() -> Result<Scale, EnvError> {
        Scale::from_vars(&|k| std::env::var(k).ok())
    }

    /// [`Scale::from_env`] over an explicit variable lookup.
    fn from_vars(get: Lookup<'_>) -> Result<Scale, EnvError> {
        let mut s = Scale::quick();
        if let Some(f) = env_scale(get)? {
            let scale = |x: usize| ((x as f64 * f).round() as usize).max(1);
            s = Scale {
                dags: scale(s.dags),
                starts: scale(s.starts),
                tags: scale(s.tags),
            };
        }
        if let Some(v) = env_count("RESCHED_DAGS", get)? {
            s.dags = v.max(1);
        }
        if let Some(v) = env_count("RESCHED_STARTS", get)? {
            s.starts = v.max(1);
        }
        if let Some(v) = env_count("RESCHED_TAGS", get)? {
            s.tags = v.max(1);
        }
        Ok(s)
    }

    /// Instances per scenario.
    pub fn instances(&self) -> usize {
        self.dags * self.starts * self.tags
    }
}

/// Deterministic sub-seed derivation (SplitMix64 over a label hash), so
/// every instance of every scenario is reproducible from one root seed.
pub fn derive_seed(root: u64, label: &str, index: u64) -> u64 {
    let mut h = root ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
    for b in label.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
    }
    // SplitMix64 finalization.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// One fully instantiated problem: a DAG plus a reservation schedule.
pub struct Instance {
    /// The application DAG.
    pub dag: resched_core::dag::Dag,
    /// The reservation schedule (calendar + historical availability).
    pub resv: ReservationSchedule,
}

/// Materialize all instances of one (application sweep, reservation spec)
/// scenario. `log` must be the generated log for `spec.log`.
pub fn instances_for(
    sweep: &Sweep,
    spec: &ResvSpec,
    log: &JobLog,
    scale: Scale,
    root_seed: u64,
) -> Vec<Instance> {
    let label = format!("{}={} {}", sweep.varied, sweep.value, spec.label());
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(root_seed, &label, 0));
    let mut out = Vec::with_capacity(scale.instances());
    let starts = sample_start_times(log, scale.starts, rng.gen());
    for (si, &t) in starts.iter().enumerate() {
        for tag in 0..scale.tags {
            let ex_seed = derive_seed(root_seed, &label, (si * scale.tags + tag + 1) as u64);
            let ex = ExtractSpec::new(spec.phi, spec.method);
            let resv = extract(log, t, &ex, ex_seed);
            for d in 0..scale.dags {
                let dag_seed = derive_seed(root_seed, &label, (1000 + d) as u64);
                let dag = resched_daggen::generate(&sweep.params, dag_seed);
                out.push(Instance {
                    dag,
                    resv: resv.clone(),
                });
            }
        }
    }
    out
}

/// A cache of generated logs, keyed by log name; generation is
/// deterministic per root seed.
#[derive(Default)]
pub struct LogCache {
    map: std::collections::BTreeMap<String, JobLog>,
}

impl LogCache {
    /// An empty cache.
    pub fn new() -> LogCache {
        LogCache::default()
    }

    /// Get (or generate) the log for `spec` under `root_seed`.
    pub fn get(&mut self, spec: &LogSpec, root_seed: u64) -> &JobLog {
        let key = spec.name.clone();
        self.map
            .entry(key)
            .or_insert_with(|| generate_log(spec, derive_seed(root_seed, &spec.name, 77)))
    }
}

/// The default root seed used by all experiment binaries.
pub const DEFAULT_ROOT_SEED: u64 = 20080623; // HPDC 2008 week

/// Every `stride`-th of the paper's 40 application sweeps (stride 1 = all).
/// Benches with expensive per-instance work (tightest-deadline searches)
/// default to a stride > 1; set `RESCHED_SWEEP_STRIDE` to override (an
/// unparsable value is an error).
pub fn sweeps_with_stride(default_stride: usize) -> Result<Vec<Sweep>, EnvError> {
    sweeps_from_vars(default_stride, &|k| std::env::var(k).ok())
}

/// [`sweeps_with_stride`] over an explicit variable lookup.
fn sweeps_from_vars(default_stride: usize, get: Lookup<'_>) -> Result<Vec<Sweep>, EnvError> {
    let stride = env_count("RESCHED_SWEEP_STRIDE", get)?
        .unwrap_or(default_stride)
        .max(1);
    Ok(DagParams::paper_sweeps()
        .into_iter()
        .step_by(stride)
        .collect())
}

/// Convenience: the subset of application sweeps for fast runs — one spec
/// per varied parameter at its default value.
pub fn default_sweep() -> Sweep {
    Sweep {
        varied: "default".into(),
        value: 0.0,
        params: DagParams::paper_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_36_specs() {
        assert_eq!(ResvSpec::paper_grid().len(), 36);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        let a = derive_seed(1, "x", 0);
        assert_eq!(a, derive_seed(1, "x", 0));
        assert_ne!(a, derive_seed(1, "x", 1));
        assert_ne!(a, derive_seed(1, "y", 0));
        assert_ne!(a, derive_seed(2, "x", 0));
    }

    #[test]
    fn scale_arithmetic() {
        // The paper's full scale: 20 × 10 × 5 instances per scenario.
        let paper = Scale {
            dags: 20,
            starts: 10,
            tags: 5,
        };
        assert_eq!(paper.instances(), 1000);
        assert_eq!(Scale::quick().instances(), 4);
    }

    #[test]
    fn instances_materialize() {
        let sweep = default_sweep();
        let spec = ResvSpec {
            log: LogSpec::sdsc_ds().with_duration(resched_resv::Dur::days(15)),
            phi: 0.2,
            method: ThinMethod::Expo,
        };
        let log = generate_log(&spec.log, 5);
        let scale = Scale {
            dags: 2,
            starts: 2,
            tags: 1,
        };
        let inst = instances_for(&sweep, &spec, &log, scale, 1);
        assert_eq!(inst.len(), 4);
        for i in &inst {
            assert_eq!(i.dag.num_tasks(), 50);
            assert_eq!(i.resv.procs, 224);
        }
        // Deterministic.
        let inst2 = instances_for(&sweep, &spec, &log, scale, 1);
        assert_eq!(inst[0].dag, inst2[0].dag);
        assert_eq!(inst[0].resv, inst2[0].resv);
    }

    #[test]
    fn sweep_stride() {
        let unset = |_: &str| None;
        assert_eq!(sweeps_from_vars(1, &unset).unwrap().len(), 40);
        assert_eq!(sweeps_from_vars(5, &unset).unwrap().len(), 8);
        assert_eq!(sweeps_from_vars(100, &unset).unwrap().len(), 1);
    }

    #[test]
    fn unparsable_env_values_are_errors_naming_the_variable() {
        // Each variable alone in the environment, set to `value`.
        let read = |var: &'static str, value: &'static str| {
            let get = move |k: &str| (k == var).then(|| value.to_string());
            match var {
                "RESCHED_SWEEP_STRIDE" => sweeps_from_vars(5, &get).map(|s| s.len()),
                _ => Scale::from_vars(&get).map(|s| s.instances()),
            }
        };
        let table: [(&'static str, &[&'static str], &'static str, usize); 5] = [
            (
                "RESCHED_SCALE",
                &["fast", "", "1,5", "0", "-2", "NaN", "inf"],
                "2",
                32,
            ),
            ("RESCHED_DAGS", &["many", "", "2.5", "-1"], "5", 10),
            ("RESCHED_STARTS", &["ten", "", "1e1", "-1"], "3", 6),
            ("RESCHED_TAGS", &["x", "", "0x2", "-1"], "2", 8),
            ("RESCHED_SWEEP_STRIDE", &["all", "", "5 ", "-5"], "10", 4),
        ];
        for (var, bad, good, expect) in table {
            for &value in bad {
                let err = read(var, value).expect_err(&format!("{var}={value:?} must not parse"));
                assert_eq!(err.var, var);
                let msg = err.to_string();
                assert!(msg.contains(var), "{msg}");
                assert!(msg.contains(&format!("{value:?}")), "{msg}");
            }
            assert_eq!(read(var, good), Ok(expect), "{var}={good}");
        }
        // Nothing set: the defaults, not an error.
        assert_eq!(Scale::from_vars(&|_| None), Ok(Scale::quick()));
    }

    #[test]
    fn log_cache_reuses() {
        let mut cache = LogCache::new();
        let spec = LogSpec::sdsc_ds().with_duration(resched_resv::Dur::days(5));
        let a = cache.get(&spec, 1).clone();
        let b = cache.get(&spec, 1).clone();
        assert_eq!(a, b);
    }
}
