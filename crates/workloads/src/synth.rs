//! Synthetic batch-log generation calibrated to the paper's four Parallel
//! Workloads Archive logs (Table 2) and its Grid'5000 reservation log
//! (Table 3).
//!
//! The real traces are not redistributable, so each preset reproduces the
//! published summary statistics instead: machine size, average utilization,
//! mean job runtime, and mean submit-to-start delay. Jobs arrive as a
//! Poisson process whose rate is tuned analytically to hit the target
//! utilization; runtimes and queue delays are lognormal with the target
//! means; processor counts are powers of two (the dominant shape in the
//! archive). Each job is then placed, in eligibility order, at the earliest
//! feasible instant after its eligibility time (conservative backfilling,
//! [`crate::queue`]), so the resulting log is *consistent*: no
//! instant ever uses more processors than the machine has. This is the
//! property the downstream reservation extraction actually depends on.

use crate::job::{Job, JobLog};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_resv::{Dur, Time};
use serde::{Deserialize, Serialize};

/// Specification of a synthetic log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogSpec {
    /// Log name (matches the paper's Table 2 names for the presets).
    pub name: String,
    /// Machine size in processors.
    pub procs: u32,
    /// Length of the generated trace.
    pub duration: Dur,
    /// Target average utilization in `[0, 1]`.
    pub utilization: f64,
    /// Mean job runtime.
    pub mean_runtime: Dur,
    /// Mean submit-to-start delay.
    pub mean_wait: Dur,
}

/// Default trace length. The archive logs span 11–32 months; 60 days keeps
/// generation fast while leaving ample room for the 7-day reservation
/// horizon around any sampled scheduling instant (documented substitution,
/// see DESIGN.md).
pub const DEFAULT_DURATION: Dur = Dur::days(60);

impl LogSpec {
    /// The presets' names, as `--preset` takes them.
    pub const PRESETS: [&str; 5] = ["ctc_sp2", "osc_cluster", "sdsc_blue", "sdsc_ds", "grid5000"];

    /// The preset called `name`, one of [`LogSpec::PRESETS`].
    pub fn preset(name: &str) -> Option<LogSpec> {
        Some(match name {
            "ctc_sp2" => LogSpec::ctc_sp2(),
            "osc_cluster" => LogSpec::osc_cluster(),
            "sdsc_blue" => LogSpec::sdsc_blue(),
            "sdsc_ds" => LogSpec::sdsc_ds(),
            "grid5000" => LogSpec::grid5000(),
            _ => return None,
        })
    }

    /// CTC SP2 (430 procs, 65.8% utilization, 3.20 h jobs, 7.49 h waits).
    pub fn ctc_sp2() -> LogSpec {
        LogSpec {
            name: "CTC_SP2".into(),
            procs: 430,
            duration: DEFAULT_DURATION,
            utilization: 0.658,
            mean_runtime: Dur::seconds((3.20 * 3600.0) as i64),
            mean_wait: Dur::seconds((7.49 * 3600.0) as i64),
        }
    }

    /// OSC Linux cluster (57 procs, 38.5% utilization, 9.33 h jobs).
    pub fn osc_cluster() -> LogSpec {
        LogSpec {
            name: "OSC_Cluster".into(),
            procs: 57,
            duration: DEFAULT_DURATION,
            utilization: 0.385,
            mean_runtime: Dur::seconds((9.33 * 3600.0) as i64),
            mean_wait: Dur::seconds((3.02 * 3600.0) as i64),
        }
    }

    /// SDSC Blue Horizon (1152 procs, 75.7% utilization, 1.18 h jobs).
    pub fn sdsc_blue() -> LogSpec {
        LogSpec {
            name: "SDSC_BLUE".into(),
            procs: 1152,
            duration: DEFAULT_DURATION,
            utilization: 0.757,
            mean_runtime: Dur::seconds((1.18 * 3600.0) as i64),
            mean_wait: Dur::seconds((8.90 * 3600.0) as i64),
        }
    }

    /// SDSC DataStar p690 partition (224 procs, 27.3% utilization).
    pub fn sdsc_ds() -> LogSpec {
        LogSpec {
            name: "SDSC_DS".into(),
            procs: 224,
            duration: DEFAULT_DURATION,
            utilization: 0.273,
            mean_runtime: Dur::seconds((1.52 * 3600.0) as i64),
            mean_wait: Dur::seconds((4.41 * 3600.0) as i64),
        }
    }

    /// Grid'5000-like *reservation* log (Table 3: 1.84 h jobs, 3.24 h
    /// submit-to-start). Machine size and utilization are assumptions
    /// documented in DESIGN.md (the paper does not publish them). The
    /// utilization here is the *reservation* load only — kept light
    /// (15%), consistent with the paper's finding that its Grid'5000
    /// results track the sparse synthetic schedules.
    pub fn grid5000() -> LogSpec {
        LogSpec {
            name: "Grid5000".into(),
            procs: 512,
            duration: DEFAULT_DURATION,
            utilization: 0.15,
            mean_runtime: Dur::seconds((1.84 * 3600.0) as i64),
            mean_wait: Dur::seconds((3.24 * 3600.0) as i64),
        }
    }

    /// The paper's four batch logs (Table 2), in order.
    pub fn paper_logs() -> Vec<LogSpec> {
        vec![
            LogSpec::ctc_sp2(),
            LogSpec::osc_cluster(),
            LogSpec::sdsc_blue(),
            LogSpec::sdsc_ds(),
        ]
    }

    /// A copy with a different duration (useful for fast tests).
    pub fn with_duration(mut self, duration: Dur) -> LogSpec {
        self.duration = duration;
        self
    }
}

/// Job processor counts: powers of two up to a quarter of the machine,
/// uniformly weighted. The generator draws job widths from it and tunes
/// its arrival rate to their mean.
fn proc_count_choices(machine: u32) -> Vec<u32> {
    let cap = (machine / 4).max(1);
    let mut v = Vec::new();
    let mut s = 1u32;
    while s <= cap && v.len() < 10 {
        v.push(s);
        s *= 2;
    }
    v
}

/// Generate a synthetic, feasibility-consistent job log.
pub fn generate_log(spec: &LogSpec, seed: u64) -> JobLog {
    assert!(spec.procs > 0 && spec.duration.is_positive());
    assert!((0.0..1.0).contains(&spec.utilization));
    let mut rng = ChaCha12Rng::seed_from_u64(seed);

    let sizes = proc_count_choices(spec.procs);
    let mean_procs: f64 = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
    let mean_runtime = spec.mean_runtime.as_seconds() as f64;
    // Poisson arrival rate tuned to the target utilization.
    let rate = spec.utilization * spec.procs as f64 / (mean_runtime * mean_procs);

    let mut arrivals: Vec<(Time, crate::queue::Request)> = Vec::new();
    let mut t = 0.0f64;
    let horizon = spec.duration.as_seconds() as f64;
    while t < horizon {
        // Exponential inter-arrival.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= horizon {
            break;
        }
        let submit = Time::seconds(t as i64);
        let runtime = lognormal_dur(&mut rng, spec.mean_runtime, 1.0);
        let procs = sizes[rng.gen_range(0..sizes.len())];
        let eligible = if spec.mean_wait.is_positive() {
            submit + lognormal_dur(&mut rng, spec.mean_wait, 1.0)
        } else {
            submit
        };
        arrivals.push((
            submit,
            crate::queue::Request {
                eligible,
                runtime,
                procs,
            },
        ));
    }
    // Assign start times under conservative backfilling (requests must be
    // sorted by eligibility).
    arrivals.sort_by_key(|(_, r)| r.eligible);
    let requests: Vec<crate::queue::Request> = arrivals.iter().map(|&(_, r)| r).collect();
    let starts = crate::queue::assign_starts(&requests, spec.procs);
    let mut jobs: Vec<Job> = arrivals
        .iter()
        .zip(&starts)
        .enumerate()
        .map(|(i, (&(submit, r), &start))| Job {
            id: i as u32 + 1,
            submit,
            start,
            runtime: r.runtime,
            procs: r.procs,
        })
        .collect();
    jobs.sort_by_key(|j| j.submit);
    JobLog {
        name: spec.name.clone(),
        procs: spec.procs,
        jobs,
        skipped_jobs: 0,
    }
}

/// A lognormal duration with the given mean and log-space sigma, at least
/// one second.
fn lognormal_dur<R: Rng>(rng: &mut R, mean: Dur, sigma: f64) -> Dur {
    let mean_s = mean.as_seconds() as f64;
    let mu = mean_s.ln() - sigma * sigma / 2.0;
    let z = standard_normal(rng);
    Dur::from_secs_f64_ceil((mu + sigma * z).exp()).max(Dur::seconds(1))
}

/// A standard normal sample via the Box–Muller transform (kept in-tree to
/// avoid a `rand_distr` dependency).
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resched_resv::Calendar;

    fn short(spec: LogSpec) -> LogSpec {
        spec.with_duration(Dur::days(10))
    }

    #[test]
    fn generated_log_is_feasible() {
        let log = generate_log(&short(LogSpec::sdsc_ds()), 1);
        // Re-inserting every job into a fresh calendar must never conflict.
        let mut cal = Calendar::new(log.procs);
        let mut jobs = log.jobs.clone();
        jobs.sort_by_key(|j| j.start);
        for j in &jobs {
            cal.try_add(j.reservation())
                .unwrap_or_else(|e| panic!("job {} conflicts: {e}", j.id));
        }
    }

    #[test]
    fn utilization_close_to_target() {
        let spec = short(LogSpec::ctc_sp2());
        let log = generate_log(&spec, 2);
        let u = log.steady_utilization();
        assert!(
            (u - spec.utilization).abs() < 0.15,
            "utilization {u} too far from target {}",
            spec.utilization
        );
    }

    #[test]
    fn mean_runtime_close_to_target() {
        let spec = short(LogSpec::osc_cluster());
        let log = generate_log(&spec, 3);
        let got = log.avg_runtime_hours();
        let want = spec.mean_runtime.as_hours();
        assert!(
            (got - want).abs() / want < 0.35,
            "mean runtime {got}h too far from {want}h"
        );
    }

    #[test]
    fn waits_present_when_requested() {
        let spec = short(LogSpec::sdsc_blue());
        let log = generate_log(&spec, 4);
        assert!(log.avg_wait_hours() > 1.0);
        // Starts never precede submits.
        assert!(log.jobs.iter().all(|j| j.start >= j.submit));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = short(LogSpec::sdsc_ds());
        assert_eq!(generate_log(&spec, 7), generate_log(&spec, 7));
        assert_ne!(generate_log(&spec, 7), generate_log(&spec, 8));
    }

    #[test]
    fn proc_choices_are_powers_of_two_within_machine() {
        for machine in [4u32, 57, 224, 430, 1152] {
            let sizes = proc_count_choices(machine);
            assert!(!sizes.is_empty());
            for &s in &sizes {
                assert!(s.is_power_of_two());
                assert!(s <= (machine / 4).max(1));
            }
        }
    }

    #[test]
    fn presets_match_table2() {
        let logs = LogSpec::paper_logs();
        assert_eq!(logs.len(), 4);
        assert_eq!(logs[0].procs, 430);
        assert_eq!(logs[1].procs, 57);
        assert_eq!(logs[2].procs, 1152);
        assert_eq!(logs[3].procs, 224);
        assert!((logs[2].utilization - 0.757).abs() < 1e-9);
    }

    #[test]
    fn standard_normal_is_roughly_standard() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
