//! Log statistics for regenerating the paper's Tables 2 and 3.

use crate::job::JobLog;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use resched_resv::Dur;
use serde::{Deserialize, Serialize};

/// Summary statistics of a job log, in the shape of the paper's Tables 2
/// and 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogStats {
    /// Log name.
    pub name: String,
    /// Machine size.
    pub procs: u32,
    /// Trace span in days.
    pub span_days: f64,
    /// Number of jobs.
    pub num_jobs: usize,
    /// Average utilization in percent (Table 2).
    pub utilization_pct: f64,
    /// Average job execution time in hours (Table 3).
    pub avg_exec_hours: f64,
    /// Coefficient of variation of *window-averaged* execution times, in
    /// percent (Table 3's low single-digit CVs are across sampled windows,
    /// not across individual jobs — see DESIGN.md).
    pub cv_exec_pct: f64,
    /// Average submit-to-start time in hours (Table 3).
    pub avg_wait_hours: f64,
    /// CV of window-averaged waits, in percent.
    pub cv_wait_pct: f64,
}

/// Compute [`LogStats`] for a log, using `windows` random sub-windows to
/// estimate the between-window CVs (the paper's Table 3 reports CVs of a
/// few percent, consistent with averaging over sampled windows).
pub fn log_stats(log: &JobLog, windows: usize, seed: u64) -> LogStats {
    let (lo, hi) = log.span();
    let span = hi - lo;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);

    // Window-averaged metrics.
    let mut exec_means = Vec::with_capacity(windows);
    let mut wait_means = Vec::with_capacity(windows);
    let wlen = Dur::seconds((span.as_seconds() / 4).max(1));
    for _ in 0..windows.max(1) {
        let max_off = (span - wlen).as_seconds().max(1);
        let off = Dur::seconds(rng.gen_range(0..max_off));
        let ws = lo + off;
        let we = ws + wlen;
        let in_window: Vec<_> = log
            .jobs
            .iter()
            .filter(|j| j.start >= ws && j.start < we)
            .collect();
        if in_window.is_empty() {
            continue;
        }
        let n = in_window.len() as f64;
        exec_means.push(in_window.iter().map(|j| j.runtime.as_hours()).sum::<f64>() / n);
        wait_means.push(in_window.iter().map(|j| j.wait().as_hours()).sum::<f64>() / n);
    }

    LogStats {
        name: log.name.clone(),
        procs: log.procs,
        span_days: span.as_days(),
        num_jobs: log.jobs.len(),
        utilization_pct: log.steady_utilization() * 100.0,
        avg_exec_hours: log.avg_runtime_hours(),
        cv_exec_pct: cv_pct(&exec_means),
        avg_wait_hours: log.avg_wait_hours(),
        cv_wait_pct: cv_pct(&wait_means),
    }
}

/// Coefficient of variation in percent (0 for fewer than two samples).
fn cv_pct(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean * 100.0
}

/// Pearson correlation between two equally long series (used to compare
/// synthetic reservation-density profiles with the Grid'5000-like ones, as
/// the paper does in §3.2.1).
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    let n = a.len() as f64;
    if a.len() < 2 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_log, LogSpec};

    #[test]
    fn stats_reflect_generated_log() {
        let spec = LogSpec::sdsc_ds().with_duration(Dur::days(15));
        let log = generate_log(&spec, 1);
        let st = log_stats(&log, 20, 2);
        assert_eq!(st.procs, 224);
        assert!(st.num_jobs > 100);
        assert!(st.span_days > 10.0);
        assert!((st.utilization_pct / 100.0 - spec.utilization).abs() < 0.15);
        assert!(st.avg_exec_hours > 0.5 && st.avg_exec_hours < 4.0);
        assert!(st.cv_exec_pct >= 0.0);
    }

    #[test]
    fn cv_pct_basics() {
        assert_eq!(cv_pct(&[]), 0.0);
        assert_eq!(cv_pct(&[5.0]), 0.0);
        assert_eq!(cv_pct(&[3.0, 3.0, 3.0]), 0.0);
        let cv = cv_pct(&[1.0, 2.0, 3.0]);
        assert!((cv - 50.0).abs() < 1e-9); // sd = 1, mean = 2
    }

    #[test]
    fn correlation_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &up) - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &down) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
