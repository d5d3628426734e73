//! Batch jobs and job logs.

use crate::swf::MAX_SECONDS;
use resched_resv::{Dur, Reservation, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One batch job: submitted at `submit`, started at `start`, ran for
/// `runtime` on `procs` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Job identifier (unique within its log).
    pub id: u32,
    /// Submission instant.
    pub submit: Time,
    /// Start instant (`>= submit`).
    pub start: Time,
    /// Execution duration.
    pub runtime: Dur,
    /// Processors used.
    pub procs: u32,
}

impl Job {
    /// End of execution.
    pub fn end(&self) -> Time {
        self.start + self.runtime
    }

    /// Queue wait (submission to start).
    pub fn wait(&self) -> Dur {
        self.start - self.submit
    }

    /// The reservation footprint of this job.
    pub fn reservation(&self) -> Reservation {
        Reservation::new(self.start, self.end(), self.procs)
    }
}

/// A whole job log for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLog {
    /// Human-readable log name (e.g. `CTC_SP2`).
    pub name: String,
    /// Machine size in processors.
    pub procs: u32,
    /// Jobs, sorted by submission time.
    pub jobs: Vec<Job>,
    /// Source records dropped on ingest (e.g. SWF `-1` sentinels for
    /// cancelled jobs, negative submit times). Zero for synthetic logs;
    /// lets trace-driven experiments report how much of a log was unusable
    /// instead of silently shrinking it.
    #[serde(default)]
    pub skipped_jobs: u32,
}

/// The rule of [`JobLog::check`] a log breaks; every variant but the first
/// carries the id of the job at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobLogError {
    /// The machine has no processors.
    NoProcessors,
    /// The job holds no processors, or more than the machine has.
    Procs(u32),
    /// The job's runtime is not positive.
    Runtime(u32),
    /// The job starts before it is submitted.
    StartBeforeSubmit(u32),
    /// The job's submit or start instant lies outside ±[`MAX_SECONDS`], or
    /// its runtime is longer than that.
    OutOfRange(u32),
}

impl fmt::Display for JobLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobLogError::NoProcessors => write!(f, "procs (the machine size) must be positive"),
            JobLogError::Procs(id) => write!(f, "job {id}: procs outside 1..=the machine size"),
            JobLogError::Runtime(id) => write!(f, "job {id}: runtime must be positive"),
            JobLogError::StartBeforeSubmit(id) => write!(f, "job {id}: start is before submit"),
            JobLogError::OutOfRange(id) => write!(f, "job {id}: lies past ±{MAX_SECONDS} s"),
        }
    }
}

impl std::error::Error for JobLogError {}

impl JobLog {
    /// Hold a log read from outside the program to the rules
    /// [`parse_swf`](crate::swf::parse_swf) applies to the records it
    /// keeps: the machine has a processor, and every job runs on
    /// `1..=procs` processors for a positive runtime, starts at or after
    /// its submission, and has its submit and start instants within
    /// ±[`MAX_SECONDS`] and its runtime within [`MAX_SECONDS`], so that no
    /// sum of them overflows. Names the first job at fault, in log order.
    pub fn check(&self) -> Result<(), JobLogError> {
        if self.procs == 0 {
            return Err(JobLogError::NoProcessors);
        }
        let within = |t: Time| (-MAX_SECONDS..=MAX_SECONDS).contains(&t.as_seconds());
        for job in &self.jobs {
            if !within(job.submit) || !within(job.start) || job.runtime.as_seconds() > MAX_SECONDS {
                return Err(JobLogError::OutOfRange(job.id));
            }
            if job.procs == 0 || job.procs > self.procs {
                return Err(JobLogError::Procs(job.id));
            }
            if !job.runtime.is_positive() {
                return Err(JobLogError::Runtime(job.id));
            }
            if job.start < job.submit {
                return Err(JobLogError::StartBeforeSubmit(job.id));
            }
        }
        Ok(())
    }

    /// Span covered by the log: earliest submit to latest end.
    pub fn span(&self) -> (Time, Time) {
        let lo = self
            .jobs
            .iter()
            .map(|j| j.submit)
            .min()
            .unwrap_or(Time::ZERO);
        let hi = self
            .jobs
            .iter()
            .map(|j| j.end())
            .max()
            .unwrap_or(Time::ZERO);
        (lo, hi)
    }

    /// Average machine utilization over the log's span.
    ///
    /// Note the span runs to the *last job end*, so a trace with a long
    /// drain tail reads slightly lower than its steady-state utilization;
    /// [`JobLog::steady_utilization`] leaves that tail out.
    pub fn utilization(&self) -> f64 {
        let (lo, hi) = self.span();
        if hi <= lo {
            return 0.0;
        }
        self.utilization_in(lo, hi)
    }

    /// Average utilization over `[lo, hi)`, clamping each job's execution
    /// interval to the window.
    fn utilization_in(&self, lo: Time, hi: Time) -> f64 {
        let span = (hi - lo).as_seconds();
        if span <= 0 {
            return 0.0;
        }
        let used: i64 = self
            .jobs
            .iter()
            .map(|j| {
                let s = j.start.max(lo);
                let e = j.end().min(hi);
                if e > s {
                    j.procs as i64 * (e - s).as_seconds()
                } else {
                    0
                }
            })
            .sum();
        used as f64 / (span as f64 * self.procs as f64)
    }

    /// The steady-state utilization: measured from the first to the last
    /// *submission*, excluding the drain tail after arrivals stop.
    pub fn steady_utilization(&self) -> f64 {
        let lo = self.jobs.iter().map(|j| j.submit).min();
        let hi = self.jobs.iter().map(|j| j.submit).max();
        match (lo, hi) {
            (Some(lo), Some(hi)) if hi > lo => self.utilization_in(lo, hi),
            _ => 0.0,
        }
    }

    /// A copy of the log replayed at `factor`× speed: every submission
    /// offset from the first submission is divided by `factor` (rounded
    /// down, floored at one second per original positive gap so distinct
    /// submissions never collapse in order). Start instants and runtimes
    /// are untouched — online replay re-schedules each arrival from
    /// scratch, so only the arrival process is compressed.
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive and finite.
    pub fn accelerated(&self, factor: f64) -> JobLog {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad acceleration factor {factor}"
        );
        let first = self.jobs.iter().map(|j| j.submit).min();
        let jobs = match first {
            None => Vec::new(),
            Some(first) => self
                .jobs
                .iter()
                .map(|j| {
                    let gap = (j.submit - first).as_seconds();
                    let scaled = ((gap as f64 / factor) as i64).max(i64::from(gap > 0));
                    Job {
                        submit: first + Dur::seconds(scaled),
                        ..*j
                    }
                })
                .collect(),
        };
        JobLog {
            name: self.name.clone(),
            procs: self.procs,
            jobs,
            skipped_jobs: self.skipped_jobs,
        }
    }

    /// Average job runtime, in hours.
    pub fn avg_runtime_hours(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.runtime.as_hours()).sum::<f64>() / self.jobs.len() as f64
    }

    /// Average submit-to-start wait, in hours.
    pub fn avg_wait_hours(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.wait().as_hours()).sum::<f64>() / self.jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(id: u32, submit: i64, start: i64, run: i64, procs: u32) -> Job {
        Job {
            id,
            submit: Time::seconds(submit),
            start: Time::seconds(start),
            runtime: Dur::seconds(run),
            procs,
        }
    }

    #[test]
    fn accelerated_compresses_arrivals_only() {
        let log = JobLog {
            name: "test".into(),
            procs: 10,
            jobs: vec![j(1, 100, 160, 3600, 8), j(2, 1100, 1200, 60, 2)],
            skipped_jobs: 0,
        };
        let fast = log.accelerated(10.0);
        assert_eq!(fast.jobs[0].submit, Time::seconds(100));
        assert_eq!(fast.jobs[1].submit, Time::seconds(200));
        // Runtimes and processor counts untouched.
        assert_eq!(fast.jobs[1].runtime, Dur::seconds(60));
        assert_eq!(fast.jobs[1].procs, 2);
        // Extreme factors floor positive gaps at one second.
        let crushed = log.accelerated(1e9);
        assert_eq!(crushed.jobs[1].submit, Time::seconds(101));
        // Identity factor is a no-op on submissions.
        assert_eq!(log.accelerated(1.0).jobs[1].submit, Time::seconds(1100));
    }

    #[test]
    fn job_accessors() {
        let job = j(1, 100, 160, 3600, 8);
        assert_eq!(job.end(), Time::seconds(3760));
        assert_eq!(job.wait(), Dur::seconds(60));
        assert_eq!(job.reservation().procs, 8);
    }

    #[test]
    fn log_metrics() {
        let log = JobLog {
            name: "test".into(),
            procs: 10,
            jobs: vec![j(1, 0, 0, 100, 5), j(2, 0, 100, 100, 5)],
            skipped_jobs: 0,
        };
        let (lo, hi) = log.span();
        assert_eq!(lo, Time::ZERO);
        assert_eq!(hi, Time::seconds(200));
        // 2 jobs * 5 procs * 100 s = 1000 of 2000 proc-seconds.
        assert!((log.utilization() - 0.5).abs() < 1e-12);
        assert!((log.avg_runtime_hours() - 100.0 / 3600.0).abs() < 1e-12);
        assert!((log.avg_wait_hours() - 50.0 / 3600.0).abs() < 1e-12);
    }

    fn log(procs: u32, jobs: Vec<Job>) -> JobLog {
        JobLog {
            name: "check".into(),
            procs,
            jobs,
            skipped_jobs: 0,
        }
    }

    #[test]
    fn check_accepts_what_the_parsers_and_generators_produce() {
        assert_eq!(
            log(8, vec![j(1, 0, 10, 60, 8), j(2, 5, 5, 1, 1)]).check(),
            Ok(())
        );
        assert_eq!(log(1, vec![]).check(), Ok(()));
        let edge = log(1, vec![j(3, -MAX_SECONDS, MAX_SECONDS, MAX_SECONDS, 1)]);
        assert_eq!(edge.check(), Ok(()));
        let swf = crate::swf::parse_swf("x", "1 0 10 3600 16\n2 50 0 60 4\n").expect("parses");
        assert_eq!(swf.check(), Ok(()));
        let synth = crate::synth::generate_log(
            &crate::synth::LogSpec::sdsc_ds().with_duration(Dur::days(2)),
            7,
        );
        assert_eq!(synth.check(), Ok(()));
    }

    #[test]
    fn check_needs_a_processor() {
        assert_eq!(log(0, vec![]).check(), Err(JobLogError::NoProcessors));
    }

    #[test]
    fn check_bounds_each_jobs_processors_by_the_machine() {
        let zero = log(8, vec![j(1, 0, 0, 60, 4), j(2, 0, 0, 60, 0)]);
        assert_eq!(zero.check(), Err(JobLogError::Procs(2)));
        let wide = log(8, vec![j(7, 0, 0, 60, 40)]);
        assert_eq!(wide.check(), Err(JobLogError::Procs(7)));
    }

    #[test]
    fn check_needs_a_positive_runtime() {
        for run in [0, -60] {
            assert_eq!(
                log(8, vec![j(4, 0, 0, run, 2)]).check(),
                Err(JobLogError::Runtime(4))
            );
        }
    }

    #[test]
    fn check_needs_start_at_or_after_submit() {
        assert_eq!(
            log(8, vec![j(5, 100, 99, 60, 2)]).check(),
            Err(JobLogError::StartBeforeSubmit(5))
        );
    }

    #[test]
    fn check_keeps_every_instant_within_max_seconds() {
        let past = MAX_SECONDS + 1;
        for job in [
            j(6, -past, 0, 60, 2),
            j(6, 0, past, 60, 2),
            j(6, 0, 0, past, 2),
            j(6, i64::MIN, i64::MIN, 60, 2),
        ] {
            assert_eq!(log(8, vec![job]).check(), Err(JobLogError::OutOfRange(6)));
        }
    }

    #[test]
    fn empty_log_is_safe() {
        let log = JobLog {
            name: "empty".into(),
            procs: 4,
            jobs: vec![],
            skipped_jobs: 0,
        };
        assert_eq!(log.utilization(), 0.0);
        assert_eq!(log.avg_runtime_hours(), 0.0);
    }
}
