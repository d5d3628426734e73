//! Parser for the Standard Workload Format (SWF) of the Parallel Workloads
//! Archive.
//!
//! The paper draws its reservation schedules from four archive logs
//! (CTC_SP2, OSC_Cluster, SDSC_BLUE, SDSC_DS). Those traces are not
//! redistributable with this repository, so experiments default to the
//! calibrated synthetic logs in [`crate::synth`] — but genuine `.swf` files
//! can be dropped in through this parser.
//!
//! SWF lines have 18 whitespace-separated fields; `;`-prefixed lines are
//! header comments. Fields used here: 1 job number, 2 submit time, 3 wait
//! time, 4 run time, 5 allocated processors. A `-1` marks a missing value.

use crate::job::{Job, JobLog};
use resched_resv::{Dur, Time};
use std::fmt;

/// Errors from SWF parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than 5 fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as an integer.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based field number.
        field: usize,
    },
    /// A field of a usable record holds a number the log cannot represent:
    /// a job id or processor count outside `u32`, or an instant or
    /// duration past [`MAX_SECONDS`].
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// 1-based field number.
        field: usize,
    },
    /// The `; MaxProcs:` header is not a positive processor count.
    BadMaxProcs {
        /// 1-based line number.
        line: usize,
    },
}

/// The largest instant (start of execution) and the longest runtime a
/// record may carry, in seconds: about 35,000 years. Real traces span
/// months; the bound is what keeps every sum a replay forms from a job's
/// instants — `submit + wait`, `start + runtime`, `now + admit_horizon`
/// plus a schedule's length — far inside `i64`.
pub const MAX_SECONDS: i64 = 1 << 40;

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwfError::TooFewFields { line } => write!(f, "line {line}: too few fields"),
            SwfError::BadNumber { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            SwfError::OutOfRange { line, field } => {
                write!(f, "line {line}: field {field} is out of range")
            }
            SwfError::BadMaxProcs { line } => {
                write!(f, "line {line}: MaxProcs is not a positive processor count")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parse SWF text into a [`JobLog`].
///
/// Jobs with unknown or non-positive runtime or processor counts (the
/// archive's `-1` sentinel for cancelled / failed jobs) and jobs with a
/// negative submit time are skipped, matching common archive-cleaning
/// practice — and **counted**: the returned log's
/// [`skipped_jobs`](JobLog::skipped_jobs) records every dropped record, so
/// a heavily-cleaned trace cannot silently masquerade as a small one.
/// `max_procs` is taken from the `; MaxProcs:` header when present (a job
/// wider than it cannot have run on that machine and is skipped and
/// counted like the sentinels), otherwise from the largest allocation
/// seen. A usable record with a field the log cannot represent is an
/// error naming its line, never a silently narrowed number.
pub fn parse_swf(name: &str, text: &str) -> Result<JobLog, SwfError> {
    let mut jobs = Vec::new();
    let mut skipped_jobs: u32 = 0;
    let mut max_procs_header: Option<u32> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(';') {
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("MaxProcs:") {
                let procs = v.trim().parse().ok().filter(|&p: &u32| p > 0);
                max_procs_header = Some(procs.ok_or(SwfError::BadMaxProcs { line: lineno + 1 })?);
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [id, submit, wait, runtime, procs, ..] = fields.as_slice() else {
            return Err(SwfError::TooFewFields { line: lineno + 1 });
        };
        let num = |field: usize, text: &str| -> Result<i64, SwfError> {
            text.parse().map_err(|_| SwfError::BadNumber {
                line: lineno + 1,
                field,
            })
        };
        let id = num(1, id)?;
        let submit = num(2, submit)?;
        let wait = num(3, wait)?;
        let runtime = num(4, runtime)?;
        let procs = num(5, procs)?;
        // -1 sentinels (and any other non-positive value) on the runtime or
        // allocation mark a cancelled/failed record; a negative submit is
        // an unusable timestamp. Skip-with-counter, never silently.
        if runtime <= 0 || procs <= 0 || submit < 0 {
            skipped_jobs = skipped_jobs.saturating_add(1);
            continue;
        }
        let out_of_range = |field: usize| SwfError::OutOfRange {
            line: lineno + 1,
            field,
        };
        let start = submit
            .checked_add(wait.max(0))
            .filter(|&start| start <= MAX_SECONDS)
            .ok_or(out_of_range(if submit > MAX_SECONDS { 2 } else { 3 }))?;
        if runtime > MAX_SECONDS {
            return Err(out_of_range(4));
        }
        jobs.push(Job {
            id: u32::try_from(id).map_err(|_| out_of_range(1))?,
            submit: Time::seconds(submit),
            start: Time::seconds(start),
            runtime: Dur::seconds(runtime),
            procs: u32::try_from(procs).map_err(|_| out_of_range(5))?,
        });
    }
    if let Some(max) = max_procs_header {
        let parsed = jobs.len();
        jobs.retain(|j| j.procs <= max);
        let too_wide = u32::try_from(parsed - jobs.len()).unwrap_or(u32::MAX);
        skipped_jobs = skipped_jobs.saturating_add(too_wide);
    }
    jobs.sort_by_key(|j| j.submit);
    let procs = max_procs_header
        .or_else(|| jobs.iter().map(|j| j.procs).max())
        .unwrap_or(1);
    Ok(JobLog {
        name: name.to_string(),
        procs,
        jobs,
        skipped_jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; MaxProcs: 128
; Note: synthetic sample
1 0 10 3600 16 -1 -1 16 -1 -1 1 1 1 1 1 -1 -1 -1
2 100 0 60 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1
3 200 -1 -1 8 -1 -1 8 -1 -1 0 1 1 1 1 -1 -1 -1
";

    #[test]
    fn parses_sample() {
        let log = parse_swf("sample", SAMPLE).unwrap();
        assert_eq!(log.procs, 128);
        // Job 3 has unknown runtime and is skipped — and counted.
        assert_eq!(log.jobs.len(), 2);
        assert_eq!(log.skipped_jobs, 1);
        let j1 = &log.jobs[0];
        assert_eq!(j1.id, 1);
        assert_eq!(j1.submit, Time::seconds(0));
        assert_eq!(j1.start, Time::seconds(10));
        assert_eq!(j1.runtime, Dur::seconds(3600));
        assert_eq!(j1.procs, 16);
    }

    #[test]
    fn infers_max_procs_without_header() {
        let log = parse_swf("x", "1 0 0 100 32 0 0 32 0 0 1 1 1 1 1 0 0 0\n").unwrap();
        assert_eq!(log.procs, 32);
    }

    #[test]
    fn reports_malformed_lines() {
        assert!(matches!(
            parse_swf("x", "1 2 3\n"),
            Err(SwfError::TooFewFields { line: 1 })
        ));
        assert!(matches!(
            parse_swf("x", "1 zero 3 4 5\n"),
            Err(SwfError::BadNumber { line: 1, field: 2 })
        ));
    }

    #[test]
    fn sorts_by_submit() {
        let text = "2 500 0 10 1 0 0 1 0 0 1 1 1 1 1 0 0 0\n1 0 0 10 1 0 0 1 0 0 1 1 1 1 1 0 0 0\n";
        let log = parse_swf("x", text).unwrap();
        assert_eq!(log.jobs[0].id, 1);
        assert_eq!(log.jobs[1].id, 2);
    }

    #[test]
    fn negative_wait_clamped() {
        let log = parse_swf("x", "1 100 -5 10 1 0 0 1 0 0 1 1 1 1 1 0 0 0\n").unwrap();
        assert_eq!(log.jobs[0].start, Time::seconds(100));
        assert_eq!(log.skipped_jobs, 0);
    }

    /// A deliberately dirty fixture: every archive sentinel pattern in one
    /// log. Each bad record must be skipped-with-counter, the good ones
    /// parsed, and nothing negative may leak into the job list.
    #[test]
    fn malformed_sentinels_are_skipped_and_counted() {
        const DIRTY: &str = "\
; MaxProcs: 64
1 0 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1
2 10 0 -1 4 -1 -1 4 -1 -1 0 1 1 1 1 -1 -1 -1
3 20 0 100 -1 -1 -1 -1 -1 -1 0 1 1 1 1 -1 -1 -1
4 30 0 0 4 -1 -1 4 -1 -1 0 1 1 1 1 -1 -1 -1
5 40 0 100 0 -1 -1 0 -1 -1 0 1 1 1 1 -1 -1 -1
6 -1 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1
7 50 0 100 8 -1 -1 8 -1 -1 1 1 1 1 1 -1 -1 -1
";
        let log = parse_swf("dirty", DIRTY).unwrap();
        // Jobs 2 (runtime -1), 3 (procs -1), 4 (runtime 0), 5 (procs 0)
        // and 6 (submit -1) are dropped; 1 and 7 survive.
        assert_eq!(log.skipped_jobs, 5);
        assert_eq!(log.jobs.len(), 2);
        assert_eq!(log.jobs[0].id, 1);
        assert_eq!(log.jobs[1].id, 7);
        for j in &log.jobs {
            assert!(j.runtime.is_positive());
            assert!(j.procs > 0);
            assert!(j.submit >= Time::ZERO);
        }
        // The counter round-trips through serialization, and a
        // pre-hardening log without the field deserializes to zero.
        let json = serde_json::to_string(&log).unwrap();
        let back: crate::job::JobLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.skipped_jobs, 5);
        let legacy = r#"{"name":"x","procs":4,"jobs":[]}"#;
        let old: crate::job::JobLog = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.skipped_jobs, 0);
    }

    #[test]
    fn max_procs_header_must_be_a_positive_count() {
        for header in ["0", "lots", "-4", "4294967296", ""] {
            let text = format!("; Version: 2.2\n; MaxProcs: {header}\n1 0 0 100 4\n");
            assert_eq!(
                parse_swf("x", &text),
                Err(SwfError::BadMaxProcs { line: 2 }),
                "MaxProcs: {header}"
            );
        }
    }

    #[test]
    fn a_number_the_log_cannot_hold_is_an_error_not_a_narrowing() {
        // (record, the field at fault): a job id and a processor count
        // past u32 (4294967297 used to wrap to 1), a negative id, and
        // instants or durations that would overflow later arithmetic.
        for (record, field) in [
            ("4294967297 0 0 100 4", 1),
            ("-7 0 0 100 4", 1),
            ("1 9223372036854775000 0 100 4", 2),
            ("1 1099511627777 0 100 4", 2),
            ("1 5 9223372036854775807 100 4", 3),
            ("1 1099511627000 1000 100 4", 3),
            ("1 0 0 1099511627777 4", 4),
            ("1 0 0 100 4294967297", 5),
        ] {
            let text = format!("1 0 0 100 4\n{record}\n");
            assert_eq!(
                parse_swf("x", &text),
                Err(SwfError::OutOfRange { line: 2, field }),
                "{record}"
            );
        }
        // The bound itself is in range, and a record that is skipped
        // anyway is not held to it.
        let edge = format!(
            "1 {MAX_SECONDS} 0 {MAX_SECONDS} 4294967295\n9 {} 0 -1 4\n",
            i64::MAX
        );
        let log = parse_swf("x", &edge).unwrap();
        assert_eq!(
            (log.jobs.len(), log.skipped_jobs, log.procs),
            (1, 1, u32::MAX)
        );
        assert_eq!(log.jobs[0].end(), Time::seconds(2 * MAX_SECONDS));
    }

    #[test]
    fn a_job_wider_than_the_machine_is_skipped_and_counted() {
        let text = "1 0 0 100 8\n2 5 0 100 9\n; MaxProcs: 8\n3 9 0 100 64\n";
        let log = parse_swf("x", text).unwrap();
        assert_eq!(log.procs, 8);
        assert_eq!(log.skipped_jobs, 2);
        assert_eq!(log.jobs.iter().map(|j| j.id).collect::<Vec<_>>(), [1]);
        // Without a header the widest job defines the machine.
        let log = parse_swf("x", "1 0 0 100 8\n2 5 0 100 9\n").unwrap();
        assert_eq!((log.procs, log.skipped_jobs, log.jobs.len()), (9, 0, 2));
    }
}
