//! `resched-serve` — replay an SWF workload through the online serving
//! loop and report throughput and scheduling-latency percentiles.
//!
//! ```text
//! resched-serve [--preset NAME | --swf FILE] [--days N] [--apps N]
//!               [--accel X] [--tasks N] [--seed N]
//!               [--cancel-every N] [--resize-every N] [--deadline-every N]
//!               [--admit-hours N] [--probe-fanout N]
//!               [--quota-users N] [--quota-cores N] [--quota-core-seconds N]
//!               [--json] [--assert-clean]
//! ```
//!
//! The `--quota-*` flags install per-user admission quotas: arrivals are
//! attributed to `--quota-users` synthetic users, each capped at
//! `--quota-cores` peak concurrent cores and/or `--quota-core-seconds`
//! total reservation area (0 = unlimited on that axis).
//!
//! `--probe-fanout` takes 1 to `PROBE_ROSTER.len()` (4), `--accel` a finite
//! factor above 0, `--admit-hours` 1 to `swf::MAX_SECONDS / 3600` and
//! `--days` 1 to `swf::MAX_SECONDS / 86_400` (the parser's bound on
//! instants, in hours and in days), `--tasks` 1 to `MAX_TASKS` (1000) and
//! `--quota-users` 1 to `MAX_QUOTA_USERS` (4096); anything else is a usage
//! error.
//!
//! `--assert-clean` exits nonzero on what [`unclean`] finds: the contract
//! the CI serve-smoke and quotas lanes enforce.

use resched_serve::{run, summarize, ServeConfig, ServeQuotaConfig, ServeReport, PROBE_ROSTER};
use resched_workloads::prelude::*;
use resched_workloads::swf::MAX_SECONDS;
use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

/// The most tasks `--tasks` takes: ten times the largest application of
/// the paper's Table 1 (100 tasks). Every arrival generates and schedules a
/// DAG of this size, so an unbounded value allocates without bound.
const MAX_TASKS: usize = 1000;

/// The most synthetic users `--quota-users` takes. Each user is two
/// owners and up to two rules, all built before the first arrival, and
/// every ledger audit reads every rule; 4096 users (8 192 rules) is 512
/// times the 8 of the benchmark's `serve_deadline`.
const MAX_QUOTA_USERS: usize = 4096;

fn usage() -> ! {
    eprintln!(
        "usage: resched-serve [--preset {}] [--swf FILE] [--days N] [--apps N] \
         [--accel X] [--tasks N] [--seed N] [--cancel-every N] [--resize-every N] \
         [--deadline-every N] [--admit-hours N] [--probe-fanout N] \
         [--quota-users N] [--quota-cores N] [--quota-core-seconds N] [--json] \
         [--assert-clean]",
        LogSpec::PRESETS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: FromStr>(flag: &str, v: Option<String>) -> T {
    parse_if(flag, v, |_| true)
}

/// [`parse`], with a value outside the flag's domain rejected the same way.
fn parse_if<T: FromStr>(flag: &str, v: Option<String>, ok: impl Fn(&T) -> bool) -> T {
    v.and_then(|s| s.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| {
            eprintln!("bad or missing value for {flag}");
            usage()
        })
}

/// [`parse_if`] held to `range`, which the error names.
fn parse_in<T: FromStr + PartialOrd + Debug>(
    flag: &str,
    v: Option<String>,
    range: RangeInclusive<T>,
) -> T {
    parse_if(&format!("{flag} (expected {range:?})"), v, |x| {
        range.contains(x)
    })
}

/// Why a report fails `--assert-clean`, if it does: a calendar-audit
/// violation, a commit or a rollback path not exercised, admitted schedules
/// with no scheduler work counted, or quotas configured and never denying.
fn unclean(report: &ServeReport, quotas: bool) -> Option<String> {
    let r = report;
    if r.violations > 0 {
        Some(format!(
            "{} violations ({:?})",
            r.violations, r.first_violation
        ))
    } else if r.commits == 0 || r.rollbacks == 0 {
        let (commits, rollbacks) = (r.commits, r.rollbacks);
        Some(format!(
            "commit/rollback path not exercised (commits {commits}, rollbacks {rollbacks})"
        ))
    } else if r.work.slot_queries == 0 {
        Some("schedules admitted but no scheduler work counted".into())
    } else if quotas && r.quota_denied == 0 {
        Some("quotas configured but no denial observed".into())
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut preset = "ctc_sp2".to_string();
    let mut swf: Option<String> = None;
    let mut days: i64 = 3;
    let mut cfg = ServeConfig::default();
    // What the first `--quota-*` flag installs, before it sets its field.
    let quota = ServeQuotaConfig {
        users: 4,
        max_concurrent_cores: 0,
        max_core_seconds: 0,
    };
    let mut json = false;
    let mut assert_clean = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset = parse("--preset", args.next()),
            "--swf" => swf = Some(parse("--swf", args.next())),
            // `days * 86_400` wraps on a large value (negative: a panic in
            // the generator; positive: a log that never ends); same bound as
            // `--admit-hours`.
            "--days" => days = parse_in("--days", args.next(), 1..=MAX_SECONDS / 86_400),
            "--apps" => cfg.max_apps = parse("--apps", args.next()),
            "--accel" => {
                cfg.accel = parse_if("--accel", args.next(), |x: &f64| x.is_finite() && *x > 0.0)
            }
            // 0 used to run as 1 (`tasks_per_app.max(1)`).
            "--tasks" => cfg.tasks_per_app = parse_in("--tasks", args.next(), 1..=MAX_TASKS),
            "--seed" => cfg.seed = parse("--seed", args.next()),
            "--cancel-every" => cfg.cancel_every = parse("--cancel-every", args.next()),
            "--resize-every" => cfg.resize_every = parse("--resize-every", args.next()),
            "--deadline-every" => cfg.deadline_every = parse("--deadline-every", args.next()),
            "--admit-hours" => {
                // The horizon is added to arrival instants the SWF parser
                // bounds by `MAX_SECONDS`; the same bound keeps the sum (and
                // `hours * 3600` itself) far inside an `i64`.
                let hours = parse_in("--admit-hours", args.next(), 1..=MAX_SECONDS / 3600);
                cfg.admit_horizon = Dur::hours(hours);
            }
            "--probe-fanout" => {
                cfg.probe_fanout = parse_in("--probe-fanout", args.next(), 1..=PROBE_ROSTER.len())
            }
            "--quota-users" => {
                let users = parse_in("--quota-users", args.next(), 1..=MAX_QUOTA_USERS);
                cfg.quota.get_or_insert(quota).users = users;
            }
            "--quota-cores" => {
                let cores = parse("--quota-cores", args.next());
                cfg.quota.get_or_insert(quota).max_concurrent_cores = cores;
            }
            "--quota-core-seconds" => {
                let area = parse("--quota-core-seconds", args.next());
                cfg.quota.get_or_insert(quota).max_core_seconds = area;
            }
            "--json" => json = true,
            "--assert-clean" => assert_clean = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    // An input the run cannot start from exits 2, naming the file or preset.
    let log = match swf {
        Some(path) => std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                parse_swf(&path, &text).map_err(|e| format!("cannot parse {path}: {e}"))
            }),
        None => LogSpec::preset(&preset)
            .map(|spec| generate_log(&spec.with_duration(Dur::days(days)), cfg.seed))
            .ok_or_else(|| {
                format!(
                    "unknown preset {preset} (expected one of {})",
                    LogSpec::PRESETS.join(", ")
                )
            }),
    };
    let log = match log {
        Ok(log) => log,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };

    let report = run(&log, &cfg);
    if json {
        match serde_json::to_string(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        println!(
            "log {} ({} procs, {} jobs)",
            log.name,
            log.procs,
            log.jobs.len()
        );
        println!("{}", summarize(&report));
    }

    match unclean(&report, cfg.quota.is_some()).filter(|_| assert_clean) {
        Some(why) => {
            eprintln!("ASSERT-CLEAN FAILED: {why}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}
