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
//! instants, in hours and in days), `--tasks` 1 to 1000 (ten times the
//! paper's largest Table 1 application; every arrival generates a DAG of
//! that size), `--quota-users` 1 to 4096 (each user is two owners and up
//! to two quota rules, all built before the first arrival, and every
//! ledger audit reads every rule); anything else is a usage error.
//!
//! `--assert-clean` exits nonzero unless the run had zero calendar-audit
//! violations and exercised both the commit and the rollback path — and,
//! when quotas are configured, at least one quota denial — the contract
//! the CI serve-smoke and quotas lanes enforce.

use resched_serve::{run, summarize, ServeConfig, ServeQuotaConfig, PROBE_ROSTER};
use resched_workloads::prelude::*;
use std::process::ExitCode;

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

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    parse_if(flag, v, |_| true)
}

/// [`parse`], with a value outside the flag's domain rejected the same way.
fn parse_if<T: std::str::FromStr>(flag: &str, v: Option<String>, ok: impl Fn(&T) -> bool) -> T {
    v.and_then(|s| s.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| {
            eprintln!("bad or missing value for {flag}");
            usage()
        })
}

fn main() -> ExitCode {
    let mut preset = "ctc_sp2".to_string();
    let mut swf: Option<String> = None;
    let mut days: i64 = 3;
    let mut cfg = ServeConfig::default();
    let mut quota = ServeQuotaConfig {
        users: 4,
        max_concurrent_cores: 0,
        max_core_seconds: 0,
    };
    let mut quota_requested = false;
    let mut json = false;
    let mut assert_clean = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset = parse("--preset", args.next()),
            "--swf" => swf = Some(parse("--swf", args.next())),
            "--days" => {
                // `days * 86_400` wraps on a large value (negative: a panic
                // in the generator; positive: a log that never ends); same
                // bound as `--admit-hours`.
                let range = 1..=resched_workloads::swf::MAX_SECONDS / 86_400;
                days = parse_if(&format!("--days (expected {range:?})"), args.next(), |d| {
                    range.contains(d)
                });
            }
            "--apps" => cfg.max_apps = parse("--apps", args.next()),
            "--accel" => {
                cfg.accel = parse_if("--accel", args.next(), |x: &f64| x.is_finite() && *x > 0.0)
            }
            "--tasks" => {
                // 0 used to run as 1 (`tasks_per_app.max(1)`).
                let tasks = 1..=MAX_TASKS;
                cfg.tasks_per_app =
                    parse_if(&format!("--tasks (expected {tasks:?})"), args.next(), |n| {
                        tasks.contains(n)
                    });
            }
            "--seed" => cfg.seed = parse("--seed", args.next()),
            "--cancel-every" => cfg.cancel_every = parse("--cancel-every", args.next()),
            "--resize-every" => cfg.resize_every = parse("--resize-every", args.next()),
            "--deadline-every" => cfg.deadline_every = parse("--deadline-every", args.next()),
            "--admit-hours" => {
                // The horizon is added to arrival instants the SWF parser
                // bounds by `MAX_SECONDS`; the same bound keeps the sum (and
                // `hours * 3600` itself) far inside an `i64`.
                let hours = 1..=resched_workloads::swf::MAX_SECONDS / 3600;
                cfg.admit_horizon = Dur::hours(parse_if(
                    &format!("--admit-hours (expected {hours:?})"),
                    args.next(),
                    |h| hours.contains(h),
                ));
            }
            "--probe-fanout" => {
                let roster = 1..=PROBE_ROSTER.len();
                cfg.probe_fanout = parse_if(
                    &format!("--probe-fanout (expected {roster:?})"),
                    args.next(),
                    |n| roster.contains(n),
                );
            }
            "--quota-users" => {
                let users = 1..=MAX_QUOTA_USERS;
                quota.users = parse_if(
                    &format!("--quota-users (expected {users:?})"),
                    args.next(),
                    |n| users.contains(n),
                );
                quota_requested = true;
            }
            "--quota-cores" => {
                quota.max_concurrent_cores = parse("--quota-cores", args.next());
                quota_requested = true;
            }
            "--quota-core-seconds" => {
                quota.max_core_seconds = parse("--quota-core-seconds", args.next());
                quota_requested = true;
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

    if quota_requested {
        cfg.quota = Some(quota);
    }

    let log = match swf {
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_swf(&path, &text) {
                Ok(log) => log,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => {
            let Some(spec) = LogSpec::preset(&preset) else {
                eprintln!(
                    "unknown preset {preset} (expected one of {})",
                    LogSpec::PRESETS.join(", ")
                );
                return ExitCode::from(2);
            };
            generate_log(&spec.with_duration(Dur::days(days)), cfg.seed)
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

    if assert_clean {
        if report.violations > 0 {
            eprintln!(
                "ASSERT-CLEAN FAILED: {} violations ({:?})",
                report.violations, report.first_violation
            );
            return ExitCode::FAILURE;
        }
        if report.commits == 0 || report.rollbacks == 0 {
            eprintln!(
                "ASSERT-CLEAN FAILED: commit/rollback path not exercised \
                 (commits {}, rollbacks {})",
                report.commits, report.rollbacks
            );
            return ExitCode::FAILURE;
        }
        if cfg.quota.is_some() && report.quota_denied == 0 {
            eprintln!("ASSERT-CLEAN FAILED: quotas configured but no denial observed");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
