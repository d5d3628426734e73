//! `resched-serve` rejects flag values outside their domain as usage
//! errors (exit 2, the flag named on stderr), and SWF files it cannot
//! represent as parse errors (exit 2, the line named on stderr), instead
//! of panicking on them or silently running something else.

use std::process::Command;

#[test]
fn out_of_domain_flag_values_are_usage_errors() {
    for (flag, value) in [
        ("--accel", "0"),
        ("--accel", "-1"),
        ("--accel", "nan"),
        ("--accel", "inf"),
        ("--probe-fanout", "0"),
        ("--probe-fanout", "99"),
        // `hours * 3600` used to wrap (or panic under overflow checks) and a
        // horizon at or below zero to reject every arrival on an empty
        // machine; the bound is the SWF parser's own on instants.
        ("--admit-hours", "9999999999999999"),
        ("--admit-hours", "305419897"),
        ("--admit-hours", "0"),
        ("--admit-hours", "-3"),
        // `days * 86_400` wrapped negative (a panic in the log generator),
        // wrapped positive (a log that never ends), and 0 or below ran as 1.
        ("--days", "200000000000000"),
        ("--days", "99999999999999999"),
        ("--days", "12725830"),
        ("--days", "0"),
        ("--days", "-2"),
        // Any `usize` used to be taken: a huge value built its owners and
        // rules before the first arrival, and 0 ran as 1.
        ("--quota-users", "0"),
        ("--quota-users", "4097"),
        ("--quota-users", "18446744073709551615"),
        // Any `usize` used to be taken: a huge value made every arrival
        // generate a DAG that size, and 0 ran as 1.
        ("--tasks", "0"),
        ("--tasks", "1001"),
        ("--tasks", "18446744073709551615"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
            .args(["--apps", "5", flag, value])
            .output()
            .expect("resched-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("bad or missing value for {flag}")),
            "{flag} {value}: {stderr}"
        );
    }
}

#[test]
fn the_widest_admission_horizon_is_accepted() {
    // `swf::MAX_SECONDS / 3600`, the last value inside the bound.
    let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
        .args(["--apps", "5", "--admit-hours", "305419896"])
        .output()
        .expect("resched-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn the_largest_applications_are_accepted() {
    // `MAX_TASKS`, the last value inside the bound.
    let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
        .args(["--apps", "1", "--tasks", "1000"])
        .output()
        .expect("resched-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn the_most_quota_users_are_accepted() {
    // `MAX_QUOTA_USERS`, the last value inside the bound.
    let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
        .args([
            "--apps",
            "5",
            "--quota-users",
            "4096",
            "--quota-cores",
            "300",
        ])
        .output()
        .expect("resched-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// An SWF file the replay cannot represent is refused at the door: exit 2
/// with the parser's typed message naming the line — not a panic (exit
/// 101) somewhere inside the replay, and not a silently narrowed number.
#[test]
fn unrepresentable_swf_files_are_parse_errors() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, text, message) in [
        (
            "zero_procs.swf",
            "; MaxProcs: 0\n1 0 0 100 4\n",
            "line 1: MaxProcs is not a positive processor count",
        ),
        (
            "far_future.swf",
            "1 0 0 100 4\n2 9223372036854775000 0 100 4\n",
            "line 2: field 2 is out of range",
        ),
        (
            "wide_id.swf",
            "; MaxProcs: 8\n4294967297 0 0 100 4\n",
            "line 2: field 1 is out of range",
        ),
        (
            "wide_procs.swf",
            "1 0 0 100 4294967297\n",
            "line 1: field 5 is out of range",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("scratch file");
        let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
            .args(["--apps", "5", "--swf"])
            .arg(&path)
            .output()
            .expect("resched-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
    }
}

/// Both binaries take their presets from `LogSpec::preset`; an unknown
/// name is a usage error listing the five.
#[test]
fn an_unknown_preset_is_a_usage_error_naming_the_presets() {
    let out = Command::new(env!("CARGO_BIN_EXE_resched-serve"))
        .args(["--apps", "5", "--preset", "bogus"])
        .output()
        .expect("resched-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(
            "unknown preset bogus (expected one of ctc_sp2, osc_cluster, sdsc_blue, sdsc_ds, \
             grid5000)"
        ),
        "{stderr}"
    );
}
