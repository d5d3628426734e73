//! `resched-serve` rejects flag values outside their domain as usage
//! errors (exit 2, the flag named on stderr) instead of panicking on them
//! or silently running something else.

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
