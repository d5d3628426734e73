//! `resched` refuses JSON inputs the schedulers cannot take: exit 1 with
//! the file and the field named on stderr, instead of a panic (exit 101)
//! inside the calendar or the Amdahl evaluation, and instead of scheduling
//! an impossible task cost or a graph that is not a DAG silently.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A one-task DAG whose task costs `cost` (a `TaskCost` JSON object).
fn one_task_dag(cost: &str) -> String {
    format!(
        r#"{{"costs":[{cost}],"preds":[[]],"succs":[[]],"topo":[0],"depth":[0],"entries":[0],"exits":[0],"num_edges":0}}"#
    )
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch file");
    path
}

/// A two-task DAG of one-hour tasks with the given adjacency lists.
fn two_task_dag(preds: &str, succs: &str) -> String {
    let cost = r#"{"seq":3600,"alpha":0.1,"overhead":0}"#;
    format!(
        r#"{{"costs":[{cost},{cost}],"preds":{preds},"succs":{succs},"topo":[0,1],"depth":[0,1],"entries":[0],"exits":[1],"num_edges":1}}"#
    )
}

/// `resched schedule` on the two files: its exit code and stderr.
fn schedule(dag: &Path, resv: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_resched"))
        .arg("schedule")
        .arg("--dag")
        .arg(dag)
        .arg("--resv")
        .arg(resv)
        .output()
        .expect("resched runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unschedulable_inputs_exit_1_naming_the_file_and_the_field() {
    let good_dag = write(
        "cli_good_dag.json",
        &one_task_dag(r#"{"seq":3600,"alpha":0.1,"overhead":0}"#),
    );
    let good_resv = write(
        "cli_good_resv.json",
        r#"{"procs":4,"reservations":[{"start":0,"end":100,"procs":4}],"q":4}"#,
    );
    let (code, stderr) = schedule(&good_dag, &good_resv);
    assert_eq!(code, Some(0), "the valid pair schedules: {stderr}");

    let cases = [
        (
            "cli_zero_procs.json",
            false,
            r#"{"procs":0,"reservations":[],"q":0}"#.to_string(),
            "procs must be positive",
        ),
        (
            "cli_conflict.json",
            false,
            r#"{"procs":4,"reservations":[{"start":0,"end":100,"procs":4},{"start":50,"end":150,"procs":4}],"q":4}"#
                .to_string(),
            "reservations[1]: ",
        ),
        (
            "cli_inverted_resv.json",
            false,
            r#"{"procs":4,"reservations":[{"start":100,"end":50,"procs":4}],"q":4}"#.to_string(),
            "reservations[0]: empty interval",
        ),
        (
            "cli_zero_procs_resv.json",
            false,
            r#"{"procs":4,"reservations":[{"start":0,"end":500,"procs":0}],"q":4}"#.to_string(),
            "reservations[0]: reservation for zero processors",
        ),
        (
            "cli_negative_seq.json",
            true,
            one_task_dag(r#"{"seq":-5,"alpha":0.1,"overhead":0}"#),
            "task 0: seq (sequential time) must be positive: ",
        ),
        (
            "cli_alpha.json",
            true,
            one_task_dag(r#"{"seq":3600,"alpha":3.5,"overhead":0}"#),
            "task 0: alpha must be within [0, 1]: 3.5",
        ),
        (
            "cli_cycle.json",
            true,
            two_task_dag("[[1],[0]]", "[[1],[0]]"),
            "invalid Dag: precedence edges contain a cycle",
        ),
        (
            "cli_succ_out_of_range.json",
            true,
            two_task_dag("[[],[0]]", "[[1,5],[]]"),
            "invalid Dag: edge (0 -> 5) out of range",
        ),
        (
            "cli_preds_mismatch.json",
            true,
            two_task_dag("[[],[]]", "[[1],[]]"),
            "invalid Dag: preds of t1 are not the transpose of succs",
        ),
    ];
    for (name, is_dag, text, field) in cases {
        let bad = write(name, &text);
        let (code, stderr) = if is_dag {
            schedule(&bad, &good_resv)
        } else {
            schedule(&good_dag, &bad)
        };
        assert_eq!(code, Some(1), "{name}: {stderr}");
        let named = format!("{}: ", bad.display());
        assert!(
            stderr.contains(&named) && stderr.contains(field),
            "{name}: {stderr}"
        );
    }
}

/// `resched extract --log` holds a JSON job log to `JobLog::check`, so a
/// machine of no processors is refused instead of panicking inside the
/// calendar (exit 101), and a job wider than the machine instead of being
/// extracted as a reservation set that overbooks it.
#[test]
fn hostile_job_logs_exit_1_naming_the_file_and_the_job() {
    let extract = |log: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_resched"))
            .arg("extract")
            .arg("--log")
            .arg(log)
            .args(["--at", "0", "--phi", "1.0", "--method", "real"])
            .output()
            .expect("resched runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let job = |id: u32, procs: u32| {
        format!(r#"{{"id":{id},"submit":0,"start":0,"runtime":3600,"procs":{procs}}}"#)
    };
    let good = write(
        "cli_good_log.json",
        &format!(r#"{{"name":"x","procs":8,"jobs":[{}]}}"#, job(1, 8)),
    );
    let (code, stderr) = extract(&good);
    assert_eq!(code, Some(0), "the valid log extracts: {stderr}");
    let cases = [
        (
            "cli_log_no_procs.json",
            format!(r#"{{"name":"x","procs":0,"jobs":[{}]}}"#, job(1, 1)),
            "procs (the machine size) must be positive",
        ),
        (
            "cli_log_too_wide.json",
            format!(
                r#"{{"name":"x","procs":8,"jobs":[{},{}]}}"#,
                job(1, 2),
                job(9, 40)
            ),
            "job 9: procs outside 1..=the machine size",
        ),
    ];
    for (name, text, reason) in cases {
        let bad = write(name, &text);
        let (code, stderr) = extract(&bad);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        let named = format!("{}: {reason}", bad.display());
        assert!(stderr.contains(&named), "{name}: {stderr}");
    }
}

/// A DAG `resched generate-dag` writes is one `resched schedule --dag`
/// reads back and schedules.
#[test]
fn generated_dag_round_trips_through_schedule() {
    let out = Command::new(env!("CARGO_BIN_EXE_resched"))
        .args([
            "generate-dag",
            "--tasks",
            "30",
            "--jump",
            "3",
            "--seed",
            "7",
        ])
        .output()
        .expect("resched runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 JSON");
    let dag: resched_core::dag::Dag = serde_json::from_str(&text).expect("a valid Dag");
    assert_eq!(dag.num_tasks(), 30);
    assert_eq!(serde_json::to_string_pretty(&dag).unwrap(), text.trim_end());
    let dag_path = write("cli_generated_dag.json", &text);
    let resv = write(
        "cli_generated_resv.json",
        r#"{"procs":16,"reservations":[{"start":0,"end":7200,"procs":8}],"q":8}"#,
    );
    let (code, stderr) = schedule(&dag_path, &resv);
    assert_eq!(code, Some(0), "{stderr}");
}
