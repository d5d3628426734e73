//! Serde round-trip tests for every public serializable type: artifacts
//! written by the CLI and the experiment binaries must re-load losslessly.

use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_daggen::{generate, DagParams};
use resched_workloads::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn time_and_dur() {
    let t = Time::seconds(-12345);
    let d = Dur::hours(7);
    assert_eq!(roundtrip(&t), t);
    assert_eq!(roundtrip(&d), d);
}

#[test]
fn reservation_and_calendar() {
    let mut cal = Calendar::new(16);
    cal.try_add(Reservation::new(Time::seconds(5), Time::seconds(50), 7))
        .unwrap();
    cal.try_add(Reservation::new(Time::seconds(20), Time::seconds(90), 9))
        .unwrap();
    let back = roundtrip(&cal);
    assert_eq!(back, cal);
    assert_eq!(back.used_at(Time::seconds(25)), 16);
}

#[test]
fn dag_roundtrip_preserves_everything() {
    let dag = generate(&DagParams::paper_default(), 99);
    let back = roundtrip(&dag);
    assert_eq!(back, dag);
    assert_eq!(back.topo_order(), dag.topo_order());
    assert_eq!(back.num_edges(), dag.num_edges());
}

#[test]
fn schedule_roundtrip() {
    let dag = generate(
        &DagParams {
            num_tasks: 12,
            ..DagParams::paper_default()
        },
        3,
    );
    let cal = Calendar::new(32);
    let s = schedule_forward(&dag, &cal, Time::ZERO, 32, ForwardConfig::recommended());
    let back: Schedule = roundtrip(&s);
    assert_eq!(back, s);
    assert_eq!(back.turnaround(), s.turnaround());
    ScheduleValidator::new(&dag, &cal, Time::ZERO)
        .check(&back)
        .unwrap();
}

#[test]
fn job_log_and_reservation_schedule() {
    let log = generate_log(&LogSpec::sdsc_ds().with_duration(Dur::days(6)), 4);
    let back: JobLog = roundtrip(&log);
    assert_eq!(back, log);

    let t = sample_start_times(&log, 1, 5)[0];
    let rs = extract(&log, t, &ExtractSpec::new(0.4, ThinMethod::Linear), 6);
    let back = roundtrip(&rs);
    assert_eq!(back, rs);
    // And the rebuilt calendar still accepts them all.
    let _ = back.calendar();
}

#[test]
fn config_types() {
    let f = ForwardConfig::recommended();
    assert_eq!(roundtrip(&f), f);
    let d = DeadlineConfig::default();
    assert_eq!(roundtrip(&d), d);
    let p = DagParams::paper_default();
    assert_eq!(roundtrip(&p), p);
    let spec = LogSpec::grid5000();
    assert_eq!(roundtrip(&spec), spec);
}

#[test]
fn deadline_algo_names_stable_in_json() {
    for algo in DeadlineAlgo::ALL {
        let json = serde_json::to_string(&algo).unwrap();
        let back: DeadlineAlgo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, algo);
    }
}
