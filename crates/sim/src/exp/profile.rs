//! Phase profiles: per-algorithm span timings and probe counters collected
//! through `resched_core::obs` over a shared scenario batch.
//!
//! This is the experiment-harness face of the observability layer. Each
//! catalog algorithm is run over the batch inside an
//! [`resched_core::obs::observe`] scope; the resulting [`RunReport`]s are
//! folded per algorithm and rendered as two tables — the *phase table*
//! (self-time, calls, % of wall clock per span) and the *probe table*
//! (calendar slot queries and steps summed from each run's answer, the
//! per-query step quantiles, CPA mapping queries and allocation
//! iterations) — plus a JSONL trace file (`results/trace.jsonl`, one
//! report per line).
//!
//! Everything here compiles in every build; without the `obs` feature
//! (that is, in every shipped build) the reports come back empty, and
//! `run_experiments` prints a note instead of empty tables.

use crate::exp::stream::{run_stream, StreamConfig, StreamResult};
use crate::scenario::{default_sweep, derive_seed, instances_for, LogCache, ResvSpec, Scale};
use crate::table::{fnum, Table};
use resched_core::algos::{Algorithm, RunError};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::obs::{self, names, RunReport};
use resched_core::prelude::Time;
use resched_core::schedule::ScheduleStats;
use serde::{Deserialize, Serialize};

/// Folded observability report for one catalog algorithm over the batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoProfile {
    /// Canonical algorithm name.
    pub algorithm: String,
    /// Spans and metrics folded over every instance the algorithm ran on.
    pub report: RunReport,
    /// The work counted by every answer, met deadline or not, summed.
    pub stats: ScheduleStats,
}

/// Run every catalog algorithm over the default sweep's Grid'5000-like
/// batch, collecting one folded [`RunReport`] per algorithm.
///
/// Deadlines for the `DL_*` rows are precomputed *outside* any observe
/// scope so the reference forward runs do not pollute the profiles. Runs
/// are sequential (the ambient collector is thread-local by design).
pub fn run_phase_profiles(scale: Scale, seed: u64) -> Vec<AlgoProfile> {
    let spec = ResvSpec::grid5000();
    let mut cache = LogCache::new();
    let log = cache.get(&spec.log, seed).clone();
    let instances = instances_for(
        &default_sweep(),
        &spec,
        &log,
        scale,
        derive_seed(seed, "profile", 0),
    );
    // Reference deadlines, computed before any observation starts.
    let deadlines: Vec<Option<Time>> = instances
        .iter()
        .map(|inst| {
            let cal = inst.resv.calendar();
            let fwd = schedule_forward(
                &inst.dag,
                &cal,
                Time::ZERO,
                inst.resv.q,
                ForwardConfig::recommended(),
            );
            Some(Time::ZERO + fwd.turnaround() * 2)
        })
        .collect();

    Algorithm::catalog()
        .iter()
        .map(|algo| {
            let name = algo.name();
            let mut folded = RunReport {
                label: name.clone(),
                ..RunReport::default()
            };
            let mut stats = ScheduleStats::default();
            for (inst, &deadline) in instances.iter().zip(&deadlines) {
                let cal = inst.resv.calendar();
                let (outcome, report) = obs::observe(&name, || {
                    algo.run(&inst.dag, &cal, Time::ZERO, inst.resv.q, deadline)
                });
                folded.absorb(&report);
                match outcome {
                    Ok(s) => stats.absorb(s.stats),
                    Err(RunError::Infeasible(e)) => stats.absorb(e.stats),
                    Err(RunError::DeadlineRequired) => {}
                }
            }
            AlgoProfile {
                algorithm: name,
                report: folded,
                stats,
            }
        })
        .collect()
}

/// Render the per-run span timings: one row per (report label, span),
/// with self-time as a percentage of the report's observed wall clock.
pub fn phase_table<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Table {
    let mut t = Table::new(
        "Phase profile - span timings per algorithm (obs)",
        &[
            "Algorithm",
            "Span",
            "Calls",
            "Total [ms]",
            "Self [ms]",
            "% wall",
        ],
    );
    for report in reports {
        let wall = report.profile.wall_ns.max(1) as f64;
        for s in &report.profile.spans {
            t.row(vec![
                report.label.clone(),
                s.name.clone(),
                s.calls.to_string(),
                fnum(s.total_ns as f64 / 1e6, 3),
                fnum(s.self_ns as f64 / 1e6, 3),
                fnum(s.self_ns as f64 / wall * 100.0, 1),
            ]);
        }
    }
    t
}

/// Render the calendar-probe counters: slot queries and steps from the
/// summed answers, per-query step quantiles from the `calendar.fit.steps`
/// histogram, CPA mapping-phase queries and allocation-loop iterations.
pub fn probe_table(profiles: &[AlgoProfile]) -> Table {
    let mut t = Table::new(
        "Probe counters - calendar fit queries per algorithm (obs)",
        &[
            "Algorithm",
            "Slot queries",
            "Slot steps",
            "Steps p50",
            "Steps p95",
            "Map queries",
            "CPA iters",
        ],
    );
    let q = |h: Option<&obs::Histogram>, at: f64| {
        h.and_then(|h| h.quantile(at))
            .map_or_else(|| "-".into(), |v| v.to_string())
    };
    for p in profiles {
        let m = &p.report.metrics;
        let h = m.histogram(names::FIT_STEPS);
        t.row(vec![
            p.algorithm.clone(),
            p.stats.slot_queries.to_string(),
            p.stats.slot_steps.to_string(),
            q(h, 0.5),
            q(h, 0.95),
            m.counter(names::CPA_MAP_QUERIES).to_string(),
            m.counter(names::CPA_ALLOC_ITERS).to_string(),
        ]);
    }
    t
}

/// Write the folded reports as JSONL (one [`RunReport`] object per line).
pub fn write_trace(path: &std::path::Path, profiles: &[AlgoProfile]) -> std::io::Result<()> {
    let mut out = String::new();
    for p in profiles {
        out.push_str(&serde_json::to_string(&p.report).map_err(std::io::Error::other)?);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Run one stream simulation under observation: the stream's own spans
/// (`stream.schedule`) plus everything the forward scheduler records.
pub fn stream_profile(cfg: &StreamConfig, seed: u64) -> (StreamResult, RunReport) {
    obs::observe("stream", || run_stream(cfg, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resched_core::prelude::Dur;

    fn tiny_scale() -> Scale {
        Scale {
            dags: 1,
            starts: 1,
            tags: 1,
        }
    }

    #[test]
    fn profiles_cover_the_catalog() {
        let profiles = run_phase_profiles(tiny_scale(), 11);
        assert_eq!(profiles.len(), Algorithm::catalog().len());
        for p in &profiles {
            assert_eq!(p.report.label, p.algorithm);
            // Self-times partition the observed wall clock, so their sum
            // can never exceed it.
            let prof = &p.report.profile;
            let self_ns: u64 = prof.spans.iter().map(|s| s.self_ns).sum();
            assert!(
                self_ns <= prof.wall_ns,
                "{}: phase sum {} ns exceeds wall {} ns",
                p.algorithm,
                self_ns,
                prof.wall_ns
            );
        }
        assert!(phase_table(profiles.iter().map(|p| &p.report))
            .render()
            .contains("Span"));
        assert!(probe_table(&profiles).render().contains("Slot queries"));
        // Forward algorithms must show the placement span and real probe
        // counts; deadline algorithms their pass span.
        let fwd = profiles
            .iter()
            .find(|p| p.algorithm == "BL_CPAR_BD_CPAR")
            .expect("catalog contains the recommended algorithm");
        assert!(fwd.report.profile.span("forward.place").is_some());
        assert!(fwd.stats.slot_queries > 0);
        assert!(fwd.report.metrics.counter(names::CPA_ALLOC_ITERS) > 0);
        let dl = profiles
            .iter()
            .find(|p| p.algorithm.starts_with("DL_"))
            .expect("catalog contains deadline algorithms");
        assert!(dl.report.profile.span("deadline.pass").is_some());
    }

    #[test]
    fn trace_is_one_json_object_per_line() {
        let profiles = run_phase_profiles(tiny_scale(), 11);
        let dir = std::env::temp_dir().join("resched_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_trace(&path, &profiles).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), profiles.len());
        for (line, p) in lines.iter().zip(&profiles) {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            let round: RunReport = serde_json::from_value(v).expect("RunReport round-trip");
            assert_eq!(round, p.report);
        }
    }

    #[test]
    fn stream_profile_returns_the_plain_result() {
        let cfg = StreamConfig {
            horizon: Dur::hours(12),
            tasks_per_app: 8,
            ..StreamConfig::default()
        };
        let (res, report) = stream_profile(&cfg, 3);
        assert_eq!(res, run_stream(&cfg, 3));
        assert!(report.profile.span("stream.schedule").is_some());
        assert_eq!(
            report.metrics.counter("stream.apps"),
            res.apps as u64,
            "one stream.apps tick per admitted application"
        );
    }
}
