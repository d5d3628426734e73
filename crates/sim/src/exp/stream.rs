//! Multi-application stream: a closed-loop scenario where the "competing
//! reservations" are themselves mixed-parallel applications scheduled with
//! this library. Applications arrive as a Poisson process; each is
//! submitted to an online admission server ([`resched_serve::Server`]),
//! which schedules it with `BL_CPAR_BD_CPAR` against the live calendar, and
//! its reservations persist for everyone after it.
//!
//! This goes beyond the paper (whose competition is replayed from logs) and
//! measures how the recommended algorithm behaves as the offered load
//! grows: per-application turn-around, achieved utilization, and the
//! evolution of the availability estimate `q`.

use crate::scenario::derive_seed;
use crate::table::{fnum, Measured};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::prelude::*;
use resched_daggen::DagParams;
use resched_serve::{Outcome, ServeConfig, Server, Step};
use serde::{Deserialize, Serialize};

/// Configuration of a stream simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Platform size.
    pub procs: u32,
    /// Simulated submission horizon.
    pub horizon: Dur,
    /// Mean inter-arrival time between applications.
    pub mean_interarrival: Dur,
    /// Tasks per application.
    pub tasks_per_app: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            procs: 256,
            horizon: Dur::days(2),
            mean_interarrival: Dur::hours(2),
            tasks_per_app: 25,
        }
    }
}

/// Aggregate result of one stream simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamResult {
    /// Applications admitted.
    pub apps: usize,
    /// Mean per-application turn-around in hours.
    pub avg_turnaround_h: f64,
    /// 95th percentile turn-around in hours, by nearest rank over whole
    /// seconds ([`resched_serve::percentile`]).
    pub p95_turnaround_h: f64,
    /// Calendar utilization over the submission horizon.
    pub utilization: f64,
    /// Mean availability estimate `q` (as a fraction of `p`) seen by
    /// arriving applications.
    pub avg_q_fraction: f64,
}

/// Run one stream simulation.
pub fn run_stream(cfg: &StreamConfig, seed: u64) -> StreamResult {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let window = Dur::days(1);
    // Admission is the online server's, pared down to what the experiment
    // is about: every arrival scheduled forward, no quota, no periodic
    // audit, and a horizon no turn-around reaches — so nothing is rejected
    // and the calendar is the sum of everything that arrived.
    let mut server = Server::new(
        cfg.procs,
        &ServeConfig {
            deadline_every: 0,
            audit_every: 0,
            quota: None,
            admit_horizon: Dur::days(365_000),
            q_window: window,
            ..ServeConfig::default()
        },
    );
    let params = DagParams {
        num_tasks: cfg.tasks_per_app,
        ..DagParams::paper_default()
    };
    let mut turnaround_s: Vec<u64> = Vec::new();
    let mut q_fracs = Vec::new();
    let mut now = Time::ZERO;
    let horizon = Time::ZERO + cfg.horizon;
    let mut app_id = 0u32;
    while now < horizon {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        now += Dur::from_secs_f64_ceil(-u.ln() * cfg.mean_interarrival.as_seconds() as f64);
        if now >= horizon {
            break;
        }
        app_id += 1;
        let dag = resched_daggen::generate(&params, derive_seed(seed, "stream", u64::from(app_id)));
        // The availability estimate the server is about to schedule with:
        // the paper's q, over the same window of the recent past.
        let q = server.calendar().average_available(now - window, now);
        q_fracs.push(q as f64 / cfg.procs as f64);
        resched_core::obs::counter_add(resched_core::obs::names::STREAM_APPS, 1);
        let outcome = {
            resched_core::span!(resched_core::obs::names::SPAN_STREAM_SCHEDULE);
            server.apply(&Step::Submit { now, app_id, dag })
        };
        match outcome {
            Outcome::Admitted { completion, .. } => {
                turnaround_s.push((completion - now).as_seconds().max(0) as u64);
            }
            // Under this configuration only a scheduler or calendar bug
            // rejects an arrival.
            other => panic!("stream application {app_id} not admitted: {other:?}"),
        }
    }
    turnaround_s.sort_unstable();
    let turnarounds: Vec<f64> = turnaround_s.iter().map(|&s| s as f64 / 3600.0).collect();
    StreamResult {
        apps: turnaround_s.len(),
        avg_turnaround_h: crate::metrics::mean(&turnarounds),
        p95_turnaround_h: resched_serve::percentile(&turnaround_s, 0.95) / 3600.0,
        utilization: server.calendar().average_utilization(Time::ZERO, horizon),
        avg_q_fraction: crate::metrics::mean(&q_fracs),
    }
}

/// [`run_stream`] of `cfg` at each mean interarrival time, one row each.
pub(crate) fn stream_sweep(cfg: &StreamConfig, interarrivals_h: &[f64], seed: u64) -> Measured {
    let point = |&interarrival_h: &f64| {
        let cfg = StreamConfig {
            mean_interarrival: Dur::seconds((interarrival_h * 3600.0) as i64),
            ..*cfg
        };
        let r = run_stream(&cfg, seed);
        let (utilization, q) = (r.utilization * 100.0, r.avg_q_fraction * 100.0);
        let values = vec![
            r.apps as f64,
            r.avg_turnaround_h,
            r.p95_turnaround_h,
            utilization,
            q,
        ];
        (fnum(interarrival_h, 1), values)
    };
    Measured::new(
        "Extension - multi-application stream (BL_CPAR_BD_CPAR, closed loop)",
        &[
            "Mean interarrival [h]",
            "Apps",
            "Avg TAT [h]",
            "p95 TAT [h]",
            "Utilization [%]",
            "Avg q/p [%]",
        ],
        &[0, 2, 2, 1, 1],
        interarrivals_h.iter().map(point),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_runs_and_load_raises_turnaround() {
        let base = StreamConfig {
            horizon: Dur::hours(24),
            tasks_per_app: 10,
            ..StreamConfig::default()
        };
        let light = run_stream(
            &StreamConfig {
                mean_interarrival: Dur::hours(6),
                ..base
            },
            7,
        );
        let heavy = run_stream(
            &StreamConfig {
                mean_interarrival: Dur::minutes(30),
                ..base
            },
            7,
        );
        assert!(light.apps > 0 && heavy.apps > light.apps);
        assert!(heavy.utilization > light.utilization);
        assert!(
            heavy.avg_turnaround_h >= light.avg_turnaround_h,
            "more load should not reduce turn-around: {} vs {}",
            heavy.avg_turnaround_h,
            light.avg_turnaround_h
        );
        // q estimates react to the load.
        assert!(heavy.avg_q_fraction <= light.avg_q_fraction);
    }

    #[test]
    fn table_renders() {
        let cfg = StreamConfig {
            horizon: Dur::hours(12),
            tasks_per_app: 8,
            ..StreamConfig::default()
        };
        let t = stream_sweep(&cfg, &[4.0], 3).table();
        assert!(t.render().contains("Avg TAT"));
    }
}
