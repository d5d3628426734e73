// The seven serve replays `results/golden/serve_replays.json` pins: the four
// CI replays (`.github/workflows/ci.yml`, serve-smoke and quotas lanes) and
// the three serve shapes of the repo benchmark at its test size, as
// (name, log preset, log days, configuration); the log is generated from the
// configuration's seed, as the CLI does.
//
// One expression, `include!`d by `golden_experiments::golden_serve_replays`
// and by serve's `a_replayed_journal_reproduces_every_outcome`, with
// `ServeConfig`, `ServeQuotaConfig`, `LogSpec` and `Dur` in scope: a
// configuration edited here moves both. Cargo builds no test target from a
// subdirectory without a `main.rs`.
{
    let base = ServeConfig::default();
    let quota = |users| {
        Some(ServeQuotaConfig {
            users,
            max_concurrent_cores: 300,
            max_core_seconds: 0,
        })
    };
    [
        (
            "ci_soak",
            LogSpec::ctc_sp2(),
            3,
            ServeConfig {
                max_apps: 150,
                ..base
            },
        ),
        (
            "ci_deadline_heavy",
            LogSpec::sdsc_blue(),
            2,
            ServeConfig {
                max_apps: 100,
                deadline_every: 2,
                seed: 7,
                ..base
            },
        ),
        (
            "ci_full_roster",
            LogSpec::ctc_sp2(),
            3,
            ServeConfig {
                max_apps: 150,
                deadline_every: 1,
                probe_fanout: 4,
                ..base
            },
        ),
        (
            "ci_quota",
            LogSpec::ctc_sp2(),
            3,
            ServeConfig {
                max_apps: 150,
                quota: quota(2),
                ..base
            },
        ),
        (
            "bench_saturated",
            LogSpec::ctc_sp2(),
            5,
            ServeConfig {
                max_apps: 120,
                seed: 1,
                ..base
            },
        ),
        (
            "bench_admit",
            LogSpec::ctc_sp2(),
            11,
            ServeConfig {
                accel: 1.0,
                max_apps: 120,
                seed: 2,
                ..base
            },
        ),
        (
            "bench_deadline",
            LogSpec::ctc_sp2(),
            2,
            ServeConfig {
                accel: 1.0,
                max_apps: 100,
                deadline_every: 1,
                admit_horizon: Dur::hours(3),
                probe_fanout: 2,
                quota: quota(8),
                seed: 3,
                ..base
            },
        ),
    ]
}
