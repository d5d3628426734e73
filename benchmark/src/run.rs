//! The two kinds of run: end to end (untraced, the program's real entry
//! points) and traced (the mirror, layer by layer).

use crate::layers;
use crate::mirror::{self, ServeCounts, Tally};
use crate::trace::Tracer;
use crate::workloads::{batch_spec, sub_seed, Inputs, Kind, Workload};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

/// A run generates its inputs at least this often, and for at least
/// [`SETUP_SECONDS`] (a millisecond-sized set-up is repeated a few hundred
/// times); `setup_s` is the median.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What a reader needs beside the number (sample counts, bases).
    pub note: String,
}

/// What one run of the benchmark found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (arrivals or `Algorithm::run` calls) sent to the program.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every correctness check that did not hold; empty on a correct run.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.to_string(),
        });
    }
}

/// Median of `values` (the mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The deterministic outcome of one unit, compared whenever the same unit
/// runs again and between the program and the mirror.
#[derive(Debug, Clone, PartialEq)]
pub enum Counts {
    Serve(ServeCounts),
    /// `Ok` schedules per Table-9 row.
    Batch(Vec<u64>),
}

impl Counts {
    /// One batch instance's calls, one per Table-9 row.
    fn of_calls(calls: &[mirror::Call]) -> Counts {
        Counts::Batch(calls.iter().map(|c| u64::from(c.stats.is_some())).collect())
    }

    /// Operations the program accepted: commits, or `Ok` schedules.
    fn accepted(&self) -> u64 {
        match self {
            Counts::Serve(c) => c.commits as u64,
            Counts::Batch(feasible) => feasible.iter().sum(),
        }
    }
}

/// How a unit's operation latencies are known.
enum Latency {
    /// The exact p50 and p95 `serve::run` reports for its own stopwatch, us.
    Reported([f64; 2]),
    /// The benchmark's stopwatch around every `Algorithm::run` call, ns.
    Samples(Vec<u64>),
}

/// One unit of a workload, run untraced through the program's entry point:
/// a serve replay, or a batch instance under the ten Table-9 rows.
struct Unit {
    ops: u64,
    /// Seconds the program itself measured (`ServeReport.wall_ms`), or the
    /// summed stopwatches around `Algorithm::run`.
    wall_s: f64,
    latency: Latency,
    counts: Counts,
    failed: u64,
}

impl Unit {
    /// Fold in another run of the same unit: its counts must be the same,
    /// and every time keeps the smaller of the two.
    fn keep_best(&mut self, other: Unit) -> Result<(), String> {
        if other.counts != self.counts {
            return Err(format!(
                "did not repeat its counts: {:?} vs {:?}",
                self.counts, other.counts
            ));
        }
        match (&mut self.latency, other.latency) {
            (Latency::Reported(mine), Latency::Reported(theirs)) => {
                mine.iter_mut().zip(theirs).for_each(|(m, t)| *m = m.min(t));
                self.wall_s = self.wall_s.min(other.wall_s);
            }
            (Latency::Samples(mine), Latency::Samples(theirs)) => {
                mine.iter_mut()
                    .zip(theirs)
                    .for_each(|(m, t)| *m = (*m).min(t));
                self.wall_s = mine.iter().sum::<u64>() as f64 / 1e9;
            }
            _ => unreachable!("a workload has one kind of unit"),
        }
        Ok(())
    }
}

fn run_unit(inputs: &Inputs, i: usize) -> Unit {
    match inputs {
        Inputs::Serve(replays) => {
            let r = layers::serve_run(&replays[i].log, &replays[i].cfg);
            Unit {
                ops: r.apps as u64,
                wall_s: r.wall_ms / 1e3,
                latency: Latency::Reported([r.p50_us, r.p95_us]),
                failed: r.violations.min(r.apps) as u64,
                counts: Counts::Serve(ServeCounts::of(&r)),
            }
        }
        Inputs::Batch { cases, .. } => {
            let rep = mirror::batch_rep(&cases[i..=i], None);
            let ns: Vec<u64> = rep.calls.iter().map(|c| c.ns).collect();
            Unit {
                ops: ns.len() as u64,
                wall_s: ns.iter().sum::<u64>() as f64 / 1e9,
                latency: Latency::Samples(ns),
                failed: rep.failed,
                counts: Counts::of_calls(&rep.calls),
            }
        }
    }
}

/// Checks on what a workload must exercise, beyond "nothing failed".
fn check_coverage<'a>(
    workload: &Workload,
    counts: impl Iterator<Item = &'a Counts>,
    errors: &mut Vec<String>,
) {
    let mut serve = (0, 0, 0);
    let mut rows: Vec<u64> = Vec::new();
    for c in counts {
        match c {
            Counts::Serve(c) => {
                serve.0 += c.commits;
                serve.1 += c.rollbacks;
                serve.2 += c.quota_denied;
            }
            Counts::Batch(feasible) => {
                rows.resize(feasible.len(), 0);
                rows.iter_mut().zip(feasible).for_each(|(r, f)| *r += f);
            }
        }
    }
    if let Kind::Serve { cfg, .. } = &workload.kind {
        if serve.0 == 0 || serve.1 == 0 {
            errors.push(format!(
                "{}: commit and rollback paths must both be exercised",
                workload.name
            ));
        }
        if cfg.quota.is_some() && serve.2 == 0 {
            errors.push(format!("{}: no quota denial exercised", workload.name));
        }
    } else if rows.contains(&0) {
        errors.push(format!(
            "{}: a Table-9 row scheduled nothing: {rows:?}",
            workload.name
        ));
    }
}

/// Generate the inputs repeatedly; returns the last set and every time.
fn timed_setup(workload: &Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let inputs = workload.setup(seed, &mut Tracer::new());
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (inputs, times);
        }
    }
}

/// The end-to-end run: units through the program's real entry points, one
/// after another with no tracing, in passes over all the units until
/// `seconds` have passed (the first pass always completes). A unit's
/// deterministic counts must repeat exactly from pass to pass; its times
/// are the best of its passes, because the host's speed wanders over tens
/// of seconds and only ever adds time. The units are independent inputs,
/// so the medians over them average over inputs as well.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setups) = timed_setup(workload, seed);

    let started = Instant::now();
    let mut units: Vec<Unit> = Vec::with_capacity(inputs.units());
    let mut runs = 0;
    while runs < inputs.units() || started.elapsed().as_secs_f64() < seconds {
        let i = runs % inputs.units();
        let unit = run_unit(&inputs, i);
        runs += 1;
        out.attempted += unit.ops;
        out.failed += unit.failed;
        match units.get_mut(i) {
            None => units.push(unit),
            Some(best) => {
                if let Err(e) = best.keep_best(unit) {
                    out.errors.push(format!("{}: unit {i} {e}", workload.name));
                }
            }
        }
    }
    check_coverage(workload, units.iter().map(|u| &u.counts), &mut out.errors);

    let over = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let n = units.len();
    let note = format!("median of {} set-ups", setups.len());
    out.push("setup_s", median(&setups), "s", &note);
    let note = format!(
        "median of {n} units, each the best of {:.1} passes; {} ops in all",
        runs as f64 / n as f64,
        out.attempted
    );
    out.push(
        "ops_per_s",
        over(&|u| u.ops as f64 / u.wall_s),
        "1/s",
        &note,
    );
    // serve reports exact percentiles per replay: take the median replay.
    // Batch calls are timed here, so their percentiles are exact over all
    // the units' calls.
    let mut samples: Vec<u64> = Vec::new();
    for u in &units {
        if let Latency::Samples(ns) = &u.latency {
            samples.extend(ns);
        }
    }
    samples.sort_unstable();
    for (k, (name, q)) in [("op_p50_us", 0.50), ("op_p95_us", 0.95)]
        .into_iter()
        .enumerate()
    {
        let (value, note) = if samples.is_empty() {
            let of = |u: &Unit| match u.latency {
                Latency::Reported(p) => p[k],
                Latency::Samples(_) => unreachable!("a workload has one kind of unit"),
            };
            let per_unit = units[0].ops as f64;
            let note = format!(
                "median of {n} replays' exact values, {:.0} samples beyond in each",
                (per_unit * (1.0 - q)).floor()
            );
            (over(&of), note)
        } else {
            let note = format!(
                "exact over {} calls, {:.0} samples beyond",
                samples.len(),
                (samples.len() as f64 * (1.0 - q)).floor()
            );
            (layers::percentile(&samples, q) / 1e3, note)
        };
        out.push(name, value, "us", &note);
    }
    match peak_rss_mb() {
        Ok(mb) => out.push("peak_rss_mb", mb, "MiB", "VmHWM of this process"),
        Err(e) => out.errors.push(e),
    }
    out
}

/// The first `n` units, untraced: their summed program time, counts and
/// failed operations.
fn untraced_prefix(inputs: &Inputs, n: usize) -> (f64, Vec<Counts>, u64) {
    let units: Vec<Unit> = (0..n).map(|i| run_unit(inputs, i)).collect();
    (
        units.iter().map(|u| u.wall_s).sum(),
        units.iter().map(|u| u.counts.clone()).collect(),
        units.iter().map(|u| u.failed).sum(),
    )
}

/// The layers whose self time the traced run reports as `<name>_s`, in the
/// order they are called.
pub const TIMED_LAYERS: [&str; 18] = [
    "workloads.generate_log",
    "workloads.extract",
    "sim.instances_for",
    "daggen.generate",
    "resv.calendar.average_available",
    "core.forward.schedule",
    "core.backward.schedule",
    "core.cpa.alloc_replay",
    "core.bl.levels_replay",
    "core.validate.check",
    "resv.quotas.admit_all",
    "resv.quotas.release_replace",
    "resv.txn.try_add",
    "resv.txn.commit",
    "resv.txn.rollback",
    "resv.txn.cancel",
    "resv.txn.resize",
    "core.validate.audit",
];

/// Re-call `workloads.extract` as often as `sim.instances_for` does, on the
/// same log, under a `replay` root: the layer is private to
/// `instances_for`, so this is the only way to time it from outside.
fn replay_extract(workload: &Workload, log: &layers::JobLog, seed: u64, tr: &mut Tracer) {
    let Kind::Batch { draws, scale, .. } = &workload.kind else {
        return;
    };
    let spec = batch_spec();
    let per_draw = (scale.starts * scale.tags) as u64;
    tr.enter("replay");
    for k in 0..*draws as u64 {
        let starts = layers::sample_start_times(log, scale.starts, sub_seed(seed, 1000 + k));
        for (i, t) in starts.into_iter().enumerate() {
            for tag in 0..scale.tags {
                let s = sub_seed(seed, 2000 + k * per_draw + (i * scale.tags + tag) as u64);
                tr.span("workloads.extract", || layers::extract(log, t, &spec, s));
            }
        }
    }
    tr.exit();
}

/// The traced run: the workload's first `traced_units` units through the
/// mirror with a span around every call into a layer; the same units
/// untraced before and after it, for the tracing overhead and the parity
/// guard; and once more untraced on `par_threads` worker threads instead of
/// the timed runs' one, for `rayon.par_speedup`. Spans are written to
/// `trace_out` at the end.
pub fn traced(workload: &Workload, seed: u64, par_threads: usize, trace_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let inputs = workload.setup(seed, &mut tr);
    let n = workload.traced_units().min(inputs.units());

    let before = untraced_prefix(&inputs, n);

    let mut tally = Tally::default();
    let mut rows: Vec<AlgoRow> = layers::table9_algorithms()
        .iter()
        .map(|a| AlgoRow {
            name: a.name(),
            ..AlgoRow::default()
        })
        .collect();
    let traced_counts: Vec<Counts> = match &inputs {
        Inputs::Serve(replays) => {
            let mut next_arrival = 0;
            replays[..n]
                .iter()
                .map(|r| {
                    let c = mirror::serve_replay(&mut tr, &mut tally, r, &mut next_arrival);
                    out.attempted += c.apps as u64;
                    out.failed += c.violations.min(c.apps) as u64;
                    Counts::Serve(c)
                })
                .collect()
        }
        Inputs::Batch { cases, log } => {
            let cases = &cases[..n];
            replay_extract(workload, log, seed, &mut tr);
            let rep = mirror::batch_rep(cases, Some(&mut tr));
            out.attempted += rep.calls.len() as u64;
            out.failed += rep.failed;
            let n_rows = rows.len();
            for (i, call) in rep.calls.iter().enumerate() {
                let row = &mut rows[i % n_rows];
                row.calls += 1;
                row.ns += call.ns;
                let deadline_row = row.name.starts_with("DL_");
                tally.probes += u64::from(deadline_row);
                match call.stats {
                    Some(stats) => {
                        tally.stats.absorb(stats);
                        row.slot_queries += stats.slot_queries;
                        row.slot_steps += stats.slot_steps;
                    }
                    None => tally.infeasible += 1,
                }
            }
            for case in cases {
                tally.reservations_final += case.cal.num_reservations() as u64;
                tally.breakpoints_final += case.cal.num_breakpoints() as u64;
            }
            rep.calls.chunks(n_rows).map(Counts::of_calls).collect()
        }
    };

    let after = untraced_prefix(&inputs, n);
    layers::force_threads(par_threads);
    let parallel = untraced_prefix(&inputs, n);
    layers::force_threads(1);

    let mut mismatches = 0u64;
    for (which, (_, counts, failed)) in [
        ("before", &before),
        ("after", &after),
        ("in parallel", &parallel),
    ] {
        out.failed += failed;
        if *counts != traced_counts {
            mismatches += 1;
            out.errors.push(format!(
                "{}: the mirror and the program ({which}) disagree: {traced_counts:?} vs {counts:?}",
                workload.name
            ));
        }
    }
    check_coverage(workload, traced_counts.iter(), &mut out.errors);
    if let Err(e) = std::fs::File::create(trace_out).and_then(|f| tr.write_jsonl(BufWriter::new(f)))
    {
        out.errors
            .push(format!("cannot write {}: {e}", trace_out.display()));
    }

    let by_name = tr.layers();
    let layer = |name: &str| by_name.get(name).copied().unwrap_or_default();
    // The traced wall is what the per-arrival (per-call) root spans cover;
    // their self time is the glue between layer calls. `setup` and `replay`
    // roots are outside it.
    let roots = [layer("serve.arrival"), layer("batch.call")];
    let wall_s = roots.iter().map(|r| r.total_ns).sum::<u64>() as f64 / 1e9;
    let glue_s = roots.iter().map(|r| r.self_ns).sum::<u64>() as f64 / 1e9;
    let untraced_wall_s = (before.0 + after.0) / 2.0;

    for name in TIMED_LAYERS {
        let mut l = layer(name);
        if name == "core.backward.schedule" {
            // The layer is the fan-out plus the probes it parents.
            l.self_ns += layer("core.backward.probe").self_ns;
        }
        let note = format!(
            "{:.1}% of traced wall, {} calls, {:.1} us/call",
            100.0 * l.secs() / wall_s,
            l.calls,
            l.secs() * 1e6 / l.calls.max(1) as f64
        );
        out.push(format!("{name}_s"), l.secs(), "s", &note);
    }
    let count = |out: &mut Outcome, name: &str, n: u64| out.push(name, n as f64, "count", "");
    count(&mut out, "daggen.calls", layer("daggen.generate").calls);
    count(
        &mut out,
        "core.forward.calls",
        layer("core.forward.schedule").calls,
    );
    count(
        &mut out,
        "core.backward.calls",
        layer("core.backward.schedule").calls,
    );
    count(&mut out, "core.backward.probes", tally.probes);
    count(&mut out, "core.backward.infeasible", tally.infeasible);
    count(&mut out, "core.backward.passes", tally.stats.passes);
    count(
        &mut out,
        "core.cpa.allocations",
        tally.stats.cpa_allocations,
    );
    count(&mut out, "core.cpa.mappings", tally.stats.cpa_mappings);
    count(
        &mut out,
        "resv.calendar.slot_queries",
        tally.stats.slot_queries,
    );
    count(&mut out, "resv.calendar.slot_steps", tally.stats.slot_steps);
    out.push(
        "resv.calendar.steps_per_query",
        tally.stats.slot_steps as f64 / tally.stats.slot_queries.max(1) as f64,
        "ratio",
        "from Schedule::stats; failed deadline probes return none",
    );
    count(
        &mut out,
        "core.validate.checks",
        layer("core.validate.check").calls,
    );
    count(&mut out, "core.validate.rejected", tally.validate_rejected);
    count(
        &mut out,
        "resv.quotas.calls",
        layer("resv.quotas.admit_all").calls,
    );
    count(&mut out, "resv.quotas.denied", tally.quota_denied);
    count(&mut out, "resv.txn.adds", layer("resv.txn.try_add").calls);
    count(&mut out, "resv.txn.commits", layer("resv.txn.commit").calls);
    count(
        &mut out,
        "resv.txn.rollbacks",
        layer("resv.txn.rollback").calls,
    );
    count(&mut out, "resv.txn.cancels", layer("resv.txn.cancel").calls);
    count(&mut out, "resv.txn.resizes", layer("resv.txn.resize").calls);
    let audit = layer("core.validate.audit");
    count(&mut out, "core.validate.audits", audit.calls);
    out.push(
        "core.validate.audit_us_per_reservation",
        audit.secs() * 1e6 / tally.audited_reservations.max(1) as f64,
        "us",
        &format!("{} reservations audited", tally.audited_reservations),
    );
    count(
        &mut out,
        "resv.calendar.reservations_final",
        tally.reservations_final,
    );
    count(
        &mut out,
        "resv.calendar.breakpoints_final",
        tally.breakpoints_final,
    );
    for row in &rows {
        let ms = row.ns as f64 / 1e6 / row.calls.max(1) as f64;
        let note = format!("{} calls", row.calls);
        out.push(
            format!("core.algo.{}.ms_per_schedule", row.name),
            ms,
            "ms",
            &note,
        );
        count(
            &mut out,
            &format!("core.algo.{}.slot_queries", row.name),
            row.slot_queries,
        );
        count(
            &mut out,
            &format!("core.algo.{}.slot_steps", row.name),
            row.slot_steps,
        );
    }
    out.push(
        "ops.accepted_share",
        traced_counts.iter().map(Counts::accepted).sum::<u64>() as f64 / out.attempted as f64,
        "ratio",
        "commits per arrival, or Ok schedules per call; deterministic",
    );
    out.push(
        "rayon.par_speedup",
        after.0 / parallel.0,
        "ratio",
        &format!(
            "untraced wall on 1 thread ({:.3} s) / on {par_threads} ({:.3} s)",
            after.0, parallel.0
        ),
    );
    out.push(
        "trace.wall_s",
        wall_s,
        "s",
        "what the per-op root spans cover",
    );
    out.push(
        "serve.glue_s",
        glue_s,
        "s",
        &format!(
            "traced wall - sum of layer self times; {:.1}% of it",
            100.0 * glue_s / wall_s
        ),
    );
    out.push(
        "serve.trace_overhead",
        wall_s / untraced_wall_s - 1.0,
        "ratio",
        &format!("traced wall / untraced wall ({untraced_wall_s:.3} s, mean of 2 reps) - 1"),
    );
    count(&mut out, "serve.parity_mismatches", mismatches);
    out
}

/// One Table-9 row's part of a traced batch rep.
#[derive(Debug, Clone, Default)]
struct AlgoRow {
    name: String,
    calls: u64,
    ns: u64,
    slot_queries: u64,
    slot_steps: u64,
}
