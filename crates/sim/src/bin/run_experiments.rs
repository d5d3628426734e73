//! Run the complete experiment suite and write both ASCII (stdout) and
//! Markdown (`results/`) renderings of every table. This is the one
//! program that computes the paper's Tables 2–10; it also judges the
//! result shapes over Tables 4–7 (`exp::shapes`) and, after writing the
//! results files, exits 1 if any shape check is `FAILED` (`n/a` is not).
//!
//! `results/experiments.{md,json}` hold what is deterministic in the seed;
//! what a stopwatch measures — Tables 9/10, each experiment's wall and,
//! with the collector compiled in, the phase profiles — goes to
//! `results/timing.{md,json}`. Runs in CI (`check` job) twice, plain and
//! with the collector, and each run fails the job if `results/experiments.*`
//! differ from the committed files:
//!
//! ```sh
//! cargo run --release -p resched-sim --bin run_experiments
//! cargo run --release -p resched-sim --bin run_experiments --features resched-core/obs
//! ```
//!
//! Scale with `RESCHED_SCALE` / `RESCHED_DAGS` / `RESCHED_STARTS` /
//! `RESCHED_TAGS` / `RESCHED_SWEEP_STRIDE`; see `resched_sim::scenario`.
//! `RESCHED_PAR` sets how many threads the instance sweeps of §4.3.1,
//! Tables 4–7 and the validation audit run on (`off`, `seq`, `0`, `1` or a
//! count; default: every available core); see
//! `resched_sim::threads_from_env`. The count changes no byte of
//! `results/experiments.*`.

use resched_sim::exp::beyond::Beyond;
use resched_sim::exp::deadline::{deadline_table, run_table6, run_table7};
use resched_sim::exp::exec_time::{run_table10, run_table9, timing_table};
use resched_sim::exp::logs::{correlation_table, run_correlations, run_log_stats, table2, table3};
use resched_sim::exp::profile::{
    phase_table, probe_table, run_phase_profiles, stream_profile, write_trace, AlgoProfile,
};
use resched_sim::exp::ressched::{
    bl_compare_table, ressched_table, run_bl_compare, run_table4, run_table5,
};
use resched_sim::exp::scaling::{run_scaling, scaling_table, symbolic_table8};
use resched_sim::exp::shapes::{any_failed, check_beyond, check_shapes, shapes_table};
use resched_sim::exp::stream::StreamConfig;
use resched_sim::exp::timed;
use resched_sim::exp::validation::{run_validation, validation_table};
use resched_sim::scenario::{sweeps_with_stride, ResvSpec, Scale, DEFAULT_ROOT_SEED};
use resched_sim::table::{fnum, Table};
use resched_sim::threads_from_env;
use std::fmt::Write as _;

/// One results file pair: its Markdown text and its JSON object.
struct Out {
    md: String,
    json: serde_json::Map<String, serde_json::Value>,
}

impl Out {
    fn new(title: &str, provenance: &str) -> Out {
        Out {
            md: format!("# {title}\n\nGenerated by `run_experiments`; {provenance}.\n\n"),
            json: serde_json::Map::new(),
        }
    }

    /// Print `table` and add it to the Markdown only.
    fn show(&mut self, table: &Table) {
        println!("{}", table.render());
        let _ = writeln!(self.md, "{}", table.render_markdown());
    }

    fn emit(&mut self, key: &str, table: &Table, value: serde_json::Value) {
        self.show(table);
        self.json.insert(key.to_string(), value);
    }

    fn write(self, stem: &str) {
        let json = serde_json::to_string_pretty(&serde_json::Value::Object(self.json)).unwrap();
        std::fs::write(format!("results/{stem}.md"), self.md).expect("write results/*.md");
        std::fs::write(format!("results/{stem}.json"), json).expect("write results/*.json");
    }
}

fn main() {
    let seed = DEFAULT_ROOT_SEED;
    // Every knob is read before any experiment runs, so a typo stops the
    // binary at once instead of minutes in.
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let threads = threads_from_env().unwrap_or_else(|e| e.exit());
    let bl_sweeps = sweeps_with_stride(2).unwrap_or_else(|e| e.exit());
    let sweeps = sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let sparse_sweeps = sweeps_with_stride(10).unwrap_or_else(|e| e.exit());
    eprintln!(
        "scale: {scale:?} ({} instances/scenario), {threads} thread(s)",
        scale.instances()
    );

    let mut out = Out::new("Measured experiment tables", "deterministic in the seed");
    let mut timing = Out::new("Measured wall-clock times", "they vary from run to run");
    let mut walls = Vec::new();
    out.json
        .insert("scale".into(), serde_json::to_value(scale).unwrap());

    // Tables 2 & 3 + correlations.
    let stats = timed(&mut walls, "log_stats", || run_log_stats(seed));
    out.emit(
        "log_stats",
        &table2(&stats),
        serde_json::to_value(&stats).unwrap(),
    );
    out.show(&table3(&stats));
    let corrs = timed(&mut walls, "correlations", || run_correlations(seed, 5));
    out.emit(
        "correlations",
        &correlation_table(&corrs),
        serde_json::to_value(&corrs).unwrap(),
    );

    // §4.3.1 bottom-level comparison.
    let bl = timed(&mut walls, "bl_compare", || {
        run_bl_compare(&bl_sweeps, &ResvSpec::paper_grid(), scale, seed, threads)
    });
    out.emit(
        "bl_compare",
        &bl_compare_table(&bl),
        serde_json::to_value(&bl).unwrap(),
    );

    // Tables 4 & 5.
    let t4 = timed(&mut walls, "table4", || run_table4(scale, seed, threads));
    out.emit(
        "table4",
        &ressched_table(
            &format!(
                "Table 4 - RESSCHED, synthetic schedules ({} scenarios)",
                t4.scenarios
            ),
            &t4,
        ),
        serde_json::to_value(&t4).unwrap(),
    );
    let t5 = timed(&mut walls, "table5", || run_table5(scale, seed, threads));
    out.emit(
        "table5",
        &ressched_table(
            &format!(
                "Table 5 - RESSCHED, Grid'5000-like schedules ({} scenarios)",
                t5.scenarios
            ),
            &t5,
        ),
        serde_json::to_value(&t5).unwrap(),
    );

    // Tables 6 & 7.
    let t6 = timed(&mut walls, "table6", || {
        run_table6(&sweeps, scale, seed, threads)
    });
    out.emit(
        "table6",
        &deadline_table(
            "Table 6 - RESSCHEDDL tightest deadline / loose-deadline CPU-hours",
            &t6,
        ),
        serde_json::to_value(&t6).unwrap(),
    );
    let t7 = timed(&mut walls, "table7", || {
        run_table7(&sweeps, scale, seed, threads)
    });
    out.emit(
        "table7",
        &deadline_table(
            "Table 7 - hybrid deadline algorithms, Grid'5000-like schedules",
            std::slice::from_ref(&t7),
        ),
        serde_json::to_value(&t7).unwrap(),
    );

    // The result shapes over Tables 4-7; a FAILED one fails the run once
    // the results files are written.
    let shapes = check_shapes(&t4, &t5, &t6, &t7);
    out.emit(
        "shapes",
        &shapes_table("Result shapes (EXPERIMENTS.md)", &shapes),
        serde_json::to_value(&shapes).unwrap(),
    );

    // Table 8.
    out.show(&symbolic_table8());
    let scaling = timed(&mut walls, "table8", || run_scaling(scale, seed));
    out.emit(
        "table8",
        &scaling_table(&scaling),
        serde_json::to_value(&scaling).unwrap(),
    );

    // Oracle audit of every algorithm on the batch the tables came from.
    let validation = timed(&mut walls, "validation", || {
        run_validation(scale, seed, threads)
    });
    out.emit(
        "validation",
        &validation_table(&validation),
        serde_json::to_value(&validation).unwrap(),
    );

    // Table 1, the ablations and the extensions, and the directions
    // EXPERIMENTS.md states about them; only iCASLB's runtime is timing.
    let beyond = Beyond::run(&sweeps, &sparse_sweeps, scale, seed, &mut walls);
    for (key, table, value) in beyond.tables() {
        out.emit(key, &table, value);
    }
    let (runtime, runtime_json) = beyond.runtime_table();
    timing.emit("ext_icaslb", &runtime, runtime_json);
    let beyond_shapes = check_beyond(&beyond);
    out.emit(
        "beyond_shapes",
        &shapes_table(
            "Result shapes beyond Tables 2-10 (EXPERIMENTS.md)",
            &beyond_shapes,
        ),
        serde_json::to_value(&beyond_shapes).unwrap(),
    );

    // Tables 9 & 10: what one scheduling call costs, by stopwatch.
    let t9 = timed(&mut walls, "table9", || run_table9(scale, seed));
    timing.emit(
        "table9",
        &timing_table("Table 9 - average execution time vs number of tasks", &t9),
        serde_json::to_value(&t9).unwrap(),
    );
    let t10 = timed(&mut walls, "table10", || run_table10(scale, seed));
    timing.emit(
        "table10",
        &timing_table("Table 10 - average execution time vs edge density", &t10),
        serde_json::to_value(&t10).unwrap(),
    );

    std::fs::create_dir_all("results").expect("create results dir");

    // Phase profiles and probe counters from the observability layer.
    if resched_core::obs::COMPILED {
        let profiles = run_phase_profiles(scale, seed);
        timing.emit(
            "phase_profiles",
            &phase_table(&profiles),
            serde_json::to_value(&profiles).unwrap(),
        );
        let probes = probe_table(&profiles);
        println!("{}", probes.render());
        let _ = writeln!(timing.md, "{}", probes.render_markdown());
        write_trace(std::path::Path::new("results/trace.jsonl"), &profiles)
            .expect("write results/trace.jsonl");
        eprintln!("wrote results/trace.jsonl ({} reports)", profiles.len());

        // One observed stream run: the closed-loop simulator's own spans
        // plus everything the forward scheduler records underneath.
        let (_, stream_report) = stream_profile(&StreamConfig::default(), seed);
        let stream_prof = AlgoProfile {
            algorithm: "stream".into(),
            report: stream_report,
        };
        timing.emit(
            "stream_profile",
            &phase_table(std::slice::from_ref(&stream_prof)),
            serde_json::to_value(&stream_prof).unwrap(),
        );
    } else {
        eprintln!(
            "obs feature not compiled in; skipping phase profiles \
             (rebuild with `--features resched-core/obs` for span timings, \
             probe counters, and results/trace.jsonl)"
        );
    }

    let mut wall_table = Table::new("Wall-clock per experiment", &["Experiment", "Wall [s]"]);
    for (key, secs) in &walls {
        wall_table.row(vec![key.to_string(), fnum(*secs, 2)]);
    }
    let wall_json = walls
        .iter()
        .map(|&(k, s)| (k.to_string(), serde_json::to_value(s).unwrap()));
    timing.emit(
        "wall_s",
        &wall_table,
        serde_json::Value::Object(wall_json.collect()),
    );

    out.write("experiments");
    timing.write("timing");
    eprintln!(
        "done in {:.1} min; wrote results/experiments.{{md,json}} and results/timing.{{md,json}}",
        walls.iter().map(|(_, s)| s).sum::<f64>() / 60.0
    );
    if any_failed(&shapes) || any_failed(&beyond_shapes) {
        eprintln!("a result shape check FAILED (see the shapes table)");
        std::process::exit(1);
    }
}
