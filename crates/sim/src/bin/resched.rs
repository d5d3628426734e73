//! `resched` — command-line front end to the library.
//!
//! ```text
//! resched generate-dag  --tasks 50 --width 0.5 --density 0.5 --regularity 0.5
//!                       --alpha 0.2 --jump 1 --seed 42 [--dot] > dag.json
//! resched generate-log  --preset sdsc_blue --days 30 --seed 1 [--swf] > log.json
//! resched extract       --log log.json --phi 0.2 --method expo --seed 3
//!                       [--at <secs>] > resv.json
//! resched schedule      --dag dag.json --resv resv.json [--bd CPAR] [--bl CPAR]
//!                       [--gantt] [--svg out.svg]
//! resched deadline      --dag dag.json --resv resv.json --k <secs>
//!                       [--algo DL_RCBD_CPAR-L]
//! resched tightest      --dag dag.json --resv resv.json [--algo DL_RC_CPAR-L]
//!
//! `--algo` also accepts the hierarchical twins (`H_` prefix, e.g.
//! `H_DL_RCBD_CPAR-L`): same algorithm, placements restricted to whole
//! 2-core nodes.
//! ```
//!
//! JSON files use the crates' serde formats, so artifacts are
//! interchangeable with library users.

use resched_core::algos::{Algorithm, TWIN_GRAIN};
use resched_core::backward::{schedule_deadline, DeadlineAlgo, DeadlineConfig, Roster};
use resched_core::bl::BlMethod;
use resched_core::forward::{schedule_forward, BdMethod, ForwardConfig};
use resched_core::prelude::*;
use resched_daggen::DagParams;
use resched_sim::args::Args;
use resched_workloads::extract::{extract, sample_start_times, ExtractSpec, ThinMethod};
use resched_workloads::job::JobLog;
use resched_workloads::swf_write::write_swf;
use resched_workloads::synth::{generate_log, LogSpec};
use std::error::Error;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        eprintln!("run with no arguments for usage");
        std::process::exit(1);
    }
}

fn usage() -> &'static str {
    "subcommands: generate-dag | generate-log | extract | schedule | deadline | tightest\n\
     see crates/sim/src/bin/resched.rs header for options"
}

fn run() -> Result<(), Box<dyn Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        println!("{}", usage());
        return Ok(());
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate-dag" => generate_dag(&args),
        "generate-log" => generate_log_cmd(&args),
        "extract" => extract_cmd(&args),
        "schedule" => schedule_cmd(&args),
        "deadline" => deadline_cmd(&args, false),
        "tightest" => deadline_cmd(&args, true),
        other => Err(format!("unknown subcommand '{other}'\n{}", usage()).into()),
    }
}

fn generate_dag(args: &Args) -> Result<(), Box<dyn Error>> {
    let params = DagParams {
        num_tasks: args.get_or("tasks", 50usize)?,
        alpha_max: args.get_or("alpha", 0.2f64)?,
        width: args.get_or("width", 0.5f64)?,
        regularity: args.get_or("regularity", 0.5f64)?,
        density: args.get_or("density", 0.5f64)?,
        jump: args.get_or("jump", 1u32)?,
    };
    params.validate()?;
    let dag = resched_daggen::generate(&params, args.get_or("seed", 42u64)?);
    if args.flag("dot") {
        println!("{}", dag.to_dot());
    } else {
        println!("{}", serde_json::to_string_pretty(&dag)?);
    }
    eprintln!(
        "generated {} tasks, {} edges, {} levels, max width {}",
        dag.num_tasks(),
        dag.num_edges(),
        dag.num_levels(),
        dag.max_width()
    );
    Ok(())
}

fn generate_log_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    let name = args.opt("preset").unwrap_or("sdsc_blue");
    let mut spec = LogSpec::preset(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    if let Some(days) = args.opt("days") {
        let days: i64 = days.parse().map_err(|_| "bad --days")?;
        spec = spec.with_duration(Dur::days(days));
    }
    let log = generate_log(&spec, args.get_or("seed", 1u64)?);
    if args.flag("swf") {
        println!("{}", write_swf(&log));
    } else {
        println!("{}", serde_json::to_string(&log)?);
    }
    eprintln!(
        "generated {}: {} jobs, steady utilization {:.1}%",
        log.name,
        log.jobs.len(),
        log.steady_utilization() * 100.0
    );
    Ok(())
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn extract_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    let log_path = args.req("log")?;
    let log: JobLog = read_json(log_path)?;
    log.check().map_err(|e| format!("{log_path}: {e}"))?;
    let method = match args.opt("method").unwrap_or("expo") {
        "linear" => ThinMethod::Linear,
        "expo" => ThinMethod::Expo,
        "real" => ThinMethod::Real,
        other => return Err(format!("unknown method '{other}'").into()),
    };
    let seed = args.get_or("seed", 3u64)?;
    let at = match args.opt("at") {
        Some(v) => Time::seconds(v.parse().map_err(|_| "bad --at")?),
        None => sample_start_times(&log, 1, seed ^ 0x5eed)[0],
    };
    let spec = ExtractSpec::new(args.get_or("phi", 0.2f64)?, method);
    let rs = extract(&log, at, &spec, seed);
    println!("{}", serde_json::to_string(&rs)?);
    eprintln!(
        "extracted {} reservations at t={} (q = {} of {} procs)",
        rs.reservations.len(),
        at,
        rs.q,
        rs.procs
    );
    Ok(())
}

/// The `--dag` and `--resv` files, refused with the file and the field
/// named wherever they hold what the schedulers cannot take: a graph that
/// is not the DAG its own fields describe (the `Dag` deserializer's
/// checks), a task cost outside [`TaskCost::try_new`]'s rule, a machine of
/// no processors, or reservations that do not fit on it.
fn load_problem(
    args: &Args,
) -> Result<
    (
        resched_core::dag::Dag,
        resched_workloads::extract::ReservationSchedule,
        Calendar,
    ),
    Box<dyn Error>,
> {
    let dag_path = args.req("dag")?;
    let dag: resched_core::dag::Dag = read_json(dag_path)?;
    let resv_path = args.req("resv")?;
    let rs: resched_workloads::extract::ReservationSchedule = read_json(resv_path)?;
    if rs.procs == 0 {
        return Err(format!("{resv_path}: procs must be positive").into());
    }
    let mut cal = Calendar::new(rs.procs);
    for (i, r) in rs.reservations.iter().enumerate() {
        Reservation::checked(r.start, r.end, r.procs)
            .and_then(|r| cal.try_add(r))
            .map_err(|e| format!("{resv_path}: reservations[{i}]: {e}"))?;
    }
    Ok((dag, rs, cal))
}

fn schedule_cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    let (dag, rs, cal) = load_problem(args)?;
    let bd = match args.opt("bd").unwrap_or("CPAR") {
        "ALL" => BdMethod::All,
        "HALF" => BdMethod::Half,
        "CPA" => BdMethod::Cpa,
        "CPAR" => BdMethod::CpaR,
        other => return Err(format!("unknown --bd '{other}'").into()),
    };
    let bl = match args.opt("bl").unwrap_or("CPAR") {
        "1" => BlMethod::One,
        "ALL" => BlMethod::All,
        "CPA" => BlMethod::Cpa,
        "CPAR" => BlMethod::CpaR,
        other => return Err(format!("unknown --bl '{other}'").into()),
    };
    let cfg = ForwardConfig::new(bl, bd);
    let sched = schedule_forward(&dag, &cal, Time::ZERO, rs.q, cfg);
    Algorithm::Forward(cfg)
        .validator(&dag, &cal, Time::ZERO, None)
        .check(&sched)?;
    println!("{}", serde_json::to_string(&sched)?);
    eprintln!(
        "{}: turn-around {}, {:.2} CPU-hours",
        cfg.name(),
        sched.turnaround(),
        sched.cpu_hours()
    );
    if args.flag("gantt") {
        eprintln!(
            "{}",
            resched_sim::gantt::render(
                &sched,
                &dag,
                &cal,
                resched_sim::gantt::GanttOptions::default()
            )
        );
    }
    if let Some(path) = args.opt("svg") {
        let svg = resched_sim::svg::render_svg(
            &sched,
            &dag,
            &cal,
            resched_sim::svg::SvgOptions::default(),
        );
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Resolve an `--algo` name; the `H_` prefix selects the hierarchical
/// twin regime (same algorithm, whole-node placements). Returns the
/// catalog entry, whose oracle judges the schedule, and what
/// `schedule_deadline` takes.
fn parse_algo(name: &str) -> Result<(Algorithm, DeadlineAlgo, DeadlineConfig), Box<dyn Error>> {
    let (flat, hierarchical) = match name.strip_prefix("H_") {
        Some(rest) => (rest, true),
        None => (name, false),
    };
    let algo = DeadlineAlgo::ALL
        .into_iter()
        .find(|a| a.name() == flat)
        .ok_or_else(|| format!("unknown --algo '{name}'"))?;
    Ok(if hierarchical {
        (
            Algorithm::HierDeadline(algo),
            algo,
            DeadlineConfig::default().hierarchical(TWIN_GRAIN),
        )
    } else {
        (Algorithm::Deadline(algo), algo, DeadlineConfig::default())
    })
}

fn deadline_cmd(args: &Args, tightest: bool) -> Result<(), Box<dyn Error>> {
    let (dag, rs, cal) = load_problem(args)?;
    let name = args.opt("algo").unwrap_or("DL_RCBD_CPAR-L");
    let (family, algo, cfg) = parse_algo(name)?;
    if tightest {
        let mut roster = Roster::prepare(&dag, &cal, Time::ZERO, rs.q, cfg);
        let Some((k, out)) = roster.tightest(algo, Dur::seconds(60)) else {
            return Err("no achievable deadline".into());
        };
        family
            .validator(&dag, &cal, Time::ZERO, Some(k))
            .check(&out.schedule)?;
        println!("{}", serde_json::to_string(&out.schedule)?);
        eprintln!(
            "{name}: tightest deadline {} ({:.2} CPU-hours, lambda {:?})",
            k - Time::ZERO,
            out.schedule.cpu_hours(),
            out.lambda
        );
    } else {
        let k = Time::seconds(args.get_req::<i64>("k")?);
        match schedule_deadline(&dag, &cal, Time::ZERO, rs.q, k, algo, cfg) {
            Ok(out) => {
                family
                    .validator(&dag, &cal, Time::ZERO, Some(k))
                    .check(&out.schedule)?;
                println!("{}", serde_json::to_string(&out.schedule)?);
                eprintln!(
                    "{name}: meets {} with completion {} and {:.2} CPU-hours (lambda {:?})",
                    k,
                    out.schedule.completion(),
                    out.schedule.cpu_hours(),
                    out.lambda
                );
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
