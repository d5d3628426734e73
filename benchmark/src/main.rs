//! The repo benchmark: serve replay + Table-9 batch, end to end and layer
//! by layer. See `README.md` beside this package.
//!
//! ```text
//! resched-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! resched-benchmark compare <a.jsonl> <b.jsonl>
//! ```

mod compare;
mod layers;
mod mirror;
mod run;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use run::Outcome;
use serde_json::{Map, Number, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every timed run pins the program's parallel sections to one worker: the
/// shim spawns threads per section, nested, so more workers than free cores
/// measure the host's scheduler (a neighbour on one of two cores costs the
/// two-worker run 30 % and the one-worker run nothing).
const THREADS: usize = 1;

/// The worker count `rayon.par_speedup` compares against (fewer on a
/// smaller host).
const PAR_THREADS: usize = 2;

/// The benchmark package's directory: where `out/` goes, and whose parent
/// holds `BENCHMARK.json`.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.to_string(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload <name> is required".into());
    }
    Ok(parsed)
}

/// `git rev-parse` of the checkout, when it is one (git is not asked
/// otherwise: it would search the directories above the checkout).
fn git_rev() -> String {
    if !package_dir().join("../.git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The result object of the driver's contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> Value {
    let mut metrics = Map::new();
    for m in &outcome.metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), Value::Number(Number::F64(m.value)));
        entry.insert("unit".into(), Value::String(m.unit.into()));
        metrics.insert(m.name.clone(), Value::Object(entry));
    }
    let mut obj = Map::new();
    obj.insert("correct".into(), Value::Bool(outcome.correct()));
    obj.insert(
        "attempted".into(),
        Value::Number(Number::U64(outcome.attempted)),
    );
    obj.insert("failed".into(), Value::Number(Number::U64(outcome.failed)));
    obj.insert("metrics".into(), Value::Object(metrics));
    Value::Object(obj)
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = PAR_THREADS.min(nproc);
    layers::force_threads(THREADS);

    let outcome = if args.trace {
        let dir = package_dir().join("out");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", workload.name));
        let outcome = run::traced(&workload, args.seed, par_threads, &path);
        println!("spans written to {}", path.display());
        outcome
    } else {
        run::end_to_end(&workload, args.seed, args.seconds)
    };

    println!(
        "workload {}  seed {}  trace {}  threads {THREADS}  nproc {nproc}  backend {}  cpa_cache {}  git {}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        layers::backend_name(),
        std::env::var("RESCHED_CPA_CACHE").unwrap_or_else(|_| "on".into()),
        git_rev(),
    );
    if args.trace && par_threads < PAR_THREADS {
        println!("note: {nproc}-core host, rayon.par_speedup is against {par_threads} thread(s) instead of {PAR_THREADS}");
    }
    println!("closed loop, one client: the next arrival is sent when the previous one is decided");
    for m in &outcome.metrics {
        println!("{:<44} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "attempted {}  failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }

    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        // One record per run, appended: what `compare` reads.
        let mut record = Map::new();
        record.insert("workload".into(), Value::String(workload.name.into()));
        record.insert("seed".into(), Value::Number(Number::U64(args.seed)));
        record.insert("trace".into(), Value::Bool(args.trace));
        record.insert("result".into(), result.clone());
        let line = serde_json::to_string(&Value::Object(record)).map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <a.jsonl> <b.jsonl>".into()),
        },
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
