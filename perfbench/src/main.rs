//! The repository's benchmark: five closed-loop workloads from garlic
//! SQL down to the page pool, and a traced run that attributes time to
//! the layers. See `README.md` beside `Cargo.toml`.

#![forbid(unsafe_code)]

mod analysis;
mod compare;
mod json;
mod metrics;
mod probes;
mod rng;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::Size;

const USAGE: &str = "\
usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
           one run in this process; the last line printed is the result
       perfbench [--seed N] [--runs N] [--seconds S] [--smoke] [--only <name>] [--out FILE]
           every workload, each run in a child process: N untraced runs on
           seeds N, N+1, ... and one traced run; result lines appended to FILE
       perfbench spread FILE [--benchmark BENCHMARK.json]
           medians, quartiles and inter-quartile spread of the runs in FILE
       perfbench compare A B [--benchmark BENCHMARK.json]
           run set B against run set A under the bounds in BENCHMARK.json
workloads: garlic_sql mem_topk paged_warm paged_cold store_build";

const DEFAULT_SEED: u64 = 1;
/// Run length when neither `--seconds` nor `BENCHMARK.json` says.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes {what}"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{arg}: '{text}' is not a number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--only" => args.only = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a whole number")?;
                args.seed = Some(
                    text.parse()
                        .map_err(|_| format!("--seed: '{text}' is not a whole number"))?,
                );
            }
            "--runs" => {
                let text = value("a whole number")?;
                args.runs = Some(
                    text.parse()
                        .map_err(|_| format!("--runs: '{text}' is not a whole number"))?,
                );
            }
            "--seconds" => args.seconds = Some(number(value("a number of seconds")?)?),
            "--trace" => args.trace = number(value("0 or 1")?)? > 0.0,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--benchmark" => args.benchmark = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&raw).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs the command; `Ok(false)` is a run that finished but found a
/// wrong answer, a failed op or a changed metric.
fn dispatch(args: Args) -> Result<bool, String> {
    let benchmark_path = args
        .benchmark
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    match args.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare takes two files".to_owned());
            };
            let benchmark = compare::read_benchmark(&benchmark_path)?;
            let changed = compare::compare(
                &compare::read_runs(Path::new(a))?,
                &compare::read_runs(Path::new(b))?,
                &benchmark,
            );
            Ok(!changed)
        }
        Some("spread") => {
            let [_, file] = args.positional.as_slice() else {
                return Err("spread takes one file".to_owned());
            };
            let benchmark = compare::read_benchmark(&benchmark_path)?;
            compare::print_spread(&compare::read_runs(Path::new(file))?, &benchmark);
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
        None => {
            let smoke = args.smoke;
            let seconds = match (args.seconds, smoke) {
                (Some(s), _) => s,
                // Smoke runs stop after one block of every pass.
                (None, true) => 0.0,
                (None, false) => compare::read_benchmark(&benchmark_path)
                    .map(|b| b.run_seconds)
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or(DEFAULT_SECONDS),
            };
            let seed = args.seed.unwrap_or(DEFAULT_SEED);
            match args.workload {
                Some(workload) => single(workload, seed, seconds, args.trace, smoke),
                None => {
                    let correct = compare::suite(
                        seed,
                        args.runs.unwrap_or(1),
                        seconds,
                        smoke,
                        args.only.as_deref(),
                        args.out.as_deref(),
                    )?;
                    if let (Some(out), Ok(benchmark)) =
                        (&args.out, compare::read_benchmark(&benchmark_path))
                    {
                        compare::print_spread(&compare::read_runs(out)?, &benchmark);
                    }
                    Ok(correct)
                }
            }
        }
    }
}

fn single(
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work_dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .to_owned();
    let config = run::Config {
        workload,
        seed,
        seconds,
        trace,
        size: if smoke { Size::Smoke } else { Size::Full },
        work_dir,
    };
    match run::run(&config) {
        Ok(result) => {
            println!("{}", result.to_json());
            Ok(result.correct)
        }
        // No result line: the contract's "fails without printing one".
        Err(e) => Err(format!("{}: {e}", config.workload)),
    }
}
