//! Sets of runs: making one (`suite`), judging its repeatability, and
//! comparing two (`compare`) under the bounds frozen in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, quote, Value};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;

/// (workload, metric) → one value per run.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// What `BENCHMARK.json` fixes for an end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Default)]
pub struct Benchmark {
    pub run_seconds: f64,
    pub end_to_end: BTreeMap<String, Bound>,
}

pub fn read_benchmark(path: &Path) -> Result<Benchmark, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
    let doc = json::parse(&text).map_err(at)?;
    let mut out = Benchmark {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        ..Benchmark::default()
    };
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| at("no \"end_to_end\" list".to_owned()))?;
    for m in metrics {
        let name = m.get("name").and_then(Value::as_str);
        let better = m.get("better").and_then(Value::as_str);
        let bound = m.get("bound").and_then(Value::as_f64);
        let (Some(name), Some(better), Some(bound)) = (name, better, bound) else {
            return Err(at("malformed metric in \"end_to_end\"".to_owned()));
        };
        out.end_to_end.insert(
            name.to_owned(),
            Bound {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(out)
}

/// Reads a file of result lines as `suite` writes them.
pub fn read_runs(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("{}:{}: {e}", path.display(), n + 1);
        let doc = json::parse(line).map_err(at)?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no workload".to_owned()))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics".to_owned()))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at(format!("{name} has no value")))?;
            set.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Runs `runs` untraced runs (seeds `seed`, `seed + 1`, …) and one
/// traced run of every workload, each in a child process of its own —
/// fresh engine, own peak memory — and appends one result line per run
/// to `out`. Prints each child's report as it arrives.
pub fn suite(
    seed: u64,
    runs: u64,
    seconds: f64,
    smoke: bool,
    only: Option<&str>,
    out: Option<&Path>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sink = match out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut all_correct = true;
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for (run_seed, trace) in (0..runs).map(|i| (seed + i, 0)).chain([(seed, 1)]) {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if smoke {
                command.arg("--smoke");
            }
            // `output` waits for the child to end.
            let child = command
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            let result = json::parse(last)
                .map_err(|e| format!("{workload} seed {run_seed}: no result line ({e})"))?;
            if !child.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
                all_correct = false;
            }
            if let Some(file) = sink.as_mut() {
                let body = last.trim().strip_prefix('{').unwrap_or("");
                writeln!(
                    file,
                    "{{\"workload\": {}, \"seed\": {run_seed}, \"trace\": {trace}, {body}",
                    quote(workload)
                )
                .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(all_correct)
}

/// Prints, for every end-to-end metric of every workload in `set`, the
/// median, the quartiles and the inter-quartile spread as a share of
/// the median, next to the metric's bound.
pub fn print_spread(set: &RunSet, benchmark: &Benchmark) {
    println!(
        "{:<12} {:<22} {:>4} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound"
    );
    for ((workload, metric), values) in set {
        let Some(bound) = benchmark.end_to_end.get(metric) else {
            continue;
        };
        let q = quartiles(values).unwrap_or([f64::NAN; 3]);
        let s = spread(values).unwrap_or(f64::NAN);
        let verdict = if metric == "setup_s" {
            ""
        } else if s <= bound.bound / 3.0 {
            "steady"
        } else if s <= bound.bound {
            "within bound"
        } else {
            "TOO WIDE"
        };
        println!(
            "{:<12} {:<22} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}% {}",
            workload,
            metric,
            values.len(),
            q[0],
            q[1],
            q[2],
            100.0 * s,
            100.0 * bound.bound,
            verdict
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `b` compares with `a` under `bound`. `change` is `b`'s median
/// relative to `a`'s, signed so that positive is worse.
///
/// A change beyond the bound is a verdict only when the runs support
/// it: where either side's spread exceeds the bound and the two sides'
/// runs interleave, the pair is unresolved rather than changed.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> Option<(f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma.abs() <= 0.0 {
        return None;
    }
    let raw = (mb - ma) / ma.abs();
    let change = if bound.higher_is_better { -raw } else { raw };
    let wide = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound.bound));
    let (min_a, max_a) = (
        a.iter().copied().fold(f64::INFINITY, f64::min),
        a.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    let (min_b, max_b) = (
        b.iter().copied().fold(f64::INFINITY, f64::min),
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    let interleave = !(max_b < min_a || max_a < min_b);
    let verdict = if change.abs() <= bound.bound {
        Verdict::Same
    } else if wide && interleave {
        Verdict::Unresolved
    } else if change > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    Some((change, verdict))
}

/// Prints the comparison of two run sets; returns whether any
/// end-to-end cell is `better` or `worse`.
pub fn compare(a: &RunSet, b: &RunSet, benchmark: &Benchmark) -> bool {
    println!(
        "{:<12} {:<50} {:>12} {:>12} {:>24} {:>24} {:>9}  verdict",
        "workload", "metric", "median a", "median b", "quartiles a", "quartiles b", "b vs a"
    );
    let mut changed = false;
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (Some(ma), Some(mb)) = (median(va), median(vb)) else {
            continue;
        };
        let q = |v: &[f64]| match quartiles(v) {
            Some(q) => format!("{:.4}..{:.4}", q[0], q[2]),
            None => "-".to_owned(),
        };
        // The relative delta, with its base: b's median over a's.
        let delta = if ma.abs() > 0.0 {
            format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
        } else {
            "-".to_owned()
        };
        let verdict = match benchmark.end_to_end.get(metric) {
            Some(&bound) => match judge(va, vb, bound) {
                Some((_, v)) => {
                    changed |= matches!(v, Verdict::Better | Verdict::Worse);
                    format!("{} (bound {:.0}% of a)", v.name(), 100.0 * bound.bound)
                }
                None => "-".to_owned(),
            },
            // Per-layer metrics have no bound: the delta is the report.
            None => "per-layer".to_owned(),
        };
        println!(
            "{:<12} {:<50} {:>12.4} {:>12.4} {:>24} {:>24} {:>9}  {}",
            workload,
            metric,
            ma,
            mb,
            q(va),
            q(vb),
            delta,
            verdict
        );
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        higher_is_better: false,
        bound: 0.1,
    };
    const HIGHER: Bound = Bound {
        higher_is_better: true,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&a, &[10.3, 10.2, 10.4, 10.3], LOWER).unwrap().1,
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], LOWER).unwrap().1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0], LOWER).unwrap().1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], HIGHER).unwrap().1,
            Verdict::Better
        );
        let (change, _) = judge(&a, &[12.0, 12.0, 12.0, 12.0], LOWER).unwrap();
        assert!((change - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_not_changed() {
        let a = [10.0, 14.0, 8.0, 12.0, 9.0];
        let b = [12.0, 15.0, 9.5, 13.0, 11.5];
        assert_eq!(judge(&a, &b, LOWER).unwrap().1, Verdict::Unresolved);
        // Every run of b beyond every run of a: resolved despite the spread.
        let far = [20.0, 28.0, 16.0, 24.0, 18.0];
        assert_eq!(judge(&a, &far, LOWER).unwrap().1, Verdict::Worse);
    }
}
