//! One run of one workload: set-up, the closed loop, verification and
//! the metrics — untraced for the end-to-end numbers, traced for the
//! per-layer ones.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::analysis::{attribute, Attribution};
use crate::json::quote;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{percentile, percentile_index, ratio};
use crate::trace::{write_trace, Layer, Tracer};
use crate::workloads::{self, Counters, Size, Workload};

/// Set-ups on either side of the timed loop of an untraced run;
/// `setup_s` is the fastest of them all. The host's bursts last seconds
/// to minutes: one that slows the set-ups before the loop has as a rule
/// passed when the ones after it run.
const SETUPS_PER_SIDE: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where scratch files and the trace go: the directory the binary
    /// was built into, so nothing lands in a source directory.
    pub work_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in the order of the metric lists.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The result line of the run contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// This process's own scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(work_dir: &Path) -> Result<Scratch, String> {
        let dir = work_dir
            .join("perfbench-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits in the build directory
        // and is overwritten by the next process with this id.
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One executed op.
#[derive(Debug, Clone, Copy)]
struct Executed {
    index: usize,
    nanos: u64,
    digest: u64,
    charged: u64,
    ok: bool,
}

/// When a pass stops: always at a block boundary.
#[derive(Debug, Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Blocks(usize),
}

#[derive(Debug, Default)]
struct Pass {
    log: Vec<Executed>,
    blocks: usize,
    parked_errors: u64,
    first_error: Option<String>,
}

fn pass(workload: &mut dyn Workload, tracer: Option<&Tracer>, until: Until) -> Pass {
    let mut out = Pass::default();
    let started = Instant::now();
    let (ops, block) = (workload.ops(), workload.block());
    let mut next = 0usize;
    loop {
        for _ in 0..block {
            let index = next % ops;
            next += 1;
            let result = match tracer {
                Some(t) => {
                    t.set_op(out.log.len() as u32);
                    workload.run_traced(index)
                }
                None => workload.run(index),
            };
            let parked = workload.after_op();
            if parked.is_err() {
                out.parked_errors += 1;
            }
            let executed = match result.and_then(|t| parked.map(|()| t)) {
                Ok(t) => Executed {
                    index,
                    nanos: t.nanos,
                    digest: t.output.digest(),
                    charged: t.output.charged,
                    ok: true,
                },
                Err(e) => {
                    out.first_error
                        .get_or_insert_with(|| format!("{}: {e}", workload.describe(index)));
                    Executed {
                        index,
                        nanos: 0,
                        digest: 0,
                        charged: 0,
                        ok: false,
                    }
                }
            };
            out.log.push(executed);
        }
        out.blocks += 1;
        let done = match until {
            Until::Elapsed(limit) => started.elapsed() >= limit,
            Until::Blocks(n) => out.blocks >= n,
        };
        if done {
            return out;
        }
    }
}

/// Marks as failed every op whose digest differs from the first run of
/// the same list entry, and every run of an entry the oracle rejects.
/// Returns the number of failed ops.
fn verify(workload: &mut dyn Workload, logs: &mut [&mut Vec<Executed>]) -> Result<u64, String> {
    let mut first: BTreeMap<usize, u64> = BTreeMap::new();
    for e in logs.iter_mut().flat_map(|log| log.iter_mut()) {
        if e.ok && *first.entry(e.index).or_insert(e.digest) != e.digest {
            e.ok = false;
        }
    }
    let mut rejected: HashMap<usize, bool> = HashMap::new();
    for (&index, &seen) in &first {
        let wrong = !workload.verify(index, seen)?;
        if wrong {
            println!("  oracle rejects op {index}: {}", workload.describe(index));
        }
        rejected.insert(index, wrong);
    }
    let mut failed = 0;
    for e in logs.iter_mut().flat_map(|log| log.iter_mut()) {
        if e.ok && rejected.get(&e.index).copied().unwrap_or(false) {
            e.ok = false;
        }
        failed += u64::from(!e.ok);
    }
    Ok(failed)
}

/// The fastest successful execution of every piece of work in `log`,
/// keyed by `Workload::same_work`.
///
/// The sandbox is a virtual machine on a shared host that takes the
/// processor away in bursts lasting seconds to minutes; an op that hands
/// work to another thread then waits for a core the guest does not have,
/// and runs two or three times slower. A percentile of the raw times
/// measures the host. The fastest of many executions of the same work
/// is what the program costs when nothing else runs, and it repeats.
fn floors(same_work: impl Fn(usize) -> usize, log: &[Executed]) -> HashMap<usize, u64> {
    let mut floor: HashMap<usize, u64> = HashMap::new();
    for e in log.iter().filter(|e| e.ok) {
        floor
            .entry(same_work(e.index))
            .and_modify(|least| *least = (*least).min(e.nanos))
            .or_insert(e.nanos);
    }
    floor
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    let scratch = Scratch::create(&config.work_dir)?;
    if config.trace {
        traced(config, &scratch.0)
    } else {
        untraced(config, &scratch.0)
    }
}

fn untraced(config: &Config, scratch: &Path) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut time_setup = |dir: &Path| -> Result<Box<dyn Workload>, String> {
        let started = Instant::now();
        let workload = workloads::setup(&config.workload, config.seed, config.size, None, dir)?;
        setups.push(started.elapsed().as_secs_f64());
        Ok(workload)
    };
    let mut workload = None;
    for _ in 0..SETUPS_PER_SIDE {
        // Drop the previous build first, so the peak is one workload's.
        drop(workload.take());
        workload = Some(time_setup(scratch)?);
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let mut timed = pass(
        workload.as_mut(),
        None,
        Until::Elapsed(Duration::from_secs_f64(config.seconds)),
    );
    let rss = peak_rss_mib()?;
    // The second half of the set-ups, in a directory of their own: the
    // measured workload still holds its files for the oracles.
    let again = scratch.join("again");
    std::fs::create_dir_all(&again).map_err(|e| format!("{}: {e}", again.display()))?;
    for _ in 0..SETUPS_PER_SIDE {
        drop(time_setup(&again)?);
    }
    let failed = verify(workload.as_mut(), &mut [&mut timed.log])?;

    let ok: Vec<&Executed> = timed.log.iter().filter(|e| e.ok).collect();
    let floor = floors(|i| workload.same_work(i), &timed.log);
    // Every executed op counts with the floor of its work, so the mix
    // is the executed one and the times are the undisturbed ones.
    let floor_of = |e: &Executed| floor[&workload.same_work(e.index)];
    let busy: u64 = ok.iter().map(|e| e.nanos).sum();
    let floor_busy: u64 = ok.iter().map(|e| floor_of(e)).sum();
    let mut by_latency: Vec<&Executed> = ok.clone();
    by_latency.sort_by_key(|e| floor_of(e));
    let latencies: Vec<f64> = by_latency
        .iter()
        .map(|e| floor_of(e) as f64 / 1e6)
        .collect();
    // The charged cost is over the first pass of the list only, so it
    // does not depend on how far a run of this length gets.
    let first_pass: Vec<&Executed> = timed.log[..timed.log.len().min(workload.ops())]
        .iter()
        .filter(|e| workload.charge_repeats(e.index))
        .collect();
    let charged =
        first_pass.iter().map(|e| e.charged as f64).sum::<f64>() / first_pass.len().max(1) as f64;

    let values = [
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        if floor_busy > 0 {
            ok.len() as f64 / seconds(floor_busy)
        } else {
            0.0
        },
        percentile(&latencies, 0.5).unwrap_or(0.0),
        percentile(&latencies, 0.99).unwrap_or(0.0),
        charged,
        rss,
    ];

    println!(
        "workload {}  seed {}  {} s closed loop, one client  ({} set-ups, fastest reported)",
        config.workload,
        config.seed,
        config.seconds,
        setups.len()
    );
    println!(
        "  ops {} in {} blocks of {} ({} passes of the {}-op list), failed {}",
        timed.log.len(),
        timed.blocks,
        workload.block(),
        timed.log.len() as f64 / workload.ops() as f64,
        workload.ops(),
        failed
    );
    println!(
        "  {} distinct pieces of work, {:.1} executions each; busy {:.3} s, {:.3} s at the floors: \
         the run was {:.2}x slower than its fastest executions",
        floor.len(),
        ok.len() as f64 / floor.len().max(1) as f64,
        seconds(busy),
        seconds(floor_busy),
        ratio(busy as f64, floor_busy as f64)
    );
    if let Some(e) = &timed.first_error {
        println!("  first error: {e}");
    }
    if !by_latency.is_empty() {
        for (label, p) in [("p50", 0.5), ("p99", 0.99)] {
            let at = by_latency[percentile_index(by_latency.len(), p)];
            println!(
                "  {label} of {} samples falls in class {}: {}",
                by_latency.len(),
                workload.class_of(at.index),
                workload.describe(workload.same_work(at.index))
            );
        }
    }
    let mut classes: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for e in &ok {
        let (floors, raw) = classes.entry(workload.class_of(e.index)).or_default();
        floors.push(floor_of(e) as f64 / 1e6);
        raw.push(e.nanos as f64 / 1e6);
    }
    println!(
        "  {:<20} {:>7} {:>7} {:>15} {:>13} {:>11}",
        "class", "ops", "share", "median floor ms", "median raw ms", "max raw ms"
    );
    for (class, (mut floors, mut raw)) in classes {
        floors.sort_by(f64::total_cmp);
        raw.sort_by(f64::total_cmp);
        println!(
            "  {:<20} {:>7} {:>6.1}% {:>15.4} {:>13.4} {:>11.4}",
            class,
            raw.len(),
            100.0 * raw.len() as f64 / ok.len() as f64,
            percentile(&floors, 0.5).unwrap_or(0.0),
            percentile(&raw, 0.5).unwrap_or(0.0),
            raw.last().copied().unwrap_or(0.0)
        );
    }
    let metrics: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit.to_owned()))
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    Ok(RunResult {
        correct: failed == 0 && timed.first_error.is_none(),
        attempted: timed.log.len() as u64,
        failed,
        metrics,
    })
}

fn delta(before: &Counters, after: &Counters, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn traced(config: &Config, scratch: &Path) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let mut workload = workloads::setup(
        &config.workload,
        config.seed,
        config.size,
        Some(std::sync::Arc::clone(&tracer)),
        scratch,
    )?;
    // The same blocks twice: untraced for the baseline and the layers'
    // own counters, then traced. A third of the run length each keeps a
    // traced run, probes included, no longer than an untraced one.
    let before = workload.counters();
    let mut plain = pass(
        workload.as_mut(),
        None,
        Until::Elapsed(Duration::from_secs_f64(config.seconds / 3.0)),
    );
    let after = workload.counters();
    tracer.drain();
    let mut spans_on = pass(
        workload.as_mut(),
        Some(&tracer),
        Until::Blocks(plain.blocks),
    );
    let spans = tracer.drain();
    let attribution = attribute(&spans, workload.refined_layer());
    let failed = verify(workload.as_mut(), &mut [&mut plain.log, &mut spans_on.log])?;
    drop(workload);

    let trace_dir = config.work_dir.join("benchmark");
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let trace_path = trace_dir.join(format!("trace-{}.json", config.workload));
    write_trace(&trace_path, &config.workload, &spans)?;

    let mut values = probes::run(config.seed, config.size, scratch)?;
    let ops = plain.log.len() as f64;
    let busy = |p: &Pass| p.log.iter().map(|e| e.nanos).sum::<u64>() as f64;
    let d = |name| delta(&before, &after, name);
    let layer = |l| attribution.share(l);
    let pool_lookups = d("pool.hits") + d("pool.reads");
    let from_run: [(&str, f64); 17] = [
        ("garlic.planner.share", layer(Layer::GarlicPlanner)),
        ("garlic.repository.share", layer(Layer::GarlicRepository)),
        (
            "garlic.catalog.materializations_per_op",
            attribution.calls(Layer::GarlicRepository, "source_for") as f64 / ops,
        ),
        ("middleware.engine.self_share", layer(Layer::Engine)),
        (
            "middleware.engine.cache_hit_rate",
            ratio(
                d("engine.cache_hits"),
                d("engine.cache_hits") + d("engine.cache_misses"),
            ),
        ),
        (
            "middleware.engine.cache_evictions_per_op",
            d("engine.cache_evictions") / ops,
        ),
        (
            "middleware.engine.worker_spawns_per_op",
            d("engine.worker_spawns") / ops,
        ),
        ("middleware.algorithms.share", layer(Layer::Algorithms)),
        ("middleware.store.share", layer(Layer::Store)),
        (
            "middleware.store.pages_skipped_share",
            ratio(d("pool.skipped"), d("pool.skipped") + pool_lookups),
        ),
        (
            "middleware.store.parked_errors",
            (plain.parked_errors + spans_on.parked_errors) as f64,
        ),
        (
            "middleware.store.pool.hit_rate",
            ratio(d("pool.hits"), pool_lookups),
        ),
        (
            "middleware.store.pool.page_reads_per_op",
            d("pool.reads") / ops,
        ),
        (
            "middleware.store.pool.evictions_per_op",
            d("pool.evictions") / ops,
        ),
        (
            "middleware.store.pool.readahead_loads_per_op",
            d("pool.readahead_loads") / ops,
        ),
        (
            "middleware.store.pool.resident_pages",
            after.get("pool.resident_pages").copied().unwrap_or(0.0),
        ),
        ("bench.span_coverage_share", attribution.coverage()),
    ];
    for (name, value) in from_run {
        values.insert(name.to_owned(), value);
    }
    values.insert(
        "bench.trace_overhead_share".to_owned(),
        1.0 - ratio(busy(&plain), busy(&spans_on)),
    );

    println!(
        "workload {}  seed {}  traced: {} ops ({} blocks) untraced, then the same ops with spans",
        config.workload,
        config.seed,
        plain.log.len(),
        plain.blocks
    );
    println!(
        "  {} spans written to {}; failed {}",
        spans.len(),
        trace_path.display(),
        failed
    );
    for e in [&plain.first_error, &spans_on.first_error]
        .into_iter()
        .flatten()
    {
        println!("  first error: {e}");
    }
    print_layer_row(&attribution);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        println!("  {name:<52} {value:>16.4} {unit}");
        metrics.push((name.to_owned(), value, unit.to_owned()));
    }
    Ok(RunResult {
        correct: failed == 0 && plain.first_error.is_none() && spans_on.first_error.is_none(),
        attempted: (plain.log.len() + spans_on.log.len()) as u64,
        failed,
        metrics,
    })
}

/// This workload's row of the layer × workload self-time matrix.
fn print_layer_row(attribution: &Attribution) {
    println!(
        "  self time by layer, as a share of {:.3} s of traced op time:",
        seconds(attribution.op_ns)
    );
    for layer in Layer::ALL {
        println!(
            "    {:<28} {:>7.2}%",
            layer.name(),
            100.0 * attribution.share(layer)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_floor_is_the_fastest_successful_execution_of_the_same_work() {
        let executed = |index, nanos, ok| Executed {
            index,
            nanos,
            digest: 0,
            charged: 0,
            ok,
        };
        // Ops 0 and 2 do the same work; the failed execution of op 1
        // (0 ns) is no sample.
        let log = [
            executed(0, 50, true),
            executed(1, 0, false),
            executed(2, 30, true),
            executed(1, 70, true),
            executed(0, 40, true),
        ];
        let floor = floors(|i| if i == 2 { 0 } else { i }, &log);
        assert_eq!(floor, HashMap::from([(0, 30), (1, 70)]));
    }
}
