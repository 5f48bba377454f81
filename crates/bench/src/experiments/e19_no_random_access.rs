//! E19 — the no-random-access regime (extension; §4.2).
//!
//! "Given an object from one input stream, the algorithm needs to be
//! able to find the matching attributes of the same object in the
//! second stream … This information may not be easily available."
//! When it is *not* available at all, A₀ cannot run; NRA answers the
//! same top-k question from sorted access alone, paying deeper streams
//! and (sometimes) returning grade intervals instead of exact values.
//!
//! The second table is the same regime in wall-clock: what one charged
//! access costs in bookkeeping under TA, NRA, CA, A₀ and the naive scan.
//! The planner prices accesses only (`DESIGN.md` §11), which is honest
//! as long as these stay within a small factor of each other —
//! `nra_vs_ta_ns_per_access` and `naive_vs_ta_ns_per_access` are gated
//! where they are emitted. Its last row is what the engine adds
//! to that price on memory-speed lists (`engine_vs_scalar_many8`, gated
//! too).
//!
//! The third table is the naive scan's steady state: minor page faults
//! per scan over lists of 65 536 while other queries run between two
//! scans (`naive_minor_faults_per_run`, gated) — what the thread's
//! spare table in `algorithms/book.rs` saves.
//!
//! The fourth table is the paper's own setting (§4): lists behind
//! autonomous subsystems that charge a round trip per call. It counts
//! sorted-access calls instead of sleeping through them, so the
//! engine's batching and the naive scan's drain are priced
//! deterministically (`engine_vs_scalar_sorted_calls` and
//! `naive_sorted_calls_per_access`, gated).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::{nra_intervals, Cursor};
use fmdb_middleware::engine::Engine;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{TopKQuery, TopKRequest};
use fmdb_middleware::source::{Oid, SourceError, SourceInfo, Subsystem, VecSource};
use fmdb_middleware::workload::{correlated_pair, independent_uniform};

use crate::report::{f3, int, Bound, Report, Table};

/// Ceiling on `nra_vs_ta_ns_per_access`: ≈ 70 while the threshold
/// kernel re-ranked every open object every round, ≈ 2.5 since its
/// bookkeeping is incremental. The same ceiling holds
/// `ca_vs_ta_ns_per_access`: ≈ 28 while CA scanned every candidate for
/// its target, ≈ 6 since it keeps its targets under min.
const MAX_NRA_VS_TA: f64 = 10.0;

/// Ceiling on `naive_vs_ta_ns_per_access`: 1.5–1.8 while the book
/// hashed every sighting and the answer was a sort of everything seen,
/// 0.85–1.05 since objects are numbered through an array and the top k
/// selected.
const MAX_NAIVE_VS_TA: f64 = 1.4;

/// Ceiling on `engine_vs_scalar_many8`: 3.7–4.6 while the engine put a
/// lock-striped LRU grade cache and a source registry in front of every
/// probe of a memory-speed list; 1.4–1.6 in the quick suite while it
/// still locked a source on every subsystem call; ≈ 1.1 since a request
/// locks each source once for its whole run. Gated as the median of the
/// turns' ratios (1.03–1.10 over eighteen whole quick suites on a
/// 2-core x86-64 VM) since the fastest engine turn over the fastest
/// scalar turn, a ratio of floors from different turns, read 1.57 on
/// a loud host.
const MAX_ENGINE_VS_SCALAR: f64 = 1.3;

/// Ceiling on `engine_vs_scalar_sorted_calls`: the engine refills a
/// list `EngineConfig::batch_size` (64) objects per call where scalar
/// A₀ asks for one, so the ratio sits near 1/64; 1/16 leaves room for
/// the last, partial batch of each list.
const MAX_ENGINE_VS_SCALAR_CALLS: f64 = 1.0 / 16.0;

/// Ceiling on `naive_sorted_calls_per_access`: 1 while the scan pulled
/// one entry a call, ≈ 1/256 since it drains each list 256 entries a
/// call; 1/64 leaves room for the last, partial batch of each list.
const MAX_NAIVE_CALLS_PER_ACCESS: f64 = 1.0 / 64.0;

/// Ceiling on `naive_minor_faults_per_run`: ≈ 880 a scan while every
/// run allocated its book and the allocator gave it back at the end,
/// 0 since a thread keeps its table.
const MAX_NAIVE_FAULTS: f64 = 64.0;
use crate::runners::{fastest_us, RoundRatio, RunCfg};

/// Charged accesses and wall-clock nanoseconds per charged access of
/// one scalar run, the fastest of five.
fn ns_per_access(plan: PhysicalPlan, sources: &mut [VecSource], k: usize) -> (u64, f64) {
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let mut best = f64::INFINITY;
    let mut accesses = 0;
    for _ in 0..5 {
        let start = Instant::now();
        let result = Cursor::once(plan, 0.0, &mut refs, &Min, k).expect("valid run");
        best = best.min(start.elapsed().as_nanos() as f64);
        accesses = result.stats.database_access_cost();
    }
    (accesses, best / accesses.max(1) as f64)
}

/// perfbench's `run_many8` — eight forced-TA requests over lists of
/// 4 096, arities 3, 3, 3, 2, 3, 4, 3, 2 — through `Engine::run` and
/// under scalar TA (`Cursor::once`): charged accesses of the
/// eight, the engine's floor in microseconds, and the engine ÷ scalar
/// ratio over 100 turns. The engine is a private one, so the
/// experiment's own access totals stay what they were.
fn many8(k: usize) -> (u64, f64, RoundRatio) {
    let mut sets: Vec<Vec<VecSource>> = [3usize, 3, 3, 2, 3, 4, 3, 2]
        .into_iter()
        .zip(0u64..)
        .map(|(arity, seed)| independent_uniform(1 << 12, arity, seed))
        .collect();
    let requests: Vec<TopKRequest> = sets
        .iter()
        .map(|set| {
            TopKQuery::compose()
                .sources(set.iter().cloned())
                .scoring(Min)
                .k(k)
                .policy(ExecPolicy::new().plan(PhysicalPlan::Ta))
                .request()
                .expect("valid request")
        })
        .collect();
    let engine = Engine::default();
    let accesses = requests
        .iter()
        .map(|request| engine.run(request).expect("valid run").stats)
        .map(|stats| stats.database_access_cost())
        .sum();
    // A turn times the engine and then the scalar kernel, so a burst on
    // the host lands on both halves of one turn's ratio.
    let turns: Vec<(f64, f64)> = (0..100)
        .map(|_| {
            let through_engine = fastest_us(1, || {
                for request in &requests {
                    engine.run(request).expect("valid run");
                }
            });
            let scalar = fastest_us(1, || {
                for set in &mut sets {
                    let mut refs: Vec<&mut dyn Subsystem> =
                        set.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
                    Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, k).expect("valid run");
                }
            });
            (through_engine, scalar)
        })
        .collect();
    let floor = turns.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    (accesses, floor, RoundRatio::of(turns))
}

/// A list behind a subsystem that charges per call (§4): every
/// sorted-access call — one `sorted_next`, or one `sorted_batch` of any
/// length — is one round trip on the shared counter. Random access is
/// a local index probe and is not counted.
struct PerCall {
    inner: VecSource,
    calls: Arc<AtomicU64>,
}

impl PerCall {
    fn round_trip(&self) {
        // ordering(Relaxed): a tally read after the run that made it,
        // on the same thread; it orders no other memory.
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Subsystem for PerCall {
    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        self.round_trip();
        Subsystem::sorted_next(&mut self.inner)
    }

    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        self.round_trip();
        Subsystem::sorted_batch(&mut self.inner, n)
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        Subsystem::random_access(&mut self.inner, oid)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        Subsystem::random_batch(&mut self.inner, oids)
    }

    fn rewind(&mut self) {
        Subsystem::rewind(&mut self.inner);
    }

    fn info(&self) -> SourceInfo {
        Subsystem::info(&self.inner)
    }
}

/// Scalar A₀ and `Engine::run` under a policy naming A₀ over the same `n`-object
/// lists (m = 4, min, k = 10), each list behind a [`PerCall`]
/// subsystem: the charged sorted accesses (the charges asserted equal,
/// with equal answers) and the sorted-access calls of each side.
fn sorted_calls(n: usize) -> (u64, u64, u64) {
    let calls = Arc::new(AtomicU64::new(0));
    let lists = || {
        independent_uniform(n, 4, 7)
            .into_iter()
            .map(|inner| PerCall {
                inner,
                calls: Arc::clone(&calls),
            })
    };
    let mut sources: Vec<PerCall> = lists().collect();
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let scalar = Cursor::once(PhysicalPlan::Fa, 0.0, &mut refs, &Min, 10).expect("valid run");
    // ordering(Relaxed): single-threaded tally; see `PerCall::round_trip`.
    let scalar_calls = calls.swap(0, Ordering::Relaxed);
    let request = TopKQuery::compose()
        .sources(lists())
        .scoring(Min)
        .k(10)
        .policy(ExecPolicy::new().plan(PhysicalPlan::Fa))
        .request()
        .expect("valid request");
    let batched = Engine::default().run(&request).expect("valid run");
    // ordering(Relaxed): `Engine::run` ran the kernel on this thread.
    let engine_calls = calls.load(Ordering::Relaxed);
    assert_eq!(
        batched.answers, scalar.answers,
        "batching changed A0's answers"
    );
    assert_eq!(
        (batched.stats.sorted, batched.stats.random),
        (scalar.stats.sorted, scalar.stats.random),
        "batching changed A0's charge"
    );
    (scalar.stats.sorted, scalar_calls, engine_calls)
}

/// Scalar naive scan over the same `n`-object lists (m = 4, min,
/// k = 10), each behind a [`PerCall`] subsystem: the charged sorted
/// accesses and the sorted-access calls.
fn naive_sorted_calls(n: usize) -> (u64, u64) {
    let calls = Arc::new(AtomicU64::new(0));
    let mut sources: Vec<PerCall> = independent_uniform(n, 4, 7)
        .into_iter()
        .map(|inner| PerCall {
            inner,
            calls: Arc::clone(&calls),
        })
        .collect();
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let naive = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut refs, &Min, 10).expect("valid run");
    // ordering(Relaxed): single-threaded tally; see `PerCall::round_trip`.
    (naive.stats.sorted, calls.load(Ordering::Relaxed))
}

/// Minor page faults the calling thread has taken so far: `minflt`,
/// field 10 of `/proc/thread-self/stat` (per thread, so what other
/// threads of the process fault in is not counted). `None` where there
/// is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Field 2, the command, is parenthesised and may hold spaces.
    let after_command = stat.get(stat.rfind(')')? + 1..)?;
    after_command.split_whitespace().nth(7)?.parse().ok()
}

/// `scans` naive scans over two lists of 65 536 (min, k = 10), with
/// scalar TA and A₀ over three such lists before each, as perfbench's
/// op mix interleaves them: each scan's minor page faults (NaN where
/// they cannot be read) and the fastest scan in microseconds.
fn naive_scan_faults(scans: usize) -> (Vec<f64>, f64) {
    let n = 1 << 16;
    let mut pair = independent_uniform(n, 2, 17);
    let mut three = independent_uniform(n, 3, 19);
    let mut faults = Vec::with_capacity(scans);
    let mut floor = f64::INFINITY;
    for _ in 0..scans {
        let mut refs: Vec<&mut dyn Subsystem> =
            three.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
        Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, 10).expect("valid run");
        Cursor::once(PhysicalPlan::Fa, 0.0, &mut refs, &Min, 10).expect("valid run");
        let mut refs: Vec<&mut dyn Subsystem> =
            pair.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
        let before = minor_faults();
        let start = Instant::now();
        Cursor::once(PhysicalPlan::FullScan, 0.0, &mut refs, &Min, 10).expect("valid run");
        floor = floor.min(start.elapsed().as_secs_f64() * 1e6);
        let taken = before
            .zip(minor_faults())
            .map_or(f64::NAN, |(before, after)| (after - before) as f64);
        faults.push(taken);
    }
    (faults, floor)
}

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E19",
        "top-k without random access: NRA vs A0",
        "§4.2: cross-subsystem id lookups \"may not be easily available\" — the regime where \
         A0 is inapplicable and sorted access must carry the whole query",
    );
    let n = cfg.pick(1 << 14, 1 << 10);
    let mut t = Table::new(
        format!("sorted/random accesses and exactness, N = {n}, m = 2, min"),
        &[
            "workload",
            "k",
            "A0 sorted",
            "A0 random",
            "NRA sorted",
            "NRA exact grades",
            "NRA/A0 total",
        ],
    );
    let workloads: [(&str, f64); 3] = [("independent", 0.0), ("correlated", 0.8), ("anti", -0.8)];
    for (name, rho) in workloads {
        for &k in &[5usize, 25] {
            let mut total_fa_sorted = 0u64;
            let mut total_fa_random = 0u64;
            let mut total_nra_sorted = 0u64;
            let mut exact = 0usize;
            let mut answers = 0usize;
            for seed in 0..cfg.seeds {
                let make = |s: u64| {
                    if name == "independent" {
                        independent_uniform(n, 2, s)
                    } else {
                        correlated_pair(n, rho, s)
                    }
                };
                let mut a = make(seed);
                let mut refs: Vec<&mut dyn Subsystem> =
                    a.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
                let fa =
                    Cursor::once(PhysicalPlan::Fa, 0.0, &mut refs, &Min, k).expect("valid run");
                total_fa_sorted += fa.stats.sorted;
                total_fa_random += fa.stats.random;

                let mut b = make(seed);
                let mut refs_b: Vec<&mut dyn Subsystem> =
                    b.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
                let nra = nra_intervals(&mut refs_b, &Min, k).expect("valid run");
                assert_eq!(nra.stats.random, 0);
                total_nra_sorted += nra.stats.sorted;
                exact += nra.answers.iter().filter(|x| x.is_exact()).count();
                answers += nra.answers.len();
            }
            let seeds = cfg.seeds;
            let fa_total = (total_fa_sorted + total_fa_random) / seeds;
            t.row(vec![
                name.to_owned(),
                k.to_string(),
                int(total_fa_sorted / seeds),
                int(total_fa_random / seeds),
                int(total_nra_sorted / seeds),
                format!("{:.0}%", 100.0 * exact as f64 / answers.max(1) as f64),
                f3((total_nra_sorted / seeds) as f64 / fa_total.max(1) as f64),
            ]);
        }
    }
    report.table(t);

    // The same N in quick and full mode: a ratio of two floors, kept
    // small enough to run best-of-5 in the quick suite. The naive scan's
    // page faults have a table of their own below.
    let n = 1 << 12;
    let mut t = Table::new(
        format!("bookkeeping per charged access, N = {n}, m = 3, min, k = 10 (scalar, best of 5)"),
        &["algorithm", "charged accesses", "ns / access", "vs TA"],
    );
    let mut sources = independent_uniform(n, 3, 7);
    let (ta_accesses, ta) = ns_per_access(PhysicalPlan::Ta, &mut sources, 10);
    let (nra_accesses, nra) = ns_per_access(PhysicalPlan::Nra, &mut sources, 10);
    let (ca_accesses, ca) = ns_per_access(PhysicalPlan::Ca { h: 10 }, &mut sources, 10);
    let (fa_accesses, fa) = ns_per_access(PhysicalPlan::Fa, &mut sources, 10);
    let (naive_accesses, naive) = ns_per_access(PhysicalPlan::FullScan, &mut sources, 10);
    for (name, accesses, ns) in [
        ("TA", ta_accesses, ta),
        ("NRA", nra_accesses, nra),
        ("CA (h = 10)", ca_accesses, ca),
        ("A0", fa_accesses, fa),
        ("naive", naive_accesses, naive),
    ] {
        t.row(vec![name.to_owned(), int(accesses), f3(ns), f3(ns / ta)]);
    }
    // Not the list above: its own eight queries, against scalar TA on
    // the same eight.
    let (many8_accesses, through_engine, many8_ratio) = many8(10);
    t.row(vec![
        "TA x8 via Engine::run".to_owned(),
        int(many8_accesses),
        f3(through_engine * 1e3 / many8_accesses.max(1) as f64),
        f3(many8_ratio.median),
    ]);
    report.table(t);

    let scans = cfg.pick(15, 9);
    let (faults, scan_floor) = naive_scan_faults(scans);
    let mut sorted_faults = faults.clone();
    sorted_faults.sort_by(f64::total_cmp);
    let median_faults = sorted_faults[scans / 2];
    let mut t = Table::new(
        format!(
            "naive scan's steady state, N = 65536, m = 2, min, k = 10, {scans} scans \
             (scalar TA and A0 over three lists before each)"
        ),
        &[
            "minor faults, first scan",
            "median",
            "max after the first",
            "fastest scan (us)",
        ],
    );
    t.row(vec![
        format!("{:.0}", faults[0]),
        format!("{median_faults:.0}"),
        format!("{:.0}", faults[1..].iter().copied().fold(0.0, f64::max)),
        format!("{scan_floor:.0}"),
    ]);
    report.table(t);

    let n = cfg.pick(1 << 16, 1 << 14);
    let (fa_sorted, scalar_calls, engine_calls) = sorted_calls(n);
    let calls_ratio = engine_calls as f64 / scalar_calls.max(1) as f64;
    let (naive_sorted, naive_calls) = naive_sorted_calls(n);
    let naive_calls_per_access = naive_calls as f64 / naive_sorted.max(1) as f64;
    let mut t = Table::new(
        format!("sorted-access calls to per-call subsystems, N = {n}, m = 4, min, k = 10"),
        &[
            "run",
            "charged sorted accesses",
            "sorted-access calls",
            "calls / charged sorted access",
        ],
    );
    for (name, sorted, calls) in [
        ("scalar A0", fa_sorted, scalar_calls),
        ("A0 via Engine::run", fa_sorted, engine_calls),
        ("scalar naive scan", naive_sorted, naive_calls),
    ] {
        t.row(vec![
            name.to_owned(),
            int(sorted),
            int(calls),
            format!("{:.4}", calls as f64 / sorted.max(1) as f64),
        ]);
    }
    report.table(t);
    let timed = "a kernel run that takes no time means the timer broke";
    report
        .gated("ta_ns_per_access", ta, Bound::Positive, timed)
        .gated("nra_ns_per_access", nra, Bound::Positive, timed)
        .gated("ca_h10_ns_per_access", ca, Bound::Positive, timed)
        .gated(
            "nra_vs_ta_ns_per_access",
            nra / ta,
            Bound::PositiveAtMost(MAX_NRA_VS_TA),
            "an access under NRA costs that many times the CPU of one under TA, and the \
             planner prices accesses only; look at the per-round path of \
             `algorithms/threshold.rs` first",
        )
        .gated(
            "ca_vs_ta_ns_per_access",
            ca / ta,
            Bound::PositiveAtMost(MAX_NRA_VS_TA),
            "an access under CA (h = 10) costs that many times the CPU of one under TA, and \
             the planner prices accesses only; look at how `Seen` in \
             `algorithms/threshold.rs` picks CA's target first (under min it should read \
             `MinTargets`' heaps, not scan every candidate)",
        )
        .gated(
            "naive_vs_ta_ns_per_access",
            naive / ta,
            Bound::PositiveAtMost(MAX_NAIVE_VS_TA),
            "an access of the naive scan costs that many times one under TA, though it does \
             less per access (number the object, record the grade; no probe, no bound until \
             the end); look at `Table::number` in `algorithms/book.rs` (one array load per \
             dense oid) and `algorithms::finalize` (a selection of k, not a sort of everything \
             seen) first",
        )
        .gated(
            "engine_vs_scalar_many8",
            many8_ratio.median,
            Bound::PositiveAtMost(MAX_ENGINE_VS_SCALAR),
            "`Engine::run` costs that many times the scalar kernel on memory-speed lists; \
             look at what `engine::EngineSource` does per call first (it should be one call \
             on the held source, no lock) and at `request::lock_all` (one lock per source \
             per request)",
        )
        .gated(
            "engine_vs_scalar_many8_spread",
            many8_ratio.spread,
            Bound::AtLeast(1.0),
            "the largest turn ratio is below the smallest; look at `RoundRatio::of` in \
             `runners` first",
        )
        .gated(
            "engine_vs_scalar_sorted_calls",
            calls_ratio,
            Bound::PositiveAtMost(MAX_ENGINE_VS_SCALAR_CALLS),
            "the engine no longer fetches `EngineConfig::batch_size` objects per sorted-access \
             call; look at `engine::EngineSource::sorted_next` first",
        )
        .gated(
            "naive_sorted_calls_per_access",
            naive_calls_per_access,
            Bound::PositiveAtMost(MAX_NAIVE_CALLS_PER_ACCESS),
            "the naive scan no longer reads a list a batch at a time; look at `Book::drain` \
             in `algorithms/book.rs` and at the scan (it should drain, not pull) first",
        )
        .gated(
            "naive_minor_faults_per_run",
            median_faults,
            Bound::Within(0.0, MAX_NAIVE_FAULTS),
            "a steady-state naive scan faults its book in again: the thread's spare table in \
             `algorithms/book.rs` (`Book::open` takes it, a dropped `Table` gives it back \
             cleared) is no longer kept, or a scan outgrew `SPARE_BYTES`; look there first",
        )
        .metric("naive_scan_floor_us", scan_floor);

    report.note(
        "NRA's sorted streams run only slightly deeper than A0's, and since it never pays \
         for random probes its *total* cost is about half of A0's on independent data; \
         only strong positive correlation (where A0 stops almost immediately) reverses \
         the ranking. Under min the exactness column is 100% by construction: an object \
         with any unknown conjunct has lower bound 0, so certified top-k members are \
         always fully resolved — means and other rules can return genuine intervals.",
    );
    report.note(format!(
        "Bookkeeping: between two rounds only the list bottoms move, so the kernel \
         re-derives a lower bound only for the objects a sorted access just touched and \
         looks at an upper bound only when it is the one blocking the halt (DESIGN.md §10). \
         An access under NRA then costs about what one under TA does, and fewer are \
         charged — picking the schedule with fewer accesses is right in wall-clock too. \
         The run fails if an NRA access costs more than {MAX_NRA_VS_TA}x a TA access (it \
         was ~70x while every open object was re-ranked every round), and so does a CA \
         access: under min CA reads its target off heaps kept per set of lists that revealed \
         an object (it was ~28x while it scanned every candidate every h-th round). A0 and \
         the naive scan keep the same book: an object is numbered by one array load, and \
         the answer is a selection of the best k, so a \
         naive access, which probes nothing, costs about what a TA access does. The run \
         fails above {MAX_NAIVE_VS_TA}x (it was 1.5-1.8x while every sighting was hashed \
         and everything seen was sorted to keep ten). This table uses N = 4096 in quick and \
         full mode alike.",
    ));
    report.note(format!(
        "The last row is the engine's own price on memory-speed lists — proxies, batch \
         copies and one lock per source per request: perfbench's `run_many8` (eight \
         forced-TA requests, N = 4096, m = 2-4) through `Engine::run`, against scalar TA on \
         the same eight: 100 turns, each timing both sides back to back; the ratio is the \
         median of the turns' ratios (`engine_vs_scalar_many8_spread`, their largest / \
         smallest, is gated beside it), and the ns column is the engine's fastest turn \
         (same N in quick and full mode). The run fails above {MAX_ENGINE_VS_SCALAR}x — it \
         read 3.7-4.6x while every probe went through a shared LRU grade cache that no \
         query ever hit (DESIGN.md §18), and 1.4-1.6x while every subsystem call locked its \
         source.",
    ));
    report.note(format!(
        "Steady state: a naive scan of 65536 objects over two lists writes a book of \
         ~3.3 MiB. While every run allocated it and freed it at the end, the allocator gave \
         the memory back and the next scan faulted all of it in again: ~880 minor faults, \
         ~1.6 ms of a ~4.7 ms scan. A thread now keeps its table, cleared, between runs. \
         Faults are read per thread from /proc/thread-self/stat; the first scan of a thread \
         still grows its table. The run fails if the median scan takes more than \
         {MAX_NAIVE_FAULTS} faults.",
    ));
    report.note(format!(
        "Per-call subsystems: the paper's middleware pays a round trip per call to QBIC and \
         its peers, not per object. Both A0 sides charge the same accesses and return the \
         same answers; scalar A0 makes one call per sorted access, the engine one per batch \
         of 64. The run fails above {MAX_ENGINE_VS_SCALAR_CALLS}x. The naive scan reads every \
         list to its end, so it asks for 256 entries a call; the run fails above \
         {MAX_NAIVE_CALLS_PER_ACCESS} calls per charged sorted access. The table counts \
         calls instead of timing them, so it repeats exactly; a wall-clock price for them \
         waits for a virtual-clock workload.",
    ));
    report
}
