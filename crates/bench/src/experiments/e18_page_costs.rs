//! E18 — measured paged-store I/O (§6's open problem: "to give a
//! more realistic cost measure than the definition in \[Fa96\] for the
//! database access cost. This is especially important in the presence
//! of query optimizers.").
//!
//! Earlier revisions *simulated* page costs by wrapping in-memory
//! sources in a paging adapter. This experiment measures the real
//! thing: each source is persisted to a [`fmdb_middleware::store`]
//! file (checksummed fixed-size pages, sorted run + random table) and
//! queried through its buffer pool. We report cold-pool vs warm-pool
//! wall-clock and page I/O across a page-size sweep, and compare a
//! warm paged run against the same query served from memory — the
//! store's claim is that a warm pool keeps out-of-core sources within
//! a small constant factor of in-memory speed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::Cursor;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{Subsystem, VecSource};
use fmdb_middleware::stats::PageIoStats;
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, int, Bound, Report, Table};
use crate::runners::{median, RoundRatio, RunCfg};

/// Scratch directory for store files, inside the workspace `target/`
/// dir so benchmarks never write outside the repository.
fn store_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-stores");
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    dir
}

/// Persists every source to its own store file and opens the stores.
fn persist(sources: &mut [VecSource], page_size: usize, pool_pages: usize) -> Vec<PagedStore> {
    sources
        .iter_mut()
        .enumerate()
        .map(|(i, s)| {
            let path = store_dir().join(format!("e18-p{page_size}-s{i}.fmdb"));
            build_store_from_source(&path, s, &BuildConfig::with_page_size(page_size))
                .expect("build store");
            PagedStore::open(&path, StoreOptions::with_pool_pages(pool_pages)).expect("open store")
        })
        .collect()
}

/// Sums the pool counters across stores.
fn pool_totals(stores: &[PagedStore]) -> PageIoStats {
    stores
        .iter()
        .fold(PageIoStats::ZERO, |acc, s| acc + s.page_io())
}

/// Runs TA over fresh cursors of the given stores, returning
/// `(wall_ms, page I/O charged by this run, answers)`.
fn ta_over_stores(
    stores: &[PagedStore],
    k: usize,
) -> (f64, PageIoStats, Vec<fmdb_core::score::ScoredObject<u64>>) {
    let before = pool_totals(stores);
    let mut cursors: Vec<_> = stores.iter().map(|s| s.source()).collect();
    let mut refs: Vec<&mut dyn Subsystem> = cursors
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let start = Instant::now();
    // A page that fails its checksum fails the run with a typed error.
    let result = Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, k)
        .unwrap_or_else(|e| panic!("paged TA failed: {e}"));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    // A cursor hands its probe hits to its pool when it drops.
    drop(cursors);
    (wall, pool_totals(stores) - before, result.answers)
}

/// Rewinds every source and drains its sorted run; returns wall-clock
/// ms. `black_box` keeps the loop from being folded away.
fn drain(sources: &mut [impl Subsystem]) -> f64 {
    let start = Instant::now();
    for src in sources {
        src.rewind();
        while let Some(pair) = src.sorted_next().expect("no page fails") {
            std::hint::black_box(pair);
        }
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Probes every source once per oid, one scalar `random_access` at a
/// time; returns wall-clock ms.
fn probe(sources: &mut [impl Subsystem], oids: &[u64]) -> f64 {
    let start = Instant::now();
    for src in sources {
        for &oid in oids {
            std::hint::black_box(src.random_access(oid).expect("no page fails"));
        }
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Probes every source with one `random_batch` of `oids`; returns
/// wall-clock ms.
fn probe_batch(sources: &mut [impl Subsystem], oids: &[u64]) -> f64 {
    let start = Instant::now();
    for src in sources {
        std::hint::black_box(src.random_batch(oids).expect("no page fails"));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Rounds behind each warm-vs-memory ratio in a full run.
const REPEATS: usize = 7;

/// Rounds behind each warm-vs-memory ratio in a quick run. A quick
/// round's memory side lasts tens of microseconds, so one burst on the
/// host can move it several-fold; with seven rounds four such bursts
/// moved the median, and whole quick suites read `warm_probe_vs_mem`
/// 17.5–17.9 and `warm_batch_vs_mem` 15.3 on a loud host. All the
/// rounds together cost a few milliseconds.
const QUICK_REPEATS: usize = 31;

/// Ceiling on `warm_ta_vs_mem` (release builds): 1.25× the largest of
/// twelve whole quick suites on a 2-core x86-64 VM (1.49–1.81) since a probe reads its page
/// under the slot's lock. Inside the whole quick suite the ratio read
/// 3.85–5.10 while a probe searched the directory and then the page,
/// 2.58–2.94 once it tried the page and the slot its oid names first,
/// 1.94–2.52 once the pool was a page table, and 2.12–2.49 in suites
/// alternated with the in-place probe while each probe still cloned
/// its frame.
const MAX_WARM_TA_VS_MEM: f64 = 2.27;

/// Ceiling on `warm_probe_vs_mem` (release builds): 1.25× the largest
/// of twelve whole quick suites on a 2-core x86-64 VM (10.4–13.9) since a probe reads its
/// page under the slot's lock and counts its hit on the cursor. While
/// each probe cloned its frame and counted its hit on the pool it read
/// 12.9–31.6 (19.4–25.4 in suites alternated with the change), and
/// with eight hashed LRU stripes 19.0–34.0.
const MAX_WARM_PROBE_VS_MEM: f64 = 17.4;

/// Ceiling on `warm_batch_vs_mem` (release builds): 1.25× the largest
/// of twelve whole quick suites on a 2-core x86-64 VM (10.2–11.8) of the page-ordered batch
/// with its counting pass, each page answered under one slot lock.
const MAX_WARM_BATCH_VS_MEM: f64 = 14.8;

/// Ceiling on `cold_probe_vs_mem` (release builds), midway between
/// twenty whole quick suites on a 2-core x86-64 VM with the checksum in
/// four braids (4.34–5.89) and twenty alternated with them with
/// slice-by-16 put back (6.23–9.10), which the µs ceiling this replaced
/// (5.04 µs a 4 KiB page read, the best of three drains) let through:
/// there slice-by-16 read 3.9–4.2 µs and the braids 2.3–4.2.
const MAX_COLD_PROBE_VS_MEM: f64 = 6.05;

/// The page size of the cold probes: the largest of the sweep, where
/// the checksum is the largest share of a miss (≈ 4.6 µs of ≈ 10).
const COLD_PAGE_SIZE: usize = 16 << 10;

/// Cold probe passes and in-memory drains alternated in one round of
/// `cold_probe_vs_mem`, the fastest of each kept.
const COLD_REPS: usize = 5;

/// One warm-vs-memory comparison over its rounds.
#[derive(Clone, Copy)]
struct WarmVsMem {
    /// Median paged time.
    paged: f64,
    /// Median in-memory time.
    mem: f64,
    /// Median of the rounds' paged ÷ memory ratios.
    ratio: f64,
    /// The rounds' largest ratio ÷ their smallest: how far one round
    /// strays from another on the host that runs them.
    spread: f64,
}

/// Times `paged` and `mem` over `rounds` rounds. A round times the
/// paged side and the memory side back to back and takes their ratio,
/// so a burst on the host lands on both halves of one ratio rather than
/// on one side of the comparison.
fn warm_vs_mem(
    rounds: usize,
    mut paged: impl FnMut() -> f64,
    mut mem: impl FnMut() -> f64,
) -> WarmVsMem {
    let rounds: Vec<(f64, f64)> = (0..rounds).map(|_| (paged(), mem())).collect();
    let RoundRatio {
        median: ratio,
        spread,
    } = RoundRatio::of(rounds.iter().copied());
    WarmVsMem {
        paged: median(rounds.iter().map(|r| r.0).collect()),
        mem: median(rounds.iter().map(|r| r.1).collect()),
        ratio,
        spread,
    }
}

/// Cold page reads against a drain of the same list from memory:
/// 65 536 entries in 16 KiB pages, over `rounds` rounds. A round
/// alternates `COLD_REPS` times a pass of 64 probes, one on each of the
/// first 64 random-table pages with the pool cleared, with a
/// `sorted_next` drain of the in-memory list the store was built from,
/// and keeps the fastest of each. Every probe is a demand read on the
/// measuring thread, so the paged side is the whole price of a miss —
/// `pread` from the OS cache, checksum, frame install, slot lookup —
/// and the memory side moves with the host as the paged side does. The
/// list is drained once before the rounds, so the memory side never
/// times the list putting itself in order. Returns the ratio over the
/// rounds and the median µs per page read.
fn cold_probe_vs_mem(rounds: usize) -> (RoundRatio, f64) {
    let path = store_dir().join("e18-cold-probe.fmdb");
    let mut list = independent_uniform(1 << 16, 1, 18);
    let config = BuildConfig::with_page_size(COLD_PAGE_SIZE);
    build_store_from_source(&path, &mut list[0], &config).expect("build store");
    let store = PagedStore::open(&path, StoreOptions::with_pool_pages(1024)).expect("open store");
    drain(&mut list);
    // A 16 KiB page holds 1 023 entries, so oid 1 024·i is on page i.
    let oids: Vec<u64> = (0..64).map(|i| i << 10).collect();
    let rounds: Vec<(f64, f64, u64)> = (0..rounds)
        .map(|_| {
            let (mut cold, mut mem) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..COLD_REPS {
                store.clear_pool();
                cold = cold.min(probe(&mut [store.source()], &oids) * 1e3);
                mem = mem.min(drain(&mut list) * 1e3);
            }
            let reads = store.page_io().reads;
            assert_eq!(reads, 64, "every cold probe reads its own page");
            (cold, mem, reads)
        })
        .collect();
    let us_per_read = median(
        rounds
            .iter()
            .map(|&(cold, _, reads)| cold / reads as f64)
            .collect(),
    );
    (
        RoundRatio::of(rounds.iter().map(|&(cold, mem, _)| (cold, mem))),
        us_per_read,
    )
}

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E18",
        "paged store I/O: cold vs warm buffer pool, measured",
        "§6: \"give a more realistic cost measure than the definition in [Fa96]\" — the \
         paged store makes the cost physical: cold queries pay page reads, warm queries \
         hit the buffer pool, and a warm top-k runs within a small factor of the \
         in-memory engine",
    );
    let n = cfg.pick(1 << 15, 1 << 11);
    let m = 3usize;
    let k = 50usize;
    // Enough frames that one store's working set fits — warm runs
    // should be all pool hits.
    let pool_pages = cfg.pick(1024, 256);

    let mut sources = independent_uniform(n, m, 7);

    // TA from memory: its answers are what every paged run must return.
    let mem_ta = |sources: &mut [VecSource]| {
        for s in sources.iter_mut() {
            s.rewind();
        }
        let mut refs: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let start = Instant::now();
        let result = Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, k).expect("valid run");
        (start.elapsed().as_secs_f64() * 1e3, result.answers)
    };
    let mem_answers = mem_ta(&mut sources).1;

    let mut t = Table::new(
        format!("TA over the paged store, N = {n}, m = {m}, k = {k}, pool = {pool_pages} pages"),
        &[
            "page size",
            "cold ms",
            "cold page reads",
            "warm ms",
            "warm hit rate",
        ],
    );

    // Defaults reported as the experiment's metrics come from the
    // 4096-byte row.
    let mut cold_wall_ms = 0.0;
    let mut warm_wall_ms = 0.0;
    let mut warm_hit_rate = 0.0;
    let mut cold_page_reads = 0u64;
    let mut default_stores: Option<Vec<PagedStore>> = None;

    for &page_size in &[512usize, 4096, 16384] {
        let stores = persist(&mut sources, page_size, pool_pages);
        let (cold_ms, cold_io, cold_answers) = ta_over_stores(&stores, k);
        assert_eq!(
            cold_answers, mem_answers,
            "paged TA must match in-memory TA bit for bit"
        );
        let (warm_ms, warm_io, warm_answers) = ta_over_stores(&stores, k);
        assert_eq!(warm_answers, mem_answers);
        let warm_total = warm_io.reads + warm_io.hits;
        let hit_rate = if warm_total == 0 {
            0.0
        } else {
            warm_io.hits as f64 / warm_total as f64
        };
        t.row(vec![
            page_size.to_string(),
            f3(cold_ms),
            int(cold_io.reads),
            f3(warm_ms),
            f3(hit_rate),
        ]);
        if page_size == 4096 {
            cold_wall_ms = cold_ms;
            warm_wall_ms = warm_ms;
            warm_hit_rate = hit_rate;
            cold_page_reads = cold_io.reads;
            default_stores = Some(stores);
        }
    }
    report.table(t);

    // Warm paged vs the same work from memory — the "in-memory speed"
    // claim: a sorted drain, TA, and scalar probes of every object in a
    // scattered order. The pool is already warm from the TA runs above;
    // drain once more to be sure every sorted page is resident.
    let stores = default_stores.expect("4096 is in the sweep");
    let cursors = || stores.iter().map(PagedStore::source).collect::<Vec<_>>();
    drain(&mut cursors());
    let rounds = cfg.pick(REPEATS, QUICK_REPEATS);
    let scan = warm_vs_mem(rounds, || drain(&mut cursors()), || drain(&mut sources));
    let ta = warm_vs_mem(
        rounds,
        || {
            let (ms, _, answers) = ta_over_stores(&stores, k);
            assert_eq!(answers, mem_answers);
            ms
        },
        || mem_ta(&mut sources).0,
    );
    // `n` is a power of two and the stride odd: a permutation of 0..n.
    let oids: Vec<u64> = (0..n as u64).map(|i| i * 7919 % n as u64).collect();
    let probes = warm_vs_mem(
        rounds,
        || probe(&mut cursors(), &oids),
        || probe(&mut sources, &oids),
    );
    let batch = warm_vs_mem(
        rounds,
        || probe_batch(&mut cursors(), &oids),
        || probe_batch(&mut sources, &oids),
    );
    let ns_per_probe = 1e6 / (m * n) as f64;

    let mut s = Table::new(
        format!(
            "warm paged vs in-memory (page size 4096), medians of {rounds} rounds; spread = \
             largest ÷ smallest round ratio"
        ),
        &["work", "warm paged", "in memory", "ratio", "spread"],
    );
    for (work, cmp, unit) in [
        ("sorted drain, ms", scan, 1.0),
        ("TA, ms", ta, 1.0),
        ("scalar probe, ns", probes, ns_per_probe),
        ("batch probe, ns", batch, ns_per_probe),
    ] {
        s.row(vec![
            work.to_string(),
            f3(cmp.paged * unit),
            f3(cmp.mem * unit),
            f3(cmp.ratio),
            f3(cmp.spread),
        ]);
    }
    report.table(s);

    let wall_clock = "a negative wall-clock means the timer broke";
    report.gated(
        "cold_wall_ms",
        cold_wall_ms,
        Bound::AtLeast(0.0),
        wall_clock,
    );
    report.gated(
        "warm_wall_ms",
        warm_wall_ms,
        Bound::AtLeast(0.0),
        wall_clock,
    );
    report.gated(
        "warm_hit_rate",
        warm_hit_rate,
        Bound::Within(0.0, 1.0),
        "the buffer-pool counters are broken",
    );
    report.gated(
        "cold_page_reads",
        cold_page_reads as f64,
        Bound::AtLeast(1.0),
        "a cold run that reads no pages never touched the store",
    );
    // Each ratio's spread over its rounds sits beside it; a spread
    // below 1 would mean the rounds' extremes were mixed up.
    let spread = |report: &mut Report, name: &str, cmp: WarmVsMem| {
        report.gated(
            format!("{name}_spread"),
            cmp.spread,
            Bound::AtLeast(1.0),
            "the largest round ratio is below the smallest; look at `warm_vs_mem` in E18 first",
        );
    };
    report.metric("warm_scan_vs_mem", scan.ratio);
    spread(&mut report, "warm_scan_vs_mem", scan);
    report.gated(
        "warm_ta_vs_mem",
        ta.ratio,
        Bound::PositiveAtMost(MAX_WARM_TA_VS_MEM),
        "warm paged TA is back above 2.27× TA from memory; it read 2.1–2.5 while every \
         probe cloned its frame, and above 3 while every probe paid a binary search over \
         the directory and another over the page; look at `PagedSource::probe` and \
         `StoreInner::{locate, find_in_page}` in `middleware::store` first",
    );
    spread(&mut report, "warm_ta_vs_mem", ta);
    report.gated(
        "warm_probe_vs_mem",
        probes.ratio,
        Bound::PositiveAtMost(MAX_WARM_PROBE_VS_MEM),
        "a warm scalar probe is back above 17.4× a probe from memory; it read 19–25 while \
         each probe cloned its frame's `Arc` and counted its hit on the pool's shared \
         counter; look at `PagePool::with_resident` and `PagedSource::probe` in \
         `middleware::store` first",
    );
    spread(&mut report, "warm_probe_vs_mem", probes);
    report.gated(
        "warm_batch_vs_mem",
        batch.ratio,
        Bound::PositiveAtMost(MAX_WARM_BATCH_VS_MEM),
        "a warm probe batch is back above 14.8× a batch from memory; look at `by_page` \
         and `PagedSource::random_batch` in `middleware::store` first",
    );
    spread(&mut report, "warm_batch_vs_mem", batch);
    let (cold, cold_page_us) = cold_probe_vs_mem(cfg.pick(REPEATS, QUICK_REPEATS));
    report.metric("cold_us_per_page_read", cold_page_us);
    report.gated(
        "cold_probe_vs_mem",
        cold.median,
        Bound::PositiveAtMost(MAX_COLD_PROBE_VS_MEM),
        "a page miss (file in the OS cache) costs more in-memory drains than the braided \
         checksum leaves it; look at `store::format::crc32` first (do its four braids still \
         run side by side, one `CRC_BRAID` look-up per byte?), then at \
         `StoreInner::load_page`",
    );
    report.gated(
        "cold_probe_vs_mem_spread",
        cold.spread,
        Bound::AtLeast(1.0),
        "the largest round ratio is below the smallest; look at `cold_probe_vs_mem` in E18 \
         first",
    );
    report.note(format!(
        "a cold 16 KiB page read costs {cold_page_us:.2} µs all in (file in the OS cache), \
         and 64 of them, one probe each, {:.2}× a drain of the same 65 536-entry list from \
         memory (medians of {rounds} rounds); the run fails above {MAX_COLD_PROBE_VS_MEM}×. \
         The checksum is CRC32 in four braids, ≈ 4.6 µs a 16 KiB page; slice-by-16 takes \
         ≈ 9.7 µs and put the ratio at 6.2–9.1, and the bit-at-a-time CRC32 the store \
         shipped with cost ≈ 21 µs a 4 KiB page.",
        cold.median,
    ));

    report.note(
        "cold queries pay one read per distinct page touched (sorted pages are read \
         in order as the cursor reaches them; TA's random probes each fault a \
         random-table page); warm queries re-run with every frame resident and read nothing — the \
         flat access count of [Fa96] is identical in both runs, which is exactly the \
         mispricing §6 warns about.",
    );
    report.note(
        "larger pages shrink cold read counts for the sorted run (more entries per \
         read) but waste transfer on point probes; the page-size sweep shows the \
         trade directly, measured on the store rather than simulated.",
    );
    report.note(
        "answers, grades, and charged access counts from the paged run are asserted \
         bit-identical to the in-memory run — paging is physical telemetry, not a \
         semantic change (the paged_equivalence proptest suite proves this across \
         FA/TA/NRA/CA).",
    );
    report
}
