//! E23 — block-max pruning: grade zone maps over the embedded corpus
//! and persisted page bounds in the paged store.
//!
//! §6 asks for "a more realistic cost measure" — E18 made page I/O
//! physical; this experiment makes it *avoidable*. Per-block
//! coordinate bounding boxes let a threshold-seeded corpus scan skip
//! whole blocks whose minimum possible distance already exceeds the
//! running k-th best, and per-page grade bounds persisted in the v2
//! store directory let a bounded sorted drain stop — and random
//! probes bail — at page granularity. Both layers are proven
//! answer-preserving by the `pruned_equivalence` suites; here we
//! measure what the proofs buy: wall-clock speedup and skip rate as a
//! function of selectivity, plus the `AccessStats` telemetry
//! (`blocks_skipped` / `pages_skipped`) that feeds the planner's
//! [`fmdb_middleware::planner::PlanQuery::expected_skip`] discount.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fmdb_core::score::Score;
use fmdb_media::embed::{EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::planner::{estimate_cost, PhysicalPlan, PlanQuery};
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::stats::{AccessStats, CostModel};
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, int, Bound, Report, Table};
use crate::runners::RunCfg;

/// Scratch directory for store files, inside the workspace `target/`
/// dir so benchmarks never write outside the repository.
fn store_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-stores");
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    dir
}

/// Best-of-`reps` wall-clock for one closure, in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E23",
        "block-max pruning: zone-map scans and bounded page drains",
        "grade zone maps (per-block bounding boxes) and persisted per-page grade bounds \
         let threshold-seeded scans and drains skip provably useless blocks/pages — \
         answers stay bit-identical (pruned_equivalence suites) while selective \
         workloads drop most of the wall-clock",
    );
    let reps = if cfg.quick { 3 } else { 7 };

    // ---- Corpus side: zone-map pruned kNN scans --------------------
    let n = cfg.pick(8192, 1024);
    let db = SyntheticDb::generate(&SynthConfig {
        count: n,
        bins_per_channel: 4,
        seed: 29,
        ..SynthConfig::default()
    });
    let mut hists: Vec<_> = db.objects.iter().map(|o| o.histogram.clone()).collect();
    // Zone maps bound *blocks of adjacent indices*, so they pay off in
    // proportion to the corpus's index locality. Real collections are
    // ingested in correlated batches (same shoot, same scene); the
    // synthetic generator is order-free, so restore that locality by
    // clustering on the dominant bin — the same trick a store would
    // apply at build time by sorting on any coarse feature key.
    hists.sort_by_key(|h| {
        h.bins()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    });
    let corpus = EmbeddedCorpus::build(
        EmbeddedSpace::for_space(&db.space).expect("QBIC matrix embeds"),
        &hists,
    )
    .expect("same space");
    let query = &db.objects[0].histogram;
    let (oracle, _) = corpus.knn_brute(query, n).expect("same space");

    let mut t = Table::new(
        format!("threshold-seeded corpus scans, N = {n}, k = 10"),
        &[
            "selectivity",
            "unpruned ms",
            "pruned ms",
            "speedup",
            "block skip rate",
        ],
    );
    let mut corpus_speedup = 0.0;
    let mut corpus_skip_rate = 0.0;
    let mut blocks_skipped_total = 0u64;
    for (label, q) in [("tight (q=10)", 10usize), ("mid (q=n/8)", n / 8)] {
        let bound = oracle[q.saturating_sub(1)].1;
        let unpruned_ms = best_ms(reps, || {
            corpus.knn_within(query, 10, bound, false).expect("scan")
        });
        let pruned_ms = best_ms(reps, || {
            corpus.knn_within(query, 10, bound, true).expect("scan")
        });
        let (pruned_answers, stats) = corpus.knn_within(query, 10, bound, true).expect("scan");
        let (unpruned_answers, _) = corpus.knn_within(query, 10, bound, false).expect("scan");
        assert_eq!(
            pruned_answers, unpruned_answers,
            "pruned scans must match unpruned scans bit for bit"
        );
        let total_blocks = n.div_ceil(corpus.prune_block()) as u64;
        let skip_rate = if total_blocks == 0 {
            0.0
        } else {
            stats.blocks_skipped as f64 / total_blocks as f64
        };
        let speedup = if pruned_ms > 1e-6 {
            unpruned_ms / pruned_ms
        } else {
            1.0
        };
        t.row(vec![
            label.to_owned(),
            f3(unpruned_ms),
            f3(pruned_ms),
            f3(speedup),
            f3(skip_rate),
        ]);
        if q == 10 {
            corpus_speedup = speedup;
            corpus_skip_rate = skip_rate;
        }
        blocks_skipped_total += stats.blocks_skipped;
    }
    report.table(t);

    // ---- Store side: bounded drains over persisted page bounds -----
    let sn = cfg.pick(1 << 15, 1 << 12);
    let mut src: VecSource = independent_uniform(sn, 1, 31).remove(0);
    let path = store_dir().join("e23-drain.fmdb");
    build_store_from_source(&path, &mut src, &BuildConfig::with_page_size(4096))
        .expect("build store");
    src.rewind();
    let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open store");
    // Warm the pool so the comparison isolates pruning, not cold I/O.
    {
        let mut cursor = store.source();
        while cursor.sorted_next().is_some() {}
    }

    let mut d = Table::new(
        format!("bounded sorted drains, N = {sn}, page size 4096"),
        &[
            "selectivity",
            "full drain ms",
            "bounded ms",
            "speedup",
            "page skip rate",
            "pages skipped",
        ],
    );
    let full_ms = best_ms(reps, || {
        let mut cursor = store.source();
        let mut count = 0u64;
        while cursor.sorted_next().is_some() {
            count += 1;
        }
        count
    });
    let sorted_pages = store.header().sorted_pages as f64;
    let mut drain_speedup = 0.0;
    let mut page_skip_rate = 0.0;
    let mut pages_skipped_headline = 0u64;
    for (sel_idx, selectivity) in [0.01f64, 0.1, 0.5].into_iter().enumerate() {
        let bound = Score::clamped(1.0 - selectivity);
        let bounded_ms = best_ms(reps, || {
            let mut cursor = store.source();
            cursor.sorted_drain_bounded(bound).map(|v| v.len())
        });
        store.clear_pool();
        {
            // Re-warm, then measure the skip telemetry of one drain.
            let mut cursor = store.source();
            while cursor.sorted_next().is_some() {}
        }
        let before = store.page_io().skipped;
        let mut cursor = store.source();
        let drained = cursor.sorted_drain_bounded(bound).map_or(0, |v| {
            // The drained prefix must agree with the in-memory
            // reference exactly.
            let mut reference = src.clone();
            reference.rewind();
            let want = reference.sorted_drain_bounded(bound);
            assert_eq!(v, want, "bounded drain must match the in-memory source");
            v.len()
        });
        let skipped = store.page_io().skipped.saturating_sub(before);
        let skip_rate = if sorted_pages > 0.0 {
            (skipped as f64 / sorted_pages).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let speedup = if bounded_ms > 1e-6 {
            full_ms / bounded_ms
        } else {
            1.0
        };
        d.row(vec![
            format!("{selectivity} ({drained} rows)"),
            f3(full_ms),
            f3(bounded_ms),
            f3(speedup),
            f3(skip_rate),
            int(skipped),
        ]);
        // The headline metric is the most selective row (the first).
        if sel_idx == 0 {
            drain_speedup = speedup;
            page_skip_rate = skip_rate;
            pages_skipped_headline = skipped;
        }
    }
    report.table(d);

    // ---- Telemetry → planner feedback ------------------------------
    // The skip counters land in the same `AccessStats` the engine
    // reports, and the measured page skip rate feeds the planner's
    // full-scan discount.
    let telemetry = AccessStats {
        blocks_skipped: blocks_skipped_total,
        pages_skipped: pages_skipped_headline,
        ..AccessStats::ZERO
    };
    let plan = PlanQuery::fuzzy(sn, 1, 10);
    let undiscounted = estimate_cost(
        PhysicalPlan::FullScan,
        &plan,
        None,
        &CostModel::UNIFORM,
        0.0,
    )
    .expect("full scan always applies");
    let discounted = estimate_cost(
        PhysicalPlan::FullScan,
        &plan.expected_skip(page_skip_rate),
        None,
        &CostModel::UNIFORM,
        0.0,
    )
    .expect("full scan always applies");
    report.note(format!(
        "telemetry: {} blocks and {} pages proven skippable, reported through \
         AccessStats::blocks_skipped / pages_skipped; feeding the measured page skip \
         rate back as PlanQuery::expected_skip drops the planner's full-scan estimate \
         from {undiscounted:.0} to {discounted:.0} charged accesses",
        telemetry.blocks_skipped, telemetry.pages_skipped,
    ));

    let speedup = "a pruned-vs-unpruned wall-clock ratio must be positive: pruned runs that \
                   take no time at all mean the timer broke";
    let skip_rate = "the skip counters are broken";
    report
        .gated("corpus_speedup", corpus_speedup, Bound::Positive, speedup)
        .gated(
            "corpus_skip_rate",
            corpus_skip_rate,
            Bound::Within(0.0, 1.0),
            skip_rate,
        )
        .gated("drain_speedup", drain_speedup, Bound::Positive, speedup)
        .gated(
            "page_skip_rate",
            page_skip_rate,
            Bound::Within(0.0, 1.0),
            skip_rate,
        );

    report.note(
        "zone maps engage harder the tighter the threshold: at q = 10 the bound is the \
         10th-nearest distance, so nearly every block's bounding box proves its rows \
         are too far and the scan touches a handful of blocks; the mid-selectivity row \
         shows the graceful degradation as the bound loosens.",
    );
    report.note(
        "page bounds turn the sorted run's global descending order into a stopping \
         proof: the first page whose persisted max falls below the bound certifies the \
         whole remaining run skippable, so a 1%-selective drain reads ~1% of the pages \
         (plus one boundary page) and charges exactly the rows it returns.",
    );
    report
}
