//! Property suite: a [`PagedSource`] served from a store file is
//! observationally identical to a [`VecSource`] built from the same
//! pairs — same answers, same grades, same charged access counts —
//! under every exact algorithm family (FA, TA, NRA, CA). Paging is
//! physical telemetry, never a semantic change.
//!
//! The suite also proves the failure model: a truncated store file
//! and a store file with any flipped bit must surface a typed
//! [`StoreError`] (at open, or returned by the read that meets it) and
//! must never panic; and it pins the planner shift that I/O-measured
//! cost calibration produces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fmdb_core::scoring::tnorms::Min;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
use fmdb_middleware::algorithms::TopKAlgorithm;
use fmdb_middleware::planner::{choose_plan, PhysicalPlan, PlanQuery};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::{self, GradedSource, VecSource};
use fmdb_middleware::stats::{calibrate_cost_model_io, CostModel};
use fmdb_middleware::store::{
    build_store, build_store_from_source, BuildConfig, PagedStore, StoreError, StoreOptions,
};
use fmdb_middleware::workload::independent_uniform;

use fmdb_core::score::Score;

mod support;
use support::Planned;

/// Unique scratch path under `target/tmp` (cargo provides the dir for
/// integration tests; tests must not write outside the repository).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("pe-{tag}-{id}.fmdb"))
}

/// One randomly drawn paged-vs-memory comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    page_size: usize,
    pool_pages: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            40usize..300,
            2usize..=3,
            prop_oneof![Just(1usize), Just(5usize), Just(25usize)],
        ),
        (
            0u64..1_000_000,
            prop_oneof![Just(256usize), Just(512usize), Just(2048usize)],
            prop_oneof![Just(2usize), Just(16usize), Just(256usize)],
        ),
    )
        .prop_map(|((n, m, k), (seed, page_size, pool_pages))| Scenario {
            n,
            m,
            k,
            seed,
            page_size,
            pool_pages,
        })
}

/// Persists every workload source to its own store and opens them.
fn paged_copies(s: Scenario) -> Vec<PagedStore> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    sources
        .iter_mut()
        .map(|src| {
            let path = scratch("algo");
            build_store_from_source(&path, src, &BuildConfig::with_page_size(s.page_size))
                .expect("build store");
            PagedStore::open(
                &path,
                StoreOptions {
                    // The strategy uses 0 for "feature off" — the
                    // options API spells that `None`.
                    pool_pages: (s.pool_pages > 0).then_some(s.pool_pages),
                },
            )
            .expect("open store")
        })
        .collect()
}

/// Runs `algorithm` over both backings and asserts bit-identical
/// answers and charged statistics.
fn assert_backings_agree(algorithm: &dyn TopKAlgorithm, s: Scenario) -> Result<(), TestCaseError> {
    let mut mem_sources = independent_uniform(s.n, s.m, s.seed);
    let mut mem_refs: Vec<&mut dyn GradedSource> = mem_sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let mem = algorithm
        .top_k(&mut mem_refs, &Min, s.k)
        .expect("memory run must succeed");

    let stores = paged_copies(s);
    let mut cursors: Vec<_> = stores.iter().map(|st| st.source()).collect();
    let mut paged_refs: Vec<&mut dyn GradedSource> = cursors
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let paged = algorithm
        .top_k(&mut paged_refs, &Min, s.k)
        .expect("paged run must succeed");

    prop_assert_eq!(
        &paged.answers,
        &mem.answers,
        "{} answers diverged under {:?}",
        algorithm.name(),
        s
    );
    // The whole charged AccessStats must agree — paging may not leak
    // into the logical cost accounting.
    prop_assert_eq!(paged.stats, mem.stats, "{} stats", algorithm.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paged_matches_vec_under_fa(s in scenario()) {
        assert_backings_agree(&Planned(PhysicalPlan::Fa, 0.0), s)?;
    }

    #[test]
    fn paged_matches_vec_under_ta(s in scenario()) {
        assert_backings_agree(&Planned(PhysicalPlan::Ta, 0.0), s)?;
    }

    #[test]
    fn paged_matches_vec_under_nra(s in scenario()) {
        assert_backings_agree(&Planned(PhysicalPlan::Nra, 0.0), s)?;
    }

    #[test]
    fn paged_matches_vec_under_ca(s in scenario()) {
        assert_backings_agree(&Planned(PhysicalPlan::Ca { h: 3 }, 0.0), s)?;
    }

    /// Raw-pair semantics: duplicate oids (keep-last), sparse oid
    /// spaces, and degenerate grades all round-trip exactly — drain,
    /// probes, and planner histogram.
    #[test]
    fn raw_pairs_roundtrip_exactly(
        raw in proptest::collection::vec((0u64..400, 0u32..=1_000_000), 0..250),
        page_size in prop_oneof![Just(256usize), Just(1024usize)],
    ) {
        let pairs: Vec<(u64, Score)> = raw
            .iter()
            .map(|&(oid, g)| (oid, Score::clamped(g as f64 / 1_000_000.0)))
            .collect();
        let path = scratch("raw");
        build_store(&path, "raw", pairs.clone(), &BuildConfig::with_page_size(page_size))
            .expect("build store");
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open store");
        let mut paged = store.source();
        let mut vec = VecSource::new("raw", pairs);

        prop_assert_eq!(paged.info().universe_size, vec.info().universe_size);
        loop {
            let (a, b) = (paged.sorted_next(), vec.sorted_next());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        for oid in 0..420u64 {
            prop_assert_eq!(paged.random_access(oid), vec.random_access(oid), "oid {}", oid);
        }
        prop_assert_eq!(
            paged.grade_histogram(DEFAULT_HISTOGRAM_BINS),
            vec.grade_histogram(DEFAULT_HISTOGRAM_BINS)
        );
    }

    /// Truncating a store anywhere must yield a typed error at open —
    /// never a panic, never a silently short source.
    #[test]
    fn truncation_surfaces_a_typed_error(
        seed in 0u64..100_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let pairs: Vec<(u64, Score)> = (0..300u64)
            .map(|i| (i, Score::clamped(((i ^ seed) % 997) as f64 / 997.0)))
            .collect();
        let path = scratch("trunc");
        build_store(&path, "t", pairs, &BuildConfig::with_page_size(256)).expect("build store");
        let full = std::fs::read(&path).expect("read back");
        let keep = ((full.len() - 1) as f64 * cut_frac) as usize;
        std::fs::write(&path, &full[..keep]).expect("truncate");
        match PagedStore::open(&path, StoreOptions::DEFAULT) {
            Err(StoreError::Truncated { .. }) | Err(StoreError::BadMagic) | Err(StoreError::Io(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error kind: {e}"))),
            Ok(_) => return Err(TestCaseError::fail("truncated store opened cleanly".to_owned())),
        }
    }

    /// Flipping any single bit must surface a typed error — at open
    /// when the flip hits the header/stats/directory, or from the read
    /// that meets it when it hits a data page. CRC32 detects every
    /// single-bit flip, so nothing may slip through, and nothing may
    /// panic.
    #[test]
    fn any_flipped_bit_surfaces_a_typed_error(
        seed in 0u64..100_000,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let oids: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let pairs: Vec<(u64, Score)> = oids
            .iter()
            .map(|&i| (i, Score::clamped(((i ^ seed) % 991) as f64 / 991.0)))
            .collect();
        let path = scratch("flip");
        build_store(&path, "f", pairs, &BuildConfig::with_page_size(256)).expect("build store");
        let mut bytes = std::fs::read(&path).expect("read back");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted");

        let store = match PagedStore::open(&path, StoreOptions::DEFAULT) {
            Err(_) => return Ok(()), // typed error at open: done
            Ok(store) => store,
        };
        // The flip landed in a data page: drain the sorted run and
        // probe every stored oid so every page is visited; a read must
        // have returned the error.
        let mut src = store.source();
        let mut failures = Vec::new();
        loop {
            match source::Subsystem::sorted_next(&mut src) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    failures.push(e);
                    break;
                }
            }
        }
        for &oid in &oids {
            failures.extend(source::Subsystem::random_access(&mut src, oid).err());
        }
        let checksum = |e: &source::SourceError| {
            matches!(e.cause().downcast_ref(), Some(StoreError::ChecksumMismatch { .. }))
        };
        prop_assert!(
            !failures.is_empty() && failures.iter().all(checksum),
            "flip at byte {} bit {} was swallowed: {:?}",
            pos,
            bit,
            failures
        );
    }
}

/// The calibration satellite: measuring c_R/c_S against a real paged
/// store must price random access well above sorted access, and the
/// planner's choice must shift accordingly — NRA (which never pays
/// random access) under the measured model, TA under the uniform one.
#[test]
fn io_calibrated_cost_model_shifts_the_plan() {
    let pairs: Vec<(u64, Score)> = (0..4000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (i, Score::clamped((h >> 11) as f64 / (1u64 << 53) as f64))
        })
        .collect();
    let path = scratch("calibrate");
    build_store(&path, "cal", pairs, &BuildConfig::with_page_size(512)).expect("build store");
    // A tiny pool keeps the random probes cold, the way a store much
    // larger than memory behaves.
    let store = PagedStore::open(
        &path,
        StoreOptions {
            pool_pages: Some(4),
        },
    )
    .expect("open store");
    let mut src = store.source();
    let measured = calibrate_cost_model_io(&mut src, 64).expect("paged sources calibrate");
    assert!(
        measured.random_unit / measured.sorted_unit >= 2.0,
        "a cold random probe costs a whole page: {measured:?}"
    );

    let query = PlanQuery::fuzzy(4000, 2, 10);
    let uniform = choose_plan(
        &query,
        None,
        &ExecPolicy::new().cost_model(CostModel::UNIFORM),
    );
    let io = choose_plan(&query, None, &ExecPolicy::new().cost_model(measured));
    assert_eq!(
        uniform.chosen,
        PhysicalPlan::Ta,
        "uniform costs keep TA's eager random resolution"
    );
    assert_eq!(
        io.chosen,
        PhysicalPlan::Nra,
        "measured page costs push the plan to the no-random-access family"
    );

    // Exact-grade queries cannot take NRA; the same measured model
    // shifts them to CA with a deep interleave instead.
    let exact = PlanQuery::fuzzy(4000, 2, 10).exact_grades();
    let io_exact = choose_plan(&exact, None, &ExecPolicy::new().cost_model(measured));
    assert!(
        matches!(io_exact.chosen, PhysicalPlan::Ca { h } if h >= 2),
        "exact grades under measured page costs pick CA, got {:?}",
        io_exact.chosen
    );
}
