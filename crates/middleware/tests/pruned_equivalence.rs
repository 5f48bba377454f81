//! Property suite: block-max pruning is observationally invisible.
//!
//! A bounded drain ([`GradedSource::sorted_drain_bounded`]) or bounded
//! probe ([`GradedSource::random_access_bounded`]) served by a v2
//! [`PagedStore`] — where persisted page bounds let whole pages be
//! skipped — returns the same items, the same grades, and the same
//! *charged* access counts as the in-memory [`VecSource`] reference,
//! bit for bit, across page sizes and thresholds, including the
//! degenerate corners (bound 0, bound 1, bound above every grade,
//! all-equal grades, k ≥ n). Pages skipped are physical telemetry,
//! never a semantic change.
//!
//! The suite also pins the threshold-feeding hook: interleaving
//! [`GradedSource::note_threshold`] calls — as TA/NRA/CA now do each
//! round under a zero-absorbing combiner — changes neither answers
//! nor charges, and a full TA run over the paged store agrees with
//! the in-memory run exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::TopKAlgorithm;
use fmdb_middleware::source::{CountingSource, GradedSource, Oid, VecSource};
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
use fmdb_middleware::workload::independent_uniform;

/// Unique scratch path under `target/tmp` (cargo provides the dir for
/// integration tests; tests must not write outside the repository).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("pruned-{tag}-{id}.fmdb"))
}

/// One randomly drawn pruned-vs-reference comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    k: usize,
    seed: u64,
    page_size: usize,
    /// Threshold as a fraction of the grade range; the grid below
    /// extends it with the exact 0/1 corners.
    bound_frac: f64,
    /// Replace every grade with one constant (degenerate zone maps:
    /// every page bound collapses to a point).
    all_equal: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        5usize..400,
        prop_oneof![Just(1usize), Just(7), Just(1000)],
        0u64..1_000_000,
        prop_oneof![Just(256usize), Just(512), Just(4096)],
        0.0f64..=1.0,
        prop_oneof![Just(false), Just(false), Just(true)],
    )
        .prop_map(|(n, k, seed, page_size, bound_frac, all_equal)| Scenario {
            n,
            k,
            seed,
            page_size,
            bound_frac,
            all_equal,
        })
}

/// Builds the in-memory reference and its persisted twin.
fn build_pair(s: Scenario, tag: &str) -> (VecSource, PagedStore) {
    let mut vec_src = independent_uniform(s.n, 1, s.seed).remove(0);
    if s.all_equal {
        let grades = vec![Score::clamped(0.5); s.n];
        vec_src = VecSource::from_dense("flat", &grades);
    }
    let path = scratch(tag);
    build_store_from_source(
        &path,
        &mut vec_src,
        &BuildConfig::with_page_size(s.page_size),
    )
    .expect("build store");
    vec_src.rewind();
    let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open store");
    (vec_src, store)
}

/// The access script both sides run: a few scalar steps, a hinted
/// bounded drain, then drain to exhaustion. Returns everything
/// observed plus the charged access counts.
fn drain_script<S: GradedSource>(
    source: S,
    bound: Score,
    hint: bool,
) -> (Vec<ScoredObject<Oid>>, u64, u64) {
    let mut counted = CountingSource::new(source);
    counted.rewind();
    let mut observed = Vec::new();
    for _ in 0..3 {
        if let Some(so) = counted.sorted_next() {
            observed.push(so);
        }
    }
    if hint {
        counted.note_threshold(bound);
    }
    if let Some(batch) = counted.sorted_drain_bounded(bound) {
        observed.extend(batch);
    }
    while let Some(so) = counted.sorted_next() {
        observed.push(so);
    }
    (
        observed,
        counted.sorted_accesses(),
        counted.random_accesses(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bounded drains agree with the reference in items, grades, and
    /// charged accesses — at the drawn threshold and at the corners.
    #[test]
    fn bounded_drains_are_bit_identical_to_the_reference(s in scenario()) {
        let (vec_src, store) = build_pair(s, "drain");
        let max = vec_src.info();
        prop_assert_eq!(max.universe_size, s.n);
        let mut bounds = vec![
            Score::ZERO,
            Score::ONE,
            Score::clamped(s.bound_frac),
            Score::clamped(0.5), // the all-equal constant, exactly
        ];
        bounds.dedup();
        for bound in bounds {
            for hint in [false, true] {
                let (want, want_sorted, want_random) =
                    drain_script(vec_src.clone(), bound, hint);
                let (got, got_sorted, got_random) =
                    drain_script(store.source(), bound, hint);
                prop_assert_eq!(&want, &got, "bound {bound} hint {hint}");
                prop_assert_eq!(want_sorted, got_sorted, "charged sorted, bound {bound}");
                prop_assert_eq!(want_random, got_random, "charged random, bound {bound}");
            }
        }
        prop_assert!(store.take_error().is_none(), "no parked store errors");
    }

    /// Bounded probes agree with the reference grade-for-grade and
    /// charge one random access each, present or absent, skipped or
    /// not.
    #[test]
    fn bounded_probes_are_bit_identical_to_the_reference(s in scenario()) {
        let (vec_src, store) = build_pair(s, "probe");
        let mut reference = CountingSource::new(vec_src);
        let mut paged = CountingSource::new(store.source());
        let bound = Score::clamped(s.bound_frac);
        // Probe every resident oid plus a run past the end (absent).
        for oid in 0..(s.n as Oid + 5) {
            let want = reference.random_access_bounded(oid, bound);
            let got = paged.random_access_bounded(oid, bound);
            prop_assert_eq!(want, got, "oid {oid} bound {bound}");
            // The clamp contract: exact grade at or above the bound,
            // hard zero below it.
            let exact = reference.random_access(oid);
            let expect = if exact >= bound { exact } else { Score::ZERO };
            prop_assert_eq!(want, expect, "clamp contract, oid {oid}");
        }
        // Every probe costs one random access on both sides (the extra
        // `random_access` calls above charged the reference once more
        // per oid).
        let probes = s.n as u64 + 5;
        prop_assert_eq!(reference.random_accesses(), 2 * probes);
        prop_assert_eq!(paged.random_accesses(), probes);
        prop_assert!(store.take_error().is_none(), "no parked store errors");
    }

    /// A full TA run (which now feeds its live threshold into every
    /// source each round) over the paged store matches the in-memory
    /// run: same answers, same grades, same charged stats.
    #[test]
    fn ta_with_threshold_feeding_matches_in_memory(s in scenario()) {
        let (vec_src, store) = build_pair(s, "ta");
        let mut mem = [vec_src.clone(), vec_src.clone()];
        let mut mem_refs: Vec<&mut dyn GradedSource> = mem
            .iter_mut()
            .map(|x| x as &mut dyn GradedSource)
            .collect();
        let want = ThresholdAlgorithm
            .top_k(&mut mem_refs, &Min, s.k)
            .expect("valid run");

        let mut paged = [store.source()];
        let mut mixed = [vec_src.clone()];
        let mut refs: Vec<&mut dyn GradedSource> = Vec::new();
        refs.push(&mut paged[0]);
        refs.push(&mut mixed[0]);
        let got = ThresholdAlgorithm
            .top_k(&mut refs, &Min, s.k)
            .expect("valid run");

        prop_assert_eq!(&want.answers, &got.answers);
        prop_assert_eq!(want.stats.sorted, got.stats.sorted);
        prop_assert_eq!(want.stats.random, got.stats.random);
        prop_assert!(store.take_error().is_none(), "no parked store errors");
    }
}
