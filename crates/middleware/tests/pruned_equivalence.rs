//! Property suite: block-max pruning is observationally invisible.
//!
//! A bounded drain ([`PagedSource::sorted_drain_bounded`]) or bounded
//! probe ([`PagedSource::random_access_bounded`]) served by a v2
//! [`PagedStore`] — where persisted page bounds let whole pages be
//! skipped — returns the same items, the same grades, and the same
//! *charged* access counts as the in-memory [`VecSource`] reference,
//! bit for bit, across page sizes and thresholds, including the
//! degenerate corners (bound 0, bound 1, bound above every grade,
//! all-equal grades, k ≥ n). Pages skipped are physical telemetry,
//! never a semantic change.
//!
//! The suite also runs TA over the paged store beside the in-memory
//! lists: it agrees with the in-memory run exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::Cursor;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{Oid, Subsystem, VecSource};
use fmdb_middleware::store::{
    build_store_from_source, BuildConfig, PagedSource, PagedStore, StoreOptions,
};
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
    Subsystem::rewind(&mut vec_src);
    let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open store");
    (vec_src, store)
}

/// The access script both sides run: a few scalar steps, a bounded
/// drain, then drain to exhaustion. Returns everything observed and
/// the sorted accesses charged: one per entry returned, scalar or
/// drained.
fn drain_script<S: Subsystem>(
    mut source: S,
    bound: Score,
    drain: impl FnOnce(&mut S, Score) -> Vec<ScoredObject<Oid>>,
) -> (Vec<ScoredObject<Oid>>, u64) {
    source.rewind();
    let mut observed = Vec::new();
    for _ in 0..3 {
        if let Some(so) = source.sorted_next().expect("no access fails") {
            observed.push(so);
        }
    }
    observed.extend(drain(&mut source, bound));
    while let Some(so) = source.sorted_next().expect("no access fails") {
        observed.push(so);
    }
    let charged = observed.len() as u64;
    (observed, charged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bounded drains agree with the reference in items, grades, and
    /// charged accesses — at the drawn threshold and at the corners.
    #[test]
    fn bounded_drains_are_bit_identical_to_the_reference(s in scenario()) {
        let (vec_src, store) = build_pair(s, "drain");
        let max = Subsystem::info(&vec_src);
        prop_assert_eq!(max.universe_size, s.n);
        let mut bounds = vec![
            Score::ZERO,
            Score::ONE,
            Score::clamped(s.bound_frac),
            Score::clamped(0.5), // the all-equal constant, exactly
        ];
        bounds.dedup();
        for bound in bounds {
            let (want, want_sorted) =
                drain_script(vec_src.clone(), bound, VecSource::sorted_drain_bounded);
            let (got, got_sorted) = drain_script(store.source(), bound, |paged, bound| {
                paged.sorted_drain_bounded(bound).expect("no page fails")
            });
            prop_assert_eq!(&want, &got, "bound {bound}");
            prop_assert_eq!(want_sorted, got_sorted, "charged sorted, bound {bound}");
        }
    }

    /// Bounded probes agree with the reference grade-for-grade,
    /// present or absent, skipped or not.
    #[test]
    fn bounded_probes_are_bit_identical_to_the_reference(s in scenario()) {
        let (mut reference, store) = build_pair(s, "probe");
        let mut paged: PagedSource = store.source();
        let bound = Score::clamped(s.bound_frac);
        // Probe every resident oid plus a run past the end (absent).
        for oid in 0..(s.n as Oid + 5) {
            let got = paged.random_access_bounded(oid, bound).expect("no page fails");
            // The clamp contract: exact grade at or above the bound,
            // hard zero below it.
            let exact = Subsystem::random_access(&mut reference, oid).expect("in memory");
            let expect = if exact >= bound { exact } else { Score::ZERO };
            prop_assert_eq!(got, expect, "clamp contract, oid {oid} bound {bound}");
        }
    }

    /// A full TA run over the paged store matches the in-memory run:
    /// same answers, same grades, same charged stats.
    #[test]
    fn ta_over_the_paged_store_matches_in_memory(s in scenario()) {
        let (vec_src, store) = build_pair(s, "ta");
        let mut mem = [vec_src.clone(), vec_src.clone()];
        let mut mem_refs: Vec<&mut dyn Subsystem> = mem
            .iter_mut()
            .map(|x| x as &mut dyn Subsystem)
            .collect();
        let want = Cursor::once(PhysicalPlan::Ta, 0.0, &mut mem_refs, &Min, s.k).expect("valid run");

        let mut paged = [store.source()];
        let mut mixed = [vec_src.clone()];
        let mut refs: Vec<&mut dyn Subsystem> = Vec::new();
        refs.push(&mut paged[0]);
        refs.push(&mut mixed[0]);
        let got = Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, s.k).expect("valid run");

        prop_assert_eq!(&want.answers, &got.answers);
        prop_assert_eq!(want.stats.sorted, got.stats.sorted);
        prop_assert_eq!(want.stats.random, got.stats.random);
    }
}
