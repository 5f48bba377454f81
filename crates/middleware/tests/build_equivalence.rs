//! Property suite: a store built by draining a source
//! (`build_store_from_source`) is byte for byte the store `build_store`
//! writes for the pairs that source streamed, normalised (each oid
//! once, the last grade given kept, the run in stream order).
//!
//! The drain of an honest source is the sorted run as it arrives, and
//! the builder only places the random table from it; every other
//! stream is normalised as `build_store` normalises its pairs. The
//! sources cover both: dense lists from any first oid, the same missing
//! one oid, and sparse lists (oids up to `u64::MAX`),
//! runs of tied grades, crisp lists, subnormal grades, the empty list,
//! a store rebuilt from a `PagedSource`, and sources that lie — that
//! stream out of order, repeat an oid, or grade oids past the universe
//! they declare.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_middleware::source::{Oid, SourceError, SourceInfo, Subsystem, VecSource};
use fmdb_middleware::store::{
    build_store, build_store_from_source, BuildConfig, PagedStore, StoreError, StoreOptions,
};

/// Unique scratch path under `target/tmp` (cargo provides the dir for
/// integration tests; tests must not write outside the repository).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("be-{tag}-{id}.fmdb"))
}

/// A source that streams exactly `stream`, in its order, and declares
/// `universe` objects: an honest list when `stream` is a list's sorted
/// stream, a liar otherwise. Random access is never asked of it.
struct Scripted {
    stream: Vec<ScoredObject<Oid>>,
    universe: usize,
    at: usize,
}

impl Scripted {
    fn new(stream: Vec<ScoredObject<Oid>>) -> Scripted {
        Scripted {
            universe: stream.len(),
            stream,
            at: 0,
        }
    }
}

impl Subsystem for Scripted {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let end = self.at.saturating_add(n).min(self.stream.len());
        let batch = self.stream[self.at..end].to_vec();
        self.at = end;
        Ok(batch)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        Ok(vec![Score::ZERO; oids.len()])
    }

    fn rewind(&mut self) {
        self.at = 0;
    }

    fn info(&self) -> SourceInfo {
        SourceInfo::new("scripted", self.universe)
    }
}

/// The whole sorted stream of `source`, from the top.
fn stream_of(source: &mut dyn Subsystem) -> Vec<ScoredObject<Oid>> {
    source.rewind();
    let stream = source.sorted_batch(usize::MAX).expect("an in-memory read");
    source.rewind();
    stream
}

fn pairs_of(stream: &[ScoredObject<Oid>]) -> Vec<(Oid, Score)> {
    stream.iter().map(|so| (so.id, so.grade)).collect()
}

/// The bytes `build_store` writes for `pairs`.
fn built_from_pairs(pairs: Vec<(Oid, Score)>, cfg: &BuildConfig) -> Vec<u8> {
    let path = scratch("pairs");
    build_store(&path, "scripted", pairs, cfg).expect("build from pairs");
    let bytes = std::fs::read(&path).expect("read the store");
    std::fs::remove_file(&path).expect("remove the store");
    bytes
}

/// The bytes `build_store_from_source` writes for `source`.
fn built_from_source(source: &mut (impl Subsystem + 'static), cfg: &BuildConfig) -> Vec<u8> {
    let path = scratch("source");
    build_store_from_source(&path, source, cfg).expect("build from source");
    let bytes = std::fs::read(&path).expect("read the store");
    std::fs::remove_file(&path).expect("remove the store");
    bytes
}

/// `stream` drained through the builder against `build_store` over the
/// same pairs.
fn builds_like_the_pairs(
    stream: Vec<ScoredObject<Oid>>,
    cfg: &BuildConfig,
) -> Result<(), TestCaseError> {
    let pairs = pairs_of(&stream);
    let len = pairs.len();
    let from_source = built_from_source(&mut Scripted::new(stream), cfg);
    prop_assert!(
        from_source == built_from_pairs(pairs, cfg),
        "{} streamed pairs",
        len
    );
    Ok(())
}

/// A grade `ulps` steps above 0.
fn subnormal(ulps: u64) -> Score {
    Score::clamped(f64::from_bits(ulps))
}

/// Grades of one kind: uniform over [0, 1], five tied levels, crisp,
/// or subnormal beside 0 and 1.
fn grades_of(kind: u8) -> BoxedStrategy<Score> {
    match kind {
        0 => (0.0..=1.0_f64).prop_map(Score::clamped).boxed(),
        1 => (0u8..5)
            .prop_map(|l| Score::clamped(f64::from(l) / 4.0))
            .boxed(),
        2 => (0u8..2).prop_map(|b| Score::crisp(b == 1)).boxed(),
        _ => prop_oneof![
            (0u64..6).prop_map(subnormal),
            Just(Score::ZERO),
            Just(Score::ONE)
        ]
        .boxed(),
    }
}

/// Lists of one grade kind, up to 400 long: dense over `first..first +
/// n` (a grade table), the same missing one oid, or sparse (`u64::MAX`
/// among the oids, repeats kept last).
fn lists() -> impl Strategy<Value = Vec<(Oid, Score)>> {
    (0u8..4, 0u8..3).prop_flat_map(|(kind, shape)| {
        let grades = proptest::collection::vec(grades_of(kind), 0..400);
        let first = prop_oneof![Just(0u64), 1u64..1_000, Just(u64::MAX - 400)];
        match shape {
            0 => (grades, first)
                .prop_map(|(grades, first)| (first..).zip(grades).collect())
                .boxed(),
            1 => (grades, first, 0usize..400)
                .prop_map(|(grades, first, hole)| {
                    let mut pairs: Vec<(Oid, Score)> = (first..).zip(grades).collect();
                    if !pairs.is_empty() {
                        pairs.remove(hole % pairs.len());
                    }
                    pairs
                })
                .boxed(),
            _ => {
                let oid = prop_oneof![0u64..500, 0u64..u64::MAX, Just(u64::MAX)];
                proptest::collection::vec((oid, grades_of(kind)), 0..400).boxed()
            }
        }
    })
}

fn page_sizes() -> impl Strategy<Value = BuildConfig> {
    prop_oneof![
        Just(256usize),
        Just(512usize),
        Just(1024usize),
        Just(4096usize),
        Just(16384usize)
    ]
    .prop_map(BuildConfig::with_page_size)
}

/// `stream` with its entries permuted by `seed` (Fisher–Yates over a
/// xorshift).
fn shuffled(mut stream: Vec<ScoredObject<Oid>>, seed: u64) -> Vec<ScoredObject<Oid>> {
    let mut state = seed | 1;
    for i in (1..stream.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        stream.swap(i, (state % (i as u64 + 1)) as usize);
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An honest source — a list, and the store rebuilt from the store
    /// built from it — writes what `build_store` writes for the list's
    /// pairs.
    #[test]
    fn an_honest_drain_builds_the_bytes_of_its_pairs(
        pairs in lists(),
        cfg in page_sizes(),
    ) {
        let want = built_from_pairs(pairs.clone(), &cfg);
        let mut list = VecSource::new("scripted", pairs);
        prop_assert!(built_from_source(&mut list, &cfg) == want, "from the list");

        let path = scratch("honest");
        build_store_from_source(&path, &mut list, &cfg).expect("build from the list");
        let store = PagedStore::open(&path, StoreOptions::with_pool_pages(2)).expect("open");
        let from_paged = built_from_source(&mut store.source(), &cfg);
        drop(store);
        std::fs::remove_file(&path).expect("remove the store");
        prop_assert!(from_paged == want, "rebuilt from a paged source");
    }

    /// A source that streams its list out of order — shuffled whole, or
    /// in grade order with the oids of each tie shuffled — builds the
    /// bytes of the list.
    #[test]
    fn an_out_of_order_drain_builds_the_bytes_of_its_pairs(
        pairs in lists(),
        seed in 0u64..u64::MAX,
        cfg in page_sizes(),
    ) {
        let stream = stream_of(&mut VecSource::new("scripted", pairs));
        let mut ties_shuffled = stream.clone();
        for run in ties_shuffled.chunk_by_mut(|a, b| a.grade == b.grade) {
            let copy = shuffled(run.to_vec(), seed);
            run.copy_from_slice(&copy);
        }
        builds_like_the_pairs(ties_shuffled, &cfg)?;
        builds_like_the_pairs(shuffled(stream, seed), &cfg)?;
    }

    /// A source that streams an oid twice, at a grade in stream order or
    /// out of it, builds the bytes of its pairs with the last grade
    /// kept — in stream order or not.
    #[test]
    fn a_drain_repeating_an_oid_keeps_its_last_grade(
        pairs in lists(),
        repeats in proptest::collection::vec((0usize..400, 0usize..400, 0.0..=1.0_f64), 1..6),
        seed in 0u64..4,
        cfg in page_sizes(),
    ) {
        let mut stream = stream_of(&mut VecSource::new("scripted", pairs));
        prop_assume!(!stream.is_empty());
        for (from, to, grade) in repeats {
            let oid = stream[from % stream.len()].id;
            let at = to % (stream.len() + 1);
            stream.insert(at, ScoredObject::new(oid, Score::clamped(grade)));
        }
        // Seed 0: the repeats stay where they were put.
        let stream = if seed == 0 { stream } else { shuffled(stream, seed) };
        builds_like_the_pairs(stream, &cfg)?;
    }
}

/// A source that grades oids past the universe it declares, in stream
/// order or not, builds the bytes of its pairs.
#[test]
fn a_drain_past_its_universe_builds_the_bytes_of_its_pairs() {
    let grades = [0.9, 0.5, 0.5, 0.25, 0.0];
    let past: Vec<ScoredObject<Oid>> = [7_u64, 3, 1_000, u64::MAX, 2]
        .iter()
        .zip(grades)
        .map(|(&oid, grade)| ScoredObject::new(oid, Score::clamped(grade)))
        .collect();
    for cfg in [BuildConfig::with_page_size(256), BuildConfig::DEFAULT] {
        builds_like_the_pairs(past.clone(), &cfg).unwrap();
        builds_like_the_pairs(shuffled(past.clone(), 5), &cfg).unwrap();
    }
}

/// Lists the strategies draw only by chance: empty, one entry, one
/// grade throughout, crisp, subnormal runs, dense lists of 2^16 and
/// 2^16 + 1 (one radix pass, and the first list that needs two), and
/// dense runs from oid 7 either side of 511 (a 4 KiB page of grades),
/// whole and missing their middle oid, in order and shuffled.
#[test]
fn edge_lists_build_the_bytes_of_their_pairs() {
    let grade = |i: u64| (i * 7919 % 1000) as f64 / 999.0;
    let run = |first: u64, n: u64, grade: &dyn Fn(u64) -> f64| -> Vec<(Oid, Score)> {
        (first..first + n)
            .map(|i| (i, Score::clamped(grade(i))))
            .collect()
    };
    let mut lists = vec![
        Vec::new(),
        vec![(u64::MAX, Score::HALF)],
        run(0, 300, &|_| 0.5),
        run(0, 300, &|i| f64::from(u8::from(i % 3 == 0))),
        run(0, 300, &|i| f64::from_bits(i % 4)),
        run(0, 1 << 16, &grade),
        run(0, (1 << 16) + 1, &grade),
    ];
    for n in [1, 511, 512, 513] {
        let whole = run(7, n, &grade);
        let holed = whole
            .iter()
            .copied()
            .filter(|&(oid, _)| oid != 7 + n / 2)
            .collect();
        lists.extend([whole, holed]);
    }
    for cfg in [BuildConfig::with_page_size(256), BuildConfig::DEFAULT] {
        for pairs in &lists {
            let len = pairs.len();
            let want = built_from_pairs(pairs.clone(), &cfg);
            let mut list = VecSource::new("scripted", pairs.clone());
            assert!(built_from_source(&mut list, &cfg) == want, "{len} pairs");
            let stream = stream_of(&mut list);
            builds_like_the_pairs(shuffled(stream, 11), &cfg).unwrap();
        }
    }
}

/// A liar whose stream runs past the universe it declares is refused
/// as before: no file.
#[test]
fn a_drain_longer_than_its_universe_builds_no_store() {
    let stream = (0..10).map(|i| ScoredObject::new(i, Score::HALF)).collect();
    let mut liar = Scripted::new(stream);
    liar.universe = 4;
    let path = scratch("long");
    let built = build_store_from_source(&path, &mut liar, &BuildConfig::DEFAULT);
    assert!(
        matches!(
            built,
            Err(StoreError::ShortSource {
                expected: 4,
                drained: 10
            })
        ),
        "{built:?}"
    );
    assert!(!path.exists(), "no file is written");
}
