//! Names kept only because `perfbench/` spells them.
//!
//! `perfbench/` is the repository's benchmark program, and it changes
//! only together with the benchmark it defines. Where the library drops
//! a feature that program names, the name stays here as an inert,
//! `#[doc(hidden)]` shim, re-exported at its old path, so the program
//! builds and measures unchanged. A change that ports `perfbench/` off
//! these names deletes this module with them; its tests list every
//! shim together with its user there.
//!
//! Sharded TA is gone: `run_many`'s pool is the library's only
//! parallelism, and every request runs its kernel on the caller's
//! thread. What is left of it:
//!
//! * [`SourcePartitioner`] and [`ShardedSource`] have no values, so
//!   [`GradedSource::partition`], which takes the first, can never be
//!   called;
//! * [`ExecPolicy::sharded_over`] returns the policy unchanged.
//!
//! The wide, infallible source trait is gone too: the engine and every
//! kernel speak [`Subsystem`], whose accesses can fail. What is left of
//! it:
//!
//! * [`GradedSource`], the old trait, which perfbench's `TimedSource`
//!   implements and whose `dyn` perfbench hands to
//!   [`crate::algorithms::TopKAlgorithm::top_k`], to
//!   [`crate::request::SharedSource`] and to the oracle. Every
//!   [`Subsystem`] is one, by the blanket impl below: an access that
//!   fails answers what the old trait answered on failure (an empty
//!   batch, grade 0), and a paged store still parks the error for
//!   [`PagedStore::take_error`]. Its hidden `subsystem` hook hands the
//!   kernel the narrow trait back, so a typed error from a bare source
//!   still reaches the caller; only a source that implements the old
//!   trait alone is read through the infallible `Infallible` adapter.
//! * `note_threshold`, `sorted_drain_bounded` and
//!   `random_access_bounded`, which only the old trait has: no kernel
//!   feeds a threshold, and the two bounded accesses are inherent
//!   methods of the sources that answer them
//!   ([`crate::store::PagedSource`], [`VecSource`]'s drain).
//! * `PagedStore::{take_error, readahead_loads}` and
//!   `Engine::{cache_counters, cache_evictions}`, which perfbench reads.

use std::any::Any;
use std::fmt;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;

use crate::engine::Engine;
use crate::policy::ExecPolicy;
use crate::source::{Caps, Grades, Oid, SourceError, SourceInfo, Subsystem, VecSource};
use crate::stats::PageIoStats;
use crate::store::{PagedSource, PagedStore, StoreError};

/// Once the way a sharded query split its universe; has no values.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePartitioner {}

/// Once one shard of a partitioned source; has no values.
#[doc(hidden)]
#[derive(Debug)]
pub enum ShardedSource {}

impl ExecPolicy {
    /// Returns the policy unchanged: there is no intra-query sharding.
    #[doc(hidden)]
    pub fn sharded_over(self, _: usize) -> Self {
        self
    }
}

/// The source trait perfbench spells: [`Subsystem`]'s accesses, each
/// infallible, and the hooks no kernel calls any more.
#[doc(hidden)]
pub trait GradedSource {
    /// The next object under sorted access; `None` once all have
    /// streamed or an access failed.
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>>;

    /// The grade of `oid`; 0 when unknown or when the access failed.
    fn random_access(&mut self, oid: Oid) -> Score;

    /// Restarts sorted access from the highest grade.
    fn rewind(&mut self);

    /// Label and universe size.
    fn info(&self) -> SourceInfo;

    /// Up to `n` further objects of the sorted stream.
    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        std::iter::from_fn(|| self.sorted_next()).take(n).collect()
    }

    /// The grade of each oid in `oids`.
    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        oids.iter().map(|&oid| self.random_access(oid)).collect()
    }

    /// `SourcePartitioner` has no values, so nothing can call this.
    fn partition(
        &self,
        partitioner: SourcePartitioner,
        shards: usize,
    ) -> Option<Vec<ShardedSource>> {
        let _ = (partitioner, shards);
        None
    }

    /// [`Caps::histogram`].
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        let _ = bins;
        None
    }

    /// [`Caps::page_io`].
    fn page_io(&self) -> Option<PageIoStats> {
        None
    }

    /// A hint no kernel gives any more.
    fn note_threshold(&mut self, bound: Score) {
        let _ = bound;
    }

    /// The remaining entries graded ≥ `bound`; `None` when the source
    /// has no bounded drain.
    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let _ = bound;
        None
    }

    /// The grade of `oid` when ≥ `bound`, else 0.
    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        let grade = self.random_access(oid);
        if grade >= bound {
            grade
        } else {
            Score::ZERO
        }
    }

    /// The source as a [`Subsystem`], when it is one: its accesses then
    /// reach the kernel fallible and in one dynamic call.
    fn subsystem(&mut self) -> Option<&mut dyn Subsystem> {
        None
    }
}

impl fmt::Debug for dyn GradedSource + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GradedSource({})", self.info())
    }
}

impl fmt::Debug for dyn GradedSource + Send + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GradedSource({})", self.info())
    }
}

/// Every subsystem speaks the old trait. A failed access answers what
/// the old trait answered on failure; the error itself reaches a caller
/// through [`GradedSource::subsystem`].
impl<T: Subsystem + 'static> GradedSource for T {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        Subsystem::sorted_next(self).ok().flatten()
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        Subsystem::random_access(self, oid).unwrap_or(Score::ZERO)
    }

    fn rewind(&mut self) {
        Subsystem::rewind(self);
    }

    fn info(&self) -> SourceInfo {
        Subsystem::info(self)
    }

    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        Subsystem::sorted_batch(self, n).unwrap_or_default()
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        Subsystem::random_batch(self, oids).unwrap_or_else(|_| vec![Score::ZERO; oids.len()])
    }

    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        self.caps().histogram(bins)
    }

    fn page_io(&self) -> Option<PageIoStats> {
        self.caps().page_io
    }

    // The two sources with a bounded drain have it inherent.
    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let any: &mut dyn Any = self;
        if let Some(paged) = any.downcast_mut::<PagedSource>() {
            return Some(paged.sorted_drain_bounded(bound).unwrap_or_default());
        }
        any.downcast_mut::<VecSource>()
            .map(|vec| vec.sorted_drain_bounded(bound))
    }

    fn subsystem(&mut self) -> Option<&mut dyn Subsystem> {
        Some(self)
    }
}

/// A source of the old trait seen through the narrow one: itself, or
/// the infallible adapter when it implements the old trait alone.
pub(crate) enum Narrowed<'a> {
    Direct(&'a mut dyn Subsystem),
    Adapted(Infallible<'a>),
}

impl<'a> Narrowed<'a> {
    pub(crate) fn new(source: &'a mut dyn GradedSource) -> Narrowed<'a> {
        if source.subsystem().is_none() {
            return Narrowed::Adapted(Infallible(source));
        }
        // Asked twice: a borrow that one arm returns cannot be used in
        // the other.
        match source.subsystem() {
            Some(narrow) => Narrowed::Direct(narrow),
            None => unreachable!("the hook answered `Some` a moment ago"),
        }
    }

    pub(crate) fn get(&mut self) -> &mut dyn Subsystem {
        match self {
            Narrowed::Direct(narrow) => &mut **narrow,
            Narrowed::Adapted(adapter) => adapter,
        }
    }

    pub(crate) fn get_ref(&self) -> &dyn Subsystem {
        match self {
            Narrowed::Direct(narrow) => &**narrow,
            Narrowed::Adapted(adapter) => adapter,
        }
    }
}

/// Runs `f` over `sources` seen through the narrow trait: the door from
/// the old trait's slices to the kernels.
pub(crate) fn narrowed<R>(
    sources: &mut [&mut dyn GradedSource],
    f: impl FnOnce(&mut [&mut dyn Subsystem]) -> R,
) -> R {
    let mut views: Vec<Narrowed<'_>> = sources
        .iter_mut()
        .map(|source| Narrowed::new(&mut **source))
        .collect();
    let mut refs: Vec<&mut dyn Subsystem> = views.iter_mut().map(Narrowed::get).collect();
    f(&mut refs)
}

/// A source that implements the old trait alone (perfbench's
/// `TimedSource`), read as a subsystem whose accesses never fail.
pub(crate) struct Infallible<'a>(&'a mut dyn GradedSource);

impl Subsystem for Infallible<'_> {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        Ok(self.0.sorted_batch(n))
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        Ok(self.0.random_batch(oids))
    }

    fn rewind(&mut self) {
        self.0.rewind();
    }

    fn info(&self) -> SourceInfo {
        self.0.info()
    }

    fn caps(&self) -> Caps<'_> {
        Caps {
            grades: Some(Grades::shim(&*self.0)),
            page_io: self.0.page_io(),
        }
    }

    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        Ok(self.0.sorted_next())
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        Ok(self.0.random_access(oid))
    }
}

impl PagedStore {
    /// Retrieves (and clears) the first runtime error any cursor of
    /// this store hit since the last call. Every such access also
    /// returned the error.
    #[doc(hidden)]
    pub fn take_error(&self) -> Option<StoreError> {
        self.take_parked()
    }

    /// Always 0: the store reads no page ahead.
    #[doc(hidden)]
    pub fn readahead_loads(&self) -> u64 {
        0
    }
}

impl Engine {
    /// Always `(0, 0)`: the engine keeps no grade cache.
    #[doc(hidden)]
    pub fn cache_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Always 0, for the same reason.
    #[doc(hidden)]
    pub fn cache_evictions(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use fmdb_core::score::{Score, ScoredObject};
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_core::stats::GradeHistogram;

    use super::GradedSource;
    use crate::algorithms::ta::ThresholdAlgorithm;
    use crate::algorithms::TopKAlgorithm;
    use crate::engine::Engine;
    use crate::planner::StatsBasis;
    use crate::policy::{Algo, ExecPolicy};
    use crate::request::{shared_source, TopKQuery};
    use crate::source::{Oid, SourceInfo, Subsystem, VecSource};
    use crate::workload::independent_uniform;

    /// Every shim, and the `perfbench/src` text that uses it.
    const SHIMS: [(&str, &str); 14] = [
        ("source::ShardedSource", "Option<Vec<ShardedSource>>"),
        (
            "source::SourcePartitioner",
            "partitioner: SourcePartitioner",
        ),
        (
            "GradedSource::partition",
            "self.inner.partition(partitioner, shards)",
        ),
        ("ExecPolicy::sharded_over", ".sharded_over(2)"),
        (
            "source::GradedSource",
            "impl<S: GradedSource> GradedSource for TimedSource<S>",
        ),
        (
            "the blanket `impl<T: Subsystem> GradedSource for T`",
            ".map(|c| c as &mut dyn GradedSource)",
        ),
        ("GradedSource::subsystem", ".top_k(cursors, &Min, K)"),
        (
            "GradedSource::note_threshold",
            "fn note_threshold(&mut self, bound: Score)",
        ),
        (
            "GradedSource::sorted_drain_bounded",
            ".sorted_drain_bounded(Score::clamped(BOUND))",
        ),
        (
            "GradedSource::random_access_bounded",
            "fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score",
        ),
        ("PagedStore::take_error", "store.take_error()"),
        ("PagedStore::readahead_loads", "store.readahead_loads()"),
        ("Engine::cache_counters", "engine.cache_counters()"),
        ("Engine::cache_evictions", "engine.cache_evictions()"),
    ];

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = std::fs::read_dir(dir).expect("directory is readable");
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A source of the old trait alone, as perfbench's `TimedSource` is.
    struct OldOnly(VecSource);

    impl GradedSource for OldOnly {
        fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
            GradedSource::sorted_next(&mut self.0)
        }
        fn random_access(&mut self, oid: Oid) -> Score {
            GradedSource::random_access(&mut self.0, oid)
        }
        fn rewind(&mut self) {
            GradedSource::rewind(&mut self.0);
        }
        fn info(&self) -> SourceInfo {
            GradedSource::info(&self.0)
        }
        fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
            GradedSource::grade_histogram(&self.0, bins)
        }
    }

    /// Through the adapter, a source of the old trait alone answers as
    /// the subsystem it wraps: scalar `top_k`, and the engine, whose
    /// planner reads its histogram.
    #[test]
    fn a_source_of_the_old_trait_alone_runs_through_the_adapter() {
        let lists = || independent_uniform(300, 2, 9);
        let mut bare = lists();
        let mut refs: Vec<&mut dyn Subsystem> = bare.iter_mut().map(|s| s as _).collect();
        let want = ThresholdAlgorithm.evaluate(&mut refs, &Min, 5).unwrap();

        let mut old: Vec<OldOnly> = lists().into_iter().map(OldOnly).collect();
        let mut refs: Vec<&mut dyn GradedSource> = old.iter_mut().map(|s| s as _).collect();
        assert!(refs.iter_mut().all(|s| s.subsystem().is_none()));
        assert_eq!(ThresholdAlgorithm.top_k(&mut refs, &Min, 5).unwrap(), want);

        let mut query = TopKQuery::compose();
        for list in lists() {
            query = query.shared_source(shared_source(OldOnly(list)));
        }
        let request = query.scoring(Min).k(5).request().unwrap();
        let engine = Engine::default();
        assert!(matches!(
            engine.explain(&request).unwrap().basis,
            StatsBasis::Histograms { sources: 2 }
        ));
        let policy = request
            .query()
            .clone()
            .into_request(ExecPolicy::new().algo(Algo::Ta));
        let got = engine.run(&policy).unwrap();
        assert_eq!(
            (got.answers, got.stats.sorted),
            (want.answers, want.stats.sorted)
        );
    }

    /// A shim no `perfbench/` file names is dead: delete it.
    #[test]
    fn every_shim_has_a_user_in_perfbench() {
        let mut files = Vec::new();
        rust_files(&root().join("perfbench/src"), &mut files);
        let text: String = files
            .iter()
            .map(|file| std::fs::read_to_string(file).expect("perfbench source is UTF-8"))
            .collect();
        for (shim, user) in SHIMS {
            assert!(
                text.contains(user),
                "no perfbench file spells `{user}`: delete the `{shim}` shim"
            );
        }
    }

    /// The old trait is perfbench's: the workspace implements
    /// `Subsystem`, and only the blanket impl here makes it a
    /// `GradedSource`.
    #[test]
    fn nothing_outside_this_module_implements_the_old_trait() {
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            rust_files(&root().join(dir), &mut files);
        }
        let needle = concat!("GradedSource", " for");
        let found: Vec<String> = files
            .iter()
            .filter(|file| !file.ends_with("middleware/src/frozen.rs"))
            .flat_map(|file| {
                let text = std::fs::read_to_string(file).expect("source is UTF-8");
                text.lines()
                    .filter(|line| line.contains("impl") && line.contains(needle))
                    .map(|line| format!("{}: {}", file.display(), line.trim()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(found.is_empty(), "{}", found.join("\n"));
    }
}
