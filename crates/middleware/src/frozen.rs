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
//!
//! A strategy has one name, its [`PhysicalPlan`], and one door, the
//! plan's [`Cursor`]. What is left of the other names:
//!
//! * the seven algorithm values perfbench runs as [`TopKAlgorithm`]s —
//!   `FaginsAlgorithm`, `ThresholdAlgorithm`, `NraLowerBound`,
//!   `CombinedAlgorithm::for_cost`, `ApproxTa::new`, `MaxMerge` and
//!   `Naive` — each a plan in a `PlanShim`, which runs
//!   [`Cursor::once`] under the old name;
//! * [`Algo`] with [`ExecPolicy::algo`], which name a plan, and
//!   [`ExecPolicy::algorithm`] and [`plan_algorithm`], which hand one
//!   back as a boxed `PlanShim`.

use std::any::Any;
use std::fmt;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;
use fmdb_core::stats::GradeHistogram;

use crate::algorithms::{AlgoError, Cursor, TopKAlgorithm, TopKResult};
use crate::engine::Engine;
use crate::planner::PhysicalPlan;
use crate::policy::{interleave_depth, ExecPolicy};
use crate::source::{Caps, Grades, Oid, SourceError, SourceInfo, Subsystem, VecSource};
use crate::stats::{CostModel, PageIoStats};
use crate::store::{PagedSource, PagedStore, StoreError};

use self::plans::PlanShim;
pub use self::plans::{
    ApproxTa, CombinedAlgorithm, FaginsAlgorithm, MaxMerge, Naive, NraLowerBound,
    ThresholdAlgorithm,
};

#[doc(hidden)]
#[expect(
    non_upper_case_globals,
    reason = "perfbench spells the unit structs these were"
)]
mod plans {
    use super::PhysicalPlan;

    /// A plan and its slack θ, run as a [`super::TopKAlgorithm`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PlanShim(pub(super) PhysicalPlan, pub(super) f64);

    pub const FaginsAlgorithm: PlanShim = PlanShim(PhysicalPlan::Fa, 0.0);
    pub const ThresholdAlgorithm: PlanShim = PlanShim(PhysicalPlan::Ta, 0.0);
    pub const NraLowerBound: PlanShim = PlanShim(PhysicalPlan::Nra, 0.0);
    pub const MaxMerge: PlanShim = PlanShim(PhysicalPlan::MaxMerge, 0.0);
    pub const Naive: PlanShim = PlanShim(PhysicalPlan::FullScan, 0.0);
    /// `ApproxTa::new` is `PlanShim::new`.
    pub type ApproxTa = PlanShim;
    /// `CombinedAlgorithm::for_cost` is `PlanShim::for_cost`.
    pub type CombinedAlgorithm = PlanShim;
}

impl TopKAlgorithm for PlanShim {
    /// The old struct's name: the plan's, but the scan's.
    fn name(&self) -> &'static str {
        match self.0 {
            PhysicalPlan::FullScan => "naive",
            plan => plan.name(),
        }
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        Cursor::once(self.0, self.1, sources, scoring, k)
    }
}

impl PlanShim {
    /// `ApproxTa::new(theta)`.
    pub fn new(theta: f64) -> PlanShim {
        PlanShim(PhysicalPlan::ApproxTa, theta)
    }

    /// `CombinedAlgorithm::for_cost(cost, theta)`: CA at `cost`'s depth.
    pub fn for_cost(cost: &CostModel, theta: f64) -> PlanShim {
        let h = interleave_depth(cost);
        PlanShim(PhysicalPlan::Ca { h }, theta)
    }
}

/// The algorithm a policy named before it named a plan.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// No plan: the planner chooses.
    #[default]
    Auto,
    /// [`PhysicalPlan::Fa`].
    Fa,
    /// [`PhysicalPlan::Ta`].
    Ta,
    /// [`PhysicalPlan::Nra`].
    Nra,
    /// [`PhysicalPlan::Ca`], at the cost model's depth.
    Ca,
}

/// The plan as a boxed [`TopKAlgorithm`]; `None` for the crisp filter,
/// which runs above the middleware.
#[doc(hidden)]
pub fn plan_algorithm(
    plan: PhysicalPlan,
    theta: f64,
) -> Option<Box<dyn TopKAlgorithm + Send + Sync>> {
    (plan != PhysicalPlan::CrispFilter).then(|| Box::new(PlanShim(plan, theta)) as _)
}

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

    /// Names `algo`'s plan; [`ExecPolicy::resolve`] gives CA its depth
    /// and the θ-variant once every setter has run.
    #[doc(hidden)]
    pub fn algo(mut self, algo: Algo) -> Self {
        self.plan = match algo {
            Algo::Auto => None,
            Algo::Fa => Some(PhysicalPlan::Fa),
            Algo::Ta => Some(PhysicalPlan::Ta),
            Algo::Nra => Some(PhysicalPlan::Nra),
            Algo::Ca => Some(PhysicalPlan::Ca { h: 1 }),
        };
        self
    }

    /// [`ExecPolicy::resolve`]'s plan as a boxed [`TopKAlgorithm`].
    #[doc(hidden)]
    pub fn algorithm(&self) -> Result<Box<dyn TopKAlgorithm + Send + Sync>, AlgoError> {
        let plan = self.resolve()?;
        plan_algorithm(plan, self.theta).ok_or_else(|| {
            AlgoError::InvalidRequest(format!("plan {plan} is not a middleware algorithm"))
        })
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

    use super::{
        plan_algorithm, Algo, ApproxTa, CombinedAlgorithm, GradedSource, Naive, ThresholdAlgorithm,
    };
    use crate::algorithms::TopKAlgorithm;
    use crate::engine::Engine;
    use crate::planner::StatsBasis;
    use crate::policy::ExecPolicy;
    use crate::request::{shared_source, TopKQuery};
    use crate::source::{Oid, SourceInfo, Subsystem, VecSource};
    use crate::workload::independent_uniform;

    /// Every shim, and the `perfbench/src` text that uses it.
    const SHIMS: [(&str, &str); 25] = [
        ("algorithms::fa::FaginsAlgorithm", "Some(&FaginsAlgorithm)"),
        (
            "algorithms::ta::ThresholdAlgorithm",
            "Some(&ThresholdAlgorithm)",
        ),
        ("algorithms::nra::NraLowerBound", "Box::new(NraLowerBound)"),
        (
            "algorithms::ca::CombinedAlgorithm",
            "CombinedAlgorithm::for_cost(&ca_cost, 0.0)",
        ),
        ("algorithms::approx::ApproxTa", "ApproxTa::new(0.1)"),
        (
            "algorithms::max_merge::MaxMerge",
            ".run_algorithm(&MaxMerge",
        ),
        ("algorithms::naive::Naive", "Some(&Naive)"),
        ("policy::Algo", "forced(Algo::Ca).cost_model("),
        ("ExecPolicy::algo", "ExecPolicy::new().algo(algo)"),
        ("ExecPolicy::algorithm", "request.policy().algorithm()"),
        (
            "planner::plan_algorithm",
            "plan_algorithm(explain.chosen, 0.0)",
        ),
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

    /// The strategy shims' names, as code would spell them.
    const STRATEGY_SHIMS: [&str; 11] = [
        "FaginsAlgorithm",
        "ThresholdAlgorithm",
        "NraLowerBound",
        "CombinedAlgorithm",
        "ApproxTa",
        "MaxMerge",
        "Naive",
        "Algo",
        "plan_algorithm",
        ".algo(",
        ".algorithm(",
    ];

    /// The strategy shims `text` names, line by line, its comments
    /// cut. A name qualified by a type (`PhysicalPlan::MaxMerge`,
    /// `AlgoChoice::Naive`) is that type's variant, and so is one that
    /// opens a line outside a `use` list (`MaxMerge,` in an `enum`). A
    /// re-export from this module keeps a shim's old path.
    fn shims_named(text: &str) -> Vec<(&str, &'static str)> {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        let mut named = Vec::new();
        let mut in_use = false;
        for line in text.lines() {
            let code = line.split("//").next().unwrap_or("");
            let first = code.trim_start();
            let opens_use = first.starts_with("use ") || first.starts_with("pub use ");
            in_use = (in_use || opens_use) && !code.contains(';');
            let listed = in_use || opens_use;
            if first.starts_with("pub use crate::frozen::") {
                continue;
            }
            for shim in STRATEGY_SHIMS {
                for (at, _) in code.match_indices(shim) {
                    let (before, after) = (&code[..at], &code[at + shim.len()..]);
                    if shim.starts_with('.') {
                        named.push((line, shim));
                        continue;
                    }
                    if before.ends_with(is_ident) || after.starts_with(is_ident) {
                        continue;
                    }
                    let qualifier = before.strip_suffix("::").map(|path| {
                        let start = path.rfind(|c: char| !is_ident(c)).map_or(0, |i| i + 1);
                        &path[start..]
                    });
                    let declared = !listed && before.trim().is_empty();
                    if !declared && !qualifier.is_some_and(|q| q.starts_with(char::is_uppercase)) {
                        named.push((line, shim));
                    }
                }
            }
        }
        named
    }

    #[test]
    fn the_guard_tells_a_shim_from_a_variant() {
        let shims = |text| -> Vec<&str> { shims_named(text).into_iter().map(|(_, s)| s).collect() };
        assert_eq!(shims("use crate::algorithms::naive::Naive;"), ["Naive"]);
        assert_eq!(shims("use crate::x::{\n    MaxMerge,\n};"), ["MaxMerge"]);
        assert_eq!(shims("let a = [\n    &MaxMerge,\n];"), ["MaxMerge"]);
        assert_eq!(
            shims("ExecPolicy::new().algo(Algo::Ta)"),
            ["Algo", ".algo("]
        );
        assert!(shims("PhysicalPlan::MaxMerge => AlgoChoice::Naive").is_empty());
        assert!(shims("EngineError::Algo(e) => AlgoError::ZeroK, // Naive").is_empty());
        assert!(shims("enum E {\n    Algo(AlgoError),\n    Naive,\n}").is_empty());
        assert!(shims("NaiveScan, ApproxTaBound").is_empty());
        assert!(shims("pub use crate::frozen::Naive;").is_empty());
    }

    /// A strategy has one name, its plan: the shims above are
    /// perfbench's, and nothing else in the workspace may name them.
    #[test]
    fn nothing_outside_this_module_names_a_strategy_shim() {
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            rust_files(&root().join(dir), &mut files);
        }
        let found: Vec<String> = files
            .iter()
            .filter(|file| !file.ends_with("middleware/src/frozen.rs"))
            .flat_map(|file| {
                let text = std::fs::read_to_string(file).expect("source is UTF-8");
                shims_named(&text)
                    .into_iter()
                    .map(|(line, shim)| format!("{}: {shim}: {}", file.display(), line.trim()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(found.is_empty(), "{}", found.join("\n"));
    }

    /// Each `Algo` shim names the plan it named before: CA at the cost
    /// model's depth and the θ-variant, resolved after every setter.
    #[test]
    fn every_algo_shim_resolves_as_before() {
        use crate::planner::PhysicalPlan as P;
        use crate::stats::CostModel;

        let ratio10 = CostModel::random_to_sorted_ratio(10.0).unwrap();
        // (algo, [exact/uniform, exact/10, θ/uniform, θ/10]); None = rejected.
        let rows = [
            (
                Algo::Auto,
                [
                    Some(P::Ta),
                    Some(P::Nra),
                    Some(P::ApproxTa),
                    Some(P::ApproxNra),
                ],
            ),
            (Algo::Fa, [Some(P::Fa), Some(P::Fa), None, None]),
            (
                Algo::Ta,
                [
                    Some(P::Ta),
                    Some(P::Ta),
                    Some(P::ApproxTa),
                    Some(P::ApproxTa),
                ],
            ),
            (
                Algo::Nra,
                [
                    Some(P::Nra),
                    Some(P::Nra),
                    Some(P::ApproxNra),
                    Some(P::ApproxNra),
                ],
            ),
            (
                Algo::Ca,
                [
                    Some(P::Ca { h: 1 }),
                    Some(P::Ca { h: 10 }),
                    Some(P::Ca { h: 1 }),
                    Some(P::Ca { h: 10 }),
                ],
            ),
        ];
        for (algo, cells) in rows {
            for (cell, want) in cells.into_iter().enumerate() {
                let mut policy = ExecPolicy::new().algo(algo);
                if cell % 2 == 1 {
                    policy = policy.cost_model(ratio10);
                }
                if cell >= 2 {
                    policy = policy.theta(0.1);
                }
                assert_eq!(policy.resolve().ok(), want, "{policy:?}");
                let name = policy.algorithm().ok().map(|a| a.name());
                assert_eq!(name, want.map(|plan| plan.name()), "{policy:?}");
            }
        }
        assert_eq!(Naive.name(), "naive");
        assert_eq!(ApproxTa::new(0.1).name(), "approx-ta");
        assert_eq!(
            CombinedAlgorithm::for_cost(&ratio10, 0.0).0,
            P::Ca { h: 10 }
        );
        assert!(plan_algorithm(P::CrispFilter, 0.0).is_none());
    }
}
