//! The middleware access model (§4).
//!
//! A multimedia middleware system (Garlic) sits "on top of" autonomous
//! subsystems (QBIC, a relational DBMS, …) and can obtain grades from
//! them in exactly two ways:
//!
//! * **sorted access** — the subsystem streams `(object, grade)` pairs
//!   one by one in descending grade order until told to stop, and can
//!   later resume where it left off;
//! * **random access** — the subsystem reports the grade of one given
//!   object.
//!
//! [`Subsystem`] captures this interface, and nothing else: a batch of
//! each access mode, a rewind, and what the source says about itself
//! ([`Subsystem::info`], [`Subsystem::caps`]). Everything the paper's
//! algorithms are allowed to learn about a subquery flows through it,
//! which is what makes the *database access cost* (sorted accesses +
//! random accesses) a meaningful complexity measure. An access can
//! fail — a page fails its checksum, a remote subsystem goes away — and
//! says so with a [`SourceError`]; a query over a failed source fails
//! with it, it never answers short.
//!
//! The materialized implementation, [`VecSource`], keeps a list as two
//! arrays, one per access mode; see DESIGN §17.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;

#[doc(hidden)]
pub use crate::frozen::{GradedSource, ShardedSource, SourcePartitioner};
use crate::stats::PageIoStats;

/// Object identity, assumed (as Garlic had to ensure, §4.2) to be a
/// one-to-one mapping across all subsystems participating in a query.
pub type Oid = u64;

/// Static metadata a subsystem reports about one graded source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// A short label for diagnostics ("Color='red'", …).
    pub label: String,
    /// The number of objects in this subsystem's universe (the paper's
    /// `N` — all sources in one query share the same universe).
    pub universe_size: usize,
}

impl SourceInfo {
    /// Builds the metadata record.
    pub fn new(label: impl Into<String>, universe_size: usize) -> SourceInfo {
        SourceInfo {
            label: label.into(),
            universe_size,
        }
    }
}

impl fmt::Display for SourceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (N={})", self.label, self.universe_size)
    }
}

/// Why a subsystem could not answer an access: the subsystem's own
/// error (a [`crate::store::StoreError`] for a paged source), shared so
/// the query errors that carry it stay `Clone`. One pointer wide (the
/// box makes the shared pointer thin), so an access's `Result` is no
/// wider than its answer needs.
#[derive(Debug, Clone)]
pub struct SourceError(Arc<Box<dyn std::error::Error + Send + Sync>>);

impl SourceError {
    /// Wraps the subsystem's error.
    pub fn new(cause: impl std::error::Error + Send + Sync + 'static) -> SourceError {
        SourceError(Arc::new(Box::new(cause)))
    }

    /// The subsystem's error; `downcast_ref` recovers its type.
    pub fn cause(&self) -> &(dyn std::error::Error + Send + Sync + 'static) {
        &**self.0
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.cause())
    }
}

/// Two failures are equal when they report the same cause.
impl PartialEq for SourceError {
    fn eq(&self, other: &SourceError) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.to_string() == other.to_string()
    }
}

/// What a subsystem tells about itself without charging an access:
/// the grade statistics the planner prices it by, and the page
/// counters the engine folds into a request's stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caps<'a> {
    /// The source's grade distribution, or `None` when it cannot be
    /// had for free (a truly remote stream would have to be drained;
    /// the planner then falls back to its uniform-grade assumption).
    pub grades: Option<Grades<'a>>,
    /// Cumulative buffer-pool page counters, or `None` for an in-memory
    /// source. The engine diffs snapshots around a request to fold its
    /// page traffic into [`crate::stats::AccessStats`].
    pub page_io: Option<PageIoStats>,
}

impl Caps<'_> {
    /// An equi-depth histogram of the grades at `bins` bins, when the
    /// source can give one at that resolution.
    pub fn histogram(&self, bins: usize) -> Option<GradeHistogram> {
        self.grades?.histogram(bins)
    }
}

/// Where a source's grade histogram comes from.
#[derive(Clone, Copy)]
pub struct Grades<'a>(GradesFrom<'a>);

#[derive(Clone, Copy)]
enum GradesFrom<'a> {
    /// The whole sorted stream, in memory: any resolution is O(bins)
    /// index probes.
    Stream(&'a [ScoredObject<Oid>]),
    /// A histogram kept at one resolution (a store's stats page).
    Kept(&'a GradeHistogram),
    /// A source that only speaks the frozen trait.
    Shim(&'a dyn GradedSource),
}

impl<'a> Grades<'a> {
    /// The grades of a materialized sorted stream.
    pub fn stream(sorted: &'a [ScoredObject<Oid>]) -> Grades<'a> {
        Grades(GradesFrom::Stream(sorted))
    }

    /// A histogram kept at one resolution: it answers at that one, and
    /// at any when the universe is empty.
    pub fn kept(histogram: &'a GradeHistogram) -> Grades<'a> {
        Grades(GradesFrom::Kept(histogram))
    }

    pub(crate) fn shim(source: &'a dyn GradedSource) -> Grades<'a> {
        Grades(GradesFrom::Shim(source))
    }

    /// An equi-depth histogram at `bins` bins, if this source has one.
    pub fn histogram(&self, bins: usize) -> Option<GradeHistogram> {
        match self.0 {
            GradesFrom::Stream(sorted) => {
                Some(GradeHistogram::from_sorted_by(sorted.len(), bins, |i| {
                    sorted.get(i).map_or(Score::ZERO, |s| s.grade)
                }))
            }
            GradesFrom::Kept(h) => (h.universe() == 0 || h.bins() == bins).then(|| h.clone()),
            GradesFrom::Shim(source) => source.grade_histogram(bins),
        }
    }
}

impl fmt::Debug for Grades<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            GradesFrom::Stream(sorted) => write!(f, "Grades::Stream({} grades)", sorted.len()),
            GradesFrom::Kept(h) => write!(f, "Grades::Kept({h:?})"),
            GradesFrom::Shim(source) => write!(f, "Grades::Shim({source:?})"),
        }
    }
}

/// A subsystem evaluating one atomic subquery: sorted and random
/// access (§4), each of which can fail.
///
/// Implementations grade a fixed universe of `info().universe_size`
/// objects; objects the subsystem has no opinion about have grade 0 and
/// still appear (last) in the sorted stream, exactly like a crisp
/// predicate grading non-matching rows with 0.
///
/// The four required methods are the model. The scalar accesses
/// default to a batch of one, so a wrapper that forwards the batches
/// alone is slower but correct; a source that can serve one entry
/// cheaper than a batch ([`VecSource`], [`crate::store::PagedSource`])
/// overrides them. Either way a batch of `n` costs exactly `n` accesses.
pub trait Subsystem {
    /// Sorted access: up to `n` further objects of the sorted stream,
    /// in stream order. Fewer than `n` (possibly none) means the stream
    /// is exhausted. Grades are non-increasing across the stream; ties
    /// are broken by ascending object id so runs are deterministic.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError>;

    /// Random access: the grade of each oid in `oids`, in order. An oid
    /// outside the universe grades 0 (the subsystem has never heard of
    /// the object, so the query is false about it).
    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError>;

    /// Restarts sorted access from the highest grade.
    fn rewind(&mut self);

    /// Metadata about this source: label and universe size.
    fn info(&self) -> SourceInfo;

    /// What the source tells about itself for free: grade statistics
    /// and page counters. Must not advance the cursor or charge an
    /// access. The default tells nothing.
    fn caps(&self) -> Caps<'_> {
        Caps::default()
    }

    /// The next object under sorted access, `None` once all have been
    /// streamed: a batch of one.
    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        Ok(self.sorted_batch(1)?.pop())
    }

    /// The grade of one object: a batch of one.
    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        Ok(self.random_batch(&[oid])?.pop().unwrap_or(Score::ZERO))
    }
}

impl fmt::Debug for dyn Subsystem + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Subsystem({})", self.info())
    }
}

impl fmt::Debug for dyn Subsystem + Send + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Subsystem({})", self.info())
    }
}

/// The random-access half of a materialized graded list: its
/// `(oid, grade)` pairs in one array, ascending by oid, every oid once.
///
/// [`OidIndex::new`] is the one normalisation of "pairs a caller
/// handed us" that [`VecSource::new`] and the store builder share, and
/// [`OidIndex::sorted_stream`] is the one derivation of the sorted
/// half from it. Cloning shares the array.
#[derive(Debug, Clone)]
pub(crate) struct OidIndex(Arc<[(Oid, Score)]>);

impl OidIndex {
    /// Normalises `pairs`: ascending by oid, duplicate oids keeping the
    /// *last* grade given. Pairs that already arrive strictly
    /// increasing — every dense list, every repository list — are
    /// taken as they are.
    pub(crate) fn new(mut pairs: Vec<(Oid, Score)>) -> OidIndex {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable: equal oids stay in input order, so the last one
            // given ends its run and is the one kept.
            pairs.sort_by_key(|&(oid, _)| oid);
            pairs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    *kept = *later;
                }
                same
            });
        }
        OidIndex(pairs.into())
    }

    /// The pairs, ascending by oid.
    pub(crate) fn entries(&self) -> &[(Oid, Score)] {
        &self.0
    }

    /// The grade of `oid`; [`Score::ZERO`] when the list does not hold
    /// it.
    ///
    /// One array, two ways to find a slot in it. A list over the dense
    /// universe `0..n` keeps object `oid` at position `oid`: one load
    /// and one compare, and requiring the oid found there to *equal*
    /// the one asked for also rejects an `as usize` that truncated.
    /// Anything else is a binary search. (Not a `Vec<Score>` indexed
    /// by oid: a list holding oid `u64::MAX` must not be sized by its
    /// largest id.)
    #[inline]
    pub(crate) fn grade(&self, oid: Oid) -> Score {
        match self.0.get(oid as usize) {
            Some(&(at, grade)) if at == oid => grade,
            _ => match self.0.binary_search_by_key(&oid, |&(at, _)| at) {
                Ok(slot) => self.0[slot].1,
                Err(_) => Score::ZERO,
            },
        }
    }

    /// The sorted-access half: the same pairs by descending grade,
    /// ties by ascending oid.
    pub(crate) fn sorted_stream(&self) -> Vec<ScoredObject<Oid>> {
        let mut sorted: Vec<ScoredObject<Oid>> = self
            .0
            .iter()
            .map(|&(oid, grade)| ScoredObject::new(oid, grade))
            .collect();
        // Every oid occurs once, so (grade, oid) is a unique key and
        // an unstable sort has no equal elements to reorder: it gives
        // exactly the order a stable one would.
        sorted.sort_unstable_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        sorted
    }
}

/// An in-memory [`Subsystem`] over an explicit grade assignment.
///
/// This is both the test double for the algorithms and the adapter the
/// Garlic layer uses to expose repository attributes.
///
/// A list is what §4 says it is, twice: one array in grade order for
/// sorted access and one in oid order for random access, both derived
/// from the caller's pairs by the normalisation the paged store's
/// builder shares (`OidIndex`). No hash table: a probe of a list
/// over `0..n` is an array index, of any other list a binary search.
#[derive(Debug, Clone)]
pub struct VecSource {
    label: String,
    /// `(oid, grade)` sorted by descending grade, then ascending oid.
    sorted: Vec<ScoredObject<Oid>>,
    /// Random-access index: the same pairs, ascending by oid.
    by_oid: OidIndex,
    cursor: usize,
}

impl VecSource {
    /// Builds a source from `(oid, grade)` pairs.
    ///
    /// Duplicate oids keep the *last* grade given. Objects of the
    /// universe that are absent from `grades` are treated as grade 0 on
    /// random access but are **not** streamed by sorted access; use
    /// [`VecSource::from_dense`] when every object should be streamed.
    pub fn new(label: impl Into<String>, grades: Vec<(Oid, Score)>) -> VecSource {
        let by_oid = OidIndex::new(grades);
        VecSource {
            label: label.into(),
            sorted: by_oid.sorted_stream(),
            by_oid,
            cursor: 0,
        }
    }

    /// Builds a source grading the dense universe `0..grades.len()`,
    /// object `i` getting `grades[i]`.
    pub fn from_dense(label: impl Into<String>, grades: &[Score]) -> VecSource {
        VecSource::new(
            label,
            grades
                .iter()
                .enumerate()
                .map(|(i, &g)| (i as Oid, g))
                .collect(),
        )
    }

    /// Builds a source from a [`fmdb_core::graded_set::GradedSet`] over oids — the natural
    /// bridge when a subsystem's answer was materialized as a fuzzy set
    /// (§3) and must now be re-exposed through the access model (§4).
    pub fn from_graded_set(
        label: impl Into<String>,
        set: &fmdb_core::graded_set::GradedSet<Oid>,
    ) -> VecSource {
        VecSource::new(label, set.iter().map(|(&oid, g)| (oid, g)).collect())
    }

    /// The grade of the last object that would be streamed (the
    /// smallest grade in the source), if any.
    pub fn min_grade(&self) -> Option<Score> {
        self.sorted.last().map(|s| s.grade)
    }

    /// The largest oid the source grades, if any.
    pub fn max_oid(&self) -> Option<Oid> {
        self.by_oid.entries().last().map(|&(oid, _)| oid)
    }
}

impl VecSource {
    /// Bounded sorted drain: every remaining entry of the sorted stream
    /// with grade ≥ `bound`, in stream order, the cursor moved past
    /// exactly those. The reference the paged store's bounded drain
    /// ([`crate::store::PagedSource::sorted_drain_bounded`]) must equal
    /// (the `pruned_equivalence` suite checks).
    pub fn sorted_drain_bounded(&mut self, bound: Score) -> Vec<ScoredObject<Oid>> {
        let tail = &self.sorted[self.cursor.min(self.sorted.len())..];
        let take = tail.partition_point(|so| so.grade >= bound);
        let out = tail[..take].to_vec();
        self.cursor += take;
        out
    }
}

impl Subsystem for VecSource {
    // Batched access over the in-memory representation is a slice copy
    // / a sequence of index probes; no access can fail.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let end = self.cursor.saturating_add(n).min(self.sorted.len());
        let out = self.sorted[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(out)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        Ok(oids.iter().map(|&oid| self.by_oid.grade(oid)).collect())
    }

    fn rewind(&mut self) {
        self.cursor = 0;
    }

    fn info(&self) -> SourceInfo {
        SourceInfo::new(self.label.clone(), self.sorted.len())
    }

    // The sorted vec is materialized, so quantiles are O(bins) index
    // probes — free at optimizer time, nothing charged.
    fn caps(&self) -> Caps<'_> {
        Caps {
            grades: Some(Grades::stream(&self.sorted)),
            page_io: None,
        }
    }

    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        let item = self.sorted.get(self.cursor).copied();
        if item.is_some() {
            self.cursor += 1;
        }
        Ok(item)
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        Ok(self.by_oid.grade(oid))
    }
}

/// A wrapper that independently counts the accesses made to an inner
/// source.
///
/// The algorithms report their own access statistics; tests wrap their
/// sources in `CountingSource` to confirm the self-reported numbers
/// match what the sources actually observed (no unmetered peeking).
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    sorted_accesses: u64,
    random_accesses: u64,
}

impl<S: Subsystem> CountingSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> CountingSource<S> {
        CountingSource {
            inner,
            sorted_accesses: 0,
            random_accesses: 0,
        }
    }

    /// Observed number of sorted accesses.
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses
    }

    /// Observed number of random accesses.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses
    }

    /// Unwraps the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Subsystem> Subsystem for CountingSource<S> {
    // One access per item returned; an exhausted stream charges nothing.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let out = self.inner.sorted_batch(n)?;
        self.sorted_accesses += out.len() as u64;
        Ok(out)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        self.random_accesses += oids.len() as u64;
        self.inner.random_batch(oids)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    // Optimizer-time metadata charges nothing: forwarded unmetered, so
    // the planner sees the same statistics with or without the wrapper.
    fn caps(&self) -> Caps<'_> {
        self.inner.caps()
    }
}

/// Error emitted by [`ValidatingSource`] when a subsystem misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceViolation {
    /// Sorted access produced a grade higher than its predecessor.
    OutOfOrder {
        /// Grade of the previous item.
        previous: Score,
        /// The offending (higher) grade.
        current: Score,
    },
    /// Sorted access yielded the same object twice.
    DuplicateObject(Oid),
    /// Random access disagreed with what sorted access reported.
    InconsistentGrade {
        /// The object.
        oid: Oid,
        /// Grade seen under sorted access.
        sorted: Score,
        /// Grade seen under random access.
        random: Score,
    },
}

impl fmt::Display for SourceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceViolation::OutOfOrder { previous, current } => {
                write!(f, "sorted stream rose from {previous} to {current}")
            }
            SourceViolation::DuplicateObject(oid) => {
                write!(f, "object {oid} streamed twice")
            }
            SourceViolation::InconsistentGrade {
                oid,
                sorted,
                random,
            } => write!(
                f,
                "object {oid}: sorted access said {sorted}, random access said {random}"
            ),
        }
    }
}

impl std::error::Error for SourceViolation {}

/// A wrapper that checks the sorted/random access *contract* (§4) as a
/// query runs: grades must be non-increasing under sorted access, no
/// object may stream twice, and random access must agree with sorted
/// access.
///
/// Garlic cannot inspect an autonomous subsystem's internals, but it
/// *can* watch the stream it produces — every violation here would
/// silently corrupt A₀'s answers if it went unnoticed (the correctness
/// proof leans on descending order). Violations are recorded rather
/// than panicking; the middleware can inspect them after the run.
#[derive(Debug)]
pub struct ValidatingSource<S> {
    inner: S,
    last_grade: Option<Score>,
    seen: BTreeMap<Oid, Score>,
    violations: Vec<SourceViolation>,
}

impl<S: Subsystem> ValidatingSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> ValidatingSource<S> {
        ValidatingSource {
            inner,
            last_grade: None,
            seen: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// Violations observed so far.
    pub fn violations(&self) -> &[SourceViolation] {
        &self.violations
    }

    /// True if the contract held for everything observed so far.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl<S: Subsystem> Subsystem for ValidatingSource<S> {
    // Every access is a batch here, validated item by item.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let items = self.inner.sorted_batch(n)?;
        for item in &items {
            if let Some(previous) = self.last_grade.filter(|&prev| item.grade > prev) {
                self.violations.push(SourceViolation::OutOfOrder {
                    previous,
                    current: item.grade,
                });
            }
            self.last_grade = Some(item.grade);
            if self.seen.insert(item.id, item.grade).is_some() {
                self.violations
                    .push(SourceViolation::DuplicateObject(item.id));
            }
        }
        Ok(items)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        let grades = self.inner.random_batch(oids)?;
        for (&oid, &grade) in oids.iter().zip(&grades) {
            if let Some(&sorted) = self.seen.get(&oid) {
                if !grade.approx_eq(sorted, 1e-9) {
                    self.violations.push(SourceViolation::InconsistentGrade {
                        oid,
                        sorted,
                        random: grade,
                    });
                }
            }
        }
        Ok(grades)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
        self.last_grade = None;
        self.seen.clear();
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    // Read-only planner statistics: nothing to validate, and dropping
    // them would silently push `choose_plan` onto its stats-free basis.
    fn caps(&self) -> Caps<'_> {
        self.inner.caps()
    }
}

#[cfg(test)]
mod tests {
    use super::{
        CountingSource, Oid, Score, ScoredObject, SourceError, SourceInfo, SourceViolation,
        Subsystem, ValidatingSource, VecSource,
    };
    use fmdb_core::stats::GradeHistogram;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    /// The whole remaining stream, a scalar access at a time.
    fn stream(src: &mut dyn Subsystem) -> Vec<ScoredObject<Oid>> {
        std::iter::from_fn(|| src.sorted_next().unwrap()).collect()
    }

    #[test]
    fn sorted_access_streams_descending() {
        let mut src = VecSource::new(
            "t",
            vec![(0, s(0.2)), (1, s(0.9)), (2, s(0.5)), (3, s(0.9))],
        );
        let order: Vec<Oid> = stream(&mut src).iter().map(|o| o.id).collect();
        // ties (oid 1 and 3 at 0.9) broken by ascending oid
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert_eq!(src.sorted_next().unwrap(), None);
    }

    #[test]
    fn rewind_restarts_the_stream() {
        let mut src = VecSource::new("t", vec![(0, s(0.2)), (1, s(0.9))]);
        assert_eq!(src.sorted_next().unwrap().unwrap().id, 1);
        src.rewind();
        assert_eq!(src.sorted_next().unwrap().unwrap().id, 1);
    }

    #[test]
    fn random_access_unknown_oid_grades_zero() {
        let mut src = VecSource::new("t", vec![(0, s(0.2))]);
        assert_eq!(src.random_access(0).unwrap(), s(0.2));
        assert_eq!(src.random_access(999).unwrap(), Score::ZERO);
    }

    #[test]
    fn duplicate_oids_keep_last_grade() {
        let mut src = VecSource::new("t", vec![(7, s(0.1)), (7, s(0.8))]);
        assert_eq!(src.info().universe_size, 1);
        assert_eq!(src.random_access(7).unwrap(), s(0.8));
    }

    /// The two zeros are one grade: they tie, and ties stream in oid
    /// order — a `-0.0` that sorted below `+0.0` would put oid 9 first.
    #[test]
    fn signed_zeros_tie_and_stream_in_oid_order() {
        let mut src = VecSource::new("x", vec![(1, s(-0.0)), (9, s(0.0)), (5, s(0.5))]);
        let order: Vec<Oid> = src
            .sorted_batch(3)
            .unwrap()
            .iter()
            .map(|so| so.id)
            .collect();
        assert_eq!(order, vec![5, 1, 9]);
    }

    #[test]
    fn from_graded_set_roundtrips() {
        let mut set = fmdb_core::graded_set::GradedSet::new();
        set.insert(3u64, s(0.4));
        set.insert(9u64, s(0.8));
        let mut src = VecSource::from_graded_set("t", &set);
        assert_eq!(src.info().universe_size, 2);
        assert_eq!(src.sorted_next().unwrap().unwrap().id, 9);
        assert_eq!(src.random_access(3).unwrap(), s(0.4));
    }

    #[test]
    fn min_grade_reports_the_stream_floor() {
        let src = VecSource::from_dense("t", &[s(0.3), s(0.7), s(0.1)]);
        assert_eq!(src.min_grade(), Some(s(0.1)));
        let empty = VecSource::new("t", vec![]);
        assert_eq!(empty.min_grade(), None);
    }

    #[test]
    fn from_dense_assigns_positional_oids() {
        let mut src = VecSource::from_dense("t", &[s(0.3), s(0.7)]);
        assert_eq!(src.info().universe_size, 2);
        assert_eq!(src.random_access(1).unwrap(), s(0.7));
    }

    /// A deliberately broken source for validating the validator.
    struct BrokenSource {
        items: Vec<ScoredObject<Oid>>,
        cursor: usize,
        random_lies: bool,
    }

    impl Subsystem for BrokenSource {
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            let end = self.items.len().min(self.cursor + n);
            let out = self.items[self.cursor.min(end)..end].to_vec();
            self.cursor = end;
            Ok(out)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            Ok(oids
                .iter()
                .map(|&oid| {
                    if self.random_lies {
                        Score::clamped(0.123)
                    } else {
                        self.items
                            .iter()
                            .find(|i| i.id == oid)
                            .map_or(Score::ZERO, |i| i.grade)
                    }
                })
                .collect())
        }
        fn rewind(&mut self) {
            self.cursor = 0;
        }
        fn info(&self) -> SourceInfo {
            SourceInfo::new("broken", self.items.len())
        }
    }

    #[test]
    fn validating_source_passes_clean_streams() {
        let mut v = ValidatingSource::new(VecSource::from_dense("t", &[s(0.3), s(0.9), s(0.5)]));
        while let Some(so) = v.sorted_next().unwrap() {
            v.random_access(so.id).unwrap();
        }
        assert!(v.is_clean(), "{:?}", v.violations());
    }

    /// Planner statistics survive wrapping: `QueryStats::from_sources`
    /// over a wrapped `VecSource` sees the histogram the bare source
    /// reports.
    #[test]
    fn wrappers_forward_planner_statistics() {
        let bare = VecSource::from_dense("t", &[s(0.3), s(0.9), s(0.5), s(0.1)]);
        let want = bare.caps().histogram(4);
        assert!(want.is_some());
        let validating = ValidatingSource::new(bare.clone());
        let counting = CountingSource::new(bare.clone());
        assert_eq!(validating.caps().histogram(4), want);
        assert_eq!(counting.caps().histogram(4), want);
        assert_eq!(validating.caps().page_io, bare.caps().page_io);
        let refs: [&dyn Subsystem; 2] = [&validating, &counting];
        assert!(crate::planner::QueryStats::from_sources(refs).is_some());
    }

    #[test]
    fn validating_source_flags_out_of_order_streams() {
        let mut v = ValidatingSource::new(BrokenSource {
            items: vec![
                ScoredObject::new(0, s(0.5)),
                ScoredObject::new(1, s(0.9)), // rises!
            ],
            cursor: 0,
            random_lies: false,
        });
        stream(&mut v);
        assert!(matches!(
            v.violations()[0],
            SourceViolation::OutOfOrder { .. }
        ));
    }

    #[test]
    fn validating_source_flags_duplicates_and_lies() {
        let mut v = ValidatingSource::new(BrokenSource {
            items: vec![
                ScoredObject::new(7, s(0.9)),
                ScoredObject::new(7, s(0.9)), // duplicate
            ],
            cursor: 0,
            random_lies: true,
        });
        stream(&mut v);
        v.random_access(7).unwrap(); // lies: 0.123 != 0.9
        assert!(v
            .violations()
            .iter()
            .any(|x| matches!(x, SourceViolation::DuplicateObject(7))));
        assert!(v
            .violations()
            .iter()
            .any(|x| matches!(x, SourceViolation::InconsistentGrade { oid: 7, .. })));
        // Rewind clears the tracking state.
        v.rewind();
        assert_eq!(v.info().universe_size, 2);
    }

    #[test]
    fn sorted_batch_matches_scalar_stream() {
        let grades: Vec<Score> = (0..17).map(|i| s(i as f64 / 17.0)).collect();
        let mut scalar = VecSource::from_dense("t", &grades);
        let mut batched = VecSource::from_dense("t", &grades);
        let scalar_items = stream(&mut scalar);
        let mut batched_items = Vec::new();
        loop {
            let chunk = batched.sorted_batch(5).unwrap();
            if chunk.is_empty() {
                break;
            }
            batched_items.extend(chunk);
        }
        assert_eq!(scalar_items, batched_items);
        // The final (partial) batch signals exhaustion by coming short.
        assert!(batched.sorted_batch(5).unwrap().is_empty());
    }

    #[test]
    fn random_batch_matches_scalar_probes() {
        let mut src = VecSource::new("t", vec![(2, s(0.4)), (9, s(0.9))]);
        let oids = [9, 2, 77, 9];
        let batch = src.random_batch(&oids).unwrap();
        let scalar: Vec<Score> = oids
            .iter()
            .map(|&o| src.random_access(o).unwrap())
            .collect();
        assert_eq!(batch, scalar);
        assert_eq!(batch, vec![s(0.9), s(0.4), Score::ZERO, s(0.9)]);
    }

    /// The scalar accesses a wrapper does not forward are batches of
    /// one: counted one access per item, exactly as scalar.
    #[test]
    fn counting_charges_one_access_per_item() {
        let mut counted = CountingSource::new(VecSource::from_dense(
            "t",
            &[s(0.1), s(0.5), s(0.9), s(0.7)],
        ));
        let got = counted.sorted_batch(3).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(counted.sorted_accesses(), 3);
        counted.random_batch(&[0, 1, 2, 3, 99]).unwrap();
        assert_eq!(counted.random_accesses(), 5);
        // Over-asking past exhaustion charges only what was produced.
        let rest = counted.sorted_batch(10).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(counted.sorted_accesses(), 4);
    }

    #[test]
    fn source_info_reports_label_and_universe() {
        let src = VecSource::from_dense("Color='red'", &[s(0.3), s(0.7)]);
        let info = src.info();
        assert_eq!(info, SourceInfo::new("Color='red'", 2));
        assert_eq!(info.to_string(), "Color='red' (N=2)");
    }

    #[test]
    fn counting_source_meters_accesses() {
        let mut src = CountingSource::new(VecSource::from_dense("t", &[s(0.3), s(0.7)]));
        src.sorted_next().unwrap();
        src.random_access(0).unwrap();
        src.random_access(1).unwrap();
        assert_eq!(src.sorted_accesses(), 1);
        assert_eq!(src.random_accesses(), 2);
        // Exhausted stream returns don't count as accesses.
        for _ in 0..3 {
            src.sorted_next().unwrap();
        }
        assert_eq!(src.sorted_accesses(), 2);
    }

    /// A failure is equal to itself and to a failure reporting the same,
    /// and its cause comes back typed.
    #[test]
    fn a_source_error_keeps_its_cause() {
        let e = SourceError::new(SourceViolation::DuplicateObject(4));
        assert_eq!(e, e.clone());
        assert_eq!(e, SourceError::new(SourceViolation::DuplicateObject(4)));
        assert_ne!(e, SourceError::new(SourceViolation::DuplicateObject(5)));
        assert_eq!(
            e.cause().downcast_ref::<SourceViolation>(),
            Some(&SourceViolation::DuplicateObject(4))
        );
        assert_eq!(e.to_string(), "object 4 streamed twice");
    }

    /// The `HashMap`-based `VecSource` this module shipped before lists
    /// became arrays, kept as the oracle of
    /// [`array_index_matches_the_hash_model`]: construction and random
    /// access exactly as they were.
    mod hash_model {
        use super::super::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        pub struct HashSource {
            pub label: String,
            pub sorted: Vec<ScoredObject<Oid>>,
            pub by_oid: HashMap<Oid, Score>,
            pub cursor: usize,
        }

        impl HashSource {
            pub fn new(label: impl Into<String>, grades: Vec<(Oid, Score)>) -> HashSource {
                let mut by_oid = HashMap::with_capacity(grades.len());
                for (oid, g) in grades {
                    by_oid.insert(oid, g);
                }
                let mut sorted: Vec<ScoredObject<Oid>> = by_oid
                    .iter()
                    .map(|(&oid, &grade)| ScoredObject::new(oid, grade))
                    .collect();
                sorted.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
                HashSource {
                    label: label.into(),
                    sorted,
                    by_oid,
                    cursor: 0,
                }
            }

            pub fn sorted_drain_bounded(&mut self, bound: Score) -> Vec<ScoredObject<Oid>> {
                let tail = &self.sorted[self.cursor.min(self.sorted.len())..];
                let take = tail.partition_point(|so| so.grade >= bound);
                let out = tail[..take].to_vec();
                self.cursor += take;
                out
            }
        }

        impl Subsystem for HashSource {
            fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
                let end = self.cursor.saturating_add(n).min(self.sorted.len());
                let out = self.sorted[self.cursor..end].to_vec();
                self.cursor = end;
                Ok(out)
            }

            fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
                Ok(oids
                    .iter()
                    .map(|oid| self.by_oid.get(oid).copied().unwrap_or(Score::ZERO))
                    .collect())
            }

            fn rewind(&mut self) {
                self.cursor = 0;
            }

            fn info(&self) -> SourceInfo {
                SourceInfo::new(self.label.clone(), self.sorted.len())
            }

            fn caps(&self) -> Caps<'_> {
                Caps {
                    grades: Some(Grades::stream(&self.sorted)),
                    page_io: None,
                }
            }
        }
    }

    /// Everything a caller can observe of `got` equals `want`: info,
    /// the whole stream (scalar, batched and bounded, from a rewound
    /// cursor each), the histogram, and probes — scalar and batched —
    /// of `probes`.
    fn assert_observably_equal(
        got: &mut VecSource,
        want: &mut hash_model::HashSource,
        probes: &[Oid],
        bound: Score,
    ) -> Result<(), TestCaseError> {
        let histogram = |caps: super::Caps<'_>| -> Option<GradeHistogram> { caps.histogram(4) };
        prop_assert_eq!(got.info(), want.info());
        prop_assert_eq!(histogram(got.caps()), histogram(want.caps()));
        prop_assert_eq!(stream(got), stream(want));
        got.rewind();
        want.rewind();
        prop_assert_eq!(got.sorted_batch(3), want.sorted_batch(3));
        prop_assert_eq!(
            got.sorted_drain_bounded(bound),
            want.sorted_drain_bounded(bound)
        );
        prop_assert_eq!(got.sorted_batch(usize::MAX), want.sorted_batch(usize::MAX));
        prop_assert_eq!(got.random_batch(probes), want.random_batch(probes));
        for &oid in probes {
            prop_assert_eq!(
                got.random_access(oid),
                want.random_access(oid),
                "oid {}",
                oid
            );
        }
        Ok(())
    }

    use proptest::prelude::*;

    /// Oids that are dense (`0..n` in order), sparse, unordered and
    /// duplicated, with `u64::MAX` among them; grades on five levels,
    /// so ties are the rule.
    fn pairs_strategy() -> impl Strategy<Value = Vec<(Oid, Score)>> {
        let level = (0u8..5).prop_map(|l| Score::clamped(f64::from(l) / 4.0));
        let dense = proptest::collection::vec(level.clone(), 0..48)
            .prop_map(|grades| (0..).zip(grades).collect::<Vec<(Oid, Score)>>());
        let oid = prop_oneof![0u64..40, 0u64..4_000_000_000, Just(u64::MAX)];
        prop_oneof![dense, proptest::collection::vec((oid, level), 0..48)]
    }

    proptest! {
        /// The array index against the hash tables it replaced.
        #[test]
        fn array_index_matches_the_hash_model(
            pairs in pairs_strategy(),
            absent in proptest::collection::vec(0u64..5_000_000_000, 8),
            bound in (0u8..6).prop_map(|l| Score::clamped(f64::from(l) / 5.0)),
        ) {
            let mut probes: Vec<Oid> = pairs.iter().map(|&(oid, _)| oid).collect();
            probes.extend(absent);
            probes.extend([0, 1, u64::MAX - 1, u64::MAX, 1 << 32]);

            let mut got = VecSource::new("t", pairs.clone());
            let mut want = hash_model::HashSource::new("t", pairs);
            assert_observably_equal(&mut got, &mut want, &probes, bound)?;
            prop_assert_eq!(got.max_oid(), want.by_oid.keys().copied().max());
        }
    }
}
