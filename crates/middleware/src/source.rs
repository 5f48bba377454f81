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
//! [`GradedSource`] captures this interface. Everything the paper's
//! algorithms are allowed to learn about a subquery flows through it,
//! which is what makes the *database access cost* (sorted accesses +
//! random accesses) a meaningful complexity measure.
//!
//! The materialized implementation, [`VecSource`], keeps a list as two
//! arrays, one per access mode; see DESIGN §17.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;

#[doc(hidden)]
pub use crate::frozen::{ShardedSource, SourcePartitioner};

/// Object identity, assumed (as Garlic had to ensure, §4.2) to be a
/// one-to-one mapping across all subsystems participating in a query.
pub type Oid = u64;

/// Static metadata a subsystem reports about one graded source.
///
/// Returned by [`GradedSource::info`]; replaces the former pair of
/// stringly `label()` / `universe_size()` trait methods with one
/// structured answer.
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

/// A subsystem evaluating one atomic subquery, exposing sorted and
/// random access (§4).
///
/// Implementations grade a fixed universe of `info().universe_size`
/// objects; objects the subsystem has no opinion about have grade 0 and
/// still appear (last) in the sorted stream, exactly like a crisp
/// predicate grading non-matching rows with 0.
///
/// The batched entry points ([`GradedSource::sorted_batch`],
/// [`GradedSource::random_batch`]) exist so engines can amortize
/// per-call overhead; their defaults delegate to the scalar methods
/// one-for-one, so a batch of `n` costs exactly `n` scalar accesses and
/// implementations that override them must preserve that accounting.
pub trait GradedSource {
    /// Returns the next object under sorted access, or `None` when all
    /// objects have been streamed.
    ///
    /// Grades are non-increasing across successive calls; ties are
    /// broken by ascending object id so runs are deterministic.
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>>;

    /// Random access: the grade of `oid` under this subquery.
    ///
    /// An `oid` outside the universe grades 0 (the subsystem has never
    /// heard of the object, so the query is false about it).
    fn random_access(&mut self, oid: Oid) -> Score;

    /// Restarts sorted access from the highest grade.
    fn rewind(&mut self);

    /// Metadata about this source: label and universe size.
    fn info(&self) -> SourceInfo;

    /// Batched sorted access: up to `n` further objects of the sorted
    /// stream, in stream order. Fewer than `n` items (possibly none)
    /// means the stream is exhausted.
    ///
    /// Equivalent to — and by default implemented as — `n` calls to
    /// [`GradedSource::sorted_next`], so it costs one sorted access per
    /// item returned.
    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.sorted_next() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        out
    }

    /// Batched random access: the grade of each oid in `oids`, in
    /// order.
    ///
    /// Equivalent to — and by default implemented as — one
    /// [`GradedSource::random_access`] per oid, so it costs
    /// `oids.len()` random accesses.
    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        oids.iter().map(|&oid| self.random_access(oid)).collect()
    }

    /// A shim ([`crate::frozen`]): `SourcePartitioner` has no values,
    /// so nothing can call this. No source in the workspace overrides it.
    #[doc(hidden)]
    fn partition(
        &self,
        partitioner: SourcePartitioner,
        shards: usize,
    ) -> Option<Vec<ShardedSource>> {
        let _ = (partitioner, shards);
        None
    }

    /// An equi-depth grade histogram over this source's full
    /// distribution, or `None` when the implementation cannot produce
    /// one without charging accesses (a truly remote stream would have
    /// to be drained, so it answers `None` and the planner falls back
    /// to its uniform-grade assumption).
    ///
    /// Implementations must not advance the sorted cursor or charge
    /// accesses: histograms are optimizer-time metadata, like
    /// [`GradedSource::info`].
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        let _ = bins;
        None
    }

    /// Cumulative buffer-pool page counters, or `None` for purely
    /// in-memory sources (the default). A disk-backed source
    /// ([`crate::store::PagedSource`]) reports its pool's lifetime
    /// reads/hits/evictions here; the engine diffs snapshots around a
    /// request to fold per-request page traffic into
    /// [`crate::stats::AccessStats`]. Like [`GradedSource::info`],
    /// this must not charge accesses or advance the cursor.
    fn page_io(&self) -> Option<crate::stats::PageIoStats> {
        None
    }

    /// Tells the source the caller's live grade threshold: entries
    /// graded below `bound` can no longer affect the caller's answer
    /// (TA/NRA/CA feed their running τ / k-th grade here as it rises).
    ///
    /// Purely a *physical* hint — a source may use it to stop
    /// preparing entries that provably cannot matter, but every access
    /// method keeps its exact contract: same entries, same grades, same
    /// charged accounting. The default does nothing.
    fn note_threshold(&mut self, bound: Score) {
        let _ = bound;
    }

    /// Bounded sorted drain: every remaining entry of the sorted
    /// stream with grade ≥ `bound`, in stream order, advancing the
    /// cursor past exactly those entries (the next [`sorted_next`]
    /// returns the first entry below `bound`, if any). Costs one
    /// sorted access per item returned — a skipped tail is never
    /// charged.
    ///
    /// Returns `None` when the implementation has no better strategy
    /// than the scalar loop (the default); callers then fall back to
    /// [`sorted_next`] and stop at the first below-bound grade, which
    /// is observationally identical. [`crate::store::PagedSource`]
    /// answers this from its persisted per-page grade bounds, skipping
    /// whole pages.
    ///
    /// [`sorted_next`]: GradedSource::sorted_next
    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let _ = bound;
        None
    }

    /// Random access for a caller that only consumes grades at or
    /// above `bound`: returns the exact grade when it is ≥ `bound`,
    /// and [`Score::ZERO`] when it is provably below. The caller must
    /// treat any return below `bound` as "cannot affect my answer",
    /// never as the object's true grade. Costs one random access
    /// either way, exactly like [`GradedSource::random_access`].
    ///
    /// The default calls `random_access` and clamps; a paged source
    /// can skip the page read entirely when its persisted bounds prove
    /// every grade on the page is below `bound`.
    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        let grade = self.random_access(oid);
        if grade >= bound {
            grade
        } else {
            Score::ZERO
        }
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

/// An in-memory [`GradedSource`] over an explicit grade assignment.
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

impl GradedSource for VecSource {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        let item = self.sorted.get(self.cursor).copied();
        if item.is_some() {
            self.cursor += 1;
        }
        item
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        self.by_oid.grade(oid)
    }

    fn rewind(&mut self) {
        self.cursor = 0;
    }

    fn info(&self) -> SourceInfo {
        SourceInfo::new(self.label.clone(), self.sorted.len())
    }

    // Batched access over the in-memory representation is a slice copy
    // / a sequence of index probes — no per-item cursor bookkeeping.
    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        let end = self.cursor.saturating_add(n).min(self.sorted.len());
        let out = self.sorted[self.cursor..end].to_vec();
        self.cursor = end;
        out
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        oids.iter().map(|&oid| self.by_oid.grade(oid)).collect()
    }

    // The sorted vec is materialized, so quantiles are O(bins) index
    // probes — free at optimizer time, nothing charged.
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        Some(GradeHistogram::from_sorted_by(
            self.sorted.len(),
            bins,
            |i| self.sorted.get(i).map(|s| s.grade).unwrap_or(Score::ZERO),
        ))
    }

    // The reference semantics for bounded drains: the ≥-bound prefix
    // of the remaining stream, found with one partition point over the
    // materialized sorted vec. Disk-backed sources must return exactly
    // what this returns (the `pruned_equivalence` suite checks).
    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let tail = &self.sorted[self.cursor.min(self.sorted.len())..];
        let take = tail.partition_point(|so| so.grade >= bound);
        let out = tail[..take].to_vec();
        self.cursor += take;
        Some(out)
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

impl<S: GradedSource> CountingSource<S> {
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

impl<S: GradedSource> GradedSource for CountingSource<S> {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        let item = self.inner.sorted_next();
        if item.is_some() {
            self.sorted_accesses += 1;
        }
        item
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        self.random_accesses += 1;
        self.inner.random_access(oid)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    // Forward batches to the inner source's (possibly optimized) batch
    // entry points while metering them at the documented scalar rate.
    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        let out = self.inner.sorted_batch(n);
        self.sorted_accesses += out.len() as u64;
        out
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        self.random_accesses += oids.len() as u64;
        self.inner.random_batch(oids)
    }

    fn note_threshold(&mut self, bound: Score) {
        // A hint, not an access: forwarded unmetered.
        self.inner.note_threshold(bound);
    }

    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let out = self.inner.sorted_drain_bounded(bound)?;
        // The documented contract: one sorted access per item
        // returned, nothing for the skipped tail.
        self.sorted_accesses += out.len() as u64;
        Some(out)
    }

    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        self.random_accesses += 1;
        self.inner.random_access_bounded(oid, bound)
    }

    // Optimizer-time metadata charges nothing: forwarded unmetered, so
    // the planner sees the same statistics with or without the wrapper.
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        self.inner.grade_histogram(bins)
    }

    fn page_io(&self) -> Option<crate::stats::PageIoStats> {
        self.inner.page_io()
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

impl<S: GradedSource> ValidatingSource<S> {
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

impl<S: GradedSource> GradedSource for ValidatingSource<S> {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        let item = self.inner.sorted_next()?;
        if let Some(prev) = self.last_grade {
            if item.grade > prev {
                self.violations.push(SourceViolation::OutOfOrder {
                    previous: prev,
                    current: item.grade,
                });
            }
        }
        self.last_grade = Some(item.grade);
        if self.seen.insert(item.id, item.grade).is_some() {
            self.violations
                .push(SourceViolation::DuplicateObject(item.id));
        }
        Some(item)
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        let grade = self.inner.random_access(oid);
        if let Some(&sorted_grade) = self.seen.get(&oid) {
            if !grade.approx_eq(sorted_grade, 1e-9) {
                self.violations.push(SourceViolation::InconsistentGrade {
                    oid,
                    sorted: sorted_grade,
                    random: grade,
                });
            }
        }
        grade
    }

    fn rewind(&mut self) {
        self.inner.rewind();
        self.last_grade = None;
        self.seen.clear();
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    // The default batch implementations route through the scalar
    // methods above, so batched access is validated item by item; no
    // overrides here on purpose. Likewise `sorted_drain_bounded` stays
    // at its default `None` so bounded drains fall back to validated
    // scalar reads.

    fn note_threshold(&mut self, bound: Score) {
        // A pure hint — forwarding it costs nothing and validates
        // nothing.
        self.inner.note_threshold(bound);
    }

    // Read-only planner statistics: nothing to validate, and dropping
    // them would silently push `choose_plan` onto its stats-free basis.
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        self.inner.grade_histogram(bins)
    }

    fn page_io(&self) -> Option<crate::stats::PageIoStats> {
        self.inner.page_io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    #[test]
    fn sorted_access_streams_descending() {
        let mut src = VecSource::new(
            "t",
            vec![(0, s(0.2)), (1, s(0.9)), (2, s(0.5)), (3, s(0.9))],
        );
        let order: Vec<Oid> = std::iter::from_fn(|| src.sorted_next())
            .map(|o| o.id)
            .collect();
        // ties (oid 1 and 3 at 0.9) broken by ascending oid
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert_eq!(src.sorted_next(), None);
    }

    #[test]
    fn rewind_restarts_the_stream() {
        let mut src = VecSource::new("t", vec![(0, s(0.2)), (1, s(0.9))]);
        assert_eq!(src.sorted_next().unwrap().id, 1);
        src.rewind();
        assert_eq!(src.sorted_next().unwrap().id, 1);
    }

    #[test]
    fn random_access_unknown_oid_grades_zero() {
        let mut src = VecSource::new("t", vec![(0, s(0.2))]);
        assert_eq!(src.random_access(0), s(0.2));
        assert_eq!(src.random_access(999), Score::ZERO);
    }

    #[test]
    fn duplicate_oids_keep_last_grade() {
        let mut src = VecSource::new("t", vec![(7, s(0.1)), (7, s(0.8))]);
        assert_eq!(src.info().universe_size, 1);
        assert_eq!(src.random_access(7), s(0.8));
    }

    /// The two zeros are one grade: they tie, and ties stream in oid
    /// order — a `-0.0` that sorted below `+0.0` would put oid 9 first.
    #[test]
    fn signed_zeros_tie_and_stream_in_oid_order() {
        let mut src = VecSource::new("x", vec![(1, s(-0.0)), (9, s(0.0)), (5, s(0.5))]);
        let order: Vec<Oid> = src.sorted_batch(3).iter().map(|so| so.id).collect();
        assert_eq!(order, vec![5, 1, 9]);
    }

    #[test]
    fn from_graded_set_roundtrips() {
        let mut set = fmdb_core::graded_set::GradedSet::new();
        set.insert(3u64, s(0.4));
        set.insert(9u64, s(0.8));
        let mut src = VecSource::from_graded_set("t", &set);
        assert_eq!(src.info().universe_size, 2);
        assert_eq!(src.sorted_next().unwrap().id, 9);
        assert_eq!(src.random_access(3), s(0.4));
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
        assert_eq!(src.random_access(1), s(0.7));
    }

    /// A deliberately broken source for validating the validator.
    struct BrokenSource {
        items: Vec<ScoredObject<Oid>>,
        cursor: usize,
        random_lies: bool,
    }

    impl GradedSource for BrokenSource {
        fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
            let item = self.items.get(self.cursor).copied();
            self.cursor += 1;
            item
        }
        fn random_access(&mut self, oid: Oid) -> Score {
            if self.random_lies {
                Score::clamped(0.123)
            } else {
                self.items
                    .iter()
                    .find(|i| i.id == oid)
                    .map_or(Score::ZERO, |i| i.grade)
            }
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
        while let Some(so) = v.sorted_next() {
            let _ = v.random_access(so.id);
        }
        assert!(v.is_clean(), "{:?}", v.violations());
    }

    /// Planner statistics survive wrapping: `QueryStats::from_sources`
    /// over a wrapped `VecSource` sees the histogram the bare source
    /// reports.
    #[test]
    fn wrappers_forward_planner_statistics() {
        let bare = VecSource::from_dense("t", &[s(0.3), s(0.9), s(0.5), s(0.1)]);
        let want = bare.grade_histogram(4);
        assert!(want.is_some());
        let validating = ValidatingSource::new(bare.clone());
        let counting = CountingSource::new(bare.clone());
        assert_eq!(validating.grade_histogram(4), want);
        assert_eq!(counting.grade_histogram(4), want);
        assert_eq!(validating.page_io(), bare.page_io());
        let refs: [&dyn GradedSource; 2] = [&validating, &counting];
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
        while v.sorted_next().is_some() {}
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
        while v.sorted_next().is_some() {}
        let _ = v.random_access(7); // lies: 0.123 != 0.9
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
        let mut scalar_items = Vec::new();
        while let Some(x) = scalar.sorted_next() {
            scalar_items.push(x);
        }
        let mut batched_items = Vec::new();
        loop {
            let chunk = batched.sorted_batch(5);
            if chunk.is_empty() {
                break;
            }
            batched_items.extend(chunk);
        }
        assert_eq!(scalar_items, batched_items);
        // The final (partial) batch signals exhaustion by coming short.
        assert!(batched.sorted_batch(5).is_empty());
    }

    #[test]
    fn random_batch_matches_scalar_probes() {
        let mut src = VecSource::new("t", vec![(2, s(0.4)), (9, s(0.9))]);
        let oids = [9, 2, 77, 9];
        let batch = src.random_batch(&oids);
        let scalar: Vec<Score> = oids.iter().map(|&o| src.random_access(o)).collect();
        assert_eq!(batch, scalar);
        assert_eq!(batch, vec![s(0.9), s(0.4), Score::ZERO, s(0.9)]);
    }

    #[test]
    fn default_batch_impls_charge_scalar_counts() {
        // A source that does NOT override the batch methods: counts
        // must equal one access per item, exactly as scalar.
        let mut counted = CountingSource::new(VecSource::from_dense(
            "t",
            &[s(0.1), s(0.5), s(0.9), s(0.7)],
        ));
        let got = counted.sorted_batch(3);
        assert_eq!(got.len(), 3);
        assert_eq!(counted.sorted_accesses(), 3);
        let _ = counted.random_batch(&[0, 1, 2, 3, 99]);
        assert_eq!(counted.random_accesses(), 5);
        // Over-asking past exhaustion charges only what was produced.
        let rest = counted.sorted_batch(10);
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
        let _ = src.sorted_next();
        let _ = src.random_access(0);
        let _ = src.random_access(1);
        assert_eq!(src.sorted_accesses(), 1);
        assert_eq!(src.random_accesses(), 2);
        // Exhausted stream returns don't count as accesses.
        let _ = src.sorted_next();
        let _ = src.sorted_next();
        let _ = src.sorted_next();
        assert_eq!(src.sorted_accesses(), 2);
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
        }

        impl GradedSource for HashSource {
            fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
                let item = self.sorted.get(self.cursor).copied();
                if item.is_some() {
                    self.cursor += 1;
                }
                item
            }

            fn random_access(&mut self, oid: Oid) -> Score {
                self.by_oid.get(&oid).copied().unwrap_or(Score::ZERO)
            }

            fn rewind(&mut self) {
                self.cursor = 0;
            }

            fn info(&self) -> SourceInfo {
                SourceInfo::new(self.label.clone(), self.sorted.len())
            }

            fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
                let end = self.cursor.saturating_add(n).min(self.sorted.len());
                let out = self.sorted[self.cursor..end].to_vec();
                self.cursor = end;
                out
            }

            fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
                oids.iter()
                    .map(|oid| self.by_oid.get(oid).copied().unwrap_or(Score::ZERO))
                    .collect()
            }

            fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
                Some(GradeHistogram::from_sorted_by(
                    self.sorted.len(),
                    bins,
                    |i| self.sorted.get(i).map(|s| s.grade).unwrap_or(Score::ZERO),
                ))
            }

            fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
                let tail = &self.sorted[self.cursor.min(self.sorted.len())..];
                let take = tail.partition_point(|so| so.grade >= bound);
                let out = tail[..take].to_vec();
                self.cursor += take;
                Some(out)
            }
        }
    }

    /// Everything a caller can observe of `got` equals `want`: info,
    /// the whole stream (scalar, batched and bounded, from a rewound
    /// cursor each), the histogram, and probes — scalar and batched —
    /// of `probes`.
    fn assert_observably_equal(
        got: &mut dyn GradedSource,
        want: &mut dyn GradedSource,
        probes: &[Oid],
        bound: Score,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.info(), want.info());
        prop_assert_eq!(got.grade_histogram(4), want.grade_histogram(4));
        prop_assert_eq!(
            std::iter::from_fn(|| got.sorted_next()).collect::<Vec<_>>(),
            std::iter::from_fn(|| want.sorted_next()).collect::<Vec<_>>()
        );
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
