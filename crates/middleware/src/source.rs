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

use std::cell::{Cell, RefCell};
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
    /// A list that orders itself as it is read: any resolution, from
    /// its ordered prefix and a sorted copy of each bucket past it that
    /// holds a quantile.
    List(&'a VecSource),
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
            GradesFrom::List(list) => Some(list.histogram_counted(bins).0),
            GradesFrom::Kept(h) => (h.universe() == 0 || h.bins() == bins).then(|| h.clone()),
            GradesFrom::Shim(source) => source.grade_histogram(bins),
        }
    }
}

impl fmt::Debug for Grades<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            GradesFrom::Stream(sorted) => write!(f, "Grades::Stream({} grades)", sorted.len()),
            GradesFrom::List(list) => write!(f, "Grades::List({} grades)", list.sorted.len()),
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

/// A boxed subsystem is the subsystem it holds: every call forwarded,
/// the single-item ones too, so a source's own `sorted_next` /
/// `random_access` still run behind the box.
impl<S: Subsystem + ?Sized> Subsystem for Box<S> {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        (**self).sorted_batch(n)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        (**self).random_batch(oids)
    }

    fn rewind(&mut self) {
        (**self).rewind();
    }

    fn info(&self) -> SourceInfo {
        (**self).info()
    }

    fn caps(&self) -> Caps<'_> {
        (**self).caps()
    }

    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        (**self).sorted_next()
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        (**self).random_access(oid)
    }
}

/// The random-access half of a materialized graded list: its
/// `(oid, grade)` pairs in one array, ascending by oid, every oid once.
///
/// [`OidIndex::new`] is the one normalisation of "pairs a caller
/// handed us" that [`VecSource::new`] and the store builder share, and
/// [`OidIndex::scatter`] is the one derivation of the sorted half from
/// it: [`OidIndex::sorted_stream`] sorts every bucket at once (the
/// store builder, a complement), a [`VecSource`] a bucket at a time as
/// sorted access reaches it. Cloning shares the array.
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

    /// The dense list over `0..n`, object `i` graded `grade(i)`: the
    /// pairs are ascending by construction and written once, straight
    /// into the shared array.
    pub(crate) fn dense(n: usize, mut grade: impl FnMut(usize) -> Score) -> OidIndex {
        OidIndex((0..n).map(|i| (i as Oid, grade(i))).collect())
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
    /// ties by ascending oid — [`OidIndex::scatter`] with every bucket
    /// sorted at once, by the bucket ends the scatter pass counted.
    /// Grades crowded into a few buckets cost a comparison sort of
    /// those buckets, never more than one of the whole list; a bucket
    /// already in order (one grade, its oids ascending as they arrived)
    /// is read once.
    pub(crate) fn sorted_stream(&self) -> Vec<ScoredObject<Oid>> {
        let (mut sorted, _, ends) = self.scatter();
        let mut start = 0;
        for end in ends {
            sorted[start..end].sort_unstable_by(by_grade_then_oid);
            start = end;
        }
        sorted
    }

    /// The distribution pass of a bucket sort, linear: each pair goes
    /// to one of N buckets by where its grade lies between the largest
    /// and the smallest ([`Buckets`]), bucket 0 holding the largest,
    /// each bucket in oid order. Returns the pairs bucket by bucket,
    /// the bucketing, and where each bucket ends. A grade's bucket
    /// never rises as the grade falls — the subtraction, the product
    /// and the truncation each round monotonically — so equal grades
    /// share a bucket and the buckets, each sorted by (grade desc, oid
    /// asc), read in exactly that order.
    fn scatter(&self) -> (Vec<ScoredObject<Oid>>, Buckets, Vec<usize>) {
        let pairs = self.entries();
        let buckets = Buckets::of(pairs);
        let mut scattered = vec![ScoredObject::new(0, Score::ZERO); pairs.len()];
        let bucket: Vec<u32> = pairs.iter().map(|&(_, g)| buckets.of_grade(g)).collect();
        let mut next = vec![0_usize; pairs.len().min(u32::MAX as usize)];
        for &b in &bucket {
            next[b as usize] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for (&(oid, grade), &b) in pairs.iter().zip(&bucket) {
            let slot = &mut next[b as usize];
            scattered[*slot] = ScoredObject::new(oid, grade);
            *slot += 1;
        }
        // Each `next[b]` is now where bucket b ends and b + 1 begins.
        (scattered, buckets, next)
    }
}

/// Where a list's grades fall among its N buckets: the distribution
/// sort's arithmetic, three numbers, so that a list can tell an entry's
/// bucket from its grade alone and keeps no bucket array.
#[derive(Debug, Clone, Copy)]
struct Buckets {
    /// The largest grade: bucket 0 starts there.
    hi: f64,
    /// Buckets per unit of grade below `hi`; 0 puts every grade in
    /// bucket 0.
    scale: f64,
    /// The last bucket, which also takes every grade past it.
    last: u32,
}

impl Buckets {
    /// One bucket for every grade: the bucketing of a list kept whole
    /// in stream order, which never asks.
    const ONE: Buckets = Buckets {
        hi: 1.0,
        scale: 0.0,
        last: 0,
    };

    /// N buckets spanning the grades of `pairs`.
    fn of(pairs: &[(Oid, Score)]) -> Buckets {
        let buckets = pairs.len().min(u32::MAX as usize);
        let (lo, hi) = pairs.iter().fold((1.0_f64, 0.0_f64), |(lo, hi), &(_, g)| {
            (lo.min(g.value()), hi.max(g.value()))
        });
        // Not finite when every grade is equal, or the grades lie so
        // few subnormal steps apart that the reciprocal overflows: one
        // bucket then.
        let scale = match buckets as f64 / (hi - lo) {
            scale if scale.is_finite() => scale,
            _ => 0.0,
        };
        Buckets {
            hi,
            scale,
            last: buckets.saturating_sub(1) as u32,
        }
    }

    /// The bucket of `grade`. Monotone: a larger grade never lands in a
    /// later bucket, whether or not the list holds it.
    #[inline]
    fn of_grade(&self, grade: Score) -> u32 {
        (((self.hi - grade.value()) * self.scale) as u32).min(self.last)
    }
}

/// The order of sorted access: descending grade, ties by ascending
/// oid. Every oid of a list occurs once, so this is a total order on
/// its entries and an unstable sort by it has nothing to reorder.
fn by_grade_then_oid(a: &ScoredObject<Oid>, b: &ScoredObject<Oid>) -> std::cmp::Ordering {
    b.grade.cmp(&a.grade).then(a.id.cmp(&b.id))
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
///
/// The grade-order array is put in order as it is read: construction
/// runs the distribution sort's scatter pass only, and a bucket is
/// sorted when sorted access first reaches it. So a list read a few
/// entries deep — what the threshold algorithms do — pays for the
/// prefix it read, and the stream is the one a full sort gives, bit
/// for bit (DESIGN §17).
#[derive(Debug, Clone)]
pub struct VecSource {
    label: String,
    /// The pairs bucket by bucket ([`OidIndex::scatter`]): the first
    /// `ordered` sorted by descending grade, then ascending oid; the
    /// rest each bucket in oid order, the buckets in stream order.
    sorted: Vec<ScoredObject<Oid>>,
    /// How many entries of `sorted` are in stream order: a bucket end,
    /// never behind `cursor`.
    ordered: usize,
    /// The bucketing of `sorted`'s unordered tail.
    buckets: Buckets,
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
        VecSource::indexed(label, OidIndex::new(grades))
    }

    /// The source over `by_oid`, its sorted half scattered into buckets
    /// and left for sorted access to order.
    fn indexed(label: impl Into<String>, by_oid: OidIndex) -> VecSource {
        let (sorted, buckets, _) = by_oid.scatter();
        VecSource {
            label: label.into(),
            sorted,
            ordered: 0,
            buckets,
            by_oid,
            cursor: 0,
        }
    }

    /// The source over `by_oid` whose sorted half is already whole, in
    /// stream order.
    fn in_order(label: String, sorted: Vec<ScoredObject<Oid>>, by_oid: OidIndex) -> VecSource {
        VecSource {
            label,
            ordered: sorted.len(),
            sorted,
            buckets: Buckets::ONE,
            by_oid,
            cursor: 0,
        }
    }

    /// Builds a source grading the dense universe `0..grades.len()`,
    /// object `i` getting `grades[i]`.
    pub fn from_dense(label: impl Into<String>, grades: &[Score]) -> VecSource {
        VecSource::from_fn(label, grades.len(), |i| grades[i])
    }

    /// Builds a source grading the dense universe `0..n`, object `i`
    /// getting `grade(i)`: the list is written once, in oid order, with
    /// no pairs to normalise.
    pub fn from_fn(
        label: impl Into<String>,
        n: usize,
        grade: impl FnMut(usize) -> Score,
    ) -> VecSource {
        VecSource::indexed(label, OidIndex::dense(n, grade))
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
    /// smallest grade in the source), if any: the stream's last entry,
    /// picked out of the last bucket while that is not yet in order.
    pub fn min_grade(&self) -> Option<Score> {
        let tail = &self.sorted[self.bucket_start(self.sorted.len().checked_sub(1)?)..];
        tail.iter()
            .max_by(|a, b| by_grade_then_oid(a, b))
            .map(|so| so.grade)
    }

    /// The largest oid the source grades, if any.
    pub fn max_oid(&self) -> Option<Oid> {
        self.by_oid.entries().last().map(|&(oid, _)| oid)
    }

    /// How many entries sorted access has put in stream order so far: a
    /// work counter, the length of the prefix it reached rounded up to
    /// a bucket end. A clone keeps its original's order.
    pub fn entries_ordered(&self) -> usize {
        self.ordered
    }

    /// The equi-depth histogram at `bins` bins that [`Subsystem::caps`]
    /// reports, and how many entries it copied to get it. A quantile in
    /// the ordered prefix is read off it; one past it is read from a
    /// sorted copy of the grades of the one bucket that holds it, each
    /// bucket copied at most once a call — and not at all when it holds
    /// one grade, which every rank in it reads. (Equal grades are equal
    /// bits, so sorting grades without their oids reads the stream's.)
    pub fn histogram_counted(&self, bins: usize) -> (GradeHistogram, usize) {
        // The bucket read last: its span of `sorted`, its grades in
        // stream order unless it holds one grade.
        let last = RefCell::new((0..0, Vec::new()));
        let copied = Cell::new(0);
        let histogram = GradeHistogram::from_sorted_by(self.sorted.len(), bins, |rank| {
            if rank < self.ordered {
                return self.sorted[rank].grade;
            }
            let (span, grades) = &mut *last.borrow_mut();
            if !span.contains(&rank) {
                *span = self.bucket_start(rank)..self.bucket_end(rank, self.bucket_of(rank)).0;
                let bucket = &self.sorted[span.clone()];
                grades.clear();
                if bucket.iter().any(|so| so.grade != bucket[0].grade) {
                    grades.extend(bucket.iter().map(|so| so.grade));
                    grades.sort_unstable_by(|a, b| b.cmp(a));
                    copied.set(copied.get() + bucket.len());
                }
            }
            match grades.get(rank - span.start) {
                Some(&grade) => grade,
                None => self.sorted[rank].grade,
            }
        });
        (histogram, copied.get())
    }

    /// The bucket of entry `at` of `sorted`; 0 past its end.
    fn bucket_of(&self, at: usize) -> u32 {
        let grade = self.sorted.get(at).map(|so| so.grade);
        grade.map_or(0, |grade| self.buckets.of_grade(grade))
    }

    /// Where the bucket holding entry `at` of `sorted` starts: `at`
    /// itself in the ordered prefix, where every entry stands alone.
    fn bucket_start(&self, at: usize) -> usize {
        if at < self.ordered {
            return at;
        }
        let b = self.bucket_of(at);
        let before = self.sorted[self.ordered..at].iter().rev();
        at - before
            .take_while(|so| self.buckets.of_grade(so.grade) == b)
            .count()
    }

    /// Where bucket `b`, which holds entry `at` of `sorted`'s unordered
    /// tail, ends, and the bucket of the entry there: a walk that finds
    /// each entry's bucket once, like the sort of the bucket it bounds.
    fn bucket_end(&self, at: usize, b: u32) -> (usize, u32) {
        let after = self.sorted[at + 1..].iter();
        let mut buckets = after.map(|so| self.buckets.of_grade(so.grade)).enumerate();
        match buckets.find(|&(_, next)| next != b) {
            Some((i, next)) => (at + 1 + i, next),
            None => (self.sorted.len(), b),
        }
    }

    /// Sorts buckets until the first `end` entries (at most all) are in
    /// stream order. Out of line, so that `sorted_next` over an ordered
    /// prefix stays a load, a compare and a copy in a caller's loop.
    #[inline(never)]
    fn order_through(&mut self, end: usize) {
        let mut bucket = self.bucket_of(self.ordered);
        while self.ordered < end.min(self.sorted.len()) {
            let (next, after) = self.bucket_end(self.ordered, bucket);
            self.sorted[self.ordered..next].sort_unstable_by(by_grade_then_oid);
            (self.ordered, bucket) = (next, after);
        }
    }

    /// The list of `NOT` this one over every oid that one of `lists`
    /// grades: each grade negated, and grade 1 for the oids this list
    /// lacks. O(N) past this list's own order (the full distribution
    /// sort, unless sorted access already read it to the end), not
    /// re-sorted: the universe is a merge of the lists' ascending oid
    /// arrays (a list whose oids equal the union so far — this list
    /// itself, any list over the same objects — is compared, not
    /// merged); this list's stream read backwards is in order but
    /// inside a run of equal complement grade (`1 − x` merges distinct
    /// tiny grades too), which is put back in oid order; the grade-1
    /// run is read off the oids.
    pub fn complement<'a>(&self, lists: impl IntoIterator<Item = &'a VecSource>) -> VecSource {
        let own = self.by_oid.entries();
        let mut universe: Vec<Oid> = own.iter().map(|&(oid, _)| oid).collect();
        for list in lists {
            let oids = list.by_oid.entries();
            let same = oids.len() == universe.len()
                && oids.iter().zip(&universe).all(|(&(oid, _), &u)| oid == u);
            if !same {
                universe = union_ascending(&universe, oids);
            }
        }
        // This list's oids are a subsequence of the universe: walk both.
        let mut own = own.iter().peekable();
        let pairs: Vec<(Oid, Score)> = universe
            .into_iter()
            .map(|oid| {
                let grade = own
                    .next_if(|&&(at, _)| at == oid)
                    .map_or(Score::ZERO, |&(_, g)| g);
                (oid, grade.negate())
            })
            .collect();
        // Grade 1 first, in oid order; then this list backwards, negated.
        let ones = pairs.iter().filter(|&&(_, grade)| grade == Score::ONE);
        let mut sorted: Vec<ScoredObject<Oid>> = ones
            .map(|&(oid, grade)| ScoredObject::new(oid, grade))
            .collect();
        let whole;
        let stream = if self.ordered == self.sorted.len() {
            &self.sorted
        } else {
            whole = self.by_oid.sorted_stream();
            &whole
        };
        let rest = stream.iter().rev();
        let rest = rest.map(|so| ScoredObject::new(so.id, so.grade.negate()));
        sorted.extend(rest.filter(|so| so.grade < Score::ONE));
        for run in sorted.chunk_by_mut(|a, b| a.grade == b.grade) {
            run.sort_unstable_by_key(|so| so.id);
        }
        VecSource::in_order(
            format!("NOT {}", self.label),
            sorted,
            OidIndex(pairs.into()),
        )
    }
}

/// The union of two strictly ascending oid arrays, ascending.
fn union_ascending(a: &[Oid], b: &[(Oid, Score)]) -> Vec<Oid> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&(y, _))) = (a.get(i), b.get(j)) {
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend(b[j..].iter().map(|&(oid, _)| oid));
    out
}

impl VecSource {
    /// Bounded sorted drain: every remaining entry of the sorted stream
    /// with grade ≥ `bound`, in stream order, the cursor moved past
    /// exactly those. The reference the paged store's bounded drain
    /// ([`crate::store::PagedSource::sorted_drain_bounded`]) must equal
    /// (the `pruned_equivalence` suite checks). Every grade ≥ `bound`
    /// lies in `bound`'s bucket or an earlier one, so those are the
    /// buckets it orders, found by a binary search: bucket numbers
    /// never fall along the unordered tail.
    pub fn sorted_drain_bounded(&mut self, bound: Score) -> Vec<ScoredObject<Oid>> {
        let last = self.buckets.of_grade(bound);
        let tail = &self.sorted[self.ordered..];
        let reach = tail.partition_point(|so| self.buckets.of_grade(so.grade) <= last);
        self.order_through(self.ordered + reach);
        let tail = &self.sorted[self.cursor..self.ordered];
        let take = tail.partition_point(|so| so.grade >= bound);
        let out = tail[..take].to_vec();
        self.cursor += take;
        out
    }
}

impl Subsystem for VecSource {
    // Batched access over the in-memory representation is a slice copy
    // / a sequence of index probes, once the buckets it reaches are in
    // order; no access can fail.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let end = self.cursor.saturating_add(n).min(self.sorted.len());
        self.order_through(end);
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

    // Quantiles are order statistics: read off the ordered prefix, or
    // off a sorted copy of the few buckets past it that hold one — free
    // at optimizer time, nothing charged, the cursor and the order
    // untouched.
    fn caps(&self) -> Caps<'_> {
        Caps {
            grades: Some(Grades(GradesFrom::List(self))),
            page_io: None,
        }
    }

    // `#[inline]`: it calls `order_through`, so rustc no longer inlines
    // it across crates on its own, and a statically dispatched drain
    // through it ran ≈ 3× slower without the hint.
    #[inline]
    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        if self.cursor == self.ordered {
            self.order_through(self.cursor + 1);
        }
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
        CountingSource, Oid, OidIndex, Score, ScoredObject, SourceError, SourceInfo,
        SourceViolation, Subsystem, ValidatingSource, VecSource,
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
    fn a_complement_is_the_list_of_its_negated_pairs() {
        // Ties, grades `1 − x` merges into one run (1e-17 and 2e-17 both
        // give 1; 0.3 and 0.30000000000000004 give one value too), zero
        // grades, and oids of the universe the list lacks.
        let tiny = [
            0.5,
            1e-17,
            0.3,
            2e-17,
            0.0,
            0.5,
            0.30000000000000004,
            1.0,
            0.7,
        ];
        let list = VecSource::new(
            "a",
            tiny.iter()
                .enumerate()
                .map(|(i, &g)| (3 * i as Oid + 2, s(g)))
                .collect(),
        );
        let universe: Vec<Oid> = (0..30).collect();
        let mut got = list.complement([&VecSource::new(
            "b",
            universe.iter().map(|&oid| (oid, s(0.5))).collect(),
        )]);
        let negated = |oid| {
            (
                oid,
                Subsystem::random_access(&mut list.clone(), oid)
                    .unwrap()
                    .negate(),
            )
        };
        let mut want = VecSource::new("NOT a", universe.iter().map(|&oid| negated(oid)).collect());
        assert_eq!(stream(&mut got), stream(&mut want));
        assert_eq!(got.info(), want.info());
        for oid in 0..40 {
            assert_eq!(
                got.random_access(oid).unwrap(),
                want.random_access(oid).unwrap()
            );
        }
    }

    /// The construction `complement` replaced — every list's oids
    /// collected, sorted and deduplicated — kept as the oracle of its
    /// merge.
    fn complement_by_sort<'a>(
        list: &VecSource,
        lists: impl IntoIterator<Item = &'a VecSource>,
    ) -> VecSource {
        let others = lists.into_iter().flat_map(|l| l.by_oid.entries());
        let all = list.by_oid.entries().iter().chain(others);
        let mut universe: Vec<Oid> = all.map(|&(oid, _)| oid).collect();
        universe.sort_unstable();
        universe.dedup();
        let pairs: Vec<(Oid, Score)> = universe
            .into_iter()
            .map(|oid| (oid, list.by_oid.grade(oid).negate()))
            .collect();
        let ones = pairs.iter().filter(|&&(_, grade)| grade == Score::ONE);
        let mut sorted: Vec<ScoredObject<Oid>> = ones
            .map(|&(oid, grade)| ScoredObject::new(oid, grade))
            .collect();
        let stream = list.by_oid.sorted_stream();
        let rest = stream.iter().rev();
        let rest = rest.map(|so| ScoredObject::new(so.id, so.grade.negate()));
        sorted.extend(rest.filter(|so| so.grade < Score::ONE));
        for run in sorted.chunk_by_mut(|a, b| a.grade == b.grade) {
            run.sort_unstable_by_key(|so| so.id);
        }
        VecSource::in_order(
            format!("NOT {}", list.label),
            sorted,
            OidIndex(pairs.into()),
        )
    }

    #[test]
    fn the_merged_complement_is_the_sorted_one() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below.max(1)
        };
        // Grades: spread, tied on a few levels, crisp (0 / 1 runs), and
        // tiny ones whose complements all round to 1.
        let mut grade = |style: u64| match style {
            0 => s(next(1_000_001) as f64 / 1e6),
            1 => s(next(4) as f64 / 3.0),
            2 => s(next(2) as f64),
            _ => s(next(3) as f64 * 1e-17),
        };
        let mut list = |label: &str, style: u64, oids: Vec<Oid>| {
            VecSource::new(label, oids.into_iter().map(|o| (o, grade(style))).collect())
        };
        let mut cases = 0;
        for style in 0..4 {
            for n in [0u64, 1, 5, 64, 2000] {
                let dense = list("dense", style, (0..n).collect());
                let sparse = list("sparse", style, (0..n).filter(|o| o % 3 == 1).collect());
                let shifted = list("shifted", style, (n / 2..n + n / 2).collect());
                let disjoint = list("disjoint", style, (n + 10..2 * n + 10).collect());
                let huge = list("huge", style, vec![0, u64::MAX - 1, u64::MAX]);
                let all = [&dense, &sparse, &shifted, &disjoint, &huge];
                for target in all {
                    let groups: [Vec<&VecSource>; 6] = [
                        vec![],
                        vec![target],
                        vec![target, target],
                        vec![&dense, target],
                        all.to_vec(),
                        vec![&disjoint, &sparse, target, &shifted],
                    ];
                    for lists in groups {
                        let got = target.complement(lists.iter().copied());
                        let want = complement_by_sort(target, lists.iter().copied());
                        let case = format!("style {style} n {n} {}", target.label);
                        assert_eq!(got.label, want.label, "{case}");
                        assert_eq!(bits(&got.sorted), bits(&want.sorted), "{case}");
                        let pair_bits = |v: &VecSource| -> Vec<(Oid, u64)> {
                            v.by_oid
                                .entries()
                                .iter()
                                .map(|&(oid, g)| (oid, g.value().to_bits()))
                                .collect()
                        };
                        assert_eq!(pair_bits(&got), pair_bits(&want), "{case}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 5 * 5 * 6);
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

    /// The comparison sort [`OidIndex::sorted_stream`] replaced, kept
    /// as the oracle of its order.
    fn comparison_sorted(index: &OidIndex) -> Vec<ScoredObject<Oid>> {
        let mut sorted: Vec<ScoredObject<Oid>> = index
            .entries()
            .iter()
            .map(|&(oid, grade)| ScoredObject::new(oid, grade))
            .collect();
        sorted.sort_unstable_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        sorted
    }

    /// Each entry's oid and grade bits, so streams compare bit for bit.
    fn bits(stream: &[ScoredObject<Oid>]) -> Vec<(Oid, u64)> {
        stream
            .iter()
            .map(|so| (so.id, so.grade.value().to_bits()))
            .collect()
    }

    /// `pairs` through the normalisation, streamed both ways.
    fn sorts_like_the_oracle(pairs: Vec<(Oid, Score)>) -> Result<(), TestCaseError> {
        let index = OidIndex::new(pairs);
        let got = index.sorted_stream();
        prop_assert_eq!(bits(&got), bits(&comparison_sorted(&index)));
        Ok(())
    }

    /// The grade `ulps` steps below 1.
    fn below_one(ulps: u64) -> Score {
        Score::clamped(f64::from_bits(1.0_f64.to_bits() - ulps))
    }

    /// A subnormal grade: `ulps` steps above 0.
    fn subnormal(ulps: u64) -> Score {
        Score::clamped(f64::from_bits(ulps))
    }

    /// The inputs that meet the sort's edges: lengths around 0, 1 and
    /// the standard library's insertion-sort cutoff (20) inside one
    /// bucket; one grade throughout; crisp lists; everything within a
    /// few ulps of 1 beside one 0; exact 0 and 1; subnormals, alone and
    /// beside 1; sparse oids up to `u64::MAX`; and 65 536 entries.
    #[test]
    fn the_distribution_sort_orders_like_the_comparison_sort() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut uniform = || Score::clamped((next() >> 11) as f64 / (1_u64 << 53) as f64);
        let dense = |grades: Vec<Score>| (0..).zip(grades).collect::<Vec<(Oid, Score)>>();
        let mut lists: Vec<Vec<(Oid, Score)>> = Vec::new();
        for n in [0, 1, 2, 3, 19, 20, 21, 22] {
            lists.push(dense((0..n).map(|_| uniform()).collect()));
            lists.push(dense(vec![Score::HALF; n]));
            lists.push(dense((0..n).map(|i| Score::crisp(i % 3 == 1)).collect()));
            // One grade at 0 sends every other into the first bucket.
            let crowded = (0..n).map(|i| {
                if i == n / 2 {
                    Score::ZERO
                } else {
                    below_one(i as u64 % 5)
                }
            });
            lists.push(dense(crowded.collect()));
        }
        lists.push(dense(
            (0..200).map(|i| Score::crisp((i * 7919) % 5 < 2)).collect(),
        ));
        lists.push(dense(vec![Score::ZERO; 64]));
        lists.push(dense(vec![Score::ONE; 64]));
        let ends = (0..100).map(|i| [Score::ZERO, Score::ONE, Score::HALF, below_one(1)][i % 4]);
        lists.push(dense(ends.collect()));
        lists.push(dense((0..100).map(|i| subnormal(i % 7)).collect()));
        lists.push(dense(
            (0..100)
                .map(|i| {
                    if i % 10 == 0 {
                        Score::ONE
                    } else {
                        subnormal(i % 7 + 1)
                    }
                })
                .collect(),
        ));
        let sparse = [u64::MAX, 0, 1 << 40, u64::MAX - 1, 17, 3_000_000_000, 5];
        lists.push(sparse.iter().map(|&oid| (oid, uniform())).collect());
        lists.push(
            sparse
                .iter()
                .map(|&oid| (oid, Score::crisp(oid % 2 == 1)))
                .collect(),
        );
        lists.push(dense((0..1 << 16).map(|_| uniform()).collect()));
        lists.push(dense(
            (0..1 << 16).map(|i| Score::crisp(i % 3 == 0)).collect(),
        ));
        let squared = (0..1 << 16).map(|_| Score::clamped(uniform().value().powi(2)));
        lists.push(dense(squared.collect()));
        for pairs in lists {
            let len = pairs.len();
            sorts_like_the_oracle(pairs).unwrap_or_else(|e| panic!("{len} pairs: {e}"));
        }
    }

    /// Grades of one kind: uniform over [0, 1], five levels, crisp,
    /// within a few ulps of 1 (beside 0 or not), or subnormal.
    fn grades_of(kind: u8) -> BoxedStrategy<Score> {
        match kind {
            0 => (0.0..=1.0_f64).prop_map(Score::clamped).boxed(),
            1 => (0u8..5)
                .prop_map(|l| Score::clamped(f64::from(l) / 4.0))
                .boxed(),
            2 => (0u8..2).prop_map(|b| Score::crisp(b == 1)).boxed(),
            3 => (0u64..6).prop_map(below_one).boxed(),
            4 => prop_oneof![(0u64..6).prop_map(below_one), Just(Score::ZERO)].boxed(),
            _ => prop_oneof![(0u64..6).prop_map(subnormal), Just(Score::ONE)].boxed(),
        }
    }

    /// Lists of one grade kind, up to 300 long, over dense or sparse
    /// oids (`u64::MAX` among them, duplicates kept last).
    fn sortable_pairs() -> impl Strategy<Value = Vec<(Oid, Score)>> {
        (0u8..6, 0u8..2).prop_flat_map(|(kind, sparse)| {
            if sparse == 0 {
                proptest::collection::vec(grades_of(kind), 0..300)
                    .prop_map(|grades| (0..).zip(grades).collect())
                    .boxed()
            } else {
                let oid = prop_oneof![0u64..400, 0u64..4_000_000_000, Just(u64::MAX)];
                proptest::collection::vec((oid, grades_of(kind)), 0..300).boxed()
            }
        })
    }

    proptest! {
        /// The distribution sort against the comparison sort it
        /// replaced, on lists of every grade kind.
        #[test]
        fn sorted_stream_matches_the_comparison_sort(pairs in sortable_pairs()) {
            sorts_like_the_oracle(pairs)?;
        }
    }

    /// One call a reader makes on a list that orders itself as it is
    /// read.
    #[derive(Debug, Clone)]
    enum Call {
        Batch(usize),
        Next,
        Rewind,
        /// A bounded drain at the grade of the oracle's entry this far
        /// down (modulo its length).
        BoundedAt(usize),
        /// A bounded drain at a grade that may lie between entries.
        BoundedBy(f64),
        Histogram(usize),
        MinGrade,
        /// A clone taken here, read to its end and again from the top.
        Clone,
        /// The complement taken here, over the list's own oids.
        Complement,
    }

    fn calls() -> impl Strategy<Value = Vec<Call>> {
        let call = prop_oneof![
            (0usize..40).prop_map(Call::Batch),
            Just(Call::Batch(usize::MAX)),
            Just(Call::Next),
            Just(Call::Rewind),
            (0usize..300).prop_map(Call::BoundedAt),
            (0.0..=1.0_f64).prop_map(Call::BoundedBy),
            (1usize..=40).prop_map(Call::Histogram),
            Just(Call::MinGrade),
            Just(Call::Clone),
            Just(Call::Complement),
        ];
        proptest::collection::vec(call, 0..24)
    }

    /// A histogram's bounds, bit for bit.
    fn bound_bits(histogram: &GradeHistogram) -> Vec<u64> {
        histogram.bounds().iter().map(|b| b.to_bits()).collect()
    }

    /// Runs `calls` on the list of `pairs`, every answer against the
    /// comparison sort's stream; the cursor never passes the ordered
    /// prefix.
    fn reads_like_the_oracle(
        pairs: Vec<(Oid, Score)>,
        calls: &[Call],
    ) -> Result<(), TestCaseError> {
        let want = comparison_sorted(&OidIndex::new(pairs.clone()));
        let mut src = VecSource::new("t", pairs);
        let mut at = 0_usize;
        for call in calls {
            let case = format!("{call:?} at {at}");
            match *call {
                Call::Batch(n) => {
                    let end = at.saturating_add(n).min(want.len());
                    let got = src.sorted_batch(n).unwrap();
                    prop_assert_eq!(bits(&got), bits(&want[at..end]), "{}", case);
                    at = end;
                }
                Call::Next => {
                    let got = src.sorted_next().unwrap();
                    let expect = want.get(at).copied();
                    prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{}", case);
                    at += usize::from(expect.is_some());
                }
                Call::Rewind => {
                    src.rewind();
                    at = 0;
                }
                Call::BoundedAt(_) | Call::BoundedBy(_) => {
                    let bound = match *call {
                        Call::BoundedAt(i) if !want.is_empty() => want[i % want.len()].grade,
                        Call::BoundedBy(v) => Score::clamped(v),
                        _ => Score::ZERO,
                    };
                    let take = want[at..].partition_point(|so| so.grade >= bound);
                    let got = src.sorted_drain_bounded(bound);
                    prop_assert_eq!(bits(&got), bits(&want[at..at + take]), "{}", case);
                    at += take;
                }
                Call::Histogram(bins) => {
                    let expect =
                        GradeHistogram::from_sorted_by(want.len(), bins, |i| want[i].grade);
                    let got = src.caps().histogram(bins).unwrap();
                    prop_assert_eq!(bound_bits(&got), bound_bits(&expect), "{}", case);
                    prop_assert_eq!(got.universe(), expect.universe(), "{}", case);
                }
                Call::MinGrade => {
                    let got = src.min_grade().map(|g| g.value().to_bits());
                    let expect = want.last().map(|so| so.grade.value().to_bits());
                    prop_assert_eq!(got, expect, "{}", case);
                }
                Call::Clone => {
                    let mut copy = src.clone();
                    prop_assert_eq!(bits(&stream(&mut copy)), bits(&want[at..]), "{}", case);
                    copy.rewind();
                    prop_assert_eq!(bits(&stream(&mut copy)), bits(&want), "{}", case);
                }
                Call::Complement => {
                    let negated = want.iter().map(|so| (so.id, so.grade.negate())).collect();
                    let expect = comparison_sorted(&OidIndex::new(negated));
                    let mut not = src.complement([&src]);
                    prop_assert_eq!(bits(&stream(&mut not)), bits(&expect), "{}", case);
                }
            }
            prop_assert_eq!(src.cursor, at, "{}", case);
            prop_assert!(at <= src.ordered && src.ordered <= want.len(), "{}", case);
        }
        let oids: Vec<Oid> = want.iter().map(|so| so.id).collect();
        let grades: Vec<Score> = want.iter().map(|so| so.grade).collect();
        prop_assert_eq!(src.random_batch(&oids).unwrap(), grades);
        Ok(())
    }

    proptest! {
        /// A list read in any order of calls — batches, single steps,
        /// rewinds, bounded drains, histograms, clones and complements
        /// taken mid-stream — answers as the comparison sort's stream.
        #[test]
        fn a_list_ordered_as_it_is_read_answers_as_the_comparison_sort(
            pairs in sortable_pairs(),
            calls in calls(),
        ) {
            reads_like_the_oracle(pairs, &calls)?;
        }
    }

    /// Reads `pairs` with a sweep of call sequences that the property
    /// draws only by chance: each batch size, each bound, every
    /// histogram resolution, before and after a full read.
    fn sweep(pairs: &[(Oid, Score)]) {
        let mut runs: Vec<Vec<Call>> = vec![vec![Call::Histogram(16), Call::MinGrade]];
        for n in [1, 2, 3, 7, 199, 200, 201, usize::MAX] {
            runs.push(vec![
                Call::Batch(n),
                Call::Histogram(16),
                Call::Clone,
                Call::Batch(n),
            ]);
        }
        for i in 0..pairs.len().min(64) {
            runs.push(vec![
                Call::Next,
                Call::BoundedAt(i * 37),
                Call::MinGrade,
                Call::Complement,
            ]);
        }
        let all = (1..=40).map(Call::Histogram);
        runs.push(
            all.clone()
                .chain([Call::Batch(usize::MAX)])
                .chain(all)
                .collect(),
        );
        for calls in runs {
            reads_like_the_oracle(pairs.to_vec(), &calls)
                .unwrap_or_else(|e| panic!("{} pairs, {calls:?}: {e}", pairs.len()));
        }
    }

    /// Every grade equal: one bucket, the whole list, ordered by the
    /// first read; a histogram reads it without a copy.
    #[test]
    fn a_list_of_one_grade_is_one_bucket() {
        let pairs: Vec<(Oid, Score)> = (0..50).map(|i| ((i * 7) % 53, Score::HALF)).collect();
        sweep(&pairs);
        let mut src = VecSource::new("t", pairs);
        assert_eq!(src.histogram_counted(4).1, 0);
        assert_eq!(src.entries_ordered(), 0);
        assert_eq!(src.sorted_next().unwrap().map(|so| so.id), Some(0));
        assert_eq!(src.entries_ordered(), 50);
        assert_eq!(src.histogram_counted(4).1, 0);
    }

    /// A crisp list of 2 000 is two buckets, 200 matches and 1 800
    /// misses: reading the matches orders only them, and a histogram
    /// copies neither, each holding one grade.
    #[test]
    fn a_crisp_list_orders_its_matches_alone() {
        let grades: Vec<Score> = (0..2000)
            .map(|i| Score::crisp(i * 7919 % 10 == 0))
            .collect();
        let pairs: Vec<(Oid, Score)> = (0..).zip(grades.iter().copied()).collect();
        sweep(&pairs);
        let mut src = VecSource::from_dense("crisp", &grades);
        assert_eq!(src.histogram_counted(16).1, 0);
        assert_eq!(src.sorted_batch(10).unwrap().len(), 10);
        assert_eq!(src.entries_ordered(), 200);
        let matches = src.sorted_drain_bounded(Score::ONE);
        assert_eq!((matches.len(), src.entries_ordered()), (190, 200));
        assert_eq!(src.min_grade(), Some(Score::ZERO));
        assert_eq!(src.entries_ordered(), 200);
        assert!(src.sorted_next().unwrap().is_some());
        assert_eq!(src.entries_ordered(), 2000);
    }

    /// Zeros of both signs (one grade once stored) beside grades whose
    /// buckets touch theirs: they stream as one grade in oid order, and
    /// a read ending on the bucket edge before them leaves them alone.
    #[test]
    fn signed_zeros_across_a_bucket_edge_stream_in_oid_order() {
        let tiny = Score::clamped(f64::MIN_POSITIVE);
        let pairs = vec![
            (4, s(-0.0)),
            (2, s(0.0)),
            (7, s(0.25)),
            (9, Score::ONE),
            (1, s(0.0)),
            (3, s(0.2)),
            (8, tiny),
            (6, s(-0.0)),
        ];
        sweep(&pairs);
        let mut src = VecSource::new("zeros", pairs);
        let head = src.sorted_drain_bounded(s(0.2));
        assert_eq!(head.iter().map(|so| so.id).collect::<Vec<_>>(), [9, 7, 3]);
        // 8 buckets over [0, 1]: 0.2 ends bucket 6, the zeros and the
        // smallest normal share bucket 7.
        assert_eq!(src.entries_ordered(), 3);
        let rest = stream(&mut src);
        assert_eq!(
            rest.iter().map(|so| so.id).collect::<Vec<_>>(),
            [8, 1, 2, 4, 6]
        );
        assert!(rest[1..].iter().all(|so| so.grade.value().to_bits() == 0));
    }

    /// Quantile ranks that fall on a bucket's first and on its last
    /// slot, inside buckets whose oid order is not their grade order:
    /// each reads the sorted copy, and each such bucket is copied once
    /// (a bucket of one entry is read in place).
    #[test]
    fn a_quantile_on_a_bucket_edge_reads_the_sorted_bucket() {
        // Nine buckets over [0, 1]; ranks 0, 2, 4, 6, 8 at four bins.
        // Ranks 2–4 share bucket 4 and ranks 7–8 bucket 8, each with
        // its smallest grade on the smallest oid.
        let grades = [1.0, 0.85, 0.48, 0.49, 0.5, 0.3, 0.2, 0.0, 0.1];
        let pairs: Vec<(Oid, Score)> = (0..).zip(grades.iter().map(|&g| s(g))).collect();
        sweep(&pairs);
        let src = VecSource::new("edges", pairs);
        let (histogram, copied) = src.histogram_counted(4);
        assert_eq!(histogram.bounds(), [1.0, 0.5, 0.48, 0.2, 0.0]);
        assert_eq!(copied, 3 + 2);
        assert_eq!(src.entries_ordered(), 0);
    }
}
