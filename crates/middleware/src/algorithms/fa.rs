//! Algorithm A₀ — "Fagin's Algorithm" (§4.1, from \[Fa96\]).
//!
//! Three phases:
//!
//! 1. **Sorted access.** Stream all `m` lists in parallel (round-robin)
//!    until there is a set `L` of at least `k` objects that *every*
//!    list has output.
//! 2. **Random access.** For every object seen by any list, fetch its
//!    missing grades from the other lists.
//! 3. **Computation.** Combine each seen object's grades with the
//!    monotone scoring function `t`; output the best `k`.
//!
//! Correctness (sketch, as in the paper): an unseen object `y` has
//! `μᵢ(y) ≤ μᵢ(z)` for every list `i` and every `z ∈ L` (z was output,
//! y wasn't), so by monotonicity `μ(y) ≤ μ(z)` — at least `k` seen
//! objects tie or beat every unseen one.
//!
//! For independent lists the database access cost is
//! `O(N^((m−1)/m)·k^(1/m))` with arbitrarily high probability
//! (Theorem 4.1), matching the lower bound for strict monotone queries
//! (Theorem 4.2). Experiments E1/E3 reproduce both.
//!
//! [`FaSession`] additionally exposes the paper's "nice feature that
//! after finding the top k answers, in order to find the next k best
//! answers we can continue where we left off".

use std::fmt;
use std::ops::{Deref, DerefMut};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{finalize, validate, AlgoError, TopKAlgorithm, TopKResult};
use crate::source::{Oid, Subsystem};
use crate::stats::AccessStats;

/// Algorithm A₀.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaginsAlgorithm;

/// What A₀, its resumable sessions and
/// [`crate::algorithms::pruned_fa::PrunedFa`] keep beside the book.
pub(crate) struct FaState {
    pub(crate) book: Book,
    /// Objects every list has output under *sorted* access (the set L).
    matches: usize,
    /// Session state: per book row, whether an earlier batch returned
    /// it; how many it returned; and the cumulative number of answers
    /// requested so far.
    emitted_rows: Vec<bool>,
    emitted: usize,
    requested: usize,
}

impl FaState {
    /// Rewinds the sources and starts from nothing seen.
    pub(crate) fn new(sources: &mut [&mut dyn Subsystem]) -> FaState {
        FaState {
            book: Book::open(sources),
            matches: 0,
            emitted_rows: Vec::new(),
            emitted: 0,
            requested: 0,
        }
    }

    /// Phase 1: round-robin sorted access until `|L| ≥ target` or all
    /// lists are drained. A row joins L when *sorted* access reveals
    /// its last unknown field: one a probe of an earlier batch filled
    /// never counts, so a resumed session streams on as if it had not
    /// probed.
    ///
    /// The halt is *mid-round*, the moment `|L|` reaches the target:
    /// finishing the round would charge sorted accesses A₀ never makes.
    pub(crate) fn sorted_phase(
        &mut self,
        sources: &mut [&mut dyn Subsystem],
        target: usize,
    ) -> Result<(), AlgoError> {
        while self.matches < target {
            let mut progressed = false;
            for i in 0..sources.len() {
                let Some((row, _, news, _)) = self.book.pull(i, sources)? else {
                    continue;
                };
                progressed = true;
                if news && self.book.table.missing(row) == 0 {
                    self.matches += 1;
                    if self.matches >= target {
                        return Ok(());
                    }
                }
            }
            if !progressed {
                // Every list drained: L is as large as it will get.
                break;
            }
        }
        Ok(())
    }

    /// Phases 2 and 3: random access for every missing slot of every
    /// seen object, then combine its grades.
    ///
    /// A₀ probes *every* hole whatever the other probes return, so the
    /// order is free: phase 2 is one [`Subsystem::random_batch`] per
    /// list — the seen objects that list has not revealed — charged at
    /// the batch's length, and a source that can serve a batch better
    /// than probe by probe (a paged store reads each page once) does.
    fn resolve_all(
        &mut self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
    ) -> Result<Vec<ScoredObject<Oid>>, AlgoError> {
        let Book { table, frontier } = &mut self.book;
        // One walk collects every list's holes, ...
        let mut missing: Vec<Vec<Oid>> = vec![Vec::new(); sources.len()];
        for row in 0..table.len() {
            for (slot, holes) in table.fields(row).iter().zip(&mut missing) {
                if slot.is_none() {
                    holes.push(table.oid(row));
                }
            }
        }
        let mut answers = Vec::with_capacity(sources.len());
        for (source, oids) in sources.iter_mut().zip(&missing) {
            // A list with no holes is not called at all.
            let grades = if oids.is_empty() {
                Vec::new()
            } else {
                source
                    .random_batch(oids)
                    .map_err(|cause| AlgoError::source(&**source, cause))?
            };
            frontier.stats.random += oids.len() as u64;
            answers.push(grades.into_iter());
        }
        // ... and a second one, meeting the same holes in the same
        // order, fills and combines.
        Ok((0..table.len())
            .map(|row| {
                for (j, answers) in answers.iter_mut().enumerate() {
                    if table.fields(row)[j].is_none() {
                        if let Some(grade) = answers.next() {
                            table.reveal(row, j, grade);
                        }
                    }
                }
                // Still a hole only if the source answered its batch
                // short: what it withheld grades zero, like any object
                // a subsystem has no opinion about.
                ScoredObject::new(table.oid(row), table.bound(row, |_| Score::ZERO, scoring))
            })
            .collect())
    }

    /// The next `k` best answers not yet emitted — the body of both
    /// session types, and (as the first batch) of the one-shot run.
    ///
    /// The top `requested` answers require `|L| ≥ requested`, by the
    /// same correctness argument as the one-shot run.
    fn next_k(
        &mut self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        if k == 0 {
            return Err(AlgoError::ZeroK);
        }
        self.requested += k;
        self.sorted_phase(sources, self.requested)?;
        // One answer per row, in row order.
        let combined = self.resolve_all(sources, scoring)?;
        self.emitted_rows.resize(combined.len(), false);
        let fresh = combined
            .into_iter()
            .zip(&self.emitted_rows)
            .filter_map(|(so, &emitted)| (!emitted).then_some(so))
            .collect();
        let result = finalize(fresh, k, self.book.frontier.stats);
        for answer in &result.answers {
            if let Some(row) = self.book.table.row(answer.id) {
                self.emitted_rows[row] = true;
            }
        }
        self.emitted += result.answers.len();
        Ok(result)
    }
}

impl TopKAlgorithm for FaginsAlgorithm {
    fn name(&self) -> &'static str {
        "fagin-a0"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        validate(sources, scoring, k)?;
        FaState::new(sources).next_k(sources, scoring, k)
    }
}

/// A resumable A₀ run: each [`Session::next_k`] call returns the next
/// best batch of answers, continuing sorted access where the previous
/// call left off (§4.1's "continue where we left off").
///
/// The session holds its sources for the duration of the query, either
/// borrowed ([`FaSession`]) or by value ([`OwnedFaSession`]).
pub struct Session<S, F> {
    sources: Vec<S>,
    scoring: F,
    state: FaState,
}

/// A session over borrowed sources and scoring function.
pub type FaSession<'a> = Session<&'a mut dyn Subsystem, &'a dyn ScoringFunction>;

/// An **owning** session: it holds its sources (and scoring function)
/// by value, so it can be stored in long-lived query cursors (the
/// Garlic layer's "top 10, then the next 10" interaction from §4).
pub type OwnedFaSession = Session<Box<dyn Subsystem>, Box<dyn ScoringFunction>>;

// Sessions hold `dyn` sources/scoring with no `Debug` bound; a
// state-level summary satisfies `missing_debug_implementations`.
impl<S, F> fmt::Debug for Session<S, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaSession")
            .field("arity", &self.sources.len())
            .field("emitted", &self.state.emitted)
            .field("requested", &self.state.requested)
            .finish_non_exhaustive()
    }
}

/// Borrows held sources the way the algorithms take them.
fn borrowed<'s, 'a: 's, S>(sources: &'s mut [S]) -> Vec<&'s mut dyn Subsystem>
where
    S: DerefMut<Target = dyn Subsystem + 'a>,
{
    sources.iter_mut().map(|s| &mut **s as _).collect()
}

impl<'a, S, F> Session<S, F>
where
    S: DerefMut<Target = dyn Subsystem + 'a>,
    F: Deref<Target = dyn ScoringFunction + 'a>,
{
    /// Starts a session. Rewinds the sources.
    pub fn new(mut sources: Vec<S>, scoring: F) -> Result<Self, AlgoError> {
        if sources.is_empty() {
            return Err(AlgoError::NoSources);
        }
        if !scoring.is_monotone() {
            return Err(AlgoError::NonMonotoneScoring(scoring.name()));
        }
        let state = FaState::new(&mut borrowed(&mut sources));
        Ok(Session {
            sources,
            scoring,
            state,
        })
    }

    /// Returns the next `k` best answers (those ranked
    /// `requested+1 ..= requested+k` overall), with exact grades.
    ///
    /// The cumulative access stats of the whole session so far are
    /// reported in the result — resuming is cheaper than starting over,
    /// which experiment E1's `resume` column quantifies.
    pub fn next_k(&mut self, k: usize) -> Result<TopKResult, AlgoError> {
        let mut refs = borrowed(&mut self.sources);
        self.state.next_k(&mut refs, &*self.scoring, k)
    }

    /// Cumulative access statistics for the session.
    pub fn stats(&self) -> AccessStats {
        self.state.book.frontier.stats
    }

    /// Number of answers already returned.
    pub fn emitted(&self) -> usize {
        self.state.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::Naive;
    use crate::source::{CountingSource, VecSource};
    use crate::source::{GradedSource, SourceError};
    use fmdb_core::scoring::tnorms::{Min, Product};

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    /// 6-object, 2-list fixture with distinct min-grades.
    fn fixture() -> (VecSource, VecSource) {
        let a = VecSource::from_dense("color", &[s(0.9), s(0.8), s(0.3), s(0.6), s(0.1), s(0.5)]);
        let b = VecSource::from_dense("shape", &[s(0.2), s(0.7), s(0.9), s(0.5), s(0.8), s(0.4)]);
        (a, b)
    }

    #[test]
    fn agrees_with_naive_on_fixture() {
        for k in 1..=6 {
            let (mut a, mut b) = fixture();
            let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
            let fa = FaginsAlgorithm.top_k(&mut srcs, &Min, k).unwrap();

            let (mut a2, mut b2) = fixture();
            let mut srcs2: Vec<&mut dyn GradedSource> = vec![&mut a2, &mut b2];
            let naive = Naive.top_k(&mut srcs2, &Min, k).unwrap();
            assert_eq!(fa.answers, naive.answers, "k={k}");
        }
    }

    #[test]
    fn agrees_with_naive_under_product() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let fa = FaginsAlgorithm.top_k(&mut srcs, &Product, 3).unwrap();
        let (mut a2, mut b2) = fixture();
        let mut srcs2: Vec<&mut dyn GradedSource> = vec![&mut a2, &mut b2];
        let naive = Naive.top_k(&mut srcs2, &Product, 3).unwrap();
        assert_eq!(fa.answers, naive.answers);
    }

    #[test]
    fn self_reported_stats_match_observed() {
        let (a, b) = fixture();
        let mut ca = CountingSource::new(a);
        let mut cb = CountingSource::new(b);
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut ca, &mut cb];
        let r = FaginsAlgorithm.top_k(&mut srcs, &Min, 2).unwrap();
        assert_eq!(r.stats.sorted, ca.sorted_accesses() + cb.sorted_accesses());
        assert_eq!(r.stats.random, ca.random_accesses() + cb.random_accesses());
    }

    /// A list that logs what each access kind asked of it.
    struct Recording {
        inner: VecSource,
        /// Oids whose grade the list has revealed, by either kind.
        revealed: Vec<Oid>,
        /// Probes for a grade the list had already revealed.
        repeated: usize,
        scalar_probes: usize,
        batch_lengths: Vec<usize>,
    }

    impl Recording {
        fn new(inner: VecSource) -> Recording {
            Recording {
                inner,
                revealed: Vec::new(),
                repeated: 0,
                scalar_probes: 0,
                batch_lengths: Vec::new(),
            }
        }
    }

    impl Subsystem for Recording {
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            let items = Subsystem::sorted_batch(&mut self.inner, n)?;
            self.revealed.extend(items.iter().map(|item| item.id));
            Ok(items)
        }
        fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
            self.scalar_probes += 1;
            Subsystem::random_access(&mut self.inner, oid)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            self.batch_lengths.push(oids.len());
            self.repeated += oids.iter().filter(|o| self.revealed.contains(o)).count();
            self.revealed.extend_from_slice(oids);
            Subsystem::random_batch(&mut self.inner, oids)
        }
        fn rewind(&mut self) {
            Subsystem::rewind(&mut self.inner);
        }
        fn info(&self) -> crate::source::SourceInfo {
            Subsystem::info(&self.inner)
        }
    }

    fn recorded(m: usize) -> Vec<Recording> {
        crate::workload::independent_uniform(400, m, 7)
            .into_iter()
            .map(Recording::new)
            .collect()
    }

    #[test]
    fn phase_two_is_one_batch_per_list() {
        let mut lists = recorded(3);
        let mut srcs: Vec<&mut dyn GradedSource> = lists
            .iter_mut()
            .map(|l| l as &mut dyn GradedSource)
            .collect();
        let result = FaginsAlgorithm.top_k(&mut srcs, &Min, 5).unwrap();
        let mut batched = 0;
        for list in &lists {
            assert_eq!(list.scalar_probes, 0);
            assert!(list.batch_lengths.len() <= 1, "{:?}", list.batch_lengths);
            assert_eq!(list.repeated, 0);
            batched += list.batch_lengths.iter().sum::<usize>();
        }
        assert!(batched > 0, "the fixture leaves holes to probe");
        assert_eq!(result.stats.random, batched as u64);
    }

    #[test]
    fn resumed_session_never_probes_a_filled_slot() {
        let mut lists = recorded(3);
        let srcs: Vec<&mut dyn Subsystem> =
            lists.iter_mut().map(|l| l as &mut dyn Subsystem).collect();
        let mut session = FaSession::new(srcs, &Min).unwrap();
        session.next_k(5).unwrap();
        let first = session.stats().random;
        session.next_k(5).unwrap();
        let stats = session.stats();
        assert!(stats.random > first, "the second batch probes new objects");
        let mut batched = 0;
        for list in &lists {
            assert_eq!(list.scalar_probes, 0);
            assert!(list.batch_lengths.len() <= 2, "{:?}", list.batch_lengths);
            assert_eq!(list.repeated, 0, "a grade was asked for twice");
            batched += list.batch_lengths.iter().sum::<usize>();
        }
        assert_eq!(stats.random, batched as u64);
    }

    #[test]
    fn costs_less_than_naive_on_large_independent_lists() {
        // Deterministic pseudo-random grades; N = 400.
        let n = 400u64;
        let g1: Vec<Score> = (0..n)
            .map(|i| s((i * 7919 % 1000) as f64 / 1000.0))
            .collect();
        let g2: Vec<Score> = (0..n)
            .map(|i| s((i * 104729 % 1000) as f64 / 1000.0))
            .collect();
        let mut a = VecSource::from_dense("a", &g1);
        let mut b = VecSource::from_dense("b", &g2);
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let fa = FaginsAlgorithm.top_k(&mut srcs, &Min, 5).unwrap();
        assert!(
            fa.stats.database_access_cost() < 2 * n,
            "FA cost {} should beat naive {}",
            fa.stats,
            2 * n
        );
    }

    #[test]
    fn validates_arguments() {
        let (mut a, _) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a];
        assert_eq!(
            FaginsAlgorithm.top_k(&mut srcs, &Min, 0),
            Err(AlgoError::ZeroK)
        );
        let mut none: Vec<&mut dyn GradedSource> = vec![];
        assert_eq!(
            FaginsAlgorithm.top_k(&mut none, &Min, 3),
            Err(AlgoError::NoSources)
        );
    }

    #[test]
    fn k_at_universe_size_degrades_to_full_scan_result() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = FaginsAlgorithm.top_k(&mut srcs, &Min, 6).unwrap();
        assert_eq!(r.answers.len(), 6);
        // Grades still exact and descending.
        for w in r.answers.windows(2) {
            assert!(w[0].grade >= w[1].grade);
        }
    }

    #[test]
    fn k_beyond_universe_returns_all() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = FaginsAlgorithm.top_k(&mut srcs, &Min, 100).unwrap();
        assert_eq!(r.answers.len(), 6);
    }

    #[test]
    fn session_batches_match_one_shot_ordering() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let all = FaginsAlgorithm.top_k(&mut srcs, &Min, 6).unwrap();

        let (mut a2, mut b2) = fixture();
        let srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
        let mut session = FaSession::new(srcs2, &Min).unwrap();
        let first = session.next_k(2).unwrap();
        let second = session.next_k(2).unwrap();
        let third = session.next_k(2).unwrap();
        let stitched: Vec<_> = first
            .answers
            .into_iter()
            .chain(second.answers)
            .chain(third.answers)
            .collect();
        assert_eq!(stitched, all.answers);
    }

    #[test]
    fn session_resume_is_cheaper_than_restart() {
        let n = 400u64;
        let g1: Vec<Score> = (0..n)
            .map(|i| s((i * 7919 % 1000) as f64 / 1000.0))
            .collect();
        let g2: Vec<Score> = (0..n)
            .map(|i| s((i * 104729 % 1000) as f64 / 1000.0))
            .collect();

        // Session: 5 then 5 more.
        let mut a = VecSource::from_dense("a", &g1);
        let mut b = VecSource::from_dense("b", &g2);
        let srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let mut session = FaSession::new(srcs, &Min).unwrap();
        session.next_k(5).unwrap();
        session.next_k(5).unwrap();
        let resumed_cost = session.stats().database_access_cost();

        // Two independent runs: top-5 and top-10 from scratch.
        let mut a2 = VecSource::from_dense("a", &g1);
        let mut b2 = VecSource::from_dense("b", &g2);
        let mut srcs2: Vec<&mut dyn GradedSource> = vec![&mut a2, &mut b2];
        let run5 = FaginsAlgorithm.top_k(&mut srcs2, &Min, 5).unwrap();
        let mut a3 = VecSource::from_dense("a", &g1);
        let mut b3 = VecSource::from_dense("b", &g2);
        let mut srcs3: Vec<&mut dyn GradedSource> = vec![&mut a3, &mut b3];
        let run10 = FaginsAlgorithm.top_k(&mut srcs3, &Min, 10).unwrap();
        let restart_cost = run5.stats.database_access_cost() + run10.stats.database_access_cost();
        assert!(
            resumed_cost < restart_cost,
            "resumed {resumed_cost} vs restart {restart_cost}"
        );
    }

    #[test]
    fn owned_session_matches_borrowing_session() {
        let (a, b) = fixture();
        let boxed: Vec<Box<dyn Subsystem>> = vec![Box::new(a), Box::new(b)];
        let mut owned = OwnedFaSession::new(boxed, Box::new(Min)).unwrap();
        let batch1 = owned.next_k(2).unwrap();
        let batch2 = owned.next_k(2).unwrap();
        assert_eq!(owned.emitted(), 4);

        let (mut a2, mut b2) = fixture();
        let refs: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
        let mut borrowed = FaSession::new(refs, &Min).unwrap();
        assert_eq!(batch1.answers, borrowed.next_k(2).unwrap().answers);
        assert_eq!(batch2.answers, borrowed.next_k(2).unwrap().answers);
        assert_eq!(owned.stats(), borrowed.stats());
    }

    #[test]
    fn session_rejects_zero_k() {
        let (mut a, mut b) = fixture();
        let srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let mut session = FaSession::new(srcs, &Min).unwrap();
        assert_eq!(session.next_k(0), Err(AlgoError::ZeroK));
    }
}
