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
//! After finding the top k answers, A₀ can "continue where we left
//! off" to find the next k: [`crate::algorithms::Cursor`] keeps
//! its state between batches, as it keeps every plan's. A one-shot run
//! halts phase 1 at `|L| ≥ k` — the correctness argument above — and
//! is the cursor's first batch.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::AlgoError;
use crate::source::{Oid, Subsystem};

#[doc(hidden)]
pub use crate::frozen::FaginsAlgorithm;

/// What a cursor running A₀ and
/// [`crate::algorithms::pruned_fa::PrunedFa`] keep: the book and `|L|`.
pub(crate) struct FaState {
    pub(crate) book: Book,
    /// Objects every list has output under *sorted* access (the set L).
    matches: usize,
}

impl FaState {
    /// Rewinds the sources and starts from nothing seen.
    pub(crate) fn new(sources: &mut [&mut dyn Subsystem]) -> FaState {
        FaState {
            book: Book::open(sources),
            matches: 0,
        }
    }

    /// Phase 1: round-robin sorted access until `|L| ≥ target` or all
    /// lists are drained. A row joins L when *sorted* access reveals
    /// its last unknown field: one a probe of an earlier batch filled
    /// never counts, so a resumed run streams on as if it had not
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
    /// seen object, then combine its grades — one answer per row, in
    /// row order.
    ///
    /// A₀ probes *every* hole whatever the other probes return, so the
    /// order is free: phase 2 is one [`Subsystem::random_batch`] per
    /// list — the seen objects that list has not revealed — charged at
    /// the batch's length, and a source that can serve a batch better
    /// than probe by probe (a paged store reads each page once) does.
    /// In a resumed run the holes an earlier batch probed are filled.
    pub(crate) fn resolve_all(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Cursor, TopKResult};
    use crate::planner::PhysicalPlan;
    use crate::source::{CountingSource, SourceError, VecSource};
    use fmdb_core::scoring::tnorms::{Min, Product};

    fn fa(
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        Cursor::once(PhysicalPlan::Fa, 0.0, sources, scoring, k)
    }

    fn naive(
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        Cursor::once(PhysicalPlan::FullScan, 0.0, sources, scoring, k)
    }

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
            let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
            let fa = fa(&mut srcs, &Min, k).unwrap();

            let (mut a2, mut b2) = fixture();
            let mut srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
            let naive = naive(&mut srcs2, &Min, k).unwrap();
            assert_eq!(fa.answers, naive.answers, "k={k}");
        }
    }

    #[test]
    fn agrees_with_naive_under_product() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let fa = fa(&mut srcs, &Product, 3).unwrap();
        let (mut a2, mut b2) = fixture();
        let mut srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
        let naive = naive(&mut srcs2, &Product, 3).unwrap();
        assert_eq!(fa.answers, naive.answers);
    }

    #[test]
    fn self_reported_stats_match_observed() {
        let (a, b) = fixture();
        let mut ca = CountingSource::new(a);
        let mut cb = CountingSource::new(b);
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut ca, &mut cb];
        let r = fa(&mut srcs, &Min, 2).unwrap();
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
        let mut srcs: Vec<&mut dyn Subsystem> =
            lists.iter_mut().map(|l| l as &mut dyn Subsystem).collect();
        let result = fa(&mut srcs, &Min, 5).unwrap();
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

    /// A₀ resumed through a cursor: the second batch probes only what
    /// the first left unseen, one batch per list each time.
    #[test]
    fn a_resumed_cursor_never_probes_a_filled_slot() {
        let mut lists = recorded(3);
        let mut srcs: Vec<&mut dyn Subsystem> =
            lists.iter_mut().map(|l| l as &mut dyn Subsystem).collect();
        let mut cursor = Cursor::new(PhysicalPlan::Fa, 0.0).unwrap();
        let first = cursor.next_k(&mut srcs, &Min, 5).unwrap().stats.random;
        let stats = cursor.next_k(&mut srcs, &Min, 5).unwrap().stats;
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
    fn cursor_batches_match_one_shot_ordering() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let all = fa(&mut srcs, &Min, 6).unwrap();

        let (mut a2, mut b2) = fixture();
        let mut srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
        let mut cursor = Cursor::new(PhysicalPlan::Fa, 0.0).unwrap();
        let mut stitched = Vec::new();
        for _ in 0..3 {
            stitched.extend(cursor.next_k(&mut srcs2, &Min, 2).unwrap().answers);
        }
        assert_eq!(stitched, all.answers);
        assert_eq!(cursor.emitted(), 6);
    }

    #[test]
    fn resuming_is_cheaper_than_restarting() {
        let n = 400u64;
        let g1: Vec<Score> = (0..n)
            .map(|i| s((i * 7919 % 1000) as f64 / 1000.0))
            .collect();
        let g2: Vec<Score> = (0..n)
            .map(|i| s((i * 104729 % 1000) as f64 / 1000.0))
            .collect();

        // A cursor: 5 then 5 more.
        let mut a = VecSource::from_dense("a", &g1);
        let mut b = VecSource::from_dense("b", &g2);
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let mut cursor = Cursor::new(PhysicalPlan::Fa, 0.0).unwrap();
        cursor.next_k(&mut srcs, &Min, 5).unwrap();
        let resumed_cost = cursor
            .next_k(&mut srcs, &Min, 5)
            .unwrap()
            .stats
            .database_access_cost();

        // Two independent runs: top-5 and top-10 from scratch.
        let mut a2 = VecSource::from_dense("a", &g1);
        let mut b2 = VecSource::from_dense("b", &g2);
        let mut srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
        let run5 = fa(&mut srcs2, &Min, 5).unwrap();
        let mut a3 = VecSource::from_dense("a", &g1);
        let mut b3 = VecSource::from_dense("b", &g2);
        let mut srcs3: Vec<&mut dyn Subsystem> = vec![&mut a3, &mut b3];
        let run10 = fa(&mut srcs3, &Min, 10).unwrap();
        let restart_cost = run5.stats.database_access_cost() + run10.stats.database_access_cost();
        assert!(
            resumed_cost < restart_cost,
            "resumed {resumed_cost} vs restart {restart_cost}"
        );
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
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let fa = fa(&mut srcs, &Min, 5).unwrap();
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
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a];
        assert_eq!(fa(&mut srcs, &Min, 0), Err(AlgoError::ZeroK));
        let mut none: Vec<&mut dyn Subsystem> = vec![];
        assert_eq!(fa(&mut none, &Min, 3), Err(AlgoError::NoSources));
    }

    #[test]
    fn k_at_universe_size_degrades_to_full_scan_result() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = fa(&mut srcs, &Min, 6).unwrap();
        assert_eq!(r.answers.len(), 6);
        // Grades still exact and descending.
        for w in r.answers.windows(2) {
            assert!(w[0].grade >= w[1].grade);
        }
    }

    #[test]
    fn k_beyond_universe_returns_all() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = fa(&mut srcs, &Min, 100).unwrap();
        assert_eq!(r.answers.len(), 6);
    }
}
