//! The naive ("obvious") algorithm of §4.1.
//!
//! "Have the subsystem dealing with color output explicitly the graded
//! set consisting of all pairs … for every object" — i.e. drain every
//! list completely under sorted access, compute every object's overall
//! grade, and keep the best `k`. Its database access cost is `m·N`
//! (the paper quotes `2N` for the two-conjunct example), which
//! Theorem 4.1 shows A₀ beats by a polynomial factor.
//!
//! The scan is the one strategy that reads every list to its end, so
//! it asks for each list a batch at a time (`Book::drain`) where the
//! others pull one entry per call: the charge is the same `m·N`, the
//! calls to a subsystem a 256th of it. A drain lays the dense universe
//! out by oid, so the lists meet in the table without a lookup, and
//! the scan grades the rows in one pass that keeps only the best `k`.

use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{AlgoError, Best, TopKResult};
use crate::source::Subsystem;

#[doc(hidden)]
pub use crate::frozen::Naive;

/// Drains every list into the book, grades every row no earlier batch
/// `returned` (a flag per row; rows past its end were not returned),
/// and keeps the best `k`. On a book that is drained already it reads
/// nothing.
pub(crate) fn scan(
    book: &mut Book,
    sources: &mut [&mut dyn Subsystem],
    scoring: &dyn ScoringFunction,
    returned: &[bool],
    k: usize,
) -> Result<TopKResult, AlgoError> {
    for i in 0..sources.len() {
        book.drain(i, sources)?;
    }
    let mut best = Best::new(k);
    // Objects a sparse source never streams keep grade 0 in that slot.
    book.table.each_lower(scoring, |row, object| {
        if !returned.get(row).is_some_and(|&out| out) {
            best.offer(object);
        }
    });
    Ok(best.finish(book.frontier.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Cursor;
    use crate::planner::PhysicalPlan;
    use crate::source::{CountingSource, Oid, SourceError, SourceInfo, VecSource};
    use crate::workload::independent_uniform;
    use fmdb_core::score::{Score, ScoredObject};
    use fmdb_core::scoring::tnorms::Min;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    #[test]
    fn full_scan_finds_the_exact_top_k() {
        let mut a = VecSource::from_dense("color", &[s(0.9), s(0.2), s(0.6), s(0.4)]);
        let mut b = VecSource::from_dense("shape", &[s(0.1), s(0.8), s(0.7), s(0.5)]);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 2).unwrap();
        // min grades: [0.1, 0.2, 0.6, 0.4] → top-2 = oid 2 (0.6), oid 3 (0.4)
        assert_eq!(r.answers.len(), 2);
        assert_eq!(r.answers[0].id, 2);
        assert_eq!(r.answers[0].grade, s(0.6));
        assert_eq!(r.answers[1].id, 3);
        assert_eq!(r.answers[1].grade, s(0.4));
    }

    #[test]
    fn cost_is_m_times_n() {
        let n = 50;
        let grades: Vec<Score> = (0..n).map(|i| s(i as f64 / n as f64)).collect();
        let mut a = VecSource::from_dense("a", &grades);
        let mut b = VecSource::from_dense("b", &grades);
        let mut c = VecSource::from_dense("c", &grades);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b, &mut c];
        let r = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 5).unwrap();
        assert_eq!(r.stats.sorted, 3 * n as u64);
        assert_eq!(r.stats.random, 0);
    }

    #[test]
    fn rejects_zero_k_and_empty_sources() {
        let mut a = VecSource::from_dense("a", &[s(0.5)]);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut a];
        assert_eq!(
            Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 0),
            Err(AlgoError::ZeroK)
        );
        let mut none: Vec<&mut dyn Subsystem> = vec![];
        assert_eq!(
            Cursor::once(PhysicalPlan::FullScan, 0.0, &mut none, &Min, 1),
            Err(AlgoError::NoSources)
        );
    }

    #[test]
    fn k_larger_than_universe_returns_everything() {
        let mut a = VecSource::from_dense("a", &[s(0.5), s(0.7)]);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut a];
        let r = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 10).unwrap();
        assert_eq!(r.answers.len(), 2);
    }

    /// `1 − min`: falls as an argument rises.
    struct Nand;

    impl ScoringFunction for Nand {
        fn name(&self) -> String {
            "nand".into()
        }
        fn combine(&self, scores: &[Score]) -> Score {
            Min.combine(scores).negate()
        }
        fn is_strict(&self) -> bool {
            false
        }
        fn is_monotone(&self) -> bool {
            false
        }
    }

    #[test]
    fn any_function_is_graded_over_every_object() {
        for seed in 0..8 {
            let mut lists = independent_uniform(60, 3, seed);
            let mut sources: Vec<&mut dyn Subsystem> =
                lists.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
            let got = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Nand, 7).unwrap();
            let mut want: Vec<ScoredObject<Oid>> = (0..60)
                .map(|oid| {
                    let grades: Vec<Score> = lists
                        .iter_mut()
                        .map(|l| Subsystem::random_access(l, oid).unwrap())
                        .collect();
                    ScoredObject::new(oid, Nand.combine(&grades))
                })
                .collect();
            want.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
            want.truncate(7);
            assert_eq!(got.answers, want, "seed {seed}");
        }
    }

    #[test]
    fn sparse_sources_grade_missing_objects_zero() {
        let mut a = VecSource::new("a", vec![(0, s(0.9)), (1, s(0.8))]);
        let mut b = VecSource::new("b", vec![(0, s(0.7))]); // knows nothing of 1
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 2).unwrap();
        assert_eq!(r.answers[0], ScoredObject::new(0, s(0.7)));
        assert_eq!(r.answers[1], ScoredObject::new(1, Score::ZERO));
    }

    /// A list that records which sorted-access entry point is called.
    struct Recording {
        inner: VecSource,
        nexts: usize,
        batches: usize,
    }

    impl Subsystem for Recording {
        fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
            self.nexts += 1;
            Subsystem::sorted_next(&mut self.inner)
        }
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            self.batches += 1;
            Subsystem::sorted_batch(&mut self.inner, n)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            Subsystem::random_batch(&mut self.inner, oids)
        }
        fn rewind(&mut self) {
            Subsystem::rewind(&mut self.inner);
        }
        fn info(&self) -> SourceInfo {
            Subsystem::info(&self.inner)
        }
    }

    #[test]
    fn the_scan_charges_m_n_in_a_call_per_256_entries() {
        for n in [0usize, 1, 255, 256, 257, 1_000] {
            let mut counted: Vec<CountingSource<VecSource>> = independent_uniform(n, 3, 9)
                .into_iter()
                .map(CountingSource::new)
                .collect();
            let mut sources: Vec<&mut dyn Subsystem> = counted
                .iter_mut()
                .map(|s| s as &mut dyn Subsystem)
                .collect();
            let r = Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 5).unwrap();
            assert_eq!((r.stats.sorted, r.stats.random), (3 * n as u64, 0));
            assert!(counted.iter().all(|s| s.sorted_accesses() == n as u64));

            let mut recorded: Vec<Recording> = independent_uniform(n, 3, 9)
                .into_iter()
                .map(|inner| Recording {
                    inner,
                    nexts: 0,
                    batches: 0,
                })
                .collect();
            let mut sources: Vec<&mut dyn Subsystem> = recorded
                .iter_mut()
                .map(|s| s as &mut dyn Subsystem)
                .collect();
            assert_eq!(
                Cursor::once(PhysicalPlan::FullScan, 0.0, &mut sources, &Min, 5).unwrap(),
                r,
                "n = {n}"
            );
            for list in &recorded {
                // A full batch may end the list: one more call finds it empty.
                assert_eq!(
                    (list.nexts, list.batches),
                    (0, (n + 1).div_ceil(256)),
                    "n = {n}"
                );
            }
        }
    }
}
