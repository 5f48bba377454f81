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
//! calls to a subsystem a 256th of it.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{finalize, validate, AlgoError, TopKAlgorithm, TopKResult};
use crate::source::Subsystem;

/// The full-scan baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl TopKAlgorithm for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        validate(sources, scoring, k)?;
        let mut book = Book::open(sources);
        for i in 0..sources.len() {
            book.drain(i, sources)?;
        }
        let table = &mut book.table;
        let combined = (0..table.len())
            // Objects a sparse source never streams keep grade 0 in
            // that slot.
            .map(|row| {
                ScoredObject::new(table.oid(row), table.bound(row, |_| Score::ZERO, scoring))
            })
            .collect();
        Ok(finalize(combined, k, book.frontier.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CountingSource, Oid, SourceInfo, VecSource};
    use crate::source::{GradedSource, SourceError};
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::tnorms::Min;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    #[test]
    fn full_scan_finds_the_exact_top_k() {
        let mut a = VecSource::from_dense("color", &[s(0.9), s(0.2), s(0.6), s(0.4)]);
        let mut b = VecSource::from_dense("shape", &[s(0.1), s(0.8), s(0.7), s(0.5)]);
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = Naive.top_k(&mut sources, &Min, 2).unwrap();
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
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b, &mut c];
        let r = Naive.top_k(&mut sources, &Min, 5).unwrap();
        assert_eq!(r.stats.sorted, 3 * n as u64);
        assert_eq!(r.stats.random, 0);
    }

    #[test]
    fn rejects_zero_k_and_empty_sources() {
        let mut a = VecSource::from_dense("a", &[s(0.5)]);
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut a];
        assert_eq!(Naive.top_k(&mut sources, &Min, 0), Err(AlgoError::ZeroK));
        let mut none: Vec<&mut dyn GradedSource> = vec![];
        assert_eq!(Naive.top_k(&mut none, &Min, 1), Err(AlgoError::NoSources));
    }

    #[test]
    fn k_larger_than_universe_returns_everything() {
        let mut a = VecSource::from_dense("a", &[s(0.5), s(0.7)]);
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut a];
        let r = Naive.top_k(&mut sources, &Min, 10).unwrap();
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn sparse_sources_grade_missing_objects_zero() {
        let mut a = VecSource::new("a", vec![(0, s(0.9)), (1, s(0.8))]);
        let mut b = VecSource::new("b", vec![(0, s(0.7))]); // knows nothing of 1
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = Naive.top_k(&mut sources, &Min, 2).unwrap();
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
            let mut sources: Vec<&mut dyn GradedSource> = counted
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            let r = Naive.top_k(&mut sources, &Min, 5).unwrap();
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
            let mut sources: Vec<&mut dyn GradedSource> = recorded
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            assert_eq!(Naive.top_k(&mut sources, &Min, 5).unwrap(), r, "n = {n}");
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
