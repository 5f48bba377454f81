//! The book every strategy of §4.1 keeps: which list has shown which
//! grade of which object, and how far down each list has been read.
//!
//! A₀, its pruned variant, the naive scan, the max merge, the filter
//! simulation and the threshold kernel differ in *when* they access a
//! list and in what they conclude; what they write down is the same. A
//! [`Table`] holds, per seen object, the `m` fields revealed so far; a
//! [`Frontier`] holds, per list, its bottom grade and whether it is
//! drained, plus the charges. [`Book::pull`] is the only sorted access
//! in this directory and [`Book::open`] the only rewind, so a change to
//! the sorted step — a fallible source, a list without sorted access, a
//! per-source trace — is one edit.
//!
//! Objects are numbered through an array: every list a repository,
//! `from_dense` or the store builds grades the dense universe `0..N`
//! (DESIGN §17), so `oid → row` is one load for each oid below the
//! query's largest `universe_size` (capped at [`DENSE_OIDS`]). Any
//! other oid — a sparse list's, a shard's, one past what its source
//! reports — is numbered through a map.

use std::collections::HashMap;

use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;

use crate::source::{GradedSource, Oid};
use crate::stats::AccessStats;

/// The fields revealed so far, one row of `m` slots per seen object.
///
/// Rows are numbered in first-sighting order, so a walk over `0..len()`
/// repeats from run to run, and all rows share one allocation.
pub(crate) struct Table {
    m: usize,
    /// `row + 1` of each seen oid below `dense.len()`; 0 while unseen.
    dense: Vec<u32>,
    /// The row of every other seen oid.
    sparse: HashMap<Oid, usize>,
    rows: Vec<Row>,
    /// `Some(grade)` once list `j` has revealed it, by either access
    /// kind.
    slots: Vec<Option<Score>>,
    scratch: Vec<Score>,
}

struct Row {
    oid: Oid,
    /// Fields no access has revealed yet.
    missing: usize,
}

impl Table {
    /// The object's row and whether this is its first sighting.
    fn number(&mut self, oid: Oid) -> (usize, bool) {
        let next = self.rows.len();
        let cell = usize::try_from(oid)
            .ok()
            .and_then(|i| self.dense.get_mut(i));
        let row = match (cell, u32::try_from(next + 1)) {
            (Some(cell), _) if *cell != 0 => *cell as usize - 1,
            (Some(cell), Ok(tag)) => {
                *cell = tag;
                next
            }
            // Past the array, or more rows than a cell can name.
            _ => *self.sparse.entry(oid).or_insert(next),
        };
        if row == next {
            let missing = self.m;
            self.rows.push(Row { oid, missing });
            self.slots.resize(self.slots.len() + self.m, None);
        }
        (row, row == next)
    }

    /// The row of an object seen so far.
    pub(crate) fn row(&self, oid: Oid) -> Option<usize> {
        let cell = usize::try_from(oid).ok().and_then(|i| self.dense.get(i));
        match cell {
            Some(&tag) if tag != 0 => Some(tag as usize - 1),
            _ => self.sparse.get(&oid).copied(),
        }
    }

    /// Records list `j`'s grade for `row`; false if it was known.
    pub(crate) fn reveal(&mut self, row: usize, j: usize, grade: Score) -> bool {
        let slot = &mut self.slots[row * self.m + j];
        let news = slot.is_none();
        if news {
            *slot = Some(grade);
            self.rows[row].missing -= 1;
        }
        news
    }

    /// Objects seen so far.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn oid(&self, row: usize) -> Oid {
        self.rows[row].oid
    }

    /// Fields of `row` no access has revealed yet.
    pub(crate) fn missing(&self, row: usize) -> usize {
        self.rows[row].missing
    }

    pub(crate) fn fields(&self, row: usize) -> &[Option<Score>] {
        &self.slots[row * self.m..(row + 1) * self.m]
    }

    /// `t` over the row's fields, an unknown field `j` read as
    /// `fill(j)`: 0 for a lower bound (and for a list that never
    /// streams the object), the list's bottom for an upper bound.
    pub(crate) fn bound(
        &mut self,
        row: usize,
        fill: impl Fn(usize) -> Score,
        scoring: &dyn ScoringFunction,
    ) -> Score {
        let fields = &self.slots[row * self.m..(row + 1) * self.m];
        self.scratch.clear();
        self.scratch.extend(
            fields
                .iter()
                .enumerate()
                .map(|(j, g)| g.unwrap_or_else(|| fill(j))),
        );
        scoring.combine(&self.scratch)
    }
}

/// How far sorted access has come on each list, and what it has cost.
pub(crate) struct Frontier {
    /// The last grade each list streamed: an upper bound on every grade
    /// it has not revealed yet (1 before the first, 0 once drained).
    pub(crate) bottoms: Vec<Score>,
    pub(crate) exhausted: Vec<bool>,
    pub(crate) stats: AccessStats,
}

/// Rows a new table has room for. The row and slot vectors growing from
/// nothing cost ≈ 10 allocator calls before the 64th object, which is
/// most of what a short query does: without the reservation perfbench's
/// `ta_min` floor read 7–11 % above what the per-algorithm tables the
/// book replaced cost (133 → 145 µs), and `max_merge`'s 35 % (3.3 →
/// 4.4 µs); with it, level and 12 % below.
const FIRST_ROWS: usize = 64;

/// The most oids the array numbers: 4 MiB of index, so a source that
/// reports a huge universe cannot size it. Larger oids take the map.
const DENSE_OIDS: usize = 1 << 20;

/// One run's table and frontier.
pub(crate) struct Book {
    pub(crate) table: Table,
    pub(crate) frontier: Frontier,
}

impl Book {
    /// Rewinds the sources and starts from nothing seen.
    pub(crate) fn open(sources: &mut [&mut dyn GradedSource]) -> Book {
        let mut universe = 0;
        for source in sources.iter_mut() {
            source.rewind();
            universe = universe.max(source.info().universe_size);
        }
        let m = sources.len();
        Book {
            table: Table {
                m,
                dense: vec![0; universe.min(DENSE_OIDS)],
                sparse: HashMap::new(),
                rows: Vec::with_capacity(FIRST_ROWS),
                slots: Vec::with_capacity(FIRST_ROWS * m),
                scratch: Vec::with_capacity(m),
            },
            frontier: Frontier {
                bottoms: vec![Score::ONE; m],
                exhausted: vec![false; m],
                stats: AccessStats::ZERO,
            },
        }
    }

    /// One sorted access on list `i`: the streamed object's row,
    /// whether this is its first sighting, whether the grade is news
    /// (no earlier access had revealed it), and the grade. `None` once
    /// the list is drained — a drained list is not asked again.
    pub(crate) fn pull(
        &mut self,
        i: usize,
        sources: &mut [&mut dyn GradedSource],
    ) -> Option<(usize, bool, bool, Score)> {
        let frontier = &mut self.frontier;
        if frontier.exhausted[i] {
            return None;
        }
        let Some(so) = sources[i].sorted_next() else {
            frontier.exhausted[i] = true;
            // A drained list bounds all unseen objects by 0.
            frontier.bottoms[i] = Score::ZERO;
            return None;
        };
        frontier.stats.sorted += 1;
        frontier.bottoms[i] = so.grade;
        let (row, first) = self.table.number(so.id);
        Some((row, first, self.table.reveal(row, i, so.grade), so.grade))
    }

    /// The row's upper bound: an unknown field can be no higher than
    /// its list's bottom.
    pub(crate) fn upper(&mut self, row: usize, scoring: &dyn ScoringFunction) -> Score {
        let Book { table, frontier } = self;
        table.bound(row, |j| frontier.bottoms[j], scoring)
    }

    /// One random access: list `j`'s grade of `row`, revealed.
    pub(crate) fn probe(&mut self, row: usize, j: usize, sources: &mut [&mut dyn GradedSource]) {
        let grade = sources[j].random_access(self.table.oid(row));
        self.frontier.stats.random += 1;
        self.table.reveal(row, j, grade);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::fa::FaginsAlgorithm;
    use crate::algorithms::naive::Naive;
    use crate::algorithms::nra::NraLowerBound;
    use crate::algorithms::ta::ThresholdAlgorithm;
    use crate::algorithms::TopKAlgorithm;
    use crate::oracle::verify_top_k;
    use crate::source::{SourceInfo, VecSource};
    use crate::workload::independent_uniform;
    use fmdb_core::score::ScoredObject;
    use fmdb_core::scoring::tnorms::Min;

    #[test]
    fn oids_past_the_array_are_numbered_by_the_map() {
        let mut source = VecSource::from_dense("four", &[Score::ONE; 4]);
        let mut sources: Vec<&mut dyn GradedSource> = vec![&mut source];
        let mut table = Book::open(&mut sources).table;
        assert_eq!(table.dense.len(), 4);
        let rows: Vec<_> = [0, 2, 9, 1 << 40, 3, 9]
            .into_iter()
            .map(|oid| table.number(oid))
            .collect();
        assert_eq!(
            rows,
            [
                (0, true),
                (1, true),
                (2, true),
                (3, true),
                (4, true),
                (2, false)
            ]
        );
        assert_eq!(table.sparse.len(), 2, "9 and 2^40 are past the array");
        assert_eq!(table.row(1 << 40), Some(3));
        assert_eq!(table.row(1), None);
        assert_eq!(table.oid(2), 9);
    }

    /// A list that reports a universe no array could hold.
    struct Boastful(VecSource);

    impl GradedSource for Boastful {
        fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
            self.0.sorted_next()
        }
        fn random_access(&mut self, oid: Oid) -> Score {
            self.0.random_access(oid)
        }
        fn rewind(&mut self) {
            self.0.rewind();
        }
        fn info(&self) -> SourceInfo {
            SourceInfo::new("boastful", usize::MAX)
        }
    }

    #[test]
    fn a_huge_reported_universe_does_not_size_the_array() {
        // Under min, NRA certifies only fully revealed objects, so its
        // lower bounds are the grades the oracle checks.
        let algorithms: [&dyn TopKAlgorithm; 4] = [
            &Naive,
            &FaginsAlgorithm,
            &ThresholdAlgorithm,
            &NraLowerBound,
        ];
        for algo in algorithms {
            let mut truthful = independent_uniform(50, 3, 11);
            let mut refs: Vec<&mut dyn GradedSource> = truthful
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            let twin = algo.top_k(&mut refs, &Min, 5).unwrap();

            let mut boastful: Vec<Boastful> = independent_uniform(50, 3, 11)
                .into_iter()
                .map(Boastful)
                .collect();
            let mut refs: Vec<&mut dyn GradedSource> = boastful
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            assert_eq!(Book::open(&mut refs).table.dense.len(), DENSE_OIDS);
            let result = algo.top_k(&mut refs, &Min, 5).unwrap();
            assert_eq!(result, twin, "{}", algo.name());
            verify_top_k(&mut refs, &Min, &result.answers, 5)
                .unwrap_or_else(|v| panic!("{}: {v}", algo.name()));
        }
    }
}
