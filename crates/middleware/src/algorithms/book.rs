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
    index: HashMap<Oid, usize>,
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
        let row = *self.index.entry(oid).or_insert(next);
        if row == next {
            let missing = self.m;
            self.rows.push(Row { oid, missing });
            self.slots.resize(self.slots.len() + self.m, None);
        }
        (row, row == next)
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

/// Rows a new table has room for. Three containers growing from
/// nothing cost ≈ 15 allocator calls before the 64th object, which is
/// most of what a short query does: without it perfbench's `ta_min`
/// floor read 7–11 % above the per-algorithm maps' (133 → 145 µs) and
/// `max_merge`'s 35 % (3.3 → 4.4 µs); with it, level and 12 % below.
const FIRST_ROWS: usize = 64;

/// One run's table and frontier.
pub(crate) struct Book {
    pub(crate) table: Table,
    pub(crate) frontier: Frontier,
}

impl Book {
    /// Rewinds the sources and starts from nothing seen.
    pub(crate) fn open(sources: &mut [&mut dyn GradedSource]) -> Book {
        for source in sources.iter_mut() {
            source.rewind();
        }
        let m = sources.len();
        Book {
            table: Table {
                m,
                index: HashMap::with_capacity(FIRST_ROWS),
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
