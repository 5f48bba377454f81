//! The book every strategy of §4.1 keeps: which list has shown which
//! grade of which object, and how far down each list has been read.
//!
//! A₀, its pruned variant, the naive scan, the max merge, the filter
//! simulation and the threshold kernel differ in *when* they access a
//! list and in what they conclude; what they write down is the same. A
//! [`Table`] holds, per seen object, the `m` fields revealed so far; a
//! [`Frontier`] holds, per list, its bottom grade and whether it is
//! drained, plus the charges. [`Book::pull`] (one entry) and
//! [`Book::drain`] (a list to its end, a batch at a time) are the only
//! sorted accesses in this directory; [`Book::open`] is the only
//! rewind. [`Book::probe`] is the random access every strategy but
//! A₀'s batched phase 2 makes. A failed access ends the run with
//! [`AlgoError::Source`], naming the list, so a strategy only passes it
//! on with `?`. What a book records stays true as a query asks for
//! more answers, so a cursor keeps its book between batches and every
//! batch resumes from it.
//!
//! Objects are numbered through an array: every list a repository,
//! `from_dense` or the store builds grades the dense universe `0..N`
//! (DESIGN §17), so `oid → row` is one load for each oid below the
//! query's largest `universe_size` (capped at [`DENSE_OIDS`]). Any
//! other oid — a sparse list's, one past what its source
//! reports — is numbered through a map.
//!
//! A drain lays its table out by oid instead ([`Table::place`]): the
//! objects of the dense universe are rows `0..N` themselves, and a
//! row's fields are `m` grade values, so a drained entry costs one
//! store and no lookup, and the lists meet in one compact array. Only
//! the naive scan drains, and only it reads such a table
//! ([`Table::each_lower`]).
//!
//! Each thread keeps one spare table. [`Book::open`] takes it, and a
//! dropped table goes back cleared, not freed: the array cells its run
//! set are zeroed (O(rows), not O(universe)), rows, slots, cells and
//! map are emptied, and every buffer keeps its capacity, while the
//! whole stays under [`SPARE_BYTES`]. Nothing a run wrote survives its
//! drop, so this is scratch space, not a cache; what it saves is the
//! allocator's trim of a freed book and the page faults that filled the
//! next one in again (≈ 880 a naive scan of 65 536 objects). A second
//! live book on the same thread — an open cursor's — allocates a table
//! of its own.

use std::cell::Cell;
use std::collections::HashMap;
use std::mem;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::AlgoError;
use crate::source::{Oid, Subsystem};
use crate::stats::AccessStats;

/// The fields revealed so far, one row of `m` slots per seen object.
///
/// Rows are numbered in first-sighting order, or — in a table a drain
/// laid out by oid — are the oids of the block and then, numbered, the
/// oids past it. Either way a walk over `0..len()` repeats from run to
/// run, and all rows share one allocation.
pub(crate) struct Table {
    m: usize,
    /// Whether a drain laid the table out by oid: its fields are then
    /// in `cells`, and `rows` and `slots` stay empty.
    by_oid: bool,
    /// In a table laid out by oid, the rows that are their own oids.
    block: usize,
    buf: Buffers,
}

struct Row {
    oid: Oid,
    /// Fields no access has revealed yet.
    missing: usize,
}

/// A table's buffers. On a thread's spare they are cleared: every
/// `dense` cell 0, no rows, slots or cells, an empty map, each with the
/// capacity its runs gave it.
#[derive(Default)]
struct Buffers {
    /// `row + 1` of each numbered oid below `dense.len()`; 0 otherwise.
    dense: Vec<u32>,
    /// The row of every other numbered oid.
    sparse: HashMap<Oid, usize>,
    rows: Vec<Row>,
    /// `Some(grade)` once list `j` has revealed it, by either access
    /// kind.
    slots: Vec<Option<Score>>,
    /// A table laid out by oid: `m` cells a row, each the revealed
    /// grade's value or [`UNREVEALED`].
    cells: Vec<f64>,
    /// A table laid out by oid: the oid of each row past the block.
    past: Vec<Oid>,
    scratch: Vec<Score>,
}

/// A cell no list has revealed: no grade is negative.
const UNREVEALED: f64 = -1.0;

impl Buffers {
    /// What the buffers hold allocated, in bytes (the map's control
    /// bytes aside).
    fn bytes(&self) -> usize {
        self.dense.capacity() * mem::size_of::<u32>()
            + self.sparse.capacity() * mem::size_of::<(Oid, usize)>()
            + self.rows.capacity() * mem::size_of::<Row>()
            + self.slots.capacity() * mem::size_of::<Option<Score>>()
            + self.cells.capacity() * mem::size_of::<f64>()
            + self.past.capacity() * mem::size_of::<Oid>()
            + self.scratch.capacity() * mem::size_of::<Score>()
    }

    /// Whether a thread may keep these buffers.
    fn fits(&self) -> bool {
        self.bytes() <= SPARE_BYTES
    }

    /// The row `oid` is numbered by, numbering it `next` if it has none:
    /// through the array below its length, else through the map.
    #[inline]
    fn number(&mut self, oid: Oid, next: usize) -> usize {
        let cell = usize::try_from(oid)
            .ok()
            .and_then(|i| self.dense.get_mut(i));
        match (cell, u32::try_from(next + 1)) {
            (Some(cell), _) if *cell != 0 => *cell as usize - 1,
            (Some(cell), Ok(tag)) => {
                *cell = tag;
                next
            }
            // Past the array, or more rows than a cell can name.
            _ => *self.sparse.entry(oid).or_insert(next),
        }
    }

    /// The row `oid` is numbered by, if any.
    fn numbered(&self, oid: Oid) -> Option<usize> {
        match usize::try_from(oid).ok().and_then(|i| self.dense.get(i)) {
            Some(&tag) if tag != 0 => Some(tag as usize - 1),
            _ => self.sparse.get(&oid).copied(),
        }
    }

    /// Empties every buffer and keeps its capacity. Only the `dense`
    /// cells a numbered row names were set, so zeroing costs O(rows).
    fn clear(&mut self) {
        let numbered = self.rows.iter().map(|row| row.oid);
        for oid in numbered.chain(self.past.iter().copied()) {
            if let Some(cell) = usize::try_from(oid)
                .ok()
                .and_then(|i| self.dense.get_mut(i))
            {
                *cell = 0;
            }
        }
        self.sparse.clear();
        self.rows.clear();
        self.slots.clear();
        self.cells.clear();
        self.past.clear();
        self.scratch.clear();
    }
}

// The crate's one per-thread site. The `#[expect]` that names it sits
// at the crate root, where clippy reads `disallowed_macros`' level, so
// inside this crate `tests::the_spare_is_the_crates_only_thread_local`
// is what keeps it the only one.
thread_local! {
    /// The calling thread's spare table, while no book holds it.
    static SPARE: Cell<Option<Buffers>> = const { Cell::new(None) };
}

impl Drop for Table {
    fn drop(&mut self) {
        let mut buf = mem::take(&mut self.buf);
        if !buf.fits() {
            return;
        }
        buf.clear();
        // The first table back is kept. Past the thread's end the slot
        // is gone, and the buffers are freed with the closure.
        SPARE
            .try_with(move |slot| {
                let kept = slot.take().unwrap_or(buf);
                slot.set(Some(kept));
            })
            .ok();
    }
}

impl Table {
    /// An empty table over `m` lists that numbers the oids below
    /// `dense` through the array, on the thread's spare buffers when
    /// they are free.
    fn new(m: usize, dense: usize) -> Table {
        let mut buf = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        // A spare's cells are all 0: only cells past its length are
        // written.
        buf.dense.resize(dense, 0);
        buf.rows.reserve(FIRST_ROWS);
        buf.slots.reserve(FIRST_ROWS * m);
        buf.scratch.reserve(m);
        Table {
            m,
            by_oid: false,
            block: 0,
            buf,
        }
    }

    /// The object's row and whether this is its first sighting.
    fn number(&mut self, oid: Oid) -> (usize, bool) {
        debug_assert!(!self.by_oid, "a table laid out by oid is not numbered");
        let next = self.buf.rows.len();
        let row = self.buf.number(oid, next);
        if row == next {
            let missing = self.m;
            self.buf.rows.push(Row { oid, missing });
            self.buf.slots.resize(self.buf.slots.len() + self.m, None);
        }
        (row, row == next)
    }

    /// Lays the table out by oid; a table with a numbered row cannot
    /// be.
    fn lay_out_by_oid(&mut self) {
        debug_assert!(
            self.buf.rows.is_empty(),
            "a numbered table is not laid out by oid"
        );
        self.by_oid = true;
    }

    /// Records list `j`'s grade of `oid` in a table laid out by oid. An
    /// oid below the query's dense universe is its own row while no row
    /// past the block exists: the block grows to it. Any other oid is
    /// numbered, as in first-sighting order, after the block, which
    /// then stops growing. A field already revealed keeps its grade, as
    /// under [`Table::reveal`].
    fn place(&mut self, oid: Oid, j: usize, grade: Score) {
        let m = self.m;
        let buf = &mut self.buf;
        let row = match usize::try_from(oid) {
            Ok(at) if at < self.block => at,
            Ok(at) if buf.past.is_empty() && at < buf.dense.len() => {
                buf.cells.resize((at + 1) * m, UNREVEALED);
                self.block = at + 1;
                at
            }
            _ => {
                let next = self.block + buf.past.len();
                let row = buf.number(oid, next);
                if row == next {
                    buf.past.push(oid);
                    buf.cells.resize((next + 1) * m, UNREVEALED);
                }
                row
            }
        };
        let cell = &mut buf.cells[row * m + j];
        if *cell < 0.0 {
            *cell = grade.value();
        }
    }

    /// The fields of a row of a table laid out by oid.
    fn cells(&self, row: usize) -> impl Iterator<Item = Option<Score>> + '_ {
        self.buf.cells[row * self.m..(row + 1) * self.m]
            .iter()
            .map(|&cell| Score::new(cell).ok())
    }

    /// Every object of a table laid out by oid, in row order, with `t`
    /// over its fields, an unknown one read as 0: `visit(row, object)`.
    /// A row of the block no list has shown is no object seen and is
    /// skipped.
    pub(crate) fn each_lower(
        &mut self,
        scoring: &dyn ScoringFunction,
        mut visit: impl FnMut(usize, ScoredObject<Oid>),
    ) {
        debug_assert!(self.by_oid, "only a table laid out by oid has cells");
        let Buffers {
            cells,
            past,
            scratch,
            ..
        } = &mut self.buf;
        let block = self.block;
        for (row, fields) in cells.chunks_exact(self.m).enumerate() {
            let mut shown = false;
            scratch.clear();
            // An unrevealed cell clamps to 0; a grade's value to itself.
            scratch.extend(fields.iter().map(|&cell| {
                shown |= cell >= 0.0;
                Score::clamped(cell)
            }));
            if shown {
                let oid = match row.checked_sub(block) {
                    None => row as Oid,
                    Some(past_row) => past[past_row],
                };
                visit(row, ScoredObject::new(oid, scoring.combine(scratch)));
            }
        }
    }

    /// The oid of a row of a table laid out by oid.
    #[cfg(test)]
    fn oid_laid_out(&self, row: usize) -> Oid {
        match row.checked_sub(self.block) {
            None => row as Oid,
            Some(past) => self.buf.past[past],
        }
    }

    /// The row of an object seen so far.
    pub(crate) fn row(&self, oid: Oid) -> Option<usize> {
        match usize::try_from(oid) {
            // A row of the block is an object seen once a list showed it.
            Ok(at) if at < self.block => self.cells(at).any(|field| field.is_some()).then_some(at),
            _ => self.buf.numbered(oid),
        }
    }

    /// Records list `j`'s grade for `row`; false if it was known.
    pub(crate) fn reveal(&mut self, row: usize, j: usize, grade: Score) -> bool {
        debug_assert!(!self.by_oid, "a table laid out by oid is only placed in");
        let slot = &mut self.buf.slots[row * self.m + j];
        let news = slot.is_none();
        if news {
            *slot = Some(grade);
            self.buf.rows[row].missing -= 1;
        }
        news
    }

    /// Objects seen so far; in a table laid out by oid, rows, some of
    /// which the block holds for objects no list has shown.
    pub(crate) fn len(&self) -> usize {
        if self.by_oid {
            self.block + self.buf.past.len()
        } else {
            self.buf.rows.len()
        }
    }

    pub(crate) fn oid(&self, row: usize) -> Oid {
        self.buf.rows[row].oid
    }

    /// Fields of `row` no access has revealed yet.
    pub(crate) fn missing(&self, row: usize) -> usize {
        self.buf.rows[row].missing
    }

    pub(crate) fn fields(&self, row: usize) -> &[Option<Score>] {
        &self.buf.slots[row * self.m..(row + 1) * self.m]
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
        let fields = &self.buf.slots[row * self.m..(row + 1) * self.m];
        self.buf.scratch.clear();
        self.buf.scratch.extend(
            fields
                .iter()
                .enumerate()
                .map(|(j, g)| g.unwrap_or_else(|| fill(j))),
        );
        scoring.combine(&self.buf.scratch)
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
/// 4.4 µs); with it, level and 12 % below. A table on a thread's spare
/// has had the room since the thread's first run.
const FIRST_ROWS: usize = 64;

/// The most oids the array numbers: 4 MiB of index, so a source that
/// reports a huge universe cannot size it. Larger oids take the map.
const DENSE_OIDS: usize = 1 << 20;

/// The most a thread's spare table may hold allocated: a naive scan of
/// 2^18 objects over two lists (≈ 13 MiB) is kept, a larger book freed.
const SPARE_BYTES: usize = 16 << 20;

/// Entries [`Book::drain`] asks a list for per call: one 4 KiB store
/// page holds 255.
const DRAIN_CHUNK: usize = 256;

/// One run's table and frontier.
pub(crate) struct Book {
    pub(crate) table: Table,
    pub(crate) frontier: Frontier,
}

impl Book {
    /// Rewinds the sources and starts from nothing seen.
    pub(crate) fn open(sources: &mut [&mut dyn Subsystem]) -> Book {
        let mut universe = 0;
        for source in sources.iter_mut() {
            source.rewind();
            universe = universe.max(source.info().universe_size);
        }
        let m = sources.len();
        Book {
            table: Table::new(m, universe.min(DENSE_OIDS)),
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
        sources: &mut [&mut dyn Subsystem],
    ) -> Result<Option<(usize, bool, bool, Score)>, AlgoError> {
        if self.frontier.exhausted[i] {
            return Ok(None);
        }
        let source = &mut *sources[i];
        match source.sorted_next() {
            Ok(Some(so)) => Ok(Some(self.record(i, so))),
            Ok(None) => {
                self.exhaust(i);
                Ok(None)
            }
            Err(cause) => Err(AlgoError::source(source, cause)),
        }
    }

    /// Sorted access on list `i` to its end, [`DRAIN_CHUNK`] entries a
    /// call: the fields, bottoms, charges and exhaustion that pulling it
    /// dry leaves, charged and bottomed once a batch, each entry placed
    /// by oid ([`Table::place`]). Only a strategy that reads every list
    /// to its end may drain, and only into a book nothing has pulled
    /// into: the others halt between two entries, and a batch would
    /// move the source's cursor past what they charge.
    pub(crate) fn drain(
        &mut self,
        i: usize,
        sources: &mut [&mut dyn Subsystem],
    ) -> Result<(), AlgoError> {
        self.table.lay_out_by_oid();
        let source = &mut *sources[i];
        while !self.frontier.exhausted[i] {
            let batch = source
                .sorted_batch(DRAIN_CHUNK)
                .map_err(|cause| AlgoError::source(source, cause))?;
            // A short batch is the end of the list.
            let end = batch.len() < DRAIN_CHUNK;
            self.frontier.stats.sorted += batch.len() as u64;
            if let Some(last) = batch.last() {
                self.frontier.bottoms[i] = last.grade;
            }
            for so in batch {
                self.table.place(so.id, i, so.grade);
            }
            if end {
                self.exhaust(i);
            }
        }
        Ok(())
    }

    /// One entry streamed by list `i`, charged and recorded: its row,
    /// whether this is the object's first sighting, whether the grade
    /// is news, and the grade.
    fn record(&mut self, i: usize, so: ScoredObject<Oid>) -> (usize, bool, bool, Score) {
        self.frontier.stats.sorted += 1;
        self.frontier.bottoms[i] = so.grade;
        let (row, first) = self.table.number(so.id);
        (row, first, self.table.reveal(row, i, so.grade), so.grade)
    }

    /// List `i` has nothing left to stream.
    fn exhaust(&mut self, i: usize) {
        self.frontier.exhausted[i] = true;
        // A drained list bounds all unseen objects by 0.
        self.frontier.bottoms[i] = Score::ZERO;
    }

    /// The row's upper bound: an unknown field can be no higher than
    /// its list's bottom.
    pub(crate) fn upper(&mut self, row: usize, scoring: &dyn ScoringFunction) -> Score {
        let Book { table, frontier } = self;
        table.bound(row, |j| frontier.bottoms[j], scoring)
    }

    /// One random access: list `j`'s grade of `row`, revealed.
    ///
    /// Always inlined, like the threshold kernel's `resolve` around it:
    /// with an error path the two fell out of TA's loop, and scalar TA
    /// over 4 096 × 3 paid ≈ 10 % for it.
    #[inline(always)]
    pub(crate) fn probe(
        &mut self,
        row: usize,
        j: usize,
        sources: &mut [&mut dyn Subsystem],
    ) -> Result<(), AlgoError> {
        let source = &mut *sources[j];
        let grade = source
            .random_access(self.table.oid(row))
            .map_err(|cause| AlgoError::source(source, cause))?;
        self.frontier.stats.random += 1;
        self.table.reveal(row, j, grade);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::cg_filter::CgFilter;
    use crate::algorithms::{Cursor, TopKResult};
    use crate::frozen::narrowed;
    use crate::oracle::verify_top_k;
    use crate::planner::PhysicalPlan;
    use crate::source::GradedSource;
    use crate::source::{SourceError, SourceInfo, VecSource};
    use crate::store::format::{ENTRY_BYTES, PAGE_HEADER_BYTES};
    use crate::store::tests::{rewrite_page, sample_pairs, scratch};
    use crate::store::{build_store, BuildConfig, PagedStore, StoreError, StoreOptions};
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::conorms::Max;
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_core::scoring::ConormScoring;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn oids_past_the_array_are_numbered_by_the_map() {
        let mut source = VecSource::from_dense("four", &[Score::ONE; 4]);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut source];
        let mut table = Book::open(&mut sources).table;
        assert_eq!(table.buf.dense.len(), 4);
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
        assert_eq!(table.buf.sparse.len(), 2, "9 and 2^40 are past the array");
        assert_eq!(table.row(1 << 40), Some(3));
        assert_eq!(table.row(1), None);
        assert_eq!(table.oid(2), 9);
    }

    /// A list that reports a universe no array could hold.
    struct Boastful(VecSource);

    impl Subsystem for Boastful {
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            Subsystem::sorted_batch(&mut self.0, n)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            Subsystem::random_batch(&mut self.0, oids)
        }
        fn rewind(&mut self) {
            Subsystem::rewind(&mut self.0);
        }
        fn info(&self) -> SourceInfo {
            SourceInfo::new("boastful", usize::MAX)
        }
    }

    #[test]
    fn a_huge_reported_universe_does_not_size_the_array() {
        // Under min, NRA certifies only fully revealed objects, so its
        // lower bounds are the grades the oracle checks.
        let plans = [
            PhysicalPlan::FullScan,
            PhysicalPlan::Fa,
            PhysicalPlan::Ta,
            PhysicalPlan::Nra,
        ];
        for plan in plans {
            let mut truthful = independent_uniform(50, 3, 11);
            let mut refs: Vec<&mut dyn GradedSource> = truthful
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            let twin = once(plan, &mut refs, &Min, 5).unwrap();

            let mut boastful: Vec<Boastful> = independent_uniform(50, 3, 11)
                .into_iter()
                .map(Boastful)
                .collect();
            assert_eq!(
                Book::open(&mut subsystems(&mut boastful))
                    .table
                    .buf
                    .dense
                    .len(),
                DENSE_OIDS
            );
            let mut refs = shim_refs(&mut boastful);
            let result = once(plan, &mut refs, &Min, 5).unwrap();
            assert_eq!(result, twin, "{plan}");
            verify_top_k(&mut refs, &Min, &result.answers, 5)
                .unwrap_or_else(|v| panic!("{plan}: {v}"));
        }
    }

    /// `plan`'s one-shot run over sources of the old trait.
    fn once(
        plan: PhysicalPlan,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        narrowed(sources, |sources| {
            Cursor::once(plan, 0.0, sources, scoring, k)
        })
    }

    fn shim_refs<S: GradedSource>(lists: &mut [S]) -> Vec<&mut dyn GradedSource> {
        lists
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect()
    }

    fn subsystems<S: Subsystem>(lists: &mut [S]) -> Vec<&mut dyn Subsystem> {
        lists.iter_mut().map(|s| s as &mut dyn Subsystem).collect()
    }

    #[test]
    fn a_second_book_reuses_the_first_ones_buffers() {
        let mut lists = independent_uniform(300, 2, 5);
        let mut sources = subsystems(&mut lists);
        let mut book = Book::open(&mut sources);
        while book.pull(0, &mut sources).unwrap().is_some() {}
        book.pull(1, &mut sources).unwrap();
        // Past the array: the map allocates.
        book.table.number(1 << 40);
        book.table.number(5_000);
        let buffers = |t: &Table| {
            (
                (t.buf.dense.as_ptr(), t.buf.dense.capacity()),
                (t.buf.rows.as_ptr(), t.buf.rows.capacity()),
                (t.buf.slots.as_ptr(), t.buf.slots.capacity()),
                (t.buf.scratch.as_ptr(), t.buf.scratch.capacity()),
                t.buf.sparse.capacity(),
            )
        };
        let first = buffers(&book.table);
        assert!(book.table.buf.sparse.capacity() > 0);
        drop(book);

        let book = Book::open(&mut sources);
        let table = &book.table;
        assert_eq!(buffers(table), first);
        assert_eq!(table.buf.dense.len(), 300);
        assert!(table.buf.dense.iter().all(|&cell| cell == 0));
        assert_eq!((table.len(), table.buf.slots.len()), (0, 0));
        assert!(table.buf.sparse.is_empty());
        assert_eq!(table.row(1 << 40), None);
    }

    /// A grade that depends on nothing but its arguments.
    fn grade(seed: u64, list: usize, oid: Oid) -> Score {
        let h = (oid ^ seed.rotate_left(17) ^ ((list as u64) << 40))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Score::clamped((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    #[derive(Debug, Clone, Copy)]
    enum Lists {
        Dense,
        /// List `j` leaves out every oid `≡ j (mod 3)`.
        Holes,
        /// Every other oid a million past the universe.
        PastTheArray,
        Boastful,
    }

    fn lists(kind: Lists, m: usize, seed: u64) -> Vec<Box<dyn GradedSource>> {
        const N: u64 = 80;
        (0..m)
            .map(|j| {
                let pairs = |keep: &dyn Fn(Oid) -> Option<Oid>| -> Vec<(Oid, Score)> {
                    (0..N)
                        .filter_map(|oid| Some((keep(oid)?, grade(seed, j, oid))))
                        .collect()
                };
                let label = format!("{kind:?}-{j}");
                let list: Box<dyn GradedSource> = match kind {
                    Lists::Dense => Box::new(VecSource::new(label, pairs(&Some))),
                    Lists::Holes => Box::new(VecSource::new(
                        label,
                        pairs(&|oid| (oid % 3 != j as u64 % 3).then_some(oid)),
                    )),
                    Lists::PastTheArray => Box::new(VecSource::new(
                        label,
                        pairs(&|oid| Some(if oid % 2 == 0 { oid } else { oid + 1_000_000 })),
                    )),
                    Lists::Boastful => Box::new(Boastful(VecSource::new(label, pairs(&Some)))),
                };
                list
            })
            .collect()
    }

    #[test]
    fn back_to_back_runs_on_one_thread_leave_nothing_behind() {
        let cg = CgFilter::new(0.9, 0.5).unwrap();
        let max = ConormScoring(Max);
        // A plan, or `None` for the CG filter, which no plan names.
        let algorithms: [(Option<PhysicalPlan>, &dyn ScoringFunction); 8] = [
            (Some(PhysicalPlan::FullScan), &Min),
            (Some(PhysicalPlan::Fa), &Min),
            (
                Some(PhysicalPlan::PrunedFa {
                    short_circuit: true,
                }),
                &Min,
            ),
            (Some(PhysicalPlan::Ta), &Min),
            (Some(PhysicalPlan::Nra), &Min),
            (Some(PhysicalPlan::Ca { h: 3 }), &Min),
            (Some(PhysicalPlan::MaxMerge), &max),
            (None, &Min),
        ];
        let name = |plan: Option<PhysicalPlan>| plan.map_or("cg-filter", |plan| plan.name());
        let kinds = [
            Lists::Dense,
            Lists::Holes,
            Lists::PastTheArray,
            Lists::Boastful,
        ];
        struct Case<'a> {
            m: usize,
            kind: Lists,
            algo: Option<PhysicalPlan>,
            scoring: &'a dyn ScoringFunction,
            seed: u64,
        }
        let mut cases = Vec::new();
        for m in 1..=4 {
            for kind in kinds {
                for (a, &(algo, scoring)) in algorithms.iter().enumerate() {
                    let seed = 7 * m as u64 + a as u64;
                    cases.push(Case {
                        m,
                        kind,
                        algo,
                        scoring,
                        seed,
                    });
                }
            }
        }
        let run = |case: &Case| -> TopKResult {
            let Case {
                m,
                kind,
                algo,
                scoring,
                seed,
            } = *case;
            let mut lists = lists(kind, m, seed);
            let mut sources: Vec<&mut dyn GradedSource> = lists
                .iter_mut()
                .map(|s| &mut **s as &mut dyn GradedSource)
                .collect();
            let result = match algo {
                Some(plan) => once(plan, &mut sources, scoring, 5),
                None => narrowed(&mut sources, |sources| cg.run(sources, scoring, 5))
                    .map(|run| run.result),
            };
            let result = result.unwrap();
            verify_top_k(&mut sources, scoring, &result.answers, 5)
                .unwrap_or_else(|v| panic!("{}, m = {m}, {kind:?}: {v}", name(algo)));
            result
        };
        let forward: Vec<TopKResult> = cases.iter().map(run).collect();
        let backward: Vec<TopKResult> = cases.iter().rev().map(run).collect();
        for ((case, ahead), behind) in cases.iter().zip(&forward).zip(backward.iter().rev()) {
            let (m, kind) = (case.m, case.kind);
            assert_eq!(ahead, behind, "{}, m = {m}, {kind:?}", name(case.algo));
        }
    }

    /// A list whose subsystem panics on its `at`-th sorted access.
    struct PanicsAt {
        inner: VecSource,
        calls: usize,
        at: usize,
    }

    impl Subsystem for PanicsAt {
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            let mut out = Vec::new();
            while out.len() < n {
                match Subsystem::sorted_next(self)? {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
            Ok(out)
        }
        fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
            self.calls += 1;
            assert!(self.calls < self.at, "sorted access {} fails", self.calls);
            Subsystem::sorted_next(&mut self.inner)
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
    fn a_run_that_panics_still_clears_the_table() {
        let runs = || {
            let mut lists = independent_uniform(500, 2, 13);
            let mut sources = shim_refs(&mut lists);
            let naive = once(PhysicalPlan::FullScan, &mut sources, &Min, 10).unwrap();
            let ta = once(PhysicalPlan::Ta, &mut sources, &Min, 10).unwrap();
            (naive, ta)
        };
        let before = runs();
        let mut panicking: Vec<PanicsAt> = independent_uniform(500, 2, 31)
            .into_iter()
            .map(|inner| PanicsAt {
                inner,
                calls: 0,
                at: 300,
            })
            .collect();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            once(
                PhysicalPlan::FullScan,
                &mut shim_refs(&mut panicking),
                &Min,
                10,
            )
        }));
        assert!(unwound.is_err(), "the 300th sorted access panics");
        assert_eq!(runs(), before);
    }

    #[test]
    fn a_table_over_the_cap_is_freed_not_kept() {
        let with = |slots: usize, dense: usize| Buffers {
            slots: Vec::with_capacity(slots),
            dense: Vec::with_capacity(dense),
            ..Buffers::default()
        };
        let per_slot = mem::size_of::<Option<Score>>();
        assert!(with(0, 0).fits());
        let at_cap = with(SPARE_BYTES / per_slot - 1, per_slot / 4);
        assert_eq!(at_cap.bytes(), SPARE_BYTES);
        assert!(at_cap.fits());
        assert!(!with(SPARE_BYTES / per_slot, 1).fits());

        let mut one = VecSource::from_dense("one", &[Score::ONE]);
        let mut sources: Vec<&mut dyn Subsystem> = vec![&mut one];
        let mut book = Book::open(&mut sources);
        book.table.buf.slots.reserve(SPARE_BYTES / per_slot + 1);
        drop(book);
        assert!(SPARE.with(Cell::take).is_none(), "freed, not kept");
        drop(Book::open(&mut sources));
        assert!(SPARE.with(Cell::take).is_some(), "a small one is kept");
    }

    /// What a book has recorded: every seen object's fields and
    /// missing count by oid, then the frontier. By oid, not by row: a
    /// drain lays its table out by oid, a pull numbers rows in
    /// first-sighting order.
    #[derive(Debug, PartialEq)]
    struct Recorded {
        objects: BTreeMap<Oid, (Vec<Option<Score>>, usize)>,
        bottoms: Vec<Score>,
        exhausted: Vec<bool>,
        stats: AccessStats,
    }

    fn recorded(book: &Book) -> Recorded {
        let t = &book.table;
        let f = &book.frontier;
        let object = |row: usize| -> (Oid, Vec<Option<Score>>) {
            if t.by_oid {
                (t.oid_laid_out(row), t.cells(row).collect())
            } else {
                (t.oid(row), t.fields(row).to_vec())
            }
        };
        let mut objects = BTreeMap::new();
        for row in 0..t.len() {
            let (oid, fields) = object(row);
            let missing = fields.iter().filter(|field| field.is_none()).count();
            if missing < t.m {
                assert_eq!(t.row(oid), Some(row), "oid {oid}");
                if !t.by_oid {
                    assert_eq!(t.missing(row), missing, "oid {oid}");
                }
                assert!(objects.insert(oid, (fields, missing)).is_none());
            } else {
                assert!(t.by_oid && row < t.block, "row {row} shows nothing");
                assert_eq!(t.row(oid), None, "oid {oid}");
            }
        }
        Recorded {
            objects,
            bottoms: f.bottoms.clone(),
            exhausted: f.exhausted.clone(),
            stats: f.stats,
        }
    }

    /// Pulls every list of one copy dry and drains every list of
    /// another, then compares what the two books recorded.
    fn drain_equals_pull<S: Subsystem>(mut make: impl FnMut() -> Vec<S>) -> usize {
        let mut pulled_lists = make();
        let mut sources = subsystems(&mut pulled_lists);
        let mut pulled = Book::open(&mut sources);
        for i in 0..sources.len() {
            while pulled.pull(i, &mut sources).unwrap().is_some() {}
        }
        let mut drained_lists = make();
        let mut sources = subsystems(&mut drained_lists);
        let mut drained = Book::open(&mut sources);
        for i in 0..sources.len() {
            drained.drain(i, &mut sources).unwrap();
            assert!(
                drained.pull(i, &mut sources).unwrap().is_none(),
                "list {i} is drained"
            );
        }
        assert!(drained.table.by_oid && !pulled.table.by_oid);
        let drained = recorded(&drained);
        assert_eq!(drained, recorded(&pulled));
        drained.objects.len()
    }

    #[test]
    fn a_drain_records_what_pulling_the_list_dry_does() {
        for n in [0usize, 1, 255, 256, 257, 1_000] {
            // Even oids, every third of them missing, half of them past
            // the universe.
            let holes: Vec<Oid> = (0..n as Oid)
                .filter(|oid| oid % 3 != 1)
                .map(|oid| oid * 2)
                .collect();
            let seen = drain_equals_pull(|| {
                let mut lists = independent_uniform(n, 2, n as u64);
                let pairs = holes.iter().map(|&oid| (oid, grade(3, 0, oid))).collect();
                lists.push(VecSource::new("holes", pairs));
                lists
            });
            let past = holes.iter().filter(|&&oid| oid >= n as Oid).count();
            assert_eq!(seen, n + past, "n = {n}");
        }

        let path = scratch("book-drain.fmdb");
        let pairs = sample_pairs(1_000, 47);
        build_store(&path, "d", pairs, &BuildConfig::DEFAULT).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        assert_eq!(
            drain_equals_pull(|| vec![store.source(), store.source()]),
            1_000
        );
    }

    #[test]
    fn a_drain_lays_the_dense_universe_out_by_oid() {
        let make = || {
            let mut lists = independent_uniform(300, 2, 5);
            // Oids 0..150 and 500, past the 300-object universe.
            let pairs = (0..150).chain([500]).map(|oid| (oid, grade(1, 2, oid)));
            lists.push(VecSource::new("part", pairs.collect()));
            lists
        };
        // The dense lists first: the block covers the universe, and
        // 500 is numbered after it.
        let mut lists = make();
        let mut sources = subsystems(&mut lists);
        let mut book = Book::open(&mut sources);
        for i in 0..3 {
            book.drain(i, &mut sources).unwrap();
        }
        let t = &book.table;
        assert!(t.by_oid);
        assert!(t.buf.rows.is_empty() && t.buf.slots.is_empty());
        assert_eq!(
            (t.block, t.buf.past.as_slice(), t.len()),
            (300, &[500][..], 301)
        );
        assert_eq!((t.row(500), t.oid_laid_out(300)), (Some(300), 500));
        for oid in 0..300 {
            let revealed = t.cells(oid as usize).filter(Option::is_some).count();
            assert_eq!(t.row(oid), Some(oid as usize));
            assert_eq!(revealed, if oid < 150 { 3 } else { 2 }, "oid {oid}");
        }
        let cells = (t.buf.cells.as_ptr(), t.buf.cells.capacity());
        drop(book);

        // The partial list first: the block stops growing at the first
        // numbered row, 500, and every oid past it is numbered too.
        let mut book = Book::open(&mut sources);
        assert!(!book.table.by_oid && book.table.buf.cells.is_empty());
        for i in [2, 0, 1] {
            book.drain(i, &mut sources).unwrap();
        }
        let t = &book.table;
        assert_eq!((t.buf.cells.as_ptr(), t.buf.cells.capacity()), cells);
        assert!(t.block <= 150, "block {}", t.block);
        assert_eq!(t.len(), 301);
        assert_eq!(t.buf.past.len(), 301 - t.block);
        for oid in (0..300).chain([500]) {
            let row = t.row(oid).unwrap();
            assert_eq!(t.oid_laid_out(row), oid);
            assert_eq!(row < t.block, (oid as usize) < t.block, "oid {oid}");
        }
        // The oids past the block were numbered through the array: a
        // dropped table zeroes those cells too.
        assert!(t.buf.dense.iter().any(|&cell| cell != 0));
        drop(book);
        let book = Book::open(&mut sources);
        assert!(book.table.buf.dense.iter().all(|&cell| cell == 0));
    }

    /// A page that fails under a pull or a drain fails the run with
    /// the store's error, naming the list: never a short list.
    #[test]
    fn a_drain_fails_where_the_stream_does() {
        let path = scratch("book-drain-nan.fmdb");
        build_store(
            &path,
            "n",
            sample_pairs(1_000, 47),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        let bad_page = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            store.header().sorted_start() + 2
        };
        // A NaN grade at slot 20 of sorted page 2, under a valid checksum.
        rewrite_page(&path, 512, bad_page, |frame| {
            let grade = PAGE_HEADER_BYTES + 20 * ENTRY_BYTES + 8;
            frame[grade..grade + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        });
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let refused = |error: AlgoError| match error {
            AlgoError::Source { stream, cause } => {
                assert_eq!(stream, "n");
                assert!(matches!(
                    cause.cause().downcast_ref::<StoreError>(),
                    Some(StoreError::InvalidGrade { page }) if *page == bad_page
                ));
            }
            other => panic!("expected a source error, got {other:?}"),
        };

        // Pages 0 and 1 deliver; page 2 is refused whole.
        let mut list = [store.source()];
        let mut sources = subsystems(&mut list);
        let mut pulled = Book::open(&mut sources);
        let mut seen = 0;
        let error = loop {
            match pulled.pull(0, &mut sources) {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("the stream ended after {seen} entries"),
                Err(error) => break error,
            }
        };
        assert_eq!(seen, 62);
        refused(error);

        let mut list = [store.source()];
        let mut sources = subsystems(&mut list);
        let mut drained = Book::open(&mut sources);
        refused(drained.drain(0, &mut sources).unwrap_err());
        assert!(
            !drained.frontier.exhausted[0],
            "a failed list is not drained"
        );
    }

    /// The `#[expect(clippy::disallowed_macros)]` that names the spare
    /// sits at the crate root, where it would cover a second per-thread
    /// site unseen: this counts them instead.
    #[test]
    fn the_spare_is_the_crates_only_thread_local() {
        fn sites(dir: &std::path::Path) -> Vec<String> {
            let needle = concat!("thread", "_local!");
            let mut found = Vec::new();
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    found.extend(sites(&path));
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let hits = text.matches(needle).count();
                    found.extend((0..hits).map(|_| path.display().to_string()));
                }
            }
            found
        }
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let found = sites(&src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].ends_with("book.rs"), "{found:?}");
    }
}
