//! A `Shape ~` atom served as it is read (DESIGN §16).
//!
//! [`QbicRepository`](crate::repository::QbicRepository) grades a shape
//! atom's list as `clamped(1 − d/dmax)` over every turning distance `d`.
//! A [`ShapeStream`] answers sorted and random access with the same
//! grades, bit for bit, but grades a row only when an access needs it:
//! the corpus's pivot table bounds every row's distance from below and
//! above ([`TurningCorpus::pivot_bounds`]), and the bounds say which
//! rows an access cannot do without.
//!
//! * Binding grades the pivots' rows (the bounds need their distances),
//!   then certifies the exact `dmax` by grading rows in descending
//!   upper bound until none left could lie farther than the farthest
//!   graded.
//! * Sorted access emits the best graded row once no ungraded row could
//!   tie or beat its grade, and otherwise grades the ungraded rows of
//!   least lower bound, four side by side as one gathered tile
//!   ([`TurningCorpus::distances_of`]). Ties stream in oid order, as the
//!   list's do.
//! * Random access grades the one row it asks for, with the tile code's
//!   one-lane run ([`TurningCorpus::distances_of`]).
//!
//! A row is graded at most once per bind. A bound that is not finite, a
//! read that reaches every row, or half the rows graded on demand grades
//! the rest a tile at a time ([`TurningCorpus::distances_where`]),
//! so a plan that reads little pays for little, and a read of every row
//! pays one full grade past the bind.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_media::shape::{Prototype, RowScratch, TurningCorpus, TILE_ROWS};
use fmdb_middleware::source::{Oid, SourceError, SourceInfo, Subsystem};

/// The share of the corpus (one row in this many) a stream grades on
/// demand, alone or gathered four to a tile, before it grades the rest a
/// tile at a time. A row alone costs about two rows of a corpus tile
/// (DESIGN §16), so by then the rows graded on demand cost at most about
/// one full grade, and no read pays more than about two (the ski-rental
/// rule).
const ON_DEMAND: usize = 2;

/// A `Shape ~` atom's graded list, served from the corpus's pivot table
/// as it is read; see the [module docs](self).
pub struct ShapeStream {
    label: String,
    corpus: Arc<TurningCorpus>,
    prototype: Arc<Prototype>,
    /// The grades' cutoff, the largest distance (at least `1e-12`):
    /// certified at bind; `0` until then.
    dmax: f64,
    /// Each row's distance, where `graded` says it is known.
    distance: Vec<f64>,
    graded: Vec<bool>,
    /// Rows graded so far, on demand or in corpus tiles.
    count: usize,
    /// Ungraded rows by ascending lower bound (the bits of a
    /// non-negative float order as the float), then oid.
    frontier: BinaryHeap<Reverse<(u64, Oid)>>,
    /// Graded rows sorted access has not emitted, best first: grade
    /// descending, then oid ascending.
    ready: BinaryHeap<(Score, Reverse<Oid>)>,
    /// The stream as emitted so far; a rewound cursor replays it.
    order: Vec<ScoredObject<Oid>>,
    cursor: usize,
    /// Every row graded and the whole stream in `order`.
    complete: bool,
    scratch: RowScratch,
}

impl fmt::Debug for ShapeStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShapeStream")
            .field("label", &self.label)
            .field("rows", &self.graded.len())
            .field("graded", &self.count)
            .field("emitted", &self.order.len())
            .finish_non_exhaustive()
    }
}

impl ShapeStream {
    /// Binds the atom labelled `label` whose target is `prototype`: the
    /// pivots' rows graded and `dmax` certified.
    pub fn new(
        label: impl Into<String>,
        corpus: Arc<TurningCorpus>,
        prototype: Arc<Prototype>,
    ) -> ShapeStream {
        let rows = corpus.len();
        let mut stream = ShapeStream {
            label: label.into(),
            corpus,
            prototype,
            dmax: 0.0,
            distance: vec![0.0; rows],
            graded: vec![false; rows],
            count: 0,
            frontier: BinaryHeap::new(),
            ready: BinaryHeap::new(),
            order: Vec::new(),
            cursor: 0,
            complete: false,
            scratch: RowScratch::default(),
        };
        let corpus = Arc::clone(&stream.corpus);
        let pivots = corpus.pivots().rows();
        for tile in pivots.chunks(TILE_ROWS) {
            stream.measure(tile);
        }
        let to_pivots: Vec<f64> = pivots.iter().map(|&row| stream.distance[row]).collect();
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        if !corpus.pivot_bounds(&stream.prototype, &to_pivots, &mut lower, &mut upper) {
            stream.grade_rest();
            return stream;
        }
        // `dmax`: no row bounded above by less than a distance some row
        // reaches (a lower bound, or a graded distance) lies farther;
        // the rest are graded, farthest bound first, until the farthest
        // graded row reaches every bound left.
        let mut top = to_pivots.iter().copied().fold(0.0_f64, f64::max);
        let floor = lower.iter().copied().fold(top, f64::max);
        let mut far: Vec<(f64, usize)> = upper
            .iter()
            .enumerate()
            .filter(|&(_, &hi)| hi >= floor)
            .map(|(row, &hi)| (hi, row))
            .collect();
        far.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        // A tile of rows at a time: the next ungraded ones whose bound
        // passes the farthest graded.
        let mut far = far.into_iter();
        loop {
            let tile: Vec<usize> = far
                .by_ref()
                .take_while(|&(hi, _)| hi > top)
                .filter(|&(_, row)| !stream.graded[row])
                .map(|(_, row)| row)
                .take(TILE_ROWS)
                .collect();
            if tile.is_empty() {
                break;
            }
            if stream.count >= rows / ON_DEMAND {
                stream.grade_rest();
                return stream;
            }
            stream.measure(&tile);
            top = tile
                .iter()
                .map(|&row| stream.distance[row])
                .fold(top, f64::max);
        }
        stream.dmax = top.max(1e-12);
        let (mut ready, mut frontier) = (Vec::new(), Vec::with_capacity(rows));
        for (row, lo) in lower.iter().enumerate() {
            if stream.graded[row] {
                ready.push((stream.grade(row), Reverse(row as Oid)));
            } else {
                frontier.push(Reverse((lo.to_bits(), row as Oid)));
            }
        }
        (stream.ready, stream.frontier) = (ready.into(), frontier.into());
        stream
    }

    /// Rows graded exactly so far: the pivots', those certifying `dmax`,
    /// and those the accesses needed (E20's `shape_graded_per_listed`).
    pub fn graded(&self) -> usize {
        self.count
    }

    /// Grades `rows`, at most a tile of them — one alone, more as one
    /// gathered tile — and records their distances.
    fn measure(&mut self, rows: &[usize]) {
        let mut distances = Vec::with_capacity(rows.len());
        self.corpus
            .distances_of(rows, &self.prototype, &mut self.scratch, &mut distances);
        for (&row, d) in rows.iter().zip(distances) {
            self.distance[row] = d;
            self.graded[row] = true;
        }
        self.count += rows.len();
    }

    /// The grade of a graded row: the list's `clamped(1 − d/dmax)`.
    fn grade(&self, row: usize) -> Score {
        Score::clamped(1.0 - self.distance[row] / self.dmax)
    }

    /// Grades ungraded `rows` for an access — one row alone, more as one
    /// gathered tile — unless half the rows have been graded: then
    /// every row left, a tile at a time.
    fn grade_some(&mut self, rows: &[usize]) {
        if self.count >= self.graded.len() / ON_DEMAND {
            self.grade_rest();
            return;
        }
        self.measure(rows);
        for &row in rows {
            self.ready.push((self.grade(row), Reverse(row as Oid)));
        }
    }

    /// Grades every ungraded row a tile at a time, certifies `dmax` if
    /// binding had not, and puts the stream's every row not yet emitted
    /// into `order`, in stream order.
    fn grade_rest(&mut self) {
        let mut fresh = Vec::new();
        let graded = &self.graded;
        self.corpus.distances_where(
            &self.prototype,
            |row| !graded[row],
            |row, d| fresh.push((row, d)),
        );
        for &(row, d) in &fresh {
            self.distance[row] = d;
            self.graded[row] = true;
        }
        self.count += fresh.len();
        if self.dmax <= 0.0 {
            let top = self.distance.iter().copied().fold(0.0_f64, f64::max);
            self.dmax = top.max(1e-12);
        }
        // Nothing emitted yet: every row is left.
        let left: Vec<usize> = if self.order.is_empty() {
            (0..self.graded.len()).collect()
        } else {
            let ready = self.ready.iter().map(|&(_, Reverse(oid))| oid as usize);
            ready.chain(fresh.iter().map(|&(row, _)| row)).collect()
        };
        let mut left: Vec<ScoredObject<Oid>> = left
            .into_iter()
            .map(|row| ScoredObject::new(row as Oid, self.grade(row)))
            .collect();
        left.sort_unstable_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        self.order.extend(left);
        self.ready.clear();
        self.frontier.clear();
        self.complete = true;
    }

    /// The next entry of the stream past `order`, grading what it
    /// needs — the ungraded rows of least lower bound, a tile of them at
    /// a time (a sorted read asks for a batch, and a tile grades its
    /// rows for about half of what each costs alone); `None` at its
    /// end.
    fn advance(&mut self) -> Option<ScoredObject<Oid>> {
        while !self.complete {
            while let Some(&Reverse((_, oid))) = self.frontier.peek() {
                if !self.graded[oid as usize] {
                    break;
                }
                self.frontier.pop();
            }
            // The best grade an ungraded row could have: grades fall as
            // distances grow, and each row lies at or past its bound.
            let beat = self
                .frontier
                .peek()
                .map(|&Reverse((lo, _))| Score::clamped(1.0 - f64::from_bits(lo) / self.dmax));
            let best = self.ready.peek().copied();
            match (best, beat) {
                (Some((grade, Reverse(oid))), beat) if beat.is_none_or(|b| grade > b) => {
                    self.ready.pop();
                    return Some(ScoredObject::new(oid, grade));
                }
                _ => {
                    let mut rows = [0; TILE_ROWS];
                    let mut taken = 0;
                    while taken < TILE_ROWS {
                        let Some(Reverse((_, oid))) = self.frontier.pop() else {
                            break;
                        };
                        if !self.graded[oid as usize] {
                            rows[taken] = oid as usize;
                            taken += 1;
                        }
                    }
                    if taken == 0 {
                        return None;
                    }
                    self.grade_some(&rows[..taken]);
                }
            }
        }
        None
    }
}

impl Subsystem for ShapeStream {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let rows = self.graded.len();
        let end = self.cursor.saturating_add(n).min(rows);
        if end == rows && !self.complete {
            // A read that reaches every row.
            self.grade_rest();
        }
        while self.order.len() < end {
            match self.advance() {
                Some(entry) => self.order.push(entry),
                None => break,
            }
        }
        let end = end.min(self.order.len());
        let out = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(out)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        let rows = self.graded.len();
        let mut grades = Vec::with_capacity(oids.len());
        for &oid in oids {
            let Some(row) = usize::try_from(oid).ok().filter(|&row| row < rows) else {
                // Outside the universe: the list has never heard of it.
                grades.push(Score::ZERO);
                continue;
            };
            if !self.graded[row] {
                self.grade_some(&[row]);
            }
            grades.push(self.grade(row));
        }
        Ok(grades)
    }

    fn rewind(&mut self) {
        self.cursor = 0;
    }

    fn info(&self) -> SourceInfo {
        SourceInfo::new(self.label.clone(), self.graded.len())
    }
}
