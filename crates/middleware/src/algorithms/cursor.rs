//! "The next 10": resuming a run where it left off (§4).
//!
//! The paper's middleware asks a subsystem "for, say, the top 10
//! objects …, then request[s] the next 10", and §4.1 notes A₀'s "nice
//! feature that after finding the top k answers, in order to find the
//! next k best answers we can continue where we left off". Every
//! strategy that keeps a book can: its rows and bottoms stay true as
//! `k` grows, so a [`Cursor`] keeps the book between batches and runs
//! its plan's kernel on it again.
//!
//! | Plan | A batch | Kept beside the book |
//! |------|---------|----------------------|
//! | `Fa` | phase 1 on to `\|L\| ≥` the cumulative `k`, then the holes probed | `\|L\|` |
//! | the threshold family | the loop, halting rule first, over the rows no batch returned | nothing |
//! | `MaxMerge` | every list read on to the cumulative `k` | nothing: that depth is what was asked for |
//! | `FullScan` | the drain, on the first batch only | nothing |
//!
//! A one-shot run of a plan is its cursor's first batch
//! ([`Cursor::once`]): that one `match` on the plan is every door to
//! A₀, the threshold family, the max merge and the scan. The crisp
//! filter keeps no book and has no cursor; garlic runs it, and its
//! cursor runs A₀ for it.

use std::fmt;

use fmdb_core::score::ScoredObject;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::fa::FaState;
use crate::algorithms::threshold::Family;
use crate::algorithms::{finalize, max_merge, monotone, naive, validate};
use crate::algorithms::{AlgoError, TopKResult};
use crate::planner::PhysicalPlan;
use crate::source::{Oid, Subsystem};

/// A resumable run of one plan: each [`Cursor::next_k`] returns the
/// next best `k` answers, continuing from what the earlier batches
/// read.
///
/// A batch is the best `k` objects no earlier batch returned. Appended
/// to the earlier batches it is a valid top set of the cumulative `k`
/// under the plan's own guarantee: exact grades for `Fa`, `Ta`, `Ca`,
/// `MaxMerge` and `FullScan` (a one-shot run's grades at the cumulative
/// `k`, bit for bit), the `(1 + θ)` slack for the approximations,
/// certified lower bounds for NRA. The threshold family ranks only the
/// rows no batch returned, so a batch never undoes an earlier one; for
/// TA that halts where a fresh run at the cumulative `k` halts, so the
/// cumulative charges are that run's.
///
/// A cursor holds no sources: every batch is handed the same sources,
/// in the same order, and the same scoring function. The first batch
/// rewinds the sources; later ones continue their streams.
pub struct Cursor {
    plan: PhysicalPlan,
    /// The threshold family member `plan` names, if it names one.
    family: Option<Family>,
    /// What the batches so far have read; `None` before the first.
    run: Option<Run>,
    /// Per book row, whether a batch returned it.
    returned: Vec<bool>,
    emitted: usize,
    requested: usize,
}

/// The state a plan's kernel resumes from.
enum Run {
    Fa(FaState),
    Book(Book),
}

impl Run {
    fn book(&self) -> &Book {
        match self {
            Run::Fa(state) => &state.book,
            Run::Book(book) => book,
        }
    }
}

// A cursor's book has no `Debug`; its progress stands in.
impl fmt::Debug for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cursor")
            .field("plan", &self.plan)
            .field("emitted", &self.emitted)
            .field("requested", &self.requested)
            .finish_non_exhaustive()
    }
}

impl Cursor {
    /// A cursor over `plan` under slack `theta`, by the plan's one rule
    /// for θ: TA and NRA run their θ-approximations under θ > 0, and
    /// θ-approximate A₀ is refused, as is an invalid `theta`. The
    /// crisp filter keeps no book to resume from and is refused too.
    pub fn new(plan: PhysicalPlan, theta: f64) -> Result<Cursor, AlgoError> {
        let plan = plan.under(theta)?;
        if plan == PhysicalPlan::CrispFilter {
            return Err(AlgoError::InvalidRequest(
                "the crisp filter runs in garlic and keeps no book, so it has no cursor".to_owned(),
            ));
        }
        Ok(Cursor {
            plan,
            family: Family::of_plan(plan, theta),
            run: None,
            returned: Vec::new(),
            emitted: 0,
            requested: 0,
        })
    }

    /// The top `k` under `plan` in one run: its cursor's first batch,
    /// without the record of returned rows a second batch would need.
    pub fn once(
        plan: PhysicalPlan,
        theta: f64,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        Cursor::new(plan, theta)?.batch(sources, scoring, k)
    }

    /// The next `k` best answers: those ranked after every answer the
    /// earlier batches returned, with the cumulative charges of all
    /// batches so far. Fewer than `k` only once the universe runs out.
    pub fn next_k(
        &mut self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        // The request counts only once a batch is answered: a failed
        // access leaves the book true, so the batch can be asked again.
        let result = self.batch(sources, scoring, k)?;
        if let Some(run) = &self.run {
            let table = &run.book().table;
            self.returned.resize(table.len(), false);
            for answer in &result.answers {
                if let Some(row) = table.row(answer.id) {
                    self.returned[row] = true;
                }
            }
        }
        self.requested += k;
        self.emitted += result.answers.len();
        Ok(result)
    }

    /// Answers returned so far, across batches.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The best `k` rows no earlier batch returned, read on from where
    /// the earlier batches stopped: the one dispatch on the plan.
    fn batch(
        &mut self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        validate(sources, k)?;
        let plan = self.plan;
        match plan {
            PhysicalPlan::FullScan => {}
            PhysicalPlan::MaxMerge => max_merge::max_like(scoring, sources.len())?,
            _ => monotone(scoring)?,
        }
        let run = self.run.get_or_insert_with(|| match plan {
            PhysicalPlan::Fa => Run::Fa(FaState::new(sources)),
            _ => Run::Book(Book::open(sources)),
        });
        if run.book().frontier.bottoms.len() != sources.len() {
            return Err(AlgoError::InvalidRequest(
                "a cursor's batches read the sources its first batch read".to_owned(),
            ));
        }
        let (depth, target) = (self.requested, self.requested + k);
        let returned = &self.returned;
        // Every row no batch returned, in row order; a first batch
        // keeps them all without a pass.
        let fresh = |mut combined: Vec<ScoredObject<Oid>>| {
            if !returned.is_empty() {
                let mut flags = returned.iter();
                combined.retain(|_| !flags.next().is_some_and(|&out| out));
            }
            combined
        };
        Ok(match (run, self.family) {
            (Run::Book(book), Some(family)) => family
                .run(book, returned, sources, scoring, k)?
                .into_lower_bounds(),
            (Run::Fa(state), _) => {
                state.sorted_phase(sources, target)?;
                let combined = fresh(state.resolve_all(sources, scoring)?);
                finalize(combined, k, state.book.frontier.stats)
            }
            (Run::Book(book), None) if plan == PhysicalPlan::MaxMerge => {
                max_merge::deepen(book, sources, depth, target)?;
                let combined = fresh(max_merge::observed(book, scoring));
                finalize(combined, k, book.frontier.stats)
            }
            (Run::Book(book), None) => {
                let combined = fresh(naive::scan(book, sources, scoring)?);
                finalize(combined, k, book.frontier.stats)
            }
        })
    }
}
