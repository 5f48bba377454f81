//! Top-k query evaluation algorithms over sorted/random-access sources
//! (§4.1).
//!
//! Every strategy a [`PhysicalPlan`](crate::planner::PhysicalPlan) names runs through one door, the
//! plan's [`Cursor`]: [`Cursor::once`] is a one-shot run, the cursor's
//! first batch, and [`Cursor::next_k`] resumes it ("the top 10 objects
//! …, then the next 10", §4). The engine, garlic and the policy reach
//! every plan that way. Two reference strategies no plan names are
//! [`TopKAlgorithm`]s, run directly or by
//! [`crate::engine::Engine::run_algorithm`].
//!
//! | Strategy | Paper role | Cost (independent lists) |
//! |----------|------------|--------------------------|
//! | `FullScan` ([`naive`]) | the obvious baseline: drain every list | `m·N` sorted |
//! | `Fa` ([`fa`]) | algorithm A₀ of \[Fa96\] | `O(N^((m−1)/m)·k^(1/m))`, optimal for strict monotone queries (Thms 4.1/4.2) |
//! | `MaxMerge` ([`max_merge`]) | the disjunction (max) special case | `m·k`, independent of `N` |
//! | `Ta`, `Nra`, `Ca { h }`, `ApproxTa`, `ApproxNra` | extension: Fagin–Lotem–Naor's threshold family (open problem of §6) | TA instance optimal; NRA sorted only; CA tuned by `⌊c_R/c_S⌋`; θ buys `(1+θ)` slack |
//! | [`pruned_fa::PrunedFa`] | A₀ + the random-access pruning improvements sketched in \[Fa96\] | ≤ A₀ |
//! | [`cg_filter::CgFilter`] | Chaudhuri–Gravano \[CG96\] filter-condition simulation | τ-schedule dependent |
//!
//! The threshold family is one loop — the crate-private `threshold`
//! module — whose members differ in when they probe, their slack θ and
//! how they report grades; the table of them is there (`DESIGN.md`
//! §10). The plan's one rule for θ is [`PhysicalPlan`](crate::planner::PhysicalPlan)'s: under θ > 0
//! TA and NRA run their θ-approximations and A₀ is refused.
//!
//! | Plan | What a cursor keeps beside the book |
//! |------|-------------------------------------|
//! | `Fa` | `\|L\|`, the objects every list has shown |
//! | the threshold family | nothing: it ranks the rows no batch returned |
//! | `MaxMerge` | nothing: the depth read is the depth asked for |
//! | `FullScan` | nothing: the first batch drains every list |
//!
//! Every strategy keeps the same book — the crate-private `book`
//! module: per seen object the `m` fields revealed so far, per list its
//! bottom grade and whether it is drained, and the charges. Its `pull`
//! (one entry) and `drain` (a list to its end, which only the naive
//! scan asks for) are the only sorted accesses in this directory and
//! opening one the only rewind; a strategy is what it does between
//! pulls. Because a book stays true as `k` grows, a cursor keeps one
//! between batches.
//!
//! Every strategy consumes [`Subsystem`]s, meters every access into an
//! [`AccessStats`], and returns answers with **exact** grades —
//! returning an object with an under- or over-stated grade counts as
//! wrong, and the test suites verify results against a brute-force
//! oracle. The two documented exceptions are NRA (certified lower
//! bounds; no random access to close intervals with) and the θ > 0
//! approximations, whose relaxed *set* semantics are specified in
//! `DESIGN.md` §10. An access that fails fails the run with
//! [`AlgoError::Source`]: no algorithm answers short or from a grade it
//! could not read.

pub(crate) mod book;
pub mod cg_filter;
mod cursor;
pub mod fa;
pub mod max_merge;
pub mod naive;
pub mod pruned_fa;
pub(crate) mod threshold;

pub use cursor::Cursor;
pub use threshold::{nra_intervals, BoundedAnswer, NraResult};

/// The old module paths `perfbench/` imports its shims from.
#[doc(hidden)]
pub mod approx {
    pub use crate::frozen::ApproxTa;
}

#[doc(hidden)]
pub mod ca {
    pub use crate::frozen::CombinedAlgorithm;
}

#[doc(hidden)]
pub mod nra {
    pub use crate::frozen::NraLowerBound;
}

#[doc(hidden)]
pub mod ta {
    pub use crate::frozen::ThresholdAlgorithm;
}

use std::fmt;

use fmdb_core::score::ScoredObject;
use fmdb_core::scoring::ScoringFunction;

use crate::source::{GradedSource, Oid, SourceError, Subsystem};
use crate::stats::AccessStats;

/// The answers and metered cost of one top-k evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// The top `k` objects with their exact overall grades, descending
    /// (ties by ascending oid). Shorter than `k` only if the universe is.
    pub answers: Vec<ScoredObject<Oid>>,
    /// The database accesses performed.
    pub stats: AccessStats,
}

/// Errors a top-k algorithm can raise: invalid arguments before it
/// touches a source, or a source failing under it.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoError {
    /// The query shipped no subqueries/sources.
    NoSources,
    /// `k` was zero.
    ZeroK,
    /// The scoring function declared itself non-monotone; A₀-family
    /// algorithms are only correct for monotone functions (§4.1), so —
    /// like Garlic — the middleware refuses to run.
    NonMonotoneScoring(String),
    /// The algorithm requires a specific scoring behaviour the supplied
    /// function does not exhibit (e.g. the max merge needs max;
    /// [`cg_filter::CgFilter`] needs `combine ≤ min`).
    UnsupportedScoring {
        /// Algorithm name.
        algorithm: &'static str,
        /// What was required.
        requirement: &'static str,
        /// The offending function's name.
        scoring: String,
    },
    /// A [`crate::request::TopKRequest`] could not be assembled (missing scoring
    /// function, malformed weights, weight/source arity mismatch, …).
    InvalidRequest(String),
    /// The execution engine failed mid-query (e.g. a subsystem
    /// panicked under the kernel). Carries the engine's description
    /// of the failure; see `crate::engine::EngineError` for the
    /// structured form.
    Engine(String),
    /// A source failed an access.
    Source {
        /// The failing source's [`crate::source::SourceInfo::label`].
        stream: String,
        /// What it reported.
        cause: SourceError,
    },
}

impl AlgoError {
    /// `source` failed an access with `cause`. Off the access path:
    /// kept out of line so the kernels' accesses stay small.
    #[cold]
    #[inline(never)]
    pub(crate) fn source(source: &dyn Subsystem, cause: SourceError) -> AlgoError {
        AlgoError::Source {
            stream: source.info().label,
            cause,
        }
    }
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::NoSources => write!(f, "no sources supplied"),
            AlgoError::ZeroK => write!(f, "k must be at least 1"),
            AlgoError::NonMonotoneScoring(name) => {
                write!(f, "scoring function '{name}' is not monotone")
            }
            AlgoError::UnsupportedScoring {
                algorithm,
                requirement,
                scoring,
            } => write!(f, "{algorithm} requires {requirement}, but got '{scoring}'"),
            AlgoError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            AlgoError::Engine(reason) => write!(f, "engine failure: {reason}"),
            AlgoError::Source { stream, cause } => write!(f, "source {stream} failed: {cause}"),
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Source { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// A top-k evaluation strategy no [`PhysicalPlan`](crate::planner::PhysicalPlan) names: pruned A₀
/// and the CG filter simulation. A plan's strategy runs through its
/// [`Cursor`].
///
/// Contract:
/// * all sources grade the same universe of objects;
/// * the algorithm may consume sorted access from the sources' current
///   cursors — every implementation here calls
///   [`Subsystem::rewind`] first (a [`Cursor`], which is no
///   implementation, rewinds only before its first batch);
/// * answers carry exact grades, sorted by descending grade then
///   ascending oid; at most `k` answers, fewer only when the universe
///   holds fewer objects;
/// * a failed access fails the run with [`AlgoError::Source`].
pub trait TopKAlgorithm {
    /// The algorithm's display name.
    fn name(&self) -> &'static str;

    /// Finds the top `k` answers to the query whose `i`-th conjunct is
    /// evaluated by `sources[i]`, combining grades with `scoring`.
    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError>;

    /// [`TopKAlgorithm::evaluate`] over sources of the trait perfbench
    /// spells ([`crate::frozen`]): a subsystem among them is evaluated
    /// as itself, typed errors and all.
    fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        crate::frozen::narrowed(sources, |sources| self.evaluate(sources, scoring, k))
    }
}

/// Shared argument validation.
pub(crate) fn validate(sources: &[&mut dyn Subsystem], k: usize) -> Result<(), AlgoError> {
    if sources.is_empty() {
        return Err(AlgoError::NoSources);
    }
    if k == 0 {
        return Err(AlgoError::ZeroK);
    }
    Ok(())
}

/// An algorithm that halts before grading every object is correct
/// only for a monotone function (§4.1); the naive scan takes any.
pub(crate) fn monotone(scoring: &dyn ScoringFunction) -> Result<(), AlgoError> {
    if !scoring.is_monotone() {
        return Err(AlgoError::NonMonotoneScoring(scoring.name()));
    }
    Ok(())
}

/// The best `k` of the combined `(oid, grade)` pairs, in output order.
///
/// A selection moves the best `k` to the front and only they are
/// sorted: a naive scan hands over every object of the universe to
/// keep ten. Output order — grade descending, then oid ascending — is total
/// over distinct oids, so the unstable selection and sort return
/// exactly what a stable sort of everything and a truncation would.
pub(crate) fn finalize(
    mut combined: Vec<ScoredObject<Oid>>,
    k: usize,
    stats: AccessStats,
) -> TopKResult {
    let order =
        |a: &ScoredObject<Oid>, b: &ScoredObject<Oid>| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id));
    if 0 < k && k < combined.len() {
        combined.select_nth_unstable_by(k - 1, order);
    }
    combined.truncate(k);
    combined.sort_unstable_by(order);
    TopKResult {
        answers: combined,
        stats,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::planner::PhysicalPlan;

    /// A plan's one-shot run as a [`TopKAlgorithm`], for suites that
    /// run plans beside the strategies no plan names.
    pub(crate) struct Planned(pub(crate) PhysicalPlan, pub(crate) f64);

    impl TopKAlgorithm for Planned {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn evaluate(
            &self,
            sources: &mut [&mut dyn Subsystem],
            scoring: &dyn ScoringFunction,
            k: usize,
        ) -> Result<TopKResult, AlgoError> {
            Cursor::once(self.0, self.1, sources, scoring, k)
        }
    }

    #[test]
    fn error_display() {
        assert!(AlgoError::NoSources.to_string().contains("no sources"));
        assert!(AlgoError::ZeroK.to_string().contains("k"));
        assert!(AlgoError::NonMonotoneScoring("f".into())
            .to_string()
            .contains("monotone"));
        let e = AlgoError::UnsupportedScoring {
            algorithm: "max-merge",
            requirement: "max semantics",
            scoring: "min".into(),
        };
        assert!(e.to_string().contains("max-merge"));
    }

    #[test]
    fn the_selection_keeps_the_answer_contract_at_ties() {
        use fmdb_core::score::Score;

        // 337 is prime to 1 000, so this visits every oid once, out of
        // order; five grade levels leave 200 objects tied on each.
        let objects: Vec<ScoredObject<Oid>> = (0..1_000u64)
            .map(|i| i * 337 % 1_000)
            .map(|oid| ScoredObject::new(oid, Score::clamped((oid % 5) as f64 / 4.0)))
            .collect();
        let stats = AccessStats::ZERO;
        for k in [0, 1, 7, 200, 999, 1_000, 1_500] {
            let mut sorted = objects.clone();
            sorted.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
            sorted.truncate(k);
            assert_eq!(
                finalize(objects.clone(), k, stats).answers,
                sorted,
                "k = {k}"
            );
        }
    }
}
