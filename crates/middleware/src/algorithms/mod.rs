//! Top-k query evaluation algorithms over sorted/random-access sources
//! (§4.1).
//!
//! | Algorithm | Paper role | Cost (independent lists) |
//! |-----------|------------|--------------------------|
//! | [`naive::Naive`] | the obvious baseline: drain every list | `m·N` sorted |
//! | [`fa::FaginsAlgorithm`] | algorithm A₀ of \[Fa96\] | `O(N^((m−1)/m)·k^(1/m))`, optimal for strict monotone queries (Thms 4.1/4.2) |
//! | [`max_merge::MaxMerge`] | the disjunction (max) special case | `m·k`, independent of `N` |
//! | [`pruned_fa::PrunedFa`] | A₀ + the random-access pruning improvements sketched in \[Fa96\] | ≤ A₀ |
//! | [`ta::ThresholdAlgorithm`] | extension: the successor algorithm (open problem of §6) | instance optimal |
//! | [`nra::Nra`] | extension: no-random-access regime (§4.2's missing id mappings) | sorted access only |
//! | [`ca::CombinedAlgorithm`] | extension: FLN's cost-ratio interleaving of TA and NRA | tuned by `⌊c_R/c_S⌋` |
//! | [`approx::ApproxTa`]/[`approx::ApproxNra`] | extension: FLN θ-approximation | `(1+θ)` grade slack |
//! | [`cg_filter::CgFilter`] | Chaudhuri–Gravano \[CG96\] filter-condition simulation | τ-schedule dependent |
//!
//! The extension rows are one loop — the crate-private `threshold`
//! module — and each public name is a thin constructor choosing when
//! it probes, its slack θ, and how grades are reported (`DESIGN.md`
//! §10):
//!
//! | Name | Probes | θ | Grades reported |
//! |------|--------|---|-----------------|
//! | [`ta::ThresholdAlgorithm`] | on sight | 0 | as halted (exact: no interval is ever open) |
//! | [`approx::ApproxTa`] | on sight | θ | as halted (exact) |
//! | [`nra::Nra`], [`nra::NraLowerBound`] | never | 0 | as halted (intervals / lower bounds) |
//! | [`approx::ApproxNra`] | never | θ | as halted (lower bounds) |
//! | [`ca::CombinedAlgorithm`] | every `h` rounds | θ | closed at the halt (exact) |
//!
//! Every row of both tables keeps the same book — the crate-private
//! `book` module: per seen object the `m` fields revealed so far, per
//! list its bottom grade and whether it is drained, and the charges.
//! Its `pull` (one entry) and `drain` (a list to its end, which only the
//! naive scan asks for) are the only sorted accesses in this directory
//! and opening one the only rewind; a strategy is what it does between
//! pulls. A₀ is a user of the book, not a row of the second table: it
//! halts mid-round, probes everything afterwards, and resumes
//! (`DESIGN.md` §10).
//!
//! All algorithms consume [`Subsystem`]s, meter every access into an
//! [`AccessStats`], and return answers with **exact** grades — returning
//! an object with an under- or over-stated grade counts as wrong, and
//! the test suites verify results against a brute-force oracle. The two
//! documented exceptions are NRA (certified lower bounds; no random
//! access to close intervals with) and the θ > 0 approximations, whose
//! relaxed *set* semantics are specified in `DESIGN.md` §10. An access
//! that fails fails the run with [`AlgoError::Source`]: no algorithm
//! answers short or from a grade it could not read.

pub mod approx;
pub(crate) mod book;
pub mod ca;
pub mod cg_filter;
pub mod fa;
pub mod max_merge;
pub mod naive;
pub mod nra;
pub mod pruned_fa;
pub mod ta;
pub(crate) mod threshold;

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
    /// function does not exhibit (e.g. [`max_merge::MaxMerge`] needs
    /// max; [`cg_filter::CgFilter`] needs `combine ≤ min`).
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

/// A top-k evaluation strategy.
///
/// Contract:
/// * all sources grade the same universe of objects;
/// * the algorithm may consume sorted access from the sources' current
///   cursors — every implementation here calls
///   [`Subsystem::rewind`] first, except explicit resumption
///   sessions ([`fa::FaSession`]);
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

/// Shared argument validation for the A₀ family.
pub(crate) fn validate(
    sources: &[&mut dyn Subsystem],
    scoring: &dyn ScoringFunction,
    k: usize,
) -> Result<(), AlgoError> {
    if sources.is_empty() {
        return Err(AlgoError::NoSources);
    }
    if k == 0 {
        return Err(AlgoError::ZeroK);
    }
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
mod tests {
    use super::*;

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
