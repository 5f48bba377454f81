//! Queries: Boolean combinations of atomic queries (§2–§3).
//!
//! An atomic query has the form `X = t` where `X` names an attribute and
//! `t` is a target value (`Artist='Beatles'`, `Color='red'`). Queries
//! are Boolean combinations of atomic queries; each combination node
//! carries its scoring behaviour:
//!
//! * `And` — conjunction under a chosen m-ary scoring function
//!   (default: min, the standard fuzzy rule);
//! * `Or` — disjunction under a chosen co-norm (default: max);
//! * `Not` — standard negation `1 − x`;
//! * `Weighted` — a Fagin–Wimmers-weighted combination.
//!
//! The AST itself is evaluation-agnostic: the middleware decides whether
//! to run naive evaluation, algorithm A₀, the `m·k` max-merge, or a
//! crisp-filter plan. The [`Query::grade`] method is the *semantics* —
//! the reference evaluator used by tests and by the brute-force oracle.

use std::fmt;
use std::sync::Arc;

use crate::score::Score;
use crate::scoring::tnorms::Min;
use crate::scoring::ScoringFunction;
use crate::weights::{weighted_combine, Weighting};

/// A target value in an atomic query `X = t`.
///
/// Crisp targets come from traditional predicates; feature targets are
/// opaque handles the owning subsystem interprets (a color histogram, a
/// shape descriptor, …).
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// An exact-match (crisp) text value, e.g. `'Beatles'`.
    Text(String),
    /// An exact-match (crisp) integer value.
    Int(i64),
    /// A similarity target identified by name, e.g. `'red'`; the
    /// subsystem resolves the name to a feature vector.
    Similar(String),
    /// A raw feature vector target (e.g. a query color histogram).
    Feature(Vec<f64>),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Text(s) => write!(f, "'{s}'"),
            Target::Int(i) => write!(f, "{i}"),
            Target::Similar(s) => write!(f, "~'{s}'"),
            Target::Feature(v) => write!(f, "<feature:{}d>", v.len()),
        }
    }
}

/// An atomic query `attribute = target`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicQuery {
    /// The attribute name (`Artist`, `AlbumColor`, `Shape`, …).
    pub attribute: String,
    /// The target value.
    pub target: Target,
}

impl AtomicQuery {
    /// Creates an atomic query.
    pub fn new(attribute: impl Into<String>, target: Target) -> AtomicQuery {
        AtomicQuery {
            attribute: attribute.into(),
            target,
        }
    }
}

impl fmt::Display for AtomicQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attribute, self.target)
    }
}

/// A shareable scoring function handle attached to AST nodes.
pub type ScoringHandle = Arc<dyn ScoringFunction + Send + Sync>;

/// A query: a Boolean combination of atomic queries.
#[derive(Clone)]
pub enum Query {
    /// An atomic query, graded by the owning subsystem.
    Atomic(AtomicQuery),
    /// Conjunction of subqueries under an m-ary scoring function.
    And {
        /// The conjuncts.
        children: Vec<Query>,
        /// The scoring function; min if built via [`Query::and`].
        scoring: ScoringHandle,
    },
    /// Disjunction of subqueries under an m-ary scoring function.
    Or {
        /// The disjuncts.
        children: Vec<Query>,
        /// The scoring function; max if built via [`Query::or`].
        scoring: ScoringHandle,
    },
    /// Negation under the standard rule `1 − x`.
    Not(Box<Query>),
    /// A Fagin–Wimmers-weighted combination of subqueries.
    Weighted {
        /// The subqueries, positionally matching the weighting.
        children: Vec<Query>,
        /// The underlying (unweighted) rule.
        scoring: ScoringHandle,
        /// The user's weighting.
        weighting: Weighting,
    },
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Atomic(a) => write!(f, "{a}"),
            Query::And { children, scoring } => {
                write!(f, "AND[{}](", scoring.name())?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Query::Or { children, scoring } => {
                write!(f, "OR[{}](", scoring.name())?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Query::Not(q) => write!(f, "¬({q})"),
            Query::Weighted {
                children,
                scoring,
                weighting,
            } => {
                write!(f, "WEIGHTED[{};{:?}](", scoring.name(), weighting.weights())?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Error produced when grading a query against an incomplete grade
/// assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No grade is known for this atomic query.
    MissingGrade(AtomicQuery),
    /// A weighted node's weighting arity differs from its child count.
    WeightArityMismatch {
        /// Number of children.
        children: usize,
        /// Weighting arity.
        weights: usize,
    },
    /// A combination node has no children.
    EmptyCombination,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingGrade(a) => write!(f, "no grade for atomic query {a}"),
            QueryError::WeightArityMismatch { children, weights } => write!(
                f,
                "weighted node has {children} children but {weights} weights"
            ),
            QueryError::EmptyCombination => write!(f, "combination node has no children"),
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Builds an atomic query node.
    pub fn atomic(attribute: impl Into<String>, target: Target) -> Query {
        Query::Atomic(AtomicQuery::new(attribute, target))
    }

    /// Conjunction under the standard fuzzy rule (min).
    pub fn and(children: Vec<Query>) -> Query {
        Query::And {
            children,
            scoring: Arc::new(Min),
        }
    }

    /// Conjunction under an explicit scoring function.
    pub fn and_with(children: Vec<Query>, scoring: ScoringHandle) -> Query {
        Query::And { children, scoring }
    }

    /// Disjunction under the standard fuzzy rule (max).
    pub fn or(children: Vec<Query>) -> Query {
        Query::Or {
            children,
            scoring: Arc::new(crate::scoring::ConormScoring(crate::scoring::conorms::Max)),
        }
    }

    /// Disjunction under an explicit scoring function.
    pub fn or_with(children: Vec<Query>, scoring: ScoringHandle) -> Query {
        Query::Or { children, scoring }
    }

    /// Standard negation.
    #[allow(
        clippy::should_implement_trait,
        reason = "a constructor beside `and` / `or` / `weighted`, taking the query by value; `!q` on an AST would read as evaluation"
    )]
    pub fn not(query: Query) -> Query {
        Query::Not(Box::new(query))
    }

    /// A Fagin–Wimmers-weighted combination of `children` under `scoring`.
    pub fn weighted(
        children: Vec<Query>,
        scoring: ScoringHandle,
        weighting: Weighting,
    ) -> Result<Query, QueryError> {
        if children.len() != weighting.arity() {
            return Err(QueryError::WeightArityMismatch {
                children: children.len(),
                weights: weighting.arity(),
            });
        }
        Ok(Query::Weighted {
            children,
            scoring,
            weighting,
        })
    }

    /// All atomic queries in this query, left-to-right.
    pub fn atoms(&self) -> Vec<&AtomicQuery> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a AtomicQuery>) {
        match self {
            Query::Atomic(a) => out.push(a),
            Query::And { children, .. }
            | Query::Or { children, .. }
            | Query::Weighted { children, .. } => {
                for c in children {
                    c.collect_atoms(out);
                }
            }
            Query::Not(q) => q.collect_atoms(out),
        }
    }

    /// True if every combination node in the tree uses a monotone
    /// scoring function and there is no negation — the precondition for
    /// running algorithm A₀ (§4.1: correctness requires monotonicity).
    pub fn is_monotone(&self) -> bool {
        match self {
            Query::Atomic(_) => true,
            Query::And { children, scoring } | Query::Or { children, scoring } => {
                scoring.is_monotone() && children.iter().all(Query::is_monotone)
            }
            Query::Not(_) => false,
            Query::Weighted {
                children, scoring, ..
            } => scoring.is_monotone() && children.iter().all(Query::is_monotone),
        }
    }

    /// True if the query is strict: its overall grade is 1 only when
    /// every atomic grade is 1 (the lower-bound hypothesis of
    /// Theorem 4.2). Conservative: `false` when any node cannot be
    /// certified strict.
    pub fn is_strict(&self) -> bool {
        match self {
            Query::Atomic(_) => true,
            Query::And { children, scoring } => {
                scoring.is_strict() && children.iter().all(Query::is_strict)
            }
            // A disjunction is 1 as soon as one branch is 1: not strict
            // (unless unary, which we don't special-case).
            Query::Or { .. } => false,
            Query::Not(_) => false,
            Query::Weighted {
                children, scoring, ..
            } => {
                scoring.is_strict()
                    && self.weighting_all_positive()
                    && children.iter().all(Query::is_strict)
            }
        }
    }

    fn weighting_all_positive(&self) -> bool {
        match self {
            Query::Weighted { weighting, .. } => weighting.weights().iter().all(|&w| w > 0.0),
            _ => true,
        }
    }

    /// The reference semantics: the grade of an object whose atomic
    /// grades are provided by `atom_grade` (by positional index into
    /// [`Query::atoms`] order is *not* assumed — lookup is by the atomic
    /// query itself).
    pub fn grade<F>(&self, atom_grade: &F) -> Result<Score, QueryError>
    where
        F: Fn(&AtomicQuery) -> Option<Score>,
    {
        match self {
            Query::Atomic(a) => atom_grade(a).ok_or_else(|| QueryError::MissingGrade(a.clone())),
            Query::And { children, scoring } | Query::Or { children, scoring } => {
                if children.is_empty() {
                    return Err(QueryError::EmptyCombination);
                }
                let grades = children
                    .iter()
                    .map(|c| c.grade(atom_grade))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(scoring.combine(&grades))
            }
            Query::Not(q) => Ok(q.grade(atom_grade)?.negate()),
            Query::Weighted {
                children,
                scoring,
                weighting,
            } => {
                if children.is_empty() {
                    return Err(QueryError::EmptyCombination);
                }
                let grades = children
                    .iter()
                    .map(|c| c.grade(atom_grade))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(weighted_combine(&**scoring, weighting, &grades))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::means::ArithmeticMean;

    fn red() -> Query {
        Query::atomic("Color", Target::Similar("red".into()))
    }

    fn round() -> Query {
        Query::atomic("Shape", Target::Similar("round".into()))
    }

    fn beatles() -> Query {
        Query::atomic("Artist", Target::Text("Beatles".into()))
    }

    fn grades<'a>(pairs: &'a [(&'a str, f64)]) -> impl Fn(&AtomicQuery) -> Option<Score> + 'a {
        move |a: &AtomicQuery| {
            pairs
                .iter()
                .find(|(attr, _)| *attr == a.attribute)
                .map(|&(_, g)| Score::clamped(g))
        }
    }

    #[test]
    fn paper_running_example_semantics() {
        // (Artist='Beatles') ∧ (AlbumColor='red') under min: crisp 1
        // passes the fuzzy grade through; crisp 0 kills it (§4.1).
        let q = Query::and(vec![beatles(), red()]);
        let g = q
            .grade(&grades(&[("Artist", 1.0), ("Color", 0.8)]))
            .unwrap();
        assert!(g.approx_eq(Score::clamped(0.8), 1e-12));
        let g0 = q
            .grade(&grades(&[("Artist", 0.0), ("Color", 0.8)]))
            .unwrap();
        assert_eq!(g0, Score::ZERO);
    }

    #[test]
    fn conjunction_and_disjunction_defaults() {
        let and = Query::and(vec![red(), round()]);
        let or = Query::or(vec![red(), round()]);
        let env = grades(&[("Color", 0.7), ("Shape", 0.4)]);
        assert!(and
            .grade(&env)
            .unwrap()
            .approx_eq(Score::clamped(0.4), 1e-12));
        assert!(or
            .grade(&env)
            .unwrap()
            .approx_eq(Score::clamped(0.7), 1e-12));
    }

    #[test]
    fn negation_rule() {
        let q = Query::not(red());
        let env = grades(&[("Color", 0.7)]);
        assert!(q.grade(&env).unwrap().approx_eq(Score::clamped(0.3), 1e-12));
        assert!(!q.is_monotone());
    }

    #[test]
    fn weighted_node_grades_via_fw_formula() {
        let theta = Weighting::from_ratios(&[2.0, 1.0]).unwrap();
        let q = Query::weighted(vec![red(), round()], Arc::new(Min), theta).unwrap();
        let env = grades(&[("Color", 0.9), ("Shape", 0.3)]);
        // θ = (2/3, 1/3) ordered; f_θ = (1/3)·0.9 + 2·(1/3)·min(0.9,0.3)
        //                              = 0.3 + 0.2 = 0.5.
        assert!(q.grade(&env).unwrap().approx_eq(Score::HALF, 1e-12));
        assert!(q.is_monotone());
        assert!(q.is_strict());
    }

    #[test]
    fn weighted_arity_mismatch_rejected() {
        let theta = Weighting::uniform(3).unwrap();
        let err = Query::weighted(vec![red(), round()], Arc::new(Min), theta).unwrap_err();
        assert!(matches!(
            err,
            QueryError::WeightArityMismatch {
                children: 2,
                weights: 3
            }
        ));
    }

    #[test]
    fn atoms_are_collected_in_order() {
        let q = Query::and(vec![beatles(), Query::or(vec![red(), round()])]);
        let attrs: Vec<_> = q.atoms().iter().map(|a| a.attribute.clone()).collect();
        assert_eq!(attrs, vec!["Artist", "Color", "Shape"]);
    }

    #[test]
    fn monotonicity_and_strictness_classification() {
        let conj = Query::and(vec![red(), round()]);
        assert!(conj.is_monotone());
        assert!(conj.is_strict());

        let disj = Query::or(vec![red(), round()]);
        assert!(disj.is_monotone());
        assert!(!disj.is_strict());

        let neg = Query::not(red());
        assert!(!neg.is_monotone());
        assert!(!neg.is_strict());

        let mean = Query::and_with(vec![red(), round()], Arc::new(ArithmeticMean));
        assert!(mean.is_monotone());
        assert!(mean.is_strict());
    }

    #[test]
    fn missing_grade_is_an_error() {
        let q = Query::and(vec![red(), round()]);
        let env = grades(&[("Color", 0.7)]);
        assert!(matches!(
            q.grade(&env),
            Err(QueryError::MissingGrade(a)) if a.attribute == "Shape"
        ));
    }

    #[test]
    fn empty_combination_is_an_error() {
        let q = Query::and(vec![]);
        let env = grades(&[]);
        assert_eq!(q.grade(&env), Err(QueryError::EmptyCombination));
    }

    #[test]
    fn display_renders_structure() {
        let q = Query::and(vec![beatles(), red()]);
        let s = q.to_string();
        assert!(s.contains("Artist='Beatles'"));
        assert!(s.contains("min"));
        assert!(s.contains('∧'));
    }
}
