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
//! The AST itself is evaluation-agnostic: [`Query::compile`] makes it
//! one scoring function of its leaves, and the middleware decides what
//! runs that. [`Query::grade`] is the *semantics*, the reference
//! evaluator of tests and oracles; both take one walk of the tree.

use std::fmt;
use std::sync::Arc;

use crate::score::Score;
use crate::scoring::tnorms::Min;
use crate::scoring::ScoringFunction;
use crate::weights::{weighted_combine, Weighted, Weighting};

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
        let (head, separator) = match self {
            Query::Atomic(a) => return write!(f, "{a}"),
            Query::Not(q) => return write!(f, "¬({q})"),
            Query::And { scoring, .. } => (format!("AND[{}]", scoring.name()), " ∧ "),
            Query::Or { scoring, .. } => (format!("OR[{}]", scoring.name()), " ∨ "),
            Query::Weighted {
                scoring, weighting, ..
            } => (
                format!("WEIGHTED[{};{:?}]", scoring.name(), weighting.weights()),
                ", ",
            ),
        };
        write!(f, "{head}(")?;
        for (i, c) in self.children().iter().enumerate() {
            write!(f, "{}{c}", if i > 0 { separator } else { "" })?;
        }
        write!(f, ")")
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
        if let Query::Atomic(a) = self {
            out.push(a);
        }
        for c in self.children() {
            c.collect_atoms(out);
        }
    }

    /// The node's operands: none for an atom, one for a `NOT`.
    pub fn children(&self) -> &[Query] {
        match self {
            Query::Atomic(_) => &[],
            Query::Not(q) => std::slice::from_ref(&**q),
            Query::And { children, .. }
            | Query::Or { children, .. }
            | Query::Weighted { children, .. } => children,
        }
    }

    /// True if the query is monotone in its leaves: every node's scoring
    /// function is monotone and every `NOT` applies directly to an atom
    /// (`NOT a` is monotone in `1 − a`). The precondition for running
    /// algorithm A₀ over the leaves' lists (§4.1: correctness requires
    /// monotonicity; [`Query::compile`]).
    pub fn is_monotone(&self) -> bool {
        let node = match self {
            Query::Atomic(_) => true,
            Query::Not(_) => self.leaf(true).is_some(),
            Query::And { scoring, .. }
            | Query::Or { scoring, .. }
            | Query::Weighted { scoring, .. } => scoring.is_monotone(),
        };
        node && self.children().iter().all(Query::is_monotone)
    }

    /// This node as a leaf `(atom, negated)`: an atom or, when
    /// `negated_atoms`, a `NOT` applied directly to an atom.
    fn leaf(&self, negated_atoms: bool) -> Option<(&AtomicQuery, bool)> {
        match self {
            Query::Atomic(a) => Some((a, false)),
            Query::Not(q) if negated_atoms => match &**q {
                Query::Atomic(a) => Some((a, true)),
                _ => None,
            },
            _ => None,
        }
    }

    /// True if the query is strict: its overall grade is 1 only when
    /// every atomic grade is 1 (the lower-bound hypothesis of
    /// Theorem 4.2). Conservative: `false` when any node cannot be
    /// certified strict.
    pub fn is_strict(&self) -> bool {
        let node = match self {
            Query::Atomic(_) => true,
            Query::And { scoring, .. } => scoring.is_strict(),
            // A disjunction is 1 as soon as one branch is 1: not strict
            // (unless unary, which we don't special-case).
            Query::Or { .. } | Query::Not(_) => false,
            Query::Weighted {
                scoring, weighting, ..
            } => scoring.is_strict() && weighting.weights().iter().all(|&w| w > 0.0),
        };
        node && self.children().iter().all(Query::is_strict)
    }

    /// The reference semantics: the grade of an object whose atomic
    /// grades are provided by `atom_grade` (by positional index into
    /// [`Query::atoms`] order is *not* assumed — lookup is by the atomic
    /// query itself).
    pub fn grade<F>(&self, atom_grade: &F) -> Result<Score, QueryError>
    where
        F: Fn(&AtomicQuery) -> Option<Score>,
    {
        self.grade_with(&mut |node| node.leaf(false).and_then(|(a, _)| atom_grade(a)))
    }

    /// The one walk every grade of a query takes: `leaf` grades the
    /// nodes it knows, every other node combines its children by its rule.
    fn grade_with<F>(&self, leaf: &mut F) -> Result<Score, QueryError>
    where
        F: FnMut(&Query) -> Option<Score>,
    {
        if let Some(grade) = leaf(self) {
            return Ok(grade);
        }
        if let Query::Atomic(a) = self {
            return Err(QueryError::MissingGrade(a.clone()));
        }
        if self.children().is_empty() {
            return Err(QueryError::EmptyCombination);
        }
        let grades = self
            .children()
            .iter()
            .map(|c| c.grade_with(leaf))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(match self {
            Query::And { scoring, .. } | Query::Or { scoring, .. } => scoring.combine(&grades),
            Query::Weighted {
                scoring, weighting, ..
            } => weighted_combine(&**scoring, weighting, &grades),
            // `NOT`, of its one child.
            _ => grades[0].negate(),
        })
    }

    /// The query as one scoring function of its distinct leaves, in
    /// first-occurrence order (§3: every node is a scoring function, so
    /// a tree of them is one).
    ///
    /// A leaf is an atom or, when the tree [`Query::is_monotone`], a
    /// negated atom; any other tree's leaves are its atoms, and its
    /// function is not monotone. The function takes [`Query::grade`]'s
    /// walk, so its grades are the reference grades bit for bit. A root
    /// whose children are the leaves themselves, in order, is its own
    /// function object — the `And` / `Or` rule, or the weighted rule —
    /// and a bare leaf is `min` over one argument. Fails where
    /// [`Query::grade`] would: on an empty combination.
    pub fn compile(&self) -> Result<(Vec<Leaf>, ScoringHandle), QueryError> {
        let monotone = self.is_monotone();
        let (mut leaves, mut positions) = (Vec::<Leaf>::new(), Vec::new());
        // One walk numbers the leaf occurrences and proves the tree
        // gradable, so the compiled function never meets an error.
        self.grade_with(&mut |node| {
            let (atom, negated) = node.leaf(monotone)?;
            let leaf = Leaf {
                atom: atom.clone(),
                negated,
            };
            let at = leaves.iter().position(|l| *l == leaf);
            positions.push(at.unwrap_or(leaves.len()));
            if at.is_none() {
                leaves.push(leaf);
            }
            Some(Score::ZERO)
        })?;
        let own = positions.iter().enumerate().all(|(i, &at)| i == at)
            && self.children().iter().all(|c| c.leaf(monotone).is_some());
        let scoring: ScoringHandle = match self {
            _ if self.leaf(monotone).is_some() => Arc::new(Min),
            Query::And { scoring, .. } | Query::Or { scoring, .. } if own => scoring.clone(),
            Query::Weighted {
                scoring, weighting, ..
            } if own => Arc::new(Weighted::new(scoring.clone(), weighting.clone())),
            _ => Arc::new(Tree {
                query: self.clone(),
                positions,
                monotone,
            }),
        };
        Ok((leaves, scoring))
    }
}

/// An argument of a compiled query ([`Query::compile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// The atom.
    pub atom: AtomicQuery,
    /// Whether the argument is `1 −` the atom's grade.
    pub negated: bool,
}

/// A compiled tree: [`Query::grade_with`] over the tree, its `i`-th
/// leaf occurrence reading argument `positions[i]`. Negated atoms are
/// leaves exactly when the tree is `monotone`.
struct Tree {
    query: Query,
    positions: Vec<usize>,
    monotone: bool,
}

impl ScoringFunction for Tree {
    fn name(&self) -> String {
        self.query.to_string()
    }

    fn combine(&self, scores: &[Score]) -> Score {
        let mut args = self.positions.iter().map(|&i| scores.get(i).copied());
        let mut leaf = |node: &Query| node.leaf(self.monotone).and_then(|_| args.next().flatten());
        let grade = self.query.grade_with(&mut leaf);
        // `compile` walked this tree once: it grades without error.
        grade.unwrap_or(Score::ZERO)
    }

    fn is_strict(&self) -> bool {
        self.query.is_strict()
    }

    fn is_monotone(&self) -> bool {
        self.monotone
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
        // Monotone in its leaf, `NOT Color='red'`; a negated compound is not.
        assert!(q.is_monotone());
        assert!(!Query::not(Query::and(vec![red(), round()])).is_monotone());
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
        assert!(neg.is_monotone());
        assert!(!neg.is_strict());
        assert!(!Query::not(disj).is_monotone());

        let mean = Query::and_with(vec![red(), round()], Arc::new(ArithmeticMean));
        assert!(mean.is_monotone());
        assert!(mean.is_strict());
    }

    #[test]
    fn compile_grades_its_distinct_leaves_as_the_walk_does() {
        // Flat over distinct leaves: the root keeps its own function.
        let flat = Query::and(vec![red(), Query::not(round())]);
        let (leaves, f) = flat.compile().unwrap();
        let negated: Vec<bool> = leaves.iter().map(|l| l.negated).collect();
        assert_eq!((negated, f.name()), (vec![false, true], "min".to_owned()));

        // Nested, with a repeated atom: one function of three leaves.
        let nested = Query::or(vec![
            Query::and_with(vec![red(), round()], Arc::new(ArithmeticMean)),
            Query::not(red()),
            red(),
        ]);
        let (leaves, f) = nested.compile().unwrap();
        assert_eq!(leaves.len(), 3);
        assert!(f.is_monotone());
        for (r, s) in [(0.1, 0.7), (0.3, 0.3), (0.85, 0.15), (1.0, 0.0)] {
            let want = nested
                .grade(&grades(&[("Color", r), ("Shape", s)]))
                .unwrap();
            let (r, s) = (Score::clamped(r), Score::clamped(s));
            assert_eq!(
                f.combine(&[r, s, r.negate()]).value().to_bits(),
                want.value().to_bits()
            );
        }

        // A negated compound: its leaves are its atoms, and it is not
        // monotone in them.
        let (leaves, f) = Query::not(flat).compile().unwrap();
        assert!(leaves.iter().all(|l| !l.negated) && !f.is_monotone());
        assert_eq!(
            Query::and(vec![]).compile().err(),
            Some(QueryError::EmptyCombination)
        );
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
