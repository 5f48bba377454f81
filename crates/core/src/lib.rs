//! # fmdb-core — fuzzy query foundations
//!
//! Core types for fuzzy queries in multimedia database systems, after
//! Ronald Fagin, *"Fuzzy Queries in Multimedia Database Systems"*,
//! PODS 1998:
//!
//! * [`score`] — grades in `[0, 1]` ([`score::Score`]);
//! * [`float`] — the workspace's single float-comparison epsilon and
//!   approx helpers (raw float `==` is linted away by
//!   `clippy::float_cmp`);
//! * [`graded_set`] — Zadeh graded ("fuzzy") sets, the common
//!   generalization of a set and a sorted list;
//! * [`scoring`] — scoring functions for Boolean combinations: t-norms,
//!   co-norms, negations, means, and runtime axiom auditing
//!   (Theorem 3.1 machinery);
//! * [`weights`] — the Fagin–Wimmers formula for weighting the
//!   importance of subqueries (§5, \[FW97\]);
//! * [`query`] — the query AST (atomic queries and their Boolean
//!   combinations) with reference grading semantics;
//! * [`stats`] — equi-depth grade-distribution histograms
//!   ([`stats::GradeHistogram`]), the per-source statistics the
//!   middleware's cost-based planner prices strategies with.
//!
//! Algorithms that *evaluate* queries against subsystems with sorted
//! and random access live in the `fmdb-middleware` crate; this crate is
//! purely the semantic layer.
//!
//! ```
//! use fmdb_core::prelude::*;
//!
//! // Grade the paper's running example by hand.
//! let q = Query::and(vec![
//!     Query::atomic("Artist", Target::Text("Beatles".into())),
//!     Query::atomic("AlbumColor", Target::Similar("red".into())),
//! ]);
//! let grade = q
//!     .grade(&|atom| {
//!         Some(match atom.attribute.as_str() {
//!             "Artist" => Score::crisp(true),
//!             _ => Score::clamped(0.83),
//!         })
//!     })
//!     .unwrap();
//! assert!(grade.approx_eq(Score::clamped(0.83), 1e-12));
//! ```

pub mod float;
pub mod graded_set;
pub mod query;
pub mod score;
pub mod scoring;
pub mod stats;
pub mod weights;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::graded_set::GradedSet;
    pub use crate::query::{AtomicQuery, Query, Target};
    pub use crate::score::{Score, ScoredObject};
    pub use crate::scoring::conorms::Max;
    pub use crate::scoring::means::ArithmeticMean;
    pub use crate::scoring::tnorms::{Min, Product};
    pub use crate::scoring::{Conorm, ConormScoring, ScoringFunction, TNorm};
    pub use crate::stats::GradeHistogram;
    pub use crate::weights::{weighted_combine, Weighted, Weighting};
}
