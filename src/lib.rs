//! # fuzzymm — Fuzzy Queries in Multimedia Database Systems
//!
//! A full Rust reproduction of Ronald Fagin, *"Fuzzy Queries in
//! Multimedia Database Systems"*, PODS 1998: graded sets and scoring
//! functions, Fagin's algorithm A₀ and its relatives over
//! sorted/random-access subsystems, the Fagin–Wimmers weighting
//! formula, QBIC-style feature distances with distance-bounding
//! filters, multidimensional access methods, and a Garlic-like
//! middleware with planner and executor.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] — scores, graded sets, scoring functions, weights, query AST;
//! * [`middleware`] — the access model, cost accounting, and top-k
//!   algorithms (naive, A₀, max-merge, the TA / NRA / CA family, pruned
//!   A₀, CG filters);
//! * [`media`] — color histograms, quadratic-form distance, distance
//!   bounding, shape descriptors, synthetic data;
//! * [`index`] — R-tree, grid file, linear scan, precomputed
//!   distances, filter-and-refine;
//! * [`garlic`] — repositories, catalog, planner, executor, SQL-ish
//!   syntax, demos.
//!
//! ```
//! use fuzzymm::garlic::demo::cd_store;
//! use fuzzymm::garlic::sql::parse;
//!
//! let store = cd_store(40, 7);
//! let stmt = parse("SELECT TOP 3 WHERE Artist='Beatles' AND Color~'red'").unwrap();
//! let hits = store.top_k(&stmt.query, stmt.k).unwrap();
//! assert_eq!(hits.answers.len(), 3);
//! ```

pub use fmdb_core as core;
pub use fmdb_garlic as garlic;
pub use fmdb_index as index;
pub use fmdb_media as media;
pub use fmdb_middleware as middleware;

/// One-stop prelude with the most commonly used items (curated, since
/// several member preludes export overlapping names like `Oid`).
pub mod prelude {
    pub use fmdb_core::graded_set::GradedSet;
    pub use fmdb_core::query::{AtomicQuery, Query, Target};
    pub use fmdb_core::score::{Score, ScoredObject};
    pub use fmdb_core::scoring::tnorms::{Min, Product};
    pub use fmdb_core::scoring::{Conorm, ConormScoring, ScoringFunction, TNorm};
    pub use fmdb_core::weights::{weighted_combine, Weighted, Weighting};
    pub use fmdb_garlic::catalog::Catalog;
    pub use fmdb_garlic::demo::{ad_database, cd_store};
    pub use fmdb_garlic::executor::{AlgoChoice, Garlic, QueryCursor, QueryResult};
    pub use fmdb_garlic::planner::PlanKind;
    pub use fmdb_garlic::repository::{QbicRepository, TableRepository};
    pub use fmdb_garlic::sql::parse;
    pub use fmdb_index::prelude::{
        FilterRefineIndex, GridFile, LinearScan, PrecomputedDistances, QuadTree, RTree,
    };
    pub use fmdb_media::prelude::{
        ColorHistogram, ColorSpace, HistogramDistance, Polygon, QuadraticFormDistance, Rgb,
        SynthConfig, SyntheticDb,
    };
    pub use fmdb_middleware::prelude::{
        AccessStats, AlgoError, CostModel, Cursor, Engine, EngineConfig, ExecPolicy, Oid,
        OptimalityOracle, PagedSource, PagedStore, PrunedFa, SharedScoring, SourceError,
        SourceInfo, StoreError, Subsystem, TopKAlgorithm, TopKQuery, TopKRequest, TopKResult,
        ValidatingSource, VecSource,
    };
    pub use fmdb_middleware::workload::independent_uniform;
}
