//! # fmdb-middleware — sorted/random access and top-k algorithms
//!
//! The middleware layer of the reproduction of Fagin, *"Fuzzy Queries
//! in Multimedia Database Systems"* (PODS 1998), §4: a multimedia
//! system is middleware over autonomous subsystems that expose grades
//! through **sorted access** and **random access** only.
//!
//! * [`source`] — the [`source::Subsystem`] access model (sorted and
//!   random access, each fallible) and in-memory sources;
//! * [`stats`] — database access cost accounting and charged cost
//!   models;
//! * [`algorithms`] — the evaluation strategies: naive, **A₀ (Fagin's
//!   Algorithm)**, the `m·k` max-merge disjunction, the threshold
//!   family (TA, NRA, CA, θ; extension), each run by its plan's
//!   [`algorithms::Cursor`], which also resumes it ("the next 10");
//!   and pruned A₀ and Chaudhuri–Gravano filter-condition simulation;
//! * [`request`] — the query description ([`request::TopKQuery`]) and
//!   the executable request ([`request::TopKRequest`] = query +
//!   policy) with shared source handles every strategy accepts;
//! * [`policy`] — the [`policy::ExecPolicy`] execution policy: the
//!   plan, charged cost model and θ-approximation;
//! * [`engine`] — the batched execution engine: the scalar kernels
//!   run on the caller's thread over batch-refilled sorted streams,
//!   bit-identical to the scalar algorithms; a bounded pool serves
//!   request batches;
//! * [`oracle`] — brute-force reference grading and top-k validity
//!   checking (used pervasively in tests);
//! * [`optimality`] — the per-instance optimality oracle: the cheapest
//!   certificate cost any deterministic algorithm must pay on a given
//!   instance, used to report empirical instance-optimality ratios;
//! * [`planner`] — the unified statistics-driven cost-based planner:
//!   per-source grade histograms price every physical strategy through
//!   the policy's cost model, and both auto-selection entry points
//!   (a policy naming no plan, and the Garlic planner) route through
//!   [`planner::choose_plan`];
//! * [`store`] — the persistent paged column store (§6's "more
//!   realistic cost measure" made physical): checksummed fixed-size
//!   pages holding a sorted run and a random-access grade table,
//!   written crash-safely in one shot, read on demand through a
//!   page-table buffer pool with pinned frames and a CLOCK hand, and
//!   exposed as [`store::PagedSource`] — bit-identical to a
//!   [`source::VecSource`] over the same pairs;
//! * [`workload`] — synthetic grade distributions: independent
//!   (Theorem 4.1's model), correlated, and the adversarial
//!   linear-lower-bound instance.
//!
//! ```
//! use fmdb_core::scoring::tnorms::Min;
//! use fmdb_middleware::algorithms::Cursor;
//! use fmdb_middleware::planner::PhysicalPlan;
//! use fmdb_middleware::source::Subsystem;
//! use fmdb_middleware::workload::independent_uniform;
//!
//! let mut sources = independent_uniform(10_000, 2, 42);
//! let mut refs: Vec<&mut dyn Subsystem> = sources
//!     .iter_mut()
//!     .map(|s| s as &mut dyn Subsystem)
//!     .collect();
//! let result = Cursor::once(PhysicalPlan::Fa, 0.0, &mut refs, &Min, 10).unwrap();
//! assert_eq!(result.answers.len(), 10);
//! // Far below the naive cost of 2N = 20,000 (Theorem 4.1):
//! assert!(result.stats.database_access_cost() < 10_000);
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "one per-thread site, the book's spares in `algorithms/book.rs` (a table's \
              buffers and the threshold kernel's ranking): scratch space a run clears when it \
              is done with it, so nothing but capacity outlives the run (clippy reads this \
              lint's level at the crate root only; `the_spare_is_the_crates_only_thread_local` \
              keeps the site the only one)"
)]

pub mod algorithms;
pub mod engine;
#[doc(hidden)]
pub mod frozen;
pub mod optimality;
pub mod oracle;
pub mod planner;
pub mod policy;
pub mod request;
pub mod source;
pub mod stats;
pub mod store;
pub mod workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::algorithms::cg_filter::CgFilter;
    pub use crate::algorithms::{AlgoError, BoundedAnswer, Cursor, NraResult, TopKResult};
    pub use crate::engine::{Engine, EngineConfig, EngineError};
    pub use crate::optimality::OptimalityOracle;
    pub use crate::oracle::{verify_top_k, verify_top_k_set};
    pub use crate::planner::{
        choose_plan, classify_combiner, CombinerKind, Explain, PhysicalPlan, PlanQuery, QueryStats,
        StatsBasis,
    };
    pub use crate::policy::ExecPolicy;
    pub use crate::request::{
        shared_source, SharedScoring, SharedSource, TopKQuery, TopKQueryBuilder, TopKRequest,
    };
    pub use crate::source::{
        Caps, Oid, SourceError, SourceInfo, SourceViolation, Subsystem, ValidatingSource, VecSource,
    };
    pub use crate::stats::{AccessStats, CostModel, PageIoStats};
    pub use crate::store::{
        build_store, build_store_from_source, BuildConfig, PagedSource, PagedStore, StoreError,
        StoreOptions,
    };
}
