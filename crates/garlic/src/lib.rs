//! # fmdb-garlic — the multimedia middleware layer
//!
//! The Garlic-like integration layer (§4) of the reproduction of
//! Fagin, *"Fuzzy Queries in Multimedia Database Systems"*
//! (PODS 1998): autonomous repositories behind a catalog, a planner
//! choosing between the crisp-filter strategy, the A₀ / threshold
//! family, the m·k disjunction merge and the naive scan for any query
//! tree, and an executor that meters every database access.
//!
//! * [`object`] — global ids, values, complex objects
//!   (Advertisement/AdPhoto) with shared sub-objects;
//! * [`idmap`] — enforced one-to-one id mappings across subsystems;
//! * [`repository`] — the relational table and QBIC-style image
//!   repositories;
//! * [`catalog`] — attribute routing + id translation;
//! * [`planner`] — `bind` (grade each distinct atom once) then
//!   `optimize` (§4.2's optimizer: the bound lists described to
//!   `fmdb_middleware::planner::choose_plan`, whose plan enum, cost
//!   formulas and combiner classifier garlic shares);
//! * [`cost`] — a re-export of the middleware's cost model;
//! * [`executor`] — the [`executor::Garlic`] facade;
//! * [`sql`] — a small SQL-ish query syntax (extension);
//! * [`demo`] — the paper's CD-store and advertisement examples,
//!   prebuilt.
//!
//! ```
//! use fmdb_garlic::demo::cd_store;
//! use fmdb_garlic::sql::parse;
//!
//! let garlic = cd_store(60, 42);
//! let stmt = parse("SELECT TOP 5 WHERE Artist='Beatles' AND Color~'red'").unwrap();
//! let result = garlic.top_k(&stmt.query, stmt.k).unwrap();
//! assert_eq!(result.answers.len(), 5);
//! println!("plan: {} cost: {}", result.plan, result.stats);
//! ```

pub mod catalog;
pub mod cost;
pub mod demo;
pub mod executor;
pub mod idmap;
pub mod object;
pub mod planner;
pub mod repository;
pub mod sql;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::demo::{ad_database, cd_store};
    pub use crate::executor::{AlgoChoice, ExecError, Garlic, QueryCursor, QueryResult};
    pub use crate::idmap::IdMapper;
    pub use crate::object::{ComplexObject, Oid, SubObjectIndex, Value};
    pub use crate::planner::{plan_costed, PlanKind};
    pub use crate::repository::{named_color, QbicRepository, Repository, TableRepository};
    pub use crate::sql::parse;
}
