//! Access pricing (§4.2, §6) is the middleware's [`CostModel`]; every
//! estimate is `fmdb_middleware::planner::estimate_cost`'s.
//!
//! The frozen `perfbench/` and `tests/pinned_answers.rs` spell the cost
//! model `cost::CostEstimator`; the next `benchmark` PR drops this
//! module.
//!
//! [`CostModel`]: fmdb_middleware::stats::CostModel

pub use fmdb_middleware::stats::CostModel as CostEstimator;
