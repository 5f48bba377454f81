//! What the suites share: a plan's one-shot run as a [`TopKAlgorithm`],
//! for rosters that run plans beside the strategies no plan names.

use fmdb_core::scoring::ScoringFunction;
use fmdb_middleware::algorithms::{AlgoError, Cursor, TopKAlgorithm, TopKResult};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::Subsystem;

/// A plan and its slack θ, run by [`Cursor::once`].
pub struct Planned(pub PhysicalPlan, pub f64);

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
