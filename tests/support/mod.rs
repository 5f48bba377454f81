//! What the suites share: a plan's one-shot run as a [`TopKAlgorithm`],
//! for rosters that run plans beside the strategies no plan names.

use fuzzymm::core::scoring::ScoringFunction;
use fuzzymm::middleware::algorithms::{AlgoError, Cursor, TopKAlgorithm, TopKResult};
use fuzzymm::middleware::planner::PhysicalPlan;
use fuzzymm::middleware::source::Subsystem;

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
