//! Execution policy: *how* a top-k query should be evaluated.
//!
//! The request API separates two concerns the original monolithic
//! builder conflated:
//!
//! * the **query** — sources, scoring, weights, `k`
//!   ([`crate::request::TopKQuery`]): *what* to compute;
//! * the **policy** — [`ExecPolicy`]: *how* to compute it. The
//!   [`PhysicalPlan`] that runs, the access [`CostModel`]
//!   (Fagin–Lotem–Naor's `c_S`/`c_R`) and the grade slack θ.
//!
//! A policy naming no plan defers the choice to the unified cost-based
//! planner ([`crate::planner`]). [`crate::engine::Engine::run`] gathers
//! per-source statistics and routes through
//! [`crate::planner::choose_plan`]; resolving a policy *without*
//! statistics ([`ExecPolicy::resolve`]) applies the planner's
//! documented static fallback — TA under (near-)uniform costs, NRA once
//! the interleave depth `⌊c_R/c_S⌋` reaches 2, and the θ-approximate
//! variants under `θ > 0`. Never Fagin's A₀: measured sweeps (E22) put
//! TA/NRA at or below A₀'s charged cost everywhere, so A₀ runs only
//! when named.
//!
//! ```
//! use fmdb_middleware::planner::PhysicalPlan;
//! use fmdb_middleware::policy::ExecPolicy;
//! use fmdb_middleware::stats::CostModel;
//!
//! // CA under "a random access costs 30 sorted ones", tolerating 10%
//! // grade slack: CA interleaves at the cost model's depth.
//! let policy = ExecPolicy::new()
//!     .plan(PhysicalPlan::Ca { h: 1 })
//!     .cost_model(CostModel::random_to_sorted_ratio(30.0).unwrap_or(CostModel::UNIFORM))
//!     .theta(0.1);
//! assert_eq!(policy.resolve(), Ok(PhysicalPlan::Ca { h: 30 }));
//! ```

use crate::algorithms::AlgoError;
use crate::planner::{static_plan, PhysicalPlan};
use crate::stats::CostModel;

#[doc(hidden)]
pub use crate::frozen::Algo;

/// How a [`crate::request::TopKRequest`] should be executed; see the
/// module docs for the split against [`crate::request::TopKQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// The strategy the caller names; `None` lets the planner choose.
    pub plan: Option<PhysicalPlan>,
    /// Unit prices for sorted/random access — drive the planner's
    /// choice and CA's interleave depth.
    pub cost: CostModel,
    /// Tolerated grade slack θ: every returned object's true grade
    /// times `(1 + θ)` is at least every other object's. 0 is exact.
    pub theta: f64,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::DEFAULT
    }
}

impl ExecPolicy {
    /// The default policy: the planner's choice under the paper's
    /// uniform cost measure, exact answers.
    pub const DEFAULT: ExecPolicy = ExecPolicy {
        plan: None,
        cost: CostModel::UNIFORM,
        theta: 0.0,
    };

    /// Starts from the defaults; chain the setters to specialize.
    pub fn new() -> ExecPolicy {
        ExecPolicy::DEFAULT
    }

    /// Names the plan that runs, as [`ExecPolicy::resolve`] reads it.
    pub fn plan(mut self, plan: PhysicalPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Sets the access cost model (the measured `c_S`/`c_R`).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Tolerates a `(1 + θ)` grade slack.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// CA's interleave depth `h = max(1, ⌊c_R/c_S⌋)`: one random-access
    /// step per `h` sorted-access rounds.
    pub fn interleave(&self) -> usize {
        interleave_depth(&self.cost)
    }

    fn validate_cost(&self) -> Result<(), AlgoError> {
        let CostModel {
            sorted_unit,
            random_unit,
        } = self.cost;
        let positive = |unit: f64| unit.is_finite() && unit > 0.0;
        if positive(sorted_unit) && positive(random_unit) {
            Ok(())
        } else {
            Err(AlgoError::InvalidRequest(format!(
                "cost model units must be finite and > 0, got c_S = {sorted_unit}, c_R = {random_unit}"
            )))
        }
    }

    /// The plan this policy runs without looking at any statistics, or
    /// an [`AlgoError::InvalidRequest`] for inconsistent knobs
    /// (non-positive cost units, or what [`PhysicalPlan`]'s rule for θ
    /// refuses). Read after every setter has run, so their order does
    /// not matter.
    ///
    /// A named plan runs under θ by that one rule, and CA at the cost
    /// model's depth [`ExecPolicy::interleave`] whatever `h` it was
    /// named with. No plan is the planner's stats-free fallback
    /// ([`static_plan`]); the engine substitutes the stats-driven
    /// choice when it can gather histograms (`Engine::run`).
    pub fn resolve(&self) -> Result<PhysicalPlan, AlgoError> {
        self.validate_cost()?;
        let named = match self.plan {
            None => static_plan(false, self.theta > 0.0, self.interleave()),
            Some(PhysicalPlan::Ca { .. }) => PhysicalPlan::Ca {
                h: self.interleave(),
            },
            Some(plan) => plan,
        };
        named.under(self.theta)
    }
}

/// `max(1, ⌊c_R/c_S⌋)` with non-finite ratios degraded to 1.
pub(crate) fn interleave_depth(cost: &CostModel) -> usize {
    let ratio = cost.random_unit / cost.sorted_unit;
    if ratio.is_finite() && ratio >= 1.0 {
        // `ratio` is finite and ≥ 1, so the cast cannot wrap for any
        // realistic cost model; usize::MAX saturation is fine beyond.
        ratio.floor() as usize
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(r: f64) -> CostModel {
        CostModel::random_to_sorted_ratio(r).unwrap()
    }

    #[test]
    fn interleave_follows_the_cost_ratio() {
        assert_eq!(ExecPolicy::new().interleave(), 1);
        assert_eq!(ExecPolicy::new().cost_model(ratio(0.1)).interleave(), 1);
        assert_eq!(ExecPolicy::new().cost_model(ratio(3.0)).interleave(), 3);
        assert_eq!(ExecPolicy::new().cost_model(ratio(100.0)).interleave(), 100);
        // Ratio 1.9 floors to h = 1: random access is still cheap
        // enough for TA, and a cost model with a zero unit is refused.
        let policy = ExecPolicy::new().cost_model(ratio(1.9));
        assert_eq!(policy.resolve(), Ok(PhysicalPlan::Ta));
        let broken = CostModel {
            sorted_unit: 0.0,
            random_unit: 1.0,
        };
        assert!(ExecPolicy::new().cost_model(broken).resolve().is_err());
    }
}
