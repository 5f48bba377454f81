//! Execution policy: *how* a top-k query should be evaluated.
//!
//! The request API separates two concerns the original monolithic
//! builder conflated:
//!
//! * the **query** — sources, scoring, weights, `k`
//!   ([`crate::request::TopKQuery`]): *what* to compute;
//! * the **policy** — [`ExecPolicy`]: *how* to compute it. Algorithm
//!   choice ([`Algo`]), the access [`CostModel`] (Fagin–Lotem–Naor's
//!   `c_S`/`c_R`) and the grade slack ([`Approximation`]).
//!
//! [`Algo::Auto`] defers the choice to the unified cost-based planner
//! ([`crate::planner`]). [`crate::engine::Engine::run`] gathers
//! per-source statistics and routes through
//! [`crate::planner::choose_plan`]; resolving a policy *without*
//! statistics (this module's [`ExecPolicy::algorithm`]) applies the
//! planner's documented static fallback — TA under (near-)uniform
//! costs, NRA once the interleave depth `⌊c_R/c_S⌋` reaches 2, and the
//! θ-approximate variants under `θ > 0`. Never Fagin's A₀: measured
//! sweeps (E22) put TA/NRA at or below A₀'s charged cost everywhere,
//! so A₀ remains available only by explicit selection.
//!
//! ```
//! use fmdb_middleware::policy::{Algo, ExecPolicy};
//! use fmdb_middleware::stats::CostModel;
//!
//! // Explicit CA under "a random access costs 30 sorted ones",
//! // tolerating 10% grade slack.
//! let policy = ExecPolicy::new()
//!     .algo(Algo::Ca)
//!     .cost_model(CostModel::random_to_sorted_ratio(30.0).unwrap_or(CostModel::UNIFORM))
//!     .theta(0.1);
//! assert_eq!(policy.interleave(), 30);
//! ```

use crate::algorithms::{AlgoError, TopKAlgorithm};
use crate::planner::{plan_algorithm, static_plan, PhysicalPlan};
use crate::stats::CostModel;

/// Which aggregation algorithm evaluates the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// Let the planner pick. With per-source statistics (the engine
    /// path) every strategy is priced through the cost model and the
    /// cheapest wins; without statistics the static fallback applies:
    /// TA under (near-)uniform costs, NRA when `⌊c_R/c_S⌋ ≥ 2`, their
    /// θ-approximate variants under `θ > 0`.
    #[default]
    Auto,
    /// Fagin's A₀ (the paper's algorithm). Exact only.
    Fa,
    /// The Threshold Algorithm.
    Ta,
    /// No-random-access; reported grades are certified lower bounds.
    Nra,
    /// The Combined Algorithm: NRA-style rounds with one random-access
    /// step every `⌊c_R/c_S⌋` rounds (Fagin–Lotem–Naor §6).
    Ca,
}

/// The grade slack a caller tolerates in exchange for access savings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Approximation {
    /// The true top k, exactly.
    #[default]
    Exact,
    /// A θ-approximation: every returned object's true grade times
    /// `(1 + θ)` is at least every non-returned object's true grade.
    Theta(f64),
}

impl Approximation {
    /// The slack as a plain number (`Exact` is `θ = 0`).
    pub fn theta(&self) -> f64 {
        match self {
            Approximation::Exact => 0.0,
            Approximation::Theta(t) => *t,
        }
    }

    /// True when the policy actually relaxes the answer (`θ > 0`).
    pub fn is_approximate(&self) -> bool {
        self.theta() > 0.0
    }

    fn validate(&self) -> Result<(), AlgoError> {
        let theta = self.theta();
        if theta.is_finite() && theta >= 0.0 {
            Ok(())
        } else {
            Err(AlgoError::InvalidRequest(format!(
                "approximation slack θ must be finite and ≥ 0, got {theta}"
            )))
        }
    }
}

/// How a [`crate::request::TopKRequest`] should be executed; see the
/// module docs for the split against [`crate::request::TopKQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Algorithm choice.
    pub algo: Algo,
    /// Unit prices for sorted/random access — drives [`Algo::Auto`]
    /// and CA's interleave depth.
    pub cost: CostModel,
    /// Tolerated grade slack.
    pub approximation: Approximation,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::DEFAULT
    }
}

impl ExecPolicy {
    /// The default policy: `Auto` under the paper's uniform cost
    /// measure, exact answers.
    pub const DEFAULT: ExecPolicy = ExecPolicy {
        algo: Algo::Auto,
        cost: CostModel::UNIFORM,
        approximation: Approximation::Exact,
    };

    /// Starts from the defaults; chain the setters to specialize.
    pub fn new() -> ExecPolicy {
        ExecPolicy::DEFAULT
    }

    /// Picks the algorithm.
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Sets the access cost model (the measured `c_S`/`c_R`).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Tolerates a `(1 + θ)` grade slack.
    pub fn theta(mut self, theta: f64) -> Self {
        self.approximation = Approximation::Theta(theta);
        self
    }

    /// Demands the exact answer (the default).
    pub fn exact(mut self) -> Self {
        self.approximation = Approximation::Exact;
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

    /// The physical plan this policy names without looking at any
    /// statistics — the one `Algo` → plan table — or an
    /// [`AlgoError::InvalidRequest`] for inconsistent knobs (negative
    /// or non-finite θ, non-positive cost units, θ-approximate FA).
    ///
    /// An explicit [`Algo`] is that algorithm (its θ-variant under
    /// `θ > 0`). [`Algo::Auto`] is the planner's stats-free fallback
    /// ([`static_plan`]); the engine substitutes the stats-driven
    /// choice when it can gather histograms (`Engine::run`).
    pub fn plan(&self) -> Result<PhysicalPlan, AlgoError> {
        self.validate_cost()?;
        self.approximation.validate()?;
        let approximate = self.approximation.is_approximate();
        Ok(match (self.algo, approximate) {
            (Algo::Auto, _) => static_plan(false, approximate, self.interleave()),
            (Algo::Fa, true) => {
                return Err(AlgoError::InvalidRequest(
                    "θ-approximation is not defined for Fagin's A₀; pick Ta, Nra, Ca, or Auto"
                        .to_owned(),
                ));
            }
            (Algo::Fa, false) => PhysicalPlan::Fa,
            (Algo::Ta, true) => PhysicalPlan::ApproxTa,
            (Algo::Ta, false) => PhysicalPlan::Ta,
            (Algo::Nra, true) => PhysicalPlan::ApproxNra,
            (Algo::Nra, false) => PhysicalPlan::Nra,
            (Algo::Ca, _) => PhysicalPlan::Ca {
                h: self.interleave(),
            },
        })
    }

    /// Resolves the policy to a concrete algorithm instance: the
    /// algorithm executing [`ExecPolicy::plan`], with the same errors.
    pub fn algorithm(&self) -> Result<Box<dyn TopKAlgorithm + Send + Sync>, AlgoError> {
        let plan = self.plan()?;
        plan_algorithm(plan, self.approximation.theta()).ok_or_else(|| {
            // `plan` only ever names algorithm-backed plans; keep a
            // non-panicking answer regardless.
            AlgoError::InvalidRequest(format!("plan {plan} is not a middleware algorithm"))
        })
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
    fn defaults_resolve_to_ta() {
        // The static fallback (no statistics) under uniform costs:
        // the Threshold Algorithm, never Fagin's A₀.
        let algo = ExecPolicy::new().algorithm().unwrap();
        assert_eq!(algo.name(), "threshold-ta");
    }

    #[test]
    fn auto_picks_nra_when_random_access_is_expensive() {
        let algo = ExecPolicy::new()
            .cost_model(ratio(10.0))
            .algorithm()
            .unwrap();
        assert_eq!(algo.name(), "nra-lower-bound");
        // Ratio 1.9 floors to h = 1: random access is still cheap
        // enough for TA's eager resolution.
        let algo = ExecPolicy::new()
            .cost_model(ratio(1.9))
            .algorithm()
            .unwrap();
        assert_eq!(algo.name(), "threshold-ta");
    }

    #[test]
    fn auto_picks_approx_ta_under_theta() {
        let algo = ExecPolicy::new().theta(0.1).algorithm().unwrap();
        assert_eq!(algo.name(), "approx-ta");
        // θ > 0 with expensive random access: the sorted-only
        // approximate variant.
        let algo = ExecPolicy::new()
            .theta(0.1)
            .cost_model(ratio(10.0))
            .algorithm()
            .unwrap();
        assert_eq!(algo.name(), "approx-nra");
        // θ = 0 through the Theta variant is still exact-equivalent
        // and must resolve like Exact.
        let algo = ExecPolicy::new().theta(0.0).algorithm().unwrap();
        assert_eq!(algo.name(), "threshold-ta");
    }

    #[test]
    fn explicit_choices_resolve_as_named() {
        for (choice, exact_name, theta_name) in [
            (Algo::Ta, "threshold-ta", "approx-ta"),
            (Algo::Nra, "nra-lower-bound", "approx-nra"),
            (Algo::Ca, "combined-ca", "combined-ca"),
        ] {
            let exact = ExecPolicy::new().algo(choice).algorithm().unwrap();
            assert_eq!(exact.name(), exact_name);
            let approx = ExecPolicy::new()
                .algo(choice)
                .theta(0.5)
                .algorithm()
                .unwrap();
            assert_eq!(approx.name(), theta_name);
        }
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        assert!(ExecPolicy::new().theta(-0.5).algorithm().is_err());
        assert!(ExecPolicy::new().theta(f64::NAN).algorithm().is_err());
        assert!(ExecPolicy::new()
            .algo(Algo::Fa)
            .theta(0.1)
            .algorithm()
            .is_err());
        let broken = CostModel {
            sorted_unit: 0.0,
            random_unit: 1.0,
        };
        assert!(ExecPolicy::new().cost_model(broken).algorithm().is_err());
    }

    #[test]
    fn interleave_follows_the_cost_ratio() {
        assert_eq!(ExecPolicy::new().interleave(), 1);
        assert_eq!(ExecPolicy::new().cost_model(ratio(0.1)).interleave(), 1);
        assert_eq!(ExecPolicy::new().cost_model(ratio(3.0)).interleave(), 3);
        assert_eq!(ExecPolicy::new().cost_model(ratio(100.0)).interleave(), 100);
    }
}
