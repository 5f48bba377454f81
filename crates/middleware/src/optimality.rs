//! Per-instance optimality accounting (FLN instance optimality).
//!
//! Fagin–Lotem–Naor prove TA is *instance optimal*: on every database
//! instance its cost is within a constant factor of the best possible
//! cost for that instance. The proof compares against a **certificate
//! lower bound** — before any correct deterministic algorithm may halt,
//! the accesses it has performed must *prove* its answer set is a legal
//! (θ-approximate) top-k. This module computes, per instance, the
//! cheapest such certificate over all equal-depth sorted prefixes, so
//! experiments can report *empirical optimality ratios*
//! `charged(algorithm) / certificate(instance)` that are ≥ 1 by
//! construction and close to 1 exactly when the algorithm is close to
//! instance optimal (experiment E22).
//!
//! The certificate at sorted depth `d` (per stream, clamped to stream
//! length):
//!
//! * **Sorted units** `S(d) = Σᵢ min(d, nᵢ)` — every stream must be
//!   read to depth `d` to know the threshold `τ(d)` (combined bottom
//!   grades).
//! * **Feasibility** — depth `d` can certify an answer iff (a) no
//!   unseen object can beat the slack: `τ(d) ≤ (1+θ)·y_k`, where `y_k`
//!   is the true k-th grade, and (b) at least `k` seen objects have
//!   `(1+θ)·grade ≥ y_k` (there exists a legal answer set among the
//!   seen).
//! * **Probes** `P(d) = max(0, C(d) − k)` where `C(d)` counts seen
//!   objects whose depth-`d` upper bound exceeds `(1+θ)·y_k`: all but
//!   the `k` delivered answers of these contenders must be separated
//!   from the answer set, and sorted access alone (at this depth) does
//!   not do it. The `k` answers themselves may be delivered on lower
//!   bounds (NRA's set-delivery semantics), so they are never charged.
//!
//! The oracle cost under a [`CostModel`] is
//! `min over feasible d of c_S·S(d) + c_R·P(d)`. The curves depend on
//! `θ` but **not** on the cost model, so one sweep over depths prices
//! every cost ratio (E22 reuses one oracle across the whole E5 grid).

use std::collections::HashMap;

use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{grade_certifies, upper_excluded};
use crate::algorithms::{monotone, AlgoError};
use crate::planner::validate_theta;
use crate::source::{GradedSource, Oid};
use crate::stats::CostModel;

/// Sentinel for "this object never appears in that stream".
const ABSENT: usize = usize::MAX;

/// The certificate at one equal sorted depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthCurve {
    /// Sorted depth `d` (per stream, clamped to stream length).
    pub depth: usize,
    /// `S(d)`: total sorted accesses to reach this depth.
    pub sorted: u64,
    /// `P(d)`: random accesses the certificate charges at this depth
    /// (meaningful only when `feasible`).
    pub probes: u64,
    /// Whether a correct (θ-approximate) answer is certifiable here.
    pub feasible: bool,
}

/// The per-instance certificate lower bound for one query.
///
/// Build once per (instance, k, θ); price under any number of
/// [`CostModel`]s with [`OptimalityOracle::cheapest`].
#[derive(Debug, Clone)]
pub struct OptimalityOracle {
    theta: f64,
    kth_grade: Score,
    curves: Vec<DepthCurve>,
}

impl OptimalityOracle {
    /// Computes the certificate curves for the instance behind
    /// `sources` (drained and rewound; nothing is charged).
    ///
    /// `theta` is the approximation slack the certified answer is
    /// allowed (`0` for exact top-k). Costs `O(N²·m)` time — this is a
    /// measurement harness, not an algorithm.
    pub fn build(
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
        theta: f64,
    ) -> Result<OptimalityOracle, AlgoError> {
        if sources.is_empty() {
            return Err(AlgoError::NoSources);
        }
        if k == 0 {
            return Err(AlgoError::ZeroK);
        }
        monotone(scoring)?;
        validate_theta(theta)?;

        let m = sources.len();
        let mut lists: Vec<Vec<(Oid, Score)>> = Vec::with_capacity(m);
        for source in sources.iter_mut() {
            source.rewind();
            let mut list = Vec::new();
            while let Some(so) = source.sorted_next() {
                list.push((so.id, so.grade));
            }
            source.rewind();
            lists.push(list);
        }
        let n = lists.iter().map(Vec::len).max().unwrap_or(0);

        // Per-object slot grades and per-stream positions.
        let mut slots: HashMap<Oid, Vec<Score>> = HashMap::new();
        let mut positions: HashMap<Oid, Vec<usize>> = HashMap::new();
        for (i, list) in lists.iter().enumerate() {
            for (pos, &(oid, grade)) in list.iter().enumerate() {
                slots.entry(oid).or_insert_with(|| vec![Score::ZERO; m])[i] = grade;
                positions.entry(oid).or_insert_with(|| vec![ABSENT; m])[i] = pos;
            }
        }
        let universe = slots.len();

        // True combined grades, descending; y_k = the true k-th grade.
        let mut truth: HashMap<Oid, Score> = HashMap::with_capacity(universe);
        let mut ranked: Vec<Score> = Vec::with_capacity(universe);
        for (&oid, object_slots) in &slots {
            let g = scoring.combine(object_slots);
            truth.insert(oid, g);
            ranked.push(g);
        }
        ranked.sort_by(|a, b| b.cmp(a));
        let kth_grade = ranked
            .get(k.saturating_sub(1).min(ranked.len().saturating_sub(1)))
            .copied()
            .unwrap_or(Score::ZERO);
        let need = k.min(universe);

        let mut curves = Vec::with_capacity(n);
        let mut seen: Vec<Oid> = Vec::with_capacity(universe);
        let mut is_seen: HashMap<Oid, bool> = HashMap::with_capacity(universe);
        let mut certified_seen = 0usize;
        let mut sorted_units: u64 = 0;
        let mut slot_buf = vec![Score::ZERO; m];

        for d in 1..=n {
            // Advance each stream one row (streams shorter than d are
            // exhausted and contribute no further sorted units).
            for list in &lists {
                if let Some(&(oid, _)) = list.get(d - 1) {
                    sorted_units += 1;
                    let entry = is_seen.entry(oid).or_insert(false);
                    if !*entry {
                        *entry = true;
                        seen.push(oid);
                        if grade_certifies(
                            truth.get(&oid).copied().unwrap_or(Score::ZERO),
                            kth_grade,
                            theta,
                        ) {
                            certified_seen += 1;
                        }
                    }
                }
            }

            // τ(d): combine each stream's bottom grade at this depth.
            for (i, list) in lists.iter().enumerate() {
                slot_buf[i] = match list.get(d.min(list.len()).saturating_sub(1)) {
                    Some(&(_, grade)) => grade,
                    None => Score::ZERO,
                };
            }
            let tau = scoring.combine(&slot_buf);

            // C(d): seen contenders not excluded by their upper bound.
            let mut contenders = 0u64;
            for &oid in &seen {
                let (object_slots, object_positions) = match (slots.get(&oid), positions.get(&oid))
                {
                    (Some(s), Some(p)) => (s, p),
                    _ => continue,
                };
                for i in 0..m {
                    slot_buf[i] = if object_positions[i] < d {
                        object_slots[i]
                    } else {
                        match lists[i].get(d.min(lists[i].len()).saturating_sub(1)) {
                            Some(&(_, grade)) => grade,
                            None => Score::ZERO,
                        }
                    };
                }
                let upper = scoring.combine(&slot_buf);
                if !upper_excluded(upper, kth_grade, theta) {
                    contenders += 1;
                }
            }

            let feasible = certified_seen >= need && upper_excluded(tau, kth_grade, theta);
            let probes = contenders.saturating_sub(need as u64);
            curves.push(DepthCurve {
                depth: d,
                sorted: sorted_units,
                probes,
                feasible,
            });
        }

        Ok(OptimalityOracle {
            theta,
            kth_grade,
            curves,
        })
    }

    /// The cheapest feasible certificate under `model`.
    ///
    /// Returns `0.0` for an empty universe. Full depth is always
    /// feasible (every object seen, τ at the combined minima), so a
    /// non-empty instance always has a finite cost.
    pub fn cheapest(&self, model: &CostModel) -> f64 {
        let mut best = f64::INFINITY;
        for curve in &self.curves {
            if !curve.feasible {
                continue;
            }
            let cost =
                curve.sorted as f64 * model.sorted_unit + curve.probes as f64 * model.random_unit;
            if cost < best {
                best = cost;
            }
        }
        if best.is_finite() {
            best
        } else {
            // Defensive: no feasible depth recorded (empty universe).
            0.0
        }
    }

    /// The empirical optimality ratio `charged / cheapest`, ≥ 1 for
    /// every correct algorithm priced under the same `model` and θ.
    ///
    /// Degenerate instances with a zero-cost certificate report `1.0`.
    pub fn ratio(&self, charged: f64, model: &CostModel) -> f64 {
        let bound = self.cheapest(model);
        if bound > 0.0 {
            charged / bound
        } else {
            1.0
        }
    }

    /// The slack this oracle certifies against.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The instance's true k-th grade `y_k`.
    pub fn kth_grade(&self) -> Score {
        self.kth_grade
    }

    /// The per-depth certificate curves, ascending depth.
    pub fn curves(&self) -> &[DepthCurve] {
        &self.curves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Cursor, TopKResult};
    use crate::planner::PhysicalPlan;
    use crate::source::{Subsystem, VecSource};
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::tnorms::Min;

    fn refs(sources: &mut [VecSource]) -> Vec<&mut dyn GradedSource> {
        sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect()
    }

    fn run(plan: PhysicalPlan, theta: f64, sources: &mut [VecSource], k: usize) -> TopKResult {
        let mut refs: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        Cursor::once(plan, theta, &mut refs, &Min, k).unwrap()
    }

    fn models() -> Vec<CostModel> {
        [0.1, 1.0, 10.0, 100.0]
            .iter()
            .filter_map(|&r| CostModel::random_to_sorted_ratio(r))
            .collect()
    }

    #[test]
    fn oracle_lower_bounds_every_algorithm() {
        for seed in [3_u64, 17, 99] {
            let mut sources = independent_uniform(200, 2, seed);
            let k = 10;
            let oracle = OptimalityOracle::build(&mut refs(&mut sources), &Min, k, 0.0).unwrap();
            let plans = [
                PhysicalPlan::Ta,
                PhysicalPlan::Nra,
                PhysicalPlan::Fa,
                PhysicalPlan::Ca { h: 4 },
            ];
            for plan in plans {
                let result = run(plan, 0.0, &mut sources, k);
                for model in models() {
                    let charged = result.stats.charged(&model);
                    let bound = oracle.cheapest(&model);
                    assert!(
                        charged + 1e-9 >= bound,
                        "{plan} charged {charged} under {model:?}, below certificate {bound}"
                    );
                    assert!(oracle.ratio(charged, &model) >= 1.0 - 1e-9);
                }
            }
        }
    }

    #[test]
    fn oracle_lower_bounds_approximate_runs() {
        for theta in [0.01, 0.1, 0.5] {
            let mut sources = independent_uniform(200, 2, 7);
            let k = 10;
            let oracle = OptimalityOracle::build(&mut refs(&mut sources), &Min, k, theta).unwrap();
            let plans = [
                PhysicalPlan::ApproxTa,
                PhysicalPlan::ApproxNra,
                PhysicalPlan::Ca { h: 4 },
            ];
            for plan in plans {
                let result = run(plan, theta, &mut sources, k);
                for model in models() {
                    let charged = result.stats.charged(&model);
                    assert!(
                        charged + 1e-9 >= oracle.cheapest(&model),
                        "{plan} (θ={theta}) beat the certificate under {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn slack_never_raises_the_certificate() {
        let mut sources = independent_uniform(150, 3, 11);
        let exact = OptimalityOracle::build(&mut refs(&mut sources), &Min, 5, 0.0).unwrap();
        let relaxed = OptimalityOracle::build(&mut refs(&mut sources), &Min, 5, 0.5).unwrap();
        for model in models() {
            assert!(relaxed.cheapest(&model) <= exact.cheapest(&model) + 1e-9);
        }
    }

    #[test]
    fn full_depth_is_always_feasible_and_curves_ascend() {
        let mut sources = independent_uniform(64, 2, 5);
        let oracle = OptimalityOracle::build(&mut refs(&mut sources), &Min, 4, 0.0).unwrap();
        let curves = oracle.curves();
        assert_eq!(curves.len(), 64);
        assert!(curves.last().unwrap().feasible);
        for pair in curves.windows(2) {
            assert!(pair[0].sorted < pair[1].sorted);
            assert!(pair[0].depth + 1 == pair[1].depth);
        }
        assert!(oracle.kth_grade() > Score::ZERO);
    }

    #[test]
    fn build_validates_arguments() {
        let mut none: Vec<&mut dyn GradedSource> = Vec::new();
        assert_eq!(
            OptimalityOracle::build(&mut none, &Min, 3, 0.0).unwrap_err(),
            AlgoError::NoSources
        );
        let mut sources = independent_uniform(10, 2, 1);
        assert_eq!(
            OptimalityOracle::build(&mut refs(&mut sources), &Min, 0, 0.0).unwrap_err(),
            AlgoError::ZeroK
        );
        assert!(OptimalityOracle::build(&mut refs(&mut sources), &Min, 3, -0.5).is_err());
    }
}
