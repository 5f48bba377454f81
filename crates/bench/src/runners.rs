//! Shared helpers for the experiments.
//!
//! Every experiment routes its top-k runs through one process-wide
//! [`Engine`] behind the unified
//! [`TopKRequest`](fmdb_middleware::request::TopKRequest) API: sorted access is
//! batched, random access goes to the source as the kernel asks. The
//! engine is bit-identical to the scalar algorithms — same answers,
//! same charged `sorted`/`random` counts — so the reproduced numbers
//! are unaffected by the plumbing.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fmdb_middleware::algorithms::TopKResult;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{SharedScoring, TopKQuery};
use fmdb_middleware::source::VecSource;
use fmdb_middleware::stats::AccessStats;

/// Global run configuration for experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Quick mode shrinks every sweep so the full suite runs in
    /// seconds (used by integration tests and smoke runs).
    pub quick: bool,
    /// Number of random seeds to average over.
    pub seeds: u64,
}

impl RunCfg {
    /// Reads configuration from `FMDB_QUICK` / `--quick`.
    pub fn from_env() -> RunCfg {
        let quick =
            std::env::var_os("FMDB_QUICK").is_some() || std::env::args().any(|a| a == "--quick");
        RunCfg {
            quick,
            seeds: if quick { 2 } else { 5 },
        }
    }

    /// A quick configuration (for tests).
    pub fn quick() -> RunCfg {
        RunCfg {
            quick: true,
            seeds: 2,
        }
    }

    /// Picks between a full and a quick value.
    pub fn pick<T: Copy>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The median of `xs`: the upper middle value of an even count.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A ratio of two timings taken over rounds, each round timing both
/// sides back to back, so a burst on the host lands on both halves of
/// one round's ratio rather than on one side of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct RoundRatio {
    /// Median of the rounds' ratios.
    pub median: f64,
    /// The rounds' largest ratio ÷ their smallest: how far one round
    /// strays from another on the host that runs them.
    pub spread: f64,
}

impl RoundRatio {
    /// The ratio of `(numerator, denominator)` timings, one pair a round.
    pub fn of(rounds: impl IntoIterator<Item = (f64, f64)>) -> RoundRatio {
        let ratios: Vec<f64> = rounds.into_iter().map(|(num, den)| num / den).collect();
        let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        RoundRatio {
            median: median(ratios),
            spread: hi / lo,
        }
    }
}

/// The fastest of `reps` timed calls of `work`, in microseconds — a
/// floor, which a host that takes the processor away in bursts cannot
/// inflate.
pub fn fastest_us<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(work());
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The experiments' shared execution engine (default configuration:
/// sorted access in batches of 64).
pub fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::default)
}

/// Runs a request under an explicit [`ExecPolicy`] through the shared
/// [`engine`] — the policy resolves the algorithm (CA, θ-approximate
/// TA, …) and the charged cost model.
///
/// # Panics
/// Panics if the policy or query is rejected — experiments only pass
/// valid configurations.
pub fn run_policy(
    policy: ExecPolicy,
    sources: &mut [VecSource],
    scoring: &SharedScoring,
    k: usize,
) -> TopKResult {
    let request = TopKQuery::compose()
        .sources(sources.iter().cloned())
        .shared_scoring(Arc::clone(scoring))
        .k(k)
        .policy(policy)
        .request()
        .unwrap_or_else(|e| panic!("policy rejected request: {e}"));
    engine()
        .run(&request)
        .unwrap_or_else(|e| panic!("policy run failed: {e}"))
}

/// Averages the access stats of `plan` across seeds, generating fresh
/// sources per seed via `make_sources`.
pub fn mean_cost(
    plan: PhysicalPlan,
    scoring: &SharedScoring,
    k: usize,
    seeds: u64,
    mut make_sources: impl FnMut(u64) -> Vec<VecSource>,
) -> AccessStats {
    let policy = ExecPolicy::new().plan(plan);
    let mut total = AccessStats::ZERO;
    for seed in 0..seeds {
        total += run_policy(policy, &mut make_sources(seed), scoring, k).stats;
    }
    AccessStats::new(total.sorted / seeds, total.random / seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_middleware::algorithms::Cursor;
    use fmdb_middleware::source::Subsystem;
    use fmdb_middleware::workload::independent_uniform;

    #[test]
    fn mean_cost_averages_over_seeds() {
        let min: SharedScoring = Arc::new(Min);
        let stats = mean_cost(PhysicalPlan::Fa, &min, 3, 3, |seed| {
            independent_uniform(200, 2, seed)
        });
        assert!(stats.database_access_cost() > 0);
        assert!(stats.database_access_cost() < 400);
    }

    #[test]
    fn engine_routing_matches_direct_scalar_run() {
        let min: SharedScoring = Arc::new(Min);
        let mut sources = independent_uniform(300, 3, 17);
        let policy = ExecPolicy::new().plan(PhysicalPlan::Fa);
        let engine_result = run_policy(policy, &mut sources, &min, 7);
        let mut refs: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let scalar = Cursor::once(PhysicalPlan::Fa, 0.0, &mut refs, &Min, 7).unwrap();
        assert_eq!(engine_result.answers, scalar.answers);
        assert_eq!(engine_result.stats.sorted, scalar.stats.sorted);
        assert_eq!(engine_result.stats.random, scalar.stats.random);
    }

    #[test]
    fn pruned_a0_runs_through_the_engine_as_a_plan() {
        let min: SharedScoring = Arc::new(Min);
        let plan = PhysicalPlan::PrunedFa {
            short_circuit: true,
        };
        let mut sources = independent_uniform(250, 2, 9);
        let engine_run = run_policy(ExecPolicy::new().plan(plan), &mut sources, &min, 6);
        let mut refs: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let scalar = Cursor::once(plan, 0.0, &mut refs, &Min, 6).unwrap();
        assert_eq!(engine_run, scalar);
        let averaged = mean_cost(plan, &min, 6, 1, |_| independent_uniform(250, 2, 9));
        assert_eq!(averaged, scalar.stats);
    }

    #[test]
    fn cfg_pick() {
        let q = RunCfg::quick();
        assert_eq!(q.pick(100, 10), 10);
        let f = RunCfg {
            quick: false,
            seeds: 5,
        };
        assert_eq!(f.pick(100, 10), 100);
    }
}
