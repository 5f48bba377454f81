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

use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::Engine;
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

/// Runs `algo` through the shared [`engine`] over copies of `sources`.
///
/// # Panics
/// Panics if the algorithm rejects the query — experiments only pass
/// valid (monotone, non-empty) configurations.
pub fn run_algo(
    algo: &dyn TopKAlgorithm,
    sources: &mut [VecSource],
    scoring: &SharedScoring,
    k: usize,
) -> TopKResult {
    let request = TopKQuery::compose()
        .sources(sources.iter().cloned())
        .shared_scoring(Arc::clone(scoring))
        .k(k)
        .request()
        .unwrap_or_else(|e| panic!("{} rejected request: {e}", algo.name()));
    engine()
        .run_algorithm(algo, &request)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()))
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

/// Averages the access stats of `algo` across seeds, generating fresh
/// sources per seed via `make_sources`.
pub fn mean_cost(
    algo: &dyn TopKAlgorithm,
    scoring: &SharedScoring,
    k: usize,
    seeds: u64,
    mut make_sources: impl FnMut(u64) -> Vec<VecSource>,
) -> AccessStats {
    let mut total = AccessStats::ZERO;
    for seed in 0..seeds {
        let mut sources = make_sources(seed);
        total += run_algo(algo, &mut sources, scoring, k).stats;
    }
    AccessStats::new(total.sorted / seeds, total.random / seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
    use fmdb_middleware::workload::independent_uniform;

    #[test]
    fn mean_cost_averages_over_seeds() {
        let min: SharedScoring = Arc::new(Min);
        let stats = mean_cost(&FaginsAlgorithm, &min, 3, 3, |seed| {
            independent_uniform(200, 2, seed)
        });
        assert!(stats.database_access_cost() > 0);
        assert!(stats.database_access_cost() < 400);
    }

    #[test]
    fn engine_routing_matches_direct_scalar_run() {
        use fmdb_core::scoring::ScoringFunction;
        use fmdb_middleware::source::GradedSource;
        let min: SharedScoring = Arc::new(Min);
        let mut sources = independent_uniform(300, 3, 17);
        let engine_result = run_algo(&FaginsAlgorithm, &mut sources, &min, 7);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let scalar = FaginsAlgorithm
            .top_k(&mut refs, &Min as &dyn ScoringFunction, 7)
            .unwrap();
        assert_eq!(engine_result.answers, scalar.answers);
        assert_eq!(engine_result.stats.sorted, scalar.stats.sorted);
        assert_eq!(engine_result.stats.random, scalar.stats.random);
    }

    #[test]
    fn policy_routing_matches_forced_algorithms() {
        use fmdb_middleware::policy::Algo;
        let min: SharedScoring = Arc::new(Min);
        let mut sources = independent_uniform(250, 2, 9);
        let policy_run = run_policy(ExecPolicy::new().algo(Algo::Ta), &mut sources, &min, 6);
        let forced = run_algo(
            &fmdb_middleware::algorithms::ta::ThresholdAlgorithm,
            &mut sources,
            &min,
            6,
        );
        assert_eq!(policy_run.answers, forced.answers);
        assert_eq!(policy_run.stats.sorted, forced.stats.sorted);
        assert_eq!(policy_run.stats.random, forced.stats.random);
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
