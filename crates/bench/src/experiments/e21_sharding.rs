//! E21 — extension: sharded intra-query execution.
//!
//! PR 1's engine parallelizes *across* requests; the ROADMAP's "as
//! fast as the hardware allows" needs parallelism *inside* one
//! expensive query too. The sharded path partitions every source into
//! P disjoint shards, runs the TA kernel per shard on scoped workers,
//! and lets shards cooperate through a shared atomic bound on the
//! global k-th grade so a shard with weak candidates stops early
//! against the *global* answer. This experiment measures what the
//! partitioning costs and saves, and re-checks the headline invariant:
//! the sharded answers equal the serial answers bit for bit.

use std::sync::Arc;
use std::time::Instant;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{SharedScoring, TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, SourcePartitioner};
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, int, Bound, Report, Table};

/// Why E21's three metrics are gated at all: whether sharding stays is
/// ROADMAP item 3's call, and these are the numbers it is decided on.
const KEPT_FOR_ITEM_3: &str =
    "present and positive is all that is asked: the numbers ROADMAP item 3 decides sharding on";
use crate::runners::{fastest_us, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E21",
        "sharded intra-query execution (partition-parallel TA)",
        "extension: Fagin-style middleware merges are partitionable — per-shard TA with a \
         shared global threshold returns the identical top-k on tie-free lists while \
         spreading the scan over worker threads",
    );
    let n = cfg.pick(1 << 16, 1 << 11);
    let m = 2usize;
    let k = 10usize;

    // Sharding is a per-request policy: the same default engine serves
    // every shard count, and one shard is the serial path.
    let make_request = |seed: u64, shards: usize| -> TopKRequest {
        TopKQuery::compose()
            .sources(independent_uniform(n, m, seed))
            .shared_scoring(Arc::clone(&min))
            .k(k)
            .policy(ExecPolicy::new().sharded_over(shards))
            .request()
            .expect("valid request")
    };
    let engine = Engine::default();

    let mut t = Table::new(
        format!("wall-clock and access cost, N = {n}, m = {m}, k = {k}, min"),
        &["shards", "wall µs", "sorted", "random", "spawns", "speedup"],
    );
    let mut serial_wall = 0.0f64;
    let mut serial_cost = 0u64;
    let mut mismatches = 0usize;
    for shards in [1usize, 2, 4, 8] {
        let mut wall = 0.0f64;
        let mut sorted = 0u64;
        let mut random = 0u64;
        let mut spawns = 0u64;
        for seed in 0..cfg.seeds {
            let request = make_request(seed, shards);
            let t0 = Instant::now();
            let result = engine
                .run_algorithm(&ThresholdAlgorithm, &request)
                .expect("sharded TA run");
            wall += t0.elapsed().as_secs_f64() * 1e6;
            sorted += result.stats.sorted;
            random += result.stats.random;
            spawns += result.stats.worker_spawns;
            // Headline invariant, re-checked on the measured corpora
            // against a request pinned to the serial path.
            let serial = engine
                .run_algorithm(&ThresholdAlgorithm, &make_request(seed, 1))
                .expect("serial TA run");
            if serial.answers != result.answers {
                mismatches += 1;
            }
        }
        wall /= cfg.seeds as f64;
        if shards == 1 {
            serial_wall = wall;
            serial_cost = sorted + random;
        }
        if shards == 2 {
            report
                .gated(
                    "speedup_2",
                    serial_wall / wall.max(1e-9),
                    Bound::Positive,
                    KEPT_FOR_ITEM_3,
                )
                .gated(
                    "cost_ratio_2",
                    (sorted + random) as f64 / serial_cost.max(1) as f64,
                    Bound::Positive,
                    KEPT_FOR_ITEM_3,
                );
        }
        t.row(vec![
            int(shards as u64),
            f3(wall),
            int(sorted / cfg.seeds),
            int(random / cfg.seeds),
            int(spawns / cfg.seeds),
            f3(serial_wall / wall.max(1e-9)),
        ]);
    }
    report.table(t);
    // What every sharded request pays before a worker starts: the
    // engine's own split (`Modulo`) of both lists into two shards.
    let lists = independent_uniform(n, m, 0);
    let partition_us = fastest_us(20, || {
        lists
            .iter()
            .map(|list| list.partition(SourcePartitioner::Modulo, 2))
            .collect::<Vec<_>>()
    });
    report.gated(
        "partition_us",
        partition_us,
        Bound::Positive,
        KEPT_FOR_ITEM_3,
    );
    report.note(format!(
        "partitioning the request's {m} lists into 2 shards costs {} µs (fastest of 20): \
         one pass copying each sorted stream into its slices — the random-access index \
         is shared with the parent, not cloned.",
        f3(partition_us)
    ));
    report.note(format!(
        "answer mismatches vs the serial engine: {mismatches} (must be 0; the \
         shard_equivalence proptest suite proves the same equality on tie-free lists)."
    ));
    report.note(
        "speedup is hardware-bound: on a single-core host the sharded path can only tie or \
         lose to serial (thread setup is pure overhead), while the per-shard sorted-access \
         totals show the cooperative threshold keeping total work near the serial cost. The \
         Criterion `sharded` bench group measures the same sweep under steady state.",
    );
    report
}
