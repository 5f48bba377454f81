//! Sharded intra-query execution: partition-parallel TA with
//! cooperative threshold sharing.
//!
//! The engine of PR 1 parallelizes *across* requests; a single
//! expensive top-k still drains its sources on one thread. This module
//! splits one query into `P` disjoint shards (every source partitioned
//! by the *same* [`SourcePartitioner`]), runs the TA kernel per shard
//! on scoped threads, and merges the per-shard answers — at most `P·k`
//! of them — with the sort-and-truncate every kernel ends in. TA is the
//! only algorithm with a shard kernel
//! ([`crate::algorithms::TopKAlgorithm::shard_kernel`]); every other
//! one runs serial under any shard count.
//!
//! # Why the merge is valid
//!
//! TA reports per-shard answers with **exact** grades. Any object of
//! the true global top-k lives in exactly one shard, and within that
//! shard at most `k − 1` objects beat it — so it appears in that
//! shard's local top-k. The best `k` of the local top-k lists under the
//! output comparator (descending grade, ties by ascending oid) are
//! therefore a valid global top-k. On tie-free lists it is the serial
//! answer list bit for bit. Where objects tie at the k-th grade, which
//! of them TA reports depends on how deep it read, and every shard
//! reads its own lists to its own depth: sharded TA may then return
//! other, equally valid, tied objects than serial TA.
//!
//! # Why the shared threshold is a valid stopping bound
//!
//! Each shard publishes into an `AtomicThreshold` a certified lower
//! bound `T` on the global k-th overall grade: its local k-th exact
//! grade — k real objects score at least that much. Because scoring is
//! monotone, a shard whose own threshold `τ = t(b₁, …, b_m)` falls
//! strictly below `T` knows every object it has not yet seen grades at
//! most `τ < T ≤` (global k-th grade), i.e. strictly below the weakest
//! global answer — it can stop streaming immediately, even though its
//! *local* stopping rule has not fired. The comparison is strict so a
//! tie at the boundary never prunes an object that tie-breaking would
//! have admitted.
//!
//! Partitions must be aligned across sources: per-shard TA bounds
//! unseen objects by the shard's stream bottoms, which only bounds the
//! grades of objects *of that shard* in every list. The engine
//! guarantees alignment by partitioning all sources of a request with
//! one partitioner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{Family, Probe, Report};
use crate::algorithms::TopKResult;
use crate::engine::{panic_message, EngineError};
use crate::request::{SharedScoring, SourceGuard};
use crate::source::{GradedSource, Oid, ShardedSource, SourcePartitioner};
use crate::stats::AccessStats;

/// A shared, monotonically increasing lower bound on the global k-th
/// overall grade, exchanged between shard workers.
///
/// The score is stored as the IEEE-754 bit pattern of its `f64` value
/// in an [`AtomicU64`]; grades live in `[0, 1]`, and for non-negative
/// floats the bit patterns order exactly like the numbers, so
/// `fetch_max` on bits is `max` on scores.
///
/// All operations use [`Ordering::Relaxed`], and that is sufficient:
/// the bound is *advisory* and only ever grows. A reader observing a
/// stale (smaller) value merely keeps streaming a little longer than
/// necessary — correctness never depends on seeing the latest value,
/// only on never seeing a value larger than some published certified
/// bound, which atomicity alone guarantees.
#[derive(Debug, Default)]
pub(crate) struct AtomicThreshold {
    bits: AtomicU64,
}

impl AtomicThreshold {
    /// Starts at zero (no bound known).
    pub(crate) fn new() -> AtomicThreshold {
        // Score::ZERO is +0.0, whose bit pattern is 0.
        AtomicThreshold {
            bits: AtomicU64::new(0),
        }
    }

    /// Raises the bound to `candidate` if it is an improvement.
    pub(crate) fn observe(&self, candidate: Score) {
        // ordering(Relaxed): the threshold is a monotone advisory
        // bound. Scores are in [0,1], so their IEEE-754 bit patterns
        // order like the values and fetch_max never lowers the bound;
        // a racing reader that misses this update merely prunes less
        // — correctness never depends on seeing the newest maximum.
        self.bits
            .fetch_max(candidate.value().to_bits(), Ordering::Relaxed);
    }

    /// The current bound (possibly stale, never overstated).
    pub(crate) fn get(&self) -> Score {
        // ordering(Relaxed): reading a stale bound is safe by the same
        // monotonicity argument — the value can only be under the true
        // maximum, which weakens pruning but never drops a result.
        Score::clamped(f64::from_bits(self.bits.load(Ordering::Relaxed)))
    }
}

/// Runs one shard's kernel: the threshold loop of
/// [`crate::algorithms::threshold`] probing on sight (TA), with the
/// cooperative bound attached.
///
/// On top of its serial stopping rule the shard publishes its local
/// k-th grade into `global` every round and stops as soon as the shared
/// bound rules out everything it has not reported yet; the module docs
/// argue why both are sound.
fn run_kernel(
    sources: &mut [ShardedSource],
    scoring: &dyn ScoringFunction,
    k: usize,
    global: &AtomicThreshold,
) -> (Vec<ScoredObject<Oid>>, AccessStats) {
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    let family = Family::new(Probe::OnSight, 0.0, Report::AsHalted);
    let result = family.run(Some(global), &mut refs, scoring, k);
    let result = result.into_lower_bounds();
    (result.answers, result.stats)
}

/// Drives `P` shard workers on a scoped pool and merges their answers.
///
/// `shards[s]` holds shard `s`'s slice of every source (aligned
/// partitions). Worker panics are caught and surfaced as
/// [`EngineError::WorkerPanicked`] — one poisoned shard fails the
/// request, never the process. The returned stats are the fold of all
/// per-shard stats plus one `worker_spawns` per shard.
pub(crate) fn run_shards(
    shards: Vec<Vec<ShardedSource>>,
    scoring: &SharedScoring,
    k: usize,
) -> Result<TopKResult, EngineError> {
    let global = AtomicThreshold::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "the shard workers: one of the two library thread sites, joined in shard order before the merge"
    )]
    let outcomes: Vec<_> = thread::scope(|scope| {
        let workers: Vec<_> = shards
            .into_iter()
            .map(|mut sources| {
                let scoring = Arc::clone(scoring);
                let global = &global;
                scope.spawn(move || run_kernel(&mut sources, &*scoring, k, global))
            })
            .collect();
        // Joined in shard order; a worker that panicked hands back its
        // payload instead of a result.
        workers.into_iter().map(|worker| worker.join()).collect()
    });
    let mut stats = AccessStats::ZERO;
    stats.worker_spawns = outcomes.len() as u64;
    let mut answers = Vec::new();
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        let (shard_answers, shard_stats) =
            outcome.map_err(|payload| EngineError::WorkerPanicked {
                stream: format!("shard {idx}"),
                message: panic_message(payload.as_ref()),
            })?;
        stats += shard_stats;
        answers.extend(shard_answers);
    }
    Ok(crate::algorithms::finalize(answers, k, stats))
}

/// Partitions every held source of a request consistently, or returns
/// `None` when any source cannot be partitioned (the caller falls back
/// to the serial path).
pub(crate) fn partition_aligned(
    sources: &[SourceGuard<'_>],
    partitioner: SourcePartitioner,
    shards: usize,
) -> Option<Vec<Vec<ShardedSource>>> {
    let mut per_shard: Vec<Vec<ShardedSource>> = (0..shards).map(|_| Vec::new()).collect();
    for source in sources {
        let parts = source.partition(partitioner, shards)?;
        if parts.len() != shards {
            return None;
        }
        for (s, part) in parts.into_iter().enumerate() {
            per_shard[s].push(part);
        }
    }
    Some(per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ta::ThresholdAlgorithm;
    use crate::algorithms::TopKAlgorithm;
    use crate::source::VecSource;
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::tnorms::Min;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    #[test]
    fn atomic_threshold_only_grows() {
        let t = AtomicThreshold::new();
        assert_eq!(t.get(), Score::ZERO);
        t.observe(s(0.4));
        t.observe(s(0.2));
        assert_eq!(t.get(), s(0.4));
        t.observe(s(0.9));
        assert_eq!(t.get(), s(0.9));
    }

    #[test]
    fn atomic_threshold_is_race_free_across_threads() {
        let t = AtomicThreshold::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "four racing writers are what this test is about"
        )]
        thread::scope(|scope| {
            for part in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..250u64 {
                        t.observe(s((part * 250 + i) as f64 / 1000.0));
                    }
                });
            }
        });
        assert_eq!(t.get(), s(0.999));
    }

    fn shard_workload(n: usize, m: usize, seed: u64, p: usize) -> Vec<Vec<ShardedSource>> {
        let sources = independent_uniform(n, m, seed);
        let mut per_shard: Vec<Vec<ShardedSource>> = (0..p).map(|_| Vec::new()).collect();
        for src in &sources {
            for (s_idx, part) in src
                .partition(SourcePartitioner::Modulo, p)
                .unwrap()
                .into_iter()
                .enumerate()
            {
                per_shard[s_idx].push(part);
            }
        }
        per_shard
    }

    fn serial_ta(n: usize, m: usize, seed: u64, k: usize) -> TopKResult {
        let mut sources = independent_uniform(n, m, seed);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|x| x as &mut dyn GradedSource)
            .collect();
        ThresholdAlgorithm.top_k(&mut refs, &Min, k).unwrap()
    }

    #[test]
    fn sharded_ta_answers_equal_serial_ta() {
        for &(n, m, k) in &[(200usize, 2usize, 5usize), (157, 3, 10), (64, 2, 64)] {
            for p in [1usize, 2, 3, 8] {
                let shards = shard_workload(n, m, 42, p);
                let scoring: SharedScoring = Arc::new(Min);
                let got = run_shards(shards, &scoring, k).unwrap();
                let want = serial_ta(n, m, 42, k);
                assert_eq!(got.answers, want.answers, "n={n} m={m} k={k} p={p}");
                assert_eq!(got.stats.worker_spawns, p as u64);
            }
        }
    }

    #[test]
    fn shard_kernel_meters_its_accesses() {
        // Wrap each shard in a counter and check self-reported stats.
        let src = VecSource::from_dense(
            "t",
            &(0..50).map(|i| s(i as f64 / 50.0)).collect::<Vec<_>>(),
        );
        let mut parts = src.partition(SourcePartitioner::Modulo, 2).unwrap();
        let global = AtomicThreshold::new();
        let (answers, stats) = run_kernel(&mut parts[..1], &Min, 3, &global);
        assert_eq!(answers.len(), 3);
        assert!(stats.sorted > 0);
        assert_eq!(stats.random, 0, "single source: nothing to probe");
    }

    #[test]
    fn a_hot_global_bound_prunes_a_cold_shard() {
        // If another shard already certified a high k-th grade, a shard
        // full of low grades stops after one round instead of draining.
        let grades: Vec<Score> = (0..1000).map(|i| s(0.3 - (i as f64 / 10_000.0))).collect();
        let src = VecSource::from_dense("cold", &grades);
        let mut parts = src.partition(SourcePartitioner::Modulo, 1).unwrap();
        let global = AtomicThreshold::new();
        global.observe(s(0.9));
        let (_, stats) = run_kernel(&mut parts, &Min, 5, &global);
        assert!(
            stats.sorted <= 10,
            "cooperative bound should stop the scan, streamed {}",
            stats.sorted
        );
    }

    #[test]
    fn shard_worker_panic_fails_the_request() {
        #[derive(Debug)]
        struct Bomb;
        impl fmdb_core::scoring::ScoringFunction for Bomb {
            fn name(&self) -> String {
                "bomb".into()
            }
            fn combine(&self, _: &[Score]) -> Score {
                panic!("scoring exploded")
            }
            fn is_strict(&self) -> bool {
                false
            }
            fn is_monotone(&self) -> bool {
                true
            }
        }
        let shards = shard_workload(40, 2, 1, 2);
        let scoring: SharedScoring = Arc::new(Bomb);
        match run_shards(shards, &scoring, 3) {
            Err(EngineError::WorkerPanicked { stream, message }) => {
                assert!(stream.starts_with("shard"), "{stream}");
                assert!(message.contains("exploded"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn partition_aligned_falls_back_on_unpartitionable_sources() {
        use crate::request::{lock_all, shared_source};
        use crate::source::CountingSource;
        let ok = shared_source(VecSource::from_dense("a", &[s(0.2), s(0.8)]));
        let no = shared_source(CountingSource::new(VecSource::from_dense(
            "b",
            &[s(0.5), s(0.5)],
        )));
        let aligned = |sources: &[_]| {
            partition_aligned(&lock_all(sources), SourcePartitioner::Modulo, 2).is_some()
        };
        assert!(aligned(std::slice::from_ref(&ok)));
        assert!(!aligned(&[ok, no]));
    }
}
