//! Criterion benchmarks: the batched [`Engine`] vs scalar A₀.
//!
//! In-memory `VecSource` accesses cost nanoseconds, so the engine's
//! value shows where it matters: against *remote* subsystems — the
//! paper's actual setting, Garlic middleware over autonomous systems
//! like QBIC (§4). [`RemoteSource`] models that: every sorted-access
//! call is one subsystem round-trip (a real `thread::sleep`), while
//! random access is a local index probe (§4.2's "through an index").
//! Scalar A₀ pays one round-trip per object; the engine fetches a whole
//! batch per round-trip. `engine_batched/remote` is the latency
//! witness for that: ~32× here (2.1 s → 66 ms on the 2-core sandbox).
//!
//! The raw in-memory case is also measured so the engine's overhead on
//! trivially cheap sources stays visible. This is a wall-clock
//! companion, *not* an access-count claim: engine and scalar charge
//! identical `sorted`/`random` counts by construction (the equivalence
//! suite enforces it).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::TopKAlgorithm;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::request::{TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, Oid, SourceInfo, SourcePartitioner, VecSource};
use fmdb_middleware::workload::independent_uniform;

const N: usize = 1 << 16; // 65,536
const M: usize = 4;
const K: usize = 10;

/// One subsystem round-trip. `thread::sleep` granularity means the
/// effective delay lands near 70µs — a LAN round-trip.
const ROUND_TRIP: Duration = Duration::from_micros(5);

/// A [`VecSource`] behind a simulated network: each sorted-access
/// *call* — scalar or batched — costs one round-trip, so a batch of
/// `n` objects amortizes the latency `n`-fold, exactly the economics
/// that make middleware batch. Random access probes a local index and
/// pays no round-trip.
struct RemoteSource {
    inner: VecSource,
}

impl RemoteSource {
    fn new(inner: VecSource) -> RemoteSource {
        RemoteSource { inner }
    }
}

impl GradedSource for RemoteSource {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        std::thread::sleep(ROUND_TRIP);
        self.inner.sorted_next()
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        self.inner.random_access(oid)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        std::thread::sleep(ROUND_TRIP);
        // One round-trip returns the whole batch; the per-object
        // accounting (one sorted access each) is unchanged.
        self.inner.sorted_batch(n)
    }
}

fn remote_request() -> TopKRequest {
    let mut builder = TopKQuery::compose();
    for source in independent_uniform(N, M, 7) {
        builder = builder.source(RemoteSource::new(source));
    }
    builder.scoring(Min).k(K).request().expect("valid request")
}

fn bench_remote(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_remote");
    // Scalar A₀ pays ~30k round-trips per run (seconds); keep the
    // sample count low.
    group.sample_size(3);

    group.bench_function(BenchmarkId::new("scalar_fa", "remote"), |b| {
        let mut sources: Vec<RemoteSource> = independent_uniform(N, M, 7)
            .into_iter()
            .map(RemoteSource::new)
            .collect();
        b.iter(|| {
            let mut refs: Vec<&mut dyn GradedSource> = sources
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            FaginsAlgorithm
                .top_k(&mut refs, &Min, K)
                .expect("valid run")
        });
    });

    group.bench_function(BenchmarkId::new("engine_batched", "remote"), |b| {
        let engine = Engine::default();
        let request = remote_request();
        b.iter(|| engine.run(&request).expect("valid run"));
    });

    group.finish();
}

fn bench_in_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_mem");
    group.sample_size(10);

    // Raw in-memory sources: accesses are ~free, so this measures the
    // engine's own overhead (proxies, batch copies, mutexes).
    group.bench_function(BenchmarkId::new("scalar_fa", "mem"), |b| {
        let mut sources = independent_uniform(N, M, 7);
        b.iter(|| {
            let mut refs: Vec<&mut dyn GradedSource> = sources
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            FaginsAlgorithm
                .top_k(&mut refs, &Min, K)
                .expect("valid run")
        });
    });

    group.bench_function(BenchmarkId::new("engine_batched", "mem"), |b| {
        let engine = Engine::default();
        let request = TopKQuery::compose()
            .sources(independent_uniform(N, M, 7))
            .scoring(Min)
            .k(K)
            .request()
            .expect("valid request");
        b.iter(|| engine.run(&request).expect("valid run"));
    });

    // Eight forced-TA requests over lists of 4 096 (the arities of
    // perfbench's `run_many8`), one by one and through `run_many`.
    let many8: Vec<TopKRequest> = [3usize, 3, 3, 2, 3, 4, 3, 2]
        .into_iter()
        .zip(0u64..)
        .map(|(arity, seed)| {
            TopKQuery::compose()
                .sources(independent_uniform(1 << 12, arity, seed))
                .scoring(Min)
                .k(K)
                .policy(ExecPolicy::new().algo(Algo::Ta))
                .request()
                .expect("valid request")
        })
        .collect();
    let engine = Engine::default();
    group.bench_function(BenchmarkId::new("ta_many8", "one_by_one"), |b| {
        b.iter(|| {
            for request in &many8 {
                engine.run(request).expect("valid run");
            }
        });
    });
    group.bench_function(BenchmarkId::new("ta_many8", "run_many"), |b| {
        b.iter(|| engine.run_many(&many8));
    });

    group.finish();
}

/// Intra-query sharding on a large in-memory corpus: the serial engine
/// vs partition-parallel TA at 2/4/8 shards. The corpus is ≥ 100k
/// objects so each shard's scan is long enough to amortize worker
/// setup; on a multi-core host 4 shards should cut wall-clock by ≥ 2×
/// (on a single-core host the sharded rows can only tie or lose —
/// thread setup with no extra hardware is pure overhead).
fn bench_sharded(c: &mut Criterion) {
    const N_SHARDED: usize = 1 << 17; // 131,072 objects
    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);

    // Sharding rides on the request policy; the engines themselves are
    // default-configured.
    let request = |policy: ExecPolicy| {
        TopKQuery::compose()
            .sources(independent_uniform(N_SHARDED, 2, 7))
            .scoring(Min)
            .k(K)
            .policy(policy)
            .request()
            .expect("valid request")
    };

    group.bench_function(BenchmarkId::new("engine_serial", "ta"), |b| {
        let engine = Engine::default();
        let request = request(ExecPolicy::new());
        b.iter(|| {
            engine
                .run_algorithm(&ThresholdAlgorithm, &request)
                .expect("valid run")
        });
    });

    for shards in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new("engine_sharded", shards), |b| {
            let engine = Engine::default();
            let request = request(ExecPolicy::new().sharded_over(shards));
            b.iter(|| {
                engine
                    .run_algorithm(&ThresholdAlgorithm, &request)
                    .expect("valid run")
            });
        });
    }

    group.finish();
}

/// The in-memory list itself, so the next change to `VecSource` has a
/// before: building it from pairs (already ascending by oid, scrambled,
/// scrambled with every oid given twice), probing it (a dense `0..n`
/// list hits its slot directly, a sparse one binary-searches) and
/// splitting it into two shards.
fn bench_source(c: &mut Criterion) {
    /// A fixed scramble of `i`: the grade bits and the shuffle key.
    fn mix(i: u64) -> u64 {
        i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    fn pairs(oids: impl Iterator<Item = Oid>) -> Vec<(Oid, Score)> {
        oids.map(|oid| {
            let unit = (mix(oid) >> 11) as f64 / (1u64 << 53) as f64;
            (oid, Score::clamped(unit))
        })
        .collect()
    }
    fn shuffled(mut pairs: Vec<(Oid, Score)>) -> Vec<(Oid, Score)> {
        pairs.sort_by_key(|&(oid, grade)| mix(oid ^ grade.value().to_bits()));
        pairs
    }

    let mut build = c.benchmark_group("source_build");
    for n in [2000u64, 1 << 16] {
        let dense = pairs(0..n);
        // `n` pairs over `n / 2` oids: each oid twice, grades differing.
        let twice = pairs(0..n)
            .into_iter()
            .map(|(oid, grade)| (oid / 2, grade))
            .collect();
        for (shape, input) in [
            ("dense", dense.clone()),
            ("shuffled", shuffled(dense)),
            ("duplicates", shuffled(twice)),
        ] {
            build.bench_function(BenchmarkId::new(shape, n), |b| {
                b.iter_batched(
                    || input.clone(),
                    |input| VecSource::new("built", input),
                    BatchSize::LargeInput,
                );
            });
        }
    }
    build.finish();

    let n = N as u64;
    let mut probe = c.benchmark_group("source_probe");
    for (shape, stride) in [("dense", 1u64), ("sparse", 3)] {
        let mut source = VecSource::new(shape, pairs((0..n).map(|i| i * stride)));
        let oids: Vec<Oid> = (0..2048).map(|i| mix(i) % n * stride).collect();
        probe.bench_function(BenchmarkId::new(shape, n), |b| {
            b.iter(|| source.random_batch(&oids));
        });
    }
    probe.finish();

    let mut partition = c.benchmark_group("source_partition");
    let source = VecSource::new("split", pairs(0..n));
    partition.bench_function(BenchmarkId::new("2", n), |b| {
        b.iter(|| source.partition(SourcePartitioner::Modulo, 2));
    });
    partition.finish();
}

criterion_group!(
    benches,
    bench_remote,
    bench_in_memory,
    bench_sharded,
    bench_source
);
criterion_main!(benches);
