//! Criterion benchmarks for the paged column store: sorted drains and
//! random probes against a store file, cold pool vs warm pool vs the
//! same data served from a `VecSource` — the numbers behind E18's
//! "out-of-core at in-memory speed" claim.

use std::path::{Path, PathBuf};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fmdb_core::score::Score;
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::store::{build_store, BuildConfig, PagedStore, StoreOptions};

const N: u64 = 1 << 14;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-stores");
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    dir.join(name)
}

fn pairs(n: u64, seed: u64) -> Vec<(u64, Score)> {
    (0..n)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (i, Score::clamped((h >> 11) as f64 / (1u64 << 53) as f64))
        })
        .collect()
}

/// Full sorted drain: cold pool (cleared before every iteration),
/// warm pool, and the in-memory `VecSource` baseline.
fn bench_sorted_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("paged_sorted_drain");
    let data = pairs(N, 7);
    for &page_size in &[512usize, 4096] {
        let path = scratch(&format!("crit-drain-{page_size}.fmdb"));
        build_store(
            &path,
            "bench",
            data.clone(),
            &BuildConfig::with_page_size(page_size),
        )
        .expect("build store");
        let store =
            PagedStore::open(&path, StoreOptions::with_pool_pages(4096)).expect("open store");

        group.bench_function(BenchmarkId::new("cold", page_size), |b| {
            b.iter(|| {
                store.clear_pool();
                let mut src = store.source();
                let mut acc = 0u64;
                while let Some(so) = src.sorted_next() {
                    acc ^= black_box(so.id);
                }
                acc
            })
        });
        // Prime once, then measure with every frame resident.
        {
            let mut src = store.source();
            while src.sorted_next().is_some() {}
        }
        group.bench_function(BenchmarkId::new("warm", page_size), |b| {
            b.iter(|| {
                let mut src = store.source();
                let mut acc = 0u64;
                while let Some(so) = src.sorted_next() {
                    acc ^= black_box(so.id);
                }
                acc
            })
        });
    }
    let mut mem = VecSource::new("bench", data);
    group.bench_function("vecsource", |b| {
        b.iter(|| {
            mem.rewind();
            let mut acc = 0u64;
            while let Some(so) = mem.sorted_next() {
                acc ^= black_box(so.id);
            }
            acc
        })
    });
    group.finish();
}

/// Stride-spread random probes: warm pool vs the in-memory baseline.
fn bench_random_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("paged_random_probes");
    let data = pairs(N, 11);
    let probe_oids: Vec<u64> = (0..1024u64).map(|i| (i * 97) % N).collect();

    let path = scratch("crit-probe.fmdb");
    build_store(&path, "bench", data.clone(), &BuildConfig::DEFAULT).expect("build store");
    let store = PagedStore::open(&path, StoreOptions::with_pool_pages(4096)).expect("open store");
    let mut src = store.source();
    for &oid in &probe_oids {
        let _ = src.random_access(oid); // warm the pool
    }
    group.bench_function("paged_warm", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &oid in &probe_oids {
                acc += src.random_access(black_box(oid)).value();
            }
            acc
        })
    });

    let mut mem = VecSource::new("bench", data);
    group.bench_function("vecsource", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &oid in &probe_oids {
                acc += mem.random_access(black_box(oid)).value();
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sorted_drain, bench_random_probes);
criterion_main!(benches);
