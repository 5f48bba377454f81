//! Criterion benchmarks for the paged column store: sorted drains and
//! random probes against a store file, cold pool vs warm pool vs the
//! same data served from a `VecSource` — the numbers behind E18's
//! "out-of-core at in-memory speed" claim — plus the two unit costs a
//! cold query is made of: the page checksum and a batch of probes.

use std::path::{Path, PathBuf};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fmdb_core::score::Score;
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::store::format::crc32;
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

/// The bit-at-a-time CRC32 the store shipped with until the table
/// kernel replaced it — kept here as the "before" of the per-page cost.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The checksum of one page's payload (everything after the stored
/// CRC word) at three page sizes: the unit cost of a page miss.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for &page_size in &[512usize, 4096, 16384] {
        let payload: Vec<u8> = (0..page_size as u32 - 4)
            .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        assert_eq!(crc32(&payload), crc32_bitwise(&payload));
        group.bench_function(BenchmarkId::new("bitwise", page_size), |b| {
            b.iter(|| crc32_bitwise(black_box(&payload)))
        });
        group.bench_function(BenchmarkId::new("table", page_size), |b| {
            b.iter(|| crc32(black_box(&payload)))
        });
    }
    group.finish();
}

/// 2048-oid `random_batch` calls over a 65 536-entry store: uniform
/// oids (every random page is touched) and a hot set of 1 % of the
/// oids, with the whole file resident and with 32 frames for its 258
/// random-table pages.
fn bench_random_batch(c: &mut Criterion) {
    const ENTRIES: u64 = 1 << 16;
    let mut group = c.benchmark_group("random_batch");
    let path = scratch("crit-batch.fmdb");
    build_store(&path, "bench", pairs(ENTRIES, 13), &BuildConfig::DEFAULT).expect("build store");
    let scatter = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
    let uniform: Vec<u64> = (0..2048).map(|i| scatter(i) % ENTRIES).collect();
    let hot: Vec<u64> = (0..2048)
        .map(|i| scatter(scatter(i) % (ENTRIES / 100)) % ENTRIES)
        .collect();
    for (pool, pool_pages) in [("warm", 1024usize), ("pool32", 32)] {
        let store =
            PagedStore::open(&path, StoreOptions::with_pool_pages(pool_pages)).expect("open store");
        let mut src = store.source();
        for (name, oids) in [("uniform", &uniform), ("hot", &hot)] {
            let _ = src.random_batch(oids); // fill the pool
            group.bench_function(BenchmarkId::new(name, pool), |b| {
                b.iter(|| src.random_batch(black_box(oids)))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sorted_drain,
    bench_random_probes,
    bench_crc32,
    bench_random_batch
);
criterion_main!(benches);
