//! Criterion benchmarks: the O(k²) quadratic-form color distance
//! (eq. (1)) vs the O(k) distance-bounding filter of \[HSE+95\] and the
//! Cholesky-embedded Euclidean kernel — the per-pair costs behind
//! experiments E7 and E20 — plus whole-corpus kNN scans (brute force vs
//! early abandoning).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fmdb_media::bounding::BoundedDistance;
use fmdb_media::color::{ColorHistogram, ColorSpace};
use fmdb_media::distance::{HistogramDistance, L2Distance, QuadraticFormDistance};
use fmdb_media::embed::{euclidean, squared_euclidean, EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::linalg::SymMatrix;
use fmdb_media::synth::{SynthConfig, SyntheticDb};

fn setup(bins_per_channel: usize) -> (ColorSpace, Vec<ColorHistogram>) {
    let db = SyntheticDb::generate(&SynthConfig {
        count: 64,
        bins_per_channel,
        seed: 3,
        ..SynthConfig::default()
    });
    let hists = db.objects.iter().map(|o| o.histogram.clone()).collect();
    (db.space, hists)
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("color_distance");
    for bins_per_channel in [4usize, 5] {
        let (space, hists) = setup(bins_per_channel);
        let k = space.k();
        let bounded = BoundedDistance::for_space(&space).expect("filter derivable");
        let shorts: Vec<_> = hists
            .iter()
            .map(|h| bounded.filter.project(h).expect("same space"))
            .collect();

        group.bench_function(BenchmarkId::new("quadratic_form", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..hists.len() {
                    let j = (i + 7) % hists.len();
                    acc += bounded
                        .full
                        .distance(black_box(&hists[i]), black_box(&hists[j]))
                        .expect("same space");
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("l2", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..hists.len() {
                    let j = (i + 7) % hists.len();
                    acc += L2Distance
                        .distance(black_box(&hists[i]), black_box(&hists[j]))
                        .expect("same space");
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("short_vector_filter", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..shorts.len() {
                    let j = (i + 7) % shorts.len();
                    acc += shorts[i].distance(black_box(&shorts[j]));
                }
                acc
            })
        });
    }
    group.finish();
}

/// Deterministic pseudo-random normalized histograms over `k` bins —
/// arbitrary `k` (the grid spaces only offer cubes).
fn synthetic_histograms(k: usize, n: usize, mut state: u64) -> Vec<ColorHistogram> {
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let masses: Vec<f64> = (0..k).map(|_| next() + 1e-3).collect();
            ColorHistogram::from_masses(masses).expect("positive masses")
        })
        .collect()
}

/// The 1-D "line" similarity matrix `a_ij = 1 − |i−j|/(k−1)`:
/// positive definite on the zero-sum subspace, so it embeds like the
/// QBIC matrix at any bin count.
fn line_matrix(k: usize) -> SymMatrix {
    SymMatrix::from_fn(k, |i, j| {
        1.0 - (i as f64 - j as f64).abs() / (k as f64 - 1.0)
    })
    .expect("valid shape")
}

/// The tentpole comparison: the O(k²) quadratic form vs one O(k)
/// Euclidean norm between pre-embedded coordinates, across bin counts.
fn bench_embedded_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedded_kernel");
    for k in [16usize, 64, 256] {
        let a = line_matrix(k);
        let hists = synthetic_histograms(k, 64, 0x5eed + k as u64);
        let qf = QuadraticFormDistance::new(a.clone());
        let space = EmbeddedSpace::for_matrix(&a).expect("line matrix embeds");
        let embedded: Vec<Vec<f64>> = hists
            .iter()
            .map(|h| space.embed(h).expect("same dimension"))
            .collect();

        group.bench_function(BenchmarkId::new("quadratic_form", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..hists.len() {
                    let j = (i + 7) % hists.len();
                    acc += qf
                        .distance(black_box(&hists[i]), black_box(&hists[j]))
                        .expect("same space");
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("embedded", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..embedded.len() {
                    let j = (i + 7) % embedded.len();
                    acc += euclidean(black_box(&embedded[i]), black_box(&embedded[j]));
                }
                acc
            })
        });
    }
    group.finish();
}

/// A strict left-to-right scalar squared-distance loop — the kernel
/// as it was before the four-lane unroll, kept here as the baseline
/// the `euclidean_unroll` group measures the unroll against.
fn squared_euclidean_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// The unroll satellite's measurement: the shipped four-lane
/// `squared_euclidean` kernel vs the scalar loop it replaced, on the
/// same pre-embedded coordinates.
fn bench_kernel_unroll(c: &mut Criterion) {
    let mut group = c.benchmark_group("euclidean_unroll");
    for k in [16usize, 64, 256] {
        let a = line_matrix(k);
        let hists = synthetic_histograms(k, 64, 0xfeed + k as u64);
        let space = EmbeddedSpace::for_matrix(&a).expect("line matrix embeds");
        let embedded: Vec<Vec<f64>> = hists
            .iter()
            .map(|h| space.embed(h).expect("same dimension"))
            .collect();

        group.bench_function(BenchmarkId::new("scalar", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..embedded.len() {
                    let j = (i + 7) % embedded.len();
                    acc +=
                        squared_euclidean_scalar(black_box(&embedded[i]), black_box(&embedded[j]));
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("unrolled4", k), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..embedded.len() {
                    let j = (i + 7) % embedded.len();
                    acc += squared_euclidean(black_box(&embedded[i]), black_box(&embedded[j]));
                }
                acc
            })
        });
    }
    group.finish();
}

/// Whole-corpus 10-NN over 64-bin histograms: brute force vs
/// early-abandoning (+ bounding filter).
fn bench_knn_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_scan");
    for n in [256usize, 1024, 4096] {
        let db = SyntheticDb::generate(&SynthConfig {
            count: n,
            bins_per_channel: 4,
            seed: 17,
            ..SynthConfig::default()
        });
        let hists: Vec<ColorHistogram> = db.objects.iter().map(|o| o.histogram.clone()).collect();
        let corpus = EmbeddedCorpus::build_filtered(&db.space, &hists).expect("QBIC matrix embeds");
        let query = &hists[n / 2];

        group.bench_function(BenchmarkId::new("brute", n), |b| {
            b.iter(|| corpus.knn_brute(black_box(query), 10).expect("same space"))
        });
        group.bench_function(BenchmarkId::new("early_abandon", n), |b| {
            b.iter(|| corpus.knn(black_box(query), 10).expect("same space"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distance,
    bench_embedded_kernel,
    bench_kernel_unroll,
    bench_knn_scan
);
criterion_main!(benches);
