//! Property suite: the turning kernel — an FFT correlation that
//! estimates every shift's error, then the exact error of only the
//! shifts near the best estimate — is bit-identical to the loop it
//! replaced.
//!
//! [`reference_turning_distance`] below *is* that loop, moved here
//! verbatim from `shape.rs` (one shift at a time, `(i + shift) % n`
//! indexing); it is the oracle, not a second implementation to keep in
//! step. Both [`turning_distance`] and [`TurningCorpus::distances`]
//! must match it `to_bits()` for `to_bits()`, across sample counts that
//! take each of the filter's two transforms.

use proptest::prelude::*;

use fmdb_media::shape::{turning_distance, turning_function, Point, Polygon, TurningCorpus};
use fmdb_media::synth::jitter_shape;

/// The pre-kernel `turning_distance`, kept as the oracle.
fn reference_turning_distance(a: &Polygon, b: &Polygon, n: usize) -> f64 {
    let ta = turning_function(a, n);
    let tb = turning_function(b, n);
    let mut best = f64::INFINITY;
    for shift in 0..n {
        // Optimal rotation offset for this shift is the mean difference.
        let mut diff_sum = 0.0;
        for i in 0..n {
            diff_sum += ta[i] - tb[(i + shift) % n];
        }
        let offset = diff_sum / n as f64;
        let mut err = 0.0;
        for i in 0..n {
            let d = ta[i] - tb[(i + shift) % n] - offset;
            err += d * d;
        }
        best = best.min(err / n as f64);
    }
    best.max(0.0).sqrt()
}

/// Sample counts for both of the filter's transforms: a power of two
/// (2, 8, 64) correlates cyclically at `n` points; any other count (1,
/// 7, 9, 63, 65) through a zero-padded transform of at least `2n`
/// points. 8 and 64 have a neighbour on either side.
const SAMPLES: [usize; 8] = [1, 2, 7, 8, 9, 63, 64, 65];

/// A deterministic stream of uniform `[0, 1)` draws.
fn uniform(mut state: u64) -> impl FnMut() -> f64 {
    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Ellipses, rectangles, stars and jittered copies of each, at random
/// positions and scales.
fn shapes(count: usize, seed: u64) -> Vec<Polygon> {
    let mut next = uniform(seed);
    (0..count)
        .map(|i| {
            let (cx, cy) = (next() * 10.0 - 5.0, next() * 10.0 - 5.0);
            let base = match i % 3 {
                0 => {
                    let a = 0.8 + next();
                    Polygon::ellipse(cx, cy, a, a * (0.5 + next() / 2.0), 12 + i % 30)
                }
                1 => Polygon::rectangle(cx, cy, 0.8 + 2.0 * next(), 0.5 + next()),
                _ => {
                    let outer = 1.0 + next();
                    Polygon::star(3 + i % 6, outer, outer * (0.25 + next() / 4.0), cx, cy)
                }
            }
            .expect("positive extents");
            if next() < 0.5 {
                jitter_shape(&base, 0.05, seed ^ i as u64)
            } else {
                base
            }
        })
        .collect()
}

fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The public pairwise function ≡ the reference loop.
    #[test]
    fn turning_distance_matches_the_reference_loop(seed in 0u64..1_000_000) {
        let polys = shapes(6, seed);
        for &n in &SAMPLES {
            for a in &polys {
                for b in &polys {
                    let what = format!("samples {n}, seed {seed}");
                    assert_bits(
                        turning_distance(a, b, n),
                        reference_turning_distance(a, b, n),
                        &what,
                    );
                }
            }
        }
    }

    /// The corpus ≡ the reference loop, object by object.
    #[test]
    fn corpus_distances_match_the_reference_loop(
        count in prop_oneof![Just(0usize), Just(1usize), Just(23usize)],
        seed in 0u64..1_000_000,
    ) {
        let polys = shapes(count, seed);
        let prototype = &shapes(1, seed ^ 0xabcd)[0];
        for &n in &SAMPLES {
            let corpus = TurningCorpus::build(&polys, n);
            prop_assert_eq!(corpus.len(), count);
            let got = corpus.distances(prototype);
            prop_assert_eq!(got.len(), count);
            for (i, (d, shape)) in got.iter().zip(&polys).enumerate() {
                let what = format!("object {i}, samples {n}, seed {seed}");
                assert_bits(*d, reference_turning_distance(shape, prototype, n), &what);
            }
        }
    }
}

/// A corpus that is not a multiple of anything convenient, queried by
/// one of its own members and by an outside prototype.
#[test]
fn a_257_shape_corpus_matches_the_reference_loop() {
    let polys = shapes(257, 2024);
    let outside = Polygon::new(vec![
        Point::new(0.0, 0.0),
        Point::new(3.0, 0.2),
        Point::new(2.5, 2.0),
        Point::new(1.0, 1.1),
        Point::new(-0.5, 2.2),
    ])
    .expect("a simple pentagon");
    for &n in &SAMPLES {
        let corpus = TurningCorpus::build(&polys, n);
        assert_eq!(corpus.len(), 257);
        for prototype in [&polys[100], &outside] {
            for (i, (d, shape)) in corpus.distances(prototype).iter().zip(&polys).enumerate() {
                assert_bits(
                    *d,
                    reference_turning_distance(shape, prototype, n),
                    &format!("object {i}, samples {n}"),
                );
            }
        }
    }
}

/// Zero samples leave no shift to minimise over: both paths report the
/// reference loop's `+∞`, and an empty corpus reports nothing.
#[test]
fn degenerate_sample_and_corpus_sizes_agree() {
    let polys = shapes(3, 9);
    assert_bits(
        turning_distance(&polys[0], &polys[1], 0),
        reference_turning_distance(&polys[0], &polys[1], 0),
        "zero samples",
    );
    let corpus = TurningCorpus::build(&polys, 0);
    assert_eq!(corpus.distances(&polys[0]), vec![f64::INFINITY; 3]);
    let empty = TurningCorpus::build(std::iter::empty(), 64);
    assert!(empty.is_empty());
    assert!(empty.distances(&polys[0]).is_empty());
}

/// Regular polygons and stars whose symmetry divides the sample counts
/// below (exact and near ties between shifts), a scaled and moved copy
/// of one of them (distance ≈ 0), tiny triangles, and outlines centred
/// 1e6–1e7 from the origin (resampled with little precision to spare).
fn symmetric_and_far_off(seed: u64) -> Vec<Polygon> {
    let mut next = uniform(seed);
    let phase = next() * 3.0;
    let mut polys = Vec::new();
    for sides in [3, 4, 8, 16, 32] {
        polys.push(Polygon::regular(sides, 0.5 + next(), next(), next(), phase));
    }
    for spikes in [4, 8] {
        polys.push(Polygon::star(spikes, 1.0 + next(), 0.4, 0.0, 0.0));
    }
    polys.push(Polygon::rectangle(0.0, 0.0, 2.0, 1.0));
    let mut polys: Vec<Polygon> = polys
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("positive extents");
    let scale = 0.01 + 100.0 * next();
    let copy = polys[1]
        .vertices()
        .iter()
        .map(|p| Point::new(p.x * scale - 7.0, p.y * scale + 3.0))
        .collect();
    polys.push(Polygon::new(copy).expect("a scaled square"));
    let tiny = 1e-5 * (1.0 + next());
    polys.push(
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(tiny, 0.0),
            Point::new(0.3 * tiny, tiny),
        ])
        .expect("a tiny triangle"),
    );
    for _ in 0..3 {
        let (cx, cy) = (1e6 + 9e6 * next(), -(1e6 + 9e6 * next()));
        polys.extend(
            [
                Polygon::ellipse(cx, cy, 1.0 + next(), 0.7, 24),
                Polygon::star(5, 2.0, 0.8, cy, cx),
                Polygon::regular(8, 1.5, cx, cx, phase),
            ]
            .into_iter()
            .map(|p| p.expect("positive extents")),
        );
    }
    polys
}

/// Symmetric, identical, tiny and far-off shapes ≡ the reference loop,
/// pair by pair and through a corpus, including sample counts that a
/// shape's symmetry divides.
#[test]
fn symmetric_and_far_off_shapes_match_the_reference_loop() {
    for seed in 0..4 {
        let polys = symmetric_and_far_off(seed);
        for n in [1, 2, 3, 4, 8, 16, 32, 64, 65, 128] {
            let corpus = TurningCorpus::build(&polys, n);
            for b in &polys {
                let through_corpus = corpus.distances(b);
                for (i, a) in polys.iter().enumerate() {
                    let want = reference_turning_distance(a, b, n);
                    let what = format!("object {i}, samples {n}, seed {seed}");
                    assert_bits(turning_distance(a, b, n), want, &what);
                    assert_bits(through_corpus[i], want, &what);
                }
            }
        }
    }
}
