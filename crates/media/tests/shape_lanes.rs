//! The tiled turning corpus answers exactly as one row at a time.
//!
//! `TurningCorpus` stores its rows, their spectra and their sums in
//! tiles of four rows and grades a tile per pass: the spectra's product,
//! the inverse butterflies, the estimates, the cut and the refine's
//! exact errors run lane by lane. This suite holds every lane to the
//! one-row kernel:
//!
//! * every corpus distance is `to_bits()`-equal to [`turning_distance`]
//!   (the same kernel at one lane) and to the loop the kernel replaced,
//!   kept below verbatim, for corpus sizes around the tile width and
//!   sample counts on both transform paths — the cyclic one at a power
//!   of two, the zero-padded `tb ++ tb` one otherwise;
//! * a row's distance does not depend on what shares its tile: its
//!   tile-mates replaced, permuted or copies of it, in every lane.
//!
//! The release build runs the lanes side by side; debug builds also
//! check every row against the exact error of all its shifts. CI runs
//! this suite in release.

use fmdb_media::shape::{turning_distance, turning_function, Point, Polygon, TurningCorpus};
use fmdb_media::synth::jitter_shape;

/// Corpus sizes around the tile width (4), and one of many tiles.
const SIZES: [usize; 9] = [0, 1, 3, 4, 5, 7, 8, 9, 257];

/// Sample counts: powers of two correlate cyclically at `n` (1 takes
/// the padded path, as every other count does).
const SAMPLES: [usize; 10] = [1, 2, 3, 4, 16, 20, 50, 64, 65, 128];

/// The pre-kernel `turning_distance`, one shift at a time with
/// `(i + shift) % n` indexing, verbatim: the oracle.
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

/// Ellipses, rectangles, stars and regular polygons, some jittered, at
/// random positions and scales.
fn shapes(count: usize, seed: u64) -> Vec<Polygon> {
    let mut next = uniform(seed);
    (0..count)
        .map(|i| {
            let (cx, cy) = (next() * 10.0 - 5.0, next() * 10.0 - 5.0);
            let base = match i % 4 {
                0 => {
                    let a = 0.8 + next();
                    Polygon::ellipse(cx, cy, a, a * (0.5 + next() / 2.0), 12 + i % 30)
                }
                1 => Polygon::rectangle(cx, cy, 0.8 + 2.0 * next(), 0.5 + next()),
                2 => {
                    let outer = 1.0 + next();
                    Polygon::star(3 + i % 6, outer, outer * (0.25 + next() / 4.0), cx, cy)
                }
                _ => Polygon::regular(3 + i % 7, 0.5 + next(), cx, cy, next() * 3.0),
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

/// A prototype outside every corpus below.
fn pentagon() -> Polygon {
    Polygon::new(vec![
        Point::new(0.0, 0.0),
        Point::new(3.0, 0.2),
        Point::new(2.5, 2.0),
        Point::new(1.0, 1.1),
        Point::new(-0.5, 2.2),
    ])
    .expect("a simple pentagon")
}

fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
}

/// Every lane of every tile ≡ the pairwise kernel ≡ the reference loop,
/// for a member of the corpus and an outside prototype.
#[test]
fn every_lane_matches_the_pairwise_kernel_and_the_reference_loop() {
    for (s, &size) in SIZES.iter().enumerate() {
        let polys = shapes(size, 40 + s as u64);
        let outside = pentagon();
        let prototypes: Vec<&Polygon> = polys.get(size / 2).into_iter().chain([&outside]).collect();
        for &n in &SAMPLES {
            let corpus = TurningCorpus::build(&polys, n);
            assert_eq!(corpus.len(), size);
            for prototype in &prototypes {
                let got = corpus.distances(prototype);
                assert_eq!(got.len(), size);
                for (i, (&d, shape)) in got.iter().zip(&polys).enumerate() {
                    let what = format!("size {size}, samples {n}, object {i} (lane {})", i % 4);
                    assert_bits(d, turning_distance(shape, prototype, n), &what);
                    assert_bits(d, reference_turning_distance(shape, prototype, n), &what);
                }
            }
        }
    }
}

/// The six orders of three tile-mates.
const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// One tile: `subject` in lane `lane`, `mates` in the other three.
fn tile(subject: &Polygon, lane: usize, mates: [&Polygon; 3]) -> Vec<Polygon> {
    let mut tile: Vec<Polygon> = mates.iter().map(|&p| p.clone()).collect();
    tile.insert(lane, subject.clone());
    tile
}

/// A row grades the same in every lane of a tile, whatever fills the
/// other three: rows of its own corpus in every order, rows of another,
/// copies of itself, and nothing (a tile of one, padded).
#[test]
fn a_rows_distance_does_not_depend_on_its_tile_mates() {
    let polys = shapes(8, 91);
    let strangers = shapes(3, 92);
    let stranger_mates = [&strangers[0], &strangers[1], &strangers[2]];
    for n in [3, 16, 20, 64, 65] {
        let outside = pentagon();
        for prototype in [&polys[2], &outside] {
            for (i, subject) in polys.iter().enumerate() {
                let want = reference_turning_distance(subject, prototype, n);
                let alone = TurningCorpus::build([subject], n).distances(prototype);
                assert_bits(alone[0], want, &format!("object {i} alone, samples {n}"));
                let own: Vec<&Polygon> = (1..=3).map(|k| &polys[(i + k) % polys.len()]).collect();
                for lane in 0..4 {
                    let mut tiles: Vec<Vec<Polygon>> = PERMUTATIONS
                        .iter()
                        .map(|p| tile(subject, lane, [own[p[0]], own[p[1]], own[p[2]]]))
                        .collect();
                    tiles.push(tile(subject, lane, stranger_mates));
                    tiles.push(tile(subject, lane, [subject; 3]));
                    for (t, members) in tiles.iter().enumerate() {
                        let got = TurningCorpus::build(members, n).distances(prototype);
                        let what = format!("object {i} in lane {lane}, tile {t}, samples {n}");
                        assert_bits(got[lane], want, &what);
                    }
                }
            }
        }
    }
}
