//! Property suite: a turning corpus's pivot table bounds every row's
//! distance to a prototype from both sides, with the margin at the
//! table's own pivot count ([`PIVOTS`]): `lower[x] ≤ d[x] ≤ upper[x]`,
//! where `d` is what [`TurningCorpus::distances_to`] grades. And the
//! doors a bound stream grades through — one row alone, and rows of
//! other tiles gathered into one ([`TurningCorpus::distances_of`]), and
//! the tiles of chosen rows
//! ([`TurningCorpus::distances_where`]) — grade as `distances_to` does,
//! bit for bit.

use proptest::prelude::*;

use fmdb_media::shape::{Point, Polygon, Prototype, RowScratch, TurningCorpus, PIVOTS, TILE_ROWS};
use fmdb_media::synth::jitter_shape;

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
/// positions and scales, with every fifth a scaled, moved copy of the
/// first (a distance ≈ 0 to it).
fn shapes(count: usize, seed: u64) -> Vec<Polygon> {
    let mut next = uniform(seed);
    let mut out: Vec<Polygon> = Vec::with_capacity(count);
    for i in 0..count {
        let (cx, cy) = (next() * 10.0 - 5.0, next() * 10.0 - 5.0);
        if i % 5 == 4 {
            let scale = 0.01 + 10.0 * next();
            out.push(moved(&out[0], scale, cx, cy));
            continue;
        }
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
        out.push(if next() < 0.5 {
            jitter_shape(&base, 0.05, seed ^ i as u64)
        } else {
            base
        });
    }
    out
}

/// `shape` scaled by `scale` about the origin, then moved by `(dx, dy)`.
fn moved(shape: &Polygon, scale: f64, dx: f64, dy: f64) -> Polygon {
    let vertices = shape
        .vertices()
        .iter()
        .map(|p| Point::new(p.x * scale + dx, p.y * scale + dy))
        .collect();
    Polygon::new(vertices).expect("a scaled copy of a valid polygon")
}

/// Checks the corpus of `shapes` at `samples` against `prototype`: the
/// pivot count, both doors' bits, and the bounds. Returns the
/// distances.
fn check(shapes: &[Polygon], samples: usize, prototype: &Polygon, what: &str) -> Vec<f64> {
    let corpus = TurningCorpus::build(shapes, samples);
    let prototype: Prototype = corpus.prototype(prototype);
    let d = corpus.distances_to(&prototype);
    let pivots = corpus.pivots().rows();
    assert!(
        pivots.len() <= PIVOTS.min(shapes.len()),
        "{what}: {pivots:?}"
    );
    assert_eq!(pivots.is_empty(), shapes.is_empty(), "{what}: {pivots:?}");
    let mut scratch = RowScratch::default();
    for (row, want) in d.iter().enumerate() {
        let mut alone = Vec::new();
        corpus.distances_of(&[row], &prototype, &mut scratch, &mut alone);
        assert_eq!(alone.len(), 1, "{what}: row {row} alone");
        assert_eq!(
            alone[0].to_bits(),
            want.to_bits(),
            "{what}: row {row} alone"
        );
    }
    // Rows of different tiles gathered into one, in a scrambled order.
    let scrambled: Vec<usize> = (0..d.len()).map(|i| (i * 7 + 3) % d.len()).collect();
    for rows in scrambled.chunks(TILE_ROWS).chain(scrambled.chunks(3)) {
        let mut got = Vec::new();
        corpus.distances_of(rows, &prototype, &mut scratch, &mut got);
        let want: Vec<u64> = rows.iter().map(|&row| d[row].to_bits()).collect();
        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{what}: rows {rows:?} gathered");
    }
    let mut odd = vec![f64::NAN; d.len()];
    corpus.distances_where(&prototype, |row| row % 2 == 1, |row, x| odd[row] = x);
    for (row, (got, want)) in odd.iter().zip(&d).enumerate() {
        if row % 2 == 1 {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: row {row} of the odd rows"
            );
        } else {
            assert!(got.is_nan(), "{what}: row {row} was not asked for");
        }
    }
    let to_pivots: Vec<f64> = pivots.iter().map(|&row| d[row]).collect();
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    assert!(
        corpus.pivot_bounds(&prototype, &to_pivots, &mut lower, &mut upper),
        "{what}: finite distances bound"
    );
    assert_eq!((lower.len(), upper.len()), (d.len(), d.len()), "{what}");
    for (row, ((&lo, &hi), &x)) in lower.iter().zip(&upper).zip(&d).enumerate() {
        assert!(
            lo <= x && x <= hi,
            "{what}: row {row}: {lo:e} ≤ {x:e} ≤ {hi:e} fails"
        );
        assert!(
            lo.to_bits() == 0 || lo > 0.0,
            "{what}: row {row}: lower {lo:e}"
        );
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pivot_bounds_hold_on_random_corpora(
        seed in 0u64..1_000_000,
        size_at in 0usize..7,
        samples_at in 0usize..3,
    ) {
        let size = [0, 1, 2, 5, 31, 33, 70][size_at];
        let samples = [8, 63, 64][samples_at];
        let corpus = shapes(size, seed);
        let prototype = &shapes(3, seed ^ 0x5eed)[2];
        check(&corpus, samples, prototype, &format!("seed {seed}, N {size}, n {samples}"));
        if let Some(first) = corpus.first() {
            // A prototype in the corpus: its own row at distance 0.
            check(&corpus, samples, first, &format!("seed {seed}, N {size}, own row"));
        }
    }
}

/// Identical shapes: every row on the first pivot, so farthest-first
/// stops at one; with the shape itself as prototype every distance is 0
/// and a grade's `dmax` is the `1e-12` floor.
#[test]
fn identical_shapes_are_one_pivot_and_zero_distances() {
    let star = Polygon::star(5, 1.0, 0.4, 0.0, 0.0).unwrap();
    let copies = vec![star.clone(); 9];
    let d = check(&copies, 64, &star, "nine copies");
    assert!(d.iter().all(|&x| x.to_bits() == 0), "{d:?}");
    let corpus = TurningCorpus::build(&copies, 64);
    assert_eq!(corpus.pivots().rows(), [0]);
    let other = Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap();
    check(&copies, 64, &other, "nine copies, another prototype");
}

/// No row, one row, and fewer rows than [`PIVOTS`].
#[test]
fn small_corpora_bound_every_row() {
    let prototype = Polygon::ellipse(0.0, 0.0, 1.0, 0.6, 30).unwrap();
    assert!(check(&[], 64, &prototype, "N 0").is_empty());
    check(&shapes(1, 3), 64, &prototype, "N 1");
    let few = shapes(7, 11);
    check(&few, 64, &prototype, "N 7");
    let corpus = TurningCorpus::build(&few, 64);
    assert!(corpus.pivots().rows().len() <= few.len());
    assert!(PIVOTS > few.len());
}

/// The cd-store corpus's shapes at its own sample count, against its
/// named prototypes and examples of its own rows.
#[test]
fn cd_store_shapes_are_bounded() {
    use fmdb_media::synth::{SynthConfig, SyntheticDb};
    let db = SyntheticDb::generate(&SynthConfig {
        count: 300,
        bins_per_channel: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let corpus: Vec<Polygon> = db.objects.iter().map(|o| o.shape.clone()).collect();
    let mut prototypes = vec![
        Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).unwrap(),
        Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap(),
        Polygon::star(6, 1.0, 0.35, 0.0, 0.0).unwrap(),
    ];
    prototypes.extend([0, 7, 299].map(|row| corpus[row].clone()));
    for (i, prototype) in prototypes.iter().enumerate() {
        check(&corpus, 64, prototype, &format!("cd-store, prototype {i}"));
    }
}
