//! Shape grading through the facade: the turning-function distance's
//! invariances (§2: translation, scale, rotation, starting vertex), the
//! precomputed [`TurningCorpus`] agreeing bit for bit with the pairwise
//! distance on both of its transform paths, the Fourier and Hu
//! descriptors' invariances, and a QBIC repository's named shape and
//! texture targets grading the same on every query.

use proptest::prelude::*;

use fuzzymm::garlic::repository::{RepoError, Repository};
use fuzzymm::media::shape::{
    turning_distance, FourierDescriptor, HuMoments, Point, Polygon, TurningCorpus,
};
use fuzzymm::media::synth::ShapeFamily;
use fuzzymm::middleware::source::GradedSource;
use fuzzymm::prelude::*;

/// Sample counts for both corpus paths: powers of two correlate
/// cyclically at `n`, the others through a zero-padded transform.
const SAMPLES: [usize; 6] = [16, 64, 128, 20, 50, 100];

fn gallery() -> Vec<Polygon> {
    vec![
        Polygon::ellipse(0.0, 0.0, 2.0, 1.0, 40).expect("valid ellipse"),
        Polygon::rectangle(1.0, -2.0, 3.0, 1.0).expect("valid rectangle"),
        Polygon::star(5, 1.0, 0.4, 0.0, 0.0).expect("valid star"),
        Polygon::regular(6, 1.0, 0.0, 0.0, 0.3).expect("valid hexagon"),
        Polygon::regular(3, 2.0, 5.0, 5.0, 0.0).expect("valid triangle"),
    ]
}

/// `poly` scaled by `s` about the origin and moved by `(dx, dy)`.
fn moved(poly: &Polygon, s: f64, dx: f64, dy: f64) -> Polygon {
    let vertices = poly
        .vertices()
        .iter()
        .map(|p| Point::new(s * p.x + dx, s * p.y + dy))
        .collect();
    Polygon::new(vertices).expect("a similar copy is valid")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn turning_distance_of_a_shape_to_itself_is_zero() {
    for shape in gallery() {
        for n in SAMPLES {
            let d = turning_distance(&shape, &shape, n);
            assert!(d.abs() < 1e-9, "n = {n}: {d}");
        }
    }
}

#[test]
fn turning_distance_ignores_translation_and_scale() {
    for shape in gallery() {
        let copy = moved(&shape, 3.5, -7.0, 11.0);
        let d = turning_distance(&shape, &copy, 64);
        assert!(d < 1e-6, "{d}");
    }
}

#[test]
fn turning_distance_ignores_rotation() {
    let upright = Polygon::regular(7, 1.0, 0.0, 0.0, 0.0).expect("valid heptagon");
    let turned = Polygon::regular(7, 1.0, 0.0, 0.0, 1.1).expect("valid heptagon");
    let d = turning_distance(&upright, &turned, 70);
    assert!(d < 1e-6, "{d}");
}

#[test]
fn turning_distance_ignores_the_starting_vertex() {
    // Six equal sides at 60 samples: starting one vertex later moves
    // the resampled outline by exactly ten samples, a shift the
    // minimization tries.
    let hexagon = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).expect("valid hexagon");
    let mut vertices = hexagon.vertices().to_vec();
    vertices.rotate_left(2);
    let relabelled = Polygon::new(vertices).expect("same outline");
    let d = turning_distance(&hexagon, &relabelled, 60);
    assert!(d < 1e-6, "{d}");
}

#[test]
fn turning_distance_is_symmetric() {
    let shapes = gallery();
    for a in &shapes {
        for b in &shapes {
            let (ab, ba) = (turning_distance(a, b, 64), turning_distance(b, a, 64));
            assert!((ab - ba).abs() <= 1e-9 * ab.max(1.0), "{ab} vs {ba}");
        }
    }
}

#[test]
fn regular_polygons_approach_the_circle_as_sides_grow() {
    let circle = Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 90).expect("valid circle");
    let distances: Vec<f64> = [3, 4, 6, 12]
        .into_iter()
        .map(|sides| {
            let poly = Polygon::regular(sides, 1.0, 0.0, 0.0, 0.0).expect("valid polygon");
            turning_distance(&poly, &circle, 120)
        })
        .collect();
    assert!(
        distances.windows(2).all(|pair| pair[1] < pair[0]),
        "{distances:?}"
    );
}

#[test]
fn corpus_distances_equal_pairwise_distances_bit_for_bit() {
    let shapes = gallery();
    for n in SAMPLES {
        let corpus = TurningCorpus::build(&shapes, n);
        assert_eq!(corpus.len(), shapes.len());
        for prototype in &shapes {
            let pairwise: Vec<f64> = shapes
                .iter()
                .map(|shape| turning_distance(shape, prototype, n))
                .collect();
            assert_eq!(
                bits(&corpus.distances(prototype)),
                bits(&pairwise),
                "n = {n}"
            );
        }
    }
}

#[test]
fn a_prepared_prototype_grades_like_its_outline() {
    let shapes = gallery();
    for n in SAMPLES {
        let corpus = TurningCorpus::build(&shapes, n);
        let star = Polygon::star(8, 1.0, 0.5, 2.0, 2.0).expect("valid star");
        let prepared = corpus.prototype(&star);
        assert_eq!(prepared.samples(), n);
        assert_eq!(
            bits(&corpus.distances_to(&prepared)),
            bits(&corpus.distances(&star))
        );
    }
}

#[test]
fn an_empty_corpus_grades_nothing() {
    let corpus = TurningCorpus::build(std::iter::empty(), 64);
    assert!(corpus.is_empty());
    let square = Polygon::rectangle(0.0, 0.0, 1.0, 1.0).expect("valid square");
    assert!(corpus.distances(&square).is_empty());
}

#[test]
#[should_panic(expected = "the prototype must come from this corpus")]
fn a_prototype_of_another_sample_count_is_refused() {
    let shapes = gallery();
    let coarse = TurningCorpus::build(&shapes, 16);
    let fine = TurningCorpus::build(&shapes, 64);
    let _unused = coarse.distances_to(&fine.prototype(&shapes[0]));
}

#[test]
fn fourier_descriptors_ignore_translation_and_scale() {
    for shape in gallery() {
        let a = FourierDescriptor::of(&shape, 8, 128);
        let b = FourierDescriptor::of(&moved(&shape, 0.25, 4.0, -3.0), 8, 128);
        assert_eq!(a.coefficients().len(), 8);
        assert!(a.distance(&b) < 1e-9, "{}", a.distance(&b));
    }
}

#[test]
fn hu_moments_ignore_translation_and_scale() {
    for shape in gallery() {
        let a = HuMoments::of(&shape, 48);
        let b = HuMoments::of(&moved(&shape, 2.0, -9.0, 6.0), 48);
        assert!(a.distance(&b) < 1e-6, "{}", a.distance(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_matches_pairwise_on_random_stars(
        spikes in 3usize..10,
        inner in 0.2f64..0.9,
        samples in 8usize..90,
    ) {
        let star = Polygon::star(spikes, 1.0, inner, 0.0, 0.0).expect("valid star");
        let shapes = gallery();
        let corpus = TurningCorpus::build(&shapes, samples);
        let pairwise: Vec<f64> = shapes
            .iter()
            .map(|shape| turning_distance(shape, &star, samples))
            .collect();
        prop_assert_eq!(bits(&corpus.distances(&star)), bits(&pairwise));
    }
}

fn qbic(count: usize) -> QbicRepository {
    let db = SyntheticDb::generate(&SynthConfig {
        count,
        seed: 11,
        ..SynthConfig::default()
    });
    QbicRepository::new("qbic", db)
}

fn similar(attribute: &str, name: &str) -> AtomicQuery {
    match Query::atomic(attribute, Target::Similar(name.into())) {
        Query::Atomic(atom) => atom,
        other => panic!("an atomic query, got {other:?}"),
    }
}

/// The repository's graded list for `attribute ~ name`, in sorted
/// order, as `(oid, grade bits)`.
fn graded(repo: &QbicRepository, attribute: &str, name: &str) -> Vec<(Oid, u64)> {
    let mut source = repo
        .source_for(&similar(attribute, name))
        .unwrap_or_else(|e| panic!("{attribute}~'{name}': {e}"));
    std::iter::from_fn(|| GradedSource::sorted_next(&mut source))
        .map(|so| (so.id, so.grade.value().to_bits()))
        .collect()
}

#[test]
fn named_shapes_grade_the_same_on_every_query_in_any_case() {
    let repo = qbic(90);
    for name in ["round", "boxy", "spiky"] {
        let first = graded(&repo, "Shape", name);
        assert_eq!(first.len(), 90);
        assert_eq!(graded(&repo, "Shape", name), first);
        assert_eq!(graded(&repo, "Shape", &name.to_ascii_uppercase()), first);
    }
}

#[test]
fn named_textures_grade_the_same_on_every_query_in_any_case() {
    let repo = qbic(90);
    for name in ["coarse", "fine", "smooth", "rough", "directional"] {
        let first = graded(&repo, "Texture", name);
        assert_eq!(first.len(), 90);
        assert_eq!(graded(&repo, "Texture", name), first);
        assert_eq!(graded(&repo, "Texture", &name.to_ascii_uppercase()), first);
    }
}

#[test]
fn unknown_named_targets_are_refused() {
    let repo = qbic(20);
    for attribute in ["Shape", "Texture"] {
        assert!(matches!(
            repo.source_for(&similar(attribute, "blobby")),
            Err(RepoError::UnknownTarget(_))
        ));
    }
}

/// The five best answers to each named shape come from the family it
/// names. (Further down, "spiky" meets stars with other spike counts
/// and rectangles at similar distances.)
#[test]
fn each_named_shape_ranks_its_own_family_first() {
    let repo = qbic(90);
    for (name, family) in [
        ("round", ShapeFamily::Round),
        ("boxy", ShapeFamily::Boxy),
        ("spiky", ShapeFamily::Spiky),
    ] {
        for (oid, _) in graded(&repo, "Shape", name).into_iter().take(5) {
            let object = &repo.db().objects[usize::try_from(oid).expect("small oid")];
            assert_eq!(object.family, family, "{name}: object {oid}");
        }
    }
}
