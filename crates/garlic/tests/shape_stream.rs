//! Equivalence suite: a `Shape ~` atom served as a [`ShapeStream`] is
//! the list `QbicRepository::source_for` builds for it —
//! `source_from_distances(distances_to(…))`, every distance graded, cut
//! off at the largest — bit for bit: every prefix of its sorted stream,
//! every random access, both interleaved and after a rewind, and the
//! answers and `AccessStats` of every plan that reads it.
//!
//! Named targets and `#id` examples, at N ∈ {0, 1, 5, 600, 2 000}.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_garlic::repository::{QbicRepository, Repository};
use fmdb_garlic::shape_stream::ShapeStream;
use fmdb_media::shape::{Point, Polygon, TurningCorpus};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::algorithms::{Cursor, TopKResult};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{Oid, Subsystem, VecSource};

const SIZES: [usize; 5] = [0, 1, 5, 600, 2000];

/// How many of [`SIZES`] a check runs at: all in release builds (CI's
/// kernel suites); debug builds, which check every graded row against
/// all its shifts, stop short of 2 000.
const RUN: usize = if cfg!(debug_assertions) { 4 } else { 5 };

/// The repository of `n` synthetic images (`None` for none), one per
/// size for the whole suite: its pivot table is built once.
fn repo(n: usize) -> Option<&'static QbicRepository> {
    static REPOS: [OnceLock<Option<QbicRepository>>; SIZES.len()] =
        [const { OnceLock::new() }; SIZES.len()];
    let at = SIZES.iter().position(|&size| size == n)?;
    let built = REPOS[at].get_or_init(|| {
        let config = SynthConfig {
            count: n,
            bins_per_channel: 4,
            seed: 29,
            ..SynthConfig::default()
        };
        (n > 0).then(|| QbicRepository::new("qbic", SyntheticDb::generate(&config)))
    });
    built.as_ref()
}

/// The named targets, and examples from either end and the middle.
fn targets(n: usize) -> Vec<String> {
    let mut out: Vec<String> = ["round", "boxy", "spiky"].map(str::to_owned).into();
    if n > 0 {
        out.extend([0, n / 2, n - 1].map(|id| format!("#{id}")));
    }
    out
}

fn shape(target: &str) -> AtomicQuery {
    AtomicQuery::new("Shape", Target::Similar(target.to_owned()))
}

/// The stream and the list of one atom over `repo`, or over no shape
/// at all (a synthetic database holds at least one object).
fn both(repo: Option<&QbicRepository>, target: &str) -> (ShapeStream, VecSource) {
    let Some(repo) = repo else {
        let corpus = Arc::new(TurningCorpus::build(&[], 64));
        let circle = Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).unwrap();
        let prototype = Arc::new(corpus.prototype(&circle));
        let label = format!("qbic:{}", shape(target));
        let list = VecSource::from_fn(label.clone(), 0, |_| Score::ZERO);
        return (ShapeStream::new(label, corpus, prototype), list);
    };
    let atom = shape(target);
    let stream = repo.shape_stream(&atom).expect("a shape atom streams");
    let list = repo.source_for(&atom).expect("a shape atom grades");
    (stream, list)
}

/// An entry's bits.
fn bits(entries: &[ScoredObject<Oid>]) -> Vec<(Oid, u64)> {
    entries
        .iter()
        .map(|so| (so.id, so.grade.value().to_bits()))
        .collect()
}

fn grade_bits(grades: &[Score]) -> Vec<u64> {
    grades.iter().map(|g| g.value().to_bits()).collect()
}

#[test]
fn every_prefix_streams_as_the_list() {
    for &n in &SIZES[..RUN] {
        let repo = repo(n);
        for target in targets(n) {
            let (mut stream, mut list) = both(repo, &target);
            assert_eq!(stream.info(), list.info(), "N {n}, {target}");
            for at in 0..=n {
                let got = Subsystem::sorted_next(&mut stream).unwrap();
                let want = Subsystem::sorted_next(&mut list).unwrap();
                let got = got.map(|so| (so.id, so.grade.value().to_bits()));
                let want = want.map(|so| (so.id, so.grade.value().to_bits()));
                assert_eq!(got, want, "N {n}, {target}, entry {at}");
            }
            // A read of every row grades each row once, no more.
            assert!(stream.graded() <= n, "N {n}, {target}: {stream:?}");
        }
    }
}

#[test]
fn random_access_grades_as_the_list() {
    for &n in &SIZES[..RUN] {
        let repo = repo(n);
        for target in targets(n) {
            let (mut stream, mut list) = both(repo, &target);
            // Every oid in a scrambled order, then ids past the universe.
            let mut oids: Vec<Oid> = (0..n as Oid).map(|i| (i * 7919) % n as Oid).collect();
            oids.extend([n as Oid, n as Oid + 5, Oid::MAX]);
            for chunk in oids.chunks(97) {
                let got = stream.random_batch(chunk).unwrap();
                let want = list.random_batch(chunk).unwrap();
                assert_eq!(grade_bits(&got), grade_bits(&want), "N {n}, {target}");
            }
            assert!(stream.graded() <= n, "N {n}, {target}: {stream:?}");
        }
    }
}

/// One access of a schedule, drawn from `step`.
fn apply(source: &mut dyn Subsystem, step: u64, n: usize) -> (Vec<(Oid, u64)>, Vec<u64>) {
    match step % 5 {
        0 => {
            source.rewind();
            (Vec::new(), Vec::new())
        }
        1 | 2 => {
            let k = 1 + (step / 5 % 70) as usize;
            (bits(&source.sorted_batch(k).unwrap()), Vec::new())
        }
        _ => {
            let span = n as u64 + 3;
            let oids: Vec<Oid> = (0..1 + step / 5 % 9)
                .map(|i| (step / 45 + i * 131) % span)
                .collect();
            (Vec::new(), grade_bits(&source.random_batch(&oids).unwrap()))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sorted and random access interleaved, with rewinds: each access
    /// answers as on the list.
    #[test]
    fn interleaved_access_answers_as_the_list(seed in 0u64..1_000_000, at in 1usize..RUN) {
        let n = SIZES[at];
        let repo = repo(n);
        let targets = targets(n);
        let target = &targets[seed as usize % targets.len()];
        let (mut stream, mut list) = both(repo, target);
        let mut state = seed;
        for step in 0..40 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = state >> 20;
            let got = apply(&mut stream, draw, n);
            let want = apply(&mut list, draw, n);
            prop_assert_eq!(got, want, "N {}, {}, step {}", n, target, step);
        }
    }
}

/// Runs `plan` over a colour list and `shape` from scratch, and resumed
/// in two batches through one cursor.
fn run(
    plan: PhysicalPlan,
    colour: &VecSource,
    shape: &mut dyn Subsystem,
    scoring: &dyn ScoringFunction,
) -> (TopKResult, TopKResult) {
    let mut colour = colour.clone();
    let once = {
        let mut sources: [&mut dyn Subsystem; 2] = [&mut colour, &mut *shape];
        Cursor::once(plan, 0.0, &mut sources, scoring, 10).unwrap()
    };
    colour.rewind();
    shape.rewind();
    let mut cursor = Cursor::new(plan, 0.0).unwrap();
    let mut sources: [&mut dyn Subsystem; 2] = [&mut colour, &mut *shape];
    cursor.next_k(&mut sources, scoring, 4).unwrap();
    let resumed = cursor.next_k(&mut sources, scoring, 6).unwrap();
    (once, resumed)
}

/// Every plan that reads a list reads the stream alike: the same
/// answers, charged the same accesses.
#[test]
fn every_plan_answers_and_charges_as_on_the_list() {
    let plans = [
        PhysicalPlan::Fa,
        PhysicalPlan::Ta,
        PhysicalPlan::Nra,
        PhysicalPlan::Ca { h: 3 },
        PhysicalPlan::MaxMerge,
        PhysicalPlan::FullScan,
    ];
    for &n in &SIZES[2..RUN] {
        let repo = repo(n).unwrap();
        let colour = repo
            .source_for(&AtomicQuery::new("Color", Target::Similar("red".into())))
            .unwrap();
        // Debug builds: the first named target and the first example.
        let targets = targets(n);
        let step = if cfg!(debug_assertions) { 3 } else { 1 };
        for target in targets.iter().step_by(step) {
            for plan in plans {
                let scorings: &[&dyn ScoringFunction] = match plan {
                    PhysicalPlan::MaxMerge => &[&ConormScoring(Max)],
                    _ => &[&Min, &ArithmeticMean],
                };
                for &scoring in scorings {
                    let (mut stream, mut list) = both(Some(repo), target);
                    let what = format!("N {n}, {target}, {plan}, {}", scoring.name());
                    let got = run(plan, &colour, &mut stream, scoring);
                    let want = run(plan, &colour, &mut list, scoring);
                    assert_eq!(got.0.answers, want.0.answers, "{what}");
                    assert_eq!(got.0.stats, want.0.stats, "{what}");
                    assert_eq!(got.1.answers, want.1.answers, "{what}, resumed");
                    assert_eq!(got.1.stats, want.1.stats, "{what}, resumed");
                }
            }
        }
    }
}

/// Distinct distances whose grades `1 − d/dmax` round to one value
/// stream in oid order, as the list's do. A star, ten scaled and moved
/// copies of it, and an ellipse; the prototype is the star: the copies
/// lie ≈ 1e-15 from it, rounding noise, and rows 3 and 9 grade alike
/// though row 9 lies nearer.
#[test]
fn distinct_distances_of_one_grade_stream_in_oid_order() {
    let star = Polygon::star(5, 1.0, 0.4, 0.0, 0.0).unwrap();
    let scales = [1.0, 3.0, 0.1, 7.0, 0.37, 11.0, 0.013, 5.5, 2.25, 19.0];
    let mut shapes: Vec<Polygon> = scales
        .iter()
        .enumerate()
        .map(|(i, &scale)| {
            let (dx, dy) = (i as f64 * 3.0, -(i as f64));
            let vertices = star.vertices().iter();
            let vertices = vertices.map(|p| Point::new(p.x * scale + dx, p.y * scale + dy));
            Polygon::new(vertices.collect()).unwrap()
        })
        .collect();
    shapes.push(Polygon::ellipse(0.0, 0.0, 1.0, 0.6, 17).unwrap());
    let corpus = Arc::new(TurningCorpus::build(&shapes, 64));
    let prototype = Arc::new(corpus.prototype(&star));
    let d = corpus.distances_to(&prototype);
    let dmax = d.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
    let list = VecSource::from_fn("star", d.len(), |i| Score::clamped(1.0 - d[i] / dmax));
    let grade = |row: usize| Score::clamped(1.0 - d[row] / dmax);
    assert!(d[9] < d[3], "{} < {}", d[9], d[3]);
    assert_eq!(grade(3), grade(9));

    let mut stream = ShapeStream::new("star", Arc::clone(&corpus), prototype);
    let streamed = stream.sorted_batch(usize::MAX).unwrap();
    let mut list = list;
    assert_eq!(
        bits(&streamed),
        bits(&list.sorted_batch(usize::MAX).unwrap())
    );
    let at = |row: Oid| streamed.iter().position(|so| so.id == row).unwrap();
    assert!(at(3) < at(9), "{streamed:?}");
}

/// A repository's `bind_source` serves its `Shape` atoms as streams and
/// its other atoms as their lists; both answer as `source_for`'s.
#[test]
fn bind_source_answers_as_source_for() {
    let repo = repo(600).unwrap();
    for atom in [
        shape("round"),
        shape("#17"),
        AtomicQuery::new("Color", Target::Similar("red".into())),
    ] {
        let mut bound = repo.bind_source(&atom).unwrap();
        let mut list = repo.source_for(&atom).unwrap();
        assert_eq!(
            bits(&bound.sorted_batch(50).unwrap()),
            bits(&Subsystem::sorted_batch(&mut list, 50).unwrap()),
            "{atom}"
        );
    }
    assert!(repo
        .shape_stream(&AtomicQuery::new("Color", Target::Similar("red".into())))
        .is_err());
    assert!(repo.shape_stream(&shape("blobby")).is_err());
}
