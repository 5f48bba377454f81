//! Pinned charges and FLN family identities for the threshold kernel.
//!
//! The equivalence suites compare engine ≡ scalar and θ = 0 ≡ exact,
//! but both sides of each comparison run the same kernel
//! (`algorithms/threshold.rs`), so a change that shifts access counts
//! on both sides would pass them. The literals below were captured
//! from the five separate loops the kernel replaced (commit 22ec100):
//! `(sorted, random)` and the answer list of every family member on
//! `independent_uniform(400, m, 7)`. FA and pruned-FA ride along
//! because they share phase 1 with each other.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::ScoringFunction;
use fmdb_middleware::algorithms::approx::{ApproxNra, ApproxTa};
use fmdb_middleware::algorithms::ca::CombinedAlgorithm;
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::algorithms::nra::NraLowerBound;
use fmdb_middleware::algorithms::pruned_fa::PrunedFa;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::oracle::verify_top_k;
use fmdb_middleware::source::{GradedSource, Oid};
use fmdb_middleware::workload::independent_uniform;

const N: usize = 400;
const SEED: u64 = 7;

type Answers = &'static [(Oid, f64)];

/// `(algorithm, sorted, random, answers)`; `None` answers mean the
/// fixture's `exact` list.
type Row = (&'static str, u64, u64, Option<Answers>);

struct Fixture {
    scoring: &'static str,
    m: usize,
    k: usize,
    /// The true top-k, which every exact family member returns.
    exact: Answers,
    rows: &'static [Row],
}

fn algorithm(name: &str) -> Box<dyn TopKAlgorithm> {
    match name {
        "ta" => Box::new(ThresholdAlgorithm),
        "approx-ta(0.1)" => Box::new(ApproxTa::new(0.1)),
        "nra" => Box::new(NraLowerBound),
        "approx-nra(0.1)" => Box::new(ApproxNra::new(0.1)),
        "ca(h=1)" => Box::new(CombinedAlgorithm::new(1, 0.0)),
        "ca(h=3)" => Box::new(CombinedAlgorithm::new(3, 0.0)),
        "ca(h=10)" => Box::new(CombinedAlgorithm::new(10, 0.0)),
        "fa" => Box::new(FaginsAlgorithm),
        "pruned-fa" => Box::new(PrunedFa::default()),
        "pruned-fa(no-short-circuit)" => Box::new(PrunedFa::without_short_circuit()),
        other => panic!("unknown roster entry {other}"),
    }
}

fn scoring(name: &str) -> Box<dyn ScoringFunction> {
    match name {
        "min" => Box::new(Min),
        "mean" => Box::new(ArithmeticMean),
        other => panic!("unknown scoring {other}"),
    }
}

fn run(algo: &dyn TopKAlgorithm, fixture: &Fixture) -> TopKResult {
    let mut sources = independent_uniform(N, fixture.m, SEED);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    algo.top_k(&mut refs, scoring(fixture.scoring).as_ref(), fixture.k)
        .unwrap()
}

fn scored(answers: Answers) -> Vec<ScoredObject<Oid>> {
    answers
        .iter()
        .map(|&(oid, g)| ScoredObject::new(oid, Score::clamped(g)))
        .collect()
}

#[test]
fn every_family_member_reproduces_its_pinned_charges_and_answers() {
    for fixture in PINNED {
        for &(name, sorted, random, own) in fixture.rows {
            let got = run(algorithm(name).as_ref(), fixture);
            let at = format!(
                "{name} under {} m={} k={}",
                fixture.scoring, fixture.m, fixture.k
            );
            assert_eq!(
                (got.stats.sorted, got.stats.random),
                (sorted, random),
                "{at}"
            );
            assert_eq!(got.answers, scored(own.unwrap_or(fixture.exact)), "{at}");
        }
    }
}

/// CA that never reaches its probe round *is* NRA during the scan: the
/// same sorted accesses, then the halt-time closing pass turns the
/// certified set into exact grades.
#[test]
fn ca_with_unreachable_interleave_streams_exactly_like_nra() {
    for fixture in PINNED {
        let ca = run(&CombinedAlgorithm::new(usize::MAX, 0.0), fixture);
        let nra = run(&NraLowerBound, fixture);
        assert_eq!(ca.stats.sorted, nra.stats.sorted);
        let mut sources = independent_uniform(N, fixture.m, SEED);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        verify_top_k(
            &mut refs,
            scoring(fixture.scoring).as_ref(),
            &ca.answers,
            fixture.k,
        )
        .unwrap();
    }
}

#[test]
fn zero_slack_nra_is_nra() {
    for fixture in PINNED {
        let approx = run(&ApproxNra::new(0.0), fixture);
        let exact = run(&NraLowerBound, fixture);
        assert_eq!(approx.answers, exact.answers);
        assert_eq!(approx.stats, exact.stats);
    }
}

const PINNED: &[Fixture] = &[
    Fixture {
        scoring: "min",
        m: 2,
        k: 1,
        exact: &[(281, 0.9469035925444849)],
        rows: &[
            ("ta", 44, 43, None),
            ("approx-ta(0.1)", 16, 16, Some(&[(191, 0.9401908611647943)])),
            ("nra", 58, 0, None),
            ("approx-nra(0.1)", 44, 0, None),
            ("ca(h=1)", 50, 25, None),
            ("ca(h=3)", 58, 9, None),
            ("ca(h=10)", 58, 2, None),
            ("fa", 43, 41, None),
            ("pruned-fa", 43, 21, None),
            ("pruned-fa(no-short-circuit)", 43, 21, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 2,
        k: 10,
        exact: &[
            (281, 0.9469035925444849),
            (191, 0.9401908611647943),
            (332, 0.8852429861638754),
            (334, 0.8732604510562031),
            (8, 0.8708790133391207),
            (375, 0.8702803523269451),
            (276, 0.8689046309659981),
            (273, 0.8633496203318959),
            (149, 0.8298752903066692),
            (55, 0.8171149703675678),
        ],
        rows: &[
            ("ta", 144, 134, None),
            (
                "approx-ta(0.1)",
                76,
                74,
                Some(&[
                    (281, 0.9469035925444849),
                    (191, 0.9401908611647943),
                    (332, 0.8852429861638754),
                    (334, 0.8732604510562031),
                    (8, 0.8708790133391207),
                    (375, 0.8702803523269451),
                    (276, 0.8689046309659981),
                    (149, 0.8298752903066692),
                    (55, 0.8171149703675678),
                    (331, 0.8143609588557879),
                ]),
            ),
            ("nra", 144, 0, None),
            ("approx-nra(0.1)", 144, 0, None),
            ("ca(h=1)", 144, 71, None),
            ("ca(h=3)", 144, 23, None),
            ("ca(h=10)", 144, 7, None),
            ("fa", 143, 123, None),
            ("pruned-fa", 143, 62, None),
            ("pruned-fa(no-short-circuit)", 143, 62, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 3,
        k: 1,
        exact: &[(149, 0.8298752903066692)],
        rows: &[
            ("ta", 174, 298, None),
            ("approx-ta(0.1)", 96, 174, None),
            ("nra", 213, 0, None),
            ("approx-nra(0.1)", 192, 0, None),
            ("ca(h=1)", 192, 116, None),
            ("ca(h=3)", 192, 32, None),
            ("ca(h=10)", 213, 8, None),
            ("fa", 190, 296, None),
            ("pruned-fa", 190, 10, None),
            ("pruned-fa(no-short-circuit)", 190, 10, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 3,
        k: 10,
        exact: &[
            (149, 0.8298752903066692),
            (345, 0.78269656402677),
            (38, 0.7651134003710842),
            (336, 0.7407292830150894),
            (22, 0.7310016336786538),
            (213, 0.7277374637177109),
            (72, 0.7022558259863945),
            (117, 0.6912277567783691),
            (58, 0.6705867194706899),
            (251, 0.6606835723597614),
        ],
        rows: &[
            ("ta", 384, 558, None),
            ("approx-ta(0.1)", 312, 490, None),
            ("nra", 405, 0, None),
            ("approx-nra(0.1)", 384, 0, None),
            ("ca(h=1)", 393, 211, None),
            ("ca(h=3)", 405, 56, None),
            ("ca(h=10)", 405, 14, None),
            ("fa", 383, 454, None),
            ("pruned-fa", 383, 119, None),
            ("pruned-fa(no-short-circuit)", 383, 182, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 2,
        k: 1,
        exact: &[(281, 0.9676309805734518)],
        rows: &[
            ("ta", 34, 34, None),
            ("approx-ta(0.1)", 8, 8, Some(&[(331, 0.905244320591109)])),
            ("nra", 64, 0, None),
            ("approx-nra(0.1)", 44, 0, None),
            ("ca(h=1)", 40, 19, None),
            ("ca(h=3)", 54, 8, None),
            ("ca(h=10)", 60, 3, None),
            ("fa", 43, 41, None),
            ("pruned-fa", 43, 17, None),
            ("pruned-fa(no-short-circuit)", 43, 17, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 2,
        k: 10,
        exact: &[
            (281, 0.9676309805734518),
            (191, 0.961355544538864),
            (8, 0.9266008322756819),
            (332, 0.9198855251378186),
            (375, 0.9085669087150501),
            (331, 0.905244320591109),
            (276, 0.8981780808894931),
            (334, 0.8978023664545003),
            (149, 0.8915256342899276),
            (55, 0.886806634968613),
        ],
        rows: &[
            ("ta", 88, 86, None),
            (
                "approx-ta(0.1)",
                56,
                55,
                Some(&[
                    (281, 0.9676309805734518),
                    (191, 0.961355544538864),
                    (8, 0.9266008322756819),
                    (332, 0.9198855251378186),
                    (375, 0.9085669087150501),
                    (331, 0.905244320591109),
                    (276, 0.8981780808894931),
                    (149, 0.8915256342899276),
                    (55, 0.886806634968613),
                    (373, 0.8738532127051994),
                ]),
            ),
            ("nra", 176, 0, None),
            (
                "approx-nra(0.1)",
                144,
                0,
                Some(&[
                    (281, 0.9676309805734518),
                    (191, 0.961355544538864),
                    (8, 0.9266008322756819),
                    (332, 0.9198855251378186),
                    (375, 0.9085669087150501),
                    (276, 0.8981780808894931),
                    (334, 0.8978023664545003),
                    (149, 0.8915256342899276),
                    (55, 0.886806634968613),
                    (273, 0.8843577492083605),
                ]),
            ),
            ("ca(h=1)", 122, 61, None),
            ("ca(h=3)", 166, 27, None),
            ("ca(h=10)", 176, 8, None),
            ("fa", 143, 123, None),
            ("pruned-fa", 143, 38, None),
            ("pruned-fa(no-short-circuit)", 143, 38, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 3,
        k: 1,
        exact: &[(149, 0.9197204910583935)],
        rows: &[
            ("ta", 96, 174, None),
            ("approx-ta(0.1)", 39, 74, None),
            ("nra", 264, 0, None),
            ("approx-nra(0.1)", 192, 0, None),
            ("ca(h=1)", 123, 76, None),
            ("ca(h=3)", 153, 26, None),
            ("ca(h=10)", 186, 6, None),
            ("fa", 190, 296, None),
            ("pruned-fa", 190, 3, None),
            ("pruned-fa(no-short-circuit)", 190, 3, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 3,
        k: 10,
        exact: &[
            (149, 0.9197204910583935),
            (38, 0.8552838079310338),
            (58, 0.8494079992417723),
            (22, 0.8242411671674456),
            (40, 0.8198470573130284),
            (345, 0.8187083838050299),
            (321, 0.8162016023484565),
            (107, 0.8144226744444122),
            (117, 0.7974109469082192),
            (213, 0.7889262564655145),
        ],
        rows: &[
            ("ta", 237, 394, None),
            ("approx-ta(0.1)", 159, 278, None),
            ("nra", 744, 0, None),
            (
                "approx-nra(0.1)",
                504,
                0,
                Some(&[
                    (149, 0.9197204910583935),
                    (38, 0.8552838079310338),
                    (58, 0.8494079992417723),
                    (22, 0.8242411671674456),
                    (345, 0.8187083838050299),
                    (321, 0.8162016023484565),
                    (107, 0.8144226744444122),
                    (117, 0.7974109469082192),
                    (213, 0.7889262564655145),
                    (355, 0.7778424505998075),
                ]),
            ),
            ("ca(h=1)", 318, 182, None),
            ("ca(h=3)", 396, 56, None),
            ("ca(h=10)", 531, 17, None),
            ("fa", 383, 454, None),
            ("pruned-fa", 383, 34, None),
            ("pruned-fa(no-short-circuit)", 383, 34, None),
        ],
    },
];
