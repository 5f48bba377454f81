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
//!
//! The naive scan, the max merge, the filter simulation and A₀ resumed
//! 5 + 5 (a [`Cursor`] over the `Fa` plan) joined at commit a0b375d,
//! when all of them still kept books of their own — together with
//! [`SPARSE`], the same lists with holes, where "a list that never
//! streams an object grades it 0" is part of every answer.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::cg_filter::CgFilter;
use fmdb_middleware::algorithms::pruned_fa::PrunedFa;
use fmdb_middleware::algorithms::{Cursor, TopKAlgorithm, TopKResult};
use fmdb_middleware::oracle::verify_top_k;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{self, GradedSource, Oid, VecSource};
use fmdb_middleware::workload::independent_uniform;

mod support;
use support::Planned;

const N: usize = 400;
const SEED: u64 = 7;

type Answers = &'static [(Oid, f64)];

/// `(sorted, random)`.
type Charges = (u64, u64);

/// A schedule that starts too high and restarts up to seven times: the
/// default's first τ = 0.5 already holds ten answers on every fixture
/// below.
const STEEP: CgFilter = CgFilter {
    initial_tau: 0.95,
    decay: 0.9,
};

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
        "ta" => Box::new(Planned(PhysicalPlan::Ta, 0.0)),
        "approx-ta(0.1)" => Box::new(Planned(PhysicalPlan::ApproxTa, 0.1)),
        "nra" => Box::new(Planned(PhysicalPlan::Nra, 0.0)),
        "approx-nra(0.1)" => Box::new(Planned(PhysicalPlan::ApproxNra, 0.1)),
        "ca(h=1)" => Box::new(Planned(PhysicalPlan::Ca { h: 1 }, 0.0)),
        "ca(h=3)" => Box::new(Planned(PhysicalPlan::Ca { h: 3 }, 0.0)),
        "ca(h=10)" => Box::new(Planned(PhysicalPlan::Ca { h: 10 }, 0.0)),
        "fa" => Box::new(Planned(PhysicalPlan::Fa, 0.0)),
        "pruned-fa" => Box::new(PrunedFa::default()),
        "pruned-fa(no-short-circuit)" => Box::new(PrunedFa::without_short_circuit()),
        "naive" => Box::new(Planned(PhysicalPlan::FullScan, 0.0)),
        "max-merge" => Box::new(Planned(PhysicalPlan::MaxMerge, 0.0)),
        name if name.starts_with("cg-filter") => Box::new(schedule(name)),
        other => panic!("unknown roster entry {other}"),
    }
}

fn schedule(name: &str) -> CgFilter {
    match name {
        "cg-filter" => CgFilter::default(),
        "cg-filter(0.95, 0.9)" => STEEP,
        other => panic!("unknown τ schedule {other}"),
    }
}

fn scoring(name: &str) -> Box<dyn ScoringFunction> {
    match name {
        "min" => Box::new(Min),
        "mean" => Box::new(ArithmeticMean),
        "max" => Box::new(ConormScoring(Max)),
        other => panic!("unknown scoring {other}"),
    }
}

/// Which lists a fixture's literals were captured on.
#[derive(Debug, Clone, Copy)]
enum Lists {
    /// `independent_uniform(N, m, SEED)`.
    Dense,
    /// The same lists with holes: list `i` leaves out every object
    /// with `(oid + i) % 4 == 0` — never streamed, grade 0 on a probe.
    Sparse,
}

impl Lists {
    fn build(self, m: usize) -> Vec<VecSource> {
        let dense = independent_uniform(N, m, SEED);
        match self {
            Lists::Dense => dense,
            Lists::Sparse => dense
                .into_iter()
                .enumerate()
                .map(|(i, mut list)| {
                    let kept = std::iter::from_fn(|| list.sorted_next())
                        .filter(|so| !(so.id + i as Oid).is_multiple_of(4))
                        .map(|so| (so.id, so.grade))
                        .collect();
                    VecSource::new(format!("sparse-{i}"), kept)
                })
                .collect(),
        }
    }
}

fn run_on(lists: Lists, algo: &dyn TopKAlgorithm, fixture: &Fixture) -> TopKResult {
    let mut sources = lists.build(fixture.m);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    algo.top_k(&mut refs, scoring(fixture.scoring).as_ref(), fixture.k)
        .unwrap()
}

fn run(algo: &dyn TopKAlgorithm, fixture: &Fixture) -> TopKResult {
    run_on(Lists::Dense, algo, fixture)
}

fn scored(answers: Answers) -> Vec<ScoredObject<Oid>> {
    answers
        .iter()
        .map(|&(oid, g)| ScoredObject::new(oid, Score::clamped(g)))
        .collect()
}

#[test]
fn every_family_member_reproduces_its_pinned_charges_and_answers() {
    for (lists, fixtures) in [(Lists::Dense, PINNED), (Lists::Sparse, SPARSE)] {
        for fixture in fixtures {
            for &(name, sorted, random, own) in fixture.rows {
                let got = run_on(lists, algorithm(name).as_ref(), fixture);
                let at = format!(
                    "{name} under {} m={} k={} on {lists:?} lists",
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
}

#[test]
fn the_filter_simulation_restarts_as_pinned() {
    for &(lists, m, k, name, rounds, final_tau) in CG_ROUNDS {
        let mut sources = lists.build(m);
        let mut refs: Vec<&mut dyn source::Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn source::Subsystem)
            .collect();
        let run = schedule(name).run(&mut refs, &Min, k).unwrap();
        assert_eq!(
            (run.rounds, run.final_tau),
            (rounds, final_tau),
            "{name} m={m} k={k} on {lists:?} lists"
        );
    }
}

/// §4.1's "continue where we left off": the second batch pays only for
/// what the first left unseen, and together they are the top 10.
#[test]
fn a_resumed_cursor_reproduces_its_pinned_charges_and_answers() {
    for &(lists, name, m, [first, second]) in RESUMED {
        let fixtures = match lists {
            Lists::Dense => PINNED,
            Lists::Sparse => SPARSE,
        };
        let fixture = fixtures
            .iter()
            .find(|f| (f.scoring, f.m, f.k) == (name, m, 10))
            .unwrap();
        let mut sources = lists.build(m);
        let mut refs: Vec<&mut dyn source::Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn source::Subsystem)
            .collect();
        let scoring = scoring(name);
        let mut cursor = Cursor::new(PhysicalPlan::Fa, 0.0).unwrap();
        let exact = scored(fixture.exact);
        for (batch, charges) in [(&exact[..5], first), (&exact[5..], second)] {
            let got = cursor.next_k(&mut refs, scoring.as_ref(), 5).unwrap();
            let at = format!("{name} m={m} on {lists:?} lists");
            assert_eq!((got.stats.sorted, got.stats.random), charges, "{at}");
            assert_eq!(got.answers, batch, "{at}");
        }
    }
}

/// CA that never reaches its probe round *is* NRA during the scan: the
/// same sorted accesses, then the halt-time closing pass turns the
/// certified set into exact grades.
#[test]
fn ca_with_unreachable_interleave_streams_exactly_like_nra() {
    for fixture in PINNED {
        let ca = run(&Planned(PhysicalPlan::Ca { h: usize::MAX }, 0.0), fixture);
        let nra = run(&Planned(PhysicalPlan::Nra, 0.0), fixture);
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
        let approx = run(&Planned(PhysicalPlan::ApproxNra, 0.0), fixture);
        let exact = run(&Planned(PhysicalPlan::Nra, 0.0), fixture);
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
            ("naive", 800, 0, None),
            ("cg-filter", 397, 0, None),
            ("cg-filter(0.95, 0.9)", 169, 0, None),
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
            ("naive", 800, 0, None),
            ("cg-filter", 397, 0, None),
            ("cg-filter(0.95, 0.9)", 349, 0, None),
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
            ("naive", 1200, 0, None),
            ("cg-filter", 589, 0, None),
            ("cg-filter(0.95, 0.9)", 498, 0, None),
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
            ("naive", 1200, 0, None),
            ("cg-filter", 589, 0, None),
            ("cg-filter(0.95, 0.9)", 1288, 0, None),
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
            ("naive", 800, 0, None),
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
            ("naive", 800, 0, None),
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
            ("naive", 1200, 0, None),
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
            ("naive", 1200, 0, None),
        ],
    },
    Fixture {
        scoring: "max",
        m: 2,
        k: 1,
        exact: &[(368, 0.9991022492167626)],
        rows: &[("naive", 800, 0, None), ("max-merge", 2, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 2,
        k: 10,
        exact: &[
            (368, 0.9991022492167626),
            (304, 0.9985292388308245),
            (373, 0.9985057984779913),
            (262, 0.9977638872627704),
            (331, 0.9961276823264302),
            (134, 0.9956014660936967),
            (70, 0.9942632613949918),
            (122, 0.993880077887244),
            (77, 0.992734169989322),
            (299, 0.9926766208670621),
        ],
        rows: &[("naive", 800, 0, None), ("max-merge", 20, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 3,
        k: 1,
        exact: &[(368, 0.9991022492167626)],
        rows: &[("naive", 1200, 0, None), ("max-merge", 3, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 3,
        k: 10,
        exact: &[
            (368, 0.9991022492167626),
            (304, 0.9985292388308245),
            (373, 0.9985057984779913),
            (262, 0.9977638872627704),
            (174, 0.997253363949361),
            (331, 0.9961276823264302),
            (355, 0.9960928057598453),
            (134, 0.9956014660936967),
            (62, 0.9947014972321301),
            (70, 0.9942632613949918),
        ],
        rows: &[("naive", 1200, 0, None), ("max-merge", 30, 0, None)],
    },
];

/// [`PINNED`]'s rows again on [`Lists::Sparse`].
const SPARSE: &[Fixture] = &[
    Fixture {
        scoring: "min",
        m: 2,
        k: 1,
        exact: &[(281, 0.9469035925444849)],
        rows: &[
            ("ta", 32, 31, None),
            ("approx-ta(0.1)", 16, 16, None),
            ("nra", 46, 0, None),
            ("approx-nra(0.1)", 32, 0, None),
            ("ca(h=1)", 36, 18, None),
            ("ca(h=3)", 46, 7, None),
            ("ca(h=10)", 46, 2, None),
            ("fa", 31, 29, None),
            ("pruned-fa", 31, 15, None),
            ("pruned-fa(no-short-circuit)", 31, 15, None),
            ("naive", 600, 0, None),
            ("cg-filter", 303, 0, None),
            ("cg-filter(0.95, 0.9)", 130, 0, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 2,
        k: 10,
        exact: &[
            (281, 0.9469035925444849),
            (334, 0.8732604510562031),
            (273, 0.8633496203318959),
            (149, 0.8298752903066692),
            (345, 0.78269656402677),
            (117, 0.7797945438826419),
            (38, 0.7651134003710842),
            (73, 0.7522871765746912),
            (373, 0.7492006269324077),
            (370, 0.7460026861527732),
        ],
        rows: &[
            ("ta", 152, 143, None),
            ("approx-ta(0.1)", 118, 114, None),
            ("nra", 158, 0, None),
            ("approx-nra(0.1)", 158, 0, None),
            ("ca(h=1)", 158, 78, None),
            ("ca(h=3)", 158, 26, None),
            ("ca(h=10)", 158, 7, None),
            ("fa", 157, 137, None),
            ("pruned-fa", 157, 0, None),
            ("pruned-fa(no-short-circuit)", 157, 0, None),
            ("naive", 600, 0, None),
            ("cg-filter", 303, 0, None),
            ("cg-filter(0.95, 0.9)", 455, 0, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 3,
        k: 1,
        exact: &[(149, 0.8298752903066692)],
        rows: &[
            ("ta", 120, 220, None),
            ("approx-ta(0.1)", 63, 120, None),
            ("nra", 162, 0, None),
            ("approx-nra(0.1)", 156, 0, None),
            ("ca(h=1)", 129, 83, None),
            ("ca(h=3)", 156, 31, None),
            ("ca(h=10)", 162, 6, None),
            ("fa", 154, 269, None),
            ("pruned-fa", 154, 5, None),
            ("pruned-fa(no-short-circuit)", 154, 5, None),
            ("naive", 900, 0, None),
            ("cg-filter", 443, 0, None),
            ("cg-filter(0.95, 0.9)", 373, 0, None),
        ],
    },
    Fixture {
        scoring: "min",
        m: 3,
        k: 10,
        exact: &[
            (149, 0.8298752903066692),
            (345, 0.78269656402677),
            (213, 0.7277374637177109),
            (117, 0.6912277567783691),
            (169, 0.6271526552981043),
            (321, 0.6259410679680253),
            (41, 0.6175189974560473),
            (73, 0.5977283050942),
            (217, 0.5669197847921131),
            (273, 0.5480820743043584),
        ],
        rows: &[
            ("ta", 357, 542, None),
            ("approx-ta(0.1)", 336, 522, None),
            ("nra", 420, 0, None),
            (
                "approx-nra(0.1)",
                381,
                0,
                Some(&[
                    (149, 0.8298752903066692),
                    (345, 0.78269656402677),
                    (213, 0.7277374637177109),
                    (117, 0.6912277567783691),
                    (169, 0.6271526552981043),
                    (321, 0.6259410679680253),
                    (41, 0.6175189974560473),
                    (73, 0.5977283050942),
                    (273, 0.5480820743043584),
                    (37, 0.5265507046751573),
                ]),
            ),
            ("ca(h=1)", 399, 233, None),
            ("ca(h=3)", 420, 63, None),
            ("ca(h=10)", 420, 14, None),
            ("fa", 375, 462, None),
            ("pruned-fa", 375, 112, None),
            ("pruned-fa(no-short-circuit)", 375, 167, None),
            ("naive", 900, 0, None),
            ("cg-filter", 443, 0, None),
            ("cg-filter(0.95, 0.9)", 1795, 0, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 2,
        k: 1,
        exact: &[(281, 0.9676309805734518)],
        rows: &[
            ("ta", 26, 26, None),
            ("approx-ta(0.1)", 16, 16, None),
            ("nra", 50, 0, None),
            ("approx-nra(0.1)", 32, 0, None),
            ("ca(h=1)", 32, 15, None),
            ("ca(h=3)", 42, 7, None),
            ("ca(h=10)", 48, 2, None),
            ("fa", 31, 29, None),
            ("pruned-fa", 31, 17, None),
            ("pruned-fa(no-short-circuit)", 31, 17, None),
            ("naive", 600, 0, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 2,
        k: 10,
        exact: &[
            (281, 0.9676309805734518),
            (334, 0.8978023664545003),
            (149, 0.8915256342899276),
            (273, 0.8843577492083605),
            (373, 0.8738532127051994),
            (117, 0.8505025419731442),
            (58, 0.8174102060063562),
            (393, 0.8099964780244964),
            (370, 0.8046499358350216),
            (73, 0.802751714882685),
        ],
        rows: &[
            ("ta", 122, 118, None),
            (
                "approx-ta(0.1)",
                80,
                77,
                Some(&[
                    (281, 0.9676309805734518),
                    (334, 0.8978023664545003),
                    (149, 0.8915256342899276),
                    (273, 0.8843577492083605),
                    (373, 0.8738532127051994),
                    (117, 0.8505025419731442),
                    (58, 0.8174102060063562),
                    (393, 0.8099964780244964),
                    (213, 0.8022188639063002),
                    (286, 0.7986416011453894),
                ]),
            ),
            ("nra", 240, 0, None),
            (
                "approx-nra(0.1)",
                162,
                0,
                Some(&[
                    (281, 0.9676309805734518),
                    (334, 0.8978023664545003),
                    (149, 0.8915256342899276),
                    (273, 0.8843577492083605),
                    (373, 0.8738532127051994),
                    (117, 0.8505025419731442),
                    (370, 0.8046499358350216),
                    (73, 0.802751714882685),
                    (38, 0.801288639772745),
                    (345, 0.7893025495312225),
                ]),
            ),
            ("ca(h=1)", 160, 80, None),
            ("ca(h=3)", 204, 33, None),
            ("ca(h=10)", 232, 11, None),
            ("fa", 157, 137, None),
            ("pruned-fa", 157, 76, None),
            ("pruned-fa(no-short-circuit)", 157, 76, None),
            ("naive", 600, 0, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 3,
        k: 1,
        exact: &[(149, 0.9197204910583935)],
        rows: &[
            ("ta", 75, 142, None),
            ("approx-ta(0.1)", 30, 58, None),
            ("nra", 189, 0, None),
            ("approx-nra(0.1)", 156, 0, None),
            ("ca(h=1)", 90, 55, None),
            ("ca(h=3)", 108, 18, None),
            ("ca(h=10)", 120, 5, None),
            ("fa", 154, 269, None),
            ("pruned-fa", 154, 1, None),
            ("pruned-fa(no-short-circuit)", 154, 1, None),
            ("naive", 900, 0, None),
        ],
    },
    Fixture {
        scoring: "mean",
        m: 3,
        k: 10,
        exact: &[
            (149, 0.9197204910583935),
            (345, 0.8187083838050299),
            (321, 0.8162016023484565),
            (117, 0.7974109469082192),
            (213, 0.7889262564655145),
            (273, 0.7722658575736933),
            (389, 0.7671563548040393),
            (281, 0.7623610451698487),
            (41, 0.7586475264731587),
            (73, 0.7344105782865235),
        ],
        rows: &[
            ("ta", 234, 404, None),
            ("approx-ta(0.1)", 162, 298, None),
            ("nra", 663, 0, None),
            (
                "approx-nra(0.1)",
                537,
                0,
                Some(&[
                    (149, 0.9197204910583935),
                    (345, 0.8187083838050299),
                    (321, 0.8162016023484565),
                    (117, 0.7974109469082192),
                    (213, 0.7889262564655145),
                    (273, 0.7722658575736933),
                    (389, 0.7671563548040393),
                    (41, 0.7586475264731587),
                    (73, 0.7344105782865235),
                    (81, 0.7133320456422602),
                ]),
            ),
            ("ca(h=1)", 303, 175, None),
            ("ca(h=3)", 351, 57, None),
            ("ca(h=10)", 426, 15, None),
            ("fa", 375, 462, None),
            ("pruned-fa", 375, 16, None),
            ("pruned-fa(no-short-circuit)", 375, 16, None),
            ("naive", 900, 0, None),
        ],
    },
    Fixture {
        scoring: "max",
        m: 2,
        k: 1,
        exact: &[(304, 0.9985292388308245)],
        rows: &[("naive", 600, 0, None), ("max-merge", 2, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 2,
        k: 10,
        exact: &[
            (304, 0.9985292388308245),
            (373, 0.9985057984779913),
            (262, 0.9977638872627704),
            (134, 0.9956014660936967),
            (70, 0.9942632613949918),
            (122, 0.993880077887244),
            (77, 0.992734169989322),
            (299, 0.9926766208670621),
            (56, 0.9925058409727561),
            (10, 0.989937813390576),
        ],
        rows: &[("naive", 600, 0, None), ("max-merge", 20, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 3,
        k: 1,
        exact: &[(304, 0.9985292388308245)],
        rows: &[("naive", 900, 0, None), ("max-merge", 3, 0, None)],
    },
    Fixture {
        scoring: "max",
        m: 3,
        k: 10,
        exact: &[
            (304, 0.9985292388308245),
            (373, 0.9985057984779913),
            (262, 0.9977638872627704),
            (355, 0.9960928057598453),
            (134, 0.9956014660936967),
            (70, 0.9942632613949918),
            (81, 0.9939485531364743),
            (122, 0.993880077887244),
            (368, 0.9938314939638027),
            (79, 0.9930878852583088),
        ],
        rows: &[("naive", 900, 0, None), ("max-merge", 30, 0, None)],
    },
];

/// `(lists, m, k, schedule, rounds, final τ)` of the filter simulation
/// under `min`.
const CG_ROUNDS: &[(Lists, usize, usize, &str, u32, f64)] = &[
    (Lists::Dense, 2, 1, "cg-filter", 1, 0.5),
    (Lists::Dense, 2, 1, "cg-filter(0.95, 0.9)", 2, 0.855),
    (Lists::Dense, 2, 10, "cg-filter", 1, 0.5),
    (Lists::Dense, 2, 10, "cg-filter(0.95, 0.9)", 3, 0.7695),
    (Lists::Dense, 3, 1, "cg-filter", 1, 0.5),
    (Lists::Dense, 3, 1, "cg-filter(0.95, 0.9)", 3, 0.7695),
    (Lists::Dense, 3, 10, "cg-filter", 1, 0.5),
    (Lists::Dense, 3, 10, "cg-filter(0.95, 0.9)", 5, 0.623295),
    (Lists::Sparse, 2, 1, "cg-filter", 1, 0.5),
    (Lists::Sparse, 2, 1, "cg-filter(0.95, 0.9)", 2, 0.855),
    (Lists::Sparse, 2, 10, "cg-filter", 1, 0.5),
    (Lists::Sparse, 2, 10, "cg-filter(0.95, 0.9)", 4, 0.69255),
    (Lists::Sparse, 3, 1, "cg-filter", 1, 0.5),
    (Lists::Sparse, 3, 1, "cg-filter(0.95, 0.9)", 3, 0.7695),
    (Lists::Sparse, 3, 10, "cg-filter", 1, 0.5),
    (Lists::Sparse, 3, 10, "cg-filter(0.95, 0.9)", 7, 0.50486895),
];

/// `(lists, scoring, m, [charges after the top 5, after the next 5])` of
/// a resumed A₀ run; the two batches are the `k = 10` fixture's
/// answers.
const RESUMED: &[(Lists, &str, usize, [Charges; 2])] = &[
    (Lists::Dense, "min", 2, [(100, 90), (195, 167)]),
    (Lists::Dense, "min", 3, [(307, 413), (511, 562)]),
    (Lists::Dense, "mean", 2, [(100, 90), (195, 167)]),
    (Lists::Dense, "mean", 3, [(307, 413), (511, 562)]),
    (Lists::Sparse, "min", 2, [(130, 120), (206, 175)]),
    (Lists::Sparse, "min", 3, [(317, 436), (588, 603)]),
    (Lists::Sparse, "mean", 2, [(130, 120), (206, 175)]),
    (Lists::Sparse, "mean", 3, [(317, 436), (588, 603)]),
];
