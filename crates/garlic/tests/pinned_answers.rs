//! Nothing observable moved: answers, charges and plans of the eight
//! statement shapes the benchmark issues, pinned as literals.
//!
//! Binding each atom once and grading shapes from precomputed turning
//! functions change *how often* and *how fast* a list is produced,
//! never the list. The oracle comparisons elsewhere (`top_k` ≡ naive)
//! would still pass if both sides drifted together, so the rows below
//! were captured at commit 80e32e0 — before either change — from
//! `sql::parse` + `Garlic::top_k` on `demo::cd_store(300, 11)`: ids
//! with `grade.to_bits()`, `stats.sorted` / `stats.random`, and the
//! chosen plan, for a named and a `#id` target of every shape. The two
//! `negation` rows' plan and charges are the threshold algorithm's over
//! the negated atom's complement list, since a query tree runs in the
//! threshold family; their answers are the full scan's they replaced.

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::Score;
use fmdb_garlic::cost::CostEstimator;
use fmdb_garlic::demo::cd_store;
use fmdb_garlic::planner::{plan_costed, PlanKind};
use fmdb_garlic::repository::{QbicRepository, Repository};
use fmdb_garlic::sql::parse;
use fmdb_media::shape::{turning_distance, Polygon};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::source::GradedSource;

struct Pinned {
    class: &'static str,
    sql: &'static str,
    plan: PlanKind,
    sorted: u64,
    random: u64,
    /// `(oid, grade.to_bits())`, best first.
    answers: &'static [(u64, u64)],
}

const PINNED: [Pinned; 16] = [
    Pinned {
        class: "crisp_and_fuzzy",
        sql: "SELECT TOP 10 WHERE Artist = 'Beatles' AND Color ~ 'red'",
        plan: PlanKind::CrispFilter,
        sorted: 61,
        random: 60,
        answers: &[
            (175, 0x3fe2dfd5bdac6544),
            (120, 0x3fe29d0bac741ade),
            (145, 0x3fe084b57e3d0bfe),
            (285, 0x3fdf863adb164492),
            (35, 0x3fddca529a523e86),
            (245, 0x3fdabaa52d87772c),
            (60, 0x3fd98b7d8f61a17e),
            (140, 0x3fd953ea61166552),
            (295, 0x3fd87a5db5fc5b3a),
            (220, 0x3fd7f65019611bc0),
        ],
    },
    Pinned {
        class: "crisp_and_fuzzy",
        sql: "SELECT TOP 10 WHERE Artist = 'Kinks' AND Color ~ '#17'",
        plan: PlanKind::CrispFilter,
        sorted: 61,
        random: 60,
        answers: &[
            (251, 0x3fe91f77703d8a9a),
            (256, 0x3fe5ffeef12deead),
            (11, 0x3fe544ab66b27790),
            (226, 0x3fe529f920b60c65),
            (111, 0x3fe50f0bc132c71f),
            (196, 0x3fe3cb5bd0d4fcfa),
            (266, 0x3fe3bbdaa0a28b40),
            (1, 0x3fe29d096c3ebb56),
            (286, 0x3fe12255b4a129c6),
            (46, 0x3fe09347a0aa5a61),
        ],
    },
    Pinned {
        class: "fuzzy_and_fuzzy",
        sql: "SELECT TOP 10 WHERE Color ~ 'red' AND Texture ~ 'coarse'",
        plan: PlanKind::Ta,
        sorted: 28,
        random: 28,
        answers: &[
            (7, 0x3fe78c99375faa58),
            (124, 0x3fe37a03f30a9a42),
            (261, 0x3fe33dd984dde92d),
            (283, 0x3fe33d3517028c7a),
            (241, 0x3fe33c76542ef64e),
            (175, 0x3fe2dfd5bdac6544),
            (254, 0x3fe217a01ca3d391),
            (234, 0x3fe1ff461111fa3e),
            (39, 0x3fe1bc6d6770d6e5),
            (52, 0x3fe19c6586017061),
        ],
    },
    Pinned {
        class: "fuzzy_and_fuzzy",
        sql: "SELECT TOP 10 WHERE Color ~ '#17' AND Texture ~ '#42'",
        plan: PlanKind::Ta,
        sorted: 62,
        random: 57,
        answers: &[
            (222, 0x3fe67072b39271d0),
            (174, 0x3fe634f81cf1a436),
            (38, 0x3fe5b4643ac8ed6c),
            (239, 0x3fe4d1ad2a3848da),
            (111, 0x3fe41d233ab7d4c4),
            (72, 0x3fe31af24c80a8cb),
            (100, 0x3fe2be08b179a002),
            (196, 0x3fe2bd336aed2406),
            (275, 0x3fe281263c605674),
            (13, 0x3fe1e73cda707271),
        ],
    },
    Pinned {
        class: "weighted",
        sql: "SELECT TOP 10 WHERE Color ~ 'blue' AND Texture ~ 'fine' WEIGHTS 2, 1",
        plan: PlanKind::Ta,
        sorted: 24,
        random: 24,
        answers: &[
            (131, 0x3febc44e1c0a2306),
            (240, 0x3feb913c6e2701b2),
            (235, 0x3fe9d68dc19b2c46),
            (67, 0x3fe9376e030d0d8d),
            (49, 0x3fe6cee79e7d1c6a),
            (118, 0x3fe649fe81a7d1c2),
            (218, 0x3fe632806a54549a),
            (22, 0x3fe5b2e666f3e228),
            (268, 0x3fe4eb171361843e),
            (8, 0x3fe4dbd250016a07),
        ],
    },
    Pinned {
        class: "weighted",
        sql: "SELECT TOP 10 WHERE Color ~ '#101' AND Texture ~ '#5' WEIGHTS 1, 2",
        plan: PlanKind::Ta,
        sorted: 44,
        random: 42,
        answers: &[
            (107, 0x3feb684aee78a0aa),
            (101, 0x3feab2a2f8dc2d18),
            (35, 0x3fe915c0e34fa0ea),
            (54, 0x3fe8d2856f8a4932),
            (76, 0x3fe8b5ff0848112c),
            (122, 0x3fe795f51b6e0efe),
            (156, 0x3fe7770f1eb1feb8),
            (278, 0x3fe729bf82900fc1),
            (287, 0x3fe6ed6c6e36a56e),
            (115, 0x3fe6c6e69056447d),
        ],
    },
    Pinned {
        class: "using_mean",
        sql: "SELECT TOP 10 WHERE Color ~ 'green' AND Texture ~ 'smooth' USING mean",
        plan: PlanKind::Ta,
        sorted: 58,
        random: 55,
        answers: &[
            (292, 0x3fe694db13a78883),
            (190, 0x3fe61fa52eef8074),
            (226, 0x3fe3d824c88b7e14),
            (231, 0x3fe2a4eec0731170),
            (228, 0x3fe251904be42094),
            (224, 0x3fe1fe84696c3102),
            (11, 0x3fe1dddd8a9cb721),
            (266, 0x3fe1d375efc981ae),
            (29, 0x3fe1ba32424878dc),
            (289, 0x3fe15ff245deb0b9),
        ],
    },
    Pinned {
        class: "using_mean",
        sql: "SELECT TOP 10 WHERE Color ~ '#250' AND Texture ~ '#3' USING mean",
        plan: PlanKind::Ta,
        sorted: 52,
        random: 50,
        answers: &[
            (106, 0x3fedc0de52f40a62),
            (127, 0x3fec8c686334be78),
            (43, 0x3febda3f00cff31f),
            (23, 0x3fe932ae088339f9),
            (265, 0x3fe905aab4d078f0),
            (298, 0x3fe855dfcb8bb31c),
            (62, 0x3fe8443f8102a0f7),
            (200, 0x3fe840f4f3eb2df0),
            (151, 0x3fe7f127590f4ca7),
            (165, 0x3fe7c17b31f2d0df),
        ],
    },
    Pinned {
        class: "disjunction",
        sql: "SELECT TOP 10 WHERE Color ~ 'yellow' OR Texture ~ 'rough'",
        plan: PlanKind::MaxMerge,
        sorted: 20,
        random: 0,
        answers: &[
            (159, 0x3fe69f6142430c83),
            (155, 0x3fe66827ff9fa3f8),
            (226, 0x3fe501784c9f00da),
            (120, 0x3fe4f6e24995f852),
            (289, 0x3fe4a573b1e06b94),
            (117, 0x3fe49d197efd4c41),
            (48, 0x3fe44d0b6f4b6f7a),
            (231, 0x3fe43321438834ec),
            (168, 0x3fe42dda249668bc),
            (184, 0x3fe4131b7f1286a6),
        ],
    },
    Pinned {
        class: "disjunction",
        sql: "SELECT TOP 10 WHERE Color ~ '#77' OR Texture ~ '#199'",
        plan: PlanKind::MaxMerge,
        sorted: 20,
        random: 0,
        answers: &[
            (77, 0x3ff0000000000000),
            (199, 0x3ff0000000000000),
            (8, 0x3fefc45ab8e7f5c6),
            (121, 0x3feebfd10d6a9967),
            (188, 0x3fee32fed0c11bc8),
            (14, 0x3fee300e7f9680e2),
            (49, 0x3fee0b5de5e3a56c),
            (166, 0x3fedfe7ea082151c),
            (54, 0x3fedd9acf407568d),
            (23, 0x3fedd6088d29bdae),
        ],
    },
    Pinned {
        class: "knn_single",
        sql: "SELECT TOP 10 WHERE Color ~ 'orange'",
        plan: PlanKind::MaxMerge,
        sorted: 10,
        random: 0,
        answers: &[
            (91, 0x3fec571186f961c2),
            (48, 0x3fea4fd37b9cdca0),
            (132, 0x3fe8c197c1e921ae),
            (223, 0x3fe7bbb3245917a5),
            (117, 0x3fe5de2f26ee916a),
            (232, 0x3fe5cb52e57332fe),
            (140, 0x3fe566fc1dcb30d2),
            (159, 0x3fe507999efa04a0),
            (52, 0x3fe4416e3f2bdd2b),
            (254, 0x3fe3d7e9ea632fa8),
        ],
    },
    Pinned {
        class: "knn_single",
        sql: "SELECT TOP 10 WHERE Color ~ '#299'",
        plan: PlanKind::MaxMerge,
        sorted: 10,
        random: 0,
        answers: &[
            (299, 0x3ff0000000000000),
            (145, 0x3fee5f1290f2295d),
            (199, 0x3fec6ebaf45b9790),
            (187, 0x3fec31db0d3e98ce),
            (88, 0x3feb8e5fa0ac031e),
            (295, 0x3fe96ef9dee0e256),
            (119, 0x3fe867fd50d2ae10),
            (93, 0x3fe7a6ec8bda997c),
            (285, 0x3fe7a2c47a975358),
            (120, 0x3fe7587fbcf831f7),
        ],
    },
    Pinned {
        class: "negation",
        sql: "SELECT TOP 10 WHERE Color ~ 'pink' AND NOT Texture ~ 'directional'",
        plan: PlanKind::Ta,
        sorted: 76,
        random: 71,
        answers: &[
            (168, 0x3fe6c50e52464837),
            (242, 0x3fe18f0ad73089a4),
            (214, 0x3fe109ef93c30e10),
            (122, 0x3fe0ebffa5a4c975),
            (68, 0x3fe0b9734d146bb0),
            (160, 0x3fe08da58330105c),
            (238, 0x3fe04912f3b6ddc3),
            (81, 0x3fe016ceed61aa27),
            (21, 0x3fdf3c44ca2332b0),
            (215, 0x3fdee10162181a6e),
        ],
    },
    Pinned {
        class: "negation",
        sql: "SELECT TOP 10 WHERE Color ~ '#64' AND NOT Texture ~ '#128'",
        plan: PlanKind::Ta,
        sorted: 38,
        random: 37,
        answers: &[
            (65, 0x3fea85cf740afc73),
            (193, 0x3fe6d40d25255c98),
            (239, 0x3fe5d4b915cbf89a),
            (129, 0x3fe4b4b580927c17),
            (85, 0x3fe48aaa669f69d8),
            (286, 0x3fe42f592603112a),
            (111, 0x3fe3a9dc6415c53b),
            (98, 0x3fe3163e75a175ed),
            (17, 0x3fe28dfbbfdbdaee),
            (46, 0x3fe26977e08de9be),
        ],
    },
    Pinned {
        class: "shape_conj",
        sql: "SELECT TOP 10 WHERE Color ~ 'red' AND Shape ~ 'round'",
        plan: PlanKind::Ta,
        sorted: 34,
        random: 34,
        answers: &[
            (66, 0x3fee47c5dd8d3f99),
            (7, 0x3feba5ef40415f2d),
            (84, 0x3fe4a5be56aae322),
            (261, 0x3fe33dd984dde92d),
            (175, 0x3fe2dfd5bdac6544),
            (120, 0x3fe29d0bac741ade),
            (254, 0x3fe217a01ca3d391),
            (234, 0x3fe1ff461111fa3e),
            (39, 0x3fe1bc6d6770d6e5),
            (52, 0x3fe123a8a514ffaf),
        ],
    },
    Pinned {
        class: "shape_conj",
        sql: "SELECT TOP 10 WHERE Color ~ '#17' AND Shape ~ '#7'",
        plan: PlanKind::Ta,
        sorted: 44,
        random: 44,
        answers: &[
            (179, 0x3fec6a762c3564a9),
            (251, 0x3fe91f77703d8a9a),
            (174, 0x3fe86876d410ae3c),
            (294, 0x3fe656e2ccaf9244),
            (212, 0x3fe5acc43a1639f6),
            (167, 0x3fe4d6d627bdc6cb),
            (239, 0x3fe4d1ad2a3848da),
            (222, 0x3fe4bb5824199a6f),
            (13, 0x3fe499df0682c257),
            (12, 0x3fe44a38782e9788),
        ],
    },
];

#[test]
fn answers_charges_and_plans_are_those_of_the_parent_commit() {
    let garlic = cd_store(300, 11);
    for row in &PINNED {
        let what = format!("{} — {}", row.class, row.sql);
        let statement = parse(row.sql).unwrap();
        let result = garlic.top_k(&statement.query, statement.k).unwrap();
        assert_eq!(result.plan, row.plan, "{what}");
        assert_eq!(
            (result.stats.sorted, result.stats.random),
            (row.sorted, row.random),
            "{what}"
        );
        let answers: Vec<(u64, u64)> = result
            .answers
            .iter()
            .map(|a| (a.id, a.grade.value().to_bits()))
            .collect();
        assert_eq!(answers, row.answers, "{what}");
        // The planner alone names the plan the executor ran.
        let planned = plan_costed(
            &statement.query,
            garlic.catalog(),
            statement.k,
            &CostEstimator::default(),
        );
        assert_eq!(planned.kind, result.plan, "{what}");
    }
}

/// `Shape` lists come from the turning corpus; built pair by pair with
/// the public [`turning_distance`] (which `fmdb-media`'s
/// `shape_equivalence` suite ties to the pre-corpus loop bit for bit)
/// and the repository's distance → grade rule, they are the same lists.
#[test]
fn shape_sources_equal_pairwise_turning_distances() {
    let db = SyntheticDb::generate(&SynthConfig {
        count: 120,
        bins_per_channel: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let repo = QbicRepository::new("qbic", db);
    let round = Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).unwrap();
    let example = repo.db().objects[7].shape.clone();
    for (target, prototype) in [("round", round), ("#7", example)] {
        let distances: Vec<f64> = repo
            .db()
            .objects
            .iter()
            .map(|o| turning_distance(&o.shape, &prototype, 64))
            .collect();
        let dmax = distances.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
        let mut want: Vec<(u64, u64)> = distances
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64, Score::clamped(1.0 - d / dmax).value().to_bits()))
            .collect();
        want.sort_by(|a, b| {
            f64::from_bits(b.1)
                .total_cmp(&f64::from_bits(a.1))
                .then(a.0.cmp(&b.0))
        });

        let atom = AtomicQuery::new("Shape", Target::Similar(target.into()));
        let mut source = repo.source_for(&atom).unwrap();
        let mut got = Vec::new();
        while let Some(entry) = source.sorted_next() {
            got.push((entry.id, entry.grade.value().to_bits()));
        }
        assert_eq!(got, want, "Shape ~ '{target}'");
    }
}
