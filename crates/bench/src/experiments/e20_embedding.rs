//! E20 — the Cholesky-embedded Euclidean kernel end to end: grading a
//! `Color` atomic query over the whole database and answering a top-k
//! conjunction through the engine, with the per-object distance
//! computed either by the O(k²) quadratic form of eq. (1) or by the
//! O(k) embedded norm. Both kernels produce the same distances (up to
//! float round-off), so the engine returns the same answers — only the
//! source-construction latency changes.
//!
//! It also says where an atom's time goes once the kernel is cheap:
//! `kernel_us` is `EmbeddedCorpus::distances` alone, `bind_us` the
//! whole `Catalog::source_for` of the same colour atom around it
//! (kernel + distance → grade + building the graded list), and
//! `bind_vs_kernel` their ratio — what the middleware spends per unit
//! of grading.

use std::sync::Arc;
use std::time::Instant;

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::Score;
use fmdb_core::scoring::tnorms::Min;
use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::repository::QbicRepository;
use fmdb_media::distance::{HistogramDistance, QuadraticFormDistance};
use fmdb_media::embed::{EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::source::{Oid, VecSource};

use crate::report::{f3, Bound, Report, Table};
use crate::runners::{fastest_us, run_algo, RunCfg};

/// Repetitions behind each of `kernel_us` / `bind_us`.
const BIND_REPS: usize = 100;

/// Distance → grade with a linear cutoff at the observed maximum (the
/// same conversion the GARLIC repository applies).
fn source_from_distances(label: &str, distances: &[f64]) -> VecSource {
    let dmax = distances.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
    let grades: Vec<(Oid, Score)> = distances
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as Oid, Score::clamped(1.0 - d / dmax)))
        .collect();
    VecSource::new(label, grades)
}

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E20",
        "embedded Euclidean kernel vs quadratic form, end to end",
        "factoring the similarity matrix once (A = LLᵀ) turns every eq. (1) distance into \
         an O(k) norm; the engine's top-k answers are unchanged while the color-grading \
         stage speeds up by ~k",
    );
    let sizes: Vec<usize> = if cfg.quick {
        vec![300, 600]
    } else {
        vec![1000, 2000, 4000]
    };
    let queries = cfg.pick(20, 5);
    let k = 10usize;

    let mut t = Table::new(
        "top-10 color∧texture conjunction over k = 64 bin histograms",
        &[
            "N",
            "embed build ms",
            "qf ms/query",
            "embedded ms/query",
            "grading speedup",
            "answers equal",
            "kernel µs",
            "bind µs",
            "bind/kernel",
        ],
    );
    // Published from the last (largest) corpus of the sweep.
    let mut bind_split = (0.0, 0.0);
    for &n in &sizes {
        let db = SyntheticDb::generate(&SynthConfig {
            count: n,
            bins_per_channel: 4,
            seed: 29,
            ..SynthConfig::default()
        });
        let hists: Vec<_> = db.objects.iter().map(|o| o.histogram.clone()).collect();
        let qf = QuadraticFormDistance::new(db.space.similarity_matrix());

        // One-time embedding of the whole corpus (amortized over every
        // later query).
        let start = Instant::now();
        let corpus = EmbeddedCorpus::build(
            EmbeddedSpace::for_space(&db.space).expect("QBIC matrix embeds"),
            &hists,
        )
        .expect("same space");
        let build_ms = start.elapsed().as_secs_f64() * 1e3;

        // A second (kernel-independent) attribute so the engine runs a
        // real conjunction: texture coarseness distance to a fixed
        // prototype.
        let texture_distances: Vec<f64> = db
            .objects
            .iter()
            .map(|o| (o.texture.coarseness - 0.5).abs())
            .collect();
        let texture = source_from_distances("texture", &texture_distances);

        let min: SharedScoring = Arc::new(Min);
        let mut qf_s = 0.0;
        let mut embed_s = 0.0;
        let mut all_equal = true;
        for q in 0..queries {
            let target = &hists[(q * 41) % n];

            let start = Instant::now();
            let qf_distances: Vec<f64> = hists
                .iter()
                .map(|h| qf.distance(h, target).expect("same space"))
                .collect();
            let qf_color = source_from_distances("color", &qf_distances);
            qf_s += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let embedded_distances = corpus.distances(target).expect("same space");
            let embed_color = source_from_distances("color", &embedded_distances);
            embed_s += start.elapsed().as_secs_f64();

            let qf_result = run_algo(&FaginsAlgorithm, &mut [qf_color, texture.clone()], &min, k);
            let embed_result = run_algo(
                &FaginsAlgorithm,
                &mut [embed_color, texture.clone()],
                &min,
                k,
            );
            let qf_ids: Vec<Oid> = qf_result.answers.iter().map(|a| a.id).collect();
            let embed_ids: Vec<Oid> = embed_result.answers.iter().map(|a| a.id).collect();
            all_equal &= qf_ids == embed_ids;
        }

        // One colour atom, by example: the kernel alone, then the
        // bind path garlic runs around the same kernel.
        let kernel_us = fastest_us(BIND_REPS, || {
            corpus.distances(&hists[0]).expect("same space")
        });
        let mut catalog = Catalog::new();
        catalog
            .register(Box::new(QbicRepository::new("qbic", db)))
            .expect("fresh catalog accepts qbic");
        let atom = AtomicQuery::new("Color", Target::Similar("#0".into()));
        let bind_us = fastest_us(BIND_REPS, || catalog.source_for(&atom).expect("atom binds"));
        bind_split = (kernel_us, bind_us);

        t.row(vec![
            n.to_string(),
            f3(build_ms),
            f3(qf_s / queries as f64 * 1e3),
            f3(embed_s / queries as f64 * 1e3),
            f3(qf_s / embed_s.max(1e-12)),
            all_equal.to_string(),
            f3(kernel_us),
            f3(bind_us),
            f3(bind_us / kernel_us.max(1e-9)),
        ]);
    }
    report.table(t);
    let (kernel_us, bind_us) = bind_split;
    let timed = "a floor over timed repetitions that reads zero means the timer broke";
    report
        .gated("kernel_us", kernel_us, Bound::Positive, timed)
        .gated("bind_us", bind_us, Bound::Positive, timed)
        .gated(
            "bind_vs_kernel",
            bind_us / kernel_us.max(1e-9),
            // 6–8 while `Catalog::source_for` hashed, sorted, drained
            // and re-hashed every list, ≈ 2 since it builds one array
            // once.
            Bound::PositiveAtMost(4.0),
            "`Catalog::source_for` costs that many colour kernels, so the middleware is \
             again spending more on wrapping a graded list than the subsystem spends \
             grading it; look for a second build or a hash table between \
             `Repository::source_for` and `BoundAtom` first",
        );
    report.note(
        "the embedded kernel grades the color attribute ~10-12x faster end to end at k = 64 \
         (the distance→grade conversion and the list build are shared overhead — 6-7x while \
         that build went through a hash table; the per-pair kernel itself is ~20x faster) \
         while the engine's top-k answers are identical; the one-time O(nk²) corpus \
         embedding amortizes after a single query.",
    );
    report.note(
        "kernel / bind are floors over 100 repetitions of one `Color ~ '#0'` atom: \
         `EmbeddedCorpus::distances` alone, and `Catalog::source_for` around it. What bind \
         adds to the kernel is the distance→grade pass and one sort of the list — no hash \
         table, no id translation under an identity mapping, one build (DESIGN §17).",
    );
    report
}
