//! E20 — the Cholesky-embedded Euclidean kernel end to end: grading a
//! `Color` atomic query over the whole database and answering a top-k
//! conjunction through the engine, with the per-object distance
//! computed either by the O(k²) quadratic form of eq. (1) or by the
//! O(k) embedded norm. Both kernels produce the same distances (up to
//! float round-off), so the engine returns the same answers — only the
//! source-construction latency changes.
//!
//! It also says where an atom's time goes once the kernel is cheap:
//! `kernel_us` is `EmbeddedCorpus::distances` alone (the tiled kernel,
//! four objects a pass), `row_kernel_us` the per-object scan it
//! replaced — [`euclidean`] over a row-major copy of the same
//! coordinates — and `lanes_vs_rows` their ratio. `bind_us` is the
//! whole `Catalog::source_for` of the same colour atom (kernel +
//! distance → grade + building the graded list), and
//! `shape_kernel_us` / `shape_bind_us` the same pair for a `Shape`
//! atom (`TurningCorpus::distances`, the turning kernel). The bind
//! ratios are taken in units of the row scan, which no kernel change
//! moves: `bind_vs_row_kernel` is what a colour bind costs, and
//! `shape_bind_vs_row_kernel` what a shape bind costs. Each ratio is
//! the median of interleaved rounds, its spread (largest ÷ smallest
//! round) beside it.
//!
//! `stream_bind_us` is `Catalog::bind_source` of the same shape atom:
//! the `ShapeStream` garlic's plans read, which grades the pivots' rows
//! and certifies `dmax` and no more, and `stream_bind_vs_row_kernel` its
//! ratio to the row scan.
//!
//! And it counts what a graded list orders: `ordered_per_listed` is the
//! entries the colour and texture lists put in stream order under TA at
//! k = 10 — the planner's histogram copies included — per entry they
//! list. A list orders itself a bucket at a time as sorted access
//! reaches it, so this is the depth TA reads, not 1. What a shape
//! stream grades is counted too: `shape_graded_per_listed` is the rows
//! its streams graded exactly, per row of the corpus, over
//! colour ∧ shape conjunctions at k = 10 under TA through an engine
//! (their bind included); `shape_rows_graded` is the same count, not
//! divided.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::Score;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::repository::{QbicRepository, Repository};
use fmdb_media::distance::{HistogramDistance, QuadraticFormDistance};
use fmdb_media::embed::{euclidean, EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::shape::TurningCorpus;
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::algorithms::Cursor;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{SharedScoring, SharedSource, TopKQuery};
use fmdb_middleware::source::{Oid, Subsystem, VecSource};

use crate::report::{f3, Bound, Report, Table};
use crate::runners::{fastest_us, median, run_policy, RoundRatio, RunCfg};

/// Interleaved rounds behind each ratio in a full run: a round takes
/// the five floors below back to back, so a burst on the host lands on
/// one round, not on one side of a ratio.
const ROUNDS: usize = 7;

/// Interleaved rounds behind each ratio in a quick run. With seven, a
/// burst spanning four rounds moved the median: 2 of 200 quick runs
/// read `shape_vs_color_bind` 17.5 where the rest read 12.7–13.9.
const QUICK_ROUNDS: usize = 21;

/// Repetitions behind each colour floor (`kernel_us` / `row_kernel_us`
/// / `bind_us`) of a round.
const BIND_REPS: usize = 30;

/// Repetitions behind each shape floor of a round.
const SHAPE_REPS: usize = 10;

/// Turning-function samples, as `QbicRepository` resamples its shapes.
const TURNING_SAMPLES: usize = 64;

/// Ceiling on `lanes_vs_rows` (release builds): 1.25× the largest of
/// seven whole quick suites on a 2-core x86-64 VM (0.605–0.669). A
/// tile kernel that stops running its lanes side by side reads ≈ 1.
const MAX_LANES_VS_ROWS: f64 = 0.84;

/// Ceiling on `bind_vs_row_kernel` (release builds): 1.25× the largest
/// of seven whole quick suites on a 2-core x86-64 VM (0.971–1.104). It
/// succeeds `bind_vs_kernel` (colour bind ÷ colour kernel, ≤ 1.78),
/// which read 1.35–1.42 once a graded list was put in order by a
/// distribution sort, 1.70–1.86 while that was a comparison sort, and
/// 6–8 while `Catalog::source_for` hashed, sorted, drained and
/// re-hashed every list.
const MAX_BIND_VS_ROW_KERNEL: f64 = 1.38;

/// Ceiling on `shape_bind_vs_row_kernel` (release builds): 1.25× the
/// largest of fourteen whole quick suites on a 2-core x86-64 VM
/// (8.68–10.52; eighteen runs of E20 alone read 9.27–11.76) since the
/// turning kernel grades four rows a pass; it read 18.4–21.5 one row a
/// pass (ceiling 26.9). It succeeds `shape_vs_color_bind` (shape bind ÷
/// colour bind, ≤ 15.4), which read 10.1–12.3 since the shift filter
/// correlates through spectra stored with the corpus, 17.5–20.6 with one
/// multiply-add correlation pass per row, and 39.1–51.0 while it
/// computed the exact error of every shift.
const MAX_SHAPE_BIND_VS_ROW_KERNEL: f64 = 13.2;

/// Ceiling on `stream_bind_vs_row_kernel` (release builds): 1.25× the
/// largest of seven whole quick suites on a 2-core x86-64 VM
/// (1.79–2.18). A stream whose bounds bind nothing (`[0, ∞)`) grades
/// half the rows alone and the rest in tiles at bind: it read 18.7.
const MAX_STREAM_BIND_VS_ROW_KERNEL: f64 = 2.72;

/// Ceiling on `shape_graded_per_listed`, a count that repeats exactly in
/// any build: 1.25× the quick run's 0.383 (N = 600). A stream that
/// grades every row reads 1.
const MAX_SHAPE_GRADED_PER_LISTED: f64 = 0.48;

/// Ceiling on `ordered_per_listed`, a count that repeats exactly in any
/// build: 1.25× the quick run's 0.176 (N = 600; the full run reads
/// 0.062 at N = 4 000). A list sorted whole at construction reads 1.
const MAX_ORDERED_PER_LISTED: f64 = 0.22;

/// One round's floors, µs: colour kernel, colour bind, shape kernel,
/// shape bind, row-major colour scan, shape stream bind.
type Round = [f64; 6];

/// Where one atom's time goes, at one corpus size: median floors and
/// the three ratios.
#[derive(Clone, Copy)]
struct BindSplit {
    kernel_us: f64,
    bind_us: f64,
    shape_kernel_us: f64,
    shape_bind_us: f64,
    row_kernel_us: f64,
    stream_bind_us: f64,
    lanes_vs_rows: RoundRatio,
    bind_vs_row_kernel: RoundRatio,
    shape_bind_vs_row_kernel: RoundRatio,
    stream_bind_vs_row_kernel: RoundRatio,
}

impl BindSplit {
    fn of(rounds: &[Round]) -> BindSplit {
        let column = |i: usize| median(rounds.iter().map(|r| r[i]).collect());
        BindSplit {
            kernel_us: column(0),
            bind_us: column(1),
            shape_kernel_us: column(2),
            shape_bind_us: column(3),
            row_kernel_us: column(4),
            stream_bind_us: column(5),
            lanes_vs_rows: RoundRatio::of(rounds.iter().map(|r| (r[0], r[4]))),
            bind_vs_row_kernel: RoundRatio::of(rounds.iter().map(|r| (r[1], r[4]))),
            shape_bind_vs_row_kernel: RoundRatio::of(rounds.iter().map(|r| (r[3], r[4]))),
            stream_bind_vs_row_kernel: RoundRatio::of(rounds.iter().map(|r| (r[5], r[4]))),
        }
    }
}

/// Distance → grade with a linear cutoff at the observed maximum (the
/// same conversion the GARLIC repository applies).
fn source_from_distances(label: &str, distances: &[f64]) -> VecSource {
    let dmax = distances.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
    VecSource::from_fn(label, distances.len(), |i| {
        Score::clamped(1.0 - distances[i] / dmax)
    })
}

/// Entries ordered and entries listed by `lists` under TA at `k`: the
/// planner's histogram of each list (its bucket copies count as
/// ordered), then TA's sorted access. TA runs on the lists themselves,
/// not through the engine, whose access columns E20 reports for FA.
fn ordered_and_listed(mut lists: [VecSource; 2], k: usize) -> (usize, usize) {
    let copied: usize = lists
        .iter()
        .map(|list| list.histogram_counted(DEFAULT_HISTOGRAM_BINS).1)
        .sum();
    let mut refs: Vec<&mut dyn Subsystem> = lists
        .iter_mut()
        .map(|list| list as &mut dyn Subsystem)
        .collect();
    Cursor::once(PhysicalPlan::Ta, 0.0, &mut refs, &Min, k).expect("in-memory lists never fail");
    let ordered: usize = lists.iter().map(VecSource::entries_ordered).sum();
    let listed = lists.iter().map(|list| list.info().universe_size).sum();
    (copied + ordered, listed)
}

/// Rows the shape streams of `repo` grade, and rows they list, over
/// colour ∧ shape conjunctions under TA at `k` through a private engine
/// (its batches, as garlic's; the shared engine's access columns stay
/// those of the runs above): named and `#id` shape targets against
/// named colours.
fn shape_graded_and_listed(repo: &QbicRepository, k: usize) -> (usize, usize) {
    let n = repo.universe_size();
    let mut shapes: Vec<String> = ["round", "boxy", "spiky"].map(str::to_owned).into();
    shapes.extend([0, n / 3, n - 1].map(|id| format!("#{id}")));
    let engine = Engine::default();
    let (mut graded, mut listed) = (0, 0);
    for colour in ["red", "green", "blue", "white"] {
        let colour = AtomicQuery::new("Color", Target::Similar(colour.into()));
        let colour = repo.source_for(&colour).expect("a named colour binds");
        for shape in &shapes {
            let atom = AtomicQuery::new("Shape", Target::Similar(shape.clone()));
            let stream = Arc::new(Mutex::new(
                repo.shape_stream(&atom).expect("a shape streams"),
            ));
            let request = TopKQuery::compose()
                .source(colour.clone())
                .shared_source(Arc::clone(&stream) as SharedSource)
                .scoring(Min)
                .k(k)
                .policy(ExecPolicy::new().plan(PhysicalPlan::Ta))
                .request()
                .expect("two lists, a scoring function and k");
            engine.run(&request).expect("in-memory sources never fail");
            graded += stream.lock().map_or(0, |stream| stream.graded());
            listed += n;
        }
    }
    (graded, listed)
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
    let round_count = cfg.pick(ROUNDS, QUICK_ROUNDS);
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
            "row kernel µs",
            "lanes/rows",
            "bind µs",
            "bind/row kernel",
            "shape kernel µs",
            "shape bind µs",
            "shape bind/row kernel",
            "stream bind µs",
            "stream bind/row kernel",
            "shape graded/listed",
            "ordered/listed",
        ],
    );
    // Published from the last (largest) corpus of the sweep.
    let mut published = None;
    let mut shape_rows_graded = 0;
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
        let (mut ordered, mut listed) = (0, 0);
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

            let (o, l) = ordered_and_listed([embed_color.clone(), texture.clone()], k);
            ordered += o;
            listed += l;

            let fa = ExecPolicy::new().plan(PhysicalPlan::Fa);
            let qf_result = run_policy(fa, &mut [qf_color, texture.clone()], &min, k);
            let embed_result = run_policy(fa, &mut [embed_color, texture.clone()], &min, k);
            let qf_ids: Vec<Oid> = qf_result.answers.iter().map(|a| a.id).collect();
            let embed_ids: Vec<Oid> = embed_result.answers.iter().map(|a| a.id).collect();
            all_equal &= qf_ids == embed_ids;
        }

        // One colour atom and one shape atom, by example: each kernel
        // alone, then the bind path garlic runs around the same kernel.
        let shapes = TurningCorpus::build(db.objects.iter().map(|o| &o.shape), TURNING_SAMPLES);
        let shape = db.objects[0].shape.clone();
        // The count's streams build the corpus's pivot table, which the
        // timed stream binds below then read.
        let repo = QbicRepository::new("qbic", db);
        let (graded, rows) = shape_graded_and_listed(&repo, k);
        shape_rows_graded += graded as u64;
        let shape_graded_per_listed = graded as f64 / rows as f64;
        let mut catalog = Catalog::new();
        catalog
            .register(Box::new(repo))
            .expect("fresh catalog accepts qbic");
        // The per-object scan the tiles replaced, over a row-major
        // copy of the same coordinates.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0; corpus.k()];
                corpus.embedded_into(i, &mut row);
                row
            })
            .collect();
        let query = corpus.space().embed(&hists[0]).expect("same space");
        let color_atom = AtomicQuery::new("Color", Target::Similar("#0".into()));
        let shape_atom = AtomicQuery::new("Shape", Target::Similar("#0".into()));
        let rounds: Vec<Round> = (0..round_count)
            .map(|_| {
                [
                    fastest_us(BIND_REPS, || {
                        corpus.distances(&hists[0]).expect("same space")
                    }),
                    fastest_us(BIND_REPS, || {
                        catalog.source_for(&color_atom).expect("atom binds")
                    }),
                    fastest_us(SHAPE_REPS, || shapes.distances(&shape)),
                    fastest_us(SHAPE_REPS, || {
                        catalog.source_for(&shape_atom).expect("atom binds")
                    }),
                    fastest_us(BIND_REPS, || {
                        rows.iter()
                            .map(|row| euclidean(&query, row))
                            .collect::<Vec<f64>>()
                    }),
                    fastest_us(SHAPE_REPS, || {
                        catalog.bind_source(&shape_atom).expect("atom binds")
                    }),
                ]
            })
            .collect();
        let split = BindSplit::of(&rounds);
        let ordered_per_listed = ordered as f64 / listed as f64;
        published = Some((split, ordered_per_listed, shape_graded_per_listed));

        t.row(vec![
            n.to_string(),
            f3(build_ms),
            f3(qf_s / queries as f64 * 1e3),
            f3(embed_s / queries as f64 * 1e3),
            f3(qf_s / embed_s.max(1e-12)),
            all_equal.to_string(),
            f3(split.kernel_us),
            f3(split.row_kernel_us),
            f3(split.lanes_vs_rows.median),
            f3(split.bind_us),
            f3(split.bind_vs_row_kernel.median),
            f3(split.shape_kernel_us),
            f3(split.shape_bind_us),
            f3(split.shape_bind_vs_row_kernel.median),
            f3(split.stream_bind_us),
            f3(split.stream_bind_vs_row_kernel.median),
            f3(shape_graded_per_listed),
            f3(ordered_per_listed),
        ]);
    }
    report.table(t);
    report.shape_rows_graded = shape_rows_graded;
    let (split, ordered_per_listed, shape_graded_per_listed) =
        published.expect("the sweep has at least one corpus size");
    let timed = "a floor over timed repetitions that reads zero means the timer broke";
    let spread = "the largest round ratio is below the smallest; look at `RoundRatio::of` in `runners` first";
    report
        .gated("kernel_us", split.kernel_us, Bound::Positive, timed)
        .gated("row_kernel_us", split.row_kernel_us, Bound::Positive, timed)
        .gated(
            "lanes_vs_rows",
            split.lanes_vs_rows.median,
            Bound::PositiveAtMost(MAX_LANES_VS_ROWS),
            "`EmbeddedCorpus::distances` is no longer well below the per-object scan it \
             replaced; look at `squared_block_tile` in `media::embed` first (did its lane \
             loop stop vectorising, or the query stop being broadcast once a scan?)",
        )
        .gated(
            "lanes_vs_rows_spread",
            split.lanes_vs_rows.spread,
            Bound::AtLeast(1.0),
            spread,
        )
        .gated("bind_us", split.bind_us, Bound::Positive, timed)
        .gated(
            "bind_vs_row_kernel",
            split.bind_vs_row_kernel.median,
            Bound::PositiveAtMost(MAX_BIND_VS_ROW_KERNEL),
            "`Catalog::source_for` costs more per-object colour scans than it did once a \
             graded list was put in order in linear time and the kernel ran in tiles; look \
             at `OidIndex::sorted_stream` in `middleware::source` (a comparison sort back \
             on the bind path?), for a second build or a hash table between \
             `Repository::source_for` and `BoundAtom`, and at `lanes_vs_rows` first",
        )
        .gated(
            "bind_vs_row_kernel_spread",
            split.bind_vs_row_kernel.spread,
            Bound::AtLeast(1.0),
            spread,
        )
        .gated(
            "shape_kernel_us",
            split.shape_kernel_us,
            Bound::Positive,
            timed,
        )
        .gated("shape_bind_us", split.shape_bind_us, Bound::Positive, timed)
        .gated(
            "shape_bind_vs_row_kernel",
            split.shape_bind_vs_row_kernel.median,
            Bound::PositiveAtMost(MAX_SHAPE_BIND_VS_ROW_KERNEL),
            "a `Shape` atom costs more per-object colour scans than it did once the turning \
             kernel graded four rows a pass; look at `filter` and `refine` in `media::shape` \
             and `Fft::correlate` in `media::fft` first (did the `[f64; 4]` lanes stop \
             vectorising, or a tile stop refining its rows side by side?)",
        )
        .gated(
            "shape_bind_vs_row_kernel_spread",
            split.shape_bind_vs_row_kernel.spread,
            Bound::AtLeast(1.0),
            spread,
        )
        .gated(
            "stream_bind_us",
            split.stream_bind_us,
            Bound::Positive,
            timed,
        )
        .gated(
            "stream_bind_vs_row_kernel",
            split.stream_bind_vs_row_kernel.median,
            Bound::PositiveAtMost(MAX_STREAM_BIND_VS_ROW_KERNEL),
            "binding a `Shape` atom as a stream costs more per-object colour scans than \
             grading the pivots' rows and certifying `dmax` did; look at \
             `TurningCorpus::pivot_bounds` in `media::shape` (do the bounds still bind, and \
             does the column pass still run its rows side by side?) and at `ShapeStream::new` \
             in `garlic::shape_stream` first",
        )
        .gated(
            "stream_bind_vs_row_kernel_spread",
            split.stream_bind_vs_row_kernel.spread,
            Bound::AtLeast(1.0),
            spread,
        )
        .gated(
            "shape_graded_per_listed",
            shape_graded_per_listed,
            Bound::PositiveAtMost(MAX_SHAPE_GRADED_PER_LISTED),
            "a shape stream grades more rows than TA's reads, the pivots and `dmax` need; \
             look at `ShapeStream::advance` and `ShapeStream::new` in `garlic::shape_stream` \
             and `TurningCorpus::pivot_bounds` in `media::shape` first (did a bound loosen, \
             or the switch to whole tiles fire early?)",
        )
        .gated(
            "ordered_per_listed",
            ordered_per_listed,
            Bound::PositiveAtMost(MAX_ORDERED_PER_LISTED),
            "a graded list orders more than sorted access and the planner's quantiles reach; \
             look at `VecSource::order_through` and `histogram_counted` in \
             `middleware::source` first (is a list sorted whole at construction again?)",
        );
    report.note(
        "the embedded kernel grades the color attribute ~10-12x faster end to end at k = 64 \
         (the distance→grade conversion and the list build are shared overhead — 6-7x while \
         that build went through a hash table; the per-pair kernel itself is ~20x faster) \
         while the engine's top-k answers are identical; the one-time O(nk²) corpus \
         embedding amortizes after a single query.",
    );
    report.note(format!(
        "kernel / row kernel / bind are medians over {round_count} interleaved rounds of the \
         floors of 30 repetitions of one `Color ~ '#0'` atom: `EmbeddedCorpus::distances` \
         alone (four objects a pass, bit-equal to the per-object kernel), `euclidean` over a \
         row-major copy of the same coordinates (the scan the tiles replaced), and \
         `Catalog::source_for` around the tiled kernel; shape kernel / shape bind the same for \
         `Shape ~ '#0'` (`TurningCorpus::distances`, 10 repetitions a round), and stream bind \
         `Catalog::bind_source` of that atom (the `ShapeStream` plans read). What bind adds \
         to the kernel is the distance→grade pass and the bucket pass of a distribution sort, \
         each bucket sorted when sorted access reaches it — no hash table, no id translation \
         under an identity mapping, one build (DESIGN §17)."
    ));
    report
}
