//! Unit-cost probes: what one call into each layer costs on fixed-size
//! inputs made from the seed.
//!
//! A traced run reports these beside the workload's own shares and
//! counters. They are measured the same way on every workload —
//! untraced, so no clock read sits inside the measured call — which
//! makes them the numbers to watch when one layer is optimised: a
//! per-entry or per-access cost moves here first, and the shares say
//! which workload will feel it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fmdb_core::query::{AtomicQuery, Query, Target};
use fmdb_core::score::Score;
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_garlic::cost::CostEstimator;
use fmdb_garlic::planner::plan_costed;
use fmdb_garlic::sql;
use fmdb_media::color::ColorHistogram;
use fmdb_media::embed::{EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::shape::turning_distance;
use fmdb_middleware::algorithms::approx::ApproxTa;
use fmdb_middleware::algorithms::ca::CombinedAlgorithm;
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::algorithms::max_merge::MaxMerge;
use fmdb_middleware::algorithms::naive::Naive;
use fmdb_middleware::algorithms::nra::NraLowerBound;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::TopKAlgorithm;
use fmdb_middleware::engine::{Engine, EngineConfig};
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::request::{shared_source, SharedSource, TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, Oid, VecSource};
use fmdb_middleware::stats::CostModel;
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};

use crate::rng::Rng;
use crate::stats::{median, ratio};
use crate::workloads::garlic_sql::cd_store;
use crate::workloads::{synthetic_images, uniform_grades, Size};

pub type Metrics = BTreeMap<String, f64>;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Runs every probe. `scratch` holds the probe's store file.
pub fn run(seed: u64, size: Size, scratch: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    garlic_and_media(seed, size, &mut m)?;
    middleware(seed, size, &mut m)?;
    source_and_store(seed, size, scratch, &mut m)?;
    Ok(m)
}

fn atom(attribute: &str, target: &str) -> AtomicQuery {
    AtomicQuery::new(attribute, Target::Similar(target.to_owned()))
}

fn garlic_and_media(seed: u64, size: Size, m: &mut Metrics) -> Result<(), String> {
    let n = match size {
        Size::Full => 1000,
        Size::Smoke => 100,
    };
    let db = synthetic_images(n, seed);
    let mut rng = Rng::new(seed, 0x51);
    let example = rng.below(n);

    // media kernels, on the corpus the repository wraps.
    let space = EmbeddedSpace::for_space(&db.space).map_err(|e| e.to_string())?;
    let hists: Vec<ColorHistogram> = db.objects.iter().map(|o| o.histogram.clone()).collect();
    let corpus = EmbeddedCorpus::build(space, &hists).map_err(|e| e.to_string())?;
    let query = &hists[example];
    m.insert(
        "media.embed.distances_ns_per_object".into(),
        median_ns(9, || corpus.distances(query)) / n as f64,
    );
    m.insert(
        "media.embed.knn_ns_per_object".into(),
        median_ns(9, || corpus.knn(query, 10)) / n as f64,
    );
    let (_, scan) = corpus.knn(query, 10).map_err(|e| e.to_string())?;
    m.insert(
        "media.embed.blocks_skipped_share".into(),
        ratio(
            scan.blocks_skipped as f64,
            n.div_ceil(corpus.prune_block().max(1)) as f64,
        ),
    );
    let shape = &db.objects[example].shape;
    let some = n.min(200);
    m.insert(
        "media.shape.turning_us_per_object".into(),
        median_ns(3, || {
            db.objects[..some]
                .iter()
                .map(|o| turning_distance(&o.shape, shape, 64))
                .sum::<f64>()
        }) / some as f64
            / 1e3,
    );
    let texture = db.objects[example].texture;
    m.insert(
        "media.texture.distance_ns_per_object".into(),
        median_ns(9, || {
            db.objects
                .iter()
                .map(|o| o.texture.distance(&texture))
                .sum::<f64>()
        }) / n as f64,
    );

    // garlic, over the same corpus behind the cd-store catalog.
    let garlic = cd_store(n, seed, None)?;
    let catalog = garlic.catalog();

    let example = format!("#{example}");
    let statements = [
        format!("SELECT TOP 10 WHERE Artist = 'Beatles' AND Color ~ '{example}'"),
        format!("SELECT TOP 10 WHERE Color ~ 'red' AND Texture ~ '{example}' WEIGHTS 2, 1"),
        format!("SELECT TOP 10 WHERE Color ~ '{example}' AND Texture ~ 'coarse' USING mean"),
        format!(
            "SELECT TOP 10 WHERE Color ~ 'blue' OR (Texture ~ 'fine' AND NOT Shape ~ '{example}')"
        ),
    ];
    m.insert(
        "garlic.sql.parse_us".into(),
        median_ns(25, || {
            for text in &statements {
                std::hint::black_box(sql::parse(text).is_ok());
            }
        }) / statements.len() as f64
            / 1e3,
    );

    let per_attribute = [
        ("garlic.repository.color_ms", atom("Color", &example), 7),
        ("garlic.repository.texture_ms", atom("Texture", &example), 7),
        ("garlic.repository.shape_ms", atom("Shape", &example), 3),
        (
            "garlic.repository.crisp_ms",
            AtomicQuery::new("Artist", Target::Text("Beatles".to_owned())),
            7,
        ),
    ];
    for (name, atom, reps) in &per_attribute {
        let repo = catalog
            .repository_for(&atom.attribute)
            .map_err(|e| e.to_string())?;
        repo.source_for(atom).map_err(|e| e.to_string())?;
        m.insert(
            (*name).into(),
            median_ns(*reps, || repo.source_for(atom).is_ok()) / 1e6,
        );
    }
    let color = atom("Color", &example);
    let texture = atom("Texture", &example);
    let source_for = |a: &AtomicQuery| median_ns(7, || catalog.source_for(a).is_ok());
    let materialise = source_for(&color) + source_for(&texture);
    m.insert(
        "garlic.catalog.source_for_ms".into(),
        source_for(&color) / 1e6,
    );
    let conjunction = Query::and(vec![Query::Atomic(color), Query::Atomic(texture)]);
    let estimator = CostEstimator::default();
    let plan = median_ns(7, || plan_costed(&conjunction, catalog, 10, &estimator));
    m.insert("garlic.planner.plan_costed_ms".into(), plan / 1e6);
    garlic.top_k(&conjunction, 10).map_err(|e| e.to_string())?;
    let top_k = median_ns(7, || garlic.top_k(&conjunction, 10).is_ok());
    m.insert("garlic.executor.top_k_ms".into(), top_k / 1e6);
    // What `top_k` spends outside planning and its own materialisation
    // of the two atoms: executing the plan on the engine, and glue.
    m.insert(
        "garlic.executor.self_ms".into(),
        (top_k - plan - materialise).max(0.0) / 1e6,
    );
    Ok(())
}

struct Lists {
    grades: Vec<Vec<Score>>,
}

impl Lists {
    fn vec_sources(&self, take: usize) -> Vec<VecSource> {
        self.grades[..take]
            .iter()
            .enumerate()
            .map(|(i, g)| VecSource::from_dense(format!("probe-{i}"), g))
            .collect()
    }

    fn shared(&self, take: usize) -> Vec<SharedSource> {
        self.vec_sources(take)
            .into_iter()
            .map(|s| shared_source(s))
            .collect()
    }
}

fn request(sources: &[SharedSource], k: usize, policy: ExecPolicy) -> Result<TopKRequest, String> {
    let mut query = TopKQuery::compose();
    for source in sources {
        query = query.shared_source(Arc::clone(source));
    }
    query
        .scoring(Min)
        .k(k)
        .policy(policy)
        .request()
        .map_err(|e| e.to_string())
}

/// Median wall (ns) and charged accesses of `request` on `engine`.
fn engine_run(engine: &Engine, request: &TopKRequest, reps: usize) -> Result<(f64, f64), String> {
    let charged = engine
        .run(request)
        .map_err(|e| e.to_string())?
        .stats
        .database_access_cost() as f64;
    Ok((median_ns(reps, || engine.run(request).is_ok()), charged))
}

/// One scalar algorithm to price, with the scoring it runs under.
struct Scalar {
    name: &'static str,
    algorithm: Box<dyn TopKAlgorithm>,
    scoring: Box<dyn ScoringFunction>,
    reps: usize,
}

fn middleware(seed: u64, size: Size, m: &mut Metrics) -> Result<(), String> {
    let n = match size {
        Size::Full => 1 << 12,
        Size::Smoke => 1 << 8,
    };
    let mut rng = Rng::new(seed, 0x52);
    let lists = Lists {
        grades: (0..3).map(|_| uniform_grades(&mut rng, n)).collect(),
    };
    let ca_cost = CostModel::random_to_sorted_ratio(10.0).unwrap_or(CostModel::UNIFORM);

    // Scalar algorithms over plain in-memory sources: wall per charged
    // access (the `VecSource` calls are inside; `middleware.source.*`
    // prices them).
    let scalar = |name, algorithm, scoring, reps| Scalar {
        name,
        algorithm,
        scoring,
        reps,
    };
    let scalars = [
        scalar("fa", Box::new(FaginsAlgorithm), Box::new(Min), 7),
        scalar("ta", Box::new(ThresholdAlgorithm), Box::new(Min), 7),
        scalar("nra", Box::new(NraLowerBound), Box::new(Min), 3),
        scalar(
            "ca",
            Box::new(CombinedAlgorithm::for_cost(&ca_cost, 0.0)),
            Box::new(Min),
            3,
        ),
        scalar("approx_ta", Box::new(ApproxTa::new(0.1)), Box::new(Min), 7),
        scalar(
            "max_merge",
            Box::new(MaxMerge),
            Box::new(ConormScoring(Max)),
            7,
        ),
        scalar("naive", Box::new(Naive), Box::new(Min), 5),
    ];
    let mut scalar_ta = (0.0, 0.0);
    for Scalar {
        name,
        algorithm,
        scoring,
        reps,
    } in &scalars
    {
        let mut sources = lists.vec_sources(3);
        let mut charged = 0.0;
        let wall = median_ns(*reps, || {
            let mut refs: Vec<&mut dyn GradedSource> = sources
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            if let Ok(result) = algorithm.top_k(&mut refs, scoring.as_ref(), 10) {
                charged = result.stats.database_access_cost() as f64;
            }
        });
        if charged <= 0.0 {
            return Err(format!("probe: scalar {name} charged nothing"));
        }
        m.insert(
            format!("middleware.algorithms.{name}_ns_per_access"),
            wall / charged,
        );
        m.insert(
            format!("middleware.algorithms.{name}_accesses_per_op"),
            charged,
        );
        if *name == "ta" {
            scalar_ta = (wall, charged);
        }
    }

    // The engine around the same TA query.
    let engine = Engine::new(EngineConfig::default());
    let shared = lists.shared(3);
    let forced = |algo| ExecPolicy::new().algo(algo);
    let ta = request(&shared, 10, forced(Algo::Ta))?;
    let (engine_ta, engine_charged) = engine_run(&engine, &ta, 7)?;
    m.insert("middleware.engine.run_ms".into(), engine_ta / 1e6);
    m.insert(
        "middleware.engine.vs_scalar".into(),
        ratio(engine_ta, scalar_ta.0),
    );
    m.insert(
        "middleware.engine.overfetch".into(),
        ratio(engine_charged, scalar_ta.1),
    );

    let sharded = request(&shared, 10, forced(Algo::Ta).sharded_over(2))?;
    let (sharded_wall, sharded_charged) = engine_run(&engine, &sharded, 7)?;
    m.insert(
        "middleware.sharded.speedup_2".into(),
        ratio(engine_ta, sharded_wall),
    );
    m.insert(
        "middleware.sharded.cost_ratio_2".into(),
        ratio(sharded_charged, engine_charged),
    );

    // Eight independent two-list queries, one after another against
    // `run_many`'s worker pool.
    let many: Vec<TopKRequest> = (0..8)
        .map(|_| {
            let pair = Lists {
                grades: (0..2).map(|_| uniform_grades(&mut rng, n)).collect(),
            };
            request(&pair.shared(2), 10, forced(Algo::Ta))
        })
        .collect::<Result<_, _>>()?;
    let one_by_one = median_ns(5, || many.iter().filter(|r| engine.run(r).is_ok()).count());
    let together = median_ns(5, || engine.run_many(&many).len());
    m.insert(
        "middleware.engine.run_many_speedup".into(),
        ratio(one_by_one, together),
    );

    // The planner: what it costs to ask, how far its estimate is from
    // the accesses charged, and how far its pick is from the fastest
    // forced algorithm on the same query.
    let auto = request(&shared, 10, ExecPolicy::new())?;
    m.insert(
        "middleware.planner.explain_us".into(),
        median_ns(25, || engine.explain(&auto).is_ok()) / 1e3,
    );
    let mut q_errors = Vec::new();
    let mut regrets = Vec::new();
    for (arity, k) in [(2, 10), (3, 10), (2, 50), (3, 5)] {
        let sources = &shared[..arity];
        let auto = request(sources, k, ExecPolicy::new())?;
        let estimate = engine
            .explain(&auto)
            .map_err(|e| e.to_string())?
            .chosen_cost()
            .unwrap_or(0.0);
        let (auto_wall, auto_charged) = engine_run(&engine, &auto, 3)?;
        q_errors.push(ratio(estimate, auto_charged));
        let mut best = f64::INFINITY;
        for policy in [
            forced(Algo::Fa),
            forced(Algo::Ta),
            forced(Algo::Nra),
            forced(Algo::Ca).cost_model(ca_cost),
        ] {
            best = best.min(engine_run(&engine, &request(sources, k, policy)?, 3)?.0);
        }
        regrets.push(ratio(auto_wall, best));
    }
    m.insert(
        "middleware.planner.q_error_p50".into(),
        median(&q_errors).unwrap_or(0.0),
    );
    m.insert(
        "middleware.planner.wall_regret_p50".into(),
        median(&regrets).unwrap_or(0.0),
    );
    Ok(())
}

/// Per-entry and per-probe costs of the four access paths of a source.
struct AccessCosts {
    batch: f64,
    next: f64,
    random: f64,
    bounded: f64,
}

fn access_costs(mut cursor: impl FnMut() -> Box<dyn GradedSource>, oids: &[Oid]) -> AccessCosts {
    // A fresh cursor per sample, made outside the timed call.
    let mut sample = |reps: usize, op: &mut dyn FnMut(&mut dyn GradedSource) -> usize| {
        let mut work = 1usize;
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let mut c = cursor();
                let start = Instant::now();
                work = std::hint::black_box(op(c.as_mut())).max(1);
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples).unwrap_or(0.0) / work as f64
    };
    let half = Score::clamped(0.5);
    AccessCosts {
        batch: sample(5, &mut |c| {
            let mut entries = 0;
            loop {
                let got = c.sorted_batch(256).len();
                entries += got;
                if got == 0 {
                    break entries;
                }
            }
        }),
        next: sample(5, &mut |c| std::iter::from_fn(|| c.sorted_next()).count()),
        random: sample(5, &mut |c| c.random_batch(oids).len()),
        bounded: sample(5, &mut |c| {
            c.sorted_drain_bounded(half).map_or(0, |v| v.len())
        }),
    }
}

fn source_and_store(seed: u64, size: Size, scratch: &Path, m: &mut Metrics) -> Result<(), String> {
    let n: usize = match size {
        Size::Full => 1 << 16,
        Size::Smoke => 1 << 10,
    };
    let mut rng = Rng::new(seed, 0x53);
    let grades = uniform_grades(&mut rng, n);
    let oids: Vec<Oid> = (0..n).map(|_| rng.below(n) as Oid).collect();
    let mut source = VecSource::from_dense("probe", &grades);

    let vec = access_costs(|| Box::new(source.clone()), &oids);
    m.insert("middleware.source.vec_batch_ns_per_entry".into(), vec.batch);
    m.insert("middleware.source.vec_next_ns_per_entry".into(), vec.next);
    m.insert(
        "middleware.source.vec_random_ns_per_probe".into(),
        vec.random,
    );

    let path = scratch.join("probe.pgs");
    let mut build = || {
        build_store_from_source(&path, &mut source, &BuildConfig::DEFAULT)
            .map_err(|e| e.to_string())
    };
    build()?;
    m.insert(
        "middleware.store.build_ns_per_entry".into(),
        median_ns(3, || build().is_ok()) / n as f64,
    );
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    m.insert(
        "middleware.store.bytes_per_user_byte".into(),
        bytes as f64 / (16 * n) as f64,
    );

    // A pool that holds the whole file, every page touched once: the
    // per-entry costs below are the store's software overhead alone.
    let options = StoreOptions::with_pool_pages(4 * n.div_ceil(255) + 16);
    let open = || PagedStore::open(&path, options).map_err(|e| e.to_string());
    m.insert(
        "middleware.store.open_ms".into(),
        median_ns(7, || open().is_ok()) / 1e6,
    );
    m.insert(
        "middleware.store.first_query_ms".into(),
        median_ns(7, || {
            open().map(|store| {
                let mut cursor = store.source();
                (
                    cursor.sorted_batch(256).len(),
                    cursor.random_batch(&oids[..16]).len(),
                )
            })
        }) / 1e6,
    );
    let store = open()?;
    let paged = access_costs(|| Box::new(store.source()), &oids);
    if let Some(e) = store.take_error() {
        return Err(format!("probe: parked store error: {e}"));
    }
    drop(store);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    m.insert("middleware.store.batch_ns_per_entry".into(), paged.batch);
    m.insert("middleware.store.next_ns_per_entry".into(), paged.next);
    m.insert("middleware.store.random_ns_per_probe".into(), paged.random);
    m.insert(
        "middleware.store.bounded_ns_per_entry".into(),
        paged.bounded,
    );
    m.insert(
        "middleware.store.batch_vs_vec".into(),
        ratio(paged.batch, vec.batch),
    );
    m.insert(
        "middleware.store.next_vs_vec".into(),
        ratio(paged.next, vec.next),
    );
    m.insert(
        "middleware.store.random_vs_vec".into(),
        ratio(paged.random, vec.random),
    );
    Ok(())
}
