//! `garlic_sql`: SQL strings through `sql::parse` and `Garlic::top_k`
//! over the cd-store catalog — the whole stack as a user sees it.

use std::sync::Arc;

use fmdb_core::query::{AtomicQuery, Query};
use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::cost::CostEstimator;
use fmdb_garlic::demo::ARTISTS;
use fmdb_garlic::executor::{AlgoChoice, Garlic};
use fmdb_garlic::object::Value;
use fmdb_garlic::planner::{plan_costed, PlanKind};
use fmdb_garlic::repository::{AttributeKind, QbicRepository, Repository, TableRepository};
use fmdb_garlic::sql;

use super::{
    class_blocks, digest, first_with_same, synthetic_images, timed, Counters, Output, Size, Timed,
    Workload,
};
use crate::rng::{Rng, Zipf};
use crate::trace::{Layer, TimedRepository, Tracer};

const COLORS: [&str; 11] = [
    "red", "blue", "green", "yellow", "orange", "pink", "cyan", "magenta", "white", "black", "gray",
];
const TEXTURES: [&str; 5] = ["coarse", "fine", "smooth", "rough", "directional"];
const SHAPES: [&str; 3] = ["round", "boxy", "spiky"];
const WEIGHTS: [&str; 3] = ["2, 1", "3, 1", "1, 2"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    CrispAndFuzzy,
    FuzzyAndFuzzy,
    Weighted,
    UsingMean,
    Disjunction,
    KnnSingle,
    Negation,
    ShapeConj,
}

/// Ops per block of 40: shares of 20/25/15/10/10/10/7.5/2.5 percent.
/// A shape conjunction costs forty times any other op: at 2.5 % it
/// holds the top of the distribution (p99 is the median shape op) and
/// half of the run's time, which leaves the short ops enough
/// executions each for their floors to settle.
const BLOCK: usize = 40;
const SHARES: [(Class, usize); 8] = [
    (Class::CrispAndFuzzy, 8),
    (Class::FuzzyAndFuzzy, 10),
    (Class::Weighted, 6),
    (Class::UsingMean, 4),
    (Class::Disjunction, 4),
    (Class::KnnSingle, 4),
    (Class::Negation, 3),
    (Class::ShapeConj, 1),
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::CrispAndFuzzy => "crisp_and_fuzzy",
            Class::FuzzyAndFuzzy => "fuzzy_and_fuzzy",
            Class::Weighted => "weighted",
            Class::UsingMean => "using_mean",
            Class::Disjunction => "disjunction",
            Class::KnnSingle => "knn_single",
            Class::Negation => "negation",
            Class::ShapeConj => "shape_conj",
        }
    }
}

/// The cd-store catalog of `garlic::demo::cd_store` (crisp Artist and
/// Year, QBIC Color/Shape/Texture), with each repository optionally
/// behind a span recorder.
pub fn cd_store(n: usize, seed: u64, tracer: Option<&Arc<Tracer>>) -> Result<Garlic, String> {
    let db = synthetic_images(n, seed);
    let mut table = TableRepository::new("store", n as u64);
    for i in 0..n {
        table.set(i as u64, "Artist", Value::text(ARTISTS[i % ARTISTS.len()]));
        table.set(i as u64, "Year", Value::Int(1960 + (i % 10) as i64));
    }
    let mut catalog = Catalog::new();
    for repo in [
        Box::new(table) as Box<dyn Repository>,
        Box::new(QbicRepository::new("qbic", db)),
    ] {
        let repo = match tracer {
            Some(t) => Box::new(TimedRepository::new(repo, Arc::clone(t))),
            None => repo,
        };
        catalog.register(repo).map_err(|e| e.to_string())?;
    }
    Ok(Garlic::new(catalog))
}

pub struct GarlicSql {
    garlic: Garlic,
    traced: Option<(Garlic, Arc<Tracer>)>,
    ops: Vec<(Class, String)>,
    /// `Workload::same_work`: the first op with the same SQL text.
    same_work: Vec<usize>,
}

impl GarlicSql {
    pub fn setup(seed: u64, size: Size, tracer: Option<Arc<Tracer>>) -> Result<GarlicSql, String> {
        let (n, blocks) = match size {
            Size::Full => (2000, 3),
            Size::Smoke => (150, 1),
        };
        let mut order = Rng::new(seed, 0x42);
        // Half the similarity targets are named prototypes drawn Zipf
        // (work a cache could share), half are `#id` examples drawn
        // uniformly from the corpus (little to share).
        let target = |names: &[&str], rng: &mut Rng| -> String {
            if rng.below(2) == 0 {
                names[Zipf::new(names.len()).sample(rng)].to_owned()
            } else {
                format!("#{}", rng.below(n))
            }
        };
        let ops: Vec<(Class, String)> = class_blocks(&SHARES, blocks, &mut order)
            .into_iter()
            .map(|class| {
                let color = target(&COLORS, &mut order);
                let texture = target(&TEXTURES, &mut order);
                let filter = match class {
                    Class::CrispAndFuzzy => format!(
                        "Artist = '{}' AND Color ~ '{color}'",
                        ARTISTS[order.below(ARTISTS.len())]
                    ),
                    Class::FuzzyAndFuzzy => format!("Color ~ '{color}' AND Texture ~ '{texture}'"),
                    Class::Weighted => format!(
                        "Color ~ '{color}' AND Texture ~ '{texture}' WEIGHTS {}",
                        WEIGHTS[order.below(WEIGHTS.len())]
                    ),
                    Class::UsingMean => {
                        format!("Color ~ '{color}' AND Texture ~ '{texture}' USING mean")
                    }
                    Class::Disjunction => format!("Color ~ '{color}' OR Texture ~ '{texture}'"),
                    Class::KnnSingle => format!("Color ~ '{color}'"),
                    Class::Negation => format!("Color ~ '{color}' AND NOT Texture ~ '{texture}'"),
                    Class::ShapeConj => format!(
                        "Color ~ '{color}' AND Shape ~ '{}'",
                        target(&SHAPES, &mut order)
                    ),
                };
                (class, format!("SELECT TOP 10 WHERE {filter}"))
            })
            .collect();
        Ok(GarlicSql {
            garlic: cd_store(n, seed, None)?,
            traced: match tracer {
                Some(t) => Some((cd_store(n, seed, Some(&t))?, t)),
                None => None,
            },
            same_work: first_with_same(ops.iter().map(|(_, text)| text.as_str())),
            ops,
        })
    }
}

fn execute(
    garlic: &Garlic,
    text: &str,
    tracer: Option<&Tracer>,
) -> Result<(Query, PlanKind, Output), String> {
    let statement = {
        let _span = tracer.map(|t| t.enter(Layer::GarlicSql, "sql::parse"));
        sql::parse(text).map_err(|e| format!("{text}: {e}"))?
    };
    let _span = tracer.map(|t| t.enter(Layer::GarlicExecutor, "Garlic::top_k"));
    let result = garlic
        .top_k(&statement.query, statement.k)
        .map_err(|e| format!("{text}: {e}"))?;
    Ok((
        statement.query,
        result.plan,
        Output {
            charged: result.stats.database_access_cost(),
            answers: result.answers,
            folded: None,
        },
    ))
}

impl Workload for GarlicSql {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn block(&self) -> usize {
        BLOCK
    }

    fn class_of(&self, i: usize) -> &'static str {
        self.ops[i].0.name()
    }

    fn describe(&self, i: usize) -> String {
        self.ops[i].1.clone()
    }

    fn same_work(&self, i: usize) -> usize {
        self.same_work[i]
    }

    fn run(&mut self, i: usize) -> Result<Timed, String> {
        let (nanos, result) = timed(|| execute(&self.garlic, &self.ops[i].1, None));
        Ok(Timed {
            nanos,
            output: result?.2,
        })
    }

    fn run_traced(&mut self, i: usize) -> Result<Timed, String> {
        let (garlic, tracer) = self
            .traced
            .as_ref()
            .ok_or("garlic_sql was set up without a tracer")?;
        let (nanos, result) = {
            let _root = tracer.enter(Layer::Harness, "op");
            timed(|| execute(garlic, &self.ops[i].1, Some(tracer)))
        };
        let (query, plan, output) = result?;
        // One level down, beside the op: `top_k` plans through
        // `plan_costed` and then materialises every atom it executes
        // through `Catalog::source_for`.
        let catalog = garlic.catalog();
        {
            let _replay = tracer.enter_replay(Layer::GarlicPlanner, "planner::plan_costed");
            std::hint::black_box(plan_costed(&query, catalog, 10, &CostEstimator::default()));
        }
        let atoms: Vec<&AtomicQuery> = query.atoms();
        for atom in atoms {
            // The crisp-filter plan reads crisp atoms as match sets,
            // not as graded sources.
            let crisp = catalog.attribute_kind(&atom.attribute) == Some(AttributeKind::Crisp);
            if plan == PlanKind::CrispFilter && crisp {
                continue;
            }
            let _replay = tracer.enter_replay(Layer::GarlicCatalog, "Catalog::source_for");
            std::hint::black_box(catalog.source_for(atom).map_err(|e| e.to_string())?);
        }
        Ok(Timed { nanos, output })
    }

    fn verify(&mut self, i: usize, seen: u64) -> Result<bool, String> {
        let text = &self.ops[i].1;
        let statement = sql::parse(text).map_err(|e| format!("{text}: {e}"))?;
        let naive = self
            .garlic
            .top_k_with(&statement.query, statement.k, AlgoChoice::Naive)
            .map_err(|e| format!("{text}: {e}"))?;
        if digest(&naive.answers) == seen {
            return Ok(true);
        }
        // A tie broken the other way keeps the grade sequence: the op
        // must repeat its digest and match the scan grade for grade.
        let again = execute(&self.garlic, text, None)?.2.answers;
        Ok(digest(&again) == seen
            && again.len() == naive.answers.len()
            && again
                .iter()
                .zip(&naive.answers)
                .all(|(a, b)| a.grade == b.grade))
    }

    fn counters(&self) -> Counters {
        let engine = self.garlic.engine();
        let (hits, misses) = engine.cache_counters();
        Counters::from([
            ("engine.cache_hits", hits as f64),
            ("engine.cache_misses", misses as f64),
            ("engine.cache_evictions", engine.cache_evictions() as f64),
            (
                "engine.worker_spawns",
                engine.access_totals().worker_spawns as f64,
            ),
        ])
    }

    fn refined_layer(&self) -> Option<Layer> {
        Some(Layer::GarlicExecutor)
    }
}
