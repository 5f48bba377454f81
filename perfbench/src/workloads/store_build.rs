//! `store_build`: the write side of the store — one-shot builds at
//! three page sizes, a garlic source persisted through
//! `repository::persist_source`, and the first query after an open.
//! Every build goes through the store's own tmp + fsync + rename.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::{Score, ScoredObject};
use fmdb_garlic::repository::{persist_source, QbicRepository, Repository};
use fmdb_middleware::source::{GradedSource, Oid, VecSource};
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};

use super::{
    class_blocks, digest, first_with_same, synthetic_images, timed, uniform_grades, zip_probes,
    Output, Size, Timed, Workload,
};
use crate::rng::Rng;
use crate::trace::{Layer, TimedRepository, TimedSource, Tracer};

/// Lists of the common size; one more, four times as long, follows
/// them for `build_large`.
const LISTS: usize = 4;
const FIRST_BATCH: usize = 256;
const FIRST_PROBES: usize = 16;
const COLORS: [&str; 6] = ["red", "green", "blue", "yellow", "orange", "pink"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Build4k,
    Build512,
    Build16k,
    BuildLarge,
    PersistGarlic,
    ReopenFirstQuery,
}

/// Ops per block of 50: shares of 48/10/10/2/10/20 percent. The large
/// build is the slowest op and holds exactly the top 2 %, so p99 is the
/// median large build, not whichever ordinary build hit the slowest
/// fsync of the run.
const BLOCK: usize = 50;
const SHARES: [(Class, usize); 6] = [
    (Class::Build4k, 24),
    (Class::Build512, 5),
    (Class::Build16k, 5),
    (Class::BuildLarge, 1),
    (Class::PersistGarlic, 5),
    (Class::ReopenFirstQuery, 10),
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Build4k => "build_4k",
            Class::Build512 => "build_512",
            Class::Build16k => "build_16k",
            Class::BuildLarge => "build_large",
            Class::PersistGarlic => "persist_garlic",
            Class::ReopenFirstQuery => "reopen_first_query",
        }
    }

    fn page_size(self) -> usize {
        match self {
            Class::Build512 => 512,
            Class::Build16k => 16 << 10,
            _ => 4 << 10,
        }
    }
}

#[derive(Debug)]
struct Op {
    class: Class,
    /// Which list a build writes or a reopen reads.
    list: usize,
    /// The colour query `persist_garlic` grades.
    atom: AtomicQuery,
    /// The oids the first query after a reopen probes.
    oids: Vec<Oid>,
}

pub struct StoreBuild {
    sources: Vec<VecSource>,
    /// Stores built in set-up, one per list, for `reopen_first_query`.
    prebuilt: Vec<PathBuf>,
    repo: QbicRepository,
    /// The same repository and lists behind span recorders.
    traced: Option<Traced>,
    ops: Vec<Op>,
    /// `Workload::same_work`: the first op of the same class on the
    /// same list (the same colour for `persist_garlic`).
    same_work: Vec<usize>,
    scratch: PathBuf,
    built: u64,
}

struct Traced {
    tracer: Arc<Tracer>,
    repo: TimedRepository,
    sources: Vec<TimedSource<VecSource>>,
}

fn open(path: &Path) -> Result<PagedStore, String> {
    PagedStore::open(path, StoreOptions::DEFAULT)
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

fn drain(source: &mut dyn GradedSource) -> Vec<ScoredObject<Oid>> {
    source.rewind();
    let mut all = Vec::new();
    loop {
        let batch = source.sorted_batch(1024);
        let done = batch.len() < 1024;
        all.extend(batch);
        if done {
            source.rewind();
            return all;
        }
    }
}

fn qbic(n: usize, seed: u64) -> QbicRepository {
    QbicRepository::new("qbic", synthetic_images(n, seed))
}

impl StoreBuild {
    pub fn setup(
        seed: u64,
        size: Size,
        tracer: Option<Arc<Tracer>>,
        scratch: &Path,
    ) -> Result<StoreBuild, String> {
        let (n, images) = match size {
            Size::Full => (1 << 15, 1000),
            Size::Smoke => (1 << 10, 100),
        };
        let mut values = Rng::new(seed, 0x31);
        let mut sources: Vec<VecSource> = (0..=LISTS)
            .map(|i| {
                let len = if i == LISTS { 4 * n } else { n };
                VecSource::from_dense(format!("list-{i}"), &uniform_grades(&mut values, len))
            })
            .collect();
        let mut prebuilt = Vec::new();
        for (i, source) in sources.iter_mut().take(LISTS).enumerate() {
            let path = scratch.join(format!("prebuilt-{i}.pgs"));
            build_store_from_source(&path, source, &BuildConfig::DEFAULT)
                .map_err(|e| format!("building {}: {e}", path.display()))?;
            prebuilt.push(path);
        }
        let mut order = Rng::new(seed, 0x32);
        let blocks = match size {
            Size::Full => 4,
            Size::Smoke => 1,
        };
        let ops: Vec<Op> = class_blocks(&SHARES, blocks, &mut order)
            .into_iter()
            .map(|class| Op {
                class,
                list: match class {
                    Class::BuildLarge => LISTS,
                    _ => order.below(LISTS),
                },
                atom: AtomicQuery::new(
                    "Color",
                    Target::Similar(COLORS[order.below(COLORS.len())].to_owned()),
                ),
                oids: (0..FIRST_PROBES).map(|_| order.below(n) as Oid).collect(),
            })
            .collect();
        let traced = tracer.map(|tracer| Traced {
            repo: TimedRepository::new(Box::new(qbic(images, seed)), Arc::clone(&tracer)),
            sources: sources
                .iter()
                .map(|s| TimedSource::new(s.clone(), Arc::clone(&tracer), Layer::Source))
                .collect(),
            tracer,
        });
        Ok(StoreBuild {
            sources,
            prebuilt,
            repo: qbic(images, seed),
            traced,
            same_work: first_with_same(ops.iter().map(|op| match op.class {
                Class::PersistGarlic => (op.class, format!("{:?}", op.atom)),
                _ => (op.class, op.list.to_string()),
            })),
            ops,
            scratch: scratch.to_owned(),
            built: 0,
        })
    }

    /// Runs op `i`; with `traced`, inside spans and over the timed
    /// wrappers.
    fn execute(&mut self, i: usize, traced: bool) -> Result<Timed, String> {
        let op = &self.ops[i];
        let mut traced = match (self.traced.as_mut(), traced) {
            (Some(t), true) => Some(t),
            (None, true) => return Err("store_build was set up without a tracer".to_owned()),
            (_, false) => None,
        };
        let tracer = traced.as_ref().map(|t| Arc::clone(&t.tracer));
        let span = |layer, name| tracer.as_ref().map(|t| t.enter(layer, name));
        let root = span(Layer::Harness, "op");
        if op.class == Class::ReopenFirstQuery {
            let path = &self.prebuilt[op.list];
            let (nanos, answers) = timed(|| -> Result<_, String> {
                let store = {
                    let _span = span(Layer::Store, "PagedStore::open");
                    open(path)?
                };
                let mut plain;
                let mut wrapped;
                let cursor: &mut dyn GradedSource = match &tracer {
                    Some(t) => {
                        wrapped = TimedSource::new(store.source(), Arc::clone(t), Layer::Store);
                        &mut wrapped
                    }
                    None => {
                        plain = store.source();
                        &mut plain
                    }
                };
                let mut answers = cursor.sorted_batch(FIRST_BATCH);
                answers.extend(zip_probes(&op.oids, cursor.random_batch(&op.oids)));
                match store.take_error() {
                    Some(e) => Err(format!("parked store error: {e}")),
                    None => Ok(answers),
                }
            });
            let answers = answers?;
            return Ok(Timed {
                nanos,
                output: Output::counted(answers),
            });
        }

        self.built += 1;
        let path = self.scratch.join(format!("build-{}.pgs", self.built));
        let config = BuildConfig::with_page_size(op.class.page_size());
        let (nanos, built) = timed(|| {
            if op.class == Class::PersistGarlic {
                let _span = span(Layer::Store, "repository::persist_source");
                let repo: &dyn Repository = match &traced {
                    Some(t) => &t.repo,
                    None => &self.repo,
                };
                persist_source(repo, &op.atom, &path, &config).map_err(|e| e.to_string())
            } else {
                let _span = span(Layer::Store, "build_store_from_source");
                let source: &mut dyn GradedSource = match &mut traced {
                    Some(t) => &mut t.sources[op.list],
                    None => &mut self.sources[op.list],
                };
                build_store_from_source(&path, source, &config).map_err(|e| e.to_string())
            }
        });
        drop(root);
        built.map_err(|e| format!("{}: {e}", op.class.name()))?;
        // Outside the op's time: read the file back, so the digest is
        // of what a reader of the new store sees, then delete it.
        let store = open(&path)?;
        let answers = drain(&mut store.source());
        let parked = store.take_error();
        drop(store);
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(e) = parked {
            return Err(format!("parked store error: {e}"));
        }
        Ok(Timed {
            nanos,
            output: Output::counted(answers),
        })
    }
}

impl Drop for StoreBuild {
    fn drop(&mut self) {
        for path in &self.prebuilt {
            // Best effort: the scratch directory is removed at exit too.
            std::fs::remove_file(path).ok();
        }
    }
}

impl Workload for StoreBuild {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn block(&self) -> usize {
        BLOCK
    }

    fn class_of(&self, i: usize) -> &'static str {
        self.ops[i].class.name()
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.ops[i])
    }

    fn same_work(&self, i: usize) -> usize {
        self.same_work[i]
    }

    fn run(&mut self, i: usize) -> Result<Timed, String> {
        self.execute(i, false)
    }

    fn run_traced(&mut self, i: usize) -> Result<Timed, String> {
        self.execute(i, true)
    }

    fn verify(&mut self, i: usize, seen: u64) -> Result<bool, String> {
        let op = &self.ops[i];
        let expected = match op.class {
            Class::PersistGarlic => {
                let mut graded = self.repo.source_for(&op.atom).map_err(|e| e.to_string())?;
                drain(&mut graded)
            }
            Class::ReopenFirstQuery => {
                let source = &mut self.sources[op.list];
                source.rewind();
                let mut answers = source.sorted_batch(FIRST_BATCH);
                source.rewind();
                let grades: Vec<Score> = source.random_batch(&op.oids);
                answers.extend(zip_probes(&op.oids, grades));
                answers
            }
            _ => drain(&mut self.sources[op.list]),
        };
        Ok(digest(&expected) == seen)
    }
}
