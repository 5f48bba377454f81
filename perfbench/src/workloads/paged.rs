//! `paged_warm` and `paged_cold`: scalar algorithms and raw source
//! calls on `PagedStore::source()` cursors. The two workloads share
//! the files, the generator and the op list; only the buffer-pool size
//! differs (and so how much of the list a run gets through).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fmdb_core::score::Score;
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::algorithms::naive::Naive;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::TopKAlgorithm;
use fmdb_middleware::source::{GradedSource, Oid, VecSource};
use fmdb_middleware::store::{
    build_store_from_source, BuildConfig, PagedSource, PagedStore, StoreOptions,
};

use super::{
    class_blocks, first_with_same, timed, uniform_grades, zip_probes, Counters, Digest, Output,
    Size, Timed, Workload,
};
use crate::rng::Rng;
use crate::trace::{Layer, TimedSource, Tracer};

/// Six lists give the algorithm ops 15 pairs and 20 triples to read,
/// so no run rides on the luck of one instance: how deep FA and TA read
/// a pair of random lists varies by a sixth from pair to pair.
const LISTS: usize = 6;
const K: usize = 10;
const BOUND: f64 = 0.98;
const BATCH: usize = 256;
const PROBES: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    FaMin,
    TaMin,
    FaMinM3,
    DrainBounded,
    DrainBatch,
    DrainNext,
    ProbeUniform,
    ProbeHot,
    NaiveScan,
}

/// Ops per block of 50: shares of 26/22/2/16/8/6/12/6/2 percent. The
/// shares put the median a third of the way into `fa_min`, whose six
/// pairs of lists cost within a tenth of each other, and give the top
/// 2 % to one class on either workload, so that p99 is the median op of
/// that class rather than a point in a tail: the naive scan is the
/// slowest op with every page resident, the three-list FA (its random
/// accesses all miss) with a small pool.
const BLOCK: usize = 50;
const SHARES: [(Class, usize); 9] = [
    (Class::FaMin, 13),
    (Class::TaMin, 11),
    (Class::FaMinM3, 1),
    (Class::DrainBounded, 8),
    (Class::DrainBatch, 4),
    (Class::DrainNext, 3),
    (Class::ProbeUniform, 6),
    (Class::ProbeHot, 3),
    (Class::NaiveScan, 1),
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::FaMin => "fa_min",
            Class::TaMin => "ta_min",
            Class::FaMinM3 => "fa_min_m3",
            Class::DrainBounded => "drain_bounded",
            Class::DrainBatch => "drain_batch",
            Class::DrainNext => "drain_next",
            Class::ProbeUniform => "probe_uniform",
            Class::ProbeHot => "probe_hot",
            Class::NaiveScan => "naive_scan",
        }
    }

    fn algorithm(self) -> Option<&'static dyn TopKAlgorithm> {
        match self {
            Class::FaMin | Class::FaMinM3 => Some(&FaginsAlgorithm),
            Class::TaMin => Some(&ThresholdAlgorithm),
            Class::NaiveScan => Some(&Naive),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Op {
    class: Class,
    /// The lists the op reads: two or three for an algorithm, one for
    /// a drain or a probe.
    lists: Vec<usize>,
    /// The oids a probe op asks for.
    oids: Vec<Oid>,
}

pub struct Paged {
    stores: Vec<PagedStore>,
    paths: Vec<PathBuf>,
    grades: Vec<Vec<Score>>,
    ops: Vec<Op>,
    /// `Workload::same_work`: the first op of the same class over the
    /// same lists, whatever oids it probes.
    same_work: Vec<usize>,
    tracer: Option<Arc<Tracer>>,
    twins: Option<Vec<VecSource>>,
    /// Oracle digests of ops that differ only in their lists.
    expected: HashMap<(Class, Vec<usize>), u64>,
}

/// The op's calls into the program, over whatever cursors it is given
/// (plain `PagedSource`s, their timed wrappers, or the oracle's
/// in-memory twins).
fn execute(
    op: &Op,
    cursors: &mut [&mut dyn GradedSource],
    tracer: Option<&Tracer>,
) -> Result<Output, String> {
    if let Some(algorithm) = op.class.algorithm() {
        let _span = tracer.map(|t| t.enter(Layer::Algorithms, "TopKAlgorithm::top_k"));
        let result = algorithm
            .top_k(cursors, &Min, K)
            .map_err(|e| format!("{}: {e}", op.class.name()))?;
        return Ok(Output {
            charged: result.stats.database_access_cost(),
            answers: result.answers,
            folded: None,
        });
    }
    let cursor = &mut *cursors[0];
    let mut seen = Digest::new();
    let answers = match op.class {
        Class::DrainBounded => cursor
            .sorted_drain_bounded(Score::clamped(BOUND))
            .ok_or("source has no bounded drain")?,
        Class::DrainBatch => loop {
            let batch = cursor.sorted_batch(BATCH);
            batch.iter().for_each(|entry| seen.push(entry));
            if batch.len() < BATCH {
                break Vec::new();
            }
        },
        Class::DrainNext => {
            while let Some(entry) = cursor.sorted_next() {
                seen.push(&entry);
            }
            Vec::new()
        }
        _ => zip_probes(&op.oids, cursor.random_batch(&op.oids)),
    };
    // A drain is charged per entry it streamed, a probe per oid.
    Ok(Output {
        charged: seen.entries().max(answers.len() as u64),
        folded: (seen.entries() > 0).then(|| seen.finish()),
        answers,
    })
}

/// Every ascending choice of `arity` of the lists `0..lists`.
fn combinations(lists: usize, arity: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..arity {
        out = out
            .into_iter()
            .flat_map(|chosen| {
                let from = chosen.last().map_or(0, |&l| l + 1);
                (from..lists).map(move |l| {
                    let mut longer = chosen.clone();
                    longer.push(l);
                    longer
                })
            })
            .collect();
    }
    out
}

impl Paged {
    pub fn setup(
        seed: u64,
        size: Size,
        tracer: Option<Arc<Tracer>>,
        scratch: &Path,
        warm: bool,
    ) -> Result<Paged, String> {
        let n: usize = match size {
            Size::Full => 1 << 16,
            Size::Smoke => 1 << 11,
        };
        let mut values = Rng::new(seed, 0x21);
        let grades: Vec<Vec<Score>> = (0..LISTS).map(|_| uniform_grades(&mut values, n)).collect();
        let mut paths = Vec::new();
        for (i, g) in grades.iter().enumerate() {
            let path = scratch.join(format!("paged-{i}.pgs"));
            let mut source = VecSource::from_dense(format!("paged-{i}"), g);
            build_store_from_source(&path, &mut source, &BuildConfig::DEFAULT)
                .map_err(|e| format!("building {}: {e}", path.display()))?;
            paths.push(path);
        }
        // A file is 2·⌈n / 255⌉ data pages plus a handful of metadata
        // pages: the warm pool holds a whole file, the cold pool a
        // sixteenth of one.
        let file_pages = 2 * n.div_ceil(255);
        let pool_pages = if warm {
            2 * file_pages
        } else {
            (file_pages / 16).max(2)
        };
        let stores = paths
            .iter()
            .map(|p| {
                PagedStore::open(p, StoreOptions::with_pool_pages(pool_pages))
                    .map_err(|e| format!("opening {}: {e}", p.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut order = Rng::new(seed, 0x22);
        let hot: Vec<Oid> = (0..(n / 100).max(1))
            .map(|_| order.below(n) as Oid)
            .collect();
        let blocks = match size {
            Size::Full => 8,
            Size::Smoke => 1,
        };
        // Every class takes the combinations of lists of its arity in
        // turn, from a seed-shuffled order of its own: each pair is read
        // as often as any other, whatever the seed.
        let mut turns: HashMap<Class, (Vec<Vec<usize>>, usize)> = HashMap::new();
        let ops: Vec<Op> = class_blocks(&SHARES, blocks, &mut order)
            .into_iter()
            .map(|class| {
                let (combinations, turn) = turns.entry(class).or_insert_with(|| {
                    let mut all = combinations(
                        LISTS,
                        match class {
                            Class::FaMinM3 => 3,
                            Class::FaMin | Class::TaMin | Class::NaiveScan => 2,
                            _ => 1,
                        },
                    );
                    order.shuffle(&mut all);
                    (all, 0)
                });
                let lists = combinations[*turn % combinations.len()].clone();
                *turn += 1;
                let oids = match class {
                    Class::ProbeUniform => (0..PROBES).map(|_| order.below(n) as Oid).collect(),
                    Class::ProbeHot => (0..PROBES).map(|_| hot[order.below(hot.len())]).collect(),
                    _ => Vec::new(),
                };
                Op { class, lists, oids }
            })
            .collect();

        let workload = Paged {
            stores,
            paths,
            grades,
            same_work: first_with_same(ops.iter().map(|op| (op.class, &op.lists))),
            ops,
            tracer,
            twins: None,
            expected: HashMap::new(),
        };
        // Touch every page of every file once, so `paged_warm` starts
        // with all of them resident (and `paged_cold` with a full pool).
        let all: Vec<Oid> = (0..n as Oid).collect();
        for store in &workload.stores {
            let mut cursor = store.source();
            while !cursor.sorted_batch(1024).is_empty() {}
            cursor.random_batch(&all);
        }
        workload.after_op_check()?;
        Ok(workload)
    }

    fn after_op_check(&self) -> Result<(), String> {
        for store in &self.stores {
            if let Some(e) = store.take_error() {
                return Err(format!("parked store error: {e}"));
            }
        }
        Ok(())
    }

    fn cursors(&self, op: &Op) -> Vec<PagedSource> {
        op.lists.iter().map(|&l| self.stores[l].source()).collect()
    }
}

impl Drop for Paged {
    fn drop(&mut self) {
        for path in &self.paths {
            // Best effort: the scratch directory is removed at exit too.
            std::fs::remove_file(path).ok();
        }
    }
}

impl Workload for Paged {
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
        let op = &self.ops[i];
        let (nanos, output) = timed(|| {
            let mut cursors = self.cursors(op);
            let mut refs: Vec<&mut dyn GradedSource> = cursors
                .iter_mut()
                .map(|c| c as &mut dyn GradedSource)
                .collect();
            execute(op, &mut refs, None)
        });
        Ok(Timed {
            nanos,
            output: output?,
        })
    }

    fn run_traced(&mut self, i: usize) -> Result<Timed, String> {
        let op = &self.ops[i];
        let tracer = self
            .tracer
            .as_ref()
            .ok_or("paged workload was set up without a tracer")?;
        let _root = tracer.enter(Layer::Harness, "op");
        let (nanos, output) = timed(|| {
            let mut cursors: Vec<TimedSource<PagedSource>> = self
                .cursors(op)
                .into_iter()
                .map(|c| TimedSource::new(c, Arc::clone(tracer), Layer::Store))
                .collect();
            let mut refs: Vec<&mut dyn GradedSource> = cursors
                .iter_mut()
                .map(|c| c as &mut dyn GradedSource)
                .collect();
            execute(op, &mut refs, Some(tracer))
        });
        Ok(Timed {
            nanos,
            output: output?,
        })
    }

    fn after_op(&mut self) -> Result<(), String> {
        self.after_op_check()
    }

    fn verify(&mut self, i: usize, seen: u64) -> Result<bool, String> {
        // The oracle runs over in-memory twins of the lists, which
        // share no code with the store. FA and TA are checked against
        // the naive scan, not against themselves. Uniform f64 grades
        // make ties a non-issue, so the digests must agree.
        let grades = &self.grades;
        let twins = self.twins.get_or_insert_with(|| {
            grades
                .iter()
                .enumerate()
                .map(|(i, g)| VecSource::from_dense(format!("paged-{i}"), g))
                .collect()
        });
        let op = &self.ops[i];
        let oracle = Op {
            class: match op.class.algorithm() {
                Some(_) => Class::NaiveScan,
                None => op.class,
            },
            lists: op.lists.clone(),
            oids: op.oids.clone(),
        };
        let run = || -> Result<u64, String> {
            let mut picked: Vec<VecSource> =
                oracle.lists.iter().map(|&l| twins[l].clone()).collect();
            let mut refs: Vec<&mut dyn GradedSource> = picked
                .iter_mut()
                .map(|c| c as &mut dyn GradedSource)
                .collect();
            Ok(execute(&oracle, &mut refs, None)?.digest())
        };
        let expected = if oracle.oids.is_empty() {
            let lists = oracle.lists.clone();
            match self.expected.get(&(oracle.class, lists.clone())) {
                Some(&d) => d,
                None => {
                    let d = run()?;
                    self.expected.insert((oracle.class, lists), d);
                    d
                }
            }
        } else {
            run()?
        };
        Ok(expected == seen)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for store in &self.stores {
            let io = store.page_io();
            *c.entry("pool.reads").or_default() += io.reads as f64;
            *c.entry("pool.hits").or_default() += io.hits as f64;
            *c.entry("pool.evictions").or_default() += io.evictions as f64;
            *c.entry("pool.skipped").or_default() += io.skipped as f64;
            *c.entry("pool.readahead_loads").or_default() += store.readahead_loads() as f64;
            *c.entry("pool.resident_pages").or_default() += store.resident_pages() as f64;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_are_every_ascending_choice() {
        assert_eq!(combinations(3, 1), [[0], [1], [2]]);
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(LISTS, 3).len(), 20);
        assert!(combinations(LISTS, 2)
            .iter()
            .all(|pair| pair[0] < pair[1] && pair[1] < LISTS));
    }
}
