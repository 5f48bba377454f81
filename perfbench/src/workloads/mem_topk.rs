//! `mem_topk`: `Engine::run` over in-memory `VecSource` sets under
//! forced policies — isolates engine, algorithms, sharding and the
//! planner; no media kernel, no store.

use std::collections::HashMap;
use std::sync::Arc;

use fmdb_core::score::Score;
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::max_merge::MaxMerge;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::{Engine, EngineConfig};
use fmdb_middleware::oracle::all_grades;
use fmdb_middleware::planner::plan_algorithm;
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::request::{shared_source, SharedSource, TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::stats::CostModel;

use super::{
    answers_valid, digest, first_with_same, timed, typical_lists, uniform_grades, Counters,
    Guarantee, Output, Size, Timed, Truth, Workload,
};
use crate::rng::Rng;
use crate::trace::{Layer, TimedSource, Tracer};

/// Arity of each of the eight Zipf-ranked sets (rank 0 is the hottest).
/// Frozen: the seed moves the grades, never the structure. The three
/// hottest sets have the same arity, so `ta_min` on them (29 ops of a
/// block, ranks 48 to 76 by cost) is one plateau around the median.
const SET_ARITY: [usize; 8] = [3, 3, 3, 2, 3, 4, 3, 2];
/// The sets of arity 3. `nra_min`, `ca_min` and `auto` read them in
/// turn over the whole list: NRA's and CA's bookkeeping costs a tenth
/// more or less from one instance to the next, even between typical
/// ones, and p99, which falls among these ops, should not ride on the
/// luck of the two hottest sets.
const ARITY_3: [usize; 5] = [0, 1, 2, 4, 6];
/// Index of the ninth set: a correlated pair (ρ = 0.8).
const CORRELATED: usize = SET_ARITY.len();
const K: usize = 10;
const THETA: f64 = 0.1;
const CA_COST_RATIO: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    TaMin,
    TaMean,
    FaMin,
    TaK100,
    ApproxTa,
    MaxMerge,
    TaSharded2,
    RunMany8,
    CorrelatedTa,
    NraMin,
    CaMin,
    Auto,
}

/// Ops per block of 100, i.e. the class shares in percent. The four
/// classes that cost tens of milliseconds (`run_many8` and the NRA / CA
/// bookkeeping behind `nra_min`, `ca_min` and `auto`) have 2 % each:
/// together they hold the top of the distribution and half of the run's
/// time, which leaves the short ops enough executions each for their
/// floors to settle.
const SHARES: [(Class, usize); 12] = [
    (Class::TaMin, 44),
    (Class::TaMean, 10),
    (Class::FaMin, 13),
    (Class::TaK100, 5),
    (Class::ApproxTa, 5),
    (Class::MaxMerge, 5),
    (Class::TaSharded2, 5),
    (Class::RunMany8, 2),
    (Class::CorrelatedTa, 5),
    (Class::NraMin, 2),
    (Class::CaMin, 2),
    (Class::Auto, 2),
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::TaMin => "ta_min",
            Class::TaMean => "ta_mean",
            Class::FaMin => "fa_min",
            Class::TaK100 => "ta_k100",
            Class::ApproxTa => "approx_ta",
            Class::MaxMerge => "max_merge",
            Class::TaSharded2 => "ta_sharded2",
            Class::RunMany8 => "run_many8",
            Class::CorrelatedTa => "correlated_ta",
            Class::NraMin => "nra_min",
            Class::CaMin => "ca_min",
            Class::Auto => "auto",
        }
    }

    fn k(self) -> usize {
        if self == Class::TaK100 {
            100
        } else {
            K
        }
    }

    fn policy(self) -> ExecPolicy {
        let forced = |algo| ExecPolicy::new().algo(algo);
        match self {
            Class::FaMin => forced(Algo::Fa),
            Class::ApproxTa => forced(Algo::Ta).theta(THETA),
            Class::TaSharded2 => forced(Algo::Ta).sharded_over(2),
            Class::NraMin => forced(Algo::Nra),
            Class::CaMin => forced(Algo::Ca).cost_model(
                CostModel::random_to_sorted_ratio(CA_COST_RATIO).unwrap_or(CostModel::UNIFORM),
            ),
            Class::Auto | Class::MaxMerge => ExecPolicy::new(),
            Class::TaMin
            | Class::TaMean
            | Class::TaK100
            | Class::RunMany8
            | Class::CorrelatedTa => forced(Algo::Ta),
        }
    }

    fn scoring(self) -> Scoring {
        match self {
            Class::TaMean => Scoring::Mean,
            Class::MaxMerge => Scoring::Max,
            _ => Scoring::Min,
        }
    }

    fn guarantee(self) -> Guarantee {
        match self {
            // `auto` may resolve to NRA, whose grades are lower bounds.
            Class::NraMin | Class::Auto => Guarantee::ValidSet,
            Class::ApproxTa => Guarantee::Theta(THETA),
            _ => Guarantee::Exact,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scoring {
    Min,
    Mean,
    Max,
}

impl Scoring {
    fn function(self) -> Box<dyn ScoringFunction + Send + Sync> {
        match self {
            Scoring::Min => Box::new(Min),
            Scoring::Mean => Box::new(ArithmeticMean),
            Scoring::Max => Box::new(ConormScoring(Max)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Op {
    class: Class,
    /// The set the op reads (`RunMany8` reads the first eight).
    set: usize,
}

/// The requests of one op, over plain or timed sources.
struct Requests {
    by_op: HashMap<Op, Vec<TopKRequest>>,
}

impl Requests {
    fn build(ops: &[Op], sets: &[Vec<SharedSource>]) -> Result<Requests, String> {
        let mut by_op = HashMap::new();
        for &op in ops {
            if by_op.contains_key(&op) {
                continue;
            }
            let over: Vec<usize> = if op.class == Class::RunMany8 {
                (0..SET_ARITY.len()).collect()
            } else {
                vec![op.set]
            };
            let requests = over
                .into_iter()
                .map(|set| {
                    let mut query = TopKQuery::compose();
                    for source in &sets[set] {
                        query = query.shared_source(Arc::clone(source));
                    }
                    query
                        .shared_scoring(Arc::from(op.class.scoring().function()))
                        .k(op.class.k())
                        .policy(op.class.policy())
                        .request()
                        .map_err(|e| format!("{}: {e}", op.class.name()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            by_op.insert(op, requests);
        }
        Ok(Requests { by_op })
    }
}

pub struct MemTopK {
    engine: Engine,
    ops: Vec<Op>,
    /// `Workload::same_work`: the first op of the same class on the
    /// same set.
    same_work: Vec<usize>,
    /// The grade lists of every set, kept for the oracle.
    lists: Vec<Vec<Vec<Score>>>,
    plain: Requests,
    timed: Option<(Requests, Arc<Tracer>)>,
    truths: HashMap<(usize, Scoring), Truth>,
}

/// Splits `count` ops over `ranks` Zipf(1)-weighted ranks by largest
/// remainder, so the hot set gets its share exactly, not on average.
fn zipf_quota(count: usize, ranks: usize) -> Vec<usize> {
    let total: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let raw: Vec<f64> = (1..=ranks)
        .map(|r| count as f64 / r as f64 / total)
        .collect();
    let mut quota: Vec<usize> = raw.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| (raw[b] - raw[b].floor()).total_cmp(&(raw[a] - raw[a].floor())));
    let missing = count - quota.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        quota[rank] += 1;
    }
    quota
}

fn execute(engine: &Engine, op: Op, requests: &[TopKRequest]) -> Result<Vec<TopKResult>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", op.class.name());
    match op.class {
        Class::RunMany8 => engine
            .run_many(requests)
            .into_iter()
            .map(|r| r.map_err(|e| fail(&e)))
            .collect(),
        Class::MaxMerge => engine
            .run_algorithm(&MaxMerge, &requests[0])
            .map(|r| vec![r])
            .map_err(|e| fail(&e)),
        _ => engine
            .run(&requests[0])
            .map(|r| vec![r])
            .map_err(|e| fail(&e)),
    }
}

fn output(results: Vec<TopKResult>) -> Output {
    let mut out = Output::default();
    for r in results {
        out.charged += r.stats.database_access_cost();
        out.answers.extend(r.answers);
    }
    out
}

impl MemTopK {
    pub fn setup(seed: u64, size: Size, tracer: Option<Arc<Tracer>>) -> Result<MemTopK, String> {
        let n = match size {
            Size::Full => 1 << 12,
            Size::Smoke => 1 << 9,
        };
        let mut values = Rng::new(seed, 0x11);
        let mut lists: Vec<Vec<Vec<Score>>> = SET_ARITY
            .iter()
            .map(|&m| typical_lists(&mut values, n, m, K))
            .collect();
        // The correlated pair: g₂ = ρ·g₁ + (1 − ρ)·u.
        let g1 = uniform_grades(&mut values, n);
        let g2 = g1
            .iter()
            .map(|g| Score::clamped(0.8 * g.value() + 0.2 * values.unit()))
            .collect();
        lists.push(vec![g1, g2]);

        // Every block is the same multiset of (class, set) pairs (up to
        // the sets of the classes that take turns); the seed only
        // shuffles the order inside each block.
        let mut order = Rng::new(seed, 0x12);
        let mut block: Vec<Op> = Vec::new();
        for (class, count) in SHARES {
            match class {
                Class::CorrelatedTa => block.extend(vec![
                    Op {
                        class,
                        set: CORRELATED
                    };
                    count
                ]),
                Class::RunMany8 | Class::NraMin | Class::CaMin | Class::Auto => {
                    block.extend(vec![Op { class, set: 0 }; count])
                }
                _ => block.extend(
                    zipf_quota(count, SET_ARITY.len())
                        .into_iter()
                        .enumerate()
                        .flat_map(|(set, n)| vec![Op { class, set }; n]),
                ),
            }
        }
        let blocks = match size {
            Size::Full => 5,
            Size::Smoke => 1,
        };
        let mut ops = Vec::new();
        for _ in 0..blocks {
            order.shuffle(&mut block);
            ops.extend_from_slice(&block);
        }
        let mut turns: HashMap<Class, usize> = HashMap::new();
        for op in &mut ops {
            if matches!(op.class, Class::NraMin | Class::CaMin | Class::Auto) {
                let turn = turns.entry(op.class).or_default();
                op.set = ARITY_3[*turn % ARITY_3.len()];
                *turn += 1;
            }
        }

        let sources = |wrap: &dyn Fn(VecSource) -> SharedSource| -> Vec<Vec<SharedSource>> {
            lists
                .iter()
                .enumerate()
                .map(|(s, set)| {
                    set.iter()
                        .enumerate()
                        .map(|(i, g)| wrap(VecSource::from_dense(format!("set{s}-{i}"), g)))
                        .collect()
                })
                .collect()
        };
        let plain = Requests::build(&ops, &sources(&|v| shared_source(v)))?;
        let timed = match tracer {
            Some(t) => {
                let wrap = |v| shared_source(TimedSource::new(v, Arc::clone(&t), Layer::Source));
                Some((Requests::build(&ops, &sources(&wrap))?, t))
            }
            None => None,
        };
        let mut workload = MemTopK {
            engine: Engine::new(EngineConfig::default()),
            same_work: first_with_same(ops.iter().copied()),
            ops,
            lists,
            plain,
            timed,
            truths: HashMap::new(),
        };
        // Fill the grade cache before the clock starts: one TA query on
        // every set, the hottest last. The same ops on every seed, so
        // that set-up costs the same.
        for set in (0..SET_ARITY.len()).rev() {
            let wanted = Op {
                class: Class::TaMin,
                set,
            };
            if let Some(i) = workload.ops.iter().position(|&op| op == wanted) {
                workload.run(i)?;
            }
        }
        Ok(workload)
    }

    fn truth(&mut self, set: usize, scoring: Scoring) -> &Truth {
        let lists = &self.lists;
        self.truths.entry((set, scoring)).or_insert_with(|| {
            let mut sources: Vec<VecSource> = lists[set]
                .iter()
                .map(|g| VecSource::from_dense("oracle", g))
                .collect();
            let mut refs: Vec<&mut dyn GradedSource> = sources
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect();
            Truth::new(all_grades(&mut refs, scoring.function().as_ref()))
        })
    }

    /// The scalar algorithm `Engine::run` resolves the request to, for
    /// the replay beside the op.
    fn algorithm(
        &self,
        op: Op,
        request: &TopKRequest,
    ) -> Result<Box<dyn TopKAlgorithm + Send + Sync>, String> {
        if op.class == Class::MaxMerge {
            return Ok(Box::new(MaxMerge));
        }
        if op.class == Class::Auto {
            let explain = self.engine.explain(request).map_err(|e| e.to_string())?;
            if let Some(algorithm) = plan_algorithm(explain.chosen, 0.0) {
                return Ok(algorithm);
            }
        }
        request.policy().algorithm().map_err(|e| e.to_string())
    }
}

impl Workload for MemTopK {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn block(&self) -> usize {
        100
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

    fn charge_repeats(&self, i: usize) -> bool {
        // Two shards race to raise the threshold they share, so how
        // deep each one reads depends on thread timing.
        self.ops[i].class != Class::TaSharded2
    }

    fn run(&mut self, i: usize) -> Result<Timed, String> {
        let op = self.ops[i];
        let requests = &self.plain.by_op[&op];
        let (nanos, results) = timed(|| execute(&self.engine, op, requests));
        Ok(Timed {
            nanos,
            output: output(results?),
        })
    }

    fn run_traced(&mut self, i: usize) -> Result<Timed, String> {
        let op = self.ops[i];
        let (requests, tracer) = self
            .timed
            .as_ref()
            .map(|(r, t)| (&r.by_op[&op], t))
            .ok_or("mem_topk was set up without a tracer")?;
        let (nanos, results) = {
            let _root = tracer.enter(Layer::Harness, "op");
            timed(|| {
                let _span = tracer.enter(
                    Layer::Engine,
                    if op.class == Class::RunMany8 {
                        "Engine::run_many"
                    } else {
                        "Engine::run"
                    },
                );
                execute(&self.engine, op, requests)
            })
        };
        // One level down: the scalar algorithm `Engine::run` resolved
        // to, over the plain sources, so its bookkeeping can be told
        // apart from the engine's batching, caching and worker
        // hand-off. Plain, because the engine reads the timed sources
        // in batches and the scalar algorithm entry by entry: spans
        // around the latter would cost more than the calls they time.
        for request in &self.plain.by_op[&op] {
            let algorithm = self.algorithm(op, request)?;
            let scoring = request.scoring();
            let _replay = tracer.enter_replay(Layer::Algorithms, "TopKAlgorithm::top_k");
            request
                .with_sources(|refs| algorithm.top_k(refs, scoring.as_ref(), request.k()))
                .map_err(|e| format!("replay of {}: {e}", op.class.name()))?;
        }
        Ok(Timed {
            nanos,
            output: output(results?),
        })
    }

    fn verify(&mut self, i: usize, seen: u64) -> Result<bool, String> {
        let op = self.ops[i];
        let k = op.class.k();
        let sets: Vec<usize> = if op.class == Class::RunMany8 {
            (0..SET_ARITY.len()).collect()
        } else {
            vec![op.set]
        };
        if op.class.guarantee() == Guarantee::Exact {
            let mut expected = Vec::new();
            for &set in &sets {
                expected.extend_from_slice(self.truth(set, op.class.scoring()).top(k));
            }
            if digest(&expected) == seen {
                return Ok(true);
            }
        }
        // A relaxed class, or a tie broken the other way: the op must
        // repeat its digest, and the repeated answers must be valid.
        let again = self.run(i)?.output.answers;
        if digest(&again) != seen {
            return Ok(false);
        }
        let mut valid = again.len() == k * sets.len();
        for (answers, &set) in again.chunks(k).zip(&sets) {
            let truth = self.truth(set, op.class.scoring());
            valid &= answers_valid(answers, k, truth, op.class.guarantee());
        }
        Ok(valid)
    }

    fn counters(&self) -> Counters {
        let (hits, misses) = self.engine.cache_counters();
        let totals = self.engine.access_totals();
        Counters::from([
            ("engine.cache_hits", hits as f64),
            ("engine.cache_misses", misses as f64),
            (
                "engine.cache_evictions",
                self.engine.cache_evictions() as f64,
            ),
            ("engine.worker_spawns", totals.worker_spawns as f64),
        ])
    }

    fn refined_layer(&self) -> Option<Layer> {
        Some(Layer::Engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_are_exact_and_favour_low_ranks() {
        assert_eq!(zipf_quota(30, 8), vec![11, 5, 4, 3, 2, 2, 2, 1]);
        assert_eq!(zipf_quota(4, 8), vec![2, 1, 1, 0, 0, 0, 0, 0]);
        for count in 0..40 {
            assert_eq!(zipf_quota(count, 8).iter().sum::<usize>(), count);
        }
    }

    #[test]
    fn the_sets_read_in_turn_are_the_ones_of_arity_three() {
        let of_arity_3: Vec<usize> = (0..SET_ARITY.len())
            .filter(|&set| SET_ARITY[set] == 3)
            .collect();
        assert_eq!(of_arity_3, ARITY_3);
    }
}
