//! The five workloads and what they share: op lists built in blocks
//! with exact class shares, the op outcome, digests and the top-k
//! validity rules the oracles check against.

pub mod garlic_sql;
pub mod mem_topk;
pub mod paged;
pub mod store_build;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::source::Oid;

use crate::rng::Rng;
use crate::trace::{Layer, Tracer};

pub const WORKLOADS: [&str; 5] = [
    "garlic_sql",
    "mem_topk",
    "paged_warm",
    "paged_cold",
    "store_build",
];

/// Corpus sizes: the measured ones, or tiny ones for `--smoke` and the
/// tests, which exercise the harness without running the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one op produced: its answers (or probed grades paired with
/// their oids) and the accesses it was charged. A drain folds its
/// entries into `folded` as they arrive and leaves `answers` empty,
/// the way a consumer of a 65 536-entry stream would.
#[derive(Debug, Clone, Default)]
pub struct Output {
    pub answers: Vec<ScoredObject<Oid>>,
    pub folded: Option<u64>,
    pub charged: u64,
}

impl Output {
    /// An output charged one access per entry it holds.
    pub fn counted(answers: Vec<ScoredObject<Oid>>) -> Output {
        Output {
            charged: answers.len() as u64,
            answers,
            folded: None,
        }
    }

    pub fn digest(&self) -> u64 {
        self.folded.unwrap_or_else(|| digest(&self.answers))
    }
}

/// One executed op: the time inside the program's calls, and the output.
#[derive(Debug)]
pub struct Timed {
    pub nanos: u64,
    pub output: Output,
}

/// Times `f`, which makes the op's calls into the program.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (start.elapsed().as_nanos() as u64, value)
}

/// Counters the layers keep themselves, summed since set-up; the
/// harness diffs two snapshots around a pass.
pub type Counters = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Number of ops in the list; the timed phase cycles through it.
    fn ops(&self) -> usize;
    /// Ops per block. Every block holds each class in its exact share,
    /// so a run of whole blocks has the same mix whatever its length.
    fn block(&self) -> usize;
    fn class_of(&self, i: usize) -> &'static str;
    /// Op `i` spelled out: everything the seed decided about it.
    fn describe(&self, i: usize) -> String;
    /// The first op of the list that does the same work as op `i`: the
    /// same calls over the same inputs, up to which pseudo-random oids
    /// a probe asks for. Executions of such ops are samples of one
    /// cost, and the run takes the fastest of them (see `run::floors`).
    fn same_work(&self, i: usize) -> usize {
        i
    }
    /// Whether op `i` is charged the same accesses every time it runs.
    /// Ops that are not stay out of `charged_cost_per_op`, which has to
    /// repeat exactly for a seed.
    fn charge_repeats(&self, _i: usize) -> bool {
        true
    }
    /// Runs op `i` untraced.
    fn run(&mut self, i: usize) -> Result<Timed, String>;
    /// Runs op `i` with spans, plus the replays that look one level
    /// down. Only on a workload set up with a tracer.
    fn run_traced(&mut self, i: usize) -> Result<Timed, String>;
    /// Polls what the program parks instead of returning (a store's
    /// `take_error`); an `Err` fails the op just run.
    fn after_op(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Checks the digest a run of op `i` produced against an oracle
    /// that shares no code path with the op.
    fn verify(&mut self, i: usize, digest: u64) -> Result<bool, String>;
    fn counters(&self) -> Counters {
        Counters::new()
    }
    /// The layer whose self time the replays refine (see
    /// `analysis::attribute`).
    fn refined_layer(&self) -> Option<Layer> {
        None
    }
}

/// Builds a workload from the seed. `scratch` is this process's own
/// directory for store files.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    tracer: Option<Arc<Tracer>>,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "garlic_sql" => Box::new(garlic_sql::GarlicSql::setup(seed, size, tracer)?),
        "mem_topk" => Box::new(mem_topk::MemTopK::setup(seed, size, tracer)?),
        "paged_warm" => Box::new(paged::Paged::setup(seed, size, tracer, scratch, true)?),
        "paged_cold" => Box::new(paged::Paged::setup(seed, size, tracer, scratch, false)?),
        "store_build" => Box::new(store_build::StoreBuild::setup(seed, size, tracer, scratch)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// `blocks` blocks, each holding every class exactly `count` times in
/// a seed-shuffled order. The shares are frozen; only the order moves
/// with the seed.
pub fn class_blocks<C: Copy>(shares: &[(C, usize)], blocks: usize, rng: &mut Rng) -> Vec<C> {
    let mut out = Vec::new();
    for _ in 0..blocks {
        let mut block: Vec<C> = shares
            .iter()
            .flat_map(|&(class, count)| std::iter::repeat_n(class, count))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// For every op, the index of the first op with an equal `work` value:
/// what `Workload::same_work` answers from.
pub fn first_with_same<K: Eq + std::hash::Hash>(works: impl Iterator<Item = K>) -> Vec<usize> {
    let mut first: HashMap<K, usize> = HashMap::new();
    works
        .enumerate()
        .map(|(i, work)| *first.entry(work).or_insert(i))
        .collect()
}

/// The synthetic image database every garlic-facing workload and probe
/// grades: `garlic::demo::cd_store`'s settings, seeded.
pub fn synthetic_images(n: usize, seed: u64) -> SyntheticDb {
    SyntheticDb::generate(&SynthConfig {
        count: n,
        bins_per_channel: 4,
        seed,
        ..SynthConfig::default()
    })
}

pub fn uniform_grades(rng: &mut Rng, n: usize) -> Vec<Score> {
    (0..n).map(|_| Score::clamped(rng.unit())).collect()
}

/// Instances `typical_lists` draws before it keeps the most typical.
const TYPICAL_DRAWS: usize = 48;

/// `m` lists of `n` uniform grades whose top-`k` cut-off under min is a
/// typical one.
///
/// How deep TA, FA or NRA read is set by the k-th best overall grade
/// `g_k`: they stop once the lists have sunk to it. With k = 10 that
/// one order statistic moves the cost of a query by ±10 % from one
/// random instance to the next (far more for NRA's bookkeeping), and a
/// workload that reads a handful of sets over and over inherits the
/// luck of each. So 48 instances are drawn from the seed's stream and
/// the one whose `1 − g_k` is closest to `(k/n)^(1/m)`, the value at
/// which `k` objects are expected above the cut-off, is kept (within
/// 1 % as a rule); the grades stay i.i.d. uniform otherwise. The number
/// of draws is fixed so that set-up costs the same on every seed.
pub fn typical_lists(rng: &mut Rng, n: usize, m: usize, k: usize) -> Vec<Vec<Score>> {
    let expected = (k as f64 / n as f64).powf(1.0 / m as f64);
    let mut best: Option<(f64, Vec<Vec<Score>>)> = None;
    for _ in 0..TYPICAL_DRAWS {
        let lists: Vec<Vec<Score>> = (0..m).map(|_| uniform_grades(rng, n)).collect();
        let mut overall: Vec<Score> = (0..n)
            .map(|i| lists.iter().map(|l| l[i]).min().unwrap_or(Score::ZERO))
            .collect();
        let kth = k.clamp(1, n) - 1;
        overall.select_nth_unstable_by(kth, |a, b| b.cmp(a));
        let off = ((1.0 - overall[kth].value()) / expected - 1.0).abs();
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, lists));
        }
    }
    best.map(|(_, lists)| lists).unwrap_or_default()
}

/// A cheap order-sensitive digest of (ids, grade bits), fed one entry
/// at a time.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    entries: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    pub fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            entries: 0,
        }
    }

    pub fn push(&mut self, entry: &ScoredObject<Oid>) {
        self.hash = (self.hash ^ entry.id).wrapping_mul(FNV_PRIME);
        self.hash = (self.hash ^ entry.grade.value().to_bits()).wrapping_mul(FNV_PRIME);
        self.entries += 1;
    }

    pub fn entries(&self) -> u64 {
        self.entries
    }

    pub fn finish(&self) -> u64 {
        (self.hash ^ self.entries).wrapping_mul(FNV_PRIME)
    }
}

pub fn digest(answers: &[ScoredObject<Oid>]) -> u64 {
    let mut d = Digest::new();
    for a in answers {
        d.push(a);
    }
    d.finish()
}

/// Pairs probed oids with the grades random access returned, so probe
/// ops digest like every other op.
pub fn zip_probes(oids: &[Oid], grades: Vec<Score>) -> Vec<ScoredObject<Oid>> {
    oids.iter()
        .zip(grades)
        .map(|(&id, grade)| ScoredObject::new(id, grade))
        .collect()
}

/// Every object's true overall grade for one query, in answer order
/// (descending grade, ascending oid), with a lookup by oid.
#[derive(Debug)]
pub struct Truth {
    pub ranked: Vec<ScoredObject<Oid>>,
    pub by_oid: HashMap<Oid, Score>,
}

impl Truth {
    pub fn new(grades: HashMap<Oid, Score>) -> Truth {
        let mut ranked: Vec<ScoredObject<Oid>> = grades
            .iter()
            .map(|(&id, &grade)| ScoredObject::new(id, grade))
            .collect();
        ranked.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        Truth {
            ranked,
            by_oid: grades,
        }
    }

    pub fn top(&self, k: usize) -> &[ScoredObject<Oid>] {
        &self.ranked[..k.min(self.ranked.len())]
    }
}

/// What an answer list owes the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// Exact grades and a valid top-k set (ties may break either way).
    Exact,
    /// A valid top-k set; reported grades are lower bounds (NRA).
    ValidSet,
    /// Exact grades; `(1 + θ)·g(returned) ≥ g(left out)` (θ-approximate TA).
    Theta(f64),
}

/// The paper's definition of a correct top-k answer, relaxed as
/// `guarantee` allows.
pub fn answers_valid(
    answers: &[ScoredObject<Oid>],
    k: usize,
    truth: &Truth,
    guarantee: Guarantee,
) -> bool {
    if answers.len() != k.min(truth.ranked.len()) {
        return false;
    }
    let mut returned = HashSet::with_capacity(answers.len());
    let mut weakest = Score::ONE;
    for a in answers {
        let Some(&actual) = truth.by_oid.get(&a.id) else {
            return false;
        };
        if !returned.insert(a.id) {
            return false;
        }
        let grade_ok = match guarantee {
            Guarantee::ValidSet => a.grade <= actual,
            Guarantee::Exact | Guarantee::Theta(_) => a.grade == actual,
        };
        if !grade_ok {
            return false;
        }
        weakest = weakest.min(actual);
    }
    let best_left_out = truth
        .ranked
        .iter()
        .find(|so| !returned.contains(&so.id))
        .map_or(Score::ZERO, |so| so.grade);
    match guarantee {
        Guarantee::Theta(theta) => weakest.value() * (1.0 + theta) >= best_left_out.value(),
        Guarantee::Exact | Guarantee::ValidSet => weakest >= best_left_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn so(id: Oid, g: f64) -> ScoredObject<Oid> {
        ScoredObject::new(id, Score::clamped(g))
    }

    fn truth() -> Truth {
        Truth::new(
            [(1, 0.9), (2, 0.8), (3, 0.8), (4, 0.5), (5, 0.1)]
                .into_iter()
                .map(|(id, g)| (id, Score::clamped(g)))
                .collect(),
        )
    }

    #[test]
    fn blocks_hold_exact_shares_in_seeded_order() {
        let shares = [("a", 3usize), ("b", 1), ("c", 1)];
        let one = class_blocks(&shares, 4, &mut Rng::new(1, 0));
        let same = class_blocks(&shares, 4, &mut Rng::new(1, 0));
        let other = class_blocks(&shares, 4, &mut Rng::new(2, 0));
        assert_eq!(one, same);
        assert_ne!(one, other);
        for list in [&one, &other] {
            for block in list.chunks(5) {
                assert_eq!(block.iter().filter(|&&c| c == "a").count(), 3);
                assert_eq!(block.iter().filter(|&&c| c == "b").count(), 1);
            }
        }
    }

    #[test]
    fn same_work_points_at_the_first_equal_op() {
        assert_eq!(
            first_with_same(["a", "b", "a", "c", "b"].into_iter()),
            [0, 1, 0, 3, 1]
        );
    }

    #[test]
    fn typical_lists_have_the_expected_cut_off_and_follow_the_seed() {
        let (n, m, k) = (2048, 3, 10);
        let lists = typical_lists(&mut Rng::new(4, 0), n, m, k);
        assert_eq!(lists, typical_lists(&mut Rng::new(4, 0), n, m, k));
        assert_ne!(lists, typical_lists(&mut Rng::new(5, 0), n, m, k));
        let mut overall: Vec<Score> = (0..n)
            .map(|i| lists.iter().map(|l| l[i]).min().unwrap())
            .collect();
        overall.sort_by(|a, b| b.cmp(a));
        let expected = (k as f64 / n as f64).powf(1.0 / m as f64);
        assert!(((1.0 - overall[k - 1].value()) / expected - 1.0).abs() <= 0.03);
    }

    #[test]
    fn exact_answers_allow_either_side_of_a_tie() {
        let t = truth();
        assert!(answers_valid(
            &[so(1, 0.9), so(2, 0.8)],
            2,
            &t,
            Guarantee::Exact
        ));
        assert!(answers_valid(
            &[so(1, 0.9), so(3, 0.8)],
            2,
            &t,
            Guarantee::Exact
        ));
        // Wrong grade, wrong set, short list, duplicate.
        assert!(!answers_valid(
            &[so(1, 0.9), so(2, 0.7)],
            2,
            &t,
            Guarantee::Exact
        ));
        assert!(!answers_valid(
            &[so(1, 0.9), so(4, 0.5)],
            2,
            &t,
            Guarantee::Exact
        ));
        assert!(!answers_valid(&[so(1, 0.9)], 2, &t, Guarantee::Exact));
        assert!(!answers_valid(
            &[so(1, 0.9), so(1, 0.9)],
            2,
            &t,
            Guarantee::Exact
        ));
    }

    #[test]
    fn relaxed_guarantees_accept_what_they_promise() {
        let t = truth();
        // NRA: lower-bound grades on a valid set.
        assert!(answers_valid(
            &[so(1, 0.6), so(2, 0.3)],
            2,
            &t,
            Guarantee::ValidSet
        ));
        assert!(!answers_valid(
            &[so(1, 0.95), so(2, 0.3)],
            2,
            &t,
            Guarantee::ValidSet
        ));
        // θ = 0.7: returning object 4 (0.5) while 2 (0.8) is left out
        // is allowed, 0.5·1.7 ≥ 0.8; θ = 0.1 forbids it.
        assert!(answers_valid(
            &[so(1, 0.9), so(4, 0.5)],
            2,
            &t,
            Guarantee::Theta(0.7)
        ));
        assert!(!answers_valid(
            &[so(1, 0.9), so(4, 0.5)],
            2,
            &t,
            Guarantee::Theta(0.1)
        ));
    }

    #[test]
    fn digest_sees_order_ids_and_grade_bits() {
        let a = [so(1, 0.5), so(2, 0.25)];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&[so(2, 0.25), so(1, 0.5)]));
        assert_ne!(digest(&a), digest(&[so(1, 0.5), so(2, 0.250000001)]));
        assert_ne!(digest(&a), digest(&a[..1]));
    }
}
