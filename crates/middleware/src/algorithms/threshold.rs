//! The threshold kernel: the one loop behind TA, NRA, CA, their
//! θ-approximations and both shard kernels.
//!
//! Fagin–Lotem–Naor ("Optimal Aggregation Algorithms for Middleware")
//! present the family as a single algorithm. Every round does one
//! sorted access per live list and keeps, for each seen object, the
//! interval `[lower, upper]` its overall grade must lie in: unknown
//! fields count as 0 below and as the list's last streamed grade (its
//! *bottom*) above. Unseen objects are bounded by `t(bottoms)`. The run
//! halts once the k-th best lower bound `Mₖ` dismisses every other
//! upper bound, `upper ≤ (1 + θ)·Mₖ`. Members differ only in the
//! quantities of [`Family`] and in whether shard workers share a bound;
//! the table in [`crate::algorithms`] maps each public name to them.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::approx::{upper_excluded, validate_theta};
use crate::algorithms::nra::{BoundedAnswer, NraResult};
use crate::algorithms::{validate, AlgoError};
use crate::planner::{classify_combiner, CombinerKind};
use crate::sharded::AtomicThreshold;
use crate::source::{GradedSource, Oid};
use crate::stats::AccessStats;

/// When the loop spends random accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// TA: fetch every missing grade of an object the moment sorted
    /// access first shows it.
    OnSight,
    /// CA: every `h`-th round, completely resolve the most promising
    /// unresolved object — at most the price of one random access per
    /// `h = ⌊c_R/c_S⌋` sorted rounds.
    Every(usize),
    /// NRA: sorted access only.
    Never,
}

/// How the certified top k is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    /// The intervals as they stand at the halt.
    AsHalted,
    /// CA: the set is already certified, but the workspace contract
    /// (and the oracle's grade check) wants exact grades, so the
    /// answers' missing fields are probed after the halt.
    Closed,
    /// Shard NRA: halt only once the answers' intervals have collapsed.
    /// The cross-shard merge selects by grade, and selecting by
    /// uncollapsed lower bounds could prefer a shard's
    /// mediocre-but-certain candidate over another shard's
    /// better-but-uncertain one. A shard whose every candidate the
    /// shared bound rules out reports nothing instead.
    Collapsed,
}

/// One member of the family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Family {
    probe: Probe,
    /// Approximation slack; 0 for the exact algorithms.
    theta: f64,
    report: Report,
}

/// A seen object's place in the ranking of lower bounds.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    answer: BoundedAnswer,
    /// The object's number in [`Seen`].
    obj: usize,
}

/// NRA's answer order: descending lower bound, then ascending oid.
fn by_lower_bound(a: &Ranked, b: &Ranked) -> Ordering {
    let (a, b) = (&a.answer, &b.answer);
    b.lower.cmp(&a.lower).then(a.id.cmp(&b.id))
}

/// Per-object bookkeeping: which grades each seen object has revealed.
///
/// Only *open* objects (some field unknown) have an interval to
/// recompute as the bottoms sink; a fully known object has one exact
/// grade, and only the best `k` of those can ever matter: a resolved
/// object outranked by `k` resolved ones sits below `Mₖ` for good.
#[derive(Default)]
struct Seen {
    m: usize,
    k: usize,
    numbers: HashMap<Oid, usize>,
    ids: Vec<Oid>,
    /// `m` slots per object; `None` until a list reveals the grade.
    slots: Vec<Option<Score>>,
    missing: Vec<usize>,
    /// Open objects (plus any completed since the last [`Seen::rank`]).
    open: Vec<usize>,
    /// The best `k` resolved objects, worst on top; `Reverse` on the
    /// oid makes heap order agree with the output tie-break.
    top: BinaryHeap<Reverse<(Score, Reverse<Oid>, usize)>>,
    ranked: Vec<Ranked>,
    low: Vec<Score>,
    high: Vec<Score>,
    stats: AccessStats,
}

impl Seen {
    /// The object's number and whether this is its first sighting.
    fn number(&mut self, oid: Oid) -> (usize, bool) {
        let next = self.ids.len();
        let obj = *self.numbers.entry(oid).or_insert(next);
        if obj == next {
            self.ids.push(oid);
            self.slots.resize(self.slots.len() + self.m, None);
            self.missing.push(self.m);
        }
        (obj, obj == next)
    }

    /// The object's overall grade once every field is known.
    fn exact(&mut self, obj: usize, scoring: &dyn ScoringFunction) -> Score {
        let slots = &self.slots[obj * self.m..(obj + 1) * self.m];
        self.low.clear();
        self.low
            .extend(slots.iter().map(|g| g.unwrap_or(Score::ZERO)));
        scoring.combine(&self.low)
    }

    /// Records list `j`'s grade for `obj`; the object joins `top` when
    /// this was its last unknown field.
    fn reveal(&mut self, obj: usize, j: usize, grade: Score, scoring: &dyn ScoringFunction) {
        let slot = &mut self.slots[obj * self.m + j];
        if slot.is_some() {
            return;
        }
        *slot = Some(grade);
        self.missing[obj] -= 1;
        if self.missing[obj] == 0 {
            let exact = self.exact(obj, scoring);
            self.top.push(Reverse((exact, Reverse(self.ids[obj]), obj)));
            if self.top.len() > self.k {
                self.top.pop();
            }
        }
    }

    /// Random-accesses every field `obj` still misses.
    fn resolve(
        &mut self,
        obj: usize,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
    ) {
        for (j, source) in sources.iter_mut().enumerate() {
            if self.slots[obj * self.m + j].is_none() {
                let grade = source.random_access(self.ids[obj]);
                self.stats.random += 1;
                self.reveal(obj, j, grade, scoring);
            }
        }
    }

    /// The k-th best resolved grade, once `k` objects are resolved.
    fn kth_resolved(&self) -> Option<Score> {
        let &Reverse((grade, ..)) = self.top.peek().filter(|_| self.top.len() >= self.k)?;
        Some(grade)
    }

    /// Rebuilds `ranked`: the resolved top plus every open object's
    /// fresh interval, in answer order.
    fn rank(&mut self, bottoms: &[Score], scoring: &dyn ScoringFunction) {
        self.open.retain(|&obj| self.missing[obj] > 0);
        self.ranked.clear();
        for &Reverse((grade, Reverse(id), obj)) in &self.top {
            let (lower, upper) = (grade, grade);
            let answer = BoundedAnswer { id, lower, upper };
            self.ranked.push(Ranked { answer, obj });
        }
        for &obj in &self.open {
            let slots = &self.slots[obj * self.m..(obj + 1) * self.m];
            self.low.clear();
            self.high.clear();
            for (&g, &bottom) in slots.iter().zip(bottoms) {
                self.low.push(g.unwrap_or(Score::ZERO));
                self.high.push(g.unwrap_or(bottom));
            }
            let (lower, upper) = (scoring.combine(&self.low), scoring.combine(&self.high));
            let id = self.ids[obj];
            let answer = BoundedAnswer { id, lower, upper };
            self.ranked.push(Ranked { answer, obj });
        }
        self.ranked.sort_unstable_by(by_lower_bound);
    }

    /// CA's probe target: the open object with the largest upper bound
    /// (ties to the smaller oid) among those the k-th lower bound
    /// cannot exclude — resolving anything else cannot change the
    /// answer set.
    fn most_promising(&self, theta: f64) -> Option<usize> {
        let tau = self.ranked.get(self.k - 1).map(|r| r.answer.lower);
        let live = |rank: usize, upper: Score| {
            rank < self.k || !tau.is_some_and(|tau| upper_excluded(upper, tau, theta))
        };
        self.ranked
            .iter()
            .enumerate()
            .filter(|&(rank, r)| self.missing[r.obj] > 0 && live(rank, r.answer.upper))
            .map(|(_, r)| (r.answer.upper, Reverse(r.answer.id), r.obj))
            .max()
            .map(|(_, _, obj)| obj)
    }
}

impl Family {
    pub(crate) fn new(probe: Probe, theta: f64, report: Report) -> Family {
        Family {
            probe,
            theta,
            report,
        }
    }

    /// Validates the arguments, then runs the loop on its own (no
    /// cooperative bound).
    pub(crate) fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<NraResult, AlgoError> {
        validate_theta(self.theta)?;
        validate(sources, scoring, k)?;
        Ok(self.run(None, sources, scoring, k))
    }

    /// The loop. `shared` is the cooperative lower bound on the global
    /// k-th grade that shard workers exchange (see [`crate::sharded`]).
    /// Arguments must already be valid (`k ≥ 1`, at least one source,
    /// monotone scoring).
    pub(crate) fn run(
        &self,
        shared: Option<&AtomicThreshold>,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> NraResult {
        let m = sources.len();
        for source in sources.iter_mut() {
            source.rewind();
        }
        // Threshold feeding: under a zero-absorbing combiner (t-norms:
        // combine ≤ min), a sorted entry graded below the k-th best
        // lower bound — or below the shared bound on the global k-th
        // grade — cannot reach the top k, so that grade is a valid
        // per-source [`GradedSource::note_threshold`] hint. Purely
        // physical (a streaming source may stop grading below it; no
        // shipped source listens yet): answers and charges never
        // change. Mean-like combiners never feed.
        let feed = classify_combiner(scoring, m) == CombinerKind::ZeroAbsorbing;
        let (mut bottoms, mut exhausted) = (vec![Score::ONE; m], vec![false; m]);
        let mut seen = Seen::default();
        (seen.m, seen.k) = (m, k);
        let mut round = 0usize;

        loop {
            round += 1;
            // One round of sorted access on every live list.
            let mut progressed = false;
            for i in 0..m {
                if exhausted[i] {
                    continue;
                }
                let Some(so) = sources[i].sorted_next() else {
                    exhausted[i] = true;
                    // A drained list bounds all unseen objects by 0.
                    bottoms[i] = Score::ZERO;
                    continue;
                };
                seen.stats.sorted += 1;
                progressed = true;
                bottoms[i] = so.grade;
                let (obj, new) = seen.number(so.id);
                seen.reveal(obj, i, so.grade, scoring);
                if new && self.probe == Probe::OnSight {
                    // TA probes at the sighting, not at the end of the
                    // round: a later list may stream this same object
                    // in this round, and waiting for it would save the
                    // probe TA charges — a different `stats.random`.
                    seen.resolve(obj, sources, scoring);
                } else if new && seen.missing[obj] > 0 {
                    seen.open.push(obj);
                }
            }

            if let Probe::Every(h) = self.probe {
                if round.is_multiple_of(h) && !seen.open.is_empty() {
                    seen.rank(&bottoms, scoring);
                    if let Some(obj) = seen.most_promising(self.theta) {
                        seen.resolve(obj, sources, scoring);
                    }
                }
            }

            // Mₖ. With no interval open — always, under on-sight
            // probing — the k-th resolved grade is all the halting rule
            // needs: nothing to recompute, nothing to sort.
            let tight = seen.open.is_empty();
            let kth = if tight {
                seen.kth_resolved()
            } else {
                seen.rank(&bottoms, scoring);
                seen.ranked.get(k - 1).map(|r| r.answer.lower)
            };
            if let (Some(shared), Some(kth)) = (shared, kth) {
                // k objects of this shard have true grade ≥ their lower
                // bounds ≥ Mₖ, so the global k-th grade is ≥ Mₖ: a
                // certified bound to share.
                shared.observe(kth);
            }
            let floor = shared.map(AtomicThreshold::get);
            if let (true, Some(bound)) = (feed, floor.or(kth)) {
                for source in sources.iter_mut() {
                    source.note_threshold(bound);
                }
            }

            // An upper bound is dismissed once it cannot beat Mₖ (θ ≤ 0
            // compares `Score`s directly, see `upper_excluded`) — or
            // falls strictly below the shared bound. Strict <: such an
            // object grades below the global k-th answer, so it loses
            // to all k global answers even under tie-breaks, whereas a
            // tie at the boundary might have been admitted.
            let below_floor = |upper: Score| floor.is_some_and(|g| upper < g);
            let dismissed = |r: &Ranked, tau: Score| {
                upper_excluded(r.answer.upper, tau, self.theta) || below_floor(r.answer.upper)
            };
            let unseen = scoring.combine(&bottoms);
            // Nothing unseen can still matter: all streamed, or pruned.
            let idle = !progressed || below_floor(unseen);
            let settled = kth.is_some_and(|tau| {
                let rest = || seen.ranked[k..].iter().all(|r| dismissed(r, tau));
                let collapsed = || seen.ranked[..k].iter().all(|r| r.answer.is_exact());
                (idle || upper_excluded(unseen, tau, self.theta))
                    && (tight || rest() && (self.report != Report::Collapsed || collapsed()))
            });
            if settled || idle {
                if tight {
                    seen.rank(&bottoms, scoring);
                }
                let hopeless = self.report == Report::Collapsed
                    && idle
                    && seen.ranked.iter().all(|r| below_floor(r.answer.upper));
                if hopeless {
                    seen.ranked.clear();
                }
                // A pruned shard that resolves on sight has nothing
                // left to wait for, even short of k answers; the others
                // stream on until their candidates settle. When nothing
                // progressed everything has streamed: bounds are exact.
                if settled || hopeless || !progressed || self.probe == Probe::OnSight {
                    break;
                }
            }
        }

        seen.ranked.truncate(k);
        if self.report == Report::Closed {
            for i in 0..seen.ranked.len() {
                let obj = seen.ranked[i].obj;
                seen.resolve(obj, sources, scoring);
                let exact = seen.exact(obj, scoring);
                (seen.ranked[i].answer.lower, seen.ranked[i].answer.upper) = (exact, exact);
            }
            seen.ranked.sort_unstable_by(by_lower_bound);
        }
        NraResult {
            answers: seen.ranked.iter().map(|r| r.answer).collect(),
            stats: seen.stats,
        }
    }
}
