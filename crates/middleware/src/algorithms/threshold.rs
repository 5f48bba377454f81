//! The threshold kernel: the one loop behind TA, NRA, CA and their
//! θ-approximations.
//!
//! Fagin–Lotem–Naor ("Optimal Aggregation Algorithms for Middleware")
//! present the family as a single algorithm. Every round does one
//! sorted access per live list and keeps, for each seen object, the
//! interval `[lower, upper]` its overall grade must lie in: unknown
//! fields count as 0 below and as the list's last streamed grade (its
//! *bottom*) above. Unseen objects are bounded by `t(bottoms)`. The run
//! halts once the k-th best lower bound `Mₖ` dismisses every other
//! upper bound, `upper ≤ (1 + θ)·Mₖ`. Members differ only in the
//! quantities of [`Family`]; the table in [`crate::algorithms`] maps
//! each public name to them.
//!
//! # Bookkeeping
//!
//! Which list has revealed which field, the bottoms and the charges are
//! the [`Book`]'s; this module keeps the ranking over its rows. Between
//! two rounds only the bottoms move (FLN §8), so a round costs
//! `O(m + 1)` calls of `t`, not one per open object:
//!
//! * **Lower bounds are maintained.** A lower bound changes only when
//!   one of the object's own fields is revealed — at most `m` objects a
//!   round. The best `k` of *all* seen objects, open and resolved
//!   alike, sit in one ordered set in answer order; `Mₖ` is its last
//!   key, and one comparison against that key rejects a newcomer.
//! * **Upper bounds are looked at only when they block the halt.** Open
//!   objects not yet dismissed wait in a plain list. The halting test
//!   walks it and stops at the first object `Mₖ` cannot dismiss — the
//!   *witness* — which moves to the front, so the next round asks it
//!   first. What the walk does dismiss leaves the list **for good**: `t`
//!   is monotone and the streams non-increasing, so an upper bound only
//!   sinks while `Mₖ` only rises. Debug builds check both facts on every
//!   run.
//! * **Dismissed is not dead.** A dismissed object keeps its lower
//!   bound current and may still enter the top k — under θ > 0 because
//!   `upper ≤ (1 + θ)·Mₖ` leaves room for `lower > Mₖ`, under θ = 0 on
//!   a tie at `Mₖ` with a smaller oid. On entering it returns to the
//!   list: it is a CA target again, and whoever it displaced is
//!   re-examined by the next walk.
//! * **Under `min`, CA's target is kept, not searched for.** Every
//!   `h`-th round CA resolves the open object with the largest upper
//!   bound (ties to the smaller oid) among the top k and the objects `Mₖ`
//!   has not dismissed. A max-heap on stale uppers would not find it:
//!   under `min`, every object seen early in one list shares the upper
//!   bound `min(other bottoms)`, all of them go stale every round, and
//!   each pop-refresh-push cascades through the lot. Grouping the open
//!   objects by the set `S` of lists that revealed them does: an
//!   object's upper bound is `min(key, F_S)`, its *key* the min of its
//!   known grades — constant while its fields stay `S` — and `F_S` the
//!   min of the bottoms outside `S`, which only falls. Once `key ≥ F_S`
//!   the object is *saturated*: its upper bound is `F_S` for as long as
//!   its fields stay `S`, so a class's saturated objects tie and its pick
//!   is their smallest oid; the others rank by key. Two heaps per class
//!   ([`MinTargets`]) give the target in `O(classes + k)` a round plus
//!   amortised heap work, where a scan costs `O(candidates)`. The halt
//!   still reads [`Book::upper`]: the heaps only choose which object is
//!   probed. They are for `min` alone (certified by
//!   [`behaves_like_min`]): under means and products the fills mix with
//!   the known fields inside `combine`, so the order inside a class is
//!   not stable in floating point. Any other function — and any query
//!   over more than [`CLASSED_LISTS`] lists — takes one pass over the
//!   candidate list, which also drops what `Mₖ` dismisses.
//!
//! Under on-sight probing no object is ever open: the list stays empty
//! and a resolved grade costs the one comparison against `Mₖ`.
//!
//! # Resuming
//!
//! [`Family::run`] takes the book it runs on. A cursor hands it the book
//! its earlier batches left, with the rows they returned: the run ranks
//! every other row as if it had just been seen — each open one a
//! candidate again, since a larger `k` may need what a smaller one
//! dismissed — and asks the halting rule before it pulls, so a book that
//! already holds the answer reads nothing. A returned row stays out of
//! the ranking, the candidates and CA's targets. A fresh book has no
//! rows, and the run is the one-shot loop.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use fmdb_core::score::Score;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::approx::{upper_excluded, validate_theta};
use crate::algorithms::book::Book;
use crate::algorithms::nra::{BoundedAnswer, NraResult};
use crate::algorithms::{monotone, validate, AlgoError};
use crate::planner::{behaves_like_min, PhysicalPlan};
use crate::source::{Oid, Subsystem};

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
}

/// One member of the family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Family {
    probe: Probe,
    /// Approximation slack; 0 for the exact algorithms.
    theta: f64,
    report: Report,
}

/// A seen object's place in the ranking of lower bounds. The derived
/// order — fields top to bottom — *is* the answer order of
/// [`NraResult`]: the top-k set is keyed by it and every reported list
/// is read off that set, so there is no second spelling to keep in step.
/// (`obj` follows `id` and never decides: ids are unique.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    lower: Reverse<Score>,
    id: Oid,
    /// The object's row in the book.
    obj: usize,
}

/// What the kernel remembers of one seen object besides its row in the
/// book.
struct Object {
    /// The lower bound as of the last [`Seen::rebound`] — the object's
    /// key while it sits in the top k.
    lower: Score,
    in_top: bool,
    /// Whether `candidates` holds the object.
    listed: bool,
    /// Whether an earlier run on the book returned it: out of the
    /// ranking, never a candidate, never a target.
    returned: bool,
}

/// The ranking the kernel keeps over the book's rows: the best `k`
/// lower bounds, and the open objects still in the way of the halt
/// (module docs, *Bookkeeping*).
#[derive(Default)]
struct Seen {
    k: usize,
    /// Parallel to the book's rows.
    objects: Vec<Object>,
    /// The best `k` seen objects, open or resolved, in answer order. A
    /// resolved object that fails to enter, or is evicted, is below
    /// `Mₖ` for good and is forgotten.
    top: BTreeSet<Key>,
    /// Open objects that are in the top k or not yet dismissed, in no
    /// order but for the halting witness at the front. Objects resolved
    /// since the last walk linger until the next one drops them.
    candidates: Vec<usize>,
    /// CA's targets under `min`; `None` where [`Seen::most_promising`]
    /// scans instead.
    targets: Option<MinTargets>,
}

/// The most lists [`MinTargets`] classes objects over: its table has a
/// cell per subset of them.
const CLASSED_LISTS: usize = 10;

/// Every open object, grouped by which lists have revealed it, so that
/// CA's target under `min` is read off two heaps per group (module docs,
/// *Under `min`, CA's target is kept*).
struct MinTargets {
    /// `1 +` the index in `classes` of each set of lists (a bit mask)
    /// some object has had; 0 for the others.
    by_mask: Vec<u32>,
    classes: Vec<Class>,
}

/// The open objects whose known fields are the lists of `mask`.
struct Class {
    mask: usize,
    /// Fields every member misses. Fields only ever become known, so an
    /// entry whose object misses another number has left the class.
    missing: usize,
    /// Members whose upper bound is their key: best key first, ties to
    /// the smaller oid.
    by_key: BinaryHeap<(Score, Reverse<Oid>, usize)>,
    /// Members whose key has reached the class's fill, each with the
    /// fill as its upper bound: smallest oid first.
    saturated: BinaryHeap<Reverse<(Oid, usize)>>,
}

impl Class {
    /// The min of the bottoms outside the class's lists: every member's
    /// upper bound is its key capped by it.
    fn fill(&self, bottoms: &[Score]) -> Score {
        bottoms
            .iter()
            .enumerate()
            .filter(|&(j, _)| self.mask & 1 << j == 0)
            .fold(Score::ONE, |fill, (_, &bottom)| fill.min(bottom))
    }
}

impl MinTargets {
    fn new(m: usize) -> MinTargets {
        MinTargets {
            by_mask: vec![0; 1 << m],
            classes: Vec::new(),
        }
    }

    /// Files an open object under the lists that have revealed it, after
    /// sorted access revealed one more. Its entry in its old class is
    /// left to [`MinTargets::best`] to drop. Never inlined: the loop it
    /// is called from is TA's too.
    #[inline(never)]
    fn classify(&mut self, obj: usize, book: &Book) {
        let missing = book.table.missing(obj);
        if missing == 0 {
            return;
        }
        let (mut mask, mut key) = (0, Score::ONE);
        for (j, grade) in book.table.fields(obj).iter().enumerate() {
            if let &Some(grade) = grade {
                mask |= 1 << j;
                key = key.min(grade);
            }
        }
        let class = match self.by_mask[mask] {
            0 => {
                self.classes.push(Class {
                    mask,
                    missing,
                    by_key: BinaryHeap::new(),
                    saturated: BinaryHeap::new(),
                });
                self.by_mask[mask] = self.classes.len() as u32;
                self.classes.len() - 1
            }
            tag => tag as usize - 1,
        };
        let class = &mut self.classes[class];
        let id = book.table.oid(obj);
        if key >= class.fill(&book.frontier.bottoms) {
            class.saturated.push(Reverse((id, obj)));
        } else {
            class.by_key.push((key, Reverse(id), obj));
        }
    }

    /// The open object with the largest upper bound under `min`, ties to
    /// the smaller oid, with that bound.
    fn best(&mut self, book: &Book) -> Option<(Score, Reverse<Oid>, usize)> {
        let bottoms = &book.frontier.bottoms;
        let mut best = None;
        for class in &mut self.classes {
            let fill = class.fill(bottoms);
            let missing = class.missing;
            let member = |obj: usize| book.table.missing(obj) == missing;
            while let Some(&(key, Reverse(id), obj)) = class.by_key.peek() {
                if member(obj) && key < fill {
                    break;
                }
                class.by_key.pop();
                if member(obj) {
                    class.saturated.push(Reverse((id, obj)));
                }
            }
            while let Some(&Reverse((_, obj))) = class.saturated.peek() {
                if member(obj) {
                    break;
                }
                class.saturated.pop();
            }
            let pick = match class.saturated.peek() {
                Some(&Reverse((id, obj))) => Some((fill, Reverse(id), obj)),
                None => class.by_key.peek().copied(),
            };
            best = best.max(pick);
        }
        best
    }
}

/// Random-accesses every field `obj` still misses (inlined for the
/// reason `Book::probe` is).
#[inline(always)]
fn resolve(
    book: &mut Book,
    obj: usize,
    sources: &mut [&mut dyn Subsystem],
) -> Result<(), AlgoError> {
    for j in 0..sources.len() {
        if book.table.fields(obj)[j].is_none() {
            book.probe(obj, j, sources)?;
        }
    }
    Ok(())
}

impl Seen {
    /// Ranks the rows a book already holds, as if each had just been
    /// seen: a row of `returned` is left out, every other open row is a
    /// candidate again — a larger `k` may need what a smaller one
    /// dismissed — and is filed for CA's targets. A fresh book has no
    /// rows.
    fn rebuild(&mut self, book: &mut Book, returned: &[bool], scoring: &dyn ScoringFunction) {
        for obj in 0..book.table.len() {
            let returned = returned.get(obj).copied().unwrap_or(false);
            self.objects.push(Object {
                lower: Score::ZERO,
                in_top: false,
                listed: false,
                returned,
            });
            if !returned {
                self.enlist(obj, book);
                self.rebound(obj, book, scoring);
                if let Some(targets) = &mut self.targets {
                    targets.classify(obj, book);
                }
            }
        }
    }

    /// Puts an open object (back) on the candidate list.
    fn enlist(&mut self, obj: usize, book: &Book) {
        let object = &mut self.objects[obj];
        if book.table.missing(obj) > 0 && !object.listed {
            object.listed = true;
            self.candidates.push(obj);
        }
    }

    /// Takes `candidates[at]` off the list, for good unless it enters
    /// the top k later.
    fn drop_candidate(&mut self, at: usize) {
        let obj = self.candidates.swap_remove(at);
        self.objects[obj].listed = false;
    }

    /// Recomputes `obj`'s lower bound after a reveal and re-seats it in
    /// the top k: one comparison against the k-th key rejects it,
    /// otherwise it enters (evicting the k-th) or moves up.
    fn rebound(&mut self, obj: usize, book: &mut Book, scoring: &dyn ScoringFunction) {
        let lower = book.table.bound(obj, |_| Score::ZERO, scoring);
        let was = std::mem::replace(&mut self.objects[obj].lower, lower);
        let id = book.table.oid(obj);
        let key = |lower| Key {
            lower: Reverse(lower),
            id,
            obj,
        };
        if self.objects[obj].in_top {
            if lower != was {
                self.top.remove(&key(was));
                self.top.insert(key(lower));
            }
            return;
        }
        if self.top.len() >= self.k {
            if self.top.last().is_some_and(|kth| *kth < key(lower)) {
                return;
            }
            if let Some(out) = self.top.pop_last() {
                self.objects[out.obj].in_top = false;
            }
        }
        self.top.insert(key(lower));
        self.objects[obj].in_top = true;
        self.enlist(obj, book);
    }

    /// `Mₖ`: the k-th best lower bound, once `k` objects are seen.
    fn kth(&self) -> Option<Score> {
        let kth = self.top.last().filter(|_| self.top.len() >= self.k)?;
        Some(kth.lower.0)
    }

    /// Whether every open object outside the top k is `dismissed`.
    /// Stops at the first that is not — the witness — and moves it to
    /// the front for the next call; whatever it passes on the way is
    /// dismissed for good and leaves the list.
    fn rest_dismissed(
        &mut self,
        book: &mut Book,
        scoring: &dyn ScoringFunction,
        dismissed: impl Fn(Score) -> bool,
    ) -> bool {
        let mut at = 0;
        while let Some(&obj) = self.candidates.get(at) {
            if book.table.missing(obj) == 0 {
                self.drop_candidate(at);
            } else if self.objects[obj].in_top {
                at += 1;
            } else if dismissed(book.upper(obj, scoring)) {
                self.drop_candidate(at);
            } else {
                self.candidates.swap(0, at);
                return false;
            }
        }
        true
    }

    /// CA's probe target: the open object with the largest upper bound
    /// (ties to the smaller oid) among those in the top k or not
    /// dismissed by `Mₖ` — resolving anything else cannot change the
    /// answer set. One pass over the candidates; what `Mₖ` dismisses on
    /// the way leaves the list as in [`Seen::rest_dismissed`].
    fn most_promising(
        &mut self,
        book: &mut Book,
        scoring: &dyn ScoringFunction,
        theta: f64,
    ) -> Option<usize> {
        let tau = self.kth();
        let mut best = None;
        let mut at = 0;
        while let Some(&obj) = self.candidates.get(at) {
            if book.table.missing(obj) == 0 {
                self.drop_candidate(at);
                continue;
            }
            let upper = book.upper(obj, scoring);
            let live = self.objects[obj].in_top
                || !tau.is_some_and(|tau| upper_excluded(upper, tau, theta));
            if live {
                best = best.max(Some((upper, Reverse(book.table.oid(obj)), obj)));
                at += 1;
            } else {
                self.drop_candidate(at);
            }
        }
        best.map(|(_, _, obj)| obj)
    }

    /// [`Seen::most_promising`]'s target, read off [`MinTargets`]: the
    /// open object with the largest upper bound is the target unless
    /// `Mₖ` dismisses it outside the top k — and then it dismisses every
    /// open object outside the top k, so the target is the best open
    /// member.
    fn kept_target(
        &mut self,
        book: &mut Book,
        scoring: &dyn ScoringFunction,
        theta: f64,
    ) -> Option<usize> {
        let (_, _, best) = self.targets.as_mut()?.best(book)?;
        let tau = self.kth();
        let upper = book.upper(best, scoring);
        if self.objects[best].in_top || !tau.is_some_and(|tau| upper_excluded(upper, tau, theta)) {
            return Some(best);
        }
        let mut best = None;
        for &Key { id, obj, .. } in &self.top {
            if book.table.missing(obj) > 0 {
                best = best.max(Some((book.upper(obj, scoring), Reverse(id), obj)));
            }
        }
        best.map(|(_, _, obj)| obj)
    }

    /// Whether `scoring` is `min` on every open object's upper bound — if
    /// not, [`Seen::kept_target`] may break a tie `scoring` sees and `min`
    /// does not the other way. A scan of everything seen: for the debug
    /// checks only.
    fn min_on_every_upper(&self, book: &mut Book, scoring: &dyn ScoringFunction) -> bool {
        (0..self.objects.len()).all(|obj| {
            book.table.missing(obj) == 0 || book.upper(obj, scoring) == book.upper(obj, &Min)
        })
    }

    /// The top k in answer order, upper bounds fresh.
    fn top_k<'a>(
        &'a self,
        book: &'a mut Book,
        scoring: &'a dyn ScoringFunction,
    ) -> impl Iterator<Item = BoundedAnswer> + 'a {
        self.top.iter().map(move |&Key { lower, id, obj }| {
            let lower = lower.0;
            let upper = if book.table.missing(obj) == 0 {
                lower
            } else {
                book.upper(obj, scoring)
            };
            BoundedAnswer { id, lower, upper }
        })
    }

    /// The open objects outside the top k, dismissed ones included,
    /// each with its fresh upper bound. A scan of everything seen: for
    /// the debug checks only.
    fn open_rest<'a>(
        &'a self,
        book: &'a mut Book,
        scoring: &'a dyn ScoringFunction,
    ) -> impl Iterator<Item = (bool, Score)> + 'a {
        self.objects.iter().enumerate().filter_map(move |(obj, o)| {
            let open = book.table.missing(obj) > 0 && !o.in_top && !o.returned;
            open.then(|| (o.listed, book.upper(obj, scoring)))
        })
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

    /// The member `plan` names, with slack `theta` where the plan takes
    /// one; `None` for a plan outside the family.
    pub(crate) fn of_plan(plan: PhysicalPlan, theta: f64) -> Option<Family> {
        let (probe, theta, report) = match plan {
            PhysicalPlan::Ta => (Probe::OnSight, 0.0, Report::AsHalted),
            PhysicalPlan::ApproxTa => (Probe::OnSight, theta, Report::AsHalted),
            PhysicalPlan::Nra => (Probe::Never, 0.0, Report::AsHalted),
            PhysicalPlan::ApproxNra => (Probe::Never, theta, Report::AsHalted),
            PhysicalPlan::Ca { h } => (Probe::Every(h.max(1)), theta, Report::Closed),
            _ => return None,
        };
        Some(Family::new(probe, theta, report))
    }

    /// Validates the arguments, then runs the loop on a fresh book.
    pub(crate) fn top_k(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<NraResult, AlgoError> {
        validate_theta(self.theta)?;
        validate(sources, k)?;
        monotone(scoring)?;
        self.run(&mut Book::open(sources), &[], sources, scoring, k)
    }

    /// The loop, on `book` as an earlier run on these sources left it,
    /// or fresh: the best `k` objects but the rows `returned` flags. It
    /// asks the halting rule before every round, so a book that already
    /// holds the answer pulls nothing. Arguments must already be valid
    /// (`k ≥ 1`, at least one source, monotone scoring, a valid slack).
    pub(crate) fn run(
        &self,
        book: &mut Book,
        returned: &[bool],
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<NraResult, AlgoError> {
        let m = sources.len();
        let classed = matches!(self.probe, Probe::Every(_))
            && m <= CLASSED_LISTS
            && behaves_like_min(scoring, m);
        let mut seen = Seen {
            k,
            targets: classed.then(|| MinTargets::new(m)),
            ..Seen::default()
        };
        seen.rebuild(book, returned, scoring);
        let mut round = 0usize;
        let mut last_kth = None;
        // Nothing is left unseen: every list has streamed.
        let mut idle = book.frontier.exhausted.iter().all(|&drained| drained);

        loop {
            let kth = seen.kth();
            debug_assert!(
                last_kth <= kth,
                "Mₖ fell from {last_kth:?} to {kth:?}: '{}' is not monotone",
                scoring.name()
            );
            last_kth = kth;

            // An upper bound is dismissed once it cannot beat Mₖ (θ ≤ 0
            // compares `Score`s directly, see `upper_excluded`).
            let dismissed = |upper: Score, tau: Score| upper_excluded(upper, tau, self.theta);
            // The seen are asked only once the unseen are out of the
            // way: until then the candidates just queue up.
            let settled = kth.is_some_and(|tau| {
                (idle || dismissed(scoring.combine(&book.frontier.bottoms), tau))
                    && seen.rest_dismissed(book, scoring, |upper| dismissed(upper, tau))
            });
            // Idle, everything has streamed and the bounds are exact.
            if settled || idle {
                // Dismissals were permanent on the strength of two
                // monotonicity facts; Mₖ's is checked above, this is
                // the uppers': no dismissed object has come back.
                debug_assert!(
                    seen.open_rest(book, scoring)
                        .all(|(listed, upper)| listed
                            || kth.is_some_and(|tau| dismissed(upper, tau))),
                    "a dismissed upper bound rose again: '{}' is not monotone",
                    scoring.name()
                );
                break;
            }

            round += 1;
            // One round of sorted access on every live list.
            let mut progressed = false;
            for i in 0..m {
                let Some((obj, new, news, _)) = book.pull(i, sources)? else {
                    continue;
                };
                progressed = true;
                if new {
                    seen.objects.push(Object {
                        lower: Score::ZERO,
                        in_top: false,
                        listed: false,
                        returned: false,
                    });
                }
                if new && self.probe == Probe::OnSight {
                    // TA probes at the sighting, not at the end of the
                    // round: a later list may stream this same object
                    // in this round, and waiting for it would save the
                    // probe TA charges — a different `stats.random`.
                    // Its lower bound is not looked at before then.
                    resolve(book, obj, sources)?;
                } else if new {
                    seen.enlist(obj, book);
                }
                // Only an old row can have been returned.
                if news && (new || !seen.objects[obj].returned) {
                    seen.rebound(obj, book, scoring);
                    if let Some(targets) = &mut seen.targets {
                        targets.classify(obj, book);
                    }
                }
            }

            idle = !progressed;

            if let Probe::Every(h) = self.probe {
                if round.is_multiple_of(h) {
                    let target = if seen.targets.is_some() {
                        let kept = seen.kept_target(book, scoring, self.theta);
                        // The scan's side effect — dropping candidates
                        // `Mₖ` dismisses — changes no outcome.
                        debug_assert!(
                            kept == seen.most_promising(book, scoring, self.theta)
                                || !seen.min_on_every_upper(book, scoring),
                            "CA's kept target is not the scan's under '{}'",
                            scoring.name()
                        );
                        kept
                    } else {
                        seen.most_promising(book, scoring, self.theta)
                    };
                    if let Some(obj) = target {
                        resolve(book, obj, sources)?;
                        seen.rebound(obj, book, scoring);
                    }
                }
            }
        }

        if self.report == Report::Closed {
            // Members only move up within the set as they resolve, so
            // it still holds the same k objects afterwards, re-ranked
            // on exact grades.
            let members: Vec<usize> = seen.top.iter().map(|key| key.obj).collect();
            for obj in members {
                resolve(book, obj, sources)?;
                seen.rebound(obj, book, scoring);
            }
        }
        Ok(NraResult {
            answers: seen.top_k(book, scoring).collect(),
            stats: book.frontier.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::{Min, Product};

    use super::*;
    use crate::source::{SourceError, VecSource};

    mod full_re_rank {
        //! The parent kernel, kept as the oracle: with any interval open it
        //! recomputes and sorts every open object's interval every round
        //! (twice on a round CA probes). Slow, and obviously right.

        use std::cmp::{Ordering, Reverse};
        use std::collections::{BinaryHeap, HashMap};

        use fmdb_core::score::Score;
        use fmdb_core::scoring::ScoringFunction;

        use super::super::{Family, Probe, Report};
        use crate::algorithms::approx::upper_excluded;
        use crate::algorithms::nra::{BoundedAnswer, NraResult};
        use crate::source::{Oid, Subsystem};
        use crate::stats::AccessStats;

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
            fn reveal(
                &mut self,
                obj: usize,
                j: usize,
                grade: Score,
                scoring: &dyn ScoringFunction,
            ) {
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
                sources: &mut [&mut dyn Subsystem],
                scoring: &dyn ScoringFunction,
            ) {
                for (j, source) in sources.iter_mut().enumerate() {
                    if self.slots[obj * self.m + j].is_none() {
                        let grade = source.random_access(self.ids[obj]).unwrap();
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
            /// [`Family::run`] as it stood before the bookkeeping went
            /// incremental.
            pub(super) fn run_full_re_rank(
                &self,
                sources: &mut [&mut dyn Subsystem],
                scoring: &dyn ScoringFunction,
                k: usize,
            ) -> NraResult {
                let m = sources.len();
                for source in sources.iter_mut() {
                    source.rewind();
                }
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
                        let Some(so) = sources[i].sorted_next().unwrap() else {
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

                    // An upper bound is dismissed once it cannot beat Mₖ (θ ≤ 0
                    // compares `Score`s directly, see `upper_excluded`).
                    let dismissed =
                        |r: &Ranked, tau: Score| upper_excluded(r.answer.upper, tau, self.theta);
                    let unseen = scoring.combine(&bottoms);
                    // Nothing is left unseen: every list has streamed.
                    let idle = !progressed;
                    let settled = kth.is_some_and(|tau| {
                        let rest = || seen.ranked[k..].iter().all(|r| dismissed(r, tau));
                        (idle || upper_excluded(unseen, tau, self.theta)) && (tight || rest())
                    });
                    if settled || idle {
                        if tight {
                            seen.rank(&bottoms, scoring);
                        }
                        break;
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
    }

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Uniform,
        FiveLevelTies,
        MostlyZeros,
        Correlated,
        AntiCorrelated,
    }

    fn lists(shape: Shape, n: usize, m: usize, seed: u64) -> Vec<VecSource> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        (0..m)
            .map(|i| {
                let grades: Vec<Score> = base
                    .iter()
                    .map(|&b| {
                        let u: f64 = rng.gen();
                        Score::clamped(match shape {
                            Shape::Uniform => u,
                            Shape::FiveLevelTies => (u * 5.0).floor() / 4.0,
                            Shape::MostlyZeros if u < 0.9 => 0.0,
                            Shape::MostlyZeros => rng.gen(),
                            Shape::Correlated => 0.8 * b + 0.2 * u,
                            Shape::AntiCorrelated if i % 2 == 0 => 0.8 * b + 0.2 * u,
                            Shape::AntiCorrelated => 0.8 * (1.0 - b) + 0.2 * u,
                        })
                    })
                    .collect();
                VecSource::from_dense(format!("list-{i}"), &grades)
            })
            .collect()
    }

    /// The members `algorithms/mod.rs` tabulates — and CA *as halted*,
    /// which has no public name but shows which objects the schedule
    /// probed: the closing pass of `Report::Closed` probes whatever it
    /// skipped.
    fn members() -> Vec<Family> {
        let mut members = Vec::new();
        for theta in [0.0, 0.1, 0.5] {
            // θ = 0: TA, NRA, exact CA; θ > 0: their approximations.
            members.push(Family::new(Probe::OnSight, theta, Report::AsHalted));
            members.push(Family::new(Probe::Never, theta, Report::AsHalted));
            for h in [1, 3, 10] {
                for report in [Report::Closed, Report::AsHalted] {
                    members.push(Family::new(Probe::Every(h), theta, report));
                }
            }
        }
        members
    }

    /// One kernel's whole observable outcome.
    fn outcome(
        lazy: bool,
        family: Family,
        lists: &[VecSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> NraResult {
        let mut lists = lists.to_vec();
        let mut refs: Vec<&mut dyn Subsystem> =
            lists.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
        if lazy {
            family.top_k(&mut refs, scoring, k).unwrap()
        } else {
            family.run_full_re_rank(&mut refs, scoring, k)
        }
    }

    const SHAPES: [Shape; 5] = [
        Shape::Uniform,
        Shape::FiveLevelTies,
        Shape::MostlyZeros,
        Shape::Correlated,
        Shape::AntiCorrelated,
    ];

    fn assert_same_outcome(
        member: Family,
        shape: Shape,
        lists: &[VecSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) {
        assert_eq!(
            outcome(true, member, lists, scoring, k),
            outcome(false, member, lists, scoring, k),
            "{shape:?} m={} N={} {} k={k} {member:?}",
            lists.len(),
            lists[0].info().universe_size,
            scoring.name()
        );
    }

    #[test]
    fn lazy_bookkeeping_matches_the_full_re_rank() {
        let scorings: [&dyn ScoringFunction; 3] = [&Min, &ArithmeticMean, &Product];
        let members = members();
        // The full grid is 28 800 cases; every STRIDE-th runs. STRIDE is
        // coprime to every axis length, so each value of each axis — and
        // each pair of values of two axes — still meets the others.
        const STRIDE: usize = 11;
        let mut case = 0usize;
        for shape in SHAPES {
            for m in 1..=4 {
                for n in [1, 7, 60, 300] {
                    let lists = lists(shape, n, m, (case as u64) ^ 0x5eed);
                    for scoring in scorings {
                        for k in [1, 3, 10, 64, 500] {
                            for &member in &members {
                                case += 1;
                                if case.is_multiple_of(STRIDE) {
                                    assert_same_outcome(member, shape, &lists, scoring, k);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(case, 28_800);
    }

    /// Module docs, *Under `min`, CA's target is kept*: the heaps pick
    /// what the full re-rank's scan picks, so every CA schedule answers
    /// and charges as it did. Unthinned, with lists that drain (9 600
    /// cases); debug builds also compare the kept target with
    /// [`Seen::most_promising`] in every probing round.
    #[test]
    fn kept_targets_match_the_full_re_rank_under_min() {
        let mut case = 0usize;
        for shape in SHAPES {
            for m in 1..=5 {
                for n in [1, 7, 60, 300] {
                    let lists = lists(shape, n, m, (case as u64) ^ 0x313);
                    for k in [1, 3, 10, 64] {
                        for h in [1, 2, 3, 10] {
                            for theta in [0.0, 0.1, 0.5] {
                                for report in [Report::Closed, Report::AsHalted] {
                                    let ca = Family::new(Probe::Every(h), theta, report);
                                    assert_same_outcome(ca, shape, &lists, &Min, k);
                                    case += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(case, 9_600);
    }

    /// A list that counts probes for a grade it had already revealed,
    /// by either access kind.
    struct Recording {
        inner: VecSource,
        revealed: std::collections::BTreeSet<Oid>,
        repeated: usize,
    }

    impl Subsystem for Recording {
        fn sorted_batch(
            &mut self,
            n: usize,
        ) -> Result<Vec<fmdb_core::score::ScoredObject<Oid>>, SourceError> {
            let items = self.inner.sorted_batch(n)?;
            self.revealed.extend(items.iter().map(|item| item.id));
            Ok(items)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            for &oid in oids {
                self.repeated += usize::from(!self.revealed.insert(oid));
            }
            self.inner.random_batch(oids)
        }
        fn rewind(&mut self) {
            self.inner.rewind();
        }
        fn info(&self) -> crate::source::SourceInfo {
            self.inner.info()
        }
    }

    /// `tests/no_kernel_asks_a_list_twice.rs` for the member it cannot
    /// name — CA as halted — and, since they come with [`members`], the
    /// public ones again.
    #[test]
    fn no_member_asks_a_list_twice() {
        let scorings: [&dyn ScoringFunction; 2] = [&Min, &ArithmeticMean];
        for shape in SHAPES {
            for m in 2..=3 {
                let lists = lists(shape, 300, m, 7);
                for scoring in scorings {
                    for k in [1, 10] {
                        for family in members() {
                            let mut recording: Vec<Recording> = lists
                                .iter()
                                .map(|inner| Recording {
                                    inner: inner.clone(),
                                    revealed: Default::default(),
                                    repeated: 0,
                                })
                                .collect();
                            let mut refs: Vec<&mut dyn Subsystem> = recording
                                .iter_mut()
                                .map(|s| s as &mut dyn Subsystem)
                                .collect();
                            family.top_k(&mut refs, scoring, k).unwrap();
                            let repeated: usize = recording.iter().map(|r| r.repeated).sum();
                            assert_eq!(
                                repeated,
                                0,
                                "{shape:?} m={m} {} k={k} {family:?}",
                                scoring.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Module docs, *Dismissed is not dead*: an object the walk dropped
    /// enters the top k and must be a CA target again. It takes slack,
    /// a mean and three lists, and shows only in the intervals CA halts
    /// with — too rare for the thinned grid, so small instances over
    /// many seeds (a kernel that skips the re-listing fails on dozens).
    #[test]
    fn a_dismissed_object_entering_the_top_k_is_a_target_again() {
        for seed in 0..24 {
            for shape in SHAPES {
                for (m, n) in [(3, 7), (3, 20), (4, 20), (4, 60)] {
                    let lists = lists(shape, n, m, seed);
                    for k in [1, 3, 10] {
                        for h in [1, 2, 3] {
                            let ca = Family::new(Probe::Every(h), 0.5, Report::AsHalted);
                            assert_same_outcome(ca, shape, &lists, &ArithmeticMean, k);
                        }
                    }
                }
            }
        }
    }

    /// `min`, with every grade in (0.3, 0.45) read as 0.3: monotone,
    /// and `min` on every point of [`behaves_like_min`]'s grid, so CA
    /// keeps its targets as under `min` while the ties it breaks differ.
    struct MinOffTheGrid;

    impl ScoringFunction for MinOffTheGrid {
        fn name(&self) -> String {
            "min off the grid".to_owned()
        }

        fn combine(&self, scores: &[Score]) -> Score {
            let min = Min.combine(scores);
            if min.value() > 0.3 && min.value() < 0.45 {
                Score::clamped(0.3)
            } else {
                min
            }
        }

        fn is_strict(&self) -> bool {
            true
        }
    }

    /// A function that passes the grid but is not `min` only moves which
    /// object CA probes: the answers stay exact, and no probe repeats.
    #[test]
    fn a_function_that_is_min_only_on_the_grid_still_answers_exactly() {
        let grades = [0.4, 0.35].map(Score::clamped);
        assert_ne!(MinOffTheGrid.combine(&grades), Min.combine(&grades));
        for shape in SHAPES {
            for m in 2..=4 {
                assert!(behaves_like_min(&MinOffTheGrid, m));
                let lists = lists(shape, 300, m, 11);
                for k in [1, 10] {
                    for h in [1, 3, 10] {
                        let ca = Family::new(Probe::Every(h), 0.0, Report::Closed);
                        let mut recording: Vec<Recording> = lists
                            .iter()
                            .map(|inner| Recording {
                                inner: inner.clone(),
                                revealed: Default::default(),
                                repeated: 0,
                            })
                            .collect();
                        let mut refs: Vec<&mut dyn Subsystem> = recording
                            .iter_mut()
                            .map(|s| s as &mut dyn Subsystem)
                            .collect();
                        let result = ca.top_k(&mut refs, &MinOffTheGrid, k).unwrap();
                        let case = format!("{shape:?} m={m} k={k} h={h}");
                        let repeated: usize = recording.iter().map(|r| r.repeated).sum();
                        assert_eq!(repeated, 0, "{case}");
                        let answers: Vec<_> = result
                            .answers
                            .iter()
                            .map(|a| fmdb_core::score::ScoredObject::new(a.id, a.lower))
                            .collect();
                        let mut lists = lists.clone();
                        let mut refs: Vec<&mut dyn crate::source::GradedSource> = lists
                            .iter_mut()
                            .map(|s| s as &mut dyn crate::source::GradedSource)
                            .collect();
                        let verdict =
                            crate::oracle::verify_top_k(&mut refs, &MinOffTheGrid, &answers, k);
                        assert_eq!(verdict, Ok(()), "{case}");
                    }
                }
            }
        }
    }

    /// The mean, docked a fifth once no field is 0: filling in an
    /// object's last unknown field can *lower* its grade, and the
    /// trait's default `is_monotone() == true` is left standing.
    struct Liar;

    impl ScoringFunction for Liar {
        fn name(&self) -> String {
            "liar".to_owned()
        }

        fn combine(&self, scores: &[Score]) -> Score {
            let mean = ArithmeticMean.combine(scores).value();
            let complete = scores.iter().all(|&g| g > Score::ZERO);
            Score::clamped(if complete { 0.8 * mean } else { mean })
        }

        fn is_strict(&self) -> bool {
            false
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "'liar' is not monotone")]
    fn a_scoring_function_that_lies_about_monotonicity_fails_loudly() {
        let nra = Family::new(Probe::Never, 0.0, Report::AsHalted);
        outcome(true, nra, &lists(Shape::AntiCorrelated, 60, 4, 1), &Liar, 3);
    }
}
