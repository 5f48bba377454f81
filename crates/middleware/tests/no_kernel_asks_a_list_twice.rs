//! No kernel asks a list for a grade it already holds.
//!
//! The engine memoizes no grades (`DESIGN.md` §18). That is sound as
//! long as every kernel remembers the fields it has seen, so within a
//! query no `(list, object)` is random-accessed twice and none is
//! probed after that list's own sorted access revealed it. This suite
//! makes that a gate: every plan and the CG filter run
//! over recording lists, on the scorings × arities × k grid of
//! `family_charges.rs` over two list shapes. A member that fails is
//! fixed in its own state — the access it repeats is a *charged* one —
//! not by caching under it.
//!
//! A run a [`Cursor`] resumes is one query too: its second batch must
//! not ask for what the first one read, for every plan a cursor takes.
//!
//! The family member with no public name (CA as halted) is held to the
//! same rule beside the kernel, in `algorithms::threshold::tests`.

use std::collections::BTreeSet;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::cg_filter::CgFilter;
use fmdb_middleware::algorithms::{AlgoError, Cursor};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{Oid, SourceError, SourceInfo, Subsystem, VecSource};
use fmdb_middleware::workload::{crisp_plus_fuzzy, independent_uniform};

const N: usize = 400;
const SEED: u64 = 7;

/// A list that remembers every grade it has revealed, by either access
/// kind, and logs each probe for one of them.
struct Recording {
    inner: VecSource,
    revealed: BTreeSet<Oid>,
    repeated: Vec<Oid>,
}

impl Recording {
    fn probed(&mut self, oid: Oid) {
        if !self.revealed.insert(oid) {
            self.repeated.push(oid);
        }
    }
}

impl Subsystem for Recording {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let items = self.inner.sorted_batch(n)?;
        self.revealed.extend(items.iter().map(|item| item.id));
        Ok(items)
    }
    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        oids.iter().for_each(|&oid| self.probed(oid));
        self.inner.random_batch(oids)
    }
    // A rewind forgets nothing: a grade revealed before it is still a
    // grade the kernel was given.
    fn rewind(&mut self) {
        self.inner.rewind();
    }
    fn info(&self) -> SourceInfo {
        self.inner.info()
    }
    // The scalar accesses stay at their defaults, which come through
    // the batches.
}

/// Runs `run` over recording copies of `lists`; `Some(repeats)` — the
/// `(list, oid)` pairs asked for a grade already revealed — unless the
/// algorithm refuses the scoring function.
fn repeats(
    lists: &[VecSource],
    run: impl FnOnce(Vec<&mut dyn Subsystem>) -> Result<(), AlgoError>,
) -> Option<Vec<(usize, Oid)>> {
    let mut recording: Vec<Recording> = lists
        .iter()
        .map(|inner| Recording {
            inner: inner.clone(),
            revealed: BTreeSet::new(),
            repeated: Vec::new(),
        })
        .collect();
    let refs = recording
        .iter_mut()
        .map(|list| list as &mut dyn Subsystem)
        .collect();
    match run(refs) {
        Ok(()) => {}
        Err(AlgoError::UnsupportedScoring { .. }) => return None,
        Err(other) => panic!("run failed: {other}"),
    }
    let per_list = recording.iter().zip(0..);
    Some(
        per_list
            .flat_map(|(list, i)| list.repeated.iter().map(move |&oid| (i, oid)))
            .collect(),
    )
}

/// Every plan a cursor takes, under the names of `family_charges.rs`.
fn plans() -> Vec<(&'static str, PhysicalPlan, f64)> {
    vec![
        ("fa", PhysicalPlan::Fa, 0.0),
        (
            "pruned-fa",
            PhysicalPlan::PrunedFa {
                short_circuit: true,
            },
            0.0,
        ),
        (
            "pruned-fa(no-short-circuit)",
            PhysicalPlan::PrunedFa {
                short_circuit: false,
            },
            0.0,
        ),
        ("ta", PhysicalPlan::Ta, 0.0),
        ("approx-ta(0.1)", PhysicalPlan::ApproxTa, 0.1),
        ("nra", PhysicalPlan::Nra, 0.0),
        ("approx-nra(0.1)", PhysicalPlan::ApproxNra, 0.1),
        ("ca(h=1)", PhysicalPlan::Ca { h: 1 }, 0.0),
        ("ca(h=3)", PhysicalPlan::Ca { h: 3 }, 0.0),
        ("ca(h=10)", PhysicalPlan::Ca { h: 10 }, 0.0),
        ("approx-ca(h=3, 0.1)", PhysicalPlan::Ca { h: 3 }, 0.1),
        ("max-merge", PhysicalPlan::MaxMerge, 0.0),
        ("naive", PhysicalPlan::FullScan, 0.0),
    ]
}

#[test]
fn no_kernel_asks_a_list_twice() {
    let scorings: [&dyn ScoringFunction; 3] = [&Min, &ArithmeticMean, &ConormScoring(Max)];
    let plans = plans();
    let mut ran = BTreeSet::new();
    let mut resumed_ran = BTreeSet::new();
    for m in [2usize, 3] {
        for (shape, lists) in [
            ("uniform", independent_uniform(N, m, SEED)),
            ("crisp+fuzzy", crisp_plus_fuzzy(N, m, 0.1, SEED)),
        ] {
            for scoring in scorings {
                for k in [1usize, 10] {
                    let at = format!("{shape} m={m} {} k={k}", scoring.name());
                    for &(name, plan, theta) in &plans {
                        let got = repeats(&lists, |mut refs| {
                            Cursor::once(plan, theta, &mut refs, scoring, k).map(drop)
                        });
                        if let Some(repeated) = got {
                            assert_eq!(repeated, [], "{name} on {at}");
                            ran.insert(name);
                        }
                    }
                    let cg = repeats(&lists, |mut refs| {
                        CgFilter::default().run(&mut refs, scoring, k).map(drop)
                    });
                    if let Some(repeated) = cg {
                        assert_eq!(repeated, [], "cg-filter on {at}");
                        ran.insert("cg-filter");
                    }
                    // Resumed: the second batch must not probe what the
                    // first one read.
                    for &(name, plan, theta) in &plans {
                        let resumed = repeats(&lists, |mut refs| {
                            let mut cursor = Cursor::new(plan, theta)?;
                            cursor.next_k(&mut refs, scoring, k)?;
                            cursor.next_k(&mut refs, scoring, k).map(drop)
                        });
                        if name == "fa" {
                            assert_eq!(resumed, Some(Vec::new()), "fa cursor on {at}");
                        }
                        if let Some(repeated) = resumed {
                            assert_eq!(repeated, [], "{name} cursor on {at}");
                            resumed_ran.insert(name);
                        }
                    }
                }
            }
        }
    }
    // Refusing a scoring function is fine; never running is not.
    let mut names: BTreeSet<_> = plans.iter().map(|(name, ..)| *name).collect();
    assert_eq!(resumed_ran, names);
    names.insert("cg-filter");
    assert_eq!(ran, names);
}
