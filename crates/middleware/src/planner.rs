//! The unified cost-based planner (§4.2).
//!
//! "In order to use an optimizer, we need to understand the cost of
//! applying various operators over various data in various
//! repositories." This module is that understanding, in one place:
//! a [`PhysicalPlan`] enum naming every strategy the workspace can
//! execute, cost formulas pricing each of them through the caller's
//! [`CostModel`], and one [`choose_plan`] entry point with exactly two
//! callers — `Engine::run` resolving a policy that names no plan, and the
//! Garlic planner's `optimize`, which adds the crisp structure — so
//! the Garlic layer plans, classifies, prices and labels in this
//! module's terms and owns no planning noun of its own.
//!
//! ## The cost model
//!
//! All formulas work from per-source equi-depth grade histograms
//! ([`crate::stats::SourceStats`]) and the independence assumption.
//! Write `F̄_i(g)` for source `i`'s fraction of grades ≥ `g`, `n` for
//! the universe size, `m` for the number of sources, and `y_k` for the
//! estimated k-th best overall grade (found by bisection on the
//! expected number of objects graded ≥ `g`). Three derived quantities
//! drive everything:
//!
//! * `d_i = n_i · F̄_i(y_k)` — sorted depth at which list `i` falls to
//!   `y_k`;
//! * `d_FA` — the depth at which `k` objects are expected in *all*
//!   prefixes (`n·Π d_i(d)/n_i = k`), Theorem 4.1's `N^{(m−1)/m}
//!   k^{1/m}` under uniform grades;
//! * `U(d) = n · (1 − Π (1 − d/n_i))` — distinct objects expected in
//!   the union of all `m` prefixes of depth `d`.
//!
//! | plan          | sorted accesses       | random accesses            |
//! |---------------|-----------------------|----------------------------|
//! | FA (A₀)       | `m·d_FA`              | `m·U(d_FA) − m·d_FA`       |
//! | TA            | `m·d_TA`              | `(m−1)·U(d_TA)`            |
//! | NRA           | `m·1.2·max(d_FA,d_TA)`| 0                          |
//! | CA(h)         | like NRA              | `0.75·(m−1)·d/h`           |
//! | θ-approx TA/NRA | same with `y_k/(1+θ)` | same with `y_k/(1+θ)`    |
//! | crisp filter  | `Σ_crisp (s+1)`       | `s · #fuzzy`               |
//! | max-merge     | `m·k`                 | 0                          |
//! | full scan     | `Σ n_i`               | 0                          |
//!
//! with `d_TA = min_i d_i` for zero-absorbing combiners (the threshold
//! `τ = min_i bottom_i` falls to `y_k` as soon as the fastest-decaying
//! list does) and `max_i d_i` for max-like ones. The NRA depth factor
//! (1.2) and the CA random factor (0.75) are fitted against measured
//! runs on independent-uniform instances; the proptest regret suite
//! keeps them honest.
//!
//! ## Preference order
//!
//! Estimated costs tie (exactly, under `total_cmp`) more often than
//! one would expect — crisp data produces identical depths. Ties are
//! broken by a fixed preference order chosen for answer quality:
//! crisp-filter, max-merge, TA, NRA, CA, FA, θ-TA, θ-NRA, full-scan.
//! TA precedes NRA because TA reports true grades while NRA's are
//! certified lower bounds; a caller that needs exact grades even at a
//! cost premium sets [`PlanQuery::exact_grades`], which removes the
//! NRA-family from the candidate set entirely (the Garlic facade does
//! this — its `QueryResult` grades are user-facing).

use std::cell::OnceCell;
use std::fmt;

use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;

use crate::algorithms::AlgoError;
use crate::policy::ExecPolicy;
use crate::source::Subsystem;
use crate::stats::{CostModel, SourceStats};

#[doc(hidden)]
pub use crate::frozen::plan_algorithm;

/// NRA runs deeper than FA's phase-1 depth before its bounds certify
/// the answer; fitted against measured NRA sorted counts (1.03–1.4×
/// across n ∈ [300, 2000], m ∈ [2, 4]).
const NRA_DEPTH_FACTOR: f64 = 1.2;

/// CA performs one random-access round every `h` sorted rounds, but
/// skips objects already resolved; fitted against measured CA runs.
const CA_RANDOM_FACTOR: f64 = 0.75;

/// Every physical top-k strategy the workspace can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// Fagin's A₀ (§4.1).
    Fa,
    /// The Threshold Algorithm.
    Ta,
    /// No-random-access; reported grades are certified lower bounds.
    Nra,
    /// The Combined Algorithm with interleave depth `h`.
    Ca {
        /// One random-access round per `h` sorted rounds.
        h: usize,
    },
    /// θ-approximate TA.
    ApproxTa,
    /// θ-approximate NRA.
    ApproxNra,
    /// Resolve crisp conjuncts to a match set, then random-access only
    /// the survivors' fuzzy grades (§4.1's Beatles strategy).
    CrispFilter,
    /// Sorted-only merge for max-like combiners (`m·k` accesses).
    MaxMerge,
    /// Drain every source; reference semantics, always applicable.
    FullScan,
}

impl PhysicalPlan {
    /// The kebab-case display name (matches the algorithm names where
    /// a middleware algorithm implements the plan).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::Fa => "fagin-a0",
            PhysicalPlan::Ta => "threshold-ta",
            PhysicalPlan::Nra => "nra-lower-bound",
            PhysicalPlan::Ca { .. } => "combined-ca",
            PhysicalPlan::ApproxTa => "approx-ta",
            PhysicalPlan::ApproxNra => "approx-nra",
            PhysicalPlan::CrispFilter => "crisp-filter",
            PhysicalPlan::MaxMerge => "max-merge",
            PhysicalPlan::FullScan => "full-scan",
        }
    }

    /// The plan that runs when a caller names this one under slack
    /// `theta` — the one rule the policy, the engine and the cursor
    /// apply. θ must be finite and ≥ 0. At θ = 0 every plan is itself.
    /// Under θ > 0, TA and NRA run their θ-approximations, and A₀ —
    /// which has none — is refused. Every other plan runs as named: CA
    /// and the approximations take θ themselves, and the max merge,
    /// the scan and the crisp filter return exact answers anyway.
    pub(crate) fn under(self, theta: f64) -> Result<PhysicalPlan, AlgoError> {
        validate_theta(theta)?;
        Ok(match self {
            plan if theta <= 0.0 => plan,
            PhysicalPlan::Fa => {
                return Err(AlgoError::InvalidRequest(
                    "θ-approximation is not defined for Fagin's A₀; name TA, NRA, CA or no plan"
                        .to_owned(),
                ));
            }
            PhysicalPlan::Ta => PhysicalPlan::ApproxTa,
            PhysicalPlan::Nra => PhysicalPlan::ApproxNra,
            plan => plan,
        })
    }

    /// Position in the deterministic tie-break order (lower wins).
    fn preference(&self) -> u8 {
        match self {
            PhysicalPlan::CrispFilter => 0,
            PhysicalPlan::MaxMerge => 1,
            PhysicalPlan::Ta => 2,
            PhysicalPlan::Nra => 3,
            PhysicalPlan::Ca { .. } => 4,
            PhysicalPlan::Fa => 5,
            PhysicalPlan::ApproxTa => 6,
            PhysicalPlan::ApproxNra => 7,
            PhysicalPlan::FullScan => 8,
        }
    }
}

/// Rejects a negative or non-finite slack θ: the one check of θ.
pub(crate) fn validate_theta(theta: f64) -> Result<(), AlgoError> {
    if theta.is_finite() && theta >= 0.0 {
        Ok(())
    } else {
        Err(AlgoError::InvalidRequest(format!(
            "approximation slack θ must be finite and ≥ 0, got {theta}"
        )))
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the query's combiner behaves, as far as cost estimation cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombinerKind {
    /// One zero argument forces the overall grade to zero (t-norms:
    /// min, product, …) — the common conjunction case.
    #[default]
    ZeroAbsorbing,
    /// The overall grade is (close to) the maximum argument (co-norms)
    /// — sorted-only merging applies.
    MaxLike,
    /// Anything else (means, exotic monotone combiners); priced like a
    /// conjunction, conservatively.
    Other,
}

/// Whether `holds(t(x), x)` at every grid point `x` that grades one
/// argument `one` and all the others `rest`, for each `(one, rest)` of
/// `points` and each position of the odd one out. A user-supplied
/// function cannot be introspected symbolically, so — like Garlic,
/// which had to "somehow guarantee monotonicity" (§4.2) — whoever
/// depends on an algebraic property of `t` probes it numerically here
/// before committing. A probe proves nothing; it reliably tells the
/// shipped functions apart.
fn holds_on_grid(
    scoring: &dyn ScoringFunction,
    arity: usize,
    points: impl IntoIterator<Item = (f64, f64)>,
    holds: impl Fn(Score, &[Score]) -> bool,
) -> bool {
    let mut args = vec![Score::ZERO; arity];
    points.into_iter().all(|(one, rest)| {
        (0..arity).all(|pos| {
            args.fill(Score::clamped(rest));
            args[pos] = Score::clamped(one);
            holds(scoring.combine(&args), &args)
        })
    })
}

/// `t(x) = max(x)`, to rounding.
fn equals_max(t: Score, args: &[Score]) -> bool {
    t.approx_eq(args.iter().copied().fold(Score::ZERO, Score::max), 1e-9)
}

/// Classifies a scoring function for cost estimation. The engine
/// (request scorings) and the Garlic planner (query combiners) both
/// classify through here.
pub fn classify_combiner(scoring: &dyn ScoringFunction, arity: usize) -> CombinerKind {
    let m = arity.max(1);
    let samples = [0.15f64, 0.5, 0.85, 1.0];
    // Zero-absorbing: any single zero argument annihilates.
    let zero_one = samples.map(|s| (0.0, s));
    // Max-like: the combination equals the max argument on the grid.
    let high_one = samples
        .iter()
        .flat_map(|&hi| samples.iter().map(move |&lo| (hi, lo)))
        .filter(|&(hi, lo)| lo <= hi);
    if holds_on_grid(scoring, m, zero_one, |t, _| t <= Score::ZERO) {
        CombinerKind::ZeroAbsorbing
    } else if holds_on_grid(scoring, m, high_one, equals_max) {
        CombinerKind::MaxLike
    } else {
        CombinerKind::Other
    }
}

/// Whether `scoring` is max, as [`crate::algorithms::max_merge`] needs
/// it: one argument high, the rest at half of it. Stricter than
/// [`CombinerKind::MaxLike`] on nothing shipped, but not the same
/// question: at arity 1 every mean and t-norm *is* max.
pub(crate) fn behaves_like_max(scoring: &dyn ScoringFunction, arity: usize) -> bool {
    let points = [0.0, 0.3, 0.5, 0.8, 1.0].map(|hi| (hi, hi * 0.5));
    holds_on_grid(scoring, arity, points, equals_max)
}

/// Whether `scoring` is min, bit for bit, as CA's kept targets in
/// [`crate::algorithms::threshold`] need it: every pair of grid grades,
/// one argument against the rest. It decides only which object CA
/// probes, never what it answers, so a function that passes here and is
/// not min still answers exactly.
pub(crate) fn behaves_like_min(scoring: &dyn ScoringFunction, arity: usize) -> bool {
    let samples = [0.0, 0.2, 0.5, 0.8, 1.0];
    let points = samples
        .iter()
        .flat_map(|&one| samples.iter().map(move |&rest| (one, rest)));
    holds_on_grid(scoring, arity, points, |t, args| {
        t == args.iter().copied().fold(Score::ONE, Score::min)
    })
}

/// Whether `t ≤ min`: true of every t-norm (`t(x, y) ≤ t(x, 1) = x`),
/// false of every mean — the geometric and harmonic ones included,
/// which absorb zeros and still exceed min (`√(0.2·1) > 0.2`). It is
/// what lets a grade in *one* list bound the overall grade:
/// [`crate::algorithms::cg_filter`]'s filter conditions rest on it.
pub(crate) fn bounded_by_min(scoring: &dyn ScoringFunction, arity: usize) -> bool {
    let samples = [0.0, 0.2, 0.5, 0.8, 1.0];
    // One coordinate low, the rest high — where means visibly exceed
    // min — and the other way round.
    let points = samples
        .iter()
        .flat_map(|&one| samples.iter().map(move |&rest| (one, rest)));
    holds_on_grid(scoring, arity, points, |t, args| {
        let min = args.iter().copied().fold(Score::ONE, Score::min);
        t.value() <= min.value() + 1e-9
    })
}

/// The planner's view of *what* is being asked — enough shape to know
/// which strategies apply and how to price them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanQuery {
    /// Universe size (the paper's `N`).
    pub n: usize,
    /// Number of graded sources (query arity).
    pub m: usize,
    /// Answers requested.
    pub k: usize,
    /// Combiner behavior.
    pub combiner: CombinerKind,
    /// How many of the `m` atoms are crisp predicates.
    pub crisp_count: usize,
    /// Estimated objects surviving the crisp conjuncts (the *smallest*
    /// per-atom match count), when known.
    pub crisp_survivors: Option<u64>,
    /// When set, plans whose reported grades are lower bounds rather
    /// than true grades (NRA, θ-NRA) are excluded from the candidate
    /// set. The Garlic facade sets this: its results are user-facing.
    pub exact_grades: bool,
    /// Expected fraction of sorted entries a full scan can skip via
    /// block-max pruning (zone maps over the embedded corpus, page
    /// bounds in the paged store), in `[0, 1]`. `0` — the default —
    /// prices an unpruned scan; callers with a live skip-rate reading
    /// (e.g. [`crate::stats::AccessStats::pages_skipped`] over pages
    /// touched) feed it back here so FullScan competes fairly against
    /// the threshold family on selective workloads.
    pub expected_skip: f64,
}

impl PlanQuery {
    /// A plain fuzzy top-k over `m` sources — the engine-level shape
    /// (no crisp structure, zero-absorbing combiner, lower-bound
    /// grades acceptable).
    pub fn fuzzy(n: usize, m: usize, k: usize) -> PlanQuery {
        PlanQuery {
            n,
            m: m.max(1),
            k,
            combiner: CombinerKind::ZeroAbsorbing,
            crisp_count: 0,
            crisp_survivors: None,
            exact_grades: false,
            expected_skip: 0.0,
        }
    }

    /// Sets the combiner kind.
    pub fn combiner(mut self, kind: CombinerKind) -> PlanQuery {
        self.combiner = kind;
        self
    }

    /// Declares crisp structure: `count` crisp atoms with at most
    /// `survivors` objects matching all of them.
    pub fn crisp(mut self, count: usize, survivors: u64) -> PlanQuery {
        self.crisp_count = count.min(self.m);
        self.crisp_survivors = Some(survivors);
        self
    }

    /// Requires reported grades to be true grades (excludes the
    /// NRA family from the candidates).
    pub fn exact_grades(mut self) -> PlanQuery {
        self.exact_grades = true;
        self
    }

    /// Declares the expected block-max skip fraction for full scans.
    /// Out-of-range or non-finite values are ignored (the conservative
    /// unpruned price stands).
    pub fn expected_skip(mut self, fraction: f64) -> PlanQuery {
        if fraction.is_finite() && (0.0..=1.0).contains(&fraction) {
            self.expected_skip = fraction;
        }
        self
    }
}

/// Per-query statistics: one [`SourceStats`] per source, in source
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Per-source statistics, aligned with the query's source order.
    pub per_source: Vec<SourceStats>,
}

impl QueryStats {
    /// Wraps per-source stats.
    pub fn new(per_source: Vec<SourceStats>) -> QueryStats {
        QueryStats { per_source }
    }

    /// Gathers statistics from sources, in order, via the
    /// [`Subsystem::caps`] hook — the one place planning
    /// statistics are collected. Returns `None` unless *every* source
    /// can provide a histogram — partial statistics would silently
    /// skew the comparison between plans. Items are anything that
    /// dereferences to a source (`&VecSource`, a lock guard, …), each
    /// dropped before the next is produced.
    pub fn from_sources<S>(sources: impl IntoIterator<Item = S>) -> Option<QueryStats>
    where
        S: std::ops::Deref,
        S::Target: Subsystem,
    {
        sources
            .into_iter()
            .map(|s| {
                s.caps()
                    .histogram(DEFAULT_HISTOGRAM_BINS)
                    .map(SourceStats::new)
            })
            .collect::<Option<Vec<_>>>()
            .map(QueryStats::new)
    }
}

/// What the plan choice was based on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsBasis {
    /// Per-source histograms were available; costs were estimated.
    Histograms {
        /// Number of sources with statistics.
        sources: usize,
    },
    /// No statistics — the documented static fallback picked the plan.
    StaticFallback,
}

/// The planner's decision record: chosen plan, every candidate's
/// estimated charged cost, and the statistics basis. Surfaced by
/// `Engine::explain` and dumped by E16.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The winning plan.
    pub chosen: PhysicalPlan,
    /// All applicable candidates with estimated charged costs,
    /// ascending (the chosen plan is first).
    pub candidates: Vec<(PhysicalPlan, f64)>,
    /// The cost model the estimates were charged under.
    pub cost: CostModel,
    /// Statistics the choice was based on.
    pub basis: StatsBasis,
}

impl Explain {
    /// The chosen plan's estimated charged cost, if estimated.
    pub fn chosen_cost(&self) -> Option<f64> {
        self.candidates.first().map(|(_, c)| *c)
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan {}", self.chosen)?;
        match self.basis {
            StatsBasis::Histograms { sources } => {
                write!(f, " [histograms over {sources} sources]")?
            }
            StatsBasis::StaticFallback => write!(f, " [static fallback, no stats]")?,
        }
        write!(
            f,
            " under c_S={} c_R={}",
            self.cost.sorted_unit, self.cost.random_unit
        )?;
        if !self.candidates.is_empty() {
            write!(f, "; candidates:")?;
            for (plan, cost) in &self.candidates {
                write!(f, " {plan}={cost:.0}")?;
            }
        }
        Ok(())
    }
}

/// Theorem 4.1's closed-form A₀ cost, `N^{(m−1)/m} · k^{1/m}` (the
/// theorem's constant taken as 1), charged half as sorted and half as
/// random access — the stats-free A₀ estimate.
pub fn fa_theorem41_cost(n: usize, m: usize, k: usize, cost: &CostModel) -> f64 {
    let n = n.max(1) as f64;
    let m = m.max(1) as f64;
    let k = (k.max(1) as f64).min(n);
    let accesses = n.powf((m - 1.0) / m) * k.powf(1.0 / m);
    let half = accesses / 2.0;
    half * cost.sorted_unit + half * cost.random_unit
}

/// Sorted/random access counts — an estimate before pricing.
#[derive(Debug, Clone, Copy)]
struct Accesses {
    sorted: f64,
    random: f64,
}

impl Accesses {
    fn charged(&self, cost: &CostModel) -> f64 {
        self.sorted * cost.sorted_unit + self.random * cost.random_unit
    }
}

/// The per-query estimation context: resolves `F̄_i`, `y_k`, depths
/// and union sizes from histograms (or the uniform-grade assumption
/// when a source lacks one). `y_k` and FA's depth are bisections; each
/// runs at most once per estimator, however many plans it prices.
struct Estimator<'a> {
    q: &'a PlanQuery,
    stats: Option<&'a QueryStats>,
    y_k: OnceCell<f64>,
    d_fa: OnceCell<f64>,
}

impl<'a> Estimator<'a> {
    fn new(q: &'a PlanQuery, stats: Option<&'a QueryStats>) -> Estimator<'a> {
        Estimator {
            q,
            stats,
            y_k: OnceCell::new(),
            d_fa: OnceCell::new(),
        }
    }

    /// Estimated charged cost of `plan` under `cost`; see
    /// [`estimate_cost`].
    fn price(&self, plan: PhysicalPlan, cost: &CostModel, theta: f64) -> Option<f64> {
        if self.stats.is_none() && matches!(plan, PhysicalPlan::Fa) {
            return Some(fa_theorem41_cost(self.q.n, self.q.m, self.q.k, cost));
        }
        self.accesses(plan, theta).map(|a| a.charged(cost))
    }

    fn n(&self) -> f64 {
        self.q.n.max(1) as f64
    }

    fn k(&self) -> f64 {
        (self.q.k.max(1) as f64).min(self.n())
    }

    fn universe_of(&self, i: usize) -> f64 {
        self.stats
            .and_then(|s| s.per_source.get(i))
            .map(|s| s.universe().max(1) as f64)
            .unwrap_or_else(|| self.n())
    }

    /// `F̄_i(g)`: fraction of source `i`'s grades ≥ `g`.
    fn fbar(&self, i: usize, g: f64) -> f64 {
        match self.stats.and_then(|s| s.per_source.get(i)) {
            Some(s) => s.histogram.fraction_above(g),
            // Uniform-grade assumption.
            None => (1.0 - g).clamp(0.0, 1.0),
        }
    }

    /// Expected number of objects whose overall grade is ≥ `g`.
    fn expected_count(&self, g: f64) -> f64 {
        let m = self.q.m;
        match self.q.combiner {
            CombinerKind::MaxLike => {
                let mut miss = 1.0;
                for i in 0..m {
                    miss *= 1.0 - self.fbar(i, g).clamp(0.0, 1.0);
                }
                self.n() * (1.0 - miss)
            }
            // Zero-absorbing (and, conservatively, anything else):
            // independence product.
            _ => {
                let mut p = 1.0;
                for i in 0..m {
                    p *= self.fbar(i, g).clamp(0.0, 1.0);
                }
                self.n() * p
            }
        }
    }

    /// The estimated k-th best overall grade: the largest `g` with
    /// `expected_count(g) ≥ k`, by bisection.
    fn y_k(&self) -> f64 {
        *self.y_k.get_or_init(|| self.bisect_y_k())
    }

    fn bisect_y_k(&self) -> f64 {
        if self.expected_count(1.0) >= self.k() {
            return 1.0;
        }
        if self.expected_count(0.0) < self.k() {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if self.expected_count(mid) >= self.k() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Sorted depth at which source `i` falls below grade `y`.
    fn depth(&self, i: usize, y: f64) -> f64 {
        (self.universe_of(i) * self.fbar(i, y)).clamp(1.0, self.universe_of(i))
    }

    /// TA's halt depth for target grade `y`.
    fn d_ta(&self, y: f64) -> f64 {
        let m = self.q.m;
        let mut best = match self.q.combiner {
            CombinerKind::MaxLike => 0.0f64,
            _ => f64::INFINITY,
        };
        for i in 0..m {
            let d = self.depth(i, y);
            best = match self.q.combiner {
                CombinerKind::MaxLike => best.max(d),
                _ => best.min(d),
            };
        }
        if best.is_finite() {
            best.clamp(1.0, self.n())
        } else {
            self.n()
        }
    }

    /// FA's phase-1 depth: `k` objects expected in all `m` prefixes.
    fn d_fa(&self) -> f64 {
        *self.d_fa.get_or_init(|| self.bisect_d_fa())
    }

    fn bisect_d_fa(&self) -> f64 {
        let n = self.n();
        let in_all = |d: f64| {
            let mut p = 1.0;
            for i in 0..self.q.m {
                let u = self.universe_of(i);
                p *= (d.min(u) / u).clamp(0.0, 1.0);
            }
            n * p
        };
        if in_all(n) < self.k() {
            return n;
        }
        let (mut lo, mut hi) = (1.0f64, n);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if in_all(mid) >= self.k() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi.clamp(1.0, n)
    }

    /// Expected distinct objects in the union of all `m` prefixes of
    /// depth `d`.
    fn union_seen(&self, d: f64) -> f64 {
        let mut miss = 1.0;
        for i in 0..self.q.m {
            let u = self.universe_of(i);
            miss *= (1.0 - d.min(u) / u).clamp(0.0, 1.0);
        }
        self.n() * (1.0 - miss)
    }

    /// Access estimate for one plan at slack `theta`; `None` when the
    /// plan does not apply to this query shape.
    fn accesses(&self, plan: PhysicalPlan, theta: f64) -> Option<Accesses> {
        let m = self.q.m as f64;
        let y_exact = self.y_k();
        // θ-approximate variants halt once the threshold falls to
        // (1+θ)·y_k — a *higher* grade, hence a shallower depth.
        let y_approx = if theta > 0.0 {
            (y_exact * (1.0 + theta)).clamp(0.0, 1.0)
        } else {
            y_exact
        };
        match plan {
            PhysicalPlan::Fa => {
                let d = self.d_fa();
                let seen = self.union_seen(d);
                Some(Accesses {
                    sorted: m * d,
                    random: (m * seen - m * d).max(0.0),
                })
            }
            PhysicalPlan::Ta | PhysicalPlan::ApproxTa => {
                let y = if matches!(plan, PhysicalPlan::ApproxTa) {
                    y_approx
                } else {
                    y_exact
                };
                let d = self.d_ta(y);
                Some(Accesses {
                    sorted: m * d,
                    random: (m - 1.0).max(0.0) * self.union_seen(d),
                })
            }
            PhysicalPlan::Nra | PhysicalPlan::ApproxNra => {
                let y = if matches!(plan, PhysicalPlan::ApproxNra) {
                    y_approx
                } else {
                    y_exact
                };
                let d = (NRA_DEPTH_FACTOR * self.d_ta(y).max(self.d_fa())).min(self.n());
                Some(Accesses {
                    sorted: m * d,
                    random: 0.0,
                })
            }
            PhysicalPlan::Ca { h } => {
                let d = (NRA_DEPTH_FACTOR * self.d_ta(y_approx).max(self.d_fa())).min(self.n());
                Some(Accesses {
                    sorted: m * d,
                    random: CA_RANDOM_FACTOR * (m - 1.0).max(0.0) * d / h.max(1) as f64,
                })
            }
            PhysicalPlan::CrispFilter => {
                let s = self.q.crisp_survivors? as f64;
                if self.q.crisp_count == 0
                    || !matches!(self.q.combiner, CombinerKind::ZeroAbsorbing)
                {
                    return None;
                }
                let fuzzy = (self.q.m - self.q.crisp_count) as f64;
                Some(Accesses {
                    sorted: self.q.crisp_count as f64 * (s + 1.0).min(self.n()),
                    random: s * fuzzy,
                })
            }
            PhysicalPlan::MaxMerge => {
                if !matches!(self.q.combiner, CombinerKind::MaxLike) {
                    return None;
                }
                Some(Accesses {
                    sorted: m * self.k(),
                    random: 0.0,
                })
            }
            PhysicalPlan::FullScan => {
                let mut total = 0.0;
                for i in 0..self.q.m {
                    total += self.universe_of(i);
                }
                // Block-max pruning lets a bounded scan skip the
                // fraction of entries the caller measured as provably
                // below its threshold; the unpruned price is the
                // `expected_skip == 0` default.
                Some(Accesses {
                    sorted: total * (1.0 - self.q.expected_skip),
                    random: 0.0,
                })
            }
        }
    }
}

/// Estimated charged cost of `plan` for `query` under `cost`, or
/// `None` when the plan does not apply (e.g. a crisp filter without
/// crisp atoms, a max-merge under a conjunction).
///
/// With `stats == None`, FA uses the Theorem 4.1 closed form
/// ([`fa_theorem41_cost`]); every other plan falls back to the
/// uniform-grade assumption.
pub fn estimate_cost(
    plan: PhysicalPlan,
    query: &PlanQuery,
    stats: Option<&QueryStats>,
    cost: &CostModel,
    theta: f64,
) -> Option<f64> {
    Estimator::new(query, stats).price(plan, cost, theta)
}

/// Picks the cheapest applicable [`PhysicalPlan`] for `query` under
/// `policy`, returning the full decision record.
///
/// With statistics, every applicable strategy is priced through the
/// policy's [`CostModel`] and the cheapest wins (ties broken by the
/// documented preference order). Without statistics the **static
/// fallback** restricts the algorithm-family candidates to one pick:
/// θ > 0 takes the θ-approximate variant, and otherwise NRA when the
/// cost model's interleave depth `⌊c_R/c_S⌋` is ≥ 2, TA when it is
/// not ([`static_plan`]). The fallback never picks FA: E22 measured
/// TA/NRA at or below FA's charged cost across the entire cost-ratio
/// sweep (NRA by orders of magnitude once random access is
/// expensive), and TA is instance-optimal among exact algorithms that
/// use random access — FA's remaining role is explicit selection and
/// the A₀ paper-reproduction experiments. Queries that demand exact
/// grades substitute TA (or CA at h ≥ 2, which also reports true
/// grades) for NRA.
///
/// The *structural* plans — crisp-filter, max-merge, full-scan — stay
/// in the race even without statistics: their estimates come from
/// measured crisp selectivity and plain arithmetic, not from grade
/// histograms, so a selective crisp conjunct or a max-like combiner
/// beats the fallback algorithm whenever its closed form is cheaper.
pub fn choose_plan(query: &PlanQuery, stats: Option<&QueryStats>, policy: &ExecPolicy) -> Explain {
    let theta = policy.theta.max(0.0);
    let approximate = policy.theta > 0.0;
    let h = policy.interleave();

    let mut candidates: Vec<PhysicalPlan> = Vec::new();
    if stats.is_some() {
        if approximate {
            candidates.push(PhysicalPlan::ApproxTa);
            if !query.exact_grades {
                candidates.push(PhysicalPlan::ApproxNra);
            }
        } else {
            candidates.push(PhysicalPlan::Ta);
            if !query.exact_grades {
                candidates.push(PhysicalPlan::Nra);
            }
            candidates.push(PhysicalPlan::Fa);
        }
        if h >= 2 {
            candidates.push(PhysicalPlan::Ca { h });
        }
    } else {
        candidates.push(static_plan(query.exact_grades, approximate, h));
    }
    candidates.push(PhysicalPlan::CrispFilter);
    candidates.push(PhysicalPlan::MaxMerge);
    candidates.push(PhysicalPlan::FullScan);

    // One estimator prices every candidate, so `y_k` and FA's depth
    // are bisected once per query, not once per plan.
    let estimator = Estimator::new(query, stats);
    let mut priced: Vec<(PhysicalPlan, f64)> = candidates
        .into_iter()
        .filter_map(|plan| {
            estimator
                .price(plan, &policy.cost, theta)
                .map(|c| (plan, c))
        })
        .collect();
    priced.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(a.0.preference().cmp(&b.0.preference()))
    });

    let chosen = priced
        .first()
        .map(|(p, _)| *p)
        // Unreachable in practice (FullScan always applies), but the
        // planner must not panic on a degenerate query.
        .unwrap_or(PhysicalPlan::FullScan);
    Explain {
        chosen,
        candidates: priced,
        cost: policy.cost,
        basis: match stats {
            Some(s) => StatsBasis::Histograms {
                sources: s.per_source.len(),
            },
            None => StatsBasis::StaticFallback,
        },
    }
}

/// The documented stats-free fallback (see [`choose_plan`]): the plan
/// [`crate::policy::ExecPolicy::resolve`] gives a policy naming no plan
/// when no statistics are in reach.
pub fn static_plan(exact_grades: bool, approximate: bool, h: usize) -> PhysicalPlan {
    let sorted_only_ok = !exact_grades;
    match (approximate, h >= 2, sorted_only_ok) {
        (true, true, true) => PhysicalPlan::ApproxNra,
        (true, _, _) => PhysicalPlan::ApproxTa,
        (false, true, true) => PhysicalPlan::Nra,
        (false, true, false) => PhysicalPlan::Ca { h },
        (false, false, _) => PhysicalPlan::Ta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::independent_uniform;

    fn uniform_stats(n: usize, m: usize, seed: u64) -> QueryStats {
        let sources = independent_uniform(n, m, seed);
        QueryStats::new(
            sources
                .iter()
                .map(|s| SourceStats::new(s.caps().histogram(16).expect("vec source")))
                .collect(),
        )
    }

    #[test]
    fn one_estimator_prices_every_candidate_as_estimate_cost_does() {
        let costs = [
            CostModel::UNIFORM,
            CostModel::random_to_sorted_ratio(0.5).expect("a positive ratio"),
            CostModel::random_to_sorted_ratio(3.0).expect("a positive ratio"),
            CostModel::random_to_sorted_ratio(100.0).expect("a positive ratio"),
        ];
        let combiners = [
            CombinerKind::ZeroAbsorbing,
            CombinerKind::MaxLike,
            CombinerKind::Other,
        ];
        let mut cases = 0;
        for n in [1usize, 7, 300, 2000] {
            for m in [1usize, 2, 3, 5] {
                let with_stats = uniform_stats(n, m, (n * m) as u64);
                for k in [1usize, 10, 500] {
                    for combiner in combiners {
                        for shape in 0..3 {
                            let q = PlanQuery::fuzzy(n, m, k).combiner(combiner);
                            let q = match shape {
                                0 => q,
                                1 => q.exact_grades(),
                                _ => q.crisp(1, (n / 3) as u64),
                            };
                            for stats in [None, Some(&with_stats)] {
                                for cost in costs {
                                    for theta in [0.0, 0.2] {
                                        let policy =
                                            ExecPolicy::new().cost_model(cost).theta(theta);
                                        let e = choose_plan(&q, stats, &policy);
                                        assert!(!e.candidates.is_empty());
                                        for &(plan, priced) in &e.candidates {
                                            let alone =
                                                estimate_cost(plan, &q, stats, &cost, theta);
                                            assert_eq!(
                                                alone.map(f64::to_bits),
                                                Some(priced.to_bits()),
                                                "{plan:?} on {q:?}, stats: {}, {cost:?}, θ {theta}",
                                                stats.is_some()
                                            );
                                        }
                                        cases += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 4 * 3 * 3 * 3 * 2 * 4 * 2);
    }

    #[test]
    fn uniform_costs_pick_nra_for_plain_fuzzy_queries() {
        // Measured ground truth: NRA's sorted-only cost is roughly
        // half of TA's or FA's under the uniform measure.
        let q = PlanQuery::fuzzy(300, 3, 7);
        let e = choose_plan(&q, Some(&uniform_stats(300, 3, 1)), &ExecPolicy::new());
        assert_eq!(e.chosen, PhysicalPlan::Nra, "{e}");
        assert!(matches!(e.basis, StatsBasis::Histograms { sources: 3 }));
        // All exact candidates were priced.
        let names: Vec<&str> = e.candidates.iter().map(|(p, _)| p.name()).collect();
        for want in ["threshold-ta", "nra-lower-bound", "fagin-a0", "full-scan"] {
            assert!(names.contains(&want), "{names:?}");
        }
    }

    #[test]
    fn exact_grade_queries_exclude_the_nra_family() {
        let q = PlanQuery::fuzzy(300, 3, 7).exact_grades();
        let e = choose_plan(&q, Some(&uniform_stats(300, 3, 1)), &ExecPolicy::new());
        assert!(
            !matches!(e.chosen, PhysicalPlan::Nra | PhysicalPlan::ApproxNra),
            "{e}"
        );
        assert!(e
            .candidates
            .iter()
            .all(|(p, _)| !matches!(p, PhysicalPlan::Nra | PhysicalPlan::ApproxNra)));
    }

    #[test]
    fn estimates_track_measured_costs_within_2x() {
        // The probe runs behind the formulas (see the module docs):
        // measured uniform-cost totals for n=300, m=3, k=7.
        let q = PlanQuery::fuzzy(300, 3, 7);
        let stats = uniform_stats(300, 3, 1);
        let u = CostModel::UNIFORM;
        for (plan, measured) in [
            (PhysicalPlan::Fa, 567.0),
            (PhysicalPlan::Ta, 594.0),
            (PhysicalPlan::Nra, 315.0),
        ] {
            let est = estimate_cost(plan, &q, Some(&stats), &u, 0.0).unwrap();
            assert!(
                est / measured < 2.0 && measured / est < 2.0,
                "{plan}: estimated {est:.0}, measured {measured:.0}"
            );
        }
    }

    #[test]
    fn stats_free_estimates_reproduce_the_paper_formulas() {
        let u = CostModel::UNIFORM;
        let price = |plan, q: &PlanQuery, cost: &CostModel| estimate_cost(plan, q, None, cost, 0.0);
        let q = PlanQuery::fuzzy(10_000, 2, 10);
        // m·N, m·k, and Theorem 4.1's √(N·k) at m = 2.
        assert_eq!(price(PhysicalPlan::FullScan, &q, &u), Some(20_000.0));
        let max = q.clone().combiner(CombinerKind::MaxLike);
        assert_eq!(price(PhysicalPlan::MaxMerge, &max, &u), Some(20.0));
        assert_eq!(price(PhysicalPlan::MaxMerge, &q, &u), None);
        let fa = price(PhysicalPlan::Fa, &q, &u).unwrap();
        assert!((fa - (10_000.0f64 * 10.0).sqrt()).abs() < 1e-9);
        // Crisp filter: (s+1) sorted + s·#fuzzy random; no crisp
        // conjunct → no estimate.
        assert_eq!(price(PhysicalPlan::CrispFilter, &q, &u), None);
        let crisp = |s| price(PhysicalPlan::CrispFilter, &q.clone().crisp(1, s), &u);
        assert_eq!(crisp(50), Some(101.0));
        assert_eq!(crisp(5_000), Some(10_001.0));
        // k is capped by N: m·min(k, N) = 2·5.
        let tiny = PlanQuery::fuzzy(5, 2, 100).combiner(CombinerKind::MaxLike);
        assert_eq!(price(PhysicalPlan::MaxMerge, &tiny, &u), Some(10.0));
        // Pricing changes the winner: expensive random access moves the
        // random-heavy A₀ behind the sorted-only scan.
        let q = PlanQuery::fuzzy(1_000, 2, 10);
        assert!(price(PhysicalPlan::Fa, &q, &u) < price(PhysicalPlan::FullScan, &q, &u));
        let pricey = CostModel::random_to_sorted_ratio(50.0).unwrap();
        assert!(price(PhysicalPlan::Fa, &q, &pricey) > price(PhysicalPlan::FullScan, &q, &pricey));
    }

    #[test]
    fn expected_skip_discounts_full_scans_and_rejects_junk() {
        let stats = uniform_stats(1000, 2, 3);
        let u = CostModel::UNIFORM;
        let base = PlanQuery::fuzzy(1000, 2, 10);
        let full = estimate_cost(PhysicalPlan::FullScan, &base, Some(&stats), &u, 0.0).unwrap();
        let pruned = estimate_cost(
            PhysicalPlan::FullScan,
            &base.clone().expected_skip(0.75),
            Some(&stats),
            &u,
            0.0,
        )
        .unwrap();
        assert!(
            (pruned - full * 0.25).abs() < 1e-9,
            "75% skip should quarter the scan price: {pruned:.1} vs {full:.1}"
        );
        // Threshold plans are unaffected by the scan discount.
        let ta = estimate_cost(PhysicalPlan::Ta, &base, Some(&stats), &u, 0.0).unwrap();
        let ta_skip = estimate_cost(
            PhysicalPlan::Ta,
            &base.clone().expected_skip(0.75),
            Some(&stats),
            &u,
            0.0,
        )
        .unwrap();
        assert_eq!(ta, ta_skip);
        // Out-of-range and non-finite fractions are ignored.
        for junk in [-0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(base.clone().expected_skip(junk).expected_skip, 0.0);
        }
    }

    #[test]
    fn theta_relaxation_cheapens_the_estimate() {
        let q = PlanQuery::fuzzy(1000, 2, 10);
        let stats = uniform_stats(1000, 2, 3);
        let u = CostModel::UNIFORM;
        let exact = estimate_cost(PhysicalPlan::Ta, &q, Some(&stats), &u, 0.0).unwrap();
        let approx = estimate_cost(PhysicalPlan::ApproxTa, &q, Some(&stats), &u, 0.5).unwrap();
        assert!(
            approx < exact,
            "θ-TA ({approx:.0}) should undercut exact TA ({exact:.0})"
        );
    }

    #[test]
    fn crisp_filter_wins_when_selective_loses_when_not() {
        use fmdb_core::score::Score;
        use fmdb_core::stats::GradeHistogram;
        let n = 2000usize;
        let policy = ExecPolicy::new();
        let crisp_hist = |sel: f64| {
            let matches = ((n as f64 * sel) as usize).max(1);
            let mut grades = vec![Score::ONE; matches];
            grades.extend(std::iter::repeat_n(Score::ZERO, n - matches));
            GradeHistogram::from_sorted(&grades, 16)
        };
        let fuzzy_hist = independent_uniform(n, 1, 7)
            .remove(0)
            .caps()
            .histogram(16)
            .unwrap();
        for (sel, expect_crisp) in [(0.005, true), (0.6, false)] {
            let survivors = (n as f64 * sel) as u64;
            let q = PlanQuery::fuzzy(n, 2, 10)
                .crisp(1, survivors.max(1))
                .exact_grades();
            let stats = QueryStats::new(vec![
                SourceStats::new(crisp_hist(sel)),
                SourceStats::new(fuzzy_hist.clone()),
            ]);
            let e = choose_plan(&q, Some(&stats), &policy);
            assert_eq!(
                matches!(e.chosen, PhysicalPlan::CrispFilter),
                expect_crisp,
                "sel={sel}: {e}"
            );
        }
    }

    #[test]
    fn max_like_queries_get_the_merge() {
        let q = PlanQuery::fuzzy(500, 2, 5).combiner(CombinerKind::MaxLike);
        let e = choose_plan(&q, Some(&uniform_stats(500, 2, 2)), &ExecPolicy::new());
        assert_eq!(e.chosen, PhysicalPlan::MaxMerge, "{e}");
    }

    #[test]
    fn static_fallback_is_nra_or_ta_never_fa() {
        let q = PlanQuery::fuzzy(1000, 2, 10);
        let uniform = choose_plan(&q, None, &ExecPolicy::new());
        assert_eq!(uniform.chosen, PhysicalPlan::Ta);
        assert!(matches!(uniform.basis, StatsBasis::StaticFallback));

        let expensive =
            ExecPolicy::new().cost_model(CostModel::random_to_sorted_ratio(10.0).unwrap());
        assert_eq!(choose_plan(&q, None, &expensive).chosen, PhysicalPlan::Nra);

        let exact = PlanQuery::fuzzy(1000, 2, 10).exact_grades();
        assert_eq!(
            choose_plan(&exact, None, &expensive).chosen,
            PhysicalPlan::Ca { h: 10 }
        );

        let theta = ExecPolicy::new().theta(0.2);
        assert_eq!(choose_plan(&q, None, &theta).chosen, PhysicalPlan::ApproxTa);
        let theta_exp = theta.cost_model(CostModel::random_to_sorted_ratio(5.0).unwrap());
        assert_eq!(
            choose_plan(&q, None, &theta_exp).chosen,
            PhysicalPlan::ApproxNra
        );
    }

    #[test]
    fn expensive_random_access_moves_the_stats_choice_off_ta() {
        let q = PlanQuery::fuzzy(1000, 3, 50).exact_grades();
        let stats = uniform_stats(1000, 3, 4);
        let expensive = choose_plan(
            &q,
            Some(&stats),
            &ExecPolicy::new().cost_model(CostModel::random_to_sorted_ratio(30.0).unwrap()),
        );
        // Under expensive random access an exact-grade query shifts to
        // CA (deep interleave), never to a random-heavy plan.
        assert!(
            matches!(expensive.chosen, PhysicalPlan::Ca { .. }),
            "{expensive}"
        );
        let exp_cost = expensive.chosen_cost().unwrap();
        let ta_cost = expensive
            .candidates
            .iter()
            .find(|(p, _)| matches!(p, PhysicalPlan::Ta))
            .map(|(_, c)| *c)
            .unwrap();
        assert!(exp_cost <= ta_cost);
    }

    #[test]
    fn classify_combiner_recognizes_the_shipped_functions() {
        use fmdb_core::scoring::conorms::Max;
        use fmdb_core::scoring::means::ArithmeticMean;
        use fmdb_core::scoring::tnorms::{Min, Product};
        use fmdb_core::scoring::ConormScoring;
        assert_eq!(classify_combiner(&Min, 3), CombinerKind::ZeroAbsorbing);
        assert_eq!(classify_combiner(&Product, 2), CombinerKind::ZeroAbsorbing);
        assert_eq!(
            classify_combiner(&ConormScoring(Max), 3),
            CombinerKind::MaxLike
        );
        assert_eq!(classify_combiner(&ArithmeticMean, 2), CombinerKind::Other);
    }

    /// The three probes the algorithms gate themselves on, beside
    /// `classify_combiner`'s verdict: at arity 1 every shipped function
    /// is the identity — max and its own minimum — whatever it absorbs.
    /// Whether it is min bit for bit is not asked there: Łukasiewicz's
    /// `1 + x − 1` rounds.
    #[test]
    fn the_gating_probes_tell_the_shipped_functions_apart() {
        use fmdb_core::scoring::conorms::Max;
        use fmdb_core::scoring::means::{ArithmeticMean, GeometricMean, HarmonicMean};
        use fmdb_core::scoring::tnorms::{Lukasiewicz, Min, Product};
        use fmdb_core::scoring::ConormScoring;
        use CombinerKind::{MaxLike, Other, ZeroAbsorbing};
        // (function, kind, max / bounded by min / min, at m ≥ 2)
        let shipped: [(&dyn ScoringFunction, CombinerKind, bool, bool, bool); 7] = [
            (&Min, ZeroAbsorbing, false, true, true),
            (&Product, ZeroAbsorbing, false, true, false),
            (&Lukasiewicz, ZeroAbsorbing, false, true, false),
            (&ConormScoring(Max), MaxLike, true, false, false),
            (&ArithmeticMean, Other, false, false, false),
            (&GeometricMean, ZeroAbsorbing, false, false, false),
            (&HarmonicMean, ZeroAbsorbing, false, false, false),
        ];
        for (f, kind, max, below_min, min) in shipped {
            assert!(
                behaves_like_max(f, 1) && bounded_by_min(f, 1),
                "{}",
                f.name()
            );
            for m in 2..=4 {
                let got = (
                    classify_combiner(f, m),
                    behaves_like_max(f, m),
                    bounded_by_min(f, m),
                    behaves_like_min(f, m),
                );
                let want = (kind, max, below_min, min);
                assert_eq!(got, want, "{} at arity {m}", f.name());
            }
        }
    }

    #[test]
    fn explain_renders_the_decision() {
        let q = PlanQuery::fuzzy(300, 2, 5);
        let e = choose_plan(&q, Some(&uniform_stats(300, 2, 9)), &ExecPolicy::new());
        let s = e.to_string();
        assert!(s.contains("plan "), "{s}");
        assert!(s.contains("candidates:"), "{s}");
        assert!(s.contains("histograms over 2 sources"), "{s}");
    }
}
