//! Database access cost accounting (§4).
//!
//! "The *sorted access cost* is the total number of objects obtained
//! from the database under sorted access. … the *random access cost* is
//! the total number of objects obtained from the database under random
//! access. The *database access cost* is the sum."
//!
//! The paper flags this uniform measure as "somewhat controversial"
//! (a sorted access is probably much more expensive than a random one,
//! or vice versa depending on the subsystem), and \[WHTB98\] studied the
//! algorithm under "a broad range of access costs". [`CostModel`]
//! provides that broad range: a pair of unit prices that converts an
//! [`AccessStats`] into a *charged* cost, used by experiment E5.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use fmdb_core::stats::GradeHistogram;

use crate::source::Subsystem;

/// Counts of the two access kinds an algorithm performed, plus
/// telemetry on how they were served.
///
/// `sorted`/`random` are the paper's *logical* measure: what the
/// algorithm asked for, whichever way the middleware served it. The
/// remaining fields are physical telemetry — threads, pages, blocks —
/// and never add to the access cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Objects obtained under sorted access, summed over all sources.
    pub sorted: u64,
    /// Objects obtained under random access, summed over all sources.
    pub random: u64,
    /// Worker threads the engine spawned while serving this request:
    /// under `Engine::run_many`, the pooled batch workers besides the
    /// calling thread, charged once to the batch's first successful
    /// result. 0 for `Engine::run`, which runs on the caller's thread. Physical-execution telemetry,
    /// not part of the paper's access cost.
    pub worker_spawns: u64,
    /// Pages read from storage while serving this request, summed over
    /// every paged source ([`crate::store::PagedSource`]) the request
    /// touched. It describes how the logical accesses were *served*,
    /// never changes what was charged. 0 means "no paged source
    /// involved".
    pub page_reads: u64,
    /// Page lookups answered from a buffer pool without touching
    /// storage.
    pub page_hits: u64,
    /// Page frames dropped from a buffer pool to make room.
    pub page_evictions: u64,
    /// Sorted-run / random-table pages a paged source *proved* it did
    /// not need via its persisted per-page grade bounds (bounded drains
    /// and probes, see [`crate::store::PagedSource`]). Physical
    /// telemetry like `page_reads`: skipping changes the work, never
    /// the answers or the charged accesses.
    pub pages_skipped: u64,
    /// Corpus scan blocks the media layer's zone maps pruned wholesale
    /// (see `fmdb_media`'s `EmbeddedCorpus` block bounds). Physical
    /// telemetry; 0 means "no embedded corpus involved".
    pub blocks_skipped: u64,
}

impl AccessStats {
    /// No accesses.
    pub const ZERO: AccessStats = AccessStats {
        sorted: 0,
        random: 0,
        worker_spawns: 0,
        page_reads: 0,
        page_hits: 0,
        page_evictions: 0,
        pages_skipped: 0,
        blocks_skipped: 0,
    };

    /// Creates explicit stats (no physical telemetry).
    pub fn new(sorted: u64, random: u64) -> AccessStats {
        AccessStats {
            sorted,
            random,
            ..AccessStats::ZERO
        }
    }

    /// The paper's database access cost: `sorted + random`.
    pub fn database_access_cost(&self) -> u64 {
        self.sorted + self.random
    }

    /// The charged cost under a [`CostModel`].
    pub fn charged(&self, model: &CostModel) -> f64 {
        self.sorted as f64 * model.sorted_unit + self.random as f64 * model.random_unit
    }
}

impl Add for AccessStats {
    type Output = AccessStats;
    fn add(self, rhs: AccessStats) -> AccessStats {
        AccessStats {
            sorted: self.sorted + rhs.sorted,
            random: self.random + rhs.random,
            worker_spawns: self.worker_spawns + rhs.worker_spawns,
            page_reads: self.page_reads + rhs.page_reads,
            page_hits: self.page_hits + rhs.page_hits,
            page_evictions: self.page_evictions + rhs.page_evictions,
            pages_skipped: self.pages_skipped + rhs.pages_skipped,
            blocks_skipped: self.blocks_skipped + rhs.blocks_skipped,
        }
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        *self = *self + rhs;
    }
}

/// Componentwise difference, saturating at zero — for diffing two
/// snapshots of a monotonically growing counter set (e.g.
/// `Engine::access_totals` before/after an experiment). Saturation
/// only engages if the operands are swapped; it never hides real
/// counts.
impl Sub for AccessStats {
    type Output = AccessStats;
    fn sub(self, rhs: AccessStats) -> AccessStats {
        AccessStats {
            sorted: self.sorted.saturating_sub(rhs.sorted),
            random: self.random.saturating_sub(rhs.random),
            worker_spawns: self.worker_spawns.saturating_sub(rhs.worker_spawns),
            page_reads: self.page_reads.saturating_sub(rhs.page_reads),
            page_hits: self.page_hits.saturating_sub(rhs.page_hits),
            page_evictions: self.page_evictions.saturating_sub(rhs.page_evictions),
            pages_skipped: self.pages_skipped.saturating_sub(rhs.pages_skipped),
            blocks_skipped: self.blocks_skipped.saturating_sub(rhs.blocks_skipped),
        }
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} sorted + {} random)",
            self.database_access_cost(),
            self.sorted,
            self.random
        )
    }
}

/// Buffer-pool I/O counters a paged source exposes through
/// [`crate::source::Subsystem::caps`].
///
/// All counters are cumulative over the source's lifetime;
/// the engine diffs two snapshots to attribute page traffic to one
/// request ([`AccessStats::page_reads`] and friends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageIoStats {
    /// Pages actually read from storage (buffer-pool misses).
    pub reads: u64,
    /// Page lookups answered from the buffer pool.
    pub hits: u64,
    /// Page frames dropped from the buffer pool to make room.
    pub evictions: u64,
    /// Pages a bounded drain or probe proved unnecessary via the
    /// store's persisted per-page grade bounds and never visited.
    pub skipped: u64,
}

impl PageIoStats {
    /// No page traffic.
    pub const ZERO: PageIoStats = PageIoStats {
        reads: 0,
        hits: 0,
        evictions: 0,
        skipped: 0,
    };
}

impl Add for PageIoStats {
    type Output = PageIoStats;
    fn add(self, rhs: PageIoStats) -> PageIoStats {
        PageIoStats {
            reads: self.reads + rhs.reads,
            hits: self.hits + rhs.hits,
            evictions: self.evictions + rhs.evictions,
            skipped: self.skipped + rhs.skipped,
        }
    }
}

/// Componentwise saturating difference, for diffing two snapshots of
/// the monotone counters (same contract as `AccessStats::sub`).
impl Sub for PageIoStats {
    type Output = PageIoStats;
    fn sub(self, rhs: PageIoStats) -> PageIoStats {
        PageIoStats {
            reads: self.reads.saturating_sub(rhs.reads),
            hits: self.hits.saturating_sub(rhs.hits),
            evictions: self.evictions.saturating_sub(rhs.evictions),
            skipped: self.skipped.saturating_sub(rhs.skipped),
        }
    }
}

/// Unit prices for the two access kinds — the "more realistic cost
/// measure" the paper's open problems call for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Price of obtaining one object under sorted access.
    pub sorted_unit: f64,
    /// Price of obtaining one object under random access.
    pub random_unit: f64,
}

impl CostModel {
    /// The paper's uniform measure: both kinds cost 1.
    pub const UNIFORM: CostModel = CostModel {
        sorted_unit: 1.0,
        random_unit: 1.0,
    };

    /// A model where a random access costs `ratio` times a sorted one.
    ///
    /// Returns `None` for non-finite or non-positive ratios.
    pub fn random_to_sorted_ratio(ratio: f64) -> Option<CostModel> {
        (ratio.is_finite() && ratio > 0.0).then_some(CostModel {
            sorted_unit: 1.0,
            random_unit: ratio,
        })
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::UNIFORM
    }
}

/// Per-source statistics the cost-based planner prices plans with:
/// the grade distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceStats {
    /// Equi-depth grade-distribution histogram (built from the sorted
    /// list, a sorted-access prefix, or a sample).
    pub histogram: GradeHistogram,
}

impl SourceStats {
    /// Stats over one source's grade distribution.
    pub fn new(histogram: GradeHistogram) -> SourceStats {
        SourceStats { histogram }
    }

    /// The source's universe size per its histogram.
    pub fn universe(&self) -> usize {
        self.histogram.universe()
    }
}

/// Measures `c_R/c_S` for a source by micro-probing: times `probes`
/// sorted accesses, then `probes` random accesses to the ids just
/// seen, through the injectable `clock` (monotonic nanoseconds). The
/// injectable clock keeps calibration deterministic under test; pass
/// [`wall_clock`] for real measurements.
///
/// Returns `None` when the source yields no objects under sorted
/// access (nothing to probe) or an access fails. The measured ratio is clamped to
/// `[0.001, 1000]` so one scheduler hiccup cannot poison a plan
/// choice. The source is rewound before and after probing.
pub fn calibrate_cost_model(
    source: &mut dyn Subsystem,
    probes: usize,
    clock: &mut dyn FnMut() -> u64,
) -> Option<CostModel> {
    let probes = probes.max(1);
    source.rewind();
    let t0 = clock();
    let mut ids = Vec::with_capacity(probes);
    for _ in 0..probes {
        match source.sorted_next().ok()? {
            Some(so) => ids.push(so.id),
            None => break,
        }
    }
    let t1 = clock();
    if ids.is_empty() {
        source.rewind();
        return None;
    }
    for i in 0..probes {
        let id = ids[i % ids.len()];
        source.random_access(id).ok()?;
    }
    let t2 = clock();
    source.rewind();
    let sorted_ns = t1.saturating_sub(t0).max(1) as f64;
    let random_ns = t2.saturating_sub(t1).max(1) as f64;
    let ratio = (random_ns / sorted_ns).clamp(0.001, 1000.0);
    CostModel::random_to_sorted_ratio(ratio)
}

/// A monotonic nanosecond clock for [`calibrate_cost_model`].
pub fn wall_clock() -> impl FnMut() -> u64 {
    let start = std::time::Instant::now();
    move || start.elapsed().as_nanos() as u64
}

/// Measures `c_R/c_S` for a *paged* source from its page traffic
/// instead of wall time: runs `probes` sorted accesses, then `probes`
/// random accesses to ids drawn from across the whole universe, and
/// prices each access kind by the pages it pulled from storage
/// (charging a floor of one page per phase so a fully warm pool
/// degrades to ratio 1, never 0).
///
/// Wall-clock calibration ([`calibrate_cost_model`]) is the general
/// tool, but against real storage it is noisy under test; page reads
/// are the *deterministic* physical signal behind that latency: a
/// sorted scan amortizes one read over `entries_per_page` objects
/// while a cold random probe pays a whole page for one object — which
/// is exactly the c_R/c_S asymmetry \[WHTB98\] priced. Returns `None`
/// when the source exposes no page counters
/// ([`crate::source::Caps::page_io`]), yields no objects or fails an
/// access.
/// The measured ratio is clamped to `[0.001, 1000]` like the
/// wall-clock path. The source is rewound before and after probing.
pub fn calibrate_cost_model_io(source: &mut dyn Subsystem, probes: usize) -> Option<CostModel> {
    let probes = probes.max(1);
    let page_io = |source: &dyn Subsystem| source.caps().page_io;
    page_io(source)?;
    let universe = source.info().universe_size as u64;
    source.rewind();
    let before_sorted = page_io(source)?;
    let mut ids = Vec::with_capacity(probes);
    for _ in 0..probes {
        match source.sorted_next().ok()? {
            Some(so) => ids.push(so.id),
            None => break,
        }
    }
    let before_random = page_io(source)?;
    if ids.is_empty() {
        source.rewind();
        return None;
    }
    // Probe ids spread across the universe, not the ids just seen:
    // the sorted prefix's pages are warm by construction, and probing
    // only them would measure the pool, not the access pattern.
    let stride = (universe / probes as u64).max(1);
    for i in 0..probes as u64 {
        source.random_access((i * stride) % universe.max(1)).ok()?;
    }
    let after = page_io(source)?;
    source.rewind();
    let sorted_pages = (before_random - before_sorted).reads.max(1) as f64;
    let random_pages = (after - before_random).reads.max(1) as f64;
    let per_sorted = sorted_pages / ids.len() as f64;
    let per_random = random_pages / probes as f64;
    let ratio = (per_random / per_sorted).clamp(0.001, 1000.0);
    CostModel::random_to_sorted_ratio(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_access_cost_is_the_sum() {
        // The paper's example: top 100 from one list + top 20 from the
        // other = sorted access cost 120.
        let stats = AccessStats::new(120, 35);
        assert_eq!(stats.database_access_cost(), 155);
    }

    #[test]
    fn charged_cost_respects_the_model() {
        let stats = AccessStats::new(10, 4);
        assert_eq!(stats.charged(&CostModel::UNIFORM), 14.0);
        let expensive_random = CostModel::random_to_sorted_ratio(10.0).unwrap();
        assert_eq!(stats.charged(&expensive_random), 50.0);
        let cheap_random = CostModel::random_to_sorted_ratio(0.1).unwrap();
        assert!((stats.charged(&cheap_random) - 10.4).abs() < 1e-12);
    }

    #[test]
    fn invalid_ratios_rejected() {
        assert!(CostModel::random_to_sorted_ratio(0.0).is_none());
        assert!(CostModel::random_to_sorted_ratio(-1.0).is_none());
        assert!(CostModel::random_to_sorted_ratio(f64::NAN).is_none());
    }

    #[test]
    fn stats_add_componentwise() {
        let mut a = AccessStats::new(1, 2);
        a += AccessStats::new(3, 4);
        assert_eq!(a, AccessStats::new(4, 6));
        assert_eq!(a + AccessStats::ZERO, a);
    }

    #[test]
    fn stats_sub_diffs_snapshots_and_saturates() {
        let before = AccessStats::new(10, 4);
        let after = AccessStats::new(25, 9);
        assert_eq!(after - before, AccessStats::new(15, 5));
        assert_eq!(before - after, AccessStats::ZERO);
    }

    #[test]
    fn display_format() {
        let s = AccessStats::new(2, 3).to_string();
        assert!(s.contains("5 accesses"));
    }

    #[test]
    fn calibration_is_deterministic_under_an_injected_clock() {
        use crate::workload::independent_uniform;
        // A scripted clock: sorted probes take 100ns total, random
        // probes 700ns — the measured ratio must be exactly 7.
        let calibrate = || {
            let mut src = independent_uniform(64, 1, 5).remove(0);
            let script = [0u64, 100, 800];
            let mut i = 0;
            let mut clock = move || {
                let t = script[i.min(script.len() - 1)];
                i += 1;
                t
            };
            calibrate_cost_model(&mut src, 8, &mut clock).expect("non-empty source")
        };
        let a = calibrate();
        let b = calibrate();
        assert_eq!(a, b, "same clock script must give the same model");
        assert!((a.random_unit / a.sorted_unit - 7.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_rejects_empty_sources_and_clamps() {
        use crate::source::VecSource;
        let mut empty = VecSource::new("empty", Vec::new());
        let mut clock = || 0u64;
        assert!(calibrate_cost_model(&mut empty, 4, &mut clock).is_none());

        // A zero-width clock script degrades to ratio 1, not NaN.
        let mut src = crate::workload::independent_uniform(16, 1, 1).remove(0);
        let model = calibrate_cost_model(&mut src, 4, &mut clock).unwrap();
        assert!((model.random_unit - model.sorted_unit).abs() < 1e-12);
    }
}
