//! A persistent paged column store for graded sources — out-of-core
//! corpora served through the §4 access model at near-memory speed.
//!
//! Everything else in the workspace keeps grades in RAM
//! ([`crate::source::VecSource`], the media layer's SoA corpus). This
//! module makes the Fagin–Lotem–Naor cost model *physical*: a store
//! file lays out a grade-descending **sorted run** and an
//! oid-ascending **random table** in fixed-size checksummed pages
//! ([`mod@format`]), read through a **buffer pool** (`PagePool`): one
//! slot per page, pinned frames and a CLOCK hand. Every page is read
//! on demand, on the thread that asked for it: the store starts no
//! thread, and a sorted access is a sequential page read and nothing
//! more.
//!
//! * [`build_store`] / [`build_store_from_source`] write a file crash
//!   safely in one shot (tmp + fsync + rename + parent fsync).
//! * [`PagedStore::open`] validates magic, version, checksums, and
//!   length, and loads the page directory and the persisted stats
//!   page.
//! * [`PagedSource`] is a [`Subsystem`] over the store: batched
//!   sorted/random access, and a grade histogram ([`Subsystem::caps`])
//!   answered from the stats page without touching data pages. It is
//!   bit-identical to a `VecSource` built from the same pairs —
//!   answers, grades, and charged [`crate::stats::AccessStats`] —
//!   which the `paged_equivalence` proptest suite proves.
//!
//! A warm read costs arithmetic, not searches. A probe finds its page
//! and its slot the way `VecSource` finds an oid (DESIGN §17): over the
//! dense universe `0..n` oid `o` lives on random-table page
//! `o / entries_per_page` at slot `o − first oid of the page`, and each
//! guess is taken only when the directory range or the stored oid
//! proves it, else a binary search decides. A probe reads the resident
//! page in place under its pool slot's lock, and the cursor counts the
//! hit. The sorted cursor holds the frame of the page it stands on,
//! pinned in the pool, and decodes each entry from it in place; every
//! grade on a sorted-run page was validated once, when the page was
//! read from storage.
//!
//! Failure model: *opening* and *building* return typed
//! [`StoreError`]s, and so does every access after a successful open
//! that fails (disk yanked mid-query, a data page failing its checksum
//! or declaring an entry count its section's geometry rules out): it
//! returns a [`SourceError`] whose cause is the `StoreError`, and a
//! query over the source fails with it. The cursor stays where the
//! failed access found it. [`build_store_from_source`] returns a
//! failing source's error ([`StoreError::Source`]) and refuses a
//! source whose stream ends before the universe it declares
//! ([`StoreError::ShortSource`]).

pub mod format;
mod pool;

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;

use crate::frozen::Narrowed;
use crate::source::{Caps, Grades, Oid, SourceError, SourceInfo, Subsystem};
use crate::stats::PageIoStats;

pub use format::{build_store, BuildConfig, Header, StoreError};
use format::{
    decode_entry, decode_header, page_entry_count, read_entries, read_u32, read_u64,
    validate_entries, verify_page,
};
use pool::PagePool;

/// The open-time knob: buffer-pool capacity.
///
/// `Some(n)` with `n > 0`, or `None` to run uncached. `Some(0)` is
/// rejected by [`PagedStore::open`] with
/// [`StoreError::InvalidOptions`] — a zero capacity used to fall
/// through and silently behave like "disabled", which is exactly the
/// kind of obscure downstream failure a typed error should catch at
/// the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Page frames the buffer pool holds, or `None` for no caching —
    /// every access reads storage.
    pub pool_pages: Option<usize>,
}

impl StoreOptions {
    /// 256 frames (1 MiB at the default page size).
    pub const DEFAULT: StoreOptions = StoreOptions {
        pool_pages: Some(256),
    };

    /// A different pool capacity (`0` disables caching).
    pub fn with_pool_pages(pool_pages: usize) -> StoreOptions {
        StoreOptions {
            pool_pages: (pool_pages > 0).then_some(pool_pages),
        }
    }

    /// Validates the knob, returning the pool's effective capacity
    /// (0 = disabled).
    fn validate(&self) -> Result<usize, StoreError> {
        match self.pool_pages {
            Some(0) => Err(StoreError::InvalidOptions(
                "pool_pages must be positive; use None to disable caching",
            )),
            Some(n) => Ok(n),
            None => Ok(0),
        }
    }
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions::DEFAULT
    }
}

/// Builds a store at `path` by draining `source`'s sorted stream —
/// the one-shot path from any existing source (a `VecSource`, an
/// embedded-corpus adapter, …). The source is rewound before and
/// after. See [`build_store`] for the persisted layout and
/// crash-safety protocol.
///
/// A failed access is [`StoreError::Source`]. Every object of the
/// source's `info().universe_size` streams (the trait's contract), so a
/// drain of any other length is [`StoreError::ShortSource`]. Either
/// way no file is written.
pub fn build_store_from_source(
    path: &Path,
    source: &mut dyn crate::source::GradedSource,
    cfg: &BuildConfig,
) -> Result<(), StoreError> {
    let mut narrowed = Narrowed::new(source);
    let source = narrowed.get();
    source.rewind();
    let info = source.info();
    let mut pairs = Vec::new();
    loop {
        let batch = source.sorted_batch(1024).map_err(StoreError::Source)?;
        let done = batch.len() < 1024;
        pairs.extend(batch.into_iter().map(|so| (so.id, so.grade)));
        if done {
            break;
        }
    }
    source.rewind();
    if pairs.len() != info.universe_size {
        return Err(StoreError::ShortSource {
            expected: info.universe_size as u64,
            drained: pairs.len() as u64,
        });
    }
    build_store(path, &info.label, pairs, cfg)
}

/// Shared innards of a store: the file, its decoded geometry, the
/// in-memory directory and stats page, and the buffer pool.
#[derive(Debug)]
struct StoreInner {
    file: File,
    header: Header,
    /// First oid of each random-table page (loaded from the directory
    /// pages at open; one u64 per page, so a multi-GB store's
    /// directory is a few KiB).
    directory: Vec<Oid>,
    /// The persisted stats-page histogram.
    histogram: GradeHistogram,
    /// Per-data-page `(min, max)` grade bounds loaded from the bounds
    /// section: sorted-run pages first (indices `0..sorted_pages`),
    /// then random-table pages — one per data page, which `open`
    /// checks.
    bounds: Vec<(Score, Score)>,
    pool: PagePool,
    /// Pages bounded drains/probes proved unnecessary and never
    /// visited (folded into [`PageIoStats::skipped`]).
    pages_skipped: std::sync::atomic::AtomicU64,
    /// First access failure after a successful open: each failing
    /// access returns it, and the slot keeps the first for
    /// `PagedStore::take_error` (`crate::frozen`).
    error: Mutex<Option<SourceError>>,
}

impl StoreInner {
    /// Fetches a data page through the pool: a pool hit, or a
    /// checksummed storage read installed for the next caller once its
    /// declared entry count matches the header's geometry (a CRC-valid
    /// page that under-declares would otherwise shorten the source
    /// silently) and, on a sorted-run page, once every grade on it is
    /// valid. Frames are immutable, so a page validated on entry stays
    /// valid while it is resident, and a page that fails never enters
    /// the pool: each later access reads it again and fails again with
    /// the same error. Random-table pages keep the per-entry check of
    /// [`StoreInner::find_in_page`] instead. A frame is a single
    /// allocation, so frames allocated and freed on different threads
    /// (requests under `Engine::run_many` share a pool) recycle
    /// same-size chunks instead of fragmenting the threads' malloc
    /// arenas.
    fn load_page(&self, page: u64) -> Result<pool::Frame, StoreError> {
        if let Some(frame) = self.pool.get(page) {
            return Ok(frame);
        }
        let mut frame: pool::Frame = std::iter::repeat_n(0u8, self.header.page_size).collect();
        // Nobody else has seen the frame yet, so it is uniquely owned;
        // a page left zeroed would fail its checksum below.
        if let Some(buf) = Arc::get_mut(&mut frame) {
            self.file
                .read_exact_at(buf, page * self.header.page_size as u64)?;
        }
        verify_page(&frame, page)?;
        let count = read_u32(&frame, 4);
        if u64::from(count) != self.header.data_page_entries(page) {
            return Err(StoreError::InvalidHeader(
                "data page entry count disagrees with the header",
            ));
        }
        if page.wrapping_sub(self.header.sorted_start()) < self.header.sorted_pages {
            validate_entries(&frame, count as usize, page)?;
        }
        self.pool.insert(page, Arc::clone(&frame));
        Ok(frame)
    }

    /// The random-table page (0-based within the table) that alone can
    /// hold `oid` — the greatest directory entry ≤ `oid` — or `None`
    /// when `oid` sorts before every entry (or the store is empty).
    /// Every probe path starts here.
    ///
    /// The lookup rule of `OidIndex::grade` (DESIGN §17), one level up:
    /// a table over the dense universe `0..n` holds `oid` on page
    /// `oid / entries_per_page`, so that page is tried first and taken
    /// when its directory range `[directory[g], directory[g + 1])`
    /// holds `oid` — which is the definition of the answer, so a guess
    /// that passes is right however the table is laid out. Any other
    /// table misses the test and pays the binary search. The directory
    /// is in memory: a wrong guess reads no page.
    fn locate(&self, oid: Oid) -> Option<u64> {
        let dir = &self.directory;
        let g = (oid / self.header.entries_per_page as u64) as usize;
        if let Some(&first) = dir.get(g) {
            if first <= oid && dir.get(g + 1).is_none_or(|&next| oid < next) {
                return Some(g as u64);
            }
        }
        match dir.binary_search(&oid) {
            Ok(i) => Some(i as u64),
            Err(0) => None,
            Err(i) => Some(i as u64 - 1),
        }
    }

    /// Reads random-table page `idx` (as [`StoreInner::locate`] numbers
    /// them) and runs `read` on it: under the slot's lock when the page
    /// is resident, counting the hit in `hits`, else on the frame
    /// [`StoreInner::load_page`] returns. The one page access of every
    /// probe form.
    #[inline]
    fn with_random_page<R>(
        &self,
        idx: u64,
        hits: &mut u64,
        mut read: impl FnMut(&[u8], u64) -> Result<R, SourceError>,
    ) -> Result<R, SourceError> {
        let page = self.header.random_start() + idx;
        if let Some(answer) = self.pool.with_resident(page, |frame| read(frame, page)) {
            *hits += 1;
            return answer;
        }
        let frame = self.load_page(page).map_err(|e| self.fail(e))?;
        read(&frame, page)
    }

    /// The grade of `oid` on the random-table page `frame`, zero
    /// when absent. The one in-page search scalar, batched and bounded
    /// probes share; no probe decodes more than the entry it answers.
    ///
    /// Slot first, then search, as in [`StoreInner::locate`]: on a page
    /// of consecutive oids `oid` sits at slot `oid − first oid of the
    /// page`, taken only when it is below the entry count and the oid
    /// stored there *equals* `oid`; otherwise a binary search over the
    /// page's raw entries. Either way the entry found goes through the
    /// validated `decode_entry`.
    #[inline]
    fn find_in_page(&self, frame: &[u8], page: u64, oid: Oid) -> Result<Score, SourceError> {
        let count = page_entry_count(frame, self.header.entries_per_page);
        let oid_at = |slot: usize| {
            read_u64(
                frame,
                format::PAGE_HEADER_BYTES + slot * format::ENTRY_BYTES,
            )
        };
        let guess = oid.wrapping_sub(oid_at(0));
        let slot = if guess < count as u64 && oid_at(guess as usize) == oid {
            Some(guess as usize)
        } else {
            // The first slot whose oid is not below `oid`, taken only
            // when it holds `oid`.
            let (mut lo, mut hi) = (0usize, count);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if oid_at(mid) < oid {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            (lo < count && oid_at(lo) == oid).then_some(lo)
        };
        let Some(slot) = slot else {
            return Ok(Score::ZERO);
        };
        match decode_entry(frame, slot, page) {
            Ok(so) => Ok(so.grade),
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Pins the sorted-run page that holds run position `pos`. Every
    /// entry on it was validated when it entered the pool
    /// ([`StoreInner::load_page`]), so the cursor can read any of them
    /// without a `Result`. A page that cannot be read, or that carries
    /// a bad grade anywhere, is refused whole; `None` past the end of
    /// the run.
    fn sorted_page(&self, pos: u64) -> Result<Option<SortedPage>, SourceError> {
        if pos >= self.header.n {
            return Ok(None);
        }
        let epp = self.header.entries_per_page as u64;
        let run_page = pos / epp;
        let page = self.header.sorted_start() + run_page;
        let frame = self.load_page(page).map_err(|e| self.fail(e))?;
        let count = page_entry_count(&frame, self.header.entries_per_page);
        let start = run_page * epp;
        Ok(Some(SortedPage {
            frame,
            start,
            end: start + count as u64,
        }))
    }

    /// The error a failed access returns, its first one also kept in
    /// the slot. Out of line, so the probe loops it ends stay tight.
    #[cold]
    #[inline(never)]
    fn fail(&self, e: StoreError) -> SourceError {
        let e = SourceError::new(e);
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert_with(|| e.clone());
        e
    }

    /// Persisted `(min, max)` grade bounds of sorted-run page `p`
    /// (0-based within the run).
    fn sorted_page_bounds(&self, p: u64) -> (Score, Score) {
        self.bounds[p as usize]
    }

    /// Bounds of random-table page `p` (0-based within the table).
    fn random_page_bounds(&self, p: u64) -> (Score, Score) {
        self.bounds[(self.header.sorted_pages + p) as usize]
    }

    /// Records `pages` pages proved unnecessary by a bounded access.
    fn note_skipped(&self, pages: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        // ordering(Relaxed): telemetry-only skip counter — nothing
        // branches on it, so no cross-thread ordering is required.
        self.pages_skipped.fetch_add(pages, Relaxed);
    }

    /// Pool counters with the store-level skip counter folded in.
    fn page_io(&self) -> PageIoStats {
        use std::sync::atomic::Ordering::Relaxed;
        PageIoStats {
            // ordering(Relaxed): report-time read of the telemetry
            // counter; a slightly stale value is acceptable.
            skipped: self.pages_skipped.load(Relaxed),
            ..self.pool.stats()
        }
    }
}

/// An open store file: the handle sources are created from.
///
/// The store and the [`PagedSource`]s created from it are the only
/// owners of the file and the pool: dropping the last of them closes
/// the file at once.
#[derive(Debug)]
pub struct PagedStore {
    inner: Arc<StoreInner>,
}

impl PagedStore {
    /// Opens and validates a store file.
    ///
    /// Validation is eager where it is cheap and page-local where it
    /// is not: the header's magic/version/geometry/checksum, the
    /// file's exact expected length, the stats page, the whole
    /// directory and the bounds section are checked here; data pages
    /// are checksummed when first read.
    pub fn open(path: &Path, cfg: StoreOptions) -> Result<PagedStore, StoreError> {
        let pool_pages = cfg.validate()?;
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < format::MIN_PAGE_SIZE as u64 {
            return Err(StoreError::Truncated {
                expected: format::MIN_PAGE_SIZE as u64,
                actual: len,
            });
        }
        // Bootstrap: read the smallest legal page to learn the real
        // page size, then re-read the header at full size.
        let mut probe = vec![0u8; format::MIN_PAGE_SIZE];
        file.read_exact_at(&mut probe, 0)?;
        if probe[4..12] != format::MAGIC {
            return Err(StoreError::BadMagic);
        }
        let page_size = read_u32(&probe, 16) as usize;
        if !(format::MIN_PAGE_SIZE..=1 << 24).contains(&page_size) {
            return Err(StoreError::InvalidHeader("page size out of range"));
        }
        if len < page_size as u64 {
            return Err(StoreError::Truncated {
                expected: page_size as u64,
                actual: len,
            });
        }
        // Every metadata page comes through here: read page `p` whole,
        // verify its checksum, hand back the bytes.
        let read_page = |p: u64| -> Result<Vec<u8>, StoreError> {
            let mut buf = vec![0u8; page_size];
            file.read_exact_at(&mut buf, p.saturating_mul(page_size as u64))?;
            verify_page(&buf, p)?;
            Ok(buf)
        };
        let header = decode_header(&read_page(0)?)?;
        if len != header.total_bytes() {
            return Err(StoreError::Truncated {
                expected: header.total_bytes(),
                actual: len,
            });
        }

        // Stats page.
        let stats_page = read_page(1)?;
        let bound_count = read_u32(&stats_page, 4) as usize;
        if bound_count > (page_size - format::PAGE_HEADER_BYTES) / 8
            || (bound_count > 0 && bound_count != header.hist_bins as usize + 1)
        {
            return Err(StoreError::InvalidStats);
        }
        let bounds: Vec<f64> = (0..bound_count)
            .map(|i| f64::from_bits(read_u64(&stats_page, format::PAGE_HEADER_BYTES + i * 8)))
            .collect();
        let histogram = GradeHistogram::from_parts(header.hist_universe as usize, bounds)
            .ok_or(StoreError::InvalidStats)?;

        // Directory pages.
        let dir_entries_per_page = (page_size - format::PAGE_HEADER_BYTES) / 8;
        let mut directory: Vec<Oid> = Vec::with_capacity(header.random_pages as usize);
        for d in 0..header.dir_pages {
            let buf = read_page(header.dir_start() + d)?;
            let count = (read_u32(&buf, 4) as usize).min(dir_entries_per_page);
            for i in 0..count {
                directory.push(read_u64(&buf, format::PAGE_HEADER_BYTES + i * 8));
            }
        }
        if directory.len() != header.random_pages as usize {
            return Err(StoreError::InvalidHeader("directory disagrees with header"));
        }
        if directory.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::InvalidHeader(
                "directory not strictly ascending",
            ));
        }

        // Bounds pages: one `(min, max)` grade pair per data page,
        // validated eagerly like the directory — corrupt bounds must
        // never silently mis-prune.
        let data_pages = header.sorted_pages.saturating_add(header.random_pages);
        let mut bounds: Vec<(Score, Score)> = Vec::with_capacity(data_pages as usize);
        for b in 0..header.bounds_pages {
            let page_no = header.bounds_start().saturating_add(b);
            let buf = read_page(page_no)?;
            let count = page_entry_count(&buf, header.entries_per_page);
            for i in 0..count {
                if (bounds.len() as u64) < data_pages {
                    bounds.push(format::decode_bound(&buf, i, page_no)?);
                }
            }
        }
        if bounds.len() as u64 != data_pages {
            return Err(StoreError::InvalidHeader(
                "bounds section disagrees with page counts",
            ));
        }

        let pool = PagePool::new(pool_pages, header.total_pages());
        let inner = Arc::new(StoreInner {
            file,
            header,
            directory,
            histogram,
            bounds,
            pool,
            pages_skipped: std::sync::atomic::AtomicU64::new(0),
            error: Mutex::new(None),
        });
        Ok(PagedStore { inner })
    }

    /// A fresh [`PagedSource`] cursor over this store. Sources share
    /// the store's buffer pool, so a warm pool serves every cursor.
    pub fn source(&self) -> PagedSource {
        PagedSource::new(Arc::clone(&self.inner))
    }

    /// The decoded header: geometry and identity.
    pub fn header(&self) -> &Header {
        &self.inner.header
    }

    /// Number of `(oid, grade)` entries persisted.
    pub fn len(&self) -> u64 {
        self.inner.header.n
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.header.n == 0
    }

    /// Cumulative buffer-pool counters (reads/hits/evictions) plus the
    /// store-level counter of pages bounded drains and probes proved
    /// unnecessary ([`PageIoStats::skipped`]). A live cursor's probe
    /// hits join `hits` when it rewinds or drops; its own
    /// [`Subsystem::caps`] counts them at once.
    pub fn page_io(&self) -> PageIoStats {
        self.inner.page_io()
    }

    /// Page frames currently resident in the buffer pool.
    pub fn resident_pages(&self) -> usize {
        self.inner.pool.resident()
    }

    /// Drops every pooled frame and resets the pool counters —
    /// benchmarks use this to measure cold-pool behaviour without
    /// reopening the file (the OS page cache stays warm; this measures
    /// the store's own pool, not the kernel's). Probe hits a live
    /// cursor still holds join the fresh counters when it hands them
    /// over.
    pub fn clear_pool(&self) {
        self.inner.pool.clear();
        let skipped = &self.inner.pages_skipped;
        // ordering(Relaxed): resetting the telemetry skip counter —
        // readers only ever report it, never branch on it.
        skipped.store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// Takes the first access failure the slot kept.
    pub(crate) fn take_parked(&self) -> Option<StoreError> {
        let mut slot = self
            .inner
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.take().map(StoreError::Source)
    }
}

/// A [`Subsystem`] cursor over an open [`PagedStore`].
///
/// Bit-identical to a [`crate::source::VecSource`] built from the same
/// pairs: the sorted run streams in descending-grade/ascending-oid
/// order, random access answers absent oids with grade zero, and the
/// charged access counts are untouched by paging (pool hits and
/// misses are physical telemetry, surfaced via [`Subsystem::caps`]).
///
/// The cursor pins the sorted page it stands on — one frame, held
/// until the cursor moves past the page, rewinds or drops — whose
/// grades were all validated when it entered the pool; every sorted
/// access decodes straight from that frame. A probe reads its
/// random-table page in place under the pool slot's lock and counts
/// the hit on the cursor, which hands its count to the pool when it
/// rewinds or drops; until then [`Subsystem::caps`] adds it to the
/// pool's, so a before/after difference of `caps().page_io` over one
/// cursor is exact.
#[derive(Debug)]
pub struct PagedSource {
    inner: Arc<StoreInner>,
    /// Sorted-run cursor: global entry index.
    pos: u64,
    /// The sorted page the cursor stands on, while it holds one (not
    /// before its first read, after a rewind, nor while the page under
    /// it cannot be read). Sorted reads decode straight from its frame.
    page: Option<SortedPage>,
    /// Pool hits of this cursor's probes not yet added to the pool's
    /// counter.
    hits: u64,
}

/// Marks an oid no random-table page can hold.
const NOWHERE: u64 = u64::MAX;

/// The positions of `pages` that name a page (every one but
/// [`NOWHERE`]), ordered by page and, within a page, by position.
///
/// A counting sort over the span of pages the batch touches: count,
/// prefix sum, scatter — linear in the batch and the span, with no
/// comparison. The span costs one counter per page in it, at most one
/// per random-table page.
fn by_page(pages: &[u64]) -> Vec<usize> {
    let located = || pages.iter().filter(|&&p| p != NOWHERE);
    let (lo, hi, n) = located().fold((u64::MAX, 0, 0usize), |(lo, hi, n), &p| {
        (lo.min(p), hi.max(p), n + 1)
    });
    if n == 0 {
        return Vec::new();
    }
    // `next[p - lo]`: how many oids page `p` holds, then, after the
    // prefix sum, where its next position goes in `order`.
    let mut next = vec![0usize; (hi - lo) as usize + 1];
    for &p in located() {
        next[(p - lo) as usize] += 1;
    }
    let mut at = 0;
    for slot in &mut next {
        (*slot, at) = (at, at + *slot);
    }
    let mut order = vec![0usize; n];
    for (pos, &p) in pages.iter().enumerate() {
        if p != NOWHERE {
            let slot = &mut next[(p - lo) as usize];
            order[*slot] = pos;
            *slot += 1;
        }
    }
    order
}

/// A sorted-run page held by a cursor: its frame, pinned in the pool
/// while held and validated whole when it entered the pool, and the
/// run positions `start..end` its entries hold.
#[derive(Debug)]
struct SortedPage {
    frame: pool::Frame,
    start: u64,
    end: u64,
}

impl SortedPage {
    /// The entries at run positions `from..to`, within `start..end`.
    #[inline]
    fn entries(&self, from: u64, to: u64) -> impl Iterator<Item = ScoredObject<Oid>> + '_ {
        let slot = |pos: u64| (pos - self.start) as usize;
        read_entries(&self.frame, slot(from), slot(to))
    }

    /// The entry at run position `pos`, `start ≤ pos < end`.
    #[inline]
    fn entry(&self, pos: u64) -> Option<ScoredObject<Oid>> {
        self.entries(pos, pos + 1).next()
    }

    /// The first run position in `from..end` whose grade is below
    /// `bound` (`end` when there is none): grades descend along the
    /// run, so the ones at or above `bound` are a prefix.
    fn first_below(&self, from: u64, bound: Score) -> u64 {
        let (mut lo, mut hi) = (from, self.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entry(mid).is_some_and(|so| so.grade >= bound) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl PagedSource {
    /// A cursor at the top of `inner`'s sorted run.
    fn new(inner: Arc<StoreInner>) -> PagedSource {
        PagedSource {
            inner,
            pos: 0,
            page: None,
            hits: 0,
        }
    }

    /// One probe of located random-table page `idx`: the page access
    /// and the in-page search.
    #[inline]
    fn probe(&mut self, idx: u64, oid: Oid) -> Result<Score, SourceError> {
        let inner = &*self.inner;
        inner.with_random_page(idx, &mut self.hits, |frame, page| {
            inner.find_in_page(frame, page, oid)
        })
    }

    /// Hands the hits this cursor counted to the pool's counter.
    fn fold_hits(&mut self) {
        self.inner.pool.add_hits(std::mem::take(&mut self.hits));
    }

    /// The page the cursor stands on, pinning the next one once the
    /// held one is spent; `None` when the run is drained. Every sorted
    /// access reads the entries from `pos` to the returned page's
    /// `end`, or a prefix of them.
    #[inline]
    fn current(&mut self) -> Result<Option<&SortedPage>, SourceError> {
        if self.page.as_ref().is_none_or(|p| self.pos >= p.end) {
            // Unpin the spent page before the next one is fetched.
            self.page = None;
            self.page = self.inner.sorted_page(self.pos)?;
        }
        Ok(self.page.as_ref())
    }

    /// Bounded sorted drain: every remaining entry of the sorted stream
    /// with grade ≥ `bound`, in stream order, the cursor moved past
    /// exactly those — what [`crate::source::VecSource::sorted_drain_bounded`]
    /// returns over the same pairs. One sorted access per item returned.
    ///
    /// Answered from the persisted per-page bounds: the sorted run is
    /// globally descending, so page max grades are non-increasing — the
    /// first page whose persisted max is below `bound` proves the whole
    /// remaining run is too, and the drain stops without reading it.
    /// Only `PageIoStats::skipped` records the saved work: the pages the
    /// drain proved useless and never visited, so never the page the
    /// cursor already stands inside.
    pub fn sorted_drain_bounded(
        &mut self,
        bound: Score,
    ) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let mut out = Vec::new();
        let (n, epp) = (
            self.inner.header.n,
            self.inner.header.entries_per_page as u64,
        );
        let sorted_pages = self.inner.header.sorted_pages;
        while self.pos < n {
            let run_page = self.pos / epp;
            if self.inner.sorted_page_bounds(run_page).1 < bound {
                // Every page that starts at or after the cursor: a page
                // the cursor stands inside has been read.
                let unvisited = sorted_pages.saturating_sub(self.pos.div_ceil(epp));
                self.inner.note_skipped(unvisited);
                break;
            }
            let pos = self.pos;
            let Some(page) = self.current()? else {
                break;
            };
            let end = page.first_below(pos, bound);
            let boundary_inside = end < page.end;
            out.extend(page.entries(pos, end));
            self.pos = end;
            if boundary_inside {
                // The boundary fell inside this page. Every later page
                // is individually provable useless (its persisted max
                // is ≤ the boundary grade, which is < bound) — count
                // them all as skipped; they are never visited.
                self.inner
                    .note_skipped(sorted_pages.saturating_sub(run_page.saturating_add(1)));
                break;
            }
        }
        Ok(out)
    }

    /// Random access for a caller that only consumes grades at or above
    /// `bound`: the exact grade when it is ≥ `bound`, and
    /// [`Score::ZERO`] when it is provably below — never the object's
    /// true grade then. One random access either way. When the
    /// random-table page that could hold `oid` has a persisted max
    /// grade below `bound`, the answer is known without reading it.
    pub fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Result<Score, SourceError> {
        let Some(idx) = self.inner.locate(oid) else {
            return Ok(Score::ZERO);
        };
        if self.inner.random_page_bounds(idx).1 < bound {
            self.inner.note_skipped(1);
            return Ok(Score::ZERO);
        }
        let grade = self.probe(idx, oid)?;
        Ok(if grade >= bound { grade } else { Score::ZERO })
    }
}

impl Subsystem for PagedSource {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let mut out = Vec::with_capacity(n.min(self.inner.header.n as usize));
        while out.len() < n {
            let pos = self.pos;
            let Some(page) = self.current()? else {
                break;
            };
            let end = page.end.min(pos.saturating_add((n - out.len()) as u64));
            out.extend(page.entries(pos, end));
            self.pos = end;
        }
        Ok(out)
    }

    // Page-ordered: each oid is located through the directory once,
    // the input positions are grouped by page (`by_page`), and every
    // distinct page is read once, in ascending order, and searched for
    // all of its oids under one slot lock (pinned, on a miss) — a batch
    // never re-reads a page, however small the pool. Answers go back in
    // input order; an oid no page can hold grades zero exactly as a
    // scalar probe would.
    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        let inner = &*self.inner;
        let mut out = vec![Score::ZERO; oids.len()];
        let pages: Vec<u64> = oids
            .iter()
            .map(|&oid| inner.locate(oid).unwrap_or(NOWHERE))
            .collect();
        let order = by_page(&pages);
        let mut rest = order.as_slice();
        while let Some(&first) = rest.first() {
            let idx = pages[first];
            let (run, after) = rest.split_at(rest.partition_point(|&pos| pages[pos] == idx));
            inner.with_random_page(idx, &mut self.hits, |frame, page| {
                for &pos in run {
                    out[pos] = inner.find_in_page(frame, page, oids[pos])?;
                }
                Ok(())
            })?;
            rest = after;
        }
        Ok(out)
    }

    fn rewind(&mut self) {
        self.pos = 0;
        self.page = None;
        self.fold_hits();
    }

    fn info(&self) -> SourceInfo {
        SourceInfo::new(
            self.inner.header.label.clone(),
            self.inner.header.n as usize,
        )
    }

    // The stats page is the whole point: the planner prices this
    // source without touching a single data page. The persisted
    // histogram was built by the same `from_sorted_by` the in-memory
    // sources use, so it is bit-identical to `VecSource`'s at the
    // persisted resolution; other resolutions would need data pages.
    fn caps(&self) -> Caps<'_> {
        let mut page_io = self.inner.page_io();
        page_io.hits += self.hits;
        Caps {
            grades: Some(Grades::kept(&self.inner.histogram)),
            page_io: Some(page_io),
        }
    }

    // `#[inline]` down to the entry decode (`current`, `entry`,
    // `entries`, `format::read_entries`, `format::read_u64`): the frozen
    // trait's blanket impl is compiled in the crate that makes its
    // `dyn`, and a half-inlined chain there costs more per entry than
    // none (≈ 17 against 6 ns on a warm page). The head is
    // `#[inline(always)]`: with a plain hint the blanket impl in
    // perfbench called it out of line once that crate's dependencies
    // grew, and its `drain_next` ran ≈ 3× slower.
    #[inline(always)]
    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        let pos = self.pos;
        let Some(page) = self.current()? else {
            return Ok(None);
        };
        let item = page.entry(pos);
        if item.is_some() {
            self.pos += 1;
        }
        Ok(item)
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        match self.inner.locate(oid) {
            Some(idx) => self.probe(idx, oid),
            None => Ok(Score::ZERO),
        }
    }
}

impl Drop for PagedSource {
    fn drop(&mut self) {
        self.fold_hits();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::source::VecSource;
    use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
    use std::path::PathBuf;

    /// The store error a failed access reports.
    fn cause(error: &SourceError) -> &StoreError {
        error
            .cause()
            .downcast_ref()
            .expect("a paged source fails with a store error")
    }

    /// Scalar sorted accesses until one fails: how many delivered, and
    /// the failure.
    fn drain_until_error(src: &mut PagedSource) -> (usize, SourceError) {
        let mut drained = 0;
        loop {
            match src.sorted_next() {
                Ok(Some(_)) => drained += 1,
                Ok(None) => panic!("the stream ended after {drained} entries"),
                Err(e) => return (drained, e),
            }
        }
    }

    /// The bounded-probe contract over an exact grade.
    fn clamp(grade: Score, bound: Score) -> Score {
        if grade >= bound {
            grade
        } else {
            Score::ZERO
        }
    }

    /// A scratch path under the workspace `target/` dir (tests must
    /// not write outside the repository).
    pub(crate) fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name)
    }

    pub(crate) fn sample_pairs(n: u64, seed: u64) -> Vec<(Oid, Score)> {
        (0..n)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (
                    i * 3,
                    Score::clamped((h >> 11) as f64 / (1u64 << 53) as f64),
                )
            })
            .collect()
    }

    /// `sample_pairs`' grades on the consecutive oids `first..first + n`.
    fn dense_pairs(first: u64, n: u64, seed: u64) -> Vec<(Oid, Score)> {
        sample_pairs(n, seed)
            .into_iter()
            .map(|(oid, grade)| (first + oid / 3, grade))
            .collect()
    }

    /// Rewrites file page `page` of the store at `path` (page size
    /// `page_size`) through `edit` and re-seals its checksum, so only
    /// what `edit` changed can be refused.
    pub(crate) fn rewrite_page(
        path: &Path,
        page_size: usize,
        page: u64,
        edit: impl FnOnce(&mut [u8]),
    ) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = page_size * page as usize;
        let frame = &mut bytes[at..at + page_size];
        edit(frame);
        let crc = format::crc32(&frame[4..]);
        frame[..4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    /// FNV-1a 64 over a whole file — a digest that shares no code with
    /// the page checksum it pins.
    fn file_digest(path: &Path) -> (usize, u64) {
        let bytes = std::fs::read(path).unwrap();
        let digest = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        (bytes.len(), digest)
    }

    /// The format is pinned: the literals were captured at the commit
    /// before `crc32` became table-driven, so a file this build writes
    /// is byte-identical to one the bitwise build wrote (and each opens
    /// under the other).
    #[test]
    fn built_files_are_byte_identical_to_the_pinned_format() {
        let pairs = sample_pairs(1000, 17);
        for (page_size, want) in [
            (512, (36_864usize, 0x6CB3_5A69_6155_D676u64)),
            (4096, (49_152, 0x8D83_93EE_2B29_B898)),
        ] {
            let path = scratch(&format!("golden-{page_size}-v{}.fmdb", format::VERSION));
            let cfg = BuildConfig::with_page_size(page_size);
            build_store(&path, "golden", pairs.clone(), &cfg).unwrap();
            assert_eq!(file_digest(&path), want, "page size {page_size}");
        }
    }

    /// The writer normalises by calling what `VecSource::new` calls: a
    /// scrambled input carrying stale duplicates writes the bytes its
    /// normalised form (ascending, each oid once) writes.
    #[test]
    fn shuffled_duplicated_input_builds_the_same_bytes() {
        let normal = sample_pairs(1000, 17);
        // Stale grades first, the real pairs after them in a scrambled
        // order: keep-last must drop every stale one.
        let mut messy: Vec<(Oid, Score)> = normal
            .iter()
            .step_by(7)
            .map(|&(oid, grade)| (oid, grade.negate()))
            .collect();
        let mut scrambled = normal.clone();
        scrambled.sort_by_key(|&(oid, _)| oid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        messy.extend(scrambled);

        let cfg = BuildConfig::with_page_size(512);
        let (tidy_path, messy_path) = (scratch("tidy.fmdb"), scratch("messy.fmdb"));
        build_store(&tidy_path, "same", normal, &cfg).unwrap();
        build_store(&messy_path, "same", messy, &cfg).unwrap();
        assert!(std::fs::read(&tidy_path).unwrap() == std::fs::read(&messy_path).unwrap());
    }

    #[test]
    fn roundtrip_matches_vecsource_exactly() {
        let pairs = sample_pairs(500, 7);
        let path = scratch("roundtrip.fmdb");
        build_store(
            &path,
            "colors",
            pairs.clone(),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let mut paged = store.source();
        let mut vec = VecSource::new("colors", pairs);

        assert_eq!(paged.info().label, vec.info().label);
        assert_eq!(paged.info().universe_size, vec.info().universe_size);

        // Whole sorted stream, bit for bit.
        loop {
            let (a, b) = (paged.sorted_next().unwrap(), vec.sorted_next().unwrap());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Random access incl. absent oids (pairs use oids ≡ 0 mod 3).
        for oid in 0..1600 {
            assert_eq!(
                paged.random_access(oid).unwrap(),
                vec.random_access(oid).unwrap(),
                "oid {oid}"
            );
        }
        // Batched access after rewind.
        paged.rewind();
        vec.rewind();
        assert_eq!(
            paged.sorted_batch(123).unwrap(),
            vec.sorted_batch(123).unwrap()
        );
        assert_eq!(
            paged.random_batch(&[0, 1, 3, 999]).unwrap(),
            vec.random_batch(&[0, 1, 3, 999]).unwrap()
        );
        // Histogram off the stats page: identical to the in-memory
        // one, with zero data-page reads charged for it.
        let before = store.page_io().reads;
        assert_eq!(
            paged.caps().histogram(DEFAULT_HISTOGRAM_BINS),
            vec.caps().histogram(DEFAULT_HISTOGRAM_BINS)
        );
        assert_eq!(store.page_io().reads, before, "stats page is in memory");
    }

    #[test]
    fn empty_store_roundtrips() {
        let path = scratch("empty.fmdb");
        build_store(&path, "empty", Vec::new(), &BuildConfig::DEFAULT).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        assert!(store.is_empty());
        let mut src = store.source();
        assert_eq!(src.sorted_next().unwrap(), None);
        assert_eq!(src.random_access(5).unwrap(), Score::ZERO);
        assert_eq!(
            src.caps().histogram(4),
            VecSource::new("empty", Vec::new()).caps().histogram(4)
        );
    }

    #[test]
    fn build_from_source_drains_and_restores() {
        let mut vec = VecSource::from_dense(
            "dense",
            &(0..300)
                .map(|i| Score::clamped(i as f64 / 300.0))
                .collect::<Vec<_>>(),
        );
        let path = scratch("from-source.fmdb");
        build_store_from_source(&path, &mut vec, &BuildConfig::DEFAULT).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        assert_eq!(store.len(), 300);
        let mut paged = store.source();
        vec.rewind();
        assert_eq!(
            paged.sorted_batch(300).unwrap(),
            vec.sorted_batch(300).unwrap()
        );
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let path = scratch("truncated.fmdb");
        build_store(
            &path,
            "t",
            sample_pairs(500, 1),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 700]).unwrap();
        assert!(matches!(
            PagedStore::open(&path, StoreOptions::DEFAULT),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_data_page_is_a_checksum_error() {
        let path = scratch("corrupt.fmdb");
        build_store(
            &path,
            "c",
            sample_pairs(500, 2),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        // Flip a bit in the middle of a data page (past header, stats,
        // directory, and bounds pages — computed from the header so
        // the offset tracks the format layout).
        let sorted_start = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            store.header().sorted_start()
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = 512 * sorted_start as usize + 100;
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open is page-local");
        let mut src = store.source();
        // Draining hits the bad page eventually: a typed error, never a
        // panic and never a short stream.
        let checksum = |e: SourceError| matches!(cause(&e), StoreError::ChecksumMismatch { .. });
        let hit_sorted = loop {
            match src.sorted_next() {
                Ok(Some(_)) => {}
                Ok(None) => break false,
                Err(e) => break checksum(e),
            }
        };
        // Random probes walk every random page: if the flipped page
        // was in the random section the error surfaces here instead.
        let hit_random = (0..1500).any(|oid| src.random_access(oid).is_err_and(checksum));
        assert!(hit_sorted || hit_random, "the corrupt page must surface");
    }

    /// A data page whose checksum is valid but whose entry count is
    /// short of what the header's geometry requires must not shorten
    /// the source silently: the read fails like a checksum failure,
    /// with a typed error.
    #[test]
    fn under_declared_entry_count_is_a_typed_error() {
        let path = scratch("under-declared.fmdb");
        build_store(
            &path,
            "u",
            sample_pairs(1000, 4),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        let header = PagedStore::open(&path, StoreOptions::DEFAULT)
            .unwrap()
            .header()
            .clone();
        assert_eq!(header.entries_per_page, 31);
        for page in [header.sorted_start() + 2, header.random_start() + 3] {
            rewrite_page(&path, 512, page, |frame| {
                assert_eq!(read_u32(frame, 4), 31);
                frame[4..8].copy_from_slice(&3u32.to_le_bytes());
            });
        }

        let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open is page-local");
        let mut src = store.source();
        let (drained, error) = drain_until_error(&mut src);
        // Pages 0 and 1 deliver; page 2 is refused whole.
        assert_eq!(drained, 62);
        assert!(matches!(
            cause(&error),
            StoreError::InvalidHeader("data page entry count disagrees with the header")
        ));
        // The random table's page 3 is refused the same way.
        let first_oid_on_page_3 = 3 * 3 * 31; // pairs use oids 0, 3, 6, …
        let error = src.random_access(first_oid_on_page_3).unwrap_err();
        assert!(matches!(cause(&error), StoreError::InvalidHeader(_)));
        // A whole page left alone still answers.
        let mut vec = VecSource::new("u", sample_pairs(1000, 4));
        assert_eq!(src.random_access(0).unwrap(), vec.random_access(0).unwrap());
    }

    /// A source whose read fails mid-drain builds no store, and the
    /// builder returns the source's error.
    #[test]
    fn a_failed_drain_builds_no_store() {
        let path = scratch("short-original.fmdb");
        let copy = scratch("short-copy.fmdb");
        let cfg = BuildConfig::with_page_size(512);
        build_store(&path, "s", sample_pairs(1000, 8), &cfg).unwrap();
        let third_sorted_page = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            store.header().sorted_start() + 2
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[512 * third_sorted_page as usize + 100] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        if copy.exists() {
            std::fs::remove_file(&copy).unwrap();
        }

        let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open is page-local");
        let built = build_store_from_source(&copy, &mut store.source(), &cfg);
        match &built {
            Err(StoreError::Source(e)) => assert!(
                matches!(cause(e), StoreError::ChecksumMismatch { page } if *page == third_sorted_page),
                "{e}"
            ),
            other => panic!("expected the source's error, got {other:?}"),
        }
        assert!(!copy.exists(), "no file is written");
    }

    /// A source that streams fewer objects than the universe it declares
    /// builds no store either.
    #[test]
    fn a_short_drain_builds_no_store() {
        struct Liar(VecSource);
        impl Subsystem for Liar {
            fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
                self.0.sorted_batch(n)
            }
            fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
                self.0.random_batch(oids)
            }
            fn rewind(&mut self) {
                self.0.rewind();
            }
            fn info(&self) -> SourceInfo {
                SourceInfo::new("liar", 1000)
            }
        }
        let copy = scratch("short-liar.fmdb");
        let mut liar = Liar(VecSource::new("liar", sample_pairs(62, 8)));
        let built = build_store_from_source(&copy, &mut liar, &BuildConfig::DEFAULT);
        assert!(
            matches!(
                built,
                Err(StoreError::ShortSource {
                    expected: 1000,
                    drained: 62
                })
            ),
            "{built:?}"
        );
        assert!(!copy.exists(), "no file is written");
    }

    #[test]
    fn non_store_file_is_bad_magic() {
        let path = scratch("not-a-store.fmdb");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        assert!(matches!(
            PagedStore::open(&path, StoreOptions::DEFAULT),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn a_cold_sequential_drain_reads_each_sorted_page_exactly_once() {
        let path = scratch("drain-once.fmdb");
        build_store(
            &path,
            "d",
            sample_pairs(2000, 9),
            &BuildConfig::with_page_size(256),
        )
        .unwrap();
        let store = PagedStore::open(&path, StoreOptions::with_pool_pages(8)).unwrap();
        let sorted_pages = store.header().sorted_pages;
        assert!(sorted_pages > 100, "far more pages than frames");
        let mut src = store.source();
        let mut drained = 0;
        loop {
            let batch = src.sorted_batch(97).unwrap();
            drained += batch.len();
            if batch.len() < 97 {
                break;
            }
        }
        assert_eq!(drained, 2000);
        let io = store.page_io();
        assert_eq!((io.reads, io.hits), (sorted_pages, 0));
    }

    #[test]
    fn pool_pages_is_the_pools_capacity() {
        let path = scratch("capacity.fmdb");
        let cfg = BuildConfig::with_page_size(256);
        build_store(&path, "c", sample_pairs(5000, 3), &cfg).unwrap();
        for capacity in [1, 3, 9, 256] {
            let store = PagedStore::open(&path, StoreOptions::with_pool_pages(capacity)).unwrap();
            assert!(store.header().sorted_pages > capacity as u64);
            let mut src = store.source();
            while src.sorted_batch(97).unwrap().len() == 97 {}
            drop(src);
            let resident = store.resident_pages();
            assert!(
                resident <= capacity,
                "a pool of {capacity} holds {resident}"
            );
        }
    }

    #[test]
    fn an_all_pinned_pool_overfills_and_recovers_at_the_next_miss() {
        let path = scratch("all-pinned.fmdb");
        build_store(
            &path,
            "p",
            sample_pairs(2000, 17),
            &BuildConfig::with_page_size(256),
        )
        .unwrap();
        let store = PagedStore::open(&path, StoreOptions::with_pool_pages(4)).unwrap();
        let per_page = store.header().entries_per_page;
        // Cursor `i` stands on sorted page `i`, pinning it.
        let cursors: Vec<PagedSource> = (0..6)
            .map(|i| {
                let mut src = store.source();
                assert_eq!(
                    src.sorted_batch(i * per_page + 1).unwrap().len(),
                    i * per_page + 1
                );
                src
            })
            .collect();
        assert_eq!(
            store.resident_pages(),
            6,
            "six pinned frames over a pool of four"
        );
        let io = store.page_io();
        assert_eq!(
            (io.reads, io.evictions),
            (6, 0),
            "no pinned frame was evicted"
        );
        drop(cursors);
        assert_eq!(store.resident_pages(), 6, "a dropped pin waits for a miss");
        store.source().random_batch(&[0]).unwrap();
        assert!(
            store.resident_pages() <= 4,
            "the next miss brings the pool back"
        );
    }

    #[test]
    fn handles_are_the_only_owners_of_the_store() {
        let path = scratch("owners.fmdb");
        build_store(&path, "o", sample_pairs(10, 5), &BuildConfig::DEFAULT).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        assert_eq!(Arc::strong_count(&store.inner), 1);
        let source = store.source();
        assert_eq!(Arc::strong_count(&store.inner), 2);
        drop(source);
        // So dropping the last handle closes the file at once.
        assert_eq!(Arc::strong_count(&store.inner), 1);
    }

    #[test]
    fn pool_counters_distinguish_cold_and_warm() {
        let pairs = sample_pairs(1000, 4);
        let path = scratch("coldwarm.fmdb");
        build_store(&path, "cw", pairs, &BuildConfig::with_page_size(512)).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let mut src = store.source();
        while src.sorted_next().unwrap().is_some() {}
        let cold = store.page_io();
        assert!(cold.reads > 0, "cold drain reads pages");
        src.rewind();
        while src.sorted_next().unwrap().is_some() {}
        let warm = store.page_io();
        assert_eq!(warm.reads, cold.reads, "warm drain reads nothing new");
        assert!(warm.hits > cold.hits, "warm drain hits the pool");
        store.clear_pool();
        assert_eq!(store.page_io(), PageIoStats::ZERO);
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn io_calibration_prices_random_above_sorted_when_cold() {
        let pairs = sample_pairs(4000, 11);
        let path = scratch("calibrate.fmdb");
        build_store(&path, "cal", pairs, &BuildConfig::with_page_size(512)).unwrap();
        let store = PagedStore::open(&path, StoreOptions::with_pool_pages(8)).unwrap();
        let mut src = store.source();
        let model = crate::stats::calibrate_cost_model_io(&mut src, 64).expect("paged source");
        assert!(
            model.random_unit / model.sorted_unit > 4.0,
            "cold random probes cost whole pages: ratio {}",
            model.random_unit / model.sorted_unit
        );
        // An in-memory source has no page counters to calibrate from.
        let mut vec = VecSource::from_dense("v", &[Score::HALF; 8]);
        assert!(crate::stats::calibrate_cost_model_io(&mut vec, 4).is_none());
    }

    #[test]
    fn zero_options_are_rejected_with_typed_errors() {
        let path = scratch("zero-options.fmdb");
        build_store(&path, "z", sample_pairs(10, 5), &BuildConfig::DEFAULT).unwrap();
        assert!(matches!(
            PagedStore::open(
                &path,
                StoreOptions {
                    pool_pages: Some(0)
                }
            ),
            Err(StoreError::InvalidOptions(_))
        ));
        // `None` is the explicit disable and still opens.
        let store = PagedStore::open(&path, StoreOptions { pool_pages: None }).unwrap();
        assert_eq!(store.len(), 10);
    }

    #[test]
    fn zero_page_size_is_rejected_at_build() {
        let path = scratch("zero-page-size.fmdb");
        let cfg = BuildConfig::with_page_size(0);
        assert!(matches!(
            build_store(&path, "z", sample_pairs(4, 1), &cfg),
            Err(StoreError::PageSizeTooSmall(0))
        ));
    }

    #[test]
    fn bounded_drain_matches_vecsource_and_skips_pages() {
        let pairs = sample_pairs(2000, 21);
        let path = scratch("bounded-drain.fmdb");
        build_store(
            &path,
            "bd",
            pairs.clone(),
            &BuildConfig::with_page_size(256),
        )
        .unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        for bound in [0.0, 0.25, 0.5, 0.9, 0.999, 1.0] {
            let bound = Score::clamped(bound);
            let mut paged = store.source();
            let mut vec = VecSource::new("bd", pairs.clone());
            let want = vec.sorted_drain_bounded(bound);
            assert_eq!(paged.sorted_drain_bounded(bound).unwrap(), want);
            // After the bounded drain both cursors sit at the first
            // below-bound entry; the rest of the stream still agrees.
            loop {
                let (a, b) = (paged.sorted_next().unwrap(), vec.sorted_next().unwrap());
                assert_eq!(a, b, "post-drain stream at bound {bound}");
                if a.is_none() {
                    break;
                }
            }
        }
        // A selective drain on a fresh cursor must actually skip.
        store.clear_pool();
        let mut paged = store.source();
        let drained = paged.sorted_drain_bounded(Score::clamped(0.95)).unwrap();
        assert!(!drained.is_empty(), "the high head still streams");
        assert!(store.page_io().skipped > 0, "the low tail is skipped");
    }

    #[test]
    fn bounded_random_probe_skips_low_pages() {
        // Grades correlate with oid so random-table pages have tight
        // grade ranges — the realistic case where per-page bounds pay.
        let pairs: Vec<(Oid, Score)> = (0..1000)
            .map(|i| (i, Score::clamped(i as f64 / 1000.0)))
            .collect();
        let path = scratch("bounded-probe.fmdb");
        build_store(
            &path,
            "bp",
            pairs.clone(),
            &BuildConfig::with_page_size(256),
        )
        .unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let mut paged = store.source();
        let mut vec = VecSource::new("bp", pairs);
        let bound = Score::clamped(0.9);
        for oid in 0..1200 {
            assert_eq!(
                paged.random_access_bounded(oid, bound).unwrap(),
                clamp(vec.random_access(oid).unwrap(), bound),
                "oid {oid}"
            );
        }
        assert!(
            store.page_io().skipped > 0,
            "low-grade pages answered from bounds"
        );
    }

    /// The oids of `sample_pairs(n, _)` in a scattered order.
    fn scattered_oids(n: u64) -> Vec<Oid> {
        // 7919 is prime and divides no `n` used here: a permutation.
        (0..n).map(|i| (i * 7919 % n) * 3).collect()
    }

    #[test]
    fn random_batch_equals_scalar_probes() {
        // Shifted up so that some oids sort below the first entry.
        let pairs: Vec<(Oid, Score)> = sample_pairs(700, 19)
            .into_iter()
            .map(|(oid, g)| (oid + 30, g))
            .collect();
        let last = 30 + 699 * 3;
        // Below the first entry, duplicates, between entries, the last
        // entry, above it — then a scattered sweep with repeats.
        let mut oids: Vec<Oid> = vec![0, 29, 30, 30, 31, 33, last, last + 1, u64::MAX, 33];
        oids.extend((0..900u64).map(|i| i * 7919 % (last + 40)));
        let want = VecSource::new("b", pairs.clone())
            .random_batch(&oids)
            .unwrap();
        let cfg = BuildConfig::with_page_size(256);
        let path = scratch("batch.fmdb");
        build_store(&path, "b", pairs.clone(), &cfg).unwrap();
        for pool_pages in [None, Some(1), Some(8), Some(256)] {
            let store = PagedStore::open(&path, StoreOptions { pool_pages }).unwrap();
            let mut src = store.source();
            let scalar: Vec<Score> = oids
                .iter()
                .map(|&oid| src.random_access(oid).unwrap())
                .collect();
            assert_eq!(scalar, want, "scalar, pool {pool_pages:?}");
            store.clear_pool();
            assert_eq!(
                src.random_batch(&oids).unwrap(),
                want,
                "batch, pool {pool_pages:?}"
            );
            assert!(src.random_batch(&[]).unwrap().is_empty());
        }

        let empty = scratch("batch-empty.fmdb");
        build_store(&empty, "e", Vec::new(), &cfg).unwrap();
        let store = PagedStore::open(&empty, StoreOptions::DEFAULT).unwrap();
        assert_eq!(
            store.source().random_batch(&[0, 7, 7, u64::MAX]).unwrap(),
            [Score::ZERO; 4]
        );
        assert_eq!(store.page_io().reads, 0);
    }

    #[test]
    fn cold_batch_reads_each_random_page_once() {
        let pairs = sample_pairs(2000, 23);
        let path = scratch("batch-once.fmdb");
        build_store(&path, "o", pairs.clone(), &BuildConfig::with_page_size(256)).unwrap();
        let store = PagedStore::open(&path, StoreOptions::with_pool_pages(8)).unwrap();
        let random_pages = store.header().random_pages;
        assert!(random_pages > 100, "far more pages than frames");
        let oids = scattered_oids(2000);
        let mut src = store.source();
        assert_eq!(
            src.random_batch(&oids).unwrap(),
            VecSource::new("o", pairs).random_batch(&oids).unwrap()
        );
        assert_eq!(store.page_io().reads, random_pages);
        // The same probes one by one thrash the eight frames.
        store.clear_pool();
        for &oid in &oids {
            let _ = src.random_access(oid).unwrap();
        }
        assert!(store.page_io().reads > 4 * random_pages);
    }

    #[test]
    fn corrupt_page_in_a_batch_fails_the_batch() {
        let pairs = sample_pairs(600, 29);
        let path = scratch("batch-corrupt.fmdb");
        build_store(&path, "x", pairs.clone(), &BuildConfig::with_page_size(512)).unwrap();
        let (bad_page, epp) = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            let header = store.header();
            (header.random_start() + 3, header.entries_per_page as u64)
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[512 * bad_page as usize + 100] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let oids = scattered_oids(600);
        let error = store.source().random_batch(&oids).unwrap_err();
        assert!(matches!(
            cause(&error),
            StoreError::ChecksumMismatch { page } if *page == bad_page
        ));
        // A batch that does not touch the page still answers.
        // Entry `i` (oid `3 i`) sits on random-table page `i / epp`.
        let clean: Vec<Oid> = oids.into_iter().filter(|oid| oid / 3 / epp != 3).collect();
        assert_eq!(
            store.source().random_batch(&clean).unwrap(),
            VecSource::new("x", pairs).random_batch(&clean).unwrap()
        );
    }

    #[test]
    fn corrupt_bounds_page_fails_open() {
        let path = scratch("corrupt-bounds.fmdb");
        build_store(
            &path,
            "cb",
            sample_pairs(500, 6),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        let bounds_start = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            assert!(store.header().bounds_pages > 0);
            store.header().bounds_start()
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[512 * bounds_start as usize + 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Bounds are validated eagerly: a corrupt summary must fail the
        // open, never silently mis-prune.
        assert!(matches!(
            PagedStore::open(&path, StoreOptions::DEFAULT),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    /// A bounded drain counts as skipped only the pages it never
    /// visits: not the one the cursor already stands inside.
    #[test]
    fn a_drain_from_inside_a_page_skips_only_the_pages_after_it() {
        let pairs = dense_pairs(0, 1000, 31);
        let path = scratch("drain-mid-page.fmdb");
        build_store(&path, "m", pairs.clone(), &BuildConfig::with_page_size(512)).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let sorted_pages = store.header().sorted_pages;
        assert_eq!(sorted_pages, 33);

        let (mut paged, mut vec) = (store.source(), VecSource::new("m", pairs));
        for _ in 0..5 {
            assert_eq!(paged.sorted_next().unwrap(), vec.sorted_next().unwrap());
        }
        assert_eq!(
            paged.sorted_drain_bounded(Score::ONE).unwrap(),
            vec.sorted_drain_bounded(Score::ONE)
        );
        let io = store.page_io();
        assert!(io.reads + io.skipped <= sorted_pages, "{io:?}");
        assert_eq!((io.reads, io.skipped), (1, 32));
        assert_eq!(
            paged.sorted_next().unwrap(),
            vec.sorted_next().unwrap(),
            "the cursor stayed"
        );

        // From a page boundary every page is skipped, as before.
        store.clear_pool();
        let mut fresh = store.source();
        assert_eq!(fresh.sorted_drain_bounded(Score::ONE).unwrap(), Vec::new());
        let io = store.page_io();
        assert_eq!((io.reads, io.skipped), (0, sorted_pages));
    }

    /// Every store the unit tests above build has oids `i * 3`, which
    /// never take the slot the page and in-page guesses try first. These
    /// do, fall back from it, or both, and every probe form still
    /// answers what `VecSource` answers.
    #[test]
    fn probes_take_the_slot_or_the_search() {
        let n = 2000;
        for page_size in [256usize, 4096] {
            let epp = ((page_size - format::PAGE_HEADER_BYTES) / format::ENTRY_BYTES) as u64;
            // One oid missing in the middle of random page 3: the page
            // guesses for the oids after it miss and fall back.
            let gap = 3 * epp + epp / 2;
            let stores = [
                ("dense", dense_pairs(0, n, 41)),
                ("shifted", dense_pairs(1000, n, 42)),
                (
                    "gap",
                    dense_pairs(0, n + 1, 43)
                        .into_iter()
                        .filter(|&(oid, _)| oid != gap)
                        .collect(),
                ),
                ("every third", sample_pairs(n, 44)),
            ];
            for (name, pairs) in stores {
                let path = scratch(&format!("slot-{name}-{page_size}.fmdb"));
                let cfg = BuildConfig::with_page_size(page_size);
                build_store(&path, name, pairs.clone(), &cfg).unwrap();
                let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
                let mut paged = store.source();
                let mut vec = VecSource::new(name, pairs.clone());
                let max = pairs.iter().map(|&(oid, _)| oid).max().unwrap();
                let mut oids: Vec<Oid> = (0..=max + 2).collect();
                oids.push(u64::MAX);
                let at = format!("{name}, page size {page_size}");
                for &oid in &oids {
                    assert_eq!(
                        paged.random_access(oid).unwrap(),
                        vec.random_access(oid).unwrap(),
                        "{at}: oid {oid}"
                    );
                    for bound in [Score::ZERO, Score::HALF] {
                        assert_eq!(
                            paged.random_access_bounded(oid, bound).unwrap(),
                            clamp(vec.random_access(oid).unwrap(), bound),
                            "{at}: oid {oid} bounded by {bound:?}"
                        );
                    }
                }
                assert_eq!(
                    paged.random_batch(&oids).unwrap(),
                    vec.random_batch(&oids).unwrap(),
                    "{at}"
                );
            }
        }

        // A page guess is taken only when it is the directory's answer,
        // even on a directory its pages do not bear out: page 4 claimed
        // to start seven oids after page 3 does.
        let path = scratch("slot-directory.fmdb");
        build_store(
            &path,
            "d",
            dense_pairs(0, 1000, 46),
            &BuildConfig::with_page_size(512),
        )
        .unwrap();
        rewrite_page(&path, 512, 2, |frame| {
            let fourth = format::PAGE_HEADER_BYTES + 4 * 8;
            frame[fourth..fourth + 8].copy_from_slice(&(3 * 31 + 7u64).to_le_bytes());
        });
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let dir = &store.inner.directory;
        for oid in (0..1100).chain([u64::MAX]) {
            let searched = dir.partition_point(|&first| first <= oid).checked_sub(1);
            assert_eq!(
                store.inner.locate(oid),
                searched.map(|i| i as u64),
                "oid {oid}"
            );
        }

        // A dense page with two entries swapped still passes its
        // checksum, so only the equality test stands between a slot
        // guess and the other oid's grade.
        let pairs = dense_pairs(0, 1000, 45);
        let path = scratch("slot-swapped.fmdb");
        build_store(&path, "w", pairs.clone(), &BuildConfig::with_page_size(512)).unwrap();
        let header = PagedStore::open(&path, StoreOptions::DEFAULT)
            .unwrap()
            .header()
            .clone();
        let epp = header.entries_per_page as u64;
        let first = 3 * epp;
        let (a, b) = (first + 5, first + 9);
        rewrite_page(&path, 512, header.random_start() + 3, |frame| {
            let slot = |i: usize| format::PAGE_HEADER_BYTES + i * format::ENTRY_BYTES;
            let fifth = frame[slot(5)..slot(6)].to_vec();
            frame.copy_within(slot(9)..slot(10), slot(5));
            frame[slot(9)..slot(10)].copy_from_slice(&fifth);
        });
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let mut paged = store.source();
        let mut vec = VecSource::new("w", pairs);
        assert_ne!(vec.random_access(a).unwrap(), vec.random_access(b).unwrap());
        let page_oids: Vec<Oid> = (first..first + epp).collect();
        let batch = paged.random_batch(&page_oids).unwrap();
        for (&oid, &batched) in page_oids.iter().zip(&batch) {
            let own = vec.random_access(oid).unwrap();
            for grade in [
                paged.random_access(oid).unwrap(),
                paged.random_access_bounded(oid, Score::ZERO).unwrap(),
                batched,
            ] {
                assert!(grade == own || grade == Score::ZERO, "oid {oid}: {grade:?}");
            }
            if oid != a && oid != b {
                assert_eq!(
                    paged.random_access(oid).unwrap(),
                    own,
                    "oid {oid} was not moved"
                );
            }
        }
    }

    /// A 64-bit LCG step: the tests' deterministic draws.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// A warm probe counts its hit on the cursor: the pool's counter
    /// sees it when the cursor rewinds or drops, and the cursor's own
    /// `caps()` sees it at once.
    #[test]
    fn probe_hits_fold_into_the_pool_exactly() {
        let pairs = dense_pairs(0, 1000, 53);
        let path = scratch("hit-accounting.fmdb");
        build_store(&path, "h", pairs, &BuildConfig::with_page_size(512)).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let epp = store.header().entries_per_page as u64;
        let every_oid: Vec<Oid> = (0..1000).collect();
        store.source().random_batch(&every_oid).unwrap();
        let warm = store.page_io();
        assert_eq!(
            warm.reads,
            store.header().random_pages,
            "every page resident"
        );

        let hits = |src: &PagedSource| src.caps().page_io.expect("paged").hits;
        let mut src = store.source();
        let n = 57;
        for i in 0..n {
            src.random_access(i * 17 % 1000).unwrap();
        }
        assert_eq!(store.page_io().hits, warm.hits, "not folded yet");
        assert_eq!(hits(&src), warm.hits + n, "the cursor sees its own hits");
        src.rewind();
        assert_eq!(store.page_io().hits, warm.hits + n, "a rewind folds them");

        // One batch over pages 2, 5 and 9, with repeats, and over the
        // last page, which is where every oid past the universe goes:
        // one hit per distinct page.
        let batch: Vec<Oid> = [2, 5, 9, 5, 2]
            .iter()
            .flat_map(|&page| [page * epp, page * epp + 3])
            .chain([1000, 5000, u64::MAX])
            .collect();
        let p = 4;
        src.random_batch(&batch).unwrap();
        src.random_access_bounded(4 * epp, Score::ZERO).unwrap();
        assert_eq!(hits(&src), warm.hits + n + p + 1);
        assert_eq!(store.page_io().hits, warm.hits + n);
        drop(src);
        let io = store.page_io();
        assert_eq!(io.hits, warm.hits + n + p + 1, "the drop folds the rest");
        assert_eq!(io.reads, warm.reads, "nothing was read");
    }

    /// The directory's answer for `oid`, by a search of its own.
    fn searched_page(store: &PagedStore, oid: Oid) -> Option<u64> {
        let dir = &store.inner.directory;
        dir.partition_point(|&first| first <= oid)
            .checked_sub(1)
            .map(|i| i as u64)
    }

    /// Random multisets of oids — repeats, oids no page holds, oids
    /// past the universe — batched over pools of one to three frames
    /// answer what `VecSource` answers, bit for bit, and read each page
    /// they touch exactly once. The every-third store's page guesses
    /// miss, so its oids are located by the directory's binary search.
    #[test]
    fn random_batches_match_the_scalar_oracle_over_tiny_pools() {
        let stores = [
            ("dense", dense_pairs(0, 2000, 59)),
            ("every third", sample_pairs(2000, 61)),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (name, pairs) in stores {
            let path = scratch(&format!("batch-oracle-{name}.fmdb"));
            build_store(
                &path,
                name,
                pairs.clone(),
                &BuildConfig::with_page_size(256),
            )
            .unwrap();
            let mut vec = VecSource::new(name, pairs.clone());
            let past = pairs.iter().map(|&(oid, _)| oid).max().unwrap() + 40;
            for frames in 1..=3 {
                let store = PagedStore::open(&path, StoreOptions::with_pool_pages(frames)).unwrap();
                if name == "every third" {
                    let missed = (0..past).filter(|&oid| {
                        let g = oid / store.header().entries_per_page as u64;
                        searched_page(&store, oid) != Some(g)
                    });
                    assert!(missed.count() as u64 > past / 2, "the guess mostly misses");
                }
                let mut src = store.source();
                for len in [0usize, 1, 2, 3, 5, 17, 100, 700, 3000] {
                    // Half the batches draw from a narrow range, so
                    // repeats are common.
                    let range = if lcg(&mut state) & 1 == 0 { past } else { 50 };
                    let oids: Vec<Oid> = (0..len)
                        .map(|_| match lcg(&mut state) % 64 {
                            0 => u64::MAX,
                            _ => lcg(&mut state) % range,
                        })
                        .collect();
                    let at = format!("{name}, {frames} frames, {len} oids");
                    let bits = |grades: Vec<Score>| -> Vec<u64> {
                        grades.into_iter().map(|g| g.value().to_bits()).collect()
                    };
                    store.clear_pool();
                    assert_eq!(
                        bits(src.random_batch(&oids).unwrap()),
                        bits(vec.random_batch(&oids).unwrap()),
                        "{at}"
                    );
                    let touched: std::collections::BTreeSet<u64> = oids
                        .iter()
                        .filter_map(|&oid| searched_page(&store, oid))
                        .collect();
                    assert_eq!(store.page_io().reads, touched.len() as u64, "{at}");
                }
            }
        }
    }

    /// `by_page` is a stable sort by page, whatever the span.
    #[test]
    fn by_page_is_a_stable_sort_by_page() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in [0usize, 1, 2, 7, 64, 500] {
            for span in [1u64, 3, 40, 5000] {
                let pages: Vec<u64> = (0..len)
                    .map(|_| match lcg(&mut state) % 8 {
                        0 => NOWHERE,
                        _ => 1000 + lcg(&mut state) % span,
                    })
                    .collect();
                let mut want: Vec<usize> = (0..len).filter(|&at| pages[at] != NOWHERE).collect();
                want.sort_by_key(|&at| pages[at]);
                assert_eq!(by_page(&pages), want, "{len} oids over {span} pages");
            }
        }
    }

    /// A sorted-run page is validated when it is read from storage, so a
    /// bad one never enters the pool; a random-table page is checked
    /// entry by entry, so one bad slot fails only the probes of it.
    #[test]
    fn sorted_pages_are_validated_on_entry_and_random_entries_on_use() {
        let pairs = sample_pairs(1000, 67);
        let path = scratch("validated-on-entry.fmdb");
        build_store(&path, "v", pairs.clone(), &BuildConfig::with_page_size(512)).unwrap();
        let header = PagedStore::open(&path, StoreOptions::DEFAULT)
            .unwrap()
            .header()
            .clone();
        let nan_at = |slot: usize| {
            move |frame: &mut [u8]| {
                let grade = format::PAGE_HEADER_BYTES + slot * format::ENTRY_BYTES + 8;
                frame[grade..grade + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
            }
        };
        let (bad_sorted, bad_random) = (header.sorted_start() + 2, header.random_start() + 3);
        rewrite_page(&path, 512, bad_sorted, nan_at(20));
        rewrite_page(&path, 512, bad_random, nan_at(5));

        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let invalid = |page: u64| move |e: SourceError| matches!(cause(&e), StoreError::InvalidGrade { page: p } if *p == page);
        let mut src = store.source();
        let (drained, error) = drain_until_error(&mut src);
        assert_eq!(drained, 62);
        assert!(invalid(bad_sorted)(error));
        assert_eq!(
            store.resident_pages(),
            2,
            "the bad page never became resident"
        );
        for _ in 0..2 {
            assert!(src.sorted_next().is_err_and(invalid(bad_sorted)));
            assert_eq!(store.resident_pages(), 2);
        }

        // Entry `i` (oid `3 i`) sits on random-table page `i / 31`.
        let mut vec = VecSource::new("v", pairs);
        let (first, bad_oid) = (3 * 3 * 31, 3 * (3 * 31 + 5));
        for oid in (first..first + 3 * 31).step_by(3) {
            let probe = src.random_access(oid);
            if oid == bad_oid {
                assert!(probe.is_err_and(invalid(bad_random)));
            } else {
                assert_eq!(probe.unwrap(), vec.random_access(oid).unwrap(), "oid {oid}");
            }
        }
        assert!(src
            .random_batch(&[first, bad_oid])
            .is_err_and(invalid(bad_random)));
        assert_eq!(store.resident_pages(), 3, "the random page is resident");
    }

    /// The cursor reads entries in place from the pinned frame, and
    /// still refuses a page with a bad grade whole on its first visit.
    #[test]
    fn in_place_sorted_reads_keep_the_failure_model() {
        let pairs = sample_pairs(1000, 47);
        let path = scratch("in-place.fmdb");
        build_store(&path, "i", pairs.clone(), &BuildConfig::with_page_size(512)).unwrap();

        // Clean: any mix of the sorted forms equals `VecSource` step by
        // step, page turns and rewinds included.
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let (mut paged, mut vec) = (store.source(), VecSource::new("i", pairs));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..2000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (state >> 33) % 32 {
                0..=11 => assert_eq!(
                    paged.sorted_next().unwrap(),
                    vec.sorted_next().unwrap(),
                    "step {step}"
                ),
                12..=27 => assert_eq!(
                    paged.sorted_batch(7).unwrap(),
                    vec.sorted_batch(7).unwrap(),
                    "step {step}"
                ),
                28..=30 => {
                    let bound = Score::clamped(((state >> 40) % 1000) as f64 / 1000.0);
                    assert_eq!(
                        paged.sorted_drain_bounded(bound).unwrap(),
                        vec.sorted_drain_bounded(bound),
                        "step {step}"
                    );
                }
                _ => {
                    paged.rewind();
                    vec.rewind();
                }
            }
        }
        drop((paged, store));

        // A NaN grade at slot 20 of sorted page 2, under a valid checksum.
        let bad_page = {
            let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
            store.header().sorted_start() + 2
        };
        rewrite_page(&path, 512, bad_page, |frame| {
            let grade = format::PAGE_HEADER_BYTES + 20 * format::ENTRY_BYTES + 8;
            frame[grade..grade + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        });
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).expect("open is page-local");
        let bad = |e: SourceError| matches!(cause(&e), StoreError::InvalidGrade { page } if *page == bad_page);
        let mut src = store.source();
        let (drained, error) = drain_until_error(&mut src);
        // Pages 0 and 1 deliver; page 2 is refused whole, slots 0–19
        // included, and the cursor stays in front of it.
        assert_eq!(drained, 62);
        assert!(bad(error));
        assert!(src.sorted_next().is_err_and(bad));
        assert!(store.source().sorted_batch(usize::MAX).is_err_and(bad));
    }
}
