//! On-disk format of the paged column store: page layout, checksums,
//! and the crash-safe one-shot writer.
//!
//! A store file is a sequence of fixed-size pages:
//!
//! ```text
//! page 0                      header (magic, version, geometry, label, table kind)
//! page 1                      stats  (persisted equi-depth histogram)
//! pages 2 .. 2+D              directory (first oid of each random page; D = 0 for a grade table)
//! pages 2+D .. 2+D+B          page bounds ((min, max) grade per data page)
//! pages 2+D+B .. 2+D+B+S      sorted run   (grade-desc, oid-asc entries)
//! pages 2+D+B+S .. 2+D+B+S+R  random table (oid-asc: entries, or grades alone)
//! ```
//!
//! The random table takes one of two forms ([`RandomTable`]), chosen
//! once per file from its oids. A list whose oids are one consecutive
//! run `first..first + n` — every list over a dense universe (DESIGN
//! §17) — stores its grades alone, 8 bytes a slot, and the oid of slot
//! `s` on random page `p` is `first + p · slots_per_page + s`: no
//! directory, twice the slots of an entry page (511 against 255 at
//! 4 KiB), so about half the pages behind every random read. Any other
//! list keeps `(oid, grade)` entries found through the directory.
//!
//! The bounds section holds one `(min_grade, max_grade)` f64-bit pair
//! per data page — sorted-run pages first, then random-table pages —
//! and powers the zone-map pruning layer: a drain holding a live
//! threshold stops at the first sorted page whose persisted `max`
//! falls below it, and bounded probes skip pages entirely outside the
//! requested grade range. The format has one version, [`VERSION`]; a
//! file declaring any other is refused with
//! [`StoreError::UnsupportedVersion`]. The table kind sits past the
//! longest label, where every earlier file has zeros: an entry table.
//!
//! Every page carries a CRC32 over its post-checksum bytes, so a torn
//! or bit-flipped page surfaces as [`StoreError::ChecksumMismatch`],
//! never as silent bad grades. Entries are 16 bytes — little-endian
//! `oid: u64` followed by the grade's `f64` bit pattern — and a grade
//! table's slots are the bit pattern alone, so grades round-trip
//! bit-exactly ([`fmdb_core::score::Score::value`] → `to_bits` →
//! `from_bits`).
//!
//! The writer is one-shot and crash-safe: everything is written to
//! `<path>.tmp`, fsynced, renamed over `<path>`, and the parent
//! directory fsynced — a crash at any point leaves either the old
//! file or the new one, never a half-written store.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::{GradeHistogram, DEFAULT_HISTOGRAM_BINS};

use crate::source::{by_oid, stream_order, Oid};

/// Magic bytes opening every store file (version baked into the name).
pub const MAGIC: [u8; 8] = *b"FMDBPGS1";

/// Format version written into the header (2: per-page grade bounds),
/// and the only one this build reads.
pub const VERSION: u32 = 2;

/// Smallest supported page size: the header (with a bounded label)
/// and a useful number of entries must fit on one page.
pub const MIN_PAGE_SIZE: usize = 256;

/// Default page size: one filesystem block.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes of per-page overhead: `u32` checksum + `u32` entry count.
pub const PAGE_HEADER_BYTES: usize = 8;

/// Bytes per `(oid, grade)` entry.
pub const ENTRY_BYTES: usize = 16;

/// Bytes per slot of a grade table: the grade's `f64` bit pattern.
pub const GRADE_BYTES: usize = 8;

/// Longest label a store can persist.
pub const MAX_LABEL_BYTES: usize = 128;

/// Fixed header fields before the variable-length label; the last is
/// the `u32` bounds-page count at offset 60.
const HEADER_FIXED_BYTES: usize = 64;

/// Header offset of the random table's kind (`u32`: 0 entries, 1
/// grades), then of a grade table's first oid (`u64`, at `+ 8`): past
/// the longest label and inside the smallest page, where a file
/// written before grade tables holds zeros.
const TABLE_KIND_OFFSET: usize = HEADER_FIXED_BYTES + MAX_LABEL_BYTES;

/// Write buffer of the builder, in bytes: sixteen 4 KiB pages a
/// `write` call. With 8 KiB, creating, writing and fsyncing a 262-page
/// file took 908–1 069 µs, with 64 KiB 685–799 µs (best of 40, three
/// runs, 2-core x86-64 VM).
const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// Everything that can go wrong opening, reading, or building a store.
///
/// This is the typed-error surface `clippy::unwrap_used`, `expect_used`
/// and `panic` demand: a truncated file, a corrupt page, or an
/// undecodable grade is a value the caller handles, never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the store magic.
    BadMagic,
    /// The file's format version is not [`VERSION`], the one this build
    /// reads.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims it should be.
    Truncated {
        /// Bytes the header's geometry requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A page's stored CRC32 does not match its contents.
    ChecksumMismatch {
        /// The page index within the file.
        page: u64,
    },
    /// A header field is internally inconsistent.
    InvalidHeader(&'static str),
    /// A persisted grade's bit pattern decodes outside `[0, 1]`.
    InvalidGrade {
        /// The page the bad entry was read from.
        page: u64,
    },
    /// The label passed to the builder exceeds [`MAX_LABEL_BYTES`].
    LabelTooLong(usize),
    /// The requested page size is below [`MIN_PAGE_SIZE`].
    PageSizeTooSmall(usize),
    /// The persisted stats page does not reassemble into a histogram.
    InvalidStats,
    /// An open-time knob is self-contradictory (e.g. `Some(0)` frames —
    /// use `None` to disable a feature explicitly).
    InvalidOptions(&'static str),
    /// The source a store was to be built from streamed a different
    /// number of objects than its `info().universe_size` declares: it
    /// lies about its universe. No file is written.
    ShortSource {
        /// Objects the source declares.
        expected: u64,
        /// Objects its sorted stream delivered.
        drained: u64,
    },
    /// A source failed an access: the source a store was to be built
    /// from (no file is written), or a cursor of an open store.
    Source(crate::source::SourceError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a paged store (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store format version {v}")
            }
            StoreError::Truncated { expected, actual } => {
                write!(f, "store truncated: need {expected} bytes, found {actual}")
            }
            StoreError::ChecksumMismatch { page } => {
                write!(f, "checksum mismatch on page {page}")
            }
            StoreError::InvalidHeader(what) => write!(f, "invalid store header: {what}"),
            StoreError::InvalidGrade { page } => {
                write!(f, "grade outside [0,1] on page {page}")
            }
            StoreError::LabelTooLong(n) => {
                write!(
                    f,
                    "label of {n} bytes exceeds the {MAX_LABEL_BYTES}-byte cap"
                )
            }
            StoreError::PageSizeTooSmall(n) => {
                write!(f, "page size {n} below the {MIN_PAGE_SIZE}-byte minimum")
            }
            StoreError::InvalidStats => write!(f, "persisted stats page is not a histogram"),
            StoreError::InvalidOptions(what) => {
                write!(f, "invalid store options: {what}")
            }
            StoreError::ShortSource { expected, drained } => write!(
                f,
                "source streamed {drained} of the {expected} objects it declares"
            ),
            StoreError::Source(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The reflected IEEE 802.3 CRC32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Independent CRC registers [`crc32`] runs side by side: braid `i`
/// takes words `i`, `i + N`, `i + 2N`, … of each block of
/// `N` little-endian words.
const CRC_BRAIDS: usize = 4;

/// Bytes in a word, the unit a register advances over per step.
const WORD_BYTES: usize = 8;

/// Eight tables of 256 registers, one per byte position of a word.
type WordTables = [[u32; 256]; WORD_BYTES];

/// `CRC_WORD[k][b]` is the register after byte `b` at position `k` of
/// a word, advanced over the word's remaining `7 − k` (zero) bytes:
/// one look-up per byte carries a register across a whole word. Row 7
/// is the classic byte-at-a-time table.
static CRC_WORD: WordTables = crc_tables(0);

/// `CRC_BRAID[k][b]` is `CRC_WORD[k][b]` advanced further over the
/// other braids' `(N − 1)·8` bytes, to the start of the same braid's
/// next word.
static CRC_BRAID: WordTables = crc_tables((CRC_BRAIDS - 1) * WORD_BYTES);

/// The word tables, each entry advanced over `skip` more zero bytes.
const fn crc_tables(skip: usize) -> WordTables {
    let mut byte = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        byte[b] = crc;
        b += 1;
    }
    // One zero byte moves a register `r` to `(r >> 8) ^ byte[r & 0xFF]`.
    let mut tables = [[0u32; 256]; WORD_BYTES];
    let mut b = 0;
    while b < 256 {
        let mut crc = byte[b];
        let mut z = 0;
        while z < skip {
            crc = (crc >> 8) ^ byte[(crc & 0xFF) as usize];
            z += 1;
        }
        let mut k = WORD_BYTES;
        while k > 0 {
            k -= 1;
            tables[k][b] = crc;
            crc = (crc >> 8) ^ byte[(crc & 0xFF) as usize];
        }
        b += 1;
    }
    tables
}

/// Advances a register already folded into the word `x` across the
/// word and whatever else `tables` skips.
#[inline(always)]
fn crc_word(tables: &WordTables, x: u64) -> u32 {
    let bytes = x.to_le_bytes();
    let mut crc = 0;
    for (table, &b) in tables.iter().zip(&bytes) {
        crc ^= table[b as usize];
    }
    crc
}

/// CRC32 (IEEE 802.3 polynomial, reflected), braided word at a time
/// as in zlib: the input is read as little-endian `u64` words dealt
/// round-robin to `CRC_BRAIDS` independent registers, so four chains
/// of eight table look-ups run side by side instead of one.
///
/// Each register steps through `CRC_BRAID`, which also skips the other
/// braids' words. The last whole block folds the registers serially
/// through `CRC_WORD`, words past it take `CRC_WORD` one at a time and
/// bytes past the last word the byte table: the result is the
/// bit-at-a-time CRC, bit for bit, so every stored checksum stands.
///
/// Every page is checksummed once at build and once per storage read,
/// so this is the unit cost of a page miss. On one 4 KiB page (4 092
/// checksummed bytes, fastest of 40 rounds, 2-core x86-64 VM) the
/// bit-at-a-time loop took 21.4 µs, slice-by-16 2.0–2.3 µs and the
/// braids 0.86–1.65 µs. E18's `cold_us_per_page_read` gates the whole
/// page miss.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<WORD_BYTES>();
    let (blocks, rest) = words.as_chunks::<CRC_BRAIDS>();
    let mut crc: u32 = 0xFFFF_FFFF;
    if let Some((last, braided)) = blocks.split_last() {
        let mut braids = [0u32; CRC_BRAIDS];
        braids[0] = crc;
        for block in braided {
            for (reg, word) in braids.iter_mut().zip(block) {
                *reg = crc_word(&CRC_BRAID, u64::from_le_bytes(*word) ^ u64::from(*reg));
            }
        }
        crc = 0;
        for (reg, word) in braids.iter().zip(last) {
            crc = crc_word(&CRC_WORD, u64::from_le_bytes(*word) ^ u64::from(reg ^ crc));
        }
    }
    for word in rest {
        crc = crc_word(&CRC_WORD, u64::from_le_bytes(*word) ^ u64::from(crc));
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_WORD[WORD_BYTES - 1][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Reads a little-endian `u32` at `off`. Caller guarantees bounds
/// (pages are fixed-size buffers the reader allocated itself).
pub(crate) fn read_u32(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    // No overflow: off is a within-page field offset
    // (< PAGE_SIZE), so off + 4 cannot wrap; the slice op
    // bounds-checks against the page buffer regardless.
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Reads a little-endian `u64` at `off` (same bounds contract).
#[inline]
pub(crate) fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    // No overflow: same within-page contract — off + 8
    // cannot wrap and the slice op bounds-checks.
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    // No overflow: within-page field offset, cannot
    // wrap; slice op bounds-checks.
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    // No overflow: within-page field offset, cannot
    // wrap; slice op bounds-checks.
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Stamps the page's CRC32 (over bytes 4..) into its first word.
fn seal_page(page: &mut [u8]) {
    let crc = crc32(&page[4..]);
    write_u32(page, 0, crc);
}

/// Verifies a page's stored CRC32.
pub(crate) fn verify_page(page: &[u8], index: u64) -> Result<(), StoreError> {
    if page.len() < PAGE_HEADER_BYTES {
        return Err(StoreError::InvalidHeader("page shorter than its header"));
    }
    if read_u32(page, 0) != crc32(&page[4..]) {
        return Err(StoreError::ChecksumMismatch { page: index });
    }
    Ok(())
}

/// How a store's random table finds an oid's grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomTable {
    /// `(oid, grade)` entries ascending by oid, `entries_per_page` to a
    /// page, each page's first oid in the directory: any set of oids.
    Entries,
    /// Grades alone for the consecutive oids `first..first + n`,
    /// [`Header::random_slots_per_page`] to a page: slot `s` of random
    /// page `p` holds oid `first + p · slots + s`.
    Grades {
        /// The smallest oid of the list.
        first: Oid,
    },
}

impl RandomTable {
    /// The table [`write_store`] writes for `by_id` (ascending, each
    /// oid once): grades alone iff the oids are one consecutive run.
    fn of(by_id: &[(Oid, Score)]) -> RandomTable {
        match (by_id.first(), by_id.last()) {
            (Some(&(first, _)), Some(&(last, _))) if last - first == by_id.len() as u64 - 1 => {
                RandomTable::Grades { first }
            }
            _ => RandomTable::Entries,
        }
    }

    /// Oids a random-table page of `page_size` bytes holds.
    fn slots_per_page(self, page_size: usize) -> usize {
        let slot_bytes = match self {
            RandomTable::Entries => ENTRY_BYTES,
            RandomTable::Grades { .. } => GRADE_BYTES,
        };
        (page_size - PAGE_HEADER_BYTES) / slot_bytes
    }
}

/// The decoded header page: file geometry and identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format version the file was written with ([`VERSION`]).
    pub version: u32,
    /// Fixed page size in bytes.
    pub page_size: usize,
    /// Number of `(oid, grade)` entries the store holds.
    pub n: u64,
    /// Entries per sorted-run page (and per page of an entry table):
    /// `(page_size - 8) / 16`.
    pub entries_per_page: usize,
    /// Directory pages (one `u64` first-oid per random page; none for a
    /// grade table).
    pub dir_pages: u64,
    /// Pages of the grade-descending sorted run.
    pub sorted_pages: u64,
    /// Pages of the oid-ascending random table.
    pub random_pages: u64,
    /// Pages of the per-data-page grade-bounds section.
    pub bounds_pages: u64,
    /// Bucket count of the persisted histogram (0 for an empty store).
    pub hist_bins: u32,
    /// Universe the persisted histogram describes.
    pub hist_universe: u64,
    /// The source label ([`crate::source::SourceInfo::label`]).
    pub label: String,
    /// The random table's form.
    pub random_table: RandomTable,
}

impl Header {
    /// First page of the directory section.
    pub fn dir_start(&self) -> u64 {
        2
    }

    /// First page of the grade-bounds section.
    pub fn bounds_start(&self) -> u64 {
        2 + self.dir_pages
    }

    /// First page of the sorted run.
    pub fn sorted_start(&self) -> u64 {
        self.bounds_start() + self.bounds_pages
    }

    /// First page of the random table.
    pub fn random_start(&self) -> u64 {
        self.sorted_start() + self.sorted_pages
    }

    /// Oids per random-table page: `entries_per_page` for an entry
    /// table, `(page_size - 8) / 8` for a grade table.
    pub fn random_slots_per_page(&self) -> usize {
        self.random_table.slots_per_page(self.page_size)
    }

    /// Entries data page `page` (a file page of the sorted run or the
    /// random table) must declare: a full page, except that the last
    /// page of each section holds the remainder.
    pub(crate) fn data_page_entries(&self, page: u64) -> u64 {
        let (section, per_page) = if page >= self.random_start() {
            (self.random_start(), self.random_slots_per_page())
        } else {
            (self.sorted_start(), self.entries_per_page)
        };
        let per_page = per_page as u64;
        let before = page.saturating_sub(section).saturating_mul(per_page);
        self.n.saturating_sub(before).min(per_page)
    }

    /// Total pages in the file.
    pub fn total_pages(&self) -> u64 {
        self.random_start() + self.random_pages
    }

    /// Total bytes the file must hold.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }
}

/// Build-time knobs for [`build_store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Page size in bytes (min [`MIN_PAGE_SIZE`]).
    pub page_size: usize,
    /// Bins of the histogram persisted on the stats page. Clamped so
    /// the bounds fit one page.
    pub histogram_bins: usize,
}

impl BuildConfig {
    /// 4 KiB pages, default-resolution histogram.
    pub const DEFAULT: BuildConfig = BuildConfig {
        page_size: DEFAULT_PAGE_SIZE,
        histogram_bins: DEFAULT_HISTOGRAM_BINS,
    };

    /// The default with a different page size.
    pub fn with_page_size(page_size: usize) -> BuildConfig {
        BuildConfig {
            page_size,
            ..BuildConfig::DEFAULT
        }
    }
}

impl Default for BuildConfig {
    fn default() -> BuildConfig {
        BuildConfig::DEFAULT
    }
}

/// The canonical tmp-file path the writer stages into.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Builds a store file at `path` from `(oid, grade)` pairs, crash-safely.
///
/// The pairs are normalized exactly as [`crate::source::VecSource::new`]
/// normalizes them — duplicate oids keep the *last* grade, the sorted
/// run is ordered by descending grade then ascending oid — so a
/// [`super::PagedSource`] over the result is bit-identical to a
/// `VecSource` over the same pairs. The whole file is written to
/// `<path>.tmp`, fsynced, atomically renamed over `path`, and the
/// parent directory fsynced.
pub fn build_store(
    path: &Path,
    label: &str,
    pairs: Vec<(Oid, Score)>,
    cfg: &BuildConfig,
) -> Result<(), StoreError> {
    let by_id = by_oid(Cow::Owned(pairs));
    let sorted = run_of(stream_order(&by_id));
    write_store(path, label, &sorted, &by_id, cfg)
}

/// A stream's entries as the pairs the writer lays out.
pub(crate) fn run_of(stream: Vec<ScoredObject<Oid>>) -> Vec<(Oid, Score)> {
    // Same size and alignment: collected in place.
    stream.into_iter().map(|so| (so.id, so.grade)).collect()
}

/// Writes the store of one normalised list crash-safely: `sorted`, its
/// pairs in the order of sorted access, and `by_id`, the same pairs
/// ascending by oid, each oid once.
pub(crate) fn write_store(
    path: &Path,
    label: &str,
    sorted: &[(Oid, Score)],
    by_id: &[(Oid, Score)],
    cfg: &BuildConfig,
) -> Result<(), StoreError> {
    if cfg.page_size < MIN_PAGE_SIZE {
        return Err(StoreError::PageSizeTooSmall(cfg.page_size));
    }
    if label.len() > MAX_LABEL_BYTES {
        return Err(StoreError::LabelTooLong(label.len()));
    }
    let page_size = cfg.page_size;
    let entries_per_page = (page_size - PAGE_HEADER_BYTES) / ENTRY_BYTES;
    let dir_entries_per_page = (page_size - PAGE_HEADER_BYTES) / 8;

    let n = sorted.len() as u64;
    let random_table = RandomTable::of(by_id);
    let sorted_pages = n.div_ceil(entries_per_page as u64);
    let random_pages = n.div_ceil(random_table.slots_per_page(page_size) as u64);
    let dir_pages = match random_table {
        RandomTable::Entries => random_pages.div_ceil(dir_entries_per_page as u64),
        RandomTable::Grades { .. } => 0,
    };
    // One (min, max) pair per data page; pairs are entry-sized, so the
    // bounds section packs at the data-page entry rate.
    let bounds_pages = (sorted_pages + random_pages).div_ceil(entries_per_page as u64);

    // The histogram must fit the single stats page.
    let max_bounds = (page_size - PAGE_HEADER_BYTES) / 8;
    let bins = cfg
        .histogram_bins
        .max(1)
        .min(max_bounds.saturating_sub(1).max(1));
    let histogram = GradeHistogram::from_sorted_by(sorted.len(), bins, |i| {
        sorted.get(i).map_or(Score::ZERO, |&(_, grade)| grade)
    });

    let header = Header {
        version: VERSION,
        page_size,
        n,
        entries_per_page,
        dir_pages,
        sorted_pages,
        random_pages,
        bounds_pages,
        hist_bins: histogram.bins() as u32,
        hist_universe: histogram.universe() as u64,
        label: label.to_owned(),
        random_table,
    };

    let staging = staging_path(path);
    let result = write_all_pages(&staging, &header, sorted, by_id, &histogram);
    if result.is_err() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup of the staging file; the write error in `result` is the one the caller needs"
        )]
        let _ = std::fs::remove_file(&staging);
        return result;
    }
    std::fs::rename(&staging, path)?;
    // fsync the parent directory so the rename itself is durable.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Writes every page of the store into `staging`, through one buffer,
/// and fsyncs it.
fn write_all_pages(
    staging: &Path,
    header: &Header,
    sorted: &[(Oid, Score)],
    by_id: &[(Oid, Score)],
    histogram: &GradeHistogram,
) -> Result<(), StoreError> {
    let page_size = header.page_size;
    // One write call per buffer, not per page: a 512-byte-page store
    // of 32 768 entries has 2 120 pages.
    let mut file = BufWriter::with_capacity(
        WRITE_BUFFER_BYTES,
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(staging)?,
    );
    let mut page = vec![0u8; page_size];

    // Page 0: header.
    write_header(&mut page, header)?;
    file.write_all(&page)?;

    // Page 1: stats — bound count then each bound's f64 bit pattern.
    page.iter_mut().for_each(|b| *b = 0);
    let bounds = histogram.bounds();
    write_u32(&mut page, 4, bounds.len() as u32);
    for (i, &b) in bounds.iter().enumerate() {
        write_u64(&mut page, PAGE_HEADER_BYTES + i * 8, b.to_bits());
    }
    seal_page(&mut page);
    file.write_all(&page)?;

    // Directory pages: first oid of each page of an entry table.
    let epp = header.entries_per_page;
    let slots = header.random_slots_per_page();
    let dir_entries_per_page = (page_size - PAGE_HEADER_BYTES) / 8;
    let first_oids: Vec<Oid> = match header.random_table {
        RandomTable::Entries => by_id.chunks(epp).map(|c| c[0].0).collect(),
        RandomTable::Grades { .. } => Vec::new(),
    };
    for chunk in first_oids.chunks(dir_entries_per_page.max(1)) {
        page.iter_mut().for_each(|b| *b = 0);
        write_u32(&mut page, 4, chunk.len() as u32);
        for (i, &oid) in chunk.iter().enumerate() {
            write_u64(&mut page, PAGE_HEADER_BYTES + i * 8, oid);
        }
        seal_page(&mut page);
        file.write_all(&page)?;
    }
    // An empty store still owns its directory page count (0), nothing
    // to pad.

    // Bounds pages: one (min, max) grade pair per data page, sorted
    // run first then random table, entry-sized pairs.
    let mut page_bounds: Vec<(Score, Score)> = Vec::new();
    for (section, per_page) in [(sorted, epp), (by_id, slots)] {
        for chunk in section.chunks(per_page) {
            let mut lo = Score::ONE;
            let mut hi = Score::ZERO;
            for &(_, grade) in chunk {
                lo = lo.min(grade);
                hi = hi.max(grade);
            }
            page_bounds.push((lo, hi));
        }
    }
    for chunk in page_bounds.chunks(epp.max(1)) {
        page.iter_mut().for_each(|b| *b = 0);
        write_u32(&mut page, 4, chunk.len() as u32);
        for (i, &(lo, hi)) in chunk.iter().enumerate() {
            let off = PAGE_HEADER_BYTES + i * ENTRY_BYTES;
            write_u64(&mut page, off, lo.value().to_bits());
            write_u64(&mut page, off + 8, hi.value().to_bits());
        }
        seal_page(&mut page);
        file.write_all(&page)?;
    }

    // Sorted run, then random table: entries, or a grade table's
    // grades alone.
    let grades_alone = matches!(header.random_table, RandomTable::Grades { .. });
    for (section, per_page, oids) in [(sorted, epp, true), (by_id, slots, !grades_alone)] {
        for chunk in section.chunks(per_page) {
            page.iter_mut().for_each(|b| *b = 0);
            write_u32(&mut page, 4, chunk.len() as u32);
            for (i, &(oid, grade)) in chunk.iter().enumerate() {
                let bits = grade.value().to_bits();
                if oids {
                    let off = PAGE_HEADER_BYTES + i * ENTRY_BYTES;
                    write_u64(&mut page, off, oid);
                    write_u64(&mut page, off + 8, bits);
                } else {
                    write_u64(&mut page, PAGE_HEADER_BYTES + i * GRADE_BYTES, bits);
                }
            }
            seal_page(&mut page);
            file.write_all(&page)?;
        }
    }

    // `into_inner` flushes and hands back the flush's error.
    let file = file.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    Ok(())
}

/// Encodes the header page, checksummed like every other page.
fn write_header(page: &mut [u8], header: &Header) -> Result<(), StoreError> {
    page.iter_mut().for_each(|b| *b = 0);
    let label = header.label.as_bytes();
    let label_off = HEADER_FIXED_BYTES;
    if label_off + label.len() > page.len() {
        return Err(StoreError::LabelTooLong(label.len()));
    }
    page[4..12].copy_from_slice(&MAGIC);
    write_u32(page, 12, header.version);
    write_u32(page, 16, header.page_size as u32);
    write_u64(page, 20, header.n);
    write_u32(page, 28, header.entries_per_page as u32);
    write_u32(page, 32, header.dir_pages as u32);
    write_u32(page, 36, header.sorted_pages as u32);
    write_u32(page, 40, header.random_pages as u32);
    write_u32(page, 44, header.hist_bins);
    write_u64(page, 48, header.hist_universe);
    write_u32(page, 56, label.len() as u32);
    write_u32(page, 60, header.bounds_pages as u32);
    page[label_off..label_off + label.len()].copy_from_slice(label);
    if let RandomTable::Grades { first } = header.random_table {
        write_u32(page, TABLE_KIND_OFFSET, 1);
        write_u64(page, TABLE_KIND_OFFSET + 8, first);
    }
    seal_page(page);
    Ok(())
}

/// Decodes and validates a header page read from disk.
pub(crate) fn decode_header(page: &[u8]) -> Result<Header, StoreError> {
    if page.len() < HEADER_FIXED_BYTES {
        return Err(StoreError::InvalidHeader("header page too short"));
    }
    if page[4..12] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // Magic first, checksum second: a non-store file should say "not a
    // store", not "corrupt store".
    verify_page(page, 0)?;
    let version = read_u32(page, 12);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let page_size = read_u32(page, 16) as usize;
    if page_size != page.len() || page_size < MIN_PAGE_SIZE {
        return Err(StoreError::InvalidHeader("page size disagrees with file"));
    }
    let n = read_u64(page, 20);
    let entries_per_page = read_u32(page, 28) as usize;
    if entries_per_page != (page_size - PAGE_HEADER_BYTES) / ENTRY_BYTES || entries_per_page == 0 {
        return Err(StoreError::InvalidHeader("entries-per-page mismatch"));
    }
    let dir_pages = read_u32(page, 32) as u64;
    let sorted_pages = read_u32(page, 36) as u64;
    let random_pages = read_u32(page, 40) as u64;
    let random_table = match read_u32(page, TABLE_KIND_OFFSET) {
        0 => RandomTable::Entries,
        1 => {
            let first = read_u64(page, TABLE_KIND_OFFSET + 8);
            // A grade table holds the oids `first..=first + n − 1`.
            if n == 0 || first.checked_add(n - 1).is_none() || dir_pages != 0 {
                return Err(StoreError::InvalidHeader(
                    "grade table disagrees with its oids",
                ));
            }
            RandomTable::Grades { first }
        }
        _ => return Err(StoreError::InvalidHeader("unknown random table kind")),
    };
    if sorted_pages != n.div_ceil(entries_per_page as u64)
        || random_pages != n.div_ceil(random_table.slots_per_page(page_size) as u64)
    {
        return Err(StoreError::InvalidHeader("page counts disagree with n"));
    }
    let hist_bins = read_u32(page, 44);
    let hist_universe = read_u64(page, 48);
    let label_len = read_u32(page, 56) as usize;
    let bounds_pages = read_u32(page, 60) as u64;
    if bounds_pages != (sorted_pages + random_pages).div_ceil(entries_per_page as u64) {
        return Err(StoreError::InvalidHeader(
            "bounds page count disagrees with data pages",
        ));
    }
    let label_off = HEADER_FIXED_BYTES;
    if label_len > MAX_LABEL_BYTES || label_off + label_len > page_size {
        return Err(StoreError::InvalidHeader("label length out of range"));
    }
    let label = std::str::from_utf8(&page[label_off..label_off + label_len])
        .map_err(|_| StoreError::InvalidHeader("label is not UTF-8"))?
        .to_owned();
    Ok(Header {
        version,
        page_size,
        n,
        entries_per_page,
        dir_pages,
        sorted_pages,
        random_pages,
        bounds_pages,
        hist_bins,
        hist_universe,
        label,
        random_table,
    })
}

/// Decodes one `(oid, grade)` entry at slot `i` of a data page.
pub(crate) fn decode_entry(
    page: &[u8],
    i: usize,
    page_index: u64,
) -> Result<ScoredObject<Oid>, StoreError> {
    let off = PAGE_HEADER_BYTES + i * ENTRY_BYTES;
    let oid = read_u64(page, off);
    let bits = read_u64(page, off + 8);
    let grade = Score::new(f64::from_bits(bits))
        .map_err(|_| StoreError::InvalidGrade { page: page_index })?;
    Ok(ScoredObject::new(oid, grade))
}

/// Decodes the grade at slot `i` of a grade-table page, validated as
/// [`decode_entry`] validates an entry's.
pub(crate) fn decode_grade(page: &[u8], i: usize, page_index: u64) -> Result<Score, StoreError> {
    let bits = read_u64(page, PAGE_HEADER_BYTES + i * GRADE_BYTES);
    Score::new(f64::from_bits(bits)).map_err(|_| StoreError::InvalidGrade { page: page_index })
}

/// Checks the grade of each of a data page's first `count` entries as
/// [`decode_entry`] does (`Score::new`'s range, which no NaN is in), in
/// one pass over the page, so that [`read_entries`] may read any of
/// them afterwards.
pub(crate) fn validate_entries(
    page: &[u8],
    count: usize,
    page_index: u64,
) -> Result<(), StoreError> {
    let valid = page[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + count * ENTRY_BYTES]
        .chunks_exact(ENTRY_BYTES)
        .all(|entry| (0.0..=1.0).contains(&f64::from_bits(read_u64(entry, 8))));
    if valid {
        Ok(())
    } else {
        Err(StoreError::InvalidGrade { page: page_index })
    }
}

/// Slots `from..to` of a data page whose entries [`validate_entries`]
/// accepted: what [`decode_entry`] returns for each, bit for bit,
/// without the `Result` (`Score::clamped` is the identity on a grade
/// `Score::new` accepts, `-0.0` folding included).
#[inline]
pub(crate) fn read_entries(
    page: &[u8],
    from: usize,
    to: usize,
) -> impl Iterator<Item = ScoredObject<Oid>> + '_ {
    let off = |i: usize| PAGE_HEADER_BYTES + i * ENTRY_BYTES;
    page[off(from)..off(to)]
        .chunks_exact(ENTRY_BYTES)
        .map(|entry| {
            let grade = Score::clamped(f64::from_bits(read_u64(entry, 8)));
            ScoredObject::new(read_u64(entry, 0), grade)
        })
}

/// The entry count a data page declares (bounded by what fits).
pub(crate) fn page_entry_count(page: &[u8], entries_per_page: usize) -> usize {
    (read_u32(page, 4) as usize).min(entries_per_page)
}

/// Decodes one `(min, max)` grade pair at slot `i` of a bounds page,
/// validating both grades and their ordering — corrupt bounds surface
/// as typed errors, never as silently wrong pruning.
pub(crate) fn decode_bound(
    page: &[u8],
    i: usize,
    page_index: u64,
) -> Result<(Score, Score), StoreError> {
    // i < entries_per_page so the offset stays within the page; the
    // reads bounds-check regardless.
    let off = PAGE_HEADER_BYTES + i * ENTRY_BYTES;
    let lo = Score::new(f64::from_bits(read_u64(page, off)))
        .map_err(|_| StoreError::InvalidGrade { page: page_index })?;
    let hi = Score::new(f64::from_bits(read_u64(page, off + 8)))
        .map_err(|_| StoreError::InvalidGrade { page: page_index })?;
    if lo > hi {
        return Err(StoreError::InvalidHeader("page bound min above max"));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The test oracle: the bit-at-a-time loop every existing file was
    /// checksummed with. Advances the (un-inverted) register `crc`
    /// over `bytes`.
    fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(!bitwise_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        // Every length 0..=4200 at every start offset 0..8: all block
        // counts, all tail lengths, all alignments of a 4 KiB page and
        // beyond. The oracle's register is carried from one length to
        // the next, so the sweep costs one bitwise pass per offset.
        #[test]
        fn table_kernel_matches_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 4208)
        ) {
            for offset in 0..8 {
                let mut register = 0xFFFF_FFFFu32;
                for len in 0..=4200 {
                    prop_assert_eq!(
                        crc32(&bytes[offset..offset + len]),
                        !register,
                        "offset {}, length {}", offset, len
                    );
                    register = bitwise_update(register, &bytes[offset + len..offset + len + 1]);
                }
            }
        }
    }

    // The sweep above stops at 4 200 bytes; the pages checksum up to
    // 16 380. Each page size's payload (508, 4 092, 16 380 bytes), and
    // every length one short of, at and one past a braid-block
    // boundary up to the largest, at every start offset 0..8.
    #[test]
    fn braids_match_the_bitwise_oracle_at_every_page_payload() {
        const BLOCK: usize = CRC_BRAIDS * WORD_BYTES;
        let payloads = [512 - 4, 4096 - 4, 16384 - 4];
        let longest = payloads[2];
        let mut lengths: Vec<usize> = (1..=longest / BLOCK)
            .flat_map(|j| [j * BLOCK - 1, j * BLOCK, j * BLOCK + 1])
            .chain(payloads)
            .collect();
        lengths.sort_unstable();
        let bytes: Vec<u8> = (0..longest + 8)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        for offset in 0..8 {
            // The oracle's register advances from one checked length
            // to the next, so each offset costs one bitwise pass.
            let mut register = 0xFFFF_FFFFu32;
            let mut done = 0;
            for &len in &lengths {
                register = bitwise_update(register, &bytes[offset + done..offset + len]);
                done = len;
                assert_eq!(
                    crc32(&bytes[offset..offset + len]),
                    !register,
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_page_is_rejected() {
        let mut page = vec![0u8; 512];
        write_u32(&mut page, 4, 31);
        for (i, b) in page.iter_mut().enumerate().skip(PAGE_HEADER_BYTES) {
            *b = (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3];
        }
        seal_page(&mut page);
        assert!(verify_page(&page, 3).is_ok());
        // Payload bits and the bits of the stored checksum itself.
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    verify_page(&page, 3),
                    Err(StoreError::ChecksumMismatch { page: 3 })
                ),
                "flipped bit {bit} went undetected"
            );
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn header_roundtrips() {
        let entries = Header {
            version: VERSION,
            page_size: 4096,
            n: 1000,
            entries_per_page: (4096 - PAGE_HEADER_BYTES) / ENTRY_BYTES,
            dir_pages: 1,
            sorted_pages: 4,
            random_pages: 4,
            bounds_pages: 1,
            hist_bins: 16,
            hist_universe: 1000,
            label: "color".into(),
            random_table: RandomTable::Entries,
        };
        let grades = Header {
            dir_pages: 0,
            random_pages: 2,
            random_table: RandomTable::Grades { first: 7 },
            label: "x".repeat(MAX_LABEL_BYTES),
            ..entries.clone()
        };
        for header in [entries, grades] {
            let mut page = vec![0u8; 4096];
            write_header(&mut page, &header).unwrap();
            assert_eq!(decode_header(&page).unwrap(), header);
        }
    }

    #[test]
    fn bounds_pairs_roundtrip_and_reject_corruption() {
        let mut page = vec![0u8; 512];
        write_u32(&mut page, 4, 2);
        write_u64(&mut page, PAGE_HEADER_BYTES, 0.25f64.to_bits());
        write_u64(&mut page, PAGE_HEADER_BYTES + 8, 0.75f64.to_bits());
        write_u64(&mut page, PAGE_HEADER_BYTES + 16, 0.9f64.to_bits());
        write_u64(&mut page, PAGE_HEADER_BYTES + 24, 0.1f64.to_bits());
        let (lo, hi) = decode_bound(&page, 0, 3).unwrap();
        assert_eq!(lo.value().to_bits(), 0.25f64.to_bits());
        assert_eq!(hi.value().to_bits(), 0.75f64.to_bits());
        assert!(matches!(
            decode_bound(&page, 1, 3),
            Err(StoreError::InvalidHeader(_))
        ));
        write_u64(&mut page, PAGE_HEADER_BYTES, 2.0f64.to_bits());
        assert!(matches!(
            decode_bound(&page, 0, 3),
            Err(StoreError::InvalidGrade { page: 3 })
        ));
    }

    #[test]
    fn header_rejects_bad_magic_and_bad_checksum() {
        let header = Header {
            version: VERSION,
            page_size: 4096,
            n: 0,
            entries_per_page: (4096 - PAGE_HEADER_BYTES) / ENTRY_BYTES,
            dir_pages: 0,
            sorted_pages: 0,
            random_pages: 0,
            bounds_pages: 0,
            hist_bins: 0,
            hist_universe: 0,
            label: String::new(),
            random_table: RandomTable::Entries,
        };
        let mut page = vec![0u8; 4096];
        write_header(&mut page, &header).unwrap();

        let mut bad_magic = page.clone();
        bad_magic[4] = b'X';
        assert!(matches!(
            decode_header(&bad_magic),
            Err(StoreError::BadMagic)
        ));

        let mut bad_sum = page.clone();
        bad_sum[20] ^= 0xFF; // flip a payload bit, keep the magic
        assert!(matches!(
            decode_header(&bad_sum),
            Err(StoreError::ChecksumMismatch { page: 0 })
        ));

        // Unsupported versions, re-sealed so the checksum passes: the
        // one before bounds were persisted, and one from the future.
        for version in [1, 99] {
            write_u32(&mut page, 12, version);
            seal_page(&mut page);
            assert!(matches!(
                decode_header(&page),
                Err(StoreError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    /// Under the test profile's overflow checks, a geometry field at
    /// either extreme never wraps, never panics and never opens: the
    /// fields of an entry table's file (every third oid), and the table
    /// kind and first oid of a grade table's (oids `2..1002`).
    #[test]
    fn hostile_header_fields_are_typed_errors() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile-header.fmdb");
        let grade = |i: u64| Score::clamped(i as f64 / 1000.0);
        let entries: Vec<(Oid, Score)> = (0..1000u64).map(|i| (3 * i, grade(i))).collect();
        let grades: Vec<(Oid, Score)> = (0..1000u64).map(|i| (2 + i, grade(i))).collect();
        let kind = TABLE_KIND_OFFSET;
        // (field, offset in the header page, width in bytes)
        let files = [
            (
                entries,
                vec![
                    ("n", 20, 8),
                    ("entries_per_page", 28, 4),
                    ("dir_pages", 32, 4),
                    ("sorted_pages", 36, 4),
                    ("random_pages", 40, 4),
                    ("label_len", 56, 4),
                    ("bounds_pages", 60, 4),
                ],
            ),
            (
                grades,
                vec![("table_kind", kind, 4), ("first_oid", kind + 8, 8)],
            ),
        ];
        for (pairs, fields) in files {
            build_store(&path, "color", pairs, &BuildConfig::with_page_size(256)).unwrap();
            let honest = std::fs::read(&path).unwrap();
            let header = decode_header(&honest[..256]).unwrap();
            assert!(
                header.dir_pages > 1 && header.bounds_pages > 1 && !header.label.is_empty()
                    || header.random_table == RandomTable::Grades { first: 2 },
                "every field below is non-zero in the honest file: {header:?}"
            );
            hostile_fields_fail_open(&path, &honest, &fields);
        }
    }

    /// Sets each of `fields` of the `honest` file at `path` to 0 and to
    /// all ones, re-sealed, and checks the open fails typed.
    fn hostile_fields_fail_open(path: &Path, honest: &[u8], fields: &[(&str, usize, usize)]) {
        use crate::store::{PagedStore, StoreOptions};
        for &(field, off, width) in fields {
            for hostile in [0u64, u64::MAX] {
                if hostile == 0 && (field == "label_len" || field == "first_oid") {
                    continue; // the empty label and oid 0 are valid
                }
                let mut bytes = honest.to_vec();
                bytes[off..off + width].copy_from_slice(&hostile.to_le_bytes()[..width]);
                seal_page(&mut bytes[..256]);
                std::fs::write(path, &bytes).unwrap();
                let opened = PagedStore::open(path, StoreOptions::DEFAULT).map(|_| ());
                let typed = match field {
                    // Nothing else in the header fixes the directory's
                    // size, so a wrong one is a wrong file length.
                    "dir_pages" => matches!(opened, Err(StoreError::Truncated { .. })),
                    _ => matches!(opened, Err(StoreError::InvalidHeader(_))),
                };
                assert!(typed, "{field} = {hostile:#x} opened as {opened:?}");
            }
        }
    }

    #[test]
    fn sealed_pages_verify_and_detect_flips() {
        let mut page = vec![0u8; 512];
        page[100] = 42;
        seal_page(&mut page);
        assert!(verify_page(&page, 7).is_ok());
        page[101] ^= 1;
        assert!(matches!(
            verify_page(&page, 7),
            Err(StoreError::ChecksumMismatch { page: 7 })
        ));
    }
}
