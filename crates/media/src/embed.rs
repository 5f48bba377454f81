//! The Cholesky-embedded Euclidean distance kernel (§2.1).
//!
//! The quadratic-form color distance of eq. (1),
//! `d(x, y) = √((x−y)ᵀA(x−y))`, costs O(k²) per pair — the cost §2.1
//! is all about avoiding. Following the \[HSE+95\]-style preprocessing
//! idea, factor `A = L·Lᵀ` **once** (O(k³)) and embed every histogram
//! as `x′ = Lᵀx` (O(k²), once per object). Then for any pair
//!
//! ```text
//! d(x, y)² = (x−y)ᵀ L Lᵀ (x−y) = ‖x′ − y′‖²,
//! ```
//!
//! a plain squared Euclidean norm: O(k) per pair with a branch-free,
//! cache-friendly inner loop.
//!
//! The QBIC similarity matrix is only positive *semi*definite on the
//! full space (it is PD on the zero-sum subspace where differences of
//! normalized histograms live), so `A` itself has no Cholesky factor.
//! [`EmbeddedSpace`] instead factors the ridge-projected matrix
//! `M = P·A·P + J` of [`SymMatrix::project_zero_sum_with_ridge`]: for
//! any zero-sum `z`, `zᵀMz = zᵀAz` **exactly** (`Pz = z` and
//! `zᵀJz = (Σzᵢ)²/n = 0`), so the embedded distance equals the
//! quadratic-form distance up to float round-off — no approximation is
//! involved. If even `M` is numerically on the PSD boundary, a tiny
//! relative ridge `εI` is added (ε ≤ 1e-8·max diag), which perturbs
//! squared distances by at most `ε·‖z‖²`.
//!
//! [`EmbeddedCorpus`] carries the idea to whole databases: a flat
//! structure-of-arrays column store of pre-embedded coordinates, held
//! in tiles of four objects so that grading the whole corpus
//! ([`EmbeddedCorpus::distances`]) runs four objects per instruction,
//! bit-equal to the per-object kernel, with a batched kNN scan that
//! (1) skips whole blocks via per-block coordinate **zone maps** (the
//! distance from the query to a block's bounding box lower-bounds
//! every member's distance), then
//! (2) **early-abandons** the running squared sum against the current
//! k-th best distance. The abandon invariant: the running sum of squares
//! is monotone non-decreasing, so once a partial sum strictly exceeds
//! the current k-th best *squared* distance the object's final
//! distance is strictly larger too and it can never enter the top k —
//! results are identical to the brute-force scan, bit for bit. The
//! zone-map bound is computed with the *same* unrolled kernel in the
//! same accumulation order as the per-object distances (see
//! `EmbeddedCorpus::block_lower_bound`), which makes whole-block
//! skipping exact too, not just approximately safe.

use std::fmt;

use crate::color::{ColorHistogram, ColorSpace};
use crate::distance::{DistanceError, HistogramDistance};
use crate::linalg::{Cholesky, LinalgError, SymMatrix};

/// Relative ridge magnitudes tried (in order) when the projected
/// matrix is numerically on the PSD boundary.
const RIDGE_STEPS: [f64; 3] = [1e-12, 1e-10, 1e-8];

/// How many accumulated dimensions between early-abandon checks — a
/// multiple of the eight-lane unrolled kernel's width
/// ([`squared_block`]), so both scans accumulate in the same order
/// and abandoned/completed evaluations agree bitwise with the plain
/// scan.
const ABANDON_STRIDE: usize = 16;

/// Default zone-map block size: rows per per-block bounding box. Small
/// enough that a selective query skips most of a clustered corpus,
/// large enough that the O(k) bound check amortizes to a fraction of
/// one distance evaluation per block.
pub const DEFAULT_PRUNE_BLOCK: usize = 64;

/// Error raised by the embedding kernel.
#[derive(Debug, Clone)]
pub enum EmbedError {
    /// The (projected, ridged) similarity matrix never became
    /// positive definite — no embedding exists.
    NotPositiveDefinite {
        /// The largest relative ridge that was tried.
        max_ridge: f64,
    },
    /// A histogram's bin count does not match the embedded space.
    DimensionMismatch {
        /// The space's dimension `k`.
        expected: usize,
        /// The offending dimension.
        got: usize,
    },
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::NotPositiveDefinite { max_ridge } => write!(
                f,
                "similarity matrix is not PD on the zero-sum subspace (ridge up to {max_ridge:e})"
            ),
            EmbedError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EmbedError {}

/// Objects per tile of an [`EmbeddedCorpus`]'s coordinate store: the
/// width of the all-objects kernel ([`squared_block_tile`]), which
/// computes this many distances per pass over the query.
const LANES: usize = 4;

/// One dimension of the coordinates [`squared_block`] reads: a row's
/// `f64` (its only lane), or a tile's `LANES` objects.
trait Column {
    /// The coordinate of lane `lane`.
    fn at(&self, lane: usize) -> f64;
}

impl Column for f64 {
    #[inline(always)]
    fn at(&self, _lane: usize) -> f64 {
        *self
    }
}

impl Column for [f64; LANES] {
    #[inline(always)]
    fn at(&self, lane: usize) -> f64 {
        self[lane]
    }
}

/// One block's squared-distance contribution, manually unrolled eight
/// lanes wide with **two independent accumulators**: each iteration
/// folds its eight squared lane differences pairwise and adds lanes
/// 0–3 into `s0` and lanes 4–7 into `s1`, so the loop-carried
/// dependency is a single add per accumulator and the FPU pipelines
/// the multiply-adds. The accumulators fold deterministically as
/// `s0 + s1` with the scalar tail accumulated after the fold.
///
/// Each side is read down one lane of its columns (see [`Column`]): a
/// plain row of `f64`s, or one object's lane of its corpus tile. Every
/// per-object distance path — the early-abandoning scan, the zone-map
/// bound, [`EmbeddedCorpus::distance_between`] and [`euclidean`] — sums
/// through this one helper, and [`squared_block_tile`] repeats its
/// operations lane by lane, so all of them agree bitwise.
#[inline(always)]
fn squared_block<A: Column, B: Column>(a: &[A], a_lane: usize, b: &[B], b_lane: usize) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = xa[0].at(a_lane) - xb[0].at(b_lane);
        let d1 = xa[1].at(a_lane) - xb[1].at(b_lane);
        let d2 = xa[2].at(a_lane) - xb[2].at(b_lane);
        let d3 = xa[3].at(a_lane) - xb[3].at(b_lane);
        let d4 = xa[4].at(a_lane) - xb[4].at(b_lane);
        let d5 = xa[5].at(a_lane) - xb[5].at(b_lane);
        let d6 = xa[6].at(a_lane) - xb[6].at(b_lane);
        let d7 = xa[7].at(a_lane) - xb[7].at(b_lane);
        s0 += (d0 * d0 + d1 * d1) + (d2 * d2 + d3 * d3);
        s1 += (d4 * d4 + d5 * d5) + (d6 * d6 + d7 * d7);
    }
    let mut sum = s0 + s1;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x.at(a_lane) - y.at(b_lane);
        sum += d * d;
    }
    sum
}

/// [`squared_block`] for all `LANES` objects of one tile at once, the
/// query `a` broadcast (`[q_d; LANES]` a dimension): lane `l` of the
/// result is `squared_block(q, 0, cols, l)` bit for bit, because each
/// lane runs the same operations in the same order — the eight
/// differences, the pairwise fold into `s0` and `s1`, their sum, then
/// the tail. Rust neither reassociates floating-point arithmetic nor
/// contracts a multiply and an add into a fused one, so the only
/// freedom left is to run the four lanes side by side, which LLVM does
/// on the baseline x86-64 target (two lanes to an SSE2 register): the
/// arithmetic is element-wise over `[f64; LANES]`, and the
/// dimension-major tile is read in order.
#[inline(always)]
fn squared_block_tile(a: &[[f64; LANES]], cols: &[[f64; LANES]]) -> [f64; LANES] {
    let n = a.len().min(cols.len());
    let (a, cols) = (&a[..n], &cols[..n]);
    let mut ca = a.chunks_exact(8);
    let mut cb = cols.chunks_exact(8);
    let (mut s0, mut s1) = ([0.0f64; LANES], [0.0f64; LANES]);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d0 = xa[0][l] - xb[0][l];
            let d1 = xa[1][l] - xb[1][l];
            let d2 = xa[2][l] - xb[2][l];
            let d3 = xa[3][l] - xb[3][l];
            let d4 = xa[4][l] - xb[4][l];
            let d5 = xa[5][l] - xb[5][l];
            let d6 = xa[6][l] - xb[6][l];
            let d7 = xa[7][l] - xb[7][l];
            s0[l] += (d0 * d0 + d1 * d1) + (d2 * d2 + d3 * d3);
            s1[l] += (d4 * d4 + d5 * d5) + (d6 * d6 + d7 * d7);
        }
    }
    let mut sum = [0.0f64; LANES];
    for l in 0..LANES {
        sum[l] = s0[l] + s1[l];
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        for l in 0..LANES {
            let d = x[l] - y[l];
            sum[l] += d * d;
        }
    }
    sum
}

/// The squared Euclidean distance between two embedded coordinate
/// slices. Accumulated block-by-block through `squared_block`'s
/// fixed eight-lane order, so it is bitwise identical to a completed
/// [`EmbeddedCorpus::squared_distance_abandoning`] evaluation.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0;
    let mut ca = a.chunks(ABANDON_STRIDE);
    let mut cb = b.chunks(ABANDON_STRIDE);
    for (qc, cc) in ca.by_ref().zip(cb.by_ref()) {
        sum += squared_block(qc, 0, cc, 0);
    }
    sum
}

/// The Euclidean distance between two embedded coordinate slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// A one-time Cholesky embedding of a similarity matrix: the O(k³)
/// factorization is paid at construction, after which
/// [`EmbeddedSpace::embed`] maps any histogram into the space where
/// the quadratic-form distance is plain Euclidean.
#[derive(Debug, Clone)]
pub struct EmbeddedSpace {
    k: usize,
    factor: Cholesky,
    ridge: f64,
}

impl EmbeddedSpace {
    /// Builds the embedding for an arbitrary similarity matrix that is
    /// PD on the zero-sum subspace (ridge-projecting it first; see the
    /// module docs for why that preserves histogram distances
    /// exactly).
    pub fn for_matrix(a: &SymMatrix) -> Result<EmbeddedSpace, EmbedError> {
        let k = a.dim();
        let projected = a.project_zero_sum_with_ridge();
        let mut ridge = 0.0;
        let mut attempt = projected.cholesky();
        if attempt.is_err() {
            let diag_max = (0..k).map(|i| projected.get(i, i)).fold(1e-12, f64::max);
            for eps in RIDGE_STEPS {
                ridge = eps * diag_max;
                #[expect(
                    clippy::expect_used,
                    reason = "the identity matrix is built with this projection’s own dimension k"
                )]
                let jittered = projected
                    .add_scaled(&SymMatrix::identity(k), ridge)
                    .expect("identity has matching dimension");
                attempt = jittered.cholesky();
                if attempt.is_ok() {
                    break;
                }
            }
        }
        match attempt {
            Ok(factor) => Ok(EmbeddedSpace { k, factor, ridge }),
            Err(LinalgError::NotPositiveDefinite { .. }) => Err(EmbedError::NotPositiveDefinite {
                max_ridge: RIDGE_STEPS[RIDGE_STEPS.len() - 1],
            }),
            Err(_) => unreachable!("cholesky only fails with NotPositiveDefinite"),
        }
    }

    /// Builds the embedding for a color space's QBIC similarity
    /// matrix.
    pub fn for_space(space: &ColorSpace) -> Result<EmbeddedSpace, EmbedError> {
        EmbeddedSpace::for_matrix(&space.similarity_matrix())
    }

    /// The embedded dimension `k` (equal to the histogram bin count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The ridge that was added to reach positive definiteness (0 for
    /// every well-conditioned QBIC matrix).
    pub fn ridge(&self) -> f64 {
        self.ridge
    }

    /// Embeds raw bin masses: `out = Lᵀ·bins`. O(k²).
    pub fn embed_into(&self, bins: &[f64], out: &mut [f64]) -> Result<(), EmbedError> {
        if bins.len() != self.k || out.len() != self.k {
            return Err(EmbedError::DimensionMismatch {
                expected: self.k,
                got: if bins.len() != self.k {
                    bins.len()
                } else {
                    out.len()
                },
            });
        }
        self.factor.transpose_mul_vec(bins, out);
        Ok(())
    }

    /// Embeds a histogram into the Euclidean space. O(k²).
    pub fn embed(&self, hist: &ColorHistogram) -> Result<Vec<f64>, EmbedError> {
        let mut out = vec![0.0; self.k];
        self.embed_into(hist.bins(), &mut out)?;
        Ok(out)
    }
}

/// [`HistogramDistance`] through the embedding: numerically equal to
/// [`crate::distance::QuadraticFormDistance`] on normalized
/// histograms (see the module docs for the zero-sum argument and the
/// property suite in `tests/embed_equivalence.rs`).
///
/// Each call embeds both histograms (O(k²)), so this adapter is for
/// drop-in trait compatibility; the O(k) fast path needs pre-embedded
/// coordinates — use [`EmbeddedSpace::embed`] once per object and
/// [`euclidean`] per pair, or an [`EmbeddedCorpus`].
#[derive(Debug, Clone)]
pub struct EmbeddedDistance {
    space: EmbeddedSpace,
}

impl EmbeddedDistance {
    /// Wraps an embedded space.
    pub fn new(space: EmbeddedSpace) -> EmbeddedDistance {
        EmbeddedDistance { space }
    }

    /// The underlying embedding.
    pub fn space(&self) -> &EmbeddedSpace {
        &self.space
    }
}

impl HistogramDistance for EmbeddedDistance {
    fn distance(&self, x: &ColorHistogram, y: &ColorHistogram) -> Result<f64, DistanceError> {
        let check = |h: &ColorHistogram| -> Result<(), DistanceError> {
            if h.k() != self.space.k() {
                return Err(DistanceError::DimensionMismatch {
                    expected: self.space.k(),
                    got: h.k(),
                });
            }
            Ok(())
        };
        check(x)?;
        check(y)?;
        #[expect(
            clippy::expect_used,
            reason = "check(x) at function entry validated the dimension"
        )]
        let ex = self.space.embed(x).expect("dimensions checked above");
        #[expect(
            clippy::expect_used,
            reason = "check(y) at function entry validated the dimension"
        )]
        let ey = self.space.embed(y).expect("dimensions checked above");
        Ok(euclidean(&ex, &ey))
    }

    fn name(&self) -> String {
        format!("embedded(k={})", self.space.k())
    }
}

/// Cost counters for one [`EmbeddedCorpus`] kNN scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Objects whose distance evaluation was cut short by the running
    /// sum exceeding the k-th best.
    pub abandoned: u64,
    /// Objects whose O(k) distance ran to completion.
    pub completed: u64,
    /// Whole zone-map blocks skipped because the query's distance to
    /// the block's bounding box already exceeded the k-th best.
    pub blocks_skipped: u64,
    /// Objects inside skipped blocks — never individually examined.
    /// Every scanned object lands in exactly one bucket, so
    /// `abandoned + completed + block_pruned` equals
    /// the number of objects in the corpus.
    pub block_pruned: u64,
}

impl ScanStats {
    /// Fraction of objects that never paid the full O(k) loop.
    pub fn savings(&self) -> f64 {
        let total = self.abandoned + self.completed + self.block_pruned;
        if total == 0 {
            0.0
        } else {
            1.0 - self.completed as f64 / total as f64
        }
    }
}

/// A flat column store of pre-embedded histogram coordinates
/// (structure of arrays: the coordinates in tiles of four objects, one
/// bounding box per [`EmbeddedCorpus::prune_block`] rows), with a
/// four-objects-at-a-time distance scan and batched zone-map-pruned
/// early-abandoning kNN.
#[derive(Debug, Clone)]
pub struct EmbeddedCorpus {
    space: EmbeddedSpace,
    n: usize,
    k: usize,
    /// The embedded coordinates in tiles of `LANES` objects
    /// (`⌈n/LANES⌉·k` entries): tile `t` owns `tiles[t·k .. (t+1)·k]`,
    /// one entry per dimension, and lane `l` of each entry is object
    /// `t·LANES + l`. The last tile's unused lanes are zero and never
    /// reach an answer.
    tiles: Vec<[f64; LANES]>,
    /// Zone-map block size: rows per bounding box.
    prune_block: usize,
    /// Per-block coordinate minima (`⌈n/prune_block⌉·k` entries; block
    /// `b` owns `block_lo[b·k .. (b+1)·k]`), empty for an empty corpus.
    block_lo: Vec<f64>,
    /// Per-block coordinate maxima, same layout as `block_lo`.
    block_hi: Vec<f64>,
}

impl EmbeddedCorpus {
    /// Embeds every histogram into `space` (O(n·k²) once).
    pub fn build(
        space: EmbeddedSpace,
        hists: &[ColorHistogram],
    ) -> Result<EmbeddedCorpus, EmbedError> {
        let k = space.k();
        let mut tiles = vec![[0.0; LANES]; hists.len().div_ceil(LANES) * k];
        let mut row = vec![0.0; k];
        for (i, h) in hists.iter().enumerate() {
            space.embed_into(h.bins(), &mut row)?;
            // i < n, so tile i / LANES is one of the ⌈n/LANES⌉ sized
            // above; the slice op bounds-checks regardless.
            let tile = &mut tiles[(i / LANES) * k..(i / LANES + 1) * k];
            for (column, &c) in tile.iter_mut().zip(&row) {
                column[i % LANES] = c;
            }
        }
        let mut corpus = EmbeddedCorpus {
            space,
            n: hists.len(),
            k,
            tiles,
            prune_block: DEFAULT_PRUNE_BLOCK,
            block_lo: Vec::new(),
            block_hi: Vec::new(),
        };
        corpus.rebuild_zone_maps();
        Ok(corpus)
    }

    /// Rebuilds this corpus's zone maps at a different block size
    /// (clamped to ≥ 1) — the tests sweep this;
    /// production uses [`DEFAULT_PRUNE_BLOCK`]. O(n·k).
    pub fn with_prune_block(mut self, block: usize) -> EmbeddedCorpus {
        self.prune_block = block.max(1);
        self.rebuild_zone_maps();
        self
    }

    /// The zone-map block size (rows per bounding box).
    pub fn prune_block(&self) -> usize {
        self.prune_block
    }

    /// Recomputes the per-block coordinate bounding boxes from the
    /// stored coordinates.
    fn rebuild_zone_maps(&mut self) {
        let blocks = self.n.div_ceil(self.prune_block.max(1));
        let mut block_lo = vec![f64::INFINITY; blocks * self.k];
        let mut block_hi = vec![f64::NEG_INFINITY; blocks * self.k];
        for i in 0..self.n {
            let b = i / self.prune_block;
            let (tile, lane) = self.lane_of(i);
            // b < ⌈n/prune_block⌉ and the zone-map vectors were sized
            // as blocks·k just above, so the product stays within
            // their length; the slice op bounds-checks regardless.
            let lo = &mut block_lo[b * self.k..(b + 1) * self.k];
            for (slot, column) in lo.iter_mut().zip(tile) {
                *slot = slot.min(column[lane]);
            }
            let hi = &mut block_hi[b * self.k..(b + 1) * self.k];
            for (slot, column) in hi.iter_mut().zip(tile) {
                *slot = slot.max(column[lane]);
            }
        }
        self.block_lo = block_lo;
        self.block_hi = block_hi;
    }

    /// A lower bound on the squared distance from `q` to **every**
    /// object of zone-map block `b`: the squared distance from `q` to
    /// the block's bounding box, i.e. to `q` clamped into
    /// `[lo, hi]` per dimension.
    ///
    /// The bound is computed by [`squared_euclidean`] over the clamped
    /// point — the same kernel, same accumulation order as the
    /// per-object distances. Per dimension the clamped difference is
    /// dominated by the true difference (`lo ≤ x ≤ hi` holds exactly,
    /// min/max never round, and f64 rounding is monotone), and summing
    /// pointwise-dominated terms in the *identical* association order
    /// keeps the domination through every intermediate rounding. So
    /// `block_lower_bound(q, b) ≤ squared_euclidean(q, member)` holds
    /// for the computed values themselves, not just the reals they
    /// approximate — a strict `bound > kth` skip can never drop an
    /// object the unpruned scan would have kept.
    fn block_lower_bound(&self, q: &[f64], b: usize, clamped: &mut [f64]) -> f64 {
        // No overflow: b indexes an existing zone-map
        // block, so b·k stays within the blocks·k vectors; the slice
        // ops bounds-check regardless.
        let lo = &self.block_lo[b * self.k..(b + 1) * self.k];
        // No overflow: same blocks·k sizing.
        let hi = &self.block_hi[b * self.k..(b + 1) * self.k];
        for (((slot, &q_d), &lo_d), &hi_d) in clamped.iter_mut().zip(q).zip(lo).zip(hi) {
            *slot = q_d.clamp(lo_d, hi_d);
        }
        squared_euclidean(q, clamped)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the corpus holds no objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The embedded dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The embedding shared by all stored objects.
    pub fn space(&self) -> &EmbeddedSpace {
        &self.space
    }

    /// Object `i`'s tile and its lane in it: the object's coordinates
    /// are `tile[d][lane]` for `d` in `0..k`.
    fn lane_of(&self, i: usize) -> (&[[f64; LANES]], usize) {
        let t = i / LANES;
        // No overflow: i < n, so tile t is one of the ⌈n/LANES⌉ the
        // store holds and (t+1)·k ≤ tiles.len(); the slice op
        // bounds-checks regardless.
        (&self.tiles[t * self.k..(t + 1) * self.k], i % LANES)
    }

    /// Copies the embedded coordinates of object `i` into `out`
    /// (`k` entries).
    pub fn embedded_into(&self, i: usize, out: &mut [f64]) {
        let (tile, lane) = self.lane_of(i);
        for (slot, column) in out.iter_mut().zip(tile) {
            *slot = column[lane];
        }
    }

    /// The exact quadratic-form distance between stored objects `i`
    /// and `j` — O(k) instead of O(k²). Bitwise equal to [`euclidean`]
    /// over the two objects' coordinates.
    pub fn distance_between(&self, i: usize, j: usize) -> f64 {
        let ((a, a_lane), (b, b_lane)) = (self.lane_of(i), self.lane_of(j));
        let mut sum = 0.0;
        for (ac, bc) in a.chunks(ABANDON_STRIDE).zip(b.chunks(ABANDON_STRIDE)) {
            sum += squared_block(ac, a_lane, bc, b_lane);
        }
        sum.sqrt()
    }

    /// Early-abandoning squared distance from an embedded query `q`
    /// (see [`EmbeddedSpace::embed`]) to stored object `i`: `None` as
    /// soon as the running sum strictly exceeds `threshold_sq`, else
    /// the exact squared distance.
    ///
    /// The sum is accumulated block-by-block in `squared_block`'s
    /// fixed eight-lane order — the same order [`squared_euclidean`]
    /// uses — so a completed evaluation is bitwise identical to the
    /// plain scan. The abandon check runs once per
    /// `ABANDON_STRIDE`-dimension block, not per lane, keeping the
    /// unrolled lanes free of branches;
    /// `threshold_sq = f64::INFINITY` never abandons.
    pub fn squared_distance_abandoning(
        &self,
        q: &[f64],
        i: usize,
        threshold_sq: f64,
    ) -> Option<f64> {
        debug_assert_eq!(q.len(), self.k);
        let (tile, lane) = self.lane_of(i);
        let mut sum = 0.0;
        let mut offset = 0;
        for (qc, cc) in q.chunks(ABANDON_STRIDE).zip(tile.chunks(ABANDON_STRIDE)) {
            sum += squared_block(qc, 0, cc, lane);
            offset += qc.len();
            if sum > threshold_sq && offset < self.k {
                return None;
            }
        }
        Some(sum)
    }

    /// The exact distance from `query` to every stored object: one
    /// O(k²) embedding, then n O(k) norms, computed a tile of `LANES`
    /// objects at a time. Each is bitwise equal to [`euclidean`] over
    /// the object's coordinates (debug builds check every one against
    /// the per-object kernel).
    pub fn distances(&self, query: &ColorHistogram) -> Result<Vec<f64>, EmbedError> {
        let q = self.embed_query(query)?;
        let q_lanes: Vec<[f64; LANES]> = q.iter().map(|&c| [c; LANES]).collect();
        let mut out = Vec::with_capacity(self.n);
        for t in 0..self.n.div_ceil(LANES) {
            // t < ⌈n/LANES⌉, the tile count the store was sized for.
            let tile = &self.tiles[t * self.k..(t + 1) * self.k];
            let mut sum = [0.0f64; LANES];
            for (qc, cc) in q_lanes
                .chunks(ABANDON_STRIDE)
                .zip(tile.chunks(ABANDON_STRIDE))
            {
                let block = squared_block_tile(qc, cc);
                for l in 0..LANES {
                    sum[l] += block[l];
                }
            }
            // The last tile's padded lanes are dropped here.
            let live = (self.n - t * LANES).min(LANES);
            out.extend(sum[..live].iter().map(|s| s.sqrt()));
        }
        #[cfg(debug_assertions)]
        for (i, d) in out.iter().enumerate() {
            let per_object = self.squared_distance_abandoning(&q, i, f64::INFINITY);
            debug_assert_eq!(
                Some(d.to_bits()),
                per_object.map(|s| s.sqrt().to_bits()),
                "lane {} of tile {} left the per-object kernel",
                i % LANES,
                i / LANES
            );
        }
        Ok(out)
    }

    fn embed_query(&self, query: &ColorHistogram) -> Result<Vec<f64>, EmbedError> {
        self.space.embed(query)
    }

    /// The `k_nearest` objects closest to `query` under the exact
    /// quadratic-form distance, by zone-map-pruned early-abandoning
    /// scan.
    ///
    /// Returns `(index, distance)` pairs in ascending
    /// `(distance, index)` order — identical to the brute-force
    /// [`EmbeddedCorpus::knn_brute`] oracle.
    pub fn knn(
        &self,
        query: &ColorHistogram,
        k_nearest: usize,
    ) -> Result<(Vec<(usize, f64)>, ScanStats), EmbedError> {
        self.knn_within(query, k_nearest, f64::INFINITY, true)
    }

    /// The brute-force oracle: every distance run to completion, no
    /// abandoning, no zone maps. Same ordering contract as
    /// [`EmbeddedCorpus::knn`].
    pub fn knn_brute(
        &self,
        query: &ColorHistogram,
        k_nearest: usize,
    ) -> Result<(Vec<(usize, f64)>, ScanStats), EmbedError> {
        let q = self.embed_query(query)?;
        let (heap, stats) = self.scan(&q, k_nearest, f64::INFINITY, false, false);
        Ok((finalize(heap), stats))
    }

    /// The threshold-aware scan hook: the `k_nearest` objects closest
    /// to `query` **among those within `max_distance`** — a caller
    /// holding a live threshold (a top-k algorithm's current k-th
    /// grade, mapped back to a distance) seeds the scan with it, so
    /// zone-map skipping and early abandoning engage from the first
    /// row instead of waiting for `k_nearest` candidates to accumulate.
    ///
    /// Objects at exactly `max_distance` are kept. No distance is
    /// negative, so a negative bound returns no object; `+∞` and NaN
    /// bound nothing (the plain top-k scan). `pruned = false` runs the
    /// same bounded scan without zone maps (the equivalence oracle);
    /// both variants return bit-identical answers.
    pub fn knn_within(
        &self,
        query: &ColorHistogram,
        k_nearest: usize,
        max_distance: f64,
        pruned: bool,
    ) -> Result<(Vec<(usize, f64)>, ScanStats), EmbedError> {
        let q = self.embed_query(query)?;
        if max_distance < 0.0 {
            return Ok((Vec::new(), ScanStats::default()));
        }
        let bound_sq = if max_distance.is_finite() {
            max_distance * max_distance
        } else {
            f64::INFINITY
        };
        let (heap, stats) = self.scan(&q, k_nearest, bound_sq, true, pruned);
        Ok((finalize(heap), stats))
    }

    /// Tile `t`'s running sums against a broadcast query, through
    /// [`squared_block_tile`]: each lane's sum before its last
    /// `ABANDON_STRIDE` block (`−∞` with one block) and its full sum —
    /// the values [`EmbeddedCorpus::squared_distance_abandoning`] tests
    /// and returns, bit for bit. `None` once every lane of `live` has
    /// passed `threshold_sq` before its last block: each of them would
    /// have abandoned against any threshold ≤ `threshold_sq`.
    fn tile_sums(
        &self,
        q_lanes: &[[f64; LANES]],
        t: usize,
        live: std::ops::Range<usize>,
        threshold_sq: f64,
    ) -> Option<([f64; LANES], [f64; LANES])> {
        // t < ⌈n/LANES⌉, the tile count the store was sized for.
        let tile = &self.tiles[t * self.k..(t + 1) * self.k];
        let mut sum = [0.0f64; LANES];
        let mut before_last = [f64::NEG_INFINITY; LANES];
        let mut offset = 0;
        for (qc, cc) in q_lanes
            .chunks(ABANDON_STRIDE)
            .zip(tile.chunks(ABANDON_STRIDE))
        {
            let block = squared_block_tile(qc, cc);
            for l in 0..LANES {
                sum[l] += block[l];
            }
            offset += qc.len();
            if offset < self.k {
                before_last = sum;
                if live.clone().all(|l| sum[l] > threshold_sq) {
                    return None;
                }
            }
        }
        Some((before_last, sum))
    }

    /// Scans the corpus, returning up to `k_nearest` best
    /// `(squared_distance, index)` candidates in ascending
    /// `(distance, index)` order plus the cost counters. While fewer
    /// than `k_nearest` candidates are held, `bound_sq` plays the role
    /// of the k-th best (inclusively: an object at exactly `bound_sq`
    /// is admitted), so both pruning stages engage from the first
    /// row; `bound_sq = ∞` is the plain top-k scan.
    ///
    /// Early-abandon invariant: the running sum of squares only grows,
    /// so `partial > kth_sq` implies the final squared distance
    /// strictly exceeds the current k-th best and the object can be
    /// dropped without changing the result. The sums come a tile at a
    /// time ([`EmbeddedCorpus::tile_sums`]) and the objects are decided
    /// one by one in index order, each against the threshold the
    /// per-object scan would hold there, so every decision and count is
    /// the per-object scan's.
    ///
    /// Zone-map invariant (`prune`): a block is skipped only when its
    /// [`EmbeddedCorpus::block_lower_bound`] strictly exceeds the
    /// current k-th best squared distance. Within one scan indices only
    /// grow, so a later object can improve a *full* answer set only
    /// with a strictly smaller sum — and every member of a skipped
    /// block has `sum ≥ bound > kth_sq` (for the computed values; see
    /// `block_lower_bound`). Skipping therefore never changes the
    /// answer, only `blocks_skipped`/`block_pruned` and the work done.
    fn scan(
        &self,
        q: &[f64],
        k_nearest: usize,
        bound_sq: f64,
        abandon: bool,
        prune: bool,
    ) -> (Vec<(f64, usize)>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k_nearest.saturating_add(1));
        if k_nearest == 0 {
            return (best, stats);
        }
        let prune = prune && !self.block_lo.is_empty();
        let mut clamped = if prune { vec![0.0; self.k] } else { Vec::new() };
        let q_lanes: &[[f64; LANES]] = &q.iter().map(|&c| [c; LANES]).collect::<Vec<_>>();
        let mut i = 0;
        while i < self.n {
            let block = i / self.prune_block;
            // block < ⌈n/prune_block⌉ so the +1 cannot overflow; the
            // min clamps the product to the corpus.
            let block_end = ((block + 1) * self.prune_block).min(self.n);
            if prune {
                // `best` is sorted and truncated, so its last element
                // is the current k-th best; below `k_nearest`
                // candidates the seeded bound stands in for it.
                let kth_sq = match best.last() {
                    Some(&(d, _)) if best.len() == k_nearest => d,
                    _ => bound_sq,
                };
                if self.block_lower_bound(q, block, &mut clamped) > kth_sq {
                    stats.blocks_skipped += 1;
                    stats.block_pruned += (block_end - i) as u64;
                    i = block_end;
                    continue;
                }
            }
            // The objects of `i..block_end`, a tile's lanes at a time.
            let mut j = i;
            while j < block_end {
                let t = j / LANES;
                // t < ⌈n/LANES⌉, so (t+1)·LANES cannot overflow.
                let live = j - t * LANES..((t + 1) * LANES).min(block_end) - t * LANES;
                // The threshold only falls during a scan (a short set
                // admits only sums ≤ the seeded bound), so the first
                // live lane's bounds every later lane's.
                let first_threshold = match best.last() {
                    Some(&(d, _)) if abandon && best.len() == k_nearest => d,
                    _ if abandon => bound_sq,
                    _ => f64::INFINITY,
                };
                let sums = self.tile_sums(q_lanes, t, live.clone(), first_threshold);
                for lane in live {
                    let j = t * LANES + lane;
                    let full = best.len() == k_nearest;
                    // When full, `best.last()` is the current k-th best;
                    // otherwise the seeded bound (inclusive via the
                    // usize::MAX tie-break) gates admission.
                    let (kth_sq, kth_tie) = match best.last() {
                        Some(&(d, tie)) if full => (d, tie),
                        _ => (bound_sq, usize::MAX),
                    };
                    // Running-sum early abandoning (against the seeded
                    // bound while the candidate set is short): the
                    // running sum only grows, so it passed the
                    // threshold before the last block exactly when the
                    // sum before the last block did.
                    let threshold_sq = if abandon { kth_sq } else { f64::INFINITY };
                    let sum = match sums {
                        Some((before_last, sum)) if before_last[lane] <= threshold_sq => sum[lane],
                        _ => {
                            stats.abandoned += 1;
                            continue;
                        }
                    };
                    stats.completed += 1;
                    // The sentinel pair admits `sum ≤ bound_sq` inclusively
                    // while the set is short (j < usize::MAX breaks the
                    // tie); a full set demands a strict improvement.
                    if (sum, j) < (kth_sq, kth_tie) {
                        best.push((sum, j));
                        sort_candidates(&mut best);
                        best.truncate(k_nearest);
                    }
                }
                j = t * LANES + LANES;
            }
            i = block_end;
        }
        (best, stats)
    }
}

/// Ascending `(squared_distance, index)` with the index tie-break —
/// the same total order the brute-force oracle sorts by.
fn sort_candidates(v: &mut [(f64, usize)]) {
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

/// Converts `(squared_distance, index)` candidates into the public
/// `(index, distance)` answer shape.
fn finalize(best: Vec<(f64, usize)>) -> Vec<(usize, f64)> {
    best.into_iter().map(|(d2, i)| (i, d2.sqrt())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use crate::distance::QuadraticFormDistance;

    fn space() -> ColorSpace {
        ColorSpace::rgb_grid(3).unwrap()
    }

    fn plain_corpus(sp: &ColorSpace, hists: &[ColorHistogram]) -> EmbeddedCorpus {
        EmbeddedCorpus::build(EmbeddedSpace::for_space(sp).unwrap(), hists).unwrap()
    }

    /// The plain scalar squared-distance loop: the numerical oracle of
    /// the unrolled kernel.
    fn squared_euclidean_scalar(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    fn sample_histograms(space: &ColorSpace, count: usize, seed: u64) -> Vec<ColorHistogram> {
        let k = space.k();
        (0..count as u64)
            .map(|s| {
                let masses: Vec<f64> = (0..k)
                    .map(|i| {
                        let h =
                            (i as u64 + 1).wrapping_mul((s + seed).wrapping_mul(2654435761) + 97);
                        ((h % 1000) as f64 / 1000.0).powi(2) + 1e-6
                    })
                    .collect();
                ColorHistogram::from_masses(masses).unwrap()
            })
            .collect()
    }

    #[test]
    fn embedded_distance_equals_quadratic_form() {
        let sp = space();
        let qf = QuadraticFormDistance::new(sp.similarity_matrix());
        let emb = EmbeddedDistance::new(EmbeddedSpace::for_space(&sp).unwrap());
        assert_eq!(emb.space().ridge(), 0.0, "QBIC matrix needs no ridge");
        let hists = sample_histograms(&sp, 12, 5);
        for x in &hists {
            for y in &hists {
                let a = qf.distance(x, y).unwrap();
                let b = emb.distance(x, y).unwrap();
                assert!((a - b).abs() < 1e-9, "qf {a} vs embedded {b}");
            }
        }
    }

    #[test]
    fn embedded_distance_checks_dimensions() {
        let emb = EmbeddedDistance::new(EmbeddedSpace::for_space(&space()).unwrap());
        let other = ColorHistogram::pure(&ColorSpace::rgb_grid(2).unwrap(), Rgb::RED);
        let ok = ColorHistogram::pure(&space(), Rgb::RED);
        assert!(matches!(
            emb.distance(&ok, &other),
            Err(DistanceError::DimensionMismatch { .. })
        ));
        assert!(emb.name().contains("embedded"));
    }

    #[test]
    fn unrolled_kernel_matches_scalar_reference() {
        // Awkward lengths exercise every tail path of the eight-lane
        // unroll: empty, sub-lane, lane-aligned, block-aligned, and
        // block+lane+tail combinations.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 24, 31, 33, 64] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.73).cos()).collect();
            let scalar = squared_euclidean_scalar(&a, &b);
            let unrolled = squared_euclidean(&a, &b);
            assert!(
                (scalar - unrolled).abs() <= 1e-12 * scalar.max(1.0),
                "len {len}: scalar {scalar} vs 8-wide {unrolled}"
            );
            // The block helper alone agrees with the full function on
            // sub-block inputs (the abandoning scan relies on this).
            if len <= ABANDON_STRIDE {
                assert_eq!(unrolled.to_bits(), squared_block(&a, 0, &b, 0).to_bits());
            }
        }
    }

    #[test]
    fn each_tile_lane_is_the_per_object_kernel() {
        // Every length through one block, so every tail of the
        // eight-wide unroll: lane l of the tile kernel must be the
        // scalar kernel over lane l, to the bit.
        for len in 0..=ABANDON_STRIDE {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let tile: Vec<[f64; LANES]> = (0..len)
                .map(|i| std::array::from_fn(|l| ((i * LANES + l) as f64 * 0.73).cos()))
                .collect();
            let a_lanes: Vec<[f64; LANES]> = a.iter().map(|&c| [c; LANES]).collect();
            let lanes = squared_block_tile(&a_lanes, &tile);
            for (l, got) in lanes.iter().enumerate() {
                let row: Vec<f64> = tile.iter().map(|c| c[l]).collect();
                let want = squared_block(&a, 0, &row, 0);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} lane {l}");
                let strided = squared_block(&a, 0, &tile, l);
                assert_eq!(strided.to_bits(), want.to_bits(), "len {len} lane {l}");
            }
        }
    }

    #[test]
    fn abandoning_scan_is_bitwise_identical_to_plain_scan() {
        let sp = space();
        let hists = sample_histograms(&sp, 40, 13);
        let corpus = plain_corpus(&sp, &hists);
        let mut q = vec![0.0; corpus.k()];
        corpus.embedded_into(0, &mut q);
        let mut row = vec![0.0; corpus.k()];
        for i in 0..corpus.len() {
            corpus.embedded_into(i, &mut row);
            let plain = squared_euclidean(&q, &row);
            let full = corpus
                .squared_distance_abandoning(&q, i, f64::INFINITY)
                .expect("infinity never abandons");
            assert_eq!(plain.to_bits(), full.to_bits(), "object {i}");
        }
    }

    #[test]
    fn corpus_knn_matches_brute_force_and_counts_work_saved() {
        let sp = space();
        let hists = sample_histograms(&sp, 200, 3);
        let corpus = plain_corpus(&sp, &hists);
        let queries = sample_histograms(&sp, 6, 99);
        for q in &queries {
            let (brute, bstats) = corpus.knn_brute(q, 7).unwrap();
            let (fast, fstats) = corpus.knn(q, 7).unwrap();
            assert_eq!(brute, fast, "early abandoning changed the answer");
            assert_eq!(bstats.completed, 200);
            assert_eq!(bstats.blocks_skipped, 0, "the oracle never prunes blocks");
            assert_eq!(
                fstats.abandoned + fstats.completed + fstats.block_pruned,
                200
            );
            assert!(fstats.abandoned > 0, "no work was saved: {fstats:?}");
            assert!(fstats.savings() > 0.0);
        }
    }

    #[test]
    fn zone_map_pruning_preserves_answers_across_block_sizes() {
        let sp = space();
        let hists = sample_histograms(&sp, 230, 21);
        let base = plain_corpus(&sp, &hists);
        let queries = sample_histograms(&sp, 4, 131);
        for block in [1usize, 3, 16, 64, 500] {
            let corpus = base.clone().with_prune_block(block);
            assert_eq!(corpus.prune_block(), block);
            for q in &queries {
                for k in [1usize, 7, 229, 230, 400] {
                    let (pruned, pstats) = corpus.knn(q, k).unwrap();
                    let (plain, ustats) = corpus.knn_within(q, k, f64::INFINITY, false).unwrap();
                    // Bit-identical answers — indices AND distances.
                    assert_eq!(pruned.len(), plain.len(), "block={block} k={k}");
                    for (a, b) in pruned.iter().zip(&plain) {
                        assert_eq!(a.0, b.0, "block={block} k={k}");
                        assert_eq!(a.1.to_bits(), b.1.to_bits(), "block={block} k={k}");
                    }
                    assert_eq!(ustats.blocks_skipped, 0);
                    assert_eq!(ustats.block_pruned, 0);
                    assert_eq!(
                        pstats.abandoned + pstats.completed + pstats.block_pruned,
                        230,
                        "block={block} k={k}: every object lands in one bucket"
                    );
                }
            }
        }
    }

    #[test]
    fn zone_maps_skip_blocks_on_selective_scans() {
        // A tight query against a small k: most blocks cannot beat the
        // k-th best, so whole blocks must be skipped.
        let sp = space();
        let hists = sample_histograms(&sp, 512, 33);
        let corpus = plain_corpus(&sp, &hists).with_prune_block(16);
        let q = &hists[5];
        let (_, stats) = corpus.knn(q, 1).unwrap();
        assert!(
            stats.blocks_skipped > 0,
            "a 1-NN self-query must skip blocks: {stats:?}"
        );
        assert_eq!(
            stats.block_pruned,
            // Each fully-skipped block covers prune_block rows except a
            // possible edge block.
            stats.blocks_skipped * 16,
            "512 divides into whole 16-row blocks"
        );
    }

    #[test]
    fn bounded_scan_matches_unbounded_scan() {
        let sp = space();
        let hists = sample_histograms(&sp, 180, 47);
        let corpus = plain_corpus(&sp, &hists).with_prune_block(8);
        let q = &sample_histograms(&sp, 1, 7)[0];
        let (all, _) = corpus.knn(q, 180).unwrap();
        for cut in [5usize, 40, 120] {
            // A bound strictly between two attained distances: no
            // boundary object, so sqrt/square rounding cannot flip
            // membership.
            let max_distance = (all[cut].1 + all[cut + 1].1) / 2.0;
            assert!(all[cut].1 < max_distance && max_distance < all[cut + 1].1);
            let want: Vec<(usize, f64)> = all.iter().copied().take(cut + 1).take(25).collect();
            let (bounded, bstats) = corpus.knn_within(q, 25, max_distance, true).unwrap();
            let (oracle, ostats) = corpus.knn_within(q, 25, max_distance, false).unwrap();
            assert_eq!(bounded, oracle, "pruned vs unpruned bounded scan");
            assert_eq!(bounded, want, "cut={cut}");
            assert_eq!(ostats.blocks_skipped, 0);
            assert_eq!(
                bstats.abandoned + bstats.completed + bstats.block_pruned,
                180
            );
        }
        // A non-finite bound degenerates to the plain top-k scan.
        let (unbounded, _) = corpus.knn_within(q, 25, f64::INFINITY, true).unwrap();
        let (plain, _) = corpus.knn(q, 25).unwrap();
        assert_eq!(unbounded, plain);
        // A zero bound admits only exact matches — none here — and the
        // seeded threshold prunes from the very first row.
        let (none, nstats) = corpus.knn_within(q, 25, 0.0, true).unwrap();
        assert!(none.is_empty(), "no object is at distance zero: {none:?}");
        assert!(
            nstats.blocks_skipped > 0,
            "a zero bound must skip blocks outright: {nstats:?}"
        );
        // No distance is negative, so a negative bound admits nothing;
        // a NaN bound bounds nothing.
        for pruned in [true, false] {
            let (below_zero, _) = corpus.knn_within(q, 25, -1.0, pruned).unwrap();
            assert!(below_zero.is_empty(), "within -1: {below_zero:?}");
            let (nan, _) = corpus.knn_within(q, 25, f64::NAN, pruned).unwrap();
            assert_eq!(nan, plain);
        }
    }

    #[test]
    fn degenerate_corpora_never_prune_wrongly() {
        let sp = space();
        // All-equal rows: every distance ties, zone boxes are points.
        let hist = sample_histograms(&sp, 1, 3).remove(0);
        let hists: Vec<ColorHistogram> = (0..40).map(|_| hist.clone()).collect();
        let corpus = plain_corpus(&sp, &hists).with_prune_block(7);
        let q = &sample_histograms(&sp, 1, 9)[0];
        let (pruned, _) = corpus.knn(q, 5).unwrap();
        let (brute, _) = corpus.knn_brute(q, 5).unwrap();
        assert_eq!(pruned, brute, "ties must resolve by index, pruned or not");
        // k ≥ n: nothing may be pruned away.
        let (all_of_them, stats) = corpus.knn(q, 40).unwrap();
        assert_eq!(all_of_them.len(), 40);
        assert_eq!(stats.block_pruned, 0, "k ≥ n leaves no block skippable");
    }

    #[test]
    fn corpus_distances_match_pairwise_quadratic_form() {
        let sp = space();
        let qf = QuadraticFormDistance::new(sp.similarity_matrix());
        let hists = sample_histograms(&sp, 20, 17);
        let corpus = plain_corpus(&sp, &hists);
        let ds = corpus.distances(&hists[4]).unwrap();
        for (i, h) in hists.iter().enumerate() {
            let want = qf.distance(&hists[4], h).unwrap();
            assert!((ds[i] - want).abs() < 1e-9);
            let between = corpus.distance_between(4, i);
            assert!((between - want).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_edge_cases() {
        let sp = space();
        let hists = sample_histograms(&sp, 5, 2);
        let corpus = plain_corpus(&sp, &hists);
        let q = &hists[0];
        assert!(corpus.knn(q, 0).unwrap().0.is_empty());
        assert_eq!(corpus.knn(q, 50).unwrap().0.len(), 5);
        // The query is object 0: it must rank itself first at ~0.
        let (res, _) = corpus.knn(q, 1).unwrap();
        assert_eq!(res[0].0, 0);
        assert!(res[0].1 < 1e-9);
        // Empty corpus.
        let empty = plain_corpus(&sp, &[]);
        assert!(empty.is_empty());
        assert!(empty.knn(q, 3).unwrap().0.is_empty());
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let sp = space();
        let corpus = plain_corpus(&sp, &sample_histograms(&sp, 4, 1));
        let wrong = ColorHistogram::pure(&ColorSpace::rgb_grid(2).unwrap(), Rgb::RED);
        assert!(matches!(
            corpus.knn(&wrong, 2),
            Err(EmbedError::DimensionMismatch { .. })
        ));
        let es = EmbeddedSpace::for_space(&sp).unwrap();
        let mut out = vec![0.0; 3];
        assert!(matches!(
            es.embed_into(&[0.5; 27], &mut out),
            Err(EmbedError::DimensionMismatch { got: 3, .. })
        ));
    }

    #[test]
    fn synthetic_line_matrix_embeds_too() {
        // a_ij = 1 − |i−j|/(k−1) is conditionally PD on the zero-sum
        // subspace (1-D Euclidean distance matrix), at any k.
        let k = 16;
        let a = SymMatrix::from_fn(k, |i, j| {
            1.0 - (i as f64 - j as f64).abs() / (k as f64 - 1.0)
        })
        .unwrap();
        let es = EmbeddedSpace::for_matrix(&a).unwrap();
        let qf = QuadraticFormDistance::new(a);
        let x = ColorHistogram::from_masses((1..=k).map(|i| i as f64).collect()).unwrap();
        let y = ColorHistogram::from_masses((1..=k).rev().map(|i| i as f64).collect()).unwrap();
        let emb = EmbeddedDistance::new(es);
        let a_d = qf.distance(&x, &y).unwrap();
        let b_d = emb.distance(&x, &y).unwrap();
        assert!((a_d - b_d).abs() < 1e-9, "{a_d} vs {b_d}");
    }
}
