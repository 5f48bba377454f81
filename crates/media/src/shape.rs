//! Shape features (§2): "there are a number of ways to define closeness
//! between shapes … methods based on turning angles \[ACH+90\], on
//! various forms of moments [KK97, TC91], and on Fourier descriptors
//! \[Ja89\]."
//!
//! We implement all three families over simple polygons:
//!
//! * [`turning_distance`] — the Arkin et al. metric between turning
//!   functions, minimized over starting-point shifts (rotation
//!   invariant by construction, scale invariant via arc-length
//!   normalization); [`TurningCorpus`] grades a whole collection
//!   against one prototype from turning functions resampled once;
//! * [`FourierDescriptor`] — magnitudes of the low-frequency DFT
//!   coefficients of the centered contour, normalized for scale
//!   (translation/rotation/start-point invariant);
//! * [`HuMoments`] — the seven moment invariants computed on a raster
//!   fill of the polygon.

use std::f64::consts::{PI, SQRT_2};
use std::fmt;

use crate::fft::{self, gamma, Fft, Lane, LANES};

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    fn sub(self, o: Point) -> Point {
        Point::new(self.x - o.x, self.y - o.y)
    }

    fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// Error constructing shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeError {
    /// Fewer than 3 vertices.
    TooFewVertices(usize),
    /// A vertex coordinate was not finite.
    NotFinite,
    /// The polygon has (numerically) zero perimeter or area.
    Degenerate,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::TooFewVertices(n) => write!(f, "polygon needs ≥ 3 vertices, got {n}"),
            ShapeError::NotFinite => write!(f, "vertex coordinates must be finite"),
            ShapeError::Degenerate => write!(f, "polygon is degenerate"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A simple polygon given by its vertices in order (closed implicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon, validating vertex count and finiteness.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, ShapeError> {
        if vertices.len() < 3 {
            return Err(ShapeError::TooFewVertices(vertices.len()));
        }
        if vertices
            .iter()
            .any(|p| !p.x.is_finite() || !p.y.is_finite())
        {
            return Err(ShapeError::NotFinite);
        }
        let p = Polygon { vertices };
        if p.perimeter() < 1e-12 || p.area().abs() < 1e-12 {
            return Err(ShapeError::Degenerate);
        }
        Ok(p)
    }

    /// A regular `n`-gon of circumradius `r` centered at `(cx, cy)`,
    /// rotated by `phase` radians.
    pub fn regular(n: usize, r: f64, cx: f64, cy: f64, phase: f64) -> Result<Polygon, ShapeError> {
        let vertices = (0..n)
            .map(|i| {
                let t = phase + 2.0 * PI * i as f64 / n as f64;
                Point::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Polygon::new(vertices)
    }

    /// A star with `spikes` points, alternating radii `r_outer`/`r_inner`.
    pub fn star(
        spikes: usize,
        r_outer: f64,
        r_inner: f64,
        cx: f64,
        cy: f64,
    ) -> Result<Polygon, ShapeError> {
        let n = spikes.saturating_mul(2);
        if spikes < 2 {
            return Err(ShapeError::TooFewVertices(n));
        }
        let vertices = (0..n)
            .map(|i| {
                let r = if i % 2 == 0 { r_outer } else { r_inner };
                let t = 2.0 * PI * i as f64 / n as f64;
                Point::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Polygon::new(vertices)
    }

    /// An axis-aligned rectangle.
    pub fn rectangle(cx: f64, cy: f64, w: f64, h: f64) -> Result<Polygon, ShapeError> {
        Polygon::new(vec![
            Point::new(cx - w / 2.0, cy - h / 2.0),
            Point::new(cx + w / 2.0, cy - h / 2.0),
            Point::new(cx + w / 2.0, cy + h / 2.0),
            Point::new(cx - w / 2.0, cy + h / 2.0),
        ])
    }

    /// An ellipse approximated by `n` vertices.
    pub fn ellipse(cx: f64, cy: f64, a: f64, b: f64, n: usize) -> Result<Polygon, ShapeError> {
        let vertices = (0..n)
            .map(|i| {
                let t = 2.0 * PI * i as f64 / n as f64;
                Point::new(cx + a * t.cos(), cy + b * t.sin())
            })
            .collect();
        Polygon::new(vertices)
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        let n = self.vertices.len();
        (0..n)
            .map(|i| self.vertices[(i + 1) % n].sub(self.vertices[i]).norm())
            .sum()
    }

    /// Signed area via the shoelace formula (positive for CCW).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        0.5 * (0..n)
            .map(|i| {
                let p = self.vertices[i];
                let q = self.vertices[(i + 1) % n];
                p.x * q.y - q.x * p.y
            })
            .sum::<f64>()
    }

    /// The centroid of the vertex set.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len() as f64;
        let (sx, sy) = self
            .vertices
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Point::new(sx / n, sy / n)
    }

    /// Resamples the boundary to `n` equally spaced points (by arc
    /// length), the common preprocessing for turning functions and
    /// Fourier descriptors.
    pub fn resample(&self, n: usize) -> Vec<Point> {
        let total = self.perimeter();
        let m = self.vertices.len();
        let mut out = Vec::with_capacity(n);
        let step = total / n as f64;
        let mut target = 0.0;
        let mut walked = 0.0;
        let mut seg = 0usize;
        let mut seg_start = self.vertices[0];
        let mut seg_end = self.vertices[1 % m];
        let mut seg_len = seg_end.sub(seg_start).norm();
        for _ in 0..n {
            while walked + seg_len < target && seg < 10 * m {
                walked += seg_len;
                seg += 1;
                seg_start = self.vertices[seg % m];
                seg_end = self.vertices[(seg + 1) % m];
                seg_len = seg_end.sub(seg_start).norm();
            }
            let t = if seg_len > 1e-300 {
                ((target - walked) / seg_len).clamp(0.0, 1.0)
            } else {
                0.0
            };
            out.push(Point::new(
                seg_start.x + t * (seg_end.x - seg_start.x),
                seg_start.y + t * (seg_end.y - seg_start.y),
            ));
            target += step;
        }
        out
    }
}

/// The discretized turning function of a polygon: cumulative exterior
/// angle sampled at `n` equal arc-length steps.
pub fn turning_function(poly: &Polygon, n: usize) -> Vec<f64> {
    let pts = poly.resample(n);
    let mut angles = Vec::with_capacity(n);
    let mut cumulative = 0.0;
    let mut prev_dir: Option<f64> = None;
    for i in 0..n {
        let a = pts[i];
        let b = pts[(i + 1) % n];
        let dir = (b.y - a.y).atan2(b.x - a.x);
        if let Some(p) = prev_dir {
            let mut delta = dir - p;
            while delta > PI {
                delta -= 2.0 * PI;
            }
            while delta < -PI {
                delta += 2.0 * PI;
            }
            cumulative += delta;
        }
        prev_dir = Some(dir);
        angles.push(cumulative);
    }
    angles
}

/// The turning-function distance of Arkin et al. \[ACH+90\]: L2 distance
/// between turning functions, minimized over starting-point shifts and
/// the accompanying rotation offset.
///
/// Both polygons are resampled to `n` points; the result is invariant
/// to translation, scale (via arc-length normalization), rotation (via
/// the optimal additive offset) and choice of starting vertex (via the
/// shift minimization).
pub fn turning_distance(a: &Polygon, b: &Polygon, n: usize) -> f64 {
    let ta = turning_function(a, n);
    let prototype = Prototype::new(turning_function(b, n));
    min_shift_distance(&ta, &prototype, &mut Vec::new())
}

/// The filter's margin δ is this many times the derived bound on
/// `|approx(s) − err(s)|` ([`rounding_bound`]).
const MARGIN: f64 = 128.0;

/// The transform length `m` for `n` samples: `n` itself when it is a
/// power of two (at least 2), where the correlation is cyclic at `m`;
/// otherwise the power of two at or above `2n`, where the prototype's
/// signal is its doubled turning function, so the linear correlation at
/// lags below `n` is the cyclic one at `n` (DESIGN §16).
fn transform_len(n: usize) -> usize {
    if n >= 2 && n.is_power_of_two() {
        n
    } else {
        n.saturating_mul(2).next_power_of_two().max(2)
    }
}

/// A query's shape prototype, prepared once for every row it grades:
/// its turning function (doubled), the two sums every shift shares,
/// and the spectrum of its correlation signal.
///
/// [`TurningCorpus::prototype`] builds one; a repository may keep it
/// for a named target and grade with [`TurningCorpus::distances_to`].
#[derive(Debug, Clone, PartialEq)]
pub struct Prototype {
    /// `tb ++ tb`: position `i + shift` is `tb[(i + shift) % n]` for
    /// every `i, shift < n`, so no shift loop needs a modulo.
    doubled: Vec<f64>,
    /// `Σ b` over one copy, in index order.
    sum: f64,
    /// `Σ b²` over one copy, in index order.
    sum_sq: f64,
    /// The twiddles of the `transform_len(n)`-point transforms.
    fft: &'static Fft,
    /// The packed spectrum of `tb` (cyclic case) or of `tb ++ tb`.
    spectrum: Vec<f64>,
    /// `margin(n, 1)`: δ per unit of `Σa² + Σb²`.
    margin_per_sum_sq: f64,
}

impl Prototype {
    fn new(mut tb: Vec<f64>) -> Prototype {
        let n = tb.len();
        let (sum, sum_sq) = sums(&tb);
        tb.extend_from_within(..);
        let fft = Fft::of(transform_len(n));
        let signal = if fft.len() == n { &tb[..n] } else { &tb[..] };
        let spectrum = fft.real_spectrum(signal);
        Prototype {
            doubled: tb,
            sum,
            sum_sq,
            spectrum,
            fft,
            margin_per_sum_sq: margin(n, 1.0),
        }
    }

    /// The number of turning-function samples.
    pub fn samples(&self) -> usize {
        self.doubled.len() / 2
    }
}

/// `(Σ t, Σ t²)`, each in index order.
fn sums(t: &[f64]) -> (f64, f64) {
    t.iter()
        .fold((0.0, 0.0), |(sum, sum_sq), &x| (sum + x, sum_sq + x * x))
}

/// The roundings of the exact error and of the estimate around the
/// correlation bound `|approx(s) − err(s)|` by
/// `ROUNDING · γ_{n+3} · (Σa² + Σb²)/n` (DESIGN §16).
const ROUNDING: f64 = 50.0;

/// `φ_m`: the correlation the filter reads is within
/// `φ_m · (Σa² + Σb²)` of the exact `C(s)`, through the two forward
/// transforms, the spectra's product and the inverse transform
/// (DESIGN §16, from Higham's Thm 24.2).
fn correlation_error(n: usize) -> f64 {
    let m = transform_len(n);
    let t = m.trailing_zeros();
    let mu = fft::TWIDDLE_ERROR;
    // The stored spectra: Hermitian mirrors of computed transforms.
    let e1 = SQRT_2 * fft::relative_error(t);
    // Their product, with the complex multiplication's √2·γ₂.
    let e2 = e1 * (1.0 + e1) + e1 + SQRT_2 * gamma(2) * (1.0 + e1) * (1.0 + e1);
    // The half-length inverse: its pre-pass, then the transform.
    let inverse = fft::relative_error(t.saturating_sub(1));
    let e3 = (1.0 + e2) * (inverse + SQRT_2 * (mu + gamma(8)) * (1.0 + inverse)) + e2;
    e3 * (m as f64 / 2.0).sqrt()
}

/// The derived bound on `|approx(s) − err(s)|` between the filter's
/// estimate and the exact error, both as computed, in units of
/// `(Σa² + Σb²)/n`: `ROUNDING · γ_{n+3} + 2.01 · φ_m`.
fn rounding_bound(n: usize) -> f64 {
    ROUNDING * gamma(n.saturating_add(3)) + 2.01 * correlation_error(n)
}

/// The margin δ for `n` samples and `Σa² + Σb²`: [`MARGIN`] times the
/// derived rounding bound on `|approx(s) − err(s)|`.
fn margin(n: usize, sum_sq_both: f64) -> f64 {
    MARGIN * rounding_bound(n) / n as f64 * sum_sq_both
}

/// The exact error of one starting-point shift, in every lane of
/// `samples` (one row, or a tile of `LANES` rows, `[i][lane]`) at once,
/// lane `l` at shift `shift(l)`: the mean squared difference between
/// the row and the shifted prototype under that shift's optimal
/// rotation offset (the mean difference), both sums in index order —
/// the operations of the one-shift reference loop, lane by lane.
fn shift_error<L: Lane>(samples: &[L], tb2: &[f64], shift: impl Fn(usize) -> usize) -> L {
    let n = samples.len();
    let len = L::splat(n as f64);
    let windows: [&[f64]; LANES] = std::array::from_fn(|lane| &tb2[shift(lane)..][..n]);
    let shifted = |i: usize| L::from_fn(|lane| windows[lane][i]);
    let mut sum = L::splat(0.0);
    for (i, &a) in samples.iter().enumerate() {
        sum = sum.add(a.sub(shifted(i)));
    }
    let offset = sum.div(len);
    let mut err = L::splat(0.0);
    for (i, &a) in samples.iter().enumerate() {
        let d = a.sub(shifted(i)).sub(offset);
        err = err.add(d.mul(d));
    }
    err.div(len)
}

/// The filter, for every lane of `spectrum` at once — one row's packed
/// spectrum (`L = f64`) or a tile of `LANES` rows' — with each lane's
/// `(Σa, Σa²)`: writes
/// `approx(s) = (Σa² + Σb² − 2·C(s))·fl(1/n) − ((Σa − Σb)/n)²` for every
/// shift into `approx[..n]`, with every `C(s)` from one product of the
/// spectra and one inverse transform, and returns each lane's cut —
/// shift `s` is refined iff `approx(s) ≤ cut`. The cut is
/// `min approx + 2δ`; it is not finite (refine every shift) when an
/// estimate is not. Each lane runs one row's operations in one row's
/// order, so a tile's lane is that row's run, bit for bit.
fn filter<L: Lane>(
    spectrum: &[L],
    (sum, sum_sq): (L, L),
    prototype: &Prototype,
    approx: &mut Vec<L>,
) -> L {
    let n = prototype.samples();
    let len = n as f64;
    let sum_sq_both = sum_sq.add(L::splat(prototype.sum_sq));
    let mean = sum.sub(L::splat(prototype.sum)).div(L::splat(len));
    let mean_sq = mean.mul(mean);
    // `correlate` leaves m·C(s) in the scratch after the n estimates,
    // C(2j) in its first half and C(2j + 1) in its second; 1/m is a
    // power of two, so exact. It writes every entry it reads.
    let m = prototype.fft.len();
    let scale = 1.0 / m as f64;
    approx.resize(n + m, L::splat(0.0));
    let (estimates, scratch) = approx.split_at_mut(n);
    let (even, odd) = scratch.split_at_mut(m / 2);
    prototype
        .fft
        .correlate(spectrum, &prototype.spectrum, even, odd);
    let (twice_scale, inv_len) = (L::splat(2.0 * scale), L::splat(1.0 / len));
    let estimate = |c: L| {
        sum_sq_both
            .sub(c.mul(twice_scale))
            .mul(inv_len)
            .sub(mean_sq)
    };
    // The smallest estimate, taken in shift order by a select that skips
    // NaNs, and `e − e` summed: +0 while every estimate is finite, NaN
    // once one is not. Both are element-wise, so the lanes run side by
    // side.
    let (mut lowest, mut poison) = (L::splat(f64::INFINITY), L::splat(0.0));
    for (pair, (&even, &odd)) in estimates.chunks_mut(2).zip(even.iter().zip(odd.iter())) {
        for (x, c) in pair.iter_mut().zip([even, odd]) {
            let e = estimate(c);
            *x = e;
            lowest = lowest.zip(e, |lowest, e| if e < lowest { e } else { lowest });
            poison = poison.add(e.sub(e));
        }
    }
    // The cut is never −0 (`lowest + 2δ` with 2δ ≥ +0), so adding a
    // +0 poison leaves its bits; a NaN one makes it NaN: refine every
    // shift.
    let margin = L::splat(2.0 * prototype.margin_per_sum_sq).mul(sum_sq_both);
    lowest.add(margin).add(poison)
}

/// The shifts [`filter`] leaves for the exact error, for the first
/// `live` lanes at once: writes into `kept`, in ascending shift order,
/// every shift some lane keeps, with the lanes that keep it (bit `l` for
/// lane `l`). A lane keeps the shifts whose estimate is at most its cut,
/// or every shift when its cut is not finite.
fn survivors<L: Lane>(estimates: &[L], cut: L, live: usize, kept: &mut Vec<(usize, u8)>) {
    let cuts: [f64; LANES] = std::array::from_fn(|lane| cut.at(lane));
    let every: [bool; LANES] = std::array::from_fn(|lane| !cuts[lane].is_finite());
    let live = (1u8 << live.min(LANES)) - 1;
    kept.clear();
    for (shift, x) in estimates.iter().enumerate() {
        let lanes = (0..LANES).fold(0u8, |lanes, lane| {
            lanes | u8::from((x.at(lane) <= cuts[lane]) | every[lane]) << lane
        });
        if lanes & live != 0 {
            kept.push((shift, lanes & live));
        }
    }
}

/// The refine, for the first `live` lanes of `samples` (one row, or a
/// tile of `LANES` rows, `[i][lane]`) with [`filter`]'s `estimates` and
/// cut: pushes each lane's root of the smallest exact error over the
/// shifts it keeps ([`survivors`]), in ascending shift order.
///
/// Every estimate is within δ of its exact error, so the best shift is
/// always refined and each result is the full scan's, bit for bit;
/// debug builds check that on every row. The lanes refine side by
/// side: a round takes the next kept shift of every lane that has one
/// and computes their [`shift_error`]s at once, so four rows' dependent
/// sums overlap; a lane's own errors still fold in its own shift order.
fn refine<L: Lane>(
    samples: &[L],
    prototype: &Prototype,
    estimates: &[L],
    cut: L,
    live: usize,
    kept: &mut Vec<(usize, u8)>,
    out: &mut Vec<f64>,
) {
    let tb2 = &prototype.doubled;
    debug_assert_eq!(tb2.len(), samples.len().saturating_mul(2));
    survivors(estimates, cut, live, kept);
    let mut queues: [_; LANES] = std::array::from_fn(|lane| {
        kept.iter()
            .filter(move |&&(_, lanes)| lanes >> lane & 1 != 0)
            .map(|&(shift, _)| shift)
    });
    let mut best = [f64::INFINITY; LANES];
    loop {
        let shifts: [Option<usize>; LANES] = std::array::from_fn(|lane| queues[lane].next());
        if shifts.iter().all(Option::is_none) {
            break;
        }
        // A lane with no shift left repeats shift 0; its error is dropped.
        let errors = shift_error(samples, tb2, |lane| shifts[lane].unwrap_or(0));
        for (lane, shift) in shifts.iter().enumerate() {
            if shift.is_some() {
                best[lane] = best[lane].min(errors.at(lane));
            }
        }
    }
    for (lane, best) in best.iter().enumerate().take(live) {
        let distance = best.max(0.0).sqrt();
        debug_assert_eq!(
            distance.to_bits(),
            every_shift(&samples.iter().map(|x| x.at(lane)).collect::<Vec<_>>(), tb2).to_bits(),
            "lane {lane}: the refined shifts missed the best one"
        );
        out.push(distance);
    }
}

/// The Arkin distance between a turning function and a prototype of the
/// same length: the root of the smallest per-shift error, by filter and
/// refine (§2.1's distance bounding over shifts) — [`filter`] over the
/// row's spectrum, then [`refine`].
fn min_shift_distance(ta: &[f64], prototype: &Prototype, approx: &mut Vec<f64>) -> f64 {
    let spectrum = prototype.fft.real_spectrum(ta);
    let cut = filter(&spectrum, sums(ta), prototype, approx);
    let mut out = Vec::with_capacity(1);
    let estimates = &approx[..ta.len()];
    refine(ta, prototype, estimates, cut, 1, &mut Vec::new(), &mut out);
    out.pop().unwrap_or(f64::INFINITY)
}

/// The full scan the filter replaced: every shift's exact error, in
/// ascending shift order: the debug check's reference and the tests'.
fn every_shift(ta: &[f64], tb2: &[f64]) -> f64 {
    (0..ta.len())
        .map(|shift| shift_error(ta, tb2, |_| shift))
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
        .sqrt()
}

/// The turning functions of a shape collection, resampled once, with
/// the spectra the shift filter reads.
///
/// §2.1's recipe applied to shape: everything that depends only on the
/// database is computed when the database is loaded, so grading a
/// query costs one resampling and one transform of the prototype plus
/// the shift kernel per object. Row `i` is
/// `turning_function(shape i, samples)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TurningCorpus {
    samples: usize,
    len: usize,
    /// The rows in tiles of `LANES` (`⌈len/LANES⌉ · samples` entries):
    /// tile `t` owns `rows[t·samples .. (t+1)·samples]`, entry `i`
    /// holding sample `i` of row `t·LANES + l` in lane `l`.
    rows: Vec<[f64; LANES]>,
    /// The rows' packed spectra in the same tiles
    /// (`⌈len/LANES⌉ · transform_len(samples)` entries).
    spectra: Vec<[f64; LANES]>,
    /// Each tile's `(Σa, Σa²)`, a lane a row, each in index order.
    sums: Vec<([f64; LANES], [f64; LANES])>,
}

impl TurningCorpus {
    /// Resamples every shape to `samples` points and transforms each
    /// turning function once.
    pub fn build<'a>(
        shapes: impl IntoIterator<Item = &'a Polygon>,
        samples: usize,
    ) -> TurningCorpus {
        let fft = Fft::of(transform_len(samples));
        let m = fft.len();
        let shapes = shapes.into_iter();
        // Sized up front where the count is known: a doubling `Vec`
        // holds its old and new blocks at once, and the peak is what a
        // loaded repository pays.
        let expected = shapes.size_hint().0;
        let tiles = expected.div_ceil(LANES);
        let mut len = 0usize;
        let mut rows = Vec::with_capacity(tiles.saturating_mul(samples));
        let mut spectra = Vec::with_capacity(tiles.saturating_mul(m));
        let mut tile_sums = Vec::with_capacity(tiles);
        for shape in shapes {
            let row = turning_function(shape, samples);
            let lane = len % LANES;
            if lane == 0 {
                // A new tile, zero in the lanes no row reaches; they are
                // never refined, and never reach an output.
                rows.resize(rows.len().saturating_add(samples), [0.0; LANES]);
                spectra.resize(spectra.len().saturating_add(m), [0.0; LANES]);
                tile_sums.push(([0.0; LANES], [0.0; LANES]));
            }
            let tile = rows.len().saturating_sub(samples);
            for (column, &x) in rows[tile..].iter_mut().zip(&row) {
                column[lane] = x;
            }
            let tile = spectra.len().saturating_sub(m);
            for (column, x) in spectra[tile..].iter_mut().zip(fft.real_spectrum(&row)) {
                column[lane] = x;
            }
            if let Some((sum, sum_sq)) = tile_sums.last_mut() {
                (sum[lane], sum_sq[lane]) = sums(&row);
            }
            len = len.saturating_add(1);
        }
        TurningCorpus {
            samples,
            len,
            rows,
            spectra,
            sums: tile_sums,
        }
    }

    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the corpus holds no shape.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `prototype` resampled at the corpus's sample count and
    /// transformed, ready for [`distances_to`](Self::distances_to).
    pub fn prototype(&self, prototype: &Polygon) -> Prototype {
        Prototype::new(turning_function(prototype, self.samples))
    }

    /// `turning_distance(shape i, prototype, samples)` for every shape,
    /// bit for bit, in corpus order.
    pub fn distances(&self, prototype: &Polygon) -> Vec<f64> {
        self.distances_to(&self.prototype(prototype))
    }

    /// [`distances`](Self::distances) to a prototype this corpus built:
    /// [`filter`] and [`refine`] a tile of `LANES` rows at a time, each
    /// row in its own lane.
    ///
    /// # Panics
    /// Panics if the prototype was resampled at another sample count.
    pub fn distances_to(&self, prototype: &Prototype) -> Vec<f64> {
        assert_eq!(
            prototype.samples(),
            self.samples,
            "the prototype must come from this corpus"
        );
        let n = self.samples;
        if n == 0 {
            // No samples, no shifts: `turning_distance(_, _, 0)`.
            return vec![f64::INFINITY; self.len];
        }
        let (mut approx, mut kept) = (Vec::new(), Vec::new());
        let mut out = Vec::with_capacity(self.len);
        let tiles = self
            .rows
            .chunks_exact(n)
            .zip(self.spectra.chunks_exact(prototype.fft.len()))
            .zip(&self.sums);
        for ((rows, spectra), &sums) in tiles {
            let cut = filter(spectra, sums, prototype, &mut approx);
            // The last tile's unused lanes are not live: dropped here.
            let live = (self.len - out.len()).min(LANES);
            refine(
                rows,
                prototype,
                &approx[..n],
                cut,
                live,
                &mut kept,
                &mut out,
            );
        }
        out
    }
}

/// Fourier shape descriptor: magnitudes of DFT coefficients 1..=h of
/// the centered boundary (as a complex signal), normalized by the
/// magnitude of the first coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct FourierDescriptor {
    coefficients: Vec<f64>,
}

impl FourierDescriptor {
    /// Computes the descriptor with `harmonics` coefficients from an
    /// `n`-point resampling.
    pub fn of(poly: &Polygon, harmonics: usize, n: usize) -> FourierDescriptor {
        let pts = poly.resample(n);
        let c = poly.centroid();
        // Complex boundary signal z_t = (x − cx) + i(y − cy).
        let re: Vec<f64> = pts.iter().map(|p| p.x - c.x).collect();
        let im: Vec<f64> = pts.iter().map(|p| p.y - c.y).collect();
        // Naive DFT — n is small (≤ 256) and this avoids an FFT dep.
        let mag = |freq: usize| -> f64 {
            let mut sr = 0.0;
            let mut si = 0.0;
            for t in 0..n {
                let ang = -2.0 * PI * (freq * t) as f64 / n as f64;
                let (sa, ca) = ang.sin_cos();
                sr += re[t] * ca - im[t] * sa;
                si += re[t] * sa + im[t] * ca;
            }
            (sr * sr + si * si).sqrt()
        };
        let base = mag(1).max(1e-12);
        let coefficients = (2..=harmonics.saturating_add(1))
            .map(|f| mag(f) / base)
            .collect();
        FourierDescriptor { coefficients }
    }

    /// The normalized coefficient magnitudes.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// L2 distance between descriptors.
    ///
    /// # Panics
    /// Panics if descriptor lengths differ (caller must use one
    /// `harmonics` setting per collection).
    pub fn distance(&self, other: &FourierDescriptor) -> f64 {
        assert_eq!(
            self.coefficients.len(),
            other.coefficients.len(),
            "descriptors must use the same number of harmonics"
        );
        self.coefficients
            .iter()
            .zip(&other.coefficients)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// The seven Hu moment invariants of a polygon's raster fill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HuMoments {
    /// φ₁..φ₇.
    pub phi: [f64; 7],
}

impl HuMoments {
    /// Computes the invariants on a `grid × grid` raster of the
    /// polygon's bounding box.
    pub fn of(poly: &Polygon, grid: usize) -> HuMoments {
        let vs = poly.vertices();
        let (mut minx, mut miny, mut maxx, mut maxy) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in vs {
            minx = minx.min(p.x);
            miny = miny.min(p.y);
            maxx = maxx.max(p.x);
            maxy = maxy.max(p.y);
        }
        let w = (maxx - minx).max(1e-9);
        let h = (maxy - miny).max(1e-9);
        let scale = w.max(h);

        // Raster fill by point-in-polygon sampling at cell centers.
        let mut raw = [[0.0f64; 4]; 4]; // raw[p][q] = m_pq for p+q ≤ 3
        let g = grid as f64;
        for yi in 0..grid {
            for xi in 0..grid {
                let x = minx + (xi as f64 + 0.5) / g * scale;
                let y = miny + (yi as f64 + 0.5) / g * scale;
                if point_in_polygon(Point::new(x, y), vs) {
                    let xn = (x - minx) / scale;
                    let yn = (y - miny) / scale;
                    let mut xp = 1.0;
                    for (p, row) in raw.iter_mut().enumerate() {
                        let mut yq = 1.0;
                        for (q, cell) in row.iter_mut().enumerate() {
                            if p + q <= 3 {
                                *cell += xp * yq;
                            }
                            yq *= yn;
                        }
                        xp *= xn;
                    }
                }
            }
        }

        // Weight each inside cell by its (normalized-coordinate) area,
        // so the discrete moments approximate the continuous integrals
        // and η/φ match their analytic values independent of `grid`.
        let cell_area = 1.0 / (g * g);
        for row in raw.iter_mut() {
            for v in row.iter_mut() {
                *v *= cell_area;
            }
        }

        let m00 = raw[0][0].max(1e-12);
        let xbar = raw[1][0] / m00;
        let ybar = raw[0][1] / m00;

        // Central moments (expanded for p+q ≤ 3).
        let mu20 = raw[2][0] - xbar * raw[1][0];
        let mu02 = raw[0][2] - ybar * raw[0][1];
        let mu11 = raw[1][1] - xbar * raw[0][1];
        let mu30 = raw[3][0] - 3.0 * xbar * raw[2][0] + 2.0 * xbar * xbar * raw[1][0];
        let mu03 = raw[0][3] - 3.0 * ybar * raw[0][2] + 2.0 * ybar * ybar * raw[0][1];
        let mu21 =
            raw[2][1] - 2.0 * xbar * raw[1][1] - ybar * raw[2][0] + 2.0 * xbar * xbar * raw[0][1];
        let mu12 =
            raw[1][2] - 2.0 * ybar * raw[1][1] - xbar * raw[0][2] + 2.0 * ybar * ybar * raw[1][0];

        // Scale-normalized moments η_pq = μ_pq / m00^(1+(p+q)/2).
        let eta = |mu: f64, p: usize, q: usize| mu / m00.powf(1.0 + (p + q) as f64 / 2.0);
        let n20 = eta(mu20, 2, 0);
        let n02 = eta(mu02, 0, 2);
        let n11 = eta(mu11, 1, 1);
        let n30 = eta(mu30, 3, 0);
        let n03 = eta(mu03, 0, 3);
        let n21 = eta(mu21, 2, 1);
        let n12 = eta(mu12, 1, 2);

        let phi1 = n20 + n02;
        let phi2 = (n20 - n02).powi(2) + 4.0 * n11 * n11;
        let phi3 = (n30 - 3.0 * n12).powi(2) + (3.0 * n21 - n03).powi(2);
        let phi4 = (n30 + n12).powi(2) + (n21 + n03).powi(2);
        let phi5 = (n30 - 3.0 * n12)
            * (n30 + n12)
            * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
            + (3.0 * n21 - n03) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));
        let phi6 = (n20 - n02) * ((n30 + n12).powi(2) - (n21 + n03).powi(2))
            + 4.0 * n11 * (n30 + n12) * (n21 + n03);
        let phi7 = (3.0 * n21 - n03)
            * (n30 + n12)
            * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
            - (n30 - 3.0 * n12) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));

        HuMoments {
            phi: [phi1, phi2, phi3, phi4, phi5, phi6, phi7],
        }
    }

    /// Canberra-style relative distance over the seven invariants:
    /// `Σᵢ |φᵢ(a) − φᵢ(b)| / (|φᵢ(a)| + |φᵢ(b)| + ε)`, in `[0, 7]`.
    ///
    /// Hu components span many orders of magnitude, and the
    /// higher-order ones are *zero* for symmetric shapes — which a
    /// raster renders as a random residue (≈1e-10 at 128²) of arbitrary
    /// sign. A log-magnitude transform would blow such residues up into
    /// dominant terms; the relative form with an ε floor instead maps
    /// zero-vs-residue pairs to ≈0 while genuine signal differences
    /// (say φ₅ = 5e-6 vs 0 for an asymmetric outline) still score near
    /// the full per-component weight of 1.
    pub fn distance(&self, other: &HuMoments) -> f64 {
        const EPS: f64 = 1e-8;
        self.phi
            .iter()
            .zip(&other.phi)
            .map(|(&a, &b)| (a - b).abs() / (a.abs() + b.abs() + EPS))
            .sum()
    }
}

/// Even-odd ray-casting point-in-polygon test.
fn point_in_polygon(p: Point, vs: &[Point]) -> bool {
    let n = vs.len();
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let (vi, vj) = (vs[i], vs[j]);
        if ((vi.y > p.y) != (vj.y > p.y))
            && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
        {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polygon_validation() {
        assert!(matches!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(ShapeError::TooFewVertices(2))
        ));
        assert!(matches!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(f64::NAN, 0.0),
                Point::new(1.0, 1.0),
            ]),
            Err(ShapeError::NotFinite)
        ));
        assert!(matches!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
            ]),
            Err(ShapeError::Degenerate)
        ));
    }

    #[test]
    fn rectangle_geometry() {
        let r = Polygon::rectangle(0.0, 0.0, 4.0, 2.0).unwrap();
        assert!((r.perimeter() - 12.0).abs() < 1e-12);
        assert!((r.area().abs() - 8.0).abs() < 1e-12);
        let c = r.centroid();
        assert!(c.x.abs() < 1e-12 && c.y.abs() < 1e-12);
    }

    #[test]
    fn resample_spacing_is_uniform() {
        let r = Polygon::rectangle(0.0, 0.0, 2.0, 2.0).unwrap();
        let pts = r.resample(8);
        assert_eq!(pts.len(), 8);
        for w in pts.windows(2) {
            let d = w[1].sub(w[0]).norm();
            assert!((d - 1.0).abs() < 1e-9, "gap {d}");
        }
    }

    #[test]
    fn turning_function_total_rotation_approaches_2pi() {
        // The cumulative turning over one traversal of a convex CCW
        // polygon is 2π; the discretized function records n−1 of the n
        // inter-edge turns, so a smooth outline (where each single turn
        // is ≈ 2π/n) gets within 2π/n of the full revolution.
        let smooth = Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 48).unwrap();
        let tf = turning_function(&smooth, 128);
        let total = tf.last().unwrap();
        assert!((total - 2.0 * PI).abs() < 0.2, "total {total}");
        // A square's missing turn is a full corner, π/2:
        let sq = Polygon::regular(4, 1.0, 0.0, 0.0, 0.0).unwrap();
        let sq_total = *turning_function(&sq, 64).last().unwrap();
        assert!((sq_total - 1.5 * PI).abs() < 0.2, "square total {sq_total}");
    }

    #[test]
    fn turning_distance_is_rotation_and_scale_invariant() {
        let a = Polygon::regular(5, 1.0, 0.0, 0.0, 0.0).unwrap();
        let b = Polygon::regular(5, 3.5, 7.0, -2.0, 1.1).unwrap();
        let d = turning_distance(&a, &b, 64);
        assert!(d < 0.12, "same shape should be near 0, got {d}");
    }

    #[test]
    fn turning_distance_separates_square_from_star() {
        let sq = Polygon::regular(4, 1.0, 0.0, 0.0, 0.0).unwrap();
        let star = Polygon::star(5, 1.0, 0.4, 0.0, 0.0).unwrap();
        let same = turning_distance(&sq, &sq, 64);
        let diff = turning_distance(&sq, &star, 64);
        assert!(same < 1e-9);
        assert!(diff > 0.3, "square vs star should differ, got {diff}");
    }

    #[test]
    fn fourier_descriptor_invariances() {
        let a = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).unwrap();
        let b = Polygon::regular(6, 2.0, 5.0, 5.0, 0.7).unwrap();
        let fa = FourierDescriptor::of(&a, 8, 128);
        let fb = FourierDescriptor::of(&b, 8, 128);
        assert!(fa.distance(&fb) < 0.05, "got {}", fa.distance(&fb));
    }

    #[test]
    fn fourier_descriptor_separates_shapes() {
        let hexagon = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).unwrap();
        let star = Polygon::star(6, 1.0, 0.35, 0.0, 0.0).unwrap();
        let fh = FourierDescriptor::of(&hexagon, 8, 128);
        let fs = FourierDescriptor::of(&star, 8, 128);
        assert!(fh.distance(&fs) > 0.1, "got {}", fh.distance(&fs));
    }

    #[test]
    #[should_panic(expected = "harmonics")]
    fn fourier_descriptor_length_mismatch_panics() {
        let a = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).unwrap();
        let f1 = FourierDescriptor::of(&a, 4, 64);
        let f2 = FourierDescriptor::of(&a, 8, 64);
        let _ = f1.distance(&f2);
    }

    #[test]
    fn hu_moments_translation_and_scale_invariant() {
        let a = Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap();
        let b = Polygon::rectangle(10.0, -3.0, 6.0, 3.0).unwrap();
        let ha = HuMoments::of(&a, 96);
        let hb = HuMoments::of(&b, 96);
        assert!(
            (ha.phi[0] - hb.phi[0]).abs() < 0.02,
            "phi1 {} vs {}",
            ha.phi[0],
            hb.phi[0]
        );
        assert!(ha.distance(&hb) < 0.5, "got {}", ha.distance(&hb));
    }

    #[test]
    fn hu_moments_are_rotation_invariant() {
        // Rotate a 2:1 rectangle by assorted angles; the Hu invariants
        // must stay put (that is their whole point).
        let base = Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap();
        let h_base = HuMoments::of(&base, 128);
        for angle in [0.3f64, 0.9, 1.4] {
            let (sin, cos) = angle.sin_cos();
            let rotated = Polygon::new(
                base.vertices()
                    .iter()
                    .map(|p| Point::new(p.x * cos - p.y * sin, p.x * sin + p.y * cos))
                    .collect(),
            )
            .unwrap();
            let h_rot = HuMoments::of(&rotated, 128);
            assert!(
                (h_base.phi[0] - h_rot.phi[0]).abs() < 0.03,
                "phi1 drifted under rotation {angle}: {} vs {}",
                h_base.phi[0],
                h_rot.phi[0]
            );
            assert!(
                h_base.distance(&h_rot) < 1.0,
                "distance {} too large at angle {angle}",
                h_base.distance(&h_rot)
            );
        }
    }

    #[test]
    fn hu_moments_separate_disc_from_bar() {
        let disc = Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 48).unwrap();
        let bar = Polygon::rectangle(0.0, 0.0, 4.0, 0.5).unwrap();
        let hd = HuMoments::of(&disc, 96);
        let hb = HuMoments::of(&bar, 96);
        // φ₁ (spread) differs markedly between a disc and a long bar.
        assert!((hd.phi[0] - hb.phi[0]).abs() > 0.02);
    }

    #[test]
    fn point_in_polygon_basics() {
        let sq = Polygon::rectangle(0.0, 0.0, 2.0, 2.0).unwrap();
        assert!(point_in_polygon(Point::new(0.0, 0.0), sq.vertices()));
        assert!(!point_in_polygon(Point::new(5.0, 0.0), sq.vertices()));
    }

    /// Sample counts around the correlation pass's lane width (8), and
    /// ones whose divisors give regular shapes exact symmetries.
    const SAMPLES: [usize; 10] = [1, 2, 3, 7, 8, 9, 32, 63, 64, 65];

    /// Outlines the filter must stay within its margin on: the
    /// equivalence suite's mix (ellipses, rectangles, stars, jittered
    /// copies) at random positions and scales; regular polygons and
    /// stars whose symmetry divides 64; a copy of one outline scaled and
    /// moved (distance ≈ 0 to it); and outlines centred 1e6–1e7 away.
    fn margin_shapes(seed: u64) -> Vec<Polygon> {
        use crate::synth::jitter_shape;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut shapes = Vec::new();
        for i in 0..6 {
            let (cx, cy) = (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
            let outer: f64 = rng.gen_range(0.8..1.8);
            let base = match i % 3 {
                0 => Polygon::ellipse(cx, cy, outer, outer * rng.gen_range(0.5..1.0), 12 + i),
                1 => Polygon::rectangle(cx, cy, outer * 2.0, rng.gen_range(0.5..1.5)),
                _ => Polygon::star(3 + i, outer, outer * rng.gen_range(0.25..0.5), cx, cy),
            }
            .unwrap();
            shapes.push(if rng.gen::<f64>() < 0.5 {
                jitter_shape(&base, 0.05, seed ^ i as u64)
            } else {
                base
            });
        }
        let phase = rng.gen_range(0.0..PI);
        for sides in [4, 8, 16, 32] {
            shapes.push(Polygon::regular(sides, 1.0, 0.0, 0.0, phase).unwrap());
        }
        shapes.push(Polygon::star(4, 1.0, 0.4, 0.0, 0.0).unwrap());
        shapes.push(Polygon::star(8, 2.0, 0.7, 1.0, -1.0).unwrap());
        shapes.push(Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap());
        let scale = rng.gen_range(0.01..100.0);
        let (dx, dy) = (rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
        let copy = shapes[0]
            .vertices()
            .iter()
            .map(|p| Point::new(p.x * scale + dx, p.y * scale + dy))
            .collect();
        shapes.push(Polygon::new(copy).unwrap());
        let far = rng.gen_range(1e6..1e7);
        shapes.push(Polygon::ellipse(far, -far, 1.0, 0.6, 24).unwrap());
        shapes.push(Polygon::star(5, 2.0, 0.8, -far, far).unwrap());
        shapes.push(Polygon::regular(8, 1.5, far, far, phase).unwrap());
        shapes
    }

    /// [`filter`] on one row, its spectrum transformed first: leaves the
    /// `n` estimates in `approx` and returns the cut.
    fn filter_row(ta: &[f64], prototype: &Prototype, approx: &mut Vec<f64>) -> f64 {
        let spectrum = prototype.fft.real_spectrum(ta);
        let cut = filter(&spectrum, sums(ta), prototype, approx);
        approx.truncate(ta.len());
        cut
    }

    /// The shifts [`survivors`] keeps for one row.
    fn kept_shifts(estimates: &[f64], cut: f64) -> Vec<usize> {
        let mut kept = Vec::new();
        survivors(estimates, cut, 1, &mut kept);
        kept.iter().map(|&(shift, _)| shift).collect()
    }

    /// The filter's estimates and the exact errors of every shift, and
    /// the margin δ, for one pair at `n` samples.
    fn estimates_and_errors(a: &Polygon, b: &Polygon, n: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let ta = turning_function(a, n);
        let prototype = Prototype::new(turning_function(b, n));
        let mut approx = Vec::new();
        filter_row(&ta, &prototype, &mut approx);
        let exact = (0..n)
            .map(|shift| shift_error(&ta, &prototype.doubled, |_| shift))
            .collect();
        let delta = margin(n, sums(&ta).1 + prototype.sum_sq);
        (approx, exact, delta)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The margin is at least a hundred times what the estimates
        /// stray from the exact errors: `|approx(s) − err(s)| ≤ δ/100`
        /// for every shift of every pair. The bit-equality suites pass
        /// even with δ = 0 on these shapes; this is what guards δ.
        #[test]
        fn estimates_stay_within_a_hundredth_of_the_margin(seed in 0u64..1_000_000) {
            let shapes = margin_shapes(seed);
            for &n in &SAMPLES {
                for a in &shapes {
                    for b in &shapes {
                        let (approx, exact, delta) = estimates_and_errors(a, b, n);
                        proptest::prop_assert!(delta.is_finite() && delta >= 0.0);
                        for (shift, (&estimate, &err)) in approx.iter().zip(&exact).enumerate() {
                            proptest::prop_assert!(
                                (estimate - err).abs() <= delta / 100.0,
                                "seed {seed}, n {n}, shift {shift}: approx {estimate} vs \\
                                 exact {err}, δ {delta}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_cut_keeps_exact_ties_and_zero_margins() {
        // One sample: every turning function is [0], so Σa² + Σb² = 0,
        // δ = 0 and the one estimate sits on the cut.
        let sq = Polygon::regular(4, 1.0, 0.0, 0.0, 0.0).unwrap();
        let (approx, _, delta) = estimates_and_errors(&sq, &sq, 1);
        assert_eq!((approx, delta), (vec![0.0], 0.0));
        assert_eq!(turning_distance(&sq, &sq, 1), 0.0);
        // A square against itself at 64 samples: the shifts by a
        // quarter turn tie the true best, and all of them are refined.
        let ta = turning_function(&sq, 64);
        let prototype = Prototype::new(ta.clone());
        let mut approx = Vec::new();
        let cut = filter_row(&ta, &prototype, &mut approx);
        let refined = kept_shifts(&approx, cut);
        assert!(refined.contains(&0), "{refined:?}");
        assert_eq!(turning_distance(&sq, &sq, 64), 0.0);
    }

    #[test]
    fn non_finite_estimates_refine_every_shift() {
        let ta = vec![0.0, f64::NAN, 1.0];
        let prototype = Prototype::new(vec![0.0, 0.5, 1.0]);
        let mut approx = Vec::new();
        let cut = filter_row(&ta, &prototype, &mut approx);
        assert!(!cut.is_finite(), "cut {cut}");
        assert_eq!(kept_shifts(&approx, cut), [0, 1, 2]);
        let d = min_shift_distance(&ta, &prototype, &mut approx);
        assert_eq!(d.to_bits(), every_shift(&ta, &prototype.doubled).to_bits());
    }

    #[test]
    fn a_stored_row_with_a_nan_refines_every_shift() {
        // 64 samples take the cyclic transform, 65 the padded one. The
        // poisoned row is lane 1 of the only tile; its tile-mates grade
        // as if it were not there.
        for n in [64, 65] {
            let shapes = [
                Polygon::star(5, 1.0, 0.4, 0.0, 0.0).unwrap(),
                Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap(),
                Polygon::regular(6, 1.0, 0.0, 0.0, 0.3).unwrap(),
            ];
            let mut corpus = TurningCorpus::build(&shapes, n);
            corpus.rows[7][1] = f64::NAN;
            let row: Vec<f64> = corpus.rows.iter().map(|x| x[1]).collect();
            let fft = Fft::of(transform_len(n));
            for (column, x) in corpus.spectra.iter_mut().zip(fft.real_spectrum(&row)) {
                column[1] = x;
            }
            (corpus.sums[0].0[1], corpus.sums[0].1[1]) = sums(&row);
            let prototype = corpus.prototype(&Polygon::ellipse(0.0, 0.0, 1.0, 0.6, 30).unwrap());
            let mut approx = Vec::new();
            let cut = filter(&corpus.spectra, corpus.sums[0], &prototype, &mut approx);
            assert!(!cut[1].is_finite(), "n {n}: cut {}", cut[1]);
            let mut kept = Vec::new();
            survivors(&approx[..n], cut, 3, &mut kept);
            assert_eq!(kept.len(), n);
            assert!(kept.iter().all(|&(_, lanes)| lanes & 2 != 0), "{kept:?}");
            let distances = corpus.distances_to(&prototype);
            assert_eq!(
                distances[1].to_bits(),
                every_shift(&row, &prototype.doubled).to_bits()
            );
            for i in [0, 2] {
                assert!(cut[i].is_finite(), "n {n}, lane {i}");
                let alone = TurningCorpus::build(&shapes[i..=i], n).distances_to(&prototype);
                assert_eq!(
                    distances[i].to_bits(),
                    alone[0].to_bits(),
                    "n {n}, lane {i}"
                );
            }
        }
    }

    /// A tile's filter is its rows' one-row filters, lane by lane, bit
    /// for bit: every estimate and the cut, at sample counts on both
    /// transform paths and corpus sizes around the tile width. (The
    /// distances cannot show a lane's correlation straying: the margin
    /// absorbs it, and the refine is exact.)
    #[test]
    fn each_tile_lane_filters_as_its_row_alone() {
        let shapes = margin_shapes(5);
        let prototype_shape = Polygon::star(7, 1.0, 0.45, 0.0, 0.0).unwrap();
        for n in [1, 2, 3, 4, 16, 20, 50, 64, 65, 128] {
            for size in [1, 3, 4, 5, 9, shapes.len()] {
                let corpus = TurningCorpus::build(&shapes[..size], n);
                let prototype = corpus.prototype(&prototype_shape);
                let m = prototype.fft.len();
                let (mut wide, mut one) = (Vec::new(), Vec::new());
                let tiles = corpus
                    .rows
                    .chunks_exact(n)
                    .zip(corpus.spectra.chunks_exact(m));
                for (t, ((rows, spectra), &sums)) in tiles.zip(&corpus.sums).enumerate() {
                    let cut = filter(spectra, sums, &prototype, &mut wide);
                    for lane in 0..LANES.min(size - t * LANES) {
                        let row: Vec<f64> = rows.iter().map(|x| x[lane]).collect();
                        assert_eq!(row, turning_function(&shapes[t * LANES + lane], n));
                        let one_cut = filter_row(&row, &prototype, &mut one);
                        let what = format!("n {n}, size {size}, tile {t}, lane {lane}");
                        assert_eq!(cut[lane].to_bits(), one_cut.to_bits(), "{what}");
                        let lane_bits = wide[..n].iter().map(|x| x[lane].to_bits());
                        assert!(lane_bits.eq(one.iter().map(|x| x.to_bits())), "{what}");
                    }
                }
            }
        }
    }

    /// The correlation the filter reads is within `φ_m·(Σa² + Σb²)` of
    /// the exact one ([`correlation_error`]).
    #[test]
    fn correlations_stay_within_their_derived_bound() {
        for n in [1, 2, 3, 7, 8, 9, 63, 64, 65, 128] {
            for (a, b) in [(0, 1), (2, 3), (4, 0)] {
                let shapes = margin_shapes(n as u64);
                let ta = turning_function(&shapes[a], n);
                let prototype = Prototype::new(turning_function(&shapes[b], n));
                let fft = &prototype.fft;
                let m = fft.len();
                let (mut even, mut odd) = (vec![0.0; m / 2], vec![0.0; m / 2]);
                fft.correlate(
                    &fft.real_spectrum(&ta),
                    &prototype.spectrum,
                    &mut even,
                    &mut odd,
                );
                let sum_sq_both = sums(&ta).1 + prototype.sum_sq;
                let phi = correlation_error(n);
                for shift in 0..n {
                    let c = if shift % 2 == 0 {
                        even[shift / 2]
                    } else {
                        odd[shift / 2]
                    };
                    // The exact correlation, to well below the bound: a
                    // compensated (two-product, two-sum) dot product.
                    let (mut hi, mut lo) = (0.0_f64, 0.0_f64);
                    for (i, &x) in ta.iter().enumerate() {
                        let y = prototype.doubled[i + shift];
                        let p = x * y;
                        let e = x.mul_add(y, -p);
                        let s = hi + p;
                        let v = s - hi;
                        lo += (hi - (s - v)) + (p - v) + e;
                        hi = s;
                    }
                    let err = (c / m as f64 - (hi + lo)).abs();
                    assert!(
                        err <= phi * sum_sq_both,
                        "n {n}, shift {shift}: |ΔC| {err:e} > φS {:e}",
                        phi * sum_sq_both
                    );
                }
            }
        }
    }

    /// On the cd-store corpus (`garlic::demo::cd_store`'s generator and
    /// its repository's named prototypes, plus query-by-example ones),
    /// the filter leaves about one shift per object for the exact error.
    #[test]
    fn the_cd_store_refines_about_one_shift_per_object() {
        use crate::synth::{SynthConfig, SyntheticDb};

        let db = SyntheticDb::generate(&SynthConfig {
            count: 2000,
            bins_per_channel: 4,
            seed: 7,
            ..SynthConfig::default()
        });
        let rows: Vec<Vec<f64>> = db
            .objects
            .iter()
            .map(|o| turning_function(&o.shape, 64))
            .collect();
        let mut prototypes = vec![
            Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).unwrap(),
            Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap(),
            Polygon::star(6, 1.0, 0.35, 0.0, 0.0).unwrap(),
        ];
        prototypes.extend([0, 1, 2, 777, 1999].map(|id| db.objects[id].shape.clone()));
        let mut approx = Vec::new();
        for shape in &prototypes {
            let prototype = Prototype::new(turning_function(shape, 64));
            let refined: usize = rows
                .iter()
                .map(|ta| {
                    let cut = filter_row(ta, &prototype, &mut approx);
                    kept_shifts(&approx, cut).len()
                })
                .sum();
            let per_object = refined as f64 / rows.len() as f64;
            assert!(per_object <= 1.1, "{per_object} shifts refined per object");
        }
    }

    #[test]
    fn star_constructor_validates() {
        assert!(Polygon::star(1, 1.0, 0.5, 0.0, 0.0).is_err());
        assert!(Polygon::star(5, 1.0, 0.5, 0.0, 0.0).is_ok());
    }
}
