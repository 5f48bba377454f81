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

use std::f64::consts::PI;
use std::fmt;

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
    min_shift_distance(&ta, &prototype, &mut Vec::with_capacity(n))
}

/// Starting-point shifts the correlation pass carries per walk over `ta`.
const SHIFT_LANES: usize = 8;

/// The derived bound on `|approx(s) − err(s)|` between the filter's
/// estimate and the exact error, both as computed, is
/// `ROUNDING · γ_{n+3} · (Σa² + Σb²) / n` (DESIGN §16).
const ROUNDING: f64 = 50.0;

/// The filter's margin δ is this many times the rounding bound.
const MARGIN: f64 = 128.0;

/// A prototype's turning function, doubled, with the two sums every
/// shift shares: each shifted window covers every sample once.
struct Prototype {
    /// `tb ++ tb`: position `i + shift` is `tb[(i + shift) % n]` for
    /// every `i, shift < n`, so no shift loop needs a modulo.
    doubled: Vec<f64>,
    /// `Σ b` over one copy, in index order.
    sum: f64,
    /// `Σ b²` over one copy, in index order.
    sum_sq: f64,
}

impl Prototype {
    fn new(mut tb: Vec<f64>) -> Prototype {
        let (sum, sum_sq) = sums(&tb);
        tb.extend_from_within(..);
        Prototype {
            doubled: tb,
            sum,
            sum_sq,
        }
    }
}

/// `(Σ t, Σ t²)`, each in index order.
fn sums(t: &[f64]) -> (f64, f64) {
    t.iter()
        .fold((0.0, 0.0), |(sum, sum_sq), &x| (sum + x, sum_sq + x * x))
}

/// Higham's `γ_k = k·u / (1 − k·u)`, `u = 2⁻⁵³`: the relative error of
/// `k` chained roundings; `+∞` once `k·u` reaches 1.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    if ku < 1.0 {
        ku / (1.0 - ku)
    } else {
        f64::INFINITY
    }
}

/// The margin δ for `n` samples and `Σa² + Σb²`: [`MARGIN`] times the
/// derived rounding bound on `|approx(s) − err(s)|`.
fn margin(n: usize, sum_sq_both: f64) -> f64 {
    MARGIN * ROUNDING * gamma(n.saturating_add(3)) * sum_sq_both / n as f64
}

/// The cross-correlations `C(s) = Σᵢ ta[i]·tb2[i + s]` of `L`
/// consecutive shifts from `shift` on, each lane in index order.
fn correlations<const L: usize>(ta: &[f64], tb2: &[f64], shift: usize) -> [f64; L] {
    let mut c = [0.0_f64; L];
    for (&a, window) in ta.iter().zip(tb2[shift..].windows(L)) {
        for (c, &b) in c.iter_mut().zip(window) {
            *c += a * b;
        }
    }
    c
}

/// The exact error of one starting-point shift: the mean squared
/// difference between `ta` and the shifted prototype under that shift's
/// optimal rotation offset (the mean difference), both sums in index
/// order — the operations of the one-shift reference loop.
fn shift_error(ta: &[f64], tb2: &[f64], shift: usize) -> f64 {
    let n = ta.len() as f64;
    let shifted = &tb2[shift..];
    let mut sum = 0.0_f64;
    for (&a, &b) in ta.iter().zip(shifted) {
        sum += a - b;
    }
    let offset = sum / n;
    let mut err = 0.0_f64;
    for (&a, &b) in ta.iter().zip(shifted) {
        let d = a - b - offset;
        err += d * d;
    }
    err / n
}

/// The filter: writes `approx(s) = (Σa² + Σb² − 2·C(s))/n − ((Σa − Σb)/n)²`
/// for every shift into `approx`, from one correlation pass, and returns
/// the cut — shift `s` is refined iff `approx(s) ≤ cut`. The cut is
/// `min approx + 2δ`; `None` (refine every shift) when an estimate or the
/// cut is not finite.
fn filter(ta: &[f64], prototype: &Prototype, approx: &mut Vec<f64>) -> Option<f64> {
    let n = ta.len();
    let tb2 = &prototype.doubled;
    debug_assert_eq!(tb2.len(), n.saturating_mul(2));
    let len = n as f64;
    let (sum, sum_sq) = sums(ta);
    let sum_sq_both = sum_sq + prototype.sum_sq;
    let mean = (sum - prototype.sum) / len;
    let mean_sq = mean * mean;
    let estimate = |c: f64| (sum_sq_both - 2.0 * c) / len - mean_sq;
    approx.clear();
    for block in (0..n).step_by(SHIFT_LANES) {
        if n - block >= SHIFT_LANES {
            approx.extend(correlations::<SHIFT_LANES>(ta, tb2, block).map(estimate));
        } else {
            approx.extend((block..n).map(|shift| {
                let [c] = correlations::<1>(ta, tb2, shift);
                estimate(c)
            }));
        }
    }
    let (lowest, total) = lowest_and_total(approx);
    let cut = lowest + 2.0 * margin(n, sum_sq_both);
    // The total is finite only if every estimate is.
    (cut.is_finite() && total.is_finite()).then_some(cut)
}

/// The smallest of `xs` and their sum, each over [`SHIFT_LANES`]
/// interleaved lanes, so neither is one chain of dependent operations.
fn lowest_and_total(xs: &[f64]) -> (f64, f64) {
    let mut lowest = [f64::INFINITY; SHIFT_LANES];
    let mut total = [0.0_f64; SHIFT_LANES];
    let chunks = xs.chunks_exact(SHIFT_LANES);
    for (j, &x) in chunks.remainder().iter().enumerate() {
        lowest[j] = lowest[j].min(x);
        total[j] += x;
    }
    for chunk in chunks {
        for (j, &x) in chunk.iter().enumerate() {
            lowest[j] = lowest[j].min(x);
            total[j] += x;
        }
    }
    (
        lowest.iter().copied().fold(f64::INFINITY, f64::min),
        total.iter().sum(),
    )
}

/// The shifts [`filter`] leaves for the exact error, ascending: those
/// whose estimate is at most the cut, or every shift without one.
fn survivors(approx: &[f64], cut: Option<f64>) -> impl Iterator<Item = usize> + '_ {
    approx
        .iter()
        .enumerate()
        .filter(move |&(_, &estimate)| cut.is_none_or(|cut| estimate <= cut))
        .map(|(shift, _)| shift)
}

/// The Arkin distance between a turning function and a prototype of the
/// same length: the root of the smallest per-shift error.
///
/// Filter and refine (§2.1's distance bounding over shifts): [`filter`]
/// estimates every shift's error from one correlation pass, and only the
/// shifts within `2δ` of the smallest estimate get their exact error, in
/// ascending shift order. Every estimate is within δ of its exact error,
/// so the best shift is always refined and the result is the full
/// scan's, bit for bit; debug builds check that on every call.
fn min_shift_distance(ta: &[f64], prototype: &Prototype, approx: &mut Vec<f64>) -> f64 {
    let cut = filter(ta, prototype, approx);
    let distance = survivors(approx, cut)
        .map(|shift| shift_error(ta, &prototype.doubled, shift))
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
        .sqrt();
    debug_assert_eq!(
        distance.to_bits(),
        every_shift(ta, &prototype.doubled).to_bits(),
        "the refined shifts missed the best one"
    );
    distance
}

/// The full scan the filter replaced: every shift's exact error, in
/// ascending shift order: the debug check's reference and the tests'.
fn every_shift(ta: &[f64], tb2: &[f64]) -> f64 {
    (0..ta.len())
        .map(|shift| shift_error(ta, tb2, shift))
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
        .sqrt()
}

/// The turning functions of a shape collection, resampled once.
///
/// §2.1's recipe applied to shape: everything that depends only on the
/// database is computed when the database is loaded, so grading a
/// query costs one resampling of the prototype plus the shift kernel
/// per object. Row `i` is `turning_function(shape i, samples)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TurningCorpus {
    samples: usize,
    len: usize,
    /// Row-major `len × samples`.
    rows: Vec<f64>,
}

impl TurningCorpus {
    /// Resamples every shape to `samples` points.
    pub fn build<'a>(
        shapes: impl IntoIterator<Item = &'a Polygon>,
        samples: usize,
    ) -> TurningCorpus {
        let mut len = 0usize;
        let mut rows = Vec::new();
        for shape in shapes {
            rows.extend(turning_function(shape, samples));
            len = len.saturating_add(1);
        }
        TurningCorpus { samples, len, rows }
    }

    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the corpus holds no shape.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `turning_distance(shape i, prototype, samples)` for every shape,
    /// bit for bit, in corpus order.
    pub fn distances(&self, prototype: &Polygon) -> Vec<f64> {
        if self.samples == 0 {
            // No samples, no shifts: `turning_distance(_, _, 0)`.
            return vec![f64::INFINITY; self.len];
        }
        let prototype = Prototype::new(turning_function(prototype, self.samples));
        let mut approx = Vec::with_capacity(self.samples);
        self.rows
            .chunks_exact(self.samples)
            .map(|ta| min_shift_distance(ta, &prototype, &mut approx))
            .collect()
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

    /// The filter's estimates and the exact errors of every shift, and
    /// the margin δ, for one pair at `n` samples.
    fn estimates_and_errors(a: &Polygon, b: &Polygon, n: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let ta = turning_function(a, n);
        let prototype = Prototype::new(turning_function(b, n));
        let mut approx = Vec::new();
        filter(&ta, &prototype, &mut approx);
        let exact = (0..n)
            .map(|shift| shift_error(&ta, &prototype.doubled, shift))
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
        let cut = filter(&ta, &prototype, &mut approx);
        let refined: Vec<usize> = survivors(&approx, cut).collect();
        assert!(refined.contains(&0), "{refined:?}");
        assert_eq!(turning_distance(&sq, &sq, 64), 0.0);
    }

    #[test]
    fn non_finite_estimates_refine_every_shift() {
        let ta = vec![0.0, f64::NAN, 1.0];
        let prototype = Prototype::new(vec![0.0, 0.5, 1.0]);
        let mut approx = Vec::new();
        let cut = filter(&ta, &prototype, &mut approx);
        assert_eq!(cut, None);
        assert_eq!(survivors(&approx, cut).count(), 3);
        let d = min_shift_distance(&ta, &prototype, &mut approx);
        assert_eq!(d.to_bits(), every_shift(&ta, &prototype.doubled).to_bits());
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
        let corpus = TurningCorpus::build(db.objects.iter().map(|o| &o.shape), 64);
        let mut prototypes = vec![
            Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).unwrap(),
            Polygon::rectangle(0.0, 0.0, 2.0, 1.0).unwrap(),
            Polygon::star(6, 1.0, 0.35, 0.0, 0.0).unwrap(),
        ];
        prototypes.extend([0, 1, 2, 777, 1999].map(|id| db.objects[id].shape.clone()));
        let mut approx = Vec::new();
        for shape in &prototypes {
            let prototype = Prototype::new(turning_function(shape, 64));
            let refined: usize = corpus
                .rows
                .chunks_exact(64)
                .map(|ta| {
                    let cut = filter(ta, &prototype, &mut approx);
                    survivors(&approx, cut).count()
                })
                .sum();
            let per_object = refined as f64 / corpus.len() as f64;
            assert!(per_object <= 1.1, "{per_object} shifts refined per object");
        }
    }

    #[test]
    fn star_constructor_validates() {
        assert!(Polygon::star(1, 1.0, 0.5, 0.0, 0.0).is_err());
        assert!(Polygon::star(5, 1.0, 0.5, 0.0, 0.0).is_ok());
    }
}
