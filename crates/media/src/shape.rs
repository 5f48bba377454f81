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
    min_shift_distance(&ta, &doubled(turning_function(b, n)))
}

/// Starting-point shifts the kernel carries per pass over `ta`.
const SHIFT_LANES: usize = 8;

/// `t ++ t`: position `i + shift` of the result is `t[(i + shift) % n]`
/// for every `i, shift < n`, so the shift loop needs no modulo.
fn doubled(mut t: Vec<f64>) -> Vec<f64> {
    t.extend_from_within(..);
    t
}

/// For each of `L` consecutive starting-point shifts from `shift` on:
/// the mean squared difference between `ta` and the shifted prototype
/// under that shift's optimal rotation offset (the mean difference).
///
/// Every lane has its own accumulators and adds its terms in index
/// order, so a lane's result does not depend on `L`.
fn shifted_errors<const L: usize>(ta: &[f64], tb2: &[f64], shift: usize) -> [f64; L] {
    let n = ta.len() as f64;
    let shifted = &tb2[shift..];
    let mut sums = [0.0_f64; L];
    for (&a, window) in ta.iter().zip(shifted.windows(L)) {
        for (sum, &b) in sums.iter_mut().zip(window) {
            *sum += a - b;
        }
    }
    let offsets = sums.map(|sum| sum / n);
    let mut errs = [0.0_f64; L];
    for (&a, window) in ta.iter().zip(shifted.windows(L)) {
        for ((err, &offset), &b) in errs.iter_mut().zip(&offsets).zip(window) {
            let d = a - b - offset;
            *err += d * d;
        }
    }
    errs.map(|err| err / n)
}

/// The Arkin distance between a turning function and a prototype given
/// doubled (`tb2 = tb ++ tb`, `tb.len() == ta.len()`): the root of the
/// smallest per-shift error, shifts visited in ascending order.
fn min_shift_distance(ta: &[f64], tb2: &[f64]) -> f64 {
    let n = ta.len();
    debug_assert_eq!(tb2.len(), n.saturating_mul(2));
    let mut best = f64::INFINITY;
    for block in (0..n).step_by(SHIFT_LANES) {
        if n.saturating_sub(block) >= SHIFT_LANES {
            for err in shifted_errors::<SHIFT_LANES>(ta, tb2, block) {
                best = best.min(err);
            }
        } else {
            for shift in block..n {
                let [err] = shifted_errors::<1>(ta, tb2, shift);
                best = best.min(err);
            }
        }
    }
    best.max(0.0).sqrt()
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
        let tb2 = doubled(turning_function(prototype, self.samples));
        self.rows
            .chunks_exact(self.samples)
            .map(|ta| min_shift_distance(ta, &tb2))
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

    #[test]
    fn star_constructor_validates() {
        assert!(Polygon::star(1, 1.0, 0.5, 0.0, 0.0).is_err());
        assert!(Polygon::star(5, 1.0, 0.5, 0.0, 0.0).is_ok());
    }
}
