//! Color histograms and the QBIC similarity matrix (§2).
//!
//! "Each object has a k-element color histogram (typical values of k
//! are 64, 100, or 256)." A [`ColorSpace`] partitions the RGB cube into
//! `k` bins; a [`ColorHistogram`] is the normalized bin-mass vector of
//! an image. The entry `A[i][j]` of the similarity matrix "describes
//! the similarity between color i and color j" — following QBIC we use
//! `a_ij = 1 − d(cᵢ, cⱼ)/d_max` where `cᵢ` are bin centroid colors.

use std::fmt;

use crate::linalg::{Matrix, SymMatrix};

/// An RGB color with channels in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rgb {
    /// Red channel in `[0, 1]`.
    pub r: f64,
    /// Green channel in `[0, 1]`.
    pub g: f64,
    /// Blue channel in `[0, 1]`.
    pub b: f64,
}

impl Rgb {
    /// Creates a color, clamping channels into `[0, 1]`.
    pub fn new(r: f64, g: f64, b: f64) -> Rgb {
        Rgb {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
        }
    }

    /// Euclidean distance in RGB space.
    pub fn distance(&self, other: &Rgb) -> f64 {
        let dr = self.r - other.r;
        let dg = self.g - other.g;
        let db = self.b - other.b;
        (dr * dr + dg * dg + db * db).sqrt()
    }

    /// Pure red — the paper's favorite query color.
    pub const RED: Rgb = Rgb {
        r: 1.0,
        g: 0.0,
        b: 0.0,
    };
    /// Pure green.
    pub const GREEN: Rgb = Rgb {
        r: 0.0,
        g: 1.0,
        b: 0.0,
    };
    /// Pure blue.
    pub const BLUE: Rgb = Rgb {
        r: 0.0,
        g: 0.0,
        b: 1.0,
    };
}

/// Error constructing color-space artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum ColorError {
    /// Bins-per-channel must be ≥ 1.
    EmptySpace,
    /// A histogram had the wrong number of bins.
    DimensionMismatch {
        /// The color space's bin count.
        expected: usize,
        /// The histogram's bin count.
        got: usize,
    },
    /// Histogram mass was negative or not finite.
    InvalidMass(f64),
    /// Histogram has zero total mass and cannot be normalized.
    ZeroMass,
}

impl fmt::Display for ColorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColorError::EmptySpace => write!(f, "color space needs at least one bin"),
            ColorError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} bins, got {got}")
            }
            ColorError::InvalidMass(v) => write!(f, "invalid bin mass {v}"),
            ColorError::ZeroMass => write!(f, "histogram has zero total mass"),
        }
    }
}

impl std::error::Error for ColorError {}

/// A quantization of the RGB cube into `b³` uniform bins.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorSpace {
    bins_per_channel: usize,
    centroids: Vec<Rgb>,
}

impl ColorSpace {
    /// Uniform `b×b×b` RGB grid. `b = 4` gives the paper's typical
    /// `k = 64`; `b = 5` gives 125 (close to the quoted 100);
    /// `b = 6` gives 216 (close to 256).
    pub fn rgb_grid(bins_per_channel: usize) -> Result<ColorSpace, ColorError> {
        if bins_per_channel == 0 {
            return Err(ColorError::EmptySpace);
        }
        let b = bins_per_channel;
        let mut centroids = Vec::with_capacity(b * b * b);
        for ri in 0..b {
            for gi in 0..b {
                for bi in 0..b {
                    centroids.push(Rgb::new(
                        (ri as f64 + 0.5) / b as f64,
                        (gi as f64 + 0.5) / b as f64,
                        (bi as f64 + 0.5) / b as f64,
                    ));
                }
            }
        }
        Ok(ColorSpace {
            bins_per_channel: b,
            centroids,
        })
    }

    /// Number of bins `k`.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The centroid color of bin `i`.
    pub fn centroid(&self, i: usize) -> Rgb {
        self.centroids[i]
    }

    /// The bin index of a color.
    pub fn bin_of(&self, color: Rgb) -> usize {
        let b = self.bins_per_channel;
        let q = |v: f64| ((v * b as f64) as usize).min(b - 1);
        (q(color.r) * b + q(color.g)) * b + q(color.b)
    }

    /// The QBIC similarity matrix `A` with
    /// `a_ij = 1 − d(cᵢ, cⱼ)/d_max` over bin centroids.
    ///
    /// On the zero-sum subspace (where differences of normalized
    /// histograms live) the resulting quadratic form is nonnegative,
    /// because Euclidean distance matrices are conditionally negative
    /// definite — the bounding tests in `bounding.rs` rely on this.
    pub fn similarity_matrix(&self) -> SymMatrix {
        let k = self.k();
        let mut dmax = 0.0_f64;
        for i in 0..k {
            for j in (i + 1)..k {
                dmax = dmax.max(self.centroids[i].distance(&self.centroids[j]));
            }
        }
        let dmax = dmax.max(1e-12);
        #[expect(
            clippy::expect_used,
            reason = "centroid distances are finite and dmax > 0 was checked above"
        )]
        SymMatrix::from_fn(k, |i, j| {
            1.0 - self.centroids[i].distance(&self.centroids[j]) / dmax
        })
        .expect("similarity entries are finite by construction")
    }

    /// The 3×k matrix `C` mapping a histogram to its average color
    /// `x̄ = C·x` (each column is a bin centroid). This is the
    /// projection behind the \[HSE+95\] distance-bounding filter.
    pub fn centroid_map(&self) -> Matrix {
        let k = self.k();
        let mut data = vec![0.0; 3 * k];
        for (j, c) in self.centroids.iter().enumerate() {
            data[j] = c.r;
            data[k + j] = c.g;
            data[2 * k + j] = c.b;
        }
        #[expect(
            clippy::expect_used,
            reason = "row/column counts are taken from the same centroid vector"
        )]
        Matrix::from_rows(3, k, data).expect("3×k is a valid shape")
    }
}

/// A normalized color histogram over some [`ColorSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColorHistogram {
    bins: Vec<f64>,
}

impl ColorHistogram {
    /// Builds from raw masses, normalizing them to sum to 1.
    pub fn from_masses(masses: Vec<f64>) -> Result<ColorHistogram, ColorError> {
        if masses.is_empty() {
            return Err(ColorError::EmptySpace);
        }
        for &v in &masses {
            if !v.is_finite() || v < 0.0 {
                return Err(ColorError::InvalidMass(v));
            }
        }
        let total: f64 = masses.iter().sum();
        if total <= 0.0 {
            return Err(ColorError::ZeroMass);
        }
        Ok(ColorHistogram {
            bins: masses.into_iter().map(|v| v / total).collect(),
        })
    }

    /// Builds the histogram of a collection of pixel colors.
    pub fn from_colors(space: &ColorSpace, colors: &[Rgb]) -> Result<ColorHistogram, ColorError> {
        if colors.is_empty() {
            return Err(ColorError::ZeroMass);
        }
        let mut masses = vec![0.0; space.k()];
        for &c in colors {
            masses[space.bin_of(c)] += 1.0;
        }
        ColorHistogram::from_masses(masses)
    }

    /// A histogram fully concentrated in the bin containing `color`.
    pub fn pure(space: &ColorSpace, color: Rgb) -> ColorHistogram {
        let mut masses = vec![0.0; space.k()];
        masses[space.bin_of(color)] = 1.0;
        ColorHistogram { bins: masses }
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.bins.len()
    }

    /// The bin masses (always summing to 1).
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// The average color `x̄ = C·x`.
    pub fn average_color(&self, space: &ColorSpace) -> Result<[f64; 3], ColorError> {
        if space.k() != self.k() {
            return Err(ColorError::DimensionMismatch {
                expected: space.k(),
                got: self.k(),
            });
        }
        let mut avg = [0.0; 3];
        for (mass, c) in self.bins.iter().zip(space.centroids.iter()) {
            avg[0] += mass * c.r;
            avg[1] += mass * c.g;
            avg[2] += mass * c.b;
        }
        Ok(avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_grid_sizes_match_the_paper() {
        assert_eq!(ColorSpace::rgb_grid(4).unwrap().k(), 64);
        assert_eq!(ColorSpace::rgb_grid(5).unwrap().k(), 125);
        assert_eq!(ColorSpace::rgb_grid(6).unwrap().k(), 216);
        assert!(ColorSpace::rgb_grid(0).is_err());
    }

    #[test]
    fn bin_of_roundtrips_centroids() {
        let space = ColorSpace::rgb_grid(4).unwrap();
        for i in 0..space.k() {
            assert_eq!(space.bin_of(space.centroid(i)), i);
        }
    }

    #[test]
    fn bin_of_handles_boundary_colors() {
        let space = ColorSpace::rgb_grid(4).unwrap();
        // channel = 1.0 must land in the top bin, not overflow.
        let idx = space.bin_of(Rgb::new(1.0, 1.0, 1.0));
        assert_eq!(idx, space.k() - 1);
    }

    #[test]
    fn similarity_matrix_has_unit_diagonal_and_bounds() {
        let space = ColorSpace::rgb_grid(3).unwrap();
        let a = space.similarity_matrix();
        for i in 0..a.dim() {
            assert!((a.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..a.dim() {
                assert!(a.get(i, j) >= -1e-12 && a.get(i, j) <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn similarity_quadratic_form_nonnegative_on_differences() {
        let space = ColorSpace::rgb_grid(3).unwrap();
        let a = space.similarity_matrix();
        let h1 = ColorHistogram::pure(&space, Rgb::RED);
        let h2 = ColorHistogram::pure(&space, Rgb::BLUE);
        let z: Vec<f64> = h1
            .bins()
            .iter()
            .zip(h2.bins())
            .map(|(x, y)| x - y)
            .collect();
        assert!(a.quadratic_form(&z) >= -1e-9);
    }

    #[test]
    fn histogram_normalizes() {
        let h = ColorHistogram::from_masses(vec![2.0, 6.0]).unwrap();
        assert_eq!(h.bins(), &[0.25, 0.75]);
    }

    #[test]
    fn histogram_construction_errors() {
        assert!(matches!(
            ColorHistogram::from_masses(vec![]),
            Err(ColorError::EmptySpace)
        ));
        assert!(matches!(
            ColorHistogram::from_masses(vec![1.0, -0.5]),
            Err(ColorError::InvalidMass(_))
        ));
        assert!(matches!(
            ColorHistogram::from_masses(vec![0.0, 0.0]),
            Err(ColorError::ZeroMass)
        ));
    }

    #[test]
    fn from_colors_counts_bins() {
        let space = ColorSpace::rgb_grid(2).unwrap();
        let h = ColorHistogram::from_colors(
            &space,
            &[
                Rgb::new(0.1, 0.1, 0.1),
                Rgb::new(0.1, 0.1, 0.1),
                Rgb::new(0.9, 0.9, 0.9),
            ],
        )
        .unwrap();
        let dark = space.bin_of(Rgb::new(0.1, 0.1, 0.1));
        let light = space.bin_of(Rgb::new(0.9, 0.9, 0.9));
        assert!((h.bins()[dark] - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.bins()[light] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn average_color_of_pure_histogram_is_the_centroid() {
        let space = ColorSpace::rgb_grid(4).unwrap();
        let h = ColorHistogram::pure(&space, Rgb::RED);
        let avg = h.average_color(&space).unwrap();
        let c = space.centroid(space.bin_of(Rgb::RED));
        assert!((avg[0] - c.r).abs() < 1e-12);
        assert!((avg[1] - c.g).abs() < 1e-12);
        assert!((avg[2] - c.b).abs() < 1e-12);
    }

    #[test]
    fn average_color_dimension_mismatch() {
        let space4 = ColorSpace::rgb_grid(4).unwrap();
        let space2 = ColorSpace::rgb_grid(2).unwrap();
        let h = ColorHistogram::pure(&space2, Rgb::RED);
        assert!(matches!(
            h.average_color(&space4),
            Err(ColorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn centroid_map_reproduces_average_color() {
        let space = ColorSpace::rgb_grid(3).unwrap();
        let c = space.centroid_map();
        let h = ColorHistogram::from_masses((1..=27).map(|i| i as f64).collect()).unwrap();
        let mut avg_by_map = [0.0; 3];
        c.mul_vec(h.bins(), &mut avg_by_map);
        let avg_direct = h.average_color(&space).unwrap();
        for d in 0..3 {
            assert!((avg_by_map[d] - avg_direct[d]).abs() < 1e-12);
        }
    }
}
