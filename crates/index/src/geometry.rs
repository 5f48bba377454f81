//! Axis-aligned geometry for multidimensional access methods (§2.1).

use std::fmt;

/// Error for malformed geometric input.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// Zero-dimensional input.
    EmptyDimension,
    /// Dimensions of two operands differ.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Offending dimensionality.
        got: usize,
    },
    /// A coordinate was NaN or infinite.
    NotFinite,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::EmptyDimension => write!(f, "dimension must be positive"),
            GeometryError::DimensionMismatch { expected, got } => {
                write!(f, "expected dimension {expected}, got {got}")
            }
            GeometryError::NotFinite => write!(f, "coordinates must be finite"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Validates a point for indexing.
pub fn validate_point(point: &[f64]) -> Result<(), GeometryError> {
    if point.is_empty() {
        return Err(GeometryError::EmptyDimension);
    }
    if point.iter().any(|v| !v.is_finite()) {
        return Err(GeometryError::NotFinite);
    }
    Ok(())
}

/// Squared Euclidean distance between points.
///
/// # Panics
/// Debug-asserts equal dimensionality; indexes validate on insert.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between points.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist2(a, b).sqrt()
}

/// An axis-aligned minimum bounding rectangle in d dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbr {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Mbr {
    /// The degenerate MBR of a single point.
    pub fn of_point(p: &[f64]) -> Mbr {
        Mbr {
            min: p.to_vec(),
            max: p.to_vec(),
        }
    }

    /// Builds from explicit corners.
    ///
    /// # Panics
    /// Debug-asserts `min[d] ≤ max[d]` — internal construction only.
    pub fn new(min: Vec<f64>, max: Vec<f64>) -> Mbr {
        debug_assert_eq!(min.len(), max.len());
        debug_assert!(min.iter().zip(&max).all(|(a, b)| a <= b));
        Mbr { min, max }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Lower corner.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Upper corner.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Grows to cover `p`.
    pub fn expand_point(&mut self, p: &[f64]) {
        for (d, &v) in p.iter().enumerate() {
            self.min[d] = self.min[d].min(v);
            self.max[d] = self.max[d].max(v);
        }
    }

    /// Grows to cover `other`.
    pub fn expand_mbr(&mut self, other: &Mbr) {
        for d in 0..self.min.len() {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    /// The union of two MBRs.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut u = self.clone();
        u.expand_mbr(other);
        u
    }

    /// Hypervolume (product of extents).
    pub fn volume(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(a, b)| b - a).product()
    }

    /// Margin (sum of extents) — the R*-tree split criterion.
    pub fn margin(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(a, b)| b - a).sum()
    }

    /// Volume of the intersection with `other` (0 if disjoint).
    pub fn overlap(&self, other: &Mbr) -> f64 {
        let mut v = 1.0;
        for d in 0..self.dim() {
            let lo = self.min[d].max(other.min[d]);
            let hi = self.max[d].min(other.max[d]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Squared minimum distance from `p` to this box (0 if inside) —
    /// the MINDIST bound driving the incremental nearest-neighbour
    /// search.
    pub fn min_dist2(&self, p: &[f64]) -> f64 {
        let mut s = 0.0;
        for (d, &v) in p.iter().enumerate() {
            let delta = if v < self.min[d] {
                self.min[d] - v
            } else if v > self.max[d] {
                v - self.max[d]
            } else {
                0.0
            };
            s += delta * delta;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(min: &[f64], max: &[f64]) -> Mbr {
        Mbr::new(min.to_vec(), max.to_vec())
    }

    #[test]
    fn point_validation() {
        assert!(validate_point(&[]).is_err());
        assert!(validate_point(&[1.0, f64::NAN]).is_err());
        assert!(validate_point(&[1.0, f64::INFINITY]).is_err());
        assert!(validate_point(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn distances() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn volume_margin_union() {
        let a = mbr(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 5.0);
        let b = mbr(&[1.0, 1.0], &[4.0, 2.0]);
        let u = a.union(&b);
        assert_eq!(u.min(), &[0.0, 0.0]);
        assert_eq!(u.max(), &[4.0, 3.0]);
    }

    #[test]
    fn overlap() {
        let a = mbr(&[0.0, 0.0], &[2.0, 2.0]);
        let b = mbr(&[1.0, 1.0], &[3.0, 3.0]);
        assert_eq!(a.overlap(&b), 1.0);
        let c = mbr(&[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    fn min_dist() {
        let a = mbr(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(a.min_dist2(&[1.0, 1.0]), 0.0);
        assert_eq!(a.min_dist2(&[3.0, 2.0]), 1.0);
        assert_eq!(a.min_dist2(&[3.0, 3.0]), 2.0);
    }

    #[test]
    fn expand_point_grows_box() {
        let mut a = Mbr::of_point(&[1.0, 1.0]);
        a.expand_point(&[0.0, 3.0]);
        assert_eq!(a.min(), &[0.0, 1.0]);
        assert_eq!(a.max(), &[1.0, 3.0]);
        assert_eq!(Mbr::of_point(&[1.0]).volume(), 0.0);
    }
}
