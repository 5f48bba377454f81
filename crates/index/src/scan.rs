//! Sequential scan — the baseline §2.1 wants to "avoid doing … of the
//! entire database", and, thanks to the dimensionality curse, also the
//! method that eventually *wins* as dimensions grow (experiment E8's
//! crossover).

use crate::geometry::{dist2, validate_point, GeometryError};
use crate::rtree::{IndexAccess, ItemId, Neighbor};

/// A flat array of points scanned in full for every query.
#[derive(Debug, Clone, Default)]
pub struct LinearScan {
    dim: usize,
    points: Vec<(Vec<f64>, ItemId)>,
}

impl LinearScan {
    /// An empty scan structure for `dim`-dimensional points.
    pub fn new(dim: usize) -> Result<LinearScan, GeometryError> {
        if dim == 0 {
            return Err(GeometryError::EmptyDimension);
        }
        Ok(LinearScan {
            dim,
            points: Vec::new(),
        })
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Stores a point.
    pub fn insert(&mut self, point: &[f64], id: ItemId) -> Result<(), GeometryError> {
        validate_point(point)?;
        if point.len() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        self.points.push((point.to_vec(), id));
        Ok(())
    }

    /// The `k` nearest neighbors; always computes exactly `len()`
    /// distances.
    pub fn knn(
        &self,
        query: &[f64],
        k: usize,
    ) -> Result<(Vec<Neighbor>, IndexAccess), GeometryError> {
        validate_point(query)?;
        if query.len() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        let mut all: Vec<Neighbor> = self
            .points
            .iter()
            .map(|(p, id)| Neighbor {
                id: *id,
                distance: dist2(p, query).sqrt(),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all.truncate(k);
        let access = IndexAccess {
            nodes_visited: 1,
            distance_computations: self.points.len() as u64,
        };
        Ok((all, access))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finds_exact_neighbors() {
        let mut s = LinearScan::new(2).unwrap();
        s.insert(&[0.0, 0.0], 0).unwrap();
        s.insert(&[1.0, 0.0], 1).unwrap();
        s.insert(&[0.1, 0.1], 2).unwrap();
        let (res, access) = s.knn(&[0.0, 0.0], 2).unwrap();
        assert_eq!(res[0].id, 0);
        assert_eq!(res[1].id, 2);
        assert_eq!(access.distance_computations, 3);
    }

    #[test]
    fn validation() {
        assert!(LinearScan::new(0).is_err());
        let mut s = LinearScan::new(2).unwrap();
        assert!(s.insert(&[1.0], 0).is_err());
        assert!(s.knn(&[1.0], 1).is_err());
        assert!(s.is_empty());
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let mut s = LinearScan::new(1).unwrap();
        s.insert(&[0.5], 9).unwrap();
        assert!(s.knn(&[0.0], 0).unwrap().0.is_empty());
        assert_eq!(s.knn(&[0.0], 10).unwrap().0.len(), 1);
    }
}
