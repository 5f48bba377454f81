//! A grid file \[NHS84\] — and its dimensionality curse.
//!
//! §2.1: "Two popular multidimensional indexing methods, namely linear
//! quadtrees and grid files, grow exponentially with the
//! dimensionality. So these methods are not practical in these
//! situations." The structure here makes that failure measurable:
//! every bucket split adds a split point to one dimension's linear
//! scale, and the *directory* — the cross product of all scales —
//! multiplies accordingly. [`GridFile::directory_size`] is the quantity
//! experiment E8 plots against the dimension.
//!
//! Implementation: linear scales per dimension, occupied cells stored
//! sparsely (a full dense directory would OOM long before the curve
//! gets interesting — the sparse map stores the same information while
//! letting us *report* the dense directory size the classic structure
//! would have allocated). Splits rehash the affected points. The
//! structure is measured, not queried: E8 reads its size accounting.

use std::collections::HashMap;
use std::fmt;

use crate::geometry::{validate_point, GeometryError};
use crate::rtree::ItemId;

/// Error raised by grid-file operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// Geometry problem with the input point.
    Geometry(GeometryError),
    /// The (dense) directory would exceed the configured limit — the
    /// dimensionality curse made concrete.
    DirectoryOverflow {
        /// Directory size the next split would require.
        required: u128,
        /// The configured cap.
        limit: u128,
    },
    /// A point outside the unit cube `[0, 1]^d` was inserted: the
    /// scales partition `[0, 1]`, so its bucket could never split.
    OutOfBounds,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Geometry(e) => write!(f, "{e}"),
            GridError::DirectoryOverflow { required, limit } => write!(
                f,
                "grid directory would need {required} cells (limit {limit})"
            ),
            GridError::OutOfBounds => write!(f, "grid-file points must lie in [0, 1]^d"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<GeometryError> for GridError {
    fn from(e: GeometryError) -> Self {
        GridError::Geometry(e)
    }
}

type Cell = Vec<u16>;

/// A grid file over points in `[0, 1]^d`.
#[derive(Debug, Clone)]
pub struct GridFile {
    dim: usize,
    bucket_capacity: usize,
    directory_limit: u128,
    /// Sorted split points per dimension; `s` points make `s+1`
    /// intervals.
    scales: Vec<Vec<f64>>,
    cells: HashMap<Cell, Vec<(Vec<f64>, ItemId)>>,
    len: usize,
    /// Which dimension the next split prefers (round-robin, as in the
    /// classic structure).
    next_split_dim: usize,
}

impl GridFile {
    /// An empty grid file for `dim`-dimensional points, with the given
    /// bucket capacity and a cap on the dense-directory size.
    pub fn new(
        dim: usize,
        bucket_capacity: usize,
        directory_limit: u128,
    ) -> Result<GridFile, GridError> {
        if dim == 0 {
            return Err(GridError::Geometry(GeometryError::EmptyDimension));
        }
        Ok(GridFile {
            dim,
            bucket_capacity: bucket_capacity.max(1),
            directory_limit: directory_limit.max(1),
            scales: vec![Vec::new(); dim],
            cells: HashMap::new(),
            len: 0,
            next_split_dim: 0,
        })
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The size of the dense directory the classic grid file would
    /// allocate: `∏_d (|scales_d| + 1)`.
    pub fn directory_size(&self) -> u128 {
        self.scales.iter().map(|s| (s.len() + 1) as u128).product()
    }

    /// Number of non-empty buckets actually stored.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    fn cell_of(&self, point: &[f64]) -> Cell {
        point
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                // partition_point = count of split points ≤ v.
                self.scales[d].partition_point(|&s| s <= v) as u16
            })
            .collect()
    }

    /// The `[lo, hi]` bounds of a cell along dimension `d` (data lives
    /// in `[0,1]`).
    fn cell_bounds(&self, cell: &Cell, d: usize) -> (f64, f64) {
        let idx = cell[d] as usize;
        let lo = if idx == 0 {
            0.0
        } else {
            self.scales[d][idx - 1]
        };
        let hi = if idx == self.scales[d].len() {
            1.0
        } else {
            self.scales[d][idx]
        };
        (lo, hi)
    }

    /// Inserts a point in `[0, 1]^d` with its id.
    pub fn insert(&mut self, point: &[f64], id: ItemId) -> Result<(), GridError> {
        validate_point(point)?;
        if point.len() != self.dim {
            return Err(GridError::Geometry(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            }));
        }
        if point.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
            return Err(GridError::OutOfBounds);
        }
        let cell = self.cell_of(point);
        self.cells
            .entry(cell)
            .or_default()
            .push((point.to_vec(), id));
        self.len += 1;

        // Split (adding one scale point and rehashing) while the cell
        // holding the new point overflows; duplicates make further
        // splits unproductive, so `split_cell_region` returning false
        // ends the loop, and a guard bounds pathological cascades.
        let mut guard = 0;
        loop {
            let c = self.cell_of(point);
            if self.cells.get(&c).map_or(0, Vec::len) <= self.bucket_capacity {
                break;
            }
            if !self.split_cell_region(&c)? || guard > 64 {
                break;
            }
            guard += 1;
        }
        Ok(())
    }

    /// Adds one split point through the overflowing cell's region — at
    /// the median of *that cell's* coordinates along the round-robin
    /// dimension — then rehashes. Because scales are global, the split
    /// plane slices the whole directory slab: that multiplication is
    /// exactly the grid file's exponential directory growth. Returns
    /// false if no productive split exists (e.g. duplicate points).
    fn split_cell_region(&mut self, cell: &Cell) -> Result<bool, GridError> {
        // Find a dimension (starting from the round-robin preference)
        // where a split point strictly inside the cell's extent exists.
        for attempt in 0..self.dim {
            let d = (self.next_split_dim + attempt) % self.dim;
            let (lo, hi) = self.cell_bounds(cell, d);
            let mut coords: Vec<f64> = self
                .cells
                .get(cell)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(|(p, _)| p[d])
                .collect();
            coords.sort_by(|a, b| a.total_cmp(b));
            if coords.is_empty() {
                continue;
            }
            let median = coords[coords.len() / 2];
            // The split must actually separate the cell: strictly
            // inside its bounds and distinct from the smallest
            // coordinate (everything < median goes left, so a median
            // equal to the minimum would be unproductive).
            if median <= lo || median >= hi || median <= coords[0] {
                continue;
            }
            // Check directory growth against the limit.
            let required = self
                .scales
                .iter()
                .enumerate()
                .map(|(i, s)| (s.len() + if i == d { 2 } else { 1 }) as u128)
                .product::<u128>();
            if required > self.directory_limit {
                return Err(GridError::DirectoryOverflow {
                    required,
                    limit: self.directory_limit,
                });
            }
            let pos = self.scales[d].partition_point(|&s| s <= median);
            self.scales[d].insert(pos, median);
            self.next_split_dim = (d + 1) % self.dim;
            self.rehash();
            return Ok(true);
        }
        Ok(false)
    }

    fn rehash(&mut self) {
        let all: Vec<(Vec<f64>, ItemId)> = self.cells.drain().flat_map(|(_, v)| v).collect();
        for (p, id) in all {
            let cell = self.cell_of(&p);
            self.cells.entry(cell).or_default().push((p, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    #[test]
    fn construction_and_validation() {
        assert!(GridFile::new(0, 8, 1_000).is_err());
        let mut g = GridFile::new(2, 8, 1_000).unwrap();
        assert!(g.is_empty());
        assert!(g.insert(&[0.1], 0).is_err());
        assert!(g.insert(&[0.1, f64::NAN], 0).is_err());
        g.insert(&[0.1, 0.2], 0).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.directory_size(), 1);
    }

    #[test]
    fn splits_grow_the_directory() {
        let mut g = GridFile::new(2, 4, 1_000_000).unwrap();
        for (i, p) in random_points(200, 2, 3).iter().enumerate() {
            g.insert(p, i as ItemId).unwrap();
        }
        assert!(g.directory_size() > 1, "no splits happened");
        assert!(g.occupied_cells() > 1);
        assert_eq!(g.len(), 200);
    }

    #[test]
    fn points_outside_the_unit_cube_are_rejected() {
        // Such a bucket could never split (every split point must lie
        // strictly inside [0, 1]), so accepting these five would leave
        // one bucket of 5 at capacity 2 and a directory of 1.
        let mut g = GridFile::new(2, 2, 1 << 20).unwrap();
        for (i, x) in [1.5, 1.6, 1.7, 1.8, 1.9].into_iter().enumerate() {
            assert_eq!(
                g.insert(&[x, 0.5], i as ItemId),
                Err(GridError::OutOfBounds)
            );
        }
        assert_eq!(g.insert(&[0.5, -0.1], 5), Err(GridError::OutOfBounds));
        assert!(g.is_empty());
        assert_eq!(g.directory_size(), 1);
        // The closed cube's faces are inside.
        g.insert(&[0.0, 1.0], 6).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn directory_waste_grows_with_dimension() {
        // The curse: the same data needs a similar number of *buckets*
        // in any dimension, but the dense directory (the cross product
        // of global scales) wastes multiplicatively more cells on empty
        // regions as the dimension grows.
        let waste: Vec<f64> = [2usize, 8]
            .iter()
            .map(|&dim| {
                let mut g = GridFile::new(dim, 4, u128::MAX).unwrap();
                for (i, p) in random_points(400, dim, 31).iter().enumerate() {
                    g.insert(p, i as ItemId).unwrap();
                }
                g.directory_size() as f64 / g.occupied_cells() as f64
            })
            .collect();
        assert!(
            waste[1] > waste[0] * 2.0,
            "expected much more directory waste in 8-D: {waste:?}"
        );
    }

    #[test]
    fn directory_limit_is_enforced() {
        let mut g = GridFile::new(6, 1, 64).unwrap();
        let mut hit_limit = false;
        for (i, p) in random_points(500, 6, 41).iter().enumerate() {
            match g.insert(p, i as ItemId) {
                Ok(()) => {}
                Err(GridError::DirectoryOverflow { required, limit }) => {
                    assert!(required > limit);
                    hit_limit = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(hit_limit, "limit of 64 cells should be hit");
    }

    #[test]
    fn duplicate_heavy_data_terminates() {
        let mut g = GridFile::new(2, 2, 1_000_000).unwrap();
        for i in 0..50 {
            // All identical points: no split can separate them; insert
            // must still terminate and keep the data.
            g.insert(&[0.5, 0.5], i).unwrap();
        }
        assert_eq!(g.len(), 50);
        assert_eq!(g.occupied_cells(), 1);
    }
}
