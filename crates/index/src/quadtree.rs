//! A region quadtree / hyperoctree \[Sa89\] — the *other* §2.1 victim of
//! the dimensionality curse.
//!
//! "Two popular multidimensional indexing methods, namely linear
//! quadtrees \[Sa89\] and grid files \[NHS84\], grow exponentially with
//! the dimensionality." A quadtree node over `d` dimensions splits
//! into `2^d` children at once; in 2-D that is four quadrants, in 8-D
//! it is 256 cells, in 16-D it is 65,536 — one overflowing bucket
//! allocates that many leaves regardless of where the data actually
//! is. [`QuadTree::leaf_cells`] counts them; experiment E8 plots the
//! count against the dimension next to the grid file's directory.
//!
//! The structure here is the pointer-based region tree; the *linear*
//! quadtree of \[Sa89\] stores the same leaves as a sorted list of
//! Morton codes, with identical cell counts — the metric the paper's
//! claim is about is the number of cells, which we report exactly.
//! Like the grid file, the structure is measured, not queried.

use std::fmt;

use crate::geometry::{validate_point, GeometryError};
use crate::rtree::ItemId;

/// Error raised by quadtree operations.
#[derive(Debug, Clone, PartialEq)]
pub enum QuadError {
    /// Geometry problem with the input point.
    Geometry(GeometryError),
    /// The dimension is too large to split (2^d children would
    /// overflow memory instantly).
    DimensionTooLarge {
        /// The requested dimension.
        dim: usize,
        /// The largest supported dimension.
        max: usize,
    },
    /// A split would exceed the configured total leaf-cell budget —
    /// the dimensionality curse made concrete.
    CellOverflow {
        /// Leaf cells the split would require.
        required: u128,
        /// The configured cap.
        limit: u128,
    },
    /// A point outside the unit cube `[0, 1]^d` was inserted.
    OutOfBounds,
}

impl fmt::Display for QuadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuadError::Geometry(e) => write!(f, "{e}"),
            QuadError::DimensionTooLarge { dim, max } => {
                write!(f, "dimension {dim} exceeds quadtree maximum {max}")
            }
            QuadError::CellOverflow { required, limit } => {
                write!(
                    f,
                    "quadtree would need {required} leaf cells (limit {limit})"
                )
            }
            QuadError::OutOfBounds => write!(f, "quadtree points must lie in [0, 1]^d"),
        }
    }
}

impl std::error::Error for QuadError {}

impl From<GeometryError> for QuadError {
    fn from(e: GeometryError) -> Self {
        QuadError::Geometry(e)
    }
}

/// Splitting beyond this dimension is pointless: one split already
/// allocates 2^20 leaves.
const MAX_DIM: usize = 20;

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<(Vec<f64>, ItemId)>),
    /// `2^d` children, indexed by the bit pattern of per-dimension
    /// half choices.
    Internal(Vec<Node>),
}

/// A point hyperoctree over `[0, 1]^d` with capacity-triggered splits.
#[derive(Debug, Clone)]
pub struct QuadTree {
    dim: usize,
    bucket_capacity: usize,
    cell_limit: u128,
    root: Node,
    len: usize,
    leaf_cells: u128,
    max_depth: usize,
}

impl QuadTree {
    /// An empty tree. `cell_limit` caps the total number of leaf cells
    /// (the linear quadtree's storage), surfacing the curse as an
    /// explicit [`QuadError::CellOverflow`].
    pub fn new(
        dim: usize,
        bucket_capacity: usize,
        cell_limit: u128,
    ) -> Result<QuadTree, QuadError> {
        if dim == 0 {
            return Err(QuadError::Geometry(GeometryError::EmptyDimension));
        }
        if dim > MAX_DIM {
            return Err(QuadError::DimensionTooLarge { dim, max: MAX_DIM });
        }
        Ok(QuadTree {
            dim,
            bucket_capacity: bucket_capacity.max(1),
            cell_limit: cell_limit.max(1),
            root: Node::Leaf(Vec::new()),
            len: 0,
            leaf_cells: 1,
            max_depth: 24,
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

    /// Total leaf cells allocated (occupied *and* empty) — what a
    /// linear quadtree would store.
    pub fn leaf_cells(&self) -> u128 {
        self.leaf_cells
    }

    /// Inserts a point in `[0, 1]^d`.
    pub fn insert(&mut self, point: &[f64], id: ItemId) -> Result<(), QuadError> {
        validate_point(point)?;
        if point.len() != self.dim {
            return Err(QuadError::Geometry(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            }));
        }
        if point.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
            return Err(QuadError::OutOfBounds);
        }
        // Walk to the leaf, splitting overflowing leaves on the way
        // down. Iterative with explicit cell tracking.
        let fanout = 1usize << self.dim;
        let mut node = &mut self.root;
        let mut center: Vec<f64> = vec![0.5; self.dim];
        let mut half = 0.25;
        let mut depth = 0;
        loop {
            match node {
                Node::Internal(children) => {
                    let mut idx = 0;
                    for d in 0..self.dim {
                        if point[d] >= center[d] {
                            idx |= 1 << d;
                            center[d] += half;
                        } else {
                            center[d] -= half;
                        }
                    }
                    half *= 0.5;
                    depth += 1;
                    node = &mut children[idx];
                }
                Node::Leaf(bucket) => {
                    if bucket.len() < self.bucket_capacity || depth >= self.max_depth {
                        bucket.push((point.to_vec(), id));
                        self.len += 1;
                        return Ok(());
                    }
                    // Split: replacing one leaf by 2^d leaves.
                    let required = self.leaf_cells + (fanout as u128 - 1);
                    if required > self.cell_limit {
                        return Err(QuadError::CellOverflow {
                            required,
                            limit: self.cell_limit,
                        });
                    }
                    self.leaf_cells = required;
                    let old = std::mem::take(bucket);
                    let mut children = vec![Node::Leaf(Vec::new()); fanout];
                    for (p, pid) in old {
                        let mut idx = 0;
                        for d in 0..self.dim {
                            if p[d] >= center[d] {
                                idx |= 1 << d;
                            }
                        }
                        let Node::Leaf(child) = &mut children[idx] else {
                            unreachable!("children start as leaves");
                        };
                        child.push((p, pid));
                    }
                    *node = Node::Internal(children);
                    // Loop continues: descend into the new internal node.
                }
            }
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
    fn construction_validation() {
        assert!(QuadTree::new(0, 8, 100).is_err());
        assert!(matches!(
            QuadTree::new(32, 8, 100),
            Err(QuadError::DimensionTooLarge { dim: 32, max: 20 })
        ));
        let t = QuadTree::new(2, 8, 100).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.leaf_cells(), 1);
    }

    #[test]
    fn insert_validation() {
        let mut t = QuadTree::new(2, 8, 100).unwrap();
        assert!(t.insert(&[0.1], 0).is_err());
        assert!(matches!(
            t.insert(&[0.5, 1.5], 0),
            Err(QuadError::OutOfBounds)
        ));
        assert!(t.insert(&[0.5, f64::NAN], 0).is_err());
        t.insert(&[0.5, 0.5], 0).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn splits_allocate_2_pow_d_cells() {
        // Capacity 1: the second point forces a split.
        let mut t2 = QuadTree::new(2, 1, 1_000).unwrap();
        t2.insert(&[0.1, 0.1], 0).unwrap();
        t2.insert(&[0.9, 0.9], 1).unwrap();
        assert_eq!(t2.leaf_cells(), 4); // 1 − 1 + 2²

        let mut t4 = QuadTree::new(4, 1, 1_000).unwrap();
        t4.insert(&[0.1; 4], 0).unwrap();
        t4.insert(&[0.9; 4], 1).unwrap();
        assert_eq!(t4.leaf_cells(), 16); // 2⁴ — the curse, per split
    }

    #[test]
    fn cell_limit_is_enforced() {
        let mut t = QuadTree::new(8, 1, 100).unwrap();
        t.insert(&[0.1; 8], 0).unwrap();
        // The split would need 256 leaves; the limit is 100.
        assert!(matches!(
            t.insert(&[0.9; 8], 1),
            Err(QuadError::CellOverflow {
                required: 256,
                limit: 100
            })
        ));
    }

    #[test]
    fn duplicate_points_hit_max_depth_not_infinite_split() {
        let mut t = QuadTree::new(2, 2, 1 << 30).unwrap();
        for i in 0..50 {
            t.insert(&[0.3, 0.3], i).unwrap();
        }
        assert_eq!(t.len(), 50);
        // One split per level down to the depth cap, three new cells each.
        assert_eq!(t.leaf_cells(), 1 + 3 * 24);
    }

    #[test]
    fn cell_growth_explodes_with_dimension() {
        // Same 64 points, same capacity: leaf cells allocated per
        // dimension — the §2.1 exponential-growth claim. Aggregated
        // over several seeds so the property is about the point-set
        // distribution, not one particular RNG stream.
        let cells: Vec<u128> = [2usize, 6, 10]
            .iter()
            .map(|&dim| {
                (1..=5u64)
                    .map(|seed| {
                        let mut t = QuadTree::new(dim, 2, u128::MAX).unwrap();
                        for (i, p) in random_points(64, dim, seed).iter().enumerate() {
                            t.insert(p, i as ItemId).unwrap();
                        }
                        t.leaf_cells()
                    })
                    .sum()
            })
            .collect();
        // Cells per split are 2^d, but high dimensions also need fewer
        // splits (one split already isolates most points), so compare
        // against the 2-D baseline rather than consecutively.
        assert!(cells[1] > 5 * cells[0], "{cells:?}");
        assert!(cells[2] > 10 * cells[0], "{cells:?}");
    }
}
