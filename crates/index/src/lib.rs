//! # fmdb-index — multidimensional access methods
//!
//! The "speeding up the evaluation" layer (§2.1) of the reproduction
//! of Fagin, *"Fuzzy Queries in Multimedia Database Systems"*
//! (PODS 1998):
//!
//! * [`rtree`] — an R-tree with R*-style splits \[BKSS90\] and
//!   best-first k-NN, instrumented with node/distance access counts;
//! * [`gridfile`] — a grid file \[NHS84\] whose directory growth makes
//!   the dimensionality curse measurable;
//! * [`scan`] — the sequential-scan baseline;
//! * [`precomputed`] — the all-pairs distance matrix for small,
//!   update-rare databases;
//! * [`filter_refine`] — distance-bounding filter-and-refine k-NN over
//!   color histograms (\[HSE+95\], zero false dismissals);
//! * [`geometry`] — shared MBR/point machinery.

pub mod filter_refine;
pub mod geometry;
pub mod gridfile;
pub mod precomputed;
pub mod quadtree;
pub mod rtree;
pub mod scan;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::filter_refine::{FilterRefineIndex, FilterStats};
    pub use crate::geometry::Mbr;
    pub use crate::gridfile::GridFile;
    pub use crate::precomputed::PrecomputedDistances;
    pub use crate::quadtree::QuadTree;
    pub use crate::rtree::{IndexAccess, ItemId, Neighbor, RTree};
    pub use crate::scan::LinearScan;
}
