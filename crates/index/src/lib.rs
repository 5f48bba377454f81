//! # fmdb-index — multidimensional access methods
//!
//! The "speeding up the evaluation" layer (§2.1) of the reproduction
//! of Fagin, *"Fuzzy Queries in Multimedia Database Systems"*
//! (PODS 1998):
//!
//! * [`rtree`] — an R-tree with R*-style splits \[BKSS90\] and one
//!   search, an incremental nearest-neighbour cursor instrumented with
//!   node/distance access counts (k-NN is its first `k` items);
//! * [`gridfile`] and [`quadtree`] — a grid file \[NHS84\] and a region
//!   quadtree \[Sa89\] whose size accounting makes the dimensionality
//!   curse measurable (E8 builds them and reads their sizes; nothing
//!   queries them);
//! * [`scan`] — the sequential-scan baseline;
//! * [`precomputed`] — the all-pairs distance matrix for small,
//!   update-rare databases;
//! * [`filter_refine`] — distance-bounding filter-and-refine k-NN over
//!   color histograms (\[HSE+95\], zero false dismissals);
//! * [`geometry`] — shared MBR/point machinery.
//!
//! Experiments E7–E9 and the `image_search` example are the callers;
//! no library query path goes through this crate.

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
