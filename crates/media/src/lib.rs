//! # fmdb-media — multimedia feature substrate
//!
//! The atomic-query layer (§2) of the reproduction of Fagin, *"Fuzzy
//! Queries in Multimedia Database Systems"* (PODS 1998): the feature
//! extractors and distance functions a QBIC-like subsystem uses to
//! grade objects against targets like `Color='red'` or
//! `Shape='round'`.
//!
//! * [`linalg`] — small dense matrices, power iteration, spectral
//!   bounds (no external linear-algebra dependency);
//! * [`color`] — RGB-binned color spaces, normalized histograms, the
//!   QBIC similarity matrix;
//! * [`distance`] — the quadratic-form color distance of eq. (1), plus
//!   L1/L2/intersection baselines;
//! * [`bounding`] — the \[HSE+95\] distance-bounding filter (ineq. (2))
//!   with a spectrally *proved* filter constant;
//! * [`embed`] — the Cholesky-embedded Euclidean kernel: factor
//!   `A = LLᵀ` once, embed `x′ = Lᵀx` per object, and every
//!   quadratic-form distance collapses to an O(k) norm, with batched
//!   early-abandoning kNN over pre-embedded corpora;
//! * [`shape`] — turning functions (pairwise and as a precomputed
//!   corpus), Fourier descriptors, Hu moments over polygons;
//! * [`texture`] — Tamura-style texture features (coarseness,
//!   contrast, directionality) over grayscale patches;
//! * [`synth`] — synthetic image databases with controllable
//!   attribute correlation (the substitution for QBIC's proprietary
//!   image collections).
//!
//! The crate computes distances, not grades: garlic's
//! `QbicRepository` turns a query's distances into grades (a linear
//! cutoff at the largest distance it observed), so the one
//! distance → grade rule lives beside the one caller that needs it.

pub mod bounding;
pub mod color;
pub mod distance;
pub mod embed;
mod fft;
pub mod linalg;
pub mod shape;
pub mod synth;
pub mod texture;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::bounding::{BoundedDistance, DistanceBound, ShortVector};
    pub use crate::color::{ColorHistogram, ColorSpace, Rgb};
    pub use crate::distance::{HistogramDistance, L2Distance, QuadraticFormDistance};
    pub use crate::embed::{EmbeddedCorpus, EmbeddedDistance, EmbeddedSpace};
    pub use crate::shape::{
        turning_distance, FourierDescriptor, HuMoments, Polygon, TurningCorpus,
    };
    pub use crate::synth::{MediaObject, ShapeFamily, SynthConfig, SyntheticDb};
    pub use crate::texture::{named_texture, TextureDescriptor, TexturePatch};
}
