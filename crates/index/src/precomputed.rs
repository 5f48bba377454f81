//! Precomputed pairwise distances (§2.1).
//!
//! "Another approach, that is especially useful when the database is
//! not too large (say, consisting of only a few thousand images), takes
//! advantage of the fact that … updates are done rarely, if at all. The
//! idea is to precompute the distance … between each pair of objects,
//! and store the answers. If the user asks for those images whose color
//! is close to the color of some other image in the database, no
//! painful computations such as that given by the formula (1) need to
//! be done in real time."
//!
//! Storage is `n(n−1)/2` `f32` entries (the matrix is symmetric with a
//! zero diagonal); `n = 4000` costs ~32 MB, matching the paper's "few
//! thousand images" sweet spot that experiment E9 sweeps.

use std::fmt;

use fmdb_media::embed::EmbeddedCorpus;

/// Error raised by the precomputed matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecomputeError {
    /// Object index out of range.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The number of objects.
        n: usize,
    },
    /// Fewer than two objects.
    TooSmall,
    /// The distance function returned NaN or a negative value.
    InvalidDistance(f64),
}

impl fmt::Display for PrecomputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecomputeError::OutOfRange { index, n } => {
                write!(f, "object {index} out of range (n = {n})")
            }
            PrecomputeError::TooSmall => write!(f, "need at least two objects"),
            PrecomputeError::InvalidDistance(d) => write!(f, "invalid distance {d}"),
        }
    }
}

impl std::error::Error for PrecomputeError {}

/// A symmetric pairwise-distance matrix, built once and queried in
/// O(n) per query-by-example with zero distance computations.
#[derive(Debug, Clone)]
pub struct PrecomputedDistances {
    n: usize,
    /// Upper-triangle (i < j) distances, row-major packed.
    tri: Vec<f32>,
    /// Distance evaluations spent building (n·(n−1)/2) — the build
    /// cost reported by experiment E9.
    build_evaluations: u64,
}

impl PrecomputedDistances {
    /// Precomputes all pairwise distances via `dist(i, j)`.
    pub fn build(
        n: usize,
        mut dist: impl FnMut(usize, usize) -> f64,
    ) -> Result<PrecomputedDistances, PrecomputeError> {
        if n < 2 {
            return Err(PrecomputeError::TooSmall);
        }
        let mut tri = Vec::with_capacity(n * (n - 1) / 2);
        let mut evals = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist(i, j);
                evals += 1;
                if !d.is_finite() || d < 0.0 {
                    return Err(PrecomputeError::InvalidDistance(d));
                }
                tri.push(d as f32);
            }
        }
        Ok(PrecomputedDistances {
            n,
            tri,
            build_evaluations: evals,
        })
    }

    /// Precomputes all pairwise distances from an embedded corpus.
    ///
    /// Each pair costs one O(k) Euclidean norm instead of the O(k²)
    /// quadratic form, so the O(n²) build — the dominant cost E9
    /// measures — drops by a factor of k while storing the exact same
    /// distances.
    pub fn build_embedded(
        corpus: &EmbeddedCorpus,
    ) -> Result<PrecomputedDistances, PrecomputeError> {
        PrecomputedDistances::build(corpus.len(), |i, j| corpus.distance_between(i, j))
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (`build` requires n ≥ 2).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Distance evaluations spent at build time.
    pub fn build_evaluations(&self) -> u64 {
        self.build_evaluations
    }

    #[inline]
    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        // Row i starts after sum_{r<i} (n-1-r) = i(n-1) − i(i−1)/2 entries.
        i * (self.n - 1) - i * i.saturating_sub(1) / 2 + (j - i - 1)
    }

    /// The stored distance between objects `i` and `j`.
    pub fn distance(&self, i: usize, j: usize) -> Result<f64, PrecomputeError> {
        for &idx in &[i, j] {
            if idx >= self.n {
                return Err(PrecomputeError::OutOfRange {
                    index: idx,
                    n: self.n,
                });
            }
        }
        if i == j {
            return Ok(0.0);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Ok(f64::from(self.tri[self.tri_index(a, b)]))
    }

    /// Query by example: the `k` objects closest to object `query`
    /// (excluding itself), with zero distance evaluations.
    pub fn knn(&self, query: usize, k: usize) -> Result<Vec<(usize, f64)>, PrecomputeError> {
        if query >= self.n {
            return Err(PrecomputeError::OutOfRange {
                index: query,
                n: self.n,
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "both indices were bounds-checked at function entry"
        )]
        let mut all: Vec<(usize, f64)> = (0..self.n)
            .filter(|&j| j != query)
            .map(|j| (j, self.distance(query, j).expect("indices validated above")))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_metric(i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs()
    }

    #[test]
    fn build_validates() {
        assert!(matches!(
            PrecomputedDistances::build(1, line_metric),
            Err(PrecomputeError::TooSmall)
        ));
        assert!(matches!(
            PrecomputedDistances::build(3, |_, _| f64::NAN),
            Err(PrecomputeError::InvalidDistance(_))
        ));
        assert!(matches!(
            PrecomputedDistances::build(3, |_, _| -1.0),
            Err(PrecomputeError::InvalidDistance(_))
        ));
    }

    #[test]
    fn stores_and_retrieves_symmetrically() {
        let p = PrecomputedDistances::build(5, line_metric).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.build_evaluations(), 10);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(p.distance(i, j).unwrap(), line_metric(i, j));
            }
        }
        assert!(matches!(
            p.distance(0, 5),
            Err(PrecomputeError::OutOfRange { index: 5, n: 5 })
        ));
    }

    #[test]
    fn knn_by_example() {
        let p = PrecomputedDistances::build(6, line_metric).unwrap();
        let nn = p.knn(3, 3).unwrap();
        // Distances from 3: [3,2,1,-,1,2]; ties (2↔4 at d=1, 1↔5 at
        // d=2) break by index.
        assert_eq!(nn, vec![(2, 1.0), (4, 1.0), (1, 2.0)]);
        assert!(p.knn(9, 2).is_err());
    }

    #[test]
    fn embedded_build_matches_quadratic_form_build() {
        use fmdb_media::color::{ColorHistogram, ColorSpace};
        use fmdb_media::distance::{HistogramDistance, QuadraticFormDistance};
        use fmdb_media::embed::EmbeddedSpace;

        let space = ColorSpace::rgb_grid(3).unwrap();
        let k = space.k();
        let hists: Vec<ColorHistogram> = (0..12)
            .map(|i| {
                let mut masses = vec![0.0; k];
                masses[i % k] = 2.0;
                masses[(i * 7 + 3) % k] = 1.0;
                ColorHistogram::from_masses(masses).unwrap()
            })
            .collect();
        let corpus = fmdb_media::embed::EmbeddedCorpus::build(
            EmbeddedSpace::for_space(&space).unwrap(),
            &hists,
        )
        .unwrap();
        let fast = PrecomputedDistances::build_embedded(&corpus).unwrap();

        let qf = QuadraticFormDistance::new(space.similarity_matrix());
        let slow = PrecomputedDistances::build(hists.len(), |i, j| {
            qf.distance(&hists[i], &hists[j]).unwrap()
        })
        .unwrap();

        assert_eq!(fast.build_evaluations(), slow.build_evaluations());
        for i in 0..hists.len() {
            for j in 0..hists.len() {
                let a = fast.distance(i, j).unwrap();
                let b = slow.distance(i, j).unwrap();
                assert!((a - b).abs() < 1e-6, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn knn_excludes_self_and_handles_large_k() {
        let p = PrecomputedDistances::build(4, line_metric).unwrap();
        let nn = p.knn(0, 100).unwrap();
        assert_eq!(nn.len(), 3);
        assert!(nn.iter().all(|&(j, _)| j != 0));
    }
}
