//! Per-source grade-distribution statistics: equi-depth histograms.
//!
//! The cost-based planner (middleware's `planner` module) prices every
//! physical strategy in terms of *how deep* a sorted stream must be
//! read before grades fall below a target — exactly the quantile
//! function of the source's grade distribution. A [`GradeHistogram`]
//! records that function compactly: `bins` equi-depth bucket
//! boundaries taken from a descending grade list.
//!
//! Its builders are the sources that hold such a list — a materialised
//! `VecSource` and the paged store's persisted stats page; the planner
//! is its one reader.

use crate::score::Score;

/// Default bucket count for planner histograms: fine enough to resolve
/// a 5% selectivity step, coarse enough to build in microseconds.
pub const DEFAULT_HISTOGRAM_BINS: usize = 16;

/// An equi-depth histogram over a source's grades.
///
/// Stores `bins + 1` boundary grades `b_0 ≥ b_1 ≥ … ≥ b_bins` where
/// `b_i` is the grade at depth `i/bins · n` of the descending grade
/// list. Between boundaries the distribution is interpolated linearly,
/// so [`GradeHistogram::fraction_above`] is continuous in the grade.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeHistogram {
    universe: usize,
    bounds: Vec<f64>,
}

impl GradeHistogram {
    /// Builds a histogram from a **descending** grade list (a full
    /// sorted stream or its prefix). Only `bins + 1` entries are
    /// inspected, so construction is O(bins) given the sorted list.
    pub fn from_sorted(grades: &[Score], bins: usize) -> GradeHistogram {
        Self::from_sorted_by(grades.len(), bins, |i| {
            grades.get(i).copied().unwrap_or(Score::ZERO)
        })
    }

    /// Builds a histogram by probing `grade_at(i)` at `bins + 1`
    /// quantile indices of a descending list of length `n` — O(bins)
    /// with no intermediate copy (used by materialized sources).
    pub fn from_sorted_by(
        n: usize,
        bins: usize,
        grade_at: impl Fn(usize) -> Score,
    ) -> GradeHistogram {
        let bins = bins.max(1);
        if n == 0 {
            return GradeHistogram {
                universe: 0,
                bounds: Vec::new(),
            };
        }
        let mut bounds = Vec::with_capacity(bins + 1);
        for i in 0..=bins {
            // Quantile index for depth fraction i/bins, clamped to the
            // last element.
            let idx = ((i * (n - 1)) / bins).min(n - 1);
            bounds.push(grade_at(idx).value());
        }
        GradeHistogram {
            universe: n,
            bounds,
        }
    }

    /// Reassembles a histogram from persisted parts — the inverse of
    /// reading [`GradeHistogram::universe`] and
    /// [`GradeHistogram::bounds`] back from storage (the paged store
    /// keeps a stats page so the planner can price a disk-backed
    /// source without touching data pages).
    ///
    /// Returns `None` when the parts are not a valid histogram: bounds
    /// must be finite, within `[0, 1]`, non-ascending, and either empty
    /// (with universe 0) or at least two entries for a universe > 0.
    pub fn from_parts(universe: usize, bounds: Vec<f64>) -> Option<GradeHistogram> {
        if bounds.is_empty() {
            return (universe == 0).then_some(GradeHistogram {
                universe: 0,
                bounds,
            });
        }
        if bounds.len() < 2 || universe == 0 {
            return None;
        }
        let valid = bounds
            .iter()
            .all(|b| b.is_finite() && (0.0..=1.0).contains(b))
            && bounds.windows(2).all(|w| w[0] >= w[1]);
        valid.then_some(GradeHistogram { universe, bounds })
    }

    /// The raw boundary grades `b_0 ≥ b_1 ≥ … ≥ b_bins` (see the type
    /// docs) — what a store persists and [`GradeHistogram::from_parts`]
    /// reassembles.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of objects the histogram describes.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of equi-depth buckets.
    pub fn bins(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Estimated fraction of objects whose grade is ≥ `grade`, in
    /// `[0, 1]`.
    pub fn fraction_above(&self, grade: f64) -> f64 {
        let bins = self.bins();
        if self.universe == 0 || bins == 0 {
            return 0.0;
        }
        let top = self.bounds[0];
        let bottom = self.bounds[bins];
        if grade > top {
            return 0.0;
        }
        if grade <= bottom {
            return 1.0;
        }
        // Find the bucket [b_i, b_{i+1}] containing `grade` (bounds
        // descend), then interpolate the depth fraction inside it.
        for i in 0..bins {
            let hi = self.bounds[i];
            let lo = self.bounds[i + 1];
            if grade <= hi && grade > lo {
                let span = hi - lo;
                let t = if span > f64::EPSILON {
                    (hi - grade) / span
                } else {
                    1.0
                };
                return ((i as f64 + t) / bins as f64).clamp(0.0, 1.0);
            }
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_desc(n: usize) -> Vec<Score> {
        // grades n/n, (n-1)/n, …, 1/n — exactly uniform.
        (0..n)
            .map(|i| Score::clamped((n - i) as f64 / n as f64))
            .collect()
    }

    #[test]
    fn uniform_grades_give_linear_quantiles() {
        let h = GradeHistogram::from_sorted(&uniform_desc(1000), 16);
        assert_eq!(h.universe(), 1000);
        assert_eq!(h.bins(), 16);
        // fraction above g ≈ 1 − g for uniform grades.
        for &g in &[0.05, 0.3, 0.5, 0.77, 0.95] {
            let got = h.fraction_above(g);
            assert!(
                (got - (1.0 - g)).abs() < 0.02,
                "fraction_above({g}) = {got}"
            );
        }
    }

    #[test]
    fn crisp_grades_form_a_step() {
        // 20% grade-1 objects, 80% grade-0: a crisp predicate with
        // selectivity 0.2.
        let mut grades = vec![Score::ONE; 200];
        grades.extend(std::iter::repeat_n(Score::ZERO, 800));
        let h = GradeHistogram::from_sorted(&grades, 10);
        assert!((h.fraction_above(0.5) - 0.2).abs() < 0.11);
        assert!((h.fraction_above(1.0) - 0.2).abs() < 0.11);
        assert!((h.fraction_above(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_histograms_are_safe() {
        let empty = GradeHistogram::from_sorted(&[], 16);
        assert_eq!(empty.universe(), 0);
        assert!(empty.fraction_above(0.5).abs() < 1e-12);

        let one = GradeHistogram::from_sorted(&[Score::HALF], 16);
        assert_eq!(one.universe(), 1);
        assert!((one.fraction_above(0.1) - 1.0).abs() < 1e-12);
        assert!(one.fraction_above(0.9).abs() < 1e-12);

        // All-equal grades: flat quantiles must not divide by zero.
        let flat = GradeHistogram::from_sorted(&[Score::HALF; 50], 8);
        assert!((flat.fraction_above(0.25) - 1.0).abs() < 1e-12);
        assert!(flat.fraction_above(0.75).abs() < 1e-12);
        assert!((flat.fraction_above(0.5) - 1.0).abs() < 1e-12);
    }
}
