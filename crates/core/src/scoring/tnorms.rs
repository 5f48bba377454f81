//! Triangular norms: the classic conjunction scoring functions.
//!
//! The paper (§3) defines a t-norm by ∧-conservation, monotonicity,
//! commutativity, and associativity, and notes min is the standard one
//! (and by Theorem 3.1 the *only* one preserving logical equivalence).
//! The families below are those surveyed in [BD86, Mi89, Zi96]; all of
//! them satisfy the t-norm axioms (verified by the property tests in
//! `scoring::properties` and by proptest suites).
//!
//! Pointwise ordering (relevant for query semantics): for all `x, y`,
//! `Drastic ≤ Lukasiewicz ≤ Einstein ≤ Product ≤ Hamacher(0) ≤ Min`,
//! with `Min` the largest t-norm and `Drastic` the smallest.

use crate::float;
use crate::score::Score;
use crate::scoring::TNorm;

/// Zadeh's standard conjunction: `t(x, y) = min(x, y)`.
///
/// By Theorem 3.1 (Yager; Dubois–Prade), min is the unique monotone
/// scoring function for ∧ that preserves logical equivalence of
/// positive queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

impl TNorm for Min {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        a.min(b)
    }

    fn norm_name(&self) -> String {
        "min".to_owned()
    }
}

/// The algebraic product: `t(x, y) = x·y`.
///
/// The natural choice when grades are interpreted as independent
/// probabilities of relevance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Product;

impl TNorm for Product {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        // Product of two values in [0,1] stays in [0,1].
        Score::clamped(a.value() * b.value())
    }

    fn norm_name(&self) -> String {
        "product".to_owned()
    }
}

/// The Łukasiewicz (bounded-difference) t-norm:
/// `t(x, y) = max(0, x + y − 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lukasiewicz;

impl TNorm for Lukasiewicz {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        Score::clamped(a.value() + b.value() - 1.0)
    }

    fn norm_name(&self) -> String {
        "lukasiewicz".to_owned()
    }
}

/// The drastic t-norm: `t(x, y) = min(x, y)` if `max(x, y) = 1`, else 0.
///
/// The pointwise smallest t-norm; useful as a boundary case in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drastic;

impl TNorm for Drastic {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        if a == Score::ONE {
            b
        } else if b == Score::ONE {
            a
        } else {
            Score::ZERO
        }
    }

    fn norm_name(&self) -> String {
        "drastic".to_owned()
    }
}

/// The Hamacher family:
/// `t(x, y) = x·y / (γ + (1−γ)(x + y − x·y))` for parameter `γ ≥ 0`.
///
/// `γ = 0` gives the Hamacher product, `γ = 1` the algebraic product,
/// `γ = 2` the Einstein product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hamacher {
    gamma: f64,
}

impl Hamacher {
    /// Creates a Hamacher t-norm. Returns `None` for `γ < 0` or NaN.
    pub fn new(gamma: f64) -> Option<Hamacher> {
        (gamma >= 0.0).then_some(Hamacher { gamma })
    }

    /// The family parameter γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl TNorm for Hamacher {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        let (x, y) = (a.value(), b.value());
        let denom = self.gamma + (1.0 - self.gamma) * (x + y - x * y);
        if float::approx_zero(denom) {
            // Vanishing denominator: only approachable at γ = 0 with
            // x, y → 0, where the function's limit is 0 (and the exact
            // value is within EPSILON of it).
            Score::ZERO
        } else {
            Score::clamped(x * y / denom)
        }
    }

    fn norm_name(&self) -> String {
        format!("hamacher({})", self.gamma)
    }
}

/// The Einstein product: `t(x, y) = x·y / (2 − (x + y − x·y))`
/// (Hamacher family at γ = 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Einstein;

impl TNorm for Einstein {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        let (x, y) = (a.value(), b.value());
        Score::clamped(x * y / (2.0 - (x + y - x * y)))
    }

    fn norm_name(&self) -> String {
        "einstein".to_owned()
    }
}

/// The Yager family:
/// `t(x, y) = max(0, 1 − ((1−x)^p + (1−y)^p)^(1/p))` for `p > 0`.
///
/// `p = 1` is Łukasiewicz; `p → ∞` tends to min.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Yager {
    p: f64,
}

impl Yager {
    /// Creates a Yager t-norm. Returns `None` unless `p > 0` and finite.
    pub fn new(p: f64) -> Option<Yager> {
        (p > 0.0 && p.is_finite()).then_some(Yager { p })
    }

    /// The family exponent p.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl TNorm for Yager {
    #[inline]
    fn t(&self, a: Score, b: Score) -> Score {
        let u = (1.0 - a.value()).powf(self.p);
        let v = (1.0 - b.value()).powf(self.p);
        Score::clamped(1.0 - (u + v).powf(1.0 / self.p))
    }

    fn norm_name(&self) -> String {
        format!("yager({})", self.p)
    }
}

/// Every shipped t-norm, boxed, for property sweeps and the axiom table
/// (experiment E14).
pub fn all_tnorms() -> Vec<Box<dyn TNorm>> {
    vec![
        Box::new(Min),
        Box::new(Product),
        Box::new(Lukasiewicz),
        Box::new(Drastic),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Hamacher::new accepts any gamma >= 0"
        )]
        Box::new(Hamacher::new(0.0).expect("0 is a valid gamma")),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Hamacher::new accepts any gamma >= 0"
        )]
        Box::new(Hamacher::new(0.5).expect("0.5 is a valid gamma")),
        Box::new(Einstein),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Yager::new accepts any p >= 1"
        )]
        Box::new(Yager::new(2.0).expect("2 is a valid p")),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Yager::new accepts any p >= 1"
        )]
        Box::new(Yager::new(5.0).expect("5 is a valid p")),
    ]
}

impl TNorm for Box<dyn TNorm> {
    fn t(&self, a: Score, b: Score) -> Score {
        (**self).t(a, b)
    }
    fn norm_name(&self) -> String {
        (**self).norm_name()
    }
}

impl<N: TNorm + ?Sized> TNorm for &N {
    fn t(&self, a: Score, b: Score) -> Score {
        (**self).t(a, b)
    }
    fn norm_name(&self) -> String {
        (**self).norm_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    /// Sample grid used by the exhaustive axiom checks.
    fn grid() -> Vec<Score> {
        [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&v| s(v))
            .collect()
    }

    fn check_tnorm_axioms(norm: &dyn TNorm) {
        let g = grid();
        // ∧-conservation.
        assert_eq!(
            norm.t(Score::ZERO, Score::ZERO),
            Score::ZERO,
            "{}",
            norm.norm_name()
        );
        for &x in &g {
            assert!(
                norm.t(x, Score::ONE).approx_eq(x, 1e-12),
                "{}: t(x,1) != x at {x}",
                norm.norm_name()
            );
            assert!(
                norm.t(Score::ONE, x).approx_eq(x, 1e-12),
                "{}: t(1,x) != x at {x}",
                norm.norm_name()
            );
        }
        for &a in &g {
            for &b in &g {
                let ab = norm.t(a, b);
                // Commutativity.
                assert!(
                    ab.approx_eq(norm.t(b, a), 1e-12),
                    "{}: commutativity at ({a},{b})",
                    norm.norm_name()
                );
                // Monotonicity against larger arguments.
                for &a2 in &g {
                    if a2 >= a {
                        assert!(
                            norm.t(a2, b) >= ab || norm.t(a2, b).approx_eq(ab, 1e-12),
                            "{}: monotonicity at ({a},{b})->({a2},{b})",
                            norm.norm_name()
                        );
                    }
                }
                // Associativity.
                for &c in &g {
                    let left = norm.t(norm.t(a, b), c);
                    let right = norm.t(a, norm.t(b, c));
                    assert!(
                        left.approx_eq(right, 1e-9),
                        "{}: associativity at ({a},{b},{c}): {left} vs {right}",
                        norm.norm_name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_shipped_tnorms_satisfy_the_axioms() {
        for norm in all_tnorms() {
            check_tnorm_axioms(norm.as_ref());
        }
    }

    #[test]
    fn min_is_the_largest_drastic_the_smallest() {
        let g = grid();
        for norm in all_tnorms() {
            for &a in &g {
                for &b in &g {
                    let v = norm.t(a, b);
                    assert!(
                        v.value() <= Min.t(a, b).value() + 1e-12,
                        "{} exceeds min",
                        norm.norm_name()
                    );
                    assert!(
                        v >= Drastic.t(a, b) || v.approx_eq(Drastic.t(a, b), 1e-12),
                        "{} below drastic",
                        norm.norm_name()
                    );
                }
            }
        }
    }

    #[test]
    fn hamacher_at_one_is_product() {
        let h = Hamacher::new(1.0).unwrap();
        for (a, b) in [(0.3, 0.8), (0.5, 0.5), (0.0, 0.9), (1.0, 0.4)] {
            assert!(h.t(s(a), s(b)).approx_eq(Product.t(s(a), s(b)), 1e-12));
        }
    }

    #[test]
    fn hamacher_at_two_is_einstein() {
        let h = Hamacher::new(2.0).unwrap();
        for (a, b) in [(0.3, 0.8), (0.5, 0.5), (0.0, 0.9), (1.0, 0.4)] {
            assert!(h.t(s(a), s(b)).approx_eq(Einstein.t(s(a), s(b)), 1e-12));
        }
    }

    #[test]
    fn yager_at_one_is_lukasiewicz() {
        let y = Yager::new(1.0).unwrap();
        for (a, b) in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.9), (1.0, 0.4)] {
            assert!(y.t(s(a), s(b)).approx_eq(Lukasiewicz.t(s(a), s(b)), 1e-12));
        }
    }

    #[test]
    fn yager_tends_to_min_for_large_p() {
        let y = Yager::new(200.0).unwrap();
        for (a, b) in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.9)] {
            assert!(
                y.t(s(a), s(b)).approx_eq(Min.t(s(a), s(b)), 1e-2),
                "p=200 should be close to min at ({a},{b})"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Hamacher::new(-0.1).is_none());
        assert!(Hamacher::new(f64::NAN).is_none());
        assert!(Yager::new(0.0).is_none());
        assert!(Yager::new(f64::INFINITY).is_none());
    }

    #[test]
    fn hamacher_zero_denominator_edge_case() {
        let h = Hamacher::new(0.0).unwrap();
        assert_eq!(h.t(Score::ZERO, Score::ZERO), Score::ZERO);
    }

    #[test]
    fn drastic_matches_definition() {
        assert_eq!(Drastic.t(s(0.7), Score::ONE), s(0.7));
        assert_eq!(Drastic.t(Score::ONE, s(0.7)), s(0.7));
        assert_eq!(Drastic.t(s(0.99), s(0.99)), Score::ZERO);
    }
}
