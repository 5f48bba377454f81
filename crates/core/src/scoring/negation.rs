//! Negation scoring functions.
//!
//! The paper's standard rule (§3) is `μ_{¬A}(x) = 1 − μ_A(x)`. The
//! Bonissone–Decker De Morgan laws quoted there hold "for suitable
//! negation scoring functions n (such as the standard n(x) = 1 − x)";
//! we ship the standard negation plus the Sugeno and Yager families
//! commonly used in the fuzzy-sets literature, all of which are strict
//! (strictly decreasing), involutive-or-not as documented.

use crate::score::Score;

/// A fuzzy negation: a decreasing function `n : [0,1] → [0,1]` with
/// `n(0) = 1` and `n(1) = 0`.
pub trait Negation {
    /// Applies the negation.
    fn n(&self, x: Score) -> Score;

    /// A short human-readable name.
    fn negation_name(&self) -> String;

    /// Whether `n(n(x)) = x` for all x.
    fn is_involutive(&self) -> bool;
}

/// The standard negation `n(x) = 1 − x` — involutive, and the one under
/// which the shipped t-norm/co-norm pairs are De Morgan duals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Standard;

impl Negation for Standard {
    #[inline]
    fn n(&self, x: Score) -> Score {
        x.negate()
    }

    fn negation_name(&self) -> String {
        "standard".to_owned()
    }

    fn is_involutive(&self) -> bool {
        true
    }
}

/// The Sugeno negation family `n(x) = (1 − x) / (1 + λx)` for `λ > −1`.
/// Involutive for every λ; `λ = 0` is the standard negation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sugeno {
    lambda: f64,
}

impl Sugeno {
    /// Creates a Sugeno negation. Returns `None` unless `λ > −1`, finite.
    pub fn new(lambda: f64) -> Option<Sugeno> {
        (lambda > -1.0 && lambda.is_finite()).then_some(Sugeno { lambda })
    }

    /// The family parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Negation for Sugeno {
    #[inline]
    fn n(&self, x: Score) -> Score {
        let v = x.value();
        Score::clamped((1.0 - v) / (1.0 + self.lambda * v))
    }

    fn negation_name(&self) -> String {
        format!("sugeno({})", self.lambda)
    }

    fn is_involutive(&self) -> bool {
        true
    }
}

/// The Yager negation family `n(x) = (1 − x^w)^(1/w)` for `w > 0`.
/// Involutive for every w; `w = 1` is the standard negation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YagerNeg {
    w: f64,
}

impl YagerNeg {
    /// Creates a Yager negation. Returns `None` unless `w > 0`, finite.
    pub fn new(w: f64) -> Option<YagerNeg> {
        (w > 0.0 && w.is_finite()).then_some(YagerNeg { w })
    }

    /// The family exponent w.
    pub fn w(&self) -> f64 {
        self.w
    }
}

impl Negation for YagerNeg {
    #[inline]
    fn n(&self, x: Score) -> Score {
        Score::clamped((1.0 - x.value().powf(self.w)).powf(1.0 / self.w))
    }

    fn negation_name(&self) -> String {
        format!("yager-neg({})", self.w)
    }

    fn is_involutive(&self) -> bool {
        true
    }
}

/// Every shipped negation, boxed.
pub fn all_negations() -> Vec<Box<dyn Negation>> {
    vec![
        Box::new(Standard),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Sugeno::new accepts any lambda > -1"
        )]
        Box::new(Sugeno::new(-0.5).expect("-0.5 is a valid lambda")),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; Sugeno::new accepts any lambda > -1"
        )]
        Box::new(Sugeno::new(2.0).expect("2 is a valid lambda")),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; YagerNeg::new accepts any w > 0"
        )]
        Box::new(YagerNeg::new(2.0).expect("2 is a valid w")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Score> {
        [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&v| Score::clamped(v))
            .collect()
    }

    #[test]
    fn boundary_conditions() {
        for n in all_negations() {
            assert!(
                n.n(Score::ZERO).approx_eq(Score::ONE, 1e-12),
                "{}: n(0) != 1",
                n.negation_name()
            );
            assert!(
                n.n(Score::ONE).approx_eq(Score::ZERO, 1e-12),
                "{}: n(1) != 0",
                n.negation_name()
            );
        }
    }

    #[test]
    fn negations_are_decreasing() {
        for n in all_negations() {
            let g = grid();
            for w in g.windows(2) {
                assert!(
                    n.n(w[0]) >= n.n(w[1]),
                    "{}: not decreasing",
                    n.negation_name()
                );
            }
        }
    }

    #[test]
    fn claimed_involutions_hold() {
        for n in all_negations() {
            if n.is_involutive() {
                for &x in &grid() {
                    assert!(
                        n.n(n.n(x)).approx_eq(x, 1e-9),
                        "{}: not involutive at {x}",
                        n.negation_name()
                    );
                }
            }
        }
    }

    #[test]
    fn sugeno_zero_is_standard() {
        let s0 = Sugeno::new(0.0).unwrap();
        for &x in &grid() {
            assert!(s0.n(x).approx_eq(Standard.n(x), 1e-12));
        }
    }

    #[test]
    fn yager_one_is_standard() {
        let y1 = YagerNeg::new(1.0).unwrap();
        for &x in &grid() {
            assert!(y1.n(x).approx_eq(Standard.n(x), 1e-12));
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Sugeno::new(-1.0).is_none());
        assert!(Sugeno::new(f64::NAN).is_none());
        assert!(YagerNeg::new(0.0).is_none());
    }
}
