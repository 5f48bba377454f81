//! Triangular co-norms: the classic disjunction scoring functions.
//!
//! Each co-norm here is the De Morgan dual of a t-norm in
//! [`crate::scoring::tnorms`] under the standard negation `1 − x`
//! (Bonissone–Decker \[BD86\], quoted in §3 of the paper). The duality is
//! verified by tests below and by the property suite.

use crate::score::Score;
use crate::scoring::Conorm;

/// Zadeh's standard disjunction: `s(x, y) = max(x, y)`.
///
/// By Theorem 3.1 it is the unique monotone, equivalence-preserving
/// scoring function for ∨. It is the dual of min.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

impl Conorm for Max {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        a.max(b)
    }

    fn conorm_name(&self) -> String {
        "max".to_owned()
    }
}

/// The probabilistic sum: `s(x, y) = x + y − x·y` (dual of product).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbabilisticSum;

impl Conorm for ProbabilisticSum {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        let (x, y) = (a.value(), b.value());
        Score::clamped(x + y - x * y)
    }

    fn conorm_name(&self) -> String {
        "prob-sum".to_owned()
    }
}

/// The bounded sum: `s(x, y) = min(1, x + y)` (dual of Łukasiewicz).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundedSum;

impl Conorm for BoundedSum {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        Score::clamped(a.value() + b.value())
    }

    fn conorm_name(&self) -> String {
        "bounded-sum".to_owned()
    }
}

/// The drastic sum: `s(x, y) = max(x, y)` if `min(x, y) = 0`, else 1
/// (dual of the drastic t-norm; pointwise the largest co-norm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrasticSum;

impl Conorm for DrasticSum {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        if a == Score::ZERO {
            b
        } else if b == Score::ZERO {
            a
        } else {
            Score::ONE
        }
    }

    fn conorm_name(&self) -> String {
        "drastic-sum".to_owned()
    }
}

/// The Einstein sum: `s(x, y) = (x + y) / (1 + x·y)` (dual of the
/// Einstein product).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EinsteinSum;

impl Conorm for EinsteinSum {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        let (x, y) = (a.value(), b.value());
        Score::clamped((x + y) / (1.0 + x * y))
    }

    fn conorm_name(&self) -> String {
        "einstein-sum".to_owned()
    }
}

/// The Yager co-norm family:
/// `s(x, y) = min(1, (x^p + y^p)^(1/p))` for `p > 0`
/// (dual of the Yager t-norm family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YagerSum {
    p: f64,
}

impl YagerSum {
    /// Creates a Yager co-norm. Returns `None` unless `p > 0` and finite.
    pub fn new(p: f64) -> Option<YagerSum> {
        (p > 0.0 && p.is_finite()).then_some(YagerSum { p })
    }

    /// The family exponent p.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Conorm for YagerSum {
    #[inline]
    fn s(&self, a: Score, b: Score) -> Score {
        let u = a.value().powf(self.p);
        let v = b.value().powf(self.p);
        Score::clamped((u + v).powf(1.0 / self.p))
    }

    fn conorm_name(&self) -> String {
        format!("yager-sum({})", self.p)
    }
}

/// Every shipped co-norm, boxed, for property sweeps and the axiom table.
pub fn all_conorms() -> Vec<Box<dyn Conorm>> {
    vec![
        Box::new(Max),
        Box::new(ProbabilisticSum),
        Box::new(BoundedSum),
        Box::new(DrasticSum),
        Box::new(EinsteinSum),
        #[expect(
            clippy::expect_used,
            reason = "constant parameter; YagerSum::new accepts any p >= 1"
        )]
        Box::new(YagerSum::new(2.0).expect("2 is a valid p")),
    ]
}

impl Conorm for Box<dyn Conorm> {
    fn s(&self, a: Score, b: Score) -> Score {
        (**self).s(a, b)
    }
    fn conorm_name(&self) -> String {
        (**self).conorm_name()
    }
}

impl<S: Conorm + ?Sized> Conorm for &S {
    fn s(&self, a: Score, b: Score) -> Score {
        (**self).s(a, b)
    }
    fn conorm_name(&self) -> String {
        (**self).conorm_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::tnorms::{Drastic, Einstein, Lukasiewicz, Min, Product, Yager};
    use crate::scoring::{Dual, TNorm};

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn grid() -> Vec<Score> {
        [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&v| s(v))
            .collect()
    }

    fn check_conorm_axioms(conorm: &dyn Conorm) {
        let g = grid();
        // ∨-conservation.
        assert_eq!(conorm.s(Score::ONE, Score::ONE), Score::ONE);
        for &x in &g {
            assert!(
                conorm.s(x, Score::ZERO).approx_eq(x, 1e-12),
                "{}: s(x,0) != x",
                conorm.conorm_name()
            );
            assert!(
                conorm.s(Score::ZERO, x).approx_eq(x, 1e-12),
                "{}: s(0,x) != x",
                conorm.conorm_name()
            );
        }
        for &a in &g {
            for &b in &g {
                let ab = conorm.s(a, b);
                assert!(
                    ab.approx_eq(conorm.s(b, a), 1e-12),
                    "{}: commutativity",
                    conorm.conorm_name()
                );
                for &c in &g {
                    let left = conorm.s(conorm.s(a, b), c);
                    let right = conorm.s(a, conorm.s(b, c));
                    assert!(
                        left.approx_eq(right, 1e-9),
                        "{}: associativity at ({a},{b},{c})",
                        conorm.conorm_name()
                    );
                }
                for &a2 in &g {
                    if a2 >= a {
                        assert!(
                            conorm.s(a2, b) >= ab || conorm.s(a2, b).approx_eq(ab, 1e-12),
                            "{}: monotonicity",
                            conorm.conorm_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_shipped_conorms_satisfy_the_axioms() {
        for c in all_conorms() {
            check_conorm_axioms(c.as_ref());
        }
    }

    #[test]
    fn shipped_conorms_match_their_duals() {
        let pairs: Vec<(Box<dyn Conorm>, Box<dyn TNorm>)> = vec![
            (Box::new(Max), Box::new(Min)),
            (Box::new(ProbabilisticSum), Box::new(Product)),
            (Box::new(BoundedSum), Box::new(Lukasiewicz)),
            (Box::new(DrasticSum), Box::new(Drastic)),
            (Box::new(EinsteinSum), Box::new(Einstein)),
            (
                Box::new(YagerSum::new(3.0).unwrap()),
                Box::new(Yager::new(3.0).unwrap()),
            ),
        ];
        for (conorm, norm) in pairs {
            let dual = Dual(&*norm);
            for &a in &grid() {
                for &b in &grid() {
                    assert!(
                        conorm.s(a, b).approx_eq(dual.s(a, b), 1e-9),
                        "{} is not the dual of {} at ({a},{b})",
                        conorm.conorm_name(),
                        norm.norm_name()
                    );
                }
            }
        }
    }

    #[test]
    fn max_is_the_smallest_drastic_sum_the_largest() {
        for c in all_conorms() {
            for &a in &grid() {
                for &b in &grid() {
                    let v = c.s(a, b);
                    assert!(v >= Max.s(a, b) || v.approx_eq(Max.s(a, b), 1e-12));
                    assert!(v <= DrasticSum.s(a, b) || v.approx_eq(DrasticSum.s(a, b), 1e-12));
                }
            }
        }
    }

    #[test]
    fn invalid_yager_sum_rejected() {
        assert!(YagerSum::new(-1.0).is_none());
        assert!(YagerSum::new(f64::NAN).is_none());
        assert_eq!(YagerSum::new(2.0).unwrap().p(), 2.0);
    }
}
