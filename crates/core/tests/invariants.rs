//! Runtime-invariant suite: the dynamic half of the workspace's
//! correctness tooling.
//!
//! `cargo clippy`, under the workspace lints table, enforces hygiene
//! the type system can't (`unwrap_used` / `expect_used` / `panic`: no
//! panicking paths in library code; `float_cmp`: no raw float equality;
//! `unsafe_code`, `missing_docs`). What a lint cannot prove statically —
//! *values* staying inside the paper's domains — is trapped here:
//! `Score` construction funnels through a `debug_assert!` range check,
//! so every test in this suite doubles as a tripwire. These tests run
//! under `cargo test` (debug assertions on), sweeping the scoring
//! surface densely enough that an out-of-range or NaN grade anywhere
//! in the pipeline panics the build.

use fmdb_core::float;
use fmdb_core::prelude::*;
use fmdb_core::score::Score;
use fmdb_core::scoring::conorms::all_conorms;
use fmdb_core::scoring::negation::all_negations;
use fmdb_core::scoring::tnorms::all_tnorms;
use fmdb_core::weights::Weighting;

/// A dense unit-interval sweep including the endpoints, values that
/// stress round-off (`0.1 + 0.2`), and denormal-adjacent tinies.
fn sweep() -> Vec<Score> {
    let mut grid: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
    grid.extend([0.1 + 0.2, 1e-300, 1.0 - 1e-16, f64::MIN_POSITIVE]);
    grid.into_iter().map(Score::clamped).collect()
}

/// Every grade must be a finite number in `[0, 1]`; with debug
/// assertions on, `Score`'s own `debug_checked` already panicked if
/// not, so this is belt *and* suspenders (and keeps the test
/// meaningful under `--release`).
fn assert_grade(context: &str, s: Score) {
    assert!(
        s.value().is_finite() && (0.0..=1.0).contains(&s.value()),
        "{context}: grade {} escaped [0, 1]",
        s.value()
    );
}

#[test]
fn score_constructors_stay_in_range() {
    for v in [-1e300, -1.0, -1e-300, 0.0, 0.5, 1.0, 1e300, f64::NAN] {
        assert_grade("clamped", Score::clamped(v));
    }
    assert!(Score::new(f64::NAN).is_err());
    assert!(Score::new(1.0 + 1e-9).is_err());
    assert!(Score::new(f64::INFINITY).is_err());
}

#[test]
fn negate_min_max_preserve_the_interval() {
    for &a in &sweep() {
        assert_grade("negate", a.negate());
        for &b in &sweep() {
            assert_grade("min", a.min(b));
            assert_grade("max", a.max(b));
        }
    }
}

#[test]
fn every_tnorm_output_is_a_grade() {
    for norm in all_tnorms() {
        for &a in &sweep() {
            for &b in &sweep() {
                assert_grade(&norm.norm_name(), norm.t(a, b));
            }
        }
    }
}

#[test]
fn every_conorm_output_is_a_grade() {
    for conorm in all_conorms() {
        for &a in &sweep() {
            for &b in &sweep() {
                assert_grade(&conorm.conorm_name(), conorm.s(a, b));
            }
        }
    }
}

#[test]
fn every_negation_output_is_a_grade() {
    for neg in all_negations() {
        for &a in &sweep() {
            assert_grade(&neg.negation_name(), neg.n(a));
        }
    }
}

#[test]
fn weighted_combines_stay_in_range() {
    let weightings = [
        Weighting::new(vec![1.0]).expect("valid weighting"),
        Weighting::new(vec![0.7, 0.3]).expect("valid weighting"),
        Weighting::new(vec![0.5, 0.3, 0.2]).expect("valid weighting"),
        Weighting::uniform(3).expect("valid weighting"),
    ];
    let grades = sweep();
    for w in &weightings {
        let m = w.arity();
        for window in grades.windows(m) {
            let out = weighted_combine(&Min, w, window);
            assert_grade("weighted(min)", out);
            let out = weighted_combine(&Product, w, window);
            assert_grade("weighted(product)", out);
        }
    }
}

#[test]
fn crispness_is_epsilon_tolerant() {
    assert!(Score::ONE.is_crisp());
    assert!(Score::ZERO.is_crisp());
    assert!(Score::clamped(1.0 - float::EPSILON / 2.0).is_crisp());
    assert!(Score::clamped(float::EPSILON / 2.0).is_crisp());
    assert!(!Score::HALF.is_crisp());
    assert!(!Score::clamped(1e-6).is_crisp());
}

#[test]
fn shared_epsilon_matches_score_comparisons() {
    let a = Score::clamped(0.1 + 0.2);
    let b = Score::clamped(0.3);
    assert!(float::approx_eq(a.value(), b.value()));
    assert!(a.approx_eq(b, float::EPSILON));
}
