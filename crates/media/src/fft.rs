//! A radix-2 fast Fourier transform: the turning kernel's correlation
//! pass (`shape`, DESIGN §16) in `O(m log m)` per row.
//!
//! Iterative Cooley–Tukey, decimation in time: a bit-reversal
//! permutation, then `log₂ m` stages of butterflies, over the real and
//! imaginary parts in two slices. Every stage is one
//! butterfly matrix of Higham's analysis (*Accuracy and Stability of
//! Numerical Algorithms*, 2nd ed., Thm 24.2), so a computed transform
//! `ŷ` of `x` satisfies `‖ŷ − y‖₂ ≤ ε(log₂ m)·√m·‖x‖₂` with
//! [`relative_error`]'s `ε`, given that every twiddle is within
//! [`TWIDDLE_ERROR`] of its exact value.
//!
//! A real signal's spectrum is kept *packed*: `m` reals
//! `[A₀, A_{m/2}, re A₁, im A₁, …, re A_{m/2−1}, im A_{m/2−1}]`; the
//! other half is the conjugate mirror, and `A₀`, `A_{m/2}` are real.
//!
//! The butterflies and [`Fft::correlate`] are generic over a [`Lane`]:
//! one `f64`, or `[f64; LANES]` — that many independent transforms run
//! side by side, each lane's operations exactly a one-lane run's.

use std::f64::consts::{SQRT_2, TAU};
use std::sync::OnceLock;

/// Transforms per [`Lane`] of the wide kind: the rows of one tile of a
/// `TurningCorpus`'s spectra.
pub(crate) const LANES: usize = 4;

/// One value of a transform: a single `f64`, or `[f64; LANES]`, the same
/// position in `LANES` independent transforms. Every operation is the
/// `f64` one applied lane by lane, so lane `l` of a wide run computes,
/// operation for operation, what a one-lane run on lane `l`'s input
/// computes: IEEE-754 arithmetic is correctly rounded, and Rust neither
/// reassociates it nor fuses a multiply and an add, so the bits agree.
/// The wide kind is plain element-wise array arithmetic, which LLVM
/// runs two lanes to an SSE2 register on the baseline x86-64 target.
pub(crate) trait Lane: Copy {
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
    /// `f(l)` in lane `l`.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// Lane `lane`'s value (an `f64` has one lane, whatever `lane` is).
    fn at(self, lane: usize) -> f64;
    /// `f` lane by lane.
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self;

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        self.zip(other, |x, y| x + y)
    }

    #[inline(always)]
    fn sub(self, other: Self) -> Self {
        self.zip(other, |x, y| x - y)
    }

    #[inline(always)]
    fn mul(self, other: Self) -> Self {
        self.zip(other, |x, y| x * y)
    }

    #[inline(always)]
    fn div(self, other: Self) -> Self {
        self.zip(other, |x, y| x / y)
    }
}

impl Lane for f64 {
    #[inline(always)]
    fn splat(x: f64) -> f64 {
        x
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }

    #[inline(always)]
    fn at(self, _lane: usize) -> f64 {
        self
    }

    #[inline(always)]
    fn zip(self, other: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        f(self, other)
    }
}

impl Lane for [f64; LANES] {
    #[inline(always)]
    fn splat(x: f64) -> [f64; LANES] {
        [x; LANES]
    }

    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> [f64; LANES] {
        std::array::from_fn(f)
    }

    #[inline(always)]
    fn at(self, lane: usize) -> f64 {
        self[lane]
    }

    #[inline(always)]
    fn zip(self, other: [f64; LANES], f: impl Fn(f64, f64) -> f64) -> [f64; LANES] {
        let mut out = self;
        for l in 0..LANES {
            out[l] = f(self[l], other[l]);
        }
        out
    }
}

/// Unit roundoff `u = 2⁻⁵³`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// `μ`, the bound on every twiddle's error `|ŵ − ω|` (Higham's (24.4)):
/// `4u`. [`Fft::new`] reduces each angle to `[0, π/4]` by exact
/// symmetries, so the angle is off by at most `1.4u·π/4` and `sin`/`cos`
/// add at most an ulp each: `≤ √2·2.1u ≈ 3u` (checked in the tests).
pub(crate) const TWIDDLE_ERROR: f64 = 4.0 * UNIT_ROUNDOFF;

/// Higham's `γ_k = k·u / (1 − k·u)`: the relative error of `k` chained
/// roundings; `+∞` once `k·u` reaches 1.
pub(crate) fn gamma(k: usize) -> f64 {
    let ku = k as f64 * UNIT_ROUNDOFF;
    if ku < 1.0 {
        ku / (1.0 - ku)
    } else {
        f64::INFINITY
    }
}

/// `ε(ℓ) = ℓη / (1 − ℓη)`, `η = μ + γ₄(√2 + μ)`: Higham's Thm 24.2
/// bound on a `2^ℓ`-point transform, relative to `‖y‖₂ = 2^{ℓ/2}‖x‖₂`.
pub(crate) fn relative_error(stages: u32) -> f64 {
    let eta = TWIDDLE_ERROR + gamma(4) * (SQRT_2 + TWIDDLE_ERROR);
    let l_eta = f64::from(stages) * eta;
    if l_eta < 1.0 {
        l_eta / (1.0 - l_eta)
    } else {
        f64::INFINITY
    }
}

/// `(cos θ, sin θ)` for `θ = 2πk/m`, `m` a power of two: the angle is
/// first reduced to `[0, π/4]` by exact symmetries, so `k/m` is exact
/// and `2πk/m` carries one rounding.
fn cos_sin(k: usize, m: usize) -> (f64, f64) {
    let k = k % m;
    if 2 * k > m {
        // θ = 2π − θ′.
        let (c, s) = cos_sin(m - k, m);
        (c, -s)
    } else if 4 * k > m {
        // θ = π − θ′.
        let (c, s) = cos_sin(m / 2 - k, m);
        (-c, s)
    } else if 8 * k > m {
        // θ = π/2 − θ′.
        let (c, s) = cos_sin(m / 4 - k, m);
        (s, c)
    } else {
        let theta = TAU * (k as f64 / m as f64);
        (theta.cos(), theta.sin())
    }
}

/// Bit-reversal of `k` over `bits` bits.
fn reversed(k: usize, bits: u32) -> usize {
    k.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// The twiddles of every power-of-two transform up to `m` points, and
/// the transforms that read them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fft {
    /// `m`, a power of two.
    len: usize,
    /// Entry `h + j` is `ω_{2h}^j = e^{−2πij/(2h)}` for every stage
    /// `h = 1, 2, 4, …, m/2` and `j < h`, so a stage's twiddles are
    /// contiguous and shared by every transform of at most `m` points;
    /// entry 0 is unused (`1`). Real parts here, imaginary in `sin`.
    cos: Vec<f64>,
    /// The imaginary parts of `cos`'s twiddles.
    sin: Vec<f64>,
    /// `−sin`: the inverse transform's twiddles are the conjugates.
    sin_inverse: Vec<f64>,
    /// `reversed(k, log₂ m − 1)` for `k < m/2`: where
    /// [`correlate`](Self::correlate) writes its `Z_k`.
    half_reversal: Vec<usize>,
}

impl Fft {
    /// The tables for transforms of up to `len` points.
    ///
    /// # Panics
    /// Panics if `len` is not a power of two.
    fn new(len: usize) -> Fft {
        assert!(
            len.is_power_of_two(),
            "FFT length {len} is not a power of two"
        );
        let (mut cos, mut sin) = (vec![1.0], vec![0.0]);
        let mut h = 1;
        while h < len {
            for j in 0..h {
                // ω_{2h}^j = e^{−2πi·(j·m/2h)/m}: one table of angles.
                let (c, s) = cos_sin(j * (len / (2 * h)), len);
                cos.push(c);
                sin.push(-s);
            }
            h *= 2;
        }
        let bits = (len / 2).trailing_zeros();
        let half_reversal = (0..len / 2).map(|k| reversed(k, bits)).collect();
        let sin_inverse = sin.iter().map(|s| -s).collect();
        Fft {
            len,
            cos,
            sin,
            sin_inverse,
            half_reversal,
        }
    }

    /// The tables for `len`-point transforms (a power of two), built on
    /// first use and shared by every later caller: they depend on `len`
    /// alone, and building them costs a pairwise `turning_distance` more
    /// than its transforms do.
    ///
    /// # Panics
    /// Panics if `len` is not a power of two.
    pub(crate) fn of(len: usize) -> &'static Fft {
        static TABLES: [OnceLock<Fft>; usize::BITS as usize] =
            [const { OnceLock::new() }; usize::BITS as usize];
        TABLES[len.trailing_zeros() as usize].get_or_init(|| Fft::new(len))
    }

    /// The transform length `m`.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// In place, the unnormalised DFT of `re + i·im` (`points` values,
    /// a power of two up to `m`): `y_k = Σ_j x_j·e^{∓2πijk/points}`, `−`
    /// forward, `+` inverse.
    #[cfg(test)]
    fn transform(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let points = re.len();
        debug_assert!(points.is_power_of_two() && points <= self.len && im.len() == points);
        let bits = points.trailing_zeros();
        for k in 0..points {
            let r = reversed(k, bits);
            if k < r {
                re.swap(k, r);
                im.swap(k, r);
            }
        }
        self.butterflies(re, im, inverse);
    }

    /// The stages of a transform whose input is already in bit-reversed
    /// order, over every lane of `re` and `im` at once. Each butterfly is
    /// `x ± w·y`, the complex product in its four multiplications and
    /// two additions (Higham's model), except in the first two stages,
    /// whose twiddles make the product exact.
    fn butterflies<L: Lane>(&self, re: &mut [L], im: &mut [L], inverse: bool) {
        let points = re.len();
        let sign = if inverse { -1.0 } else { 1.0 };
        // The first two stages in one pass over groups of four: their
        // twiddles are 1 and ∓i, so their products are exact, a swap and
        // a sign; the operations are the two stages' own.
        if points >= 4 {
            let (plus, minus) = (L::splat(sign), L::splat(-sign));
            for (re, im) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
                let (a0r, a0i) = (re[0].add(re[1]), im[0].add(im[1]));
                let (a1r, a1i) = (re[0].sub(re[1]), im[0].sub(im[1]));
                let (a2r, a2i) = (re[2].add(re[3]), im[2].add(im[3]));
                let (a3r, a3i) = (re[2].sub(re[3]), im[2].sub(im[3]));
                (re[0], im[0]) = (a0r.add(a2r), a0i.add(a2i));
                (re[2], im[2]) = (a0r.sub(a2r), a0i.sub(a2i));
                // w·y = ∓i·(yr + i·yi) = ±yi ∓ i·yr.
                let (tr, ti) = (plus.mul(a3i), minus.mul(a3r));
                (re[1], im[1]) = (a1r.add(tr), a1i.add(ti));
                (re[3], im[3]) = (a1r.sub(tr), a1i.sub(ti));
            }
        } else if points == 2 {
            let (xr, xi, yr, yi) = (re[0], im[0], re[1], im[1]);
            (re[0], im[0], re[1], im[1]) = (xr.add(yr), xi.add(yi), xr.sub(yr), xi.sub(yi));
        }
        let mut h = 4;
        while h < points {
            let sin = if inverse {
                &self.sin_inverse
            } else {
                &self.sin
            };
            let (cos, sin) = (&self.cos[h..2 * h], &sin[h..2 * h]);
            for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (xr, yr) = re.split_at_mut(h);
                let (xi, yi) = im.split_at_mut(h);
                for j in 0..h {
                    let (wr, wi) = (L::splat(cos[j]), L::splat(sin[j]));
                    let tr = wr.mul(yr[j]).sub(wi.mul(yi[j]));
                    let ti = wr.mul(yi[j]).add(wi.mul(yr[j]));
                    let (ar, ai) = (xr[j], xi[j]);
                    xr[j] = ar.add(tr);
                    xi[j] = ai.add(ti);
                    yr[j] = ar.sub(tr);
                    yi[j] = ai.sub(ti);
                }
            }
            h *= 2;
        }
    }

    /// The packed spectrum of the real `signal` (at most `m` samples,
    /// zero-padded to `m`), by one complex `m`-point transform; `A₀`
    /// and `A_{m/2}` keep their real parts.
    pub(crate) fn real_spectrum(&self, signal: &[f64]) -> Vec<f64> {
        let m = self.len;
        debug_assert!(signal.len() <= m);
        let bits = m.trailing_zeros();
        let (mut re, mut im) = (vec![0.0; m], vec![0.0; m]);
        for (k, &x) in signal.iter().enumerate() {
            re[reversed(k, bits)] = x;
        }
        self.butterflies(&mut re, &mut im, false);
        let mut packed = Vec::with_capacity(m);
        packed.push(re[0]);
        if m > 1 {
            packed.push(re[m / 2]);
            for k in 1..m / 2 {
                packed.extend([re[k], im[k]]);
            }
        }
        packed
    }

    /// `X_s = Σ_k conj(A_k)·B_k·e^{+2πiks/m}` for every `s < m`, from two
    /// packed spectra of real signals `a`, `b` (`m ≥ 2`): `m` times
    /// their cyclic cross-correlation `Σᵢ aᵢ·b₍ᵢ₊ₛ₎ mod m`. `X_{2j}` is
    /// left in `re[j]` and `X_{2j+1}` in `im[j]`, `j < m/2`. With
    /// `L = [f64; LANES]`, `a` is that many spectra, lane by lane, each
    /// correlated with the one `b`.
    ///
    /// `X` is real, so it takes one complex transform of `M = m/2`
    /// points: `z_j = X_{2j} + i·X_{2j+1}` is the inverse transform of
    /// `Z_k = D_k + i·ω_m^k·E_k`, with `P = conj(A)·B`,
    /// `D_k = P_k + conj P_{M−k}` and `E_k = P_k − conj P_{M−k}`. Since
    /// `D_{M−k} = conj D_k` and `ω_m^{M−k}·E_{M−k} = conj(ω_m^k·E_k)`, one
    /// pass over `k ≤ M/2` writes both `Z_k` and `Z_{M−k}`, in
    /// bit-reversed order.
    pub(crate) fn correlate<L: Lane>(&self, a: &[L], b: &[f64], re: &mut [L], im: &mut [L]) {
        let m = self.len;
        let half = m / 2;
        debug_assert!(m >= 2 && a.len() == m && b.len() == m);
        debug_assert!(re.len() == half && im.len() == half);
        // k = 0: P₀ = A₀B₀ and P_M = A_M·B_M are real, ω⁰ = 1.
        let (p0, pm) = (a[0].mul(L::splat(b[0])), a[1].mul(L::splat(b[1])));
        re[0] = p0.add(pm);
        im[0] = p0.sub(pm);
        // ω_m^k is the conjugate of stage M's forward twiddle.
        let (cos, sin) = (&self.cos[half..m], &self.sin[half..m]);
        for k in 1..=half / 2 {
            let (pr, pi) = product(a, b, k);
            let (qr, qi) = product(a, b, half - k);
            let (dr, di) = (pr.add(qr), pi.sub(qi));
            let (er, ei) = (pr.sub(qr), pi.add(qi));
            let (wr, wi) = (L::splat(cos[k]), L::splat(-sin[k]));
            let (fr, fi) = (wr.mul(er).sub(wi.mul(ei)), wr.mul(ei).add(wi.mul(er)));
            let r = self.half_reversal[k];
            re[r] = dr.sub(fi);
            im[r] = di.add(fr);
            let r = self.half_reversal[half - k];
            re[r] = dr.add(fi);
            im[r] = fr.sub(di);
        }
        self.butterflies(re, im, true);
    }
}

/// `P_k = conj(A_k)·B_k` from two packed spectra, `0 < k < m/2`.
#[inline(always)]
fn product<L: Lane>(a: &[L], b: &[f64], k: usize) -> (L, L) {
    let (ar, ai) = (a[2 * k], a[2 * k + 1]);
    let (br, bi) = (L::splat(b[2 * k]), L::splat(b[2 * k + 1]));
    (ar.mul(br).add(ai.mul(bi)), ar.mul(bi).sub(ai.mul(br)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Double-double arithmetic (`hi + lo`, ≈ 106 bits): the reference
    /// the twiddles and transforms are measured against.
    #[derive(Debug, Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn two_sum(a: f64, b: f64) -> Dd {
            let s = a + b;
            let v = s - a;
            Dd(s, (a - (s - v)) + (b - v))
        }

        fn add(self, o: Dd) -> Dd {
            let s = Dd::two_sum(self.0, o.0);
            let t = Dd::two_sum(self.1, o.1);
            let hi = Dd::two_sum(s.0, s.1 + t.0);
            Dd::two_sum(hi.0, hi.1 + t.1)
        }

        fn neg(self) -> Dd {
            Dd(-self.0, -self.1)
        }

        fn mul(self, o: Dd) -> Dd {
            let p = self.0 * o.0;
            let e = self.0.mul_add(o.0, -p);
            Dd::two_sum(p, e + (self.0 * o.1 + self.1 * o.0))
        }

        fn div(self, d: f64) -> Dd {
            let q = self.0 / d;
            let qd = Dd(q * d, q.mul_add(d, -(q * d)));
            Dd::two_sum(q, self.add(qd.neg()).value() / d)
        }

        fn value(self) -> f64 {
            self.0 + self.1
        }
    }

    /// `2π` as a double-double: `TAU` and the rest.
    const TAU_DD: Dd = Dd(TAU, 2.449_293_598_294_706_4e-16);

    /// `(cos θ, sin θ)`, `θ = 2πk/m`, in double-double, by the same
    /// octant symmetries as [`cos_sin`] (they are exact) and a Taylor
    /// series on `[0, π/4]`.
    fn cos_sin_dd(k: usize, m: usize) -> (Dd, Dd) {
        let k = k % m;
        if 2 * k > m {
            let (c, s) = cos_sin_dd(m - k, m);
            (c, s.neg())
        } else if 4 * k > m {
            let (c, s) = cos_sin_dd(m / 2 - k, m);
            (c.neg(), s)
        } else if 8 * k > m {
            let (c, s) = cos_sin_dd(m / 4 - k, m);
            (s, c)
        } else {
            let q = Dd(k as f64 / m as f64, 0.0);
            let theta = TAU_DD.mul(q);
            let (mut cos, mut sin) = (Dd(0.0, 0.0), Dd(0.0, 0.0));
            // term = θ^i / i!
            let mut term = Dd(1.0, 0.0);
            for i in 0..30 {
                if i % 2 == 0 {
                    cos = cos.add(if i % 4 == 0 { term } else { term.neg() });
                } else {
                    sin = sin.add(if i % 4 == 1 { term } else { term.neg() });
                }
                term = term.mul(theta).div((i + 1) as f64);
            }
            (cos, sin)
        }
    }

    #[test]
    fn every_twiddle_is_within_mu() {
        let mut m = 1;
        while m <= 1 << 12 {
            let fft = Fft::new(m);
            let mut h = 1;
            while h < m {
                for j in 0..h {
                    let k = j * (m / (2 * h));
                    let (c, s) = cos_sin_dd(k, m);
                    let (wr, wi) = (fft.cos[h + j], fft.sin[h + j]);
                    let er = Dd(wr, 0.0).add(c.neg()).value();
                    let ei = Dd(wi, 0.0).add(s).value();
                    let err = er.hypot(ei);
                    assert!(
                        err <= TWIDDLE_ERROR,
                        "m {m}, ω_{}^{j}: error {err:e} > μ {TWIDDLE_ERROR:e}",
                        2 * h
                    );
                }
                h *= 2;
            }
            m *= 2;
        }
    }

    /// The exact DFT of `x` (interleaved), in double-double.
    fn naive_dft(x: &[f64], inverse: bool) -> Vec<Dd> {
        let m = x.len() / 2;
        let mut y = Vec::with_capacity(2 * m);
        for k in 0..m {
            let (mut re, mut im) = (Dd(0.0, 0.0), Dd(0.0, 0.0));
            for j in 0..m {
                let (c, s) = cos_sin_dd(j * k, m);
                // e^{∓iθ} = c ∓ i·s
                let s = if inverse { s } else { s.neg() };
                let (xr, xi) = (Dd(x[2 * j], 0.0), Dd(x[2 * j + 1], 0.0));
                re = re.add(xr.mul(c)).add(xi.mul(s).neg());
                im = im.add(xr.mul(s)).add(xi.mul(c));
            }
            y.extend([re, im]);
        }
        y
    }

    fn signal(m: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (0..2 * m)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
            })
            .collect()
    }

    /// `fft.transform` of the interleaved `x`, interleaved.
    fn transformed(fft: &Fft, x: &[f64], inverse: bool) -> Vec<f64> {
        let mut re: Vec<f64> = x.iter().step_by(2).copied().collect();
        let mut im: Vec<f64> = x.iter().skip(1).step_by(2).copied().collect();
        fft.transform(&mut re, &mut im, inverse);
        re.iter().zip(&im).flat_map(|(&r, &i)| [r, i]).collect()
    }

    /// `‖ŷ − y‖₂` against the exact transform, and the derived bound
    /// `ε(log₂ m)·√m·‖x‖₂`.
    fn error_and_bound(fft: &Fft, x: &[f64], inverse: bool) -> (f64, f64) {
        let m = x.len() / 2;
        let y = transformed(fft, x, inverse);
        let exact = naive_dft(x, inverse);
        let err = y
            .iter()
            .zip(&exact)
            .map(|(&got, &want)| {
                let d = Dd(got, 0.0).add(want.neg()).value();
                d * d
            })
            .sum::<f64>()
            .sqrt();
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let bound = relative_error(m.trailing_zeros()) * (m as f64).sqrt() * norm;
        (err, bound)
    }

    #[test]
    fn the_fft_stays_within_its_derived_bound() {
        let mut m = 1;
        while m <= 256 {
            let fft = Fft::new(m);
            for seed in 0..4 {
                let x = signal(m, seed);
                for inverse in [false, true] {
                    let (err, bound) = error_and_bound(&fft, &x, inverse);
                    assert!(
                        err <= bound,
                        "m {m}, seed {seed}: ‖ŷ − y‖ {err:e} > {bound:e}"
                    );
                }
            }
            m *= 2;
        }
    }

    #[test]
    fn a_smaller_transform_reads_the_same_tables() {
        let big = Fft::new(256);
        for m in [1, 2, 8, 64] {
            let x = signal(m, 9);
            assert_eq!(
                transformed(&big, &x, false),
                transformed(&Fft::new(m), &x, false),
                "m {m}"
            );
        }
    }

    /// A wide correlation is `LANES` one-lane correlations, bit for bit:
    /// the butterflies and the pre-pass run each lane's operations in a
    /// one-lane run's order.
    #[test]
    fn each_lane_of_a_wide_correlation_is_a_one_lane_correlation() {
        for m in [2, 4, 8, 16, 64, 128] {
            let fft = Fft::new(m);
            let spectra: Vec<Vec<f64>> = (0..LANES)
                .map(|lane| fft.real_spectrum(&signal(m, lane as u64)[..m]))
                .collect();
            let b = fft.real_spectrum(&signal(m, 99)[m..]);
            let tile: Vec<[f64; LANES]> = (0..m)
                .map(|k| std::array::from_fn(|lane| spectra[lane][k]))
                .collect();
            let (mut re, mut im) = (vec![[0.0; LANES]; m / 2], vec![[0.0; LANES]; m / 2]);
            fft.correlate(&tile, &b, &mut re, &mut im);
            for (lane, a) in spectra.iter().enumerate() {
                let (mut one_re, mut one_im) = (vec![0.0; m / 2], vec![0.0; m / 2]);
                fft.correlate(a, &b, &mut one_re, &mut one_im);
                let wide = re.iter().chain(&im).map(|x| x[lane].to_bits());
                let one = one_re.iter().chain(&one_im).map(|x| x.to_bits());
                assert!(wide.eq(one), "m {m}, lane {lane}");
            }
        }
    }

    #[test]
    fn correlate_is_m_times_the_cyclic_cross_correlation() {
        for m in [2, 4, 8, 64] {
            let fft = Fft::new(m);
            let x = signal(m, 3);
            let (a, b) = (&x[..m], &x[m..]);
            let (mut re, mut im) = (vec![0.0; m / 2], vec![0.0; m / 2]);
            fft.correlate(
                &fft.real_spectrum(a),
                &fft.real_spectrum(b),
                &mut re,
                &mut im,
            );
            let out = re.iter().zip(&im).flat_map(|(&r, &i)| [r, i]);
            for (s, got) in out.enumerate() {
                let want: f64 = (0..m).map(|i| a[i] * b[(i + s) % m]).sum();
                assert!(
                    (got / m as f64 - want).abs() <= 1e-10 * (1.0 + want.abs()),
                    "m {m}, s {s}: {} vs {want}",
                    got / m as f64
                );
            }
        }
    }
}
