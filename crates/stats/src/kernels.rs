//! Batched density kernels: slice-in/slice-out evaluation of the model
//! densities with per-distribution constants hoisted out of the inner loop.
//!
//! The EM fitter evaluates `SkewNormal::ln_pdf` once per sample × component ×
//! iteration; going through [`Distribution`](crate::Distribution)'s scalar
//! methods re-derives `ln ω` (and friends) on every call and leaves the
//! compiler no loop to pipeline. A *kernel* is a small `Copy` struct that
//! precomputes those constants once and then maps whole slices in
//! [`LANES`]-wide chunks built on the `*_slice` primitives of
//! [`special`](crate::special).
//!
//! # Determinism contract
//!
//! Every kernel method is **bit-identical** to the matching scalar
//! `Distribution` method of the distribution it was built from:
//!
//! - constants are hoisted only when the scalar expression computes the exact
//!   same intermediate (e.g. `ln_c = LN 2 + ln(1/√2π) − ln ω` preserves the
//!   scalar association order; `1/ω` is *never* substituted for `/ω`);
//! - slice evaluation is a pure elementwise map — chunking never introduces
//!   cross-lane arithmetic, so the chunk width cannot change any result;
//! - reductions (log-likelihood sums, responsibility totals) are owned by the
//!   callers, which accumulate strictly in index order.
//!
//! The property suite in `tests/kernel_equivalence.rs` pins this contract
//! down with `to_bits` comparisons over random parameters, tail inputs and
//! odd-length slices.

use crate::fastmath::{fast_exp_core, fast_ln_core};
use crate::mixture::{Lvf2, Mixture, Norm2};
use crate::normal::Normal;
use crate::skew_normal::SkewNormal;
use crate::special::{
    log_norm_cdf, log_phi_parts_chunk, log_phi_parts_in, log_phi_regime, norm_cdf, norm_pdf,
    owen_t, INV_SQRT_2PI, SQRT_2,
};

pub use crate::special::LANES;

/// Whether this host runs the AVX2 builds of the batched kernels (the
/// skew-normal `ln_pdf_slice` and `pdf_slice` here, the EM E-step's
/// log-sum-exp in `lvf2-fit` and the statistical max's panel loop in
/// `lvf2-ssta`). Detected once per process on x86_64; always `false`
/// elsewhere. Informational only: both builds give the same bits.
#[inline]
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Chunked elementwise map: `out[i] = f(xs[i])`, [`LANES`] lanes per chunk.
#[inline]
fn map_chunked(xs: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
    assert_eq!(xs.len(), out.len(), "kernel slice length mismatch");
    let mut xc = xs.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (x8, o8) in xc.by_ref().zip(oc.by_ref()) {
        for (x, o) in x8.iter().zip(o8.iter_mut()) {
            *o = f(*x);
        }
    }
    for (x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
        *o = f(*x);
    }
}

/// Point + slice evaluation of one density with hoisted constants.
///
/// The slice methods default to a chunked map over the point methods;
/// implementors may override them with fused chunk bodies as long as the
/// bit-identity contract of the [module docs](self) holds.
pub trait DensityKernel {
    /// `ln f(x)`, bit-identical to the source distribution's `ln_pdf`.
    fn ln_pdf(&self, x: f64) -> f64;

    /// `f(x)`, bit-identical to the source distribution's `pdf`.
    fn pdf(&self, x: f64) -> f64;

    /// `F(x)`, bit-identical to the source distribution's `cdf`.
    fn cdf(&self, x: f64) -> f64;

    /// Batched [`ln_pdf`](Self::ln_pdf): `out[i] = ln f(xs[i])`.
    fn ln_pdf_slice(&self, xs: &[f64], out: &mut [f64]) {
        map_chunked(xs, out, |x| self.ln_pdf(x));
    }

    /// Batched [`pdf`](Self::pdf): `out[i] = f(xs[i])`.
    fn pdf_slice(&self, xs: &[f64], out: &mut [f64]) {
        map_chunked(xs, out, |x| self.pdf(x));
    }

    /// Batched [`cdf`](Self::cdf): `out[i] = F(xs[i])`.
    fn cdf_slice(&self, xs: &[f64], out: &mut [f64]) {
        map_chunked(xs, out, |x| self.cdf(x));
    }
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// Kernel for [`Normal`]: hoists `ln(1/√2π) − ln σ`.
#[derive(Debug, Clone, Copy)]
pub struct NormalKernel {
    mean: f64,
    sigma: f64,
    /// `ln(1/√2π) − ln σ`, associated exactly as the scalar `ln_pdf` does.
    ln_c: f64,
}

impl NormalKernel {
    /// Builds the kernel from a [`Normal`], paying the `ln σ` once.
    #[inline]
    pub fn new(n: &Normal) -> Self {
        NormalKernel {
            mean: n.mu(),
            sigma: n.sigma(),
            ln_c: INV_SQRT_2PI.ln() - n.sigma().ln(),
        }
    }
}

impl From<&Normal> for NormalKernel {
    fn from(n: &Normal) -> Self {
        NormalKernel::new(n)
    }
}

impl DensityKernel for NormalKernel {
    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sigma;
        self.ln_c - 0.5 * z * z
    }

    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mean) / self.sigma) / self.sigma
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mean) / self.sigma)
    }
}

// ---------------------------------------------------------------------------
// SkewNormal
// ---------------------------------------------------------------------------

/// Exponents below this flush the skew-normal pdf's `exp` to 0: the edge
/// of [`fast_exp_core`]'s domain.
const EXP_FLUSH: f64 = -708.0;

/// `exp(e)` for an exponent `e ≤ 0`: [`fast_exp_core`] on its domain, 0
/// below −708 (and for −∞), NaN for NaN. Branch-free: the core runs on the
/// clamped exponent and selects pick the flush and the NaN.
#[inline(always)]
fn exp_nonpositive(e: f64) -> f64 {
    let inside = e >= EXP_FLUSH;
    let v = fast_exp_core(if inside { e } else { EXP_FLUSH });
    if inside {
        v
    } else if e < EXP_FLUSH {
        0.0
    } else {
        e
    }
}

/// The skew-normal pdf from the `log Φ(αz)` parts `(q, t²)`:
/// `c·φ(z)·Φ(αz)·√(2π) = c·q·exp(−z²/2 − t²)` with `c = (2/ω)·(1/√2π)`, one
/// `exp` per point and no `erfc` (`q` is a rational or asymptotic term).
#[inline(always)]
fn pdf_from_parts(c: f64, z: f64, q: f64, tt: f64) -> f64 {
    c * q * exp_nonpositive(-0.5 * z * z - tt)
}

/// The skew-normal pdf `c·φ(z)·Φ(αz)·√(2π)` at the standardized point `z`,
/// `c = (2/ω)·(1/√2π)`. The scalar [`SkewNormal::pdf`](crate::Distribution::pdf),
/// [`SkewNormalKernel::pdf`] and the remainder lanes of `pdf_slice` all
/// call this, and the chunk body of `pdf_slice` runs the same parts, so
/// every path returns the same bits.
#[inline(always)]
pub(crate) fn skew_normal_pdf(c: f64, z: f64, alpha: f64) -> f64 {
    let a = alpha * z;
    let t = -a / SQRT_2;
    let (q, tt) = log_phi_parts_in(log_phi_regime(a, t), a, t);
    pdf_from_parts(c, z, q, tt)
}

/// Kernel for [`SkewNormal`]: hoists `ln 2 + ln(1/√2π) − ln ω` and
/// `(2/ω)·(1/√2π)`.
#[derive(Debug, Clone, Copy)]
pub struct SkewNormalKernel {
    xi: f64,
    omega: f64,
    alpha: f64,
    /// `ln 2 + ln(1/√2π) − ln ω`, associated exactly as the scalar `ln_pdf`.
    ln_c: f64,
    /// `(2/ω)·(1/√2π)`, associated exactly as the scalar `pdf`.
    pdf_c: f64,
}

impl SkewNormalKernel {
    /// Builds the kernel from a [`SkewNormal`], paying `ln ω` and `2/ω` once.
    #[inline]
    pub fn new(sn: &SkewNormal) -> Self {
        SkewNormalKernel {
            xi: sn.xi(),
            omega: sn.omega(),
            alpha: sn.alpha(),
            ln_c: std::f64::consts::LN_2 + INV_SQRT_2PI.ln() - sn.omega().ln(),
            pdf_c: 2.0 / sn.omega() * INV_SQRT_2PI,
        }
    }
}

impl From<&SkewNormal> for SkewNormalKernel {
    fn from(sn: &SkewNormal) -> Self {
        SkewNormalKernel::new(sn)
    }
}

impl DensityKernel for SkewNormalKernel {
    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.xi) / self.omega;
        self.ln_c - 0.5 * z * z + log_norm_cdf(self.alpha * z)
    }

    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        skew_normal_pdf(self.pdf_c, (x - self.xi) / self.omega, self.alpha)
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.xi) / self.omega;
        (norm_cdf(z) - 2.0 * owen_t(z, self.alpha)).clamp(0.0, 1.0)
    }

    /// Dispatches to the AVX2 build of the chunk body when the host has
    /// AVX2 ([`avx2_enabled`]), else to the portable build
    /// ([`ln_pdf_slice_portable`](SkewNormalKernel::ln_pdf_slice_portable)).
    /// Both builds compile the same source with no FMA and no
    /// reassociation, so they return the same bits.
    fn ln_pdf_slice(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if avx2_enabled() {
            // SAFETY: the host supports AVX2 (checked just above), the only
            // target feature `skew_normal_ln_pdf_avx2` enables.
            return unsafe { skew_normal_ln_pdf_avx2(self, xs, out) };
        }
        self.ln_pdf_slice_portable(xs, out);
    }

    /// Dispatches like [`ln_pdf_slice`](DensityKernel::ln_pdf_slice): the
    /// AVX2 build of the chunk body when the host has AVX2, else
    /// [`pdf_slice_portable`](SkewNormalKernel::pdf_slice_portable); same
    /// source, same bits.
    fn pdf_slice(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if avx2_enabled() {
            // SAFETY: the host supports AVX2 (checked just above), the only
            // target feature `skew_normal_pdf_avx2` enables.
            return unsafe { skew_normal_pdf_avx2(self, xs, out) };
        }
        self.pdf_slice_portable(xs, out);
    }
}

impl SkewNormalKernel {
    /// The portable build of [`ln_pdf_slice`](DensityKernel::ln_pdf_slice),
    /// which the dispatcher runs on hosts without AVX2. Public only so the
    /// equivalence tests can pin both builds to the same bits.
    #[doc(hidden)]
    pub fn ln_pdf_slice_portable(&self, xs: &[f64], out: &mut [f64]) {
        self.ln_pdf_chunks(xs, out);
    }

    /// The `log Φ(αz)` parts of one chunk, shared by both chunk bodies:
    /// per lane the standardized `z` and `(q, t²)` with
    /// `log Φ(αz) = ln q − t²`. The first lane loop standardizes, computes
    /// `t = −αz/√2` once per lane and classifies the lane's `log Φ` regime
    /// ([`log_phi_regime`]). On sorted input `αz` is monotone, so nearly
    /// every chunk is regime-uniform and runs that regime's formula as one
    /// branch-free lane loop ([`log_phi_parts_chunk`]); a mixed chunk
    /// evaluates per lane.
    #[inline(always)]
    fn parts_chunk(&self, x8: &[f64]) -> ([f64; LANES], [f64; LANES], [f64; LANES]) {
        let mut z = [0.0_f64; LANES];
        let mut a = [0.0_f64; LANES];
        let mut t = [0.0_f64; LANES];
        let mut code = [0_u8; LANES];
        for i in 0..LANES {
            z[i] = (x8[i] - self.xi) / self.omega;
            a[i] = self.alpha * z[i];
            t[i] = -a[i] / SQRT_2;
            code[i] = log_phi_regime(a[i], t[i]);
        }
        let mut q = [0.0_f64; LANES];
        let mut tt = [0.0_f64; LANES];
        let mixed = code.iter().fold(0_u8, |m, &c| m | (c ^ code[0]));
        if mixed == 0 {
            log_phi_parts_chunk(code[0], &a, &t, &mut q, &mut tt);
        } else {
            for i in 0..LANES {
                (q[i], tt[i]) = log_phi_parts_in(code[i], a[i], t[i]);
            }
        }
        (z, q, tt)
    }

    /// Chunk body of `ln_pdf_slice`: [`parts_chunk`], then one lane loop.
    /// The regime formulas guarantee `q` sits in [`fast_ln_core`]'s
    /// positive-normal domain, so that loop is branch-free. Bit-identity
    /// with the scalar [`ln_pdf`](DensityKernel::ln_pdf) holds because the
    /// scalar `log_norm_cdf` is *defined* as `fast_ln(q) − t²` over the same
    /// regime formulas, and `fast_ln` ≡ `fast_ln_core` on its domain.
    ///
    /// [`parts_chunk`]: SkewNormalKernel::parts_chunk
    #[inline(always)]
    fn ln_pdf_chunks(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "kernel slice length mismatch");
        let mut xc = xs.chunks_exact(LANES);
        let mut oc = out.chunks_exact_mut(LANES);
        for (x8, o8) in xc.by_ref().zip(oc.by_ref()) {
            let (z, q, tt) = self.parts_chunk(x8);
            for i in 0..LANES {
                o8[i] = self.ln_c - 0.5 * z[i] * z[i] + (fast_ln_core(q[i]) - tt[i]);
            }
        }
        for (x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
            *o = self.ln_pdf(*x);
        }
    }

    /// The portable build of [`pdf_slice`](DensityKernel::pdf_slice), which
    /// the dispatcher runs on hosts without AVX2. Public only so the
    /// equivalence tests can pin both builds to the same bits.
    #[doc(hidden)]
    pub fn pdf_slice_portable(&self, xs: &[f64], out: &mut [f64]) {
        self.pdf_chunks(xs, out);
    }

    /// Chunk body of `pdf_slice`: [`parts_chunk`], then one branch-free
    /// `exp` loop ([`pdf_from_parts`]). Bit-identical to the scalar
    /// [`pdf`](DensityKernel::pdf), which runs the same parts per point.
    ///
    /// [`parts_chunk`]: SkewNormalKernel::parts_chunk
    #[inline(always)]
    fn pdf_chunks(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "kernel slice length mismatch");
        let mut xc = xs.chunks_exact(LANES);
        let mut oc = out.chunks_exact_mut(LANES);
        for (x8, o8) in xc.by_ref().zip(oc.by_ref()) {
            let (z, q, tt) = self.parts_chunk(x8);
            for i in 0..LANES {
                o8[i] = pdf_from_parts(self.pdf_c, z[i], q[i], tt[i]);
            }
        }
        for (x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
            *o = self.pdf(*x);
        }
    }
}

/// The AVX2 build of [`SkewNormalKernel::ln_pdf_slice`]'s chunk body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skew_normal_ln_pdf_avx2(k: &SkewNormalKernel, xs: &[f64], out: &mut [f64]) {
    k.ln_pdf_chunks(xs, out);
}

/// The AVX2 build of [`SkewNormalKernel::pdf_slice`]'s chunk body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skew_normal_pdf_avx2(k: &SkewNormalKernel, xs: &[f64], out: &mut [f64]) {
    k.pdf_chunks(xs, out);
}

// ---------------------------------------------------------------------------
// Two-component mixtures (Lvf2 / Norm2)
// ---------------------------------------------------------------------------

/// Kernel for a fixed two-component mixture `(1−λ)·K₁ + λ·K₂`.
///
/// `ln_pdf` matches the mixtures' trait default (`pdf(x).ln()`); `pdf`/`cdf`
/// accumulate `w₁·k₁ + w₂·k₂` in the scalar evaluation order.
#[derive(Debug, Clone, Copy)]
pub struct TwoComponentKernel<K> {
    w1: f64,
    w2: f64,
    k1: K,
    k2: K,
}

/// Kernel for the paper's [`Lvf2`] two-skew-normal mixture.
pub type Lvf2Kernel = TwoComponentKernel<SkewNormalKernel>;

/// Kernel for the [`Norm2`] two-Gaussian baseline.
pub type Norm2Kernel = TwoComponentKernel<NormalKernel>;

impl From<&Lvf2> for Lvf2Kernel {
    fn from(m: &Lvf2) -> Self {
        TwoComponentKernel {
            w1: 1.0 - m.lambda(),
            w2: m.lambda(),
            k1: SkewNormalKernel::new(m.first()),
            k2: SkewNormalKernel::new(m.second()),
        }
    }
}

impl From<&Norm2> for Norm2Kernel {
    fn from(m: &Norm2) -> Self {
        TwoComponentKernel {
            w1: 1.0 - m.lambda(),
            w2: m.lambda(),
            k1: NormalKernel::new(m.first()),
            k2: NormalKernel::new(m.second()),
        }
    }
}

impl<K: DensityKernel> DensityKernel for TwoComponentKernel<K> {
    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        self.w1 * self.k1.pdf(x) + self.w2 * self.k2.pdf(x)
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        self.w1 * self.k1.cdf(x) + self.w2 * self.k2.cdf(x)
    }
}

// ---------------------------------------------------------------------------
// K-component mixtures
// ---------------------------------------------------------------------------

/// Kernel for a K-component [`Mixture`]: each component's constants are
/// hoisted once, and `pdf`/`cdf` accumulate `Σ wⱼ·kⱼ` in component order
/// starting from `0.0` — exactly the scalar `iter().map(..).sum()` order.
#[derive(Debug, Clone)]
pub struct MixtureKernel<K> {
    parts: Vec<(f64, K)>,
}

impl MixtureKernel<SkewNormalKernel> {
    /// Builds the kernel for a skew-normal mixture (the SSTA max mixtures).
    pub fn from_skew_mixture(m: &Mixture<SkewNormal>) -> Self {
        MixtureKernel {
            parts: m
                .iter()
                .map(|(w, c)| (w, SkewNormalKernel::new(c)))
                .collect(),
        }
    }
}

impl MixtureKernel<NormalKernel> {
    /// Builds the kernel for a Gaussian mixture.
    pub fn from_normal_mixture(m: &Mixture<Normal>) -> Self {
        MixtureKernel {
            parts: m.iter().map(|(w, c)| (w, NormalKernel::new(c))).collect(),
        }
    }
}

impl<K: DensityKernel> DensityKernel for MixtureKernel<K> {
    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        self.parts.iter().map(|(w, k)| w * k.pdf(x)).sum()
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        self.parts.iter().map(|(w, k)| w * k.cdf(x)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::Moments;
    use crate::traits::Distribution;

    fn sn(mean: f64, sigma: f64, gamma: f64) -> SkewNormal {
        SkewNormal::from_moments(Moments::new(mean, sigma, gamma)).unwrap()
    }

    fn grid() -> Vec<f64> {
        // 0..97 is deliberately not a multiple of LANES and spans both
        // log_norm_cdf regimes and the deep tails.
        (0..97).map(|i| -12.0 + i as f64 * 0.25).collect()
    }

    #[test]
    fn normal_kernel_bit_identical_to_scalar() {
        let n = Normal::new(0.4, 0.07).unwrap();
        let k = NormalKernel::new(&n);
        let xs = grid();
        let mut out = vec![0.0; xs.len()];
        k.ln_pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), n.ln_pdf(*x).to_bits(), "x={x}");
        }
        k.pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), n.pdf(*x).to_bits(), "x={x}");
        }
        k.cdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), n.cdf(*x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn skew_normal_kernel_bit_identical_to_scalar() {
        for g in [-0.8, -0.2, 0.0, 0.5, 0.95] {
            let d = sn(1.1, 0.2, g);
            let k = SkewNormalKernel::new(&d);
            let xs = grid();
            let mut out = vec![0.0; xs.len()];
            k.ln_pdf_slice(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.ln_pdf(*x).to_bits(), "γ={g} x={x}");
            }
            k.pdf_slice(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.pdf(*x).to_bits(), "γ={g} x={x}");
            }
            k.cdf_slice(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.cdf(*x).to_bits(), "γ={g} x={x}");
            }
        }
    }

    #[test]
    fn lvf2_kernel_bit_identical_to_scalar() {
        let m = Lvf2::new(0.3, sn(1.0, 0.06, 0.5), sn(1.4, 0.09, -0.3)).unwrap();
        let k = Lvf2Kernel::from(&m);
        let xs = grid();
        let mut out = vec![0.0; xs.len()];
        k.ln_pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.ln_pdf(*x).to_bits(), "x={x}");
        }
        k.pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.pdf(*x).to_bits(), "x={x}");
        }
        k.cdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.cdf(*x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn mixture_kernel_bit_identical_to_scalar() {
        let m = Mixture::new(
            vec![sn(0.9, 0.05, 0.4), sn(1.2, 0.08, -0.2), sn(1.5, 0.04, 0.1)],
            vec![0.5, 0.3, 0.2],
        )
        .unwrap();
        let k = MixtureKernel::from_skew_mixture(&m);
        let xs = grid();
        let mut out = vec![0.0; xs.len()];
        k.pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.pdf(*x).to_bits(), "x={x}");
        }
        k.cdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.cdf(*x).to_bits(), "x={x}");
        }
        k.ln_pdf_slice(&xs, &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), m.ln_pdf(*x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn empty_slices_are_fine() {
        let d = sn(0.0, 1.0, 0.3);
        let k = SkewNormalKernel::new(&d);
        let mut out: Vec<f64> = vec![];
        k.ln_pdf_slice(&[], &mut out);
        assert!(out.is_empty());
    }
}
