//! Batched kernels vs scalar evaluation: **bitwise** equivalence.
//!
//! The contract of the `*_batch` methods on [`Distribution`] is that
//! batching is purely a memory-layout and constant-hoisting optimization:
//! for every element, the batched path performs the same floating-point
//! operations in the same order as the scalar method, so results are identical *to the bit*, not merely within
//! tolerance. These property tests pin that over random parameters, random
//! body/tail evaluation points (|z| up to 12 standard deviations, which
//! exercises the far-tail `erfc` branches), and awkward slice lengths —
//! empty, single-element, and odd lengths that leave a ragged remainder
//! after the 8-lane chunking.
//!
//! The skew-normal `ln_pdf_batch` has two builds of one chunk body — a
//! portable one and, on x86_64 hosts with AVX2, a `target_feature` one picked
//! at run time. The `*_builds_*` tests below pin the portable build, the
//! dispatched build and the scalar `ln_pdf` to the same bits on sorted,
//! reversed and shuffled inputs, on chunks straddling every `log Φ` regime
//! edge, and on NaN/±∞ lanes. The `pdf_builds_*` tests pin the skew-normal
//! `pdf_batch` the same way, and also where its exponent `−z²/2 − t²`
//! crosses the −708 flush to zero.

use lvf2_stats::{Distribution, Lvf2, Mixture, Moments, Norm2, Normal, SkewNormal};
use proptest::prelude::*;

fn moments() -> impl Strategy<Value = Moments> {
    (-5.0..5.0f64, 0.01..2.0f64, -0.9..0.9f64).prop_map(|(m, s, g)| Moments::new(m, s, g))
}

fn skew_normal() -> impl Strategy<Value = SkewNormal> {
    moments().prop_map(|m| SkewNormal::from_moments(m).expect("valid moments"))
}

/// Evaluation points spanning the body and the far tails of a distribution
/// with the given location/scale, at an arbitrary (possibly odd, possibly
/// tiny) length.
fn probe_points(mean: f64, sd: f64, zs: &[f64]) -> Vec<f64> {
    zs.iter().map(|&z| mean + z * sd).collect()
}

/// Asserts `ln_pdf_batch` / `pdf_batch` / `cdf_batch` match the scalar
/// methods bit-for-bit on `xs`.
fn assert_bitwise<D: Distribution>(d: &D, xs: &[f64]) -> Result<(), TestCaseError> {
    let mut out = vec![0.0; xs.len()];

    d.ln_pdf_batch(xs, &mut out);
    for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
        let s = d.ln_pdf(x);
        prop_assert_eq!(
            o.to_bits(),
            s.to_bits(),
            "ln_pdf mismatch at i={} x={}: batched {} vs scalar {}",
            i,
            x,
            o,
            s
        );
    }

    d.pdf_batch(xs, &mut out);
    for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
        let s = d.pdf(x);
        prop_assert_eq!(
            o.to_bits(),
            s.to_bits(),
            "pdf mismatch at i={} x={}: batched {} vs scalar {}",
            i,
            x,
            o,
            s
        );
    }

    d.cdf_batch(xs, &mut out);
    for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
        let s = d.cdf(x);
        prop_assert_eq!(
            o.to_bits(),
            s.to_bits(),
            "cdf mismatch at i={} x={}: batched {} vs scalar {}",
            i,
            x,
            o,
            s
        );
    }

    Ok(())
}

/// Bitwise equality, with every NaN equal to every other: Rust leaves the
/// sign and payload of a NaN produced by arithmetic unspecified, so only
/// NaN-ness is part of the contract.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Asserts the portable build, the dispatched build and the scalar
/// `ln_pdf` of `sn` agree bit-for-bit on `xs`.
fn assert_builds_agree(sn: &SkewNormal, xs: &[f64]) -> Result<(), TestCaseError> {
    let mut portable = vec![0.0; xs.len()];
    let mut dispatched = vec![0.0; xs.len()];
    sn.ln_pdf_batch_portable(xs, &mut portable);
    sn.ln_pdf_batch(xs, &mut dispatched);
    for (i, &x) in xs.iter().enumerate() {
        let s = sn.ln_pdf(x);
        prop_assert!(
            same_bits(portable[i], s),
            "portable mismatch at i={} x={}: {} vs scalar {}",
            i,
            x,
            portable[i],
            s
        );
        prop_assert!(
            same_bits(dispatched[i], s),
            "dispatched mismatch at i={} x={}: {} vs scalar {}",
            i,
            x,
            dispatched[i],
            s
        );
    }
    Ok(())
}

/// Asserts the portable build, the dispatched build and the scalar `pdf`
/// of `sn` agree bit-for-bit on `xs` (any two NaNs are equal).
fn assert_pdf_builds_agree(sn: &SkewNormal, xs: &[f64]) -> Result<(), TestCaseError> {
    let mut portable = vec![0.0; xs.len()];
    let mut dispatched = vec![0.0; xs.len()];
    sn.pdf_batch_portable(xs, &mut portable);
    sn.pdf_batch(xs, &mut dispatched);
    for (i, &x) in xs.iter().enumerate() {
        let s = sn.pdf(x);
        prop_assert!(
            same_bits(portable[i], s),
            "portable pdf mismatch at i={} x={}: {} vs scalar {}",
            i,
            x,
            portable[i],
            s
        );
        prop_assert!(
            same_bits(dispatched[i], s),
            "dispatched pdf mismatch at i={} x={}: {} vs scalar {}",
            i,
            x,
            dispatched[i],
            s
        );
    }
    Ok(())
}

/// Fisher–Yates shuffle driven by a 64-bit LCG, so a proptest seed picks
/// the permutation.
fn shuffle(xs: &mut [f64], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        xs.swap(i, ((seed >> 33) % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skew_normal_builds_agree_on_sorted_reversed_and_shuffled_input(
        sn in skew_normal(),
        zs in proptest::collection::vec(-12.0..12.0f64, 0..300),
        seed in 0u64..1_000_000,
    ) {
        let mut xs = probe_points(sn.mean(), sn.std_dev(), &zs);
        xs.sort_by(f64::total_cmp);
        assert_builds_agree(&sn, &xs)?;
        xs.reverse();
        assert_builds_agree(&sn, &xs)?;
        shuffle(&mut xs, seed);
        assert_builds_agree(&sn, &xs)?;
    }

    #[test]
    fn skew_normal_pdf_builds_agree_on_sorted_reversed_and_shuffled_input(
        sn in skew_normal(),
        zs in proptest::collection::vec(-12.0..12.0f64, 0..300),
        seed in 0u64..1_000_000,
    ) {
        let mut xs = probe_points(sn.mean(), sn.std_dev(), &zs);
        xs.sort_by(f64::total_cmp);
        assert_pdf_builds_agree(&sn, &xs)?;
        xs.reverse();
        assert_pdf_builds_agree(&sn, &xs)?;
        shuffle(&mut xs, seed);
        assert_pdf_builds_agree(&sn, &xs)?;
    }

    #[test]
    fn normal_batch_is_bit_identical(
        mu in -10.0..10.0f64,
        sigma in 0.001..5.0f64,
        zs in proptest::collection::vec(-12.0..12.0f64, 0..37),
    ) {
        let d = Normal::new(mu, sigma).expect("valid normal");
        let xs = probe_points(mu, sigma, &zs);
        assert_bitwise(&d, &xs)?;
    }

    #[test]
    fn skew_normal_batch_is_bit_identical(
        sn in skew_normal(),
        zs in proptest::collection::vec(-12.0..12.0f64, 0..37),
    ) {
        let xs = probe_points(sn.mean(), sn.std_dev(), &zs);
        assert_bitwise(&sn, &xs)?;
    }

    #[test]
    fn lvf2_batch_is_bit_identical(
        lambda in 0.0..1.0f64,
        a in skew_normal(),
        b in skew_normal(),
        zs in proptest::collection::vec(-12.0..12.0f64, 0..37),
    ) {
        let d = Lvf2::new(lambda, a, b).expect("valid lambda");
        let xs = probe_points(d.mean(), d.std_dev(), &zs);
        assert_bitwise(&d, &xs)?;
    }

    #[test]
    fn norm2_batch_is_bit_identical(
        lambda in 0.0..1.0f64,
        m1 in -5.0..5.0f64,
        m2 in -5.0..5.0f64,
        s1 in 0.01..2.0f64,
        s2 in 0.01..2.0f64,
        zs in proptest::collection::vec(-12.0..12.0f64, 0..37),
    ) {
        let d = Norm2::new(
            lambda,
            Normal::new(m1, s1).expect("valid"),
            Normal::new(m2, s2).expect("valid"),
        )
        .expect("valid lambda");
        let xs = probe_points(d.mean(), d.std_dev(), &zs);
        assert_bitwise(&d, &xs)?;
    }

    #[test]
    fn general_mixture_batch_is_bit_identical(
        comps in proptest::collection::vec(skew_normal(), 1..5),
        raw_w in proptest::collection::vec(0.05..1.0f64, 1..5),
        zs in proptest::collection::vec(-12.0..12.0f64, 0..37),
    ) {
        // Pair components with weights (vectors may differ in length).
        let k = comps.len().min(raw_w.len());
        prop_assume!(k >= 1);
        let comps = comps[..k].to_vec();
        let total: f64 = raw_w[..k].iter().sum();
        let weights: Vec<f64> = raw_w[..k].iter().map(|w| w / total).collect();
        let d = Mixture::new(comps, weights).expect("valid mixture");
        let xs = probe_points(d.mean(), d.std_dev(), &zs);
        assert_bitwise(&d, &xs)?;
    }
}

/// Deterministic edge cases that random lengths may rarely hit: empty input,
/// exactly one chunk, one short of a chunk boundary, and deep-tail points
/// where the fused `log_norm_cdf` switches to the scaled-`erfc` branch.
#[test]
fn fixed_edge_lengths_and_tails() {
    let sn = SkewNormal::from_moments(Moments::new(0.12, 0.015, 0.6)).expect("valid");
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31] {
        let xs: Vec<f64> = (0..len)
            .map(|i| {
                // Sweep from -11σ to +11σ so every length covers both tails.
                let z = -11.0 + 22.0 * (i as f64) / (len.max(2) - 1) as f64;
                sn.mean() + z * sn.std_dev()
            })
            .collect();
        let mut out = vec![0.0; len];
        sn.ln_pdf_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(
                o.to_bits(),
                sn.ln_pdf(x).to_bits(),
                "ln_pdf len={len} x={x}"
            );
        }
        sn.pdf_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), sn.pdf(x).to_bits(), "pdf len={len} x={x}");
        }
        sn.cdf_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), sn.cdf(x).to_bits(), "cdf len={len} x={x}");
        }
    }
}

/// `α·z` values around every `log Φ` regime edge — `x = −8`, `t = ±0.46875`,
/// `t = ±4` and `−t = 26` with `t = −x/√2` — a few ulps and a few
/// hundredths either side, sorted.
fn regime_edge_points() -> Vec<f64> {
    let sqrt2 = std::f64::consts::SQRT_2;
    let edges = [
        -8.0,
        -0.46875 * sqrt2,
        0.46875 * sqrt2,
        -4.0 * sqrt2,
        4.0 * sqrt2,
        26.0 * sqrt2,
    ];
    let mut xs = Vec::new();
    for e in edges {
        let (mut up, mut down) = (e, e);
        xs.push(e);
        for _ in 0..6 {
            up = up.next_up();
            down = down.next_down();
            xs.extend([up, down]);
        }
        for d in [1e-9, 1e-3, 0.02, 0.05] {
            xs.extend([e - d, e + d]);
        }
    }
    xs.sort_by(f64::total_cmp);
    xs
}

/// With `ξ = 0, ω = 1` the skew argument is `α·x`, so `α = 1` puts the
/// regime edges at the probe points and `α = −1` mirrors them. Every window
/// offset shifts where the 8-lane chunks cut, so each edge lands inside a
/// chunk as well as on a chunk boundary.
#[test]
fn skew_normal_builds_agree_across_regime_edges() {
    let edges = regime_edge_points();
    for alpha in [1.0, -1.0] {
        let sn = SkewNormal::new(0.0, 1.0, alpha).expect("valid");
        for offset in 0..8 {
            let xs = &edges[offset..];
            assert_builds_agree(&sn, xs).unwrap();
        }
    }
}

/// NaN and ±∞ lanes, alone and mixed into chunks of ordinary values.
#[test]
fn skew_normal_builds_agree_on_special_lanes() {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for alpha in [3.0, -3.0, 0.0] {
        let sn = SkewNormal::new(0.5, 0.2, alpha).expect("valid");
        for &sp in &specials {
            assert_builds_agree(&sn, &[sp; 17]).unwrap();
            for lane in 0..9 {
                let mut xs: Vec<f64> = (0..17).map(|i| -1.0 + 0.15 * i as f64).collect();
                xs[lane] = sp;
                xs[lane + 8] = sp;
                assert_builds_agree(&sn, &xs).unwrap();
            }
        }
    }
}

/// Every slice length from empty to two chunks plus one.
#[test]
fn skew_normal_builds_agree_at_every_length_up_to_17() {
    let sn = SkewNormal::from_moments(Moments::new(0.12, 0.015, 0.6)).expect("valid");
    for len in 0..=17usize {
        let xs: Vec<f64> = (0..len)
            .map(|i| sn.mean() + (-9.0 + 1.1 * i as f64) * sn.std_dev())
            .collect();
        assert_builds_agree(&sn, &xs).unwrap();
    }
}

/// The pdf's builds across every `log Φ` regime edge, as the `ln_pdf` test
/// above.
#[test]
fn skew_normal_pdf_builds_agree_across_regime_edges() {
    let edges = regime_edge_points();
    for alpha in [1.0, -1.0] {
        let sn = SkewNormal::new(0.0, 1.0, alpha).expect("valid");
        for offset in 0..8 {
            assert_pdf_builds_agree(&sn, &edges[offset..]).unwrap();
        }
    }
}

/// The pdf's builds on NaN and ±∞ lanes, alone and mixed into chunks.
#[test]
fn skew_normal_pdf_builds_agree_on_special_lanes() {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for alpha in [3.0, -3.0, 0.0] {
        let sn = SkewNormal::new(0.5, 0.2, alpha).expect("valid");
        for &sp in &specials {
            assert_pdf_builds_agree(&sn, &[sp; 17]).unwrap();
            for lane in 0..9 {
                let mut xs: Vec<f64> = (0..17).map(|i| -1.0 + 0.15 * i as f64).collect();
                xs[lane] = sp;
                xs[lane + 8] = sp;
                assert_pdf_builds_agree(&sn, &xs).unwrap();
            }
        }
    }
}

/// The pdf's builds at every slice length from empty to two chunks plus
/// one.
#[test]
fn skew_normal_pdf_builds_agree_at_every_length_up_to_17() {
    let sn = SkewNormal::from_moments(Moments::new(0.12, 0.015, 0.6)).expect("valid");
    for len in 0..=17usize {
        let xs: Vec<f64> = (0..len)
            .map(|i| sn.mean() + (-9.0 + 1.1 * i as f64) * sn.std_dev())
            .collect();
        assert_pdf_builds_agree(&sn, &xs).unwrap();
    }
}

/// The pdf's builds where its exponent `−z²/2 − t²` crosses −708, below
/// which it flushes to zero, a few ulps and a few hundredths either side,
/// sorted. With `ξ = 0, ω = 1` the exponent is `−x²/2` at `α = 0` (the
/// `log Φ` body regime carries `t² = 0`) and `−x²/2 + log Φ(αx)` on the far
/// short tail of `α = ±1` (the asymptotic regime carries `t² = −log Φ`).
#[test]
fn skew_normal_pdf_builds_agree_where_the_exponent_crosses_the_flush() {
    use lvf2_stats::special::log_norm_cdf;
    for (alpha, side) in [(0.0, 1.0), (0.0, -1.0), (1.0, -1.0), (-1.0, 1.0)] {
        let sn = SkewNormal::new(0.0, 1.0, alpha).expect("valid");
        let exponent = |x: f64| {
            if alpha == 0.0 {
                -0.5 * x * x
            } else {
                -0.5 * x * x + log_norm_cdf(alpha * x)
            }
        };
        // Bisect |x| on [20, 40] for the first point past the flush.
        let (mut inside, mut outside) = (20.0_f64, 40.0_f64);
        for _ in 0..200 {
            let mid = 0.5 * (inside + outside);
            if exponent(side * mid) < -708.0 {
                outside = mid;
            } else {
                inside = mid;
            }
        }
        let edge = side * outside;
        assert!(exponent(edge) < -708.0 && exponent(side * inside) >= -708.0);
        let mut xs = vec![edge];
        let (mut up, mut down) = (edge, edge);
        for _ in 0..8 {
            up = up.next_up();
            down = down.next_down();
            xs.extend([up, down]);
        }
        for d in [1e-9, 1e-3, 0.01] {
            xs.extend([edge - d, edge + d]);
        }
        xs.sort_by(f64::total_cmp);
        let pdfs: Vec<f64> = xs.iter().map(|&x| sn.pdf(x)).collect();
        assert!(
            pdfs.contains(&0.0) && pdfs.iter().any(|&p| p > 0.0),
            "α={alpha}: {pdfs:?}"
        );
        for offset in 0..8 {
            assert_pdf_builds_agree(&sn, &xs[offset..]).unwrap();
        }
    }
}
