//! The EM E-step's log-sum-exp, without libm.
//!
//! The EM loop of `em`, which both [`crate::lvf2`] and [`crate::mixture_em`]
//! run, turns per-component log-joints `lⱼ = ln wⱼ + ln fⱼ(x)` into
//! responsibilities and a log-likelihood term the same way at every
//! component count:
//!
//! - `m = maxⱼ lⱼ` and `eⱼ = exp(−(m − lⱼ))`, flushed to 0 once the gap
//!   reaches [`GAP_FLUSH`];
//! - `s = Σⱼ eⱼ` in component order, `log_tot = m + ln s`, `zⱼ = eⱼ / s`.
//!
//! `exp` and `ln` are [`fast_exp_core`] and [`fast_ln_core`]: the gap is
//! clamped into `[0, 708]` and `s` lies in `[1, K]`, inside both cores'
//! domains, so a row has no branches and no calls. With two components the
//! row reduces to `s = 1 + e` and `z₁ = 1/s` or `e/s`, which [`lse2`] maps
//! over [`LANES`]-wide chunks for the loop's k = 2 E-step; every other k
//! runs [`lse_row`] per sample, which on a two-entry row would give the
//! same bits.
//!
//! Flushing, rather than clamping the gap, matters: a clamped `exp(−708)`
//! (≈ 3e-308) would hand the M-step weights whose products with the samples
//! are subnormal, and subnormal arithmetic is slow.
//!
//! Rows whose log-joints are all −∞ come back with a non-finite `log_tot`;
//! the callers own that fallback (uniform responsibilities, a capped
//! log-likelihood penalty) and accumulate `log_tot` strictly in sample
//! order.

use lvf2_stats::fastmath::{fast_exp_core, fast_ln_core};
use lvf2_stats::kernels::LANES;

/// Gap `m − lⱼ` at and beyond which `exp(−gap)` is flushed to zero: the
/// edge of [`fast_exp_core`]'s domain.
const GAP_FLUSH: f64 = 708.0;

/// `exp(−d)` for a gap `d ≥ 0`, or 0 once `d ≥ GAP_FLUSH` (and for a NaN
/// gap, which only arises when both log-joints are −∞). Branch-free: the
/// core runs on the clamped gap and a select picks the flush.
#[inline(always)]
fn gap_weight(d: f64) -> f64 {
    let e = fast_exp_core(-d.min(GAP_FLUSH));
    if d < GAP_FLUSH {
        e
    } else {
        0.0
    }
}

/// One two-component row: `(log_tot, z₁)` for log-joints `a` (component 1)
/// and `b` (component 2).
#[inline(always)]
fn lse2_lane(a: f64, b: f64) -> (f64, f64) {
    let e = gap_weight((a - b).abs());
    let s = 1.0 + e;
    let log_tot = a.max(b) + fast_ln_core(s);
    let z = if a >= b { 1.0 / s } else { e / s };
    (log_tot, z)
}

/// Two-component E-step over whole slices. For sample `i`, with
/// `a = l1 + logs1[i]` and `b = l2 + logs2[i]`, writes component 1's
/// responsibility to `z1[i]` and `ln(eᵃ + eᵇ)` to `log_tot[i]`.
///
/// Runs the AVX2 build of the chunk body when the host has AVX2
/// ([`lvf2_stats::kernels::avx2_enabled`]), else [`lse2_portable`]; both
/// compile the same source with no FMA and no reassociation, so they
/// return the same bits.
pub(crate) fn lse2(
    l1: f64,
    l2: f64,
    logs1: &[f64],
    logs2: &[f64],
    z1: &mut [f64],
    log_tot: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if lvf2_stats::kernels::avx2_enabled() {
        // SAFETY: the host supports AVX2 (checked just above), the only
        // target feature `lse2_avx2` enables.
        return unsafe { lse2_avx2(l1, l2, logs1, logs2, z1, log_tot) };
    }
    lse2_portable(l1, l2, logs1, logs2, z1, log_tot);
}

/// The portable build of [`lse2`], which the dispatcher runs on hosts
/// without AVX2.
pub(crate) fn lse2_portable(
    l1: f64,
    l2: f64,
    logs1: &[f64],
    logs2: &[f64],
    z1: &mut [f64],
    log_tot: &mut [f64],
) {
    lse2_chunks(l1, l2, logs1, logs2, z1, log_tot);
}

/// The AVX2 build of [`lse2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lse2_avx2(l1: f64, l2: f64, logs1: &[f64], logs2: &[f64], z1: &mut [f64], log_tot: &mut [f64]) {
    lse2_chunks(l1, l2, logs1, logs2, z1, log_tot);
}

/// Chunk body of [`lse2`]: [`lse2_lane`] mapped over [`LANES`]-wide chunks.
#[inline(always)]
fn lse2_chunks(
    l1: f64,
    l2: f64,
    logs1: &[f64],
    logs2: &[f64],
    z1: &mut [f64],
    log_tot: &mut [f64],
) {
    let n = logs1.len();
    assert!(
        logs2.len() == n && z1.len() == n && log_tot.len() == n,
        "E-step slice length mismatch"
    );
    let mut c1 = logs1.chunks_exact(LANES);
    let mut c2 = logs2.chunks_exact(LANES);
    let mut cz = z1.chunks_exact_mut(LANES);
    let mut ct = log_tot.chunks_exact_mut(LANES);
    for (((d1, d2), z), t) in c1
        .by_ref()
        .zip(c2.by_ref())
        .zip(cz.by_ref())
        .zip(ct.by_ref())
    {
        for i in 0..LANES {
            (t[i], z[i]) = lse2_lane(l1 + d1[i], l2 + d2[i]);
        }
    }
    let tail = c1.remainder().iter().zip(c2.remainder());
    for ((z, t), (&d1, &d2)) in cz
        .into_remainder()
        .iter_mut()
        .zip(ct.into_remainder())
        .zip(tail)
    {
        (*t, *z) = lse2_lane(l1 + d1, l2 + d2);
    }
}

/// K-way E-step for one sample: `row` holds the log-joints on entry and the
/// responsibilities on exit; returns `log_tot`. When no log-joint is finite
/// the row is left as it came and the (non-finite) maximum is returned.
pub(crate) fn lse_row(row: &mut [f64]) -> f64 {
    let m = row.iter().fold(f64::NEG_INFINITY, |m, &l| m.max(l));
    if !m.is_finite() {
        return m;
    }
    let mut s = 0.0;
    for l in row.iter_mut() {
        *l = gap_weight(m - *l);
        s += *l;
    }
    for z in row.iter_mut() {
        *z /= s;
    }
    m + fast_ln_core(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(f64, f64)> {
        let mut v = vec![
            (0.0, 0.0),
            (-3.0, 2.5),
            (4.0, -800.0),
            (-800.0, 4.0),
            (1.0, 1.0 - 707.999),
            (1.0, 1.0 - 708.0),
            (f64::NEG_INFINITY, 0.5),
            (0.5, f64::NEG_INFINITY),
        ];
        for i in 0..200 {
            let t = i as f64;
            v.push(((t * 0.37).sin() * 30.0, (t * 0.11).cos() * 30.0 - 2.0));
        }
        v
    }

    #[test]
    fn two_way_matches_libm_log_sum_exp() {
        for (a, b) in pairs() {
            let (log_tot, z) = lse2_lane(a, b);
            let m = a.max(b);
            let want = m + ((a - m).exp() + (b - m).exp()).ln();
            // z₁ from the libm gap exponential; `(a − want).exp()` would lose
            // the digits of `want` that cancel.
            let g = (-(a - b).abs()).exp();
            let want_z = if a >= b {
                1.0 / (1.0 + g)
            } else {
                g / (1.0 + g)
            };
            assert!(
                (log_tot - want).abs() <= 4.0 * f64::EPSILON * want.abs().max(1.0),
                "({a}, {b}): {log_tot} vs {want}"
            );
            assert!(
                (z - want_z).abs() <= 4.0 * f64::EPSILON * want_z,
                "({a}, {b}): z {z} vs {want_z}"
            );
        }
    }

    #[test]
    fn gaps_at_the_flush_edge_give_zero_not_subnormal() {
        assert_eq!(gap_weight(708.0), 0.0);
        assert_eq!(gap_weight(f64::INFINITY), 0.0);
        assert_eq!(gap_weight(f64::NAN), 0.0);
        assert!(gap_weight(707.999).is_normal());
        assert_eq!(gap_weight(0.0), 1.0);
        let (_, z) = lse2_lane(-900.0, 0.0);
        assert_eq!(z, 0.0);
    }

    #[test]
    fn both_infinite_gives_non_finite_normalizer() {
        let (log_tot, _) = lse2_lane(f64::NEG_INFINITY, f64::NEG_INFINITY);
        assert!(!log_tot.is_finite());
        let mut row = [f64::NEG_INFINITY; 3];
        assert!(!lse_row(&mut row).is_finite());
    }

    #[test]
    fn k_way_row_of_two_is_bit_identical_to_the_two_way_kernel() {
        for (a, b) in pairs() {
            let (log_tot, z) = lse2_lane(a, b);
            let mut row = [a, b];
            let t = lse_row(&mut row);
            assert_eq!(t.to_bits(), log_tot.to_bits(), "({a}, {b})");
            assert_eq!(row[0].to_bits(), z.to_bits(), "({a}, {b})");
        }
    }

    #[test]
    fn chunked_slices_match_the_lane_function_at_every_length() {
        let ps = pairs();
        for n in [0, 1, 7, 8, 9, 17, ps.len()] {
            let logs1: Vec<f64> = ps[..n].iter().map(|p| p.0).collect();
            let logs2: Vec<f64> = ps[..n].iter().map(|p| p.1).collect();
            let (mut z, mut t) = (vec![0.0; n], vec![0.0; n]);
            lse2(-0.3, -1.2, &logs1, &logs2, &mut z, &mut t);
            for i in 0..n {
                let (wt, wz) = lse2_lane(-0.3 + logs1[i], -1.2 + logs2[i]);
                assert_eq!(t[i].to_bits(), wt.to_bits(), "n={n} i={i}");
                assert_eq!(z[i].to_bits(), wz.to_bits(), "n={n} i={i}");
            }
        }
    }

    /// Pairs for the build-equivalence test: the shared set plus gaps a few
    /// ulps either side of the 708 flush edge, and NaN/±∞ log-joints.
    fn edge_pairs() -> Vec<(f64, f64)> {
        let mut v = pairs();
        let (mut up, mut down) = (GAP_FLUSH, GAP_FLUSH);
        for _ in 0..4 {
            up = up.next_up();
            down = down.next_down();
            for g in [up, down, GAP_FLUSH] {
                v.extend([(0.0, -g), (-g, 0.0), (3.5, 3.5 - g)]);
            }
        }
        for sp in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            v.extend([(sp, 0.0), (0.0, sp), (sp, sp)]);
        }
        v
    }

    /// Bitwise equality, with every NaN equal to every other (Rust leaves
    /// the sign and payload of an arithmetic NaN unspecified).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn portable_and_dispatched_builds_match_the_lane_function_at_every_length() {
        let ps = edge_pairs();
        // Zero log-weights keep the flush-edge gaps exact.
        for (l1, l2) in [(0.0, 0.0), (-0.3, -1.2)] {
            for n in (0..=17).chain([ps.len()]) {
                // Windows at several offsets move the flush-edge and special
                // pairs across chunk positions.
                for start in [0, 3, ps.len() - n] {
                    let start = start.min(ps.len() - n);
                    let w = &ps[start..start + n];
                    let logs1: Vec<f64> = w.iter().map(|p| p.0).collect();
                    let logs2: Vec<f64> = w.iter().map(|p| p.1).collect();
                    let (mut z, mut t) = (vec![0.0; n], vec![0.0; n]);
                    let (mut zp, mut tp) = (vec![0.0; n], vec![0.0; n]);
                    lse2(l1, l2, &logs1, &logs2, &mut z, &mut t);
                    lse2_portable(l1, l2, &logs1, &logs2, &mut zp, &mut tp);
                    for i in 0..n {
                        let (wt, wz) = lse2_lane(l1 + logs1[i], l2 + logs2[i]);
                        for (got, want, what) in [
                            (t[i], wt, "dispatched log_tot"),
                            (z[i], wz, "dispatched z"),
                            (tp[i], wt, "portable log_tot"),
                            (zp[i], wz, "portable z"),
                        ] {
                            assert!(
                                same_bits(got, want),
                                "{what}: n={n} start={start} i={i} ({}, {}): {got} vs {want}",
                                logs1[i],
                                logs2[i]
                            );
                        }
                    }
                }
            }
        }
    }
}
