//! Empirical statistics: sample moments, ECDF, histograms and quantiles.
//!
//! The "golden" reference in every experiment is the Monte-Carlo sample set;
//! these tools turn raw samples into the quantities the error metrics need.

use crate::error::ensure_finite;
use crate::moments::{FourMoments, Moments};
use crate::StatsError;

/// Two-pass sample moments (mean, variance, skewness, excess kurtosis).
///
/// Variance uses the biased (1/n) normalizer, matching the population
/// definitions used by the distribution families — with 50k samples the
/// distinction is immaterial and this keeps golden-vs-model comparisons
/// self-consistent.
///
/// # Example
///
/// ```
/// use lvf2_stats::SampleMoments;
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let m = SampleMoments::from_samples(&[1.0, 2.0, 3.0, 4.0])?;
/// assert!((m.mean - 2.5).abs() < 1e-15);
/// assert!((m.variance - 1.25).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMoments {
    /// Sample mean.
    pub mean: f64,
    /// Biased sample variance (1/n).
    pub variance: f64,
    /// Sample skewness.
    pub skewness: f64,
    /// Sample excess kurtosis.
    pub excess_kurtosis: f64,
    /// Number of samples.
    pub n: usize,
}

impl SampleMoments {
    /// Computes all four moments in two passes.
    ///
    /// # Errors
    ///
    /// [`StatsError::NotEnoughSamples`] for fewer than 2 samples;
    /// [`StatsError::NonFinite`] when the mean or variance is not finite —
    /// a NaN or ±∞ sample, or magnitudes large enough to overflow.
    pub fn from_samples(xs: &[f64]) -> Result<Self, StatsError> {
        if xs.len() < 2 {
            return Err(StatsError::NotEnoughSamples {
                got: xs.len(),
                need: 2,
            });
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
        for &x in xs {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        m2 /= n;
        ensure_finite("sample mean", mean)?;
        ensure_finite("sample variance", m2)?;
        m3 /= n;
        m4 /= n;
        let sd = m2.sqrt();
        let (skewness, excess_kurtosis) = if sd > 0.0 {
            (m3 / (m2 * sd), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        Ok(SampleMoments {
            mean,
            variance: m2,
            skewness,
            excess_kurtosis,
            n: xs.len(),
        })
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// The LVF moment triple (μ, σ, γ).
    pub fn to_moments(&self) -> Moments {
        Moments::new(self.mean, self.std_dev(), self.skewness)
    }

    /// The four-moment record.
    pub fn to_four_moments(&self) -> FourMoments {
        FourMoments::new(
            self.mean,
            self.std_dev(),
            self.skewness,
            self.excess_kurtosis,
        )
    }
}

/// Sample mean.
pub fn sample_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Biased (1/n) sample standard deviation.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_std_about(xs, sample_mean(xs))
}

/// [`sample_std`] about an already computed `mean`, which must be
/// [`sample_mean`]`(xs)` for the two to agree: callers that need both
/// moments skip the second pass over `xs` for the mean.
pub fn sample_std_about(xs: &[f64], mean: f64) -> f64 {
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Sample skewness (biased).
pub fn sample_skewness(xs: &[f64]) -> f64 {
    SampleMoments::from_samples(xs)
        .map(|m| m.skewness)
        .unwrap_or(f64::NAN)
}

/// Sample excess kurtosis (biased).
pub fn sample_kurtosis(xs: &[f64]) -> f64 {
    SampleMoments::from_samples(xs)
        .map(|m| m.excess_kurtosis)
        .unwrap_or(f64::NAN)
}

/// Inputs shorter than this sort by comparison in [`sort_total`]: below it
/// the radix passes cost more than they save.
const RADIX_MIN_LEN: usize = 256;

/// Sorts `xs` ascending in [`f64::total_cmp`] order, with `scratch` as the
/// second buffer (resized to `xs.len()`; it allocates only while its
/// capacity grows).
///
/// One counting-sort pass on the top 11 key bits that differ
/// between values (the key is the order-preserving integer image behind
/// `total_cmp`), then one insertion sort, which only moves values within
/// their bucket. A 2000-sample timing set puts at most about 17 values in
/// a bucket; a set with a bucket above 64 sorts by
/// comparison instead, so a clumped set stays `O(n log n)`. Values with
/// equal keys are bit-identical, so the result is exactly
/// `xs.sort_unstable_by(f64::total_cmp)`'s; short inputs take that path.
///
/// # Example
///
/// ```
/// use lvf2_stats::sort_total;
///
/// let mut xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64 - 500.5).collect();
/// let mut want = xs.clone();
/// want.sort_unstable_by(f64::total_cmp);
/// sort_total(&mut xs, &mut Vec::new());
/// assert_eq!(xs, want);
/// ```
pub fn sort_total(xs: &mut [f64], scratch: &mut Vec<f64>) {
    if xs.len() < RADIX_MIN_LEN {
        xs.sort_unstable_by(f64::total_cmp);
        return;
    }
    let (mut and, mut or) = (u64::MAX, 0_u64);
    for &x in xs.iter() {
        let k = total_key(x);
        and &= k;
        or |= k;
    }
    // One past the highest key bit that differs between values.
    let top = 64 - (and ^ or).leading_zeros();
    if top == 0 {
        return;
    }
    let bits = BUCKET_BITS.min(top);
    let shift = top - bits;
    let mask = (1_u64 << bits) - 1;
    let bucket = |x: f64| ((total_key(x) >> shift) & mask) as usize;

    let mut starts = [0_usize; 1 << BUCKET_BITS];
    let starts = &mut starts[..1 << bits];
    for &x in xs.iter() {
        starts[bucket(x)] += 1;
    }
    if starts.iter().any(|&count| count > INSERTION_MAX) {
        xs.sort_unstable_by(f64::total_cmp);
        return;
    }
    let mut start = 0;
    for slot in starts.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    scratch.clear();
    scratch.resize(xs.len(), 0.0);
    for &x in xs.iter() {
        let b = bucket(x);
        scratch[starts[b]] = x;
        starts[b] += 1;
    }
    for (i, &x) in scratch.iter().enumerate() {
        let k = total_key(x);
        let mut j = i;
        while j > 0 && total_key(xs[j - 1]) > k {
            xs[j] = xs[j - 1];
            j -= 1;
        }
        xs[j] = x;
    }
}

/// Key bits of the [`sort_total`] bucket pass: 2¹¹ bucket counters fill
/// 16 KiB, which stays in L1 next to a few thousand samples.
const BUCKET_BITS: u32 = 11;

/// Largest [`sort_total`] bucket the insertion sort takes: each value
/// moves past at most this many others.
const INSERTION_MAX: usize = 64;

/// The integer image of `x` whose unsigned order is [`f64::total_cmp`]'s:
/// positive values get the sign bit set, negative values are inverted.
#[inline(always)]
fn total_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | (1 << 63))
}

/// Empirical cumulative distribution function over a sorted copy of the data.
///
/// `cdf(x)` is the fraction of samples `≤ x`; `quantile(p)` is the
/// nearest-rank order statistic.
///
/// # Example
///
/// ```
/// use lvf2_stats::Ecdf;
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0])?;
/// assert!((e.cdf(2.5) - 0.5).abs() < 1e-15);
/// assert_eq!(e.quantile(0.5), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF, sorting the input (NaNs are rejected).
    ///
    /// # Errors
    ///
    /// [`StatsError::NotEnoughSamples`] when `xs` is empty;
    /// [`StatsError::NonFinite`] if any sample is NaN.
    pub fn new(mut xs: Vec<f64>) -> Result<Self, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughSamples { got: 0, need: 1 });
        }
        if xs.iter().any(|x| x.is_nan()) {
            return Err(StatsError::NonFinite {
                name: "sample",
                value: f64::NAN,
            });
        }
        sort_total(&mut xs, &mut Vec::new());
        Ok(Ecdf { sorted: xs })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` post-construction (kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Nearest-rank sample quantile; `p` is clamped into `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// A fixed-width histogram, mainly for PDF visual comparison (Figure 3).
///
/// # Example
///
/// ```
/// use lvf2_stats::Histogram;
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let h = Histogram::new(&[0.1, 0.2, 0.2, 0.9], 2)?;
/// assert_eq!(h.counts(), &[3, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Bins `xs` into `bins` equal-width buckets spanning `[min, max]`.
    ///
    /// # Errors
    ///
    /// [`StatsError::NotEnoughSamples`] for empty input or zero bins.
    pub fn new(xs: &[f64], bins: usize) -> Result<Self, StatsError> {
        if xs.is_empty() || bins == 0 {
            return Err(StatsError::NotEnoughSamples {
                got: xs.len(),
                need: 1,
            });
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let mut counts = vec![0u64; bins];
        let w = (hi - lo) / bins as f64;
        for &x in xs {
            let idx = (((x - lo) / w) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Ok(Histogram {
            lo,
            hi,
            counts,
            total: xs.len() as u64,
        })
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket centers, aligned with [`counts`](Self::counts).
    pub fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// Normalized density values (integrates to ~1), aligned with centers.
    pub fn densities(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .map(|&c| c as f64 / (self.total as f64 * w))
            .collect()
    }

    /// Number of local maxima in the smoothed density — a crude peak counter
    /// used by tests to confirm bimodality of generated scenarios.
    pub fn peak_count(&self) -> usize {
        let d = self.densities();
        if d.len() < 3 {
            return 1;
        }
        // 3-tap smoothing to suppress sampling noise.
        let sm: Vec<f64> = (0..d.len())
            .map(|i| {
                let a = d[i.saturating_sub(1)];
                let c = d[(i + 1).min(d.len() - 1)];
                (a + d[i] + c) / 3.0
            })
            .collect();
        let max = sm.iter().cloned().fold(0.0, f64::max);
        let floor = 0.08 * max;
        let mut peaks = 0;
        for i in 0..sm.len() {
            let left = if i == 0 { 0.0 } else { sm[i - 1] };
            let right = if i + 1 == sm.len() { 0.0 } else { sm[i + 1] };
            if sm[i] > left && sm[i] >= right && sm[i] > floor {
                peaks += 1;
            }
        }
        peaks.max(1)
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn sort_total_matches_total_cmp_order() {
        // Mixed signs, both zeros, infinities, NaNs of either sign, repeats
        // and a narrow band sharing most key bytes, on both sides of the
        // comparison-sort cut.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0, 1, 2, 255, 256, 257, 1000, 2000] {
            let mut xs: Vec<f64> = (0..len)
                .map(|i| match next() % 8 {
                    0 => f64::from_bits(next()),
                    1 => 0.1 + (next() % 1000) as f64 * 1e-6,
                    2 => -0.0,
                    3 => 0.0,
                    4 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN][i % 4],
                    _ => (next() % 200) as f64 - 100.0,
                })
                .collect();
            let mut want = xs.clone();
            want.sort_unstable_by(f64::total_cmp);
            sort_total(&mut xs, &mut Vec::new());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&xs), bits(&want), "len {len}");
        }
    }

    use super::*;

    #[test]
    fn moments_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m = SampleMoments::from_samples(&xs).unwrap();
        assert!((m.mean - 5.0).abs() < 1e-15);
        assert!((m.variance - 4.0).abs() < 1e-15);
        assert!(m.skewness > 0.0); // right tail
    }

    #[test]
    fn moments_reject_tiny_input() {
        assert!(SampleMoments::from_samples(&[1.0]).is_err());
        assert!(SampleMoments::from_samples(&[]).is_err());
    }

    #[test]
    fn moments_reject_non_finite_input() {
        let nonfinite = |xs: &[f64]| {
            matches!(
                SampleMoments::from_samples(xs),
                Err(StatsError::NonFinite { .. })
            )
        };
        assert!(nonfinite(&[1.0, 2.0, f64::NAN]));
        assert!(nonfinite(&[1.0, 2.0, f64::INFINITY]));
        assert!(nonfinite(&[f64::NEG_INFINITY, 1.0, 2.0]));
        // Finite samples whose sum overflows, and whose squared deviations
        // overflow around a finite mean.
        assert!(nonfinite(&[1e308, 1e308, 1e308]));
        assert!(nonfinite(&[1e308, -1e308]));
    }

    #[test]
    fn constant_data_has_zero_higher_moments() {
        let m = SampleMoments::from_samples(&[3.0; 10]).unwrap();
        assert_eq!(m.variance, 0.0);
        assert_eq!(m.skewness, 0.0);
        assert_eq!(m.excess_kurtosis, 0.0);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert!((e.cdf(1.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((e.cdf(2.5) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(e.cdf(5.0), 1.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
    }

    #[test]
    fn ecdf_rejects_nan() {
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
        assert!(Ecdf::new(vec![]).is_err());
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(e.quantile(0.01), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(-3.0), 1.0); // clamped
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) / 1000.0).collect();
        let h = Histogram::new(&xs, 20).unwrap();
        let w = (h.hi - h.lo) / 20.0;
        let mass: f64 = h.densities().iter().map(|d| d * w).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_count_detects_bimodality() {
        // Two well-separated clumps.
        let mut xs = Vec::new();
        for i in 0..500 {
            xs.push(0.0 + (i % 10) as f64 * 0.01);
            xs.push(5.0 + (i % 10) as f64 * 0.01);
        }
        let h = Histogram::new(&xs, 40).unwrap();
        assert!(h.peak_count() >= 2);
        // One clump.
        let ys: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 * 0.01).collect();
        let h1 = Histogram::new(&ys, 10).unwrap();
        assert_eq!(h1.peak_count(), 1);
    }
}

/// Kolmogorov–Smirnov distance between samples and a model CDF:
/// `sup_x |F_n(x) − F(x)|`, evaluated exactly at the sample points (where
/// the supremum of the step-function difference is attained).
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Normal};
/// use lvf2_stats::empirical::ks_distance;
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let n = Normal::new(0.0, 1.0)?;
/// // A perfectly centered 3-point sample.
/// let d = ks_distance(&[-1.0, 0.0, 1.0], |x| n.cdf(x))?;
/// assert!(d < 0.35);
/// # Ok(())
/// # }
/// ```
pub fn ks_distance<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> Result<f64, StatsError> {
    let ecdf = Ecdf::new(samples.to_vec())?;
    let n = ecdf.len() as f64;
    let mut sup: f64 = 0.0;
    for (k, &x) in ecdf.samples().iter().enumerate() {
        let f = cdf(x);
        sup = sup
            .max(((k as f64 + 1.0) / n - f).abs())
            .max((k as f64 / n - f).abs());
    }
    Ok(sup)
}

#[cfg(test)]
mod ks_tests {
    use super::*;
    use crate::traits::Distribution;

    #[test]
    fn ks_distance_detects_wrong_model() {
        use rand::SeedableRng;
        let truth = crate::Normal::new(1.0, 0.2).unwrap();
        let wrong = crate::Normal::new(1.3, 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let xs = truth.sample_n(&mut rng, 5000);
        let d_right = ks_distance(&xs, |x| truth.cdf(x)).unwrap();
        let d_wrong = ks_distance(&xs, |x| wrong.cdf(x)).unwrap();
        assert!(d_right < 0.03, "right model KS {d_right}");
        assert!(d_wrong > 0.3, "wrong model KS {d_wrong}");
    }

    #[test]
    fn ks_distance_rejects_empty() {
        assert!(ks_distance(&[], |_| 0.5).is_err());
    }
}
