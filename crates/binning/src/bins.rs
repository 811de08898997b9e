//! Speed-bin boundaries and bin probabilities (§2.1, Eq. 1).

/// An ordered set of speed-bin boundaries `T₁ < T₂ < … < Tₙ`, defining
/// `n + 1` bins.
///
/// # Example
///
/// ```
/// use lvf2_binning::BinSet;
///
/// let bins = BinSet::new(vec![0.9, 1.0, 1.1]);
/// assert_eq!(bins.bin_count(), 4);
/// // A step CDF: everything below 0.95.
/// let p = bins.probabilities(|x| if x >= 0.95 { 1.0 } else { 0.0 });
/// assert_eq!(p, vec![0.0, 1.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinSet {
    boundaries: Vec<f64>,
}

impl BinSet {
    /// Creates a bin set from boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty or not strictly increasing.
    pub fn new(boundaries: Vec<f64>) -> Self {
        assert!(!boundaries.is_empty(), "need at least one boundary");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        BinSet { boundaries }
    }

    /// The paper's experimental binning: boundaries at μ±3σ, μ±2σ, μ±σ and
    /// μ — seven boundaries, eight speed bins.
    ///
    /// # Panics
    ///
    /// Panics if `sigma ≤ 0`.
    pub fn sigma_bins(mean: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        BinSet::new(
            [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
                .iter()
                .map(|k| mean + k * sigma)
                .collect(),
        )
    }

    /// The boundaries `T₁..Tₙ`.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Number of bins (`boundaries + 1`).
    pub fn bin_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Bin probabilities per Eq. (1): `P(Bin₁) = F(T₁)`,
    /// `P(Binᵢ) = F(Tᵢ) − F(Tᵢ₋₁)`, `P(Binₙ₊₁) = 1 − F(Tₙ)`.
    ///
    /// Tiny negative values from CDF round-off are clamped to 0.
    pub fn probabilities<F: Fn(f64) -> f64>(&self, cdf: F) -> Vec<f64> {
        let at: Vec<f64> = self.boundaries.iter().map(|&t| cdf(t)).collect();
        self.probabilities_at(&at)
    }

    /// [`probabilities`](Self::probabilities) from the CDF already
    /// evaluated at each boundary, `cdf_at[i] = F(Tᵢ₊₁)` — for a caller
    /// that evaluates them in one batch.
    ///
    /// # Panics
    ///
    /// Panics when `cdf_at` does not hold one value per boundary.
    pub fn probabilities_at(&self, cdf_at: &[f64]) -> Vec<f64> {
        assert_eq!(
            cdf_at.len(),
            self.boundaries.len(),
            "one CDF value per boundary"
        );
        let mut probs = Vec::with_capacity(self.bin_count());
        let mut prev = 0.0;
        for &c in cdf_at {
            probs.push((c - prev).max(0.0));
            prev = c;
        }
        probs.push((1.0 - prev).max(0.0));
        probs
    }

    /// Empirical bin probabilities from samples.
    pub fn probabilities_from_samples(&self, samples: &[f64]) -> Vec<f64> {
        let n = samples.len() as f64;
        let mut counts = vec![0usize; self.bin_count()];
        for &x in samples {
            let idx = self.boundaries.partition_point(|&b| b <= x);
            counts[idx] += 1;
        }
        counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// [`probabilities_from_samples`](Self::probabilities_from_samples) of
    /// samples sorted ascending (NaN-free): one binary search per boundary
    /// instead of one per sample, with the same counts.
    pub fn probabilities_from_sorted(&self, sorted: &[f64]) -> Vec<f64> {
        let n = sorted.len() as f64;
        let mut below_prev = 0;
        let mut probs = Vec::with_capacity(self.bin_count());
        for &t in &self.boundaries {
            let below = sorted.partition_point(|&x| x < t);
            probs.push((below - below_prev) as f64 / n);
            below_prev = below;
        }
        probs.push((sorted.len() - below_prev) as f64 / n);
        probs
    }

    /// Bin masses from **weighted** samples — the importance-sampling analog
    /// of [`BinSet::probabilities_from_samples`]: each sample contributes its
    /// weight to its bin, and the result is normalized by the total weight
    /// (self-normalization), so pre-normalized weights pass through exactly.
    ///
    /// The accumulation order is the sample order, so the result is
    /// deterministic for a deterministic sample stream.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ or the total weight is not positive.
    pub fn probabilities_from_weighted_samples(
        &self,
        samples: &[f64],
        weights: &[f64],
    ) -> Vec<f64> {
        assert_eq!(
            samples.len(),
            weights.len(),
            "weighted bins: length mismatch"
        );
        let mut mass = vec![0.0f64; self.bin_count()];
        let mut total = 0.0;
        for (&x, &w) in samples.iter().zip(weights) {
            mass[self.boundaries.partition_point(|&b| b <= x)] += w;
            total += w;
        }
        assert!(total > 0.0, "weighted bins: total weight must be positive");
        for m in &mut mass {
            *m /= total;
        }
        mass
    }

    /// Index of the bin that a value falls in.
    pub fn bin_of(&self, x: f64) -> usize {
        self.boundaries.partition_point(|&b| b <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::{Distribution, Normal};

    #[test]
    fn sigma_bins_have_eight_bins() {
        let b = BinSet::sigma_bins(1.0, 0.1);
        assert_eq!(b.bin_count(), 8);
        assert!((b.boundaries()[0] - 0.7).abs() < 1e-12);
        assert!((b.boundaries()[6] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn gaussian_bin_probabilities_are_textbook() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let b = BinSet::sigma_bins(0.0, 1.0);
        let p = b.probabilities(|x| n.cdf(x));
        // Φ(-3), Φ(-2)-Φ(-3), Φ(-1)-Φ(-2), Φ(0)-Φ(-1), symmetric...
        assert!((p[0] - 0.001349898).abs() < 1e-8);
        assert!((p[3] - 0.3413447).abs() < 1e-6);
        assert!((p[4] - p[3]).abs() < 1e-12); // symmetry
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_probabilities_match_cdf_for_big_samples() {
        let n = Normal::new(2.0, 0.5).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let xs = n.sample_n(&mut rng, 100_000);
        let b = BinSet::sigma_bins(2.0, 0.5);
        let emp = b.probabilities_from_samples(&xs);
        let exact = b.probabilities(|x| n.cdf(x));
        for (e, x) in emp.iter().zip(&exact) {
            assert!((e - x).abs() < 0.01, "{e} vs {x}");
        }
        assert!((emp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_counts_match_per_sample_counts() {
        let b = BinSet::new(vec![-1.0, 0.0, 1.0, 2.0]);
        // Samples on the boundaries (both zeros), between them and outside.
        let mut xs = vec![0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 7.0, 1.0, -0.5];
        let want = b.probabilities_from_samples(&xs);
        xs.sort_unstable_by(f64::total_cmp);
        assert_eq!(b.probabilities_from_sorted(&xs), want);
    }

    #[test]
    fn unit_weights_reduce_to_plain_counting() {
        let b = BinSet::new(vec![1.0, 2.0]);
        let xs = vec![0.5, 1.5, 1.7, 2.5, 0.1];
        let w = vec![1.0; xs.len()];
        assert_eq!(
            b.probabilities_from_weighted_samples(&xs, &w),
            b.probabilities_from_samples(&xs)
        );
    }

    #[test]
    fn weighted_masses_follow_the_weights() {
        let b = BinSet::new(vec![1.0]);
        // All the mass on the one sample above the boundary.
        let p = b.probabilities_from_weighted_samples(&[0.5, 1.5], &[0.0 + 1e-12, 3.0]);
        assert!(p[1] > 0.999999);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_masses_reject_mismatched_lengths() {
        BinSet::new(vec![1.0]).probabilities_from_weighted_samples(&[0.5], &[1.0, 2.0]);
    }

    #[test]
    fn bin_of_respects_boundaries() {
        let b = BinSet::new(vec![1.0, 2.0]);
        assert_eq!(b.bin_of(0.5), 0);
        assert_eq!(b.bin_of(1.0), 1); // boundary goes to the upper bin (t < T)
        assert_eq!(b.bin_of(1.5), 1);
        assert_eq!(b.bin_of(5.0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_boundaries() {
        BinSet::new(vec![2.0, 1.0]);
    }
}
