//! Fit configuration shared by all estimators.

/// M-step strategy for the LVF² EM algorithm (§3.2).
///
/// The paper maximizes the expected complete-data log-likelihood (Eq. 9);
/// with skew-normal components that maximization has no closed form, so the
/// reference strategy runs a bounded Nelder–Mead per component
/// ([`MStep::WeightedMle`]). [`MStep::WeightedMoments`] replaces it with
/// responsibility-weighted method of moments — much cheaper, slightly less
/// accurate; the `ablation_mstep` bench quantifies the trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MStep {
    /// Numerical weighted maximum likelihood (the paper's M-step).
    #[default]
    WeightedMle,
    /// Responsibility-weighted method of moments (fast approximation). From
    /// 512 samples on, EM runs on pair means of the sorted samples.
    WeightedMoments,
}

/// Initialization strategy for the LVF² EM algorithm.
///
/// The paper initializes with k-means + method of moments; this crate adds a
/// same-center narrow/wide split that location-based clustering cannot find
/// (needed for the "Kurtosis" scenario) and, by default, runs EM from both
/// and keeps the higher-likelihood fit. The `ablation_init` bench compares
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Run EM from both candidates, keep the better log-likelihood.
    #[default]
    Best,
    /// K-means clustering + per-cluster method of moments only (§3.2).
    KMeansMoments,
    /// Same-center narrow/wide σ split only.
    ScaleSplit,
}

/// K-means iterations for the EM initialization (§3.2).
pub const KMEANS_ITERATIONS: usize = 50;

/// Floor for mixture component weights. With two components λ is clamped
/// into `[MIN_WEIGHT, 1 − MIN_WEIGHT]`. With any other count each weight is
/// floored at `MIN_WEIGHT` and then all are renormalized, so a weight can end
/// slightly below the floor. No component is re-seeded.
pub const MIN_WEIGHT: f64 = 1e-3;

/// Floor for component standard deviations, relative to the data σ: no
/// component σ falls below `MIN_SIGMA_RATIO` times the sample standard
/// deviation.
pub const MIN_SIGMA_RATIO: f64 = 1e-3;

/// Tuning knobs for the fitting routines.
///
/// The k-means budget and the weight and σ floors are fixed parts of the
/// algorithm ([`KMEANS_ITERATIONS`], [`MIN_WEIGHT`], [`MIN_SIGMA_RATIO`]).
/// Each field here stays for a reason:
///
/// - `max_iterations`, `inner_evals` and `m_step` differ between
///   [`FitConfig::default`], [`FitConfig::fast`] and the LESN sums of the
///   SSTA engine;
/// - `tolerance` stays for a measured 1e-6 preset (ROADMAP.md, item 2);
/// - `init` stays for the initialization ablation (DESIGN.md §6);
/// - `seed` stays until the next benchmark change (ROADMAP.md, "Dead
///   `FitConfig::seed`").
///
/// Construct with [`FitConfig::default`] and chain `with_*` builders:
///
/// ```
/// use lvf2_fit::{FitConfig, MStep};
///
/// let cfg = FitConfig::default()
///     .with_max_iterations(40)
///     .with_m_step(MStep::WeightedMoments);
/// assert_eq!(cfg.max_iterations, 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence: EM stops when the mean log-likelihood moves by less
    /// than this between iterations. It also stops, converged, after three
    /// iterations in a row that fail to beat the best log-likelihood so far,
    /// and in either case returns that best iterate.
    pub tolerance: f64,
    /// Function-evaluation budget for each inner Nelder–Mead (M-step, LESN
    /// moment matching).
    pub inner_evals: usize,
    /// M-step strategy for the LVF² EM.
    pub m_step: MStep,
    /// Initialization strategy for the LVF² EM.
    pub init: InitStrategy,
    /// Unread: no fitter draws random numbers, and fits are deterministic
    /// given data + config. The daemon still hashes it into its cache key
    /// (`fit.seed`), the field's only effect, until it is deleted (ROADMAP.md,
    /// "Dead `FitConfig::seed`").
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            max_iterations: 60,
            tolerance: 1e-7,
            inner_evals: 120,
            m_step: MStep::default(),
            init: InitStrategy::default(),
            seed: 0x5eed,
        }
    }
}

impl FitConfig {
    /// A cheaper configuration for large sweeps (library characterization):
    /// weighted-moments M-step and a tighter iteration budget. From 512
    /// samples on, the moments M-step fits the means of adjacent pairs of
    /// the sorted samples and the result is scored on every sample
    /// ([`crate::lvf2`], "Pair sweep").
    ///
    /// The moments M-step does not raise the log-likelihood on every
    /// iteration, so these runs rarely meet `tolerance`. Most of them end on
    /// the three-iterations-without-a-new-best rule instead, at about half
    /// the EM iterations of running to the cap of 40, and return their best
    /// iterate.
    pub fn fast() -> Self {
        FitConfig {
            max_iterations: 40,
            inner_evals: 60,
            m_step: MStep::WeightedMoments,
            ..FitConfig::default()
        }
    }

    /// Sets the EM iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the convergence tolerance on the mean log-likelihood.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the inner optimizer evaluation budget.
    pub fn with_inner_evals(mut self, n: usize) -> Self {
        self.inner_evals = n;
        self
    }

    /// Sets the M-step strategy.
    pub fn with_m_step(mut self, m: MStep) -> Self {
        self.m_step = m;
        self
    }

    /// Sets the EM initialization strategy.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Sets [`FitConfig::seed`], which no fitter reads.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain() {
        let cfg = FitConfig::default()
            .with_max_iterations(5)
            .with_tolerance(1e-3)
            .with_inner_evals(10)
            .with_m_step(MStep::WeightedMoments)
            .with_seed(42);
        assert_eq!(cfg.max_iterations, 5);
        assert_eq!(cfg.tolerance, 1e-3);
        assert_eq!(cfg.inner_evals, 10);
        assert_eq!(cfg.m_step, MStep::WeightedMoments);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn fast_preset_uses_weighted_moments() {
        assert_eq!(FitConfig::fast().m_step, MStep::WeightedMoments);
    }
}
