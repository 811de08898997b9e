//! Reusable scratch memory for the EM hot path.
//!
//! A [`FitWorkspace`] owns every buffer the EM needs: the sorted copy of the
//! samples, the points EM runs on (pair means of the sorted samples, with
//! their counts, for moment-matching fits of 512 samples or more), the
//! log-density and responsibility matrices, the Nelder–Mead simplex, the
//! k-means assignment arrays and the M-step compaction buffers. Allocate one
//! per arc (or one per worker thread — see [`crate::fit_lvf2_batch`]) and
//! every steady-state EM iteration runs without touching the heap:
//! `tests/no_alloc.rs` pins that with a counting global allocator.
//!
//! Buffers grow to the high-water mark of the inputs they have seen and are
//! never shrunk, so a workspace reused across a characterization sweep
//! settles after the first fit.

use lvf2_stats::SkewNormal;

use crate::config::{FitConfig, MStep};

/// Consecutive sorted samples that make one EM point under the moments
/// M-step. Pairs halve every density sweep, E-step and moment sum. On the
/// 1536 fits of perfbench `libchar`'s twelve reference arcs, means of up to
/// 16 samples kept every quality key within 5% of the one-point-per-sample
/// fit or better (`docs/PERFORMANCE.md`); pairs are what the daemon's
/// benchmarks admit (ROADMAP.md items 1 and 5).
pub(crate) const GROUP_SIZE: usize = 2;

/// Fewest samples for which the moments M-step runs on group means; smaller
/// inputs, and every weighted-MLE fit, keep one point per sample. On the
/// same reference fits cut to their first 128–2000 samples, scored against
/// each entry's full 2000-sample reference, pair means kept the binning,
/// 3σ-yield and median CDF-RMSE errors within 1.6% of the per-sample fit's
/// at every size, but the models' exact log-likelihood on their own samples
/// fell 2.4% at 128 samples and 0.75% at 256, against at most 0.25% from
/// 384 on (`docs/PERFORMANCE.md`). 512 sits above that knee.
pub(crate) const GROUPED_MIN_SAMPLES: usize = 512;

/// Points for EM, each standing for `counts[i]` samples.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EmPoints<'a> {
    /// Ascending: the sorted samples, or the means of consecutive groups of
    /// them.
    pub(crate) xs: &'a [f64],
    /// How many samples each point stands for: 1 for a sample, the group
    /// size for a group mean.
    pub(crate) counts: &'a [f64],
}

/// Scratch buffers for one fitting thread.
///
/// Construct with [`FitWorkspace::new`] (no allocation happens until the
/// first fit) and pass to [`crate::fit_lvf2_with`] /
/// [`crate::fit_sn_mixture_with`]. Reusing a workspace never changes
/// results — fits are bit-identical whether the workspace is fresh or
/// recycled.
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_lvf2_with, FitConfig, FitWorkspace};
/// use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let truth = Lvf2::new(
///     0.4,
///     SkewNormal::from_moments(Moments::new(1.0, 0.05, 0.3))?,
///     SkewNormal::from_moments(Moments::new(1.4, 0.08, -0.2))?,
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let cfg = FitConfig::default();
/// let mut ws = FitWorkspace::new();
/// for _ in 0..3 {
///     let xs = truth.sample_n(&mut rng, 600);
///     let fit = fit_lvf2_with(&xs, &cfg, &mut ws)?; // buffers reused
///     assert!(fit.report.iterations >= 1);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct FitWorkspace {
    /// Sorted copy of the caller's samples (length n); see
    /// [`FitWorkspace::with_points`].
    pub(crate) sorted: Vec<f64>,
    /// Count 1 for each sorted sample (at least n long, all 1.0).
    pub(crate) unit_counts: Vec<f64>,
    /// Means of groups of [`GROUP_SIZE`] consecutive sorted samples, when
    /// the fit runs on them.
    pub(crate) group_means: Vec<f64>,
    /// Samples per group (the last group may be short).
    pub(crate) group_counts: Vec<f64>,
    /// Component-major k×n log-density matrix (`dens[j * n + i]`).
    pub(crate) dens: Vec<f64>,
    /// Component-major k×n responsibility matrix (`resp[j * n + i]`). At
    /// k = 2 the second row holds each sample's log-normalizer until the
    /// E-step overwrites it with `1 − z₁`.
    pub(crate) resp: Vec<f64>,
    /// Per-component log-weights (length k).
    pub(crate) logw: Vec<f64>,
    /// One sample's log-joints, then responsibilities, in the K-way E-step
    /// (length k).
    pub(crate) row: Vec<f64>,
    /// The weights entering the current EM iteration, before its E-step
    /// updates them (length k).
    pub(crate) entry_weights: Vec<f64>,
    /// The weights of the best-scoring EM iterate so far (length k).
    pub(crate) best_weights: Vec<f64>,
    /// The components of the best-scoring EM iterate so far (length k).
    pub(crate) best_comps: Vec<SkewNormal>,
    /// Gather buffer for per-cluster samples during initialization.
    pub(crate) cluster: Vec<f64>,
    /// K-means scratch (satellite of the same allocation story).
    pub(crate) kmeans: KMeansScratch,
    /// M-step scratch: compaction buffers + Nelder–Mead simplex.
    pub(crate) mstep: MStepScratch,
}

impl FitWorkspace {
    /// Creates an empty workspace; buffers are allocated lazily on first use
    /// and reused afterwards.
    pub fn new() -> Self {
        FitWorkspace::default()
    }

    /// Runs `fit` on a copy of `samples` sorted ascending, held in this
    /// workspace, given as its first argument with counts of 1, and on the
    /// [`EmPoints`] that EM runs on, its second. Every stage of a fit
    /// (k-means, initialization, EM, M-step) then sees the same sequence for
    /// any permutation of the input, so the fit depends only on the multiset
    /// of samples. `f64::total_cmp` makes the order total — NaN cannot panic
    /// here and is reported by the fitter's moment check — and places `−0.0`
    /// before `+0.0`.
    ///
    /// Under the moments M-step, from [`GROUPED_MIN_SAMPLES`] samples on,
    /// the EM points are the means of [`GROUP_SIZE`] consecutive sorted
    /// samples, each with its count; otherwise they are the sorted samples.
    pub(crate) fn with_points<R>(
        &mut self,
        samples: &[f64],
        config: &FitConfig,
        fit: impl FnOnce(EmPoints<'_>, EmPoints<'_>, &mut FitWorkspace) -> R,
    ) -> R {
        // Taking the buffers moves them without allocating; they go back
        // after the fit so their capacity is reused.
        let mut sorted = std::mem::take(&mut self.sorted);
        let mut ones = std::mem::take(&mut self.unit_counts);
        let mut means = std::mem::take(&mut self.group_means);
        let mut counts = std::mem::take(&mut self.group_counts);
        sorted.clear();
        sorted.extend_from_slice(samples);
        sorted.sort_unstable_by(f64::total_cmp);
        if ones.len() < sorted.len() {
            ones.resize(sorted.len(), 1.0);
        }
        means.clear();
        counts.clear();
        let all = EmPoints {
            xs: &sorted,
            counts: &ones[..sorted.len()],
        };
        let points =
            if config.m_step == MStep::WeightedMoments && sorted.len() >= GROUPED_MIN_SAMPLES {
                for g in sorted.chunks(GROUP_SIZE) {
                    let len = g.len() as f64;
                    means.push(g.iter().sum::<f64>() / len);
                    counts.push(len);
                }
                EmPoints {
                    xs: &means,
                    counts: &counts,
                }
            } else {
                all
            };
        let out = fit(all, points, self);
        self.sorted = sorted;
        self.unit_counts = ones;
        self.group_means = means;
        self.group_counts = counts;
        out
    }
}

/// Reusable buffers for [`crate::kmeans1d_with`].
///
/// After a successful run the results live in this struct — read them with
/// [`centers`](KMeansScratch::centers), [`assignments`](KMeansScratch::assignments)
/// and [`iterations`](KMeansScratch::iterations). Repeat calls reuse every
/// buffer, so k-means itself allocates nothing once the scratch has seen its
/// largest input.
#[derive(Debug, Default, Clone)]
pub struct KMeansScratch {
    /// Sorted copy of the samples (quantile initialization).
    pub(crate) sorted: Vec<f64>,
    /// Cluster centers, sorted ascending after the run.
    pub(crate) centers: Vec<f64>,
    /// Per-sample cluster index.
    pub(crate) assignments: Vec<usize>,
    /// Per-cluster running sums (update step).
    pub(crate) sums: Vec<f64>,
    /// Per-cluster sample counts (update step).
    pub(crate) counts: Vec<usize>,
    /// Sort permutation for the final center ordering.
    pub(crate) order: Vec<usize>,
    /// Inverse permutation applied to the assignments.
    pub(crate) remap: Vec<usize>,
    /// Lloyd iterations executed by the last run.
    pub(crate) iterations: usize,
}

impl KMeansScratch {
    /// Creates an empty scratch; buffers are allocated lazily.
    pub fn new() -> Self {
        KMeansScratch::default()
    }

    /// Cluster centers from the last run, sorted ascending.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Per-sample cluster indices from the last run (into
    /// [`centers`](KMeansScratch::centers)).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Lloyd iterations executed by the last run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Cluster sizes from the last run, aligned with
    /// [`centers`](KMeansScratch::centers). Writes into `sizes` (which must
    /// have length k) so callers can stay allocation-free.
    pub fn sizes_into(&self, sizes: &mut [usize]) {
        assert_eq!(sizes.len(), self.centers.len(), "sizes: length mismatch");
        sizes.fill(0);
        for &a in &self.assignments {
            sizes[a] += 1;
        }
    }
}

/// Reusable buffers for [`crate::nelder_mead_with`].
///
/// Holds the simplex in one flat allocation (`(n + 1) × n` row-major) plus
/// the ordering and trial-point buffers; a run of any dimension `n` reuses
/// them, growing only on the first call at a new high-water dimension.
#[derive(Debug, Default, Clone)]
pub struct NmScratch {
    /// Flat row-major simplex: vertex `i` is `simplex[i*n..(i+1)*n]`.
    pub(crate) simplex: Vec<f64>,
    /// Permutation buffer for the ordering step.
    pub(crate) simplex_tmp: Vec<f64>,
    /// Objective value per vertex.
    pub(crate) values: Vec<f64>,
    /// Value permutation buffer.
    pub(crate) values_tmp: Vec<f64>,
    /// Sort permutation.
    pub(crate) idx: Vec<usize>,
    /// Centroid of the n best vertices.
    pub(crate) centroid: Vec<f64>,
    /// Reflection trial point.
    pub(crate) trial_r: Vec<f64>,
    /// Expansion/contraction trial point.
    pub(crate) trial_e: Vec<f64>,
}

impl NmScratch {
    /// Creates an empty scratch; buffers are allocated lazily.
    pub fn new() -> Self {
        NmScratch::default()
    }
}

/// M-step scratch: the weighted-MLE objective compaction plus the inner
/// optimizer's simplex.
#[derive(Debug, Default, Clone)]
pub(crate) struct MStepScratch {
    /// Samples whose responsibility exceeds the 1e-12 support cut,
    /// in the (sorted) order the fit runs on.
    pub(crate) active_xs: Vec<f64>,
    /// The matching responsibilities, in the same order.
    pub(crate) active_ws: Vec<f64>,
    /// Batched log-density output over `active_xs`.
    pub(crate) obj: Vec<f64>,
    /// Inner Nelder–Mead scratch.
    pub(crate) nm: NmScratch,
}

/// Clears and zero-fills `buf` to length `n`, reusing capacity.
#[inline]
pub(crate) fn reset(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}
