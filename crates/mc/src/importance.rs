//! Mixture importance sampling over the variation space.
//!
//! The paper's 3σ-yield and rare-bin numbers come from 50k+-sample LHS
//! golden runs per (slew, load) condition — the tail events they resolve
//! carry probabilities of ~1e-3 and below, so almost all of that evaluator
//! budget is spent in the bulk of the distribution. This module rebuilds the
//! tail estimate with **mixture importance sampling** (ISLE-style): draw
//! from a proposal that concentrates mass in the failure region of the
//! *variation* space and reweight by the likelihood ratio.
//!
//! # The proposal family
//!
//! Variation draws live in standard-normal coordinates `z ∈ ℝ⁵` (see
//! [`VariationSample::from_standard`]), where the nominal density is the iid
//! standard Gaussian `φ(z)`. A proposal is a Gaussian mixture
//!
//! ```text
//! q(z) = Σ_c  w_c · N(z; shift_c, scale_c² · I)
//! ```
//!
//! whose first component is always the **defensive** nominal `N(0, I)`: it
//! bounds every self-normalized weight by `1/w_nominal`, so weights can
//! degrade ESS but never explode. The remaining components are shifted
//! toward the delay tails along a direction learned from a small pilot run
//! ([`select_proposal`]): the per-axis covariance between delay and `z`
//! gives the steepest-ascent direction of delay in the variation space, and
//! the components sit at `±target_sigma` along it, slightly widened.
//!
//! # Self-normalized weights and diagnostics
//!
//! Estimates use self-normalized weights `ŵᵢ = wᵢ/Σw` with
//! `wᵢ = φ(zᵢ)/q(zᵢ)` computed in log space. The effective sample size
//! `ESS = (Σw)²/Σw²` and the weight coefficient of variation are the
//! standard health checks: ESS near `n` means the proposal was close to
//! nominal; ESS a small fraction of `n` with an accurate tail estimate is
//! the *expected* signature of a tail-focused proposal; ESS collapsing to
//! ~1 flags a degenerate proposal (see the ESS-degradation tests).
//!
//! # Determinism
//!
//! Sampling follows the same per-block chunked RNG-stream contract as the
//! engine's `Plain` scheme: row `i`'s draw depends only on
//! `⌊i/RNG_BLOCK⌋` and its offset, never on the thread schedule, so IS
//! results are **bit-identical at any thread count**. A proposal that *is*
//! the nominal distribution consumes the RNG exactly like the `Plain`
//! scheme (no component-selection uniform is drawn), so plain MC is
//! recovered sample-for-sample with weights ≡ 1 — a property the test suite
//! pins.

use rand::Rng;

use crate::variation::VariationSample;
use lvf2_stats::sampling::standard_normal;
use lvf2_stats::special::min_tail_probability;

const DIMS: usize = VariationSample::DIMS;

/// How tail-driving Monte-Carlo estimates are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McMode {
    /// Empirical estimates from the (large) LHS sample set — the paper's
    /// golden scheme.
    #[default]
    Lhs,
    /// Mixture importance sampling targeting the distribution tails.
    ImportanceSampling,
}

impl std::str::FromStr for McMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lhs" => Ok(McMode::Lhs),
            "is" => Ok(McMode::ImportanceSampling),
            other => Err(format!("unknown MC mode `{other}` (lhs or is)")),
        }
    }
}

impl std::fmt::Display for McMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            McMode::Lhs => "lhs",
            McMode::ImportanceSampling => "is",
        })
    }
}

/// Mixture weight of the defensive nominal component of a selected
/// proposal: it bounds every importance weight by its reciprocal.
const DEFENSIVE_WEIGHT: f64 = 0.25;

/// σ-widening of the shifted components of a selected proposal (≥ 1 keeps
/// the proposal heavier tailed than the target along the shift axis).
const TAIL_SCALE: f64 = 1.25;

/// Configuration of the importance-sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsConfig {
    /// Tail depth the proposal is aimed at: shifted components sit at
    /// `±target_sigma` along the learned delay gradient.
    pub target_sigma: f64,
    /// Pilot draws used to learn the shift direction (plain MC, counted in
    /// [`McIsResult::evaluator_calls`]).
    pub pilot_samples: usize,
}

impl Default for IsConfig {
    fn default() -> Self {
        IsConfig {
            target_sigma: 3.0,
            pilot_samples: 512,
        }
    }
}

impl IsConfig {
    /// Sets the tail depth (builder style).
    pub fn with_target_sigma(mut self, k: f64) -> Self {
        self.target_sigma = k;
        self
    }
}

/// One Gaussian component of the proposal mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsComponent {
    /// Mixture weight (normalized on construction).
    pub weight: f64,
    /// Mean shift in standard-normal coordinates.
    pub shift: [f64; DIMS],
    /// Isotropic σ multiplier.
    pub scale: f64,
}

/// A Gaussian-mixture proposal over the standardized variation space.
#[derive(Debug, Clone, PartialEq)]
pub struct IsProposal {
    components: Vec<IsComponent>,
}

impl IsProposal {
    /// Upper bound on mixture components — keeps the per-draw log-weight
    /// evaluation allocation-free.
    pub const MAX_COMPONENTS: usize = 8;

    /// Builds a proposal, normalizing the component weights.
    ///
    /// # Panics
    ///
    /// Panics when `components` is empty or holds more than
    /// [`IsProposal::MAX_COMPONENTS`], any weight is non-positive, or any
    /// scale is not positive and finite.
    pub fn new(components: Vec<IsComponent>) -> Self {
        assert!(!components.is_empty(), "proposal needs components");
        assert!(
            components.len() <= Self::MAX_COMPONENTS,
            "at most {} mixture components",
            Self::MAX_COMPONENTS
        );
        let total: f64 = components.iter().map(|c| c.weight).sum();
        assert!(
            components
                .iter()
                .all(|c| c.weight > 0.0 && c.scale > 0.0 && c.scale.is_finite()),
            "component weights and scales must be positive"
        );
        let components = components
            .into_iter()
            .map(|c| IsComponent {
                weight: c.weight / total,
                ..c
            })
            .collect();
        IsProposal { components }
    }

    /// The nominal (identity) proposal: plain MC with weights ≡ 1.
    pub fn nominal() -> Self {
        IsProposal::new(vec![IsComponent {
            weight: 1.0,
            shift: [0.0; DIMS],
            scale: 1.0,
        }])
    }

    /// The mixture components (weights normalized).
    pub fn components(&self) -> &[IsComponent] {
        &self.components
    }

    /// `true` when this proposal is exactly the nominal distribution — the
    /// sampler then consumes the RNG identically to the `Plain` scheme and
    /// every log-weight is exactly `0.0`.
    pub fn is_nominal(&self) -> bool {
        self.components.len() == 1
            && self.components[0].shift == [0.0; DIMS]
            && self.components[0].scale == 1.0
    }

    /// Draws one row in standard coordinates: selects a component (no RNG
    /// is consumed for a single-component proposal), then draws
    /// `shift + scale·N(0, I)`.
    pub fn sample_row<R: Rng + ?Sized>(&self, rng: &mut R) -> [f64; DIMS] {
        let c = if self.components.len() == 1 {
            &self.components[0]
        } else {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = &self.components[self.components.len() - 1];
            for comp in &self.components {
                acc += comp.weight;
                if u < acc {
                    chosen = comp;
                    break;
                }
            }
            chosen
        };
        let mut z = [0.0f64; DIMS];
        for (d, zd) in z.iter_mut().enumerate() {
            *zd = c.shift[d] + c.scale * standard_normal(rng);
        }
        z
    }

    /// Log importance weight `ln φ(z) − ln q(z)` of a standard-coordinate
    /// draw. The `(2π)^{-D/2}` constants cancel and are omitted from both
    /// sides; for the nominal proposal the result is exactly `0.0`.
    pub fn ln_weight(&self, z: &[f64; DIMS]) -> f64 {
        let ln_target: f64 = z.iter().map(|zd| -0.5 * zd * zd).sum();
        // log-sum-exp over components of ln w_c + ln N(z; shift_c, scale_c²I).
        let mut terms = [0.0f64; Self::MAX_COMPONENTS];
        let mut max = f64::NEG_INFINITY;
        for (t, c) in terms.iter_mut().zip(&self.components) {
            let mut s = c.weight.ln() - DIMS as f64 * c.scale.ln();
            for (zd, sd) in z.iter().zip(&c.shift) {
                let u = (zd - sd) / c.scale;
                s += -0.5 * u * u;
            }
            *t = s;
            max = max.max(s);
        }
        let n = self.components.len();
        let ln_prop = if n == 1 {
            terms[0]
        } else {
            max + terms[..n].iter().map(|t| (t - max).exp()).sum::<f64>().ln()
        };
        ln_target - ln_prop
    }
}

/// Outcome of the pilot-based proposal selection.
#[derive(Debug, Clone, PartialEq)]
pub struct IsSelection {
    /// The selected proposal.
    pub proposal: IsProposal,
    /// Pilot delay mean (ns) — the anchor for σ-relative thresholds.
    pub pilot_mean: f64,
    /// Pilot delay standard deviation (ns).
    pub pilot_std: f64,
    /// Unit shift direction in standard coordinates (all zeros when the
    /// pilot saw no delay–variation correlation and the proposal fell back
    /// to nominal).
    pub direction: [f64; DIMS],
    /// Evaluator calls spent on the pilot.
    pub pilot_calls: usize,
}

/// Selects a mixture proposal from pilot data: regresses delay against each
/// standardized variation axis and shifts `target_sigma` units along the
/// normalized covariance direction, one component each way, with the
/// defensive nominal component keeping weights bounded.
///
/// Falls back to the nominal proposal when the pilot shows no usable
/// delay–variation correlation (degenerate arcs, zero variance).
///
/// # Panics
///
/// Panics when `pilot_z` and `pilot_delays` lengths differ or are empty.
pub fn select_proposal(
    pilot_z: &[[f64; DIMS]],
    pilot_delays: &[f64],
    cfg: &IsConfig,
) -> IsSelection {
    assert_eq!(pilot_z.len(), pilot_delays.len(), "pilot length mismatch");
    assert!(!pilot_z.is_empty(), "empty pilot");
    let n = pilot_delays.len() as f64;
    let mean = pilot_delays.iter().sum::<f64>() / n;
    let var = pilot_delays
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / n;
    let std = var.sqrt();

    let mut cov = [0.0f64; DIMS];
    for (z, d) in pilot_z.iter().zip(pilot_delays) {
        let r = d - mean;
        for (c, zd) in cov.iter_mut().zip(z) {
            *c += r * zd;
        }
    }
    let norm = cov.iter().map(|c| c * c).sum::<f64>().sqrt() / n;
    let fallback = !(std > 0.0) || !(norm > 1e-12 * std);
    if fallback {
        return IsSelection {
            proposal: IsProposal::nominal(),
            pilot_mean: mean,
            pilot_std: std,
            direction: [0.0; DIMS],
            pilot_calls: pilot_z.len(),
        };
    }

    let len = cov.iter().map(|c| c * c).sum::<f64>().sqrt();
    let mut direction = [0.0f64; DIMS];
    for (dir, c) in direction.iter_mut().zip(&cov) {
        *dir = c / len;
    }

    let tail_weight = (1.0 - DEFENSIVE_WEIGHT) / 2.0;
    let mut up = [0.0f64; DIMS];
    let mut down = [0.0f64; DIMS];
    for d in 0..DIMS {
        up[d] = cfg.target_sigma * direction[d];
        down[d] = -cfg.target_sigma * direction[d];
    }
    let components = vec![
        IsComponent {
            weight: DEFENSIVE_WEIGHT,
            shift: [0.0; DIMS],
            scale: 1.0,
        },
        IsComponent {
            weight: tail_weight,
            shift: up,
            scale: TAIL_SCALE,
        },
        IsComponent {
            weight: tail_weight,
            shift: down,
            scale: TAIL_SCALE,
        },
    ];
    IsSelection {
        proposal: IsProposal::new(components),
        pilot_mean: mean,
        pilot_std: std,
        direction,
        pilot_calls: pilot_z.len(),
    }
}

/// A self-normalized tail-probability estimate with its IS diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsTailEstimate {
    /// Self-normalized estimate of `P(X > threshold)`.
    pub probability: f64,
    /// Delta-method standard error of the self-normalized estimator.
    pub std_error: f64,
    /// Effective sample size `(Σw)²/Σw²` over **all** draws.
    pub ess: f64,
    /// Proposal draws used.
    pub samples: usize,
    /// `true` when the raw estimate was `0.0` and was floored at
    /// [`min_tail_probability`].
    pub floored: bool,
}

/// Weighted Monte-Carlo output of one importance-sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct McIsResult {
    /// Per-draw propagation delays (ns).
    pub delays: Vec<f64>,
    /// Per-draw output transition times (ns).
    pub transitions: Vec<f64>,
    /// Per-draw log importance weights `ln φ(zᵢ) − ln q(zᵢ)`.
    pub ln_weights: Vec<f64>,
    /// The proposal that produced the draws.
    pub proposal: IsProposal,
    /// Pilot delay mean (ns).
    pub pilot_mean: f64,
    /// Pilot delay standard deviation (ns).
    pub pilot_std: f64,
    /// Evaluator calls spent on the pilot phase.
    pub pilot_calls: usize,
}

impl McIsResult {
    /// Total arc-evaluator calls: pilot + main draws. This is the figure the
    /// 25–100× reduction claims are measured against.
    pub fn evaluator_calls(&self) -> usize {
        self.pilot_calls + self.delays.len()
    }

    /// Self-normalized weights `ŵᵢ = wᵢ/Σw`, computed stably in log space.
    pub fn normalized_weights(&self) -> Vec<f64> {
        normalized_weights(&self.ln_weights)
    }

    /// Effective sample size `(Σw)²/Σw²` over all draws.
    pub fn ess(&self) -> f64 {
        let w = self.normalized_weights();
        let sum_sq: f64 = w.iter().map(|wi| wi * wi).sum();
        if sum_sq > 0.0 {
            1.0 / sum_sq
        } else {
            0.0
        }
    }

    /// Squared coefficient of variation of the weights,
    /// `n/ESS − 1` — `0` for nominal weights, growing as they degenerate.
    pub fn weight_cv2(&self) -> f64 {
        let ess = self.ess();
        if ess > 0.0 {
            self.delays.len() as f64 / ess - 1.0
        } else {
            f64::INFINITY
        }
    }

    /// Self-normalized estimate of `P(delay > threshold)` with diagnostics.
    ///
    /// A raw `0.0` (no draw past the threshold) is floored at
    /// [`min_tail_probability`] so downstream log-space yield math stays
    /// finite; the estimate is then flagged [`IsTailEstimate::floored`].
    pub fn tail_estimate(&self, threshold: f64) -> IsTailEstimate {
        let w = self.normalized_weights();
        let mut p = 0.0;
        for (d, wi) in self.delays.iter().zip(&w) {
            if *d > threshold {
                p += wi;
            }
        }
        // Delta-method variance of the ratio estimator.
        let mut var = 0.0;
        for (d, wi) in self.delays.iter().zip(&w) {
            let g = if *d > threshold { 1.0 } else { 0.0 };
            var += wi * wi * (g - p) * (g - p);
        }
        let sum_sq: f64 = w.iter().map(|wi| wi * wi).sum();
        let ess = if sum_sq > 0.0 { 1.0 / sum_sq } else { 0.0 };
        let floored = p == 0.0;
        IsTailEstimate {
            probability: if floored {
                min_tail_probability(self.delays.len())
            } else {
                p
            },
            std_error: var.sqrt(),
            ess,
            samples: self.delays.len(),
            floored,
        }
    }
}

/// Self-normalized weights from log weights, stable under large offsets.
pub fn normalized_weights(ln_weights: &[f64]) -> Vec<f64> {
    if ln_weights.is_empty() {
        return Vec::new();
    }
    let max = ln_weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut w: Vec<f64> = ln_weights.iter().map(|lw| (lw - max).exp()).collect();
    let sum: f64 = w.iter().sum();
    for wi in &mut w {
        *wi /= sum;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_proposal_has_zero_log_weights() {
        let p = IsProposal::nominal();
        assert!(p.is_nominal());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let z = p.sample_row(&mut rng);
            assert_eq!(p.ln_weight(&z), 0.0, "nominal weight must be exactly 0");
        }
    }

    #[test]
    fn nominal_sampling_matches_plain_rng_stream() {
        let p = IsProposal::nominal();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let z = p.sample_row(&mut a);
            let mut want = [0.0f64; DIMS];
            for wd in want.iter_mut() {
                *wd = standard_normal(&mut b);
            }
            assert_eq!(z, want);
        }
    }

    #[test]
    fn defensive_component_bounds_weights() {
        let shifted = IsProposal::new(vec![
            IsComponent {
                weight: DEFENSIVE_WEIGHT,
                shift: [0.0; DIMS],
                scale: 1.0,
            },
            IsComponent {
                weight: 1.0 - DEFENSIVE_WEIGHT,
                shift: [3.0, 0.0, 0.0, 0.0, 0.0],
                scale: 1.25,
            },
        ]);
        let bound = (1.0 / DEFENSIVE_WEIGHT).ln() + 1e-12;
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let z = shifted.sample_row(&mut rng);
            assert!(
                shifted.ln_weight(&z) <= bound,
                "weight exceeded 1/defensive_weight"
            );
        }
    }

    #[test]
    fn selection_points_along_the_delay_gradient() {
        // Synthetic pilot: delay = 2·z₀ − z₁ (+ nothing else).
        let mut rng = StdRng::seed_from_u64(3);
        let zs: Vec<[f64; DIMS]> = (0..4000)
            .map(|_| {
                let mut z = [0.0; DIMS];
                for zd in z.iter_mut() {
                    *zd = standard_normal(&mut rng);
                }
                z
            })
            .collect();
        let ds: Vec<f64> = zs.iter().map(|z| 2.0 * z[0] - z[1]).collect();
        let sel = select_proposal(&zs, &ds, &IsConfig::default());
        let want = [2.0 / 5.0f64.sqrt(), -1.0 / 5.0f64.sqrt(), 0.0, 0.0, 0.0];
        for (got, want) in sel.direction.iter().zip(&want) {
            assert!((got - want).abs() < 0.05, "{got} vs {want}");
        }
        assert_eq!(sel.proposal.components().len(), 3);
        assert_eq!(sel.pilot_calls, 4000);
    }

    #[test]
    fn flat_pilot_falls_back_to_nominal() {
        let zs = vec![[0.5; DIMS], [-0.5; DIMS], [1.0; DIMS]];
        let ds = vec![1.0, 1.0, 1.0];
        let sel = select_proposal(&zs, &ds, &IsConfig::default());
        assert!(sel.proposal.is_nominal());
        assert_eq!(sel.direction, [0.0; DIMS]);
    }

    #[test]
    fn normalized_weights_sum_to_one() {
        let w = normalized_weights(&[-700.0, 0.0, 700.0]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[2] > 0.999);
    }

    #[test]
    fn mc_mode_parses_and_prints() {
        assert_eq!("lhs".parse::<McMode>().unwrap(), McMode::Lhs);
        assert_eq!("is".parse::<McMode>().unwrap(), McMode::ImportanceSampling);
        assert!("spice".parse::<McMode>().is_err());
        assert_eq!(McMode::ImportanceSampling.to_string(), "is");
    }
}
