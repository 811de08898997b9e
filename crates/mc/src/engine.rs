//! The Monte-Carlo engine: draws a variation matrix (LHS or plain MC) and
//! evaluates a timing arc over it.
//!
//! # Parallelism and determinism
//!
//! Both the variation draw and the arc-evaluation loop run on the engine's
//! configured [`Parallelism`], and both are **bit-identical at any thread
//! count**:
//!
//! - LHS keeps its RNG-sequential phase (permutations + uniforms) on one
//!   stream and fans out only the pure `Φ⁻¹`/scaling map;
//! - plain MC derives one RNG stream *per chunk of sample rows* via
//!   [`lvf2_parallel::chunk_seed`], so a row's draw depends on its index,
//!   never on which thread produced it;
//! - arc evaluation is a pure per-sample function written back by index.

use lvf2_obs::Obs;
use lvf2_parallel::{chunk_seed, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arc_model::TimingArcModel;
use crate::importance::{select_proposal, IsConfig, IsProposal, IsSelection, McIsResult};
use crate::lhs::lhs_probabilities;
use crate::variation::{VariationSample, VariationSpace};
use lvf2_stats::sampling::standard_normal;
use lvf2_stats::special::norm_quantile;

/// Fixed number of sample rows per RNG stream in index-keyed schemes
/// (`Plain` and importance sampling). A constant — NOT the configurable
/// scheduling chunk — so `chunk_size` stays a pure speed knob with no effect
/// on the drawn values.
const RNG_BLOCK: usize = 256;

/// Seed decorrelation constant for the IS pilot phase, so the pilot and the
/// main proposal draw never share an RNG stream.
const PILOT_SEED_XOR: u64 = 0xC0FF_EE15_7A11_u64;

/// How the variation matrix is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingScheme {
    /// Latin Hypercube Sampling (the paper's scheme).
    #[default]
    LatinHypercube,
    /// Plain (iid) Monte Carlo.
    Plain,
}

/// Result of one Monte-Carlo characterization run at a single (slew, load).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct McResult {
    /// Per-sample propagation delays (ns).
    pub delays: Vec<f64>,
    /// Per-sample output transition times (ns).
    pub transitions: Vec<f64>,
}

/// Deterministic Monte-Carlo engine for timing-arc characterization.
///
/// The engine is cheap to clone and reusable; each `simulate` call draws a
/// fresh variation matrix from the configured seed, so identical calls give
/// identical results.
///
/// # Example
///
/// ```
/// use lvf2_mc::{McEngine, RegimeCompetitionArc, VariationSpace};
///
/// let engine = McEngine::new(VariationSpace::tt_22nm(), 1000, 7);
/// let arc = RegimeCompetitionArc::balanced_bimodal();
/// let a = engine.simulate(&arc, 0.02, 0.05);
/// let b = engine.simulate(&arc, 0.02, 0.05);
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct McEngine {
    space: VariationSpace,
    samples: usize,
    seed: u64,
    scheme: SamplingScheme,
    par: Parallelism,
}

impl McEngine {
    /// Creates an engine drawing `samples` LHS draws from `space`.
    pub fn new(space: VariationSpace, samples: usize, seed: u64) -> Self {
        McEngine {
            space,
            samples,
            seed,
            scheme: SamplingScheme::LatinHypercube,
            par: Parallelism::auto(),
        }
    }

    /// Switches the sampling scheme (builder style).
    pub fn with_scheme(mut self, scheme: SamplingScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the seed (builder style) — used to decorrelate per-arc runs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread/chunk configuration (builder style). Results are
    /// bit-identical for every configuration; this only changes speed.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The engine's thread/chunk configuration.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Number of Monte-Carlo samples per run.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The variation space.
    pub fn space(&self) -> &VariationSpace {
        &self.space
    }

    /// Draws the variation matrix for this engine's configuration.
    pub fn draw_variations(&self) -> Vec<VariationSample> {
        const DIMS: usize = VariationSample::DIMS;
        let _span = Obs::current().span("mc.draw");
        let n = self.samples;
        match self.scheme {
            SamplingScheme::LatinHypercube => {
                // Phase 1 (serial): the RNG-sequential stratified uniforms.
                let mut rng = StdRng::seed_from_u64(self.seed);
                let p = lhs_probabilities(n, DIMS, &mut rng);
                // Phase 2 (parallel): pure Φ⁻¹ + scaling, keyed by row index.
                self.par.par_map_chunked(n, self.par.chunk_size(), |i| {
                    let mut z = [0.0f64; DIMS];
                    for (d, zd) in z.iter_mut().enumerate() {
                        *zd = norm_quantile(p[i * DIMS + d]);
                    }
                    VariationSample::from_standard(&z, &self.space)
                })
            }
            SamplingScheme::Plain => {
                // One RNG stream per fixed-size block of rows: row i's draw
                // depends only on ⌊i/BLOCK⌋ and its offset, never on the
                // thread schedule.
                let n_chunks = Parallelism::chunk_count(n, RNG_BLOCK);
                let rows = self.par.par_map_indexed(n_chunks, |c| {
                    let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, c as u64));
                    let lo = c * RNG_BLOCK;
                    let hi = n.min(lo + RNG_BLOCK);
                    (lo..hi)
                        .map(|_| {
                            let mut z = [0.0f64; DIMS];
                            for zd in z.iter_mut() {
                                *zd = standard_normal(&mut rng);
                            }
                            VariationSample::from_standard(&z, &self.space)
                        })
                        .collect::<Vec<_>>()
                });
                rows.into_iter().flatten().collect()
            }
        }
    }

    /// Runs the arc over a fresh variation matrix at one (slew, load) point.
    pub fn simulate<A: TimingArcModel>(&self, arc: &A, slew: f64, load: f64) -> McResult {
        let obs = Obs::current();
        let _span = obs.span("mc.simulate");
        let draws = self.draw_variations();
        obs.inc("mc.samples", draws.len() as u64);
        Self::evaluate_all(arc, &draws, slew, load, &self.par)
    }

    /// Runs the arc over an *externally supplied* variation matrix — used by
    /// path-level golden simulation where stages must share or correlate
    /// draws. Evaluates on auto-detected parallelism (results do not depend
    /// on the thread count); use [`McEngine::simulate_with_par`] to bound it.
    pub fn simulate_with<A: TimingArcModel>(
        arc: &A,
        draws: &[VariationSample],
        slew: f64,
        load: f64,
    ) -> McResult {
        Self::simulate_with_par(arc, draws, slew, load, &Parallelism::auto())
    }

    /// [`McEngine::simulate_with`] on an explicit thread/chunk configuration.
    pub fn simulate_with_par<A: TimingArcModel>(
        arc: &A,
        draws: &[VariationSample],
        slew: f64,
        load: f64,
        par: &Parallelism,
    ) -> McResult {
        let obs = Obs::current();
        let _span = obs.span("mc.simulate");
        obs.inc("mc.samples", draws.len() as u64);
        Self::evaluate_all(arc, draws, slew, load, par)
    }

    /// Draws the variation matrix from an explicit mixture proposal,
    /// returning each row with its log importance weight.
    ///
    /// Follows the `Plain` scheme's per-block RNG-stream contract (one
    /// stream per block of `RNG_BLOCK` rows via [`chunk_seed`]), so the draw
    /// is bit-identical at any thread count; a
    /// [nominal](IsProposal::is_nominal) proposal consumes the RNG exactly
    /// like [`SamplingScheme::Plain`] and reproduces its samples with
    /// weights ≡ 1.
    pub fn draw_proposal(&self, proposal: &IsProposal) -> Vec<(VariationSample, f64)> {
        let _span = Obs::current().span("mc.draw_is");
        let n = self.samples;
        let n_chunks = Parallelism::chunk_count(n, RNG_BLOCK);
        let rows = self.par.par_map_indexed(n_chunks, |c| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, c as u64));
            let lo = c * RNG_BLOCK;
            let hi = n.min(lo + RNG_BLOCK);
            (lo..hi)
                .map(|_| {
                    let z = proposal.sample_row(&mut rng);
                    (
                        VariationSample::from_standard(&z, &self.space),
                        proposal.ln_weight(&z),
                    )
                })
                .collect::<Vec<_>>()
        });
        rows.into_iter().flatten().collect()
    }

    /// Runs the pilot phase of an importance-sampled run: `cfg.pilot_samples`
    /// plain-MC draws on a decorrelated seed, evaluated through `arc`, then
    /// [`select_proposal`] on the standardized pilot coordinates.
    pub fn select_is_proposal<A: TimingArcModel>(
        &self,
        arc: &A,
        slew: f64,
        load: f64,
        cfg: &IsConfig,
    ) -> IsSelection {
        let obs = Obs::current();
        let _span = obs.span("mc.is_pilot");
        let pilot = McEngine::new(self.space, cfg.pilot_samples, self.seed ^ PILOT_SEED_XOR)
            .with_scheme(SamplingScheme::Plain)
            .with_parallelism(self.par);
        let draws = pilot.draw_variations();
        obs.inc("mc.is.pilot_calls", draws.len() as u64);
        let r = Self::evaluate_all(arc, &draws, slew, load, &self.par);
        let zs: Vec<[f64; VariationSample::DIMS]> =
            draws.iter().map(|v| v.to_standard(&self.space)).collect();
        select_proposal(&zs, &r.delays, cfg)
    }

    /// Importance-sampled run: pilot → proposal selection → weighted main
    /// draw of this engine's `samples` rows at one (slew, load) point.
    ///
    /// Total evaluator calls are `cfg.pilot_samples + samples` (see
    /// [`McIsResult::evaluator_calls`]); the result is bit-identical at any
    /// thread count.
    pub fn simulate_is<A: TimingArcModel>(
        &self,
        arc: &A,
        slew: f64,
        load: f64,
        cfg: &IsConfig,
    ) -> McIsResult {
        let obs = Obs::current();
        let _span = obs.span("mc.simulate_is");
        let sel = self.select_is_proposal(arc, slew, load, cfg);
        let weighted = self.draw_proposal(&sel.proposal);
        obs.inc("mc.is.samples", weighted.len() as u64);
        let draws: Vec<VariationSample> = weighted.iter().map(|(v, _)| *v).collect();
        let ln_weights: Vec<f64> = weighted.iter().map(|(_, w)| *w).collect();
        let r = Self::evaluate_all(arc, &draws, slew, load, &self.par);
        McIsResult {
            delays: r.delays,
            transitions: r.transitions,
            ln_weights,
            proposal: sel.proposal,
            pilot_mean: sel.pilot_mean,
            pilot_std: sel.pilot_std,
            pilot_calls: sel.pilot_calls,
        }
    }

    /// The shared per-sample evaluation fan-out: output slot `i` is a pure
    /// function of `draws[i]`, so chunked parallel evaluation is exact.
    fn evaluate_all<A: TimingArcModel>(
        arc: &A,
        draws: &[VariationSample],
        slew: f64,
        load: f64,
        par: &Parallelism,
    ) -> McResult {
        let pairs = par.par_map_chunked(draws.len(), par.chunk_size(), |i| {
            let t = arc.evaluate(&draws[i], slew, load);
            (t.delay, t.transition)
        });
        let (delays, transitions) = pairs.into_iter().unzip();
        McResult {
            delays,
            transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc_model::RegimeCompetitionArc;
    use lvf2_stats::Histogram;

    #[test]
    fn balanced_arc_is_bimodal() {
        let engine = McEngine::new(VariationSpace::tt_22nm(), 8000, 1);
        let arc = RegimeCompetitionArc::balanced_bimodal();
        let r = engine.simulate(&arc, 0.02, 0.05);
        let h = Histogram::new(&r.delays, 60).unwrap();
        assert!(
            h.peak_count() >= 2,
            "expected bimodal delays, got {} peak(s)",
            h.peak_count()
        );
    }

    #[test]
    fn dominated_arc_is_unimodal() {
        let engine = McEngine::new(VariationSpace::tt_22nm(), 8000, 2);
        let arc = RegimeCompetitionArc::dominated();
        let r = engine.simulate(&arc, 0.02, 0.05);
        let h = Histogram::new(&r.delays, 40).unwrap();
        assert_eq!(h.peak_count(), 1, "expected unimodal delays");
    }

    #[test]
    fn delays_are_positive_and_skewed() {
        let engine = McEngine::new(VariationSpace::tt_22nm(), 5000, 3);
        let arc = RegimeCompetitionArc::dominated();
        let r = engine.simulate(&arc, 0.02, 0.05);
        assert!(r.delays.iter().all(|&d| d > 0.0));
        // Alpha-power convexity ⇒ right skew for a single regime.
        let skew = lvf2_stats::sample_skewness(&r.delays);
        assert!(skew > 0.1, "skew {skew}");
    }

    #[test]
    fn different_seeds_differ() {
        let arc = RegimeCompetitionArc::balanced_bimodal();
        let a = McEngine::new(VariationSpace::tt_22nm(), 100, 1).simulate(&arc, 0.02, 0.05);
        let b = McEngine::new(VariationSpace::tt_22nm(), 100, 2).simulate(&arc, 0.02, 0.05);
        assert_ne!(a, b);
    }

    #[test]
    fn plain_scheme_also_works() {
        let engine =
            McEngine::new(VariationSpace::tt_22nm(), 500, 4).with_scheme(SamplingScheme::Plain);
        let arc = RegimeCompetitionArc::balanced_bimodal();
        let r = engine.simulate(&arc, 0.02, 0.05);
        assert_eq!(r.delays.len(), 500);
    }

    #[test]
    fn simulate_is_is_deterministic_and_counts_calls() {
        let engine = McEngine::new(VariationSpace::tt_22nm(), 2000, 11);
        let arc = RegimeCompetitionArc::dominated();
        let cfg = IsConfig::default();
        let a = engine.simulate_is(&arc, 0.02, 0.05, &cfg);
        let b = engine.simulate_is(&arc, 0.02, 0.05, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.evaluator_calls(), 2000 + cfg.pilot_samples);
        assert_eq!(a.delays.len(), 2000);
        assert!(a.ess() > 1.0 && a.ess() <= 2000.0);
    }

    #[test]
    fn is_tail_estimate_tracks_golden_mc() {
        let arc = RegimeCompetitionArc::dominated();
        let golden = McEngine::new(VariationSpace::tt_22nm(), 120_000, 21)
            .with_scheme(SamplingScheme::Plain)
            .simulate(&arc, 0.02, 0.05);
        let mean = lvf2_stats::sample_mean(&golden.delays);
        let sd = lvf2_stats::sample_std(&golden.delays);
        let threshold = mean + 3.0 * sd;
        let p_golden = golden.delays.iter().filter(|&&d| d > threshold).count() as f64
            / golden.delays.len() as f64;

        let is = McEngine::new(VariationSpace::tt_22nm(), 4000, 22).simulate_is(
            &arc,
            0.02,
            0.05,
            &IsConfig::default(),
        );
        let est = is.tail_estimate(threshold);
        assert!(
            (est.probability - p_golden).abs() / p_golden < 0.25,
            "IS {} vs golden {p_golden}",
            est.probability
        );
        assert!(!est.floored);
        assert!(est.ess > 100.0, "ESS {}", est.ess);
    }

    #[test]
    fn simulate_with_shares_draws() {
        let engine = McEngine::new(VariationSpace::tt_22nm(), 50, 5);
        let draws = engine.draw_variations();
        let arc = RegimeCompetitionArc::balanced_bimodal();
        let a = McEngine::simulate_with(&arc, &draws, 0.02, 0.05);
        let b = McEngine::simulate_with(&arc, &draws, 0.02, 0.05);
        assert_eq!(a, b);
    }
}
