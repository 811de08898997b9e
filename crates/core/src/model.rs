//! Top-level model-family API: fit any family by name, fit all four at
//! once, and score them against golden samples.

use lvf2_binning::{score_model, GoldenReference, ModelScore};
use lvf2_fit::{fit_lesn, fit_lvf, fit_lvf2, fit_norm2, FitConfig, FitError, Fitted};
use lvf2_ssta::TimingDist;
use lvf2_stats::StatsError;

/// The four model families compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Single skew-normal — the LVF industry standard (baseline).
    Lvf,
    /// Two-Gaussian mixture (ref \[10\]).
    Norm2,
    /// Log-extended-skew-normal (ref \[7\]).
    Lesn,
    /// Two-skew-normal mixture — the paper's contribution.
    Lvf2,
}

impl ModelKind {
    /// All four families, baseline first.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Lvf,
        ModelKind::Norm2,
        ModelKind::Lesn,
        ModelKind::Lvf2,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Lvf => "LVF",
            ModelKind::Norm2 => "Norm2",
            ModelKind::Lesn => "LESN",
            ModelKind::Lvf2 => "LVF2",
        }
    }
}

/// Parses the lowercase wire and command-line names `lvf`, `norm2`, `lesn`
/// and `lvf2`.
impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lvf" => Ok(ModelKind::Lvf),
            "norm2" => Ok(ModelKind::Norm2),
            "lesn" => Ok(ModelKind::Lesn),
            "lvf2" => Ok(ModelKind::Lvf2),
            other => Err(format!("unknown model `{other}` (lvf, norm2, lesn, lvf2)")),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fits one family to Monte-Carlo samples.
///
/// # Errors
///
/// Propagates the family fitter's [`FitError`] (degenerate data, too few
/// samples, non-positive samples for LESN).
///
/// # Example
///
/// ```
/// use lvf2::{fit_model, ModelKind};
/// use lvf2::fit::FitConfig;
///
/// # fn main() -> Result<(), lvf2::fit::FitError> {
/// let xs = lvf2::cells::Scenario::Saddle.sample(2000, 3);
/// let f = fit_model(ModelKind::Lvf, &xs, &FitConfig::default())?;
/// assert_eq!(f.model.family(), "LVF");
/// # Ok(())
/// # }
/// ```
pub fn fit_model(
    kind: ModelKind,
    samples: &[f64],
    config: &FitConfig,
) -> Result<Fitted<TimingDist>, FitError> {
    Ok(match kind {
        ModelKind::Lvf => fit_lvf(samples, config)?.map(TimingDist::Lvf),
        ModelKind::Norm2 => fit_norm2(samples, config)?.map(TimingDist::Norm2),
        ModelKind::Lesn => fit_lesn(samples, config)?.map(TimingDist::Lesn),
        ModelKind::Lvf2 => fit_lvf2(samples, config)?.map(TimingDist::Lvf2),
    })
}

/// All four fitted families for one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AllFits {
    /// LVF (baseline).
    pub lvf: TimingDist,
    /// Norm².
    pub norm2: TimingDist,
    /// LESN.
    pub lesn: TimingDist,
    /// LVF².
    pub lvf2: TimingDist,
}

impl AllFits {
    /// Iterates `(kind, model)` pairs in [`ModelKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelKind, &TimingDist)> {
        [
            (ModelKind::Lvf, &self.lvf),
            (ModelKind::Norm2, &self.norm2),
            (ModelKind::Lesn, &self.lesn),
            (ModelKind::Lvf2, &self.lvf2),
        ]
        .into_iter()
    }
}

/// Fits all four families to the same sample set (the per-distribution inner
/// loop of Tables 1–2).
///
/// # Errors
///
/// Fails if *any* family rejects the data.
pub fn fit_all_models(samples: &[f64], config: &FitConfig) -> Result<AllFits, FitError> {
    Ok(AllFits {
        lvf: fit_model(ModelKind::Lvf, samples, config)?.model,
        norm2: fit_model(ModelKind::Norm2, samples, config)?.model,
        lesn: fit_model(ModelKind::Lesn, samples, config)?.model,
        lvf2: fit_model(ModelKind::Lvf2, samples, config)?.model,
    })
}

/// Scores of all four families against the same golden reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllScores {
    /// LVF (baseline).
    pub lvf: ModelScore,
    /// Norm².
    pub norm2: ModelScore,
    /// LESN.
    pub lesn: ModelScore,
    /// LVF².
    pub lvf2: ModelScore,
}

impl AllScores {
    /// Error reductions (Eq. 12) for a metric selected by `f`, reported as
    /// `(LVF2×, Norm2×, LESN×)` relative to the LVF baseline.
    pub fn reductions(&self, f: impl Fn(&ModelScore) -> f64) -> (f64, f64, f64) {
        let base = f(&self.lvf);
        (
            lvf2_binning::error_reduction(base, f(&self.lvf2)),
            lvf2_binning::error_reduction(base, f(&self.norm2)),
            lvf2_binning::error_reduction(base, f(&self.lesn)),
        )
    }
}

/// Scores all four fits against golden samples.
///
/// # Errors
///
/// [`StatsError`] when the golden samples are degenerate.
pub fn score_all(fits: &AllFits, golden_samples: &[f64]) -> Result<AllScores, StatsError> {
    let golden = GoldenReference::from_samples(golden_samples)?;
    Ok(AllScores {
        lvf: score_model(&fits.lvf, &golden),
        norm2: score_model(&fits.norm2, &golden),
        lesn: score_model(&fits.lesn, &golden),
        lvf2: score_model(&fits.lvf2, &golden),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_cells::Scenario;

    #[test]
    fn all_families_fit_a_scenario() {
        let xs = Scenario::TwoPeaks.sample(3000, 5);
        let fits = fit_all_models(&xs, &FitConfig::fast()).unwrap();
        assert_eq!(fits.lvf.family(), "LVF");
        assert_eq!(fits.lvf2.family(), "LVF2");
        assert_eq!(fits.iter().count(), 4);
    }

    #[test]
    fn lvf2_beats_lvf_on_bimodal_data() {
        let xs = Scenario::TwoPeaks.sample(8000, 6);
        let fits = fit_all_models(&xs, &FitConfig::default()).unwrap();
        let scores = score_all(&fits, &xs).unwrap();
        let (lvf2_x, _, _) = scores.reductions(|s| s.binning_error);
        assert!(lvf2_x > 2.0, "LVF2 binning reduction {lvf2_x}");
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(ModelKind::Lvf2.to_string(), "LVF2");
        assert_eq!(ModelKind::ALL[0], ModelKind::Lvf);
    }

    #[test]
    fn every_kind_parses_from_its_lowercase_name() {
        for kind in ModelKind::ALL {
            let name = kind.name().to_ascii_lowercase();
            assert_eq!(name.parse::<ModelKind>(), Ok(kind));
        }
        let err = "gauss".parse::<ModelKind>().unwrap_err();
        assert!(err.contains("unknown model `gauss`"), "{err}");
    }

    #[test]
    fn fit_model_rejects_bad_data() {
        assert!(fit_model(ModelKind::Lvf2, &[1.0; 5], &FitConfig::default()).is_err());
    }
}
