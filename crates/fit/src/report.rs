//! Fit diagnostics.

/// Convergence diagnostics returned alongside every fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Final total log-likelihood of the data under the fitted model
    /// (NaN for pure moment-matching fits where it is not evaluated).
    pub log_likelihood: f64,
    /// Outer iterations spent (EM iterations, or optimizer iterations).
    pub iterations: usize,
    /// Whether a stop rule fired within the iteration budget: for EM, the
    /// tolerance or three iterations in a row without a new best.
    pub converged: bool,
}

impl FitReport {
    /// A report for closed-form fits that need no iteration.
    pub fn closed_form(log_likelihood: f64) -> Self {
        FitReport {
            log_likelihood,
            iterations: 0,
            converged: true,
        }
    }
}

/// A fitted model together with its diagnostics.
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_lvf, FitConfig};
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let samples: Vec<f64> = (0..100).map(|i| 1.0 + 0.01 * i as f64).collect();
/// let fitted = fit_lvf(&samples, &FitConfig::default())?;
/// assert!(fitted.report.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fitted<M> {
    /// The fitted model.
    pub model: M,
    /// Convergence diagnostics.
    pub report: FitReport,
}

impl<M> Fitted<M> {
    /// Bundles a model with its report.
    pub fn new(model: M, report: FitReport) -> Self {
        Fitted { model, report }
    }

    /// Maps the model type, keeping the report.
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Fitted<N> {
        Fitted {
            model: f(self.model),
            report: self.report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_report() {
        let f = Fitted::new(1.0_f64, FitReport::closed_form(-12.0));
        let g = f.map(|x| x as i64);
        assert_eq!(g.model, 1);
        assert_eq!(g.report.log_likelihood, -12.0);
        assert!(g.report.converged);
    }
}
